"""Tests for the record/propose tuners."""

import numpy as np
import pytest

from repro.tuning.hyperparams import FloatHyperparam, IntHyperparam, Tunable
from repro.tuning.meta import WarmStartGPTuner
from repro.tuning.tuners import (
    GCPEiTuner,
    GPEiTuner,
    GPMatern52EiTuner,
    GPTuner,
    UniformTuner,
    get_tuner,
)


def _space():
    return Tunable({
        ("m", "x"): FloatHyperparam("x", 0.0, 1.0, default=0.5),
        ("m", "n"): IntHyperparam("n", 1, 10, default=5),
    })


def _branin_like(params):
    """A smooth 1-peak objective on the unit square (higher is better)."""
    x = params[("m", "x")]
    n = params[("m", "n")] / 10.0
    return float(-((x - 0.7) ** 2) - (n - 0.3) ** 2)


class TestBaseTunerBehaviour:
    def test_record_and_best(self):
        tuner = UniformTuner(_space(), random_state=0)
        tuner.record({("m", "x"): 0.2, ("m", "n"): 3}, 0.5)
        tuner.record({("m", "x"): 0.8, ("m", "n"): 4}, 0.9)
        assert tuner.best_score == 0.9
        assert tuner.best_params[("m", "x")] == 0.8

    def test_empty_tuner_has_no_best(self):
        tuner = UniformTuner(_space())
        assert tuner.best_score is None
        assert tuner.best_params is None

    def test_non_finite_score_rejected(self):
        tuner = UniformTuner(_space())
        with pytest.raises(ValueError):
            tuner.record({("m", "x"): 0.5, ("m", "n"): 5}, float("nan"))

    def test_accepts_spec_dict_directly(self):
        from repro.core.annotations import HyperparamSpec

        tuner = UniformTuner({("m", "x"): HyperparamSpec("x", "float", 0.5, range=(0, 1))})
        assert tuner.tunable.dimensions == 1

    def test_propose_is_abstract_on_base(self):
        from repro.tuning.tuners import BaseTuner

        with pytest.raises(NotImplementedError):
            BaseTuner(_space()).propose()


class TestUniformTuner:
    def test_proposals_within_bounds(self):
        tuner = UniformTuner(_space(), random_state=0)
        for _ in range(30):
            params = tuner.propose()
            assert 0.0 <= params[("m", "x")] <= 1.0
            assert 1 <= params[("m", "n")] <= 10

    def test_reproducible_with_seed(self):
        a = UniformTuner(_space(), random_state=7).propose()
        b = UniformTuner(_space(), random_state=7).propose()
        assert a == b


class TestGPTuners:
    @pytest.mark.parametrize("tuner_class", [GPEiTuner, GPMatern52EiTuner, GCPEiTuner])
    def test_tuner_improves_over_iterations(self, tuner_class):
        tuner = tuner_class(_space(), random_state=0)
        scores = []
        for _ in range(15):
            params = tuner.propose()
            score = _branin_like(params)
            tuner.record(params, score)
            scores.append(score)
        # the best of the later proposals should beat the best of the first 3 (random) ones
        assert max(scores[3:]) >= max(scores[:3])
        assert tuner.best_score > -0.5

    def test_gp_tuner_beats_random_on_average(self):
        def run(tuner):
            best = -np.inf
            for _ in range(12):
                params = tuner.propose()
                score = _branin_like(params)
                tuner.record(params, score)
                best = max(best, score)
            return best

        gp_bests = [run(GPEiTuner(_space(), random_state=seed)) for seed in range(5)]
        random_bests = [run(UniformTuner(_space(), random_state=seed)) for seed in range(5)]
        assert np.mean(gp_bests) >= np.mean(random_bests) - 0.02

    def test_random_until_min_trials(self):
        tuner = GPEiTuner(_space(), min_trials=4, random_state=0)
        for _ in range(3):
            params = tuner.propose()
            tuner.record(params, 0.1)
        assert len(tuner.trials) == 3  # still below min_trials; proposals were random

    def test_kernel_attribute_matches_variant(self):
        assert GPEiTuner(_space()).kernel == "se"
        assert GPMatern52EiTuner(_space()).kernel == "matern52"

    def test_invalid_acquisition_rejected(self):
        with pytest.raises(ValueError):
            GPTuner(_space(), acquisition="magic")

    @pytest.mark.parametrize("tuner_class", [GPTuner, GPEiTuner, GPMatern52EiTuner, GCPEiTuner,
                                             WarmStartGPTuner])
    @pytest.mark.parametrize("argument", ["min_trials", "n_candidates"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_no_trials_or_candidates_rejected_at_construction(self, tuner_class, argument,
                                                              value):
        # both used to pass and crash the first model-based proposal with
        # numpy's "need at least one array to concatenate"
        with pytest.raises(ValueError, match="^{} must be at least 1".format(argument)):
            tuner_class(_space(), **{argument: value})

    def test_one_trial_and_one_candidate_suffice(self):
        tuner = GPEiTuner(_space(), min_trials=1, n_candidates=1, random_state=0)
        for _ in range(4):
            params = tuner.propose()
            tuner.record(params, _branin_like(params))
        assert len(tuner.propose(n=2)) == 2

    def test_proposals_stay_in_bounds_after_model_kicks_in(self):
        tuner = GPEiTuner(_space(), min_trials=2, n_candidates=30, random_state=0)
        for _ in range(10):
            params = tuner.propose()
            assert 0.0 <= params[("m", "x")] <= 1.0
            assert 1 <= params[("m", "n")] <= 10
            tuner.record(params, _branin_like(params))


class TestMetaModelMemoization:
    """The GP meta-model is fit at most once per training-data state."""

    def _counting_tuner(self, monkeypatch, **kwargs):
        fits = {"n": 0}
        tuner = GPEiTuner(_space(), min_trials=3, random_state=0, **kwargs)
        real_class = tuner.meta_model_class

        class CountingModel(real_class):
            def fit(self, X, y):
                fits["n"] += 1
                return super().fit(X, y)

        tuner.meta_model_class = CountingModel
        return tuner, fits

    def _warm_up(self, tuner):
        for score in (0.1, 0.5, 0.3, 0.7):
            params = tuner.propose()
            tuner.record(params, score)

    def test_unchanged_state_reuses_the_fitted_model(self, monkeypatch):
        tuner, fits = self._counting_tuner(monkeypatch)
        self._warm_up(tuner)
        tuner.propose()
        assert fits["n"] == 2  # propose 4 (after min_trials) + propose 5
        tuner.propose()
        tuner.propose()
        assert fits["n"] == 2  # nothing recorded in between: no refit

    def test_record_and_failure_dirty_the_model(self, monkeypatch):
        tuner, fits = self._counting_tuner(monkeypatch)
        self._warm_up(tuner)
        params = tuner.propose()
        fitted = fits["n"]
        tuner.record(params, 0.9)
        tuner.propose()
        assert fits["n"] == fitted + 1
        tuner.record_failure(params)
        tuner.propose()
        assert fits["n"] == fitted + 2

    def test_pending_bookkeeping_reuses_the_stale_model(self, monkeypatch):
        # the hot-path contract: proposals that only add/resolve pending
        # entries (the window-refill pattern: propose -> add_pending ->
        # propose again before any result lands) reuse the cached model
        # instead of re-running the length-scale grid — the stale-model
        # approximation of asynchronous Bayesian optimization
        tuner, fits = self._counting_tuner(monkeypatch)
        self._warm_up(tuner)
        params = tuner.propose()
        fitted = fits["n"]
        tuner.add_pending(params)
        tuner.propose()
        tuner.resolve_pending(params)
        tuner.propose()
        assert fits["n"] == fitted  # no new observation, no refit
        tuner.record(params, 0.8)
        tuner.propose()
        assert fits["n"] == fitted + 1  # a genuine observation refits

    def test_batch_proposal_fits_once_and_scores_vectorized(self, monkeypatch):
        tuner, fits = self._counting_tuner(monkeypatch)
        self._warm_up(tuner)
        scored_batches = []
        real_score = tuner._score_candidates

        def counting_score(model, candidates):
            scored_batches.append(len(candidates))
            return real_score(model, candidates)

        monkeypatch.setattr(tuner, "_score_candidates", counting_score)
        before = fits["n"]
        batch = tuner.propose(n=4)
        assert fits["n"] == before + 1  # one fit for the whole batch
        assert scored_batches == [tuner.n_candidates * 4]  # one vectorized pass
        assert len(batch) == 4
        for i in range(len(batch)):
            for j in range(i + 1, len(batch)):
                assert batch[i] != batch[j]
        assert tuner.pending == []  # no liar state left behind


class TestTunerRegistry:
    def test_lookup_by_name(self):
        assert get_tuner("gp_ei") is GPEiTuner
        assert get_tuner("gp_matern52_ei") is GPMatern52EiTuner
        assert get_tuner("uniform") is UniformTuner

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_tuner("simulated_annealing")
