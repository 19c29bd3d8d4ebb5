"""Tests for the meta-learning (warm-start) tuner extension."""

import numpy as np

from repro.explorer import PipelineStore
from repro.tuning.hyperparams import (
    BooleanHyperparam,
    CategoricalHyperparam,
    FloatHyperparam,
    IntHyperparam,
    Tunable,
)
from repro.tuning.meta import WarmStartGPTuner, harvest_history, _parse_key


def _space():
    return Tunable({
        ("m", "x"): FloatHyperparam("x", 0.0, 1.0, default=0.5),
        ("m", "n"): IntHyperparam("n", 1, 10, default=5),
    })


def _objective(params):
    x = params[("m", "x")]
    n = params[("m", "n")] / 10.0
    return float(-((x - 0.8) ** 2) - (n - 0.2) ** 2)


def _history(n=20, seed=0):
    rng = np.random.RandomState(seed)
    history = []
    for _ in range(n):
        params = {("m", "x"): float(rng.uniform()), ("m", "n"): int(rng.randint(1, 11))}
        history.append((params, _objective(params)))
    return history


class TestWarmStartGPTuner:
    def test_first_proposal_exploits_best_prior(self):
        history = _history()
        best_prior = max(history, key=lambda pair: pair[1])[0]
        tuner = WarmStartGPTuner(_space(), history=history, random_state=0)
        assert tuner.propose() == best_prior

    def test_warm_observations_counted(self):
        tuner = WarmStartGPTuner(_space(), history=_history(12), random_state=0)
        assert tuner.n_warm_observations == 12

    def test_incomplete_history_entries_ignored(self):
        history = [({("m", "x"): 0.5}, 0.1), ({("m", "x"): 0.2, ("m", "n"): 3}, 0.2)]
        tuner = WarmStartGPTuner(_space(), history=history)
        assert tuner.n_warm_observations == 1

    def test_none_scores_ignored(self):
        history = [({("m", "x"): 0.5, ("m", "n"): 2}, None)]
        tuner = WarmStartGPTuner(_space(), history=history)
        assert tuner.n_warm_observations == 0

    def test_behaves_like_gp_tuner_without_history(self):
        tuner = WarmStartGPTuner(_space(), history=[], random_state=0)
        for _ in range(5):
            params = tuner.propose()
            tuner.record(params, _objective(params))
        assert tuner.best_score is not None

    def test_warm_start_speeds_up_early_search(self):
        def best_after(tuner, iterations=4):
            best = -np.inf
            for _ in range(iterations):
                params = tuner.propose()
                score = _objective(params)
                tuner.record(params, score)
                best = max(best, score)
            return best

        history = _history(30, seed=1)
        warm_bests = [
            best_after(WarmStartGPTuner(_space(), history=history, random_state=seed))
            for seed in range(4)
        ]
        from repro.tuning.tuners import UniformTuner

        cold_bests = [
            best_after(UniformTuner(_space(), random_state=seed)) for seed in range(4)
        ]
        assert np.mean(warm_bests) >= np.mean(cold_bests)

    def test_proposals_stay_in_bounds(self):
        tuner = WarmStartGPTuner(_space(), history=_history(), random_state=0)
        for _ in range(8):
            params = tuner.propose()
            assert 0.0 <= params[("m", "x")] <= 1.0
            assert 1 <= params[("m", "n")] <= 10
            tuner.record(params, _objective(params))


def _mixed_space():
    return Tunable({
        ("m", "layers"): CategoricalHyperparam("layers", [(32,), (64,), (16, 16), None]),
        ("m", "flag"): BooleanHyperparam("flag"),
        ("m", "x"): FloatHyperparam("x", 0.0, 1.0),
        ("m", "n"): IntHyperparam("n", 1, 10),
    })


class TestHistoryFromStoredDocuments:
    """Harvested values come back normalized (tuples as lists) and may lie outside the space."""

    def _entry(self, **overrides):
        params = {("m", "layers"): [64], ("m", "flag"): True, ("m", "x"): 0.5, ("m", "n"): 3}
        params.update({("m", name): value for name, value in overrides.items()})
        return params

    def test_normalized_values_map_onto_the_space_values(self):
        history = [(self._entry(), 0.9), (self._entry(layers=[16, 16], flag=0), 0.5),
                   (self._entry(layers=None), 0.1)]
        tuner = WarmStartGPTuner(_mixed_space(), history=history, random_state=0)
        layers = [trial[("m", "layers")] for trial in tuner._warm_trials]
        assert layers == [(64,), (16, 16), None]
        assert [trial[("m", "flag")] for trial in tuner._warm_trials] == [True, False, True]
        assert tuner.propose()[("m", "layers")] == (64,)  # the best prior, as a tuple

    def test_entries_outside_the_space_are_dropped(self):
        history = [
            (self._entry(layers=[128]), 0.9),  # unknown category
            (self._entry(x=1.5), 0.8),  # number above high
            (self._entry(n=0), 0.7),  # number below low
            (self._entry(n="three"), 0.6),  # not a number
            (self._entry(flag="yes"), 0.5),  # not a boolean
            (self._entry(), 0.1),
        ]
        tuner = WarmStartGPTuner(_mixed_space(), history=history, random_state=0)
        assert tuner.n_warm_observations == 1
        assert tuner._warm_trials[0][("m", "layers")] == (64,)

    def test_warm_start_from_a_store_over_a_tuple_categorical(self):
        # the reproduction: the MLP's hidden_units are tuples, stored as lists,
        # and the second search used to die on its first proposal with
        # "Value [64] is not among the categories of ..."
        from repro.automl import AutoBazaarSearch
        from repro.automl.catalog import CLASS_DECODER, CLASS_ENCODER, IMPUTER, SCALER
        from repro.core.template import Template
        from repro.tasks import synth

        template = Template("mlp_classification", [
            CLASS_ENCODER, IMPUTER, SCALER, "sklearn.neural_network.MLPClassifier",
            CLASS_DECODER,
        ])
        key = ("sklearn.neural_network.MLPClassifier#0", "hidden_units")
        assert isinstance(template.get_tunable_hyperparameters()[key].default, tuple)
        store = PipelineStore()
        first = synth.make_single_table_classification(n_samples=80, random_state=0)
        first.name = "first"
        AutoBazaarSearch(templates=[template], n_splits=2, random_state=0, estimator_seed=0,
                         store=store).search(first, budget=3)
        stored = [document["hyperparameters"][str(key)] for document in store]
        assert stored and all(isinstance(value, list) for value in stored)

        second = synth.make_single_table_classification(n_samples=80, random_state=1)
        second.name = "second"
        warm = AutoBazaarSearch(templates=[template], n_splits=2, random_state=0,
                                estimator_seed=0, warm_start_store=store)
        result = warm.search(second, budget=3)
        assert [record.error for record in result.records] == [None] * 3
        top = max(document["score"] for document in store)
        best_priors = {tuple(document["hyperparameters"][str(key)])
                       for document in store if document["score"] == top}
        exploited = result.records[1]  # the first proposal after the default
        assert not exploited.is_default
        assert exploited.hyperparameters[key] in best_priors  # a tuple again


class TestHarvestHistory:
    def _store(self):
        store = PipelineStore()
        for task, score, x in [("t1", 0.9, 0.8), ("t2", 0.5, 0.2), ("t3", None, 0.4)]:
            store.add({
                "task_name": task,
                "template_name": "clf_xgb",
                "score": score,
                "hyperparameters": {str(("m", "x")): x, str(("m", "n")): 3},
            })
        store.add({
            "task_name": "t1", "template_name": "other_template", "score": 0.99,
            "hyperparameters": {str(("m", "x")): 0.1},
        })
        return store

    def test_only_matching_template_and_scored_documents(self):
        history = harvest_history(self._store(), "clf_xgb")
        assert len(history) == 2

    def test_exclude_task(self):
        history = harvest_history(self._store(), "clf_xgb", exclude_task="t1")
        assert len(history) == 1

    def test_sorted_by_score_and_limited(self):
        history = harvest_history(self._store(), "clf_xgb", limit=1)
        assert len(history) == 1
        assert history[0][1] == 0.9

    def test_keys_parsed_back_to_tuples(self):
        history = harvest_history(self._store(), "clf_xgb")
        params, _ = history[0]
        assert ("m", "x") in params

    def test_parse_key_passthrough(self):
        assert _parse_key(("a", "b")) == ("a", "b")
        assert _parse_key("plain") == "plain"
        assert _parse_key("('step#0', 'alpha')") == ("step#0", "alpha")
