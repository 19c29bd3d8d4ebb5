"""The incremental GP meta-model and tuner fast paths against the code they replaced.

``_ReferenceGP`` / ``_ReferenceGCP`` are ``GaussianProcessRegressor`` and
``GaussianCopulaProcessRegressor`` as they stood before refits reused the
previous fit's Gram rows — a fresh Gram matrix per length scale, the prior
variance read off a full ``kernel(X, X)``, ``scipy.stats.norm`` in the
acquisition functions and one ``to_vector`` per configuration — frozen here
as the single reference semantics.  Search record digests depend on
proposals being reproduced to the last bit, so every comparison below is
exact: ``np.array_equal`` on the Cholesky factor, ``alpha``, the predictions
and the acquisition values, ``==`` on proposals, and the tuner RNG left in
the same state.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg, stats

from repro.automl.checkpoint import rng_state_digest
from repro.tuning import gp
from repro.tuning.acquisition import expected_improvement, probability_of_improvement
from repro.tuning.gp import GaussianCopulaProcessRegressor, GaussianProcessRegressor
from repro.tuning.hyperparams import (
    BooleanHyperparam,
    CategoricalHyperparam,
    FloatHyperparam,
    IntHyperparam,
    Tunable,
)
from repro.tuning.meta import WarmStartGPTuner
from repro.tuning.tuners import GCPEiTuner, GPEiTuner, GPMatern52EiTuner


# -- the frozen reference ---------------------------------------------------------------


def _reference_sq_dists(X1, X2, length_scale):
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    diff = X1[:, None, :] - X2[None, :, :]
    return np.sum((diff / length_scale) ** 2, axis=-1)


def _reference_se(X1, X2, length_scale=0.3, signal_variance=1.0):
    sq_dists = _reference_sq_dists(X1, X2, length_scale)
    return signal_variance * np.exp(-0.5 * sq_dists)


def _reference_matern52(X1, X2, length_scale=0.3, signal_variance=1.0):
    sq_dists = _reference_sq_dists(X1, X2, length_scale)
    root5_r = np.sqrt(5.0 * sq_dists)
    return signal_variance * (1.0 + root5_r + 5.0 * sq_dists / 3.0) * np.exp(-root5_r)


_REFERENCE_KERNELS = {"se": _reference_se, "matern52": _reference_matern52}


class _ReferenceGP:
    """``GaussianProcessRegressor`` before incremental refits: everything from scratch."""

    def __init__(self, kernel="se", noise=1e-6, normalize_y=True, length_scales=(0.1, 0.3, 1.0)):
        self.kernel = kernel
        self.noise = noise
        self.normalize_y = normalize_y
        self.length_scales = length_scales

    def fit(self, X, y):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != len(y):
            raise ValueError("X and y have inconsistent lengths")
        if self.normalize_y:
            self._y_mean = float(y.mean())
            self._y_std = float(y.std()) or 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        targets = (y - self._y_mean) / self._y_std

        kernel_fn = _REFERENCE_KERNELS[self.kernel]
        best = None
        for length_scale in self.length_scales:
            gram = kernel_fn(X, X, length_scale=length_scale)
            gram[np.diag_indices_from(gram)] += max(self.noise, 1e-10)
            try:
                cho = linalg.cho_factor(gram, lower=True)
            except linalg.LinAlgError:
                continue
            alpha = linalg.cho_solve(cho, targets)
            log_likelihood = (
                -0.5 * targets @ alpha
                - np.sum(np.log(np.diag(cho[0])))
                - 0.5 * len(targets) * np.log(2.0 * np.pi)
            )
            if best is None or log_likelihood > best[0]:
                best = (log_likelihood, length_scale, cho, alpha)
        if best is None:
            raise RuntimeError("Gaussian process fit failed for every candidate length scale")
        self.log_marginal_likelihood_, self.length_scale_, self._cho, self._alpha = best
        self._X_train = X
        return self

    def predict(self, X, return_std=True):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        kernel_fn = _REFERENCE_KERNELS[self.kernel]
        cross = kernel_fn(X, self._X_train, length_scale=self.length_scale_)
        mean = cross @ self._alpha
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean
        solved = linalg.cho_solve(self._cho, cross.T)
        prior = kernel_fn(X, X, length_scale=self.length_scale_)
        variance = np.clip(np.diag(prior) - np.sum(cross * solved.T, axis=1), 1e-12, None)
        std = np.sqrt(variance) * self._y_std
        return mean, std


class _ReferenceGCP:
    """``GaussianCopulaProcessRegressor`` before refits reused one inner GP."""

    def __init__(self, kernel="se", noise=1e-6):
        self.kernel = kernel
        self.noise = noise

    def fit(self, X, y):
        y = np.asarray(y, dtype=float).ravel()
        self._sorted_y = np.sort(y)
        ranks = stats.rankdata(y, method="average")
        uniform = ranks / (len(y) + 1.0)
        normal_scores = stats.norm.ppf(uniform)
        self._gp = _ReferenceGP(kernel=self.kernel, noise=self.noise, normalize_y=False)
        self._gp.fit(X, normal_scores)
        return self

    def predict(self, X, return_std=True):
        mean, std = self._gp.predict(X, return_std=True)
        uniform = stats.norm.cdf(mean)
        positions = uniform * (len(self._sorted_y) - 1)
        mapped_mean = np.interp(positions, np.arange(len(self._sorted_y)), self._sorted_y)
        if not return_std:
            return mapped_mean
        return mapped_mean, std

    def predict_latent(self, X):
        return self._gp.predict(X, return_std=True)


def _reference_ei(mean, std, best, xi=0.01):
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = mean - best - xi
    z = improvement / std
    return improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z)


def _reference_pi(mean, std, best, xi=0.01):
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    return stats.norm.cdf((mean - best - xi) / std)


def _reference_unit(hyperparam, value):
    """``to_unit`` of each hyperparameter type, as it stood."""
    if isinstance(hyperparam, (IntHyperparam, FloatHyperparam)):
        if hyperparam.high == hyperparam.low:
            return 0.0
        return (float(value) - hyperparam.low) / (hyperparam.high - hyperparam.low)
    if isinstance(hyperparam, BooleanHyperparam):
        return 1.0 if value else 0.0
    index = None
    for position, candidate in enumerate(hyperparam.values):
        if candidate == value:
            index = position
            break
    if index is None:
        raise ValueError(
            "Value {!r} is not among the categories of {!r}".format(value, hyperparam.name)
        )
    if len(hyperparam.values) == 1:
        return 0.0
    return index / (len(hyperparam.values) - 1)


def _reference_vector(tunable, params):
    missing = [key for key in tunable.keys if key not in params]
    if missing:
        raise ValueError("Configuration is missing hyperparameters: {}".format(missing))
    return np.asarray(
        [_reference_unit(tunable.hyperparams[key], params[key]) for key in tunable.keys],
        dtype=float,
    )


def _reference_matrix(tunable, configs):
    return np.vstack([_reference_vector(tunable, params) for params in configs])


_REFERENCE_ACQUISITIONS = {"ei": _reference_ei, "pi": _reference_pi}


class _ReferenceTuning:
    """``GPTuner._fit_meta_model`` / ``_score_candidates`` as they stood: a fresh model per fit."""

    def _fit_meta_model(self):
        if self._meta_model is not None and self._meta_model_version == self._state_version:
            return self._meta_model
        trials, scores = self._training_data()
        model = self.reference_model_class(kernel=self.kernel)
        model.fit(_reference_matrix(self.tunable, trials), np.asarray(scores, dtype=float))
        self._meta_model = model
        self._meta_model_version = self._state_version
        return model

    def _score_candidates(self, model, candidates):
        vectors = _reference_matrix(self.tunable, candidates)
        mean, std = model.predict(vectors, return_std=True)
        return _REFERENCE_ACQUISITIONS[self.acquisition](mean, std, best=max(self.scores))


class RefGPEiTuner(_ReferenceTuning, GPEiTuner):
    reference_model_class = _ReferenceGP


class RefGPMatern52EiTuner(_ReferenceTuning, GPMatern52EiTuner):
    reference_model_class = _ReferenceGP


class RefGCPEiTuner(_ReferenceTuning, GCPEiTuner):
    reference_model_class = _ReferenceGCP

    def _score_candidates(self, model, candidates):
        vectors = _reference_matrix(self.tunable, candidates)
        mean, std = model.predict_latent(vectors)
        _, training_scores = self._training_data()
        ranks = stats.rankdata(training_scores, method="average")
        best_latent = stats.norm.ppf(ranks.max() / (len(training_scores) + 1.0))
        return _reference_ei(mean, std, best=best_latent)


class RefWarmStartGPTuner(_ReferenceTuning, WarmStartGPTuner):
    reference_model_class = _ReferenceGP

    def _fit_meta_model(self):
        trials, scores = self._training_data()
        observed = [_reference_vector(self.tunable, trial) for trial in trials]
        if self._warm_trials and scores:
            low, high = min(scores), max(scores)
            span = (high - low) or 1.0
            for trial, value in zip(self._warm_trials, self._warm_scores):
                observed.append(_reference_vector(self.tunable, trial))
                scores.append(low + self.warm_start_weight * value * span)
        model = self.reference_model_class(kernel=self.kernel)
        model.fit(np.vstack(observed), np.asarray(scores, dtype=float))
        return model


# -- comparison -------------------------------------------------------------------------


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def _fit_both(new, reference, X, y):
    """Fit both; where the reference raises, the new model raises the same."""
    try:
        reference.fit(X, y)
    except (RuntimeError, ValueError) as error:
        with pytest.raises(type(error), match=re.escape(str(error))):
            new.fit(X, y)
        return False
    new.fit(X, y)
    return True


def assert_same_gp(new, reference, queries):
    assert _same(new._cho[0], reference._cho[0])
    assert new._cho[1] == reference._cho[1]
    assert _same(new._alpha, reference._alpha)
    assert new.length_scale_ == reference.length_scale_
    assert _same(new.log_marginal_likelihood_, reference.log_marginal_likelihood_)
    for X in (queries, new._X_train):
        mean, std = new.predict(X)
        expected_mean, expected_std = reference.predict(X)
        assert _same(mean, expected_mean) and _same(std, expected_std)
        assert _same(new.predict(X, return_std=False), expected_mean)


def assert_same_model(new, reference, queries):
    if isinstance(reference, _ReferenceGCP):
        assert _same(new._sorted_y, reference._sorted_y)
        assert_same_gp(new._gp, reference._gp, queries)
        for got, expected in zip(new.predict(queries), reference.predict(queries)):
            assert _same(got, expected)
    else:
        assert_same_gp(new, reference, queries)


# -- generated inputs -------------------------------------------------------------------


@st.composite
def training_sets(draw, max_rows=12, max_cols=12):
    """Unit-cube rows with the structure tuner rows have: grids, ties, duplicates."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))
    X = rng.uniform(size=(n_rows, n_cols))
    levels = draw(st.sampled_from([None, 1, 2, 4]))  # categorical / boolean / int columns
    if levels is not None:
        columns = rng.rand(n_cols) < 0.5
        X[:, columns] = np.round(X[:, columns] * levels) / levels
    for _ in range(draw(st.integers(0, 3))):
        X[rng.randint(n_rows)] = X[rng.randint(n_rows)]
    y = rng.normal(size=n_rows)
    if draw(st.booleans()):
        y = np.round(y, 1)  # tied scores
    return X, y, rng


def _queries(X, rng):
    """The training rows, near misses and fresh points of the unit cube."""
    jitter = rng.normal(scale=0.05, size=(5, X.shape[1]))
    near = np.clip(X[rng.randint(0, len(X), size=5)] + jitter, 0.0, 1.0)
    return np.vstack([X, near, rng.uniform(size=(6, X.shape[1]))])


KERNEL_NAMES = st.sampled_from(["se", "matern52"])
EXAMPLES = settings(max_examples=150, deadline=None)


# -- one fit ----------------------------------------------------------------------------


class TestOneFit:
    @given(data=training_sets(), kernel=KERNEL_NAMES, normalize_y=st.booleans())
    @EXAMPLES
    def test_fresh_fit_and_predict(self, data, kernel, normalize_y):
        X, y, rng = data
        new = GaussianProcessRegressor(kernel=kernel, normalize_y=normalize_y)
        reference = _ReferenceGP(kernel=kernel, normalize_y=normalize_y)
        if _fit_both(new, reference, X, y):
            assert_same_gp(new, reference, _queries(X, rng))

    @given(data=training_sets(), kernel=KERNEL_NAMES)
    @EXAMPLES
    def test_copula_fit_and_predict(self, data, kernel):
        X, y, rng = data
        new = GaussianCopulaProcessRegressor(kernel=kernel)
        reference = _ReferenceGCP(kernel=kernel)
        if _fit_both(new, reference, X, y):
            assert_same_model(new, reference, _queries(X, rng))
            for got, expected in zip(new.predict_latent(X), reference.predict_latent(X)):
                assert _same(got, expected)


# -- refits of one instance -------------------------------------------------------------

#: How a tuner's training rows (trials, pending, failed, warm) change between fits.
REFIT_STEPS = ["append", "append_duplicate", "pending", "resolve", "record_pending",
               "fail", "warm", "first_row", "kernel"]


class TestRefitsOfOneInstance:
    @given(data=training_sets(max_rows=6), kernel=KERNEL_NAMES, normalize_y=st.booleans(),
           copula=st.booleans(), steps=st.lists(st.sampled_from(REFIT_STEPS), max_size=10))
    @EXAMPLES
    def test_every_refit_equals_a_fresh_reference_fit(self, data, kernel, normalize_y, copula,
                                                       steps):
        X0, _, rng = data
        n_cols = X0.shape[1]
        trials, pending, failed, warm = [row for row in X0], [], [], []

        def row():
            return rng.uniform(size=n_cols)

        if copula:
            new = GaussianCopulaProcessRegressor(kernel=kernel)
        else:
            new = GaussianProcessRegressor(kernel=kernel, normalize_y=normalize_y)
        for step in ["fit"] + steps:
            if step == "append":
                trials.append(row())
            elif step == "append_duplicate":
                trials.append(trials[rng.randint(len(trials))].copy())
            elif step == "pending":
                pending.extend(row() for _ in range(rng.randint(1, 4)))
            elif step == "resolve" and pending:
                del pending[rng.randint(len(pending))]
            elif step == "record_pending" and pending:
                trials.append(pending.pop(0))
            elif step == "fail":
                failed.append(row())
            elif step == "warm":
                warm.extend(row() for _ in range(rng.randint(1, 4)))
            elif step == "first_row":
                trials[0] = row()
            elif step == "kernel":
                kernel = "matern52" if kernel == "se" else "se"
                new.set_params(kernel=kernel)
            X = np.vstack(trials + pending + failed + warm)
            y = rng.normal(size=len(X))
            if copula:
                reference = _ReferenceGCP(kernel=kernel)
            else:
                reference = _ReferenceGP(kernel=kernel, normalize_y=normalize_y)
            if _fit_both(new, reference, X, y):
                assert_same_model(new, reference, _queries(X, rng))

    def test_a_refit_computes_kernel_values_for_the_new_rows_only(self, monkeypatch):
        rows_computed = []
        real = gp._scaled_sq_dists

        def counting(diff, length_scale):
            rows_computed.append(diff.shape[0])
            return real(diff, length_scale)

        monkeypatch.setattr(gp, "_scaled_sq_dists", counting)
        rng = np.random.RandomState(0)
        X = rng.uniform(size=(10, 3))
        model = GaussianProcessRegressor()
        model.fit(X[:8], rng.normal(size=8))
        model.fit(X, rng.normal(size=10))  # two rows appended
        model.fit(X[:9], rng.normal(size=9))  # one dropped from the end
        changed = X.copy()
        changed[4] += 0.5
        model.fit(changed, rng.normal(size=10))  # rows 4.. differ
        grid, predict = 3, 1
        assert rows_computed[:grid] == [8] * grid
        assert rows_computed[grid:2 * grid] == [2] * grid
        assert rows_computed[2 * grid:3 * grid] == [0] * grid
        assert rows_computed[3 * grid:] == [6] * grid
        rows_computed.clear()
        model.predict(X)
        assert rows_computed == [len(X)] * predict

    def test_the_caller_mutating_its_rows_does_not_leak_into_the_next_fit(self):
        rng = np.random.RandomState(1)
        X = rng.uniform(size=(6, 2))
        y = rng.normal(size=6)
        model = GaussianProcessRegressor().fit(X, y)
        X[0] = [0.9, 0.1]  # in place: the model must not compare X with itself
        model.fit(X, y)
        assert_same_gp(model, _ReferenceGP().fit(X, y), X)


# -- acquisition ------------------------------------------------------------------------


class TestAcquisition:
    @given(seed=st.integers(0, 2 ** 31 - 1), size=st.integers(1, 300),
           spread=st.sampled_from([1e-13, 1e-6, 0.1, 1.0, 50.0]))
    @EXAMPLES
    def test_ei_and_pi_match_scipy_stats(self, seed, size, spread):
        rng = np.random.RandomState(seed)
        mean = rng.normal(scale=spread * 10, size=size)
        std = np.abs(rng.normal(scale=spread, size=size))
        std[rng.rand(size) < 0.1] = 0.0
        best = float(rng.normal())
        assert _same(expected_improvement(mean, std, best), _reference_ei(mean, std, best))
        assert _same(probability_of_improvement(mean, std, best), _reference_pi(mean, std, best))

    def test_a_hundred_thousand_draws(self):
        rng = np.random.RandomState(7)
        mean = rng.normal(scale=3.0, size=100_000)
        std = np.exp(rng.uniform(-30, 3, size=100_000))
        for best in (-1.0, 0.0, 0.37):
            assert _same(expected_improvement(mean, std, best), _reference_ei(mean, std, best))
            assert _same(probability_of_improvement(mean, std, best),
                         _reference_pi(mean, std, best))


# -- configurations to rows -------------------------------------------------------------


def _mixed_space():
    return Tunable({
        ("m", "layers"): CategoricalHyperparam("layers", [(64,), (32, 16), None, "auto"]),
        ("m", "flag"): BooleanHyperparam("flag"),
        ("m", "fixed_int"): IntHyperparam("fixed_int", 3, 3),
        ("m", "fixed_float"): FloatHyperparam("fixed_float", 0.5, 0.5),
        ("m", "rate"): FloatHyperparam("rate", 1e-4, 0.3),
        ("m", "depth"): IntHyperparam("depth", 1, 12),
        ("m", "code"): CategoricalHyperparam("code", [1, "a", 2.5]),
    })


_MISSING = object()


def _row(**overrides):
    row = {("m", "layers"): (64,), ("m", "flag"): True, ("m", "fixed_int"): 3,
           ("m", "fixed_float"): 0.5, ("m", "rate"): 0.01, ("m", "depth"): 4, ("m", "code"): "a"}
    for name, value in overrides.items():
        if value is _MISSING:
            del row[("m", name)]
        else:
            row[("m", name)] = value
    return row


TO_MATRIX_CASES = {
    "tuple_none_and_string_categories": [
        _row(), _row(layers=(32, 16)), _row(layers=None), _row(layers="auto")],
    "booleans_and_truthy_values": [_row(flag=False), _row(flag=1), _row(flag=0), _row(flag="")],
    "low_equals_high_ignores_the_value": [_row(fixed_int=7), _row(fixed_float=-2.0)],
    "category_found_by_equality": [_row(code=True), _row(code=2.5), _row(code=1.0)],
    "numbers_as_other_types": [
        _row(rate="0.25"), _row(depth=np.int64(9)), _row(rate=np.float32(0.1))],
    "a_missing_key": [_row(), _row(depth=_MISSING)],
    "two_missing_keys": [_row(depth=_MISSING, rate=_MISSING)],
    "an_unknown_category": [_row(), _row(layers=[64])],
    "unknown_category_before_missing_key_in_one_row": [_row(layers="deep", code=_MISSING)],
    "first_bad_row_wins": [_row(layers="deep"), _row(depth=_MISSING)],
    "first_bad_row_wins_reversed": [_row(depth=_MISSING), _row(layers="deep")],
    "a_number_that_is_not_one": [_row(), _row(rate=None)],
    "a_value_float_cannot_parse": [_row(depth="four")],
    "an_int_too_large_for_a_float": [_row(depth=10 ** 400)],
}


def _outcome(function):
    try:
        return ("ok", function())
    except Exception as error:  # the error itself is what is compared
        return ("error", type(error), str(error))


class TestToMatrix:
    @pytest.mark.parametrize("case", sorted(TO_MATRIX_CASES))
    def test_table(self, case):
        space, configs = _mixed_space(), TO_MATRIX_CASES[case]
        got = _outcome(lambda: space.to_matrix(configs))
        expected = _outcome(lambda: _reference_matrix(space, configs))
        assert got[0] == expected[0], (got, expected)
        if got[0] == "ok":
            assert _same(got[1], expected[1]) and got[1].shape == expected[1].shape
            assert got[1].dtype == expected[1].dtype
        else:
            assert got[1:] == expected[1:]

    def test_the_cases_reach_what_they_name(self):
        space = _mixed_space()
        errors = {case: _outcome(lambda configs=configs: _reference_matrix(space, configs))
                  for case, configs in TO_MATRIX_CASES.items()}
        assert errors["a_missing_key"][1:] == (
            ValueError, "Configuration is missing hyperparameters: [('m', 'depth')]")
        assert errors["an_unknown_category"][1] is ValueError
        assert "[64] is not among the categories" in errors["an_unknown_category"][2]
        assert "missing" in errors["unknown_category_before_missing_key_in_one_row"][2]
        assert "'deep'" in errors["first_bad_row_wins"][2]
        assert "missing" in errors["first_bad_row_wins_reversed"][2]
        assert errors["a_number_that_is_not_one"][1] is TypeError
        assert errors["an_int_too_large_for_a_float"][1] is OverflowError
        assert errors["category_found_by_equality"][0] == "ok"

    @given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 60))
    @settings(max_examples=50, deadline=None)
    def test_sampled_configurations(self, seed, n):
        space = _mixed_space()
        configs = space.sample_many(n, np.random.RandomState(seed))
        assert _same(space.to_matrix(configs), _reference_matrix(space, configs))
        assert _same(space.to_matrix(configs)[0], space.to_vector(configs[0]))


# -- tuners, propose by propose ---------------------------------------------------------


def _tuner_space():
    return Tunable({
        ("m", "x"): FloatHyperparam("x", 0.0, 1.0),
        ("m", "n"): IntHyperparam("n", 1, 10),
        ("m", "flag"): BooleanHyperparam("flag"),
        ("m", "layers"): CategoricalHyperparam("layers", [(16,), (32, 32), None]),
        ("m", "fixed"): IntHyperparam("fixed", 2, 2),
    })


_TUNER_SPACE = _tuner_space()


def _objective(params):
    vector = _reference_vector(_TUNER_SPACE, params)
    return float(np.round(np.sin(5.0 * vector[0]) - (vector[1] - 0.3) ** 2 + 0.2 * vector[2], 2))


TUNER_PAIRS = {
    "gp_ei": (GPEiTuner, RefGPEiTuner),
    "gp_matern52_ei": (GPMatern52EiTuner, RefGPMatern52EiTuner),
    "gcp_ei": (GCPEiTuner, RefGCPEiTuner),
    "warm_start": (WarmStartGPTuner, RefWarmStartGPTuner),
}

#: One step of a search's use of a tuner.
TUNER_STEPS = ["record", "record", "record", "fail", "pending", "resolve", "record_pending",
               "batch"]


class TestTunerSequences:
    @pytest.mark.parametrize("name", sorted(TUNER_PAIRS))
    @given(seed=st.integers(0, 2 ** 31 - 1), min_trials=st.integers(1, 4),
           n_candidates=st.integers(1, 25),
           steps=st.lists(st.sampled_from(TUNER_STEPS), min_size=40, max_size=40))
    @settings(max_examples=12, deadline=None)
    def test_forty_steps_match_the_reference_tuner(self, name, seed, min_trials, n_candidates,
                                                   steps):
        new_class, reference_class = TUNER_PAIRS[name]
        kwargs = dict(min_trials=min_trials, n_candidates=n_candidates, random_state=seed)
        if name == "warm_start":
            space = _tuner_space()
            draws = np.random.RandomState(seed)
            kwargs["history"] = [(params, _objective(params) + draws.normal(scale=0.1))
                                 for params in space.sample_many(15, draws)]
        new = new_class(_tuner_space(), **kwargs)
        reference = reference_class(_tuner_space(), **kwargs)
        flights = []
        for step in steps:
            if step == "resolve" or step == "record_pending":
                if flights:
                    params = flights.pop(0)
                    for tuner in (new, reference):
                        tuner.resolve_pending(params)
                        if step == "record_pending":
                            tuner.record(params, _objective(params))
                continue
            if step == "batch":
                proposed = new.propose(n=3)
                assert proposed == reference.propose(n=3)
            else:
                proposed = new.propose()
                assert proposed == reference.propose()
            for tuner in (new, reference):
                if step == "record":
                    tuner.record(proposed, _objective(proposed))
                elif step == "fail":
                    tuner.record_failure(proposed)
                elif step == "pending":
                    tuner.add_pending(proposed)
            if step == "pending":
                flights.append(proposed)
            assert rng_state_digest(new._rng) == rng_state_digest(reference._rng)
        assert new.trials == reference.trials and new.pending == reference.pending

    def test_the_sequences_reach_the_meta_model(self):
        """Steps past ``min_trials`` fit the GP, with liar rows of every kind."""
        tuner = GPEiTuner(_tuner_space(), min_trials=1, random_state=0)
        reference = RefGPEiTuner(_tuner_space(), min_trials=1, random_state=0)
        for index in range(12):
            for current in (tuner, reference):
                params = current.propose()
                if index % 4 == 1:
                    current.add_pending(params)
                elif index % 4 == 2:
                    current.record_failure(params)
                else:
                    current.record(params, _objective(params))
        assert tuner.pending and tuner.failed_trials
        assert tuner.propose() == reference.propose()
        assert tuner._meta_model_version == tuner._state_version
        assert_same_gp(tuner._meta_model, reference._meta_model,
                       tuner.tunable.to_matrix(tuner.trials))
