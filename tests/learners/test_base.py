"""Tests for the base estimator API (get_params/set_params/clone)."""

import numpy as np
import pytest

from repro.learners.base import (
    BaseEstimator,
    NotFittedError,
    check_random_state,
    check_seed,
    clone,
)
from repro.learners.linear import Ridge
from repro.learners.tree import RandomForestClassifier


class _Dummy(BaseEstimator):
    def __init__(self, alpha=1.0, beta="x"):
        self.alpha = alpha
        self.beta = beta


class TestGetSetParams:
    def test_get_params_returns_constructor_arguments(self):
        estimator = _Dummy(alpha=2.5, beta="y")
        assert estimator.get_params() == {"alpha": 2.5, "beta": "y"}

    def test_set_params_updates_attributes(self):
        estimator = _Dummy()
        estimator.set_params(alpha=7.0)
        assert estimator.alpha == 7.0
        assert estimator.beta == "x"

    def test_set_params_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="Invalid parameter"):
            _Dummy().set_params(gamma=1)

    def test_set_params_returns_self(self):
        estimator = _Dummy()
        assert estimator.set_params(alpha=3.0) is estimator

    def test_repr_contains_params(self):
        assert "alpha=2.5" in repr(_Dummy(alpha=2.5))


class TestClone:
    def test_clone_copies_parameters(self):
        original = Ridge(alpha=3.5)
        duplicate = clone(original)
        assert duplicate is not original
        assert duplicate.alpha == 3.5

    def test_clone_does_not_copy_fitted_state(self, regression_data):
        X, y = regression_data
        original = Ridge().fit(X, y)
        duplicate = clone(original)
        assert not hasattr(duplicate, "coef_")

    def test_clone_deep_copies_mutable_params(self):
        original = _Dummy(beta=[1, 2, 3])
        duplicate = clone(original)
        duplicate.beta.append(4)
        assert original.beta == [1, 2, 3]


class TestNotFitted:
    def test_predict_before_fit_raises(self, classification_data):
        X, _ = classification_data
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict(X)


class TestCheckRandomState:
    def test_none_gives_random_state(self):
        assert isinstance(check_random_state(None), np.random.RandomState)

    def test_int_is_reproducible(self):
        a = check_random_state(42).rand(3)
        b = check_random_state(42).rand(3)
        assert np.allclose(a, b)

    def test_existing_random_state_passthrough(self):
        rng = np.random.RandomState(1)
        assert check_random_state(rng) is rng

    def test_invalid_seed_raises(self):
        with pytest.raises(ValueError):
            check_random_state("not a seed")

    @pytest.mark.parametrize(
        "seed", [None, 0, 7, 2 ** 32 - 1, np.int64(3), np.random.RandomState(1),
                 -1, 2 ** 32, "not a seed", 1.5])
    def test_check_seed_rejects_exactly_what_seeding_would(self, seed):
        try:
            check_random_state(seed)
        except ValueError as error:
            with pytest.raises(ValueError, match=str(error).split(" ")[0]):
                check_seed(seed)
        else:
            assert check_seed(seed) is None


class TestMixinScores:
    def test_classifier_score_is_accuracy(self, classification_data):
        X, y = classification_data
        model = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        assert 0.0 <= model.score(X, y) <= 1.0

    def test_regressor_score_is_r2(self, regression_data):
        X, y = regression_data
        model = Ridge().fit(X, y)
        assert model.score(X, y) > 0.9
