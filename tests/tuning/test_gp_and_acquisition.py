"""Tests for Gaussian process meta-models and acquisition functions."""

import numpy as np
import pytest

from repro.tuning.acquisition import (
    expected_improvement,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.tuning.gp import (
    GaussianCopulaProcessRegressor,
    GaussianProcessRegressor,
    matern52_kernel,
    squared_exponential_kernel,
)


class TestKernels:
    def test_se_kernel_diagonal_is_signal_variance(self, rng):
        X = rng.uniform(size=(5, 3))
        K = squared_exponential_kernel(X, X, signal_variance=2.0)
        assert np.allclose(np.diag(K), 2.0)

    def test_matern_kernel_diagonal_is_signal_variance(self, rng):
        X = rng.uniform(size=(5, 3))
        K = matern52_kernel(X, X, signal_variance=1.5)
        assert np.allclose(np.diag(K), 1.5)

    def test_kernels_decay_with_distance(self):
        X1 = np.array([[0.0]])
        X2 = np.array([[0.0], [0.5], [2.0]])
        for kernel in (squared_exponential_kernel, matern52_kernel):
            values = kernel(X1, X2, length_scale=0.5).ravel()
            assert values[0] > values[1] > values[2]

    def test_kernels_are_symmetric(self, rng):
        X = rng.uniform(size=(6, 2))
        for kernel in (squared_exponential_kernel, matern52_kernel):
            K = kernel(X, X)
            assert np.allclose(K, K.T)

    def test_kernel_matrices_positive_semidefinite(self, rng):
        X = rng.uniform(size=(8, 2))
        for kernel in (squared_exponential_kernel, matern52_kernel):
            eigenvalues = np.linalg.eigvalsh(kernel(X, X))
            assert eigenvalues.min() > -1e-8


class TestGaussianProcess:
    def test_interpolates_training_points(self, rng):
        X = rng.uniform(size=(12, 1))
        y = np.sin(4.0 * X[:, 0])
        gp = GaussianProcessRegressor(kernel="se", noise=1e-8).fit(X, y)
        mean, _ = gp.predict(X)
        assert np.allclose(mean, y, atol=1e-2)

    def test_uncertainty_grows_away_from_data(self, rng):
        X = rng.uniform(0.0, 0.3, size=(10, 1))
        y = X[:, 0]
        gp = GaussianProcessRegressor(kernel="se").fit(X, y)
        _, std_near = gp.predict(np.array([[0.15]]))
        _, std_far = gp.predict(np.array([[0.95]]))
        assert std_far[0] > std_near[0]

    def test_matern_kernel_works(self, rng):
        X = rng.uniform(size=(15, 2))
        y = X[:, 0] + X[:, 1]
        gp = GaussianProcessRegressor(kernel="matern52").fit(X, y)
        mean, std = gp.predict(X)
        assert mean.shape == (15,)
        assert np.all(std >= 0.0)

    def test_unknown_kernel_raises(self, rng):
        X = rng.uniform(size=(5, 1))
        with pytest.raises(ValueError):
            GaussianProcessRegressor(kernel="cubic").fit(X, np.ones(5))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor().fit(np.ones((3, 1)), np.ones(4))

    def test_length_scale_selected_by_likelihood(self, rng):
        X = rng.uniform(size=(20, 1))
        y = np.sin(10.0 * X[:, 0])
        gp = GaussianProcessRegressor(length_scales=(0.05, 1.0)).fit(X, y)
        assert gp.length_scale_ in (0.05, 1.0)

    def test_predict_without_std(self, rng):
        X = rng.uniform(size=(10, 1))
        gp = GaussianProcessRegressor().fit(X, X[:, 0])
        mean = gp.predict(X, return_std=False)
        assert mean.shape == (10,)


class TestGaussianCopulaProcess:
    def test_predictions_within_observed_score_range(self, rng):
        X = rng.uniform(size=(20, 2))
        y = np.exp(3.0 * X[:, 0])  # heavily skewed scores
        gcp = GaussianCopulaProcessRegressor().fit(X, y)
        mean, std = gcp.predict(rng.uniform(size=(10, 2)))
        assert mean.min() >= y.min() - 1e-9
        assert mean.max() <= y.max() + 1e-9
        assert np.all(std >= 0.0)

    def test_latent_predictions_available(self, rng):
        X = rng.uniform(size=(15, 1))
        y = X[:, 0] ** 2
        gcp = GaussianCopulaProcessRegressor().fit(X, y)
        mean, std = gcp.predict_latent(X)
        assert mean.shape == (15,)

    def test_monotone_relationship_preserved(self, rng):
        X = np.linspace(0, 1, 30).reshape(-1, 1)
        y = np.exp(5.0 * X[:, 0])
        gcp = GaussianCopulaProcessRegressor().fit(X, y)
        mean, _ = gcp.predict(np.array([[0.1], [0.9]]))
        assert mean[1] > mean[0]


@pytest.mark.parametrize("model_class",
                         [GaussianProcessRegressor, GaussianCopulaProcessRegressor])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["X", "y"])
def test_non_finite_data_raises_and_keeps_the_fitted_model(rng, model_class, bad, where):
    # unchecked, a NaN target gives the GP a NaN model and the copula a
    # finite, wrong one (a NaN score ranks on its own)
    X = rng.uniform(size=(8, 2))
    y = rng.uniform(size=8)
    model = model_class().fit(X, y)
    before = model.predict(X)
    bad_X, bad_y = X.copy(), y.copy()
    if where == "X":
        bad_X[3, 1] = bad
    else:
        bad_y[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        model.fit(bad_X, bad_y)
    with pytest.raises(ValueError, match="non-finite"):
        model_class().fit(bad_X, bad_y)
    for kept, again in zip(before, model.predict(X)):
        assert np.array_equal(kept, again)


class TestAcquisitionFunctions:
    def test_ei_zero_when_no_improvement_possible(self):
        ei = expected_improvement(np.array([0.0]), np.array([1e-12]), best=10.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_ei_positive_for_promising_candidates(self):
        ei = expected_improvement(np.array([5.0]), np.array([1.0]), best=1.0)
        assert ei[0] > 3.0

    def test_ei_increases_with_uncertainty_at_same_mean(self):
        low = expected_improvement(np.array([1.0]), np.array([0.1]), best=1.0)
        high = expected_improvement(np.array([1.0]), np.array([2.0]), best=1.0)
        assert high[0] > low[0]

    def test_ucb_is_mean_plus_beta_std(self):
        value = upper_confidence_bound(np.array([1.0]), np.array([0.5]), beta=2.0)
        assert value[0] == pytest.approx(2.0)

    def test_pi_bounded_between_zero_and_one(self):
        pi = probability_of_improvement(np.array([0.0, 10.0]), np.array([1.0, 1.0]), best=5.0)
        assert np.all(pi >= 0.0)
        assert np.all(pi <= 1.0)
        assert pi[1] > pi[0]
