"""Tests for linear and logistic models."""

import numpy as np
import pytest

from repro.learners.linear import Lasso, LinearRegression, LogisticRegression, Ridge
from repro.learners.metrics import accuracy_score, r2_score


class TestLinearRegression:
    def test_recovers_exact_linear_relationship(self, rng):
        X = rng.normal(size=(80, 3))
        y = 2.0 * X[:, 0] - 3.0 * X[:, 1] + 0.5 * X[:, 2] + 1.0
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.coef_, [2.0, -3.0, 0.5], atol=1e-8)
        assert model.intercept_ == pytest.approx(1.0)

    def test_r2_on_noisy_data(self, regression_data):
        X, y = regression_data
        model = LinearRegression().fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.95

    def test_without_intercept(self, rng):
        X = rng.normal(size=(60, 2))
        y = X[:, 0] + X[:, 1]
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0

    def test_predict_shape(self, regression_data):
        X, y = regression_data
        assert LinearRegression().fit(X, y).predict(X).shape == (len(y),)

    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_solves_the_normal_equations(self, regression_data, fit_intercept):
        X, y = regression_data
        model = LinearRegression(fit_intercept=fit_intercept).fit(X, y)
        design = np.hstack([np.ones((len(X), 1)), X]) if fit_intercept else X
        expected = np.linalg.solve(design.T @ design, design.T @ y)
        if fit_intercept:
            assert model.intercept_ == pytest.approx(expected[0], abs=1e-10)
            expected = expected[1:]
        else:
            assert model.intercept_ == 0.0
        np.testing.assert_allclose(model.coef_, expected, rtol=1e-9, atol=1e-12)


class TestRidge:
    def test_shrinks_toward_zero_with_large_alpha(self, rng):
        X = rng.normal(size=(50, 3))
        y = 5.0 * X[:, 0]
        small = Ridge(alpha=1e-6).fit(X, y)
        large = Ridge(alpha=1e4).fit(X, y)
        assert np.abs(large.coef_).sum() < np.abs(small.coef_).sum()

    def test_matches_ols_with_tiny_alpha(self, rng):
        X = rng.normal(size=(60, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.3
        ridge = Ridge(alpha=1e-10).fit(X, y)
        ols = LinearRegression().fit(X, y)
        assert np.allclose(ridge.coef_, ols.coef_, atol=1e-5)

    def test_negative_alpha_raises(self):
        with pytest.raises(ValueError):
            Ridge(alpha=-1.0).fit(np.ones((4, 2)), np.ones(4))

    @pytest.mark.parametrize("fit_intercept", [True, False])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0, 10.0])
    def test_matches_the_augmented_least_squares_solution(self, regression_data, alpha,
                                                          fit_intercept):
        # ridge is least squares on the rows [X; sqrt(alpha) I] with targets
        # [y; 0], the intercept column unpenalised
        X, y = regression_data
        model = Ridge(alpha=alpha, fit_intercept=fit_intercept).fit(X, y)
        n_features = X.shape[1]
        design = np.vstack([X, np.sqrt(alpha) * np.eye(n_features)])
        targets = np.concatenate([y, np.zeros(n_features)])
        if fit_intercept:
            column = np.concatenate([np.ones(len(X)), np.zeros(n_features)])
            design = np.hstack([column[:, None], design])
        solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
        if fit_intercept:
            assert model.intercept_ == pytest.approx(solution[0], abs=1e-10)
            solution = solution[1:]
        else:
            assert model.intercept_ == 0.0
        np.testing.assert_allclose(model.coef_, solution, rtol=1e-9, atol=1e-12)

    def test_handles_collinear_features(self, rng):
        base = rng.normal(size=(40, 1))
        X = np.hstack([base, base, base])
        y = base.ravel()
        model = Ridge(alpha=1.0).fit(X, y)
        assert np.all(np.isfinite(model.coef_))


class TestLasso:
    def test_produces_sparse_solution(self, rng):
        X = rng.normal(size=(100, 8))
        y = 3.0 * X[:, 0] + 0.05 * rng.normal(size=100)
        model = Lasso(alpha=0.5).fit(X, y)
        assert np.abs(model.coef_[0]) > 1.0
        assert np.sum(np.abs(model.coef_[1:]) < 1e-6) >= 5

    def test_zero_alpha_close_to_ols(self, rng):
        X = rng.normal(size=(80, 3))
        y = X @ np.array([1.0, 2.0, -1.0])
        lasso = Lasso(alpha=1e-8, max_iter=2000).fit(X, y)
        assert np.allclose(lasso.coef_, [1.0, 2.0, -1.0], atol=1e-2)

    def test_negative_alpha_raises(self):
        with pytest.raises(ValueError):
            Lasso(alpha=-0.1).fit(np.ones((4, 2)), np.ones(4))


class TestLogisticRegression:
    def test_separable_data_high_accuracy(self, classification_data):
        X, y = classification_data
        model = LogisticRegression(max_iter=300).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_multiclass(self, multiclass_data):
        X, y = multiclass_data
        model = LogisticRegression(max_iter=300).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.85
        assert set(model.predict(X)) <= set(y)

    def test_predict_proba_rows_sum_to_one(self, multiclass_data):
        X, y = multiclass_data
        proba = LogisticRegression(max_iter=100).fit(X, y).predict_proba(X)
        assert proba.shape == (len(y), 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_string_labels_preserved(self, classification_data):
        X, y = classification_data
        labels = np.where(y == 1, "yes", "no")
        model = LogisticRegression(max_iter=100).fit(X, labels)
        assert set(model.predict(X)) <= {"yes", "no"}

    def test_regularization_strength_affects_weights(self, classification_data):
        X, y = classification_data
        strong = LogisticRegression(C=0.001, max_iter=200).fit(X, y)
        weak = LogisticRegression(C=100.0, max_iter=200).fit(X, y)
        assert np.abs(strong.coef_).sum() < np.abs(weak.coef_).sum()

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.ones((5, 2)), np.zeros(5))

    def test_zero_iterations_leave_uniform_probabilities(self, multiclass_data):
        X, y = multiclass_data
        model = LogisticRegression(max_iter=0).fit(X, y)
        assert not model.coef_.any() and not model.intercept_.any()
        np.testing.assert_array_equal(model.predict_proba(X), np.full((len(y), 3), 1 / 3))

    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_one_iteration_is_one_gradient_step_from_zero(self, multiclass_data,
                                                          fit_intercept):
        # at zero weights every class has probability 1/K and the L2 term
        # has no gradient, so one step is -learning_rate * X^T (1/K - Y) / n
        X, y = multiclass_data
        model = LogisticRegression(learning_rate=0.3, max_iter=1,
                                   fit_intercept=fit_intercept).fit(X, y)
        residual = (1 / 3 - np.eye(3)[y]) / len(y)
        np.testing.assert_allclose(model.coef_, -0.3 * X.T @ residual, rtol=1e-12)
        expected_intercept = -0.3 * residual.sum(axis=0) if fit_intercept else np.zeros(3)
        np.testing.assert_allclose(model.intercept_, expected_intercept, atol=1e-15)

    @pytest.mark.parametrize("C", [1.0, 0.1])
    def test_a_longer_budget_lowers_the_penalised_loss(self, classification_data, C):
        X, y = classification_data

        def penalised_loss(model):
            probabilities = model.predict_proba(X)[np.arange(len(y)), y]
            penalty = np.sum(model.coef_ ** 2) / (2 * C * len(y))
            return -np.mean(np.log(probabilities)) + penalty

        losses = [penalised_loss(LogisticRegression(C=C, max_iter=budget).fit(X, y))
                  for budget in (0, 1, 50, 200)]
        assert losses == sorted(losses, reverse=True) and len(set(losses)) == 4

    def test_invalid_c_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression(C=0.0).fit(np.ones((4, 2)), [0, 1, 0, 1])
