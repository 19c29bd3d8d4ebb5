"""Tests for KNN, naive Bayes, MLPs, sequence models and matrix factorization."""

import numpy as np
import pytest

from repro.learners.metrics import accuracy_score, r2_score
from repro.learners.naive_bayes import GaussianNB, MultinomialNB
from repro.learners.neighbors import KNeighborsClassifier, KNeighborsRegressor
from repro.learners.neural import (
    LSTMTextClassifier,
    LSTMTimeSeriesRegressor,
    MLPClassifier,
    MLPRegressor,
)
from repro.learners.recommendation import MatrixFactorization
from repro.learners.timeseries import rolling_window_sequences


class TestKNeighbors:
    def test_classifier_memorizes_training_data(self, multiclass_data):
        X, y = multiclass_data
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert accuracy_score(y, model.predict(X)) == 1.0

    def test_classifier_generalizes(self, multiclass_data):
        X, y = multiclass_data
        model = KNeighborsClassifier(n_neighbors=5).fit(X[:100], y[:100])
        assert accuracy_score(y[100:], model.predict(X[100:])) > 0.8

    def test_distance_weighting(self, classification_data):
        X, y = classification_data
        model = KNeighborsClassifier(n_neighbors=5, weights="distance").fit(X, y)
        assert accuracy_score(y, model.predict(X)) == 1.0

    def test_regressor_interpolates(self, rng):
        X = np.linspace(0, 10, 100).reshape(-1, 1)
        y = np.sin(X[:, 0])
        model = KNeighborsRegressor(n_neighbors=3).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.95

    def test_proba_shape(self, multiclass_data):
        X, y = multiclass_data
        proba = KNeighborsClassifier(n_neighbors=5).fit(X, y).predict_proba(X)
        assert proba.shape == (len(y), 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_invalid_neighbors(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(n_neighbors=0).fit(np.ones((3, 2)), [0, 1, 0])

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(weights="bogus").fit(np.ones((3, 2)), [0, 1, 0])

    def test_feature_mismatch_at_predict(self, classification_data):
        X, y = classification_data
        model = KNeighborsClassifier().fit(X, y)
        with pytest.raises(ValueError):
            model.predict(X[:, :3])

    @staticmethod
    def _brute_force_neighbors(train_X, X, k, weights):
        """Each row's k nearest training rows and their vote weights, one row at a time."""
        rows = []
        for point in X:
            distances = np.linalg.norm(train_X - point, axis=1)
            nearest = np.argsort(distances, kind="stable")[:k]
            if weights == "uniform":
                rows.append((nearest, np.ones(k)))
            else:
                rows.append((nearest, 1.0 / np.maximum(distances[nearest], 1e-9)))
        return rows

    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_classifier_matches_a_brute_force_vote(self, classification_data, k, weights):
        X, y = classification_data
        model = KNeighborsClassifier(n_neighbors=k, weights=weights).fit(X[:90], y[:90])
        expected = np.zeros((30, 2))
        for row, (nearest, vote) in enumerate(
                self._brute_force_neighbors(X[:90], X[90:], k, weights)):
            np.add.at(expected[row], y[:90][nearest], vote)
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(model.predict_proba(X[90:]), expected, rtol=1e-9)
        np.testing.assert_array_equal(model.predict(X[90:]), np.argmax(expected, axis=1))

    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    @pytest.mark.parametrize("k", [2, 5])
    def test_regressor_matches_a_brute_force_average(self, regression_data, k, weights):
        X, y = regression_data
        model = KNeighborsRegressor(n_neighbors=k, weights=weights).fit(X[:90], y[:90])
        expected = [np.average(y[:90][nearest], weights=vote)
                    for nearest, vote in self._brute_force_neighbors(X[:90], X[90:], k, weights)]
        np.testing.assert_allclose(model.predict(X[90:]), expected, rtol=1e-9)


class TestNaiveBayes:
    def test_gaussian_nb_on_separated_clusters(self, multiclass_data):
        X, y = multiclass_data
        model = GaussianNB().fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.85

    def test_gaussian_nb_priors_sum_to_one(self, multiclass_data):
        X, y = multiclass_data
        model = GaussianNB().fit(X, y)
        assert model.class_prior_.sum() == pytest.approx(1.0)

    def test_gaussian_nb_proba(self, classification_data):
        X, y = classification_data
        proba = GaussianNB().fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    @pytest.mark.parametrize("var_smoothing", [1e-9, 1e-3])
    def test_gaussian_nb_is_bayes_rule_over_per_class_moments(self, multiclass_data,
                                                               var_smoothing):
        X, y = multiclass_data
        model = GaussianNB(var_smoothing=var_smoothing).fit(X, y)
        epsilon = var_smoothing * X.var(axis=0).max() + 1e-12
        posterior = np.zeros((len(X), 3))
        for label in range(3):
            members = X[y == label]
            mean, var = members.mean(axis=0), members.var(axis=0) + epsilon
            np.testing.assert_allclose(model.theta_[label], mean, rtol=1e-12)
            np.testing.assert_allclose(model.var_[label], var, rtol=1e-12)
            density = np.exp(-(X - mean) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
            posterior[:, label] = len(members) / len(X) * density.prod(axis=1)
        posterior /= posterior.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(model.predict_proba(X), posterior, rtol=1e-7, atol=1e-12)
        np.testing.assert_array_equal(model.predict(X), np.argmax(posterior, axis=1))

    def test_multinomial_nb_on_count_features(self, rng):
        X = np.vstack([
            rng.poisson([5, 1, 1], size=(50, 3)),
            rng.poisson([1, 5, 1], size=(50, 3)),
        ]).astype(float)
        y = np.array([0] * 50 + [1] * 50)
        model = MultinomialNB().fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_multinomial_nb_rejects_negative_features(self):
        with pytest.raises(ValueError):
            MultinomialNB().fit(np.array([[-1.0, 2.0]]), [0])

    def test_multinomial_nb_invalid_alpha(self):
        with pytest.raises(ValueError):
            MultinomialNB(alpha=-1.0).fit(np.ones((2, 2)), [0, 1])


class TestMLP:
    def test_classifier_learns_nonlinear_boundary(self, rng):
        X = rng.uniform(-1, 1, size=(300, 2))
        y = ((X[:, 0] ** 2 + X[:, 1] ** 2) < 0.5).astype(int)
        model = MLPClassifier(hidden_units=(32,), epochs=60, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_regressor_learns_linear_signal(self, regression_data):
        X, y = regression_data
        model = MLPRegressor(hidden_units=(32,), epochs=60, random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.8

    def test_loss_curve_decreases(self, regression_data):
        X, y = regression_data
        model = MLPRegressor(hidden_units=(16,), epochs=30, random_state=0).fit(X, y)
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_reproducible_with_seed(self, classification_data):
        X, y = classification_data
        a = MLPClassifier(epochs=10, random_state=1).fit(X, y).predict(X)
        b = MLPClassifier(epochs=10, random_state=1).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_proba_shape_and_normalization(self, multiclass_data):
        X, y = multiclass_data
        proba = MLPClassifier(epochs=15, random_state=0).fit(X, y).predict_proba(X)
        assert proba.shape == (len(y), 3)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-6)

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            MLPClassifier(epochs=0).fit(np.ones((4, 2)), [0, 1, 0, 1])


class TestSequenceModels:
    def test_timeseries_regressor_forecasts_sine(self, rng):
        t = np.arange(400, dtype=float)
        series = np.sin(t / 15.0) + 0.05 * rng.normal(size=400)
        X, y, _, _ = rolling_window_sequences(series, window_size=30)
        model = LSTMTimeSeriesRegressor(epochs=20, random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.7

    def test_timeseries_regressor_accepts_2d_windows(self, rng):
        X = rng.normal(size=(50, 12))
        y = X.mean(axis=1)
        model = LSTMTimeSeriesRegressor(epochs=20, random_state=0).fit(X, y)
        assert model.predict(X).shape == (50,)

    def test_text_classifier_separates_token_distributions(self, rng):
        # class 0 uses tokens 2-5, class 1 uses tokens 6-9
        y = rng.randint(0, 2, size=120)
        X = np.where(
            y[:, None] == 0,
            rng.randint(2, 6, size=(120, 12)),
            rng.randint(6, 10, size=(120, 12)),
        )
        model = LSTMTextClassifier(epochs=25, random_state=0).fit(X, y, vocabulary_size=10)
        assert accuracy_score(y, model.predict(X)) > 0.85

    def test_text_classifier_ignores_padding(self, rng):
        y = rng.randint(0, 2, size=80)
        X = np.where(y[:, None] == 0, 2, 3) * np.ones((80, 6), dtype=int)
        X[:, :3] = 0  # half of every sequence is padding
        model = LSTMTextClassifier(epochs=15, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_text_classifier_accepts_classes_argument(self, rng):
        y = rng.randint(0, 2, size=40)
        X = rng.randint(1, 5, size=(40, 6))
        model = LSTMTextClassifier(epochs=5, random_state=0).fit(X, y, classes=2)
        assert model.predict(X).shape == (40,)

    def test_text_classifier_rejects_1d_input(self):
        with pytest.raises(ValueError):
            LSTMTextClassifier(epochs=2).fit(np.array([1, 2, 3]), np.array([0, 1, 0]))


class TestMatrixFactorization:
    def test_reconstructs_low_rank_ratings(self, rng):
        users = rng.normal(size=(20, 3))
        items = rng.normal(size=(15, 3))
        u = rng.randint(0, 20, size=400)
        i = rng.randint(0, 15, size=400)
        ratings = np.sum(users[u] * items[i], axis=1)
        X = np.column_stack([u, i]).astype(float)
        model = MatrixFactorization(n_factors=4, epochs=40, random_state=0).fit(X, ratings)
        assert r2_score(ratings, model.predict(X)) > 0.7

    def test_predict_clips_unknown_ids(self, rng):
        X = np.array([[0, 0], [1, 1]], dtype=float)
        model = MatrixFactorization(epochs=5, random_state=0).fit(X, [1.0, 2.0])
        predictions = model.predict(np.array([[99, 99]], dtype=float))
        assert np.isfinite(predictions).all()

    def test_invalid_factors(self):
        with pytest.raises(ValueError):
            MatrixFactorization(n_factors=0).fit(np.zeros((2, 2)), [1.0, 2.0])

    def test_requires_two_columns(self):
        with pytest.raises(ValueError):
            MatrixFactorization().fit(np.zeros((3, 1)), [1.0, 2.0, 3.0])
