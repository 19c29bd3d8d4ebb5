"""K-nearest-neighbor classifier and regressor."""

import numpy as np

from repro.learners.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.learners.validation import check_X_y, check_array


class _BaseKNN(BaseEstimator):
    def __init__(self, n_neighbors=5, weights="uniform"):
        self.n_neighbors = n_neighbors
        self.weights = weights

    def _fit(self, X, y):
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be at least 1")
        if self.weights not in ("uniform", "distance"):
            raise ValueError("weights must be 'uniform' or 'distance'")
        self._X = X
        self._y = y
        self.n_features_in_ = X.shape[1]
        return self

    def _neighbors(self, X):
        self._check_fitted("_X")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError("Inconsistent number of features")
        # pairwise squared euclidean distances
        distances = (
            np.sum(X ** 2, axis=1)[:, None]
            + np.sum(self._X ** 2, axis=1)[None, :]
            - 2.0 * X @ self._X.T
        )
        distances = np.maximum(distances, 0.0)
        k = min(self.n_neighbors, self._X.shape[0])
        neighbor_indices = np.argsort(distances, axis=1)[:, :k]
        neighbor_distances = np.take_along_axis(distances, neighbor_indices, axis=1)
        return neighbor_indices, np.sqrt(neighbor_distances)

    def _neighbor_weights(self, distances):
        if self.weights == "uniform":
            return np.ones_like(distances)
        return 1.0 / np.maximum(distances, 1e-9)


class KNeighborsClassifier(_BaseKNN, ClassifierMixin):
    """Classifier voting among the k nearest training points."""

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        return self._fit(X, y)

    def _proba_from_neighbors(self, neighbor_indices, distances):
        weights = self._neighbor_weights(distances)
        probabilities = np.zeros((len(neighbor_indices), len(self.classes_)))
        class_index = {label: i for i, label in enumerate(self.classes_)}
        for row in range(len(neighbor_indices)):
            for neighbor, weight in zip(neighbor_indices[row], weights[row]):
                probabilities[row, class_index[self._y[neighbor]]] += weight
        row_sums = probabilities.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0.0] = 1.0
        return probabilities / row_sums

    def _predict_from_neighbors(self, neighbor_indices, distances):
        probabilities = self._proba_from_neighbors(neighbor_indices, distances)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def predict_proba(self, X):
        neighbor_indices, distances = self._neighbors(X)
        return self._proba_from_neighbors(neighbor_indices, distances)

    def predict(self, X):
        neighbor_indices, distances = self._neighbors(X)
        return self._predict_from_neighbors(neighbor_indices, distances)


class KNeighborsRegressor(_BaseKNN, RegressorMixin):
    """Regressor averaging the targets of the k nearest training points."""

    def fit(self, X, y):
        X, y = check_X_y(X, y, y_numeric=True)
        return self._fit(X, y)

    def _predict_from_neighbors(self, neighbor_indices, distances):
        weights = self._neighbor_weights(distances)
        values = self._y[neighbor_indices]
        return np.sum(values * weights, axis=1) / np.sum(weights, axis=1)

    def predict(self, X):
        neighbor_indices, distances = self._neighbors(X)
        return self._predict_from_neighbors(neighbor_indices, distances)
