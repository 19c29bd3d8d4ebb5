"""Linear regression models solved in closed form or by coordinate descent."""

import numpy as np

from repro.learners.base import BaseEstimator, RegressorMixin
from repro.learners.validation import check_X_y, check_array


class LinearRegression(BaseEstimator, RegressorMixin):
    """Ordinary least squares linear regression."""

    def __init__(self, fit_intercept=True):
        self.fit_intercept = fit_intercept

    def fit(self, X, y):
        X, y = check_X_y(X, y, y_numeric=True)
        if self.fit_intercept:
            X_design = np.hstack([np.ones((X.shape[0], 1)), X])
        else:
            X_design = X
        coefficients, *_ = np.linalg.lstsq(X_design, y, rcond=None)
        if self.fit_intercept:
            self.intercept_ = float(coefficients[0])
            self.coef_ = coefficients[1:]
        else:
            self.intercept_ = 0.0
            self.coef_ = coefficients
        return self

    def predict(self, X):
        self._check_fitted("coef_")
        X = check_array(X)
        return X @ self.coef_ + self.intercept_


class Ridge(BaseEstimator, RegressorMixin):
    """Linear regression with L2 regularization (closed-form solution)."""

    def __init__(self, alpha=1.0, fit_intercept=True):
        self.alpha = alpha
        self.fit_intercept = fit_intercept

    def fit(self, X, y):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        X, y = check_X_y(X, y, y_numeric=True)
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = y.mean()
            X_centered = X - x_mean
            y_centered = y - y_mean
        else:
            x_mean = np.zeros(X.shape[1])
            y_mean = 0.0
            X_centered, y_centered = X, y
        n_features = X.shape[1]
        gram = X_centered.T @ X_centered + self.alpha * np.eye(n_features)
        self.coef_ = np.linalg.solve(gram, X_centered.T @ y_centered)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)
        return self

    def predict(self, X):
        self._check_fitted("coef_")
        X = check_array(X)
        return X @ self.coef_ + self.intercept_


class Lasso(BaseEstimator, RegressorMixin):
    """Linear regression with L1 regularization solved by coordinate descent."""

    def __init__(self, alpha=1.0, max_iter=500, tol=1e-5, fit_intercept=True):
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept

    def fit(self, X, y):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        X, y = check_X_y(X, y, y_numeric=True)
        n_samples, n_features = X.shape
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = y.mean()
            X = X - x_mean
            y = y - y_mean
        else:
            x_mean = np.zeros(n_features)
            y_mean = 0.0

        coef = np.zeros(n_features)
        column_norms = (X ** 2).sum(axis=0)
        residual = y - X @ coef
        threshold = self.alpha * n_samples
        for _ in range(self.max_iter):
            max_update = 0.0
            for j in range(n_features):
                if column_norms[j] == 0.0:
                    continue
                residual += X[:, j] * coef[j]
                rho = X[:, j] @ residual
                new_coef = _soft_threshold(rho, threshold) / column_norms[j]
                max_update = max(max_update, abs(new_coef - coef[j]))
                coef[j] = new_coef
                residual -= X[:, j] * coef[j]
            if max_update < self.tol:
                break
        self.coef_ = coef
        self.intercept_ = float(y_mean - x_mean @ coef)
        return self

    def predict(self, X):
        self._check_fitted("coef_")
        X = check_array(X)
        return X @ self.coef_ + self.intercept_


def _soft_threshold(value, threshold):
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0
