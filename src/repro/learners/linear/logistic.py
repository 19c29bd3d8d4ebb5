"""Multinomial logistic regression trained with full-batch gradient descent."""

import numpy as np

from repro.learners.base import BaseEstimator, ClassifierMixin
from repro.learners.validation import check_X_y, check_array


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Multinomial logistic regression with L2 regularization.

    Parameters
    ----------
    C:
        Inverse regularization strength (larger means less regularization).
    learning_rate:
        Gradient-descent step size.
    max_iter:
        Maximum number of full-batch gradient steps.
    tol:
        Convergence tolerance on the gradient norm.
    """

    def __init__(self, C=1.0, learning_rate=0.1, max_iter=300, tol=1e-5, fit_intercept=True):
        self.C = C
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept

    def fit(self, X, y):
        if self.C <= 0:
            raise ValueError("C must be positive")
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        n_classes = len(self.classes_)
        if n_classes < 2:
            raise ValueError("LogisticRegression requires at least 2 classes")
        index = {label: i for i, label in enumerate(self.classes_)}
        targets = np.zeros((X.shape[0], n_classes))
        for row, label in enumerate(y):
            targets[row, index[label]] = 1.0

        n_samples, n_features = X.shape
        weights = np.zeros((n_features, n_classes))
        intercept = np.zeros(n_classes)
        reg = 1.0 / (self.C * n_samples)
        for _ in range(self.max_iter):
            logits = X @ weights + intercept
            probabilities = _softmax(logits)
            error = (probabilities - targets) / n_samples
            grad_weights = X.T @ error + reg * weights
            grad_intercept = error.sum(axis=0) if self.fit_intercept else np.zeros(n_classes)
            weights -= self.learning_rate * grad_weights
            intercept -= self.learning_rate * grad_intercept
            if np.linalg.norm(grad_weights) < self.tol:
                break
        self.coef_ = weights
        self.intercept_ = intercept
        return self

    def decision_function(self, X):
        self._check_fitted("coef_")
        X = check_array(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X):
        return _softmax(self.decision_function(X))

    def predict(self, X):
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

