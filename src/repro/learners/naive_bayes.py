"""Naive Bayes classifiers (Gaussian and multinomial)."""

import numpy as np

from repro.learners.base import BaseEstimator, ClassifierMixin
from repro.learners.validation import check_X_y, check_array


class GaussianNB(BaseEstimator, ClassifierMixin):
    """Gaussian naive Bayes with per-class feature means and variances."""

    def __init__(self, var_smoothing=1e-9):
        self.var_smoothing = var_smoothing

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        n_classes = len(self.classes_)
        n_features = X.shape[1]
        self.theta_ = np.zeros((n_classes, n_features))
        self.var_ = np.zeros((n_classes, n_features))
        self.class_prior_ = np.zeros(n_classes)
        for i, label in enumerate(self.classes_):
            members = X[y == label]
            self.theta_[i] = members.mean(axis=0)
            self.var_[i] = members.var(axis=0)
            self.class_prior_[i] = len(members) / len(y)
        self.var_ += self.var_smoothing * X.var(axis=0).max() + 1e-12
        self.n_features_in_ = n_features
        return self

    def _joint_log_likelihood(self, X):
        self._check_fitted("theta_")
        X = check_array(X)
        log_likelihoods = []
        for i in range(len(self.classes_)):
            prior = np.log(self.class_prior_[i])
            log_prob = -0.5 * np.sum(np.log(2.0 * np.pi * self.var_[i]))
            log_prob -= 0.5 * np.sum(((X - self.theta_[i]) ** 2) / self.var_[i], axis=1)
            log_likelihoods.append(prior + log_prob)
        return np.column_stack(log_likelihoods)

    def predict_proba(self, X):
        joint = self._joint_log_likelihood(X)
        joint = joint - joint.max(axis=1, keepdims=True)
        probabilities = np.exp(joint)
        return probabilities / probabilities.sum(axis=1, keepdims=True)

    def predict(self, X):
        joint = self._joint_log_likelihood(X)
        return self.classes_[np.argmax(joint, axis=1)]


class MultinomialNB(BaseEstimator, ClassifierMixin):
    """Multinomial naive Bayes for count features (for example bag-of-words)."""

    def __init__(self, alpha=1.0):
        self.alpha = alpha

    def fit(self, X, y):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        X, y = check_X_y(X, y)
        if (X < 0).any():
            raise ValueError("MultinomialNB requires non-negative features")
        self.classes_ = np.unique(y)
        n_classes = len(self.classes_)
        n_features = X.shape[1]
        self.feature_log_prob_ = np.zeros((n_classes, n_features))
        self.class_log_prior_ = np.zeros(n_classes)
        for i, label in enumerate(self.classes_):
            members = X[y == label]
            counts = members.sum(axis=0) + self.alpha
            self.feature_log_prob_[i] = np.log(counts / counts.sum())
            self.class_log_prior_[i] = np.log(len(members) / len(y))
        self.n_features_in_ = n_features
        return self

    def _joint_log_likelihood(self, X):
        self._check_fitted("feature_log_prob_")
        X = check_array(X)
        return X @ self.feature_log_prob_.T + self.class_log_prior_

    def predict_proba(self, X):
        joint = self._joint_log_likelihood(X)
        joint = joint - joint.max(axis=1, keepdims=True)
        probabilities = np.exp(joint)
        return probabilities / probabilities.sum(axis=1, keepdims=True)

    def predict(self, X):
        joint = self._joint_log_likelihood(X)
        return self.classes_[np.argmax(joint, axis=1)]
