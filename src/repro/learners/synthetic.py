"""Synthetic-cost learners for scheduler and backend experiments.

Benchmarking a parallel search scheduler needs pipelines whose *cost* is
controlled and whose *result* is deterministic — real estimators conflate
the two.  :class:`TimedDummyClassifier` decouples them: it predicts the
majority class (a deterministic, data-independent baseline) while sleeping
a configurable amount of time in ``fit``, so a benchmark can lay out an
arbitrary skew of cheap and expensive evaluations and measure nothing but
the scheduling.
"""

import time

import numpy as np

from repro.learners.base import BaseEstimator, ClassifierMixin


class TimedDummyClassifier(BaseEstimator, ClassifierMixin):
    """Majority-class classifier with a configurable artificial cost.

    Parameters
    ----------
    fit_seconds:
        Wall-clock time slept inside ``fit`` (simulated training cost).
    predict_seconds:
        Wall-clock time slept inside ``predict`` (simulated scoring cost).

    The sleeps release the GIL, so pool backends overlap them the same
    way they overlap real model fits.
    """

    def __init__(self, fit_seconds=0.0, predict_seconds=0.0):
        self.fit_seconds = fit_seconds
        self.predict_seconds = predict_seconds

    def fit(self, X, y):
        if self.fit_seconds:
            time.sleep(self.fit_seconds)
        y = np.asarray(y)
        values, counts = np.unique(y, return_counts=True)
        self.majority_ = values[int(np.argmax(counts))]
        return self

    def predict(self, X):
        self._check_fitted("majority_")
        if self.predict_seconds:
            time.sleep(self.predict_seconds)
        return np.full(len(X), self.majority_)


class TimedIdentityTransformer(BaseEstimator):
    """Identity feature transformer with a configurable artificial fit cost.

    The preprocessing counterpart of :class:`TimedDummyClassifier`: it
    passes the features through unchanged (a deterministic, artifact-free
    transform) while sleeping a configurable amount of time in ``fit`` —
    a stand-in for an expensive imputer/encoder/featurizer prefix.  The
    prefix-cache benchmarks build templates around it to measure nothing
    but how often the evaluation stack refits a shared prefix.

    Parameters
    ----------
    fit_seconds:
        Wall-clock time slept inside ``fit`` (simulated prefix fit cost).
    transform_seconds:
        Wall-clock time slept inside ``transform``.

    The sleeps release the GIL, so pool backends overlap them the same
    way they overlap real preprocessing fits.
    """

    def __init__(self, fit_seconds=0.0, transform_seconds=0.0):
        self.fit_seconds = fit_seconds
        self.transform_seconds = transform_seconds

    def fit(self, X, y=None):
        if self.fit_seconds:
            time.sleep(self.fit_seconds)
        self.n_features_ = np.asarray(X).shape[1] if np.asarray(X).ndim > 1 else 1
        return self

    def transform(self, X):
        self._check_fitted("n_features_")
        if self.transform_seconds:
            time.sleep(self.transform_seconds)
        return np.asarray(X)
