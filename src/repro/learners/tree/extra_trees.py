"""Extremely randomized trees and the ExtraTrees-based feature selector.

The ``ExtraTreesSelector`` primitive appears in the ML Bazaar primitive
catalog (paper Figure 2) as a feature selector; here it is backed by our
own extra-trees importance estimates.
"""

import numpy as np

from repro.learners.base import BaseEstimator, TransformerMixin
from repro.learners.validation import check_X_y, check_array
from repro.learners.tree.decision_tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.learners.tree.random_forest import RandomForestClassifier, RandomForestRegressor


class _RandomSplitMixin:
    """Overrides CART's exhaustive threshold search with one random cut per feature."""

    def _select_ranks(self, n_distinct):
        rng = self._random()
        starts = np.cumsum(n_distinct) - n_distinct
        # one draw per non-constant feature, in feature order
        return np.asarray(
            [
                start + int(rng.randint(0, count))
                for start, count in zip(starts.tolist(), n_distinct.tolist())
                if count
            ],
            dtype=np.intp,
        )


class _ExtraTreeRegressor(_RandomSplitMixin, DecisionTreeRegressor):
    pass


class _ExtraTreeClassifier(_RandomSplitMixin, DecisionTreeClassifier):
    pass


class ExtraTreesRegressor(RandomForestRegressor):
    """Forest of extremely randomized regression trees (no bootstrap by default)."""

    def __init__(self, n_estimators=10, max_depth=None, min_samples_split=2,
                 min_samples_leaf=1, max_features="sqrt", bootstrap=False,
                 max_thresholds=16, random_state=None):
        super().__init__(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            bootstrap=bootstrap,
            max_thresholds=max_thresholds,
            random_state=random_state,
        )

    def _make_tree(self, seed):
        return _ExtraTreeRegressor(**self._tree_params(seed))


class ExtraTreesClassifier(RandomForestClassifier):
    """Forest of extremely randomized classification trees (no bootstrap by default)."""

    def __init__(self, n_estimators=10, max_depth=None, min_samples_split=2,
                 min_samples_leaf=1, max_features="sqrt", bootstrap=False,
                 max_thresholds=16, random_state=None):
        super().__init__(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            bootstrap=bootstrap,
            max_thresholds=max_thresholds,
            random_state=random_state,
        )

    def _make_tree(self, seed):
        return _ExtraTreeClassifier(**self._tree_params(seed))


class ExtraTreesFeatureSelector(BaseEstimator, TransformerMixin):
    """Select the most important features according to an ExtraTrees ensemble.

    Parameters
    ----------
    n_features:
        Number of features to keep.  ``None`` keeps features whose
        importance exceeds the mean importance.
    problem_type:
        ``"classification"`` or ``"regression"``; selects the underlying
        ensemble type.
    """

    def __init__(self, n_features=None, n_estimators=10, problem_type="classification",
                 random_state=None):
        self.n_features = n_features
        self.n_estimators = n_estimators
        self.problem_type = problem_type
        self.random_state = random_state

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        if self.problem_type == "classification":
            ensemble = ExtraTreesClassifier(
                n_estimators=self.n_estimators, random_state=self.random_state
            )
        elif self.problem_type == "regression":
            ensemble = ExtraTreesRegressor(
                n_estimators=self.n_estimators, random_state=self.random_state
            )
            y = y.astype(float)
        else:
            raise ValueError("Unknown problem_type: {!r}".format(self.problem_type))
        ensemble.fit(X, y)
        importances = ensemble.feature_importances()
        if self.n_features is not None:
            n_keep = max(1, min(self.n_features, X.shape[1]))
            self.support_ = np.zeros(X.shape[1], dtype=bool)
            self.support_[np.argsort(importances)[::-1][:n_keep]] = True
        else:
            threshold = importances.mean()
            self.support_ = importances >= threshold
            if not self.support_.any():
                self.support_[np.argmax(importances)] = True
        self.importances_ = importances
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X):
        self._check_fitted("support_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError("Inconsistent number of features")
        return X[:, self.support_]
