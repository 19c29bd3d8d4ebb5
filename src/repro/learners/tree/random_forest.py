"""Random forests built from bootstrap-aggregated CART trees."""

import numpy as np

from repro.learners.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_random_state
from repro.learners.validation import check_X_y, check_array
from repro.learners.tree.decision_tree import DecisionTreeClassifier, DecisionTreeRegressor


class _BaseForest(BaseEstimator):
    """Shared bagging machinery for forest ensembles."""

    def __init__(self, n_estimators=10, max_depth=None, min_samples_split=2,
                 min_samples_leaf=1, max_features="sqrt", bootstrap=True,
                 max_thresholds=16, random_state=None):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.max_thresholds = max_thresholds
        self.random_state = random_state

    def _make_tree(self, seed):
        raise NotImplementedError

    def _tree_params(self, seed):
        return dict(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            max_thresholds=self.max_thresholds,
            random_state=seed,
        )

    def _fit_forest(self, X, y):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        self.estimators_ = []
        for _ in range(self.n_estimators):
            seed = int(rng.randint(0, 2 ** 31 - 1))
            tree = self._make_tree(seed)
            if self.bootstrap:
                indices = rng.randint(0, n_samples, size=n_samples)
            else:
                indices = np.arange(n_samples)
            tree.fit(X[indices], y[indices])
            self.estimators_.append(tree)
        self.n_features_in_ = X.shape[1]
        return self

    def feature_importances(self):
        """Importance of each feature: split usage weighted by node size."""
        self._check_fitted("estimators_")
        feature = np.concatenate([tree.tree_.feature for tree in self.estimators_])
        n_samples = np.concatenate([tree.tree_.n_node_samples for tree in self.estimators_])
        split = feature >= 0
        # integer node sizes: the float sums are exact in any order
        counts = np.bincount(
            feature[split], weights=n_samples[split], minlength=self.n_features_in_
        )
        total = counts.sum()
        return counts / total if total > 0 else counts


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Bagged ensemble of CART regressors (stand-in for sklearn's RandomForestRegressor)."""

    def _make_tree(self, seed):
        return DecisionTreeRegressor(**self._tree_params(seed))

    def fit(self, X, y):
        X, y = check_X_y(X, y, y_numeric=True)
        return self._fit_forest(X, y)

    def predict(self, X):
        self._check_fitted("estimators_")
        X = check_array(X)
        predictions = np.stack([tree.predict(X) for tree in self.estimators_])
        return predictions.mean(axis=0)


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Bagged ensemble of CART classifiers (stand-in for sklearn's RandomForestClassifier)."""

    def _make_tree(self, seed):
        return DecisionTreeClassifier(**self._tree_params(seed))

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        return self._fit_forest(X, y)

    def predict_proba(self, X):
        self._check_fitted("estimators_")
        X = check_array(X)
        n_classes = len(self.classes_)
        probabilities = np.zeros((X.shape[0], n_classes))
        class_index = {label: i for i, label in enumerate(self.classes_)}
        for tree in self.estimators_:
            tree_proba = tree.predict_proba(X)
            # trees may have seen a subset of classes under bootstrap sampling
            for j, label in enumerate(tree.classes_):
                probabilities[:, class_index[label]] += tree_proba[:, j]
        probabilities /= len(self.estimators_)
        row_sums = probabilities.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0.0] = 1.0
        return probabilities / row_sums

    def predict(self, X):
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
