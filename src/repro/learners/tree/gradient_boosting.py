"""Gradient boosted trees in the style of XGBoost.

This is the stand-in for the ``XGBClassifier`` / ``XGBRegressor``
primitives that dominate the default templates of paper Table II and that
are the subject of the case study in Section VI-B (XGB vs RF).  Like
XGBoost it uses a second-order Taylor approximation of the loss, L2 leaf
regularization (``reg_lambda``) and shrinkage (``learning_rate``), with
Newton trees fitted to the per-sample gradient/hessian statistics.

Each stage fits one Newton tree per output.  Without subsampling, every
tree of a fit is grown on the training ``X`` itself (no per-stage copy) and
all of them share one split-geometry memo for the duration of the fit (see
``repro.learners.tree.decision_tree``): a node whose rows an earlier tree
already searched reuses that search's sort order and candidate layout and
only rescores it on the new gradients.  Such a stage also updates the
training predictions from the leaf its build put each row in, instead of
walking the rows down the new tree again; a subsampled stage predicts all
of ``X``.  The fitted model is bit for bit the one the memo-free,
predict-every-stage loop grows, and carries neither the memo nor the leaves.
"""

import numpy as np

from repro.learners.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_random_state
from repro.learners.validation import check_X_y, check_array
from repro.learners.tree.decision_tree import _BaseDecisionTree, _GeometryMemo


class _NewtonTree(_BaseDecisionTree):
    """Regression tree whose leaves store the Newton step -G/(H + lambda).

    The split criterion is the (negated, count-normalized) XGBoost
    structure score -G^2/(H + lambda), so maximizing the impurity decrease
    is equivalent to maximizing the XGBoost split gain.
    """

    def __init__(self, reg_lambda=1.0, **kwargs):
        super().__init__(**kwargs)
        self.reg_lambda = reg_lambda

    def fit_gradients(self, X, gradients, hessians, geometry_memo=None):
        """Grow the tree; returns the index of the leaf each row of ``X`` ends in."""
        stats = np.column_stack([gradients, hessians])
        return self._fit_tree(np.asarray(X, dtype=float), stats, geometry_memo)

    def _impurity_from_stats(self, sums, counts):
        counts = np.asarray(counts, dtype=float)
        gradient_sums = sums[:, 0]
        hessian_sums = sums[:, 1]
        structure_score = (gradient_sums ** 2) / (hessian_sums + self.reg_lambda)
        return -structure_score / counts

    def _leaf_value_from_stats(self, sums, count):
        return float(-sums[0] / (sums[1] + self.reg_lambda))

    def predict_values(self, X):
        return self._predict_values(np.asarray(X, dtype=float))


class _BaseGradientBoosting(BaseEstimator):
    """Shared boosting loop for the classifier and regressor."""

    def __init__(self, n_estimators=30, learning_rate=0.1, max_depth=3,
                 min_samples_split=2, min_samples_leaf=1, subsample=1.0,
                 reg_lambda=1.0, max_thresholds=16, random_state=None):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.reg_lambda = reg_lambda
        self.max_thresholds = max_thresholds
        self.random_state = random_state

    def _validate(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    def _new_tree(self, seed):
        return _NewtonTree(
            reg_lambda=self.reg_lambda,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_thresholds=self.max_thresholds,
            random_state=seed,
        )

    def _boost(self, X, n_outputs, gradient_fn):
        """Run the boosting loop.

        ``gradient_fn(raw_predictions)`` must return per-output
        ``(gradients, hessians)`` arrays of shape (n_samples, n_outputs).
        Without subsampling every tree is grown on ``X`` itself, all of
        them share one split-geometry memo, dropped when the loop ends, and
        each stage's leaf values reach ``raw_predictions`` through the leaf
        the build put each row in.
        """
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        raw_predictions = np.full((n_samples, n_outputs), self._base_score, dtype=float)
        memo = _GeometryMemo() if self.subsample >= 1.0 else None
        self.stages_ = []
        for _ in range(self.n_estimators):
            gradients, hessians = gradient_fn(raw_predictions)
            stage = []
            if self.subsample < 1.0:
                n_sub = max(2, int(self.subsample * n_samples))
                rows = rng.choice(n_samples, size=n_sub, replace=False)
                X_fit, gradients, hessians = X[rows], gradients[rows], hessians[rows]
            else:
                X_fit = X
            for output in range(n_outputs):
                seed = int(rng.randint(0, 2 ** 31 - 1))
                tree = self._new_tree(seed)
                leaf = tree.fit_gradients(
                    X_fit, gradients[:, output], hessians[:, output], geometry_memo=memo
                )
                values = tree.tree_.value[leaf] if X_fit is X else tree.predict_values(X)
                raw_predictions[:, output] += self.learning_rate * values
                stage.append(tree)
            self.stages_.append(stage)
        self.n_features_in_ = X.shape[1]
        return raw_predictions

    def _raw_predict(self, X):
        self._check_fitted("stages_")
        X = check_array(X)
        n_outputs = len(self.stages_[0])
        raw = np.full((X.shape[0], n_outputs), self._base_score, dtype=float)
        for stage in self.stages_:
            for output, tree in enumerate(stage):
                raw[:, output] += self.learning_rate * tree.predict_values(X)
        return raw


class GradientBoostingRegressor(_BaseGradientBoosting, RegressorMixin):
    """Gradient boosting with squared-error loss (XGBRegressor stand-in)."""

    def fit(self, X, y):
        self._validate()
        X, y = check_X_y(X, y, y_numeric=True)
        self._base_score = float(np.mean(y))

        def gradient_fn(raw_predictions):
            gradients = (raw_predictions[:, 0] - y).reshape(-1, 1)
            hessians = np.ones_like(gradients)
            return gradients, hessians

        self._boost(X, n_outputs=1, gradient_fn=gradient_fn)
        return self

    def predict(self, X):
        return self._raw_predict(X)[:, 0]


class GradientBoostingClassifier(_BaseGradientBoosting, ClassifierMixin):
    """Gradient boosting with logistic/softmax loss (XGBClassifier stand-in)."""

    def fit(self, X, y):
        self._validate()
        X, y = check_X_y(X, y)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)
        if n_classes < 2:
            raise ValueError("GradientBoostingClassifier requires at least 2 classes")
        self._base_score = 0.0

        if n_classes == 2:
            targets = encoded.astype(float)

            def gradient_fn(raw_predictions):
                probabilities = _sigmoid(raw_predictions[:, 0])
                gradients = (probabilities - targets).reshape(-1, 1)
                hessians = (probabilities * (1.0 - probabilities)).reshape(-1, 1)
                hessians = np.maximum(hessians, 1e-6)
                return gradients, hessians

            self._boost(X, n_outputs=1, gradient_fn=gradient_fn)
        else:
            onehot = np.zeros((len(encoded), n_classes))
            onehot[np.arange(len(encoded)), encoded] = 1.0

            def gradient_fn(raw_predictions):
                probabilities = _softmax(raw_predictions)
                gradients = probabilities - onehot
                hessians = np.maximum(probabilities * (1.0 - probabilities), 1e-6)
                return gradients, hessians

            self._boost(X, n_outputs=n_classes, gradient_fn=gradient_fn)
        return self

    def predict_proba(self, X):
        raw = self._raw_predict(X)
        if raw.shape[1] == 1:
            positive = _sigmoid(raw[:, 0])
            return np.column_stack([1.0 - positive, positive])
        return _softmax(raw)

    def predict(self, X):
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]


def _sigmoid(values):
    return 1.0 / (1.0 + np.exp(-np.clip(values, -30, 30)))


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)
