"""CART decision trees for classification and regression.

Split search is one vectorized pass per node over *all* of its candidate
features: the node's columns are sorted with a single stable ``argsort``,
the per-sample sufficient statistics are gathered in that order and summed
with a single ``cumsum``, the candidate ``(feature, position)`` pairs are
laid out as flat arrays in feature then position order, the impurity hook
is called once for all left sides and once for all right sides, and one
``argmax`` picks the winner.  Growing a tree still costs
O(n_features * n log n) per node, but in a constant number of NumPy calls
instead of a dozen per feature.

* **Rank table.**  With ``max_thresholds`` set, a feature with more
  distinct split positions than that evaluates only the
  ``linspace(0, n_distinct - 1, max_thresholds)`` picks among them;
  ``_threshold_ranks`` caches those ranks per ``(n_distinct,
  max_thresholds)``.  ``_select_ranks`` is the hook that chooses ranks (the
  extra-trees variant draws one per feature instead).
* **Block budget.**  The gathered statistics are an
  ``(n_features, n_samples, n_stats)`` temporary, so candidate features are
  processed in blocks of at most ``_BLOCK_ELEMENTS`` gathered values; peak
  temporary memory is O(budget) however wide the data.  Block boundaries
  never change the result.
* **Bit-identity contract.**  The kernel reproduces, to the last bit, the
  per-feature loop it replaced (frozen as the oracle in
  ``tests/learners/test_tree_kernel_identity.py``): every sum runs over the
  same elements in the same order, ties go to the first candidate feature
  and then the first position, a feature whose gains contain NaN is skipped
  whole, and the RNG is consumed draw for draw.  Search record digests
  depend on it.

Fitted trees keep the linked ``_Node`` structure in ``tree_`` and carry the
same tree as flat ``feature/threshold/left/right/value`` arrays, which
prediction walks for all rows at once, one level per step.  Subclasses
define the sufficient statistics and the impurity/leaf-value functions,
which lets the same machinery drive Gini trees, variance trees and the
Newton trees used by gradient boosting.
"""

import functools

import numpy as np

from repro.learners.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_random_state,
    check_seed,
)
from repro.learners.validation import check_X_y, check_array

#: Most float64 values one split-search block may gather (the statistics in
#: sorted order, and again for their running sums): 2 MiB apiece.  A constant, not a
#: parameter: it bounds memory and cannot change a result.
_BLOCK_ELEMENTS = 1 << 18


@functools.lru_cache(maxsize=1024)
def _threshold_ranks(n_distinct, max_thresholds):
    """Ranks, among ``n_distinct > max_thresholds`` sorted split positions, to evaluate."""
    ranks = np.unique(np.linspace(0, n_distinct - 1, max_thresholds).astype(int))
    ranks.setflags(write=False)
    return ranks


class _Node:
    """A single node of a binary decision tree."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "n_samples", "impurity")

    def __init__(self, value, n_samples, impurity):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.value = value
        self.n_samples = n_samples
        self.impurity = impurity

    @property
    def is_leaf(self):
        return self.feature is None


def _flatten(root):
    """``(feature, threshold, left, right, value)`` arrays of the tree under ``root``.

    Nodes are numbered breadth first from the root (0); a leaf has
    ``feature == -1``.
    """
    nodes = [root]
    feature, threshold, left, right = [], [], [], []
    for node in nodes:  # grows while it is walked
        if node.is_leaf:
            feature.append(-1)
            threshold.append(np.nan)
            left.append(-1)
            right.append(-1)
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(len(nodes))
            nodes.append(node.left)
            right.append(len(nodes))
            nodes.append(node.right)
    return (
        np.asarray(feature, dtype=np.intp),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.intp),
        np.asarray(right, dtype=np.intp),
        np.asarray([node.value for node in nodes]),
    )


class _BaseDecisionTree(BaseEstimator):
    """Shared CART machinery, parameterized by sufficient statistics.

    Subclasses implement:

    * ``_sample_stats(y)`` — per-sample statistic matrix of shape (n, d);
    * ``_impurity_from_stats(sums, counts)`` — vectorized impurity for
      aggregated statistics (one row per candidate split side);
    * ``_leaf_value_from_stats(sums, count)`` — the prediction stored at a
      leaf.
    """

    def __init__(self, max_depth=None, min_samples_split=2, min_samples_leaf=1,
                 max_features=None, max_thresholds=32, random_state=None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.random_state = random_state

    # -- subclass hooks -----------------------------------------------------

    def _sample_stats(self, y):
        raise NotImplementedError

    def _impurity_from_stats(self, sums, counts):
        raise NotImplementedError

    def _leaf_value_from_stats(self, sums, count):
        raise NotImplementedError

    # -- fitting ------------------------------------------------------------

    def _fit_tree(self, X, stats):
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        check_seed(self.random_state)
        self._rng = None
        self.n_features_in_ = X.shape[1]
        self.tree_ = self._build(X, stats, depth=0)
        self._flat_tree = _flatten(self.tree_)
        self.n_nodes_ = len(self._flat_tree[0])
        del self._rng
        return self

    def _random(self):
        """This fit's ``RandomState``, seeded on the first draw.

        Seeding MT19937 costs more than growing a small tree, and a tree
        that considers every feature with deterministic thresholds (every
        boosting stage) never draws.
        """
        if self._rng is None:
            self._rng = check_random_state(self.random_state)
        return self._rng

    def _resolve_max_features(self, n_features):
        max_features = self.max_features
        if max_features is None:
            return n_features
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features)) or 1)
        if isinstance(max_features, float):
            return max(1, int(max_features * n_features))
        return max(1, min(int(max_features), n_features))

    def _build(self, X, stats, depth):
        n_samples = len(stats)
        totals = stats.sum(axis=0, keepdims=True)
        count = np.asarray([n_samples], dtype=float)
        impurity = float(self._impurity_from_stats(totals, count)[0])
        value = self._leaf_value_from_stats(totals[0], float(n_samples))
        node = _Node(value, n_samples, impurity)
        if (
            n_samples < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node

        best = self._best_split(X, stats, totals, impurity)
        if best is None:
            return node

        feature, threshold = best
        left_mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[left_mask], stats[left_mask], depth + 1)
        node.right = self._build(X[~left_mask], stats[~left_mask], depth + 1)
        return node

    def _select_ranks(self, n_distinct):
        """Choose which distinct split positions of a feature block to evaluate.

        ``n_distinct[f]`` counts the distinct positions of the block's
        ``f``-th feature; laid end to end in feature order they form one
        flat candidate list.  Returns the ascending indices into that list
        to keep, or ``None`` for all of them.
        """
        limit = self.max_thresholds
        if not limit or n_distinct.max() <= limit:
            return None
        ranks = [
            _threshold_ranks(count, limit) if count > limit else np.arange(count)
            for count in n_distinct.tolist()
        ]
        starts = np.cumsum(n_distinct) - n_distinct
        return np.concatenate(ranks) + np.repeat(starts, [len(picked) for picked in ranks])

    def _best_split(self, X, stats, totals, impurity):
        """Best ``(feature, threshold)`` of one node, or ``None``.

        ``totals`` and ``impurity`` are the node's own summed statistics
        and impurity, which ``_build`` has already computed.
        """
        n_samples, n_features = X.shape
        n_candidates = self._resolve_max_features(n_features)
        if n_candidates < n_features:
            features = self._random().choice(n_features, size=n_candidates, replace=False)
        else:
            features = np.arange(n_features)

        n_stats = stats.shape[1]
        block_size = max(1, _BLOCK_ELEMENTS // (n_samples * n_stats))
        best_gain = 1e-12
        best = None
        for start in range(0, n_candidates, block_size):
            block = features[start:start + block_size]
            # one row per feature; everything below indexes this grid flat
            columns = np.ascontiguousarray(X.T[block])
            order = columns.argsort(axis=1, kind="stable")
            sorted_values = columns.take(order + np.arange(0, columns.size, n_samples)[:, None])
            # a split after sorted position i puts samples [0..i] on the left
            distinct = sorted_values[:, :-1] < sorted_values[:, 1:]
            chosen = distinct.ravel().nonzero()[0]
            ranks = self._select_ranks(distinct.sum(axis=1))
            if ranks is not None:
                chosen = chosen.take(ranks)
            slots, positions = np.divmod(chosen, n_samples - 1)
            if self.min_samples_leaf > 1:
                valid = (positions + 1 >= self.min_samples_leaf) & (
                    n_samples - positions - 1 >= self.min_samples_leaf
                )
                slots, positions = slots[valid], positions[valid]
            if len(slots) == 0:
                continue
            n_left = (positions + 1).astype(float)
            n_right = n_samples - n_left
            cumulative = stats.take(order, axis=0).cumsum(axis=1)
            left_sums = cumulative.reshape(-1, n_stats).take(slots * n_samples + positions, axis=0)
            right_sums = totals - left_sums
            impurity_left = self._impurity_from_stats(left_sums, n_left)
            impurity_right = self._impurity_from_stats(right_sums, n_right)
            gains = impurity - (n_left * impurity_left + n_right * impurity_right) / n_samples
            index = gains.argmax()
            if np.isnan(gains[index]):
                # a feature with any NaN gain never wins; the others still compete
                gains[np.isin(slots, slots[np.isnan(gains)])] = -np.inf
                index = gains.argmax()
            # argmax takes the first maximum and the candidates are in feature
            # then position order, so ties go to the first feature's first
            # position; the strict > keeps that true across blocks
            if gains[index] > best_gain:
                best_gain = float(gains[index])
                slot, position = slots[index], positions[index]
                below, above = sorted_values[slot, position:position + 2]
                best = (int(block[slot]), float(0.5 * (below + above)))
        return best

    # -- prediction ---------------------------------------------------------

    def _predict_values(self, X):
        """Leaf value of every row of ``X``, walking all rows one level at a time."""
        try:
            flat = self._flat_tree
        except AttributeError:  # fitted and pickled before trees carried flat arrays
            flat = self._flat_tree = _flatten(self.tree_)
        feature, threshold, left, right, value = flat
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.flatnonzero(feature[node] >= 0)
        while len(rows):
            at = node[rows]
            at = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
            node[rows] = at
            rows = rows[feature[at] >= 0]
        return value[node]

    def get_depth(self):
        """Return the depth of the fitted tree."""
        self._check_fitted("tree_")

        def depth(node):
            if node is None or node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self.tree_)


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """CART regressor minimizing within-node variance."""

    def _sample_stats(self, y):
        return np.column_stack([y, y ** 2])

    def _impurity_from_stats(self, sums, counts):
        counts = np.asarray(counts, dtype=float)
        mean = sums[:, 0] / counts
        return np.maximum(sums[:, 1] / counts - mean ** 2, 0.0)

    def _leaf_value_from_stats(self, sums, count):
        return float(sums[0] / count)

    def fit(self, X, y):
        X, y = check_X_y(X, y, y_numeric=True)
        return self._fit_tree(X, self._sample_stats(y))

    def predict(self, X):
        self._check_fitted("tree_")
        X = check_array(X)
        return self._predict_values(X)


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """CART classifier minimizing Gini impurity."""

    def _sample_stats(self, y):
        onehot = np.zeros((len(y), self._n_classes))
        onehot[np.arange(len(y)), y] = 1.0
        return onehot

    def _impurity_from_stats(self, sums, counts):
        counts = np.asarray(counts, dtype=float)
        proportions = sums / counts[:, None]
        return 1.0 - np.sum(proportions ** 2, axis=1)

    def _leaf_value_from_stats(self, sums, count):
        return sums / count

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        self._n_classes = len(self.classes_)
        index = {label: i for i, label in enumerate(self.classes_)}
        encoded = np.asarray([index[label] for label in y], dtype=int)
        return self._fit_tree(X, self._sample_stats(encoded))

    def predict_proba(self, X):
        self._check_fitted("tree_")
        X = check_array(X)
        return self._predict_values(X)

    def predict(self, X):
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
