"""CART decision trees for classification and regression.

Split search is one vectorized pass per node over *all* of its candidate
features: the node's columns are sorted with a single stable ``argsort``,
the per-sample sufficient statistics are gathered in that order and summed
with a single ``cumsum``, the candidate ``(feature, position)`` pairs are
laid out as flat arrays in feature then position order, the impurity hook
is called once for all left and right sides together, and one ``argmax``
picks the winner.  Growing a tree still costs O(n_features * n log n) per
node, but in a constant number of NumPy calls instead of a dozen per
feature.  A fit transposes ``X`` once; a node is the ascending indices of
its rows, and takes its rows of every feature in one call.

The search has two halves.  ``_split_geometry`` depends only on the node's
rows: sort order, distinct positions, the selected ranks, each candidate's
slot, position, side counts and gather index, and the sorted values the
thresholds are drawn from.  ``_best_split`` scores that geometry against
the node's statistics.  Every tree runs both halves the same way.

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
* **Geometry memo.**  The stages (and outputs) of one gradient-boosting fit
  grow trees on the same ``X`` with the same settings and no random draw,
  and a later stage often reaches a node with exactly the rows of an earlier
  one; only the statistics differ.  ``_boost`` hands every tree of the fit
  one ``_GeometryMemo``, keyed by the node's row indices, so such a node
  goes straight to the cumsum, impurity and argmax.  The memo holds at
  most ``_GEOMETRY_MEMO_BYTES`` (first come, first served; a node whose
  geometry does not fit is searched again), lives only for the call to
  ``_fit_tree``/``_boost`` and is never stored on a fitted tree, so it is
  neither pickled nor shipped.  Subsampled boosting, forests and
  extra-trees draw rows or features per tree or per node and get no memo.
* **Bit-identity contract.**  The kernel reproduces, to the last bit, the
  per-feature loop it replaced (frozen as the oracle in
  ``tests/learners/test_tree_kernel_identity.py``): every sum runs over the
  same elements in the same order, ties go to the first candidate feature
  and then the first position, a feature whose gains contain NaN is skipped
  whole, and the RNG is consumed draw for draw.  A memo hit scores the
  same geometry a miss would compute, so the memo cannot change a tree
  either.  Search record digests depend on it.

A fitted tree is its node arrays: ``tree_`` is one :class:`_Tree` record of
``feature``, ``threshold``, ``children_left``, ``children_right``,
``value``, ``n_node_samples`` and ``impurity`` (scikit-learn's names), one
entry per node.  The depth-first build appends each node as it grows it, so
nodes are numbered in build order and a child always comes after its
parent; nothing outside the tree depends on that numbering.  A leaf has
feature and children ``-1`` and threshold NaN.  Prediction walks the arrays
for all rows at once, one level per step, and the fit returns the leaf it
put each training row in.  Subclasses define the sufficient statistics and
the impurity/leaf-value functions, which lets the same machinery drive Gini
trees, variance trees and the Newton trees used by gradient boosting.
"""

import functools
from collections import namedtuple

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

#: Bytes of split geometry one boosting fit may memoise (:class:`_GeometryMemo`).
#: A constant, not a parameter: it trades memory for speed and cannot change
#: a result.
_GEOMETRY_MEMO_BYTES = 4 << 20


@functools.lru_cache(maxsize=1024)
def _threshold_ranks(n_distinct, max_thresholds):
    """Ranks, among ``n_distinct > max_thresholds`` sorted split positions, to evaluate."""
    ranks = np.unique(np.linspace(0, n_distinct - 1, max_thresholds).astype(int))
    ranks.setflags(write=False)
    return ranks


def _take_rows(columns, rows):
    """The ``columns`` of a node's ascending ``rows``; all of them without a copy."""
    return columns if len(rows) == columns.shape[1] else columns.take(rows, axis=1)


class _GeometryMemo:
    """Split geometry of the nodes one fit's trees have searched, keyed by rows.

    A node's geometry (:meth:`_BaseDecisionTree._split_geometry`) depends
    only on which rows of the fit's ``X`` it holds, so trees grown on the
    same ``X`` with the same settings and no random draws — the stages and
    outputs of one boosting fit — can share it.  A miss is searched block by
    block as the scoring consumes it, and its blocks are kept, first come
    first served, if they and the key fit in what is left of
    ``_GEOMETRY_MEMO_BYTES``; a memo never holds more than that.
    """

    def __init__(self):
        self._entries = {}
        self._free = _GEOMETRY_MEMO_BYTES

    def geometry(self, tree, columns, rows, n_stats):
        """``tree._split_geometry`` of the node holding ``rows`` of ``X``.

        ``columns`` is ``X`` transposed, one contiguous row per feature.
        """
        key = rows.tobytes()
        blocks = self._entries.get(key)
        if blocks is None:
            blocks = self._keep(key, tree._split_geometry(_take_rows(columns, rows), n_stats))
        return blocks

    def _keep(self, key, geometry):
        """Yield ``geometry``'s blocks, keeping them under ``key`` if they all fit."""
        kept, size = [], len(key)
        for block in geometry:
            yield block
            if kept is not None:
                size += sum(array.nbytes for array in block)
                if size <= self._free:
                    kept.append(block)
                else:
                    kept = None
        if kept is not None and size <= self._free:
            self._entries[key] = kept
            self._free -= size


#: A fitted tree, one entry per node in build order.  A leaf has ``feature``,
#: ``children_left`` and ``children_right`` ``-1`` and ``threshold`` NaN.
_Tree = namedtuple("_Tree", [
    "feature", "threshold", "children_left", "children_right", "value",
    "n_node_samples", "impurity",
])


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

    def _fit_tree(self, X, stats, geometry_memo=None):
        """Grow the tree on ``X`` and the per-sample ``stats``.

        Returns the index of the leaf each row of ``X`` ends in; it is not
        kept on the tree.  ``geometry_memo``, a :class:`_GeometryMemo` of
        earlier fits on this same ``X``, lets nodes with rows already seen
        skip the geometry half of the split search; only trees whose split
        search draws nothing (every feature a candidate, deterministic
        ranks) may share one.
        """
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        check_seed(self.random_state)
        self._rng = None
        self._geometry_memo = geometry_memo
        self._nodes = []
        self._leaf_of = np.empty(len(X), dtype=np.intp)
        self.n_features_in_ = X.shape[1]
        # one contiguous row per feature: a node takes its rows from every
        # feature at once, and sorts and splits along the rows
        columns = np.ascontiguousarray(X.T)
        self._build(columns, stats, np.arange(len(X)), depth=0)
        feature, threshold, left, right, value, n_samples, impurity = zip(*self._nodes)
        self.tree_ = _Tree(
            np.asarray(feature, dtype=np.intp),
            np.asarray(threshold, dtype=float),
            np.asarray(left, dtype=np.intp),
            np.asarray(right, dtype=np.intp),
            np.asarray(value),
            np.asarray(n_samples, dtype=np.intp),
            np.asarray(impurity, dtype=float),
        )
        self.n_nodes_ = len(self._nodes)
        leaf_of = self._leaf_of
        del self._rng, self._geometry_memo, self._nodes, self._leaf_of
        return leaf_of

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

    def _build(self, columns, stats, rows, depth):
        """Grow the subtree of the node holding ``rows`` of the fit's ``X``.

        ``columns`` is that ``X`` transposed and ``stats`` are the rows'
        statistics, in row order.  Appends the subtree's nodes to the fit's
        node list, this node first, and returns this node's index.
        """
        n_samples = len(stats)
        totals = stats.sum(axis=0, keepdims=True)
        count = np.asarray([n_samples], dtype=float)
        impurity = float(self._impurity_from_stats(totals, count)[0])
        value = self._leaf_value_from_stats(totals[0], float(n_samples))
        index = len(self._nodes)
        # feature, threshold, left, right, value, n_node_samples, impurity
        node = [-1, np.nan, -1, -1, value, n_samples, impurity]
        self._nodes.append(node)
        best = None
        if n_samples >= self.min_samples_split and (
            self.max_depth is None or depth < self.max_depth
        ):
            if self._geometry_memo is None:
                geometry = self._split_geometry(_take_rows(columns, rows), stats.shape[1])
            else:
                geometry = self._geometry_memo.geometry(self, columns, rows, stats.shape[1])
            best = self._best_split(geometry, stats, totals, impurity)
        if best is None:
            self._leaf_of[rows] = index
            return index

        feature, threshold = best
        left_mask = columns[feature].take(rows) <= threshold
        right_mask = ~left_mask
        node[0], node[1] = feature, threshold
        node[2] = self._build(columns, stats[left_mask], rows[left_mask], depth + 1)
        node[3] = self._build(columns, stats[right_mask], rows[right_mask], depth + 1)
        return index

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

    def _split_geometry(self, columns, n_stats):
        """The statistics-independent half of one node's split search.

        Yields one ``(features, order, sorted_values, gather, slots, counts)``
        tuple per block of candidate features that has a candidate split: the
        block's feature indices, the stable sort order of each of its columns
        and the sorted columns, and per candidate split (in feature then
        position order) its index into the block's flattened ``(feature,
        position)`` grid and its feature's slot in the block; ``counts``
        holds every left side's sample count, then every right side's.

        ``columns`` holds the node's rows of each feature, one contiguous
        row per feature, and ``n_stats`` sizes the blocks.  Any random draw
        (candidate features, extra-trees ranks) happens here.
        """
        n_features, n_samples = columns.shape
        n_candidates = self._resolve_max_features(n_features)
        if n_candidates < n_features:
            features = self._random().choice(n_features, size=n_candidates, replace=False)
        else:
            features = np.arange(n_features)

        block_size = max(1, _BLOCK_ELEMENTS // (n_samples * n_stats))
        for start in range(0, n_candidates, block_size):
            block = features[start:start + block_size]
            # one row per feature; everything below indexes this grid flat
            grid = columns if len(block) == n_features else columns[block]
            order = grid.argsort(axis=1, kind="stable")
            sorted_values = grid.take(order + np.arange(0, grid.size, n_samples)[:, None])
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
            gather = slots * n_samples + positions
            n_left = (positions + 1).astype(float)
            counts = np.concatenate([n_left, n_samples - n_left])
            yield block, order, sorted_values, gather, slots, counts

    def _best_split(self, geometry, stats, totals, impurity):
        """Best ``(feature, threshold)`` of one node, or ``None``.

        ``geometry`` is the node's :meth:`_split_geometry`; ``totals`` and
        ``impurity`` are the node's own summed statistics and impurity,
        which ``_build`` has already computed.
        """
        n_samples, n_stats = stats.shape
        best_gain = 1e-12
        best = None
        for block, order, sorted_values, gather, slots, counts in geometry:
            cumulative = stats.take(order, axis=0).cumsum(axis=1)
            left_sums = cumulative.reshape(-1, n_stats).take(gather, axis=0)
            # every left side, then every right side: one impurity call for both
            sums = np.concatenate([left_sums, totals - left_sums])
            weighted = counts * self._impurity_from_stats(sums, counts)
            n_splits = len(gather)
            gains = impurity - (weighted[:n_splits] + weighted[n_splits:]) / n_samples
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
                slot = slots[index]
                position = gather[index] - slot * n_samples
                below, above = sorted_values[slot, position:position + 2]
                # a midpoint that rounds (or overflows) out of [below, above)
                # would send every row to one side: split at ``below`` then
                midpoint = 0.5 * (below + above)
                best = (int(block[slot]), float(midpoint if below <= midpoint < above else below))
        return best

    # -- prediction ---------------------------------------------------------

    def _apply(self, X):
        """Index of the leaf every row of ``X`` reaches, all rows one level at a time."""
        tree = self.tree_
        feature, threshold = tree.feature, tree.threshold
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.flatnonzero(feature[node] >= 0)
        while len(rows):
            at = node[rows]
            at = np.where(
                X[rows, feature[at]] <= threshold[at], tree.children_left[at], tree.children_right[at]
            )
            node[rows] = at
            rows = rows[feature[at] >= 0]
        return node

    def _predict_values(self, X):
        """Leaf value of every row of ``X``."""
        return self.tree_.value[self._apply(X)]

    def get_depth(self):
        """Return the depth of the fitted tree."""
        self._check_fitted("tree_")
        tree = self.tree_
        depth, level = 0, np.zeros(1, dtype=np.intp)
        while True:
            level = level[tree.feature[level] >= 0]
            if not len(level):
                return depth
            depth += 1
            level = np.concatenate([tree.children_left[level], tree.children_right[level]])


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
        self._fit_tree(X, self._sample_stats(y))
        return self

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
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self._n_classes = len(self.classes_)
        self._fit_tree(X, self._sample_stats(encoded))
        return self

    def predict_proba(self, X):
        self._check_fitted("tree_")
        X = check_array(X)
        return self._predict_values(X)

    def predict(self, X):
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
