"""The vectorised CART kernel against the per-feature loop it replaced.

``_ReferenceKernel`` is the split search, position selection and per-row
prediction of ``repro.learners.tree.decision_tree`` as they stood before the
all-features kernel, frozen here as the single reference semantics.  Search
record digests depend on trees being reproduced to the last bit, so every
comparison below is exact: node for node (feature, threshold, value,
n_samples, impurity), ``array_equal`` on predictions, and the RNG left in
the same state.  The reference still grows the linked ``_Node`` tree fitted
trees were before they became node arrays; ``assert_same_tree`` walks its
nodes alongside the arrays.
"""

import contextlib
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.learners import ensemble
from repro.learners.base import check_random_state
from repro.learners.ensemble import AdaBoostClassifier
from repro.learners.tree import decision_tree, gradient_boosting
from repro.learners.tree.decision_tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.learners.tree.extra_trees import (
    ExtraTreesClassifier,
    ExtraTreesRegressor,
    _ExtraTreeClassifier,
    _ExtraTreeRegressor,
)
from repro.learners.tree.gradient_boosting import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    _NewtonTree,
)
from repro.learners.tree.random_forest import RandomForestClassifier, RandomForestRegressor


# -- the frozen reference ---------------------------------------------------------------


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


class _ReferenceKernel:
    """Fitting and prediction of ``_BaseDecisionTree`` before the all-features kernel."""

    def _fit_tree(self, X, stats):
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self._rng = check_random_state(self.random_state)
        self.n_features_in_ = X.shape[1]
        self.tree_ = self._build(X, stats, depth=0)
        self.n_nodes_ = self._count_nodes(self.tree_)
        del self._rng
        return self

    def _node_summary(self, stats):
        sums = stats.sum(axis=0, keepdims=True)
        count = np.asarray([len(stats)], dtype=float)
        impurity = float(self._impurity_from_stats(sums, count)[0])
        value = self._leaf_value_from_stats(sums[0], float(len(stats)))
        return value, impurity

    def _build(self, X, stats, depth):
        value, impurity = self._node_summary(stats)
        node = _Node(value, len(stats), impurity)
        if (
            len(stats) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node

        best = self._best_split(X, stats)
        if best is None:
            return node

        feature, threshold = best
        left_mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[left_mask], stats[left_mask], depth + 1)
        node.right = self._build(X[~left_mask], stats[~left_mask], depth + 1)
        return node

    def _select_positions(self, distinct_positions, sorted_values):
        if self.max_thresholds and len(distinct_positions) > self.max_thresholds:
            picks = np.linspace(0, len(distinct_positions) - 1, self.max_thresholds).astype(int)
            return distinct_positions[np.unique(picks)]
        return distinct_positions

    def _best_split(self, X, stats):
        n_samples, n_features = X.shape
        totals = stats.sum(axis=0, keepdims=True)
        parent_impurity = float(self._impurity_from_stats(totals, np.asarray([float(n_samples)]))[0])

        n_candidates = self._resolve_max_features(n_features)
        if n_candidates < n_features:
            features = self._rng.choice(n_features, size=n_candidates, replace=False)
        else:
            features = np.arange(n_features)

        best_gain = 1e-12
        best = None
        for feature in features:
            values = X[:, feature]
            order = np.argsort(values, kind="mergesort")
            sorted_values = values[order]
            if sorted_values[0] == sorted_values[-1]:
                continue
            cumulative = np.cumsum(stats[order], axis=0)
            distinct = np.flatnonzero(sorted_values[:-1] < sorted_values[1:])
            positions = self._select_positions(distinct, sorted_values)
            if len(positions) == 0:
                continue
            n_left = (positions + 1).astype(float)
            n_right = n_samples - n_left
            valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
            if not valid.any():
                continue
            left_sums = cumulative[positions]
            right_sums = totals - left_sums
            impurity_left = self._impurity_from_stats(left_sums, n_left)
            impurity_right = self._impurity_from_stats(right_sums, n_right)
            child_impurity = (n_left * impurity_left + n_right * impurity_right) / n_samples
            gains = np.where(valid, parent_impurity - child_impurity, -np.inf)
            index = int(np.argmax(gains))
            if gains[index] > best_gain:
                best_gain = float(gains[index])
                position = positions[index]
                threshold = 0.5 * (sorted_values[position] + sorted_values[position + 1])
                # not verbatim: the kernel's rule for a midpoint outside
                # [below, above), which used to send every row to one side
                if not sorted_values[position] <= threshold < sorted_values[position + 1]:
                    threshold = sorted_values[position]
                best = (int(feature), float(threshold))
        return best

    def _count_nodes(self, node):
        if node is None:
            return 0
        if node.is_leaf:
            return 1
        return 1 + self._count_nodes(node.left) + self._count_nodes(node.right)

    def _predict_value(self, x):
        node = self.tree_
        while not node.is_leaf:
            if x[node.feature] <= node.threshold:
                node = node.left
            else:
                node = node.right
        return node.value

    def _predict_values(self, X):
        return np.asarray([self._predict_value(x) for x in X])


class _ReferenceRandomSplit:
    """The extra-trees position hook before it became a rank hook."""

    def _select_positions(self, distinct_positions, sorted_values):
        if len(distinct_positions) == 0:
            return distinct_positions
        pick = int(self._rng.randint(0, len(distinct_positions)))
        return distinct_positions[pick:pick + 1]


class _NanAtCount:
    """Impurity hook that is NaN for sides of exactly ``nan_count`` samples."""

    nan_count = 3

    def _impurity_from_stats(self, sums, counts):
        impurity = super()._impurity_from_stats(sums, counts)
        return np.where(np.asarray(counts) == self.nan_count, np.nan, impurity)


class RefRegressor(_ReferenceKernel, DecisionTreeRegressor):
    pass


class RefClassifier(_ReferenceKernel, DecisionTreeClassifier):
    pass


class RefNewton(_ReferenceKernel, _NewtonTree):
    def fit_gradients(self, X, gradients, hessians):
        stats = np.column_stack([gradients, hessians])
        return self._fit_tree(np.asarray(X, dtype=float), stats)


class RefExtraRegressor(_ReferenceRandomSplit, _ReferenceKernel, DecisionTreeRegressor):
    pass


class RefExtraClassifier(_ReferenceRandomSplit, _ReferenceKernel, DecisionTreeClassifier):
    pass


class NanRegressor(_NanAtCount, DecisionTreeRegressor):
    pass


class RefNanRegressor(_NanAtCount, _ReferenceKernel, DecisionTreeRegressor):
    pass


class _ReferenceImportances:
    """The forests' importances when fitted trees were linked ``_Node`` trees."""

    def feature_importances(self):
        """Importance of each feature: split usage weighted by node size."""
        self._check_fitted("estimators_")
        counts = np.zeros(self.n_features_in_)

        def visit(node):
            if node is None or node.is_leaf:
                return
            counts[node.feature] += node.n_samples
            visit(node.left)
            visit(node.right)

        for tree in self.estimators_:
            visit(tree.tree_)
        total = counts.sum()
        return counts / total if total > 0 else counts


class RefRandomForestRegressor(_ReferenceImportances, RandomForestRegressor):
    def _make_tree(self, seed):
        return RefRegressor(**self._tree_params(seed))


class RefRandomForestClassifier(RandomForestClassifier):
    def _make_tree(self, seed):
        return RefClassifier(**self._tree_params(seed))


class RefExtraTreesRegressor(_ReferenceImportances, ExtraTreesRegressor):
    def _make_tree(self, seed):
        return RefExtraRegressor(**self._tree_params(seed))


class RefExtraTreesClassifier(ExtraTreesClassifier):
    def _make_tree(self, seed):
        return RefExtraClassifier(**self._tree_params(seed))


def _reference_newton_tree(self, seed):
    return RefNewton(
        reg_lambda=self.reg_lambda,
        max_depth=self.max_depth,
        min_samples_split=self.min_samples_split,
        min_samples_leaf=self.min_samples_leaf,
        max_thresholds=self.max_thresholds,
        random_state=seed,
    )


class _ReferenceBoost:
    """The boosting loop before stages shared a split-geometry memo.

    Every stage fits a fresh ``_NewtonTree`` on ``X[subsample_indices]``, a
    copy of ``X`` even when ``subsample == 1.0``, with no memo.
    """

    _new_tree = _reference_newton_tree

    def _boost(self, X, n_outputs, gradient_fn):
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        raw_predictions = np.full((n_samples, n_outputs), self._base_score, dtype=float)
        self.stages_ = []
        for _ in range(self.n_estimators):
            gradients, hessians = gradient_fn(raw_predictions)
            stage = []
            if self.subsample < 1.0:
                n_sub = max(2, int(self.subsample * n_samples))
                subsample_indices = rng.choice(n_samples, size=n_sub, replace=False)
            else:
                subsample_indices = np.arange(n_samples)
            for output in range(n_outputs):
                seed = int(rng.randint(0, 2 ** 31 - 1))
                tree = self._new_tree(seed)
                tree.fit_gradients(
                    X[subsample_indices],
                    gradients[subsample_indices, output],
                    hessians[subsample_indices, output],
                )
                raw_predictions[:, output] += self.learning_rate * tree.predict_values(X)
                stage.append(tree)
            self.stages_.append(stage)
        self.n_features_in_ = X.shape[1]
        return raw_predictions


class RefGradientBoostingRegressor(_ReferenceBoost, GradientBoostingRegressor):
    pass


class RefGradientBoostingClassifier(_ReferenceBoost, GradientBoostingClassifier):
    pass


class NanNewton(_NanAtCount, _NewtonTree):
    pass


class RefNanNewton(_NanAtCount, RefNewton):
    pass


def _nan_newton_tree(tree_class):
    def new_tree(self, seed):
        return tree_class(
            reg_lambda=self.reg_lambda,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_thresholds=self.max_thresholds,
            random_state=seed,
        )
    return new_tree


class NanGradientBoostingRegressor(GradientBoostingRegressor):
    _new_tree = _nan_newton_tree(NanNewton)


class RefNanGradientBoostingRegressor(_ReferenceBoost, GradientBoostingRegressor):
    _new_tree = _nan_newton_tree(RefNanNewton)


class RecordingMemo(decision_tree._GeometryMemo):
    """A geometry memo that counts its lookups and the entries it keeps."""

    memos = []

    def __init__(self):
        super().__init__()
        self.hits = 0
        self.misses = 0
        self.trees = set()
        RecordingMemo.memos.append(self)

    def geometry(self, tree, columns, rows, n_stats):
        if rows.tobytes() in self._entries:
            self.hits += 1
        else:
            self.misses += 1
        self.trees.add(id(tree))
        return super().geometry(tree, columns, rows, n_stats)


@contextlib.contextmanager
def recording_memos(budget=None):
    """Record every memo a boosting fit makes, under ``budget`` bytes if given."""
    RecordingMemo.memos = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gradient_boosting, "_GeometryMemo", RecordingMemo)
        if budget is not None:
            patch.setattr(decision_tree, "_GEOMETRY_MEMO_BYTES", budget)
        yield


# -- generated inputs -------------------------------------------------------------------


@st.composite
def feature_matrices(draw, max_rows=150, max_cols=40):
    """Matrices with the shapes the kernel must not get wrong.

    Hypothesis chooses the structure (size, tie density, constant and
    duplicated columns, infinities); the values come from a seeded NumPy
    generator, which is what keeps 150 x 40 matrices cheap to draw.
    """
    n_rows = draw(st.one_of(st.integers(2, 24), st.integers(2, max_rows)))
    n_cols = draw(st.one_of(st.integers(1, 6), st.integers(1, max_cols)))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))
    X = rng.normal(size=(n_rows, n_cols))
    decimals = draw(st.sampled_from([None, 2, 1, 0]))
    if decimals is not None:
        X = np.round(X, decimals)
    for _ in range(draw(st.integers(0, 2))):
        X[:, draw(st.integers(0, n_cols - 1))] = draw(st.sampled_from([0.0, -1.5, np.inf]))
    for _ in range(draw(st.integers(0, 2))):
        X[:, draw(st.integers(0, n_cols - 1))] = X[:, draw(st.integers(0, n_cols - 1))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 3]))):
        X[draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))] = draw(
            st.sampled_from([np.inf, -np.inf])
        )
    return X, rng


tree_params = st.fixed_dictionaries({
    "max_depth": st.sampled_from([None, 1, 2, 3, 6]),
    "min_samples_split": st.sampled_from([2, 2, 5]),
    "min_samples_leaf": st.sampled_from([1, 1, 2, 7]),
    "max_features": st.sampled_from([None, "sqrt", "log2", 0.5, 3]),
    "max_thresholds": st.sampled_from([0, 4, 16, 32]),
    "random_state": st.integers(0, 2 ** 31 - 1),
})

boosting_tree_params = st.fixed_dictionaries({
    "max_depth": st.sampled_from([1, 2, 3, 6]),
    "min_samples_split": st.sampled_from([2, 2, 5]),
    "min_samples_leaf": st.sampled_from([1, 1, 2, 7]),
    "max_thresholds": st.sampled_from([0, 4, 16, 32]),
    "random_state": st.integers(0, 2 ** 31 - 1),
})

EXAMPLES = settings(max_examples=200, deadline=None)


@st.composite
def cases(draw, matrices, params):
    """``(X, rng, params)``, ``max_depth=None`` included where ``X`` holds ``±inf``.

    The midpoint of a winning split next to ``+inf`` is ``inf``, and between
    ``-inf`` and ``+inf`` NaN; either used to send every row to one side, and
    the same node grew again until ``max_depth`` stopped it, or for ever.
    Both kernels now split at the lower value, so every split separates.
    """
    X, rng = draw(matrices)
    return X, rng, draw(params)


def _targets(rng, n_rows, n_classes):
    """Class labels, every class present when there are rows enough."""
    y = rng.randint(0, n_classes, size=n_rows)
    y[:n_classes] = np.arange(n_classes)[:n_rows]
    return y


# -- comparison -------------------------------------------------------------------------


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def assert_same_tree(new, reference):
    """The new tree's node arrays hold the reference's linked nodes, node for node."""
    tree = new.tree_
    pairs = [(0, reference.tree_)]
    visited = []
    while pairs:
        index, node = pairs.pop()
        visited.append(index)
        assert tree.n_node_samples[index] == node.n_samples
        assert (tree.feature[index] == -1) == node.is_leaf
        if node.is_leaf:
            assert node.threshold is None and np.isnan(tree.threshold[index])
            assert tree.children_left[index] == tree.children_right[index] == -1
        else:
            assert tree.feature[index] == node.feature
            assert _same(tree.threshold[index], node.threshold)
            pairs.append((tree.children_left[index], node.left))
            pairs.append((tree.children_right[index], node.right))
        assert _same(tree.impurity[index], node.impurity)
        assert _same(tree.value[index], node.value)
        assert np.shape(tree.value[index]) == np.shape(node.value)
    assert sorted(visited) == list(range(len(tree.feature)))
    assert new.n_nodes_ == reference.n_nodes_ == len(visited)


def fit_both(new, reference, fit):
    """Fit both; the new kernel may warn only where the reference does."""
    with warnings.catch_warnings(record=True) as reference_warnings:
        warnings.simplefilter("always")
        fit(reference)
    with warnings.catch_warnings(record=True) as new_warnings:
        warnings.simplefilter("always")
        fit(new)
    if not reference_warnings:
        assert not new_warnings, [str(w.message) for w in new_warnings]


def assert_same_outputs(new, reference, X, methods):
    for method in methods:
        got = getattr(new, method)(X)
        expected = getattr(reference, method)(X)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert _same(got, expected)


def _queries(X, rng):
    """The training rows plus rows that fall between and beyond them."""
    return np.vstack([X, X[rng.randint(0, len(X), size=8)] + rng.normal(size=(8, X.shape[1]))])


# -- single trees -----------------------------------------------------------------------


class TestSingleTrees:
    @given(case=cases(feature_matrices(), tree_params))
    @EXAMPLES
    def test_regressor(self, case):
        X, rng, params = case
        y = np.round(rng.normal(size=len(X)), 1)
        new, reference = DecisionTreeRegressor(**params), RefRegressor(**params)
        fit_both(new, reference, lambda model: model.fit(X, y))
        assert_same_tree(new, reference)
        assert_same_outputs(new, reference, _queries(X, rng), ["predict"])

    @given(case=cases(feature_matrices(), tree_params), n_classes=st.integers(2, 5))
    @EXAMPLES
    def test_classifier(self, case, n_classes):
        X, rng, params = case
        y = _targets(rng, len(X), n_classes)
        new, reference = DecisionTreeClassifier(**params), RefClassifier(**params)
        fit_both(new, reference, lambda model: model.fit(X, y))
        assert_same_tree(new, reference)
        assert_same_outputs(new, reference, _queries(X, rng), ["predict_proba", "predict"])

    @given(case=cases(feature_matrices(), boosting_tree_params),
           reg_lambda=st.sampled_from([0.0, 1.0, 3.5]), unit_hessians=st.booleans())
    @EXAMPLES
    def test_newton_tree(self, case, reg_lambda, unit_hessians):
        X, rng, params = case
        gradients = rng.normal(size=len(X))
        hessians = np.ones(len(X)) if unit_hessians else rng.uniform(1e-6, 0.25, size=len(X))
        new = _NewtonTree(reg_lambda=reg_lambda, **params)
        reference = RefNewton(reg_lambda=reg_lambda, **params)
        fit_both(new, reference, lambda model: model.fit_gradients(X, gradients, hessians))
        assert_same_tree(new, reference)
        assert_same_outputs(new, reference, _queries(X, rng), ["predict_values"])

    @given(case=cases(feature_matrices(), tree_params))
    @EXAMPLES
    def test_extra_tree_regressor_and_its_rng_stream(self, case):
        X, rng, params = case
        y = np.round(rng.normal(size=len(X)), 1)
        streams = [np.random.RandomState(params["random_state"]) for _ in range(2)]
        new = _ExtraTreeRegressor(**dict(params, random_state=streams[0]))
        reference = RefExtraRegressor(**dict(params, random_state=streams[1]))
        fit_both(new, reference, lambda model: model.fit(X, y))
        assert_same_tree(new, reference)
        assert streams[0].randint(0, 2 ** 31 - 1) == streams[1].randint(0, 2 ** 31 - 1)
        assert_same_outputs(new, reference, _queries(X, rng), ["predict"])

    @given(case=cases(feature_matrices(), tree_params), n_classes=st.integers(2, 5))
    @EXAMPLES
    def test_extra_tree_classifier_and_its_rng_stream(self, case, n_classes):
        X, rng, params = case
        y = _targets(rng, len(X), n_classes)
        streams = [np.random.RandomState(params["random_state"]) for _ in range(2)]
        new = _ExtraTreeClassifier(**dict(params, random_state=streams[0]))
        reference = RefExtraClassifier(**dict(params, random_state=streams[1]))
        fit_both(new, reference, lambda model: model.fit(X, y))
        assert_same_tree(new, reference)
        assert streams[0].randint(0, 2 ** 31 - 1) == streams[1].randint(0, 2 ** 31 - 1)
        assert_same_outputs(new, reference, _queries(X, rng), ["predict_proba", "predict"])

    @given(case=cases(feature_matrices(max_rows=60, max_cols=12), tree_params))
    @settings(max_examples=100, deadline=None)
    def test_every_feature_in_its_own_block(self, case):
        """Block boundaries never change the winner, ties included."""
        X, rng, params = case
        y = _targets(rng, len(X), 3)
        new, reference = DecisionTreeClassifier(**params), RefClassifier(**params)
        budget = decision_tree._BLOCK_ELEMENTS
        decision_tree._BLOCK_ELEMENTS = 1
        try:
            fit_both(new, reference, lambda model: model.fit(X, y))
        finally:
            decision_tree._BLOCK_ELEMENTS = budget
        assert_same_tree(new, reference)

    @given(case=cases(feature_matrices(max_rows=40, max_cols=8), tree_params),
           nan_count=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_feature_with_a_nan_gain_is_skipped_whole(self, case, nan_count):
        X, rng, params = case
        y = rng.normal(size=len(X))
        new, reference = NanRegressor(**params), RefNanRegressor(**params)
        new.nan_count = reference.nan_count = nan_count
        fit_both(new, reference, lambda model: model.fit(X, y))
        assert_same_tree(new, reference)


# -- ensembles, end to end --------------------------------------------------------------


forest_params = st.fixed_dictionaries({
    "n_estimators": st.integers(1, 4),
    "max_depth": st.sampled_from([None, 2, 4]),
    "min_samples_leaf": st.sampled_from([1, 1, 3]),
    "max_features": st.sampled_from([None, "sqrt", "log2", 0.5, 3]),
    "max_thresholds": st.sampled_from([0, 4, 16, 32]),
    "bootstrap": st.booleans(),
    "random_state": st.integers(0, 2 ** 31 - 1),
})

boosting_params = st.fixed_dictionaries({
    "n_estimators": st.integers(1, 4),
    "learning_rate": st.sampled_from([0.05, 0.3]),
    "max_depth": st.sampled_from([1, 3, 5]),
    "min_samples_leaf": st.sampled_from([1, 1, 3]),
    "subsample": st.sampled_from([1.0, 0.7, 0.4]),
    "reg_lambda": st.sampled_from([0.0, 1.0]),
    "max_thresholds": st.sampled_from([0, 4, 16, 32]),
    "random_state": st.integers(0, 2 ** 31 - 1),
})

small_matrices = feature_matrices(max_rows=80, max_cols=16)


class TestEnsembles:
    @pytest.mark.parametrize("new_class, reference_class", [
        (RandomForestRegressor, RefRandomForestRegressor),
        (ExtraTreesRegressor, RefExtraTreesRegressor),
    ])
    @given(case=cases(small_matrices, forest_params))
    @EXAMPLES
    def test_forest_regressors(self, new_class, reference_class, case):
        X, rng, params = case
        y = np.round(rng.normal(size=len(X)), 1)
        new, reference = new_class(**params), reference_class(**params)
        fit_both(new, reference, lambda model: model.fit(X, y))
        assert_same_outputs(new, reference, _queries(X, rng), ["predict"])
        assert _same(new.feature_importances(), reference.feature_importances())

    @pytest.mark.parametrize("new_class, reference_class", [
        (RandomForestClassifier, RefRandomForestClassifier),
        (ExtraTreesClassifier, RefExtraTreesClassifier),
    ])
    @given(case=cases(small_matrices, forest_params), n_classes=st.integers(2, 5))
    @EXAMPLES
    def test_forest_classifiers(self, new_class, reference_class, case, n_classes):
        X, rng, params = case
        y = _targets(rng, len(X), n_classes)
        new, reference = new_class(**params), reference_class(**params)
        fit_both(new, reference, lambda model: model.fit(X, y))
        assert_same_outputs(new, reference, _queries(X, rng), ["predict_proba", "predict"])

    @given(data=small_matrices, n_estimators=st.integers(1, 5), max_depth=st.integers(1, 3),
           seed=st.integers(0, 2 ** 31 - 1), n_classes=st.integers(2, 5))
    @EXAMPLES
    def test_adaboost(self, data, n_estimators, max_depth, seed, n_classes):
        X, rng = data
        y = _targets(rng, len(X), n_classes)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        params = dict(n_estimators=n_estimators, max_depth=max_depth, random_state=seed)
        new, reference = AdaBoostClassifier(**params), AdaBoostClassifier(**params)

        def fit(model):
            # AdaBoost names its weak learner directly; swap it for the reference run
            weak = RefClassifier if model is reference else DecisionTreeClassifier
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ensemble, "DecisionTreeClassifier", weak)
                model.fit(X, y)

        fit_both(new, reference, fit)
        assert all(isinstance(tree, RefClassifier) for tree in reference.estimators_)
        assert new.estimator_weights_ == reference.estimator_weights_
        assert_same_outputs(new, reference, _queries(X, rng), ["predict"])

    @given(case=cases(small_matrices, boosting_params))
    @EXAMPLES
    def test_gradient_boosting_regressor(self, case):
        X, rng, params = case
        y = rng.normal(size=len(X))
        new = GradientBoostingRegressor(**params)
        reference = RefGradientBoostingRegressor(**params)
        fit_both(new, reference, lambda model: model.fit(X, y))
        assert_same_outputs(new, reference, _queries(X, rng), ["predict"])

    @given(case=cases(small_matrices, boosting_params), n_classes=st.integers(2, 4))
    @EXAMPLES
    def test_gradient_boosting_classifier(self, case, n_classes):
        X, rng, params = case
        y = _targets(rng, len(X), n_classes)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        new, reference = (
            GradientBoostingClassifier(**params), RefGradientBoostingClassifier(**params)
        )
        fit_both(new, reference, lambda model: model.fit(X, y))
        assert_same_outputs(new, reference, _queries(X, rng), ["predict_proba", "predict"])


# -- the split-geometry memo of one boosting fit ----------------------------------------


memo_params = st.fixed_dictionaries({
    "n_estimators": st.integers(2, 6),
    "learning_rate": st.sampled_from([0.05, 0.3]),
    "max_depth": st.sampled_from([1, 3, 5]),
    "min_samples_leaf": st.sampled_from([1, 2, 5]),
    "reg_lambda": st.sampled_from([0.0, 1.0]),
    "max_thresholds": st.sampled_from([0, 4, 16]),
    "random_state": st.integers(0, 2 ** 31 - 1),
})


def _root_entry_bytes(X, params):
    """Bytes the root's geometry takes in a memo: a budget of exactly one entry."""
    tree = gradient_boosting._NewtonTree(
        **{key: params[key] for key in ("max_depth", "min_samples_leaf", "max_thresholds")})
    blocks = list(tree._split_geometry(np.ascontiguousarray(X.T), 2))
    rows = np.arange(len(X))
    return rows.nbytes + sum(array.nbytes for block in blocks for array in block)


class TestGeometryMemo:
    @given(case=cases(small_matrices, memo_params), n_classes=st.integers(3, 5),
           budget=st.sampled_from(["default", "none", "one entry"]))
    @settings(max_examples=100, deadline=None)
    def test_one_memo_serves_every_output_of_a_multiclass_fit(self, case, n_classes, budget):
        X, rng, params = case
        assume(len(X) >= n_classes)
        y = _targets(rng, len(X), n_classes)
        limit = {"default": None, "none": 0, "one entry": _root_entry_bytes(X, params)}[budget]
        new = GradientBoostingClassifier(**params)
        reference = RefGradientBoostingClassifier(**params)
        with recording_memos(limit):
            fit_both(new, reference, lambda model: model.fit(X, y))
        assert_same_outputs(new, reference, _queries(X, rng), ["predict_proba", "predict"])
        (memo,) = RecordingMemo.memos
        n_trees = params["n_estimators"] * n_classes
        assert len(memo.trees) == n_trees  # every output of every stage
        if budget == "none":
            assert memo.hits == 0 and not memo._entries
        else:
            # the root's rows come back in every tree after the first
            assert memo.hits >= n_trees - 1
        if budget == "one entry":
            assert len(memo._entries) == 1

    @given(case=cases(small_matrices, memo_params),
           subsample=st.sampled_from([0.4, 0.7, 0.99]))
    @settings(max_examples=100, deadline=None)
    def test_subsampled_stages_use_no_memo(self, case, subsample):
        X, rng, params = case
        y = rng.normal(size=len(X))
        params = dict(params, subsample=subsample)
        new = GradientBoostingRegressor(**params)
        reference = RefGradientBoostingRegressor(**params)
        with recording_memos():
            fit_both(new, reference, lambda model: model.fit(X, y))
        assert RecordingMemo.memos == []
        assert_same_outputs(new, reference, _queries(X, rng), ["predict"])

    @given(case=cases(feature_matrices(max_rows=40, max_cols=8), memo_params),
           nan_count=st.integers(1, 6), budget=st.sampled_from([None, 0]))
    @settings(max_examples=100, deadline=None)
    def test_feature_with_a_nan_gain_is_skipped_whole(self, case, nan_count, budget):
        X, rng, params = case
        y = rng.normal(size=len(X))
        new = NanGradientBoostingRegressor(**params)
        reference = RefNanGradientBoostingRegressor(**params)
        NanNewton.nan_count = RefNanNewton.nan_count = nan_count
        try:
            with recording_memos(budget):
                fit_both(new, reference, lambda model: model.fit(X, y))
        finally:
            NanNewton.nan_count = RefNanNewton.nan_count = _NanAtCount.nan_count
        assert len(RecordingMemo.memos) == 1
        for new_stage, reference_stage in zip(new.stages_, reference.stages_):
            assert_same_tree(new_stage[0], reference_stage[0])
        assert_same_outputs(new, reference, _queries(X, rng), ["predict"])

    @pytest.mark.parametrize("model_class, n_classes", [
        (GradientBoostingClassifier, 2),
        (GradientBoostingClassifier, 4),
        (GradientBoostingRegressor, None),
    ])
    def test_no_fitted_model_carries_the_memo(self, model_class, n_classes):
        rng = np.random.RandomState(7)
        X = np.round(rng.normal(size=(90, 6)), 1)
        y = rng.normal(size=90) if n_classes is None else _targets(rng, 90, n_classes)
        memoised = model_class(n_estimators=12, max_depth=3, random_state=0).fit(X, y)
        with recording_memos(budget=0):
            unmemoised = model_class(n_estimators=12, max_depth=3, random_state=0).fit(X, y)
        (memo,) = RecordingMemo.memos
        assert memo.misses and not memo._entries
        assert pickle.dumps(memoised) == pickle.dumps(unmemoised)
        for stage in memoised.stages_:
            for tree in stage:
                assert not hasattr(tree, "_geometry_memo")


# -- the node arrays --------------------------------------------------------------------


@contextlib.contextmanager
def recording_fits():
    """Record ``(tree, X, geometry memo, per-row leaf)`` of every tree fitted inside."""
    fits = []
    fit_tree = decision_tree._BaseDecisionTree._fit_tree

    def recording(self, X, stats, geometry_memo=None):
        leaf = fit_tree(self, X, stats, geometry_memo)
        fits.append((self, X, geometry_memo, leaf))
        return leaf

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decision_tree._BaseDecisionTree, "_fit_tree", recording)
        yield fits


def assert_node_arrays(tree, X, leaf):
    """``tree.tree_`` is one tree over the rows of ``X``, and ``leaf`` is where they end."""
    arrays = tree.tree_
    n_nodes = tree.n_nodes_
    assert all(len(column) == n_nodes for column in arrays)
    split = arrays.feature >= 0
    parents = np.flatnonzero(split)
    left, right = arrays.children_left[split], arrays.children_right[split]
    # a child comes after its parent, and every node but the root has one parent
    assert (left > parents).all() and (right > parents).all()
    assert np.array_equal(np.sort(np.concatenate([left, right])), np.arange(1, n_nodes))
    assert (arrays.feature[split] < X.shape[1]).all()
    assert not np.isnan(arrays.threshold[split]).any()
    # the leaf conventions
    assert (arrays.feature[~split] == -1).all()
    assert np.isnan(arrays.threshold[~split]).all()
    assert (arrays.children_left[~split] == -1).all()
    assert (arrays.children_right[~split] == -1).all()
    # node sizes: the root holds every row, a split its children's, and no
    # child has fewer than min_samples_leaf
    samples = arrays.n_node_samples
    assert samples[0] == len(X)
    assert np.array_equal(samples[split], samples[left] + samples[right])
    assert (samples[1:] >= tree.min_samples_leaf).all()
    # the leaf the fit put each row in is the leaf prediction reaches
    assert leaf.shape == (len(X),) and not split[leaf].any()
    assert np.array_equal(leaf, tree._apply(X))
    assert np.array_equal(np.bincount(leaf, minlength=n_nodes)[~split], samples[~split])


NODE_ARRAY_FITS = {
    "regressor": lambda X, y, params: DecisionTreeRegressor(**params).fit(X, y.astype(float)),
    "classifier": lambda X, y, params: DecisionTreeClassifier(**params).fit(X, y),
    "extra-trees regressor":
        lambda X, y, params: _ExtraTreeRegressor(**params).fit(X, y.astype(float)),
    "extra-trees classifier": lambda X, y, params: _ExtraTreeClassifier(**params).fit(X, y),
    "newton tree": lambda X, y, params: _NewtonTree(**params).fit_gradients(
        X, y - y.mean(), np.linspace(1e-6, 0.25, len(X))),
}


class TestNodeArrays:
    @given(case=cases(feature_matrices(max_rows=80, max_cols=16), tree_params),
           kind=st.sampled_from(sorted(NODE_ARRAY_FITS) + ["boosting"]),
           n_classes=st.integers(2, 4), subsample=st.sampled_from([1.0, 1.0, 0.6]))
    @EXAMPLES
    def test_every_fitted_tree_holds_the_array_invariants(self, case, kind, n_classes, subsample):
        X, rng, params = case
        y = _targets(rng, len(X), n_classes)
        with recording_fits() as fits:
            if kind == "boosting":
                # a multi-class fit grows one Newton tree per class and stage; only
                # unsubsampled stages share a geometry memo
                boosting = {key: params[key] for key in
                            ("max_depth", "min_samples_leaf", "max_thresholds", "random_state")}
                GradientBoostingClassifier(n_estimators=3, subsample=subsample, **boosting).fit(X, y)
            else:
                NODE_ARRAY_FITS[kind](X, y, params)
        n_outputs = len(np.unique(y)) if kind == "boosting" and len(np.unique(y)) > 2 else 1
        assert len(fits) == (3 * n_outputs if kind == "boosting" else 1)
        for tree, X_fit, memo, leaf in fits:
            assert (memo is not None) == (kind == "boosting" and subsample == 1.0)
            assert_node_arrays(tree, X_fit, leaf)


# -- the edges, pinned ------------------------------------------------------------------


class TestReferenceSemanticsAtTheEdges:
    def test_first_feature_then_first_position_wins_ties(self):
        # columns 0 and 2 are the same feature, and splitting after the first
        # or after the third row separates the targets equally well
        column = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([column, np.zeros(4), column])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        root = RefRegressor(max_depth=1).fit(X, y).tree_
        assert (root.feature, root.threshold) == (0, 0.5)
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y).tree_
        assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)
        # ... and with the duplicate first in candidate order, it wins
        tree = DecisionTreeRegressor(max_depth=1).fit(X[:, ::-1], y).tree_
        assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)

    def test_constant_features_consume_no_draw(self):
        X = np.column_stack([np.ones(6), np.arange(6.0), np.full(6, np.inf)])
        y = np.arange(6.0)
        stream = np.random.RandomState(5)
        _ExtraTreeRegressor(max_depth=1, random_state=stream).fit(X, y)
        expected = np.random.RandomState(5)
        expected.randint(0, 5)  # the one non-constant feature, five distinct positions
        assert stream.randint(0, 2 ** 31 - 1) == expected.randint(0, 2 ** 31 - 1)

    @pytest.mark.parametrize("everything", [0, None])
    def test_no_threshold_limit_evaluates_every_position(self, everything):
        rng = np.random.RandomState(0)
        X = rng.normal(size=(90, 3))
        # only the split between the 41st and 42nd smallest value is perfect;
        # a 4-pick linspace over 89 positions (0, 29, 58, 88) cannot find it
        y = (X[:, 1] > np.sort(X[:, 1])[41]).astype(float)
        exhaustive = DecisionTreeRegressor(max_depth=1, max_thresholds=everything).fit(X, y)
        assert exhaustive.n_nodes_ == 3 and (exhaustive.tree_.impurity[1:] == 0.0).all()
        limited = DecisionTreeRegressor(max_depth=1, max_thresholds=4).fit(X, y)
        assert limited.n_nodes_ == 3 and limited.tree_.impurity[1:].sum() > 0.0
        assert_same_tree(
            exhaustive, RefRegressor(max_depth=1, max_thresholds=everything).fit(X, y))
        assert_same_tree(limited, RefRegressor(max_depth=1, max_thresholds=4).fit(X, y))

    def test_min_samples_leaf_masking_is_no_split_not_an_error(self):
        X = np.arange(3.0).reshape(-1, 1)
        tree = DecisionTreeRegressor(min_samples_leaf=2).fit(X, np.arange(3.0))
        assert tree.tree_.feature[0] == -1 and tree.n_nodes_ == 1
        assert np.array_equal(tree.predict(X), np.ones(3))

    def test_many_classes_sum_in_the_same_order(self):
        # 12 classes: long enough for NumPy's pairwise summation to engage
        rng = np.random.RandomState(3)
        X = np.round(rng.normal(size=(140, 9)), 1)
        y = _targets(rng, 140, 12)
        new = DecisionTreeClassifier(max_thresholds=16).fit(X, y)
        reference = RefClassifier(max_thresholds=16).fit(X, y)
        assert_same_tree(new, reference)
        assert_same_outputs(new, reference, _queries(X, rng), ["predict_proba", "predict"])

    def test_a_wide_multiclass_node_is_split_in_blocks(self):
        rng = np.random.RandomState(4)
        X = rng.normal(size=(120, 30))
        y = _targets(rng, 120, 6)
        n_gathered = X.shape[0] * X.shape[1] * 6
        budget = decision_tree._BLOCK_ELEMENTS
        decision_tree._BLOCK_ELEMENTS = n_gathered // 4
        try:
            new = DecisionTreeClassifier(max_depth=4).fit(X, y)
        finally:
            decision_tree._BLOCK_ELEMENTS = budget
        assert_same_tree(new, RefClassifier(max_depth=4).fit(X, y))

    def test_rng_is_seeded_on_the_first_draw_only(self, monkeypatch):
        seeded = []

        def counting(seed):
            seeded.append(seed)
            return check_random_state(seed)

        monkeypatch.setattr(decision_tree, "check_random_state", counting)
        rng = np.random.RandomState(0)
        X, y = rng.normal(size=(40, 6)), rng.normal(size=40)
        GradientBoostingRegressor(n_estimators=5, random_state=0).fit(X, y)
        DecisionTreeRegressor(random_state=7).fit(X, y)
        assert seeded == []  # every feature, deterministic thresholds: nothing to draw
        DecisionTreeRegressor(max_features="sqrt", random_state=7).fit(X, y)
        _ExtraTreeRegressor(random_state=8).fit(X, y)
        assert seeded == [7, 8]

    def test_invalid_seed_is_rejected_at_fit_though_never_drawn_from(self):
        X, y = np.arange(4.0).reshape(-1, 1), np.arange(4.0)
        for bad in (-1, 2 ** 32, "seed"):
            with pytest.raises(ValueError):
                DecisionTreeRegressor(random_state=bad).fit(X, y)
            with pytest.raises(ValueError):
                RefRegressor(random_state=bad).fit(X, y)
