"""Tests for decision trees, forests, extra trees and gradient boosting."""

import pickle

import numpy as np
import pytest

from repro.learners.ensemble import AdaBoostClassifier
from repro.learners.metrics import accuracy_score, r2_score
from repro.learners.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    ExtraTreesClassifier,
    ExtraTreesFeatureSelector,
    ExtraTreesRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)


class TestDecisionTreeClassifier:
    def test_fits_axis_aligned_boundary_perfectly(self, rng):
        X = rng.uniform(-1, 1, size=(100, 2))
        y = (X[:, 0] > 0.2).astype(int)
        model = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) == 1.0

    def test_max_depth_limits_tree(self, classification_data):
        X, y = classification_data
        model = DecisionTreeClassifier(max_depth=2, random_state=0).fit(X, y)
        assert model.get_depth() <= 2

    def test_min_samples_leaf_respected(self, classification_data):
        X, y = classification_data
        model = DecisionTreeClassifier(min_samples_leaf=20, random_state=0).fit(X, y)
        leaves = model.tree_.feature == -1
        assert leaves.sum() > 1
        assert (model.tree_.n_node_samples[leaves] >= 20).all()

    def test_predict_proba_sums_to_one(self, multiclass_data):
        X, y = multiclass_data
        proba = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_string_labels(self, classification_data):
        X, y = classification_data
        labels = np.where(y == 1, "spam", "ham")
        model = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, labels)
        assert set(model.predict(X)) <= {"spam", "ham"}

    def test_pure_node_stops_splitting(self):
        X = np.ones((10, 2))
        y = np.zeros(10, dtype=int)
        model = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert model.n_nodes_ == 1 and model.tree_.feature[0] == -1

    def test_invalid_min_samples_split(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1).fit(np.ones((4, 2)), [0, 1, 0, 1])


class TestDecisionTreeRegressor:
    def test_fits_step_function(self, rng):
        X = rng.uniform(-1, 1, size=(150, 1))
        y = np.where(X[:, 0] > 0, 5.0, -5.0)
        model = DecisionTreeRegressor(random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.99

    def test_deeper_tree_fits_better_on_train(self, rng):
        X = rng.uniform(-3, 3, size=(200, 1))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=200)
        shallow = DecisionTreeRegressor(max_depth=2, random_state=0).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=8, random_state=0).fit(X, y)
        assert r2_score(y, deep.predict(X)) > r2_score(y, shallow.predict(X))

    def test_constant_target(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.full(10, 3.0)
        model = DecisionTreeRegressor(random_state=0).fit(X, y)
        assert np.allclose(model.predict(X), 3.0)


class TestSplitThresholds:
    """A midpoint outside ``[below, above)`` splits at ``below``, so both sides keep rows."""

    PAIRS = {
        "adjacent, 0.1 + 0.2": (0.3, 0.1 + 0.2),
        "adjacent above 1": (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
        "overflow to +inf": (1e308, 1.5e308),
        "overflow to -inf": (-1.5e308, -1e308),
        "next to +inf": (1.0, np.inf),
        "-inf and +inf": (-np.inf, np.inf),
    }

    @pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
    @pytest.mark.parametrize("max_depth", [None, 1, 3])
    def test_two_values_split_in_two(self, pair, max_depth):
        below, above = pair
        with np.errstate(over="ignore", invalid="ignore"):
            midpoint = 0.5 * (below + above)
        assert not below <= midpoint < above
        X = np.array([[below], [above], [below], [above]])
        y = np.array([0, 1, 0, 1])
        trees = [DecisionTreeClassifier(max_depth=max_depth, random_state=0),
                 DecisionTreeRegressor(max_depth=max_depth, random_state=0)]
        forest = RandomForestClassifier(n_estimators=3, max_depth=max_depth, random_state=0)
        for model in trees + [forest]:
            with np.errstate(over="ignore", invalid="ignore"):
                model.fit(X, y)
            assert np.array_equal(model.predict(X), y)
        for tree in trees:
            assert tree.n_nodes_ == 3 and tree.tree_.threshold[0] == below
            assert np.array_equal(tree.tree_.n_node_samples, [4, 2, 2])
            assert not np.isnan(tree.tree_.value).any()


class TestRandomForest:
    def test_classifier_beats_chance(self, multiclass_data):
        X, y = multiclass_data
        model = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.8

    def test_regressor_fits_signal(self, regression_data):
        X, y = regression_data
        model = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.8

    def test_number_of_estimators(self, classification_data):
        X, y = classification_data
        model = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert len(model.estimators_) == 7

    def test_reproducible_with_seed(self, classification_data):
        X, y = classification_data
        a = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y).predict(X)
        b = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_feature_importances_sum_to_one(self, classification_data):
        X, y = classification_data
        model = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        importances = model.feature_importances()
        assert importances.shape == (X.shape[1],)
        assert importances.sum() == pytest.approx(1.0)

    def test_informative_features_rank_higher(self, classification_data):
        X, y = classification_data
        model = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        importances = model.feature_importances()
        assert importances[:2].mean() > importances[2:].mean()

    def test_predict_proba_shape(self, multiclass_data):
        X, y = multiclass_data
        proba = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y).predict_proba(X)
        assert proba.shape == (len(y), 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0).fit(np.ones((4, 2)), [0, 1, 0, 1])


class TestExtraTrees:
    def test_classifier_learns(self, classification_data):
        X, y = classification_data
        model = ExtraTreesClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.8

    def test_regressor_learns(self, regression_data):
        X, y = regression_data
        model = ExtraTreesRegressor(n_estimators=10, random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.7

    def test_selector_keeps_requested_number_of_features(self, classification_data):
        X, y = classification_data
        selector = ExtraTreesFeatureSelector(n_features=3, random_state=0).fit(X, y)
        assert selector.transform(X).shape == (len(y), 3)

    def test_selector_keeps_informative_features(self, classification_data):
        X, y = classification_data
        selector = ExtraTreesFeatureSelector(n_features=2, n_estimators=20, random_state=0)
        selector.fit(X, y)
        assert selector.support_[:2].sum() >= 1

    def test_selector_regression_mode(self, regression_data):
        X, y = regression_data
        selector = ExtraTreesFeatureSelector(problem_type="regression", random_state=0).fit(X, y)
        assert selector.transform(X).shape[1] >= 1

    def test_selector_invalid_problem_type(self, classification_data):
        X, y = classification_data
        with pytest.raises(ValueError):
            ExtraTreesFeatureSelector(problem_type="clustering").fit(X, y)


class TestGradientBoosting:
    def test_binary_classification(self, classification_data):
        X, y = classification_data
        model = GradientBoostingClassifier(n_estimators=20, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_multiclass_classification(self, multiclass_data):
        X, y = multiclass_data
        model = GradientBoostingClassifier(n_estimators=15, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.85

    def test_regression(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=30, random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.85

    def test_more_rounds_reduce_training_error(self, regression_data):
        X, y = regression_data
        few = GradientBoostingRegressor(n_estimators=3, random_state=0).fit(X, y)
        many = GradientBoostingRegressor(n_estimators=40, random_state=0).fit(X, y)
        assert r2_score(y, many.predict(X)) > r2_score(y, few.predict(X))

    def test_predict_proba_binary_shape(self, classification_data):
        X, y = classification_data
        proba = GradientBoostingClassifier(n_estimators=5, random_state=0).fit(X, y).predict_proba(X)
        assert proba.shape == (len(y), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_subsample_fraction(self, classification_data):
        X, y = classification_data
        model = GradientBoostingClassifier(
            n_estimators=10, subsample=0.6, random_state=0
        ).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.8

    def test_string_labels(self, classification_data):
        X, y = classification_data
        labels = np.where(y == 1, "up", "down")
        model = GradientBoostingClassifier(n_estimators=10, random_state=0).fit(X, labels)
        assert set(model.predict(X)) <= {"up", "down"}

    def test_regularization_changes_predictions(self, regression_data):
        X, y = regression_data
        light = GradientBoostingRegressor(n_estimators=10, reg_lambda=0.0, random_state=0).fit(X, y)
        heavy = GradientBoostingRegressor(n_estimators=10, reg_lambda=50.0, random_state=0).fit(X, y)
        assert not np.allclose(light.predict(X), heavy.predict(X))

    def test_invalid_subsample(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=0.0).fit(np.ones((4, 2)), [0, 1, 0, 1])

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0).fit(np.ones((4, 2)), np.ones(4))

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(np.ones((5, 2)), np.zeros(5))


class TestPickling:
    ESTIMATORS = [
        (DecisionTreeClassifier(max_depth=4, random_state=0), "multiclass"),
        (DecisionTreeRegressor(max_depth=4, random_state=0), "regression"),
        (RandomForestClassifier(n_estimators=4, random_state=0), "multiclass"),
        (RandomForestRegressor(n_estimators=4, random_state=0), "regression"),
        (ExtraTreesClassifier(n_estimators=4, random_state=0), "multiclass"),
        (ExtraTreesRegressor(n_estimators=4, random_state=0), "regression"),
        (AdaBoostClassifier(n_estimators=4, max_depth=2, random_state=0), "multiclass"),
        (GradientBoostingClassifier(n_estimators=4, random_state=0), "multiclass"),
        (GradientBoostingRegressor(n_estimators=4, random_state=0), "regression"),
    ]

    @pytest.fixture(params=ESTIMATORS, ids=lambda pair: type(pair[0]).__name__)
    def fitted(self, request, multiclass_data, regression_data):
        model, kind = request.param
        X, y = multiclass_data if kind == "multiclass" else regression_data
        return model.fit(X, y), X

    def test_round_trip_predicts_the_same(self, fitted):
        model, X = fitted
        restored = pickle.loads(pickle.dumps(model))
        assert np.array_equal(restored.predict(X), model.predict(X))
        if hasattr(model, "predict_proba"):
            assert np.array_equal(restored.predict_proba(X), model.predict_proba(X))
