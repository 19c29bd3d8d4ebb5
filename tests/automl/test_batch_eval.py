"""Tests for batched multi-candidate evaluation (repro.automl.batch_eval)."""

import numpy as np
import pytest

from repro.automl import AutoBazaarSearch, evaluate_pipeline
from repro.automl.backends import EvaluationCandidate, SerialBackend
from repro.automl.batch_eval import evaluate_candidate_group, group_candidates
from repro.core.template import Template
from repro.learners.linear import Lasso, LinearRegression, LogisticRegression, Ridge
from repro.learners.naive_bayes import GaussianNB
from repro.learners.neighbors import KNeighborsClassifier, KNeighborsRegressor
from repro.tasks import synth
from repro.tasks.task import split_task
from repro.tuning.tuners import UniformTuner

ENCODER = "mlprimitives.custom.feature_extraction.CategoricalEncoder"
DECODER = "mlprimitives.custom.preprocessing.ClassDecoder"
IMPUTER = "sklearn.impute.SimpleImputer"


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 6))
    y = X @ rng.normal(size=6) + 0.1 * rng.normal(size=120)
    return X, y


@pytest.fixture(scope="module")
def classification_data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 6))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
    return X, y


def assert_models_identical(batched, looped, attributes):
    assert len(batched) == len(looped)
    for fast, slow in zip(batched, looped):
        for attribute in attributes:
            np.testing.assert_array_equal(
                np.asarray(getattr(fast, attribute)),
                np.asarray(getattr(slow, attribute)),
                err_msg=attribute,
            )


class TestFitBatchBitIdentity:
    def test_ridge_shares_gram_matrix(self, regression_data):
        X, y = regression_data
        configs = [{"alpha": alpha, "fit_intercept": flag}
                   for alpha in (0.0, 0.1, 1.0, 10.0) for flag in (True, False)]
        batched = Ridge.fit_batch(configs, X, y)
        looped = [Ridge(**config).fit(X, y) for config in configs]
        assert_models_identical(batched, looped, ["coef_", "intercept_"])

    def test_ridge_batch_validates_alpha_like_fit(self, regression_data):
        X, y = regression_data
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            Ridge.fit_batch([{"alpha": 1.0}, {"alpha": -1.0}], X, y)

    def test_linear_regression_dedupes_solves(self, regression_data):
        X, y = regression_data
        configs = [{"fit_intercept": True}, {"fit_intercept": False},
                   {"fit_intercept": True}]
        batched = LinearRegression.fit_batch(configs, X, y)
        looped = [LinearRegression(**config).fit(X, y) for config in configs]
        assert_models_identical(batched, looped, ["coef_", "intercept_"])

    def test_logistic_shares_descent_trajectories(self, classification_data):
        X, y = classification_data
        configs = [
            {"C": 1.0, "max_iter": 50},
            {"C": 1.0, "max_iter": 200},   # same trajectory, later snapshot
            {"C": 0.1, "max_iter": 200},
            {"C": 1.0, "max_iter": 0},     # degenerate budget
            {"C": 1.0, "max_iter": 200, "fit_intercept": False},
        ]
        batched = LogisticRegression.fit_batch(configs, X, y)
        looped = [LogisticRegression(**config).fit(X, y) for config in configs]
        assert_models_identical(batched, looped, ["coef_", "intercept_", "classes_"])
        for fast, slow in zip(batched, looped):
            np.testing.assert_array_equal(fast.predict_proba(X), slow.predict_proba(X))

    def test_knn_shares_distance_matrix(self, classification_data):
        X, y = classification_data
        train_X, train_y = X[:90], y[:90]
        configs = [{"n_neighbors": k, "weights": weights}
                   for k in (1, 3, 7) for weights in ("uniform", "distance")]
        batched = KNeighborsClassifier.fit_batch(configs, train_X, train_y)
        looped = [KNeighborsClassifier(**config).fit(train_X, train_y)
                  for config in configs]
        fast_out = KNeighborsClassifier.batch_predict(batched, X[90:])
        for fast, prediction, slow in zip(batched, fast_out, looped):
            np.testing.assert_array_equal(prediction, slow.predict(X[90:]))
            np.testing.assert_array_equal(fast.predict_proba(X[90:]),
                                          slow.predict_proba(X[90:]))

    def test_knn_regressor_batch(self, regression_data):
        X, y = regression_data
        configs = [{"n_neighbors": k, "weights": weights}
                   for k in (2, 5) for weights in ("uniform", "distance")]
        batched = KNeighborsRegressor.fit_batch(configs, X[:90], y[:90])
        looped = [KNeighborsRegressor(**config).fit(X[:90], y[:90])
                  for config in configs]
        predictions = KNeighborsRegressor.batch_predict(batched, X[90:])
        for prediction, slow in zip(predictions, looped):
            np.testing.assert_array_equal(prediction, slow.predict(X[90:]))

    def test_batch_predict_without_shared_training_set_loops(self, classification_data):
        X, y = classification_data
        one = KNeighborsClassifier(n_neighbors=3).fit(X[:50], y[:50])
        other = KNeighborsClassifier(n_neighbors=3).fit(X[50:100], y[50:100])
        batched = KNeighborsClassifier.batch_predict([one, other], X[100:])
        np.testing.assert_array_equal(batched[0], one.predict(X[100:]))
        np.testing.assert_array_equal(batched[1], other.predict(X[100:]))

    def test_gaussian_nb_dedupes_identical_configs(self, classification_data):
        X, y = classification_data
        configs = [{"var_smoothing": 1e-9}, {"var_smoothing": 1e-9},
                   {"var_smoothing": 1e-3}]
        batched = GaussianNB.fit_batch(configs, X, y)
        looped = [GaussianNB(**config).fit(X, y) for config in configs]
        assert_models_identical(batched, looped,
                                ["theta_", "var_", "class_prior_", "classes_"])
        assert batched[0] is batched[1]  # duplicates share one fitted instance
        assert batched[0] is not batched[2]


class TestEvaluateCandidateGroup:
    def _regression_tasks(self):
        task = synth.make_single_table_regression(n_samples=120, random_state=0)
        return split_task(task, test_size=0.3, random_state=0)

    def _group_matches_loop(self, template, hyperparameters_list):
        train, val = self._regression_tasks()
        payloads = evaluate_candidate_group(template, hyperparameters_list, train, val)
        assert len(payloads) == len(hyperparameters_list)
        for payload, hyperparameters in zip(payloads, hyperparameters_list):
            if payload["error"] is None:
                normalized, raw, _ = evaluate_pipeline(
                    template, hyperparameters, train, val
                )
                assert payload["score"] == normalized
                assert payload["raw_score"] == raw
            else:
                with pytest.raises(Exception) as failure:
                    evaluate_pipeline(template, hyperparameters, train, val)
                expected = "{}: {}".format(type(failure.value).__name__, failure.value)
                assert payload["error"] == expected
        return payloads

    def test_ridge_group_scores_match_looped(self):
        template = Template("batch_ridge", [IMPUTER, "sklearn.linear_model.Ridge"])
        self._group_matches_loop(template, [
            {("sklearn.linear_model.Ridge#0", "alpha"): alpha}
            for alpha in (0.01, 0.1, 1.0, 10.0)
        ])

    def test_group_preserves_error_strings(self):
        template = Template("batch_ridge", [IMPUTER, "sklearn.linear_model.Ridge"])
        payloads = self._group_matches_loop(template, [
            {("sklearn.linear_model.Ridge#0", "alpha"): 1.0},
            {("sklearn.linear_model.Ridge#0", "alpha"): -1.0},
        ])
        assert payloads[0]["error"] is None
        assert payloads[1]["error"] is not None
        assert "alpha must be non-negative" in payloads[1]["error"]

    def test_non_batchable_learner_loops_transparently(self):
        template = Template("batch_lasso", [IMPUTER, "sklearn.linear_model.Lasso"])
        assert not getattr(Lasso, "supports_batch_fit", False)
        self._group_matches_loop(template, [
            {("sklearn.linear_model.Lasso#0", "alpha"): alpha}
            for alpha in (0.01, 0.1)
        ])

    def test_mixed_prefix_configurations_split_into_subgroups(self):
        template = Template(
            "batch_scaled_ridge",
            [IMPUTER, "sklearn.preprocessing.StandardScaler", "sklearn.linear_model.Ridge"],
        )
        self._group_matches_loop(template, [
            {("sklearn.preprocessing.StandardScaler#0", "with_mean"): True,
             ("sklearn.linear_model.Ridge#0", "alpha"): 0.1},
            {("sklearn.preprocessing.StandardScaler#0", "with_mean"): True,
             ("sklearn.linear_model.Ridge#0", "alpha"): 1.0},
            {("sklearn.preprocessing.StandardScaler#0", "with_mean"): False,
             ("sklearn.linear_model.Ridge#0", "alpha"): 0.1},
        ])


class TestGroupCandidates:
    def _candidate(self, template, task, iteration=0):
        return EvaluationCandidate(
            iteration=iteration, template=template,
            hyperparameters=template.default_hyperparameters(),
            task=task, n_splits=2, random_state=0,
        )

    def test_same_template_candidates_group_in_order(self):
        template = Template("grp_gnb",
                            [ENCODER, IMPUTER, "sklearn.naive_bayes.GaussianNB", DECODER])
        other = Template("grp_knn",
                         [ENCODER, IMPUTER, "sklearn.neighbors.KNeighborsClassifier", DECODER])
        task = synth.make_single_table_classification(n_samples=60, random_state=0)
        candidates = [
            self._candidate(template, task, 0),
            self._candidate(other, task, 1),
            self._candidate(template, task, 2),
        ]
        groups = group_candidates(candidates)
        assert [len(group) for group in groups] == [2, 1]
        assert [c.iteration for c in groups[0]] == [0, 2]


class TestBatchedSearchEquivalence:
    def _templates(self):
        return [
            Template("beq_logistic",
                     [ENCODER, IMPUTER, "sklearn.linear_model.LogisticRegression", DECODER]),
            Template("beq_knn",
                     [ENCODER, IMPUTER, "sklearn.neighbors.KNeighborsClassifier", DECODER]),
            Template("beq_gnb",
                     [ENCODER, IMPUTER, "sklearn.naive_bayes.GaussianNB", DECODER]),
        ]

    def _records(self, batch_eval, backend="serial"):
        task = synth.make_single_table_classification(n_samples=90, random_state=0)
        searcher = AutoBazaarSearch(
            templates=self._templates(), n_splits=2, random_state=0,
            n_pending=4, batch_eval=batch_eval,
            backend=backend, tuner_class=UniformTuner,
        )
        result = searcher.search(task, budget=12)
        return [(r.template_name, r.iteration, r.score, r.failed, r.error)
                for r in result.records]

    def test_batched_matches_looped_serial(self):
        assert self._records(True) == self._records(False)

    def test_batched_matches_looped_thread_backend(self):
        assert self._records(True, backend="thread") == self._records(False)

    def test_window_fuses_every_refill_on_the_serial_backend(self, monkeypatch):
        # the serial backend finishes a burst before submit returns; the
        # window collects all of it, so the freed slots refill as one group
        template = Template("beq_ridge", [IMPUTER, "sklearn.linear_model.Ridge"],
                            init_params={IMPUTER: {"strategy": "mean"}})
        task = synth.make_single_table_regression(n_samples=90, n_features=6, random_state=0)
        sizes = []
        submit_group = SerialBackend._submit_group

        def recording(backend, candidates):
            sizes.append(len(candidates))
            return submit_group(backend, candidates)

        monkeypatch.setattr(SerialBackend, "_submit_group", recording)

        def records(batch_eval):
            result = AutoBazaarSearch(
                templates=[template], n_splits=2, random_state=0, n_pending=3,
                batch_eval=batch_eval, tuner_class=UniformTuner,
            ).search(task, budget=9)
            return [(r.iteration, r.hyperparameters, r.score, r.error) for r in result.records]

        batched = records(True)
        assert sizes == [3, 3, 3]
        del sizes[:]
        assert batched == records(False)
        assert sizes == [1] * 9

    def test_serial_backend_submit_many_equivalence(self):
        template = self._templates()[2]
        task = synth.make_single_table_classification(n_samples=60, random_state=0)
        candidates = [
            EvaluationCandidate(
                iteration=index, template=template,
                hyperparameters=template.default_hyperparameters(),
                task=task, n_splits=2, random_state=0,
            )
            for index in range(3)
        ]
        backend = SerialBackend()
        backend.submit_many(candidates)
        grouped = sorted((f.candidate.iteration, f.result().score)
                         for f in backend.as_completed())
        backend = SerialBackend()
        for candidate in candidates:
            backend.submit(candidate)
        looped = sorted((f.candidate.iteration, f.result().score)
                        for f in backend.as_completed())
        assert grouped == looped
