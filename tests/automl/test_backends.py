"""Tests for the pluggable execution-backend layer.

The central contract: for a fixed ``n_pending`` the search produces the
identical ordered record stream regardless of the backend evaluating the
pipelines, because results are reported back in proposal order.
"""

import gc
import threading

import pytest

from repro.automl import (
    AutoBazaarSearch,
    EvaluationCandidate,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from repro.core.template import Template
from repro.explorer import PipelineStore
from repro.tasks import synth
from repro.tuning.selectors import UCB1Selector
from repro.tuning.tuners import GPEiTuner, UniformTuner

ENCODER = "mlprimitives.custom.preprocessing.ClassEncoder"
DECODER = "mlprimitives.custom.preprocessing.ClassDecoder"
IMPUTER = "sklearn.impute.SimpleImputer"
SCALER = "sklearn.preprocessing.StandardScaler"


def seeded_templates():
    """Classification templates whose estimators are explicitly seeded.

    The catalog defaults leave ``random_state=None`` (global-RNG
    randomness), which is fine for a search but not for asserting
    bit-identical records across backends.
    """
    return [
        Template(
            "backend_eq_xgb",
            [ENCODER, IMPUTER, SCALER, "xgboost.XGBClassifier", DECODER],
            init_params={"xgboost.XGBClassifier": {"random_state": 0}},
        ),
        Template(
            "backend_eq_rf",
            [ENCODER, IMPUTER, SCALER, "sklearn.ensemble.RandomForestClassifier", DECODER],
            init_params={"sklearn.ensemble.RandomForestClassifier": {"random_state": 0}},
        ),
    ]


def run_search(backend, workers=None, n_pending=1, budget=6):
    return run_search_with_splits(backend, workers=workers, n_pending=n_pending,
                                  budget=budget, n_splits=2)


def run_search_with_splits(backend, workers=None, n_pending=1, budget=6, n_splits=2):
    task = synth.make_single_table_classification(n_samples=90, random_state=0)
    searcher = AutoBazaarSearch(
        templates=seeded_templates(), n_splits=n_splits, random_state=0,
        backend=backend, workers=workers, n_pending=n_pending,
    )
    result = searcher.search(task, budget=budget)
    documents = [record.to_dict() for record in result.records]
    for document in documents:
        # wall-clock timing is the only legitimately backend-dependent field
        document.pop("elapsed")
    return documents


def run_search_with_broken_template(backend):
    broken = Template(
        "broken_pca_eq",
        ["sklearn.decomposition.PCA", "xgboost.XGBClassifier"],
        init_params={"sklearn.decomposition.PCA": {"n_components": 0}},
    )
    task = synth.make_single_table_classification(n_samples=90, random_state=0)
    searcher = AutoBazaarSearch(
        templates=[broken] + seeded_templates(), n_splits=2, random_state=0,
        backend=backend, workers=2,
    )
    result = searcher.search(task, budget=5)
    documents = [record.to_dict() for record in result.records]
    for document in documents:
        document.pop("elapsed")
    return documents


class TestBackendEquivalence:
    def test_serial_thread_process_identical_records(self):
        serial = run_search("serial")
        thread = run_search("thread", workers=2)
        process = run_search("process", workers=2)
        assert serial == thread
        assert serial == process

    def test_batched_proposals_identical_across_backends(self):
        serial = run_search("serial", n_pending=3)
        process = run_search("process", workers=2, n_pending=3)
        assert serial == process

    def test_records_ordered_by_proposal_iteration(self):
        documents = run_search("process", workers=2, n_pending=3)
        assert [d["iteration"] for d in documents] == list(range(len(documents)))


class TestBackendInterface:
    def _candidate(self, iteration=0):
        task = synth.make_single_table_classification(n_samples=60, random_state=0)
        template = seeded_templates()[0]
        return EvaluationCandidate(
            iteration=iteration, template=template,
            hyperparameters=template.default_hyperparameters(),
            task=task, n_splits=2, random_state=0,
        )

    @pytest.mark.parametrize("backend_class", [SerialBackend, ThreadBackend])
    def test_submit_and_collect(self, backend_class):
        backend = backend_class()
        with backend:
            future = backend.submit(self._candidate())
            completed = list(backend.as_completed())
        assert completed == [future]
        outcome = future.result()
        assert outcome.error is None
        assert 0.0 <= outcome.raw_score <= 1.0
        assert outcome.elapsed > 0

    def test_process_backend_collects_multiple_candidates(self):
        with ProcessBackend(workers=2) as backend:
            futures = [backend.submit(self._candidate(i)) for i in range(3)]
            completed = list(backend.as_completed())
        assert sorted(f.candidate.iteration for f in completed) == [0, 1, 2]
        assert {f.candidate.iteration for f in futures} == {0, 1, 2}
        assert all(f.result().error is None for f in completed)

    def test_failed_candidate_reports_error_not_crash(self):
        task = synth.make_single_table_classification(n_samples=60, random_state=0)
        broken = Template(
            "broken_pca",
            ["sklearn.decomposition.PCA", "xgboost.XGBClassifier"],
            init_params={"sklearn.decomposition.PCA": {"n_components": 0}},
        )
        candidate = EvaluationCandidate(
            iteration=0, template=broken,
            hyperparameters=broken.default_hyperparameters(),
            task=task, n_splits=2, random_state=0,
        )
        with ThreadBackend(workers=2) as backend:
            backend.submit(candidate)
            (future,) = list(backend.as_completed())
        assert future.result().error

    def test_split_failure_recorded_like_serial(self):
        # n_splits=1 makes task_cv_splits raise; both backends must record
        # the failure per candidate instead of crashing the search
        serial = run_search_with_splits("serial", n_splits=1)
        thread = run_search_with_splits("thread", n_splits=1)
        assert all(d["error"] for d in serial)
        assert serial == thread

    def test_caller_supplied_backend_survives_search(self):
        backend = ThreadBackend(workers=2)
        try:
            task = synth.make_single_table_classification(n_samples=60, random_state=0)
            searcher = AutoBazaarSearch(
                templates=seeded_templates(), n_splits=2, random_state=0, backend=backend,
            )
            first = searcher.search(task, budget=2)
            second = searcher.search(task, budget=2)
            assert first.best_score is not None
            assert second.best_score is not None
        finally:
            backend.shutdown()

    def test_get_backend_resolution(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend(None), SerialBackend)
        thread = get_backend("thread", workers=3)
        assert isinstance(thread, ThreadBackend)
        assert thread.workers == 3
        thread.shutdown()
        existing = SerialBackend()
        assert get_backend(existing) is existing

    def test_submit_on_shut_down_pool_completes_with_error(self):
        # a fold that cannot even be submitted (broken/shut-down executor)
        # must surface as a failed candidate, never a hang in as_completed
        backend = ThreadBackend(workers=2)
        backend.shutdown()
        future = backend.submit(self._candidate(0))
        completed = list(backend.as_completed())
        assert completed == [future]
        assert "RuntimeError" in future.result().error

    @pytest.mark.parametrize("options", [{}, {"fold_timeout": 30}], ids=["no-deadline", "deadline"])
    def test_pool_workers_freeze_the_heap_they_inherit(self, options):
        # a forked worker must not walk (and copy) the coordinator's heap
        # in its first full garbage collection
        backend = ProcessBackend(workers=1, **options)
        try:
            assert backend._executor.submit(gc.get_freeze_count).result(timeout=30) > 0
        finally:
            backend.shutdown()

    def test_drain_discards_stale_futures(self):
        # an aborted search can leave uncollected futures behind on a
        # caller-owned backend; the next search must not see them
        backend = ThreadBackend(workers=2)
        try:
            backend.submit(self._candidate(0))
            backend.drain()
            backend.submit(self._candidate(7))
            completed = list(backend.as_completed())
            assert [f.candidate.iteration for f in completed] == [7]
        finally:
            backend.shutdown()

    def test_get_backend_honors_subclass(self):
        class TaggedThreadBackend(ThreadBackend):
            pass

        backend = get_backend(TaggedThreadBackend, workers=2)
        try:
            assert type(backend) is TaggedThreadBackend
            assert backend.workers == 2
        finally:
            backend.shutdown()
        assert isinstance(get_backend(SerialBackend), SerialBackend)

    def test_get_backend_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_backend("cluster")

    def test_failing_fold_cancels_later_siblings_not_earlier_error(self):
        # the aggregated error must be the first failing fold in fold
        # order (what the serial backend reports), never a cancellation
        documents_serial = [d for d in run_search_with_broken_template("serial")]
        documents_thread = [d for d in run_search_with_broken_template("thread")]
        for document in documents_serial + documents_thread:
            if document["error"]:
                assert "CancelledError" not in document["error"]
        assert documents_serial == documents_thread

    def test_max_seconds_stops_serial_dispatch_mid_batch(self, monkeypatch):
        import time as time_module

        from repro.automl import search as search_module

        def slow_fold(template, hyperparameters, train_task, test_task, **cache):
            time_module.sleep(0.05)
            return 0.5, 0.5, None

        # the fold seam every backend's fold job looks up through the module
        monkeypatch.setattr(search_module, "evaluate_pipeline", slow_fold)
        task = synth.make_single_table_classification(n_samples=60, random_state=0)
        searcher = AutoBazaarSearch(
            templates=seeded_templates(), n_splits=2, random_state=0, n_pending=8,
        )
        result = searcher.search(task, budget=16, max_seconds=0.01)
        # the first evaluation consumes the budget; the remaining 7 batch
        # slots are withdrawn, matching the historical one-evaluation overshoot
        assert result.n_evaluated == 1

    def test_interrupted_serial_fold_propagates_and_strands_nothing(self, monkeypatch):
        from repro.automl import search as search_module

        real = search_module.evaluate_pipeline
        folds = []

        def interrupted(template, hyperparameters, train_task, test_task, **cache):
            folds.append(len(folds))
            if len(folds) == 2:
                raise KeyboardInterrupt
            return real(template, hyperparameters, train_task, test_task, **cache)

        monkeypatch.setattr(search_module, "evaluate_pipeline", interrupted)
        backend = SerialBackend()
        candidate = self._candidate(0)
        candidate.n_splits = 3
        with pytest.raises(KeyboardInterrupt):
            backend.submit(candidate)
        assert folds == [0, 1]  # the fold after the interrupted one never ran
        # the interrupted candidate still completes (no job is left unfiled),
        # so draining a reused backend cannot hang, and it takes new work
        assert backend._jobs == set()
        backend.drain()
        monkeypatch.setattr(search_module, "evaluate_pipeline", real)
        future = backend.submit(self._candidate(1))
        assert list(backend.as_completed()) == [future]
        assert future.result().error is None

    def test_max_seconds_checked_per_proposal(self):
        task = synth.make_single_table_classification(n_samples=60, random_state=0)
        searcher = AutoBazaarSearch(
            templates=seeded_templates(), n_splits=2, random_state=0, n_pending=8,
        )
        result = searcher.search(task, budget=16, max_seconds=0.0)
        # the budget is already exhausted when the first batch is built, so
        # not even one batch of 8 may be dispatched
        assert result.n_evaluated == 0

    def test_invalid_worker_count_raises(self):
        with pytest.raises(ValueError):
            ThreadBackend(workers=0)


@pytest.mark.parametrize("make_task", [
    lambda: synth.make_single_table_classification(n_samples=60, random_state=0),
    lambda: synth.make_single_table_regression(n_samples=60, random_state=0),
    lambda: synth.make_text_classification(n_samples=60, random_state=0),
], ids=["single_table-classification", "single_table-regression", "text-classification"])
def test_serial_backend_matches_the_reference_loop(make_task):
    """Every catalog template's serial outcome is the plain fold loop's result."""
    from repro.automl.backends import _format_error
    from repro.automl.search import cross_validate_template

    task = make_task()
    templates = AutoBazaarSearch(estimator_seed=0)._load_templates(task)
    assert templates
    backend = SerialBackend()
    for template in templates:
        configurations = [template.default_hyperparameters()]
        space = template.get_tunable_hyperparameters()
        if space:
            configurations.extend(UniformTuner(space, random_state=0).propose(n=2))
        for hyperparameters in configurations:
            try:
                expected = cross_validate_template(
                    template, hyperparameters, task, n_splits=3, random_state=0)
            except Exception as failure:  # noqa: BLE001 - the reference's outcome
                expected = _format_error(failure)
            future = backend.submit(EvaluationCandidate(
                iteration=0, template=template, hyperparameters=hyperparameters,
                task=task, n_splits=3, random_state=0,
            ))
            assert backend.collect_one() is future
            outcome = future.result()
            actual = outcome.error or (outcome.score, outcome.raw_score)
            assert actual == expected, template.name


class TestBatchProposals:
    def _tuner(self, tuner_class=GPEiTuner):
        space = seeded_templates()[0].get_tunable_hyperparameters()
        return tuner_class(space, random_state=0)

    def test_propose_batch_returns_distinct_configurations(self):
        tuner = self._tuner()
        for score in (0.1, 0.5, 0.3, 0.7):
            params = tuner.propose()
            tuner.record(params, score)
        batch = tuner.propose(n=3)
        assert isinstance(batch, list)
        assert len(batch) == 3
        for i in range(len(batch)):
            for j in range(i + 1, len(batch)):
                assert batch[i] != batch[j]

    def test_propose_batch_clears_constant_liar_state(self):
        tuner = self._tuner()
        for score in (0.2, 0.4, 0.6):
            params = tuner.propose()
            tuner.record(params, score)
        tuner.propose(n=3)
        assert tuner.pending == []
        assert len(tuner.scores) == 3  # lies never leak into the real history

    def test_propose_single_returns_dict(self):
        tuner = self._tuner(UniformTuner)
        assert isinstance(tuner.propose(), dict)
        assert isinstance(tuner.propose(n=1), dict)

    def test_propose_invalid_n_raises(self):
        with pytest.raises(ValueError):
            self._tuner(UniformTuner).propose(n=0)

    def test_pending_resolution(self):
        tuner = self._tuner(UniformTuner)
        params = tuner.propose()
        tuner.add_pending(params)
        assert tuner.pending == [params]
        assert tuner.resolve_pending(params)
        assert tuner.pending == []
        assert not tuner.resolve_pending(params)


class TestPendingAwareSelector:
    def test_pending_counts_shrink_confidence_bonus(self):
        selector = UCB1Selector(["a", "b"], random_state=0)
        scores = {"a": [0.9, 0.9], "b": [0.85]}
        assert selector.select(scores) == "b"  # fewer trials -> bigger bonus
        selector.note_pending("b")
        selector.note_pending("b")
        assert selector.select(scores) == "a"  # b's in-flight work counts
        selector.resolve_pending("b")
        selector.resolve_pending("b")
        assert selector.select(scores) == "b"

    def test_unseen_excludes_pending_candidates(self):
        selector = UCB1Selector(["a", "b"], random_state=0)
        selector.note_pending("a")
        assert selector.select({}) == "b"

    def test_pending_liar_lives_on_the_selector_reward_scale(self):
        from repro.tuning.selectors import BestKVelocitySelector, UCB1Selector

        # velocity rewards are tiny deltas; the liar must not be a raw score
        selector = BestKVelocitySelector(["a", "b"], random_state=0)
        selector.note_pending("b")
        scores = {"a": [0.8, 0.85, 0.9], "b": []}
        assert selector._bandit_state(scores)[2] == pytest.approx(0.05)
        # in the search loop every proposal notes another pending trial, so
        # a batch spreads across arms instead of flooding the scoreless one
        picks = []
        for _ in range(4):
            choice = selector.select(scores)
            picks.append(choice)
            selector.note_pending(choice)
        assert "a" in picks

        # with negative means the liar must stay pessimistic, not 0.0
        selector = UCB1Selector(["a", "b"], random_state=0)
        selector.note_pending("a")
        scores = {"a": [], "b": [-5.0, -4.0]}
        assert selector._bandit_state(scores)[2] == pytest.approx(-4.5)
        picks = []
        for _ in range(4):
            choice = selector.select(scores)
            picks.append(choice)
            selector.note_pending(choice)
        assert set(picks) == {"a", "b"}  # batch spreads, scoreless arm not flooded

    @pytest.mark.parametrize("selector_name", ["ucb1", "best_k", "best_k_velocity", "thompson"])
    def test_scoreless_pending_candidate_is_selectable(self, selector_name):
        # a candidate whose only trials are still in flight (n_pending > 1)
        # reaches the scoring loop with an empty score list; every selector
        # must produce a finite choice instead of crashing
        from repro.tuning.selectors import get_selector

        selector = get_selector(selector_name)(["a", "b"], random_state=0)
        selector.note_pending("a")
        chosen = selector.select({"a": [], "b": [0.5, 0.6]})
        assert chosen in ("a", "b")

    @pytest.mark.parametrize("selector_name", ["best_k", "thompson"])
    def test_search_with_alternative_selector_and_batching(self, selector_name):
        from repro.tuning.selectors import get_selector

        task = synth.make_single_table_classification(n_samples=60, random_state=0)
        searcher = AutoBazaarSearch(
            templates=seeded_templates(), selector_class=get_selector(selector_name),
            n_splits=2, random_state=0, backend="thread", workers=2, n_pending=3,
        )
        result = searcher.search(task, budget=6)
        assert result.n_evaluated == 6
        assert result.best_score is not None


class TestNonFiniteScores:
    def test_non_finite_score_recorded_as_failure(self, monkeypatch):
        from repro.automl import search as search_module

        calls = {"n": 0}

        def fake_fold(template, hyperparameters, train_task, test_task, **cache):
            calls["n"] += 1
            if calls["n"] == 1:
                return float("nan"), float("nan"), None
            return 0.5, 0.5, None

        monkeypatch.setattr(search_module, "evaluate_pipeline", fake_fold)
        task = synth.make_single_table_classification(n_samples=60, random_state=0)
        searcher = AutoBazaarSearch(templates=seeded_templates(), n_splits=2, random_state=0)
        result = searcher.search(task, budget=4)
        assert result.n_evaluated == 4
        assert result.n_failed == 1
        assert "NonFiniteScore" in result.records[0].error
        assert result.records[0].score is None
        assert result.best_score == 0.5


class TestConcurrentStore:
    def test_concurrent_adds_and_indexed_queries(self):
        store = PipelineStore()

        def add_many(task_name):
            for i in range(50):
                store.add({"task_name": task_name, "template_name": "t", "score": i})

        threads = [
            threading.Thread(target=add_many, args=("task-{}".format(i),)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(store) == 200
        assert store.tasks() == ["task-0", "task-1", "task-2", "task-3"]
        assert store.templates() == ["t"]
        assert len(store.find(task_name="task-1")) == 50
        assert len(store.find(task_name="task-1", template_name="t")) == 50
        assert store.find(task_name="missing") == []
        assert len(store.scores_for_task("task-2")) == 50

    def test_indexed_find_matches_linear_scan(self):
        store = PipelineStore()
        for i in range(30):
            store.add({
                "task_name": "task-{}".format(i % 3),
                "template_name": "template-{}".format(i % 2),
                "score": float(i),
            })
        for task_name in ("task-0", "task-1"):
            for template_name in ("template-0", "template-1"):
                indexed = store.find(task_name=task_name, template_name=template_name)
                scanned = [
                    document for document in store
                    if document["task_name"] == task_name
                    and document["template_name"] == template_name
                ]
                assert indexed == scanned
