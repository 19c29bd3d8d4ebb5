"""Tests for the sliding-window scheduler and the worker-resident task cache.

The scheduler contract has two halves:

* **liveness** — while one candidate stalls, the window keeps proposing
  replacements for every *other* completed slot, so ``n_pending``
  evaluations stay in flight (the barrier loop would idle instead), and
* **determinism** — proposal ``k`` only consumes the reported results of
  candidates ``0 .. k - n_pending``, so for a fixed ``n_pending`` the
  record stream is identical across serial, thread and process backends.
"""

import pickle
import threading
import time

import pytest

from repro.automl import AutoBazaarSearch, EvaluationCandidate, ProcessBackend
from repro.automl import backends as backends_module
from repro.automl.backends import TaskPayload, evaluate_fold_indices
from repro.core.template import Template
from repro.tasks import synth
from repro.tasks.task import task_cv_indices, task_cv_splits

SLEEPY = "mlprimitives.custom.synthetic.TimedDummyClassifier"


def timed_template(name, fit_seconds):
    return Template(name, [SLEEPY], init_params={SLEEPY: {"fit_seconds": fit_seconds}})


def run_schedule(schedule, backend, workers=None, n_pending=3, budget=8):
    """Record stream of a skew-heavy search (elapsed stripped)."""
    templates = [timed_template("slow_tpl", 0.08), timed_template("fast_tpl", 0.0)]
    task = synth.make_single_table_classification(n_samples=60, random_state=0)
    searcher = AutoBazaarSearch(
        templates=templates, n_splits=2, random_state=0, backend=backend,
        workers=workers, n_pending=n_pending, schedule=schedule,
    )
    result = searcher.search(task, budget=budget)
    documents = [record.to_dict() for record in result.records]
    for document in documents:
        document.pop("elapsed")
    return documents


class StallHarness:
    """Instrumented evaluation: one template blocks until released.

    Wraps ``search.evaluate_pipeline`` so every fold logs when its
    template starts and finishes; folds of the ``stall`` template block
    on an event.  ``release_on`` names the template whose *start* proves
    the scheduler kept going — seeing it releases the stall.
    """

    def __init__(self, release_on=None):
        self.log = []  # ("start" | "end", template_name) per fold, observed order
        self.event = threading.Event()
        self.release_on = release_on
        self._lock = threading.Lock()

    def install(self, monkeypatch):
        from repro.automl import search as search_module

        real = search_module.evaluate_pipeline

        def instrumented(template, hyperparameters, train_task, val_task):
            with self._lock:
                self.log.append(("start", template.name))
            if template.name == self.release_on:
                self.event.set()
            if template.name == "stall":
                if not self.event.wait(timeout=15):
                    raise RuntimeError("stalled fold was never released")
            result = real(template, hyperparameters, train_task, val_task)
            with self._lock:
                self.log.append(("end", template.name))
            return result

        monkeypatch.setattr(search_module, "evaluate_pipeline", instrumented)

    def count(self, kind, name):
        with self._lock:
            return self.log.count((kind, name))

    def positions(self, kind, name):
        with self._lock:
            return [i for i, entry in enumerate(self.log) if entry == (kind, name)]


def stall_search(schedule, harness, monkeypatch, budget=5, n_pending=3):
    """Five single-evaluation templates; iteration == template position."""
    harness.install(monkeypatch)
    templates = [
        timed_template("light0", 0.0),
        timed_template("stall", 0.0),
        timed_template("light1", 0.0),
        timed_template("light2", 0.0),
        timed_template("light3", 0.0),
    ]
    task = synth.make_single_table_classification(n_samples=60, random_state=0)
    searcher = AutoBazaarSearch(
        templates=templates, n_splits=2, random_state=0, backend="thread",
        workers=6, n_pending=n_pending, schedule=schedule,
    )
    return searcher.search(task, budget=budget)


class TestStragglerLiveness:
    def test_window_keeps_n_pending_in_flight_past_a_straggler(self, monkeypatch):
        # the window fills with iterations 0..2; the stall at iteration 1
        # blocks while light0/light1 complete.  Reporting record 0 frees a
        # slot, so light2 (iteration 3) must START while the stall is
        # still running — that start is what releases the stall, so mere
        # completion of this search proves the window kept 3 evaluations
        # (stall, light1's replacement chain, light2) in flight.
        harness = StallHarness(release_on="light2")
        result = stall_search("window", harness, monkeypatch)
        assert result.n_evaluated == 5
        assert result.n_failed == 0
        assert [r.iteration for r in result.records] == [0, 1, 2, 3, 4]
        # determinism bound: light3 (iteration 4) needs record 1 reported,
        # so no fold of it may start before every stall fold has finished
        assert max(harness.positions("end", "stall")) < min(
            harness.positions("start", "light3")
        )

    def test_barrier_idles_behind_the_straggler(self, monkeypatch):
        # contrast case: with the round barrier, light2 (round 2) may not
        # start while the stall (round 1) is still draining
        harness = StallHarness(release_on=None)
        done = {}

        def run():
            done["result"] = stall_search("barrier", harness, monkeypatch)

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.time() + 5
        while harness.count("start", "light1") < 2 and time.time() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # give a (buggy) scheduler time to over-propose
        assert harness.count("start", "light2") == 0
        harness.event.set()
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert done["result"].n_failed == 0


def run_scoring_workload(backend, workers=None):
    """Record stream of templates with *distinct* score distributions.

    The timed-dummy templates above always score identically, which would
    mask divergent tuner/selector state; real seeded estimators with
    different scores make any report/propose interleave mismatch between
    backends visible in the records (regression for the reorder-buffer
    burst bug: a batch of out-of-order completions must not advance the
    reported prefix by more than one report per proposal).
    """
    encoder = "mlprimitives.custom.preprocessing.ClassEncoder"
    decoder = "mlprimitives.custom.preprocessing.ClassDecoder"
    imputer = "sklearn.impute.SimpleImputer"
    templates = [
        Template(
            "eq_rf", [encoder, imputer, "sklearn.ensemble.RandomForestClassifier", decoder],
            init_params={"sklearn.ensemble.RandomForestClassifier": {"random_state": 0}},
        ),
        Template(
            "eq_logistic",
            [encoder, imputer, "sklearn.linear_model.LogisticRegression", decoder],
        ),
    ]
    task = synth.make_single_table_classification(n_samples=90, random_state=0)
    searcher = AutoBazaarSearch(
        templates=templates, n_splits=2, random_state=0, backend=backend,
        workers=workers, n_pending=4,
    )
    result = searcher.search(task, budget=14)
    documents = [record.to_dict() for record in result.records]
    for document in documents:
        document.pop("elapsed")
    return documents


class TestSlidingWindowEquivalence:
    def test_serial_thread_process_identical_records(self):
        serial = run_schedule("window", "serial")
        thread = run_schedule("window", "thread", workers=3)
        process = run_schedule("window", "process", workers=3)
        assert serial == thread
        assert serial == process

    def test_distinct_score_templates_identical_records(self):
        serial = run_scoring_workload("serial")
        thread = run_scoring_workload("thread", workers=4)
        process = run_scoring_workload("process", workers=4)
        assert serial == thread
        assert serial == process

    def test_barrier_schedule_also_equivalent_across_backends(self):
        serial = run_schedule("barrier", "serial")
        process = run_schedule("barrier", "process", workers=3)
        assert serial == process

    def test_records_reported_in_proposal_order(self):
        documents = run_schedule("window", "process", workers=3)
        assert [d["iteration"] for d in documents] == list(range(len(documents)))

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            AutoBazaarSearch(schedule="round-robin")


class TestWorkerResidentCache:
    def _task(self):
        return synth.make_single_table_classification(n_samples=60, random_state=0)

    def test_payload_written_once_per_task_and_cleaned_up(self):
        import os

        backend = ProcessBackend(workers=2)
        try:
            task = self._task()
            first = backend._task_payload(task)
            second = backend._task_payload(task)
            assert first is second
            assert os.path.exists(first.path)
            other = backend._task_payload(self._task())
            assert other.key != first.key
        finally:
            backend.shutdown()
        assert not os.path.exists(first.path)
        assert not os.path.exists(other.path)

    def test_evaluate_fold_indices_resolves_payload(self, tmp_path):
        task = self._task()
        path = tmp_path / "task.pkl"
        path.write_bytes(pickle.dumps(task))
        payload = TaskPayload("test-key", str(path))
        template = timed_template("payload_tpl", 0.0)
        train_indices, val_indices = task_cv_indices(task, n_splits=2, random_state=0)[0]
        result = evaluate_fold_indices(
            template, template.default_hyperparameters(), payload,
            train_indices, val_indices,
        )
        assert result["error"] is None
        assert 0.0 <= result["raw_score"] <= 1.0
        # second resolution must come from the worker cache, not the file
        path.unlink()
        again = evaluate_fold_indices(
            template, template.default_hyperparameters(), payload,
            train_indices, val_indices,
        )
        assert again["error"] is None

    def test_worker_cache_is_an_lru(self, tmp_path, monkeypatch):
        monkeypatch.setattr(backends_module, "_WORKER_TASK_CACHE_SIZE", 1)
        backends_module._WORKER_TASK_CACHE.clear()
        try:
            task = self._task()
            for index in range(3):
                path = tmp_path / "task-{}.pkl".format(index)
                path.write_bytes(pickle.dumps(task))
                backends_module._resolve_task(TaskPayload("key-{}".format(index), str(path)))
                assert len(backends_module._WORKER_TASK_CACHE) == 1
            assert list(backends_module._WORKER_TASK_CACHE) == ["key-2"]
        finally:
            backends_module._WORKER_TASK_CACHE.clear()

    def test_process_knob_rejected_where_it_cannot_apply(self):
        from repro.automl import SerialBackend, get_backend

        # explicit knob + a backend that cannot honor it must fail loudly,
        # never silently drop the configuration
        with pytest.raises(ValueError):
            get_backend("thread", workers=2, fold_timeout=5)
        with pytest.raises(ValueError):
            get_backend(SerialBackend(), fold_timeout=5)
        backend = get_backend("process", workers=1, fold_timeout=5)
        try:
            assert backend.fold_timeout == 5
        finally:
            backend.shutdown()

    def test_cv_indices_match_materialized_splits(self):
        task = self._task()
        indices = task_cv_indices(task, n_splits=3, random_state=7)
        splits = task_cv_splits(task, n_splits=3, random_state=7)
        assert len(indices) == len(splits) == 3
        for (train_indices, val_indices), (train_task, val_task) in zip(indices, splits):
            assert len(train_indices) == train_task.n_samples
            assert len(val_indices) == val_task.n_samples

    def test_submit_ships_payload_not_task(self):
        backend = ProcessBackend(workers=2)
        try:
            task = self._task()
            template = timed_template("ship_tpl", 0.0)
            candidate = EvaluationCandidate(
                iteration=0, template=template,
                hyperparameters=template.default_hyperparameters(),
                task=task, n_splits=2, random_state=0,
            )
            backend.submit(candidate)
            (future,) = list(backend.as_completed())
            assert future.result().error is None
            # the task is parked once in the active data plane's cache
            # (shm segment by default, pickle spill on fallback)
            assert len(backend._segments) + len(backend._payloads) == 1
        finally:
            backend.shutdown()
