"""Tests for the multi-tenant fleet coordinator.

Two contracts rule this layer: *fairness* (the pool's stride/deficit
dispatch order gives every tenant its weighted share of the shared
workers, skew-aware and starvation-free) and *determinism* (a tenant's
record stream is bit-identical to the same search run solo — the fleet
only changes where and when folds run, never what is reported).
"""

import errno
import glob
import multiprocessing
import os
import sys
import tempfile
import threading
import time

import pytest

from repro.automl import (
    AutoBazaarSearch,
    EvaluationCandidate,
    FleetCoordinator,
    ProcessBackend,
)
from repro.automl.session import AutoBazaarSession
from repro.automl.supervisor import SupervisedWorkerPool
from repro.core.template import Template
from repro.tasks import synth
from repro.telemetry.replayer import load_events, replay_run

ENCODER = "mlprimitives.custom.preprocessing.ClassEncoder"
DECODER = "mlprimitives.custom.preprocessing.ClassDecoder"
IMPUTER = "sklearn.impute.SimpleImputer"
SCALER = "sklearn.preprocessing.StandardScaler"


def seeded_templates():
    return [
        Template(
            "fleet_eq_xgb",
            [ENCODER, IMPUTER, SCALER, "xgboost.XGBClassifier", DECODER],
            init_params={"xgboost.XGBClassifier": {"random_state": 0}},
        ),
        Template(
            "fleet_eq_rf",
            [ENCODER, IMPUTER, SCALER, "sklearn.ensemble.RandomForestClassifier", DECODER],
            init_params={"sklearn.ensemble.RandomForestClassifier": {"random_state": 0}},
        ),
    ]


def record_documents(result):
    documents = [record.to_dict() for record in result.records]
    for document in documents:
        document.pop("elapsed")  # the only legitimately timing-dependent field
    return documents


def fleet_tasks(n):
    return [
        synth.make_single_table_classification(
            name="fleet-task-{}".format(index), n_samples=80, random_state=index,
        )
        for index in range(n)
    ]


def run_tenants(fleet, tasks, handles, budget=4, n_pending=2):
    results = [None] * len(tasks)
    failures = []

    def run(index):
        searcher = AutoBazaarSearch(
            templates=seeded_templates(), n_splits=2, random_state=0,
            backend=handles[index], n_pending=n_pending,
        )
        try:
            results[index] = searcher.search(tasks[index], budget=budget)
        except BaseException as failure:  # noqa: BLE001 - re-raised by the test
            failures.append(failure)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(len(tasks))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return results


class TestFleetDeterminism:
    def test_process_fleet_records_identical_to_solo(self, published):
        tasks = fleet_tasks(2)
        solo = []
        for task in tasks:
            searcher = AutoBazaarSearch(
                templates=seeded_templates(), n_splits=2, random_state=0,
                backend="serial", n_pending=2,
            )
            result = searcher.search(task, budget=3)
            assert result.fleet_stats is None  # solo runs carry no fleet stats
            solo.append(record_documents(result))

        with FleetCoordinator(backend="process", workers=2) as fleet:
            results = run_tenants(
                fleet, tasks,
                [fleet.register(name="tenant-{}".format(index)) for index in range(2)],
                budget=3,
            )

        for index, result in enumerate(results):
            assert record_documents(result) == solo[index]
            stats = result.fleet_stats
            assert stats["tenant"] == "tenant-{}".format(index)
            assert stats["folds_dispatched"] == 3 * 2 + 1  # budget x n_splits + the refit
            assert stats["queue_depth_hwm"] >= 1
            assert stats["fold_seconds"] > 0
        # each tenant's training and held-out partition crossed by shm, once each
        assert len(published) == len(set(published)) == 2 * len(tasks)


# -- fair share on the fleet's pool ---------------------------------------------------
#
# The stride order itself is the pool's FairShareQueue (test_fair_share.py);
# these cases run the fleet on a real pool.  Where a fold must stay queued, a
# blocking fold holds the pool's one worker.


def _square(value):
    return value * value


def _sleep(seconds):
    time.sleep(seconds)
    return "slept"


def _candidate():
    template = seeded_templates()[0]
    return EvaluationCandidate(
        iteration=0, template=template, hyperparameters=template.default_hyperparameters(),
        task=fleet_tasks(1)[0], n_splits=2, random_state=0,
    )


def _occupy(fleet, seconds=0.5):
    """Hold the fleet's one worker with a fold of a tenant of its own; returns the fold."""
    blocker = fleet.register(name="blocker")._executor.submit(_sleep, seconds)
    while not blocker.running():  # a worker took it: the rest stays queued
        time.sleep(0.01)
    return blocker


class TestFairShareScheduling:
    def test_a_tenant_fold_is_the_pool_jobs_own_future(self):
        with FleetCoordinator(workers=1) as fleet:
            fold = fleet.register(name="t")._executor.submit(_sleep, 0.2)
            while not fold.running():
                time.sleep(0.01)
            taken = list(fleet._executor._jobs.values())
            assert [job.future for job in taken] == [fold]  # no second future relays it
            assert fold.result(timeout=30) == "slept"

    def test_releasing_a_tenant_cancels_its_queue_and_keeps_the_pool(self):
        with FleetCoordinator(workers=1) as fleet:
            tenant_a = fleet.register(name="a")
            running = tenant_a._executor.submit(_sleep, 0.3)
            while not running.running():
                time.sleep(0.01)
            queued = tenant_a._executor.submit(_square, 2)
            tenant_a.shutdown()  # releases the tenant, not the shared pool
            assert queued.cancelled()
            assert fleet.tenants() == []
            with pytest.raises(RuntimeError, match="no longer registered"):
                tenant_a._executor.submit(_square, 2)
            tenant_b = fleet.register(name="b")
            assert tenant_b._executor.submit(_square, 3).result(timeout=30) == 9
            assert running.result(timeout=30) == "slept"  # a taken fold runs on

    def test_a_fold_a_worker_took_runs_on_and_files_its_payload(self):
        with FleetCoordinator(workers=1) as fleet:
            _occupy(fleet)
            tenant = fleet.register(name="t")
            future = tenant.submit(_candidate())
            taken, queued = future._fold_futures
            assert queued.cancel() is True  # still queued behind the blocker
            while not (taken.running() or taken.done()):
                time.sleep(0.01)
            assert taken.cancel() is False  # a worker took it: it runs on
            taken.result(timeout=60)
            assert future._fold_results[0]["error"] is None
            assert future._fold_results[0]["score"] is not None
            assert tenant.collect_one() is future
            # the cancelled fold never reached a worker
            assert tenant.tenant_stats()["folds_dispatched"] == 1

    def test_a_submit_failure_is_the_folds_exception(self):
        with FleetCoordinator(workers=1) as fleet:
            tenant = fleet.register(name="t")
            unpicklable = tenant._executor.submit(lambda: 1)
            assert "pickle" in str(unpicklable.exception(timeout=30))
            # it gave its slot back and never counted as dispatched
            record = tenant._executor  # the tenant's one record: the pool's
            assert record.inflight == 0 and record.folds_dispatched == 0
            fleet._executor.shutdown(wait=True)
            future = tenant.submit(_candidate())
            assert future.done()
            error = "RuntimeError: cannot schedule new futures after shutdown"
            assert [payload["error"] for payload in future._fold_results] == [error] * 2

    def test_contended_completion_path_loses_no_fold(self):
        # a short switch interval: a lost update in the pool's pick or
        # settlement would strand a fold or leak an in-flight count
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with FleetCoordinator(workers=2) as fleet:
                tenants = [fleet.register(name="t{}".format(index)) for index in range(6)]
                folds = [[] for _ in tenants]

                def submit(index):
                    for tag in range(60):
                        fold = tenants[index]._executor.submit(_square, tag)
                        if tag % 7 == 0:
                            fold.cancel()  # wins only while the fold is queued
                        folds[index].append(fold)

                threads = [threading.Thread(target=submit, args=(index,))
                           for index in range(len(tenants))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                ran = 0
                for tenant_folds in folds:
                    for tag, fold in enumerate(tenant_folds):
                        if not fold.cancelled():
                            assert fold.result(timeout=60) == tag * tag
                            ran += 1
                records = [tenant._executor for tenant in tenants]
                assert all(record.inflight == 0 and not record.queue for record in records)
                assert sum(record.folds_dispatched for record in records) == ran
        finally:
            sys.setswitchinterval(interval)

    def test_a_fold_still_queued_at_close_files_the_shutdown_error(self):
        fleet = FleetCoordinator(workers=1)
        blocker = _occupy(fleet)
        future = fleet.register(name="t").submit(_candidate())
        fleet.close()  # no worker takes the queued folds; the blocker runs on
        assert blocker.result(timeout=30) == "slept"
        assert future.done()
        error = "CancelledError: the backend was shut down before this fold ran"
        assert future._fold_results[0]["error"] == error
        assert future.result().error == error


class TestFleetValidation:
    def test_the_pool_is_supervised(self):
        # the one pool a fleet builds: its counters are never missing
        with FleetCoordinator(workers=1) as fleet:
            assert isinstance(fleet._executor, SupervisedWorkerPool)
            assert fleet.supervisor_stats == {
                "workers_died": 0, "folds_retried": 0, "folds_timed_out": 0,
                "pools_rebuilt": 0, "folds_quarantined": 0}

    def test_rejects_unknown_backend_and_bad_parameters(self):
        with pytest.raises(ValueError):
            FleetCoordinator(backend="serial")
        with pytest.raises(ValueError):
            FleetCoordinator(backend="process", prefix_cache="bogus")

    def test_register_validation_and_close(self):
        fleet = FleetCoordinator(workers=1)
        fleet.register(name="t")
        with pytest.raises(ValueError):
            fleet.register(name="t")  # duplicate
        with pytest.raises(ValueError):
            fleet.register(weight=0.0)
        fleet.close()
        with pytest.raises(RuntimeError):
            fleet.register(name="late")
        fleet.close()  # idempotent

    def test_transport_capacity_grows_with_the_tenant_count(self):
        # both partitions of every registered tenant (the one its folds
        # read, the one its refit scores on) must stay published at once, or
        # a late tenant would evict a segment with jobs still in flight
        with FleetCoordinator(backend="process", workers=1) as fleet:
            fleet.transport_capacity = 1
            for _ in range(3):
                fleet.register()
            assert fleet.transport_capacity == 7

    def test_disk_prefix_cache_dir_is_owned_and_removed(self, tmp_path):
        fleet = FleetCoordinator(workers=1, prefix_cache="disk")
        owned = fleet.cache_dir
        assert owned is not None and os.path.isdir(owned)
        fleet.close()
        assert not os.path.exists(owned)
        # an explicit directory is shared, not owned: it survives close
        explicit = tmp_path / "cache"
        explicit.mkdir()
        fleet = FleetCoordinator(workers=1, prefix_cache="disk", cache_dir=str(explicit))
        fleet.close()
        assert explicit.is_dir()

    def test_startup_sweeps_stale_shm_segments(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.automl.shm.sweep_stale_segments",
            lambda *args, **kwargs: calls.append(1),
        )
        FleetCoordinator(workers=1).close()
        assert len(calls) == 1
        # a process backend is a fleet of one: it sweeps at startup too
        ProcessBackend(workers=1).shutdown()
        assert len(calls) == 2


class _Unstartable(FleetCoordinator):
    """A fleet whose pool cannot start."""

    def _make_pool(self):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


class TestStartFailure:
    """A constructor that fails partway releases what it started."""

    CACHES = os.path.join(tempfile.gettempdir(), "repro-fleet-cache-*")

    def test_a_fork_failing_partway_leaves_no_worker_descriptor_or_cache_dir(
            self, monkeypatch):
        import scipy.sparse  # noqa: F401 - what the pool imports before it forks

        spawned = []
        spawn = SupervisedWorkerPool._spawn_worker

        def spawn_once(pool):
            if spawned:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            worker = spawn(pool)
            spawned.append(worker.process.pid)
            return worker

        caches = set(glob.glob(self.CACHES))
        descriptors = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(SupervisedWorkerPool, "_spawn_worker", spawn_once)
        with pytest.raises(OSError, match="temporarily unavailable"):
            FleetCoordinator(workers=2, prefix_cache="disk")
        assert len(spawned) == 1
        assert spawned[0] not in [child.pid for child in multiprocessing.active_children()]
        with pytest.raises(ProcessLookupError):
            os.kill(spawned[0], 0)  # stopped and reaped
        assert len(os.listdir("/proc/self/fd")) == descriptors
        assert set(glob.glob(self.CACHES)) == caches

    def test_a_pool_that_fails_to_start_leaves_no_cache_dir(self):
        caches = set(glob.glob(self.CACHES))
        with pytest.raises(OSError):
            _Unstartable(workers=1, prefix_cache="disk")
        assert set(glob.glob(self.CACHES)) == caches


class TestFleetOfOne:
    def test_a_solo_process_search_is_tenant_default_of_a_fleet_of_one(self, tmp_path):
        task = fleet_tasks(1)[0]

        def search(**execution):
            return AutoBazaarSearch(
                templates=seeded_templates(), n_splits=2, random_state=0, n_pending=2,
                **execution,
            ).search(task, budget=3)

        serial = search(backend="serial")
        events_dir = str(tmp_path / "events")
        result = search(backend="process", workers=2, telemetry=events_dir)
        assert record_documents(result) == record_documents(serial)
        assert result.fleet_stats["tenant"] == "default"
        assert result.fleet_stats["folds_dispatched"] == 3 * 2 + 1  # and the refit
        stream = load_events(events_dir)
        # the training and the held-out partition, each published once and attached
        assert len([event for event in stream if event["event"] == "shm_publish"]) == 2
        assert any(event["event"] == "shm_attach" for event in stream)
        assert {event["tenant"] for event in stream if event.get("tenant")} == {"default"}
        assert [event["backend"] for event in stream
                if event["event"] == "search_started"] == ["ProcessBackend(workers=2)"]
        assert {"fleet_queue_depth", "fleet_admission", "fleet_pass_value"} <= {
            event["event"] for event in stream}
        report = replay_run(stream, record_documents=[
            record.to_dict() for record in result.records])
        assert len(report["records"]) == 3


SLEEPY = "mlprimitives.custom.synthetic.TimedDummyClassifier"


class TestCountersCoverOneSearch:
    """A result's counters cover its own search, also on a backend that outlives it."""

    def _search(self, backend, n_pending=2):
        template = Template("fleet_sleepy", [SLEEPY],
                            init_params={SLEEPY: {"fit_seconds": 0.05}})
        return AutoBazaarSearch(
            templates=[template], n_splits=2, random_state=0, backend=backend,
            n_pending=n_pending,
        ).search(fleet_tasks(1)[0], budget=3)

    def test_reused_process_fleet_tenant(self, published):
        with FleetCoordinator(backend="process", workers=2) as fleet:
            tenant = fleet.register(name="reused")
            first, second, third = [self._search(tenant, n_pending) for n_pending in (3, 3, 1)]
        for result in (first, second, third):
            assert result.fleet_stats["folds_dispatched"] == 3 * 2 + 1  # and the refit
            assert set(result.fleet_stats["supervisor"].values()) == {0}
        assert len(published) == 3 * 2  # each search's two partitions
        # three candidates in flight queue more folds than one at a time
        # does: the high-water mark restarts when a search drains the backend
        assert first.fleet_stats["queue_depth_hwm"] > 2 >= third.fleet_stats["queue_depth_hwm"]

    def test_reused_process_backend_reports_its_own_incidents(self, published):
        from repro.automl import FaultPlan

        # fold starts are counted across the backend's lifetime: the kill
        # lands in the first search, and the second runs fault-free
        with FaultPlan.single("worker_kill", at_fold=2).activate():
            backend = ProcessBackend(workers=2)
            try:
                first, second = [self._search(backend) for _ in range(2)]
            finally:
                backend.shutdown()
        for result in (first, second):
            assert result.fleet_stats["folds_dispatched"] == 3 * 2 + 1
        assert len(published) == 2 * 2
        assert first.fleet_stats["supervisor"]["workers_died"] == 1
        assert second.fleet_stats["supervisor"] == dict.fromkeys(
            first.fleet_stats["supervisor"], 0)


class TestSessionFleet:
    def test_solve_fleet_runs_all_tasks_into_one_store(self):
        tasks = fleet_tasks(2)
        session = AutoBazaarSession(
            budget=3, tuner="uniform", selector="ucb1", n_splits=2,
            random_state=0, backend="process", workers=2, n_pending=2,
        )
        results = session.solve_fleet(tasks)
        assert len(results) == 2
        # the search splits a holdout partition off, renaming the task
        for result, task in zip(results, tasks):
            assert result.task_name.startswith(task.name)
        for index, result in enumerate(results):
            assert result.fleet_stats["tenant"] == "t{}-{}".format(index, tasks[index].name)
            assert result.n_evaluated == 3
        assert session.results == results
        assert len(session.store) == 6  # both tenants' records in one store

    def test_solve_fleet_weight_count_mismatch(self):
        session = AutoBazaarSession(budget=2)
        with pytest.raises(ValueError):
            session.solve_fleet(fleet_tasks(2), weights=[1.0])

    def test_solve_fleet_rejects_backend_instances(self):
        session = AutoBazaarSession(budget=2, backend=ProcessBackend(workers=1))
        try:
            with pytest.raises(ValueError):
                session.solve_fleet(fleet_tasks(1))
        finally:
            session.execution.backend.shutdown()


class TestFleetCLI:
    @pytest.fixture()
    def task_dirs(self, tmp_path):
        from repro.tasks import save_task

        directories = []
        for index, task in enumerate(fleet_tasks(2)):
            directory = tmp_path / "task-{}".format(index)
            save_task(task, directory)
            directories.append(str(directory))
        return directories

    def test_fleet_mode_solves_all_tasks(self, task_dirs, capsys):
        from repro.automl.__main__ import main

        exit_code = main(task_dirs + [
            "--fleet", "--backend", "process", "--workers", "2",
            "--tuner", "uniform", "--budget", "2", "--splits", "2",
            "--pending", "2", "--tenant-weight", "2", "--tenant-weight", "1",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.count("fleet tenant") == 2
        assert "weight 2" in captured.out and "weight 1" in captured.out

    def test_multiple_directories_imply_fleet_mode(self, task_dirs, capsys):
        from repro.automl.__main__ import main

        exit_code = main(task_dirs + [
            "--workers", "2", "--tuner", "uniform",
            "--budget", "2", "--splits", "2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.count("fleet tenant") == 2

    def test_fleet_mode_rejects_run_dir(self, task_dirs, tmp_path, capsys):
        from repro.automl.__main__ import main

        exit_code = main(task_dirs + ["--run-dir", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "--run-dir" in captured.err

    def test_fleet_mode_rejects_weight_count_mismatch(self, task_dirs, capsys):
        from repro.automl.__main__ import main

        exit_code = main(task_dirs + ["--tenant-weight", "1"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "--tenant-weight" in captured.err

    def test_tenant_weight_requires_fleet_mode(self, task_dirs, capsys):
        from repro.automl.__main__ import main

        exit_code = main([task_dirs[0], "--tenant-weight", "1", "--budget", "1"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "fleet" in captured.err
