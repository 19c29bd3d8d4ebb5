"""Tests for the multi-tenant fleet coordinator.

Two contracts rule this layer: *fairness* (stride/deficit admission gives
every tenant its weighted share of the shared workers, skew-aware and
starvation-free) and *determinism* (a tenant's record stream is
bit-identical to the same search run solo — the fleet only changes where
and when folds run, never what is reported).
"""

import os
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.automl import (
    AutoBazaarSearch,
    EvaluationCandidate,
    FleetCoordinator,
    ProcessBackend,
)
from repro.automl.fleet import _DEFAULT_FOLD_COST
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
    def test_process_fleet_records_identical_to_solo(self):
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
            assert stats["plane_counts"] == {"shm": 2}  # train and held-out partition
            assert stats["queue_depth_hwm"] >= 1
            assert stats["fold_seconds"] > 0


# -- fair-share scheduling (driven through a manual executor) ----------------------


class _ManualExecutor:
    """Executor stub: submissions pile up until the test completes them."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args, **kwargs):
        future = Future()
        self.submitted.append((args, future))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        # what a real pool does to the jobs it has not started yet
        if cancel_futures:
            for _, future in self.submitted:
                future.cancel()


def _noop(tag):
    return tag


def _candidate():
    template = seeded_templates()[0]
    return EvaluationCandidate(
        iteration=0, template=template, hyperparameters=template.default_hyperparameters(),
        task=fleet_tasks(1)[0], n_splits=2, random_state=0,
    )


class _ManualFleet(FleetCoordinator):
    """A fleet whose pool is a :class:`_ManualExecutor`: no worker is started."""

    def _make_pool(self):
        return _ManualExecutor()


class _InProcessFleet(FleetCoordinator):
    """A fleet whose folds run on threads of this process (a stdlib pool)."""

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.workers)


def manual_fleet(**execution):
    fleet = _ManualFleet(workers=1, **execution)
    fleet._max_admitted = 1  # one admission slot: the stride order is the submit order
    return fleet, fleet._executor


class TestFairShareScheduling:
    def test_weighted_stride_admission_order(self):
        # one admission slot makes the stride order fully observable: a
        # weight-2 tenant must be admitted exactly twice as often as a
        # weight-1 tenant when their fold costs are equal
        fleet, manual = manual_fleet()
        tenant_a = fleet.register(name="a", weight=2.0)
        tenant_b = fleet.register(name="b", weight=1.0)
        for _ in range(30):
            tenant_a._executor.submit(_noop, "a")
            tenant_b._executor.submit(_noop, "b")
        order = []
        while manual.submitted and len(order) < 18:
            args, real = manual.submitted.pop(0)
            order.append(args[0])
            real.set_result({"elapsed": _DEFAULT_FOLD_COST})
        assert len(order) == 18
        assert order.count("a") == 2 * order.count("b")
        fleet.close()

    def test_deficit_correction_is_skew_aware(self):
        # equal weights but 9x skewed fold costs: once measured costs feed
        # the pass values, the cheap tenant streams many folds per
        # expensive one — time shares equalize, not fold counts
        fleet, manual = manual_fleet()
        cheap = fleet.register(name="cheap")
        heavy = fleet.register(name="heavy")
        for _ in range(400):
            cheap._executor.submit(_noop, "cheap")
            heavy._executor.submit(_noop, "heavy")
        costs = {"cheap": 0.01, "heavy": 0.09}
        order = []
        while manual.submitted and len(order) < 120:
            args, real = manual.submitted.pop(0)
            order.append(args[0])
            real.set_result({"elapsed": costs[args[0]]})
        tail = order[20:]  # skip the estimate warm-up
        assert tail.count("heavy") >= 1  # no starvation
        assert tail.count("cheap") >= 5 * tail.count("heavy")
        fleet.close()

    def test_cancelled_queued_fold_never_reaches_the_executor(self):
        fleet, manual = manual_fleet()
        tenant = fleet.register(name="t")
        first = tenant._executor.submit(_noop, "t")
        second = tenant._executor.submit(_noop, "t")
        assert len(manual.submitted) == 1
        assert second.cancel() is True
        assert second.cancelled()
        seen = []
        second.add_done_callback(lambda future: seen.append(future.cancelled()))
        assert seen == [True]  # terminal futures fire callbacks immediately
        manual.submitted[0][1].set_result({"elapsed": 0.01})
        assert len(manual.submitted) == 1  # the cancelled fold was skipped
        assert not first.cancelled()
        fleet.close()

    def test_releasing_a_tenant_cancels_its_queue_and_keeps_the_pool(self):
        fleet, manual = manual_fleet()
        tenant_a = fleet.register(name="a")
        tenant_a._executor.submit(_noop, "a")
        queued = tenant_a._executor.submit(_noop, "a")
        tenant_a.shutdown()  # releases the tenant, not the shared pool
        assert queued.cancelled()
        assert fleet.tenants() == []
        with pytest.raises(RuntimeError):
            tenant_a._executor.submit(_noop, "a")
        tenant_b = fleet.register(name="b")
        tenant_b._executor.submit(_noop, "b")
        assert len(manual.submitted) == 1  # a's admitted fold still holds the slot
        manual.submitted[0][1].set_result({"elapsed": 0.01})
        assert len(manual.submitted) == 2  # b admitted once the slot freed
        fleet.close()

    def test_new_tenant_joins_at_the_minimum_pass(self):
        fleet, manual = manual_fleet()
        veteran = fleet.register(name="veteran")
        for _ in range(10):
            veteran._executor.submit(_noop, "veteran")
        for _ in range(5):
            args, real = manual.submitted.pop(0)
            real.set_result({"elapsed": 0.05})
        newcomer_state = fleet.register(name="newcomer")._state
        assert newcomer_state.pass_value == fleet._tenants["veteran"].pass_value
        fleet.close()

    def test_an_admitted_fold_runs_on_and_files_its_payload(self):
        # one admission slot: fold 0 is admitted, fold 1 waits in the queue
        fleet, manual = manual_fleet()
        tenant = fleet.register(name="t")
        future = tenant.submit(_candidate())
        admitted, queued = future._fold_futures
        assert len(manual.submitted) == 1
        assert admitted.cancel() is False and admitted.running()
        assert queued.cancel() is True
        payload = {"score": 0.75, "raw_score": 0.75, "error": None, "elapsed": 0.01}
        manual.submitted[0][1].set_result(payload)
        assert future._fold_results[0] is payload
        assert tenant.collect_one() is future
        assert len(manual.submitted) == 1  # the cancelled fold never reached the executor
        fleet.close()

    def test_a_submit_failure_is_the_folds_exception(self):
        fleet, manual = manual_fleet()

        def refuse(fn, *args, **kwargs):
            raise RuntimeError("the pool is broken")

        manual.submit = refuse
        fold = fleet.register(name="t")._executor.submit(_noop, "t")
        assert fold.done() and not fold.cancelled()
        assert str(fold.exception()) == "the pool is broken"
        assert fleet._admitted == 0  # its admission slot was given back
        fleet.close()

    def test_contended_completion_path_loses_no_fold(self):
        # more workers than cores and a short switch interval: a lost update
        # in admission or retirement would strand a fold or leak a slot
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _InProcessFleet(workers=4) as fleet:
                fleet._max_admitted = 6  # workers + 2: admissions queue behind the cap
                tenants = [fleet.register(name="t{}".format(index)) for index in range(6)]
                folds = [[] for _ in tenants]

                def submit(index):
                    for tag in range(60):
                        fold = tenants[index]._executor.submit(_noop, tag)
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
                            assert fold.result(timeout=60) == tag
                            ran += 1
                assert fleet._admitted == 0
                assert all(state.inflight == 0 and not state.queue
                           for state in fleet._tenants.values())
                assert sum(state.folds_dispatched for state in fleet._tenants.values()) == ran
        finally:
            sys.setswitchinterval(interval)

    def test_a_fold_the_pool_cancels_at_close_files_the_shutdown_error(self):
        fleet, manual = manual_fleet()
        future = fleet.register(name="t").submit(_candidate())
        fleet.close()  # releases the tenant, then shuts the executor down
        assert manual.submitted[0][1].cancelled()
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
        fleet, _ = manual_fleet()
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
        import os

        fleet, _ = manual_fleet(prefix_cache="disk")
        owned = fleet.cache_dir
        assert owned is not None and os.path.isdir(owned)
        fleet.close()
        assert not os.path.exists(owned)
        # an explicit directory is shared, not owned: it survives close
        explicit = tmp_path / "cache"
        explicit.mkdir()
        fleet, _ = manual_fleet(prefix_cache="disk", cache_dir=str(explicit))
        fleet.close()
        assert explicit.is_dir()

    def test_startup_sweeps_stale_shm_segments(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.automl.shm.sweep_stale_segments",
            lambda *args, **kwargs: calls.append(1),
        )
        manual_fleet()[0].close()
        assert len(calls) == 1
        # a process backend is a fleet of one: it sweeps at startup too
        ProcessBackend(workers=1).shutdown()
        assert len(calls) == 2


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
        assert result.fleet_stats["plane_counts"] == {"shm": 2}
        stream = load_events(events_dir)
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

    def test_reused_process_fleet_tenant(self):
        with FleetCoordinator(backend="process", workers=2) as fleet:
            tenant = fleet.register(name="reused")
            first, second, third = [self._search(tenant, n_pending) for n_pending in (3, 3, 1)]
        for result in (first, second, third):
            assert result.fleet_stats["folds_dispatched"] == 3 * 2 + 1  # and the refit
            assert result.fleet_stats["plane_counts"] == {"shm": 2}
            assert set(result.fleet_stats["supervisor"].values()) == {0}
        # three candidates in flight queue more folds than one at a time
        # does: the high-water mark restarts when a search drains the backend
        assert first.fleet_stats["queue_depth_hwm"] > 2 >= third.fleet_stats["queue_depth_hwm"]

    def test_reused_process_backend_reports_its_own_incidents(self):
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
            assert result.fleet_stats["plane_counts"] == {"shm": 2}
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
