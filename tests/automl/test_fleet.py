"""Tests for the multi-tenant fleet coordinator.

Two contracts rule this layer: *fairness* (stride/deficit admission gives
every tenant its weighted share of the shared workers, skew-aware and
starvation-free) and *determinism* (a tenant's record stream is
bit-identical to the same search run solo — the fleet only changes where
and when folds run, never what is reported).
"""

import threading
from concurrent.futures import Future

import pytest

from repro.automl import AutoBazaarSearch, FleetCoordinator, ProcessBackend
from repro.automl.fleet import _DEFAULT_FOLD_COST
from repro.automl.session import AutoBazaarSession
from repro.core.template import Template
from repro.tasks import synth

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
    def test_thread_fleet_records_identical_to_solo(self):
        tasks = fleet_tasks(2)
        solo = []
        for task in tasks:
            searcher = AutoBazaarSearch(
                templates=seeded_templates(), n_splits=2, random_state=0,
                backend="serial", n_pending=2,
            )
            result = searcher.search(task, budget=4)
            assert result.fleet_stats is None  # solo runs carry no fleet stats
            solo.append(record_documents(result))

        with FleetCoordinator(backend="thread", workers=2) as fleet:
            results = run_tenants(fleet, tasks, [
                fleet.register(name="tenant-{}".format(index)) for index in range(2)
            ])

        for index, result in enumerate(results):
            assert record_documents(result) == solo[index]
            stats = result.fleet_stats
            assert stats["tenant"] == "tenant-{}".format(index)
            assert stats["folds_dispatched"] == 4 * 2 + 1  # budget x n_splits + the refit
            assert stats["plane_counts"] == {"inline": 2}  # train and held-out partition
            assert stats["queue_depth_hwm"] >= 1
            assert stats["fold_seconds"] > 0

    def test_process_fleet_records_identical_to_solo(self):
        tasks = fleet_tasks(2)
        solo = []
        for task in tasks:
            searcher = AutoBazaarSearch(
                templates=seeded_templates(), n_splits=2, random_state=0,
                backend="serial", n_pending=2,
            )
            solo.append(record_documents(searcher.search(task, budget=3)))

        with FleetCoordinator(backend="process", workers=2) as fleet:
            results = run_tenants(
                fleet, tasks,
                [fleet.register(name="tenant-{}".format(index)) for index in range(2)],
                budget=3,
            )

        for index, result in enumerate(results):
            assert record_documents(result) == solo[index]
            # each tenant's task crossed the process boundary on one plane
            assert sum(result.fleet_stats["plane_counts"].values()) == 2


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
        pass


def _noop(tag):
    return tag


def manual_fleet(workers=1, max_backlog=0):
    fleet = FleetCoordinator(backend="thread", workers=workers, max_backlog=max_backlog)
    fleet._pool._executor.shutdown(wait=False)
    manual = _ManualExecutor()
    fleet._pool._executor = manual
    return fleet, manual


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

    def test_per_tenant_inflight_cap(self):
        fleet, manual = manual_fleet(workers=4, max_backlog=4)
        tenant = fleet.register(name="capped", max_inflight=2)
        futures = [tenant._executor.submit(_noop, "capped") for _ in range(6)]
        assert len(manual.submitted) == 2
        manual.submitted[0][1].set_result({"elapsed": 0.01})
        assert len(manual.submitted) == 3  # the freed slot was re-admitted
        assert not futures[-1].done()
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


class TestFleetValidation:
    def test_rejects_unknown_backend_and_bad_parameters(self):
        with pytest.raises(ValueError):
            FleetCoordinator(backend="serial")
        with pytest.raises(ValueError):
            FleetCoordinator(backend="thread", prefix_cache="bogus")

    def test_register_validation_and_close(self):
        fleet = FleetCoordinator(backend="thread", workers=1)
        fleet.register(name="t")
        with pytest.raises(ValueError):
            fleet.register(name="t")  # duplicate
        with pytest.raises(ValueError):
            fleet.register(weight=0.0)
        with pytest.raises(ValueError):
            fleet.register(max_inflight=0)
        fleet.close()
        with pytest.raises(RuntimeError):
            fleet.register(name="late")
        fleet.close()  # idempotent

    def test_transport_capacity_grows_with_the_tenant_count(self):
        # both partitions of every registered tenant (the one its folds
        # read, the one its refit scores on) must stay published at once, or
        # a late tenant would evict a segment with jobs still in flight
        with FleetCoordinator(backend="process", workers=1) as fleet:
            fleet._pool.transport_capacity = 1
            for _ in range(3):
                fleet.register()
            assert fleet._pool.transport_capacity == 7

    def test_disk_prefix_cache_dir_is_owned_and_removed(self, tmp_path):
        import os

        fleet = FleetCoordinator(backend="thread", workers=1, prefix_cache="disk")
        owned = fleet.cache_dir
        assert owned is not None and os.path.isdir(owned)
        fleet.close()
        assert not os.path.exists(owned)
        # an explicit directory is shared, not owned: it survives close
        explicit = tmp_path / "cache"
        explicit.mkdir()
        fleet = FleetCoordinator(
            backend="thread", workers=1, prefix_cache="disk", cache_dir=str(explicit)
        )
        fleet.close()
        assert explicit.is_dir()

    def test_startup_sweeps_stale_shm_segments(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.automl.shm.sweep_stale_segments",
            lambda *args, **kwargs: calls.append(1),
        )
        FleetCoordinator(backend="thread", workers=1).close()
        assert len(calls) == 1
        # the process backend sweeps at startup too
        ProcessBackend(workers=1).shutdown()
        assert len(calls) == 2


class TestSessionFleet:
    def test_solve_fleet_runs_all_tasks_into_one_store(self):
        tasks = fleet_tasks(2)
        session = AutoBazaarSession(
            budget=3, tuner="uniform", selector="ucb1", n_splits=2,
            random_state=0, backend="thread", workers=2, n_pending=2,
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
        session = AutoBazaarSession(budget=2, backend="thread")
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
            "--fleet", "--backend", "thread", "--workers", "2",
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
            "--backend", "thread", "--tuner", "uniform",
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
