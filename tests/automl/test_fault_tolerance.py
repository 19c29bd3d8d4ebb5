"""Chaos suite for the fault-tolerant execution layer.

The supervised pool's contract is *fault masking with determinism*: any
single fault drawn from :data:`repro.automl.faultinject.FAULT_KINDS`
(worker kill, fold hang, slow fold, shm unlink) must yield the exact
record stream of a fault-free run — folds are pure, so a retried fold
reproduces its payload bit for bit.  The suite pins that contract on the
solo process path and on the 4-tenant fleet path (with a *real* SIGKILL,
not an injected one), plus the satellite guarantees: retries invisible
to the selector, orphaned cache temp files swept at startup, and the
four supervision telemetry events.
"""

import glob
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.automl import AutoBazaarSearch, FaultPlan, FleetCoordinator
from repro.automl.prefix_cache import (
    FittedPrefixCache,
    _tmp_prefix,
    sweep_orphan_cache_tmp,
)
from repro.core.template import Template
from repro.tasks import synth
from repro.telemetry.replayer import load_events

ENCODER = "mlprimitives.custom.preprocessing.ClassEncoder"
DECODER = "mlprimitives.custom.preprocessing.ClassDecoder"
IMPUTER = "sklearn.impute.SimpleImputer"
SCALER = "sklearn.preprocessing.StandardScaler"

ZERO_STATS = {
    "workers_died": 0,
    "folds_retried": 0,
    "folds_timed_out": 0,
    "pools_rebuilt": 0,
    "folds_quarantined": 0,
}


def seeded_templates():
    return [
        Template(
            "ft_logreg",
            [ENCODER, IMPUTER, SCALER, "sklearn.linear_model.LogisticRegression", DECODER],
            init_params={"sklearn.linear_model.LogisticRegression": {"random_state": 0}},
        ),
        Template(
            "ft_rf",
            [ENCODER, IMPUTER, SCALER, "sklearn.ensemble.RandomForestClassifier", DECODER],
            init_params={"sklearn.ensemble.RandomForestClassifier": {"random_state": 0}},
        ),
    ]


def record_documents(result):
    documents = [record.to_dict() for record in result.records]
    for document in documents:
        document.pop("elapsed")  # the only legitimately timing-dependent field
    return documents


def make_task(index=0):
    return synth.make_single_table_classification(
        name="fault-task-{}".format(index), n_samples=80, random_state=index,
    )


def run_search(task, backend="serial", budget=4, **kwargs):
    searcher = AutoBazaarSearch(
        templates=seeded_templates(), n_splits=2, random_state=0,
        backend=backend, n_pending=2, **kwargs,
    )
    return searcher.search(task, budget=budget)


def supervised_search(task, fold_timeout=120.0, max_fold_retries=1, **kwargs):
    return run_search(
        task, backend="process", workers=2,
        fold_timeout=fold_timeout, max_fold_retries=max_fold_retries, **kwargs,
    )


@pytest.fixture(scope="module")
def task():
    return make_task()


@pytest.fixture(scope="module")
def baseline(task):
    result = run_search(task, backend="serial")
    assert result.fleet_stats is None  # serial runs carry no supervisor
    return record_documents(result)


class TestFaultFreeBaselines:
    def test_thread_backend_matches_serial(self, task, baseline):
        result = run_search(task, backend="thread", workers=2)
        assert record_documents(result) == baseline
        assert result.fleet_stats is None

    def test_unsupervised_process_backend_matches_serial(self, task, baseline):
        # no supervision knob set: the process pool is supervised all the same
        result = run_search(task, backend="process", workers=2)
        assert record_documents(result) == baseline
        assert result.fleet_stats["supervisor"] == ZERO_STATS

    def test_supervised_process_backend_matches_serial(self, task, baseline):
        result = supervised_search(task)
        assert record_documents(result) == baseline
        # a fault-free supervised run never retries, kills, or rebuilds
        assert result.fleet_stats["supervisor"] == ZERO_STATS


def _fault_plan_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-fault-plan-*")))


class TestSingleFaultPlans:
    """Any single-fault plan must be fully masked by the supervisor."""

    @pytest.fixture(scope="class", autouse=True)
    def no_plan_dir_outlives_the_cases(self):
        # a plan that had to create its counter directory owns it: made by
        # activate(), removed when the ``with`` body ends
        before = _fault_plan_dirs()
        yield
        assert _fault_plan_dirs() - before == set()

    def test_worker_kill_is_masked(self, task, baseline):
        self._assert_kill_masked(task, baseline, supervised_search)

    def test_worker_kill_is_masked_with_no_supervision_knobs(self, task, baseline):
        self._assert_kill_masked(
            task, baseline, lambda task: run_search(task, backend="process", workers=2))

    def _assert_kill_masked(self, task, baseline, search):
        plan = FaultPlan.single("worker_kill", at_fold=2)
        with plan.activate():
            result = search(task)
        assert record_documents(result) == baseline
        stats = result.fleet_stats["supervisor"]
        assert stats["workers_died"] == 1
        assert stats["folds_retried"] >= 1
        assert stats["pools_rebuilt"] == 1
        assert stats["folds_quarantined"] == 0

    def test_shm_unlink_is_repaired_and_masked(self, task, baseline):
        plan = FaultPlan.single("shm_unlink", at_fold=2)
        with plan.activate():
            result = supervised_search(task)
        assert record_documents(result) == baseline
        stats = result.fleet_stats["supervisor"]
        # the segment is re-published in place: a retry, never a death
        assert stats["workers_died"] == 0
        assert stats["folds_retried"] >= 1
        assert stats["folds_quarantined"] == 0

    def test_slow_fold_is_absorbed(self, task, baseline):
        plan = FaultPlan.single("slow_fold", at_fold=2, seconds=0.3)
        with plan.activate():
            result = supervised_search(task)
        assert record_documents(result) == baseline
        assert result.fleet_stats["supervisor"] == ZERO_STATS  # under the deadline

    def test_fold_hang_is_killed_at_the_deadline_and_masked(
            self, task, baseline, tmp_path):
        events_dir = str(tmp_path / "events")
        plan = FaultPlan.single("fold_hang", at_fold=2)
        with plan.activate():
            result = supervised_search(
                task, fold_timeout=3.0, max_fold_retries=2,
                telemetry=events_dir,
            )
        assert record_documents(result) == baseline
        stats = result.fleet_stats["supervisor"]
        assert stats["folds_timed_out"] == 1
        assert stats["workers_died"] == 1  # the hung worker is SIGKILLed
        assert stats["folds_retried"] >= 1
        assert stats["folds_quarantined"] == 0
        event_types = {event.get("event") for event in load_events(events_dir)}
        assert "fold_timed_out" in event_types

    def test_seeded_plans_are_deterministic(self, tmp_path):
        kwargs = dict(seed=7, total_folds=8, kinds=("slow_fold", "worker_kill"),
                      n_faults=2)
        first = FaultPlan.seeded(plan_dir=str(tmp_path / "a"), **kwargs)
        second = FaultPlan.seeded(plan_dir=str(tmp_path / "b"), **kwargs)
        assert first.faults == second.faults
        assert FaultPlan.from_json(first.to_json()).faults == first.faults
        assert FaultPlan.from_json(first.to_json()).plan_dir == first.plan_dir

    def test_activate_owns_only_a_directory_it_created(self, tmp_path):
        supplied = FaultPlan.single("slow_fold", plan_dir=str(tmp_path / "plan"))
        with supplied.activate():
            assert os.path.isdir(supplied.plan_dir)
        assert os.path.isdir(tmp_path / "plan")  # the caller's directory stays

        owned = FaultPlan.single("slow_fold")
        with owned.activate():
            created = owned.plan_dir
            armed = FaultPlan.from_json(os.environ["REPRO_FAULT_PLAN"])
            assert armed.plan_dir == created and os.path.isdir(created)
            assert armed._claim_fold() == 0
        assert not os.path.exists(created)


class TestSupervisionTelemetry:
    def test_worker_kill_emits_supervision_events(self, task, baseline, tmp_path):
        events_dir = str(tmp_path / "events")
        plan = FaultPlan.single("worker_kill", at_fold=2)
        with plan.activate():
            result = supervised_search(task, telemetry=events_dir)
        assert record_documents(result) == baseline
        event_types = {event.get("event") for event in load_events(events_dir)}
        assert {"worker_died", "fold_retried", "pool_rebuilt"} <= event_types


class TestSelectorAccounting:
    """Satellite: supervisor retries never reach the selector's quarantine.

    The record streams in :class:`TestSingleFaultPlans` being bit-identical
    already proves the selector saw identical outcomes; these tests pin the
    mechanism explicitly.
    """

    def test_retried_crash_records_no_failure(self, task, baseline):
        plan = FaultPlan.single("worker_kill", at_fold=2)
        with plan.activate():
            result = supervised_search(task)
        documents = record_documents(result)
        baseline_failures = [doc for doc in baseline if doc["error"] is not None]
        failures = [doc for doc in documents if doc["error"] is not None]
        # the killed-and-retried fold produced no extra failure record, so
        # the selector's two-failure crash quarantine was never charged
        assert failures == baseline_failures
        assert result.fleet_stats["supervisor"]["folds_retried"] >= 1
        assert result.fleet_stats["supervisor"]["folds_quarantined"] == 0

    def test_quarantined_fold_is_one_recorded_failure(self, task):
        # retries exhausted immediately: the single kill becomes the fold's
        # final outcome and flows through the ordinary record_failure path
        plan = FaultPlan.single("worker_kill", at_fold=2)
        with plan.activate():
            result = supervised_search(task, max_fold_retries=0)
        crash_records = [
            record for record in result.records
            if record.error is not None and "worker process died" in record.error
        ]
        assert len(crash_records) == 1
        assert result.fleet_stats["supervisor"]["folds_quarantined"] == 1
        assert result.fleet_stats["supervisor"]["folds_retried"] == 0


class TestFleetRealKill:
    """Satellite: a real SIGKILL mid-fold on the 4-tenant fleet path."""

    def test_four_tenants_survive_a_worker_sigkill(self):
        tasks = [make_task(index) for index in range(4)]
        solo = [record_documents(run_search(task, budget=3)) for task in tasks]

        with FleetCoordinator(backend="process", workers=2,
                              fold_timeout=120.0, max_fold_retries=2) as fleet:
            handles = [
                fleet.register(name="tenant-{}".format(index)) for index in range(4)
            ]
            results = [None] * 4
            failures = []

            def run(index):
                try:
                    results[index] = run_search(tasks[index], backend=handles[index],
                                                budget=3)
                except BaseException as failure:  # noqa: BLE001 - re-raised below
                    failures.append(failure)

            threads = [
                threading.Thread(target=run, args=(index,)) for index in range(4)
            ]
            for thread in threads:
                thread.start()

            # SIGKILL a worker that provably has a fold in flight
            executor = fleet._executor
            victim = None
            deadline = time.monotonic() + 30
            while victim is None and time.monotonic() < deadline:
                for worker in list(executor._workers.values()):
                    if worker.job is not None:
                        victim = worker.process.pid
                        break
                else:
                    time.sleep(0.01)
            assert victim is not None, "no fold ever went in flight"
            os.kill(victim, signal.SIGKILL)

            for thread in threads:
                thread.join()
            # the supervisor notices the death via the process sentinel;
            # give its thread a moment to file the respawn
            deadline = time.monotonic() + 10
            while (fleet.supervisor_stats["workers_died"] < 1
                    and time.monotonic() < deadline):
                time.sleep(0.01)
            stats = fleet.supervisor_stats
            assert stats["workers_died"] >= 1
            assert stats["pools_rebuilt"] >= 1
            assert stats["folds_quarantined"] == 0

        # every tenant's stream is bit-identical to its solo run: the kill
        # cost a rebuild pause, never a record
        for index, result in enumerate(results):
            assert record_documents(result) == solo[index]


class TestOrphanTmpSweep:
    """Satellite: killed writers' ``*.tmp`` files are reclaimed at startup."""

    def _dead_pid(self):
        process = subprocess.Popen([sys.executable, "-c", "pass"])
        process.wait()
        return process.pid

    def test_sweep_removes_dead_and_unparsable_only(self, tmp_path):
        cache_dir = str(tmp_path)
        live = os.path.join(cache_dir, "{}live.tmp".format(_tmp_prefix()))
        dead = os.path.join(cache_dir, ".prefix-{}-dead.tmp".format(self._dead_pid()))
        legacy = os.path.join(cache_dir, ".prefix-legacy.tmp")
        payload = os.path.join(cache_dir, "entry.pkl")
        for path in (live, dead, legacy, payload):
            with open(path, "w"):
                pass

        assert sweep_orphan_cache_tmp(cache_dir) == 2
        assert os.path.exists(live)  # this process is alive: still writing
        assert os.path.exists(payload)  # committed entries are never touched
        assert not os.path.exists(dead)
        assert not os.path.exists(legacy)  # pre-pid-convention names go too

    def test_cache_startup_sweeps(self, tmp_path):
        cache_dir = str(tmp_path)
        orphan = os.path.join(cache_dir, ".prefix-{}-x.tmp".format(self._dead_pid()))
        with open(orphan, "w"):
            pass
        FittedPrefixCache(cache_dir=cache_dir)
        assert not os.path.exists(orphan)

    def test_missing_directory_is_harmless(self, tmp_path):
        assert sweep_orphan_cache_tmp(str(tmp_path / "absent")) == 0
