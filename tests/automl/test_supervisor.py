"""Unit tests for the supervised worker pool.

The pool is executor-compatible (``submit``/``shutdown`` with real
futures), so these tests exercise it directly, below the backend layer:
result/error round-trips, crash retry and poison quarantine, fold
deadlines, retriable payloads with the fault-listener repair hook, and
shutdown semantics.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.automl.supervisor import (
    FoldTimeoutError,
    SupervisedWorkerPool,
    WorkerCrashError,
    _payload_retriable,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _square(value):
    return value * value


def _raise(message):
    raise ValueError(message)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_once(flag_path):
    if not os.path.exists(flag_path):
        with open(flag_path, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def _sleep(seconds):
    time.sleep(seconds)
    return "slept"


def _retriable_once(flag_path):
    if not os.path.exists(flag_path):
        with open(flag_path, "w"):
            pass
        return {"score": None, "error": "FileNotFoundError: gone", "retriable": True}
    return {"score": 1.0, "error": None}


@pytest.fixture
def pool():
    pools = []

    def build(**kwargs):
        kwargs.setdefault("max_workers", 2)
        kwargs.setdefault("retry_backoff", 0.01)
        built = SupervisedWorkerPool(**kwargs)
        pools.append(built)
        return built

    yield build
    for built in pools:
        built.shutdown(wait=True, cancel_futures=True)


class TestBasics:
    def test_results_round_trip(self, pool):
        executor = pool()
        futures = [executor.submit(_square, value) for value in range(8)]
        assert [future.result(timeout=30) for future in futures] == [
            value * value for value in range(8)
        ]

    def test_worker_exceptions_round_trip(self, pool):
        executor = pool()
        future = executor.submit(_raise, "bad hyperparameters")
        with pytest.raises(ValueError, match="bad hyperparameters"):
            future.result(timeout=30)
        # the pool survives a plain exception: no death, no respawn
        assert executor.submit(_square, 3).result(timeout=30) == 9
        assert executor.stats["workers_died"] == 0

    def test_submit_after_shutdown_is_rejected(self, pool):
        executor = pool()
        executor.shutdown(wait=True)
        with pytest.raises(RuntimeError, match="after shutdown"):
            executor.submit(_square, 1)

    def test_cancel_queued_futures_on_shutdown(self, pool):
        executor = pool(max_workers=1)
        blocker = executor.submit(_sleep, 0.5)
        while not blocker.running():  # wait for dispatch so only the rest are queued
            time.sleep(0.01)
        queued = [executor.submit(_square, value) for value in range(8)]
        executor.shutdown(wait=True, cancel_futures=True)
        assert blocker.result(timeout=5) == "slept"  # running work drains
        assert any(future.cancelled() for future in queued)
        for future in queued:
            assert future.cancelled() or future.result(timeout=1) is not None


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_fold_retried(self, pool, tmp_path):
        executor = pool(max_workers=2, max_fold_retries=1)
        future = executor.submit(_kill_once, str(tmp_path / "flag"))
        assert future.result(timeout=60) == "survived"
        executor.shutdown(wait=True)
        assert executor.stats["workers_died"] == 1
        assert executor.stats["folds_retried"] == 1
        assert executor.stats["pools_rebuilt"] == 1
        assert executor.stats["folds_quarantined"] == 0

    def test_poison_fold_is_quarantined_after_retries(self, pool):
        executor = pool(max_workers=2, max_fold_retries=1)
        future = executor.submit(_kill_self)
        with pytest.raises(WorkerCrashError, match="2 attempts"):
            future.result(timeout=60)
        executor.shutdown(wait=True)
        # "crashes the worker twice" -> recorded failure, not endless retry
        assert executor.stats["folds_quarantined"] == 1
        assert executor.stats["folds_retried"] == 1

    def test_other_folds_survive_a_worker_death(self, pool):
        executor = pool(max_workers=2, max_fold_retries=0)
        safe = [executor.submit(_sleep, 0.3) for _ in range(2)]
        doomed = executor.submit(_kill_self)
        with pytest.raises(WorkerCrashError):
            doomed.result(timeout=60)
        assert [future.result(timeout=60) for future in safe] == ["slept", "slept"]


class TestDeadlines:
    def test_hung_fold_is_killed_and_quarantined(self, pool):
        executor = pool(max_workers=1, fold_timeout=0.5, max_fold_retries=0)
        started = time.monotonic()
        future = executor.submit(_sleep, 60)
        with pytest.raises(FoldTimeoutError, match="0.5s fold deadline"):
            future.result(timeout=60)
        assert time.monotonic() - started < 30  # killed at the deadline, not at the sleep
        executor.shutdown(wait=True)
        assert executor.stats["folds_timed_out"] == 1

    def test_hung_fold_retry_can_succeed(self, pool, tmp_path):
        flag = tmp_path / "flag"

        executor = pool(max_workers=1, fold_timeout=1.0, max_fold_retries=1)
        future = executor.submit(_hang_once, str(flag))
        assert future.result(timeout=60) == "survived"
        executor.shutdown(wait=True)
        assert executor.stats["folds_timed_out"] == 1
        assert executor.stats["folds_retried"] == 1

    def test_fast_folds_never_hit_the_deadline(self, pool):
        executor = pool(max_workers=2, fold_timeout=30)
        futures = [executor.submit(_square, value) for value in range(8)]
        assert [future.result(timeout=30) for future in futures] == [
            value * value for value in range(8)
        ]
        assert executor.stats["folds_timed_out"] == 0


class TestRetriablePayloads:
    def test_payload_retriable_detection(self):
        assert _payload_retriable({"error": "x", "retriable": True})
        assert not _payload_retriable({"error": "x"})
        assert not _payload_retriable({"error": None, "retriable": True})
        assert _payload_retriable([{"error": "x", "retriable": True}, {}])
        assert not _payload_retriable([])
        assert not _payload_retriable("text")

    def test_retriable_payload_is_retried_with_repair_hook(self, pool, tmp_path):
        executor = pool(max_workers=1, max_fold_retries=1)
        repairs = []
        executor.set_fault_listener(lambda: repairs.append(1))
        future = executor.submit(_retriable_once, str(tmp_path / "flag"))
        assert future.result(timeout=60) == {"score": 1.0, "error": None}
        assert repairs == [1]
        assert executor.stats["folds_retried"] == 1

    def test_exhausted_retriable_payload_is_delivered_as_is(self, pool):
        executor = pool(max_workers=1, max_fold_retries=1)
        future = executor.submit(
            dict, score=None, error="FileNotFoundError: gone", retriable=True
        )
        payload = future.result(timeout=60)
        # delivered like any failed fold: same record the unsupervised
        # pool would produce, never an exception
        assert payload["error"] == "FileNotFoundError: gone"
        assert executor.stats["folds_retried"] == 1


def _hang_once(flag_path):
    if not os.path.exists(flag_path):
        with open(flag_path, "w"):
            pass
        time.sleep(60)
    return "survived"


def _group_members(pgid):
    """Pids of the live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as stream:
                # "pid (comm) state ppid pgrp ..."; comm may hold spaces
                state, _ppid, pgrp = stream.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue  # exited while we were looking
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


class TestInterpreterExit:
    def test_unshut_pool_neither_hangs_nor_orphans_workers_at_exit(self):
        # multiprocessing's exit hook terminates the daemonic workers; a
        # supervisor still running then answered with replacements that
        # nobody terminates: re-parented to pid 1, or joined for ever
        script = (
            "import sys\n"
            "sys.path.insert(0, {!r})\n"
            "from repro.automl.supervisor import SupervisedWorkerPool\n"
            "pool = SupervisedWorkerPool(2)\n"
            "assert pool.submit(pow, 2, 3).result() == 8\n"
        ).format(os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src"))
        child = subprocess.Popen([sys.executable, "-c", script], start_new_session=True)
        try:
            assert child.wait(timeout=10) == 0
            time.sleep(2)
            assert _group_members(child.pid) == []
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait(timeout=10)
