"""Supervised worker pool: fold deadlines, worker respawn, retry + quarantine.

The plain :class:`~concurrent.futures.ProcessPoolExecutor` behind the
process backend has a brittle failure mode for a long-running AutoML
service: one SIGKILLed worker breaks the *whole pool* (every pending
future fails with ``BrokenProcessPool`` and the executor refuses new
work), and a hung fold — a native-code deadlock, a runaway fit — stalls
the sliding-window search forever because nothing enforces a deadline.

:class:`SupervisedWorkerPool` is a drop-in executor (``submit`` /
``shutdown`` with real :class:`concurrent.futures.Future` objects) that
owns its worker processes directly, one task pipe and one result pipe
per worker, so a killed worker corrupts only its own channels:

* **liveness over the existing result channel** — each worker runs a
  heartbeat thread that periodically sends a liveness message on its
  result pipe (no second IPC mechanism), plus an explicit ``started``
  message when it picks up a fold;
* **fold deadlines** — a supervisor thread tracks how long each
  dispatched fold has been running; past ``fold_timeout`` the offending
  worker is SIGKILLed and the fold handled like any worker death;
* **pool rebuild** — a dead worker (crash, kill, deadline) is detected
  through its process sentinel and replaced with a freshly spawned
  worker immediately; the in-flight fold of the dead worker is requeued
  while folds on the surviving workers keep running — the rebuild is a
  per-worker respawn, never an executor-wide collapse;
* **retry with exponential backoff + poison-fold quarantine** — a
  requeued fold waits ``retry_backoff * 2**(attempt-1)`` seconds, and a
  fold that crashes its worker more than ``max_fold_retries`` times is
  completed with a :class:`WorkerCrashError` (or
  :class:`FoldTimeoutError`), which the pool machinery records as a
  failed evaluation through the existing ``record_failure`` path.

Determinism: folds are pure functions of their submission, so a retried
fold returns the identical payload the first attempt would have — only
the *final* outcome ever reaches the candidate future, intermediate
crashed attempts are invisible to the record stream (and to the
selector's crash quarantine).  Fold payloads flagged ``retriable`` (a
worker that could not materialize its task because a shared-memory
segment vanished) are also retried here, after giving the backend's
fault listener a chance to re-publish the segment.
"""

import atexit
import heapq
import os
import signal
import threading
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import Future
from itertools import count
from multiprocessing import connection as _mp_connection
from multiprocessing import get_context

from repro.telemetry.sink import emit_active

#: Crash retries per fold before quarantine (one retry for transients).
DEFAULT_MAX_FOLD_RETRIES = 1

#: Base of the exponential retry backoff (seconds).
DEFAULT_RETRY_BACKOFF = 0.05

#: Worker heartbeat period on the result channel (seconds).
DEFAULT_HEARTBEAT_SECONDS = 1.0

#: Supervisor poll tick when nothing else bounds the wait (seconds).
_TICK_SECONDS = 0.5

#: Consecutive worker-initializer failures before the pool gives up.
_MAX_INIT_FAILURES = 3

#: Seconds granted to workers to exit cleanly at shutdown before SIGKILL.
_JOIN_SECONDS = 5.0


#: Every pool built and not yet garbage-collected; closed at interpreter
#: exit by :func:`_close_live_pools`.
_LIVE_POOLS = weakref.WeakSet()


def _close_live_pools():
    """Close every pool its owner never shut down.

    atexit runs last-registered first, and ``multiprocessing.util``
    registered its own hook when the imports above loaded it, so this one
    runs before it: by the time that hook terminates the daemonic workers
    and joins every child, no supervisor is left to answer the deaths with
    replacement workers nobody would ever terminate.  Nothing is waited
    for — a fold still running at exit runs for nobody, and its worker is
    terminated by multiprocessing's hook next.
    """
    for pool in list(_LIVE_POOLS):
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(_close_live_pools)


class WorkerCrashError(RuntimeError):
    """The worker process died while evaluating this fold (post-retry)."""


class FoldTimeoutError(RuntimeError):
    """The fold exceeded the configured deadline (post-retry)."""


def _worker_main(task_conn, result_conn, initializer, initargs, heartbeat_seconds):
    """Worker process main loop: recv a fold job, run it, send the payload.

    All sends (results, the ``started`` marker and the heartbeat thread's
    liveness messages) share one lock over the worker's result pipe.  A
    send failure means the coordinator is gone, so the worker exits hard
    rather than computing for nobody.
    """
    from repro.automl import faultinject

    send_lock = threading.Lock()

    def send(message):
        try:
            with send_lock:
                result_conn.send(message)
        except Exception:  # noqa: BLE001 - the coordinator vanished
            os._exit(1)

    try:
        if initializer is not None:
            initializer(*initargs)
        else:
            # the initializer normally arms the fault plan; without one
            # the env-configured hook still has to reach this worker
            faultinject.install_from_env()
    except BaseException:  # noqa: BLE001 - init failures are reported, not raised
        send(("init_failed", traceback.format_exc()))
        return

    current = {"job": None}
    stop = threading.Event()

    def beat():
        while not stop.wait(heartbeat_seconds):
            send(("heartbeat", current["job"]))

    if heartbeat_seconds and heartbeat_seconds > 0:
        threading.Thread(target=beat, name="worker-heartbeat", daemon=True).start()
    send(("ready",))

    while True:
        try:
            message = task_conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        job_id, fn, args, kwargs = message
        current["job"] = job_id
        send(("started", job_id))
        try:
            result = fn(*args, **kwargs)
        except BaseException as failure:  # noqa: BLE001 - shipped back, never fatal here
            try:
                import pickle

                pickle.dumps(failure)
            except Exception:  # noqa: BLE001 - unpicklable exceptions degrade
                failure = RuntimeError(repr(failure))
            current["job"] = None
            send(("error", job_id, failure))
        else:
            current["job"] = None
            send(("done", job_id, result))
    stop.set()


class _Worker:
    """Coordinator-side bookkeeping for one worker process."""

    __slots__ = ("process", "task_conn", "result_conn", "job", "deadline",
                 "ready", "killing", "last_heartbeat")

    def __init__(self, process, task_conn, result_conn):
        self.process = process
        self.task_conn = task_conn
        self.result_conn = result_conn
        self.job = None
        self.deadline = None
        self.ready = False
        self.killing = None  # why this worker was deliberately killed
        self.last_heartbeat = time.monotonic()


class _Job:
    """One submitted fold: the callable, its future and its retry state."""

    __slots__ = ("id", "fn", "args", "kwargs", "future", "attempts",
                 "started", "timed_out")

    def __init__(self, job_id, fn, args, kwargs, future):
        self.id = job_id
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.future = future
        self.attempts = 0
        self.started = False  # future moved to RUNNING (first dispatch)
        self.timed_out = False


def _payload_retriable(result):
    """Whether a fold payload reports a retriable infrastructure failure."""
    if isinstance(result, dict):
        return bool(result.get("retriable")) and bool(result.get("error"))
    if isinstance(result, list) and result:
        return _payload_retriable(result[0])
    return False


def supervision_knobs(fold_timeout, max_fold_retries):
    """The supervision knobs as ``(seconds, retries)``, range-checked.

    ``None`` (unset) passes through; a deadline must be positive and a
    retry count non-negative.
    """
    if fold_timeout is not None:
        fold_timeout = float(fold_timeout)
        if not fold_timeout > 0:
            raise ValueError("fold_timeout must be positive")
    if max_fold_retries is not None:
        max_fold_retries = int(max_fold_retries)
        if max_fold_retries < 0:
            raise ValueError("max_fold_retries must be non-negative")
    return fold_timeout, max_fold_retries


class SupervisedWorkerPool:
    """A process pool with per-fold deadlines, respawn and fold retry.

    Parameters
    ----------
    max_workers:
        Worker process count.
    initializer, initargs:
        Run once in every (re)spawned worker, exactly like the
        ``ProcessPoolExecutor`` initializer.
    fold_timeout:
        Seconds a dispatched fold may run before its worker is killed
        and the fold retried; ``None`` disables deadline enforcement.
    max_fold_retries:
        Crash/timeout retries per fold before it is quarantined as a
        failed evaluation.
    retry_backoff:
        Base of the exponential backoff between retries (seconds).
    heartbeat_seconds:
        Worker liveness period on the result channel; ``0`` disables the
        heartbeat thread (death detection still works via sentinels).
    """

    def __init__(self, max_workers, initializer=None, initargs=(),
                 fold_timeout=None, max_fold_retries=DEFAULT_MAX_FOLD_RETRIES,
                 retry_backoff=DEFAULT_RETRY_BACKOFF,
                 heartbeat_seconds=DEFAULT_HEARTBEAT_SECONDS):
        self.max_workers = int(max_workers)
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.fold_timeout, self.max_fold_retries = supervision_knobs(
            fold_timeout, max_fold_retries
        )
        self.retry_backoff = float(retry_backoff)
        self.heartbeat_seconds = heartbeat_seconds
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._context = get_context()
        self._lock = threading.RLock()
        self._queue = deque()
        self._delayed = []  # heap of (ready_time, tiebreak, job)
        self._jobs = {}  # job_id -> _Job, queued/delayed/running
        self._workers = {}  # sentinel -> _Worker
        self._ids = count()
        self._delay_seq = count()
        self._closed = False
        self._broken = None  # message once the pool gave up (init failures)
        self._init_failures = 0
        self._fault_listener = None
        #: Supervision counters: worker deaths, retries, rebuilds, timeouts.
        self.stats = {"workers_died": 0, "folds_retried": 0,
                      "folds_timed_out": 0, "pools_rebuilt": 0,
                      "folds_quarantined": 0}
        self._wake_r, self._wake_w = os.pipe()
        _LIVE_POOLS.add(self)
        for _ in range(self.max_workers):
            self._spawn_worker()
        self._thread = threading.Thread(
            target=self._supervise, name="pool-supervisor", daemon=True
        )
        self._thread.start()

    # -- public executor API ------------------------------------------------------

    def submit(self, fn, *args, **kwargs):
        """Schedule ``fn(*args, **kwargs)`` on the pool; returns a Future."""
        future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot schedule new futures after shutdown")
            if self._broken is not None:
                raise RuntimeError(self._broken)
            job = _Job(next(self._ids), fn, args, kwargs, future)
            self._jobs[job.id] = job
            self._queue.append(job)
        self._wake()
        return future

    def set_fault_listener(self, listener):
        """Install a callback invoked before every fold retry.

        The backend uses it to repair the data plane (re-publish shm
        segments yanked out from under the workers) so the retried fold
        can actually succeed.  Exceptions are swallowed — a failed repair
        just means the retry fails like the original attempt.
        """
        self._fault_listener = listener

    def shutdown(self, wait=True, cancel_futures=False):
        """Stop accepting work; optionally cancel queued folds and wait."""
        with self._lock:
            if self._closed:
                if wait:
                    self._join(block=True)
                return
            self._closed = True
            cancelled = []
            if cancel_futures:
                cancelled = [job for job in self._jobs.values()
                             if job.future.cancel()]
                for job in cancelled:
                    self._jobs.pop(job.id, None)
                self._queue = deque(
                    job for job in self._queue if job.id in self._jobs
                )
                self._delayed = [
                    entry for entry in self._delayed if entry[2].id in self._jobs
                ]
                heapq.heapify(self._delayed)
        self._wake()
        if wait:
            self._join(block=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown(wait=True)
        return False

    def __repr__(self):
        return "SupervisedWorkerPool(max_workers={}, fold_timeout={})".format(
            self.max_workers, self.fold_timeout
        )

    # -- worker lifecycle ---------------------------------------------------------

    def _spawn_worker(self):
        task_r, task_w = self._context.Pipe(duplex=False)
        result_r, result_w = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(task_r, result_w, self._initializer, self._initargs,
                  self.heartbeat_seconds),
            name="supervised-worker",
            daemon=True,
        )
        process.start()
        # the parent keeps only its own ends, so a dead worker's result
        # pipe reads EOF instead of blocking forever
        task_r.close()
        result_w.close()
        worker = _Worker(process, task_w, result_r)
        self._workers[process.sentinel] = worker
        return worker

    def _on_worker_death(self, worker, reason=None):
        """Remove a dead worker, requeue its fold, respawn a replacement."""
        with self._lock:
            live = self._workers.pop(worker.process.sentinel, None)
            if live is None:
                return  # already handled (sentinel + EOF both fired)
            job, worker.job = worker.job, None
            reason = reason or worker.killing or "crash"
            self.stats["workers_died"] += 1
            pid = worker.process.pid
        for conn in (worker.task_conn, worker.result_conn):
            try:
                conn.close()
            except OSError:
                pass
        worker.process.join(timeout=0.1)
        emit_active("worker_died", worker=pid, reason=reason,
                    fold_job=job.id if job is not None else None)
        if job is not None:
            self._retry_or_quarantine(job, reason)
        with self._lock:
            rebuild = not self._closed and self._broken is None
        if rebuild:
            replacement = self._spawn_worker()
            self.stats["pools_rebuilt"] += 1
            emit_active("pool_rebuilt", dead_worker=pid,
                        new_worker=replacement.process.pid,
                        workers=self.max_workers)

    # -- retry / quarantine -------------------------------------------------------

    def _retry_or_quarantine(self, job, reason):
        if job.attempts >= self.max_fold_retries:
            self.stats["folds_quarantined"] += 1
            attempts = job.attempts + 1
            if job.timed_out or reason == "timeout":
                error = FoldTimeoutError(
                    "fold exceeded the {:g}s fold deadline "
                    "({} attempts)".format(self.fold_timeout, attempts)
                )
            else:
                error = WorkerCrashError(
                    "worker process died while evaluating this fold "
                    "({} attempts)".format(attempts)
                )
            with self._lock:
                self._jobs.pop(job.id, None)
            job.future.set_exception(error)
            return
        job.attempts += 1
        self.stats["folds_retried"] += 1
        delay = self.retry_backoff * (2 ** (job.attempts - 1))
        emit_active("fold_retried", fold_job=job.id, attempt=job.attempts,
                    reason=reason, backoff_seconds=delay)
        listener = self._fault_listener
        if listener is not None:
            try:
                listener()
            except Exception:  # noqa: BLE001 - a failed repair fails the retry, not us
                pass
        with self._lock:
            heapq.heappush(
                self._delayed,
                (time.monotonic() + delay, next(self._delay_seq), job),
            )

    def _mark_broken(self, message):
        """Init failures exhausted the respawn budget: fail everything."""
        with self._lock:
            self._broken = message
            jobs = list(self._jobs.values())
            self._jobs.clear()
            self._queue.clear()
            self._delayed = []
        for job in jobs:
            if not job.future.cancelled():
                try:
                    job.future.set_exception(RuntimeError(message))
                except Exception:  # noqa: BLE001 - already resolved
                    pass

    # -- supervisor thread --------------------------------------------------------

    def _wake(self):
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _idle_worker_locked(self):
        for worker in self._workers.values():
            if worker.ready and worker.job is None and worker.killing is None:
                return worker
        return None

    def _dispatch_locked(self):
        while self._queue:
            worker = self._idle_worker_locked()
            if worker is None:
                # still drain cancelled folds so shutdown never waits on them
                while self._queue and self._queue[0].future.cancelled():
                    job = self._queue.popleft()
                    self._jobs.pop(job.id, None)
                return
            job = self._queue.popleft()
            if not job.started:
                if not job.future.set_running_or_notify_cancel():
                    self._jobs.pop(job.id, None)
                    continue
                job.started = True
            try:
                worker.task_conn.send((job.id, job.fn, job.args, job.kwargs))
            except Exception:  # noqa: BLE001 - the worker died between jobs
                self._queue.appendleft(job)
                dead = worker
                self._lock.release()
                try:
                    self._on_worker_death(dead, reason="crash")
                finally:
                    self._lock.acquire()
                continue
            worker.job = job
            if self.fold_timeout is not None:
                worker.deadline = time.monotonic() + self.fold_timeout

    def _promote_delayed_locked(self, now):
        while self._delayed and self._delayed[0][0] <= now:
            _, _, job = heapq.heappop(self._delayed)
            self._queue.append(job)

    def _check_deadlines(self):
        if self.fold_timeout is None:
            return
        now = time.monotonic()
        expired = []
        with self._lock:
            for worker in self._workers.values():
                if (worker.job is not None and worker.killing is None
                        and worker.deadline is not None and now >= worker.deadline):
                    worker.killing = "timeout"
                    worker.job.timed_out = True
                    expired.append(worker)
        for worker in expired:
            self.stats["folds_timed_out"] += 1
            emit_active("fold_timed_out", worker=worker.process.pid,
                        fold_job=worker.job.id if worker.job else None,
                        timeout_seconds=self.fold_timeout)
            try:
                os.kill(worker.process.pid, signal.SIGKILL)
            except OSError:
                pass  # already gone; the sentinel fires either way

    def _handle_message(self, worker, message):
        kind = message[0]
        if kind == "ready":
            worker.ready = True
        elif kind == "heartbeat":
            worker.last_heartbeat = time.monotonic()
        elif kind == "started":
            if self.fold_timeout is not None and worker.job is not None:
                worker.deadline = time.monotonic() + self.fold_timeout
        elif kind == "init_failed":
            with self._lock:
                self._init_failures += 1
                exhausted = self._init_failures >= _MAX_INIT_FAILURES
            if exhausted:
                self._mark_broken(
                    "worker initializer failed repeatedly:\n{}".format(message[1])
                )
        elif kind in ("done", "error"):
            job_id, result = message[1], message[2]
            with self._lock:
                job = self._jobs.get(job_id)
                worker.job = None
                worker.deadline = None
            if job is None:
                return  # stale result of a job already failed elsewhere
            if kind == "error":
                with self._lock:
                    self._jobs.pop(job.id, None)
                job.future.set_exception(result)
                return
            if (_payload_retriable(result)
                    and job.attempts < self.max_fold_retries):
                self._retry_or_quarantine(job, "retriable-payload")
                return
            with self._lock:
                self._jobs.pop(job.id, None)
            job.future.set_result(result)

    def _drain_conn(self, worker):
        while True:
            try:
                if not worker.result_conn.poll():
                    return True
                message = worker.result_conn.recv()
            except (EOFError, OSError):
                return False  # channel is dead; the sentinel path cleans up
            self._handle_message(worker, message)

    def _supervise(self):
        while True:
            with self._lock:
                now = time.monotonic()
                self._promote_delayed_locked(now)
                self._dispatch_locked()
                if self._closed and not self._jobs:
                    break
                if self._broken is not None and self._closed:
                    break
                timeout = _TICK_SECONDS
                wait_for = [self._wake_r]
                for worker in self._workers.values():
                    wait_for.append(worker.result_conn)
                    wait_for.append(worker.process.sentinel)
                    if worker.job is not None and worker.deadline is not None:
                        timeout = min(timeout, max(worker.deadline - now, 0.0))
                if self._delayed:
                    timeout = min(timeout, max(self._delayed[0][0] - now, 0.0))
            try:
                ready = _mp_connection.wait(wait_for, timeout)
            except OSError:
                ready = []
            dead = []
            for item in ready:
                if item == self._wake_r:
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:
                        pass
                    continue
                with self._lock:
                    by_sentinel = self._workers.get(item)
                if by_sentinel is not None:
                    dead.append(by_sentinel)
                    continue
                with self._lock:
                    owner = next(
                        (worker for worker in self._workers.values()
                         if worker.result_conn is item), None,
                    )
                if owner is not None and not self._drain_conn(owner):
                    dead.append(owner)
            for worker in dead:
                # give the dying worker's final messages a chance to land
                # (a clean result beats a spurious retry)
                self._drain_conn(worker)
                self._on_worker_death(worker)
            self._check_deadlines()
        self._stop_workers()

    def _stop_workers(self):
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            try:
                worker.task_conn.send(None)
            except Exception:  # noqa: BLE001 - already dead is fine at shutdown
                pass
        deadline = time.monotonic() + _JOIN_SECONDS
        for worker in workers:
            worker.process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=1.0)
            for conn in (worker.task_conn, worker.result_conn):
                try:
                    conn.close()
                except OSError:
                    pass

    def _join(self, block):
        self._thread.join(timeout=None if block else 0.0)
        try:
            os.close(self._wake_r)
            os.close(self._wake_w)
        except OSError:
            pass
