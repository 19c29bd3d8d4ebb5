"""The process pool: fold deadlines, worker respawn, retry + quarantine.

Every process-backed search — a solo ``ProcessBackend`` and every process
fleet — runs its folds on :class:`SupervisedWorkerPool`; supervision is not
a mode.  The standard library's process pool executor has a brittle
failure mode for a long-running AutoML service: one SIGKILLed worker
breaks the *whole pool* (every pending future fails with
``BrokenProcessPool`` and the executor refuses new work), and a hung fold
— a native-code deadlock, a runaway fit — stalls the sliding-window search
forever because nothing enforces a deadline.  An unpicklable job fails
alone, with the pickling error, as it would there.

:class:`SupervisedWorkerPool` is an executor (``submit`` / ``shutdown``
with real :class:`concurrent.futures.Future` objects) that owns its worker
processes directly, one task pipe and one result pipe per worker, so a
killed worker corrupts only its own channels:

* **fold deadlines** — with a ``fold_timeout``, a supervisor thread tracks
  how long each dispatched fold has been running, counted from the
  ``started`` message the worker sends on its result pipe when it picks
  the fold up; past it the offending worker is SIGKILLed and the fold
  handled like any worker death (``None``, the default, sets no deadline);
* **pool rebuild** — a dead worker (crash, kill, deadline) is detected
  through its process sentinel or EOF on its result pipe and replaced
  with a freshly spawned worker immediately; the in-flight fold of the
  dead worker is requeued while folds on the surviving workers keep
  running — the rebuild is a per-worker respawn, never an executor-wide
  collapse;
* **retry with exponential backoff + poison-fold quarantine** — a
  requeued fold waits ``DEFAULT_RETRY_BACKOFF * 2**(attempt-1)`` seconds,
  and a fold that crashes its worker more than ``max_fold_retries`` times is
  completed with a :class:`WorkerCrashError` (or
  :class:`FoldTimeoutError`), which the pool machinery records as a
  failed evaluation through the existing ``record_failure`` path.

The pool's one queue is a :class:`FairShareQueue`: when a worker frees, it
takes the next job by stride order over the pool's tenants.  A tenant is
one record, returned by :meth:`SupervisedWorkerPool.add_tenant` (a fleet
registers one per search): its queue, pass value and counters, and its
executor — ``submit`` queues a job for it, ``shutdown`` releases it.  Plain
:meth:`SupervisedWorkerPool.submit` queues for the pool's own tenant, so
with no other tenant the order is submission order.  A job can be
cancelled until a worker takes it, and a cancelled job never reaches a
worker.

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
from multiprocessing.reduction import ForkingPickler

from repro.telemetry.sink import emit_active

#: Crash retries per fold before quarantine (one retry for transients).
DEFAULT_MAX_FOLD_RETRIES = 1

#: Base of the exponential retry backoff (seconds).
DEFAULT_RETRY_BACKOFF = 0.05

#: Supervisor poll tick when nothing else bounds the wait (seconds).
_TICK_SECONDS = 0.5

#: Consecutive worker-initializer failures before the pool gives up.
_MAX_INIT_FAILURES = 3

#: Seconds granted to workers to exit cleanly at shutdown before SIGKILL.
_JOIN_SECONDS = 5.0

#: Pass-value charge for a tenant's first folds, before any measured cost
#: seeds the EWMA (seconds; only the ratio across tenants matters).
_DEFAULT_FOLD_COST = 0.01

#: EWMA retention for the per-tenant fold-cost estimate.
_COST_EWMA_DECAY = 0.7


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


def _worker_main(task_conn, result_conn, initializer, coordinator_ends):
    """Worker process main loop: recv a fold job, run it, send the payload.

    The worker is single-threaded: it sends the ``started`` marker, then
    the result, on its result pipe.  A send failure means the coordinator
    is gone, so the worker exits hard rather than computing for nobody;
    so does EOF on the task pipe, once the worker has closed the
    ``coordinator_ends`` it inherited through ``fork``.
    """
    from repro.automl import faultinject

    for end in coordinator_ends:
        end.close()

    def send(message):
        try:
            result_conn.send(message)
        except Exception:  # noqa: BLE001 - the coordinator vanished
            os._exit(1)

    try:
        if initializer is not None:
            initializer()
        else:
            # the initializer normally arms the fault plan; without one
            # the env-configured hook still has to reach this worker
            faultinject.install_from_env()
    except BaseException:  # noqa: BLE001 - init failures are reported, not raised
        send(("init_failed", traceback.format_exc()))
        return

    send(("ready",))

    while True:
        try:
            message = task_conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        job_id, fn, args, kwargs = message
        send(("started", job_id))
        try:
            result = fn(*args, **kwargs)
        except BaseException as failure:  # noqa: BLE001 - shipped back, never fatal here
            try:
                import pickle

                pickle.dumps(failure)
            except Exception:  # noqa: BLE001 - unpicklable exceptions degrade
                failure = RuntimeError(repr(failure))
            send(("error", job_id, failure))
        else:
            send(("done", job_id, result))


class _Worker:
    """Coordinator-side bookkeeping for one worker process."""

    __slots__ = ("process", "task_conn", "result_conn", "job", "deadline",
                 "ready", "killing")

    def __init__(self, process, task_conn, result_conn):
        self.process = process
        self.task_conn = task_conn
        self.result_conn = result_conn
        self.job = None
        self.deadline = None
        self.ready = False
        self.killing = None  # why this worker was deliberately killed


class _Job:
    """One submitted fold: the callable, its future, its tenant and its retry state."""

    __slots__ = ("id", "fn", "args", "kwargs", "future", "tenant", "estimate",
                 "attempts", "timed_out")

    def __init__(self, job_id, fn, args, kwargs, future, tenant):
        self.id = job_id
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.future = future
        self.tenant = tenant
        self.estimate = 0.0  # the cost charged to the tenant when a worker took it
        self.attempts = 0
        self.timed_out = False


class _Tenant:
    """One tenant of the pool: its queued jobs, its pass, its counters and its executor.

    :meth:`SupervisedWorkerPool.add_tenant` returns this record, and it is
    all the pool, a fleet and a tenant's backend keep of a tenant:
    :meth:`submit` queues a job for it and :meth:`shutdown` releases it.
    """

    __slots__ = ("name", "weight", "queue", "pass_value", "cost_ewma", "inflight",
                 "folds_dispatched", "fold_seconds", "queue_hwm", "pool")

    def __init__(self, name, weight, pass_value):
        self.name = name
        self.weight = weight
        self.queue = deque()
        self.pass_value = pass_value
        self.cost_ewma = None
        self.inflight = 0  # taken by a worker and not settled yet
        self.folds_dispatched = 0
        self.fold_seconds = 0.0
        self.queue_hwm = 0
        self.pool = None  # the pool that registered it

    def active(self):
        """Whether a job of the tenant is on a worker, or queued and not cancelled."""
        return self.inflight > 0 or any(not job.future.cancelled() for job in self.queue)

    def submit(self, fn, /, *args, **kwargs):
        """Queue ``fn(*args, **kwargs)`` on the pool for this tenant; returns a Future.

        The future can be cancelled until a worker takes the job.
        """
        pool = self.pool
        future = Future()
        with pool._lock:
            if pool._closed:
                raise RuntimeError("cannot schedule new futures after shutdown")
            if pool._broken is not None:
                raise RuntimeError(pool._broken)
            depth = pool._queue.push(_Job(next(pool._ids), fn, args, kwargs, future, self))
            # under the lock, so a job's enqueue event precedes its dispatch event
            emit_active("fleet_queue_depth", tenant=self.name, depth=depth)
        pool._wake()
        return future

    def shutdown(self, wait=True, cancel_futures=True):
        """Release the tenant and cancel its queued jobs; the pool runs on.

        The jobs workers already took run to completion.
        """
        for future in self.pool.release_tenant(self):
            future.cancel()


class FairShareQueue:
    """The pool's dispatch order: stride scheduling with deficit correction.

    Every job belongs to a tenant, and each tenant carries a *pass* value.
    When a worker frees, the backlogged tenant with the lowest pass gives
    up its oldest job, and its pass advances by the job's cost divided by
    the tenant's weight.  Costs are not known up front — fold costs are
    exactly the skew fold-level dispatch exists for — so a job is charged
    an EWMA *estimate* of the tenant's recent fold cost when a worker takes
    it, and the difference to its measured cost is charged back when it
    completes (the deficit correction).  An expensive tenant therefore
    consumes its share in few large folds while cheap tenants stream many
    small ones through the same workers — skew-aware fairness in the sense
    of "Skew in Parallel Query Processing" — and because the lowest pass
    always advances, no backlogged tenant starves.

    A tenant that registers, or queues a job after sitting idle, starts
    from the lowest pass among the *active* tenants (a job on a worker, or
    one queued that is not cancelled): it owes nothing for history it did
    not see, and a low pass it kept while idle buys it no burst.  With no
    tenant active the pool is idle and owes no one anything: the tenant
    starts from the highest pass.  One tenant's jobs leave in submission
    order.

    Not thread-safe: the pool calls it under its lock.
    """

    def __init__(self):
        #: The registered tenants, in registration order.
        self.tenants = []
        #: Jobs a worker took before (a crashed fold's retry, or one whose
        #: worker died before receiving it): they go ahead of every
        #: tenant's queue and are never charged again.
        self.retries = deque()

    def __bool__(self):
        return bool(self.retries) or any(tenant.queue for tenant in self.tenants)

    def _floor(self):
        """The pass a tenant turning active starts from (see the class docstring)."""
        active = [tenant.pass_value for tenant in self.tenants if tenant.active()]
        if active:
            return min(active)
        return max((tenant.pass_value for tenant in self.tenants), default=0.0)

    def add_tenant(self, name, weight=1.0):
        """Register a tenant at the active tenants' lowest pass; returns its :class:`_Tenant`."""
        weight = float(weight)
        if not weight > 0:
            raise ValueError("tenant weight must be positive")
        tenant = _Tenant(name, weight, self._floor())
        self.tenants.append(tenant)
        return tenant

    def release(self, tenant):
        """Unregister ``tenant``; returns its queued jobs, which no worker will take."""
        if tenant in self.tenants:
            self.tenants.remove(tenant)
        stranded = list(tenant.queue)
        tenant.queue.clear()
        return stranded

    def push(self, job):
        """Queue ``job`` behind its tenant's earlier jobs; returns the tenant's depth."""
        tenant = job.tenant
        if tenant not in self.tenants:
            raise RuntimeError("tenant {!r} is no longer registered".format(tenant.name))
        if not tenant.active():
            tenant.pass_value = max(tenant.pass_value, self._floor())
        tenant.queue.append(job)
        depth = len(tenant.queue) + tenant.inflight
        tenant.queue_hwm = max(tenant.queue_hwm, depth)
        return depth

    def pop(self):
        """The job a free worker takes next, or ``None`` when nothing is queued.

        A job cancelled while queued is dropped here and costs nothing; the
        one picked turns running, so it can no longer be cancelled.
        """
        if self.retries:
            return self.retries.popleft()
        while True:
            backlogged = [tenant for tenant in self.tenants if tenant.queue]
            if not backlogged:
                return None
            tenant = min(backlogged, key=lambda other: (other.pass_value, other.name))
            job = tenant.queue.popleft()
            if job.future.set_running_or_notify_cancel():
                break
        job.estimate = _DEFAULT_FOLD_COST if tenant.cost_ewma is None else tenant.cost_ewma
        tenant.pass_value += job.estimate / tenant.weight
        tenant.inflight += 1
        tenant.folds_dispatched += 1
        return job

    def drain(self):
        """Take every tenant's queued jobs out (the retries stay); returns them."""
        jobs = [job for tenant in self.tenants for job in tenant.queue]
        for tenant in self.tenants:
            tenant.queue.clear()
        return jobs

    @staticmethod
    def settle(job, cost=None):
        """A taken job is done: re-charge it at its measured ``cost`` seconds, if any.

        The deficit correction replaces the estimate the job was charged
        when a worker took it, so systematic under- or over-estimates never
        distort the shares; a job without a measurement keeps its estimate.
        """
        tenant = job.tenant
        tenant.inflight -= 1
        if cost is not None:
            tenant.fold_seconds += cost
            tenant.pass_value += (cost - job.estimate) / tenant.weight
            tenant.cost_ewma = cost if tenant.cost_ewma is None else (
                _COST_EWMA_DECAY * tenant.cost_ewma + (1.0 - _COST_EWMA_DECAY) * cost)


def _payload_retriable(result):
    """Whether a fold payload reports a retriable infrastructure failure."""
    if isinstance(result, dict):
        return bool(result.get("retriable")) and bool(result.get("error"))
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
    initializer:
        Called with no arguments once in every (re)spawned worker, like a
        standard library process pool's initializer.
    fold_timeout:
        Seconds a dispatched fold may run before its worker is killed
        and the fold retried; ``None`` disables deadline enforcement.
    max_fold_retries:
        Crash/timeout retries per fold before it is quarantined as a
        failed evaluation; ``None`` means :data:`DEFAULT_MAX_FOLD_RETRIES`.
    """

    def __init__(self, max_workers, initializer=None, fold_timeout=None,
                 max_fold_retries=None):
        self.max_workers = int(max_workers)
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.fold_timeout, retries = supervision_knobs(fold_timeout, max_fold_retries)
        self.max_fold_retries = DEFAULT_MAX_FOLD_RETRIES if retries is None else retries
        self._initializer = initializer
        self._context = get_context()
        self._lock = threading.RLock()
        self._queue = FairShareQueue()
        self._own_tenant = None  # plain submit()'s tenant, registered on first use
        self._tenant_ids = count()
        self._delayed = []  # heap of (ready_time, tiebreak, job)
        self._jobs = {}  # job_id -> _Job a worker took: running or awaiting its retry
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
        self._thread = threading.Thread(
            target=self._supervise, name="pool-supervisor", daemon=True
        )
        try:
            for _ in range(self.max_workers):
                self._spawn_worker()
            self._thread.start()
        except BaseException:
            # a fork that fails partway (EAGAIN) leaves no worker or pipe behind
            self._stop_workers()
            os.close(self._wake_r)
            os.close(self._wake_w)
            raise
        _LIVE_POOLS.add(self)

    # -- public executor API ------------------------------------------------------

    def submit(self, fn, /, *args, **kwargs):
        """Schedule ``fn(*args, **kwargs)`` for the pool's own tenant; returns a Future.

        With no other tenant registered, jobs reach the workers in
        submission order.
        """
        with self._lock:
            if self._own_tenant is None:
                self._own_tenant = self.add_tenant("default")
        return self._own_tenant.submit(fn, *args, **kwargs)

    def add_tenant(self, name=None, weight=1.0):
        """Register a tenant of the fair-share order; returns its record (:class:`_Tenant`).

        An unnamed tenant is named ``tenant-N``; a name already registered
        is refused.  ``weight`` scales the tenant's share of worker time
        under contention.
        """
        with self._lock:
            if name is None:
                name = "tenant-{}".format(next(self._tenant_ids))
            if any(tenant.name == name for tenant in self._queue.tenants):
                raise ValueError("tenant {!r} is already registered".format(name))
            tenant = self._queue.add_tenant(name, weight)
            tenant.pool = self
            return tenant

    def tenants(self):
        """The registered tenants' records, in registration order."""
        with self._lock:
            return list(self._queue.tenants)

    def release_tenant(self, tenant):
        """Unregister ``tenant``; returns the futures of its queued jobs, for the caller to settle.

        No worker takes those jobs any more; the ones workers already took
        run to completion.
        """
        with self._lock:
            return [job.future for job in self._queue.release(tenant)]

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
            if cancel_futures:
                for job in self._queue.drain():
                    job.future.cancel()
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
        # a forked child inherits every coordinator-side end open at the
        # fork: its own and its older siblings'.  It closes them first, so
        # a coordinator that dies leaves no writer on any task pipe and
        # every worker reads EOF instead of outliving it
        with self._lock:
            coordinator_ends = [task_w, result_r] + [
                end for worker in self._workers.values()
                for end in (worker.task_conn, worker.result_conn)
            ]
        process = self._context.Process(
            target=_worker_main,
            args=(task_r, result_w, self._initializer, coordinator_ends),
            name="supervised-worker",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            task_w.close()
            result_r.close()
            raise
        finally:
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
                self._settle_locked(job)
            job.future.set_exception(error)
            return
        job.attempts += 1
        self.stats["folds_retried"] += 1
        delay = DEFAULT_RETRY_BACKOFF * (2 ** (job.attempts - 1))
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
            jobs = list(self._jobs.values()) + self._queue.drain()
            self._jobs.clear()
            self._queue.retries.clear()
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
        """Hand every idle worker the next job of the fair-share order."""
        while True:
            worker = self._idle_worker_locked()
            job = self._queue.pop() if worker is not None else None
            if job is None:
                return
            first = job.id not in self._jobs  # its first dispatch, not a retry
            self._jobs[job.id] = job
            try:
                message = ForkingPickler.dumps((job.id, job.fn, job.args, job.kwargs))
            except Exception as failure:  # noqa: BLE001 - the job's outcome, not a death
                # nothing reached the worker: an unpicklable job fails alone
                # instead of passing for a dead worker, respawned without end
                if first:
                    job.tenant.folds_dispatched -= 1
                self._settle_locked(job)
                job.future.set_exception(failure)
                continue
            if first:
                emit_active("fleet_admission", tenant=job.tenant.name,
                            estimate=job.estimate, pass_value=job.tenant.pass_value)
            try:
                worker.task_conn.send_bytes(message)
            except Exception:  # noqa: BLE001 - the worker died between jobs
                self._queue.retries.appendleft(job)
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
            self._queue.retries.append(job)

    def _settle_locked(self, job, cost=None):
        """A taken job leaves the pool: free its tenant's slot, correct its charge."""
        self._jobs.pop(job.id, None)
        self._queue.settle(job, cost)
        tenant = job.tenant
        emit_active("fleet_pass_value", tenant=tenant.name, cost=cost,
                    pass_value=tenant.pass_value, cost_ewma=tenant.cost_ewma)

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
                    self._settle_locked(job)
                job.future.set_exception(result)
                return
            if (_payload_retriable(result)
                    and job.attempts < self.max_fold_retries):
                self._retry_or_quarantine(job, "retriable-payload")
                return
            # a fold payload carries its own compute seconds, not queue wait
            cost = float(result.get("elapsed") or 0.0) if isinstance(result, dict) else None
            with self._lock:
                self._settle_locked(job, cost)
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
                if self._closed and not self._jobs and not self._queue:
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
            for conn in (worker.task_conn, worker.result_conn, worker.process):
                try:
                    conn.close()  # a process closes its sentinel
                except (OSError, ValueError):
                    pass  # ValueError: a process that outlived its kill

    def _join(self, block):
        self._thread.join(timeout=None if block else 0.0)
        try:
            os.close(self._wake_r)
            os.close(self._wake_w)
        except OSError:
            pass
