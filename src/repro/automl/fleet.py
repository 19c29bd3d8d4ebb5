"""Multi-tenant search coordination: N concurrent searches, one worker fleet.

The paper's AutoBazaar deployment is a *service*: many users submit tasks
and one cluster evaluates all of their pipelines.  This module is that
coordinator: a long-running :class:`FleetCoordinator` owns ONE worker pool,
one task data plane and one disk prefix-cache directory, and
multiplexes any number of concurrent tenant searches over them.  It is
also the only process stack: a solo ``backend="process"`` search is a
fleet of one (:class:`~repro.automl.backends.ProcessBackend` is tenant
``"default"`` of a private coordinator).

Scheduling is two-level:

fair share (this module)
    Fold submissions from every tenant land in per-tenant queues and are
    admitted to the shared executor by **stride scheduling with deficit
    correction**: each tenant carries a *pass* value, the tenant with the
    lowest pass is admitted next, and its pass advances by the fold's cost
    divided by the tenant's weight.  Costs are not known up front — fold
    costs are exactly the skew the work-stealing layer exists for — so a
    fold is charged an EWMA *estimate* of the tenant's recent fold cost at
    admission and the difference to its measured cost is charged back when
    it completes (the deficit correction).  An expensive tenant therefore
    consumes its share in few large folds while cheap tenants stream many
    small ones through the same workers — skew-aware fairness in the sense
    of "Skew in Parallel Query Processing" — and because the lowest pass
    always advances, no backlogged tenant starves.  Weights are
    configurable per tenant; a newly registered tenant joins at the
    current minimum pass so it owes nothing for history it did not see.

work stealing (the executor)
    Admitted folds enter the shared executor's single queue, where any
    idle worker picks them up — the fold-level work-stealing dispatch of
    :mod:`repro.automl.backends`, unchanged.

Admission is bounded once, globally: at most twice the worker count folds
are admitted at a time — enough queued work that workers never idle
between admissions, few enough that the fair-share layer keeps control of
the interleave instead of dumping every queue into the executor.  No
tenant has a cap of its own; the stride order is what keeps an expensive
or bursty tenant from crowding out the others.  A tenant's fold is a stdlib
:class:`~concurrent.futures.Future` that can be cancelled until it is
admitted: a failing fold cancelling its later siblings and a released
tenant both cancel folds in the fair-share queue before they ever reach
the executor.  An admitted fold runs to completion.

Determinism: the fleet changes *where and when* folds run, never what is
reported.  Each tenant search keeps its own tuners, selector, RNG and
reorder buffer, and the sliding-window loop reports strictly in proposal
order — so a tenant's record stream is bit-identical to the same search
run solo (for seeded pipelines), no matter how the fleet interleaves its
folds with other tenants'.  Wall-clock interleaving is of
course shared; only the *stream content* is solo-identical.
"""

import shutil
import threading
from collections import OrderedDict, deque
from concurrent.futures import CancelledError, Future
from functools import partial
from itertools import count

from repro.automl import shm
from repro.automl.backends import (
    _WORKER_TASK_CACHE_SIZE,
    TenantBackend,
    _start_worker,
    # unused here, but bench_e2e/tracing.py patches this module attribute
    evaluate_fold_indices,  # noqa: F401
    resolve_workers,
)
from repro.automl.config import ExecutionConfig
from repro.automl.prefix_cache import open_cache_dir
from repro.automl.supervisor import SupervisedWorkerPool
from repro.lazyimport import import_module
from repro.telemetry.sink import emit_active

#: Pass-value charge for a tenant's first folds, before any measured cost
#: seeds the EWMA (seconds; only the ratio across tenants matters).
_DEFAULT_FOLD_COST = 0.01

#: EWMA retention for the per-tenant fold-cost estimate.
_COST_EWMA_DECAY = 0.7


class _FoldJob:
    """One fold submission waiting in (or admitted from) a tenant queue."""

    __slots__ = ("future", "fn", "args", "kwargs", "tenant", "estimate")

    def __init__(self, future, fn, args, kwargs, tenant):
        self.future = future
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.tenant = tenant
        self.estimate = 0.0


class _TenantState:
    """Fair-share accounting for one registered tenant."""

    def __init__(self, name, weight):
        self.name = name
        self.weight = float(weight)
        self.queue = deque()
        self.inflight = 0
        self.pass_value = 0.0
        self.cost_ewma = None
        self.active = True
        # observability counters surfaced through tenant_stats()
        self.queue_hwm = 0
        self.folds_dispatched = 0
        self.fold_seconds = 0.0
        self.plane_counts = {}
        self.seen_tasks = set()


class FleetCoordinator:
    """One shared worker fleet multiplexing many concurrent searches.

    Owns a single executor — a
    :class:`~repro.automl.supervisor.SupervisedWorkerPool` of worker
    processes —, the data plane that ships tasks to its workers, and — when
    ``prefix_cache="disk"`` — one shared cache directory every tenant's
    workers read and write (:attr:`cache_dir`; pass it as the searches'
    ``cache_dir``).  :meth:`register` returns a
    :class:`~repro.automl.backends.TenantBackend` to run a search on;
    tenants come and go while the pool keeps running.

    Parameters
    ----------
    backend, **execution:
        The execution knobs (see
        :class:`~repro.automl.config.ExecutionConfig`), kept as
        :attr:`execution`; ``"process"``, the default, is the only backend
        a fleet takes.  The fleet itself reads the pool-level ones
        (``workers``; ``fold_timeout``, a per-fold deadline, default none,
        and ``max_fold_retries``, default 1 — a tenant whose fold SIGKILLs
        a worker costs the fleet one respawn and one retried fold, never a
        broken pool for every tenant; and ``prefix_cache`` / ``cache_dir``:
        with ``"disk"`` and no directory the coordinator creates, and
        removes on close, one shared directory, so all tenants' workers
        reuse each other's fitted prefixes); the others configure the
        tenants' searches.
    """

    def __init__(self, backend="process", **execution):
        config = ExecutionConfig.from_keywords(execution, backend=backend)
        if config.backend != "process":
            raise ValueError(
                "a fleet needs the 'process' backend, not {!r}".format(config.backend))
        workers = resolve_workers(config.workers)
        # every argument is valid by now: nothing below raises for a bad
        # one after a worker, a thread or a directory exists
        self.execution = config
        self.workers = workers
        # one queued fold per worker behind the running ones
        self._max_admitted = 2 * workers
        self._lock = threading.Lock()
        self._tenants = {}
        self._admitted = 0
        self._closed = False
        self._tenant_ids = count()
        # the process data plane: the coordinator-side LRU of published
        # tasks, id(task) -> segment, shared by every tenant thread
        self._transport_lock = threading.Lock()
        self._segments = OrderedDict()
        #: Tasks the segment LRU keeps published before evicting the oldest.
        self.transport_capacity = _WORKER_TASK_CACHE_SIZE
        # reclaim segments leaked by coordinators that died without
        # their atexit hook (SIGKILL, power loss) before publishing new ones
        shm.sweep_stale_segments()
        # companion of the sweep above: reclaim cache temp files orphaned by killed writers
        self.cache_dir, self._owned_cache_dir = open_cache_dir(
            config.prefix_cache, config.cache_dir, "repro-fleet-cache-")
        self._executor = self._make_pool()

    def _make_pool(self):
        """The fleet's supervised worker pool; tests override it to script the executor."""
        # forked workers inherit this process's modules; one that a fold
        # imports on first use would be imported by every worker of every
        # pool instead.  networkx.pagerank (graph features) imports
        # scipy.sparse, the one such module in the catalog.
        import_module("scipy.sparse")
        pool = SupervisedWorkerPool(
            max_workers=self.workers, initializer=_start_worker,
            fold_timeout=self.execution.fold_timeout,
            max_fold_retries=self.execution.max_fold_retries,
        )
        pool.set_fault_listener(self._repair_data_plane)
        return pool

    # -- tenant lifecycle ---------------------------------------------------------

    def register(self, name=None, weight=1.0):
        """Register a tenant; returns its :class:`~repro.automl.backends.TenantBackend`.

        ``weight`` scales the tenant's fair share (a weight-2 tenant gets
        twice the fold throughput of a weight-1 tenant under contention).
        """
        return TenantBackend(self, self._add_tenant(name, weight))

    def _add_tenant(self, name=None, weight=1.0):
        """The fair-share state of a newly registered tenant (see :meth:`register`)."""
        weight = float(weight)
        if not weight > 0:
            raise ValueError("tenant weight must be positive")
        with self._lock:
            if self._closed:
                raise RuntimeError("the fleet coordinator is closed")
            if name is None:
                name = "tenant-{}".format(next(self._tenant_ids))
            if name in self._tenants:
                raise ValueError("tenant {!r} is already registered".format(name))
            state = _TenantState(name, weight)
            active = [tenant.pass_value for tenant in self._tenants.values()]
            # join at the current minimum pass: a newcomer owes nothing for
            # throughput it never consumed, and cannot monopolize either
            state.pass_value = min(active) if active else 0.0
            self._tenants[name] = state
            # the segment LRU must span both partitions of every
            # registered tenant at once — the training partition its folds
            # read and the held-out one its refit scores on — or registering
            # many tenants would evict segments with jobs still in flight
            self.transport_capacity = max(self.transport_capacity, 2 * len(self._tenants) + 1)
        return state

    def _release_tenant(self, state):
        with self._lock:
            if not state.active:
                return
            state.active = False
            self._tenants.pop(state.name, None)
            stranded = list(state.queue)
            state.queue.clear()
            admissions = self._admit_locked()
        for job in stranded:
            # queued folds of a released tenant are cancelled, which
            # completes their candidate futures through the normal
            # cancellation path; already-admitted folds finish on the pool
            job.future.cancel()
        self._launch(admissions)

    def tenants(self):
        """Names of the currently registered tenants (sorted)."""
        with self._lock:
            return sorted(self._tenants)

    # -- fair-share scheduling ----------------------------------------------------

    def _enqueue(self, state, fn, args, kwargs):
        future = Future()
        with self._lock:
            if self._closed or not state.active:
                raise RuntimeError(
                    "tenant {!r} is no longer registered with the fleet".format(state.name)
                )
            state.queue.append(_FoldJob(future, fn, args, kwargs, state))
            depth = len(state.queue) + state.inflight
            if depth > state.queue_hwm:
                state.queue_hwm = depth
            admissions = self._admit_locked()
        emit_active("fleet_queue_depth", tenant=state.name, depth=depth)
        self._launch(admissions)
        return future

    def _admit_locked(self):
        """Pick queued folds to admit (stride order); call under the lock.

        An admitted fold's future turns *running*, so it can no longer be
        cancelled.  Returns the admitted jobs for :meth:`_launch` to submit
        *after* the lock is released — executor submission and done-callback
        attachment must never run under the fleet lock (a future that is
        already done runs its callbacks synchronously).
        """
        admissions = []
        while self._admitted < self._max_admitted:
            best = None
            for state in self._tenants.values():
                if state.queue and (best is None or (state.pass_value, state.name)
                                    < (best.pass_value, best.name)):
                    best = state
            if best is None:
                break
            job = best.queue.popleft()
            if not job.future.set_running_or_notify_cancel():
                continue  # cancelled while queued; costs nothing
            job.estimate = (
                best.cost_ewma if best.cost_ewma is not None else _DEFAULT_FOLD_COST
            )
            best.pass_value += job.estimate / best.weight
            best.inflight += 1
            best.folds_dispatched += 1
            self._admitted += 1
            admissions.append(job)
        return admissions

    def _launch(self, admissions):
        for job in admissions:
            emit_active(
                "fleet_admission", tenant=job.tenant.name,
                estimate=job.estimate, pass_value=job.tenant.pass_value,
            )
            try:
                real = self._executor.submit(job.fn, *job.args, **job.kwargs)
            except Exception as failure:  # noqa: BLE001 - submit failures are data
                with self._lock:
                    self._retire_locked(job, None)
                job.future.set_exception(failure)
                continue
            real.add_done_callback(partial(self._job_done, job))

    def _retire_locked(self, job, actual):
        state = job.tenant
        state.inflight -= 1
        self._admitted -= 1
        if actual is not None:
            state.fold_seconds += actual
            # deficit correction: re-charge the fold at its measured cost
            # instead of the estimate it was admitted at, so systematic
            # under/over-estimates never distort the shares
            state.pass_value += (actual - job.estimate) / state.weight
            state.cost_ewma = (
                actual if state.cost_ewma is None
                else _COST_EWMA_DECAY * state.cost_ewma + (1.0 - _COST_EWMA_DECAY) * actual
            )

    def _job_done(self, job, real):
        """Done-callback of an executor job: free its slot, then settle the tenant's fold.

        Accounting first: by the time the tenant's fold-done callback
        fires, the freed slot has been re-admitted.  A job the pool
        cancelled at shutdown settles the fold with a ``CancelledError``.
        """
        actual = _measured_cost(real)
        with self._lock:
            self._retire_locked(job, actual)
            admissions = self._admit_locked()
        emit_active(
            "fleet_pass_value", tenant=job.tenant.name, cost=actual,
            pass_value=job.tenant.pass_value, cost_ewma=job.tenant.cost_ewma,
        )
        self._launch(admissions)
        if real.cancelled():
            job.future.set_exception(
                CancelledError("the backend was shut down before this fold ran"))
        elif real.exception() is not None:
            job.future.set_exception(real.exception())
        else:
            job.future.set_result(real.result())

    # -- data plane ---------------------------------------------------------------

    def _task_ref(self, task, state):
        """The handle every job of a tenant's ``task`` ships with, tallied per tenant.

        The fleet publishes every task once as one read-only mapped file
        (:func:`repro.automl.shm.publish_task`) and ships its picklable
        :class:`~repro.automl.shm.SharedTaskHandle`; a publication that
        fails in both segment directories raises, and the submitting job
        records it as its error.
        """
        with self._transport_lock:
            ref = self._published(task)
        with self._lock:
            if id(task) not in state.seen_tasks:
                state.seen_tasks.add(id(task))
                state.plane_counts["shm"] = state.plane_counts.get("shm", 0) + 1
        return ref

    def _published(self, task):
        """``task``'s live segment handle, published on first use.

        Call under the transport lock.  Each segment holds its task, which
        keeps the ``id`` it is keyed by valid for as long as the entry lives.
        """
        segment = self._segments.get(id(task))
        if segment is not None:
            self._segments.move_to_end(id(task))
            return segment.handle
        segment = shm.publish_task(task)
        self._segments[id(task)] = segment
        emit_active("shm_publish", task=getattr(task, "name", None),
                    plane_counts={"shm": len(self._segments)})
        while len(self._segments) > self.transport_capacity:
            _, stale = self._segments.popitem(last=False)
            stale.release()
        return segment.handle

    def _repair_data_plane(self):
        """Re-publish any segment whose file went missing.

        The pool calls this before retrying a fold, so a segment unlinked
        out from under the workers (a crashed writer, a fault-injection
        unlink) is written again under its name and the retried fold can
        attach again.
        """
        with self._transport_lock:
            segments = list(self._segments.values())
        for segment in segments:
            try:
                segment.ensure_published()
            except Exception:  # noqa: BLE001 - a failed repair fails the retry, not us
                pass

    # -- observability ------------------------------------------------------------

    def _tenant_stats(self, state, since=None):
        """A tenant's counters and the pool's, or what accrued after the earlier result ``since``.

        Folds, fold seconds, planes (only those used) and pool incidents
        are lifetime counts, differenced against ``since``; the settings
        and the queue high-water mark are reported as they are now.
        """
        with self._lock:
            stats = {
                "tenant": state.name,
                "weight": state.weight,
                "folds_dispatched": state.folds_dispatched,
                "fold_seconds": state.fold_seconds,
                "queue_depth_hwm": state.queue_hwm,
                "plane_counts": dict(state.plane_counts),
            }
        stats["supervisor"] = self.supervisor_stats
        if since is not None:
            stats["folds_dispatched"] -= since["folds_dispatched"]
            stats["fold_seconds"] -= since["fold_seconds"]
            before = since["plane_counts"]
            stats["plane_counts"] = {
                plane: count - before.get(plane, 0)
                for plane, count in stats["plane_counts"].items()
                if count > before.get(plane, 0)
            }
            stats["supervisor"] = {
                name: count - since["supervisor"][name]
                for name, count in stats["supervisor"].items()
            }
        return stats

    def stats(self):
        """Per-tenant counters for every currently registered tenant."""
        with self._lock:
            states = list(self._tenants.values())
        return {state.name: self._tenant_stats(state) for state in states}

    @property
    def supervisor_stats(self):
        """The pool's supervision counters."""
        return dict(self._executor.stats)

    # -- lifecycle ----------------------------------------------------------------

    def close(self):
        """Release every tenant, the pool, the data plane and the owned cache dir."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            states = list(self._tenants.values())
        for state in states:
            self._release_tenant(state)
        # cancel_futures: on a normal exit nothing is queued; after an
        # aborted search it stops queued folds from burning workers
        self._executor.shutdown(wait=True, cancel_futures=True)
        with self._transport_lock:
            while self._segments:
                _, segment = self._segments.popitem(last=False)
                segment.release()
        if self._owned_cache_dir is not None:
            shutil.rmtree(self._owned_cache_dir, ignore_errors=True)

    shutdown = close

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        with self._lock:
            n_tenants = len(self._tenants)
        return "FleetCoordinator(backend={!r}, workers={}, tenants={})".format(
            self.execution.backend, self.workers, n_tenants
        )


def _measured_cost(real):
    """The completed fold's measured compute seconds, or ``None``.

    Fold payloads carry their own ``elapsed`` (worker-side compute time,
    not queue wait).  Cancelled or crashed submissions contribute no
    measurement — their estimate stands.
    """
    if real.cancelled():
        return None
    try:
        if real.exception() is not None:
            return None
        payload = real.result()
    except Exception:  # noqa: BLE001 - an unreadable result is simply unmeasured
        return None
    if isinstance(payload, dict):
        return float(payload.get("elapsed") or 0.0)
    return None
