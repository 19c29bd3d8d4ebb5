"""Multi-tenant search coordination: N concurrent searches, one worker fleet.

The paper's AutoBazaar deployment is a *service*: many users submit tasks
and one cluster evaluates all of their pipelines.  Every previous layer of
this reproduction gave a single :class:`~repro.automl.search.AutoBazaarSearch`
a private backend, so concurrent searches either oversubscribed the cores
(N pools on one machine) or serialized.  This module adds the missing
coordinator: a long-running :class:`FleetCoordinator` owns ONE worker pool,
one shm/pickle task data plane and one disk prefix-cache directory, and
multiplexes any number of concurrent tenant searches over them.

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

work stealing (the existing backends)
    Admitted folds enter the shared executor's single queue, where any
    idle worker picks them up — the fold-level work-stealing dispatch of
    :mod:`repro.automl.backends`, unchanged.

Admission is bounded twice: globally (``workers + max_backlog`` folds
admitted at once, so the fair-share layer keeps control of the interleave
instead of dumping every queue into the executor) and per tenant
(``max_inflight``, replacing the private ``n_pending`` window as the
tenant's concurrency cap).  Fold cancellation — a failing fold cancelling
its later siblings, pruning discarding a candidate's queue — works
per-tenant exactly as on a private backend: queued folds are cancelled in
the fair-share queue before they ever reach the executor.

Determinism: the fleet changes *where and when* folds run, never what is
reported.  Each tenant search keeps its own tuners, selector, RNG and
reorder buffer, and the sliding-window loop reports strictly in proposal
order — so a tenant's record stream is bit-identical to the same search
run solo (for seeded pipelines, pruning off), no matter how the fleet
interleaves its folds with other tenants'.  Wall-clock interleaving is of
course shared; only the *stream content* is solo-identical.
"""

import shutil
import tempfile
import threading
from collections import deque
from itertools import count

from repro.automl import shm
from repro.automl.backends import (
    ProcessBackend,
    _PoolBackend,
    # unused here, but bench_e2e/tracing.py patches this module attribute
    evaluate_fold_indices,  # noqa: F401
    get_backend,
)
from repro.automl.config import ExecutionConfig
from repro.automl.prefix_cache import sweep_orphan_cache_tmp
from repro.telemetry.sink import emit_active

#: Pass-value charge for a tenant's first folds, before any measured cost
#: seeds the EWMA (seconds; only the ratio across tenants matters).
_DEFAULT_FOLD_COST = 0.01

#: EWMA retention for the per-tenant fold-cost estimate.
_COST_EWMA_DECAY = 0.7

_PENDING, _ADMITTED, _CANCELLED, _DONE = range(4)


class _FleetFoldFuture:
    """The future a tenant backend holds for one queued-or-running fold.

    Implements exactly the slice of the :class:`concurrent.futures.Future`
    API the pool machinery consumes (``cancel``/``cancelled``/``exception``/
    ``result``/``add_done_callback``).  While the fold waits in the
    fair-share queue the future is its own state machine (a queued fold is
    cancellable for free); once admitted it mirrors the real executor
    future it was attached to.
    """

    __slots__ = ("_lock", "_state", "_real", "_result", "_exception",
                 "_callbacks", "_cancel_requested")

    def __init__(self):
        self._lock = threading.Lock()
        self._state = _PENDING
        self._real = None
        self._result = None
        self._exception = None
        self._callbacks = []
        self._cancel_requested = False

    def _mark_admitted(self):
        """Atomically move PENDING -> ADMITTED; False if already cancelled."""
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _ADMITTED
            return True

    def _attach(self, real):
        """Mirror the executor future the admitted fold now runs as."""
        with self._lock:
            self._real = real
            cancel_requested = self._cancel_requested
        if cancel_requested:
            real.cancel()
        real.add_done_callback(self._real_done)

    def _real_done(self, real):
        with self._lock:
            if self._state in (_DONE, _CANCELLED):
                return
            if real.cancelled():
                self._state = _CANCELLED
            else:
                self._exception = real.exception()
                if self._exception is None:
                    self._result = real.result()
                self._state = _DONE
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _fail(self, exception):
        """Complete exceptionally without a real future (submit failure)."""
        with self._lock:
            if self._state in (_DONE, _CANCELLED):
                return
            self._exception = exception
            self._state = _DONE
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def cancel(self):
        with self._lock:
            if self._state == _PENDING:
                # still queued in the fair-share layer: cancelled for free,
                # the scheduler skips it at admission time
                self._state = _CANCELLED
                callbacks, self._callbacks = self._callbacks, []
                real = None
            elif self._state == _ADMITTED:
                real = self._real
                if real is None:
                    # admitted but not yet attached (mid-launch): record the
                    # request, _attach forwards it to the real future
                    self._cancel_requested = True
                    return False
                callbacks = None
            else:
                return self._state == _CANCELLED
        if callbacks is not None:
            for callback in callbacks:
                callback(self)
            return True
        return real.cancel()

    def cancelled(self):
        with self._lock:
            return self._state == _CANCELLED

    def done(self):
        with self._lock:
            return self._state in (_DONE, _CANCELLED)

    def exception(self):
        with self._lock:
            if self._state == _DONE:
                return self._exception
        raise RuntimeError("fold has not completed yet")

    def result(self):
        with self._lock:
            if self._state == _DONE:
                if self._exception is not None:
                    raise self._exception
                return self._result
        raise RuntimeError("fold has not completed yet")

    def add_done_callback(self, callback):
        with self._lock:
            if self._state not in (_DONE, _CANCELLED):
                self._callbacks.append(callback)
                return
        callback(self)


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

    def __init__(self, name, weight, max_inflight):
        self.name = name
        self.weight = float(weight)
        self.max_inflight = int(max_inflight)
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


class _TenantExecutor:
    """Executor facade handed to a tenant's pool machinery.

    ``submit`` routes into the coordinator's fair-share queue instead of a
    private executor; ``shutdown`` (called by the backend's own
    ``shutdown``) releases the tenant's registration — the shared pool
    itself outlives every tenant.
    """

    def __init__(self, fleet, state):
        self._fleet = fleet
        self._state = state

    def submit(self, fn, *args, **kwargs):
        return self._fleet._enqueue(self._state, fn, args, kwargs)

    def shutdown(self, wait=True, cancel_futures=False):
        self._fleet._release_tenant(self._state)


class TenantBackend(_PoolBackend):
    """One tenant's execution backend on a shared :class:`FleetCoordinator`.

    Behaves exactly like a private pool backend from the search loop's
    perspective — fold-level submission, completion queue, cancellation,
    fused group dispatch — but every fold goes through the coordinator's
    fair-share scheduler and the shared data plane.  Obtained from
    :meth:`FleetCoordinator.register`; pass it as the search's ``backend``.
    ``shutdown()`` releases the tenant (cancelling its queued folds), never
    the shared pool.
    """

    name = "fleet"

    def __init__(self, fleet, state):
        self._fleet = fleet
        self._state = state
        super().__init__(workers=fleet.workers)

    def _make_executor(self):
        return _TenantExecutor(self._fleet, self._state)

    def _task_ref(self, task):
        return self._fleet._tenant_task_ref(task, self._state)

    @property
    def tenant_name(self):
        return self._state.name

    @property
    def plane_counts(self):
        """This tenant's tasks shipped per transport (shm/pickle/inline)."""
        with self._fleet._lock:
            return dict(self._state.plane_counts)

    def tenant_stats(self):
        """This tenant's fair-share and data-plane counters (a fresh dict)."""
        return self._fleet._tenant_stats(self._state)

    @property
    def supervisor_stats(self):
        """The shared pool's supervision counters (``None`` unsupervised)."""
        return self._fleet.supervisor_stats

    def _state_dump(self):
        fleet, state = self._fleet, self._state
        with fleet._lock:
            shares = "{} fold(s) queued, {} admitted of the fleet's {}/{}".format(
                len(state.queue), state.inflight, fleet._admitted, fleet._max_admitted)
        return "{}; {}".format(super()._state_dump(), shares)

    def __repr__(self):
        return "TenantBackend(tenant={!r}, fleet={!r})".format(
            self._state.name, self._fleet
        )


class FleetCoordinator:
    """One shared worker fleet multiplexing many concurrent searches.

    Owns a single pool backend (``"process"`` by default, ``"thread"`` for
    in-process fleets), its shm/pickle data plane, and — when
    ``prefix_cache="disk"`` — one shared cache directory every tenant's
    workers read and write (:attr:`cache_dir`; pass it as the searches'
    ``cache_dir``).  :meth:`register` returns a :class:`TenantBackend` to
    run a search on; tenants come and go while the pool keeps running.

    Parameters
    ----------
    max_backlog:
        Folds admitted to the executor beyond the worker count (default:
        the worker count) — enough queued work that workers never idle
        between admissions, small enough that fair share, cancellation and
        pruning keep their grip on the interleave.
    backend, **execution:
        The execution knobs (see
        :class:`~repro.automl.config.ExecutionConfig`), kept as
        :attr:`execution`; a fleet pools ``"process"`` (its default) or
        ``"thread"`` workers.  The fleet itself reads the pool-level ones
        (``workers``, the supervision knobs — a tenant whose fold SIGKILLs
        a worker then costs the fleet one respawn and one retried fold,
        not a ``BrokenProcessPool`` for every tenant — and
        ``prefix_cache`` / ``cache_dir``: with ``"disk"`` and no directory
        the coordinator creates, and removes on close, one shared
        directory, so all tenants' workers reuse each other's fitted
        prefixes); the others configure the tenants' searches.
    """

    def __init__(self, backend="process", max_backlog=None, **execution):
        config = ExecutionConfig.from_keywords(execution, backend=backend)
        if config.backend not in ("process", "thread"):
            raise ValueError(
                "a fleet needs a 'process' or 'thread' backend name, "
                "not {!r}".format(config.backend)
            )
        self.execution = config
        # reclaim shm segments leaked by coordinators that died without
        # their atexit hook (SIGKILL, power loss) before publishing new
        # ones — thread fleets too: a previous process-fleet run's leak is
        # reclaimed here at startup
        shm.sweep_stale_segments()
        self._pool = get_backend(
            config.backend, workers=config.workers, fold_timeout=config.fold_timeout,
            max_fold_retries=config.max_fold_retries,
        )
        self.workers = self._pool.workers
        self._owned_cache_dir = None
        cache_dir = config.cache_dir
        if config.prefix_cache == "disk" and cache_dir is None:
            cache_dir = tempfile.mkdtemp(prefix="repro-fleet-cache-")
            self._owned_cache_dir = cache_dir
        self.cache_dir = cache_dir
        if cache_dir is not None:
            # companion of the sweep_stale_segments call above: reclaim
            # cache temp files orphaned by killed writers of earlier runs
            sweep_orphan_cache_tmp(cache_dir)
        backlog = self.workers if max_backlog is None else int(max_backlog)
        if backlog < 0:
            raise ValueError("max_backlog must be non-negative")
        self._max_admitted = self.workers + backlog
        self._lock = threading.Lock()
        # ProcessBackend's transport caches are plain OrderedDicts built
        # for one submitting search thread; N tenant threads serialize here
        self._transport_lock = threading.Lock()
        self._tenants = {}
        self._admitted = 0
        self._closed = False
        self._tenant_ids = count()

    # -- tenant lifecycle ---------------------------------------------------------

    def register(self, name=None, weight=1.0, max_inflight=None):
        """Register a tenant; returns its :class:`TenantBackend`.

        ``weight`` scales the tenant's fair share (a weight-2 tenant gets
        twice the fold throughput of a weight-1 tenant under contention);
        ``max_inflight`` caps its concurrently admitted folds (default:
        the global admission cap — effectively uncapped).
        """
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
            if max_inflight is None:
                max_inflight = self._max_admitted
            max_inflight = int(max_inflight)
            if max_inflight < 1:
                raise ValueError("max_inflight must be at least 1")
            state = _TenantState(name, weight, max_inflight)
            active = [tenant.pass_value for tenant in self._tenants.values()]
            # join at the current minimum pass: a newcomer owes nothing for
            # throughput it never consumed, and cannot monopolize either
            state.pass_value = min(active) if active else 0.0
            self._tenants[name] = state
            # the coordinator-side transport LRUs (spill payloads, shm
            # segments) must span both partitions of every registered
            # tenant at once — the training partition its folds read and
            # the held-out one its refit scores on — or registering many
            # tenants would evict segments with jobs still in flight
            capacity = getattr(self._pool, "transport_capacity", None)
            if capacity is not None:
                self._pool.transport_capacity = max(capacity, 2 * len(self._tenants) + 1)
        return TenantBackend(self, state)

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
        future = _FleetFoldFuture()
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

        Returns the admitted jobs for :meth:`_launch` to submit *after*
        the lock is released — executor submission and done-callback
        attachment must never run under the fleet lock (a future that is
        already done runs its callbacks synchronously).
        """
        admissions = []
        while self._admitted < self._max_admitted:
            best = None
            for state in self._tenants.values():
                if not state.queue or state.inflight >= state.max_inflight:
                    continue
                if best is None or (state.pass_value, state.name) < (best.pass_value, best.name):
                    best = state
            if best is None:
                break
            job = best.queue.popleft()
            if not job.future._mark_admitted():
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
                real = self._pool._executor.submit(job.fn, *job.args, **job.kwargs)
            except Exception as failure:  # noqa: BLE001 - submit failures are data
                with self._lock:
                    self._retire_locked(job, None)
                job.future._fail(failure)
                continue
            # accounting first, then mirroring: by the time the tenant's
            # fold-done callback fires, the freed slot has been re-admitted
            real.add_done_callback(lambda fold, job=job: self._job_done(job, fold))
            job.future._attach(real)

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
        actual = _measured_cost(real)
        with self._lock:
            self._retire_locked(job, actual)
            admissions = self._admit_locked()
        emit_active(
            "fleet_pass_value", tenant=job.tenant.name, cost=actual,
            pass_value=job.tenant.pass_value, cost_ewma=job.tenant.cost_ewma,
        )
        self._launch(admissions)

    # -- shared data plane --------------------------------------------------------

    def _tenant_task_ref(self, task, state):
        """The transport handle for a tenant's task, with per-tenant tallies."""
        if isinstance(self._pool, ProcessBackend):
            with self._transport_lock:
                ref = self._pool._task_ref(task)
            plane = "shm" if isinstance(ref, shm.SharedTaskHandle) else "pickle"
        else:
            ref = task
            plane = "inline"
        with self._lock:
            if id(task) not in state.seen_tasks:
                state.seen_tasks.add(id(task))
                state.plane_counts[plane] = state.plane_counts.get(plane, 0) + 1
        return ref

    # -- observability ------------------------------------------------------------

    def _tenant_stats(self, state):
        with self._lock:
            return {
                "tenant": state.name,
                "weight": state.weight,
                "max_inflight": state.max_inflight,
                "folds_dispatched": state.folds_dispatched,
                "fold_seconds": state.fold_seconds,
                "queue_depth_hwm": state.queue_hwm,
                "plane_counts": dict(state.plane_counts),
            }

    def stats(self):
        """Per-tenant counters for every currently registered tenant."""
        with self._lock:
            states = list(self._tenants.values())
        return {state.name: self._tenant_stats(state) for state in states}

    @property
    def supervisor_stats(self):
        """The shared pool's supervision counters (``None`` unsupervised)."""
        return getattr(self._pool, "supervisor_stats", None)

    # -- lifecycle ----------------------------------------------------------------

    def close(self):
        """Release every tenant, the shared pool and the owned cache dir."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            states = list(self._tenants.values())
        for state in states:
            self._release_tenant(state)
        self._pool.shutdown()
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
    not queue wait); batched group folds carry one payload per member and
    cost their sum.  Cancelled or crashed submissions contribute no
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
    if isinstance(payload, list):
        return float(sum(
            member.get("elapsed") or 0.0
            for member in payload if isinstance(member, dict)
        ))
    return None
