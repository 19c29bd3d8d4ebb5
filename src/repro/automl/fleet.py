"""Multi-tenant search coordination: N concurrent searches, one worker fleet.

The paper's AutoBazaar deployment is a *service*: many users submit tasks
and one cluster evaluates all of their pipelines.  This module is that
coordinator: a long-running :class:`FleetCoordinator` owns ONE worker pool,
one task data plane and one disk prefix-cache directory, and
multiplexes any number of concurrent tenant searches over them.  It is
also the only process stack: a solo ``backend="process"`` search is a
fleet of one (:class:`~repro.automl.backends.ProcessBackend` is tenant
``"default"`` of a private coordinator).

Fair share is the pool's own dispatch order.  A tenant is one record of
the pool (:meth:`~repro.automl.supervisor.SupervisedWorkerPool.add_tenant`)
holding its queue, pass value and counters; the fleet keeps no tenant
state of its own.  Whenever a worker frees, it takes the next fold by
weighted stride scheduling with deficit correction over the tenants'
queues.  A tenant's fold is the pool job's own
:class:`~concurrent.futures.Future`, cancellable until a worker takes it;
a released tenant's queued folds are cancelled, and a fold still queued
when the fleet closes files ``CancelledError: the backend was shut down
before this fold ran``.

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
from collections import OrderedDict
from concurrent.futures import CancelledError

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
        reuse each other's fitted prefixes).  Nothing reads the others
        (``n_pending``, ``telemetry``): each tenant's search takes its own.
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
        self._lock = threading.Lock()
        self._closed = False
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
        try:
            self._executor = self._make_pool()
        except BaseException:
            self._remove_owned_cache_dir()
            raise

    def _make_pool(self):
        """The fleet's supervised worker pool; a test subclass overrides it."""
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
        twice the worker time of a weight-1 tenant under contention).  The
        tenant is a record of the pool (an unnamed one is ``tenant-N``, a
        duplicate name is refused); the backend's ``shutdown`` releases it.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("the fleet coordinator is closed")
            tenant = self._executor.add_tenant(name, weight)
            # the segment LRU must span both partitions of every
            # registered tenant at once — the training partition its folds
            # read and the held-out one its refit scores on — or registering
            # many tenants would evict segments with jobs still in flight
            self.transport_capacity = max(
                self.transport_capacity, 2 * len(self._executor.tenants()) + 1)
        return TenantBackend(self, tenant)

    def tenants(self):
        """Names of the currently registered tenants (sorted)."""
        return sorted(tenant.name for tenant in self._executor.tenants())

    # -- data plane ---------------------------------------------------------------

    def _task_ref(self, task):
        """The handle every job of ``task`` ships with, published on first use.

        The fleet publishes every task once as one read-only mapped file
        (:func:`repro.automl.shm.publish_task`) and ships its picklable
        :class:`~repro.automl.shm.SharedTaskHandle`; a publication that
        fails in both segment directories raises, and the submitting job
        records it as its error.  Each segment holds its task, which keeps
        the ``id`` it is keyed by valid for as long as the entry lives.
        """
        with self._transport_lock:
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

    def _tenant_stats(self, tenant, since=None):
        """A tenant's counters and the pool's, or what accrued after the earlier result ``since``.

        Folds, fold seconds and pool incidents are lifetime counts,
        differenced against ``since``; the settings and the queue
        high-water mark are reported as they are now.
        """
        # the pool's thread updates the tenant's counters; each is one number
        stats = {
            "tenant": tenant.name,
            "weight": tenant.weight,
            "folds_dispatched": tenant.folds_dispatched,
            "fold_seconds": tenant.fold_seconds,
            "queue_depth_hwm": tenant.queue_hwm,
            "supervisor": self.supervisor_stats,
        }
        if since is not None:
            stats["folds_dispatched"] -= since["folds_dispatched"]
            stats["fold_seconds"] -= since["fold_seconds"]
            stats["supervisor"] = {
                name: count - since["supervisor"][name]
                for name, count in stats["supervisor"].items()
            }
        return stats

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
        # on a normal exit nothing is queued; after an aborted search no
        # worker takes a queued fold, which files the shutdown as its error
        for tenant in self._executor.tenants():
            for future in self._executor.release_tenant(tenant):
                if future.set_running_or_notify_cancel():
                    future.set_exception(
                        CancelledError("the backend was shut down before this fold ran"))
        self._executor.shutdown(wait=True, cancel_futures=True)
        with self._transport_lock:
            while self._segments:
                _, segment = self._segments.popitem(last=False)
                segment.release()
        self._remove_owned_cache_dir()

    def _remove_owned_cache_dir(self):
        if self._owned_cache_dir is not None:
            shutil.rmtree(self._owned_cache_dir, ignore_errors=True)

    shutdown = close

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return "FleetCoordinator(backend={!r}, workers={}, tenants={})".format(
            self.execution.backend, self.workers, len(self._executor.tenants())
        )

