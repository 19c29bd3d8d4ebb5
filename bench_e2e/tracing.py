"""Benchmark-side tracing: spans around the public callables of each layer.

The program under test is not edited.  ``install`` replaces the callables
listed in ``_patch_table`` with wrappers that record one span per call —
``{name, start, end, parent, search}`` — in memory; the harness writes them
to ``bench_e2e/out/trace-<workload>.json`` when the traced run ends.

* A span's *self time* is its duration minus the part its child spans cover.
  Per-layer seconds are sums of self time, so nested layers never count a
  second twice and the layers add up to the wall time of the units.
* Spans of one search share the id of their ``search.search`` root span.
* Pool workers are forked from the coordinator *after* ``install`` and so
  inherit the wrappers.  A worker cannot append to the coordinator's span
  list; instead the wrapper around ``evaluate_fold_indices`` totals the
  spans of one fold per name and returns them inside the fold's own result
  payload (key ``_bench``), the same channel the program's telemetry rides.
  The coordinator-side wrapper of ``collect_one`` pops them off again.
* Context-free emit points of the program (fleet admission, queue depth,
  shm publish/fallback) go through ``repro.telemetry.sink.emit_active``; the
  tracer installs itself as the active sink to see them.

Only GIL-atomic operations (``list.append``, ``itertools.count``) touch
shared state: the fleet forks its pool from a process running 15 tenant
threads, and a lock held by another thread at fork time would deadlock the
child.
"""

import contextlib
import functools
import itertools
import threading
import time

ROOT_SPAN = "search.search"
UNIT_SPAN = "bench.unit"


class Tracer:
    """In-memory span recorder shared by every wrapper."""

    def __init__(self):
        self.spans = []
        self.folds = []
        self.events = []
        self.marks = []
        self.in_worker = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._submitted = {}
        self._worker_totals = {}
        self._originals = []

    # -- span stack -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        if name == ROOT_SPAN:
            search = span_id
        else:
            search = parent["search"] if parent else None
        frame = {
            "id": span_id, "name": name, "start": time.monotonic(), "covered": 0.0,
            "parent": parent["id"] if parent else None, "search": search,
        }
        stack.append(frame)
        return frame

    def close(self, frame):
        end = time.monotonic()
        stack = self._stack()
        stack.pop()
        duration = end - frame["start"]
        if stack:
            stack[-1]["covered"] += duration
        self_time = duration - frame["covered"]
        if self.in_worker:
            totals = self._worker_totals.setdefault(frame["name"], [0.0, 0.0, 0])
            totals[0] += duration
            totals[1] += self_time
            totals[2] += 1
            return
        self.spans.append({
            "id": frame["id"], "name": frame["name"], "start": frame["start"], "end": end,
            "parent": frame["parent"], "search": frame["search"], "self": self_time,
            "thread": threading.current_thread().name,
        })

    @contextlib.contextmanager
    def span(self, name):
        frame = self.open(name)
        try:
            yield frame
        finally:
            self.close(frame)

    # -- the program's active-sink hook ------------------------------------------

    def emit(self, etype, **fields):
        """``emit_active`` target: keep context-free scheduler events."""
        self.events.append({"event": etype, "at": time.monotonic(), **fields})

    # -- install / uninstall -------------------------------------------------------

    def install(self):
        from repro.telemetry.sink import activate_sink

        for owner, attribute, wrapper in _patch_table(self):
            self._originals.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, wrapper)
        activate_sink(self)

    def uninstall(self):
        from repro.telemetry.sink import deactivate_sink

        deactivate_sink(self)
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals = []


def _spanned(tracer, original, name, before=None, after=None):
    """Wrap ``original`` in a span; ``name`` may be a callable of the arguments."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name(*args, **kwargs) if callable(name) else name)
        if before is not None:
            before(frame, *args, **kwargs)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(frame)
        if after is not None:
            after(frame, result, *args, **kwargs)
        return result

    return wrapper


def _patch_table(tracer):
    """Every ``(owner, attribute, wrapper)`` the tracer installs.

    Functions imported by name (``from repro.tasks.task import
    task_cv_indices``) are bound once per importing module, so each binding
    is patched — and must be, for ``evaluate_fold_indices``: pickle ships it
    to workers by reference and refuses an object that is not the one its
    module attribute names.
    """
    import multiprocessing.process

    from repro.automl import backends, checkpoint, fleet, search, shm
    from repro.core import pipeline, step, template
    from repro.explorer import persistence, store
    from repro.tasks import task as tasks
    from repro.telemetry import sink
    from repro.tuning import selectors, tuners

    table = []

    def method(owner, attribute, name, **hooks):
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            wrapper = classmethod(_spanned(tracer, original.__func__, name, **hooks))
        else:
            wrapper = _spanned(tracer, original, name, **hooks)
        table.append((owner, attribute, wrapper))

    def function(modules, attribute, name, **hooks):
        wrapper = _spanned(tracer, modules[0].__dict__[attribute], name, **hooks)
        for module in modules:
            table.append((module, attribute, wrapper))

    # learners / core / tasks: the evaluation itself (coordinator or worker)
    method(step.PipelineStep, "fit", "learners.step_fit")
    method(step.PipelineStep, "produce", "learners.step_produce")
    method(pipeline.MLPipeline, "fit", "core.pipeline_fit")
    method(pipeline.MLPipeline, "predict", "core.pipeline_predict")
    method(template.Template, "build_pipeline", "core.build_pipeline")
    method(tasks.MLTask, "score", "tasks.score")
    function([tasks, search, backends], "task_cv_indices", "tasks.cv_split")
    function([tasks, search, backends], "materialize_cv_fold", "tasks.cv_split")
    function([tasks, search], "split_task", "tasks.cv_split")

    # tuning
    method(tuners.BaseTuner, "propose", "tuning.propose")
    for attribute in ("record", "record_failure", "add_pending", "resolve_pending"):
        method(tuners.BaseTuner, attribute, "tuning.record")
    for selector in (selectors.BaseSelector, selectors.UCB1Selector):
        method(selector, "select", "tuning.select")

    # search root and the backend boundary
    method(search.AutoBazaarSearch, "search", ROOT_SPAN)
    function([search], "get_backend", "backends.pool_start")
    method(multiprocessing.process.BaseProcess, "start", "backends.pool_start")
    method(fleet.FleetCoordinator, "__init__", "backends.pool_start")
    method(fleet.FleetCoordinator, "close", "backends.pool_shutdown")
    method(backends._PoolBackend, "shutdown", "backends.pool_shutdown")
    method(backends.ProcessBackend, "shutdown", "backends.pool_shutdown")

    def note_submit(frame, backend, candidate):
        tracer._submitted[id(candidate)] = (frame["search"], frame["start"])

    def harvest_folds(frame, future, backend):
        _harvest(tracer, future)

    method(backends.SerialBackend, "submit", "backends.submit")
    method(backends._PoolBackend, "submit", "backends.submit", before=note_submit)
    method(backends.SerialBackend, "collect_one", "backends.collect_wait")
    method(backends._PoolBackend, "collect_one", "backends.collect_wait", after=harvest_folds)

    # shm data plane
    def note_publish(frame, segment, task):
        tracer.marks.append(("shm.bytes_published", _segment_bytes(segment), frame["search"]))

    function([shm], "publish_task", "shm.publish", after=note_publish)
    function([shm], "attach_task", "shm.attach")
    fold_wrapper = _fold_wrapper(tracer, backends.__dict__["evaluate_fold_indices"])
    for module in (backends, fleet):
        table.append((module, "evaluate_fold_indices", fold_wrapper))

    # durable run: record store, segment log, checkpoints, telemetry sink
    def log_span(suffix):
        def name(log, *args, **kwargs):
            events = str(log.directory).rstrip("/").endswith(sink.EVENTS_DIRNAME)
            return ("telemetry." if events else "explorer.") + suffix
        return name

    method(store.PipelineStore, "add", "explorer.store_add")
    method(persistence.SegmentLog, "append", log_span("log_append"))
    method(persistence.SegmentLog, "open", log_span("log_open"))
    method(persistence.SegmentLog, "close", log_span("log_close"))
    method(checkpoint.ExperimentRun, "create", "checkpoint.create")
    method(checkpoint.ExperimentRun, "execute", "checkpoint.execute")
    method(checkpoint.CheckpointManager, "write", "checkpoint.write")

    def note_replay_end(frame, result, manager, state):
        if state["replay_count"] and state["n_reported"] == state["replay_count"]:
            tracer.marks.append(("checkpoint.replay_end", time.monotonic(), frame["search"]))
            tracer.marks.append(("checkpoint.replay_count", state["replay_count"],
                                 frame["search"]))

    method(checkpoint.CheckpointManager, "after_report", "checkpoint.after_report",
           after=note_replay_end)
    method(sink.TelemetrySink, "__init__", "telemetry.open")
    method(sink.TelemetrySink, "emit", "telemetry.emit")
    method(sink.TelemetrySink, "ingest", "telemetry.emit")
    method(sink.TelemetrySink, "flush", "telemetry.close")
    method(sink.TelemetrySink, "close", "telemetry.close")
    return table


def _segment_bytes(segment):
    """Bytes of task data in a published segment, from its public manifest."""
    import numpy as np

    size = 0
    for _key, dtype, shape, offset in segment.handle.manifest:
        size = max(size, offset + int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize)
    return size


def _fold_wrapper(tracer, original):
    """Worker-side wrapper: total one fold's spans and ship them in its payload."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.in_worker = True
        tracer._local.stack = []
        tracer._worker_totals = {}
        import os

        started = time.monotonic()
        payload = original(*args, **kwargs)
        ended = time.monotonic()
        if isinstance(payload, dict):
            payload["_bench"] = {
                "pid": os.getpid(), "start": started, "end": ended,
                "layers": tracer._worker_totals,
            }
        return payload

    return wrapper


def _harvest(tracer, future):
    """Pop the worker-side totals off a collected candidate's fold payloads."""
    if future is None:
        return
    candidate = future.candidate
    search, submitted = tracer._submitted.pop(id(candidate), (None, None))
    for index, payload in enumerate(getattr(future, "_fold_results", None) or ()):
        bench = payload.pop("_bench", None) if isinstance(payload, dict) else None
        if bench is None:
            continue
        tracer.folds.append({
            "search": search, "iteration": candidate.iteration, "fold": index,
            "submitted": submitted, "pid": bench["pid"], "start": bench["start"],
            "end": bench["end"], "layers": bench["layers"],
        })


# -- derived per-layer numbers ------------------------------------------------------


def summarize(tracer):
    """Per span name: summed duration, summed self time and call count.

    Coordinator spans and the per-fold totals shipped back by workers are
    added together; worker time is CPU spent in parallel, so the sums may
    exceed the wall time of a pool workload.
    """
    totals = {}
    for span in tracer.spans:
        entry = totals.setdefault(span["name"], [0.0, 0.0, 0])
        entry[0] += span["end"] - span["start"]
        entry[1] += span["self"]
        entry[2] += 1
    for fold in tracer.folds:
        for name, (duration, self_time, count) in fold["layers"].items():
            entry = totals.setdefault(name, [0.0, 0.0, 0])
            entry[0] += duration
            entry[1] += self_time
            entry[2] += count
    return totals


def admission_waits(events):
    """Seconds each fleet fold waited between enqueue and admission.

    ``fleet_queue_depth`` is emitted when a tenant enqueues a fold and
    ``fleet_admission`` when the scheduler launches one; a tenant's queue is
    FIFO and nothing is cancelled on these workloads, so the k-th of each
    pair up.
    """
    enqueued = {}
    waits = []
    for event in events:
        tenant = event.get("tenant")
        if event["event"] == "fleet_queue_depth":
            enqueued.setdefault(tenant, []).append(event["at"])
        elif event["event"] == "fleet_admission" and enqueued.get(tenant):
            waits.append(max(0.0, event["at"] - enqueued[tenant].pop(0)))
    return waits


def sched_efficiency(groups, workers):
    """Load-balance bound over wall, summed over ``(fold costs, wall)`` groups.

    The p-server lower bound on a group's makespan is
    ``max(sum of fold costs / p, largest fold cost)`` ("Skew in Parallel
    Query Processing"); 1.0 means the pool could not have finished sooner.
    """
    bound = wall = 0.0
    for costs, seconds in groups:
        if costs:
            bound += max(sum(costs) / workers, max(costs))
            wall += seconds
    return bound / wall if wall > 0 else 0.0
