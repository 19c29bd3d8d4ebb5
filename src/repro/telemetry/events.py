"""Typed, versioned telemetry events and the worker-side capture API.

Every event is a flat JSON-serializable dict stamped at creation with

* ``v`` — the schema version (:data:`SCHEMA_VERSION`),
* ``event`` — one of :data:`EVENT_TYPES`,
* ``wall`` / ``proc`` — wall-clock and process-CPU timestamps,
* ``pid`` — the emitting process (the *worker id* for events captured
  inside pool workers, the coordinator for synthesized ones),

plus event-specific fields.  The monotonic ``seq`` number and the
``tenant`` id are stamped by the :class:`~repro.telemetry.sink.TelemetrySink`
when the event enters the stream, so workers never need to coordinate a
counter across processes.

Schema versioning promise: fields are only ever *added* within a schema
version; removing or re-typing a field bumps :data:`SCHEMA_VERSION`, and
the replayer refuses streams from a newer schema than it understands.

Worker-side capture
-------------------
Pool workers cannot reach the coordinator's sink directly, and opening a
second IPC channel just for telemetry would double the moving parts.
Instead workers buffer events in a **thread-local capture list**
(thread-local because serial searches run their folds on the caller's
thread, and several such searches may run at once on threads of one
process) that the backend attaches to the fold's result payload —
telemetry rides the existing result channel back to the coordinator,
which stamps and ingests it.  When no capture is active every
:func:`capture_event` call is a single thread-local attribute probe, so
instrumented hot paths (cache lookups, shm attach) cost nothing when
telemetry is off.
"""

import os
import threading
import time

#: Version stamped into every event; bumped on incompatible field changes.
SCHEMA_VERSION = 1

#: Every event type the instrumented stack can emit.
EVENT_TYPES = frozenset({
    # search lifecycle
    "search_started",
    "search_finished",
    "record_reported",
    # proposal machinery
    "tuner_propose",
    "tuner_fit",
    # fold lifecycle
    "fold_dispatched",
    "fold_started",
    "fold_finished",
    "fold_cancelled",
    # the final refit: one holdout job per search, never part of a record
    "refit_started",
    "refit_finished",
    # fitted-prefix cache
    "cache_hit",
    "cache_miss",
    "cache_store",
    # fold-level early discard (no longer emitted; replayed from old streams)
    "prune_decision",
    # batched multi-candidate evaluation (no longer emitted; schema v1 only grows)
    "batch_group_formed",
    # shared-memory data plane
    "shm_publish",
    "shm_attach",
    "shm_fallback",  # no longer emitted; kept for the same reason
    # the pool's fair-share order: a job queued (queue depth), taken by a
    # worker (admission: dispatch, not entry to a second queue), completed
    "fleet_admission",
    "fleet_pass_value",
    "fleet_queue_depth",
    # supervised execution layer (fault tolerance)
    "worker_died",
    "fold_retried",
    "pool_rebuilt",
    "fold_timed_out",
})


def make_event(etype, **fields):
    """Build one event dict, stamped with version, timestamps and pid."""
    if etype not in EVENT_TYPES:
        raise ValueError("Unknown telemetry event type {!r}".format(etype))
    event = {
        "v": SCHEMA_VERSION,
        "event": etype,
        "wall": time.time(),
        "proc": time.process_time(),
        "pid": os.getpid(),
    }
    event.update(fields)
    return event


_capture = threading.local()


def begin_capture():
    """Start buffering captured events on this thread (resets any buffer)."""
    _capture.events = []


def capture_active():
    """Whether this thread currently buffers captured events."""
    return getattr(_capture, "events", None) is not None


def capture_event(etype, **fields):
    """Buffer one event if capture is active on this thread; else a no-op."""
    events = getattr(_capture, "events", None)
    if events is not None:
        events.append(make_event(etype, **fields))


def end_capture():
    """Stop capturing on this thread and return the buffered events."""
    events = getattr(_capture, "events", None)
    _capture.events = None
    return events if events is not None else []
