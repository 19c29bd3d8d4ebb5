"""Structured telemetry: typed event stream + deterministic run replayer.

The search stack records *outcomes* durably (the record log) but not
*why*: per-fold timings, cache hits, shm-plane choices and fleet queue
depths were ad-hoc counters surfaced only as end-of-run totals.  This
package turns them into a durable, time-resolved event stream:

* :mod:`repro.telemetry.events` — the typed, versioned event schema and
  the zero-cost thread-local capture API used inside workers,
* :mod:`repro.telemetry.sink` — :class:`~repro.telemetry.sink.TelemetrySink`,
  a low-overhead recorder that buffers events in process and appends
  each batch to a crash-safe JSONL segment log (the same machinery as the
  record store) in one write, durable through the last reported record,
* :mod:`repro.telemetry.replayer` — reconstructs a full run timeline
  from the event stream alone and cross-checks it against the record
  stream (``python -m repro.telemetry <run-dir>``).
"""

from repro.telemetry.events import (
    SCHEMA_VERSION,
    begin_capture,
    capture_active,
    capture_event,
    end_capture,
    make_event,
)
from repro.telemetry.sink import (
    EVENTS_DIRNAME,
    TelemetrySink,
    activate_sink,
    deactivate_sink,
    emit_active,
    get_active_sink,
)
from repro.telemetry.replayer import ReplayError, load_events, replay_run

__all__ = [
    "SCHEMA_VERSION",
    "EVENTS_DIRNAME",
    "TelemetrySink",
    "ReplayError",
    "activate_sink",
    "begin_capture",
    "capture_active",
    "capture_event",
    "deactivate_sink",
    "emit_active",
    "end_capture",
    "get_active_sink",
    "load_events",
    "make_event",
    "replay_run",
]
