"""Low-overhead telemetry recorder: ring buffer -> crash-safe JSONL log.

:class:`TelemetrySink` decouples the emitting hot paths from disk: an
``emit`` appends to a bounded in-process ring buffer under a lock
(microseconds) and a daemon writer thread drains the ring into a
:class:`~repro.explorer.persistence.SegmentLog` — the exact crash-safety
machinery of the durable record store (one flushed JSONL line per
event, torn-tail repair before each append), so a SIGKILLed run loses at
most the events still sitting in the ring and never corrupts the stream.
If the writer fails to append an event
(an unencodable field, a full disk), it keeps that first failure and
stops; later events are dropped as after ``close``, so no emitter blocks
on a ring nobody drains, and ``flush`` and :meth:`TelemetrySink.raise_if_failed`
raise the failure instead of losing the stream silently.

Sequence numbers are stamped *at enqueue time* under the ring lock, so
``seq`` order always equals append order and the replayer can treat the
stream as totally ordered.  Reopening an existing stream (a resumed run)
continues the sequence from the largest stored value.

Coordinator-global active sink
------------------------------
Some emit points have no candidate or search object in scope — the fleet
scheduler's admission/queue-depth samples, the shm plane's publish
decisions.  Those go through the module-level *active sink* hook:
:func:`activate_sink` installs the sink for the duration of a search and
:func:`emit_active` is a no-op when none is installed.  Activation is
reference-counted so concurrent tenant searches sharing one sink (the
fleet case) do not disable each other on finish.
"""

import itertools
import threading
import time
from collections import deque

from repro.explorer.persistence import SegmentLog
from repro.telemetry.events import make_event

#: Directory name of the event stream inside a checkpointed run directory.
EVENTS_DIRNAME = "events"

#: Ring-buffer capacity; emitters block (briefly) when the writer falls
#: this far behind rather than dropping events, so the stream stays a
#: complete record of the run.
RING_CAPACITY = 8192

#: Ring occupancy at which an emit wakes the writer immediately instead
#: of leaving the drain to the next poll tick.  Waking per event would
#: put a GIL handoff on every emit — measurably taxing the search thread
#: — so the writer normally wakes itself on a timer.
WAKE_BATCH = 512

#: The writer's self-wake interval: the upper bound on how long an
#: emitted event sits in memory before reaching the log.
POLL_SECONDS = 0.05


class TelemetryWriterError(RuntimeError):
    """The sink's writer failed to append an event and stopped."""


class TelemetrySink:
    """Durable, low-overhead event recorder over a segment log.

    Parameters
    ----------
    directory:
        Event-stream directory (created if needed).  Reopening an
        existing stream appends, continuing the sequence numbers.
    durability:
        Forwarded to :class:`~repro.explorer.persistence.SegmentLog`.
    """

    def __init__(self, directory, durability="flush"):
        self._log = SegmentLog(directory, durability=durability)
        last = -1
        for document in self._log.open():
            seq = document.get("seq")
            if isinstance(seq, int) and seq > last:
                last = seq
        self._seq = itertools.count(last + 1)
        self._ring = deque()
        self._inflight = 0          # events popped from the ring, not yet on disk
        self._closed = False
        self._failure = None        # the writer's first append error; it stopped there
        self._state = threading.Condition(threading.Lock())
        self._writer = threading.Thread(
            target=self._drain, name="telemetry-writer", daemon=True
        )
        self._writer.start()

    @property
    def directory(self):
        """The event-stream directory."""
        return self._log.directory

    # -- emitting -----------------------------------------------------------------

    def emit(self, etype, **fields):
        """Record one event (stamped with seq/timestamps); returns its seq."""
        return self._enqueue([make_event(etype, **fields)])

    def ingest(self, events, **context):
        """Record worker-captured events, merging coordinator ``context`` keys.

        The worker's own ``wall``/``proc``/``pid`` stamps are preserved;
        ``context`` adds the coordinator-side identity (tenant, iteration,
        fold, template) the worker did not know.  Sequence numbers are
        assigned here, in ingest order.
        """
        if not events:
            return None
        prepared = []
        for event in events:
            if context:
                event = dict(event)
                event.update(context)
            prepared.append(event)
        return self._enqueue(prepared)

    def raise_if_failed(self):
        """Raise :class:`TelemetryWriterError` if the writer has stopped on a failure."""
        if self._failure is not None:
            raise TelemetryWriterError("telemetry writer failed: {!r}".format(self._failure))

    def _enqueue(self, events):
        last_seq = None
        with self._state:
            while True:
                if self._closed or self._failure is not None:
                    return None  # late emit during shutdown, or no writer: drop
                if len(self._ring) + len(events) <= RING_CAPACITY:
                    break
                self._state.notify_all()  # the writer must drain for us to fit
                self._state.wait(POLL_SECONDS)
            for event in events:
                event["seq"] = last_seq = next(self._seq)
                self._ring.append(event)
            if len(self._ring) >= WAKE_BATCH:
                self._state.notify_all()
        return last_seq

    # -- writer thread ------------------------------------------------------------

    def _drain(self):
        while True:
            with self._state:
                # a timed wait, not a pure notification wait: the normal
                # emit path deliberately does not wake this thread (see
                # WAKE_BATCH), so the ring is drained on poll ticks
                while not self._ring and not self._closed:
                    self._state.wait(POLL_SECONDS)
                batch = list(self._ring)
                self._ring.clear()
                self._inflight = len(batch)
                if not batch and self._closed:
                    return
                self._state.notify_all()
            failure = None
            try:
                for event in batch:
                    self._log.append(event)
            except Exception as error:  # noqa: BLE001 - kept and re-raised by flush
                failure = error
            with self._state:
                self._inflight = 0
                self._failure = failure
                self._state.notify_all()
            if failure is not None:
                return

    def flush(self, timeout=30.0):
        """Block until every emitted event has been appended to the log."""
        deadline = time.monotonic() + timeout
        with self._state:
            self._state.notify_all()  # wake the writer now, not at the tick
            while True:
                self.raise_if_failed()
                if not (self._ring or self._inflight) or (
                        self._closed and not self._writer.is_alive()):
                    return
                if time.monotonic() > deadline:
                    raise RuntimeError("telemetry writer failed to drain")
                self._state.wait(0.1)

    def close(self):
        """Flush, stop the writer thread and release the log."""
        with self._state:
            if self._closed:
                return
            self._closed = True
            self._state.notify_all()
        self._writer.join(timeout=30.0)
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return "TelemetrySink(directory={!r})".format(self._log.directory)


# -- coordinator-global active sink -----------------------------------------------

_active_lock = threading.Lock()
_active_sink = None
_active_count = 0


def activate_sink(sink):
    """Install ``sink`` as the process-global active sink (refcounted)."""
    global _active_sink, _active_count
    with _active_lock:
        if _active_sink is sink:
            _active_count += 1
        else:
            _active_sink = sink
            _active_count = 1


def deactivate_sink(sink):
    """Release one activation of ``sink``; clears the hook at zero."""
    global _active_sink, _active_count
    with _active_lock:
        if _active_sink is sink:
            _active_count -= 1
            if _active_count <= 0:
                _active_sink = None
                _active_count = 0


def get_active_sink():
    """The currently active sink, or ``None``."""
    return _active_sink


def emit_active(etype, **fields):
    """Emit through the active sink; a cheap no-op when none is installed."""
    sink = _active_sink
    if sink is not None:
        sink.emit(etype, **fields)
