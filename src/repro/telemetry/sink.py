"""Low-overhead telemetry recorder: an in-process buffer -> crash-safe JSONL log.

:class:`TelemetrySink` keeps the emitting hot paths off the disk: an
``emit`` appends to an in-process buffer under a lock (microseconds), and
the buffer reaches a :class:`~repro.explorer.persistence.SegmentLog` —
the exact crash-safety machinery of the durable record store (one flushed
JSONL line per event, torn-tail repair before each append) — as one
locked append per batch, written by whichever thread calls ``flush`` or
``close`` or fills the buffer to :data:`BATCH_SIZE`.  The search flushes
after every reported record, so the stream is durable through the last
reported record, like the record log, and a SIGKILLed run loses at most
the events emitted since and never corrupts the stream.
If a write fails (an unencodable field, a full disk), the sink keeps that
first failure and drops that batch and every later event, as after
``close``; ``flush`` and :meth:`TelemetrySink.raise_if_failed` raise the
failure instead of losing the stream silently.

Sequence numbers are stamped under the buffer lock, and the buffer is
written under the same lock, so ``seq`` order always equals append order
and the replayer can treat the stream as totally ordered.  Reopening an
existing stream (a resumed run) continues the sequence from the largest
stored value.

Coordinator-global active sink
------------------------------
Some emit points have no candidate or search object in scope — the
pool's fair-share samples (queue depth, dispatch), the shm plane's publish
decisions.  Those go through the module-level *active sink* hook:
:func:`activate_sink` installs the sink for the duration of a search and
:func:`emit_active` is a no-op when none is installed.  Activation is
reference-counted so concurrent tenant searches sharing one sink (the
fleet case) do not disable each other on finish.
"""

import itertools
import threading

from repro.explorer.persistence import SegmentLog
from repro.telemetry.events import make_event

#: Directory name of the event stream inside a checkpointed run directory.
EVENTS_DIRNAME = "events"

#: Buffered events at which an emit writes the buffer itself, so a run
#: that emits many events between flushes holds few of them in memory.
BATCH_SIZE = 512


class TelemetryWriterError(RuntimeError):
    """The sink failed to append events to its log and stopped recording."""


class TelemetrySink:
    """Durable, low-overhead event recorder over a segment log.

    Parameters
    ----------
    directory:
        Event-stream directory (created if needed).  Reopening an
        existing stream appends, continuing the sequence numbers.
    """

    def __init__(self, directory):
        self._log = SegmentLog(directory)
        last = -1
        for document in self._log.open():
            seq = document.get("seq")
            if isinstance(seq, int) and seq > last:
                last = seq
        self._seq = itertools.count(last + 1)
        self._lock = threading.Lock()
        self._buffer = []           # stamped events not yet written, in seq order
        self._closed = False
        self._failure = None        # the first failed write; nothing is written after it

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
        """Raise :class:`TelemetryWriterError` if a write has failed."""
        if self._failure is not None:
            raise TelemetryWriterError("telemetry writer failed: {!r}".format(self._failure))

    def _enqueue(self, events):
        with self._lock:
            if self._closed or self._failure is not None:
                return None  # late emit during shutdown, or a failed log: drop
            for event in events:
                event["seq"] = next(self._seq)
            self._buffer.extend(events)
            if len(self._buffer) >= BATCH_SIZE:
                self._write()
        return events[-1]["seq"]

    # -- writing ------------------------------------------------------------------

    def _write(self):
        """Append the buffer to the log in one write; the caller holds the lock."""
        batch, self._buffer = self._buffer, []
        if not batch:
            return  # also after a failure: nothing is buffered once it happened
        try:
            self._log.append(*batch)
        except Exception as error:  # noqa: BLE001 - kept and re-raised by flush
            self._failure = error

    def flush(self):
        """Append every emitted event to the log (nothing is buffered once closed)."""
        with self._lock:
            self._write()
        self.raise_if_failed()

    def close(self):
        """Append what is buffered and release the log."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._write()
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
