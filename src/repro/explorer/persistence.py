"""Durable pipeline store: a crash-safe, append-only JSONL log.

The paper's deployed architecture persists every scored pipeline to a
MongoDB corpus (the piex database of ~2.5M pipelines) that later powers
meta-analysis and meta-learning.  This module is the single-node analogue:
a :class:`PersistentPipelineStore` that is API-compatible with the
in-memory :class:`~repro.explorer.store.PipelineStore` but writes every
evaluation document to an append-only **JSONL log** the moment it is
added, so a crashed or killed search loses at most the line being written
when the process died.

Log layout (one directory per store)::

    <store_dir>/
        segment-000000.jsonl  # one JSON document per line
        ops.lock              # flock serializing opens and appends

A log is the ``segment-NNNNNN.jsonl`` files of its directory, read in
numeric order; appends go to the last one.  A new log is the one file
``segment-000000.jsonl`` and nothing creates a second (a directory written
by an older version may hold several, beside lock and manifest files that
nothing reads).

Design points:

* **One fsync-able line per record.**  ``append`` writes each document as
  a single JSON line, a batch of documents in one write, and flushes it;
  ``durability="fsync"`` additionally fsyncs, trading throughput for
  power-loss safety (a plain flush already survives ``SIGKILL``, which
  only discards user-space buffers).
* **Opening writes nothing.**  ``open`` reads the files under the ops
  lock.  Appends hold the same lock, so an unparsable final line of the
  last file is a crash artifact (the write never completed, so the record
  was never acknowledged) and is skipped; an unparsable line anywhere else
  means real corruption and raises :class:`StoreCorruptionError` instead
  of silently dropping data.
* **Torn-tail repair before an append.**  Under the ops lock, an append
  whose file does not end where this handle's last append left it (its
  first append, or another process wrote since) first makes the file end
  on a newline: a final line that parses gets its newline, one that does
  not is truncated away.  So a peer killed mid-append never fuses its
  torn bytes with the next record.
* **Index rebuild on load.**  ``PersistentPipelineStore`` replays the log
  on construction to rebuild the in-memory document list and the
  per-field indexes; afterwards every query runs at in-memory speed.
* **Several handles, one lock.**  Handles in several processes may share
  a log; the ops lock serializes their opens and appends.  Checkpointed
  runs additionally take an exclusive per-run lock so one run directory
  has exactly one live executor (see :mod:`repro.automl.checkpoint`).

The write path stays non-blocking under contention: an append holds the
store lock only for one buffered line write + flush, so the many
concurrent fold callbacks of the process backend and of fleet tenants
serialize on microseconds of work, not on disk round trips (unless fsync
durability is explicitly requested).
"""

import json
import os
import re
import threading
from contextlib import contextmanager

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.explorer.store import PipelineStore

_SEGMENT_RE = re.compile(r"^segment-\d{6}\.jsonl$")
_SEGMENT_TEMPLATE = "segment-{:06d}.jsonl"

#: Short-lived exclusive lock serializing opens and appends across
#: processes sharing one store directory.
_OPS_LOCK = "ops.lock"


class StoreCorruptionError(RuntimeError):
    """A segment holds an unparsable document outside the repairable tail."""


def _numpy_default(value):
    """``json.dumps`` hook: a NumPy scalar or array as the value ``normalize_value`` gives."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError("Object of type {} is not JSON serializable".format(type(value).__name__))


def _parse(line):
    """The JSON object on ``line`` (bytes), or ``None`` if it holds none."""
    try:
        document = json.loads(line.decode("utf-8"))
    except ValueError:  # includes UnicodeDecodeError
        return None
    return document if isinstance(document, dict) else None


def segment_names(directory):
    """The log files of ``directory``, in numeric (= append) order."""
    return sorted(entry for entry in os.listdir(directory) if _SEGMENT_RE.match(entry))


class SegmentLog:
    """Append-only JSONL log: the segment files of one directory.

    Parameters
    ----------
    directory:
        Directory holding the segment files (created if needed).
    durability:
        ``"flush"`` (default) flushes each appended line to the OS —
        crash-safe against process death (``SIGKILL``); ``"fsync"``
        additionally fsyncs each line — crash-safe against power loss.
    """

    def __init__(self, directory, durability="flush"):
        if durability not in ("flush", "fsync"):
            raise ValueError(
                "Unknown durability {!r}; expected 'flush' or 'fsync'".format(durability)
            )
        self.directory = str(directory)
        self.durability = durability
        self._lock = threading.Lock()
        self._stream = None   # read/append handle on the last segment file
        self._end = None      # file size right after this handle's last append
        self._ops_fd = None   # fd used for the short-lived op lock

    @contextmanager
    def _ops_guard(self):
        """Serialize one open/append against other processes."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        if self._ops_fd is None:
            self._ops_fd = os.open(
                os.path.join(self.directory, _OPS_LOCK), os.O_RDWR | os.O_CREAT, 0o644
            )
        fcntl.flock(self._ops_fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(self._ops_fd, fcntl.LOCK_UN)

    def _release(self):
        if self._stream is not None:
            self._stream.close()
        self._stream = None
        self._end = None
        if self._ops_fd is not None:
            os.close(self._ops_fd)
        self._ops_fd = None

    def open(self):
        """Return every stored document, in append order; writes no existing byte."""
        with self._lock:
            if self._stream is not None:
                raise RuntimeError("SegmentLog is already open")
            os.makedirs(self.directory, exist_ok=True)
            try:
                with self._ops_guard():
                    names = segment_names(self.directory) or [_SEGMENT_TEMPLATE.format(0)]
                    self._stream = open(os.path.join(self.directory, names[-1]), "a+b")
                    documents = []
                    for name in names:
                        documents.extend(self._read(name, last=name == names[-1]))
            except Exception:
                self._release()
                raise
            return documents

    def _read(self, name, last):
        """Parse one segment file, skipping a torn final line of the last one."""
        with open(os.path.join(self.directory, name), "rb") as stream:
            lines = stream.read().split(b"\n")
        documents = []
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            document = _parse(line)
            if document is None:
                if last and number == len(lines):
                    break  # torn final line: never acknowledged
                raise StoreCorruptionError(
                    "{}: segment {!r} line {} is corrupt".format(self.directory, name, number)
                )
            documents.append(document)
        return documents

    def append(self, *documents):
        """Append each document as one JSONL line, all of them in one write.

        Every line is encoded before the lock is taken, so a document that
        cannot be encoded raises with nothing written.  NumPy scalars and
        arrays are written as native numbers and lists.
        """
        data = b"".join(
            json.dumps(document, separators=(",", ":"), default=_numpy_default).encode()
            + b"\n" for document in documents)
        with self._lock:
            if self._stream is None:
                raise RuntimeError("SegmentLog must be opened before appending")
            with self._ops_guard():
                size = os.fstat(self._stream.fileno()).st_size
                if size != self._end:
                    size = self._repair_tail(size)
                self._stream.write(data)
                self._stream.flush()
                if self.durability == "fsync":
                    os.fsync(self._stream.fileno())
                self._end = size + len(data)

    def _repair_tail(self, size):
        """Make the file end on a newline; return its size afterwards.

        Appends are serialized by the ops lock, so a final line without its
        newline is a crash artifact: complete the newline if the line
        parses (the record landed, the newline did not), truncate it if
        it does not.  Without this, the next line would fuse with it.
        """
        descriptor = self._stream.fileno()
        if size == 0 or os.pread(descriptor, 1, size - 1) == b"\n":
            return size
        raw = os.pread(descriptor, size, 0)
        cut = raw.rfind(b"\n") + 1
        if _parse(raw[cut:]) is not None:
            self._stream.write(b"\n")
            self._stream.flush()
            return size + 1
        os.ftruncate(descriptor, cut)
        return cut

    def close(self):
        """Flush and close the segment handle and release the lock file."""
        with self._lock:
            self._release()

    def __del__(self):  # pragma: no cover - GC timing dependent
        # best-effort: a garbage-collected handle must not keep its file
        # descriptors
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter may be shutting down
            pass

    def __repr__(self):
        return "SegmentLog(directory={!r})".format(self.directory)


class PersistentPipelineStore(PipelineStore):
    """A :class:`PipelineStore` backed by a crash-safe JSONL log.

    Drop-in compatible with the in-memory store (``add`` / ``find`` /
    ``tasks`` / ``templates`` / ``scores_for_task`` / iteration /
    ``dump_json``), plus durability: every added document is appended to
    the log before it becomes visible to queries, under the same lock, so
    the on-disk line order always equals the in-memory order even with
    many concurrent writers.  Opening an existing directory replays the
    log (skipping a torn tail) and rebuilds the per-field indexes.

    Parameters
    ----------
    path:
        Store directory (created if needed).
    durability:
        Forwarded to :class:`SegmentLog`.
    """

    def __init__(self, path, durability="flush"):
        super().__init__()
        self._log = None
        log = SegmentLog(path, durability=durability)
        with self._lock:
            for document in log.open():
                # replayed documents were normalized when first inserted;
                # rebuild the indexes without re-appending them to the log
                self._index(document)
        self._log = log

    @property
    def path(self):
        """The store directory."""
        return self._log.directory

    def _persist(self, document):
        self._log.append(document)

    def close(self):
        """Flush and release the underlying log file handle."""
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return "PersistentPipelineStore(path={!r}, n_documents={})".format(
            self._log.directory, len(self._documents)
        )

