"""Durable pipeline store: a crash-safe, append-only JSONL segment log.

The paper's deployed architecture persists every scored pipeline to a
MongoDB corpus (the piex database of ~2.5M pipelines) that later powers
meta-analysis and meta-learning.  This module is the single-node analogue:
a :class:`PersistentPipelineStore` that is API-compatible with the
in-memory :class:`~repro.explorer.store.PipelineStore` but writes every
evaluation document to an append-only **JSONL segment log** the moment it
is added, so a crashed or killed search loses at most the line being
written when the process died.

Log layout (one directory per store)::

    <store_dir>/
        MANIFEST              # ordered list of live segment file names
        segment-000000.jsonl  # one JSON document per line
        segment-000001.jsonl
        ...

Design points:

* **One fsync-able line per record.**  ``append`` writes the document as a
  single JSON line and flushes it; ``durability="fsync"`` additionally
  fsyncs, trading throughput for power-loss safety (a plain flush already
  survives ``SIGKILL``, which only discards user-space buffers).
* **Segment rotation.**  When the active segment exceeds
  :data:`DEFAULT_SEGMENT_BYTES` the log rotates to a fresh file, bounding the
  blast radius of any single corrupted file and keeping per-file repair
  cheap.  Rotation commits the new segment name to the ``MANIFEST``
  *before* creating the file, so a crash between the two steps leaves a
  manifest entry pointing at a missing (= empty) segment, never an
  untracked file holding data.
* **Atomic commits through the MANIFEST.**  The manifest is replaced
  atomically (write temp + ``os.replace``), so the set of live segments
  changes atomically; segment files present on disk but absent from the
  manifest are orphans of an interrupted rotation or compaction and are
  deleted on open.
* **Background-free compaction on open.**  Opening a fragmented log (many
  undersized segments, the residue of many short-lived runs) rewrites the
  records into full-sized segments and commits the new file set through
  the manifest.  There is no background thread: compaction runs at most
  once, at open, and only when it actually reduces the segment count.
* **Torn-line repair.**  A process killed mid-write can leave a partial
  final line in the last segment.  On open, a final line that does not
  parse is truncated away (it never finished, so it was never
  acknowledged); a non-final unparsable line means real corruption and
  raises :class:`StoreCorruptionError` instead of silently dropping data.
* **Index rebuild on load.**  ``PersistentPipelineStore`` replays the log
  on construction to rebuild the in-memory document list and the
  per-field indexes; afterwards every query runs at in-memory speed.
* **Cross-process safety.**  Every live handle holds a shared ``flock``
  on the store directory (released by the kernel even on ``SIGKILL``).
  An opener that finds no peers runs the destructive recovery work
  (orphan cleanup, torn-line repair, compaction); with peers present the
  open degrades to a read-only-recovery shared mode, and appends,
  rotations and manifest commits from all processes are serialized by a
  short-lived operation lock (rotation re-reads the manifest so a peer's
  segment is never dropped).  Checkpointed runs additionally take an
  exclusive per-run lock so one run directory has exactly one live
  executor (see :mod:`repro.automl.checkpoint`).

The write path stays non-blocking under contention: an append holds the
store lock only for one buffered line write + flush, so the many
concurrent worker callbacks of the thread/process execution backends
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

_SEGMENT_RE = re.compile(r"^segment-(\d{6})\.jsonl$")
_SEGMENT_TEMPLATE = "segment-{:06d}.jsonl"

#: Held shared (``LOCK_SH``) by every live log handle; an opener that can
#: grab it exclusively knows no other process holds the log open.
_PRESENCE_LOCK = "writers.lock"

#: Short-lived exclusive lock serializing appends, rotations and opens
#: across processes sharing one store directory.
_OPS_LOCK = "ops.lock"

#: Rotation threshold for the active segment (bytes).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


class StoreCorruptionError(RuntimeError):
    """A segment holds an unparsable document outside the repairable tail."""


def _numpy_default(value):
    """``json.dumps`` hook: a NumPy scalar or array as the value ``normalize_value`` gives."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError("Object of type {} is not JSON serializable".format(type(value).__name__))


def _fsync_directory(directory):
    """Best-effort fsync of a directory (required for rename durability)."""
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)


class SegmentLog:
    """Append-only JSONL log split into manifest-tracked segment files.

    Parameters
    ----------
    directory:
        Directory holding the manifest and segment files (created if
        needed).
    durability:
        ``"flush"`` (default) flushes each appended line to the OS —
        crash-safe against process death (``SIGKILL``); ``"fsync"``
        additionally fsyncs each line — crash-safe against power loss.
    compact_on_open:
        Whether :meth:`open` may rewrite a fragmented log into full-sized
        segments.
    """

    MANIFEST_NAME = "MANIFEST"

    def __init__(self, directory, durability="flush", compact_on_open=True):
        if durability not in ("flush", "fsync"):
            raise ValueError(
                "Unknown durability {!r}; expected 'flush' or 'fsync'".format(durability)
            )
        self.directory = str(directory)
        self.durability = durability
        self.compact_on_open = compact_on_open
        self._lock = threading.Lock()
        self._segments = []          # live segment file names, in order
        self._active_stream = None   # open append handle on the last segment
        self._active_size = 0
        self._opened = False
        self._presence_fd = None     # shared flock held while this handle lives
        self._ops_fd = None          # fd used for the short-lived op lock
        self._exclusive = True       # whether this handle opened with no peers

    # -- cross-process locking ----------------------------------------------------

    def _acquire_presence(self):
        """Join the set of live handles; detect whether we are alone.

        Every live handle keeps a *shared* ``flock`` on the presence file
        (released by the kernel even on ``SIGKILL``).  An opener that can
        momentarily hold it *exclusively* knows no other process has the
        log open, which licenses the destructive open-time work — orphan
        cleanup, torn-line truncation, compaction.  With peers present the
        open degrades to a conservative shared mode that only reads.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            self._exclusive = True
            return
        self._presence_fd = os.open(
            os.path.join(self.directory, _PRESENCE_LOCK), os.O_RDWR | os.O_CREAT, 0o644
        )
        try:
            fcntl.flock(self._presence_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            self._exclusive = True
        except OSError:
            self._exclusive = False
        # downgrade to (or acquire) the shared presence lock; may wait for
        # a peer's own exclusive probe to finish
        fcntl.flock(self._presence_fd, fcntl.LOCK_SH)

    @contextmanager
    def _ops_guard(self):
        """Serialize one append/rotate/open against other processes."""
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

    def _release_locks(self):
        for descriptor in (self._presence_fd, self._ops_fd):
            if descriptor is not None:
                try:
                    os.close(descriptor)
                except OSError:  # pragma: no cover - already closed
                    pass
        self._presence_fd = None
        self._ops_fd = None

    # -- opening: manifest recovery, repair, compaction, replay -------------------

    def open(self):
        """Recover the log and return every stored document, in append order."""
        with self._lock:
            if self._opened:
                raise RuntimeError("SegmentLog is already open")
            os.makedirs(self.directory, exist_ok=True)
            self._acquire_presence()
            try:
                with self._ops_guard():
                    self._segments = self._read_manifest()
                    if self._exclusive:
                        self._remove_orphans()
                    documents, sizes = self._load_segments(repair=self._exclusive)
                    if (self._exclusive and self.compact_on_open
                            and self._should_compact(sizes)):
                        documents = self._compact(documents)
                        sizes = [os.path.getsize(self._path(name))
                                 for name in self._segments]
            except Exception:
                self._release_locks()
                raise
            self._active_size = sizes[-1] if sizes else 0
            self._opened = True
            return documents

    def _path(self, name):
        return os.path.join(self.directory, name)

    def _manifest_path(self):
        return self._path(self.MANIFEST_NAME)

    def _read_manifest_names(self):
        """The manifest's segment names as written on disk, or ``None``."""
        manifest_path = self._manifest_path()
        if not os.path.exists(manifest_path):
            return None
        with open(manifest_path) as stream:
            return [line.strip() for line in stream if line.strip()]

    def _read_manifest(self):
        """Live segment names from the manifest, adopting pre-manifest logs."""
        manifest_path = self._manifest_path()
        names = self._read_manifest_names()
        if names is not None:
            for name in names:
                if not _SEGMENT_RE.match(name):
                    raise StoreCorruptionError(
                        "{}: manifest references invalid segment name {!r}".format(
                            manifest_path, name
                        )
                    )
            return names
        # no manifest: adopt any existing segment files in numeric order
        # (a store created by an older layout, or a brand-new directory)
        names = sorted(
            entry for entry in os.listdir(self.directory) if _SEGMENT_RE.match(entry)
        )
        if not names:
            names = [_SEGMENT_TEMPLATE.format(0)]
        self._write_manifest(names)
        return names

    def _write_manifest(self, names):
        manifest_path = self._manifest_path()
        temporary = manifest_path + ".tmp"
        with open(temporary, "w") as stream:
            stream.write("".join(name + "\n" for name in names))
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temporary, manifest_path)
        _fsync_directory(self.directory)
        self._segments = list(names)

    def _remove_orphans(self):
        """Delete files from interrupted rotations/compactions (not in the manifest)."""
        live = set(self._segments)
        for entry in os.listdir(self.directory):
            path = self._path(entry)
            if entry.endswith(".tmp"):
                _unlink_quietly(path)
            elif _SEGMENT_RE.match(entry) and entry not in live:
                _unlink_quietly(path)

    def _load_segments(self, repair=True):
        """Parse every live segment; return (documents, sizes).

        With ``repair=True`` (exclusive open) a torn final line is
        truncated away and a missing final newline completed.  With
        ``repair=False`` (another process holds the log open) the tail is
        left untouched: an unparsable final line is most likely a peer's
        append in flight, so it is skipped without judgement.
        """
        documents = []
        sizes = []
        last_index = len(self._segments) - 1
        for index, name in enumerate(self._segments):
            path = self._path(name)
            if not os.path.exists(path):
                # a crash between the manifest commit and the creation of a
                # freshly rotated segment leaves a trailing entry with no
                # file: it never held data, treat it as empty.  A missing
                # *interior* segment lost acknowledged records.
                if index != last_index:
                    raise StoreCorruptionError(
                        "{}: interior segment {!r} is missing".format(self.directory, name)
                    )
                sizes.append(0)
                continue
            with open(path, "rb") as stream:
                raw = stream.read()
            keep_bytes = len(raw)
            offset = 0
            for line_number, line in enumerate(raw.split(b"\n")):
                end = offset + len(line)
                stripped = line.strip()
                if stripped:
                    try:
                        document = json.loads(stripped.decode("utf-8"))
                        if not isinstance(document, dict):
                            raise ValueError("not a JSON object")
                    except (ValueError, UnicodeDecodeError) as error:
                        if index == last_index and end >= len(raw):
                            # torn final line of the final segment: the
                            # write never completed, so the record was never
                            # acknowledged -- truncate it away
                            keep_bytes = offset
                            break
                        raise StoreCorruptionError(
                            "{}: segment {!r} line {} is corrupt: {}".format(
                                self.directory, name, line_number + 1, error
                            )
                        ) from None
                    documents.append(document)
                offset = end + 1
            if not repair:
                sizes.append(len(raw))
            elif keep_bytes < len(raw):
                with open(path, "r+b") as stream:
                    stream.truncate(keep_bytes)
                sizes.append(keep_bytes)
            elif raw and not raw.endswith(b"\n"):
                # the final line parsed but its newline never landed (the
                # single write was split at a buffer boundary): complete it,
                # or the next append would fuse two documents on one line
                with open(path, "ab") as stream:
                    stream.write(b"\n")
                sizes.append(len(raw) + 1)
            else:
                sizes.append(len(raw))
        return documents, sizes

    def _should_compact(self, sizes):
        """Compact only when repacking would actually shrink the segment count."""
        if len(self._segments) < 3:
            return False
        total = sum(sizes)
        projected = max(1, -(-total // DEFAULT_SEGMENT_BYTES))  # ceil division
        return len(self._segments) - projected >= 2

    def _compact(self, documents):
        """Rewrite ``documents`` into full-sized segments; commit via the manifest.

        New segment files are written and fsynced first, then the manifest
        swap makes them live atomically, then the old files are deleted.  A
        crash at any point leaves either the old file set (manifest not yet
        replaced; new files are orphans removed on the next open) or the
        new one (old files are orphans) -- never a mix.
        """
        next_id = self._next_segment_id()
        old_names = list(self._segments)
        new_names = []
        stream = None
        size = 0
        try:
            for document in documents:
                line = json.dumps(document, separators=(",", ":")) + "\n"
                if stream is None or size >= DEFAULT_SEGMENT_BYTES:
                    if stream is not None:
                        stream.flush()
                        os.fsync(stream.fileno())
                        stream.close()
                    name = _SEGMENT_TEMPLATE.format(next_id)
                    next_id += 1
                    new_names.append(name)
                    stream = open(self._path(name), "w")
                    size = 0
                stream.write(line)
                size += len(line)
            if stream is not None:
                stream.flush()
                os.fsync(stream.fileno())
                stream.close()
                stream = None
            if not new_names:
                new_names = [_SEGMENT_TEMPLATE.format(next_id)]
        except Exception:
            if stream is not None:
                stream.close()
            for name in new_names:
                _unlink_quietly(self._path(name))
            raise
        self._write_manifest(new_names)
        for name in old_names:
            _unlink_quietly(self._path(name))
        return documents

    def _next_segment_id(self):
        """First id after every segment ever referenced or present on disk."""
        used = [-1]
        for name in self._segments:
            used.append(int(_SEGMENT_RE.match(name).group(1)))
        for entry in os.listdir(self.directory):
            match = _SEGMENT_RE.match(entry)
            if match:
                used.append(int(match.group(1)))
        return max(used) + 1

    # -- appending ----------------------------------------------------------------

    def append(self, document):
        """Append one document as a single JSONL line; returns the document.

        NumPy scalars and arrays are written as native numbers and lists.
        """
        line = json.dumps(document, separators=(",", ":"), default=_numpy_default) + "\n"
        with self._lock:
            if not self._opened:
                raise RuntimeError("SegmentLog must be opened before appending")
            with self._ops_guard():
                if self._active_size >= DEFAULT_SEGMENT_BYTES:
                    self._rotate()
                stream = self._ensure_stream()
                stream.write(line)
                stream.flush()
                if self.durability == "fsync":
                    os.fsync(stream.fileno())
                self._active_size += len(line)
        return document

    def _ensure_stream(self):
        if self._active_stream is None or self._active_stream.closed:
            self._repair_tail(self._path(self._segments[-1]))
            self._active_stream = open(self._path(self._segments[-1]), "a")
        return self._active_stream

    def _repair_tail(self, path):
        """Make sure the active segment ends on a newline before appending.

        A shared-mode open leaves a crashed peer's torn tail in place (it
        cannot tell an old crash artifact from an append in flight).  At
        *append* time the distinction is decidable: appends are serialized
        by the ops lock, so a tail without a trailing newline is always a
        crash artifact — complete its newline if it parses (the record
        landed, the newline did not), truncate it if it is garbage.
        Without this, our line would fuse with the torn one.
        """
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            return
        with open(path, "rb") as probe:
            raw = probe.read()
        if raw.endswith(b"\n"):
            return
        cut = raw.rfind(b"\n") + 1
        tail = raw[cut:]
        try:
            parsed = json.loads(tail.decode("utf-8"))
            complete = isinstance(parsed, dict)
        except (ValueError, UnicodeDecodeError):
            complete = False
        if complete:
            with open(path, "ab") as stream:
                stream.write(b"\n")
            self._active_size += 1
        else:
            with open(path, "r+b") as stream:
                stream.truncate(cut)
            self._active_size = max(0, self._active_size - len(tail))

    def _rotate(self):
        """Seal the active segment and start a new one (manifest-first)."""
        if self._active_stream is not None and not self._active_stream.closed:
            self._active_stream.flush()
            os.fsync(self._active_stream.fileno())
            self._active_stream.close()
        self._active_stream = None
        name = _SEGMENT_TEMPLATE.format(self._next_segment_id())
        # re-read the manifest from disk (under the ops lock) so a rotation
        # by a peer process sharing this store is never lost to our cached
        # view -- a stale overwrite would orphan the peer's live segment
        current = self._read_manifest_names()
        if current is None:
            current = list(self._segments)
        # commit the name before creating the file: a crash in between
        # leaves a manifest entry pointing at a missing (empty) segment,
        # which open() tolerates -- the reverse order would leave an
        # orphan file holding acknowledged data
        self._write_manifest(current + [name])
        self._active_size = 0

    def close(self):
        """Flush, close the active segment handle and release the flocks."""
        with self._lock:
            if self._active_stream is not None and not self._active_stream.closed:
                self._active_stream.flush()
                self._active_stream.close()
            self._active_stream = None
            self._release_locks()
            self._opened = False

    def __del__(self):  # pragma: no cover - GC timing dependent
        # best-effort: a garbage-collected handle must not keep holding
        # the presence flock (which blocks later exclusive opens) or its
        # file descriptors
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter may be shutting down
            pass

    def __repr__(self):
        return "SegmentLog(directory={!r}, segments={})".format(
            self.directory, len(self._segments)
        )


class PersistentPipelineStore(PipelineStore):
    """A :class:`PipelineStore` backed by a crash-safe JSONL segment log.

    Drop-in compatible with the in-memory store (``add`` / ``find`` /
    ``tasks`` / ``templates`` / ``scores_for_task`` / iteration /
    ``dump_json``), plus durability: every added document is appended to
    the log before it becomes visible to queries, under the same lock, so
    the on-disk line order always equals the in-memory order even with
    many concurrent writers.  Opening an existing directory replays the
    log (repairing a torn tail and compacting fragmentation) and rebuilds
    the per-field indexes.

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


def _unlink_quietly(path):
    try:
        os.unlink(path)
    except OSError:
        pass
