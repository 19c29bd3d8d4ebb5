"""Content-addressed cache of fitted pipeline prefixes.

The search loop spends nearly all of its wall clock fitting pipelines, yet
candidates drawn from the same template differ only in estimator
hyperparameters: their preprocessing prefixes (imputer -> encoder ->
scaler -> ...) are refit identically on every fold of every candidate.
This module memoizes those fitted prefixes (cf. sklearn's
``Pipeline(memory=...)`` and auto-sklearn's artifact cache).

A cache entry is addressed by a **prefix fingerprint**: the rolling hash
of a *data key* (content digest of the fold's training data) chained with
the canonical identity of every pipeline step up to and including the
cached one (primitive name, resolved hyperparameters, context renames —
see :meth:`repro.core.step.PipelineStep.fingerprint_payload`).  Two
candidates that share the same training fold and the same configured
prefix therefore share cache entries, no matter which template, tuner or
worker produced them.

Two tiers:

``mem``
    A per-process LRU of fitted step artifacts (the fitted primitive
    instance plus the step's transformed outputs on the training
    context).  Cheapest possible hit; entries are shared *by reference*
    within the process, which is safe because primitive ``produce``
    methods do not mutate fitted state.
``disk``
    The LRU backed by an on-disk content-addressed store (one pickle per
    fingerprint, written atomically), so that
    :class:`~repro.automl.backends.ProcessBackend` workers share fitted
    prefixes across candidates and across worker processes.  Every disk
    entry embeds its own fingerprint; a corrupt or aliased file is
    detected on load (fingerprint mismatch or unpickling failure) and
    treated as a miss — never as wrong data.

Workers resolve their cache instance lazily from a tiny picklable
*cache config* tuple shipped with each fold submission
(:func:`resolve_prefix_cache`), the same late-binding pattern as the
worker-resident task cache next to
:func:`repro.automl.backends._resolve_task`.
"""

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict

import numpy as np

from repro.telemetry.events import capture_event

#: Recognized cache modes (the CLI ``--prefix-cache`` values).
PREFIX_CACHE_MODES = ("off", "mem", "disk")

#: Default number of fitted-prefix entries kept in the per-process LRU.
DEFAULT_MAX_ENTRIES = 64

#: Default cap on entries kept in the disk tier (swept oldest-first).
DEFAULT_MAX_DISK_ENTRIES = 4096

#: Disk writes between sweeps of the disk tier (amortizes the directory scan).
_DISK_SWEEP_INTERVAL = 64

#: Pickle protocol pinned for deterministic, version-stable disk entries.
_PICKLE_PROTOCOL = 4


def normalize_prefix_cache_mode(mode):
    """The checked cache-mode name a ``prefix_cache`` setting means (``None``: off)."""
    if mode is None:
        return "off"
    if mode not in PREFIX_CACHE_MODES:
        raise ValueError(
            "Unknown prefix-cache mode {!r}; expected one of {}".format(
                mode, PREFIX_CACHE_MODES
            )
        )
    return mode


def make_prefix_cache_config(mode, cache_dir=None, max_entries=DEFAULT_MAX_ENTRIES):
    """Build the picklable cache-config tuple shipped to workers.

    Returns ``None`` for mode ``"off"`` (or ``None``), which disables
    caching everywhere downstream.  Mode ``"disk"`` requires an explicit
    ``cache_dir`` — the search owns the decision of where the shared
    store lives (and whether it is a temporary directory).
    """
    mode = normalize_prefix_cache_mode(mode)
    if mode == "off":
        return None
    max_entries = int(max_entries)
    if max_entries < 1:
        raise ValueError("max_entries must be at least 1")
    if mode == "disk":
        if not cache_dir:
            raise ValueError("prefix-cache mode 'disk' requires a cache directory")
        return ("disk", str(cache_dir), max_entries)
    return ("mem", None, max_entries)


class PrefixCacheStats:
    """Thread-safe hit/miss/byte counters of one cache instance."""

    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bytes_written = 0
        self.invalid = 0

    def record_hit(self):
        with self._lock:
            self.hits += 1

    def record_miss(self):
        with self._lock:
            self.misses += 1

    def record_store(self, bytes_written):
        with self._lock:
            self.stores += 1
            self.bytes_written += int(bytes_written)

    def record_invalid(self):
        with self._lock:
            self.invalid += 1

    def snapshot(self):
        """A plain-dict copy of the counters (for reporting and deltas)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "bytes_written": self.bytes_written,
                "invalid": self.invalid,
            }

    def __repr__(self):
        return "PrefixCacheStats({})".format(self.snapshot())


class FittedPrefixCache:
    """Two-tier (memory LRU + optional disk CAS) fitted-prefix cache.

    Parameters
    ----------
    cache_dir:
        Directory of the shared on-disk content-addressed store, or
        ``None`` for a memory-only cache.  The directory is created on
        first use; concurrent writers are safe because entries are
        written to a temporary file and atomically renamed into place.
    max_entries:
        Fitted prefixes kept in the in-memory LRU.
    max_disk_entries:
        Cap on the entry files kept in the disk tier.  A search pointed
        at a temporary directory never approaches it, but an explicit
        shared ``cache_dir`` reused across searches and runs would
        otherwise grow without bound; every ``_DISK_SWEEP_INTERVAL``-th
        write sweeps the oldest entries (by modification time) back
        under the cap.  Concurrent sweepers are safe — a lost race is
        just an already-deleted file.
    """

    def __init__(self, cache_dir=None, max_entries=DEFAULT_MAX_ENTRIES,
                 max_disk_entries=DEFAULT_MAX_DISK_ENTRIES):
        self.cache_dir = cache_dir
        if cache_dir is not None:
            # reclaim temp files orphaned by writers that were SIGKILLed
            # mid-write (the supervised pool kills hung workers); live
            # writers are safe — their pid rides in the filename
            sweep_orphan_cache_tmp(cache_dir)
        self.max_entries = int(max_entries)
        if self.max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_disk_entries = int(max_disk_entries)
        if self.max_disk_entries < 1:
            raise ValueError("max_disk_entries must be at least 1")
        self._writes_since_sweep = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.stats = PrefixCacheStats()

    # -- lookup ----------------------------------------------------------------

    def get(self, fingerprint):
        """The cached artifacts for ``fingerprint``, or ``None`` on a miss."""
        with self._lock:
            artifacts = self._entries.get(fingerprint)
            if artifacts is not None:
                self._entries.move_to_end(fingerprint)
        if artifacts is not None:
            self.stats.record_hit()
            capture_event("cache_hit", tier="mem", fingerprint=fingerprint)
            return artifacts
        if self.cache_dir is not None:
            artifacts = self._load_from_disk(fingerprint)
            if artifacts is not None:
                with self._lock:
                    self._remember(fingerprint, artifacts)
                self.stats.record_hit()
                capture_event("cache_hit", tier="disk", fingerprint=fingerprint)
                return artifacts
        self.stats.record_miss()
        capture_event("cache_miss", fingerprint=fingerprint)
        return None

    def put(self, fingerprint, artifacts):
        """File freshly fitted artifacts; returns the bytes written to disk."""
        with self._lock:
            self._remember(fingerprint, artifacts)
        bytes_written = 0
        if self.cache_dir is not None:
            bytes_written = self._write_to_disk(fingerprint, artifacts)
        self.stats.record_store(bytes_written)
        capture_event("cache_store", fingerprint=fingerprint, bytes=bytes_written)
        return bytes_written

    def _remember(self, fingerprint, artifacts):
        self._entries[fingerprint] = artifacts
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def __len__(self):
        with self._lock:
            return len(self._entries)

    # -- disk tier --------------------------------------------------------------

    def _entry_path(self, fingerprint):
        return os.path.join(self.cache_dir, "{}.pkl".format(fingerprint))

    def _load_from_disk(self, fingerprint):
        """Load one disk entry, verifying it is the entry it claims to be.

        The fingerprint is stored *inside* the pickle: a file that was
        truncated, corrupted, or swapped for a different entry fails the
        check and is treated as a miss (and unlinked) instead of ever
        returning wrong artifacts for the requested prefix.
        """
        path = self._entry_path(fingerprint)
        try:
            with open(path, "rb") as stream:
                payload = pickle.load(stream)
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - any unreadable entry is a miss, not a crash
            self.stats.record_invalid()
            _unlink_quietly(path)
            return None
        if not isinstance(payload, dict) or payload.get("fingerprint") != fingerprint:
            self.stats.record_invalid()
            _unlink_quietly(path)
            return None
        return payload.get("artifacts")

    def _write_to_disk(self, fingerprint, artifacts):
        path = self._entry_path(fingerprint)
        if os.path.exists(path):
            return 0  # another worker already published this prefix
        temp_path = None
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            payload = pickle.dumps(
                {"fingerprint": fingerprint, "artifacts": artifacts},
                protocol=_PICKLE_PROTOCOL,
            )
            # every disk failure — unpicklable artifacts, a full or
            # read-only filesystem — leaves the entry memory-only; a cache
            # write must never fail the evaluation it was accelerating
            # the writer's pid rides in the filename so the orphan sweep
            # can tell a dead writer's leftover from an in-flight write
            descriptor, temp_path = tempfile.mkstemp(
                prefix=_tmp_prefix(), suffix=".tmp", dir=self.cache_dir
            )
            with os.fdopen(descriptor, "wb") as stream:
                stream.write(payload)
            os.replace(temp_path, path)
        except Exception:  # noqa: BLE001 - disk-tier errors degrade to memory-only
            if temp_path is not None:
                _unlink_quietly(temp_path)
            return 0
        with self._lock:
            self._writes_since_sweep += 1
            sweep = self._writes_since_sweep >= _DISK_SWEEP_INTERVAL
            if sweep:
                self._writes_since_sweep = 0
        if sweep:
            self._sweep_disk()
        return len(payload)

    def _sweep_disk(self):
        """Evict the oldest disk entries once the tier exceeds its cap."""
        try:
            with os.scandir(self.cache_dir) as scan:
                entries = [
                    (entry.stat().st_mtime, entry.path)
                    for entry in scan
                    if entry.name.endswith(".pkl") and entry.is_file()
                ]
        except OSError:
            return
        excess = len(entries) - self.max_disk_entries
        if excess <= 0:
            return
        # drop a little below the cap so back-to-back writes do not
        # trigger a full scan per sweep interval at the boundary
        excess += max(1, self.max_disk_entries // 10)
        for _, path in sorted(entries)[:excess]:
            _unlink_quietly(path)

    def __repr__(self):
        return "FittedPrefixCache(cache_dir={!r}, max_entries={}, entries={})".format(
            self.cache_dir, self.max_entries, len(self)
        )


def _unlink_quietly(path):
    try:
        os.unlink(path)
    except OSError:
        pass


# -- orphaned temp-file sweep -----------------------------------------------------

_TMP_MARKER = ".prefix-"


def _tmp_prefix():
    """The mkstemp prefix for this process's in-flight cache writes."""
    return "{}{}-".format(_TMP_MARKER, os.getpid())


def _tmp_writer_pid(name):
    """The writer pid embedded in a temp filename, or ``None``."""
    if not (name.startswith(_TMP_MARKER) and name.endswith(".tmp")):
        return None
    pid_text = name[len(_TMP_MARKER):].split("-", 1)[0]
    try:
        return int(pid_text)
    except ValueError:
        return None


def sweep_orphan_cache_tmp(cache_dir):
    """Remove ``*.tmp`` cache files left behind by killed writers.

    Disk-tier writes go through ``mkstemp`` + atomic rename, so a writer
    SIGKILLed mid-write (a crashed worker, a fold past its deadline)
    leaks its temp file forever.  Each temp filename embeds its writer's
    pid; files whose writer is dead — or whose name predates the pid
    convention — are unlinked.  Runs at cache startup alongside the shm
    plane's ``sweep_stale_segments``.  Returns the number removed.
    """
    removed = 0
    from repro.automl.shm import _pid_alive

    try:
        with os.scandir(cache_dir) as scan:
            candidates = [
                entry.name for entry in scan
                if entry.name.startswith(_TMP_MARKER) and entry.name.endswith(".tmp")
            ]
    except OSError:
        return 0
    for name in candidates:
        pid = _tmp_writer_pid(name)
        if pid == os.getpid() or (pid is not None and _pid_alive(pid)):
            continue
        _unlink_quietly(os.path.join(cache_dir, name))
        removed += 1
    return removed


def open_cache_dir(mode, cache_dir, prefix):
    """``(cache_dir, owned_dir)``: the cache directory to use, and the one to remove.

    Mode ``"disk"`` without a ``cache_dir`` gets a fresh temporary directory
    named ``prefix*``; a given, reused one is swept of orphaned temp files.
    """
    if mode == "disk" and cache_dir is None:
        owned_dir = tempfile.mkdtemp(prefix=prefix)
        return owned_dir, owned_dir
    if cache_dir is not None:
        sweep_orphan_cache_tmp(cache_dir)
    return cache_dir, None


# -- per-process cache resolution ------------------------------------------------

_RESOLVE_LOCK = threading.Lock()

#: config tuple -> cache instance, LRU-bounded so long-lived processes
#: running many searches (each with its own temporary disk directory)
#: do not accumulate stale caches forever
_PROCESS_CACHES = OrderedDict()
_MAX_PROCESS_CACHES = 4


def resolve_prefix_cache(cache_config):
    """The process-global cache instance for ``cache_config``.

    Fold submissions ship the tiny config tuple instead of the cache
    itself; the first fold evaluated in a process (coordinator or pool
    worker alike) builds the instance, and every later fold with the
    same config reuses it — so the LRU genuinely persists across
    candidates.  A handful of configs are kept side by side, so
    concurrent searches with different cache settings in one process do
    not evict each other's entries on every fold.
    """
    if cache_config is None:
        return None
    cache_config = tuple(cache_config)
    with _RESOLVE_LOCK:
        cache = _PROCESS_CACHES.get(cache_config)
        if cache is None:
            _, cache_dir, max_entries = cache_config
            cache = FittedPrefixCache(cache_dir=cache_dir, max_entries=max_entries)
            _PROCESS_CACHES[cache_config] = cache
        _PROCESS_CACHES.move_to_end(cache_config)
        while len(_PROCESS_CACHES) > _MAX_PROCESS_CACHES:
            _PROCESS_CACHES.popitem(last=False)
        return cache


# -- data keys -------------------------------------------------------------------


def task_content_digest(task):
    """Stable content hash of an in-memory task's data context.

    The in-memory counterpart of :func:`repro.tasks.io.task_fingerprint`
    (which hashes a *saved* task folder): every context entry is hashed
    by key and content, so two tasks with identical data share a digest
    — and may validly share cached prefixes.  The digest is memoized on
    the task object; worker-resident tasks therefore pay the hash once
    per process, not once per fold.

    Arrays are hashed as a ``dtype.str``/shape header plus their raw
    bytes: contiguous arrays feed their buffer to the hasher with zero
    copies, non-contiguous ones pay a single ``tobytes`` flatten, and
    object arrays pickle the array directly instead of round-tripping
    through ``tolist()`` (which rebuilt every row as Python lists).  The
    version tag in the seed keys the digest format itself, so a format
    change can never alias an old digest.
    """
    cached = getattr(task, "_content_digest", None)
    if cached is not None:
        return cached
    hasher = hashlib.sha256(b"repro-task-digest-v2")
    for key in sorted(task.context):
        value = task.context[key]
        hasher.update(key.encode("utf-8"))
        hasher.update(b"\0")
        if isinstance(value, np.ndarray):
            hasher.update(value.dtype.str.encode("utf-8"))
            hasher.update(str(value.shape).encode("utf-8"))
            if value.dtype.hasobject:
                hasher.update(b"|obj|")
                hasher.update(pickle.dumps(value, protocol=_PICKLE_PROTOCOL))
            else:
                hasher.update(b"|raw|")
                if value.flags.c_contiguous:
                    hasher.update(value.data)
                else:
                    hasher.update(value.tobytes())
        else:
            hasher.update(pickle.dumps(value, protocol=_PICKLE_PROTOCOL))
        hasher.update(b"\0")
    digest = hasher.hexdigest()
    try:
        task._content_digest = digest
    except AttributeError:
        pass  # exotic task objects without a writable __dict__ just re-hash
    return digest


def fold_data_key(task, train_indices):
    """Data key of one cross-validation fold: parent digest + train indices.

    Hashing the (memoized) parent-task digest with the fold's train-index
    array is equivalent to — but much cheaper than — digesting the
    materialized fold subset, because the same parent digest serves every
    fold of every candidate on the task.
    """
    indices = np.ascontiguousarray(np.asarray(train_indices))
    hasher = hashlib.sha256()
    hasher.update(task_content_digest(task).encode("utf-8"))
    hasher.update(b"|")
    hasher.update(str(indices.dtype).encode("utf-8"))
    hasher.update(indices.tobytes())
    return hasher.hexdigest()
