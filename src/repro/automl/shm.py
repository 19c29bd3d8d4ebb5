"""Zero-copy shared-memory data plane for process-backend fold dispatch.

The process backend historically shipped each task to its workers through
an on-disk pickle (:class:`~repro.automl.backends.TaskPayload`): one
serialize on the coordinator, one deserialize per worker — a full copy of
the dataset through the filesystem for every worker (and for every fold
once the worker LRU starts evicting).  This module removes that copy for
the common case of pure-ndarray tasks:

* :func:`publish_task` lays the task's context arrays out once into a
  single ``multiprocessing.shared_memory`` segment and returns a
  coordinator-owned :class:`SharedTaskSegment` whose picklable
  :class:`SharedTaskHandle` (segment name + dtype/shape/offset manifest +
  task metadata) is what actually travels with each fold submission.
* :func:`attach_task` rebuilds the task inside a worker as **read-only**
  ``np.ndarray`` views over the mapped segment — no bytes are copied; fold
  materialization (fancy indexing in ``MLTask.subset``) produces ordinary
  writable arrays from the views.

Ownership and cleanup
---------------------
The coordinator that published a segment owns it.  Segments are
refcounted (:meth:`SharedTaskSegment.acquire` / ``release``): the
backend's payload registry holds the publication reference and the last
``release`` unlinks the segment.  Three safety nets cover abnormal exits:

* a module-level ``atexit`` hook unlinks every still-live segment on
  normal interpreter shutdown (including unhandled exceptions),
* segment names embed the publishing PID
  (``repro-shm-<pid>-<seq>-<token>``), and :func:`sweep_stale_segments`
  — run whenever a new process backend starts — unlinks segments whose
  publisher is no longer alive (covers SIGKILL, where ``atexit`` never
  runs),
* workers only ever ``close`` their mapping, never ``unlink``.

Python's ``resource_tracker`` is deliberately kept out of the loop
(segments are opened with the tracker's registration suppressed, see
:func:`_open_shm`): a tracker-registered attachment would unlink the
segment as soon as the attaching process exits (bpo-39959), yanking it
out from under the coordinator and its sibling workers — and under the
fork start method all workers share one tracker daemon, so even
unregister-after-attach races between siblings.  The PID sweep replaces
the tracker's leak protection without either failure mode.
"""

import atexit
import os
import pickle
import threading
import weakref
from itertools import count

import numpy as np

from repro.telemetry.events import capture_event

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython >= 3.8
    _shared_memory = None

#: Prefix of every segment name published by this module.
SEGMENT_PREFIX = "repro-shm"

#: Byte alignment of each array inside a segment (cache-line friendly).
_ALIGNMENT = 64

#: Where POSIX shared memory surfaces as files (Linux); the stale-segment
#: sweep scans this directory and is a no-op elsewhere.
_SHM_DIR = "/dev/shm"

_SEGMENT_SEQ = count()
_LIVE_LOCK = threading.Lock()
#: name -> SharedMemory of segments published (and not yet unlinked) by
#: this process; drained by the atexit hook.
_LIVE_SEGMENTS = {}
_ATEXIT_REGISTERED = False

#: Per-process cache of worker-side attachments.  Values are kept alive by
#: the tasks that reference them (``task._shm_attachment``), so entries
#: vanish exactly when the worker task LRU drops the task — re-attaching
#: after an eviction is a cheap mmap, not a data copy.
_ATTACHMENTS = weakref.WeakValueDictionary()
_ATTACH_LOCK = threading.Lock()

_AVAILABLE = None


class TaskNotShareableError(ValueError):
    """The task's context cannot be published as raw shared-memory arrays."""


def shm_available():
    """Whether shared-memory segments can be created on this platform."""
    global _AVAILABLE
    if _AVAILABLE is None:
        if _shared_memory is None:
            _AVAILABLE = False
        else:
            try:
                probe = _open_shm(create=True, size=1)
                probe.close()
                _unlink_silently(probe)
                _AVAILABLE = True
            except Exception:  # noqa: BLE001 - any failure means "no shm here"
                _AVAILABLE = False
    return _AVAILABLE


def task_is_shareable(task):
    """Whether every context value is a raw-byte-shareable ndarray.

    Object-dtype arrays (ragged data, strings) and non-array context
    values (lists of texts, graphs, entity sets) pickle fine but cannot
    be expressed as a flat byte buffer, so tasks carrying them fall back
    to the pickle data plane.
    """
    for value in task.context.values():
        if not isinstance(value, np.ndarray) or value.dtype.hasobject:
            return False
    return True


_TRACKER_LOCK = threading.Lock()
#: The tracker's real ``register`` while :func:`_open_shm` has it swapped
#: out, else ``None``; what a forked child needs to undo a swap in flight.
_SWAPPED_REGISTER = None


def _open_shm(*args, **kwargs):
    """Open a ``SharedMemory`` without registering it with the tracker.

    ``SharedMemory.__init__`` registers the segment on *both* create and
    attach; suppressing the registration at the source (instead of
    unregistering afterwards) keeps the shared fork-mode tracker daemon
    free of register/unregister races between sibling workers attaching
    the same segment (see module docs).
    """
    global _SWAPPED_REGISTER
    try:
        from multiprocessing import resource_tracker
    except Exception:  # pragma: no cover - tracker always importable on CPython
        return _shared_memory.SharedMemory(*args, **kwargs)
    with _TRACKER_LOCK:
        _SWAPPED_REGISTER = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return _shared_memory.SharedMemory(*args, **kwargs)
        finally:
            resource_tracker.register = _SWAPPED_REGISTER
            _SWAPPED_REGISTER = None


def _reset_tracker_guard_after_fork():
    """Give a forked child an unlocked guard and the tracker's real ``register``.

    ``fork`` copies only the forking thread.  A pool worker forked while
    another thread (a fleet tenant publishing its task) is inside
    :func:`_open_shm` inherits ``_TRACKER_LOCK`` held by a thread that does
    not exist in the child, and ``resource_tracker.register`` still swapped
    for the no-op: its first attach would wait on the lock for ever and its
    fold never complete.
    """
    global _TRACKER_LOCK, _SWAPPED_REGISTER
    _TRACKER_LOCK = threading.Lock()
    if _SWAPPED_REGISTER is not None:
        from multiprocessing import resource_tracker

        resource_tracker.register = _SWAPPED_REGISTER
        _SWAPPED_REGISTER = None


if hasattr(os, "register_at_fork"):  # POSIX only, like fork itself
    os.register_at_fork(after_in_child=_reset_tracker_guard_after_fork)


def _unlink_silently(segment):
    """Unlink ``segment`` without resource-tracker stderr noise.

    ``SharedMemory.unlink`` unconditionally sends an UNREGISTER message,
    but :func:`_open_shm` never registered the segment, so the tracker
    daemon would log a spurious ``KeyError`` traceback.  Registering
    immediately before the unlink keeps the daemon's books balanced.
    """
    with _TRACKER_LOCK:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.register(segment._name, "shared_memory")
        except Exception:  # noqa: BLE001 - tracker absent; unlink regardless
            pass
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):
            pass


def _close_quietly(segment):
    try:
        segment.close()
    except BufferError:
        # ndarray views over the mapping are still alive; the mapping is
        # released when they are garbage collected
        pass
    except OSError:
        pass


def _register_atexit():
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(_unlink_live_segments)
        _ATEXIT_REGISTERED = True


def _unlink_live_segments():
    """atexit hook: unlink every segment this process still owns."""
    with _LIVE_LOCK:
        segments = list(_LIVE_SEGMENTS.values())
        _LIVE_SEGMENTS.clear()
    for segment in segments:
        _close_quietly(segment)
        _unlink_silently(segment)


class SharedTaskHandle:
    """Picklable reference to a task published in shared memory.

    The worker-side twin of :class:`~repro.automl.backends.TaskPayload`:
    ``key`` feeds the worker-resident LRU, ``load`` materializes the task
    (here: attaches read-only views instead of unpickling).
    """

    def __init__(self, segment, manifest, meta):
        self.segment = segment  # segment name
        self.manifest = manifest  # [(key, dtype_str, shape, offset), ...]
        self.meta = meta  # task metadata (name, metric, static_keys, ...)

    @property
    def key(self):
        return self.segment

    def load(self):
        return attach_task(self)

    def __repr__(self):
        return "SharedTaskHandle(segment={!r}, arrays={})".format(
            self.segment, len(self.manifest)
        )


class SharedTaskSegment:
    """A coordinator-owned published segment with unlink-on-last-release.

    The publisher starts with one reference (held by whoever keeps the
    segment in a registry); in-flight users may ``acquire``/``release``
    around their use, and the release that drops the count to zero closes
    and unlinks the segment.
    """

    def __init__(self, shm, handle):
        self._shm = shm
        self.handle = handle
        self._refs = 1
        self._lock = threading.Lock()

    @property
    def name(self):
        return self.handle.segment

    def acquire(self):
        with self._lock:
            if self._refs <= 0:
                raise RuntimeError("Segment {!r} is already unlinked".format(self.name))
            self._refs += 1
        return self

    def release(self):
        with self._lock:
            self._refs -= 1
            if self._refs > 0:
                return
        with _LIVE_LOCK:
            _LIVE_SEGMENTS.pop(self.name, None)
        _close_quietly(self._shm)
        _unlink_silently(self._shm)

    def ensure_published(self):
        """Recreate the backing file if it was unlinked under us.

        The publisher's mapping stays valid after an unlink (the kernel
        keeps the pages while any mapping lives), so a segment yanked out
        of ``/dev/shm`` by a crashed writer or a fault injection can be
        restored byte-for-byte under the *same name* — workers re-attach
        on the fold retry without any handle changing.  Returns whether a
        republication happened.
        """
        with self._lock:
            if self._refs <= 0:
                return False
            if not os.path.isdir(_SHM_DIR):
                return False  # no shm filesystem to check against
            if os.path.exists(os.path.join(_SHM_DIR, self.name)):
                return False
            fresh = _open_shm(name=self.name, create=True, size=self._shm.size)
            fresh.buf[:] = self._shm.buf[:]
            stale = self._shm
            self._shm = fresh
            with _LIVE_LOCK:
                _LIVE_SEGMENTS[self.name] = fresh
            _close_quietly(stale)
            return True

    def __repr__(self):
        return "SharedTaskSegment(name={!r})".format(self.name)


def _aligned(offset):
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _task_meta(task):
    meta = {
        "name": task.name,
        "data_modality": task.data_modality,
        "problem_type": task.problem_type,
        "static_keys": sorted(task.static_keys),
        "metric": task.metric,
        "ordered": task.ordered,
        "metadata": pickle.dumps(task.metadata, protocol=pickle.HIGHEST_PROTOCOL),
        # ship the memoized content digest when the coordinator already
        # paid for it, so workers with a prefix cache never re-hash the
        # arrays they attached
        "content_digest": getattr(task, "_content_digest", None),
    }
    return meta


def publish_task(task):
    """Copy ``task``'s arrays into one shared segment; returns the owner object.

    Raises :class:`TaskNotShareableError` for tasks whose context cannot
    be expressed as raw array bytes, and whatever the platform raises when
    shared memory itself is unavailable — callers are expected to fall
    back to the pickle data plane on any failure.
    """
    if _shared_memory is None:
        raise TaskNotShareableError("multiprocessing.shared_memory is unavailable")
    arrays = {}
    for key, value in task.context.items():
        if not isinstance(value, np.ndarray) or value.dtype.hasobject:
            raise TaskNotShareableError(
                "Context key {!r} is not a shareable ndarray".format(key)
            )
        arrays[key] = np.ascontiguousarray(value)

    manifest = []
    offset = 0
    for key in sorted(arrays):
        array = arrays[key]
        offset = _aligned(offset)
        manifest.append((key, array.dtype.str, array.shape, offset))
        offset += array.nbytes

    name = "{}-{}-{}-{}".format(
        SEGMENT_PREFIX, os.getpid(), next(_SEGMENT_SEQ), os.urandom(4).hex()
    )
    shm = _open_shm(create=True, name=name, size=max(offset, 1))
    try:
        for (key, dtype_str, shape, array_offset) in manifest:
            destination = np.ndarray(
                shape, dtype=np.dtype(dtype_str), buffer=shm.buf, offset=array_offset
            )
            destination[...] = arrays[key]
    except Exception:
        _close_quietly(shm)
        _unlink_silently(shm)
        raise
    handle = SharedTaskHandle(name, manifest, _task_meta(task))
    _register_atexit()
    with _LIVE_LOCK:
        _LIVE_SEGMENTS[name] = shm
    return SharedTaskSegment(shm, handle)


class _TaskAttachment:
    """A worker-side mapping of one published segment.

    Holds the ``SharedMemory`` object alive for as long as any task built
    from it exists; closing happens on garbage collection, after the
    ndarray views (which the task's context holds) are gone.
    """

    def __init__(self, handle):
        self.shm = _open_shm(name=handle.segment)
        self.name = handle.segment

    def views(self, manifest):
        views = {}
        for key, dtype_str, shape, offset in manifest:
            view = np.ndarray(
                tuple(shape), dtype=np.dtype(dtype_str), buffer=self.shm.buf, offset=offset
            )
            view.flags.writeable = False
            views[key] = view
        return views

    def __del__(self):
        shm = getattr(self, "shm", None)
        if shm is not None:
            _close_quietly(shm)


def attach_task(handle):
    """Rebuild the published task from read-only views over the segment.

    Raises ``FileNotFoundError`` when the segment was already unlinked
    (the coordinator evicted or shut down mid-flight); the caller treats
    that like any other fold failure.
    """
    from repro.tasks.task import MLTask

    with _ATTACH_LOCK:
        attachment = _ATTACHMENTS.get(handle.segment)
        if attachment is None:
            attachment = _TaskAttachment(handle)
            _ATTACHMENTS[handle.segment] = attachment
            capture_event("shm_attach", segment=handle.segment,
                          task=handle.meta.get("name"))
    meta = handle.meta
    task = MLTask(
        name=meta["name"],
        data_modality=meta["data_modality"],
        problem_type=meta["problem_type"],
        context=attachment.views(handle.manifest),
        static_keys=meta["static_keys"],
        metric=meta["metric"],
        ordered=meta["ordered"],
        metadata=pickle.loads(meta["metadata"]),
    )
    if meta.get("content_digest"):
        task._content_digest = meta["content_digest"]
    # the attachment must outlive every view in the task's context
    task._shm_attachment = attachment
    return task


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def sweep_stale_segments():
    """Unlink segments whose publishing process is gone (crash cleanup).

    Scans the shared-memory filesystem for this module's segment names,
    parses the embedded publisher PID and removes every segment whose
    publisher no longer exists — the ``atexit`` hook never ran because the
    coordinator was SIGKILLed.  Returns the removed segment names.
    """
    removed = []
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return removed
    own_pid = os.getpid()
    for name in names:
        if not name.startswith(SEGMENT_PREFIX + "-"):
            continue
        parts = name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        if pid == own_pid or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
            removed.append(name)
        except OSError:
            pass
    return removed
