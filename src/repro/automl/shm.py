"""The process data plane: every task reaches the workers as one mapped file.

A process fleet ships each task to its workers once, whatever the task
holds (see :meth:`FleetCoordinator._task_ref
<repro.automl.fleet.FleetCoordinator._task_ref>`):

* :func:`publish_task` writes the task as one file in the segment
  directory (``/dev/shm`` where it is a directory, else the temp
  directory): the raw ndarray columns at 64-byte-aligned offsets, then
  everything else — object arrays, graphs, entity sets and the task
  metadata — as one pickle.  The file is written with ordinary ``write``
  calls, never through a mapping, so a full filesystem is an ``OSError``
  the publisher sees (it then publishes the file in the temp directory)
  instead of a ``SIGBUS``.  It returns a coordinator-owned
  :class:`SharedTaskSegment` whose picklable :class:`SharedTaskHandle`
  (file name, directory, dtype/shape/offset manifest) is what travels
  with each fold submission.
* :func:`attach_task` maps the file read-only (``mmap``) inside a worker and
  rebuilds the task around **read-only** ``np.ndarray`` views of it: the
  raw columns are never copied, only the pickled rest is unpickled.  Fold
  materialization (fancy indexing in ``MLTask.subset``) produces ordinary
  writable arrays from the views.

Ownership and cleanup
---------------------
The coordinator that published a file owns it, and
:meth:`SharedTaskSegment.release` unlinks it; workers only ever drop their
mappings.  Two safety nets cover abnormal exits:

* a module-level ``atexit`` hook unlinks every file this process still
  owns on normal interpreter shutdown (including unhandled exceptions),
* file names embed the publishing PID (``repro-shm-<pid>-<seq>-<token>``),
  and :func:`sweep_stale_segments` — run whenever a fleet starts — unlinks
  the files, in both directories, whose publisher is no longer alive
  (covers SIGKILL, where ``atexit`` never runs).
"""

import atexit
import mmap
import os
import pickle
import tempfile
import threading
import weakref
from itertools import count

import numpy as np

from repro.telemetry.events import capture_event

#: Prefix of every segment name published by this module.
SEGMENT_PREFIX = "repro-shm"

#: Byte alignment of each array inside a segment (cache-line friendly).
_ALIGNMENT = 64

#: The segment directory where the machine has a shared-memory filesystem.
_SHM_DIR = "/dev/shm"

_SEGMENT_SEQ = count()
_LIVE_LOCK = threading.Lock()
#: name -> path of segments published (and not yet unlinked) by this
#: process; drained by the atexit hook.
_LIVE_SEGMENTS = {}
_ATEXIT_REGISTERED = False

#: Per-process cache of worker-side mappings.  Values are kept alive by
#: the tasks built on them (``task._shm_attachment``), so entries vanish
#: exactly when the worker task LRU drops the task — re-attaching after an
#: eviction is a cheap mmap, not a data copy.
_ATTACHMENTS = weakref.WeakValueDictionary()
_ATTACH_LOCK = threading.Lock()


def _segment_directories():
    """Where segments are published: the segment directory, then its fallback."""
    fallback = tempfile.gettempdir()
    if os.path.isdir(_SHM_DIR) and fallback != _SHM_DIR:
        return _SHM_DIR, fallback
    return (fallback,)


def _unlink_quietly(path):
    try:
        os.unlink(path)
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
        paths = list(_LIVE_SEGMENTS.values())
        _LIVE_SEGMENTS.clear()
    for path in paths:
        _unlink_quietly(path)


class SharedTaskHandle:
    """Picklable reference to a published task: what travels with each fold.

    ``key`` feeds the worker-resident LRU, ``load`` attaches the task.
    """

    def __init__(self, segment, directory, manifest, rest_offset):
        self.segment = segment  # file name
        self.directory = directory  # where the file was published
        self.manifest = manifest  # [(key, dtype_str, shape, offset), ...] of the raw arrays
        self.rest_offset = rest_offset  # where the pickled rest of the task starts

    @property
    def key(self):
        return self.segment

    @property
    def path(self):
        return os.path.join(self.directory, self.segment)

    def load(self):
        return attach_task(self)

    def __repr__(self):
        return "SharedTaskHandle(segment={!r}, directory={!r}, arrays={})".format(
            self.segment, self.directory, len(self.manifest)
        )


class SharedTaskSegment:
    """A coordinator-owned published task file; :meth:`release` unlinks it.

    Holds the task it was written from, which is what
    :meth:`ensure_published` writes the file again from.
    """

    def __init__(self, task, handle):
        self.task = task
        self.handle = handle
        self._released = False
        self._lock = threading.Lock()

    @property
    def name(self):
        return self.handle.segment

    def release(self):
        with self._lock:
            self._released = True
        with _LIVE_LOCK:
            _LIVE_SEGMENTS.pop(self.name, None)
        _unlink_quietly(self.handle.path)

    def ensure_published(self):
        """Write the file again if it was unlinked under us.

        A file yanked out of its directory by a crashed writer or a fault
        injection is restored under the *same name* (the layout is a
        function of the task, so the handle's manifest still holds) —
        workers re-attach on the fold retry without any handle changing.
        Returns whether a republication happened.
        """
        with self._lock:
            if self._released or os.path.exists(self.handle.path):
                return False
            _write_task(self.handle.path, self.task)
            return True

    def __repr__(self):
        return "SharedTaskSegment(name={!r})".format(self.name)


def _aligned(offset):
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _task_meta(task):
    return {
        "name": task.name,
        "data_modality": task.data_modality,
        "problem_type": task.problem_type,
        "static_keys": sorted(task.static_keys),
        "metric": task.metric,
        "ordered": task.ordered,
        "metadata": task.metadata,
        # ship the memoized content digest when the coordinator already
        # paid for it, so workers with a prefix cache never re-hash the
        # arrays they attached
        "content_digest": getattr(task, "_content_digest", None),
    }


def _write_task(path, task):
    """Write ``task`` to a new file at ``path``; returns ``(manifest, rest_offset)``.

    Raw ndarray columns go first, each at an aligned offset; everything
    else follows as one pickle.  A partial file is unlinked before the
    ``OSError`` that cut it short propagates.
    """
    arrays, rest = {}, {}
    for key, value in task.context.items():
        if isinstance(value, np.ndarray) and not value.dtype.hasobject:
            arrays[key] = np.ascontiguousarray(value)
        else:
            rest[key] = value
    manifest = []
    offset = 0
    for key in sorted(arrays):
        offset = _aligned(offset)
        manifest.append((key, arrays[key].dtype.str, arrays[key].shape, offset))
        offset += arrays[key].nbytes
    rest_offset = _aligned(offset)
    blob = pickle.dumps({"context": rest, "meta": _task_meta(task)},
                        protocol=pickle.HIGHEST_PROTOCOL)
    stream = open(path, "xb")
    try:
        with stream:  # closing flushes: a full filesystem can fail there too
            for key, _, _, array_offset in manifest:
                stream.seek(array_offset)
                stream.write(arrays[key].reshape(-1).view(np.uint8))
            stream.seek(rest_offset)
            stream.write(blob)
    except BaseException:
        _unlink_quietly(path)
        raise
    return manifest, rest_offset


def publish_task(task):
    """Write ``task`` as one segment file; returns the owning :class:`SharedTaskSegment`.

    A segment directory that cannot take the file (a full ``/dev/shm``)
    fails a ``write`` with ``OSError``; the task is then published in the
    temp directory instead, and an ``OSError`` there propagates.
    """
    name = "{}-{}-{}-{}".format(
        SEGMENT_PREFIX, os.getpid(), next(_SEGMENT_SEQ), os.urandom(4).hex()
    )
    directories = _segment_directories()
    for directory in directories:
        path = os.path.join(directory, name)
        try:
            manifest, rest_offset = _write_task(path, task)
            break
        except OSError:
            if directory == directories[-1]:
                raise
    _register_atexit()
    with _LIVE_LOCK:
        _LIVE_SEGMENTS[name] = path
    return SharedTaskSegment(task, SharedTaskHandle(name, directory, manifest, rest_offset))


def attach_task(handle):
    """Rebuild the published task from read-only views over its mapped file.

    Raises ``FileNotFoundError`` when the file was already unlinked (the
    coordinator evicted or shut down mid-flight); the caller treats that
    like any other fold failure.
    """
    from repro.tasks.task import MLTask

    with _ATTACH_LOCK:
        mapping = _ATTACHMENTS.get(handle.segment)
        attached = mapping is None
        if attached:
            with open(handle.path, "rb") as stream:
                mapping = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
            _ATTACHMENTS[handle.segment] = mapping
    rest = pickle.loads(memoryview(mapping)[handle.rest_offset:])
    meta = rest["meta"]
    if attached:
        capture_event("shm_attach", segment=handle.segment, task=meta["name"])
    context = {
        key: np.ndarray(tuple(shape), dtype=np.dtype(dtype_str), buffer=mapping, offset=offset)
        for key, dtype_str, shape, offset in handle.manifest
    }
    context.update(rest["context"])
    task = MLTask(
        name=meta["name"],
        data_modality=meta["data_modality"],
        problem_type=meta["problem_type"],
        context=context,
        static_keys=meta["static_keys"],
        metric=meta["metric"],
        ordered=meta["ordered"],
        metadata=meta["metadata"],
    )
    if meta["content_digest"]:
        task._content_digest = meta["content_digest"]
    # the mapping must outlive every view in the task's context
    task._shm_attachment = mapping
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

    Scans both segment directories for this module's segment names,
    parses the embedded publisher PID and removes every segment whose
    publisher no longer exists — the ``atexit`` hook never ran because the
    coordinator was SIGKILLed.  Returns the removed segment names.
    """
    removed = []
    own_pid = os.getpid()
    for directory in _segment_directories():
        try:
            names = os.listdir(directory)
        except OSError:
            continue
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
                os.unlink(os.path.join(directory, name))
                removed.append(name)
            except OSError:
                pass
    return removed
