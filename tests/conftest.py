"""Shared fixtures for the test suite."""

import glob
import multiprocessing
import os
import re
import tempfile
import threading
import time

import numpy as np
import pytest

#: Test modules (``request.module.__name__``) allowed to fail the leak check
#: below because the fix belongs to source code outside the issue that found
#: them, each with that reason.  Empty: every finding so far was fixed.
LEAK_ALLOW_LIST = {}

_LEAKABLE_THREADS = ("pool-supervisor",)

#: The files of a record store's or an event stream's log, as a descriptor
#: of this process names them (`` (deleted)`` once the file is unlinked).
_LOG_FILE_RE = re.compile(r"/(segment-\d{6}\.jsonl|ops\.lock)( \(deleted\))?$")

#: Name prefixes of the temporary directories the package creates and owns
#: (a search's or a fleet's prefix cache, a fault-injection plan).
_OWNED_TEMP_PREFIXES = ("repro-prefix-cache-", "repro-fleet-cache-", "repro-fault-plan-")


def _owned_temp_dirs():
    root = tempfile.gettempdir()
    return {path for prefix in _OWNED_TEMP_PREFIXES
            for path in glob.glob(os.path.join(glob.escape(root), prefix + "*"))}


def _open_log_files():
    """The log files this process holds a descriptor on."""
    found = []
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(os.path.join("/proc/self/fd", name))
        except OSError:
            continue  # closed since the listing (the listing's own descriptor)
        if _LOG_FILE_RE.search(target):
            found.append(target)
    return sorted(found)


def _leaked_workers(temp_dirs_before):
    from repro.automl import shm

    threads = [thread.name for thread in threading.enumerate()
               if thread.name in _LEAKABLE_THREADS]
    children = ["{} (pid {})".format(child.name, child.pid)
                for child in multiprocessing.active_children()]
    segments = [path for directory in shm._segment_directories()
                for path in glob.glob(os.path.join(
                    directory, "{}-{}-*".format(shm.SEGMENT_PREFIX, os.getpid())))]
    temp_dirs = sorted(_owned_temp_dirs() - temp_dirs_before)
    return threads + children + segments + temp_dirs + _open_log_files()


@pytest.fixture(scope="module", autouse=True)
def _module_leaves_no_workers_behind(request):
    """Name the test module that leaks a pool, a log handle or task data.

    A ``pool-supervisor`` thread or a child process alive after a module's
    last test means some test never shut down a backend, a fleet or a
    session — which then rides along under every later module (forks
    inherit its locks and descriptors).  A descriptor still open on a
    log's segment or lock file means the same for a record store or a
    telemetry sink that was never closed, a task segment this process
    published and never unlinked, in either segment directory, the same
    for the data plane, and an owned temporary directory
    (:data:`_OWNED_TEMP_PREFIXES`) that appeared during the module and
    outlived it the same for a cache or a fault plan; the directories that
    existed before the module, other processes' among them, never count.
    """
    temp_dirs_before = _owned_temp_dirs()
    yield
    deadline = time.monotonic() + 5.0
    leaked = _leaked_workers(temp_dirs_before)
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)  # a just-closed pool is still reaping its workers
        leaked = _leaked_workers(temp_dirs_before)
    if request.module.__name__ not in LEAK_ALLOW_LIST:
        assert not leaked, "{} left behind: {}".format(request.module.__name__, leaked)



@pytest.fixture
def in_process_pool():
    """A ``_PoolBackend`` class whose folds run concurrently on threads of this process.

    Not a product backend: the cheapest concurrent runner for tests of the
    dispatch path itself (completion order, cancellation, draining a
    caller-owned backend), with no worker process to start.  Pass the class
    as a search's ``backend`` or construct it with ``workers=``.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.automl.backends import _PoolBackend

    class InProcessPool(_PoolBackend):
        name = "in-process-pool"

        def _make_executor(self):
            return ThreadPoolExecutor(max_workers=self.workers)

    return InProcessPool


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.RandomState(0)


@pytest.fixture
def classification_data(rng):
    """A small, clearly separable binary classification dataset."""
    X = rng.normal(size=(120, 6))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


@pytest.fixture
def multiclass_data(rng):
    """A small three-class dataset with Gaussian clusters."""
    centers = np.array([[0.0, 0.0], [3.0, 3.0], [-3.0, 3.0]])
    y = rng.randint(0, 3, size=150)
    X = centers[y] + rng.normal(scale=0.6, size=(150, 2))
    X = np.hstack([X, rng.normal(size=(150, 3))])
    return X, y


@pytest.fixture
def regression_data(rng):
    """A small regression dataset with a linear signal."""
    X = rng.normal(size=(120, 5))
    y = 2.0 * X[:, 0] - X[:, 1] + 0.1 * rng.normal(size=120)
    return X, y
