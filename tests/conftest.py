"""Shared fixtures for the test suite."""

import glob
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

#: Test modules (``request.module.__name__``) allowed to fail the leak check
#: below because the fix belongs to source code outside the issue that found
#: them, each with that reason.  Empty: every finding so far was fixed.
LEAK_ALLOW_LIST = {}

_LEAKABLE_THREADS = ("pool-supervisor", "telemetry-writer")


def _leaked_workers():
    from repro.automl import fleet, shm

    threads = [thread.name for thread in threading.enumerate()
               if thread.name in _LEAKABLE_THREADS]
    children = ["{} (pid {})".format(child.name, child.pid)
                for child in multiprocessing.active_children()]
    segments = glob.glob(os.path.join(
        "/dev/shm", "{}-{}-*".format(shm.SEGMENT_PREFIX, os.getpid())))
    return threads + children + segments + sorted(fleet._SPILL_FILES)


@pytest.fixture(scope="module", autouse=True)
def _module_leaves_no_workers_behind(request):
    """Name the test module that leaks a pool, a telemetry sink or task data.

    A ``pool-supervisor`` thread, a ``telemetry-writer`` thread or a child
    process alive after a module's last test means some test never shut
    down a backend, a fleet, a session or a sink — which then rides along
    under every later module (forks inherit its locks and descriptors).
    A shared-memory segment this process published, or a task spill file
    a fleet still has registered, means the same for the data plane.
    """
    yield
    deadline = time.monotonic() + 5.0
    leaked = _leaked_workers()
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)  # a just-closed pool is still reaping its workers
        leaked = _leaked_workers()
    if request.module.__name__ not in LEAK_ALLOW_LIST:
        assert not leaked, "{} left behind: {}".format(request.module.__name__, leaked)



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
