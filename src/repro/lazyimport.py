"""Import a module on first use, never while a process forks.

SciPy is imported by the few functions that use it, on their first call,
so that importing the package and running a search that never needs it
load no SciPy at all.  A first import inside a function can run on any
thread — a fleet tenant's first GP fit, say — while another thread forks
pool workers.  ``fork`` copies only the forking thread: a worker forked in
the middle of that import inherits half-initialised modules whose import
locks belong to a thread it does not have, and its own first import of any
of them (a primitive whose library uses SciPy) waits for ever.

:func:`import_module` therefore imports under a lock that every ``fork``
takes first (``os.register_at_fork``): a fork waits for an import in
flight to finish, and an import waits for a fork in flight.  Once a module
is loaded the call is a lock round trip and a ``sys.modules`` lookup.
"""

import importlib
import os
import threading

_IMPORT_LOCK = threading.Lock()

if hasattr(os, "register_at_fork"):  # POSIX only, like fork itself
    os.register_at_fork(
        before=_IMPORT_LOCK.acquire,
        after_in_parent=_IMPORT_LOCK.release,
        after_in_child=_IMPORT_LOCK.release,
    )


def import_module(name):
    """``importlib.import_module(name)``, never overlapping an ``os.fork``."""
    with _IMPORT_LOCK:
        return importlib.import_module(name)
