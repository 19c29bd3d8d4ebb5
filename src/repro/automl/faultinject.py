"""Deterministic fault injection for the supervised execution layer.

A :class:`FaultPlan` is a seeded schedule of faults — worker kills, fold
hangs, slow folds, shared-memory unlinks — fired from *inside* worker
processes at fold granularity.  The plan travels to workers through the
``REPRO_FAULT_PLAN`` environment variable and is armed by the worker
initializer (:func:`install_from_env`), so it reaches every worker the
pool ever spawns, including the replacements spawned after a fault kills
one.  The evaluation entry points in ``backends.py`` call
:func:`maybe_inject` at the top of every fold, which is a single ``None``
check when no plan is armed.

Determinism: fold starts are counted *globally* across all workers via a
``flock``-serialized counter file in the plan directory, and each fault
fires when its ``at_fold`` index is claimed.  Each injection point claims
a fresh count, so a fault fires exactly once — the retried fold claims a
new (higher) count and runs clean.  Which concrete fold draws a given
count depends on scheduling, but that is exactly the point the chaos
suite proves: folds are pure, so *any* single-fault plan yields a final
record stream bit-identical to the fault-free run.

Fault kinds
-----------
``worker_kill``
    SIGKILL the worker mid-fold; the supervisor respawns it and retries.
``fold_hang``
    Sleep far past any reasonable ``fold_timeout``; the deadline monitor
    kills the worker and the fold is retried.
``slow_fold``
    Sleep briefly (a straggler, not a fault) — must *not* trip recovery
    when the deadline is sized sanely.
``shm_unlink``
    Unlink the fold's shared-memory segment and drop this worker's
    cached attachment, so task resolution fails retriably; the backend's
    fault listener re-publishes the segment before the retry.
"""

import contextlib
import json
import os
import random
import shutil
import signal
import tempfile
import time

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX; plans simply cannot arm
    fcntl = None

#: Environment variable carrying the JSON-encoded plan to workers.
PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: Supported fault kinds.
FAULT_KINDS = ("worker_kill", "fold_hang", "slow_fold", "shm_unlink")

#: Default sleep lengths (seconds) for the time-based kinds.
DEFAULT_HANG_SECONDS = 3600.0
DEFAULT_SLOW_SECONDS = 0.25

_COUNTER_FILENAME = "fold-counter"

_ACTIVE_PLAN = None


class FaultPlan:
    """A schedule of faults keyed by global fold-start index.

    Parameters
    ----------
    faults:
        Iterable of dicts with keys ``kind`` (one of
        :data:`FAULT_KINDS`), ``at_fold`` (global fold-start index at
        which the fault fires) and optional ``seconds`` (sleep length
        for ``fold_hang``/``slow_fold``).
    plan_dir:
        Directory holding the cross-process fold counter.  When omitted,
        :meth:`activate` creates one under the system temp directory for
        the ``with`` body and removes it afterwards; a caller-supplied
        directory is left in place.
    """

    def __init__(self, faults, plan_dir=None):
        validated = []
        for fault in faults:
            kind = fault.get("kind")
            if kind not in FAULT_KINDS:
                raise ValueError("unknown fault kind: {!r}".format(kind))
            at_fold = int(fault.get("at_fold", 0))
            if at_fold < 0:
                raise ValueError("at_fold must be non-negative")
            entry = {"kind": kind, "at_fold": at_fold}
            if fault.get("seconds") is not None:
                entry["seconds"] = float(fault["seconds"])
            validated.append(entry)
        self.faults = validated
        self.plan_dir = plan_dir
        self._by_fold = {fault["at_fold"]: fault for fault in self.faults}

    @classmethod
    def single(cls, kind, at_fold=0, seconds=None, plan_dir=None):
        """The single-fault plan the chaos guarantee is stated over."""
        return cls(
            [{"kind": kind, "at_fold": at_fold, "seconds": seconds}],
            plan_dir=plan_dir,
        )

    @classmethod
    def seeded(cls, seed, total_folds, kinds=FAULT_KINDS, n_faults=1,
               seconds=None, plan_dir=None):
        """Draw a reproducible schedule from ``seed``.

        Picks ``n_faults`` distinct fold indices in ``[0, total_folds)``
        and a kind for each, all from ``random.Random(seed)``.
        """
        rng = random.Random(seed)
        if total_folds < n_faults:
            raise ValueError("total_folds must cover n_faults")
        indices = rng.sample(range(total_folds), n_faults)
        faults = [
            {"kind": rng.choice(list(kinds)), "at_fold": index,
             "seconds": seconds}
            for index in sorted(indices)
        ]
        return cls(faults, plan_dir=plan_dir)

    def to_json(self):
        return json.dumps({"faults": self.faults, "plan_dir": self.plan_dir})

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        return cls(payload["faults"], plan_dir=payload["plan_dir"])

    @contextlib.contextmanager
    def activate(self):
        """Export the plan via the environment for the ``with`` body.

        Worker processes forked or spawned inside the body (including
        supervisor respawns) inherit the environment and arm the plan in
        their initializer.  The coordinator process itself stays unarmed
        unless it calls :func:`install_from_env` explicitly — the serial
        and thread baselines must run fault-free.
        """
        owns_plan_dir = self.plan_dir is None
        if owns_plan_dir:
            self.plan_dir = tempfile.mkdtemp(prefix="repro-fault-plan-")
        else:
            os.makedirs(self.plan_dir, exist_ok=True)
        previous = os.environ.get(PLAN_ENV_VAR)
        os.environ[PLAN_ENV_VAR] = self.to_json()
        try:
            yield self
        finally:
            if previous is None:
                os.environ.pop(PLAN_ENV_VAR, None)
            else:
                os.environ[PLAN_ENV_VAR] = previous
            if owns_plan_dir:
                shutil.rmtree(self.plan_dir, ignore_errors=True)
                self.plan_dir = None

    # -- firing -------------------------------------------------------------------

    @property
    def _counter_path(self):
        return os.path.join(self.plan_dir, _COUNTER_FILENAME)

    def _claim_fold(self):
        """Atomically claim the next global fold-start index."""
        if fcntl is None:  # pragma: no cover - non-POSIX
            return -1
        with open(self._counter_path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            handle.seek(0)
            raw = handle.read().strip()
            value = int(raw) if raw else 0
            handle.seek(0)
            handle.truncate()
            handle.write(str(value + 1).encode("ascii"))
            handle.flush()
        return value

    def fire(self, fault, task_ref=None):
        kind = fault["kind"]
        if kind == "worker_kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "fold_hang":
            time.sleep(fault.get("seconds") or DEFAULT_HANG_SECONDS)
        elif kind == "slow_fold":
            time.sleep(fault.get("seconds") or DEFAULT_SLOW_SECONDS)
        elif kind == "shm_unlink":
            _unlink_task_segment(task_ref)

    def maybe_inject(self, task_ref=None):
        fault = self._by_fold.get(self._claim_fold())
        if fault is not None:
            self.fire(fault, task_ref=task_ref)


def _unlink_task_segment(task_ref):
    """Yank a published segment out from under this worker.

    Drops the worker's cached task and attachment for ``task_ref`` and
    unlinks the backing ``/dev/shm`` file, so the next resolution fails
    with a retriable error.  The coordinator still holds its mapping of
    the segment, which is what :meth:`SharedTaskSegment.ensure_published`
    restores the file from before the retry.
    """
    segment = getattr(task_ref, "segment", None)
    if segment is None:
        return  # inline payload; nothing to unlink
    from repro.automl import backends, shm

    key = getattr(task_ref, "key", None)
    if key is not None:
        backends._WORKER_TASK_CACHE.pop(key, None)
    with shm._ATTACH_LOCK:
        shm._ATTACHMENTS.pop(segment, None)
    try:
        os.unlink(os.path.join(shm._SHM_DIR, segment))
    except OSError:
        pass


# -- worker-side hooks -----------------------------------------------------------


def install_from_env():
    """Arm the plan from ``REPRO_FAULT_PLAN``; called by worker initializers."""
    global _ACTIVE_PLAN
    text = os.environ.get(PLAN_ENV_VAR)
    if not text:
        _ACTIVE_PLAN = None
        return None
    try:
        _ACTIVE_PLAN = FaultPlan.from_json(text)
    except (ValueError, KeyError):
        _ACTIVE_PLAN = None
    return _ACTIVE_PLAN


def uninstall():
    """Disarm any active plan in this process (test hygiene)."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = None


def maybe_inject(task_ref=None):
    """Fire a scheduled fault if this fold-start claims its index.

    A single attribute load and ``None`` check when no plan is armed, so
    the production fold hot path pays nothing for the hook.
    """
    plan = _ACTIVE_PLAN
    if plan is not None:
        plan.maybe_inject(task_ref=task_ref)
