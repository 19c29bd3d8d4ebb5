"""Search checkpointing: durable, resumable AutoBazaar runs.

A *checkpointed run* lives in one directory::

    <run_dir>/
        manifest.json     # immutable run configuration (written once)
        task/             # the task payload, saved at run creation
        store/            # JSONL segment log of every reported record
        warm/             # frozen warm-start history store (optional)
        checkpoint.json   # latest periodic state snapshot (atomic replace)

The **store is the source of truth**: every reported record is appended
to the crash-safe segment log before anything else observes it, so a
killed run can always be resumed from the durable record prefix.  Resume
does not restore mutable search state from the snapshot — it *replays*
the recorded prefix through the real proposal path (consuming the RNG and
updating tuner/selector state exactly as the original run did) and swaps
in the recorded outcomes instead of re-evaluating, which provably
reconstructs the exact state the uninterrupted run would have had and
therefore emits the identical remaining record stream.

The periodic ``checkpoint.json`` snapshot is therefore not a state dump
but an independent *integrity witness* of constant size: budget spent,
elapsed wall-clock, the rolling record-stream digest and — per template —
trial counts plus a digest of the score history and of every RNG state.
On resume, when the replay crosses the snapshot's report boundary, the
regenerated digests and counts are compared against the snapshot and any
disagreement aborts the resume with :class:`CheckpointError` instead of
silently continuing a diverged search.  A format-1 snapshot (full score
lists and RNG words, written before the digests) still resumes: the
fields both formats share are verified and the rest skipped.
"""

import contextlib
import hashlib
import json
import os
import shutil
import time

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

import numpy as np

from repro.automl.config import ExecutionConfig
from repro.automl.search import AutoBazaarSearch
from repro.explorer.persistence import PersistentPipelineStore
from repro.explorer.store import normalize_value
from repro.tasks.io import load_task, save_task, task_fingerprint
from repro.tasks.task import holdout_count
from repro.tuning.selectors import get_selector
from repro.tuning.tuners import get_tuner

MANIFEST_NAME = "manifest.json"
CHECKPOINT_NAME = "checkpoint.json"
TASK_DIRNAME = "task"
STORE_DIRNAME = "store"
WARM_DIRNAME = "warm"
RUN_LOCK_NAME = "run.lock"

MANIFEST_FORMAT = 1
CHECKPOINT_FORMAT = 2

#: Per-template snapshot fields whose encoding format 1 and 2 share.
_FORMAT_1_TEMPLATE_FIELDS = ("n_trials", "n_failed", "n_pending")


class CheckpointError(RuntimeError):
    """A run directory is unusable: missing, already initialized, or diverged."""


def _atomic_write_json(path, payload, indent=None):
    """Write JSON durably: temp file + fsync + atomic rename."""
    temporary = path + ".tmp"
    with open(temporary, "w") as stream:
        json.dump(payload, stream, indent=indent)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(temporary, path)


def _load_json(path):
    with open(path) as stream:
        return json.load(stream)


def rng_state_digest(rng):
    """``[generator name, sha256]`` witness of a ``numpy.random.RandomState`` state."""
    name, words, position, has_gauss, cached_gaussian = rng.get_state()
    hasher = hashlib.sha256(np.ascontiguousarray(words).tobytes())
    hasher.update(repr((int(position), int(has_gauss), float(cached_gaussian))).encode("ascii"))
    return [name, hasher.hexdigest()]


def record_stream_digest(documents, hasher=None):
    """SHA-256 over the canonical form of an ordered record stream.

    The digest covers exactly what the determinism guarantee promises —
    iteration, template, hyperparameters, score, raw score, error and the
    default flag — in stream order, so two runs agree on the digest iff
    they emitted the same records in the same order.
    """
    hasher = hasher or hashlib.sha256()
    for document in documents:
        canonical = json.dumps(normalize_value([
            document.get("iteration"),
            document.get("template_name"),
            document.get("hyperparameters"),
            document.get("score"),
            document.get("raw_score"),
            document.get("error"),
            document.get("is_default"),
        ]), sort_keys=True, separators=(",", ":"))
        hasher.update(canonical.encode("utf-8"))
        hasher.update(b"\n")
    return hasher


class CheckpointManager:
    """Writes periodic search snapshots and verifies them on resume.

    Plugged into :meth:`AutoBazaarSearch.search` through the
    ``checkpoint`` parameter: ``after_report`` runs after every reported
    record, strictly before the next proposal, so each snapshot captures a
    consistent report-boundary view of the search.

    Parameters
    ----------
    run_dir:
        Directory holding ``checkpoint.json``.
    every:
        Snapshot cadence in reported records (1 = after every record).
    resume_snapshot:
        The previously written snapshot, when resuming.  While the replay
        crosses its report boundary the regenerated stream digest, RNG
        states and trial counts are checked against it.
    replay_count:
        Number of records being replayed from the durable store; no
        snapshots are rewritten below this boundary.
    on_report:
        Optional callable invoked with the state dict after bookkeeping —
        the hook used by the crash/resume smoke test to kill the process
        at a deterministic point, and available for progress reporting.
    """

    def __init__(self, run_dir, every=1, resume_snapshot=None, replay_count=0,
                 on_report=None):
        self.run_dir = str(run_dir)
        self.every = max(1, int(every))
        self.path = os.path.join(self.run_dir, CHECKPOINT_NAME)
        self.on_report = on_report
        self._snapshot = resume_snapshot
        self._verify_at = resume_snapshot["n_reported"] if resume_snapshot else None
        self._replay_count = int(replay_count)
        self._digest = hashlib.sha256()
        self._hashed = 0
        self._score_digests = {}  # template name -> [rolling sha256, scores hashed]

    def after_report(self, state):
        records = state["records"]
        if self._hashed < len(records):
            record_stream_digest(
                (record.to_dict() for record in records[self._hashed:]), self._digest
            )
            self._hashed = len(records)
        n_reported = state["n_reported"]
        if self._verify_at is not None and n_reported == self._verify_at:
            self._verify(state)
            self._verify_at = None
        if n_reported > self._replay_count and (
                n_reported % self.every == 0 or n_reported >= state["budget"]):
            self.write(state)
        if self.on_report is not None:
            self.on_report(state)

    # -- snapshotting -------------------------------------------------------------

    def _capture(self, state):
        """The serializable snapshot of one report-boundary search state."""
        selector = state["selector"]
        tuners = state["tuners"]
        templates = {}
        for name, tuner in tuners.items():
            if tuner is None:
                scores = state["template_scores"].get(name, [])
                templates[name] = {
                    "n_trials": len(scores),
                    "scores": self._scores_digest(name, scores),
                    "n_failed": selector.failure_count(name),
                    "n_pending": selector.pending_count(name),
                }
            else:
                templates[name] = {
                    "n_trials": len(tuner.trials),
                    "scores": self._scores_digest(name, tuner.scores),
                    "n_failed": len(tuner.failed_trials),
                    "n_pending": len(tuner.pending),
                }
        rng = {
            "selector": rng_state_digest(selector._rng),
            "tuners": {
                name: rng_state_digest(tuner._rng)
                for name, tuner in tuners.items() if tuner is not None
            },
        }
        return normalize_value({
            "format": CHECKPOINT_FORMAT,
            "written_at": time.time(),
            "task_name": state["task_name"],
            "n_reported": state["n_reported"],
            "proposed": state["proposed"],
            "budget": state["budget"],
            "elapsed": state["elapsed"],
            "defaults_pending": state["defaults_pending"],
            "stream_digest": self._digest.hexdigest(),
            "rng": rng,
            "templates": templates,
        })

    def _scores_digest(self, name, scores):
        """Rolling SHA-256 over a template's (append-only) score history."""
        entry = self._score_digests.setdefault(name, [hashlib.sha256(), 0])
        for score in scores[entry[1]:]:
            entry[0].update(repr(float(score)).encode("ascii") + b"\n")
        entry[1] = len(scores)
        return entry[0].hexdigest()

    def write(self, state):
        """Atomically replace ``checkpoint.json`` with the current snapshot."""
        _atomic_write_json(self.path, self._capture(state))

    # -- resume verification ------------------------------------------------------

    def _verify(self, state):
        snapshot = self._snapshot
        problems = []
        if self._digest.hexdigest() != snapshot.get("stream_digest"):
            problems.append(
                "record stream digest mismatch at report {} (store records differ "
                "from the ones the checkpoint was written against)".format(
                    state["n_reported"])
            )
        # proposals and RNG consumption are only report-deterministic for
        # budget-bounded runs; a wall-clock budget legitimately shifts them
        if state.get("max_seconds") is None and not problems:
            current = self._capture(state)
            # a format-1 snapshot spells scores and RNG states out in full;
            # only the fields it encodes like this format are comparable
            format_1 = snapshot.get("format") == 1
            if current["proposed"] != snapshot.get("proposed"):
                problems.append("proposed {} != checkpointed {}".format(
                    current["proposed"], snapshot.get("proposed")))
            if not format_1 and current["rng"] != snapshot.get("rng"):
                problems.append("regenerated RNG states differ from the checkpoint")
            for name, entry in snapshot.get("templates", {}).items():
                regenerated = current["templates"].get(name, {})
                fields = _FORMAT_1_TEMPLATE_FIELDS if format_1 else tuple(entry)
                if any(regenerated.get(field) != entry[field] for field in fields):
                    problems.append(
                        "template {!r} trial history differs from the checkpoint".format(name)
                    )
                    break
        if problems:
            raise CheckpointError(
                "Resume verification failed for {!r}: {}. The run directory was "
                "modified, or the search configuration no longer matches the one "
                "that produced it.".format(self.run_dir, "; ".join(problems))
            )


class ExperimentRun:
    """A durable, resumable AutoBazaar search bound to a run directory.

    ``create`` initializes the directory (manifest + task payload + empty
    store) and ``open`` attaches to an existing one; ``execute`` runs —
    or, if the store already holds records, *resumes* — the search.
    """

    def __init__(self, run_dir, manifest):
        self.run_dir = str(run_dir)
        self.manifest = manifest
        self.store = None
        self.result = None

    # -- lifecycle ----------------------------------------------------------------

    @classmethod
    def create(cls, run_dir, task=None, task_directory=None, budget=20, tuner="gp_ei",
               selector="ucb1", n_splits=3, random_state=0, holdout=0.25,
               n_pending=1, max_seconds=None, checkpoint_every=1,
               warm_start_source=None):
        """Initialize a new run directory; returns the run (not yet executed).

        ``warm_start_source`` is an optional :class:`PipelineStore` (or
        path to a persistent one) holding prior evaluations: its documents
        are *frozen* into the run directory, so the warm-start seed — and
        with it the record stream — stays identical on resume even if the
        shared source store keeps growing.
        """
        run_dir = str(run_dir)
        if random_state is None:
            raise ValueError(
                "Checkpointed runs require an explicit integer random_state: resume "
                "reconstructs the search by deterministic replay, which an unseeded "
                "run cannot guarantee"
            )
        manifest_path = os.path.join(run_dir, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            raise CheckpointError(
                "{!r} is already an initialized run directory; use resume "
                "(ExperimentRun.open / `python -m repro.automl resume`) instead".format(run_dir)
            )
        # fail fast on unknown names and on values no run can execute with
        # before anything touches the disk: a committed manifest refuses
        # every later create() of the same directory
        get_tuner(tuner)
        get_selector(selector)
        shaping = ExecutionConfig(n_pending=n_pending)
        if budget < 0:
            raise ValueError("budget must be at least 0, got {!r}".format(budget))
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1, got {!r}".format(
                checkpoint_every))
        if task is None:
            if task_directory is None:
                raise ValueError("Either task or task_directory is required")
            task = load_task(task_directory)
        try:
            holdout_count(task, float(holdout))
        except ValueError as error:
            raise ValueError("holdout {!r} cannot split task {!r} ({} samples): {}".format(
                holdout, task.name, task.n_samples, error)) from None
        os.makedirs(run_dir, exist_ok=True)
        # the manifest write below is the commit point of create(); any
        # task/store/warm leftovers without a manifest are the residue of
        # a create() that crashed before committing and were never
        # acknowledged -- wipe them, or re-running create() would append
        # the warm-start history into the surviving log a second time
        for leftover in (TASK_DIRNAME, STORE_DIRNAME, WARM_DIRNAME,
                         CHECKPOINT_NAME, RUN_LOCK_NAME):
            path = os.path.join(run_dir, leftover)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.unlink(path)
        task_dir = os.path.join(run_dir, TASK_DIRNAME)
        save_task(task, task_dir)

        warm_start = warm_start_source is not None
        if warm_start:
            opened_here = isinstance(warm_start_source, (str, os.PathLike))
            if opened_here:
                warm_start_source = PersistentPipelineStore(warm_start_source)
            frozen = PersistentPipelineStore(os.path.join(run_dir, WARM_DIRNAME))
            for document in warm_start_source:
                frozen.add(document)
            frozen.close()
            if opened_here:
                warm_start_source.close()

        manifest = {
            "format": MANIFEST_FORMAT,
            "created_at": time.time(),
            "task_name": task.name,
            "task_fingerprint": task_fingerprint(task_dir),
            "budget": int(budget),
            "tuner": tuner,
            "selector": selector,
            "n_splits": int(n_splits),
            "random_state": int(random_state),
            "holdout": float(holdout),
            "n_pending": shaping.n_pending,
            "max_seconds": max_seconds,
            "checkpoint_every": int(checkpoint_every),
            "warm_start": warm_start,
            # pipelines must be pure functions of their configuration for a
            # resumed run to reproduce the uninterrupted scores, so every
            # stochastic primitive is pinned to the run seed
            "estimator_seed": int(random_state),
        }
        _atomic_write_json(manifest_path, manifest, indent=2)
        return cls(run_dir, manifest)

    @classmethod
    def open(cls, run_dir):
        """Attach to an existing run directory."""
        run_dir = str(run_dir)
        manifest_path = os.path.join(run_dir, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise CheckpointError(
                "{!r} is not a run directory (no {})".format(run_dir, MANIFEST_NAME)
            )
        return cls(run_dir, _load_json(manifest_path))

    # -- execution ----------------------------------------------------------------

    def _acquire_run_lock(self):
        """Exclusive per-run-directory lock held for the whole execution.

        Two processes executing (or resuming) the same run directory
        concurrently would both replay the durable prefix and then both
        append their live evaluations — duplicated iterations, a bricked
        run.  The ``flock`` is released by the kernel even on ``SIGKILL``,
        so a killed run never leaves the directory locked.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return None
        descriptor = os.open(
            os.path.join(self.run_dir, RUN_LOCK_NAME), os.O_RDWR | os.O_CREAT, 0o644
        )
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(descriptor)
            raise CheckpointError(
                "{!r} is already being executed by another process; a run "
                "directory has exactly one live executor".format(self.run_dir)
            ) from None
        return descriptor

    @contextlib.contextmanager
    def _run_lock(self):
        """Hold :meth:`_acquire_run_lock` for the duration of a ``with`` block."""
        descriptor = self._acquire_run_lock()
        try:
            yield
        finally:
            if descriptor is not None:
                os.close(descriptor)

    def execute(self, on_report=None, **execution):
        """Run — or resume — the search; returns the ``SearchResult``.

        ``execution`` takes the execution-only knobs of
        :class:`~repro.automl.config.ExecutionConfig`, which may differ
        between a run and its resume; the stream-shaping ones are fixed in
        the manifest at creation (``n_pending``) or not available on a
        checkpointed run at all (``prune_margin``).
        ``telemetry="run-dir"`` (or ``True``) records into this run
        directory's ``events/`` stream.  ``on_report`` is called with the
        search state after every reported record (see
        :class:`CheckpointManager`).
        """
        manifest = self.manifest
        if manifest.get("schedule") == "barrier":
            raise CheckpointError(
                "{!r} was created under the retired 'barrier' schedule; the sliding "
                "window cannot replay its record stream".format(self.run_dir))
        config = ExecutionConfig.from_keywords(
            execution, run_dir=self.run_dir, n_pending=manifest["n_pending"])
        with self._run_lock():
            task_dir = os.path.join(self.run_dir, TASK_DIRNAME)
            fingerprint = task_fingerprint(task_dir)
            if fingerprint != manifest["task_fingerprint"]:
                raise CheckpointError(
                    "Task payload in {!r} changed since the run was created "
                    "(fingerprint {} != manifest {})".format(
                        self.run_dir, fingerprint, manifest["task_fingerprint"])
                )
            task = load_task(task_dir)

            store = PersistentPipelineStore(os.path.join(self.run_dir, STORE_DIRNAME))
            try:
                replay = list(store)
                if len(replay) > manifest["budget"]:
                    raise CheckpointError(
                        "Run store holds {} records but the budget is {}: the store was "
                        "appended to outside this run".format(len(replay), manifest["budget"])
                    )

                snapshot = None
                checkpoint_path = os.path.join(self.run_dir, CHECKPOINT_NAME)
                if os.path.exists(checkpoint_path):
                    snapshot = _load_json(checkpoint_path)
                    if snapshot.get("n_reported", 0) > len(replay):
                        raise CheckpointError(
                            "checkpoint.json claims {} reported records but the store "
                            "holds only {}: the store lost acknowledged data".format(
                                snapshot.get("n_reported"), len(replay))
                        )
            except Exception:
                # pre-flight failures must not leak the open store (its shared
                # lock would degrade every later open in this process)
                store.close()
                raise
            manager = CheckpointManager(
                self.run_dir, every=manifest["checkpoint_every"],
                resume_snapshot=snapshot, replay_count=len(replay), on_report=on_report,
            )

            warm_store = None
            if manifest.get("warm_start"):
                warm_store = PersistentPipelineStore(os.path.join(self.run_dir, WARM_DIRNAME))

            searcher = AutoBazaarSearch(
                tuner_class=get_tuner(manifest["tuner"]),
                selector_class=get_selector(manifest["selector"]),
                n_splits=manifest["n_splits"],
                random_state=manifest["random_state"],
                store=store,
                warm_start_store=warm_store,
                estimator_seed=manifest.get("estimator_seed", manifest["random_state"]),
                # a "run-dir" event stream sits next to the record store; the
                # search owns opening/closing the sink, and reopening an
                # existing stream on resume appends to it
                **config.as_kwargs(),
            )
            if snapshot is not None:
                elapsed_offset = float(snapshot.get("elapsed") or 0.0)
            else:
                # no snapshot survived (killed before the first checkpoint):
                # approximate spent wall-clock with the summed evaluation cost
                # (a record's elapsed is its summed fold compute time on every
                # backend).  A slight underestimate for the serial backend,
                # which also spent the fold splits, dispatch and the
                # coordinator's own work in between; an upper bound for pool
                # backends (concurrent evaluations overlap), which at worst
                # stops a max_seconds-budgeted resume early -- replay itself is
                # never deadline-gated.  Keep checkpoint_every=1 (the default)
                # on wall-clock-budgeted parallel runs to avoid the gap.
                elapsed_offset = float(sum(doc.get("elapsed") or 0.0 for doc in replay))
            try:
                result = searcher.search(
                    task,
                    budget=manifest["budget"],
                    holdout=manifest["holdout"],
                    max_seconds=manifest["max_seconds"],
                    checkpoint=manager,
                    replay=replay,
                    elapsed_offset=elapsed_offset,
                )
            except BaseException:
                # on failure (including KeyboardInterrupt) release the
                # store's file handles immediately
                store.close()
                raise
            finally:
                if warm_store is not None:
                    warm_store.close()
            # on success the store stays open (queryable and still durable for
            # the caller); release it with close() when done
            self.store = store
            self.result = result
            return result

    def close(self):
        """Release the run's open store handle (and its locks), if any."""
        if self.store is not None:
            self.store.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return "ExperimentRun(run_dir={!r}, task={!r})".format(
            self.run_dir, self.manifest.get("task_name")
        )


def resume_run(run_dir, **execution):
    """Resume a killed (or completed) checkpointed run; returns the run.

    Replays the durable record prefix to reconstruct the exact search
    state, verifies it against the latest snapshot, then continues with
    live evaluations — the remaining record stream is identical to the one
    an uninterrupted run would have produced, and the store ends up with
    no duplicated or lost records.  ``execution`` is what
    :meth:`ExperimentRun.execute` takes: the execution-only knobs, free to
    differ from the original run's (the fitted-prefix cache may be enabled
    on resume even if the original run had it off, and vice versa: cached
    artifacts are content-addressed, so the scores are unchanged).
    """
    run = ExperimentRun.open(run_dir)
    run.execute(**execution)
    return run
