"""Search checkpointing: durable, resumable AutoBazaar runs.

A *checkpointed run* lives in one directory::

    <run_dir>/
        manifest.json     # immutable run configuration (written once)
        task/             # the task payload, saved at run creation
        store/            # the record log: one JSONL file, one line per record
        warm/             # frozen warm-start history store (optional)
        events/           # telemetry event stream (optional)
        run.lock          # the single-executor lock

The **record log is the checkpoint**: every reported record is appended
to it before the tuners and selector learn it, and nothing else is written
per record, so a killed run can always be resumed from the durable record
prefix.  Resume does not restore mutable search state — it *replays* the
recorded prefix through the real proposal path (consuming the RNG and
updating tuner/selector state exactly as the original run did) and swaps
in the recorded outcomes instead of re-evaluating, which provably
reconstructs the exact state the uninterrupted run would have had and
therefore emits the identical remaining record stream.

Each live record carries its own integrity **witness**, a ``witness``
field of constant size in its document: the rolling record-stream digest
through that record, one SHA-256 over the search state at that report
(every RNG state and, per template, the trial counts and a digest of the
score history) and the wall-clock ``elapsed``.  A record and its witness
reach the disk in one line, so a power loss that drops records drops their
witnesses with them.  Resume regenerates the witness at every replayed
record and aborts with :class:`CheckpointError` at the first one that
disagrees, instead of silently continuing a diverged search; the last
replayed witness's ``elapsed`` is the wall-clock the resumed run starts
from.  Any other file in the run directory (the separate state snapshot
older versions wrote next to the log, say) is ignored.
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
TASK_DIRNAME = "task"
STORE_DIRNAME = "store"
WARM_DIRNAME = "warm"
RUN_LOCK_NAME = "run.lock"

MANIFEST_FORMAT = 1


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
    """Builds each live record's witness and checks the replayed ones on resume.

    Plugged into :meth:`AutoBazaarSearch.search` through the
    ``checkpoint`` parameter.  For every reported record the search calls
    :meth:`write` (live records only; the witness goes into the record's
    document) and then :meth:`after_report` (every record), both after the
    record joined the stream and before the tuners and selector learn it —
    the report boundary every witness describes, which replay regenerates
    exactly because the window refills after every report.

    Parameters
    ----------
    run_dir:
        The run directory, named in error messages.
    replay:
        The record documents being replayed from the store.  Each one's
        ``witness`` is checked as the replay regenerates it; a document
        without one (written before records carried witnesses) is not.
    on_report:
        Optional callable invoked with the state dict once per reported
        record — the hook used by the crash/resume smoke test to kill the
        process at a deterministic point, and available for progress
        reporting.
    """

    def __init__(self, run_dir, replay=(), on_report=None):
        self.run_dir = str(run_dir)
        self.on_report = on_report
        self._witnesses = [document.get("witness") for document in replay]
        self._stream = hashlib.sha256()
        self._hashed = 0
        self._score_digests = {}  # template name -> [rolling sha256, scores hashed]

    def write(self, state):
        """This live record's witness: stream digest, state digest and elapsed seconds."""
        return {"stream": self._stream_digest(state), "state": self._state_digest(state),
                "elapsed": float(state["elapsed"])}

    def after_report(self, state):
        """Check a replayed record's witness, then call ``on_report``."""
        if state["n_reported"] <= len(self._witnesses):
            self._verify(state, self._witnesses[state["n_reported"] - 1])
        if self.on_report is not None:
            self.on_report(state)

    def _stream_digest(self, state):
        """The rolling :func:`record_stream_digest` through the state's last record."""
        records = state["records"]
        record_stream_digest(
            (record.to_dict() for record in records[self._hashed:]), self._stream)
        self._hashed = len(records)
        return self._stream.hexdigest()

    def _state_digest(self, state):
        """SHA-256 over ``proposed``, every RNG state and each template's trial history."""
        selector = state["selector"]
        templates = {}
        for name, tuner in state["tuners"].items():
            if tuner is None:
                scores = state["template_scores"][name]
                templates[name] = [len(scores), self._scores_digest(name, scores),
                                   selector.failure_count(name),
                                   selector.pending_count(name), None]
            else:
                templates[name] = [len(tuner.trials), self._scores_digest(name, tuner.scores),
                                   len(tuner.failed_trials), len(tuner.pending),
                                   rng_state_digest(tuner._rng)]
        canonical = json.dumps([state["proposed"], rng_state_digest(selector._rng), templates],
                               sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()

    def _scores_digest(self, name, scores):
        """Rolling SHA-256 over a template's (append-only) score history."""
        entry = self._score_digests.setdefault(name, [hashlib.sha256(), 0])
        for score in scores[entry[1]:]:
            entry[0].update(repr(float(score)).encode("ascii") + b"\n")
        entry[1] = len(scores)
        return entry[0].hexdigest()

    def _verify(self, state, witness):
        stream = self._stream_digest(state)
        if witness is None:
            return
        problem = None
        if stream != witness.get("stream"):
            problem = ("the record stream digest differs (the stored records were "
                       "modified)")
        # proposals and RNG consumption are only report-deterministic for
        # budget-bounded runs; a wall-clock budget legitimately shifts them
        elif state["max_seconds"] is None and self._state_digest(state) != witness.get("state"):
            problem = "the regenerated RNG states or trial histories differ"
        if problem is not None:
            raise CheckpointError(
                "Resume verification failed for {!r} at report {} (iteration {}): {}. "
                "The run directory was modified, or the search configuration no "
                "longer matches the one that produced it.".format(
                    self.run_dir, state["n_reported"], state["n_reported"] - 1, problem)
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
        shared source store keeps growing.  ``checkpoint_every`` must be 1
        (every live record carries its own witness); any other value is a
        ``ValueError``.
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
        if checkpoint_every != 1:
            raise ValueError("checkpoint_every must be 1 (every record carries its "
                             "witness), got {!r}".format(checkpoint_every))
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
        for leftover in (TASK_DIRNAME, STORE_DIRNAME, WARM_DIRNAME, RUN_LOCK_NAME):
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
        with open(manifest_path) as stream:
            return cls(run_dir, json.load(stream))

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
        between a run and its resume; the stream-shaping one
        (``n_pending``) is fixed in the manifest at creation.
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
            replay = list(store)
            if len(replay) > manifest["budget"]:
                # a pre-flight failure must not leak the open store
                store.close()
                raise CheckpointError(
                    "Run store holds {} records but the budget is {}: the store was "
                    "appended to outside this run".format(len(replay), manifest["budget"])
                )
            manager = CheckpointManager(self.run_dir, replay=replay, on_report=on_report)

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
            try:
                result = searcher.search(
                    task,
                    budget=manifest["budget"],
                    holdout=manifest["holdout"],
                    max_seconds=manifest["max_seconds"],
                    checkpoint=manager,
                    replay=replay,
                    # the wall-clock the last witness saw; records written
                    # before witnesses existed resume from 0
                    elapsed_offset=next((document["witness"]["elapsed"]
                                         for document in reversed(replay)
                                         if document.get("witness")), 0.0),
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
    state, checks every replayed record's witness, then continues with
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
