"""Pluggable pipeline-execution backends (paper Section IV-C).

The paper describes AutoBazaar as a distributed system with "a pipeline
execution engine and an AutoML coordinator" that scored 2.5 million
pipelines on a cluster.  This module is the seam between the two: the
coordinator (:class:`~repro.automl.search.AutoBazaarSearch`) decides *what*
to evaluate and an :class:`ExecutionBackend` decides *where and how* it
runs.

Three backends are provided:

``serial``
    Evaluates each candidate synchronously in the calling process —
    bit-identical to the historical single-threaded search loop.
``thread``
    Evaluates cross-validation folds on a :class:`ThreadPoolExecutor`.
``process``
    Evaluates cross-validation folds on a :class:`ProcessPoolExecutor`.

The parallel backends dispatch individual cross-validation *folds*, not
whole candidates, into one shared executor queue.  Pipeline costs are
heavily skewed (a linear model fold finishes orders of magnitude before a
gradient-boosting fold), so fixed per-candidate chunking would leave
workers idle behind stragglers; with fold-level dispatch every idle worker
steals the next fold regardless of which candidate it belongs to — the
work-stealing answer to the skew problem in parallel query processing.

All backends aggregate fold results in fold order, so a candidate's score
(the mean over folds) and its error message (the first failing fold) are
identical across backends.

Fold submissions ship *index arrays*, not materialized task subsets: the
coordinator computes the cross-validation fold indices once per candidate
and each worker rebuilds its fold locally from a **worker-resident task
cache**, a per-process LRU keyed by the transport handle's task id — so
the dataset crosses the process boundary once per worker instead of once
per fold (``budget * n_splits`` transfers before).  The thread backend
shares the coordinator's memory and passes the task by reference.

The process backend chooses the transport per task from what it can
observe.  Pure-ndarray tasks are published once into
``multiprocessing.shared_memory`` segments (the **zero-copy data plane**,
see :mod:`repro.automl.shm`) and workers attach read-only views instead
of unpickling a copy, so a cache miss costs an ``mmap`` rather than a
full deserialization of the dataset.  Tasks that cannot be expressed as
raw byte buffers (object-dtype columns, non-array context values) and
platforms without shared-memory support are parked once on disk as a
pickle instead (a :class:`TaskPayload` handle).

The search's final refit — the best configuration fitted on the whole
training partition and scored on the held-out one — is one more job of the
backend (:meth:`ExecutionBackend.submit_refit`), a *holdout fold* through
the same worker entry point as any fold: both partitions travel as task
references, the job meets whatever the backend puts between a fold and a
worker (fair-share admission, deadlines, retries), and it returns the test
score and the fitted pipeline.  The coordinator fits no learner itself.

Backends also accept batched submission (:meth:`ExecutionBackend.submit_many`):
same-template candidates co-submitted by the scheduler are fused into one
evaluation pass per fold (see :mod:`repro.automl.batch_eval`), sharing the
preprocessing prefix and — for amenable learners — the estimator fit
across the hyperparameter batch, without changing any score, error string
or record order.
"""

import atexit
import gc
import os
import pickle
import queue
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from itertools import count

import numpy as np

from repro.automl import batch_eval, faultinject, shm
from repro.automl.prefix_cache import fold_data_key, resolve_prefix_cache
from repro.automl.supervisor import (
    DEFAULT_MAX_FOLD_RETRIES,
    SupervisedWorkerPool,
    supervision_knobs,
)
from repro.tasks.task import materialize_cv_fold, task_cv_indices
from repro.telemetry.events import begin_capture, capture_event, end_capture
from repro.telemetry.sink import emit_active


def _format_error(failure):
    """The one canonical error string for a failed evaluation.

    Every backend must produce byte-identical error strings for the same
    failure (the cross-backend record-equivalence contract), so all error
    formatting funnels through here.
    """
    return "{}: {}".format(type(failure).__name__, failure)


class EvaluationCandidate:
    """One proposed pipeline configuration awaiting evaluation.

    This is the unit of work submitted to an :class:`ExecutionBackend`:
    a template plus a concrete hyperparameter configuration, the task to
    cross-validate on, and the bookkeeping the coordinator needs to file
    the result (proposal iteration, default flag).

    ``cache_config`` is the fitted-prefix cache configuration shipped
    with every fold (see :mod:`repro.automl.prefix_cache`); ``pruner``
    is the search's shared :class:`PruneController` enabling fold-level
    early discard, or ``None`` for exhaustive evaluation; ``telemetry``
    is the search's ``(sink, tenant)`` emit context (see
    :mod:`repro.telemetry`) or ``None`` when telemetry is off.
    """

    def __init__(self, iteration, template, hyperparameters, task, n_splits=3,
                 random_state=None, template_name=None, is_default=False,
                 cache_config=None, pruner=None, telemetry=None):
        self.iteration = iteration
        self.template = template
        self.hyperparameters = dict(hyperparameters)
        self.task = task
        self.n_splits = n_splits
        self.random_state = random_state
        self.template_name = template_name or template.name
        self.is_default = is_default
        self.cache_config = cache_config
        self.pruner = pruner
        self.telemetry = telemetry

    def __repr__(self):
        return "EvaluationCandidate(iteration={}, template={!r})".format(
            self.iteration, self.template_name
        )


class EvaluationOutcome:
    """The result of evaluating one candidate: scores or an error, plus timing.

    ``pruned`` marks a candidate stopped by fold-level early discard (its
    ``error`` carries the pruning reason); the ``cache_*`` counters are
    the candidate's summed fitted-prefix cache activity across folds.
    ``pipeline`` is the fitted pipeline of a final refit
    (:meth:`ExecutionBackend.submit_refit`) and ``None`` otherwise; a refit
    whose pipeline could not travel back keeps its scores and names the
    reason in ``error``.
    """

    def __init__(self, score, raw_score, error, elapsed, pruned=False,
                 cache_hits=0, cache_misses=0, cache_bytes=0, pipeline=None):
        self.score = score
        self.raw_score = raw_score
        self.error = error
        self.elapsed = elapsed
        self.pruned = bool(pruned)
        self.pipeline = pipeline
        self.cache_hits = int(cache_hits)
        self.cache_misses = int(cache_misses)
        self.cache_bytes = int(cache_bytes)

    @property
    def failed(self):
        return self.error is not None

    def __repr__(self):
        return "EvaluationOutcome(score={}, error={!r})".format(self.score, self.error)


class PrunedEvaluation(RuntimeError):
    """A candidate was discarded mid-evaluation by the early-discard bound."""


class PruneController:
    """Shared early-discard state for one search on one task.

    After each completed fold of a candidate, the optimistic estimate of
    its aggregate is computed: completed fold scores plus the highest
    single-fold score observed anywhere in the search standing in for
    every remaining fold.  When even that estimate falls short of the
    best candidate aggregate seen so far minus ``margin``, the
    candidate's remaining folds are treated as wasted compute and
    cancelled.

    The per-fold cap is *empirical* (the best fold score seen so far),
    so this is a successive-halving-style heuristic, not a sound upper
    bound: a candidate whose remaining folds would have outscored
    everything observed can still be discarded — the margin is the guard
    against exactly that, and ``margin=0`` prunes most aggressively.

    The controller is shared by every candidate of a search (and consulted
    from worker callbacks), so all state is lock-protected.  Pruning
    decisions depend on completion *timing*, which is why the search's
    bit-identical cross-backend record guarantee only holds with pruning
    off.
    """

    def __init__(self, margin):
        self.margin = float(margin)
        if not np.isfinite(self.margin) or self.margin < 0:
            raise ValueError("prune margin must be a non-negative finite number")
        self._lock = threading.Lock()
        self._task_best = None
        self._fold_cap = None

    def update_task_best(self, score):
        """Raise the pruning threshold to a newly reported candidate aggregate."""
        score = float(score)
        with self._lock:
            if self._task_best is None or score > self._task_best:
                self._task_best = score

    def observe_fold(self, score):
        """Track the highest single-fold score (the optimistic per-fold cap)."""
        score = float(score)
        with self._lock:
            if self._fold_cap is None or score > self._fold_cap:
                self._fold_cap = score

    @property
    def task_best(self):
        with self._lock:
            return self._task_best

    def assess(self, fold_scores, n_folds):
        """The reason to discard a partially evaluated candidate, or ``None``.

        ``fold_scores`` are the candidate's completed fold scores so far;
        with no task best or no observed fold cap yet there is nothing to
        compare against and the candidate always continues.
        """
        with self._lock:
            task_best = self._task_best
            fold_cap = self._fold_cap
        if task_best is None or fold_cap is None:
            return None
        completed = [float(score) for score in fold_scores if score is not None]
        remaining = int(n_folds) - len(completed)
        if remaining <= 0 or not completed:
            return None
        cap = max([fold_cap] + completed)
        bound = (sum(completed) + remaining * cap) / float(n_folds)
        threshold = task_best - self.margin
        if bound < threshold:
            return (
                "optimistic estimate {:.6g} after {} of {} folds falls short of "
                "task best {:.6g} - margin {:.6g}".format(
                    bound, len(completed), n_folds, task_best, self.margin
                )
            )
        return None

    def __repr__(self):
        return "PruneController(margin={}, task_best={})".format(self.margin, self.task_best)


def _cache_info_fields(pipeline):
    """Per-fold cache counters for the fold payload (zeroes when uncached)."""
    info = getattr(pipeline, "prefix_cache_info", None) or {}
    return {
        "cache_hits": info.get("hits", 0),
        "cache_misses": info.get("misses", 0),
        "cache_bytes": info.get("bytes_written", 0),
    }


# -- worker-resident task cache -----------------------------------------------------

#: Per-worker-process LRU of tasks rebuilt from transport handles.
_WORKER_TASK_CACHE = OrderedDict()

#: Maximum tasks kept resident per worker, and the starting capacity of the
#: coordinator-side transport LRUs.  Keep it at or above the number of
#: distinct tasks with folds in flight at once: a search evaluates one task
#: at a time, and a fleet grows its coordinator-side capacity per tenant.
_WORKER_TASK_CACHE_SIZE = 8


def _start_worker():
    """Process-pool initializer: first thing a new worker process runs.

    The heap a forked worker inherits is frozen out of its garbage
    collector: otherwise the worker's first full collection walks every
    object of the coordinator it was forked from, and copies every page
    they live on, in the middle of whichever fold triggers it.

    Also arms the env-configured fault-injection plan (a no-op outside the
    chaos suite) — the initializer runs in every worker the pool ever
    spawns, including the replacements of crashed ones, so the plan
    reaches the whole fleet.
    """
    gc.freeze()
    _WORKER_TASK_CACHE.clear()
    faultinject.install_from_env()


class TaskPayload:
    """Picklable handle to a task parked on disk for the worker cache.

    Shipping this handle instead of the task itself costs a few bytes per
    fold; a worker seeing the ``key`` for the first time loads the pickled
    task from ``path`` into its resident LRU and serves every later fold
    of the same task from memory.
    """

    __slots__ = ("key", "path")

    def __init__(self, key, path):
        self.key = key
        self.path = path

    def load(self):
        """Unpickle the parked task (the worker-side materialization)."""
        with open(self.path, "rb") as stream:
            return pickle.load(stream)

    def __repr__(self):
        return "TaskPayload(key={!r}, path={!r})".format(self.key, self.path)


#: What crosses a process boundary in place of a task (both expose ``key``
#: and ``load()``); anything else submitted as a task reference is the task.
_TASK_HANDLES = (TaskPayload, shm.SharedTaskHandle)


def _resolve_task(task_ref):
    """Materialize a submitted task reference inside the worker.

    Accepts the task object itself (serial/thread backends, which share
    the coordinator's memory) or either process-backend transport handle:
    a :class:`TaskPayload` pointing at the on-disk pickle, or a
    :class:`~repro.automl.shm.SharedTaskHandle` naming a shared-memory
    segment to attach read-only views over.  Both handles expose ``key``
    and ``load()``, so the resident LRU logic is transport-agnostic.
    """
    if not isinstance(task_ref, _TASK_HANDLES):
        return task_ref
    task = _WORKER_TASK_CACHE.get(task_ref.key)
    if task is None:
        task = task_ref.load()
        _WORKER_TASK_CACHE[task_ref.key] = task
        while len(_WORKER_TASK_CACHE) > _WORKER_TASK_CACHE_SIZE:
            _WORKER_TASK_CACHE.popitem(last=False)
    else:
        _WORKER_TASK_CACHE.move_to_end(task_ref.key)
    return task


def _run_fold(task_ref, train_indices, val_indices, cache_config, capture_events,
              n_members, started_fields, evaluate, holdout_ref=None):
    """The one body of both worker entry points; returns ``n_members`` payloads.

    Rebuilds the fold's train/val subsets inside the worker from the
    resident task, so only the index arrays travel per submission, and
    hands them to ``evaluate(train_task, val_task, prefix_cache, data_key,
    started)``, which returns one fold payload per member.  With a
    ``cache_config`` the fold's data key is derived from the resident
    task's memoized content digest plus the train-index array, so every
    candidate sharing the fold shares the key without re-hashing the
    dataset.

    With a ``holdout_ref`` the job is a search's final refit, the *holdout
    fold*: the whole resident task is the training side and the task behind
    ``holdout_ref`` — a second reference, resolved like the first — the
    scored side; the index arrays are unused.

    Payloads are plain dicts rather than raised exceptions so that worker
    failures survive the trip back through pickling.  A failure before
    per-member evaluation starts fails every member with the same error
    and an equal share of the time spent.  A failure *resolving* a task
    reference — a shared-memory segment that vanished under the worker —
    is infrastructure, not pipeline code, so those payloads are flagged
    ``"retriable"``: the supervised pool repairs the data plane and
    retries the fold instead of recording it.

    With ``capture_events`` the fold's telemetry (fold or refit start,
    cache hits/misses, shm attaches) is captured thread-locally and
    returned under the *first* member's ``"events"`` key — telemetry rides
    the existing result channel back to the coordinator instead of a
    second IPC mechanism.
    """
    faultinject.maybe_inject(task_ref)
    if capture_events:
        begin_capture()
        capture_event("fold_started" if holdout_ref is None else "refit_started",
                      **started_fields)
    started = time.time()
    resolved = False
    try:
        task = _resolve_task(task_ref)
        holdout = None if holdout_ref is None else _resolve_task(holdout_ref)
        resolved = True
        if holdout is None:
            train_task, val_task = materialize_cv_fold(task, train_indices, val_indices)
        else:
            train_task, val_task = task, holdout
        prefix_cache = resolve_prefix_cache(cache_config)
        data_key = None
        if prefix_cache is not None:
            data_key = fold_data_key(task, train_indices)
        payloads = evaluate(train_task, val_task, prefix_cache, data_key, started)
    except Exception as failure:  # noqa: BLE001 - failed folds are data, not fatal
        failed = {
            "score": None,
            "raw_score": None,
            "error": _format_error(failure),
            "elapsed": (time.time() - started) / max(n_members, 1),
        }
        if not resolved:
            failed["retriable"] = True
        payloads = [dict(failed) for _ in range(n_members)]
    if capture_events and payloads:
        payloads[0]["events"] = end_capture()
    return payloads


def _solo_fold(template, hyperparameters, task_ref, train_indices, val_indices,
               cache_config, capture_events, holdout_ref):
    """One configuration on one fold (or on the holdout fold): its payload.

    The body of :func:`evaluate_fold_indices`, which is what pools are
    sent; the serial backend runs its refit through here directly.  The
    payload of a holdout fold also carries the fitted pipeline under
    ``"pipeline"``: the object itself when the job shared the
    coordinator's memory, its pickle bytes when the task reference says
    the job ran behind a process boundary.  A pipeline that cannot be
    pickled keeps its scores and reports the pickling failure as the
    payload's error.
    """
    from repro.automl import search

    def evaluate(train_task, val_task, prefix_cache, data_key, started):
        extra = {}
        if prefix_cache is not None:
            extra.update(prefix_cache=prefix_cache, data_key=data_key)
        normalized, raw, pipeline = search.evaluate_pipeline(
            template, hyperparameters, train_task, val_task, **extra
        )
        payload = {
            "score": normalized,
            "raw_score": raw,
            "error": None,
            "elapsed": time.time() - started,
        }
        payload.update(_cache_info_fields(pipeline))
        if holdout_ref is not None:
            payload["pipeline"] = pipeline
            if isinstance(task_ref, _TASK_HANDLES):
                try:
                    payload["pipeline"] = pickle.dumps(
                        pipeline, protocol=pickle.HIGHEST_PROTOCOL
                    )
                except Exception as failure:  # noqa: BLE001 - the score still counts
                    payload["pipeline"] = None
                    payload["error"] = _format_error(failure)
        return [payload]

    return _run_fold(task_ref, train_indices, val_indices, cache_config,
                     capture_events, 1, {}, evaluate, holdout_ref)[0]


def evaluate_fold_indices(template, hyperparameters, task_ref, train_indices, val_indices,
                          cache_config=None, capture_events=False, holdout_ref=None):
    """Evaluate one cross-validation fold specified by its sample indices.

    The unit of work-stealing dispatch, top-level (picklable) so it can be
    shipped to worker processes; returns the fold's payload dict (see
    :func:`_run_fold`).  With a ``holdout_ref`` it is a search's final
    refit instead (see :meth:`ExecutionBackend.submit_refit`).
    """
    return _solo_fold(template, hyperparameters, task_ref, train_indices, val_indices,
                      cache_config, capture_events, holdout_ref)


def evaluate_fold_indices_batch(template, hyperparameters_list, task_ref, train_indices,
                                val_indices, cache_config=None, capture_events=False):
    """Evaluate one fold for a same-template hyperparameter batch.

    The batched twin of :func:`evaluate_fold_indices`: one submission
    carries every configuration of a fused candidate group and returns one
    fold payload per configuration, in input order (see
    :func:`repro.automl.batch_eval.evaluate_candidate_group` for the
    determinism contract).  Captured telemetry for the shared pass is
    attached to the first member's payload, which is where the
    coordinator attributes the group's shared work.
    """
    def evaluate(train_task, val_task, prefix_cache, data_key, started):
        return batch_eval.evaluate_candidate_group(
            template, hyperparameters_list, train_task, val_task,
            prefix_cache=prefix_cache, data_key=data_key,
        )

    n_members = len(hyperparameters_list)
    return _run_fold(task_ref, train_indices, val_indices, cache_config,
                     capture_events, n_members, {"batch_size": n_members}, evaluate)


def _aggregate_folds(fold_results, pruned_reason=None):
    """Combine per-fold payloads into one outcome, in fold order.

    Matches the serial ``cross_validate_template`` semantics exactly: the
    first failing fold (in fold order) determines the error, otherwise the
    score is the mean over folds.  ``elapsed`` is the summed compute time
    of the folds — the candidate's evaluation *cost*, comparable to the
    serial backend's sequential measurement — not the wall-clock wait
    since submission, which would include queue time behind other
    candidates in the batch.

    A ``pruned_reason`` overrides the per-fold errors: the candidate was
    deliberately discarded mid-evaluation, so its outcome is the pruning
    reason regardless of what its cancelled folds report.
    """
    elapsed = float(sum(payload.get("elapsed") or 0.0 for payload in fold_results))
    cache = {
        field: int(sum(payload.get(field) or 0 for payload in fold_results))
        for field in ("cache_hits", "cache_misses", "cache_bytes")
    }
    if pruned_reason is not None:
        return EvaluationOutcome(
            None, None, "PrunedEvaluation: {}".format(pruned_reason), elapsed,
            pruned=True, **cache,
        )
    for payload in fold_results:
        if payload.get("error"):
            return EvaluationOutcome(None, None, payload["error"], elapsed, **cache)
    score = float(np.mean([payload["score"] for payload in fold_results]))
    raw_score = float(np.mean([payload["raw_score"] for payload in fold_results]))
    return EvaluationOutcome(score, raw_score, None, elapsed, **cache)


class CandidateFuture:
    """An already-completed future (used by the serial backend)."""

    def __init__(self, candidate, outcome):
        self.candidate = candidate
        self._outcome = outcome

    def done(self):
        return True

    def result(self):
        return self._outcome


class _PooledCandidateFuture:
    """Aggregates the fold futures of one candidate on a worker pool.

    Each fold future's done-callback files its payload here; when the last
    fold lands the outcome is assembled and the future enqueues itself on
    the backend's completion queue.
    """

    def __init__(self, candidate, n_folds, completion_queue):
        self.candidate = candidate
        self._fold_results = [None] * n_folds
        self._fold_futures = []
        self._remaining = n_folds
        self._completion_queue = completion_queue
        self._lock = threading.Lock()
        self._outcome = None
        self._pruned_reason = None

    def _fold_failed(self, index, message):
        """File a fold that could not even be submitted (e.g. broken pool)."""
        self._record(index, {
            "score": None, "raw_score": None, "error": message, "elapsed": 0.0,
        })

    def _ingest_fold(self, index, payload, telemetry):
        """Forward worker-captured events; synthesize the terminal fold event.

        The coordinator sees every fold payload (that is how outcomes
        aggregate), so the terminal ``fold_finished``/``fold_cancelled``
        event is synthesized here from the payload — uniformly across
        backends, guaranteeing the replayer can re-derive the candidate's
        record from fold events alone.  Worker-captured events (fold
        start, cache, shm) ride in under the payload's ``"events"`` key
        and are ingested with the candidate context the worker lacked.
        """
        sink, tenant = telemetry
        candidate = self.candidate
        context = {
            "tenant": tenant,
            "iteration": candidate.iteration,
            "fold": index,
            "template": candidate.template_name,
        }
        events = payload.pop("events", None)
        if events:
            sink.ingest(events, **context)
        error = payload.get("error")
        cancelled = isinstance(error, str) and error.startswith("CancelledError")
        sink.emit(
            "fold_cancelled" if cancelled else "fold_finished",
            score=payload.get("score"), raw_score=payload.get("raw_score"),
            error=error, elapsed=payload.get("elapsed"),
            cache_hits=payload.get("cache_hits", 0),
            cache_misses=payload.get("cache_misses", 0),
            **context,
        )

    def _record(self, index, payload):
        telemetry = getattr(self.candidate, "telemetry", None)
        if telemetry is not None:
            self._ingest_fold(index, payload, telemetry)
        if payload.get("error"):
            # a doomed candidate's queued work is wasted compute; cancel
            # only *later* folds so the first failing fold in fold order —
            # the error the serial backend would report — is never a
            # cancellation
            for later in self._fold_futures[index + 1:]:
                if later is not None:
                    later.cancel()
        with self._lock:
            self._fold_results[index] = payload
            self._remaining -= 1
            finished = self._remaining == 0
        pruner = getattr(self.candidate, "pruner", None)
        if pruner is not None and not payload.get("error"):
            # every successful fold — including a candidate's last one —
            # feeds the shared optimistic per-fold cap, exactly like the
            # serial path; only the discard *decision* needs folds left
            pruner.observe_fold(payload["score"])
            if not finished:
                self._maybe_prune(pruner)
        if finished:
            self._outcome = _aggregate_folds(self._fold_results, self._pruned_reason)
            self._completion_queue.put(self)

    def _maybe_prune(self, pruner):
        """Early-discard check after one successful fold.

        Consults the search's shared :class:`PruneController`: when even
        the optimistic bound over the remaining folds cannot beat the
        task best minus the margin, every not-yet-running fold of this
        candidate is cancelled (the running ones finish and are simply
        ignored by the pruned aggregation).  Reuses the same
        fold-cancellation machinery as fold failures.
        """
        with self._lock:
            if self._pruned_reason is not None:
                return
            scores = [
                fold["score"] for fold in self._fold_results
                if fold is not None and not fold.get("error")
            ]
            n_folds = len(self._fold_results)
        reason = pruner.assess(scores, n_folds)
        if reason is None:
            return
        with self._lock:
            if self._pruned_reason is not None:
                return
            self._pruned_reason = reason
        telemetry = getattr(self.candidate, "telemetry", None)
        if telemetry is not None:
            sink, tenant = telemetry
            sink.emit(
                "prune_decision", tenant=tenant,
                iteration=self.candidate.iteration,
                template=self.candidate.template_name,
                reason=reason, n_completed=len(scores), n_folds=n_folds,
            )
        for fold_future in self._fold_futures:
            if fold_future is not None:
                fold_future.cancel()

    def done(self):
        return self._outcome is not None

    def result(self):
        if self._outcome is None:
            raise RuntimeError("Candidate evaluation has not completed yet")
        return self._outcome


def _refit_outcome(candidate, payload):
    """Turn a finished refit job's payload into its outcome.

    The coordinator-side half of the holdout fold, shared by every
    backend: unpickles a pipeline that crossed a process boundary,
    forwards the worker-captured events and synthesizes the terminal
    ``refit_finished`` event (naming the worker through the pid of the
    captured ``refit_started``).  ``raw_score`` is the search's
    ``test_score``.
    """
    error = payload.get("error")
    pipeline = payload.pop("pipeline", None)
    if isinstance(pipeline, bytes):
        try:
            pipeline = pickle.loads(pipeline)
        except Exception as failure:  # noqa: BLE001 - the score still counts
            pipeline, error = None, _format_error(failure)
    if candidate.telemetry is not None:
        sink, tenant = candidate.telemetry
        context = {"tenant": tenant, "template": candidate.template_name}
        events = payload.pop("events", None) or []
        sink.ingest(events, **context)
        sink.emit(
            "refit_finished", score=payload.get("score"),
            raw_score=payload.get("raw_score"), error=error,
            elapsed=payload.get("elapsed"),
            worker=next((event.get("pid") for event in events
                         if event.get("event") == "refit_started"), None),
            **context,
        )
    return EvaluationOutcome(
        payload.get("score"), payload.get("raw_score"), error,
        payload.get("elapsed") or 0.0, pipeline=pipeline,
    )


class _RefitFuture(_PooledCandidateFuture):
    """The pooled future of a final refit: a candidate of one holdout fold."""

    def _record(self, index, payload):
        self._fold_results[index] = payload
        self._outcome = _refit_outcome(self.candidate, payload)
        self._completion_queue.put(self)


def _job_payloads(job, n_members):
    """One fold payload per member from a finished executor job.

    The job of a lone candidate (:func:`evaluate_fold_indices`) returns
    its payload; a fused group job returns one payload per member, in
    member order.  Anything else — cancellation, an infrastructure failure
    (pickling error, broken pool, ...), a malformed result — is replicated
    to every member and recorded like any pipeline failure instead of
    killing the search.
    """
    solo = n_members == 1
    if job.cancelled():
        if solo:
            # cancelled because an earlier fold already failed; the real
            # error sits earlier in fold order, so this never wins the
            # first-failing-fold aggregation
            error = "CancelledError: an earlier fold of this candidate failed"
        else:
            error = "CancelledError: the backend was shut down before this fold ran"
    else:
        exception = job.exception()
        if exception is not None:
            error = _format_error(exception)
        else:
            result = job.result()
            if solo:
                return [result]
            if isinstance(result, list) and len(result) == n_members:
                return result
            error = "RuntimeError: batched fold returned {} payloads for {} candidates".format(
                len(result) if isinstance(result, list) else type(result).__name__,
                n_members,
            )
    return [
        {"score": None, "raw_score": None, "error": error, "elapsed": 0.0}
        for _ in range(n_members)
    ]


class ExecutionBackend:
    """Where and how proposed pipelines are evaluated.

    The coordinator interacts with a backend through three calls:
    :meth:`submit` hands over an :class:`EvaluationCandidate` and returns a
    future, :meth:`collect_one` blocks for the next completed future (the
    primitive behind the sliding-window search loop; :meth:`as_completed`
    is the drain-everything convenience built on it), and :meth:`shutdown`
    releases any workers.
    """

    name = None

    def submit(self, candidate):
        """Start evaluating ``candidate``; returns a candidate future."""
        raise NotImplementedError

    def submit_many(self, candidates):
        """Submit a batch of candidates at once; returns their futures.

        Backends that can fuse same-template candidates into batched
        evaluation passes override this; the base implementation simply
        loops :meth:`submit`.  Futures are returned in submission order,
        and the evaluation semantics (scores, error strings) are
        identical either way.
        """
        return [self.submit(candidate) for candidate in candidates]

    def submit_refit(self, candidate, test_task):
        """Start a search's final refit; returns a candidate future.

        The job fits ``candidate`` on the whole of ``candidate.task`` and
        scores it on ``test_task`` — uncached, wherever this backend runs
        folds — and completes through :meth:`collect_one` like any other
        submission.  Its outcome carries the test score as ``raw_score``
        and the fitted pipeline as ``pipeline``.
        """
        raise NotImplementedError

    def collect_one(self):
        """Block until one submitted-but-uncollected future completes.

        Returns the completed future, or ``None`` when nothing is
        outstanding — the signal that lets the sliding-window loop keep
        exactly ``n_pending`` evaluations in flight, collecting a single
        completion and immediately proposing its replacement instead of
        draining a whole round.
        """
        raise NotImplementedError

    def as_completed(self):
        """Yield submitted-but-uncollected futures as they complete."""
        while True:
            future = self.collect_one()
            if future is None:
                return
            yield future

    def drain(self):
        """Discard any uncollected futures left over from a previous use.

        A search that aborted mid-collection (exception, interrupt) can
        leave completed futures behind on a caller-owned backend; the next
        search drains them so stale candidates never leak into its
        records.  Blocks until in-flight work finishes.
        """
        for _ in self.as_completed():
            pass

    def shutdown(self):
        """Release every worker resource held by the backend."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False

    def __repr__(self):
        return "{}()".format(type(self).__name__)


class SerialBackend(ExecutionBackend):
    """Evaluate candidates synchronously in the calling process.

    ``submit`` blocks until the evaluation finishes, so the search behaves
    bit-identically to the historical serial loop: same evaluation calls,
    same error strings, same random-number consumption.
    """

    name = "serial"

    def __init__(self):
        self._completed = []

    def submit(self, candidate):
        from repro.automl import search

        telemetry = getattr(candidate, "telemetry", None)
        started = time.time()
        error = None
        pruned = False
        score = raw_score = None
        collect = {}
        # the new knobs are only passed when enabled, so the historical
        # call signature — which tests and instrumentation rely on — is
        # preserved for the default configuration
        extra = {}
        prefix_cache = resolve_prefix_cache(candidate.cache_config)
        if prefix_cache is not None:
            extra.update(prefix_cache=prefix_cache, collect=collect)
        if candidate.pruner is not None:
            extra["pruner"] = candidate.pruner
        if telemetry is not None:
            # the coordinator *is* the worker here: cross_validate_template
            # captures its own per-fold terminal events (and the cache/prune
            # events inside them), ingested below with the candidate context
            begin_capture()
        try:
            score, raw_score = search.cross_validate_template(
                candidate.template, candidate.hyperparameters, candidate.task,
                n_splits=candidate.n_splits, random_state=candidate.random_state,
                **extra,
            )
        except PrunedEvaluation as discarded:
            error = _format_error(discarded)
            pruned = True
        except Exception as failure:  # noqa: BLE001 - failed pipelines are recorded, not fatal
            error = _format_error(failure)
        if telemetry is not None:
            sink, tenant = telemetry
            sink.ingest(
                end_capture(), tenant=tenant, iteration=candidate.iteration,
                template=candidate.template_name,
            )
        outcome = EvaluationOutcome(
            score, raw_score, error, time.time() - started, pruned=pruned,
            cache_hits=collect.get("cache_hits", 0),
            cache_misses=collect.get("cache_misses", 0),
            cache_bytes=collect.get("cache_bytes", 0),
        )
        future = CandidateFuture(candidate, outcome)
        self._completed.append(future)
        return future

    def submit_refit(self, candidate, test_task):
        payload = _solo_fold(
            candidate.template, candidate.hyperparameters, candidate.task, None, None,
            None, candidate.telemetry is not None, test_task,
        )
        future = CandidateFuture(candidate, _refit_outcome(candidate, payload))
        self._completed.append(future)
        return future

    def submit_many(self, candidates):
        futures = []
        for group in batch_eval.group_candidates(candidates):
            if len(group) == 1:
                futures.append(self.submit(group[0]))
            else:
                futures.extend(self._submit_group(group))
        return futures

    def _submit_group(self, candidates):
        """Evaluate a fused same-template group synchronously, fold-major.

        Each fold runs once for the whole group through
        :func:`~repro.automl.batch_eval.evaluate_candidate_group`; fold
        payloads are aggregated per candidate with the exact
        :func:`_aggregate_folds` semantics the pool backends use, which
        match the looped serial path bit for bit.  Early-discard pruning
        still works fold-major: a candidate pruned (or failed) after fold
        *k* is simply excluded from the group's later fold batches.
        """
        lead = candidates[0]
        telemetry = getattr(lead, "telemetry", None)
        started = time.time()
        try:
            folds = task_cv_indices(
                lead.task, n_splits=lead.n_splits, random_state=lead.random_state,
            )
        except Exception as failure:  # noqa: BLE001 - split failures are recorded
            error = _format_error(failure)
            elapsed = time.time() - started
            futures = [
                CandidateFuture(candidate, EvaluationOutcome(None, None, error, elapsed))
                for candidate in candidates
            ]
            self._completed.extend(futures)
            return futures

        prefix_cache = resolve_prefix_cache(lead.cache_config)
        pruner = lead.pruner
        n_candidates = len(candidates)
        n_folds = len(folds)
        if telemetry is not None:
            sink, tenant = telemetry
            sink.emit(
                "batch_group_formed", tenant=tenant, size=n_candidates,
                template=lead.template_name, n_folds=n_folds,
                iterations=[candidate.iteration for candidate in candidates],
                reason="same-template candidates fused into one fold-major group",
            )
            for candidate in candidates:
                for fold_index in range(n_folds):
                    sink.emit(
                        "fold_dispatched", tenant=tenant,
                        iteration=candidate.iteration, fold=fold_index,
                        template=candidate.template_name,
                    )
        fold_results = [[] for _ in range(n_candidates)]
        pruned_reason = [None] * n_candidates
        failed = [False] * n_candidates
        for fold_index, (train_indices, val_indices) in enumerate(folds):
            live = [
                index for index in range(n_candidates)
                if pruned_reason[index] is None and not failed[index]
            ]
            if not live:
                break
            train_task, val_task = materialize_cv_fold(lead.task, train_indices, val_indices)
            data_key = None
            if prefix_cache is not None:
                data_key = fold_data_key(lead.task, train_indices)
            if telemetry is not None:
                begin_capture()
                capture_event("fold_started", batch_size=len(live))
            payloads = batch_eval.evaluate_candidate_group(
                lead.template, [candidates[index].hyperparameters for index in live],
                train_task, val_task, prefix_cache=prefix_cache, data_key=data_key,
            )
            if telemetry is not None:
                sink, tenant = telemetry
                sink.ingest(
                    end_capture(), tenant=tenant,
                    iteration=candidates[live[0]].iteration, fold=fold_index,
                    template=lead.template_name,
                )
            for index, payload in zip(live, payloads):
                fold_results[index].append(payload)
                if telemetry is not None:
                    sink.emit(
                        "fold_finished", tenant=tenant,
                        iteration=candidates[index].iteration, fold=fold_index,
                        template=candidates[index].template_name,
                        score=payload.get("score"),
                        raw_score=payload.get("raw_score"),
                        error=payload.get("error"),
                        elapsed=payload.get("elapsed"),
                        cache_hits=payload.get("cache_hits", 0),
                        cache_misses=payload.get("cache_misses", 0),
                    )
                if payload.get("error"):
                    failed[index] = True
                elif pruner is not None:
                    pruner.observe_fold(payload["score"])
                    scores = [
                        fold["score"] for fold in fold_results[index]
                        if not fold.get("error")
                    ]
                    reason = pruner.assess(scores, n_folds)
                    if reason is not None:
                        pruned_reason[index] = reason
                        if telemetry is not None:
                            sink.emit(
                                "prune_decision", tenant=tenant,
                                iteration=candidates[index].iteration,
                                template=candidates[index].template_name,
                                reason=reason, n_completed=len(scores),
                                n_folds=n_folds,
                            )
        futures = []
        for index, candidate in enumerate(candidates):
            outcome = _aggregate_folds(fold_results[index], pruned_reason[index])
            futures.append(CandidateFuture(candidate, outcome))
        self._completed.extend(futures)
        return futures

    def collect_one(self):
        if not self._completed:
            return None
        return self._completed.pop(0)


def resolve_workers(workers):
    """The pool size a ``workers`` setting means (``None``: the CPU count)."""
    workers = (os.cpu_count() or 1) if workers is None else int(workers)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    return workers


#: Seconds between two looks of ``_PoolBackend.collect_one`` at whether the
#: completion it blocks on can still arrive.
_STALL_POLL_SECONDS = 5.0


class _PoolBackend(ExecutionBackend):
    """Shared machinery for the executor-pool backends.

    ``submit`` splits the candidate into its cross-validation folds and
    pushes each fold into the shared executor queue (work-stealing
    dispatch); ``as_completed`` drains the completion queue fed by the
    fold-done callbacks.
    """

    def __init__(self, workers=None):
        self.workers = resolve_workers(workers)
        self._executor = self._make_executor()
        self._completion_queue = queue.Queue()
        self._outstanding = 0
        self._jobs = set()  # executor jobs whose payloads are not filed yet

    def _make_executor(self):
        raise NotImplementedError

    def submit(self, candidate):
        return self._submit_group([candidate])[0]

    def submit_many(self, candidates):
        futures = []
        for group in batch_eval.group_candidates(candidates):
            if len(group) == 1:
                futures.append(self.submit(group[0]))
            else:
                futures.extend(self._submit_group(group))
        return futures

    def _task_ref(self, task):
        """What travels with every fold of ``task``: here the task itself."""
        return task

    def _submit_group(self, candidates):
        """Dispatch same-template candidates, one executor job per fold.

        Work-stealing granularity stays at the fold level.  A lone
        candidate's fold is one :func:`evaluate_fold_indices` job; each
        fold of a fused group is one :func:`evaluate_fold_indices_batch`
        job evaluating every member's configuration in a fused pass.
        Every member gets its own :class:`_PooledCandidateFuture`; the
        job's done-callback fans the per-member payloads out to them, so
        aggregation, error semantics and completion-queue behaviour are
        the same either way.  Only a lone candidate owns its jobs: a
        group member's failure or pruning must not cancel a fold the
        other members still need — batching trades some pruning
        reactivity for fused throughput.
        """
        lead = candidates[0]
        solo = len(candidates) == 1
        started = time.time()
        try:
            folds = task_cv_indices(
                lead.task, n_splits=lead.n_splits, random_state=lead.random_state,
            )
        except Exception as failure:  # noqa: BLE001 - split failures are recorded like
            # any pipeline failure, matching the serial backend's behaviour
            error = _format_error(failure)
            elapsed = time.time() - started
            futures = []
            for candidate in candidates:
                future = CandidateFuture(candidate, EvaluationOutcome(None, None, error, elapsed))
                self._outstanding += 1
                self._completion_queue.put(future)
                futures.append(future)
            return futures
        futures = [
            _PooledCandidateFuture(candidate, len(folds), self._completion_queue)
            for candidate in candidates
        ]
        self._outstanding += len(futures)
        telemetry = getattr(lead, "telemetry", None)
        if telemetry is not None:
            sink, tenant = telemetry
            if not solo:
                sink.emit(
                    "batch_group_formed", tenant=tenant, size=len(candidates),
                    template=lead.template_name, n_folds=len(folds),
                    iterations=[candidate.iteration for candidate in candidates],
                    reason="same-template candidates co-submitted in one scheduler burst",
                )
            for candidate in candidates:
                for fold_index in range(len(folds)):
                    sink.emit(
                        "fold_dispatched", tenant=tenant,
                        iteration=candidate.iteration, fold=fold_index,
                        template=candidate.template_name,
                    )
        if solo:
            evaluate, configuration = evaluate_fold_indices, lead.hyperparameters
        else:
            evaluate = evaluate_fold_indices_batch
            configuration = [candidate.hyperparameters for candidate in candidates]
        # submit every fold before attaching callbacks: a fast-failing fold's
        # callback cancels later siblings, which must all exist by then.  A
        # fold that cannot even be submitted (broken/shut-down pool) becomes
        # a failed payload, so the candidate futures still complete and
        # as_completed()/drain() never hang on them.
        jobs = []
        submit_error = None
        for train_indices, val_indices in folds:
            job = None
            if submit_error is None:
                try:
                    job = self._executor.submit(
                        evaluate, lead.template, configuration,
                        self._task_ref(lead.task), train_indices, val_indices,
                        cache_config=lead.cache_config,
                        capture_events=telemetry is not None,
                    )
                except Exception as failure:  # noqa: BLE001 - executor failures are data
                    submit_error = _format_error(failure)
            jobs.append(job)
        if solo:
            futures[0]._fold_futures = jobs
        self._jobs.update(job for job in jobs if job is not None)
        for index, job in enumerate(jobs):
            if job is None:
                for future in futures:
                    future._fold_failed(index, submit_error)
            else:
                job.add_done_callback(partial(self._file_job, futures, index))
        return futures

    def _file_job(self, futures, index, job):
        """Done-callback of an executor job: one payload to each member's future."""
        try:
            for future, payload in zip(futures, _job_payloads(job, len(futures))):
                future._record(index, payload)
        finally:
            self._jobs.discard(job)

    def submit_refit(self, candidate, test_task):
        """Dispatch the refit as one more job: the holdout fold.

        Both partitions travel as task references like any fold's task,
        so the job passes through whatever this backend puts between a
        fold and a worker (fair-share admission, supervision, retries).
        """
        future = _RefitFuture(candidate, 1, self._completion_queue)
        self._outstanding += 1
        try:
            job = self._executor.submit(
                evaluate_fold_indices, candidate.template, candidate.hyperparameters,
                self._task_ref(candidate.task), None, None,
                capture_events=candidate.telemetry is not None,
                holdout_ref=self._task_ref(test_task),
            )
        except Exception as failure:  # noqa: BLE001 - executor failures are data
            future._fold_failed(0, _format_error(failure))
        else:
            self._jobs.add(job)
            job.add_done_callback(partial(self._file_job, [future], 0))
        return future

    def collect_one(self):
        if not self._outstanding:
            return None
        while True:
            try:
                future = self._completion_queue.get(timeout=_STALL_POLL_SECONDS)
                break
            except queue.Empty:
                # a job leaves _jobs only after its payloads were filed, so
                # with none left nothing can complete the wait any more
                if not self._jobs and self._completion_queue.empty():
                    raise RuntimeError(
                        "lost completion: " + self._state_dump()
                    ) from None
        self._outstanding -= 1
        return future

    def _state_dump(self):
        """What a wait that can no longer end reports instead of hanging."""
        return ("{!r}: {} candidate(s) outstanding, {} completion(s) queued, "
                "{} job(s) unfiled, executor {!r}".format(
                    self, self._outstanding, self._completion_queue.qsize(),
                    len(self._jobs), self._executor))

    def shutdown(self):
        # cancel_futures: on a normal exit nothing is queued; on an aborted
        # search it stops queued folds from burning workers before release
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __repr__(self):
        return "{}(workers={})".format(type(self).__name__, self.workers)


class ThreadBackend(_PoolBackend):
    """Evaluate folds on a thread pool (shared memory, no pickling)."""

    name = "thread"

    def _make_executor(self):
        return ThreadPoolExecutor(max_workers=self.workers)


class ProcessBackend(_PoolBackend):
    """Evaluate folds on a process pool (true multi-core parallelism).

    Everything crossing the process boundary — the worker function, the
    template, the hyperparameters and the fold indices — is picklable;
    fold payloads come back as plain dicts so even exotic worker
    exceptions survive the return trip.  Each task's data crosses once,
    over a transport chosen per task (see :meth:`_task_ref`); the tasks
    shipped per transport are tallied in :attr:`plane_counts`.

    Parameters
    ----------
    workers:
        Worker process count (default: the CPU count).
    fold_timeout:
        Seconds a dispatched fold may run before the supervised pool
        kills its worker and retries the fold.  Setting this (or
        ``max_fold_retries``) swaps the plain ``ProcessPoolExecutor``
        for a :class:`~repro.automl.supervisor.SupervisedWorkerPool`:
        worker deaths no longer surface as ``BrokenProcessPool`` but as
        a per-worker respawn plus a retried fold, and a fold that keeps
        killing its worker is quarantined as a recorded failure.
    max_fold_retries:
        Crash/timeout retries per fold before quarantine (default 1
        when supervision is enabled).
    """

    name = "process"

    def __init__(self, workers=None, fold_timeout=None, max_fold_retries=None):
        self.fold_timeout, self.max_fold_retries = supervision_knobs(
            fold_timeout, max_fold_retries
        )
        self._payloads = OrderedDict()  # id(task) -> (task, TaskPayload)
        self._segments = OrderedDict()  # id(task) -> (task, SharedTaskSegment)
        self._payload_ids = count()
        #: Tasks each coordinator-side transport LRU (spill payloads, shm
        #: segments) keeps published before evicting the oldest.
        self.transport_capacity = _WORKER_TASK_CACHE_SIZE
        #: Tasks shipped per transport: ``{"shm": n, "pickle": n}``.
        self.plane_counts = {"shm": 0, "pickle": 0}
        # reclaim segments leaked by coordinators that died without running
        # their atexit hook (SIGKILL, power loss)
        shm.sweep_stale_segments()
        super().__init__(workers=workers)

    @property
    def supervised(self):
        """Whether folds run under the supervised (fault-tolerant) pool."""
        return self.fold_timeout is not None or self.max_fold_retries is not None

    def _make_executor(self):
        if self.supervised:
            retries = self.max_fold_retries
            if retries is None:
                retries = DEFAULT_MAX_FOLD_RETRIES
            pool = SupervisedWorkerPool(
                max_workers=self.workers,
                initializer=_start_worker,
                fold_timeout=self.fold_timeout,
                max_fold_retries=retries,
            )
            pool.set_fault_listener(self._repair_data_plane)
            return pool
        return ProcessPoolExecutor(max_workers=self.workers, initializer=_start_worker)

    @property
    def supervisor_stats(self):
        """Supervision counters, or ``None`` when running unsupervised."""
        stats = getattr(self._executor, "stats", None)
        return dict(stats) if stats is not None else None

    def _repair_data_plane(self):
        """Re-publish any shm segment whose backing file went missing.

        The supervised pool calls this before retrying a fold, so a
        segment unlinked out from under the workers (a crashed writer, a
        fault-injection unlink) is restored from the coordinator's
        still-live mapping and the retried fold can attach again.
        """
        for _, segment in list(self._segments.values()):
            try:
                segment.ensure_published()
            except Exception:  # noqa: BLE001 - a failed repair fails the retry, not us
                pass

    def _task_payload(self, task):
        """The on-disk payload handle for ``task``, written on first use.

        Holding a reference to the task itself keeps its ``id`` stable for
        the lifetime of the cache entry; the payload key carries a
        monotonic counter so a recycled ``id`` after eviction can never
        alias a stale entry in a worker's cache.
        """
        entry = self._payloads.get(id(task))
        if entry is not None:
            self._payloads.move_to_end(id(task))
            return entry[1]
        descriptor, path = tempfile.mkstemp(prefix="repro-task-", suffix=".pkl")
        try:
            with os.fdopen(descriptor, "wb") as stream:
                pickle.dump(task, stream, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            os.unlink(path)
            raise
        _register_spill_file(path)
        payload = TaskPayload("task-{}".format(next(self._payload_ids)), path)
        self._payloads[id(task)] = (task, payload)
        self.plane_counts["pickle"] += 1
        while len(self._payloads) > self.transport_capacity:
            _, (_, stale) = self._payloads.popitem(last=False)
            _discard_spill_file(stale.path)
        return payload

    def _task_ref(self, task):
        """The transport handle shipped with every fold of ``task``.

        A shareable task is published once into a shared-memory segment
        and its picklable :class:`~repro.automl.shm.SharedTaskHandle`
        travels with each fold; a task the segment format cannot hold, a
        platform without shared memory and any publication failure fall
        back to the :class:`TaskPayload` pickle spill for that task.  A
        task that already went down one plane stays there — workers key
        their resident cache by the handle, so switching transports
        mid-task would just duplicate the resident copy.
        """
        entry = self._segments.get(id(task))
        if entry is not None:
            self._segments.move_to_end(id(task))
            return entry[1].handle
        if id(task) in self._payloads:
            return self._task_payload(task)
        if shm.shm_available() and shm.task_is_shareable(task):
            try:
                segment = shm.publish_task(task)
            except Exception:  # noqa: BLE001 - publication failure falls back to pickle
                segment = None
            if segment is not None:
                self._segments[id(task)] = (task, segment)
                self.plane_counts["shm"] += 1
                emit_active(
                    "shm_publish", task=getattr(task, "name", None),
                    plane_counts=dict(self.plane_counts),
                )
                while len(self._segments) > self.transport_capacity:
                    _, (_, stale) = self._segments.popitem(last=False)
                    stale.release()
                return segment.handle
            reason = "shared-memory publication failed"
        else:
            reason = "shared memory unavailable or task not shareable"
        emit_active(
            "shm_fallback", task=getattr(task, "name", None), reason=reason,
            plane_counts=dict(self.plane_counts),
        )
        return self._task_payload(task)

    def shutdown(self):
        super().shutdown()
        while self._payloads:
            _, (_, payload) = self._payloads.popitem(last=False)
            _discard_spill_file(payload.path)
        while self._segments:
            _, (_, segment) = self._segments.popitem(last=False)
            segment.release()


def _unlink_quietly(path):
    try:
        os.unlink(path)
    except OSError:
        pass


# -- spill-file safety net ----------------------------------------------------------

_SPILL_LOCK = threading.Lock()
#: Task pickle spill files written by live process backends; swept at
#: interpreter exit so crashed searches don't leak task-sized files in
#: ``$TMPDIR``.  Entries are removed again on the backend's own eviction
#: and shutdown unlinks (the normal path).
_SPILL_FILES = set()
_SPILL_ATEXIT_REGISTERED = False


def _register_spill_file(path):
    global _SPILL_ATEXIT_REGISTERED
    with _SPILL_LOCK:
        if not _SPILL_ATEXIT_REGISTERED:
            atexit.register(_sweep_spill_files)
            _SPILL_ATEXIT_REGISTERED = True
        _SPILL_FILES.add(path)


def _discard_spill_file(path):
    """Unlink a spill file and drop it from the exit sweep."""
    with _SPILL_LOCK:
        _SPILL_FILES.discard(path)
    _unlink_quietly(path)


def _sweep_spill_files():
    with _SPILL_LOCK:
        paths = list(_SPILL_FILES)
        _SPILL_FILES.clear()
    for path in paths:
        _unlink_quietly(path)


BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def resolve_backend(backend, supervised=()):
    """The instance or class a ``backend`` setting names; starts nothing.

    ``backend`` is a name, an :class:`ExecutionBackend` class (returned
    itself, so user subclasses are honored) or an instance (returned as
    is).  ``supervised`` names the supervision knobs the caller has set:
    setting one for something that cannot honor it — an already-constructed
    instance, or a backend without worker processes — is rejected rather
    than silently ignored.
    """
    if isinstance(backend, ExecutionBackend):
        for knob in supervised:
            raise ValueError(
                "{} cannot be applied to an existing backend "
                "instance; configure it on the backend directly".format(knob)
            )
        return backend
    if isinstance(backend, type) and issubclass(backend, ExecutionBackend):
        backend_class = backend
    else:
        if backend is None:
            backend = "serial"
        try:
            backend_class = BACKENDS[backend]
        except (KeyError, TypeError):
            raise ValueError(
                "Unknown backend {!r}; available backends: {}".format(backend, sorted(BACKENDS))
            ) from None
    if not issubclass(backend_class, ProcessBackend):
        for knob in supervised:
            raise ValueError(
                "{} only applies to the process backend, not {!r}".format(
                    knob, getattr(backend_class, "name", backend_class.__name__)
                )
            )
    return backend_class


def get_backend(backend, workers=None, fold_timeout=None, max_fold_retries=None):
    """Resolve a backend instance from a name, class or instance.

    ``workers`` is forwarded to the pool backends and ignored by the
    serial backend; the supervision knobs ``fold_timeout``/
    ``max_fold_retries`` apply only to the process backend (see
    :func:`resolve_backend`) and keep the backend's own defaults when
    ``None``.
    """
    supervision = {
        knob: value
        for knob, value in (("fold_timeout", fold_timeout),
                            ("max_fold_retries", max_fold_retries))
        if value is not None
    }
    resolved = resolve_backend(backend, supervised=supervision)
    if isinstance(resolved, ExecutionBackend):
        return resolved
    if issubclass(resolved, _PoolBackend):
        # only a process backend gets past resolve_backend with supervision set
        return resolved(workers=workers, **supervision)
    return resolved()
