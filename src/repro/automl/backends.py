"""Pluggable pipeline-execution backends (paper Section IV-C).

The paper describes AutoBazaar as a distributed system with "a pipeline
execution engine and an AutoML coordinator" that scored 2.5 million
pipelines on a cluster.  This module is the seam between the two: the
coordinator (:class:`~repro.automl.search.AutoBazaarSearch`) decides *what*
to evaluate and an :class:`ExecutionBackend` decides *where and how* it
runs.

Two backends are provided, both the one dispatch path of
:class:`_PoolBackend` over a different executor:

``serial``
    Runs the fold jobs on the calling thread before ``submit`` returns.
``process``
    Runs the fold jobs on a
    :class:`~repro.automl.supervisor.SupervisedWorkerPool` (worker respawn,
    fold retries, an optional fold deadline), as tenant ``"default"`` of a
    private :class:`~repro.automl.fleet.FleetCoordinator`: a solo process
    search is a fleet of one, so every process search takes the fleet's
    one path from a fold to a worker (:class:`TenantBackend`).

Every backend dispatches individual cross-validation *folds*, not whole
candidates, into one executor queue.  Pipeline costs are heavily skewed (a
linear model fold finishes orders of magnitude before a gradient-boosting
fold), so fixed per-candidate chunking would leave workers idle behind
stragglers; with fold-level dispatch every idle worker steals the next
fold regardless of which candidate it belongs to — the work-stealing
answer to the skew problem in parallel query processing.

All backends aggregate fold results in fold order, so a candidate's score
(the mean over folds) and its error message (the first failing fold) are
identical across backends.

Fold submissions ship *index arrays*, not materialized task subsets: the
coordinator computes the cross-validation fold indices once per candidate
and each worker rebuilds its fold locally from a **worker-resident task
cache**, a per-process LRU keyed by the transport handle's task id — so
the dataset crosses the process boundary once per worker instead of once
per fold (``budget * n_splits`` transfers before).  The serial backend
shares the coordinator's memory and passes the task by reference.

A process fleet's data plane (see :meth:`FleetCoordinator._task_ref
<repro.automl.fleet.FleetCoordinator._task_ref>`) publishes every task
once as one file in ``/dev/shm`` (the temp directory where that is
missing or full; see :mod:`repro.automl.shm`): its raw
ndarray columns at aligned offsets, everything else as one pickle.
Workers ``mmap`` the file and attach read-only views instead of
unpickling a copy, so a cache miss costs an ``mmap`` plus the unpickling
of the non-array rest, never a copy of the array columns.

The search's final refit — the best configuration fitted on the whole
training partition and scored on the held-out one — is one more job of the
backend (:meth:`ExecutionBackend.submit_refit`), a *holdout fold* through
the same worker entry point as any fold: both partitions travel as task
references, the job meets whatever the backend puts between a fold and a
worker (fair-share admission, deadlines, retries), and it returns the test
score and the fitted pipeline.  The coordinator fits no learner itself.

Every job evaluates one configuration on one fold: a candidate's fold is
one :func:`evaluate_fold_indices` job on every backend.
"""

import gc
import os
import pickle
import queue
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from functools import partial

import numpy as np

from repro.automl import faultinject, shm
from repro.automl.prefix_cache import fold_data_key, resolve_prefix_cache
from repro.tasks.task import materialize_cv_fold, task_cv_indices
from repro.telemetry.events import begin_capture, capture_event, end_capture


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
    with every fold (see :mod:`repro.automl.prefix_cache`); ``telemetry``
    is the search's ``(sink, tenant)`` emit context (see
    :mod:`repro.telemetry`) or ``None`` when telemetry is off.
    """

    def __init__(self, iteration, template, hyperparameters, task, n_splits=3,
                 random_state=None, template_name=None, is_default=False,
                 cache_config=None, telemetry=None):
        self.iteration = iteration
        self.template = template
        self.hyperparameters = dict(hyperparameters)
        self.task = task
        self.n_splits = n_splits
        self.random_state = random_state
        self.template_name = template_name or template.name
        self.is_default = is_default
        self.cache_config = cache_config
        self.telemetry = telemetry

    def __repr__(self):
        return "EvaluationCandidate(iteration={}, template={!r})".format(
            self.iteration, self.template_name
        )


class EvaluationOutcome:
    """The result of evaluating one candidate: scores or an error, plus timing.

    The ``cache_*`` counters are the candidate's summed fitted-prefix
    cache activity across folds.  ``pipeline`` is the fitted pipeline of a
    final refit (:meth:`ExecutionBackend.submit_refit`) and ``None``
    otherwise; a refit whose pipeline could not travel back keeps its
    scores and names the reason in ``error``.
    """

    def __init__(self, score, raw_score, error, elapsed, cache_hits=0, cache_misses=0,
                 cache_bytes=0, pipeline=None):
        self.score = score
        self.raw_score = raw_score
        self.error = error
        self.elapsed = elapsed
        self.pipeline = pipeline
        self.cache_hits = int(cache_hits)
        self.cache_misses = int(cache_misses)
        self.cache_bytes = int(cache_bytes)

    @property
    def failed(self):
        return self.error is not None

    def __repr__(self):
        return "EvaluationOutcome(score={}, error={!r})".format(self.score, self.error)


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


#: What crosses a process boundary in place of a task; anything else
#: submitted as a task reference is the task.
_TASK_HANDLES = shm.SharedTaskHandle


def _resolve_task(task_ref):
    """Materialize a submitted task reference inside the worker.

    Accepts the task object itself (the serial backend, which shares
    the coordinator's memory) or the process fleet's
    :class:`~repro.automl.shm.SharedTaskHandle`, naming a published file
    to attach read-only views over; the worker keeps it in its resident
    LRU under the handle's ``key``.
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


def _solo_fold(template, hyperparameters, task_ref, train_indices=None, val_indices=None,
               cache_config=None, capture_events=False, holdout_ref=None):
    """One configuration on one fold (or on the holdout fold): its payload.

    The body of :func:`evaluate_fold_indices`, which is what pools are
    sent; the serial backend's jobs, which run on the coordinator's thread,
    call it directly (see :meth:`SerialBackend._fold_function`).

    Rebuilds the fold's train/val subsets inside the worker from the
    resident task, so only the index arrays travel per submission.  With a
    ``cache_config`` the fold's data key is derived from the resident
    task's memoized content digest plus the train-index array, so every
    candidate sharing the fold shares the key without re-hashing the
    dataset.

    With a ``holdout_ref`` the job is a search's final refit, the *holdout
    fold*: the whole resident task is the training side and the task behind
    ``holdout_ref`` — a second reference, resolved like the first — the
    scored side; the index arrays are unused.  The payload of a holdout
    fold also carries the fitted pipeline under ``"pipeline"``: the object
    itself when the job shared the coordinator's memory, its pickle bytes
    when the task reference says the job ran behind a process boundary.  A
    pipeline that cannot be pickled keeps its scores and reports the
    pickling failure as the payload's error.

    Payloads are plain dicts rather than raised exceptions so that worker
    failures survive the trip back through pickling.  A failure *resolving*
    a task reference — a shared-memory segment that vanished under the
    worker — is infrastructure, not pipeline code, so that payload is
    flagged ``"retriable"``: the supervised pool repairs the data plane and
    retries the fold instead of recording it.

    With ``capture_events`` the fold's telemetry (fold or refit start,
    cache hits/misses, shm attaches) is captured thread-locally and
    returned under the payload's ``"events"`` key — telemetry rides the
    existing result channel back to the coordinator instead of a second
    IPC mechanism.
    """
    from repro.automl import search

    faultinject.maybe_inject(task_ref)
    if capture_events:
        begin_capture()
        capture_event("fold_started" if holdout_ref is None else "refit_started")
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
        extra = {}
        prefix_cache = resolve_prefix_cache(cache_config)
        if prefix_cache is not None:
            extra.update(prefix_cache=prefix_cache,
                         data_key=fold_data_key(task, train_indices))
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
    except Exception as failure:  # noqa: BLE001 - failed folds are data, not fatal
        payload = {
            "score": None,
            "raw_score": None,
            "error": _format_error(failure),
            "elapsed": time.time() - started,
        }
        if not resolved:
            payload["retriable"] = True
    if capture_events:
        payload["events"] = end_capture()
    return payload


def evaluate_fold_indices(template, hyperparameters, task_ref, train_indices, val_indices,
                          cache_config=None, capture_events=False, holdout_ref=None):
    """Evaluate one cross-validation fold specified by its sample indices.

    The unit of work-stealing dispatch, top-level (picklable) so it can be
    shipped to worker processes; returns the fold's payload dict (see
    :func:`_solo_fold`).  With a ``holdout_ref`` it is a search's final
    refit instead (see :meth:`ExecutionBackend.submit_refit`).
    """
    return _solo_fold(template, hyperparameters, task_ref, train_indices, val_indices,
                      cache_config, capture_events, holdout_ref)


def _aggregate_folds(fold_results):
    """Combine per-fold payloads into one outcome, in fold order.

    Matches the reference loop
    :func:`~repro.automl.search.cross_validate_template` exactly: the
    first failing fold (in fold order) determines the error, otherwise the
    score is the mean over folds.  ``elapsed`` is the summed compute time
    of the folds — the candidate's evaluation *cost*, the same on every
    backend — not the wall-clock wait since submission, which would
    include queue time behind other candidates in the window.
    """
    elapsed = float(sum(payload.get("elapsed") or 0.0 for payload in fold_results))
    cache = {
        field: int(sum(payload.get(field) or 0 for payload in fold_results))
        for field in ("cache_hits", "cache_misses", "cache_bytes")
    }
    for payload in fold_results:
        if payload.get("error"):
            return EvaluationOutcome(None, None, payload["error"], elapsed, **cache)
    score = float(np.mean([payload["score"] for payload in fold_results]))
    raw_score = float(np.mean([payload["raw_score"] for payload in fold_results]))
    return EvaluationOutcome(score, raw_score, None, elapsed, **cache)


class CandidateFuture:
    """An already-completed future (a failed fold split, a replayed record)."""

    def __init__(self, candidate, outcome):
        self.candidate = candidate
        self._outcome = outcome

    def done(self):
        return True

    def result(self):
        return self._outcome


class _PooledCandidateFuture:
    """Aggregates the fold futures of one candidate, on every backend.

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
            # the error the reference loop raises — is never a
            # cancellation.  On the serial backend no later fold has run
            # yet, so none of them runs at all.
            for later in self._fold_futures[index + 1:]:
                if later is not None:
                    later.cancel()
        with self._lock:
            self._fold_results[index] = payload
            self._remaining -= 1
            finished = self._remaining == 0
        if finished:
            self._outcome = _aggregate_folds(self._fold_results)
            self._completion_queue.put(self)

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


def _job_payload(job):
    """The fold payload of a finished executor job, for its candidate's future.

    A job that ran returns its payload (:func:`evaluate_fold_indices`).
    Anything else — cancellation, an infrastructure failure (pickling
    error, broken pool, ...) — is recorded like any pipeline failure
    instead of killing the search.
    """
    if job.cancelled():
        # cancelled because an earlier fold already failed; the real error
        # sits earlier in fold order, so this never wins the
        # first-failing-fold aggregation
        error = "CancelledError: an earlier fold of this candidate failed"
    else:
        exception = job.exception()
        if exception is None:
            return job.result()
        error = _format_error(exception)
    return {"score": None, "raw_score": None, "error": error, "elapsed": 0.0}


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
        outstanding.  The sliding-window loop blocks here for the next
        completion, then takes the :meth:`n_ready` ones already finished
        with it, and proposes a replacement for each reported result
        instead of draining a whole round.
        """
        raise NotImplementedError

    def n_ready(self):
        """Completed futures :meth:`collect_one` returns without blocking; 0 if unknown."""
        return 0

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

    def tenant_stats(self, since=None):
        """The backend's fleet counters; ``None`` for a backend that is no fleet tenant."""
        return None

    def shutdown(self):
        """Release every worker resource held by the backend."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False

    def __repr__(self):
        return "{}()".format(type(self).__name__)


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
    """The one dispatch path of every backend, over an executor it makes.

    ``submit`` splits the candidate into its cross-validation folds and
    pushes each fold into the executor queue (work-stealing dispatch);
    ``collect_one`` takes from the completion queue fed by the fold-done
    callbacks.  Subclasses choose the executor, the task reference, the
    fold function and what happens once jobs are dispatched.
    """

    def __init__(self, workers=None):
        self.workers = resolve_workers(workers)
        self._executor = self._make_executor()
        self._completion_queue = queue.Queue()
        self._outstanding = 0
        self._jobs = set()  # executor jobs whose payloads are not filed yet

    def _make_executor(self):
        raise NotImplementedError

    def _task_ref(self, task):
        """What travels with every fold of ``task``: here the task itself."""
        return task

    def _fold_function(self):
        """What a fold or refit job calls, resolved per call (wrappers apply)."""
        return evaluate_fold_indices

    def _dispatched(self):
        """Hook run once jobs are queued with their callbacks; pool workers need none."""

    def submit(self, candidate):
        """Dispatch ``candidate``, one executor job per fold.

        Work-stealing granularity stays at the fold level: each fold is one
        :meth:`_fold_function` job, and each job's done-callback files its
        payload with the candidate's :class:`_PooledCandidateFuture`, which
        owns the jobs — a failing fold cancels the ones left.
        """
        started = time.time()
        try:
            folds = task_cv_indices(
                candidate.task, n_splits=candidate.n_splits,
                random_state=candidate.random_state,
            )
        except Exception as failure:  # noqa: BLE001 - split failures are recorded like
            # any pipeline failure, matching what the reference loop raises
            future = CandidateFuture(candidate, EvaluationOutcome(
                None, None, _format_error(failure), time.time() - started))
            self._outstanding += 1
            self._completion_queue.put(future)
            return future
        future = _PooledCandidateFuture(candidate, len(folds), self._completion_queue)
        self._outstanding += 1
        telemetry = getattr(candidate, "telemetry", None)
        if telemetry is not None:
            sink, tenant = telemetry
            for fold_index in range(len(folds)):
                sink.emit(
                    "fold_dispatched", tenant=tenant,
                    iteration=candidate.iteration, fold=fold_index,
                    template=candidate.template_name,
                )
        evaluate = self._fold_function()
        # submit every fold before attaching callbacks: a fast-failing fold's
        # callback cancels later siblings, which must all exist by then (and
        # a serial job must not run before _dispatched, or it would finish
        # with no callback to cancel its siblings).  A
        # fold that cannot even be submitted (broken/shut-down pool) becomes
        # a failed payload, so the candidate future still completes and
        # as_completed()/drain() never hang on it.
        jobs = []
        submit_error = None
        for train_indices, val_indices in folds:
            job = None
            if submit_error is None:
                try:
                    job = self._executor.submit(
                        evaluate, candidate.template, candidate.hyperparameters,
                        self._task_ref(candidate.task), train_indices, val_indices,
                        cache_config=candidate.cache_config,
                        capture_events=telemetry is not None,
                    )
                except Exception as failure:  # noqa: BLE001 - executor failures are data
                    submit_error = _format_error(failure)
            jobs.append(job)
        future._fold_futures = jobs
        self._jobs.update(job for job in jobs if job is not None)
        for index, job in enumerate(jobs):
            if job is None:
                future._fold_failed(index, submit_error)
            else:
                job.add_done_callback(partial(self._file_job, future, index))
        self._dispatched()
        return future

    def _file_job(self, future, index, job):
        """Done-callback of an executor job: its payload to the candidate's future."""
        try:
            future._record(index, _job_payload(job))
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
                self._fold_function(), candidate.template, candidate.hyperparameters,
                self._task_ref(candidate.task), None, None,
                capture_events=candidate.telemetry is not None,
                holdout_ref=self._task_ref(test_task),
            )
        except Exception as failure:  # noqa: BLE001 - executor failures are data
            future._fold_failed(0, _format_error(failure))
        else:
            self._jobs.add(job)
            job.add_done_callback(partial(self._file_job, future, 0))
            self._dispatched()
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

    def n_ready(self):
        return self._completion_queue.qsize()

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


class _CallerThreadExecutor:
    """An executor whose jobs run on the thread that calls :meth:`run_queued`.

    ``submit`` only queues the job, so the dispatcher attaches every fold's
    done-callback first; :meth:`run_queued` runs the queue in submission
    order, skipping each job an earlier one's callback cancelled.
    """

    def __init__(self):
        self._queue = deque()  # (future, fn, args, kwargs)

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        self._queue.append((future, fn, args, kwargs))
        return future

    def run_queued(self):
        while self._queue:
            future, fn, args, kwargs = self._queue.popleft()
            if not future.set_running_or_notify_cancel():
                continue
            try:
                result = fn(*args, **kwargs)
            except Exception as failure:  # noqa: BLE001 - the job's outcome, as on a pool
                future.set_exception(failure)
            except BaseException as interrupt:
                # settle this job and cancel the rest before the interrupt
                # propagates, so every candidate future still completes and
                # a later drain() of a caller-owned backend cannot hang
                future.set_exception(interrupt)
                self.shutdown()
                raise
            else:
                future.set_result(result)

    def shutdown(self, wait=True, cancel_futures=True):
        """Cancel whatever is still queued; no thread or process is held."""
        while self._queue:
            self._queue.popleft()[0].cancel()


class SerialBackend(_PoolBackend):
    """Evaluate candidates on the calling thread, through the pool dispatch path.

    The :class:`_CallerThreadExecutor` queue is run before ``submit`` and
    ``submit_refit`` return, so a candidate is fully
    evaluated when its future comes back (a per-proposal ``max_seconds``
    check stops serial mid-window).  A failing fold's callback cancels
    the later folds before they run: the fold calls of the reference loop
    :func:`~repro.automl.search.cross_validate_template`.
    ``workers`` is accepted and ignored.
    """

    name = "serial"

    def __init__(self, workers=None):
        super().__init__(workers=1)

    def _make_executor(self):
        return _CallerThreadExecutor()

    def _fold_function(self):
        return _solo_fold

    def _dispatched(self):
        self._executor.run_queued()

    # the inherited submit / collect_one, restated because benchmark
    # tracing (bench_e2e/tracing.py) wraps them per class
    def submit(self, candidate):
        return super().submit(candidate)

    def collect_one(self):
        return super().collect_one()

    __repr__ = ExecutionBackend.__repr__


class _TenantExecutor:
    """Executor facade handed to a fleet tenant's dispatch path.

    ``submit`` routes into the fleet's fair-share queue instead of a private
    executor and returns a :class:`~concurrent.futures.Future` that settles
    when the admitted job does; ``shutdown`` (called by the backend's own
    ``shutdown``) releases the tenant's registration — the fleet's pool
    outlives every tenant.
    """

    def __init__(self, fleet, state):
        self._fleet = fleet
        self._state = state

    def submit(self, fn, /, *args, **kwargs):
        return self._fleet._enqueue(self._state, fn, args, kwargs)

    def shutdown(self, wait=True, cancel_futures=False):
        self._fleet._release_tenant(self._state)


class TenantBackend(_PoolBackend):
    """One tenant's execution backend on a :class:`~repro.automl.fleet.FleetCoordinator`.

    Behaves exactly like a private pool backend from the search loop's
    perspective — fold-level submission, completion queue, cancellation —
    but every fold goes through the fleet's
    fair-share scheduler and data plane.  Obtained from
    :meth:`FleetCoordinator.register
    <repro.automl.fleet.FleetCoordinator.register>`; pass it as the search's
    ``backend``.  ``shutdown()`` releases the tenant (cancelling its queued
    folds), never the fleet's pool.  Its counters, over the tenant's
    lifetime, are :meth:`tenant_stats`.
    """

    name = "fleet"

    def __init__(self, fleet, state):
        self._fleet = fleet
        self._state = state
        super().__init__(workers=fleet.workers)

    def _make_executor(self):
        return _TenantExecutor(self._fleet, self._state)

    def _task_ref(self, task):
        return self._fleet._task_ref(task, self._state)

    @property
    def tenant_name(self):
        return self._state.name

    def tenant_stats(self, since=None):
        """A fresh dict of this tenant's fair-share and data-plane counters.

        They include the tasks shipped per transport (``shm``, the one
        plane) and, under ``"supervisor"``, the fleet pool's five
        supervision counters.  Every counter survives the tenant's release and the
        pool's shutdown.  Given an earlier result as ``since``, the
        lifetime counts are what accrued after it.
        """
        return self._fleet._tenant_stats(self._state, since)

    def drain(self):
        """Discard a previous search's leftovers and restart its per-search marks.

        The queue high-water mark cannot be differenced between two
        snapshots, and the task ids a finished search's planes were
        counted by may be reused by the next search's tasks.
        """
        super().drain()
        with self._fleet._lock:
            self._state.queue_hwm = len(self._state.queue) + self._state.inflight
            self._state.seen_tasks.clear()

    def _state_dump(self):
        fleet, state = self._fleet, self._state
        with fleet._lock:
            shares = "{} fold(s) queued, {} admitted of the fleet's {}/{}".format(
                len(state.queue), state.inflight, fleet._admitted, fleet._max_admitted)
        return "{}; {}".format(super()._state_dump(), shares)

    def __repr__(self):
        return "TenantBackend(tenant={!r}, fleet={!r})".format(
            self._state.name, self._fleet
        )


class ProcessBackend(TenantBackend):
    """Evaluate folds on a process pool (true multi-core parallelism).

    A solo process search is a fleet of one: the backend is tenant
    ``"default"`` of a private :class:`~repro.automl.fleet.FleetCoordinator`,
    which it builds here and closes in :meth:`shutdown`, so its folds meet
    the same supervised pool, stride admission and data plane as any
    fleet tenant's.  Everything crossing the process boundary — the worker
    function, the template, the hyperparameters and the fold indices — is
    picklable; fold payloads come back as plain dicts so even exotic worker
    exceptions survive the return trip.  Each task's data crosses once,
    as one published file the workers map; :meth:`tenant_stats` tallies
    the tasks shipped and the pool's supervision counters.

    Parameters
    ----------
    workers:
        Worker process count (default: the CPU count).
    fold_timeout:
        Seconds a dispatched fold may run before the pool kills its worker
        and retries the fold (default ``None``: no deadline).  A worker
        death never surfaces as a broken pool but as a per-worker respawn
        plus a retried fold, and a fold that keeps killing its worker is
        quarantined as a recorded failure.
    max_fold_retries:
        Crash/timeout retries per fold before quarantine (default ``None``:
        :data:`~repro.automl.supervisor.DEFAULT_MAX_FOLD_RETRIES`).
    """

    name = "process"

    def __init__(self, workers=None, fold_timeout=None, max_fold_retries=None):
        from repro.automl.fleet import FleetCoordinator

        fleet = FleetCoordinator(
            backend="process", workers=workers, fold_timeout=fold_timeout,
            max_fold_retries=max_fold_retries,
        )
        super().__init__(fleet, fleet._add_tenant("default"))

    def shutdown(self):
        super().shutdown()
        self._fleet.close()

    __repr__ = _PoolBackend.__repr__


BACKENDS = {
    "serial": SerialBackend,
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
