"""Frozen-reference identity test for the pool dispatch path.

``_PoolBackend._submit_group`` is the one dispatcher of both lone
candidates and fused groups, ``_job_payloads`` the one translator of an
executor job into fold payloads, and ``_run_fold`` the one body of both
worker entry points.  They replaced two dispatchers, two translators and
two evaluator bodies; this module keeps those — the code of the commit
before the merge, frozen below as ``_ReferenceDispatch`` — as the one
reference semantics the merged path is checked against, and drives both
through the same scripted executor.

Every scenario is a script: which fold submission raises, which task
reference cannot be resolved, and in which order and how the executor's
jobs finish (run the submitted function for real, return a scripted
payload, raise, be cancelled from outside).  Reference and new code must
agree on every candidate's outcome, the completion-queue order, the
``cancel()`` calls each executor job received and the emitted event
sequence (type and every non-timing field).

The refit job, which has no frozen predecessor on this dispatcher (the
coordinator used to run it inline), is scripted through the same executor
at the end of the module, next to the check that a pool or fleet search
fits no learner on the coordinator thread.
"""

import copy
import time
from concurrent.futures import Future
from itertools import count

import pytest

from repro.automl import batch_eval, faultinject
from repro.automl import prefix_cache as prefix_cache_module
from repro.automl.backends import (
    CandidateFuture,
    EvaluationCandidate,
    EvaluationOutcome,
    PruneController,
    TaskPayload,
    _cache_info_fields,
    _format_error,
    _PoolBackend,
    _PooledCandidateFuture,
    _resolve_task,
    evaluate_fold_indices,
    evaluate_fold_indices_batch,
)
from repro.automl.prefix_cache import (
    fold_data_key,
    make_prefix_cache_config,
    resolve_prefix_cache,
)
from repro.core.template import Template
from repro.tasks import synth
from repro.tasks.task import materialize_cv_fold, task_cv_indices
from repro.telemetry.events import begin_capture, capture_event, end_capture

# -- the frozen reference -------------------------------------------------------------
#
# Verbatim from the parent commit's ``repro/automl/backends.py`` apart from
# the names: module functions carry a ``reference_`` prefix, the
# ``_PooledCandidateFuture._fold_done`` method became a function taking the
# future, and the three ``_submit_fold`` / ``_submit_fold_batch`` override
# pairs — which differed only in the expression producing the task
# reference — are the one pair below calling the ``_task_ref`` hook.


def reference_evaluate_fold_indices(template, hyperparameters, task_ref, train_indices,
                                    val_indices, cache_config=None, capture_events=False):
    from repro.automl import search

    faultinject.maybe_inject(task_ref)
    if capture_events:
        begin_capture()
        capture_event("fold_started")
    started = time.time()
    try:
        task = _resolve_task(task_ref)
    except Exception as failure:  # noqa: BLE001
        payload = {
            "score": None,
            "raw_score": None,
            "error": _format_error(failure),
            "elapsed": time.time() - started,
            "retriable": True,
        }
        if capture_events:
            payload["events"] = end_capture()
        return payload
    try:
        train_task, val_task = materialize_cv_fold(task, train_indices, val_indices)
        prefix_cache = resolve_prefix_cache(cache_config)
        extra = {}
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
    except Exception as failure:  # noqa: BLE001
        payload = {
            "score": None,
            "raw_score": None,
            "error": _format_error(failure),
            "elapsed": time.time() - started,
        }
    if capture_events:
        payload["events"] = end_capture()
    return payload


def reference_evaluate_fold_indices_batch(template, hyperparameters_list, task_ref,
                                          train_indices, val_indices, cache_config=None,
                                          capture_events=False):
    faultinject.maybe_inject(task_ref)
    if capture_events:
        begin_capture()
        capture_event("fold_started", batch_size=len(hyperparameters_list))
    started = time.time()
    try:
        task = _resolve_task(task_ref)
    except Exception as failure:  # noqa: BLE001
        share = (time.time() - started) / max(len(hyperparameters_list), 1)
        error = _format_error(failure)
        payloads = [
            {"score": None, "raw_score": None, "error": error, "elapsed": share,
             "retriable": True}
            for _ in hyperparameters_list
        ]
        if capture_events and payloads:
            payloads[0]["events"] = end_capture()
        return payloads
    try:
        train_task, val_task = materialize_cv_fold(task, train_indices, val_indices)
        prefix_cache = resolve_prefix_cache(cache_config)
        data_key = None
        if prefix_cache is not None:
            data_key = fold_data_key(task, train_indices)
        payloads = batch_eval.evaluate_candidate_group(
            template, hyperparameters_list, train_task, val_task,
            prefix_cache=prefix_cache, data_key=data_key,
        )
    except Exception as failure:  # noqa: BLE001
        share = (time.time() - started) / max(len(hyperparameters_list), 1)
        error = _format_error(failure)
        payloads = [
            {"score": None, "raw_score": None, "error": error, "elapsed": share}
            for _ in hyperparameters_list
        ]
    if capture_events and payloads:
        payloads[0]["events"] = end_capture()
    return payloads


def reference_fold_done(self, index, fold_future):
    if fold_future.cancelled():
        payload = {
            "score": None,
            "raw_score": None,
            "error": "CancelledError: an earlier fold of this candidate failed",
            "elapsed": 0.0,
        }
    else:
        exception = fold_future.exception()
        if exception is not None:
            payload = {
                "score": None,
                "raw_score": None,
                "error": _format_error(exception),
            }
        else:
            payload = fold_future.result()
    self._record(index, payload)


def reference_dispatch_group_fold(index, job, futures):
    n_members = len(futures)
    if job.cancelled():
        payloads = [
            {
                "score": None,
                "raw_score": None,
                "error": "CancelledError: the backend was shut down before this fold ran",
                "elapsed": 0.0,
            }
            for _ in range(n_members)
        ]
    else:
        exception = job.exception()
        if exception is not None:
            error = _format_error(exception)
            payloads = [
                {"score": None, "raw_score": None, "error": error, "elapsed": 0.0}
                for _ in range(n_members)
            ]
        else:
            payloads = job.result()
            if not isinstance(payloads, list) or len(payloads) != n_members:
                error = "RuntimeError: batched fold returned {} payloads for {} candidates".format(
                    len(payloads) if isinstance(payloads, list) else type(payloads).__name__,
                    n_members,
                )
                payloads = [
                    {"score": None, "raw_score": None, "error": error, "elapsed": 0.0}
                    for _ in range(n_members)
                ]
    for future, payload in zip(futures, payloads):
        future._record(index, payload)


class _ScriptedPool(_PoolBackend):
    """A pool backend over the scenario's executor and task references."""

    def __init__(self, executor, task_refs):
        self._scripted_executor = executor
        self._task_refs = task_refs
        super().__init__(workers=1)

    def _make_executor(self):
        return self._scripted_executor

    def _task_ref(self, task):
        return self._task_refs(task)


class _ReferenceDispatch(_ScriptedPool):
    """The parent commit's ``_PoolBackend`` dispatch methods, frozen."""

    def submit(self, candidate):
        started = time.time()
        try:
            folds = task_cv_indices(
                candidate.task, n_splits=candidate.n_splits,
                random_state=candidate.random_state,
            )
        except Exception as failure:  # noqa: BLE001
            outcome = EvaluationOutcome(
                None, None,
                _format_error(failure),
                time.time() - started,
            )
            future = CandidateFuture(candidate, outcome)
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
                    "fold_dispatched", tenant=tenant, iteration=candidate.iteration,
                    fold=fold_index, template=candidate.template_name,
                )
        submit_error = None
        for train_indices, val_indices in folds:
            if submit_error is None:
                try:
                    future._fold_futures.append(
                        self._submit_fold(candidate, train_indices, val_indices)
                    )
                    continue
                except Exception as failure:  # noqa: BLE001
                    submit_error = _format_error(failure)
            future._fold_futures.append(None)
        for index, fold_future in enumerate(future._fold_futures):
            if fold_future is None:
                future._fold_failed(index, submit_error)
            else:
                fold_future.add_done_callback(
                    lambda fold, index=index, future=future: reference_fold_done(
                        future, index, fold
                    )
                )
        return future

    def _submit_fold(self, candidate, train_indices, val_indices):
        return self._executor.submit(
            reference_evaluate_fold_indices, candidate.template, candidate.hyperparameters,
            self._task_ref(candidate.task), train_indices, val_indices,
            cache_config=candidate.cache_config,
            capture_events=getattr(candidate, "telemetry", None) is not None,
        )

    def submit_many(self, candidates):
        futures = []
        for group in batch_eval.group_candidates(candidates):
            if len(group) == 1:
                futures.extend(self.submit(candidate) for candidate in group)
            else:
                futures.extend(self._submit_group(group))
        return futures

    def _submit_group(self, candidates):
        lead = candidates[0]
        started = time.time()
        try:
            folds = task_cv_indices(
                lead.task, n_splits=lead.n_splits, random_state=lead.random_state,
            )
        except Exception as failure:  # noqa: BLE001
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
        hyperparameters_list = [candidate.hyperparameters for candidate in candidates]
        jobs = []
        submit_error = None
        for train_indices, val_indices in folds:
            if submit_error is None:
                try:
                    jobs.append(
                        self._submit_fold_batch(
                            lead, hyperparameters_list, train_indices, val_indices
                        )
                    )
                    continue
                except Exception as failure:  # noqa: BLE001
                    submit_error = _format_error(failure)
            jobs.append(None)
        for index, job in enumerate(jobs):
            if job is None:
                for future in futures:
                    future._fold_failed(index, submit_error)
            else:
                job.add_done_callback(
                    lambda fold, index=index, futures=futures: reference_dispatch_group_fold(
                        index, fold, futures
                    )
                )
        return futures

    def _submit_fold_batch(self, candidate, hyperparameters_list, train_indices, val_indices):
        return self._executor.submit(
            reference_evaluate_fold_indices_batch, candidate.template, hyperparameters_list,
            self._task_ref(candidate.task), train_indices, val_indices,
            cache_config=candidate.cache_config,
            capture_events=getattr(candidate, "telemetry", None) is not None,
        )


# -- the scripted executor --------------------------------------------------------------


class _CountingFuture(Future):
    def __init__(self):
        super().__init__()
        self.cancel_calls = 0

    def cancel(self):
        self.cancel_calls += 1
        return super().cancel()


class _ScriptedExecutor:
    """Holds every submitted job until the scenario's script finishes it."""

    def __init__(self, submit_fails_at=None):
        self.jobs = []  # (future, fn, args, kwargs), in submission order
        self._submit_fails_at = submit_fails_at

    def submit(self, fn, *args, **kwargs):
        if len(self.jobs) == self._submit_fails_at:
            raise RuntimeError("cannot schedule new futures after shutdown")
        future = _CountingFuture()
        self.jobs.append((future, fn, args, kwargs))
        return future

    def finish(self, fold, action):
        future, fn, args, kwargs = self.jobs[fold]
        if action == "cancel":
            future.cancel()
        elif future.done():
            return  # a sibling's failure already cancelled this job
        elif action == "run":
            future.set_result(fn(*args, **kwargs))
        elif isinstance(action, BaseException):
            future.set_exception(action)
        else:
            future.set_result(copy.deepcopy(action))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _RecordingSink:
    """In-memory stand-in for the ``emit``/``ingest`` half of ``TelemetrySink``."""

    def __init__(self):
        self.events = []

    def emit(self, etype, **fields):
        self.events.append(dict(fields, event=etype))

    def ingest(self, events, **context):
        for event in events or ():
            self.events.append(dict(event, **context))


# -- scenarios --------------------------------------------------------------------------

ENCODER = "mlprimitives.custom.preprocessing.ClassEncoder"
DECODER = "mlprimitives.custom.preprocessing.ClassDecoder"
KNN = "sklearn.neighbors.KNeighborsClassifier"
N_NEIGHBORS = (KNN + "#0", "n_neighbors")
TEMPLATE = Template("dispatch_knn", [ENCODER, "sklearn.impute.SimpleImputer", KNN, DECODER])
BROKEN = Template("dispatch_broken", ["sklearn.impute.SimpleImputer", KNN, DECODER])
TASK = synth.make_single_table_classification(n_samples=60, random_state=0)
N_FOLDS = 3


def ok(score):
    return {"score": score, "raw_score": score, "error": None, "elapsed": 0.01,
            "cache_hits": 1, "cache_misses": 2, "cache_bytes": 3}


def failed(message):
    return {"score": None, "raw_score": None, "error": message, "elapsed": 0.01}


def scripted(n_members, payloads):
    """A scripted job result: the dict of a solo job, the list of a group job."""
    return payloads[0] if n_members == 1 else payloads[:n_members]


#: name -> builder(n_members) of the scenario's keyword arguments for ``drive``
SCENARIOS = {
    "success": lambda n: {"cache": True},
    "success, jobs finish in reverse": lambda n: {"order": [2, 1, 0]},
    "broken template fails every fold": lambda n: {"template": BROKEN},
    "fold error at position 0": lambda n: {
        "actions": {0: scripted(n, [failed("ValueError: fold 0")] * 4)}},
    "fold error in the middle": lambda n: {
        "actions": {1: scripted(n, [failed("ValueError: fold 1")] * 4)}},
    "fold error at the last position": lambda n: {
        "actions": {2: scripted(n, [failed("ValueError: fold 2")] * 4)}},
    "fold error in the middle, jobs finish in reverse": lambda n: {
        "order": [2, 1, 0], "actions": {1: scripted(n, [failed("ValueError: fold 1")] * 4)}},
    "first member alone fails its first fold": lambda n: {
        "actions": {0: scripted(n, [failed("ValueError: member 0")] + [ok(0.5)] * 3)}},
    "last member alone fails the middle fold": lambda n: {
        "actions": {1: scripted(n, ([ok(0.5)] * (n - 1) + [failed("ValueError: last")]))}},
    "executor exception": lambda n: {
        "actions": {1: RuntimeError("A process in the process pool was terminated")}},
    "job cancelled from outside": lambda n: {"actions": {0: "cancel"}},
    "last job cancelled from outside": lambda n: {"actions": {2: "cancel"}},
    "submit raises on the first fold": lambda n: {"submit_fails_at": 0},
    "submit raises on the second fold": lambda n: {"submit_fails_at": 1},
    "wrong number of payloads": lambda n: {
        "actions": {1: [ok(0.5)] * (n + 1) if n > 1 else ok(0.5)}},
    "a payload that is not a list": lambda n: {
        "actions": {0: ok(0.5)}},
    "task_cv_indices raises": lambda n: {"n_splits": 1},
    "retriable transport failure at position 0": lambda n: {"task_ref_fails_at": 0},
    "retriable transport failure in the middle": lambda n: {"task_ref_fails_at": 1},
    "pruned after the first fold": lambda n: {
        "prune": True, "actions": {0: scripted(n, [ok(0.1)] * 4)}},
    "pruned after the first fold, jobs finish in reverse": lambda n: {
        "prune": True, "order": [2, 1, 0],
        "actions": {2: scripted(n, [ok(0.1)] * 4)}},
}

#: Event fields that differ between any two runs.  ``elapsed`` also hides
#: the one deliberate difference: the payload synthesized for a lone
#: candidate's job that raised used to carry no ``elapsed`` at all and now
#: carries 0.0 like every other synthesized payload.
_TIMING_FIELDS = ("wall", "proc", "pid", "elapsed")


def drive(backend_class, n_members, telemetry, template=TEMPLATE, n_splits=N_FOLDS,
          order=(0, 1, 2), actions=None, submit_fails_at=None, task_ref_fails_at=None,
          prune=False, cache=False):
    """Run one scenario on one dispatcher; returns everything the two must agree on."""
    prefix_cache_module._PROCESS_CACHES.clear()
    executor = _ScriptedExecutor(submit_fails_at)
    calls = count()

    def task_refs(task):
        if next(calls) == task_ref_fails_at:
            return TaskPayload("dispatch-identity-gone", "/nonexistent/task.pkl")
        return task

    backend = backend_class(executor, task_refs)
    sink = _RecordingSink() if telemetry else None
    pruner = None
    if prune:
        pruner = PruneController(0.0)
        pruner.update_task_best(0.9)
        pruner.observe_fold(0.5)
    base = template.default_hyperparameters()
    cache_config = make_prefix_cache_config("mem") if cache else None
    candidates = [
        EvaluationCandidate(
            iteration=10 + member, template=template,
            hyperparameters={**base, N_NEIGHBORS: 3 + 2 * member},
            task=TASK, n_splits=n_splits, random_state=0, pruner=pruner,
            cache_config=cache_config,
            telemetry=(sink, "tenant-a") if telemetry else None,
        )
        for member in range(n_members)
    ]
    submitted = backend.submit_many(candidates)
    for fold in order:
        if fold < len(executor.jobs):
            executor.finish(fold, (actions or {}).get(fold, "run"))
    assert len(executor.jobs) <= n_splits  # one job per fold, however many members
    assert all(future.done() for future in submitted)  # or as_completed() would hang
    completed = list(backend.as_completed())
    assert sorted(map(id, completed)) == sorted(map(id, submitted))
    outcomes = []
    for future in completed:
        outcome = future.result()
        assert isinstance(outcome.elapsed, float)
        outcomes.append((
            future.candidate.iteration, outcome.score, outcome.raw_score, outcome.error,
            outcome.pruned, outcome.cache_hits, outcome.cache_misses, outcome.cache_bytes,
        ))
    events = None
    if telemetry:
        events = [
            {key: value for key, value in event.items() if key not in _TIMING_FIELDS}
            for event in sink.events
        ]
    return {
        "outcomes in completion order": outcomes,
        "cancel() calls per job": [job[0].cancel_calls for job in executor.jobs],
        "events": events,
    }


@pytest.mark.parametrize("telemetry", [False, True], ids=["events-off", "events-on"])
@pytest.mark.parametrize("n_members", [1, 2, 3, 4])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_dispatch_matches_the_frozen_reference(scenario, n_members, telemetry):
    options = SCENARIOS[scenario](n_members)
    expected = drive(_ReferenceDispatch, n_members, telemetry, **options)
    actual = drive(_ScriptedPool, n_members, telemetry, **options)
    assert actual == expected


def test_the_scenarios_reach_what_they_name():
    """Guard the guard: the scripted scenarios exercise the paths they claim."""
    solo = drive(_ReferenceDispatch, 1, True, **SCENARIOS["fold error at position 0"](1))
    # fold 0's failure cancels both siblings, fold 1's cancellation fold 2 again
    assert solo["cancel() calls per job"] == [0, 1, 2]
    assert [event["event"] for event in solo["events"]].count("fold_cancelled") == 2
    group = drive(_ReferenceDispatch, 3, True,
                  **SCENARIOS["first member alone fails its first fold"](3))
    assert group["cancel() calls per job"] == [0, 0, 0]
    assert [outcome[3] for outcome in group["outcomes in completion order"]] == [
        "ValueError: member 0", None, None]
    assert [event["event"] for event in group["events"]][:2] == [
        "batch_group_formed", "fold_dispatched"]
    cancelled = drive(_ReferenceDispatch, 2, False,
                      **SCENARIOS["job cancelled from outside"](2))
    assert {outcome[3] for outcome in cancelled["outcomes in completion order"]} == {
        "CancelledError: the backend was shut down before this fold ran"}
    cancelled = drive(_ReferenceDispatch, 1, False,
                      **SCENARIOS["job cancelled from outside"](1))
    assert cancelled["outcomes in completion order"][0][3] == (
        "CancelledError: an earlier fold of this candidate failed")
    pruned = drive(_ReferenceDispatch, 1, True,
                   **SCENARIOS["pruned after the first fold"](1))
    assert pruned["outcomes in completion order"][0][4] is True
    assert all(pruned["cancel() calls per job"])
    pruned = drive(_ReferenceDispatch, 3, True,
                   **SCENARIOS["pruned after the first fold"](3))
    assert not any(pruned["cancel() calls per job"])  # a group's jobs are shared
    success = drive(_ReferenceDispatch, 2, False, **SCENARIOS["success"](2))
    assert all(outcome[1] is not None for outcome in success["outcomes in completion order"])
    assert any(outcome[6] > 0 for outcome in success["outcomes in completion order"])


# -- the two worker entry points against their frozen bodies ----------------------------


def _strip(payload):
    payload = dict(payload)
    assert isinstance(payload.pop("elapsed"), float)
    if "events" in payload:
        payload["events"] = [
            {key: value for key, value in event.items() if key not in _TIMING_FIELDS}
            for event in payload["events"]
        ]
    return payload


@pytest.mark.parametrize("capture_events", [False, True], ids=["plain", "captured"])
@pytest.mark.parametrize("cache", [False, True], ids=["uncached", "mem-cache"])
@pytest.mark.parametrize("fault", ["none", "unresolvable task", "bad indices",
                                   "broken template"])
def test_fold_evaluators_match_their_frozen_bodies(fault, cache, capture_events):
    train_indices, val_indices = task_cv_indices(TASK, n_splits=N_FOLDS, random_state=0)[0]
    task_ref = TASK
    template = TEMPLATE
    if fault == "unresolvable task":
        task_ref = TaskPayload("dispatch-identity-gone", "/nonexistent/task.pkl")
    elif fault == "bad indices":
        train_indices = train_indices + 10_000
    elif fault == "broken template":
        template = BROKEN
    base = template.default_hyperparameters()
    configurations = [{**base, N_NEIGHBORS: k} for k in (3, 5, 7)]
    options = {
        "cache_config": make_prefix_cache_config("mem") if cache else None,
        "capture_events": capture_events,
    }

    def run(solo, batch):
        prefix_cache_module._PROCESS_CACHES.clear()
        payloads = [solo(template, configurations[0], task_ref, train_indices, val_indices,
                         **options)]
        for size in (1, 3):
            payloads.extend(batch(template, configurations[:size], task_ref, train_indices,
                                  val_indices, **options))
        return [_strip(payload) for payload in payloads]

    expected = run(reference_evaluate_fold_indices, reference_evaluate_fold_indices_batch)
    actual = run(evaluate_fold_indices, evaluate_fold_indices_batch)
    assert actual == expected
    assert all(("retriable" in payload) == (fault == "unresolvable task")
               for payload in actual)
    assert all((payload["error"] is None) == (fault == "none") for payload in actual)


# -- the refit job on the same dispatcher ---------------------------------------------------


def _refit_candidate(sink=None, template=TEMPLATE):
    return EvaluationCandidate(
        iteration=99, template=template, hyperparameters=template.default_hyperparameters(),
        task=TASK, telemetry=(sink, "tenant-a") if sink is not None else None,
    )


HOLDOUT = synth.make_single_table_classification(n_samples=30, random_state=1)


@pytest.mark.parametrize("action, error", [
    ("run", None),
    (RuntimeError("A process in the process pool was terminated"),
     "RuntimeError: A process in the process pool was terminated"),
    ("cancel", "CancelledError: an earlier fold of this candidate failed"),
    ("submit fails", "RuntimeError: cannot schedule new futures after shutdown"),
])
def test_refit_job_completes_through_the_completion_queue(action, error):
    from repro.automl.search import evaluate_pipeline

    executor = _ScriptedExecutor(submit_fails_at=0 if action == "submit fails" else None)
    backend = _ScriptedPool(executor, lambda task: task)
    sink = _RecordingSink()
    future = backend.submit_refit(_refit_candidate(sink), HOLDOUT)
    if executor.jobs:
        (_, fn, args, kwargs), = executor.jobs
        # one job, the fold evaluator itself, uncached, both partitions by reference
        assert fn is evaluate_fold_indices and args[2] is TASK
        assert kwargs == {"capture_events": True, "holdout_ref": HOLDOUT}
        assert not future.done() and len(backend._jobs) == 1
        executor.finish(0, action)
    assert backend._jobs == set()
    assert backend.collect_one() is future and backend.collect_one() is None
    outcome = future.result()
    assert outcome.error == error
    finished = [event for event in sink.events if event["event"] == "refit_finished"]
    assert len(finished) == 1 and finished[0]["error"] == error
    assert not any(event["event"].startswith("fold_") for event in sink.events)
    if error is None:
        _, raw, pipeline = evaluate_pipeline(
            TEMPLATE, TEMPLATE.default_hyperparameters(), TASK, HOLDOUT)
        assert outcome.raw_score == raw and finished[0]["raw_score"] == raw
        data = HOLDOUT.pipeline_data(include_target=False)
        assert list(outcome.pipeline.predict(**data)) == list(pipeline.predict(**data))
        assert [event["event"] for event in sink.events] == ["refit_started", "refit_finished"]
    else:
        assert outcome.raw_score is None and outcome.pipeline is None


def test_wait_that_can_no_longer_end_raises_with_a_state_dump(monkeypatch):
    from repro.automl import backends

    monkeypatch.setattr(backends, "_STALL_POLL_SECONDS", 0.05)
    backend = _ScriptedPool(_ScriptedExecutor(), lambda task: task)
    backend.submit_refit(_refit_candidate(), HOLDOUT)
    # the job's payload is filed but its completion never reaches the queue
    monkeypatch.setattr(backend._completion_queue, "put", lambda future: None)
    backend._executor.finish(0, "run")
    with pytest.raises(RuntimeError, match="lost completion: .*1 candidate.s. outstanding, "
                                           "0 completion.s. queued, 0 job.s. unfiled"):
        backend.collect_one()


# -- no learner is fitted by the coordinator of a pool or fleet search ----------------------


@pytest.mark.parametrize("runner", ["serial", "thread", "process", "thread-fleet",
                                    "process-fleet"])
def test_no_learner_fit_runs_on_the_coordinator_thread(runner, monkeypatch):
    import os
    import threading

    from repro.automl import AutoBazaarSearch, FleetCoordinator
    from repro.core.step import PipelineStep

    fits = []  # (pid, thread) of every step fit this process ran
    real_fit = PipelineStep.fit

    def recording_fit(self, context):
        fits.append((os.getpid(), threading.get_ident()))
        return real_fit(self, context)

    monkeypatch.setattr(PipelineStep, "fit", recording_fit)

    def run(backend):
        searcher = AutoBazaarSearch(templates=[TEMPLATE], n_splits=2, random_state=0,
                                    backend=backend, workers=2, n_pending=2)
        return searcher.search(TASK, budget=3)

    if runner.endswith("-fleet"):
        with FleetCoordinator(backend=runner.split("-")[0], workers=2) as fleet:
            result = run(fleet.register(name="tenant-a"))
    else:
        result = run(runner)
    assert result.n_failed == 0 and result.test_score is not None
    assert result.best_pipeline is not None and result.refit_error is None
    coordinator = (os.getpid(), threading.get_ident())
    if runner == "serial":
        # the guard's guard: the patch sees fits, the refit's among them
        n_steps = len(TEMPLATE.primitives)
        assert fits == [coordinator] * (n_steps * (3 * 2 + 1))
    elif runner.startswith("thread"):
        assert fits and coordinator not in fits
        assert {pid for pid, _ in fits} == {os.getpid()}
    else:
        assert fits == []  # workers are other processes: nothing was fitted in this one
