"""Frozen-reference identity test for the pool dispatch path.

``_PoolBackend.submit`` is the one dispatcher of a candidate's folds,
``_job_payload`` the one translator of an executor job into a fold
payload, and ``_solo_fold`` the one body of the worker entry point.  The
code they replaced is frozen below as ``_ReferenceDispatch``: the one
reference semantics the dispatch path is checked against, both driven
through the same scripted executor.

Every scenario is a script: which fold submission raises, which task
reference cannot be resolved, and in which order and how the executor's
jobs finish (run the submitted function for real, return a scripted
payload, raise, be cancelled from outside), played with one to four
candidates in flight at once, as the search window keeps them.
Reference and new code must agree on every candidate's outcome, the completion-queue order, the
``cancel()`` calls each executor job received and the emitted event
sequence (type and every non-timing field).

The serial backend used to be a second engine — its own fold loop and
fold events, plus the ``cross_validate_template`` under it.  It is now the
pool dispatcher on a caller-thread executor; the old engine is frozen
below as ``_ReferenceSerial`` and both are driven over one table of real
(unscripted) scenarios, comparing outcomes, completion order, the exact
fold calls and the terminal fold events.

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

import numpy as np

from repro.automl import faultinject
from repro.automl import prefix_cache as prefix_cache_module
from repro.automl import search as search_module
from repro.automl.backends import (
    CandidateFuture,
    EvaluationCandidate,
    EvaluationOutcome,
    ExecutionBackend,
    SerialBackend,
    _cache_info_fields,
    _format_error,
    _PoolBackend,
    _PooledCandidateFuture,
    _resolve_task,
    evaluate_fold_indices,
)
from repro.automl.prefix_cache import (
    fold_data_key,
    make_prefix_cache_config,
    resolve_prefix_cache,
    task_content_digest,
)
from repro.automl.shm import SharedTaskHandle
from repro.core.template import Template
from repro.tasks import synth
from repro.tasks.task import materialize_cv_fold, task_cv_indices
from repro.telemetry.events import begin_capture, capture_event, end_capture

# -- the frozen reference -------------------------------------------------------------
#
# Verbatim from the parent commit's ``repro/automl/backends.py`` apart from
# the names: module functions carry a ``reference_`` prefix, the
# ``_PooledCandidateFuture._fold_done`` method became a function taking the
# future, and the three ``_submit_fold`` overrides — which differed only in
# the expression producing the task reference — are the one below calling
# the ``_task_ref`` hook.  The fold-level early-discard (pruning) branches
# are cut from this and the serial reference below: the feature was
# removed, and with it every scenario that reached them.


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

# Verbatim from the parent commit of the serial merge apart from the names:
# ``cross_validate_template`` (with its ``prefix_cache`` / ``collect``
# knobs) carries a ``reference_`` prefix and reaches
# ``evaluate_pipeline`` through the ``search`` module, as its original did.


def reference_cross_validate_template(template, hyperparameters, task, n_splits=3,
                                      random_state=None, prefix_cache=None, collect=None):
    folds = task_cv_indices(task, n_splits=n_splits, random_state=random_state)
    scores = []
    raw_scores = []
    for fold_index, (train_indices, val_indices) in enumerate(folds):
        fold_started = time.time()
        capture_event("fold_started", fold=fold_index)
        train_task, val_task = materialize_cv_fold(task, train_indices, val_indices)
        extra = {}
        if prefix_cache is not None:
            extra.update(prefix_cache=prefix_cache,
                         data_key=fold_data_key(task, train_indices))
        try:
            normalized, raw, pipeline = search_module.evaluate_pipeline(
                template, hyperparameters, train_task, val_task, **extra
            )
        except Exception as failure:
            capture_event(
                "fold_finished", fold=fold_index, score=None, raw_score=None,
                error=_format_error(failure), elapsed=time.time() - fold_started,
            )
            raise
        scores.append(normalized)
        raw_scores.append(raw)
        fold_cache = {}
        if collect is not None:
            for field, value in _cache_info_fields(pipeline).items():
                collect[field] = collect.get(field, 0) + value
                fold_cache[field] = value
        capture_event(
            "fold_finished", fold=fold_index, score=normalized, raw_score=raw,
            error=None, elapsed=time.time() - fold_started,
            cache_hits=fold_cache.get("cache_hits", 0),
            cache_misses=fold_cache.get("cache_misses", 0),
        )
    return float(np.mean(scores)), float(np.mean(raw_scores))


class _ReferenceSerial(ExecutionBackend):
    """The parent commit's ``SerialBackend``, frozen (its refit aside)."""

    name = "serial"

    def __init__(self):
        self._completed = []

    def submit(self, candidate):
        telemetry = getattr(candidate, "telemetry", None)
        started = time.time()
        error = None
        score = raw_score = None
        collect = {}
        extra = {}
        prefix_cache = resolve_prefix_cache(candidate.cache_config)
        if prefix_cache is not None:
            extra.update(prefix_cache=prefix_cache, collect=collect)
        if telemetry is not None:
            begin_capture()
        try:
            score, raw_score = reference_cross_validate_template(
                candidate.template, candidate.hyperparameters, candidate.task,
                n_splits=candidate.n_splits, random_state=candidate.random_state,
                **extra,
            )
        except Exception as failure:  # noqa: BLE001
            error = _format_error(failure)
        if telemetry is not None:
            sink, tenant = telemetry
            sink.ingest(
                end_capture(), tenant=tenant, iteration=candidate.iteration,
                template=candidate.template_name,
            )
        outcome = EvaluationOutcome(
            score, raw_score, error, time.time() - started,
            cache_hits=collect.get("cache_hits", 0),
            cache_misses=collect.get("cache_misses", 0),
            cache_bytes=collect.get("cache_bytes", 0),
        )
        future = CandidateFuture(candidate, outcome)
        self._completed.append(future)
        return future

    def collect_one(self):
        if not self._completed:
            return None
        return self._completed.pop(0)


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


def gone_task_ref():
    """A task reference naming a segment that no longer exists."""
    return SharedTaskHandle("dispatch-identity-gone", "/nonexistent", [], 0)


def ok(score):
    return {"score": score, "raw_score": score, "error": None, "elapsed": 0.01,
            "cache_hits": 1, "cache_misses": 2, "cache_bytes": 3}


def failed(message):
    return {"score": None, "raw_score": None, "error": message, "elapsed": 0.01}


def each(n_candidates, actions):
    """One fold's scripted action per candidate, in submission order."""
    return list(actions[:n_candidates])


#: name -> builder(n_candidates) of the scenario's keyword arguments for
#: ``drive``.  An action scripts that fold of every candidate, a list (see
#: ``each``) one action per candidate.  The last two scenarios were written
#: for fused groups, whose jobs returned one payload per member; each now
#: scripts one candidate's payload.
SCENARIOS = {
    "success": lambda n: {"cache": True},
    "success, jobs finish in reverse": lambda n: {"order": [2, 1, 0]},
    "broken template fails every fold": lambda n: {"template": BROKEN},
    "fold error at position 0": lambda n: {"actions": {0: failed("ValueError: fold 0")}},
    "fold error in the middle": lambda n: {"actions": {1: failed("ValueError: fold 1")}},
    "fold error at the last position": lambda n: {
        "actions": {2: failed("ValueError: fold 2")}},
    "fold error at position 0, jobs finish in reverse": lambda n: {
        "order": [2, 1, 0], "actions": {0: failed("ValueError: fold 0")}},
    "fold error in the middle, jobs finish in reverse": lambda n: {
        "order": [2, 1, 0], "actions": {1: failed("ValueError: fold 1")}},
    "fold error at the last position, jobs finish in reverse": lambda n: {
        "order": [2, 1, 0], "actions": {2: failed("ValueError: fold 2")}},
    "executor exception": lambda n: {
        "actions": {1: RuntimeError("A process in the process pool was terminated")}},
    "job cancelled from outside": lambda n: {"actions": {0: "cancel"}},
    "last job cancelled from outside": lambda n: {"actions": {2: "cancel"}},
    "submit raises on the first fold": lambda n: {"submit_fails_at": 0},
    "submit raises on the second fold": lambda n: {"submit_fails_at": 1},
    "task_cv_indices raises": lambda n: {"n_splits": 1},
    "retriable transport failure at position 0": lambda n: {"task_ref_fails_at": 0},
    "retriable transport failure in the middle": lambda n: {"task_ref_fails_at": 1},
    "first member alone fails its first fold": lambda n: {
        "actions": {0: each(n, [failed("ValueError: member 0")] + ["run"] * 3)}},
    "last member alone fails the middle fold": lambda n: {
        "actions": {1: each(n, ["run"] * (n - 1) + [failed("ValueError: last")])}},
    "wrong number of payloads": lambda n: {"actions": {1: ok(0.5)}},
    "a payload that is not a list": lambda n: {"actions": {0: ok(0.5)}},
}

#: Event fields that differ between any two runs.  ``elapsed`` also hides
#: the one deliberate difference: the payload synthesized for a
#: candidate's job that raised used to carry no ``elapsed`` at all and now
#: carries 0.0 like every other synthesized payload.
_TIMING_FIELDS = ("wall", "proc", "pid", "elapsed")


def drive(backend_class, n_candidates, telemetry, template=TEMPLATE, n_splits=N_FOLDS,
          order=(0, 1, 2), actions=None, submit_fails_at=None, task_ref_fails_at=None,
          cache=False):
    """Run one scenario on one dispatcher; returns everything the two must agree on.

    ``n_candidates`` are submitted one after another, as the search window
    keeps several in flight; the script then finishes fold by fold, each
    fold's jobs in submission order.
    """
    prefix_cache_module._PROCESS_CACHES.clear()
    executor = _ScriptedExecutor(submit_fails_at)
    calls = count()

    def task_refs(task):
        if next(calls) == task_ref_fails_at:
            return gone_task_ref()
        return task

    backend = backend_class(executor, task_refs)
    sink = _RecordingSink() if telemetry else None
    base = template.default_hyperparameters()
    cache_config = make_prefix_cache_config("mem") if cache else None
    submitted = []
    jobs_of = []  # each candidate's executor jobs, in fold order
    for member in range(n_candidates):
        first_job = len(executor.jobs)
        submitted.append(backend.submit(EvaluationCandidate(
            iteration=10 + member, template=template,
            hyperparameters={**base, N_NEIGHBORS: 3 + 2 * member},
            task=TASK, n_splits=n_splits, random_state=0, cache_config=cache_config,
            telemetry=(sink, "tenant-a") if telemetry else None,
        )))
        jobs_of.append(range(first_job, len(executor.jobs)))
    for fold in order:
        action = (actions or {}).get(fold, "run")
        for member, jobs in enumerate(jobs_of):
            if fold < len(jobs):
                executor.finish(jobs[fold],
                                action[member] if isinstance(action, list) else action)
    assert all(len(jobs) <= n_splits for jobs in jobs_of)  # one job per fold
    assert all(future.done() for future in submitted)  # or as_completed() would hang
    completed = list(backend.as_completed())
    assert sorted(map(id, completed)) == sorted(map(id, submitted))
    outcomes = []
    for future in completed:
        outcome = future.result()
        assert isinstance(outcome.elapsed, float)
        outcomes.append((
            future.candidate.iteration, outcome.score, outcome.raw_score, outcome.error,
            outcome.cache_hits, outcome.cache_misses, outcome.cache_bytes,
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
@pytest.mark.parametrize("n_candidates", [1, 2, 3, 4])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_dispatch_matches_the_frozen_reference(scenario, n_candidates, telemetry):
    options = SCENARIOS[scenario](n_candidates)
    expected = drive(_ReferenceDispatch, n_candidates, telemetry, **options)
    actual = drive(_ScriptedPool, n_candidates, telemetry, **options)
    assert actual == expected


def run_scenario(backend_class, n_candidates, telemetry, scenario):
    return drive(backend_class, n_candidates, telemetry, **SCENARIOS[scenario](n_candidates))


def test_the_scenarios_reach_what_they_name():
    """Guard the guard: the scripted scenarios exercise the paths they claim."""
    solo = run_scenario(_ReferenceDispatch, 1, True, "fold error at position 0")
    # fold 0's failure cancels both siblings, fold 1's cancellation fold 2 again
    assert solo["cancel() calls per job"] == [0, 1, 2]
    assert [event["event"] for event in solo["events"]].count("fold_cancelled") == 2
    # a failure cancels only the folds after it: the earlier ones still run,
    # and one finishing last still names the error, the first in fold order
    last = run_scenario(_ReferenceDispatch, 1, True,
                        "fold error at the last position, jobs finish in reverse")
    assert last["cancel() calls per job"] == [0, 0, 0]
    assert [event["fold"] for event in last["events"]
            if event["event"] == "fold_finished"] == [2, 1, 0]
    assert last["outcomes in completion order"][0][3] == "ValueError: fold 2"
    first = run_scenario(_ReferenceDispatch, 1, True,
                         "fold error at position 0, jobs finish in reverse")
    assert "fold_cancelled" not in [event["event"] for event in first["events"]]
    assert first["outcomes in completion order"][0][3] == "ValueError: fold 0"
    cancelled = run_scenario(_ReferenceDispatch, 1, False, "job cancelled from outside")
    assert cancelled["outcomes in completion order"][0][3] == (
        "CancelledError: an earlier fold of this candidate failed")
    success = run_scenario(_ReferenceDispatch, 1, False, "success")
    outcome, = success["outcomes in completion order"]
    assert outcome[1] is not None and outcome[5] > 0
    # candidates in flight together: later ones hit the prefix the first cached
    success = run_scenario(_ReferenceDispatch, 3, False, "success")
    assert [outcome[4] > 0 for outcome in success["outcomes in completion order"]] == [
        False, True, True]


@pytest.mark.parametrize("n_candidates", [2, 3, 4])
def test_a_failing_candidate_cancels_only_its_own_jobs(n_candidates):
    """Every candidate owns its fold jobs: no failure reaches another candidate's."""
    others = 3 * (n_candidates - 1)
    first = run_scenario(_ScriptedPool, n_candidates, False,
                         "first member alone fails its first fold")
    assert first["cancel() calls per job"] == [0, 1, 2] + [0] * others
    assert [outcome[3] for outcome in first["outcomes in completion order"]] == [
        "ValueError: member 0"] + [None] * (n_candidates - 1)
    last = run_scenario(_ScriptedPool, n_candidates, False,
                        "last member alone fails the middle fold")
    assert last["cancel() calls per job"] == [0] * (others + 2) + [1]
    # the failed candidate completes first: its last fold is cancelled, not run
    assert [outcome[0] for outcome in last["outcomes in completion order"]] == [
        9 + n_candidates] + list(range(10, 9 + n_candidates))
    assert [outcome[3] is None for outcome in last["outcomes in completion order"]] == [
        False] + [True] * (n_candidates - 1)


# -- the serial backend against the frozen serial engine -----------------------------------

#: The evaluators the serial scenarios wrap, captured before any test patches them.
_REAL_EVALUATE = search_module.evaluate_pipeline
_BOGUS = (KNN + "#0", "no_such_hyperparameter")


#: name -> keyword arguments of ``drive_serial``.  ``members`` candidates
#: are submitted one after another; ``fail_fold`` fails the last of them on
#: that fold; ``build_fails`` gives the first one a hyperparameter its
#: pipeline cannot take; ``warm`` submits a second candidate that reuses the
#: first one's cached prefix.
SERIAL_SCENARIOS = {
    "success": {},
    "fold 0 fails": {"fail_fold": 0},
    "fold 1 fails": {"fail_fold": 1},
    "fold 2 fails": {"fail_fold": 2},
    "task_cv_indices raises": {"n_splits": 1},
    "mem cache, cold": {"cache": True},
    "mem cache, warm": {"cache": True, "warm": True},
}
for _members in (2, 3, 4):
    SERIAL_SCENARIOS.update({
        "{} candidates".format(_members): {"members": _members},
        "{} candidates, the first fails to build".format(_members): {
            "members": _members, "build_fails": True},
        "{} candidates, the last fails the first fold".format(_members): {
            "members": _members, "fail_fold": 0},
        "{} candidates, the last fails the last fold".format(_members): {
            "members": _members, "fail_fold": N_FOLDS - 1},
    })


def _terminal_events(events):
    """Each candidate's ``fold_finished`` events up to its first failing fold."""
    ended = set()
    kept = []
    for event in events:
        if event["event"] != "fold_finished" or event["iteration"] in ended:
            continue
        kept.append({key: event.get(key) for key in (
            "event", "iteration", "fold", "score", "raw_score", "error")})
        if event.get("error"):
            ended.add(event["iteration"])
    return kept


def drive_serial(backend, sink, monkeypatch, members=1, n_splits=N_FOLDS, fail_fold=None,
                 build_fails=False, cache=False, warm=False):
    """Run one serial scenario on ``backend``; returns what the two must agree on."""
    prefix_cache_module._PROCESS_CACHES.clear()
    fold_of = {}
    if n_splits > 1:
        for index, (train, val) in enumerate(
                task_cv_indices(TASK, n_splits=n_splits, random_state=0)):
            fold_of[task_content_digest(materialize_cv_fold(TASK, train, val)[1])] = index
    failing_k = 3 + 2 * (members - 1)  # the last candidate's n_neighbors
    calls = []  # fold evaluations and submit returns, in the order they happened

    def evaluate(template, hyperparameters, train_task, val_task, **cached):
        fold = fold_of[task_content_digest(val_task)]
        calls.append(("evaluate_pipeline", template.name, hyperparameters[N_NEIGHBORS], fold))
        if fold == fail_fold and hyperparameters[N_NEIGHBORS] == failing_k:
            raise ValueError("scripted failure on fold {}".format(fold))
        return _REAL_EVALUATE(template, hyperparameters, train_task, val_task, **cached)

    base = TEMPLATE.default_hyperparameters()
    monkeypatch.setattr(search_module, "evaluate_pipeline", evaluate)
    candidates = [
        EvaluationCandidate(
            iteration=10 + member, template=TEMPLATE,
            hyperparameters={**base, N_NEIGHBORS: 3 + 2 * member},
            task=TASK, n_splits=n_splits, random_state=0,
            cache_config=make_prefix_cache_config("mem") if cache else None,
            telemetry=(sink, "tenant-a") if sink is not None else None,
        )
        for member in range(2 if warm else members)
    ]
    if build_fails:
        candidates[0].hyperparameters[_BOGUS] = 1
    for candidate in candidates:
        future = backend.submit(candidate)
        calls.append(("returned", [(future.candidate.iteration, future.done())]))
    outcomes = []
    for future in backend.as_completed():
        outcome = future.result()
        outcomes.append((
            future.candidate.iteration, outcome.score, outcome.raw_score, outcome.error,
            outcome.cache_hits, outcome.cache_misses, outcome.cache_bytes,
        ))
    return {
        "outcomes in completion order": outcomes,
        "fold calls and submit returns": calls,
        "terminal fold events": None if sink is None else _terminal_events(sink.events),
    }


@pytest.mark.parametrize("telemetry", [False, True], ids=["events-off", "events-on"])
@pytest.mark.parametrize("scenario", sorted(SERIAL_SCENARIOS))
def test_serial_backend_matches_the_frozen_serial_engine(scenario, telemetry, monkeypatch):
    options = SERIAL_SCENARIOS[scenario]
    expected = drive_serial(_ReferenceSerial(), _RecordingSink() if telemetry else None,
                            monkeypatch, **options)
    actual = drive_serial(SerialBackend(), _RecordingSink() if telemetry else None,
                          monkeypatch, **options)
    assert actual == expected


def _folds_evaluated(result):
    return [call[3] for call in result["fold calls and submit returns"]
            if call[0] == "evaluate_pipeline"]


def test_the_serial_scenarios_reach_what_they_name(monkeypatch):
    """Guard the guard: the serial scenarios exercise the paths they claim."""
    failing = drive_serial(SerialBackend(), _RecordingSink(), monkeypatch, fail_fold=0)
    assert _folds_evaluated(failing) == [0]
    assert failing["outcomes in completion order"][0][3] == (
        "ValueError: scripted failure on fold 0")
    warm = drive_serial(SerialBackend(), None, monkeypatch, cache=True, warm=True)
    assert [outcome[4] > 0 for outcome in warm["outcomes in completion order"]] == [
        False, True]
    # a candidate that fails to build takes none of the next candidates' folds
    sink = _RecordingSink()
    candidates = drive_serial(SerialBackend(), sink, monkeypatch, members=3, build_fails=True)
    errors = [outcome[3] for outcome in candidates["outcomes in completion order"]]
    assert errors[0].startswith("ValueError: ") and errors[1:] == [None, None]
    assert [(call[2], call[3]) for call in candidates["fold calls and submit returns"]
            if call[0] == "evaluate_pipeline"] == [
        (3, 0), (5, 0), (5, 1), (5, 2), (7, 0), (7, 1), (7, 2)]
    assert [event["fold"] for event in sink.events if event["event"] == "fold_cancelled"
            and event["iteration"] == 10] == [1, 2]
    # and every fold of a candidate is dispatched, the ones after a
    # failing fold cancelled instead of run
    sink = _RecordingSink()
    drive_serial(SerialBackend(), sink, monkeypatch, fail_fold=1)
    assert [(event["event"], event.get("fold")) for event in sink.events
            if event["event"].startswith("fold_") and event["event"] != "fold_started"] == [
        ("fold_dispatched", 0), ("fold_dispatched", 1), ("fold_dispatched", 2),
        ("fold_finished", 0), ("fold_finished", 1), ("fold_cancelled", 2)]


# -- the worker entry point against its frozen body ---------------------------------------


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
        task_ref = gone_task_ref()
    elif fault == "bad indices":
        train_indices = train_indices + 10_000
    elif fault == "broken template":
        template = BROKEN
    configuration = {**template.default_hyperparameters(), N_NEIGHBORS: 3}
    cache_config = make_prefix_cache_config("mem") if cache else None

    def run(evaluate):
        prefix_cache_module._PROCESS_CACHES.clear()
        return _strip(evaluate(template, configuration, task_ref, train_indices, val_indices,
                               cache_config=cache_config, capture_events=capture_events))

    expected = run(reference_evaluate_fold_indices)
    actual = run(evaluate_fold_indices)
    assert actual == expected
    assert ("retriable" in actual) == (fault == "unresolvable task")
    assert (actual["error"] is None) == (fault == "none")


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


def test_a_cancelled_fold_names_the_earlier_failure():
    failed = run_scenario(_ScriptedPool, 1, True, "fold error at position 0")
    assert [event["error"] for event in failed["events"]
            if event["event"] == "fold_cancelled"] == [
        "CancelledError: an earlier fold of this candidate failed"] * 2
