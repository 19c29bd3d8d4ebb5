"""The final refit is a job of the execution backend, not of the coordinator.

``AutoBazaarSearch`` submits the refit of its best pipeline through
``backend.submit_refit`` — the *holdout fold*: fit on the whole training
partition, score on the held-out one — and collects it like a candidate.
One generated matrix pins what must not depend on where that job ran:
``test_score``, the predictions of the returned pipeline and the record
digest all equal the serial oracle's on every backend, solo or as tenants
of one fleet, with the event stream on or off.  The remaining cases are
the ways the job can go wrong: a worker killed under it, a fitted pipeline
that cannot be brought back, a fit that raises, a run resumed after its
budget was already spent.
"""

import os
import threading

import numpy as np
import pytest

from repro.automl import (
    AutoBazaarSearch,
    ExperimentRun,
    FaultPlan,
    FleetCoordinator,
    SerialBackend,
)
from repro.automl.checkpoint import record_stream_digest
from repro.core.catalog._helpers import transformer
from repro.core.registry import PrimitiveRegistry, get_default_registry
from repro.core.template import Template
from repro.learners.synthetic import TimedIdentityTransformer
from repro.tasks import synth
from repro.tasks.task import split_task
from repro.telemetry.replayer import load_events, replay_run
from repro.telemetry.sink import TelemetrySink

ENCODER = "mlprimitives.custom.preprocessing.ClassEncoder"
DECODER = "mlprimitives.custom.preprocessing.ClassDecoder"
IMPUTER = "sklearn.impute.SimpleImputer"
SCALER = "sklearn.preprocessing.StandardScaler"
LOGREG = "sklearn.linear_model.LogisticRegression"
FOREST = "sklearn.ensemble.RandomForestClassifier"

BUDGET = 4
N_SPLITS = 2
N_TASKS = 4


def seeded_templates():
    return [
        Template("refit_logreg", [ENCODER, IMPUTER, SCALER, LOGREG, DECODER],
                 init_params={LOGREG: {"random_state": 0}}),
        Template("refit_rf", [ENCODER, IMPUTER, SCALER, FOREST, DECODER],
                 init_params={FOREST: {"random_state": 0}}),
    ]


def partitions(index):
    task = synth.make_single_table_classification(
        name="refit-task-{}".format(index), n_samples=96, random_state=index,
    )
    return split_task(task, random_state=0)


def search(backend, train, test, templates=None, **options):
    searcher = AutoBazaarSearch(
        templates=templates or seeded_templates(), n_splits=N_SPLITS, random_state=0,
        backend=backend, n_pending=2, **options,
    )
    return searcher.search(train, budget=BUDGET, test_task=test)


def observed(result, test):
    """Everything about a search that must not depend on its backend."""
    digest = record_stream_digest(record.to_dict() for record in result.records)
    predictions = result.best_pipeline.predict(**test.pipeline_data(include_target=False))
    return {
        "digest": digest.hexdigest(),
        "best_template": result.best_template,
        "test_score": result.test_score,
        "refit_error": result.refit_error,
        "predictions": np.asarray(predictions).tolist(),
    }


# -- the matrix -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tasks():
    return [partitions(index) for index in range(N_TASKS)]


@pytest.fixture(scope="module")
def oracle(tasks):
    expected = [observed(search("serial", train, test), test) for train, test in tasks]
    assert all(entry["test_score"] is not None and entry["refit_error"] is None
               for entry in expected)
    return expected


def _solo(backend, **options):
    def run(tasks, telemetry):
        return [search(backend, train, test, telemetry=telemetry, **options)
                for train, test in tasks]
    return run


def _fleet(backend, **options):
    def run(tasks, telemetry):
        results = [None] * len(tasks)
        failures = []

        def tenant(index, handle):
            try:
                results[index] = search(handle, *tasks[index], telemetry=telemetry)
            except BaseException as failure:  # noqa: BLE001 - re-raised below
                failures.append(failure)

        with FleetCoordinator(backend=backend, workers=2, **options) as fleet:
            handles = [fleet.register(name="tenant-{}".format(index))
                       for index in range(len(tasks))]
            threads = [threading.Thread(target=tenant, args=(index, handle))
                       for index, handle in enumerate(handles)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if failures:
            raise failures[0]
        return results
    return run


RUNNERS = {
    "serial": _solo("serial"),
    "thread": _solo("thread", workers=2),
    "process": _solo("process", workers=2),
    "supervised": _solo("process", workers=2, fold_timeout=120.0),
    "thread-fleet": _fleet("thread"),
    "process-fleet": _fleet("process"),
    "supervised-fleet": _fleet("process", fold_timeout=120.0),
}

#: Backends whose jobs run in another process than the search.
OUT_OF_PROCESS = {"process", "supervised", "process-fleet", "supervised-fleet"}


@pytest.mark.parametrize("events", [False, True], ids=["events-off", "events-on"])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_refit_equals_the_serial_oracle(runner, events, tasks, oracle, tmp_path):
    events_dir = str(tmp_path / "events") if events else None
    fleet = runner.endswith("-fleet")
    sink = None
    if events and fleet:
        # tenants of one fleet share one caller-owned sink
        sink = TelemetrySink(events_dir)
    try:
        results = RUNNERS[runner](tasks, sink if sink is not None else events_dir)
    finally:
        if sink is not None:
            sink.close()
    assert [observed(result, test) for result, (_, test) in zip(results, tasks)] == oracle
    for result in results:
        if result.fleet_stats is not None:
            # every fold of every candidate, and the refit
            assert result.fleet_stats["folds_dispatched"] == BUDGET * N_SPLITS + 1
    if not events:
        return

    stream = load_events(events_dir)
    report = replay_run(stream, record_documents=[
        record.to_dict() for result in results for record in result.records
    ])
    # the refit's events take no part in re-deriving the records
    assert len(report["records"]) == N_TASKS * BUDGET
    tenants = {event.get("tenant") for event in stream if event.get("tenant")}
    assert len(tenants) == (N_TASKS if fleet else 1)
    for etype in ("refit_started", "refit_finished"):
        per_tenant = [event["tenant"] for event in stream if event["event"] == etype]
        assert len(per_tenant) == N_TASKS
        assert set(per_tenant) == tenants
    finished = [event for event in stream if event["event"] == "refit_finished"]
    assert {event["error"] for event in finished} == {None}
    assert sorted(event["raw_score"] for event in finished) == sorted(
        entry["test_score"] for entry in oracle)
    workers = {event["worker"] for event in finished}
    if runner in OUT_OF_PROCESS:
        assert workers and None not in workers and os.getpid() not in workers
    else:
        assert workers == {os.getpid()}
    for summary in report["tenants"].values():
        bars = [row for row in summary["gantt"] if row.get("refit")]
        assert len(bars) == (1 if fleet else N_TASKS)
        assert summary["refit_seconds"] == pytest.approx(sum(row["elapsed"] for row in bars))


# -- a worker dies under the refit job ----------------------------------------------------


@pytest.mark.parametrize("fleet", [False, True], ids=["solo", "fleet-tenant"])
def test_worker_killed_during_the_refit_is_masked(fleet, tasks, oracle):
    train, test = tasks[0]
    # fold starts are counted across workers: the candidates' folds claim
    # 0 .. BUDGET * N_SPLITS - 1, the refit job the next one
    plan = FaultPlan.single("worker_kill", at_fold=BUDGET * N_SPLITS)
    with plan.activate():
        if fleet:
            with FleetCoordinator(backend="process", workers=2, fold_timeout=120.0) as shared:
                result = search(shared.register(name="tenant-0"), train, test)
        else:
            result = search("process", train, test, workers=2, fold_timeout=120.0)
    assert observed(result, test) == oracle[0]
    assert result.supervisor_stats["workers_died"] == 1
    assert result.supervisor_stats["folds_retried"] == 1
    assert result.supervisor_stats["folds_quarantined"] == 0


def test_refit_that_keeps_killing_its_worker_is_reported(tasks, oracle):
    train, test = tasks[0]
    plan = FaultPlan([
        {"kind": "worker_kill", "at_fold": BUDGET * N_SPLITS},
        {"kind": "worker_kill", "at_fold": BUDGET * N_SPLITS + 1},
    ])
    with plan.activate():
        result = search("process", train, test, workers=2, max_fold_retries=1)
    assert result.best_template == oracle[0]["best_template"]
    assert result.test_score is None and result.best_pipeline is None
    assert result.refit_error.startswith("WorkerCrashError: ")


# -- the refit itself fails -------------------------------------------------------------


class LockKeeper(TimedIdentityTransformer):
    """Identity transformer whose fitted state cannot be pickled."""

    def fit(self, X, y=None):
        self.lock_ = threading.Lock()
        return super().fit(X, y)


class SmallFitsOnly(TimedIdentityTransformer):
    """Identity transformer that refuses to fit more than ``max_rows`` rows."""

    def __init__(self, max_rows=0, fit_seconds=0.0, transform_seconds=0.0):
        super().__init__(fit_seconds=fit_seconds, transform_seconds=transform_seconds)
        self.max_rows = max_rows

    def fit(self, X, y=None):
        if len(X) > self.max_rows:
            raise ValueError("{} rows are more than {}".format(len(X), self.max_rows))
        return super().fit(X, y)


def probe_template(name, primitive, **fixed):
    registry = PrimitiveRegistry("refit-probes")
    for shared in (ENCODER, IMPUTER, LOGREG, DECODER):
        registry.register(get_default_registry().get(shared))
    registry.register(transformer("tests.refit." + name, primitive, "tests", fixed=fixed))
    return Template(
        "refit_" + name, [ENCODER, IMPUTER, "tests.refit." + name, LOGREG, DECODER],
        init_params={LOGREG: {"random_state": 0}}, registry=registry,
    )


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_unpicklable_pipeline_keeps_its_score(backend, tasks):
    train, test = tasks[0]
    templates = [probe_template("lock_keeper", LockKeeper)]
    result = search(backend, train, test, templates=templates, workers=2)
    assert result.n_failed == 0
    expected = search("serial", train, test, templates=templates)
    assert result.test_score == expected.test_score and result.test_score is not None
    if backend == "process":
        # only a process boundary pickles the fitted pipeline
        assert result.best_pipeline is None
        assert result.refit_error == "TypeError: cannot pickle '_thread.lock' object"
    else:
        assert result.best_pipeline is not None
        assert result.refit_error is None


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_raising_refit_is_reported_not_swallowed(backend, tasks):
    train, test = tasks[0]
    # every cross-validation fold trains on half the partition, the refit on all of it
    assert train.n_samples // 2 < 50 < train.n_samples
    templates = [probe_template("small_fits_only", SmallFitsOnly, max_rows=50)]
    result = search(backend, train, test, templates=templates, workers=2)
    assert result.n_failed == 0 and result.best_score is not None
    assert result.test_score is None
    assert result.best_pipeline is None
    assert result.refit_error == (
        "StepExecutionError: Step 'tests.refit.small_fits_only#0' failed during fit: "
        "{} rows are more than 50".format(train.n_samples)
    )


def test_refit_error_reaches_the_cli_and_the_session(tasks, capsys):
    from repro.automl.__main__ import _print_result
    from repro.automl.session import AutoBazaarSession

    train, test = tasks[0]
    templates = [probe_template("small_fits_only", SmallFitsOnly, max_rows=50)]
    result = search("serial", train, test, templates=templates)
    _print_result(result)
    printed = capsys.readouterr().out
    assert "held-out test score  : None" in printed
    assert "refit error          : " + result.refit_error in printed

    with AutoBazaarSession(budget=BUDGET) as session:
        session.results.append(result)
        assert session.summary()["refit_errors"] == {train.name: result.refit_error}
        session.results[:] = [search("serial", train, test)]
        assert session.summary()["refit_errors"] == {}


def test_backend_that_loses_the_refit_job_is_reported(tasks):
    class Forgetful(SerialBackend):
        def submit_refit(self, candidate, test_task):
            return None  # accepts the job and never completes it

    train, test = tasks[0]
    result = search(Forgetful(), train, test)
    assert result.best_score is not None and result.test_score is None
    assert result.refit_error == "RuntimeError: the backend lost the refit job"


# -- resuming a run whose budget is already spent -------------------------------------------


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_resumed_run_with_a_complete_budget_still_refits(backend, tmp_path):
    task = synth.make_single_table_classification(n_samples=96, random_state=0)
    run_dir = str(tmp_path / "run")
    with ExperimentRun.create(run_dir, task=task, budget=BUDGET, n_splits=N_SPLITS,
                              random_state=0, n_pending=2) as run:
        first = run.execute(backend="serial")
    assert first.test_score is not None and first.best_pipeline is not None

    evaluated = []
    with ExperimentRun.open(run_dir) as run:
        resumed = run.execute(backend=backend, workers=2,
                              on_report=lambda state: evaluated.append(state["n_reported"]))
        assert len(list(run.store)) == BUDGET  # nothing was evaluated again
    assert evaluated == list(range(1, BUDGET + 1))  # replayed, in order
    assert [record.to_dict() for record in resumed.records] == [
        record.to_dict() for record in first.records]
    assert resumed.test_score == first.test_score
    assert resumed.refit_error is None and resumed.best_pipeline is not None
