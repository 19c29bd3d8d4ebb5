"""Unit tests of the search loop's stages and of the orchestrator around them.

``AutoBazaarSearch.search`` wires three stages: ``_Proposer`` (defaults,
selector, tuners, replay of the record log), ``_Window`` (the ``n_pending``
refill rule, the deadline, the submit buffer and the reorder buffer) and
``_Reporter`` (records, store, sink, checkpoint).  Each is driven here on
its own against fakes; the end-to-end test pins the interleave they
produce together through the event stream of a real serial search.
"""

import glob
import multiprocessing
import os
import tempfile
import threading
import time
from types import SimpleNamespace

import pytest

from repro.automl import AutoBazaarSearch, get_templates
from repro.automl import search as search_module
from repro.automl.backends import CandidateFuture, EvaluationOutcome
from repro.automl.config import ExecutionConfig
from repro.automl.search import (
    EvaluationRecord,
    ReplayMismatchError,
    _Proposer,
    _Reporter,
    _Window,
)
from repro.core.template import Template
from repro.tasks import synth
from repro.telemetry import load_events
from repro.tuning.selectors import UCB1Selector

SLEEPY = "mlprimitives.custom.synthetic.TimedDummyClassifier"


@pytest.fixture(scope="module")
def task():
    return synth.make_single_table_classification(n_samples=60, random_state=0)


def make_proposer(task, replay=()):
    templates = get_templates("single_table", "classification")
    tuners = AutoBazaarSearch(random_state=0)._build_tuners(templates, task)
    selector = UCB1Selector([template.name for template in templates], random_state=0)
    return _Proposer(templates, tuners, selector, list(replay), task, None,
                     n_splits=2, random_state=0)


def scored(candidate, score=0.5):
    return EvaluationRecord(
        task_name="t", template_name=candidate.template_name,
        hyperparameters=candidate.hyperparameters, score=score, raw_score=score,
        iteration=candidate.iteration, elapsed=0.0, is_default=candidate.is_default,
    )


def recorded_documents(task, count):
    """The record log of a live proposer's first ``count`` iterations."""
    live = make_proposer(task)
    documents = []
    for iteration in range(count):
        candidate, _ = live.propose(iteration)
        record = scored(candidate, 0.1 * iteration)
        live.observe(candidate, record)
        documents.append(record.to_dict())
    return documents


class TestProposer:
    def test_defaults_first_then_selector_and_tuner(self, task):
        proposer = make_proposer(task)
        names = list(proposer.templates)
        defaults = [proposer.propose(iteration)[0] for iteration in range(len(names))]
        assert [candidate.template_name for candidate in defaults] == names
        assert all(candidate.is_default for candidate in defaults)
        for candidate in defaults:
            template = proposer.templates[candidate.template_name]
            assert candidate.hyperparameters == template.default_hyperparameters()
            proposer.observe(candidate, scored(candidate))
        tuned, recorded = proposer.propose(len(names))
        assert recorded is None
        assert not tuned.is_default
        tuner = proposer.tuners[tuned.template_name]
        assert tuner is not None and tuner.pending == [tuned.hyperparameters]

    def test_pending_registered_at_propose_resolved_at_observe(self, task):
        proposer = make_proposer(task)
        candidates = [proposer.propose(iteration)[0] for iteration in range(3)]
        for candidate in candidates:
            assert proposer.selector.pending_count(candidate.template_name) == 1
            tuner = proposer.tuners[candidate.template_name]
            assert tuner is None or tuner.pending == [candidate.hyperparameters]
        proposer.observe(candidates[0], scored(candidates[0], 0.7))
        name = candidates[0].template_name
        assert proposer.selector.pending_count(name) == 0
        assert proposer.template_scores[name] == [0.7]
        if proposer.tuners[name] is not None:
            assert proposer.tuners[name].pending == []
            assert proposer.tuners[name].scores == [0.7]

    def test_replay_yields_the_recorded_outcome(self, task):
        documents = recorded_documents(task, 4)
        replayer = make_proposer(task, replay=documents)
        for iteration, document in enumerate(documents):
            candidate, recorded = replayer.propose(iteration)
            assert recorded.candidate is candidate
            assert recorded.result().score == document["score"]
            replayer.observe(candidate, scored(candidate, document["score"]))
        assert replayer.propose(4)[1] is None

    @pytest.mark.parametrize("field", ["template_name", "hyperparameters"])
    def test_replay_mismatch_names_the_iteration(self, task, field):
        documents = recorded_documents(task, 4)
        if field == "template_name":
            documents[3]["template_name"] = "not-a-template"
        else:
            documents[3]["hyperparameters"] = {"not-a-hyperparameter": 1}
        replayer = make_proposer(task, replay=documents)
        for iteration in range(3):
            candidate, _ = replayer.propose(iteration)
            replayer.observe(candidate, scored(candidate))
        with pytest.raises(ReplayMismatchError, match="at iteration 3"):
            replayer.propose(3)


class ScriptedBackend:
    """Completes candidates newest first: always out of proposal order."""

    def __init__(self, log):
        self.log = log
        self.outstanding = []

    def submit(self, candidate):
        self.log.append(("submit", candidate.iteration))
        self.outstanding.append(candidate)

    def submit_many(self, candidates):
        self.log.append(("submit_many", [candidate.iteration for candidate in candidates]))
        self.outstanding.extend(candidates)

    def collect_one(self):
        if not self.outstanding:
            return None
        candidate = self.outstanding.pop()
        self.log.append(("collect", candidate.iteration))
        return CandidateFuture(candidate, EvaluationOutcome(0.5, 0.5, None, 0.0))


class FakeProposer:
    def __init__(self, log, replay=()):
        self.log = log
        self.replay = list(replay)

    def propose(self, iteration):
        self.log.append(("propose", iteration))
        candidate = SimpleNamespace(iteration=iteration)
        if iteration < len(self.replay):
            return candidate, CandidateFuture(candidate, EvaluationOutcome(0.5, 0.5, None, 0.0))
        return candidate, None


class FakeReporter:
    def __init__(self, log):
        self.log = log

    def report(self, future, proposed):
        self.log.append(("report", future.candidate.iteration))


def run_window(budget=7, n_pending=3, schedule="window", replay_count=0, batch_eval=False,
               max_seconds=None, start=None):
    log = []
    config = ExecutionConfig(n_pending=n_pending, schedule=schedule, batch_eval=batch_eval)
    proposer = FakeProposer(log, replay=[{}] * replay_count)
    window = _Window(ScriptedBackend(log), proposer, config, budget, max_seconds,
                     time.time() if start is None else start)
    window.run(FakeReporter(log))
    return log


def expected_interleave(budget, n_pending, barrier):
    """The serial propose/report order of the refill rule."""
    events, proposed = [], 0
    for reported in range(budget + 1):
        if not barrier or proposed == reported:
            while proposed < budget and proposed - reported < n_pending:
                events.append(("propose", proposed))
                proposed += 1
        if reported < budget:
            events.append(("report", reported))
    return events


def only(log, *kinds):
    return [entry for entry in log if entry[0] in kinds]


class TestWindow:
    def test_reports_in_order_each_replacement_before_the_next_report(self):
        log = run_window()
        assert [entry for entry in log if entry[0] == "collect"][0] == ("collect", 2)
        assert only(log, "report") == [("report", k) for k in range(7)]
        assert only(log, "propose", "report") == expected_interleave(7, 3, barrier=False)

    def test_barrier_proposes_the_next_round_after_the_whole_round(self):
        log = run_window(schedule="barrier")
        assert only(log, "propose", "report") == expected_interleave(7, 3, barrier=True)

    @pytest.mark.parametrize("schedule", ["window", "barrier"])
    def test_replayed_iterations_never_reach_the_backend(self, schedule):
        log = run_window(schedule=schedule, replay_count=4)
        assert only(log, "propose", "report") == expected_interleave(
            7, 3, barrier=schedule == "barrier")
        touched = [entry[1] for entry in only(log, "submit", "collect")]
        assert sorted(touched) == [4, 4, 5, 5, 6, 6]

    def test_replay_frees_one_slot_per_flush(self):
        # the proposals a replayed report frees reach the backend one
        # flush each, exactly where a collected completion put them
        log = run_window(replay_count=4, batch_eval=True)
        assert only(log, "submit", "submit_many") == [
            ("submit", 4), ("submit", 5), ("submit", 6)]

    def test_batch_eval_fuses_a_burst(self):
        log = run_window(batch_eval=True)
        assert only(log, "submit", "submit_many")[0] == ("submit_many", [0, 1, 2])

    def test_passed_deadline_never_stops_replay_proposals(self):
        log = run_window(replay_count=4, max_seconds=0.0, start=time.time() - 60)
        assert only(log, "propose", "report") == (
            expected_interleave(4, 3, barrier=False))
        assert only(log, "submit", "collect") == []


class FakeCheckpoint:
    def __init__(self):
        self.states = []

    def after_report(self, state):
        self.states.append({key: state[key] for key in ("n_reported", "replay_count",
                                                        "proposed")})


class FakeSink:
    def __init__(self):
        self.events = []

    def emit(self, etype, **fields):
        self.events.append((etype, fields.get("iteration")))


def make_reporter(task, replay_count=0):
    proposer = make_proposer(task, replay=recorded_documents(task, replay_count))
    sink = FakeSink()
    proposer.telemetry = (sink, "default")
    store = SimpleNamespace(added=[])
    store.add = store.added.append
    checkpoint = FakeCheckpoint()
    reporter = _Reporter(proposer, store, None, checkpoint)
    return reporter, proposer, sink, store, checkpoint


def report(reporter, proposer, iteration, score):
    candidate, _ = proposer.propose(iteration)
    window = SimpleNamespace(proposed=iteration + 1, budget=10, max_seconds=None,
                             start=time.time())
    reporter.report(CandidateFuture(candidate, EvaluationOutcome(score, score, None, 0.0)),
                    window)
    return candidate


class TestReporter:
    @pytest.mark.parametrize("score", [float("nan"), float("inf"), None])
    def test_non_finite_score_is_a_recorded_failure(self, task, score):
        reporter, proposer, _, _, _ = make_reporter(task)
        candidate = report(reporter, proposer, 0, score)
        (record,) = reporter.records
        assert record.error.startswith("NonFiniteScore: ")
        assert record.score is None and record.raw_score is None
        assert proposer.selector.failure_count(candidate.template_name) == 1
        assert proposer.template_scores[candidate.template_name] == []
        assert reporter.best_template is None

    def test_replayed_records_skip_store_and_sink_not_tuners(self, task):
        reporter, proposer, sink, store, checkpoint = make_reporter(task, replay_count=2)
        candidates = [report(reporter, proposer, iteration, 0.1 + iteration)
                      for iteration in range(3)]
        assert [record.iteration for record in store.added] == [2]
        assert [event for event in sink.events if event[0] == "record_reported"] == [
            ("record_reported", 2)]
        for candidate in candidates:
            assert proposer.selector.pending_count(candidate.template_name) == 0
            assert proposer.template_scores[candidate.template_name]
        assert checkpoint.states == [
            {"n_reported": n, "replay_count": 2, "proposed": n} for n in (1, 2, 3)]
        assert reporter.best_score == pytest.approx(2.1)


def stage_templates():
    return [Template(name, [SLEEPY], init_params={SLEEPY: {"fit_seconds": 0.0}})
            for name in ("first", "second")]


@pytest.mark.parametrize("schedule", ["window", "barrier"])
def test_serial_event_stream_follows_the_refill_rule(task, tmp_path, schedule):
    budget = 8
    AutoBazaarSearch(
        templates=stage_templates(), n_splits=2, random_state=0, backend="serial",
        n_pending=3, schedule=schedule, telemetry=str(tmp_path / "events"),
    ).search(task, budget=budget)
    order = []
    for event in load_events(str(tmp_path / "events")):
        if event["event"] == "fold_dispatched" and event["iteration"] < budget:
            entry = ("propose", event["iteration"])
        elif event["event"] == "record_reported":
            entry = ("report", event["iteration"])
        else:
            continue
        if entry not in order:
            order.append(entry)
    assert order == expected_interleave(budget, 3, barrier=schedule == "barrier")


def _pool_leftovers():
    threads = [thread.name for thread in threading.enumerate()
               if thread.name == "pool-supervisor"]
    return threads + [child.name for child in multiprocessing.active_children()]


class TestOrchestratorReleases:
    def test_failed_cache_dir_leaks_no_pool(self, task, tmp_path, monkeypatch):
        # the owned cache directory is created before the owned pool, so
        # failing to create it leaves no worker, thread or directory behind
        multiprocessing.util.get_temp_dir()
        assert _pool_leftovers() == []
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        with pytest.raises(FileNotFoundError):
            AutoBazaarSearch(n_splits=2, random_state=0, backend="process", workers=2,
                             prefix_cache="disk").search(task, budget=2)
        monkeypatch.undo()
        deadline = time.monotonic() + 5.0
        while _pool_leftovers() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _pool_leftovers() == []
        assert os.listdir(tmp_path) == []

    def test_failed_backend_removes_the_owned_cache_dir(self, task, tmp_path, monkeypatch):
        def no_backend(*args, **kwargs):
            raise RuntimeError("no backend")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(search_module, "get_backend", no_backend)
        with pytest.raises(RuntimeError, match="no backend"):
            AutoBazaarSearch(n_splits=2, random_state=0, prefix_cache="disk").search(
                task, budget=2)
        assert glob.glob(str(tmp_path / "repro-prefix-cache-*")) == []

