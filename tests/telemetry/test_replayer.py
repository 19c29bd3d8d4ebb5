"""Replayer round-trips: event stream -> bit-identical record stream."""

import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.automl import AutoBazaarSearch, FleetCoordinator
from repro.core.template import Template
from repro.tasks import synth
from repro.telemetry.replayer import (
    ReplayError,
    load_events,
    load_record_documents,
    main,
    replay_run,
)
from repro.telemetry.events import make_event
from repro.telemetry.sink import TelemetrySink

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _task(name=None, n_samples=100, random_state=0):
    return synth.make_single_table_classification(
        name=name, n_samples=n_samples, random_state=random_state)


def _documents(result):
    return [record.to_dict() for record in result.records]


def _round_trip(events_dir, result):
    """Replay + cross-check; asserts the record stream is bit-identical."""
    documents = _documents(result)
    report = replay_run(load_events(events_dir), record_documents=documents)
    assert report["records"] == documents
    return report


class TestRoundTrip:
    def test_serial_backend(self, tmp_path):
        events_dir = str(tmp_path / "events")
        searcher = AutoBazaarSearch(n_splits=2, random_state=0,
                                    telemetry=events_dir)
        result = searcher.search(_task(), budget=6)
        report = _round_trip(events_dir, result)
        assert len(report["records"]) == 6
        tenant = report["tenants"]["default"]
        assert tenant["n_records"] == 6
        assert tenant["n_folds"] == 12  # 6 candidates x 2 splits
        assert len(tenant["gantt"]) == 13  # and the refit, a bar of its own
        assert [row["iteration"] for row in tenant["gantt"] if row.get("refit")] == [None]

    def test_process_backend_with_prefix_cache(self, tmp_path):
        events_dir = str(tmp_path / "events")
        searcher = AutoBazaarSearch(
            n_splits=2, random_state=0, backend="process", workers=2,
            n_pending=2, prefix_cache="disk", cache_dir=str(tmp_path / "cache"),
            telemetry=events_dir,
        )
        result = searcher.search(_task(), budget=5)
        report = _round_trip(events_dir, result)
        counters = report["counters"]
        assert counters["cache_misses"] > 0 and counters["cache_stores"] > 0

    def test_process_backend_with_shm_plane(self, tmp_path):
        events_dir = str(tmp_path / "events")
        searcher = AutoBazaarSearch(
            n_splits=2, random_state=0, backend="process", workers=2,
            n_pending=2, telemetry=events_dir,
        )
        result = searcher.search(_task(), budget=4)
        report = _round_trip(events_dir, result)
        # the training and the held-out partition, each published once
        assert report["counters"]["shm_publish"] == 2
        assert report["counters"]["shm_attach"] >= 1

    def test_failing_template_records_are_derivable(self, tmp_path):
        events_dir = str(tmp_path / "events")
        broken = Template("replay_broken", ["sklearn.linear_model.Ridge"])
        searcher = AutoBazaarSearch(templates=[broken], n_splits=2,
                                    random_state=0, telemetry=events_dir)
        result = searcher.search(_task(), budget=2)  # regression learner on labels
        report = _round_trip(events_dir, result)
        assert len(report["records"]) == 2

    def test_fleet_multi_tenant_round_trip(self, tmp_path):
        events_dir = str(tmp_path / "events")
        sink = TelemetrySink(events_dir)
        tasks = [_task(name="tenant-%d" % index, n_samples=80, random_state=index)
                 for index in range(4)]
        fleet = FleetCoordinator(backend="process", workers=2)
        results = [None] * 4
        failures = []

        def run(index):
            try:
                handle = fleet.register(name="tenant-%d" % index)
                searcher = AutoBazaarSearch(
                    n_splits=2, random_state=0, backend=handle, n_pending=2,
                    prefix_cache="disk", cache_dir=str(tmp_path / "cache"),
                    telemetry=sink,
                )
                results[index] = searcher.search(tasks[index], budget=3)
                handle.shutdown()
            except BaseException as failure:  # noqa: BLE001 - re-raised below
                failures.append(failure)

        threads = [threading.Thread(target=run, args=(index,)) for index in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            fleet.close()
            sink.close()
        if failures:
            raise failures[0]

        documents = [doc for result in results for doc in _documents(result)]
        report = replay_run(load_events(events_dir), record_documents=documents)
        assert len(report["records"]) == 12
        assert sorted(report["tenants"]) == [
            "tenant-0", "tenant-1", "tenant-2", "tenant-3"]

        # every tenant's reconstructed stream is bit-identical, in order
        by_task = {}
        for record in report["records"]:
            by_task.setdefault(record["task_name"], []).append(record)
        for result in results:
            real = _documents(result)
            assert by_task[real[0]["task_name"]] == real

        counters = report["counters"]
        assert counters["shm_publish"] == 2 * 4  # each tenant's two partitions
        assert counters["cache_misses"] > 0
        for name in sorted(report["tenants"]):
            tenant = report["tenants"][name]
            assert tenant["n_folds"] == 6
            assert tenant["queue_depth_max"] >= 1


class TestEventsMatchCounters:
    """The event stream recounts what a search's result reports."""

    def test_solo_process_cache_counts(self, tmp_path):
        events_dir = str(tmp_path / "events")
        result = AutoBazaarSearch(
            n_splits=2, random_state=0, backend="process", workers=2,
            prefix_cache="mem", telemetry=events_dir,
        ).search(_task(), budget=4)
        counters = _round_trip(events_dir, result)["counters"]
        assert result.cache_stats["misses"] > 0
        assert (counters["cache_hits"], counters["cache_misses"]) == (
            result.cache_stats["hits"], result.cache_stats["misses"])

    def test_process_fleet_tenant_counts(self, tmp_path):
        events_dir = str(tmp_path / "events")
        sink = TelemetrySink(events_dir)
        results = {}

        def run(name, handle, task):
            results[name] = AutoBazaarSearch(
                n_splits=2, random_state=0, backend=handle, n_pending=2, telemetry=sink,
            ).search(task, budget=3)

        try:
            with FleetCoordinator(backend="process", workers=2) as fleet:
                threads = [
                    threading.Thread(target=run, args=(
                        name, fleet.register(name=name), _task(name=name, random_state=index)))
                    for index, name in enumerate(("tenant-a", "tenant-b"))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            sink.close()
        tenants = replay_run(load_events(events_dir))["tenants"]
        assert sorted(results) == sorted(tenants) == ["tenant-a", "tenant-b"]
        for name, result in results.items():
            stats = result.fleet_stats
            assert tenants[name]["folds_dispatched"] == stats["folds_dispatched"] == 3 * 2 + 1
            assert tenants[name]["queue_depth_max"] == stats["queue_depth_hwm"]


class TestDivergence:
    def _run(self, tmp_path):
        events_dir = str(tmp_path / "events")
        searcher = AutoBazaarSearch(n_splits=2, random_state=0,
                                    telemetry=events_dir)
        result = searcher.search(_task(), budget=3)
        return events_dir, _documents(result)

    def test_tampered_score_is_a_hard_error(self, tmp_path):
        events_dir, documents = self._run(tmp_path)
        documents[1]["score"] = 123.456
        with pytest.raises(ReplayError):
            replay_run(load_events(events_dir), record_documents=documents)

    def test_mid_stream_log_gap_is_a_hard_error(self, tmp_path):
        events_dir, documents = self._run(tmp_path)
        phantom = dict(documents[0])
        phantom["iteration"] = -1  # before every event the stream knows about
        with pytest.raises(ReplayError):
            replay_run(load_events(events_dir),
                       record_documents=documents + [phantom])

    def test_trailing_log_suffix_is_tolerated(self, tmp_path):
        # the SIGKILL window: the synchronous record append can land
        # after the asynchronous event writer died
        events_dir, documents = self._run(tmp_path)
        trailing = dict(documents[-1])
        trailing["iteration"] = documents[-1]["iteration"] + 1
        replay_run(load_events(events_dir),
                   record_documents=documents + [trailing])

    def test_refit_events_take_no_part_in_the_derivation(self, tmp_path):
        events_dir, documents = self._run(tmp_path)
        events = load_events(events_dir)
        assert [e["event"] for e in events[-3:]] == [
            "refit_started", "refit_finished", "search_finished"]
        without = [e for e in events if not e["event"].startswith("refit_")]
        full, stripped = (replay_run(stream, record_documents=documents)
                          for stream in (events, without))
        assert full["records"] == stripped["records"] == documents
        # a refit_finished whose start was lost still draws its bar
        orphan = [e for e in events if e["event"] != "refit_started"]
        for report, n_bars in ((full, 1), (stripped, 0),
                               (replay_run(orphan, record_documents=documents), 1)):
            tenant = report["tenants"]["default"]
            bars = [row for row in tenant["gantt"] if row.get("refit")]
            assert len(bars) == n_bars and tenant["n_folds"] == 6
            assert (tenant["refit_seconds"] > 0) == bool(n_bars)

    def test_event_types_nothing_emits_still_replay(self, tmp_path):
        # schema v1 keeps batch_group_formed and shm_fallback; a stream
        # holding them (one fold-less, one with fold context) replays
        events_dir, documents = self._run(tmp_path)
        events = load_events(events_dir)
        at = next(index for index, event in enumerate(events)
                  if event["event"] == "fold_dispatched")
        context = {key: events[at][key] for key in ("tenant", "iteration", "template")}
        legacy = [
            make_event("batch_group_formed", size=2, n_folds=2, **context),
            make_event("batch_group_formed", size=2, fold=0, **context),
            make_event("shm_fallback", tenant=context["tenant"], reason="full"),
        ]
        report = replay_run(events[:at] + legacy + events[at:],
                            record_documents=documents)
        assert report["records"] == documents
        assert report["n_events"] == len(events) + len(legacy)
        assert not {"batch_groups", "shm_fallback"} & set(report["counters"])

    def test_a_prune_decision_from_an_older_stream_still_replays(self):
        # nothing emits prune_decision any more; a stream recorded while
        # fold-level early discard existed still derives its error from it
        reason = "optimistic estimate 0.5 after 1 of 3 folds falls short of task best 0.9"
        context = {"tenant": "default", "template": "knn"}

        def fold(etype, iteration, index, score=None, error=None):
            return make_event(etype, iteration=iteration, fold=index, score=score,
                              raw_score=score, error=error, elapsed=0.01, **context)

        def document(iteration, score, error, **extra):
            return dict({"task_name": "legacy", "template_name": "knn",
                         "hyperparameters": {}, "score": score, "raw_score": score,
                         "iteration": iteration, "elapsed": 0.03, "error": error,
                         "is_default": iteration == 0}, **extra)

        # the pre-removal document of the pruned candidate, and a scored one
        # in the current format, which carries no "pruned" key
        pruned = document(0, None, "PrunedEvaluation: " + reason, pruned=True)
        scored = document(1, 0.5, None)
        events = [
            make_event("search_started", task="legacy", tenant="default"),
            fold("fold_finished", 0, 0, score=0.5),
            make_event("prune_decision", iteration=0, reason=reason, n_completed=1,
                       n_folds=3, **context),
            fold("fold_cancelled", 0, 1, error="CancelledError: pruned, " + reason),
            fold("fold_cancelled", 0, 2, error="CancelledError: pruned, " + reason),
            make_event("record_reported", iteration=0, record=pruned, **context),
        ] + [fold("fold_finished", 1, index, score=0.5) for index in range(3)] + [
            make_event("record_reported", iteration=1, record=scored, **context),
        ]
        report = replay_run(events, record_documents=[pruned, scored])
        assert report["records"] == [pruned, scored]
        assert "prune_decisions" not in report["counters"]
        # the derivation is still checked: a pruned candidate has no score
        claimed = dict(pruned, score=0.5, raw_score=0.5, error=None)
        with pytest.raises(ReplayError, match="field 'score'"):
            replay_run(events, record_documents=[claimed, scored])

    def test_missing_stream_is_a_replay_error(self, tmp_path, capsys):
        from repro.automl import ExperimentRun

        with pytest.raises(ReplayError):
            load_events(str(tmp_path / "nowhere"))
        # a run that recorded no telemetry: a record log, but no stream
        run_dir = str(tmp_path / "run")
        with ExperimentRun.create(run_dir, task=_task(), budget=2,
                                  n_splits=2, random_state=0) as run:
            run.execute()
        before = sorted(os.walk(run_dir))
        with pytest.raises(ReplayError, match="No telemetry event stream"):
            load_events(run_dir)
        assert main([run_dir]) == 1
        assert "No telemetry event stream" in capsys.readouterr().err
        with pytest.raises(ReplayError, match="No record log"):
            load_record_documents(run_dir)
        assert sorted(os.walk(run_dir)) == before


class TestCheckpointedRuns:
    def test_run_dir_telemetry_and_cli(self, tmp_path, capsys):
        from repro.automl import ExperimentRun

        run_dir = str(tmp_path / "run")
        run = ExperimentRun.create(run_dir, task=_task(), budget=4,
                                   n_splits=2, random_state=0)
        result = run.execute(telemetry="run-dir")
        assert len(result.records) == 4
        assert os.path.isdir(os.path.join(run_dir, "events"))

        # the CLI resolves the events/ stream and the store/ record log
        assert main([run_dir]) == 0
        out = capsys.readouterr().out
        assert "records reconstructed: 4" in out
        assert "record-log cross-check: OK" in out
        assert " refit=" in out  # the refit's seconds, next to the folds' busy time

    def test_resume_appends_to_the_same_stream(self, tmp_path):
        from repro.automl import ExperimentRun, resume_run

        run_dir = str(tmp_path / "run")
        run = ExperimentRun.create(run_dir, task=_task(), budget=5,
                                   n_splits=2, random_state=0)

        class StopEarly(Exception):
            pass

        def interrupt(state):
            if state["n_reported"] >= 2:
                raise StopEarly()

        with pytest.raises(StopEarly):
            run.execute(on_report=interrupt, telemetry="run-dir")

        resumed = resume_run(run_dir, telemetry="run-dir")
        assert len(resumed.result.records) == 5

        events = load_events(run_dir)
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert sum(1 for e in events if e["event"] == "search_started") == 2
        report = replay_run(events, record_documents=list(resumed.store))
        # replayed iterations are not re-reported: the union of both
        # passes reconstructs the full stream exactly once
        assert [r["iteration"] for r in report["records"]] == [0, 1, 2, 3, 4]


CHILD_SOURCE = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.automl import ExperimentRun
from repro.tasks import synth

task = synth.make_single_table_classification(n_samples=100, random_state=0)
run = ExperimentRun.create(sys.argv[1], task=task, budget=6, n_splits=2,
                           random_state=0)

def killer(state):
    if state["n_reported"] >= 3:
        os.kill(os.getpid(), signal.SIGKILL)

run.execute(on_report=killer, telemetry="run-dir")
raise AssertionError("the killer hook never fired")
"""


class TestSigkillRecovery:
    def test_sigkilled_run_replays_to_the_kill_point(self, tmp_path):
        run_dir = str(tmp_path / "run")
        child = subprocess.run(
            [sys.executable, "-c",
             CHILD_SOURCE.format(src=os.path.join(REPO_ROOT, "src")), run_dir],
            timeout=300,
        )
        assert child.returncode == -signal.SIGKILL

        from repro.explorer import PersistentPipelineStore

        with PersistentPipelineStore(os.path.join(run_dir, "store")) as store:
            documents = list(store)
        assert sorted(d["iteration"] for d in documents) == [0, 1, 2]

        # the stream (possibly torn mid-line by the kill) must load and
        # replay cleanly up to the kill point, and the durable record log
        # must cross-check against it — any mid-stream divergence raises
        events = load_events(run_dir)
        report = replay_run(events, record_documents=documents)
        # the sink is flushed at every report, before the kill hook runs:
        # all three logged records are in the stream
        assert len(report["records"]) == 3
        for record, document in zip(report["records"], documents):
            # the log line also holds the record's resume witness
            assert record == {key: value for key, value in document.items()
                              if key != "witness"}
