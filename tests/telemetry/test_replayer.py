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
from repro.telemetry.replayer import ReplayError, load_events, main, replay_run
from repro.telemetry.sink import TelemetrySink
from repro.tuning.tuners import UniformTuner

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

    def test_thread_backend_with_prefix_cache(self, tmp_path):
        events_dir = str(tmp_path / "events")
        searcher = AutoBazaarSearch(
            n_splits=2, random_state=0, backend="thread", workers=2,
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
        assert report["counters"]["shm_publish"] >= 1
        assert result.plane_counts and result.plane_counts.get("shm", 0) >= 1

    def test_batched_evaluation(self, tmp_path):
        events_dir = str(tmp_path / "events")
        template = Template(
            "replay_batched", ["sklearn.impute.SimpleImputer",
                               "sklearn.linear_model.Ridge"],
            init_params={"sklearn.impute.SimpleImputer": {"strategy": "mean"}},
        )
        searcher = AutoBazaarSearch(
            templates=[template], n_splits=2, random_state=0,
            schedule="barrier", n_pending=4, batch_eval=True,
            tuner_class=UniformTuner, telemetry=events_dir,
        )
        task = synth.make_single_table_regression(
            n_samples=150, n_features=8, random_state=0)
        result = searcher.search(task, budget=8)
        report = _round_trip(events_dir, result)
        assert report["counters"]["batch_groups"] >= 1

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
        assert counters["shm_publish"] >= 1
        assert counters["cache_misses"] > 0
        for name in sorted(report["tenants"]):
            tenant = report["tenants"][name]
            assert tenant["n_folds"] == 6
            assert tenant["queue_depth_max"] >= 1
        for result in results:
            assert result.plane_counts.get("shm", 0) >= 1


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

    def test_missing_stream_is_a_replay_error(self, tmp_path):
        with pytest.raises(ReplayError):
            load_events(str(tmp_path / "nowhere"))


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
        assert len(report["records"]) <= 3
        for record, document in zip(report["records"], documents):
            assert record == document
