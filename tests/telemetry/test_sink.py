"""Tests for the telemetry event schema and the durable sink."""

import os
import threading

import numpy as np
import pytest

from repro.automl import AutoBazaarSearch
from repro.explorer.persistence import SegmentLog, segment_names
from repro.tasks import synth
from repro.telemetry import sink as sink_module
from repro.telemetry.events import (
    SCHEMA_VERSION,
    begin_capture,
    capture_active,
    capture_event,
    end_capture,
    make_event,
)
from repro.telemetry.replayer import load_events
from repro.telemetry.sink import (
    TelemetrySink,
    TelemetryWriterError,
    activate_sink,
    deactivate_sink,
    emit_active,
    get_active_sink,
)


class TestEvents:
    def test_make_event_stamps_the_envelope(self):
        event = make_event("cache_hit", tier="mem", fingerprint="abc")
        assert event["v"] == SCHEMA_VERSION
        assert event["event"] == "cache_hit"
        assert event["tier"] == "mem"
        assert isinstance(event["wall"], float)
        assert isinstance(event["proc"], float)
        assert event["pid"] == os.getpid()

    def test_unknown_event_type_is_rejected(self):
        with pytest.raises(ValueError):
            make_event("definitely_not_an_event")

    def test_capture_buffer_is_thread_local_and_optional(self):
        assert not capture_active()
        capture_event("cache_hit")  # silently ignored: no capture active
        begin_capture()
        assert capture_active()
        capture_event("cache_hit", tier="mem")
        capture_event("cache_miss")
        seen = {}

        def other_thread():
            seen["active"] = capture_active()

        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        assert seen["active"] is False
        events = end_capture()
        assert [event["event"] for event in events] == ["cache_hit", "cache_miss"]
        assert not capture_active()


class TestTelemetrySink:
    def test_emit_reload_round_trip(self, tmp_path):
        path = str(tmp_path / "events")
        with TelemetrySink(path) as sink:
            sink.emit("search_started", tenant="t", budget=3)
            sink.emit("fold_started", tenant="t", iteration=0, fold=0)
            sink.emit("search_finished", tenant="t")

        events = load_events(path)
        assert [event["event"] for event in events] == [
            "search_started", "fold_started", "search_finished",
        ]
        assert [event["seq"] for event in events] == [0, 1, 2]
        assert all(event["v"] == SCHEMA_VERSION for event in events)

    def test_sequence_continues_across_reopen(self, tmp_path):
        path = str(tmp_path / "events")
        with TelemetrySink(path) as sink:
            sink.emit("search_started", tenant="t")
        with TelemetrySink(path) as sink:
            sink.emit("search_finished", tenant="t")

        events = load_events(path)
        assert [event["seq"] for event in events] == [0, 1]

    def test_torn_final_line_is_repaired_on_reopen(self, tmp_path):
        path = str(tmp_path / "events")
        with TelemetrySink(path) as sink:
            sink.emit("search_started", tenant="t")
            sink.emit("fold_started", tenant="t", iteration=0, fold=0)
        segment = os.path.join(path, segment_names(path)[-1])
        with open(segment, "ab") as stream:
            stream.write(b'{"v": 1, "event": "fold_fin')  # crash mid-write

        # opening writes nothing but skips the torn tail; the reopened
        # sink's first append cuts it before writing
        assert [e["event"] for e in load_events(path)] == [
            "search_started", "fold_started",
        ]
        with TelemetrySink(path) as sink:
            sink.emit("search_finished", tenant="t")
        events = load_events(path)
        assert [event["event"] for event in events] == [
            "search_started", "fold_started", "search_finished",
        ]
        assert [event["seq"] for event in events] == [0, 1, 2]

    def test_ingest_merges_context_and_keeps_worker_stamps(self, tmp_path):
        path = str(tmp_path / "events")
        worker_event = make_event("cache_hit", tier="mem")
        worker_wall, worker_pid = worker_event["wall"], worker_event["pid"]
        with TelemetrySink(path) as sink:
            sink.ingest([worker_event], tenant="t", iteration=4, fold=1)

        event, = load_events(path)
        assert event["tenant"] == "t"
        assert event["iteration"] == 4
        assert event["fold"] == 1
        assert event["wall"] == worker_wall
        assert event["pid"] == worker_pid

    def test_concurrent_emitters_yield_a_total_order(self, tmp_path):
        path = str(tmp_path / "events")
        # past the batch size, so the writes that full buffers trigger
        # inside emit race each other
        per_thread, n_threads = 300, 4
        assert per_thread * n_threads > 2 * sink_module.BATCH_SIZE
        with TelemetrySink(path) as sink:
            def emitter(name):
                for index in range(per_thread):
                    sink.emit("fleet_queue_depth", tenant=name, depth=index)

            threads = [threading.Thread(target=emitter, args=("t%d" % i,))
                       for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            sink.flush()

        events = load_events(path)
        assert len(events) == per_thread * n_threads
        assert [event["seq"] for event in events] == list(range(len(events)))
        for name in ("t0", "t1", "t2", "t3"):
            depths = [e["depth"] for e in events if e["tenant"] == name]
            assert depths == list(range(per_thread))  # per-thread order kept

    def test_numpy_fields_are_written_as_native_values(self, tmp_path):
        path = str(tmp_path / "events")
        with TelemetrySink(path) as sink:
            sink.emit("fold_finished", tenant="t", fold=np.int64(2),
                      score=np.float64(0.5), shape=np.asarray([3, 4]))
            sink.emit("search_finished", tenant="t")
        fold, finished = load_events(path)
        assert (fold["fold"], fold["score"], fold["shape"]) == (2, 0.5, [3, 4])
        assert type(fold["fold"]) is int and type(fold["score"]) is float
        assert finished["event"] == "search_finished"

    def test_a_failed_writer_drops_later_events_and_flush_raises(self, tmp_path):
        path = str(tmp_path / "events")
        sink = TelemetrySink(path)
        sink.emit("search_started", tenant="t")
        sink.flush()
        segment = os.path.join(path, segment_names(path)[-1])
        with open(segment, "rb") as stream:
            written = stream.read()
        sink.emit("fold_started", tenant="t", unencodable=object())
        # the buffer fills at the batch size, and that write fails on the
        # unencodable event: the whole batch and every later event are dropped
        seqs = [sink.emit("search_finished", tenant="t")
                for _ in range(2 * sink_module.BATCH_SIZE)]
        filled = sink_module.BATCH_SIZE - 1  # emits up to the failing write
        assert seqs[:filled] == list(range(2, sink_module.BATCH_SIZE + 1))
        assert set(seqs[filled:]) == {None}
        with pytest.raises(TelemetryWriterError,
                           match="^telemetry writer failed: .*not JSON serializable"):
            sink.flush()
        with pytest.raises(TelemetryWriterError, match="^telemetry writer failed: "):
            sink.raise_if_failed()
        assert sink.ingest([make_event("cache_hit", tier="mem")]) is None
        sink.close()  # releases the log, writing nothing more
        with open(segment, "rb") as stream:
            assert stream.read() == written
        assert [event["event"] for event in load_events(path)] == ["search_started"]

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_a_search_whose_writer_fails_raises_the_failure(self, tmp_path, monkeypatch,
                                                            backend):
        # the serial backend emits on the searching thread; on the pools
        # fold and refit events arrive on callback threads and the fleet's
        # admissions on the pool's; none of them may strand a fold
        append, appended = SegmentLog.append, []

        def fill_the_disk_after_three(log, *documents):
            # the sink appends once per reported record, so the disk fills
            # a few records into the eight-candidate search
            if len(appended) >= 3:
                raise OSError("disk full")
            appended.append(documents)
            return append(log, *documents)

        monkeypatch.setattr(SegmentLog, "append", fill_the_disk_after_three)
        searcher = AutoBazaarSearch(n_splits=3, random_state=0, backend=backend, workers=2,
                                    n_pending=2, telemetry=str(tmp_path / "events"))
        task = synth.make_single_table_classification(n_samples=80, random_state=0)
        with pytest.raises(TelemetryWriterError, match="disk full"):
            searcher.search(task, budget=8)

    def test_emit_after_close_is_dropped_quietly(self, tmp_path):
        sink = TelemetrySink(str(tmp_path / "events"))
        sink.emit("search_started", tenant="t")
        sink.close()
        assert sink.emit("search_finished", tenant="t") is None
        sink.flush()  # a no-op once closed
        assert len(load_events(str(tmp_path / "events"))) == 1


class TestActiveSink:
    def test_refcounted_activation(self, tmp_path):
        path = str(tmp_path / "events")
        with TelemetrySink(path) as sink:
            emit_active("fleet_queue_depth", tenant="t", depth=0)  # no-op: inactive
            activate_sink(sink)
            activate_sink(sink)
            emit_active("fleet_admission", tenant="t", estimate=1.0)
            deactivate_sink(sink)
            assert get_active_sink() is sink  # one activation still held
            emit_active("fleet_admission", tenant="t", estimate=2.0)
            deactivate_sink(sink)
            assert get_active_sink() is None
            emit_active("fleet_admission", tenant="t", estimate=3.0)  # no-op
            sink.flush()
        events = load_events(path)
        assert [event["event"] for event in events] == [
            "fleet_admission", "fleet_admission",
        ]
        assert [event["estimate"] for event in events] == [1.0, 2.0]
