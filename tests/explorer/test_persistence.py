"""Tests for the durable pipeline store (JSONL segment log)."""

import json
import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.explorer import PersistentPipelineStore, StoreCorruptionError, persistence
from repro.explorer.persistence import SegmentLog


def _document(task="task_a", template="xgb", score=0.5, **extra):
    document = {"task_name": task, "template_name": template, "score": score}
    document.update(extra)
    return document


def _segments(path):
    return sorted(name for name in os.listdir(path) if name.startswith("segment-"))


def _manifest(path):
    with open(os.path.join(path, "MANIFEST")) as stream:
        return [line.strip() for line in stream if line.strip()]


@contextmanager
def _segment_bytes(size):
    """Rotate (and compact to) ``size``-byte segments inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(persistence, "DEFAULT_SEGMENT_BYTES", size)
        yield


class TestPersistentStoreBasics:
    def test_documents_survive_reopen(self, tmp_path):
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)
        for index in range(5):
            store.add(_document(task="t{}".format(index % 2), score=index / 10.0))
        store.close()

        reloaded = PersistentPipelineStore(path)
        assert len(reloaded) == 5
        assert [doc["score"] for doc in reloaded] == [doc["score"] for doc in store]
        assert reloaded.tasks() == ["t0", "t1"]

    def test_numpy_values_round_trip_as_native_types(self, tmp_path):
        store = PersistentPipelineStore(tmp_path / "store")
        store.add(_document(
            score=np.float64(0.75),
            hyperparameters={"('step', 'depth')": np.int64(3), "w": np.asarray([1.0, 2.0])},
        ))
        store.close()
        reloaded = PersistentPipelineStore(tmp_path / "store")
        document = next(iter(reloaded))
        assert document["score"] == 0.75 and type(document["score"]) is float
        assert document["hyperparameters"]["('step', 'depth')"] == 3
        assert type(document["hyperparameters"]["('step', 'depth')"]) is int
        assert document["hyperparameters"]["w"] == [1.0, 2.0]

    def test_add_is_validated_like_the_memory_store(self, tmp_path):
        store = PersistentPipelineStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store.add({"task_name": "t"})
        assert len(store) == 0
        # the rejected document never reached the log
        reloaded = PersistentPipelineStore(tmp_path / "store")
        assert len(reloaded) == 0

    def test_queries_match_memory_store_semantics(self, tmp_path):
        store = PersistentPipelineStore(tmp_path / "store")
        store.add(_document(score=0.4))
        store.add(_document(score=None, error="boom"))
        assert store.scores_for_task("task_a") == [0.4]
        assert len(store.scores_for_task("task_a", include_failed=True)) == 2
        assert len(store.find(task_name="task_a", template_name="xgb")) == 2


class TestSegmentRotationAndRepair:
    def test_rotation_creates_multiple_segments_in_order(self, tmp_path):
        path = tmp_path / "store"
        with _segment_bytes(120):
            store = PersistentPipelineStore(path)
            for index in range(12):
                store.add(_document(score=float(index)))
            store.close()
            assert len(_segments(path)) > 1
            assert _manifest(path) == _segments(path)
            reloaded = PersistentPipelineStore(path)
        assert [doc["score"] for doc in reloaded] == [float(i) for i in range(12)]

    def test_torn_final_line_is_repaired(self, tmp_path):
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)
        store.add(_document(score=0.1))
        store.add(_document(score=0.2))
        store.close()
        segment = os.path.join(path, _manifest(path)[-1])
        with open(segment, "ab") as stream:
            stream.write(b'{"task_name": "torn", "templ')  # crash mid-write

        reloaded = PersistentPipelineStore(path)
        assert [doc["score"] for doc in reloaded] == [0.1, 0.2]
        # the torn bytes are gone and appending works cleanly afterwards
        reloaded.add(_document(score=0.3))
        reloaded.close()
        again = PersistentPipelineStore(path)
        assert [doc["score"] for doc in again] == [0.1, 0.2, 0.3]

    def test_missing_final_newline_is_completed(self, tmp_path):
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)
        store.add(_document(score=0.1))
        store.close()
        segment = os.path.join(path, _manifest(path)[-1])
        with open(segment, "rb+") as stream:
            stream.seek(-1, os.SEEK_END)
            stream.truncate()  # the line landed but its newline did not

        reloaded = PersistentPipelineStore(path)
        reloaded.add(_document(score=0.2))
        reloaded.close()
        assert [d["score"] for d in PersistentPipelineStore(path)] == [0.1, 0.2]

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)
        for index in range(3):
            store.add(_document(score=float(index)))
        store.close()
        segment = os.path.join(path, _manifest(path)[-1])
        lines = open(segment).read().splitlines()
        lines[1] = lines[1][:10]  # corrupt a non-final line
        with open(segment, "w") as stream:
            stream.write("\n".join(lines) + "\n")
        with pytest.raises(StoreCorruptionError):
            PersistentPipelineStore(path)


class TestCompactionAndOrphans:
    def _fragmented_store(self, path, n=20):
        # tiny segments -> many files
        with _segment_bytes(80):
            store = PersistentPipelineStore(path)
            for index in range(n):
                store.add(_document(score=float(index)))
            store.close()
        return _segments(path)

    def test_compaction_on_open_merges_fragments(self, tmp_path):
        path = tmp_path / "store"
        before = self._fragmented_store(path)
        assert len(before) >= 4
        # reopening with the default (large) threshold compacts the log
        reloaded = PersistentPipelineStore(path)
        after = _segments(path)
        assert len(after) < len(before)
        assert _manifest(path) == after
        assert [doc["score"] for doc in reloaded] == [float(i) for i in range(20)]
        # none of the fragment files survive
        assert not set(before) & set(after)

    def test_compaction_skipped_when_it_would_not_shrink(self, tmp_path):
        path = tmp_path / "store"
        before = self._fragmented_store(path)
        # same tiny threshold: repacking cannot reduce the file count
        with _segment_bytes(80):
            PersistentPipelineStore(path)
        assert _segments(path) == before

    def test_orphan_segments_are_removed_not_loaded(self, tmp_path):
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)
        store.add(_document(score=0.5))
        store.close()
        orphan = os.path.join(path, "segment-999999.jsonl")
        with open(orphan, "w") as stream:
            stream.write(json.dumps(_document(task="ghost", score=9.9)) + "\n")
        reloaded = PersistentPipelineStore(path)
        assert len(reloaded) == 1
        assert reloaded.tasks() == ["task_a"]
        assert not os.path.exists(orphan)

    def test_adopts_pre_manifest_layout(self, tmp_path):
        path = tmp_path / "store"
        os.makedirs(path)
        with open(os.path.join(path, "segment-000000.jsonl"), "w") as stream:
            stream.write(json.dumps(_document(score=0.7)) + "\n")
        store = PersistentPipelineStore(path)
        assert [doc["score"] for doc in store] == [0.7]
        assert _manifest(path)


class TestConcurrentWriters:
    def test_no_lost_or_duplicated_records_under_contention(self, tmp_path, monkeypatch):
        """Satellite: N threads appending while a reader queries."""
        path = tmp_path / "store"
        monkeypatch.setattr(persistence, "DEFAULT_SEGMENT_BYTES", 512)
        store = PersistentPipelineStore(path)
        n_threads, per_thread = 8, 40
        start = threading.Barrier(n_threads + 1)
        stop_reader = threading.Event()
        reader_errors = []

        def writer(thread_id):
            start.wait()
            for index in range(per_thread):
                store.add(_document(
                    task="task_{}".format(thread_id % 3),
                    score=float(index),
                    writer=thread_id,
                    sequence=thread_id * per_thread + index,
                ))

        def reader():
            start.wait()
            while not stop_reader.is_set():
                try:
                    store.find(task_name="task_0")
                    store.tasks()
                    store.scores_for_task("task_1")
                except Exception as error:  # noqa: BLE001 - collected for the assert
                    reader_errors.append(error)
                    return

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(n_threads)]
        observer = threading.Thread(target=reader)
        for thread in threads + [observer]:
            thread.start()
        for thread in threads:
            thread.join()
        stop_reader.set()
        observer.join()
        store.close()

        assert not reader_errors
        total = n_threads * per_thread
        assert len(store) == total
        # every record exactly once, in memory and on disk
        assert sorted(doc["sequence"] for doc in store) == list(range(total))
        reloaded = PersistentPipelineStore(path)
        assert sorted(doc["sequence"] for doc in reloaded) == list(range(total))
        # disk order equals memory order (appends are atomic under the lock)
        assert [doc["sequence"] for doc in reloaded] == [doc["sequence"] for doc in store]

    def test_indexes_match_a_full_rescan(self, tmp_path):
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)

        def writer(thread_id):
            for index in range(30):
                store.add(_document(
                    task="task_{}".format((thread_id + index) % 4),
                    template="tpl_{}".format(index % 2),
                    score=float(index),
                ))

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for task_name in store.tasks():
            indexed = store.find(task_name=task_name)
            rescan = [doc for doc in store if doc.get("task_name") == task_name]
            assert indexed == rescan
        for template_name in store.templates():
            indexed = store.find(template_name=template_name)
            rescan = [doc for doc in store if doc.get("template_name") == template_name]
            assert indexed == rescan


class TestCrossProcessSafety:
    def test_second_open_degrades_to_shared_mode(self, tmp_path):
        """While a handle is live, a second open must not repair/compact."""
        path = tmp_path / "store"
        with _segment_bytes(80):
            first = PersistentPipelineStore(path)
            for index in range(12):
                first.add(_document(score=float(index)))
            fragments = _segments(path)
            assert len(fragments) >= 3

            # first is still open: the second opener is not exclusive, so the
            # fragmented layout survives (no compaction under its feet) ...
            second = PersistentPipelineStore(path)
            assert _segments(path) == fragments
            assert [doc["score"] for doc in second] == [float(i) for i in range(12)]
            # ... and interleaved appends through both handles all land,
            # first's rotating beside second's live segment
            first.add(_document(score=100.0))
            assert len(_segments(path)) > len(fragments)
        second.add(_document(score=200.0))
        first.close()
        second.close()
        merged = PersistentPipelineStore(path)
        assert sorted(doc["score"] for doc in merged)[-2:] == [100.0, 200.0]
        assert len(merged) == 14

    def test_shared_mode_append_repairs_a_crashed_tail_first(self, tmp_path):
        path = tmp_path / "store"
        first = PersistentPipelineStore(path)
        first.add(_document(score=0.1))
        segment = os.path.join(path, _manifest(path)[-1])
        with open(segment, "ab") as stream:
            stream.write(b'{"torn')  # crash artifact from some earlier process

        second = PersistentPipelineStore(path)  # shared: no open-time repair
        second.add(_document(score=0.2))
        first.close()
        second.close()
        reloaded = PersistentPipelineStore(path)
        assert [doc["score"] for doc in reloaded] == [0.1, 0.2]

    def test_close_releases_exclusivity(self, tmp_path):
        path = tmp_path / "store"
        with _segment_bytes(80):
            store = PersistentPipelineStore(path)
            for index in range(12):
                store.add(_document(score=float(index)))
        fragments = _segments(path)
        store.close()
        # with the handle closed, the next open is exclusive and compacts
        PersistentPipelineStore(path)
        assert len(_segments(path)) < len(fragments)


class TestSegmentLogValidation:
    def test_rejects_unknown_durability(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentLog(tmp_path / "log", durability="paranoid")

    def test_append_requires_open(self, tmp_path):
        log = SegmentLog(tmp_path / "log")
        with pytest.raises(RuntimeError):
            log.append({"a": 1})

    def test_fsync_durability_appends(self, tmp_path):
        log = SegmentLog(tmp_path / "log", durability="fsync")
        assert log.open() == []
        log.append({"a": 1})
        log.close()
        reopened = SegmentLog(tmp_path / "log")
        assert reopened.open() == [{"a": 1}]
