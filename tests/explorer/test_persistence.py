"""Tests for the durable pipeline store (JSONL segment log)."""

import json
import os
import threading
import numpy as np
import pytest

from repro.explorer import PersistentPipelineStore, StoreCorruptionError
from repro.explorer.persistence import SegmentLog, segment_names


def _document(task="task_a", template="xgb", score=0.5, **extra):
    document = {"task_name": task, "template_name": template, "score": score}
    document.update(extra)
    return document


def _last_segment(path):
    return os.path.join(path, segment_names(path)[-1])


def _snapshot(path):
    """Every file of ``path`` with its bytes."""
    snapshot = {}
    for name in os.listdir(path):
        with open(os.path.join(path, name), "rb") as stream:
            snapshot[name] = stream.read()
    return snapshot


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


class TestTornTailRepair:
    def test_torn_final_line_is_repaired(self, tmp_path):
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)
        store.add(_document(score=0.1))
        store.add(_document(score=0.2))
        store.close()
        segment = _last_segment(path)
        with open(segment, "ab") as stream:
            stream.write(b'{"task_name": "torn", "templ')  # crash mid-write
        torn = _snapshot(path)

        reloaded = PersistentPipelineStore(path)
        assert [doc["score"] for doc in reloaded] == [0.1, 0.2]
        assert _snapshot(path) == torn  # opening skips the torn line, writes nothing
        # the next append removes the torn bytes before writing its line
        reloaded.add(_document(score=0.3))
        reloaded.close()
        again = PersistentPipelineStore(path)
        assert [doc["score"] for doc in again] == [0.1, 0.2, 0.3]

    def test_missing_final_newline_is_completed(self, tmp_path):
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)
        store.add(_document(score=0.1))
        store.close()
        segment = _last_segment(path)
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
        segment = _last_segment(path)
        lines = open(segment).read().splitlines()
        lines[1] = lines[1][:10]  # corrupt a non-final line
        with open(segment, "w") as stream:
            stream.write("\n".join(lines) + "\n")
        with pytest.raises(StoreCorruptionError):
            PersistentPipelineStore(path)


class TestOlderLayouts:
    def test_opens_a_manifest_layout_without_changing_a_byte(self, tmp_path):
        """A rotated directory of an older version: a manifest, three files, a torn tail."""
        path = tmp_path / "store"
        os.makedirs(path)
        names = ["segment-000000.jsonl", "segment-000001.jsonl", "segment-000002.jsonl"]
        scores = [[0.0, 0.1], [0.2], [0.3, 0.4]]
        for name, chunk in zip(names, scores):
            with open(os.path.join(path, name), "w") as stream:
                for score in chunk:
                    stream.write(json.dumps(_document(score=score)) + "\n")
        with open(os.path.join(path, names[-1]), "a") as stream:
            stream.write('{"task_name": "torn", "sco')
        with open(os.path.join(path, "MANIFEST"), "w") as stream:
            stream.write("".join(name + "\n" for name in names))
        for lock in ("ops.lock", "writers.lock"):
            open(os.path.join(path, lock), "w").close()
        before = _snapshot(path)

        store = PersistentPipelineStore(path)
        assert [doc["score"] for doc in store] == [0.0, 0.1, 0.2, 0.3, 0.4]
        assert _snapshot(path) == before

        store.add(_document(score=0.5))
        store.close()
        # the append went to the last file, after its torn tail was cut
        assert _snapshot(path)["segment-000000.jsonl"] == before["segment-000000.jsonl"]
        assert _snapshot(path)["segment-000001.jsonl"] == before["segment-000001.jsonl"]
        last = open(os.path.join(path, names[-1])).read().splitlines()
        assert [json.loads(line)["score"] for line in last] == [0.3, 0.4, 0.5]
        assert sorted(os.listdir(path)) == sorted(before)
        reloaded = PersistentPipelineStore(path)
        assert [doc["score"] for doc in reloaded] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]

    def test_torn_final_line_of_an_earlier_file_raises(self, tmp_path):
        """Only the last file's final line can be a crash artifact."""
        path = tmp_path / "store"
        os.makedirs(path)
        with open(os.path.join(path, "segment-000000.jsonl"), "w") as stream:
            stream.write(json.dumps(_document(score=0.1)) + "\n")
            stream.write('{"task_name": "torn", "sco')
        with open(os.path.join(path, "segment-000001.jsonl"), "w") as stream:
            stream.write(json.dumps(_document(score=0.2)) + "\n")
        with pytest.raises(StoreCorruptionError, match="segment-000000.jsonl"):
            PersistentPipelineStore(path)


class TestOneFileLayout:
    def test_open_creates_one_empty_segment(self, tmp_path):
        path = tmp_path / "log"
        log = SegmentLog(path)
        assert log.open() == []
        log.close()
        assert sorted(os.listdir(path)) == ["ops.lock", "segment-000000.jsonl"]
        assert os.path.getsize(_last_segment(path)) == 0

    def test_appends_never_create_a_second_file(self, tmp_path):
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)
        payload = "x" * (64 * 1024)
        for index in range(80):  # 5 MiB, past the 4 MiB at which older versions rotated
            store.add(_document(score=float(index), payload=payload))
        store.close()
        assert segment_names(path) == ["segment-000000.jsonl"]
        assert os.path.getsize(_last_segment(path)) > 5 * 1024 * 1024
        reloaded = PersistentPipelineStore(path)
        assert [doc["score"] for doc in reloaded] == [float(i) for i in range(80)]

    def test_a_multi_document_append_is_one_line_per_document(self, tmp_path):
        path = tmp_path / "log"
        log = SegmentLog(path)
        log.open()
        log.append({"a": 1})
        log.append({"b": 2}, {"c": np.int64(3)}, {"d": [4]})
        log.close()
        with open(_last_segment(path), "rb") as stream:
            assert stream.read() == b'{"a":1}\n{"b":2}\n{"c":3}\n{"d":[4]}\n'

    def test_a_batch_with_an_unencodable_document_writes_nothing(self, tmp_path):
        path = tmp_path / "log"
        log = SegmentLog(path)
        log.open()
        log.append({"a": 1})
        before = _snapshot(path)
        with pytest.raises(TypeError, match="not JSON serializable"):
            log.append({"b": 2}, {"c": object()}, {"d": 4})
        assert _snapshot(path) == before
        log.append({"e": 5})
        log.close()
        reopened = SegmentLog(path)
        assert reopened.open() == [{"a": 1}, {"e": 5}]
        reopened.close()

    def test_append_repairs_only_when_the_file_moved(self, tmp_path, monkeypatch):
        calls = []
        repair = SegmentLog._repair_tail

        def counting_repair(self, size):
            calls.append(size)
            return repair(self, size)

        monkeypatch.setattr(SegmentLog, "_repair_tail", counting_repair)
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)
        store.add(_document(score=0.1))
        assert len(calls) == 1  # a handle's first append checks the tail
        store.add(_document(score=0.2))
        assert len(calls) == 1  # the file ends where this handle left it
        with open(_last_segment(path), "ab") as stream:
            stream.write((json.dumps(_document(score=0.25)) + "\n").encode())  # a peer
        store.add(_document(score=0.3))
        assert len(calls) == 2
        store.close()
        reloaded = PersistentPipelineStore(path)
        assert [doc["score"] for doc in reloaded] == [0.1, 0.2, 0.25, 0.3]

    def test_failed_open_releases_its_descriptors(self, tmp_path):
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)
        for index in range(3):
            store.add(_document(score=float(index)))
        store.close()
        segment = _last_segment(path)
        lines = open(segment).read().splitlines()
        lines[0] = lines[0][:10]
        with open(segment, "w") as stream:
            stream.write("\n".join(lines) + "\n")

        log = SegmentLog(path)
        with pytest.raises(StoreCorruptionError):
            log.open()
        directory = os.path.realpath(path)
        open_paths = [os.path.realpath(os.path.join("/proc/self/fd", name))
                      for name in os.listdir("/proc/self/fd")]
        assert not [p for p in open_paths if p.startswith(directory + os.sep)]


class TestConcurrentWriters:
    def test_no_lost_or_duplicated_records_under_contention(self, tmp_path):
        """Satellite: N threads appending while a reader queries."""
        path = tmp_path / "store"
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
    def test_two_live_handles_share_the_log(self, tmp_path):
        path = tmp_path / "store"
        first = PersistentPipelineStore(path)
        for index in range(12):
            first.add(_document(score=float(index)))
        before = _snapshot(path)

        # first is still open: the second open changes no byte ...
        second = PersistentPipelineStore(path)
        assert _snapshot(path) == before
        assert [doc["score"] for doc in second] == [float(i) for i in range(12)]
        # ... and interleaved appends through both handles all land
        first.add(_document(score=100.0))
        second.add(_document(score=200.0))
        first.add(_document(score=101.0))
        second.add(_document(score=201.0))
        first.close()
        second.close()
        merged = PersistentPipelineStore(path)
        assert [doc["score"] for doc in merged] == (
            [float(i) for i in range(12)] + [100.0, 200.0, 101.0, 201.0])
        assert sorted(os.listdir(path)) == ["ops.lock", "segment-000000.jsonl"]

    def test_append_repairs_a_crashed_tail_first(self, tmp_path):
        path = tmp_path / "store"
        first = PersistentPipelineStore(path)
        first.add(_document(score=0.1))
        with open(_last_segment(path), "ab") as stream:
            stream.write(b'{"torn')  # crash artifact from some earlier process

        second = PersistentPipelineStore(path)
        second.add(_document(score=0.2))
        first.close()
        second.close()
        reloaded = PersistentPipelineStore(path)
        assert [doc["score"] for doc in reloaded] == [0.1, 0.2]

    @pytest.mark.parametrize("tail, scores", [
        (b'{"task_name": "t", "sco', [0.1, 0.2]),  # killed mid-write
        (json.dumps(_document(task="t", score=0.15)).encode(), [0.1, 0.15, 0.2]),  # newline lost
    ], ids=["torn", "newline-lost"])
    def test_append_after_a_peer_killed_mid_append_keeps_every_record(
            self, tmp_path, tail, scores):
        path = tmp_path / "store"
        store = PersistentPipelineStore(path)
        store.add(_document(task="t", score=0.1))
        with open(_last_segment(path), "ab") as stream:
            stream.write(tail)  # what a peer killed mid-append leaves
        # the same live handle appends again: it must repair the tail first
        store.add(_document(task="t", score=0.2))
        store.close()
        reloaded = PersistentPipelineStore(path)
        assert [doc["score"] for doc in reloaded] == scores


class TestSegmentLogValidation:
    def test_rejects_unknown_durability(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentLog(tmp_path / "log", durability="paranoid")

    def test_append_requires_open(self, tmp_path):
        log = SegmentLog(tmp_path / "log")
        with pytest.raises(RuntimeError):
            log.append({"a": 1})

    def test_open_twice_raises(self, tmp_path):
        log = SegmentLog(tmp_path / "log")
        log.open()
        with pytest.raises(RuntimeError, match="already open"):
            log.open()
        log.close()

    def test_fsync_durability_appends(self, tmp_path):
        log = SegmentLog(tmp_path / "log", durability="fsync")
        assert log.open() == []
        log.append({"a": 1})
        log.close()
        reopened = SegmentLog(tmp_path / "log")
        assert reopened.open() == [{"a": 1}]
