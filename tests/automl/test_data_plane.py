"""Tests for the zero-copy shared-memory data plane (repro.automl.shm)."""

import glob
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.automl import AutoBazaarSearch, shm
from repro.automl.backends import ProcessBackend, TaskPayload
from repro.core.template import Template
from repro.tasks import synth
from repro.tasks.task import MLTask
from repro.tuning.tuners import UniformTuner

pytestmark = pytest.mark.skipif(not shm.shm_available(),
                                reason="shared memory unavailable on this platform")

ENCODER = "mlprimitives.custom.preprocessing.ClassEncoder"
DECODER = "mlprimitives.custom.preprocessing.ClassDecoder"
IMPUTER = "sklearn.impute.SimpleImputer"


def own_segments():
    """Shared-memory segments published by this process and still linked."""
    pattern = os.path.join("/dev/shm", "{}-{}-*".format(shm.SEGMENT_PREFIX, os.getpid()))
    return glob.glob(pattern)


def make_task(n_samples=80):
    return synth.make_single_table_classification(n_samples=n_samples, random_state=0)


def unshareable_twin(task):
    """``task`` plus one static non-array context value no step reads.

    Same learning problem, same records — but the shared-memory segment
    format only holds arrays, so the twin must travel as a pickle spill.
    """
    twin = MLTask(task.name, task.data_modality, task.problem_type,
                  dict(task.context, note="not an array"), metric=task.metric,
                  static_keys=tuple(task.static_keys) + ("note",))
    assert not shm.task_is_shareable(twin)
    return twin


class TestPublishAttach:
    def test_roundtrip_preserves_data_and_metadata(self):
        task = make_task()
        segment = shm.publish_task(task)
        try:
            rebuilt = shm.attach_task(segment.handle)
            assert rebuilt.name == task.name
            assert rebuilt.problem_type == task.problem_type
            assert rebuilt.metric == task.metric
            assert set(rebuilt.context) == set(task.context)
            for key, value in task.context.items():
                np.testing.assert_array_equal(rebuilt.context[key], value)
        finally:
            segment.release()

    def test_attached_views_are_read_only_and_zero_copy(self):
        task = make_task()
        segment = shm.publish_task(task)
        try:
            rebuilt = shm.attach_task(segment.handle)
            view = rebuilt.context["X"]
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0, 0] = 1.0
            # the view maps the segment's buffer instead of owning a copy
            assert not view.flags.owndata
        finally:
            segment.release()

    def test_fold_subsets_of_attached_task_are_writable(self):
        task = make_task()
        segment = shm.publish_task(task)
        try:
            rebuilt = shm.attach_task(segment.handle)
            fold = rebuilt.subset(np.arange(20))
            fold.context["X"][0, 0] = 123.0  # fancy indexing copied the rows
            assert fold.context["X"][0, 0] == 123.0
        finally:
            segment.release()

    def test_handle_is_picklable_and_small(self):
        task = make_task(n_samples=200)
        segment = shm.publish_task(task)
        try:
            blob = pickle.dumps(segment.handle)
            # the handle ships names and a manifest, not the dataset
            assert len(blob) < task.data_nbytes / 10
            restored = pickle.loads(blob)
            rebuilt = restored.load()
            np.testing.assert_array_equal(rebuilt.context["y"], task.context["y"])
        finally:
            segment.release()

    def test_release_unlinks_segment(self):
        task = make_task()
        segment = shm.publish_task(task)
        path = os.path.join("/dev/shm", segment.name)
        assert os.path.exists(path)
        segment.release()
        assert not os.path.exists(path)
        with pytest.raises(FileNotFoundError):
            shm.attach_task(segment.handle)

    def test_refcount_defers_unlink_to_last_release(self):
        segment = shm.publish_task(make_task())
        path = os.path.join("/dev/shm", segment.name)
        segment.acquire()
        segment.release()
        assert os.path.exists(path)  # the publication reference is still held
        segment.release()
        assert not os.path.exists(path)

    def test_object_dtype_task_is_not_shareable(self):
        texts = np.array(["alpha", "beta", None], dtype=object)
        task = MLTask("texts", "text", "classification",
                      {"X": texts, "y": np.array([0, 1, 0])})
        assert not shm.task_is_shareable(task)
        with pytest.raises(shm.TaskNotShareableError):
            shm.publish_task(task)


class TestBackendDataPlane:
    def test_shm_plane_publishes_instead_of_pickling(self):
        backend = ProcessBackend(workers=1)
        try:
            task = make_task()
            ref = backend._task_ref(task)
            assert isinstance(ref, shm.SharedTaskHandle)
            assert backend.plane_counts == {"shm": 1, "pickle": 0}
            assert backend._task_ref(task) is ref  # registry hit, no re-publish
            assert backend.plane_counts["shm"] == 1
        finally:
            backend.shutdown()

    @pytest.mark.parametrize("why", ["object dtype", "non-array value", "no shm"])
    def test_fallback_is_the_only_way_to_the_pickle_plane(self, why, monkeypatch):
        if why == "object dtype":
            texts = np.array(["alpha", "beta", "gamma", "delta"], dtype=object)
            task = MLTask("texts", "text", "classification",
                          {"X": texts, "y": np.array([0, 1, 0, 1])})
        elif why == "non-array value":
            task = unshareable_twin(make_task())
        else:
            task = make_task()
            monkeypatch.setattr(shm, "shm_available", lambda: False)
        backend = ProcessBackend(workers=1)
        try:
            ref = backend._task_ref(task)
            assert isinstance(ref, TaskPayload)
            assert backend.plane_counts == {"shm": 0, "pickle": 1}
            assert backend._task_ref(task) is ref  # stays on its plane, spilled once
            assert backend.plane_counts["pickle"] == 1
            assert os.path.exists(ref.path)
        finally:
            backend.shutdown()
        assert not os.path.exists(ref.path)

    def test_shutdown_unlinks_published_segments(self):
        backend = ProcessBackend(workers=1)
        task = make_task()
        handle = backend._task_ref(task)
        path = os.path.join("/dev/shm", handle.segment)
        assert os.path.exists(path)
        backend.shutdown()
        assert not os.path.exists(path)

    def test_lru_eviction_unlinks_oldest_segment(self):
        backend = ProcessBackend(workers=1)
        backend.transport_capacity = 1
        try:
            first = backend._task_ref(make_task(n_samples=60))
            second = backend._task_ref(make_task(n_samples=70))
            assert not os.path.exists(os.path.join("/dev/shm", first.segment))
            assert os.path.exists(os.path.join("/dev/shm", second.segment))
        finally:
            backend.shutdown()


class TestSearchLifecycle:
    def _templates(self):
        return [Template("plane_gnb",
                         [ENCODER, IMPUTER, "sklearn.naive_bayes.GaussianNB", DECODER])]

    def _search(self, backend, task):
        searcher = AutoBazaarSearch(
            templates=self._templates(), n_splits=2, random_state=0,
            backend=backend, workers=2, tuner_class=UniformTuner,
        )
        result = searcher.search(task, budget=4)
        records = [(r.template_name, r.iteration, r.score, r.failed, r.error)
                   for r in result.records]
        return records, result.plane_counts

    def test_search_owned_backend_unlinks_segments_on_completion(self):
        before = set(own_segments())
        self._search("process", make_task())
        leaked = set(own_segments()) - before
        assert leaked == set()

    def test_both_planes_and_serial_agree_record_for_record(self, monkeypatch):
        serial, _ = self._search("serial", make_task())
        assert all(score is not None for _, _, score, _, _ in serial)
        # two tasks per search travel: the training partition the folds read
        # and the held-out partition the refit job scores on
        assert self._search("process", make_task()) == (serial, {"shm": 2, "pickle": 0})
        pickled = (serial, {"shm": 0, "pickle": 2})
        assert self._search("process", unshareable_twin(make_task())) == pickled
        monkeypatch.setattr(shm, "shm_available", lambda: False)
        assert self._search("process", make_task()) == pickled


class TestForkWhileOpening:
    def test_child_forked_inside_open_shm_can_still_attach(self, monkeypatch):
        """ROADMAP item 0: a pool worker forked while a tenant thread publishes.

        The child inherits ``_TRACKER_LOCK`` held by a thread it does not
        have and the tracker's ``register`` swapped for the no-op; without
        the after-fork hook its first attach waits on the lock for ever.
        """
        from multiprocessing import resource_tracker

        segment = shm.publish_task(make_task())
        real_open = shm._shared_memory.SharedMemory
        real_register = resource_tracker.register
        inside, leave = threading.Event(), threading.Event()

        def stalled_open(*args, **kwargs):
            inside.set()
            leave.wait(30)
            raise OSError("never opened")

        def tenant():
            with pytest.raises(OSError):
                shm._open_shm(create=True, size=1)

        def worker(handle):
            shm._shared_memory.SharedMemory = real_open
            rebuilt = shm.attach_task(handle)
            same = resource_tracker.register is real_register
            os._exit(0 if same and rebuilt.context["X"].shape[0] == 80 else 1)

        monkeypatch.setattr(shm._shared_memory, "SharedMemory", stalled_open)
        thread = threading.Thread(target=tenant)
        thread.start()
        try:
            assert inside.wait(10)
            assert shm._TRACKER_LOCK.locked()
            child = multiprocessing.get_context("fork").Process(
                target=worker, args=(segment.handle,))
            child.start()
            child.join(10)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join(10)
            assert not hung, "forked child deadlocked on the inherited tracker lock"
            assert child.exitcode == 0
        finally:
            leave.set()
            thread.join(10)
            segment.release()
        assert not thread.is_alive()
        assert resource_tracker.register is real_register


class TestCrashCleanup:
    def test_sweep_spares_segments_of_live_publishers(self, tmp_path):
        segment = shm.publish_task(make_task())
        try:
            removed = shm.sweep_stale_segments()
            assert segment.name not in removed
            assert os.path.exists(os.path.join("/dev/shm", segment.name))
        finally:
            segment.release()

    def test_sweep_reclaims_segments_of_sigkilled_publisher(self):
        script = (
            "import sys\n"
            "sys.path.insert(0, {!r})\n"
            "import numpy as np\n"
            "from repro.automl import shm\n"
            "from repro.tasks.task import MLTask\n"
            "task = MLTask('crash', 'single_table', 'classification',\n"
            "              {{'X': np.ones((30, 4)), 'y': np.arange(30) % 2}})\n"
            "segment = shm.publish_task(task)\n"
            "print(segment.name, flush=True)\n"
            "import time\n"
            "time.sleep(60)\n"
        ).format(os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src"))
        child = subprocess.Popen([sys.executable, "-c", script],
                                 stdout=subprocess.PIPE, text=True)
        try:
            name = child.stdout.readline().strip()
            assert name.startswith(shm.SEGMENT_PREFIX)
            path = os.path.join("/dev/shm", name)
            assert os.path.exists(path)
            child.kill()  # SIGKILL: no atexit hook runs in the child
            child.wait(timeout=30)
            time.sleep(0.2)
            assert os.path.exists(path)  # the crash leaked the segment
            removed = shm.sweep_stale_segments()
            assert name in removed
            assert not os.path.exists(path)
        finally:
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
                child.wait(timeout=30)
