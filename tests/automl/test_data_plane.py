"""Tests for the process data plane: one read-only mapped file per task (repro.automl.shm)."""

import errno
import glob
import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.automl import AutoBazaarSearch, shm
from repro.automl.backends import ProcessBackend
from repro.core.template import Template
from repro.tasks import synth
from repro.tasks.task import MLTask
from repro.tuning.tuners import UniformTuner

ENCODER = "mlprimitives.custom.preprocessing.ClassEncoder"
DECODER = "mlprimitives.custom.preprocessing.ClassDecoder"
IMPUTER = "sklearn.impute.SimpleImputer"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def own_segments():
    """Segments published by this process and still linked, in either directory."""
    pattern = "{}-{}-*".format(shm.SEGMENT_PREFIX, os.getpid())
    return [path for directory in shm._segment_directories()
            for path in glob.glob(os.path.join(directory, pattern))]


def make_task(n_samples=80):
    return synth.make_single_table_classification(n_samples=n_samples, random_state=0)


def twin_with(task, **static):
    """``task`` plus static context values no step reads: same records."""
    return MLTask(task.name, task.data_modality, task.problem_type,
                  dict(task.context, **static), metric=task.metric,
                  static_keys=tuple(task.static_keys) + tuple(static))


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
        path = segment.handle.path
        assert os.path.dirname(path) == shm._segment_directories()[0]
        assert os.path.exists(path)
        segment.release()
        assert not os.path.exists(path)
        with pytest.raises(FileNotFoundError):
            shm.attach_task(segment.handle)

    def test_non_array_values_travel_in_the_pickled_rest(self):
        texts = np.array(["alpha", "beta", None], dtype=object)
        task = MLTask("texts", "text", "classification",
                      {"X": texts, "y": np.array([0, 1, 0]), "lookup": {"a": [1, 2]}},
                      static_keys=("lookup",))
        segment = shm.publish_task(task)
        try:
            # the manifest lists the raw arrays only
            assert [row[0] for row in segment.handle.manifest] == ["y"]
            rebuilt = shm.attach_task(segment.handle)
            assert list(rebuilt.context["X"]) == ["alpha", "beta", None]
            assert rebuilt.context["lookup"] == {"a": [1, 2]}
            assert not rebuilt.context["y"].flags.writeable
            assert rebuilt.static_keys == {"lookup"}
        finally:
            segment.release()

    def test_large_array_beside_a_static_value_is_attached_zero_copy(self):
        """A non-array value beside the arrays does not cost them their zero-copy attach."""
        blob = np.random.RandomState(0).normal(size=(4096, 256))  # 8 MiB
        task = twin_with(
            MLTask("blob", "single_table", "regression",
                   {"X": blob, "y": np.arange(4096.0)}),
            note="one static string",
        )
        backend = ProcessBackend(workers=1)
        try:
            ref = backend._task_ref(task)
            first, second = ref.load(), ref.load()
            view = first.context["X"]
            assert not view.flags.writeable and not view.flags.owndata
            mapping = np.frombuffer(first._shm_attachment, dtype=np.uint8)
            assert np.shares_memory(view, mapping)
            assert np.shares_memory(view, second.context["X"])
            np.testing.assert_array_equal(view, blob)
            assert first.context["note"] == "one static string"
        finally:
            backend.shutdown()


class TestBackendDataPlane:
    def test_shm_plane_publishes_instead_of_pickling(self, published):
        backend = ProcessBackend(workers=1)
        try:
            task = make_task()
            ref = backend._task_ref(task)
            assert isinstance(ref, shm.SharedTaskHandle)
            assert published == [task.name]
            assert backend._task_ref(task) is ref  # registry hit, no re-publish
            assert published == [task.name]
        finally:
            backend.shutdown()

    def test_shutdown_unlinks_published_segments(self):
        backend = ProcessBackend(workers=1)
        task = make_task()
        handle = backend._task_ref(task)
        assert os.path.exists(handle.path)
        backend.shutdown()
        assert not os.path.exists(handle.path)

    def test_lru_eviction_unlinks_oldest_segment(self):
        backend = ProcessBackend(workers=1)
        backend._fleet.transport_capacity = 1
        try:
            first = backend._task_ref(make_task(n_samples=60))
            second = backend._task_ref(make_task(n_samples=70))
            assert not os.path.exists(first.path)
            assert os.path.exists(second.path)
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
        return [(r.template_name, r.iteration, r.score, r.failed, r.error)
                for r in result.records]

    def test_search_owned_backend_unlinks_segments_on_completion(self):
        before = set(own_segments())
        self._search("process", make_task())
        leaked = set(own_segments()) - before
        assert leaked == set()

    @pytest.mark.parametrize("static", [
        {}, {"note": "not an array"}, {"texts": np.array(["a", None], dtype=object)},
    ], ids=["arrays", "static value", "object column"])
    def test_every_task_travels_as_one_segment_and_agrees_with_serial(
            self, static, published):
        serial = self._search("serial", twin_with(make_task(), **static))
        assert all(score is not None for _, _, score, _, _ in serial)
        # two tasks per search travel: the training partition the folds read
        # and the held-out partition the refit job scores on
        assert self._search("process", twin_with(make_task(), **static)) == serial
        assert len(published) == 2

    def test_full_segment_directory_publishes_in_the_temp_directory(
            self, monkeypatch, published):
        """A full ``/dev/shm`` fails a ``write``; the task goes to the temp directory."""
        directories = shm._segment_directories()
        if len(directories) < 2:
            pytest.skip("no /dev/shm here: the temp directory is the only one")
        primary, fallback = directories
        real_write = shm._write_task
        tried = []

        def full_primary(path, task):
            tried.append(os.path.dirname(path))
            if os.path.dirname(path) == primary:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(path, task)

        serial = self._search("serial", make_task())
        monkeypatch.setattr(shm, "_write_task", full_primary)
        segment = shm.publish_task(make_task())
        try:
            assert tried == [primary, fallback]
            assert segment.handle.directory == fallback
            assert os.path.exists(segment.handle.path)
            assert not os.path.exists(os.path.join(primary, segment.name))
            rebuilt = shm.attach_task(segment.handle)
            np.testing.assert_array_equal(rebuilt.context["X"], make_task().context["X"])
        finally:
            segment.release()
        assert not os.path.exists(segment.handle.path)
        published.clear()
        assert self._search("process", make_task()) == serial
        assert len(published) == 2

    def test_task_larger_than_a_real_tmpfs_is_published_in_the_temp_directory(self):
        """A 4 MiB task on a 1 MiB ``/dev/shm`` (private mount namespace)."""
        unshare = shutil.which("unshare")
        if unshare is None:
            pytest.skip("unshare is not installed")
        mount = "mount -t tmpfs -o size=1m tmpfs /dev/shm"
        probe = subprocess.run([unshare, "-m", "sh", "-c", mount],
                               capture_output=True, timeout=30)
        if probe.returncode != 0:
            pytest.skip("cannot mount a private tmpfs here")
        script = (
            "import sys\n"
            "sys.path.insert(0, {src!r})\n"
            "import numpy as np\n"
            "from repro.automl import AutoBazaarSearch, shm\n"
            "from repro.core.template import Template\n"
            "from repro.tasks.task import MLTask\n"
            "rng = np.random.RandomState(0)\n"
            "task = MLTask('big', 'single_table', 'classification',\n"
            "              {{'X': rng.normal(size=(4096, 128)), 'y': np.arange(4096) % 2}})\n"
            "template = Template('tmpfs_gnb', {steps!r})\n"
            "published = []\n"
            "publish = shm.publish_task\n"
            "shm.publish_task = lambda task: published.append(task.name) or publish(task)\n"
            "def records(backend):\n"
            "    result = AutoBazaarSearch(templates=[template], n_splits=2, random_state=0,\n"
            "                              backend=backend, workers=1).search(task, budget=2)\n"
            "    return [(r.iteration, r.score, r.error) for r in result.records]\n"
            "serial = records('serial')\n"
            "process = records('process')\n"
            "assert process == serial and len(published) == 2, (process, serial, published)\n"
            "print('ok', flush=True)\n"
        ).format(src=SRC, steps=self._templates()[0].primitives)
        # its own session: a coordinator killed by SIGBUS would leave pool
        # workers holding the output pipes, and the group kill reaps them
        child = subprocess.Popen(
            [unshare, "-m", "sh", "-c", '{} && exec "$0" -c "$1"'.format(mount),
             sys.executable, script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            child.wait(timeout=120)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            stdout, stderr = child.communicate()
        assert child.returncode == 0, (child.returncode, stderr[-2000:])
        assert stdout.strip() == "ok"


class TestForkWhilePublishing:
    def test_child_forked_while_a_tenant_publishes_can_still_attach(self, monkeypatch):
        """ROADMAP item 0: a pool worker forked while a tenant thread publishes.

        ``fork`` copies only the forking thread, so whatever the publishing
        thread holds at that moment stays held for ever in the child; the
        child's attach of an earlier handle must not wait on any of it.
        """
        segment = shm.publish_task(make_task())
        real_write = shm._write_task
        inside, leave = threading.Event(), threading.Event()
        published = []

        def stalled_write(path, task):
            inside.set()
            leave.wait(30)
            return real_write(path, task)

        def tenant():
            published.append(shm.publish_task(make_task(n_samples=60)))

        def worker(handle):
            rebuilt = shm.attach_task(handle)
            os._exit(0 if rebuilt.context["X"].shape[0] == 80 else 1)

        monkeypatch.setattr(shm, "_write_task", stalled_write)
        thread = threading.Thread(target=tenant)
        thread.start()
        try:
            assert inside.wait(10)
            child = multiprocessing.get_context("fork").Process(
                target=worker, args=(segment.handle,))
            child.start()
            child.join(10)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join(10)
            assert not hung, "forked child deadlocked on a lock the publisher held"
            assert child.exitcode == 0
        finally:
            leave.set()
            thread.join(10)
            segment.release()
            for other in published:
                other.release()
        assert not thread.is_alive()
        assert len(published) == 1


class TestCrashCleanup:
    def test_sweep_spares_segments_of_live_publishers(self, tmp_path):
        segment = shm.publish_task(make_task())
        try:
            removed = shm.sweep_stale_segments()
            assert segment.name not in removed
            assert os.path.exists(segment.handle.path)
        finally:
            segment.release()

    @pytest.mark.parametrize("make", [
        "MLTask('crash', 'single_table', 'classification',\n"
        "       {'X': np.ones((30, 4)), 'y': np.arange(30) % 2})",
        "synth.make_community_detection(random_state=0)",
    ], ids=["arrays", "graph"])
    def test_sweep_reclaims_segments_of_sigkilled_publisher(self, make):
        script = (
            "import sys\n"
            "sys.path.insert(0, {!r})\n"
            "import numpy as np\n"
            "from repro.automl import shm\n"
            "from repro.tasks import synth\n"
            "from repro.tasks.task import MLTask\n"
            "task = {}\n"
            "segment = shm.publish_task(task)\n"
            "print(segment.handle.path, flush=True)\n"
            "import time\n"
            "time.sleep(60)\n"
        ).format(SRC, make)
        child = subprocess.Popen([sys.executable, "-c", script],
                                 stdout=subprocess.PIPE, text=True)
        try:
            path = child.stdout.readline().strip()
            name = os.path.basename(path)
            assert name.startswith(shm.SEGMENT_PREFIX)
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
