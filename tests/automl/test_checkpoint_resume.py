"""Tests for durable, resumable checkpointed runs (kill-and-resume equivalence)."""

import glob
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.automl import (
    CheckpointError,
    ExperimentRun,
    resume_run,
)
from repro.automl.checkpoint import MANIFEST_NAME, record_stream_digest
from repro.explorer import PersistentPipelineStore, normalize_value
from repro.tasks import synth

BUDGET = 6
SEED = 0
#: Ceiling of one record's serialized witness, whatever the budget.
WITNESS_MAX_BYTES = 256


class _StopRun(Exception):
    """Raised by the kill hook to abort a search mid-run (in-process 'crash')."""


def _task():
    return synth.make_single_table_classification(n_samples=90, random_state=11)


def _create(run_dir, **overrides):
    options = dict(budget=BUDGET, n_splits=2, random_state=SEED)
    options.update(overrides)
    return ExperimentRun.create(run_dir, task=_task(), **options)


def _stream(records):
    return [
        (
            record.iteration,
            record.template_name,
            json.dumps(normalize_value({str(k): v for k, v in record.hyperparameters.items()}),
                       sort_keys=True),
            record.score,
            record.error,
        )
        for record in records
    ]


def _is_sha256(value):
    return isinstance(value, str) and len(value) == 64 and set(value) <= set("0123456789abcdef")


def _log_path(run_dir):
    (path,) = glob.glob(os.path.join(str(run_dir), "store", "segment-*.jsonl"))
    return path


def _log_documents(run_dir):
    with open(_log_path(run_dir)) as stream:
        return [json.loads(line) for line in stream]


def _rewrite_log(run_dir, documents):
    with open(_log_path(run_dir), "w") as stream:
        for document in documents:
            stream.write(json.dumps(document, separators=(",", ":")) + "\n")


def _kill_after(n):
    def hook(state):
        if state["n_reported"] >= n:
            raise _StopRun()
    return hook


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Uninterrupted checkpointed run: the equivalence reference."""
    run_dir = tmp_path_factory.mktemp("baseline") / "run"
    run = _create(run_dir)
    result = run.execute()
    return run, result, _stream(result.records)


class TestExperimentRunLifecycle:
    def test_run_directory_layout(self, baseline):
        run, result, _ = baseline
        # the record log is the checkpoint: nothing else is written per record
        assert set(os.listdir(run.run_dir)) == {MANIFEST_NAME, "task", "store", "run.lock"}
        assert _log_path(run.run_dir)  # exactly one log file
        assert os.path.exists(os.path.join(run.run_dir, "task", "task.json"))
        assert result.n_evaluated == BUDGET
        assert len(run.store) == BUDGET

    def test_every_record_carries_its_witness(self, baseline):
        run, _, _ = baseline
        documents = _log_documents(run.run_dir)
        assert len(documents) == BUDGET
        for count, document in enumerate(documents, start=1):
            witness = document["witness"]
            assert set(witness) == {"stream", "state", "elapsed"}
            # the stream digest runs through this very record
            assert witness["stream"] == record_stream_digest(documents[:count]).hexdigest()
            assert _is_sha256(witness["state"])
            assert len(json.dumps(witness)) <= WITNESS_MAX_BYTES
        elapsed = [document["witness"]["elapsed"] for document in documents]
        assert elapsed == sorted(elapsed) and elapsed[0] > 0
        assert len({document["witness"]["state"] for document in documents}) == BUDGET

    def test_create_twice_rejected(self, baseline, tmp_path):
        run, _, _ = baseline
        with pytest.raises(CheckpointError):
            _create(run.run_dir)

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(CheckpointError):
            ExperimentRun.open(tmp_path / "nope")

    def test_create_requires_a_seed(self, tmp_path):
        with pytest.raises(ValueError):
            _create(tmp_path / "run", random_state=None)

    def test_unknown_tuner_fails_before_touching_disk(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(ValueError):
            _create(run_dir, tuner="banana")
        assert not os.path.exists(run_dir)

    # each of these once committed a manifest that execute() could not run
    # and that refused every later create() of the same directory
    @pytest.mark.parametrize("argument, value", [
        ("budget", -2),
        ("holdout", 1.5),
        ("holdout", 1.0),  # every one of the 90 samples
        ("holdout", float("nan")),
        ("checkpoint_every", 0),
        ("checkpoint_every", -3),
        ("checkpoint_every", 2),  # every record carries its witness: 1 is the only cadence
    ])
    def test_unrunnable_value_rejected_before_touching_disk(self, tmp_path, argument, value):
        run_dir = tmp_path / "run"
        with pytest.raises(ValueError, match=argument):
            _create(run_dir, **{argument: value})
        assert not os.path.exists(run_dir / MANIFEST_NAME)
        assert not os.path.exists(run_dir)
        # the same directory still takes a good configuration
        run = _create(run_dir, budget=2)
        assert run.execute().n_evaluated == 2
        run.close()


class TestKillAndResumeEquivalence:
    @pytest.mark.parametrize("kill_after", [1, 3, 5])
    def test_resumed_stream_identical_to_uninterrupted(self, baseline, tmp_path, kill_after):
        """Acceptance: kill after k reported records, resume, identical stream."""
        _, _, reference = baseline
        run_dir = tmp_path / "run"
        run = _create(run_dir)
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(kill_after))
        # exactly the reported prefix is durable at the kill point
        with PersistentPipelineStore(run_dir / "store") as partial:
            assert sorted(d["iteration"] for d in partial) == list(range(kill_after))

        resumed = resume_run(run_dir)
        assert _stream(resumed.result.records) == reference
        # no duplicated or lost records in the durable store
        assert sorted(d["iteration"] for d in resumed.store) == list(range(BUDGET))

    def test_resume_mid_window_with_pending(self, tmp_path):
        """Resume reconstructs mid-window state (n_pending > 1, serial backend)."""
        reference_dir = tmp_path / "reference"
        reference = _create(reference_dir, budget=8, n_pending=3).execute()
        run_dir = tmp_path / "killed"
        run = _create(run_dir, budget=8, n_pending=3)
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(4))
        resumed = resume_run(run_dir)
        assert _stream(resumed.result.records) == _stream(reference.records)

    def test_resume_with_exhausted_wall_clock_budget_still_replays(self, tmp_path):
        """Replay is never deadline-gated: a run resumed at/after its
        max_seconds deadline must reconstruct the records it durably holds
        (and report a best pipeline) instead of returning an empty result."""
        run_dir = tmp_path / "run"
        run = _create(run_dir, max_seconds=3600.0)
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(3))
        # pretend the whole wall-clock budget was spent before the kill
        documents = _log_documents(run_dir)
        documents[-1]["witness"]["elapsed"] = 7200.0
        _rewrite_log(run_dir, documents)

        resumed = resume_run(run_dir)
        assert len(resumed.result.records) == 3  # replayed, no live work
        assert resumed.result.best_template is not None
        assert sorted(d["iteration"] for d in resumed.store) == list(range(3))

    def test_resume_of_finished_run_is_idempotent(self, baseline, tmp_path):
        _, _, reference = baseline
        run_dir = tmp_path / "run"
        _create(run_dir).execute()
        resumed = resume_run(run_dir)
        assert _stream(resumed.result.records) == reference
        assert sorted(d["iteration"] for d in resumed.store) == list(range(BUDGET))

    def test_power_loss_drops_records_with_their_witnesses(self, baseline, tmp_path):
        """Records and their witnesses share one line, so they vanish together.

        A power loss keeps a prefix of the flushed-but-not-fsynced log; no
        second file can vouch for the lost tail and refuse the resume.
        """
        _, _, reference = baseline
        run_dir = tmp_path / "run"
        run = _create(run_dir)
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(4))
        _rewrite_log(run_dir, _log_documents(run_dir)[:-2])

        resumed = resume_run(run_dir)
        assert _stream(resumed.result.records) == reference
        assert sorted(d["iteration"] for d in resumed.store) == list(range(BUDGET))

    def test_double_crash_then_resume(self, baseline, tmp_path):
        """A resumed run killed again still converges to the same stream."""
        _, _, reference = baseline
        run_dir = tmp_path / "run"
        run = _create(run_dir)
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(2))
        with pytest.raises(_StopRun):
            ExperimentRun.open(run_dir).execute(on_report=_kill_after(4))
        resumed = resume_run(run_dir)
        assert _stream(resumed.result.records) == reference

    def test_sigkill_crash_resume_equivalence(self, baseline):
        """The real thing: the child process dies from SIGKILL mid-run."""
        script = os.path.join(os.path.dirname(__file__), "..", "..", "scripts",
                              "crash_resume_smoke.py")
        env = dict(os.environ)
        env["PYTHONPATH"] = (os.path.join(os.path.dirname(script), "..", "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        completed = subprocess.run(
            [sys.executable, script], env=env,
            capture_output=True, text=True, timeout=600,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "crash/resume smoke: OK" in completed.stdout

    def test_sigkill_is_a_real_signal_here(self):
        # sanity for the smoke script's returncode assertion on this platform
        assert signal.SIGKILL.value == 9


class TestPreWitnessRunDirectories:
    """Run directories written before the record log became the checkpoint."""

    def _killed_run(self, tmp_path):
        run_dir = tmp_path / "run"
        run = _create(run_dir)
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(4))
        return run_dir

    def test_leftover_snapshot_and_cadence_are_ignored(self, baseline, tmp_path):
        _, _, reference = baseline
        run_dir = self._killed_run(tmp_path)
        # an unparsable snapshot file, and a manifest naming a cadence
        with open(os.path.join(run_dir, "checkpoint.json"), "w") as stream:
            stream.write('{"format": 2, "n_reported": 9')
        path = os.path.join(run_dir, MANIFEST_NAME)
        with open(path) as stream:
            manifest = json.load(stream)
        assert "checkpoint_every" not in manifest  # new manifests no longer write it
        manifest["checkpoint_every"] = 5
        with open(path, "w") as stream:
            json.dump(manifest, stream, indent=2)

        resumed = resume_run(run_dir)
        assert _stream(resumed.result.records) == reference

    def test_records_without_witnesses_resume_unchecked(self, baseline, tmp_path):
        _, _, reference = baseline
        run_dir = self._killed_run(tmp_path)
        documents = _log_documents(run_dir)
        for document in documents:
            del document["witness"]
        _rewrite_log(run_dir, documents)

        resumed = resume_run(run_dir)
        assert _stream(resumed.result.records) == reference
        # the live records the resume appended carry witnesses again
        witnessed = [d["iteration"] for d in _log_documents(run_dir) if "witness" in d]
        assert witnessed == list(range(4, BUDGET))


class TestManifestSchedule:
    """Manifests written while a run could still pick a schedule."""

    def _killed_run(self, tmp_path, schedule):
        run_dir = tmp_path / "run"
        run = _create(run_dir, budget=8, n_pending=3)
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(4))
        path = os.path.join(run_dir, MANIFEST_NAME)
        with open(path) as stream:
            manifest = json.load(stream)
        assert "schedule" not in manifest  # new manifests no longer write it
        if schedule is not None:
            manifest["schedule"] = schedule
            with open(path, "w") as stream:
                json.dump(manifest, stream, indent=2)
        return run_dir

    @pytest.mark.parametrize("schedule", ["window", None])
    def test_window_or_unnamed_schedule_resumes(self, tmp_path, schedule):
        reference = _create(tmp_path / "reference", budget=8, n_pending=3).execute()
        resumed = resume_run(self._killed_run(tmp_path, schedule))
        assert _stream(resumed.result.records) == _stream(reference.records)

    def test_barrier_schedule_refused_before_anything_runs(self, tmp_path, monkeypatch):
        from repro.automl import checkpoint

        run_dir = self._killed_run(tmp_path, "barrier")

        def never(*args, **kwargs):
            raise AssertionError("the store of a refused run was opened")

        monkeypatch.setattr(checkpoint, "PersistentPipelineStore", never)
        with pytest.raises(CheckpointError, match="retired 'barrier' schedule"):
            resume_run(run_dir)


class TestResumeSafetyRails:
    def _killed_run(self, tmp_path, **overrides):
        run_dir = tmp_path / "run"
        run = _create(run_dir, **overrides)
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(3))
        return run_dir

    @pytest.mark.parametrize("field", ["stream", "state"])
    @pytest.mark.parametrize("position", [0, 1, 2])  # first, middle and last replayed
    def test_tampered_witness_digest_detected(self, tmp_path, field, position):
        run_dir = self._killed_run(tmp_path)
        documents = _log_documents(run_dir)
        assert len(documents) == 3
        documents[position]["witness"][field] = "0" * 64
        _rewrite_log(run_dir, documents)
        # the error names the first report whose witness disagrees
        with pytest.raises(CheckpointError, match="at report {} ".format(position + 1)):
            resume_run(run_dir)

    def test_reseeded_rng_detected(self, tmp_path):
        """Default proposals draw nothing, so only the witnessed RNG states can tell."""
        run_dir = self._killed_run(tmp_path)
        assert all(document["is_default"] for document in _log_documents(run_dir))
        path = os.path.join(run_dir, MANIFEST_NAME)
        with open(path) as stream:
            manifest = json.load(stream)
        manifest["random_state"] += 1
        with open(path, "w") as stream:
            json.dump(manifest, stream)
        with pytest.raises(CheckpointError, match="at report 1 .*RNG states"):
            resume_run(run_dir)

    def test_tampered_store_detected(self, tmp_path):
        run_dir = self._killed_run(tmp_path)
        segment = sorted(glob.glob(str(run_dir / "store" / "segment-*.jsonl")))[0]
        lines = open(segment).read().splitlines()
        document = json.loads(lines[0])
        document["score"] = 0.123456
        lines[0] = json.dumps(document, separators=(",", ":"))
        with open(segment, "w") as stream:
            stream.write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            resume_run(run_dir)

    def test_swapped_task_payload_detected(self, tmp_path):
        run_dir = self._killed_run(tmp_path)
        from repro.tasks import save_task
        save_task(synth.make_single_table_classification(n_samples=90, random_state=99),
                  run_dir / "task")
        with pytest.raises(CheckpointError):
            resume_run(run_dir)

    def test_foreign_records_beyond_budget_detected(self, tmp_path):
        run_dir = self._killed_run(tmp_path)
        with PersistentPipelineStore(run_dir / "store") as store:
            for iteration in range(BUDGET + 2):
                store.add({"task_name": "alien", "template_name": "t",
                           "score": 0.1, "iteration": iteration})
        with pytest.raises(CheckpointError):
            resume_run(run_dir)


def _open_fds_under(directory):
    """This process's open file descriptors that point into ``directory``."""
    directory = os.path.realpath(directory)
    paths = [os.path.realpath(os.path.join("/proc/self/fd", name))
             for name in os.listdir("/proc/self/fd")]
    return [path for path in paths if path.startswith(directory + os.sep)]


class TestHandleLifecycle:
    def test_failed_execute_releases_the_store(self, tmp_path):
        """After a crash no handle on the run's store may stay open."""
        run = _create(tmp_path / "run")
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(2))
        assert not _open_fds_under(tmp_path / "run" / "store")

    def test_successful_run_keeps_store_open_until_closed(self, tmp_path):
        with ExperimentRun.open(_create(tmp_path / "run").run_dir) as run:
            run.execute()
            assert len(run.store) == BUDGET
            assert _open_fds_under(tmp_path / "run" / "store")
        assert not _open_fds_under(tmp_path / "run" / "store")

    def test_session_close_releases_the_persistent_store(self, tmp_path):
        from repro.automl import AutoBazaarSession

        with AutoBazaarSession(budget=2, n_splits=2, random_state=0,
                               store_path=tmp_path / "store"):
            assert _open_fds_under(tmp_path / "store")
        assert not _open_fds_under(tmp_path / "store")


class TestSingleExecutor:
    def test_concurrent_execution_of_one_run_dir_rejected(self, tmp_path):
        run = _create(tmp_path / "run")
        holder = run._acquire_run_lock()
        if holder is None:
            pytest.skip("no flock on this platform")
        try:
            with pytest.raises(CheckpointError, match="another process"):
                ExperimentRun.open(tmp_path / "run").execute()
        finally:
            os.close(holder)
        # once the lock is released, execution proceeds normally
        result = ExperimentRun.open(tmp_path / "run").execute()
        assert result.n_evaluated == BUDGET


class TestCreateCrashRecovery:
    def test_recreate_after_crashed_create_does_not_duplicate_warm_history(self, tmp_path):
        shared = PersistentPipelineStore(tmp_path / "shared")
        for index in range(3):
            shared.add({"task_name": "prior", "template_name": "t",
                        "score": 0.1 * index})
        shared.close()

        run_dir = tmp_path / "run"
        # simulate a create() that died after freezing the warm store but
        # before committing the manifest
        frozen = PersistentPipelineStore(run_dir / "warm")
        for document in PersistentPipelineStore(tmp_path / "shared"):
            frozen.add(document)
        frozen.close()
        assert not os.path.exists(run_dir / "manifest.json")

        run = ExperimentRun.create(
            run_dir, task=_task(), budget=BUDGET, n_splits=2, random_state=SEED,
            warm_start_source=str(tmp_path / "shared"),
        )
        with PersistentPipelineStore(run_dir / "warm") as warm:
            assert len(warm) == 3  # not 6: the uncommitted leftover was wiped
        assert run.manifest["warm_start"] is True


class TestWarmStartFreezing:
    def test_frozen_history_keeps_resume_deterministic(self, tmp_path):
        # a shared store with prior-task history
        shared = PersistentPipelineStore(tmp_path / "shared")
        from repro.automl import AutoBazaarSearch
        prior = synth.make_single_table_classification(name="prior", n_samples=90,
                                                       random_state=3)
        AutoBazaarSearch(n_splits=2, random_state=0, store=shared).search(prior, budget=4)
        shared.close()

        reference_dir = tmp_path / "reference"
        reference = ExperimentRun.create(
            reference_dir, task=_task(), budget=BUDGET, n_splits=2, random_state=SEED,
            warm_start_source=str(tmp_path / "shared"),
        ).execute()

        run_dir = tmp_path / "killed"
        run = ExperimentRun.create(
            run_dir, task=_task(), budget=BUDGET, n_splits=2, random_state=SEED,
            warm_start_source=str(tmp_path / "shared"),
        )
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(3))

        # the shared store keeps growing between the kill and the resume;
        # the frozen copy inside the run directory makes this irrelevant
        with PersistentPipelineStore(tmp_path / "shared") as shared_again:
            shared_again.add({"task_name": "later", "template_name": "t", "score": 0.9})

        resumed = resume_run(run_dir)
        assert _stream(resumed.result.records) == _stream(reference.records)
        assert resumed.manifest["warm_start"] is True
