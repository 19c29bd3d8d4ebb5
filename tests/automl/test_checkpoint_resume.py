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
from repro.automl.checkpoint import CHECKPOINT_FORMAT, CHECKPOINT_NAME, MANIFEST_NAME
from repro.explorer import PersistentPipelineStore, normalize_value
from repro.tasks import synth

BUDGET = 6
SEED = 0


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
        assert os.path.exists(os.path.join(run.run_dir, MANIFEST_NAME))
        assert os.path.exists(os.path.join(run.run_dir, CHECKPOINT_NAME))
        assert glob.glob(os.path.join(run.run_dir, "store", "segment-*.jsonl"))
        assert os.path.exists(os.path.join(run.run_dir, "task", "task.json"))
        assert result.n_evaluated == BUDGET
        assert len(run.store) == BUDGET

    def test_checkpoint_snapshot_contents(self, baseline):
        run, _, _ = baseline
        with open(os.path.join(run.run_dir, CHECKPOINT_NAME)) as stream:
            snapshot = json.load(stream)
        assert snapshot["n_reported"] == BUDGET
        assert snapshot["proposed"] == BUDGET
        assert snapshot["budget"] == BUDGET
        assert snapshot["elapsed"] > 0
        assert snapshot["stream_digest"]
        # per-template trial counts, and digests of the score history and
        # of every RNG state, are captured
        assert snapshot["format"] == CHECKPOINT_FORMAT == 2
        assert snapshot["templates"]
        assert all({"n_trials", "scores", "n_failed", "n_pending"} <= set(entry)
                   for entry in snapshot["templates"].values())
        assert all(_is_sha256(entry["scores"]) for entry in snapshot["templates"].values())
        assert sum(entry["n_trials"] + entry["n_failed"]
                   for entry in snapshot["templates"].values()) == BUDGET
        assert snapshot["rng"]["selector"][0] == "MT19937"
        assert _is_sha256(snapshot["rng"]["selector"][1])
        assert all(state[0] == "MT19937" and _is_sha256(state[1])
                   for state in snapshot["rng"]["tuners"].values())

    def test_snapshot_size_is_independent_of_the_record_count(self, baseline, tmp_path):
        """The witness is O(1): four times the records, the same bytes."""
        run, _, _ = baseline
        longer = _create(tmp_path / "run", budget=4 * BUDGET)
        longer.execute()
        longer.close()
        sizes = [os.path.getsize(os.path.join(directory, CHECKPOINT_NAME))
                 for directory in (run.run_dir, longer.run_dir)]
        # only the decimal counters and the elapsed float may change width
        assert abs(sizes[1] - sizes[0]) < 64, sizes
        assert max(sizes) <= 2048, sizes

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
        checkpoint_path = os.path.join(run_dir, CHECKPOINT_NAME)
        with open(checkpoint_path) as stream:
            snapshot = json.load(stream)
        snapshot["elapsed"] = 7200.0
        with open(checkpoint_path, "w") as stream:
            json.dump(snapshot, stream)

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


def _rewrite_as_format_1(run_dir, kill_after):
    """Replace ``checkpoint.json`` with the format-1 snapshot of the same state.

    Format 1 spelled every score list and RNG state out in full; the
    shape below is written by hand (no format-1 serializer survives in the
    package).  Counts are recomputed from the durable records, the score
    lists and RNG words are filler — resume must not read them.
    """
    path = os.path.join(run_dir, CHECKPOINT_NAME)
    with open(path) as stream:
        current = json.load(stream)
    assert current["n_reported"] == kill_after
    with PersistentPipelineStore(os.path.join(run_dir, "store")) as store:
        documents = list(store)
    filler_rng = ["MT19937", [0] * 624, 624, 0, 0.0]
    legacy = {
        "format": 1,
        "written_at": current["written_at"],
        "task_name": current["task_name"],
        "n_reported": current["n_reported"],
        "proposed": current["proposed"],
        "budget": current["budget"],
        "elapsed": current["elapsed"],
        "defaults_pending": current["defaults_pending"],
        "stream_digest": current["stream_digest"],
        "rng": {"selector": filler_rng,
                "tuners": {name: filler_rng for name in current["rng"]["tuners"]}},
        "templates": {
            name: {
                "n_trials": sum(1 for d in documents
                                if d["template_name"] == name and d["error"] is None),
                "scores": [0.5] * entry["n_trials"],
                "n_failed": sum(1 for d in documents
                                if d["template_name"] == name and d["error"] is not None),
                "n_pending": entry["n_pending"],
            }
            for name, entry in current["templates"].items()
        },
    }
    with open(path, "w") as stream:
        json.dump(legacy, stream, indent=2)
    return legacy


class TestFormat1Snapshot:
    def _killed_run(self, tmp_path, kill_after=4):
        run_dir = tmp_path / "run"
        run = _create(run_dir)
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(kill_after))
        return run_dir, _rewrite_as_format_1(run_dir, kill_after)

    def test_format_1_snapshot_resumes(self, baseline, tmp_path):
        _, _, reference = baseline
        run_dir, _ = self._killed_run(tmp_path)
        resumed = resume_run(run_dir)
        assert _stream(resumed.result.records) == reference
        with open(os.path.join(run_dir, CHECKPOINT_NAME)) as stream:
            assert json.load(stream)["format"] == CHECKPOINT_FORMAT  # rewritten as current

    @pytest.mark.parametrize("field", ["stream_digest", "proposed", "n_trials"])
    def test_format_1_snapshot_still_detects_tampering(self, tmp_path, field):
        run_dir, legacy = self._killed_run(tmp_path)
        if field == "stream_digest":
            legacy[field] = "0" * 64
        elif field == "proposed":
            legacy[field] += 1
        else:
            next(iter(legacy["templates"].values()))[field] += 1
        with open(os.path.join(run_dir, CHECKPOINT_NAME), "w") as stream:
            json.dump(legacy, stream)
        with pytest.raises(CheckpointError):
            resume_run(run_dir)


class TestResumeSafetyRails:
    def _killed_run(self, tmp_path, **overrides):
        run_dir = tmp_path / "run"
        run = _create(run_dir, **overrides)
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(3))
        return run_dir

    @pytest.mark.parametrize("where", ["scores", "selector_rng", "tuner_rng"])
    def test_tampered_witness_digest_detected(self, tmp_path, where):
        run_dir = self._killed_run(tmp_path)
        path = os.path.join(run_dir, CHECKPOINT_NAME)
        with open(path) as stream:
            snapshot = json.load(stream)
        if where == "scores":
            next(iter(snapshot["templates"].values()))["scores"] = "0" * 64
        elif where == "selector_rng":
            snapshot["rng"]["selector"][1] = "0" * 64
        else:
            next(iter(snapshot["rng"]["tuners"].values()))[1] = "0" * 64
        with open(path, "w") as stream:
            json.dump(snapshot, stream)
        with pytest.raises(CheckpointError):
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


class TestHandleLifecycle:
    def test_failed_execute_releases_the_store(self, tmp_path):
        """After a crash the run directory must reopen in exclusive mode."""
        run = _create(tmp_path / "run")
        with pytest.raises(_StopRun):
            run.execute(on_report=_kill_after(2))
        with PersistentPipelineStore(tmp_path / "run" / "store") as store:
            assert store._log._exclusive  # no leaked handle from the crash

    def test_successful_run_keeps_store_open_until_closed(self, tmp_path):
        with ExperimentRun.open(_create(tmp_path / "run").run_dir) as run:
            run.execute()
            assert len(run.store) == BUDGET
        # after close() the next opener is exclusive again
        with PersistentPipelineStore(tmp_path / "run" / "store") as store:
            assert store._log._exclusive

    def test_session_close_releases_the_persistent_store(self, tmp_path):
        from repro.automl import AutoBazaarSession

        with AutoBazaarSession(budget=2, n_splits=2, random_state=0,
                               store_path=tmp_path / "store") as session:
            assert session.store._log._opened
        with PersistentPipelineStore(tmp_path / "store") as store:
            assert store._log._exclusive


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
