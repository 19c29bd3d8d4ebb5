"""Kill-and-resume equivalence smoke test (the CI durability gate).

Drives the full crash story end to end, with a real ``SIGKILL``:

1. run an uninterrupted checkpointed search (serial backend) and record
   its stream of (template, hyperparameters, score) records — the
   baseline;
2. run the identical search in a child process that ``SIGKILL``s itself
   the moment the k-th record has been reported (records are durable in
   the run directory's JSONL segment log *before* the kill point);
3. resume the killed run with the library's resume path and assert that
   the final record stream is identical to the baseline and that the
   durable store holds every record exactly once — no duplicates, no
   losses;
4. after the kill and again after the resume, assert that
   ``checkpoint.json`` stays within ``CHECKPOINT_MAX_BYTES`` — the snapshot
   is a constant-size witness and must not grow with the budget again.

Usage::

    python scripts/crash_resume_smoke.py              # parent: run the whole gate
    python scripts/crash_resume_smoke.py --child DIR --kill-after K   # internal
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

BUDGET = 6
KILL_AFTER = 3
SEED = 0
N_SPLITS = 2
CHECKPOINT_MAX_BYTES = 2048


def _make_task():
    from repro.tasks import synth

    return synth.make_single_table_classification(n_samples=90, random_state=11)


def _create_run(run_dir):
    from repro.automl import ExperimentRun

    return ExperimentRun.create(
        run_dir, task=_make_task(), budget=BUDGET, n_splits=N_SPLITS, random_state=SEED,
    )


def _stream(records):
    """The equivalence view of a record stream: template, hyperparameters, score."""
    from repro.explorer import normalize_value

    return [
        [
            record.iteration,
            record.template_name,
            normalize_value({str(k): v for k, v in record.hyperparameters.items()}),
            record.score,
            record.error,
        ]
        for record in records
    ]


def _assert_checkpoint_is_small(run_dir, when):
    size = os.path.getsize(os.path.join(run_dir, "checkpoint.json"))
    assert size <= CHECKPOINT_MAX_BYTES, (
        "checkpoint.json is {} bytes {} (limit {}): the snapshot must stay a "
        "constant-size witness".format(size, when, CHECKPOINT_MAX_BYTES)
    )
    print("   checkpoint.json {}: {} bytes".format(when, size))


def _child(run_dir, kill_after):
    """Run the search, then SIGKILL this process as record ``kill_after`` lands."""
    run = _create_run(run_dir)

    def killer(state):
        if state["n_reported"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    run.execute(on_report=killer)
    raise AssertionError("the killer hook never fired")  # pragma: no cover


def _parent():
    from repro.automl import resume_run

    with tempfile.TemporaryDirectory(prefix="crash-resume-") as workdir:
        baseline_dir = os.path.join(workdir, "baseline")
        killed_dir = os.path.join(workdir, "killed")

        print("== 1/3 uninterrupted baseline ({} evaluations)".format(BUDGET))
        baseline = _stream(_create_run(baseline_dir).execute().records)
        assert len(baseline) == BUDGET, baseline

        print("== 2/3 killed run (SIGKILL after {} reported records)".format(KILL_AFTER))
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", killed_dir,
             "--kill-after", str(KILL_AFTER)],
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")
                 + os.pathsep + os.environ.get("PYTHONPATH", "")},
        )
        assert child.returncode == -signal.SIGKILL, (
            "expected the child to die from SIGKILL, got returncode {}".format(
                child.returncode)
        )

        # the durable log must hold exactly the records reported before the kill
        from repro.explorer import PersistentPipelineStore
        with PersistentPipelineStore(os.path.join(killed_dir, "store")) as partial:
            durable = sorted(document["iteration"] for document in partial)
        assert durable == list(range(KILL_AFTER)), durable
        print("   durable records at kill time: {}".format(durable))
        _assert_checkpoint_is_small(killed_dir, "after the kill")

        print("== 3/3 resume and compare")
        resumed = resume_run(killed_dir)
        resumed_stream = _stream(resumed.result.records)
        assert resumed_stream == baseline, (
            "resumed stream diverged from the uninterrupted baseline:\n{}\nvs\n{}".format(
                json.dumps(resumed_stream, indent=2), json.dumps(baseline, indent=2))
        )
        iterations = sorted(document["iteration"] for document in resumed.store)
        assert iterations == list(range(BUDGET)), (
            "store lost or duplicated records: {}".format(iterations)
        )
        print("   resumed stream identical to baseline "
              "({} records, no duplicates, no losses)".format(len(iterations)))
        _assert_checkpoint_is_small(killed_dir, "after the resume")
    print("crash/resume smoke: OK")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", metavar="RUN_DIR", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--kill-after", type=int, default=KILL_AFTER,
                        help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)
    if arguments.child:
        _child(arguments.child, arguments.kill_after)
        return 0
    _parent()
    return 0


if __name__ == "__main__":
    sys.exit(main())
