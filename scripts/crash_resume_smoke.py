"""Kill-and-resume equivalence smoke test (the CI durability gate).

Drives the full crash story end to end, with a real ``SIGKILL``:

1. run an uninterrupted checkpointed search (serial backend) and record
   its stream of (template, hyperparameters, score) records — the
   baseline;
2. run the identical search in a child process that ``SIGKILL``s itself
   the moment the k-th record has been reported (records are durable in
   the run directory's JSONL log *before* the kill point);
   with ``n_pending > 1`` later proposals are still in flight at the
   kill, so the resume replays the log into a window that already held
   live evaluations; a torn partial line is then appended to the log, as
   a kill in the middle of an append leaves one, and opening the log
   must skip it without changing a byte;
3. resume the killed run with the library's resume path and assert that
   the final record stream is identical to the baseline, that the
   durable store holds every record exactly once — no duplicates, no
   losses — and that the log is still one file with no manifest;
4. after the kill and again after the resume, assert that the run
   directory holds no ``checkpoint.json`` (the record log is the
   checkpoint) and that every record's ``witness`` serializes to at most
   ``WITNESS_MAX_BYTES`` — a constant-size witness whatever the budget or
   the number of templates, not a state dump riding on every line.

Steps 1-4 run once per window size in ``N_PENDING``.

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

BUDGET = 8
KILL_AFTER = 4
#: Window sizes the kill/resume cycle runs under: 1 has nothing in
#: flight past the kill point, 3 has proposals in flight there.
N_PENDING = (1, 3)
SEED = 0
N_SPLITS = 2
WITNESS_MAX_BYTES = 256


def _make_task():
    from repro.tasks import synth

    return synth.make_single_table_classification(n_samples=90, random_state=11)


def _create_run(run_dir, n_pending):
    from repro.automl import ExperimentRun

    return ExperimentRun.create(
        run_dir, task=_make_task(), budget=BUDGET, n_splits=N_SPLITS, random_state=SEED,
        n_pending=n_pending,
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


def _segment_files(store_dir):
    return sorted(name for name in os.listdir(store_dir)
                  if name.startswith("segment-") and name.endswith(".jsonl"))


def _assert_witnesses_are_small(run_dir, when):
    from repro.explorer import PersistentPipelineStore

    assert not os.path.exists(os.path.join(run_dir, "checkpoint.json")), (
        "a checkpoint.json appeared {}: the record log is the checkpoint".format(when))
    with PersistentPipelineStore(os.path.join(run_dir, "store")) as store:
        sizes = [len(json.dumps(document["witness"])) for document in store]
    assert sizes and max(sizes) <= WITNESS_MAX_BYTES, (
        "a record's witness is {} bytes {} (limit {}): it must stay a "
        "constant-size witness".format(max(sizes, default=0), when, WITNESS_MAX_BYTES)
    )
    print("   witnesses {}: {} records, at most {} bytes each".format(
        when, len(sizes), max(sizes)))


def _child(run_dir, kill_after):
    """Run the created search, then SIGKILL this process as record ``kill_after`` lands."""
    from repro.automl import ExperimentRun

    run = ExperimentRun.open(run_dir)

    def killer(state):
        if state["n_reported"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    run.execute(on_report=killer)
    raise AssertionError("the killer hook never fired")  # pragma: no cover


def _kill_and_resume(workdir, n_pending):
    from repro.automl import resume_run

    baseline_dir = os.path.join(workdir, "baseline-{}".format(n_pending))
    killed_dir = os.path.join(workdir, "killed-{}".format(n_pending))

    print("== 1/3 uninterrupted baseline ({} evaluations, n_pending={})".format(
        BUDGET, n_pending))
    baseline = _stream(_create_run(baseline_dir, n_pending).execute().records)
    assert len(baseline) == BUDGET, baseline

    print("== 2/3 killed run (SIGKILL after {} reported records)".format(KILL_AFTER))
    # the parent creates the run, so the child resumes its manifest's window
    _create_run(killed_dir, n_pending)
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

    # a kill in the middle of an append leaves a torn partial line: add one
    store_dir = os.path.join(killed_dir, "store")
    segment = os.path.join(store_dir, _segment_files(store_dir)[-1])
    with open(segment, "ab") as stream:
        stream.write(b'{"task_name": "torn", "sco')
    with open(segment, "rb") as stream:
        torn = stream.read()

    # the durable log must hold exactly the records reported before the
    # kill, and opening it must not change a byte
    from repro.explorer import PersistentPipelineStore
    with PersistentPipelineStore(store_dir) as partial:
        durable = sorted(document["iteration"] for document in partial)
    assert durable == list(range(KILL_AFTER)), durable
    with open(segment, "rb") as stream:
        assert stream.read() == torn, "opening the store rewrote its log"
    print("   durable records at kill time: {} (torn tail skipped)".format(durable))
    _assert_witnesses_are_small(killed_dir, "after the kill")

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
    _assert_witnesses_are_small(killed_dir, "after the resume")
    resumed.close()
    # the record log is one file: no rotation, no manifest
    assert _segment_files(store_dir) == ["segment-000000.jsonl"], os.listdir(store_dir)
    assert not os.path.exists(os.path.join(store_dir, "MANIFEST")), os.listdir(store_dir)


def _parent():
    with tempfile.TemporaryDirectory(prefix="crash-resume-") as workdir:
        for n_pending in N_PENDING:
            _kill_and_resume(workdir, n_pending)
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
