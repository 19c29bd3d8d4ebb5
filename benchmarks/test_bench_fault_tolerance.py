"""Fault-tolerant execution: kill recovery.

The same process-backend workload runs fault-free and while the pool
absorbs one injected worker SIGKILL mid-run.  The benchmark asserts the
layer's contract:

* **recovery** — throughput under one worker kill stays within 0.7x of
  the fault-free run (the respawn pause never dominates),

and restates the masking guarantee the chaos suite pins: both arms'
record streams are bit-identical to a serial baseline.

The same workload is what ``scripts/record_bench.py fault-tolerance``
records to ``BENCH_fault_tolerance.json`` in the ``chaos`` CI job.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

from record_bench import (  # noqa: E402
    FAULT_RECOVERY_THRESHOLD,
    run_fault_tolerance_benchmark,
)


@pytest.fixture(scope="session")
def fault_tolerance_numbers():
    """Collects the measurement for the session-teardown summary."""
    numbers = {}
    yield numbers
    if numbers:
        print("\n\n-- process pool: kill recovery --")
        print("  fault-free {:7.3f}s   faulted {:7.3f}s   "
              "recovery {:.2f}x (threshold {:.2f}x)".format(
                  numbers["fault_free"], numbers["faulted"],
                  numbers["speedup"], FAULT_RECOVERY_THRESHOLD))


def test_fault_tolerance_kill_recovery(benchmark, fault_tolerance_numbers):
    payload = benchmark.pedantic(run_fault_tolerance_benchmark,
                                 rounds=1, iterations=1)
    # run_fault_tolerance_benchmark already asserts the serial-identical
    # record streams and the recovery gate internally; restate the
    # headline facts so a regression reads clearly in the report
    assert payload["records_identical"]
    stats = payload["faulted"]["stats"]
    assert stats["workers_died"] == 1 and stats["pools_rebuilt"] == 1
    assert stats["folds_quarantined"] == 0
    fault_tolerance_numbers.update({
        "fault_free": payload["fault_free"]["elapsed_seconds"],
        "faulted": payload["faulted"]["elapsed_seconds"],
        "speedup": payload["speedup"],
    })
    assert payload["speedup"] >= FAULT_RECOVERY_THRESHOLD, (
        "one worker kill pushed throughput to {:.2f}x of the fault-free "
        "run (bar: {:.2f}x)".format(payload["speedup"], FAULT_RECOVERY_THRESHOLD)
    )
