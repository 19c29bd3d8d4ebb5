"""Zero-copy data-plane throughput on a transport-bound fold workload.

A task with tiny folds and a large static context blob goes through a
process backend whose every worker must materialize it once.  The
estimator is free (majority class), leaving transport as the measured
cost — the pickle plane (reached only by fallback: the same task plus one
static string the segment format cannot hold) serializes the task and
deserializes one full copy per worker, while the shm plane publishes it
once and maps it for free.  Each plane is timed best-of-N to filter disk-scheduler
luck.  The benchmark asserts both halves of the data-plane contract:

* **throughput** — shm fold dispatch is at least 1.3x the pickle plane,
* **correctness** — both planes produce bit-identical scores.

The same workload is what ``scripts/record_bench.py data-plane`` records
to ``BENCH_data_plane.json`` in the ``data-plane`` CI job.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

from record_bench import DATA_PLANE_THRESHOLD, run_data_plane_benchmark  # noqa: E402

from repro.automl import shm  # noqa: E402


@pytest.fixture(scope="session")
def data_plane_numbers():
    """Collects the measurement for the session-teardown summary."""
    numbers = {}
    yield numbers
    if numbers:
        print("\n\n-- zero-copy data plane on a transport-bound workload --")
        print("  pickle {:7.3f}s   shm {:7.3f}s   ({:.2f}x, threshold {:.2f}x)".format(
            numbers["pickle"], numbers["shm"],
            numbers["speedup"], DATA_PLANE_THRESHOLD))


@pytest.mark.skipif(not shm.shm_available(),
                    reason="shared memory unavailable on this platform")
def test_data_plane_throughput_and_score_identity(benchmark, data_plane_numbers):
    payload = benchmark.pedantic(run_data_plane_benchmark, rounds=1, iterations=1)
    # run_data_plane_benchmark already asserts score identity internally;
    # restate the headline facts so a regression reads clearly in the report
    assert payload["scores_identical"]
    assert payload["shm"]["plane_counts"]["shm"] > 0
    assert payload["pickle"]["plane_counts"]["pickle"] > 0
    data_plane_numbers.update({
        "pickle": payload["pickle"]["elapsed_seconds"],
        "shm": payload["shm"]["elapsed_seconds"],
        "speedup": payload["speedup"],
    })
    assert payload["speedup"] >= DATA_PLANE_THRESHOLD, (
        "shm data-plane speedup {:.2f}x fell below the {:.2f}x acceptance bar".format(
            payload["speedup"], DATA_PLANE_THRESHOLD)
    )
