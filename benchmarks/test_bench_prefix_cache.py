"""Prefix-cache throughput on a shared-prefix tuning workload.

Candidates drawn from one template differ only in estimator
hyperparameters, so their preprocessing prefix is identical across every
fold of every candidate — the workload the fitted-prefix cache exists
for.  The benchmark asserts the two halves of the cache contract:

* **throughput** — with the disk-tier cache on (process backend, 4
  workers), candidate throughput is at least 1.5x the uncached run, and
* **correctness** — the cached run's scores are bit-identical to the
  uncached run's, because entries are content-addressed by fold data and
  configured prefix.

The same workload is what ``scripts/record_bench.py`` records to
``BENCH_prefix_cache.json`` in the ``prefix-cache`` CI job.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

from record_bench import THRESHOLD, run_prefix_cache_benchmark  # noqa: E402


@pytest.fixture(scope="session")
def prefix_cache_numbers():
    """Collects the measurement for the session-teardown summary."""
    numbers = {}
    yield numbers
    if numbers:
        print("\n\n-- fitted-prefix cache on a shared-prefix workload --")
        print("  cache off {:7.3f}s   cache on {:7.3f}s   ({:.2f}x, threshold {:.2f}x)".format(
            numbers["cache_off"], numbers["cache_on"],
            numbers["speedup"], THRESHOLD))
        print("  cache stats: {}".format(numbers["stats"]))


def test_prefix_cache_throughput_and_score_identity(benchmark, prefix_cache_numbers):
    payload = benchmark.pedantic(run_prefix_cache_benchmark, rounds=1, iterations=1)
    # run_prefix_cache_benchmark already asserts score identity internally;
    # restate the headline facts so a regression reads clearly in the report
    assert payload["scores_identical"]
    assert payload["cache_on"]["stats"]["hits"] > 0
    prefix_cache_numbers.update({
        "cache_off": payload["cache_off"]["elapsed_seconds"],
        "cache_on": payload["cache_on"]["elapsed_seconds"],
        "speedup": payload["speedup"],
        "stats": payload["cache_on"]["stats"],
    })
    assert payload["speedup"] >= THRESHOLD, (
        "prefix cache speedup {:.2f}x fell below the {:.2f}x acceptance bar".format(
            payload["speedup"], THRESHOLD)
    )
