"""Batched multi-candidate evaluation throughput on a shared-Gram workload.

Same-template Ridge candidates proposed in one window refill share their
pinned preprocessing prefix and their fold's Gram matrix; batched
evaluation fits the prefix once and pays one cheap solve per alpha where
looped evaluation refits everything per candidate.  The benchmark asserts
both halves of the batching contract:

* **throughput** — batched candidate throughput is at least 1.5x looped,
* **correctness** — the batched record stream (scores, order, errors) is
  bit-identical to the looped one.

The same workload is what ``scripts/record_bench.py batched-eval``
records to ``BENCH_batched_eval.json`` in the ``data-plane`` CI job.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

from record_bench import BATCHED_EVAL_THRESHOLD, run_batched_eval_benchmark  # noqa: E402


@pytest.fixture(scope="session")
def batched_eval_numbers():
    """Collects the measurement for the session-teardown summary."""
    numbers = {}
    yield numbers
    if numbers:
        print("\n\n-- batched multi-candidate evaluation on a shared-Gram workload --")
        print("  looped {:7.3f}s   batched {:7.3f}s   ({:.2f}x, threshold {:.2f}x)".format(
            numbers["looped"], numbers["batched"],
            numbers["speedup"], BATCHED_EVAL_THRESHOLD))


def test_batched_eval_throughput_and_record_identity(benchmark, batched_eval_numbers):
    payload = benchmark.pedantic(run_batched_eval_benchmark, rounds=1, iterations=1)
    # run_batched_eval_benchmark already asserts record identity internally;
    # restate the headline facts so a regression reads clearly in the report
    assert payload["scores_identical"]
    batched_eval_numbers.update({
        "looped": payload["looped"]["elapsed_seconds"],
        "batched": payload["batched"]["elapsed_seconds"],
        "speedup": payload["speedup"],
    })
    assert payload["speedup"] >= BATCHED_EVAL_THRESHOLD, (
        "batched-eval speedup {:.2f}x fell below the {:.2f}x acceptance bar".format(
            payload["speedup"], BATCHED_EVAL_THRESHOLD)
    )
