"""The Louvain memo under concurrency.

``louvain_communities`` memoises its moving loop in a process-wide
``functools.lru_cache`` with no lock of its own.  Serial searches on
caller threads share it while evaluating different graphs, and a process
search forks its workers while those threads are inside it; every record
stream must still be bit-identical to the same search run solo and serial.
"""

import sys
import threading

import pytest

from repro.automl import AutoBazaarSearch
from repro.automl.checkpoint import record_stream_digest
from repro.learners.graph.community import _moving_kernel
from repro.tasks import synth

BUDGET = 12
N_CALLERS = 4
JOIN_TIMEOUT = 240.0


def community_task(index):
    return synth.make_community_detection(name="community-{}".format(index),
                                          random_state=index)


def search(task, backend, **options):
    searcher = AutoBazaarSearch(
        n_splits=3, random_state=0, estimator_seed=0, backend=backend, n_pending=2,
        **options,
    )
    return searcher.search(task, budget=BUDGET)


def digest(result):
    return record_stream_digest(record.to_dict() for record in result.records).hexdigest()


@pytest.fixture(scope="module")
def tasks():
    # tasks 0..3 are the caller threads' serial searches, task 4 the process search
    return [community_task(index) for index in range(N_CALLERS + 1)]


@pytest.fixture(scope="module")
def solo_digests(tasks):
    return [digest(search(task, "serial")) for task in tasks]


def test_concurrent_serial_and_process_searches_match_solo_serial(tasks, solo_digests):
    results = [None] * len(tasks)
    failures = []

    def run(index, backend, **options):
        try:
            results[index] = search(tasks[index], backend, **options)
        except BaseException as failure:  # noqa: BLE001 - re-raised below
            failures.append(failure)

    hits = _moving_kernel.cache_info().hits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(index, "serial"))
                   for index in range(N_CALLERS)]
        # the process search forks its workers while the serial searches run
        threads.append(threading.Thread(
            target=run, args=(N_CALLERS, "process"), kwargs={"workers": 2}))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    if failures:
        raise failures[0]

    assert [digest(result) for result in results] == solo_digests
    assert all(result.n_failed == 0 for result in results)
    # the serial searches' folds went through the memo, not around it
    assert _moving_kernel.cache_info().hits > hits
