"""Golden record digests: the budget-2 Table II suite, pinned per task.

Every score-preserving change promises "record streams unchanged"; this
checks that promise against committed constants instead of a person
comparing two runs.  The 15 Table II task types (one task each) are
searched at budget 2 with the real template catalog, once on the serial
backend and once as 15 concurrent tenants of one two-worker process fleet,
and each task's ``record_stream_digest`` must equal the table below.

The digests depend on the BLAS kernel OpenBLAS picks at run time, so the
searches run in a subprocess with the kernel forced to ``Haswell`` (AVX2)
and one BLAS thread: any x86 box with AVX2 and a ``DYNAMIC_ARCH`` OpenBLAS
reproduces them.  Elsewhere the test skips and says why.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

#: What the table was recorded under.
RECORDED_WITH = "NumPy 2.4.6, OpenBLAS 0.3.31.188.0 (OPENBLAS_CORETYPE=Haswell)"

#: task name -> the hex ``record_stream_digest`` of its search.
GOLDEN = {
    "graph/community_detection_000":
        "cb2b37553ea6b3854813693243e67992364940664763b3af10895c84da0d8440",
    "graph/graph_matching_000":
        "438b26bcc7bdb4f2f74e7c2acf25bb0731831e2ba1e7274b69b7556ebd0ac83d",
    "graph/link_prediction_000":
        "497e02c507e0afd0ce156ccdb3067e12631e7b2a5f84c52ff19ee40c865c1a7d",
    "graph/vertex_nomination_000":
        "3d1a1f7ec6586a5a413f587972333b47131a5f925f89fa43f00e2495c9a1bdac",
    "image/classification_000":
        "b2ad90a71f64b4b81c5ba6c0cfa4d2a80aa98e787a5e805705d5f62b64439fad",
    "image/regression_000":
        "fc5da308818f9eae59a801b3d4b7b6e92e537cee23463e3c3b37f72612135d18",
    "multi_table/classification_000":
        "351edf74f125773a49eea51a6db5ff70d0639bcf390048281eb58f3eac1cd211",
    "multi_table/regression_000":
        "da2e7b30d1d7eb42a0a5e110aca9729bccf08b7757cdf4ab3fc37d550680f06f",
    "single_table/classification_000":
        "0c2e48cca52ead0379d29a03997798c5a3082fb26f0329cda13d0e5465eb1e9a",
    "single_table/collaborative_filtering_000":
        "38166a8dcc462c07e28d5ccde62321870cdae5c02196245403eb013bf4253690",
    "single_table/regression_000":
        "fd552b0e74f5eb9858f4137c095d1de2f48a0412aacca48f5460905de8af223c",
    "single_table/timeseries_forecasting_000":
        "d82c93986f277ece1dfc5f8c9dee50a5f1425cccb655dc495342598ba257815b",
    "text/classification_000":
        "48f08cd1e70d73a9de4475681805b1892caa74bb35cc9c5886ef62a0946590be",
    "text/regression_000":
        "de9905ec8192f6e2e6615a4d5cf980f124ba7d8e474b517bc7470f3a0883150e",
    "timeseries/classification_000":
        "5cc9f1a12ddf8a4d26e5e487583f6be65612e4f46bc5867e3559dc660647e19e",
}

#: Runs the suite on one backend and prints ``{task name: digest}`` as JSON.
SCRIPT = """
import json
import sys
import threading

from repro.automl import AutoBazaarSearch, FleetCoordinator
from repro.automl.checkpoint import record_stream_digest
from repro.tasks.suite import TABLE_II_COUNTS, build_task_suite

backend = sys.argv[1]
tasks = list(build_task_suite(counts=dict.fromkeys(TABLE_II_COUNTS, 1), random_state=0))


def search(task, **execution):
    result = AutoBazaarSearch(
        n_splits=2, n_pending=4, random_state=0, estimator_seed=0, **execution,
    ).search(task, budget=2)
    return record_stream_digest(record.to_dict() for record in result.records).hexdigest()


digests = {}
if backend == "serial":
    for task in tasks:
        digests[task.name] = search(task, backend="serial")
else:
    failures = []

    def tenant(task, handle):
        try:
            digests[task.name] = search(task, backend=handle)
        except BaseException as failure:
            failures.append(failure)

    with FleetCoordinator(backend="process", workers=2) as fleet:
        handles = [fleet.register(name=task.name) for task in tasks]
        threads = [threading.Thread(target=tenant, args=pair) for pair in zip(tasks, handles)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
print(json.dumps(digests, sort_keys=True))
"""


def _skip_reason():
    """Why this box cannot reproduce the table, or ``None`` when it can."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    configuration = blas.get("openblas configuration") or ""
    if "DYNAMIC_ARCH" not in configuration.split():
        return "NumPy's BLAS is not a DYNAMIC_ARCH OpenBLAS ({!r})".format(
            configuration or blas.get("name"))
    try:
        with open("/proc/cpuinfo") as stream:
            flags = {flag for line in stream if line.startswith("flags")
                     for flag in line.split(":", 1)[1].split()}
    except OSError:
        return "cannot read the CPU flags"
    if "avx2" not in flags:
        return "the CPU lacks AVX2, which the Haswell kernel needs"
    return None


@pytest.mark.parametrize("backend", ["serial", "fleet"])
def test_each_task_stream_matches_the_golden_table(backend):
    reason = _skip_reason()
    if reason is not None:
        pytest.skip(reason)
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, backend], env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    digests = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(digests) == sorted(GOLDEN)
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    here = "NumPy {}, OpenBLAS {}".format(np.__version__, blas.get("version"))
    changed = ["{}: {} != {}".format(task, digests[task], GOLDEN[task])
               for task in sorted(GOLDEN) if digests[task] != GOLDEN[task]]
    assert not changed, (
        "record streams changed on the {} backend (table recorded with {}; this run "
        "{}):\n{}".format(backend, RECORDED_WITH, here, "\n".join(changed)))
