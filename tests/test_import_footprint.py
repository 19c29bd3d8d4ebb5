"""Start-up footprint: the set-up path and a search without GP fits load no SciPy.

``repro.tuning`` imports SciPy inside the functions that use it, so a
process that imports the package, builds the catalog and the task suite and
runs a search whose tuners never fit a GP never loads it (``scipy.stats``
alone takes about a second and 70 MB to import).  The first GP fit
loads ``scipy.linalg`` and the first acquisition ``scipy.special``;
``scipy.stats`` is never loaded.  The search is on a single-table task:
``networkx.pagerank`` in the graph features imports ``scipy.sparse``.  Each
check runs in a fresh interpreter, because this test process has long
imported SciPy.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = '''
import json
import sys

sys.path.insert(0, {src!r})


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


import repro
import repro.automl
import repro.automl.__main__
import repro.telemetry
from repro.automl import AutoBazaarSearch, default_template_catalog
from repro.tasks.suite import TABLE_II_COUNTS, build_task_suite

catalog = default_template_catalog()
tasks = list(build_task_suite(counts={{task_type: 1 for task_type in TABLE_II_COUNTS}},
                              random_state=0))
after_setup = scipy_modules()
task = next(task for task in tasks if task.name.startswith("single_table/classification"))
result = AutoBazaarSearch(n_splits=2, random_state=0, estimator_seed=0, catalog=catalog,
                          backend="serial").search(task, budget=2)
after_search = scipy_modules()

import numpy as np
from repro.tuning.hyperparams import FloatHyperparam, IntHyperparam, Tunable
from repro.tuning.tuners import GCPEiTuner, GPEiTuner

space = Tunable({{
    ("m", "x"): FloatHyperparam("x", 0.0, 1.0, default=0.5),
    ("m", "n"): IntHyperparam("n", 1, 10, default=5),
}})
fits = {{}}
for tuner_class in (GPEiTuner, GCPEiTuner):
    tuner = tuner_class(space, min_trials=3, random_state=0)
    for _ in range(5):
        params = tuner.propose()
        tuner.record(params, float(-(params[("m", "x")] - 0.7) ** 2))
    fits[tuner_class.__name__] = tuner._meta_model is not None
print(json.dumps({{
    "tasks": len(tasks),
    "evaluated": result.n_evaluated,
    "after_setup": after_setup,
    "after_search": after_search,
    "after_gp": scipy_modules(),
    "fits": fits,
}}))
'''


def test_setup_and_a_search_without_gp_fits_load_no_scipy():
    output = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    report = json.loads(output.strip().splitlines()[-1])
    assert report["tasks"] == 15
    assert report["evaluated"] == 2
    assert report["after_setup"] == []
    assert report["after_search"] == []

    # driving both GP tuners past min_trials fits their meta-models, which
    # loads what they use of SciPy, and only that
    assert report["fits"] == {"GPEiTuner": True, "GCPEiTuner": True}
    loaded = set(report["after_gp"])
    assert {"scipy.linalg", "scipy.special"} <= loaded
    assert not any(name.split(".")[:2] == ["scipy", "stats"] for name in loaded)


@pytest.mark.parametrize("lines_read, top, unbuffered", [(1, "400", "1"), (0, "1", None)],
                         ids=["after-one-line", "before-any-line"])
def test_the_report_exits_quietly_when_its_reader_goes_away(lines_read, top, unbuffered):
    # ``python scripts/import_footprint.py | head -1``: the reader closes the
    # pipe while the report still has lines to write — after the first of
    # many unbuffered writes, or before a short buffered report whose one
    # write is the flush at exit
    script = os.path.join(os.path.dirname(SRC), "scripts", "import_footprint.py")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    child = subprocess.Popen([sys.executable, script, "--top", top], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines_read):
        assert child.stdout.readline().startswith(b"set-up ")
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 0, stderr
    assert "Traceback" not in stderr
