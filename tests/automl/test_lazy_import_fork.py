"""SciPy imported on first use, by a thread, while other threads fork workers.

The GP tuners import ``scipy.linalg`` / ``scipy.special`` on their first
fit, so that first import runs on whichever thread gets there first — here
a thread tenant of a process fleet — possibly while another thread forks
pool workers.  A worker forked half way through that import inherits module
locks held by a thread it does not have; if one of its folds then imports
the same module (a primitive backed by a library that uses SciPy), it waits
for ever.  ``repro.lazyimport.import_module`` makes every fork wait for such
an import to finish.

The run happens in a fresh interpreter, so the tenants' GP fits really are
the first to import ``scipy.linalg``.  A meta-path hook holds a tenant's
import of it open for a second while a third thread keeps starting process
searches whose folds import ``scipy.linalg`` themselves, each forking two
workers.  Every record stream must equal the same search run serially, and
the run must finish.
"""

import json
import os
import signal
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

#: The run takes a few seconds; a worker stuck on a half-done import never ends.
RUN_TIMEOUT = 120.0

#: The shared definitions: both this process (the serial references) and the
#: fresh interpreter (the concurrent run) execute it.
SETUP = '''
import importlib

from repro.automl import AutoBazaarSearch
from repro.automl.catalog import get_templates
from repro.automl.checkpoint import record_stream_digest
from repro.core.catalog._helpers import transformer
from repro.core.registry import PrimitiveRegistry, get_default_registry
from repro.core.template import Template
from repro.learners.synthetic import TimedIdentityTransformer
from repro.tasks import synth
from repro.tuning.tuners import GCPEiTuner, GPEiTuner

ENCODER = "mlprimitives.custom.preprocessing.ClassEncoder"
DECODER = "mlprimitives.custom.preprocessing.ClassDecoder"
IMPUTER = "sklearn.impute.SimpleImputer"
LOGREG = "sklearn.linear_model.LogisticRegression"
LINALG_USER = "tests.lazy_import.imports_scipy_linalg"


class ImportsSciPyLinalg(TimedIdentityTransformer):
    """Identity step that imports scipy.linalg when it fits, as a library would."""

    def fit(self, X, y=None):
        importlib.import_module("scipy.linalg")
        return super().fit(X, y)


def catalog_template(modality, problem, name):
    return [t for t in get_templates(modality, problem) if t.name == name]


def linalg_user_template():
    registry = PrimitiveRegistry("lazy-import")
    for shared in (ENCODER, IMPUTER, LOGREG, DECODER):
        registry.register(get_default_registry().get(shared))
    registry.register(transformer(LINALG_USER, ImportsSciPyLinalg, "tests"))
    return [Template("lazy_import_logreg", [ENCODER, IMPUTER, LINALG_USER, LOGREG, DECODER],
                     init_params={LOGREG: {"random_state": 0}}, registry=registry)]


#: (task, templates, tuner class, budget): budget 8 on one template takes each
#: GP tuner well past its 3 initial trials
TENANTS = [
    (synth.make_single_table_classification(n_samples=80, random_state=1),
     catalog_template("single_table", "classification", "single_table_classification_logistic"),
     GPEiTuner, 8),
    (synth.make_single_table_regression(n_samples=80, random_state=2),
     catalog_template("single_table", "regression", "single_table_regression_ridge"),
     GCPEiTuner, 8),
]
FORKER = (synth.make_single_table_classification(n_samples=80, random_state=3),
          linalg_user_template())


def search(task, backend, templates, tuner_class=GPEiTuner, budget=2, **options):
    searcher = AutoBazaarSearch(
        templates=templates, tuner_class=tuner_class, n_splits=2, random_state=0,
        estimator_seed=0, n_pending=2, backend=backend, **options)
    return searcher.search(task, budget=budget)


def digest(result):
    assert result.n_failed == 0, [record.error for record in result.records]
    return record_stream_digest(record.to_dict() for record in result.records).hexdigest()
'''

CONCURRENT = '''
import json
import sys
import threading
import time

sys.path.insert(0, {src!r})
exec(compile({setup!r}, "setup", "exec"))
assert "scipy.linalg" not in sys.modules

from repro.automl import FleetCoordinator


class HoldSciPyLinalgOpen:
    """Sleep once inside the import of scipy.linalg when a tenant thread runs it."""

    held = False

    def find_spec(self, name, path=None, target=None):
        if name == "scipy.linalg" and not HoldSciPyLinalgOpen.held \\
                and threading.current_thread().name.startswith("tenant"):
            HoldSciPyLinalgOpen.held = True
            time.sleep(1.0)
        return None


sys.meta_path.insert(0, HoldSciPyLinalgOpen())
tenants_done = threading.Event()
results = {{"tenants": [None] * len(TENANTS), "forker": []}}
failures = []


def tenant(index, backend):
    task, templates, tuner_class, budget = TENANTS[index]
    try:
        results["tenants"][index] = digest(
            search(task, backend, templates, tuner_class, budget))
    except BaseException as failure:
        failures.append(repr(failure))


def forker():
    # each process search forks two workers whose folds import scipy.linalg
    try:
        while not tenants_done.is_set() or not results["forker"]:
            results["forker"].append(digest(search(FORKER[0], "process", FORKER[1], workers=2)))
    except BaseException as failure:
        failures.append(repr(failure))


interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    with FleetCoordinator(backend="process", workers=2) as fleet:
        forking = threading.Thread(target=forker, name="forker")
        forking.start()
        threads = [
            threading.Thread(target=tenant, name="tenant-{{}}".format(index),
                             args=(index, fleet.register(name="tenant-{{}}".format(index))))
            for index in range(len(TENANTS))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tenants_done.set()
        forking.join()
finally:
    sys.setswitchinterval(interval)

print(json.dumps({{
    "failures": failures,
    "held": HoldSciPyLinalgOpen.held,
    "results": results,
    "loaded": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
}}))
'''


def _serial_digests():
    namespace = {"__name__": "lazy_import_setup"}
    exec(compile(SETUP, "setup", "exec"), namespace)
    search, digest = namespace["search"], namespace["digest"]
    tenants = [digest(search(task, "serial", templates, tuner_class, budget))
               for task, templates, tuner_class, budget in namespace["TENANTS"]]
    forker_task, forker_templates = namespace["FORKER"]
    return tenants, digest(search(forker_task, "serial", forker_templates))


def test_first_scipy_import_on_a_tenant_thread_survives_concurrent_forks():
    script = CONCURRENT.format(src=SRC, setup=SETUP)
    child = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                             start_new_session=True, text=True)
    try:
        output, _ = child.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise AssertionError("the concurrent run did not finish in {:.0f} s: a worker "
                             "forked mid-import waits for ever".format(RUN_TIMEOUT)) from None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait(timeout=10)
    assert child.returncode == 0, output
    report = json.loads(output.strip().splitlines()[-1])
    assert report["failures"] == []
    # the hook fired: the first scipy.linalg import ran on a tenant thread
    assert report["held"]

    tenant_digests, forker_digest = _serial_digests()
    assert report["results"]["tenants"] == tenant_digests
    assert report["results"]["forker"] == [forker_digest] * len(report["results"]["forker"])
    # a process fleet imports scipy.sparse before it forks; the tenants' GP
    # fits loaded scipy.linalg and scipy.special, and nothing scipy.stats
    assert {"scipy.linalg", "scipy.sparse", "scipy.special"} <= set(report["loaded"])
    assert not any(name.startswith("scipy.stats") for name in report["loaded"])
