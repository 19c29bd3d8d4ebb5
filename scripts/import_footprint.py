"""Break the end-to-end benchmark's set-up time down by import.

Runs, in a fresh interpreter under ``python -X importtime``, the set-up
sequence ``bench_e2e`` times as ``setup_s``: import the package, build the
template catalog, generate the 15-task Table II suite (one task per type).
Prints the wall time of each phase, the modules with the largest cumulative
import time, the SciPy modules loaded and the process's peak RSS.

    python scripts/import_footprint.py             # top 15 imports
    python scripts/import_footprint.py --top 40

``-X importtime`` itself slows imports a little, so the phase times read
somewhat above an untimed start.  The script only reports; the tier-1 test
``tests/test_import_footprint.py`` is the gate on what set-up may load.
"""

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SETUP = '''
import json
import resource
import sys
import time

sys.path.insert(0, {src!r})
start = time.perf_counter()
import numpy  # noqa: F401
import repro.automl
from repro.automl import default_template_catalog
from repro.tasks.suite import TABLE_II_COUNTS, build_task_suite
imported = time.perf_counter()
default_template_catalog()
cataloged = time.perf_counter()
tasks = list(build_task_suite(counts={{task_type: 1 for task_type in TABLE_II_COUNTS}},
                              random_state=0))
built = time.perf_counter()
print(json.dumps({{
    "import_s": imported - start,
    "catalog_s": cataloged - imported,
    "tasks_s": built - cataloged,
    "tasks": len(tasks),
    "scipy_modules": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}}))
'''


def parse_importtime(stderr):
    """``(cumulative_us, self_us, module)`` rows of ``-X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|", 2)
        rows.append((int(cumulative_us), int(self_us), name.rstrip()))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--top", type=int, default=15,
                        help="number of modules to list by cumulative import time")
    arguments = parser.parse_args(argv)

    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         SETUP.format(src=os.path.join(REPO_ROOT, "src"))],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(child.stdout.strip().splitlines()[-1])
    rows = parse_importtime(child.stderr)

    total = report["import_s"] + report["catalog_s"] + report["tasks_s"]
    print("set-up {:.3f} s: import {:.3f} s, catalog {:.3f} s, {} tasks {:.3f} s".format(
        total, report["import_s"], report["catalog_s"], report["tasks"], report["tasks_s"]))
    print("peak RSS {:.1f} MB".format(report["maxrss_mb"]))
    print("scipy modules loaded: {}".format(len(report["scipy_modules"])))
    print("top {} imports by cumulative time (ms; indentation = nesting):".format(arguments.top))
    print("{:>10} {:>10}  module".format("cumul", "self"))
    for cumulative_us, self_us, name in sorted(rows, reverse=True)[:arguments.top]:
        print("{:>10.1f} {:>10.1f}  {}".format(cumulative_us / 1e3, self_us / 1e3, name))
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`| head`): the report is cut short, not
        # failed; stdout now points at devnull so the exit-time flush of
        # what is still buffered cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
