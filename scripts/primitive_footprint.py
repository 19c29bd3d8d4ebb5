"""Break one serial search pass over the Table II suite down by primitive.

Runs the searches of the end-to-end benchmark's ``suite_serial`` workload
(the 15 Table II task types, one task each, the default template catalog,
budget 2, two folds, serial backend) several times, timing every
``PipelineStep.fit`` and ``PipelineStep.produce`` call by primitive.
Prints, per primitive and phase, the best wall seconds over the passes and
their share of the best pass's wall time, largest first.

    python scripts/primitive_footprint.py              # best of 5 passes
    python scripts/primitive_footprint.py --passes 3 --top 10

BLAS/OpenMP are pinned to one thread, as the benchmark pins them.  No
profiler runs: the only instrumentation is two ``perf_counter`` reads per
step call.  A step's time includes what its primitive calls, and the rest
of a pass (pipeline glue, scoring, tuning, the search loop) is the
remainder line.  The script only reports; ``--trace 1`` of
``bench_e2e/run.py`` totals all steps as ``learners.step_fit_s`` and
``learners.step_produce_s``.
"""

import argparse
import collections
import os
import sys
import time

for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: The search settings of the ``suite_serial`` workload.
BUDGET = 2
N_SPLITS = 2
N_PENDING = 4
SEED = 0


def _timed(original, phase, totals):
    def wrapper(step, *args, **kwargs):
        started = time.perf_counter()
        try:
            return original(step, *args, **kwargs)
        finally:
            totals[(step.annotation.name, phase)] += time.perf_counter() - started

    return wrapper


def one_pass(tasks, catalog):
    """``(pass wall seconds, {(primitive, phase): seconds})`` of one serial pass."""
    from repro.automl import AutoBazaarSearch
    from repro.core.step import PipelineStep

    totals = collections.defaultdict(float)
    originals = {"fit": PipelineStep.fit, "produce": PipelineStep.produce}
    for phase, original in originals.items():
        setattr(PipelineStep, phase, _timed(original, phase, totals))
    try:
        started = time.perf_counter()
        for task in tasks:
            searcher = AutoBazaarSearch(
                n_splits=N_SPLITS, random_state=SEED, estimator_seed=SEED,
                n_pending=N_PENDING, catalog=catalog, backend="serial",
            )
            searcher.search(task, budget=BUDGET)
        wall = time.perf_counter() - started
    finally:
        for phase, original in originals.items():
            setattr(PipelineStep, phase, original)
    return wall, totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=5, help="passes to take the best of")
    parser.add_argument("--top", type=int, default=20, help="rows to print")
    arguments = parser.parse_args(argv)
    if arguments.passes < 1:
        parser.error("--passes must be at least 1")

    from repro.automl import default_template_catalog
    from repro.tasks.suite import TABLE_II_COUNTS, build_task_suite

    catalog = default_template_catalog()
    tasks = list(build_task_suite(counts={task_type: 1 for task_type in TABLE_II_COUNTS},
                                  random_state=SEED))
    walls = []
    best = {}
    for _ in range(arguments.passes):
        wall, totals = one_pass(tasks, catalog)
        walls.append(wall)
        for key, seconds in totals.items():
            best[key] = min(seconds, best.get(key, seconds))

    wall = min(walls)
    print("{} tasks, best of {} serial passes: {:.3f} s a pass (slowest {:.3f} s)".format(
        len(tasks), len(walls), wall, max(walls)))
    print("{:>8} {:>7}  {:<8} primitive".format("best s", "share", "phase"))
    rows = sorted(best.items(), key=lambda item: item[1], reverse=True)
    for (primitive, phase), seconds in rows[:arguments.top]:
        print("{:>8.3f} {:>6.1%}  {:<8} {}".format(seconds, seconds / wall, phase, primitive))
    if len(rows) > arguments.top:
        rest = sum(seconds for _, seconds in rows[arguments.top:])
        print("{:>8.3f} {:>6.1%}  {:<8} {} more primitive phases".format(
            rest, rest / wall, "", len(rows) - arguments.top))
    steps = sum(best.values())
    print("{:>8.3f} {:>6.1%}  {:<8} outside any step".format(
        wall - steps, (wall - steps) / wall, ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
