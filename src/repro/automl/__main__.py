"""Command-line entry point: ``python -m repro.automl <task_dir> [options]``.

Solves one on-disk task (a folder written by :func:`repro.tasks.io.save_task`)
with AutoBazaar and prints the best pipeline, its scores and the session
report.

Durable runs::

    python -m repro.automl <task_dir> --store-path <dir>   # persistent store + auto warm start
    python -m repro.automl <task_dir> --run-dir <dir>      # checkpointed, resumable run
    python -m repro.automl resume <run_dir>                # continue a killed run

Multi-tenant fleet (N concurrent searches, one shared worker pool)::

    python -m repro.automl <task_dir> <task_dir> ... --fleet [--tenant-weight W ...]
"""

import argparse
import sys

from repro.automl.backends import BACKENDS
from repro.automl.checkpoint import CheckpointError
from repro.automl.config import EXECUTION_ONLY, KNOBS, ExecutionConfig
from repro.automl.prefix_cache import PREFIX_CACHE_MODES
from repro.automl.session import run_fleet_from_directories, run_from_directory


def _add_execution_arguments(parser, fields):
    """Add the flags of the named :class:`ExecutionConfig` fields to ``parser``.

    ``dest`` and ``default`` come from the field itself; README's "Execution
    configuration" section is the long description of every flag.
    """
    defaults = ExecutionConfig()

    def add(name, flag, **options):
        if name in fields:
            parser.add_argument(flag, dest=name, default=getattr(defaults, name), **options)

    add("backend", "--backend", choices=tuple(BACKENDS),
        help="where cross-validation folds run: inline (serial) or on a "
             "supervised process pool (default: serial)")
    add("workers", "--workers", type=int, metavar="N",
        help="worker count of the process backend (default: the CPU count)")
    add("n_pending", "--pending", type=int, metavar="N",
        help="candidates in flight at once; values > 1 enable constant-liar "
             "batch proposals (default: 1)")
    add("prefix_cache", "--prefix-cache", choices=PREFIX_CACHE_MODES,
        help="memoize fitted preprocessing prefixes: 'mem' per process, 'disk' "
             "shared across process-backend workers; score-preserving (default: off)")
    add("cache_dir", "--cache-dir", metavar="DIR",
        help="directory of the disk-tier prefix store (default: a temporary "
             "per-search directory)")
    add("telemetry", "--telemetry", metavar="{off,run-dir,PATH}",
        help="record a telemetry event stream in PATH, or with 'run-dir' in the "
             "run directory's events/ (a resumed run appends); replay with "
             "`python -m repro.telemetry DIR` (default: off)")
    add("fold_timeout", "--fold-timeout", type=float, metavar="SECONDS",
        help="process pool: kill the worker of a fold running longer than "
             "SECONDS and retry the fold (default: no deadline)")
    add("max_fold_retries", "--max-fold-retries", type=int, metavar="N",
        help="process pool: crash/timeout retries per fold before it is "
             "recorded as a failed evaluation (default: 1)")


def _execution_kwargs(arguments):
    """The execution knobs a parser built with the helper above has parsed."""
    return {name: getattr(arguments, name) for name in KNOBS if hasattr(arguments, name)}


def _session_kwargs(arguments):
    """What both run helpers take of the run parser's arguments."""
    return dict(
        budget=arguments.budget, tuner=arguments.tuner, selector=arguments.selector,
        n_splits=arguments.splits, random_state=arguments.seed, output=arguments.output,
        store_path=arguments.store_path, warm_start=arguments.warm_start,
        **_execution_kwargs(arguments),
    )


def build_parser():
    """Build the argument parser for the AutoBazaar CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.automl",
        description="Run an AutoBazaar pipeline search on a task stored on disk. "
                    "(Use `python -m repro.automl resume <run_dir>` to continue a "
                    "killed checkpointed run.)",
    )
    parser.add_argument("task_dir", nargs="+",
                        help="director(ies) written by repro.tasks.io.save_task; "
                             "several directories run as concurrent tenants of one "
                             "shared worker fleet (implies --fleet)")
    parser.add_argument("--fleet", action="store_true",
                        help="run the task(s) as tenants of a shared multi-tenant "
                             "worker fleet: one process pool, one data "
                             "plane and one prefix cache, with fair-share "
                             "skew-aware fold scheduling across the concurrent "
                             "searches (serial backend promoted to process)")
    parser.add_argument("--tenant-weight", type=float, action="append", default=None,
                        metavar="W",
                        help="fleet fair-share weight for one tenant; repeat once "
                             "per task directory, in order (default: equal shares)")
    parser.add_argument("--budget", type=int, default=20,
                        help="number of pipeline evaluations (default: 20)")
    parser.add_argument("--tuner", default="gp_ei",
                        help="tuner name: gp_ei, gp_matern52_ei, gcp_ei or uniform")
    parser.add_argument("--selector", default="ucb1",
                        help="selector name: ucb1, best_k, best_k_velocity, thompson or uniform")
    parser.add_argument("--splits", type=int, default=3,
                        help="cross-validation folds used to score candidates")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    _add_execution_arguments(parser, KNOBS)
    parser.add_argument("--store-path", default=None, metavar="DIR",
                        help="directory of a persistent (crash-safe JSONL) pipeline "
                             "store; records are durably appended as they are "
                             "reported, and history already in the store warm-starts "
                             "the tuners automatically")
    parser.add_argument("--warm-start", dest="warm_start", action="store_true",
                        help="force warm-starting tuners from the store history "
                             "(default: automatic when --store-path holds records)")
    parser.add_argument("--no-warm-start", dest="warm_start", action="store_false",
                        help="disable warm-starting even when the store holds history")
    parser.set_defaults(warm_start="auto")
    parser.add_argument("--run-dir", default=None, metavar="DIR",
                        help="run as a checkpointed, resumable experiment in DIR "
                             "(a record log whose every record carries its resume "
                             "witness); a killed run continues with "
                             "`python -m repro.automl resume DIR`")
    parser.add_argument("--output", default=None,
                        help="optional path for the JSON dump of every scored pipeline")
    return parser


def build_resume_parser():
    """Build the argument parser for ``python -m repro.automl resume``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.automl resume",
        description="Resume a killed checkpointed run from its run directory. The "
                    "durable record prefix is replayed to reconstruct the exact "
                    "search state, then the search continues; the final record "
                    "stream is identical to an uninterrupted run.  The options "
                    "apply to the remaining evaluations and may differ from the "
                    "original run's.",
    )
    parser.add_argument("run_dir", help="run directory created with --run-dir")
    _add_execution_arguments(parser, EXECUTION_ONLY)
    return parser


def _print_result(result):
    print()
    print("best template        : {}".format(result.best_template))
    print("cross-validation     : {}".format(result.best_score))
    print("held-out test score  : {}".format(result.test_score))
    if result.refit_error:
        print("refit error          : {}".format(result.refit_error))
    if result.cache_stats:
        print("prefix cache         : {mode} ({hits} hits / {misses} misses, "
              "{bytes_written} bytes written)".format(**result.cache_stats))
    fleet_stats = result.fleet_stats
    if fleet_stats:
        print("fleet tenant         : {tenant} (weight {weight:g}, "
              "{folds_dispatched} folds / {fold_seconds:.2f}s, "
              "queue hwm {queue_depth_hwm})".format(**fleet_stats))
        print("fault recovery       : {workers_died} workers died, "
              "{folds_retried} folds retried, {folds_timed_out} timed out, "
              "{pools_rebuilt} rebuilds, {folds_quarantined} quarantined".format(
                  **fleet_stats["supervisor"]))


def _resume_main(argv):
    from repro.automl.checkpoint import resume_run
    from repro.automl.search import ReplayMismatchError
    from repro.explorer import StoreCorruptionError, report

    arguments = build_resume_parser().parse_args(argv)
    try:
        run = resume_run(arguments.run_dir, **_execution_kwargs(arguments))
    except (FileNotFoundError, ValueError, CheckpointError,
            ReplayMismatchError, StoreCorruptionError) as error:
        print("error: {}".format(error), file=sys.stderr)
        return 1

    print(report(run.store, title="AutoBazaar run {}".format(run.manifest["task_name"])))
    print()
    print("run directory        : {}".format(run.run_dir))
    print("records in store     : {}".format(len(run.store)))
    _print_result(run.result)
    run.close()
    return 0


def _fleet_main(arguments, task_dirs):
    """Run the parsed task directories as concurrent fleet tenants."""
    if arguments.run_dir:
        print("error: --run-dir cannot be combined with fleet mode: checkpointed "
              "runs are single-tenant (run each task with its own --run-dir "
              "instead)", file=sys.stderr)
        return 1
    weights = arguments.tenant_weight
    if weights is not None and len(weights) != len(task_dirs):
        print("error: expected one --tenant-weight per task directory "
              "({} given for {} tasks)".format(len(weights), len(task_dirs)),
              file=sys.stderr)
        return 1
    try:
        session = run_fleet_from_directories(
            task_dirs, weights=weights, **_session_kwargs(arguments)
        )
    except (FileNotFoundError, ValueError) as error:
        print("error: {}".format(error), file=sys.stderr)
        return 1

    try:
        print(session.report())
        for result in session.results:
            print()
            print("task                 : {}".format(result.task_name))
            _print_result(result)
    finally:
        # the session owns its telemetry sink (the event-stream
        # descriptors) and the persistent store's lock
        session.close()
    if arguments.output:
        print()
        print("evaluation store     : {}".format(arguments.output))
    if arguments.store_path:
        print("persistent store     : {}".format(arguments.store_path))
    return 0


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "resume":
        return _resume_main(argv[1:])

    arguments = build_parser().parse_args(argv)
    task_dirs = list(arguments.task_dir)
    if arguments.fleet or len(task_dirs) > 1:
        return _fleet_main(arguments, task_dirs)
    if arguments.tenant_weight:
        print("error: --tenant-weight only applies to fleet mode", file=sys.stderr)
        return 1

    try:
        session = run_from_directory(
            task_dirs[0], run_dir=arguments.run_dir, **_session_kwargs(arguments),
        )
    except (FileNotFoundError, ValueError, CheckpointError) as error:
        print("error: {}".format(error), file=sys.stderr)
        return 1

    try:
        print(session.report())
        _print_result(session.results[-1])
    finally:
        session.close()
    if arguments.output:
        print("evaluation store     : {}".format(arguments.output))
    if arguments.store_path:
        print("persistent store     : {}".format(arguments.store_path))
    if arguments.run_dir:
        print("run directory        : {} (resume with `python -m repro.automl "
              "resume {}`)".format(arguments.run_dir, arguments.run_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
