"""Static guard: the engine's internal constructors take no unused settings.

Below ``ExecutionConfig`` the pool, fleet, sink, log and cache layers once
took settings that no caller set (a heartbeat period, a retry backoff, a
backlog, a per-tenant cap, segment and ring sizes, cache capacities, a
sweep directory).  Each is a module constant now.  This pins the parameter
list of every such callable, so a knob comes back only through a
deliberate edit here.  The durable run's entry points are pinned too:
they lost the snapshot cadence when the record log became the checkpoint.
The execution knobs themselves are pinned by name: batched evaluation left
with its ``batch_eval`` knob and fold-level early discard with its
``prune_margin`` knob, and every entry point refuses both.  The
``backend`` knob lost its ``"thread"`` value, which every entry point
refuses too.  The unit of
work and its outcome are pinned too, so a per-candidate discard hook
(``pruner``) or flag (``pruned``) comes back only deliberately.
"""

import inspect

import pytest

from repro.automl import AutoBazaarSearch, AutoBazaarSession, shm
from repro.automl.__main__ import build_parser, build_resume_parser
from repro.automl.backends import EvaluationCandidate, EvaluationOutcome, SerialBackend
from repro.automl.checkpoint import CheckpointManager, ExperimentRun
from repro.automl.config import KNOBS, STREAM_SHAPING
from repro.automl.fleet import FleetCoordinator
from repro.automl.prefix_cache import FittedPrefixCache, make_prefix_cache_config
from repro.automl.session import run_from_directory
from repro.automl.supervisor import SupervisedWorkerPool
from repro.explorer.persistence import PersistentPipelineStore, SegmentLog
from repro.telemetry.sink import TelemetrySink

#: callable -> its parameters, in order (``self`` left out)
SURFACE = {
    SupervisedWorkerPool: ["max_workers", "initializer", "fold_timeout", "max_fold_retries"],
    FleetCoordinator: ["backend", "execution"],
    FleetCoordinator.register: ["name", "weight"],
    TelemetrySink: ["directory"],
    TelemetrySink.flush: [],
    SegmentLog: ["directory", "durability"],
    PersistentPipelineStore: ["path", "durability"],
    FittedPrefixCache: ["cache_dir"],
    make_prefix_cache_config: ["mode", "cache_dir"],
    shm.sweep_stale_segments: [],
    run_from_directory: ["task_directory", "budget", "tuner", "selector", "n_splits",
                         "random_state", "output", "store_path", "warm_start", "run_dir",
                         "execution"],
    # ``checkpoint_every`` accepts only 1 (``bench_e2e/workloads.py`` passes it)
    ExperimentRun.create: ["run_dir", "task", "task_directory", "budget", "tuner",
                           "selector", "n_splits", "random_state", "holdout", "n_pending",
                           "max_seconds", "checkpoint_every", "warm_start_source"],
    CheckpointManager: ["run_dir", "replay", "on_report"],
    EvaluationCandidate: ["iteration", "template", "hyperparameters", "task", "n_splits",
                          "random_state", "template_name", "is_default", "cache_config",
                          "telemetry"],
    EvaluationOutcome: ["score", "raw_score", "error", "elapsed", "cache_hits",
                        "cache_misses", "cache_bytes", "pipeline"],
}


@pytest.mark.parametrize("target", list(SURFACE), ids=lambda target: target.__qualname__)
def test_parameter_list_is_pinned(target):
    parameters = list(inspect.signature(target).parameters)
    if parameters[:1] == ["self"]:
        parameters = parameters[1:]
    assert parameters == SURFACE[target]


def test_the_fleet_refuses_a_backlog():
    # a pinned list without ``**`` makes any other name a TypeError; the
    # fleet's ``**execution`` takes keywords, so its refusal is checked
    with pytest.raises(TypeError, match="max_backlog"):
        FleetCoordinator(backend="process", workers=1, max_backlog=1)


def test_the_execution_knobs_are_pinned():
    assert KNOBS == ("backend", "workers", "n_pending", "prefix_cache", "cache_dir",
                     "telemetry", "fold_timeout", "max_fold_retries")
    assert STREAM_SHAPING == ("n_pending",)


def test_batched_evaluation_is_no_option(tmp_path, capsys):
    for call in (lambda: AutoBazaarSearch(batch_eval=True),
                 lambda: AutoBazaarSession(batch_eval=True),
                 lambda: run_from_directory(str(tmp_path / "task"), batch_eval=True)):
        with pytest.raises(TypeError, match="batch_eval"):
            call()
    for parser, argv in ((build_parser(), ["task"]), (build_resume_parser(), ["run"])):
        with pytest.raises(SystemExit) as exited:
            parser.parse_args(argv + ["--batch-eval"])
        assert exited.value.code == 2
    assert "--batch-eval" in capsys.readouterr().err


def test_pruning_is_no_option(tmp_path, capsys):
    for call in (lambda: AutoBazaarSearch(prune_margin=0.1),
                 lambda: AutoBazaarSession(prune_margin=0.1),
                 lambda: run_from_directory(str(tmp_path / "task"), prune_margin=0.1),
                 lambda: FleetCoordinator(backend="process", workers=1, prune_margin=0.1)):
        with pytest.raises(TypeError, match="prune_margin"):
            call()
    for parser, argv in ((build_parser(), ["task"]), (build_resume_parser(), ["run"])):
        with pytest.raises(SystemExit) as exited:
            parser.parse_args(argv + ["--prune-margin", "0.1"])
        assert exited.value.code == 2
    assert "--prune-margin" in capsys.readouterr().err



#: Library entry points that take ``backend``, each refusing ``"thread"``.
THREAD_BACKEND_CALLS = {
    "AutoBazaarSearch": lambda tmp_path: AutoBazaarSearch(backend="thread"),
    "AutoBazaarSession": lambda tmp_path: AutoBazaarSession(backend="thread"),
    "run_from_directory": lambda tmp_path: run_from_directory(
        str(tmp_path / "task"), backend="thread"),
    "FleetCoordinator": lambda tmp_path: FleetCoordinator(backend="thread", workers=1),
}


@pytest.mark.parametrize("entry_point", list(THREAD_BACKEND_CALLS))
def test_the_thread_backend_is_no_option(entry_point, tmp_path):
    with pytest.raises(ValueError, match="Unknown backend 'thread'"):
        THREAD_BACKEND_CALLS[entry_point](tmp_path)


@pytest.mark.parametrize("parser, argv", [
    (build_parser, ["task"]), (build_parser, ["task", "--fleet"]),
    (build_resume_parser, ["resume-dir"]),
], ids=["run", "fleet", "resume"])
def test_thread_is_no_backend_flag(parser, argv, capsys):
    with pytest.raises(SystemExit) as exited:
        parser().parse_args(argv + ["--backend", "thread"])
    assert exited.value.code == 2
    assert "invalid choice: 'thread'" in capsys.readouterr().err


def test_the_thread_backend_is_not_exported():
    with pytest.raises(ImportError):
        from repro.automl import ThreadBackend  # noqa: F401


@pytest.mark.parametrize("backend", ["serial", SerialBackend, SerialBackend()],
                         ids=["name", "class", "instance"])
def test_a_fleet_pools_processes_only(backend):
    # the refusal of a known backend names the one a fleet takes, no other
    with pytest.raises(ValueError) as refused:
        FleetCoordinator(backend=backend, workers=1)
    assert str(refused.value) == "a fleet needs the 'process' backend, not {!r}".format(
        backend)
