"""One ``ExecutionConfig``: every entry point validates the same way, up front.

The execution knobs are declared, defaulted, normalised and validated by
:class:`repro.automl.config.ExecutionConfig` alone.  These tests pin that
from the outside: an invalid value raises the same exception with the same
message whichever entry point received it, before anything was opened or
started; the command-line parsers take their defaults from the dataclass;
and no function signature threads the knobs by hand again.
"""

import ast
import math
import multiprocessing
import os
import re
import shutil
import threading
from pathlib import Path

import pytest

from repro.automl import (
    AutoBazaarSearch,
    AutoBazaarSession,
    ExperimentRun,
    FleetCoordinator,
    SerialBackend,
    resume_run,
    run_fleet_from_directories,
    run_from_directory,
)
from repro.automl.__main__ import build_parser, build_resume_parser, main
from repro.automl.checkpoint import record_stream_digest
from repro.automl.config import EXECUTION_ONLY, KNOBS, STREAM_SHAPING, ExecutionConfig
from repro.explorer import PersistentPipelineStore, StoreCorruptionError
from repro.tasks import save_task, synth

REPO = Path(__file__).resolve().parents[2]

#: Entry points that run inside an existing run directory.
RUN_ENTRY_POINTS = ("ExperimentRun.execute", "resume_run", "cli-resume")

#: ``(id, invalid keywords, exception, message pattern, entry points it is
#: not meaningful for)``.  A stream-shaping knob cannot be passed to a
#: resume at all, a fleet promotes the serial backend, and argparse
#: rejects a value outside its ``choices`` itself (exit code 2).
INVALID = [
    ("unknown-schedule", {"schedule": "zigzag"}, ValueError, "Unknown schedule",
     RUN_ENTRY_POINTS + ("cli", "cli-fleet")),
    ("unknown-cache-mode", {"prefix_cache": "bogus"}, ValueError, "Unknown prefix-cache mode",
     ("cli", "cli-fleet", "cli-resume")),
    ("unknown-backend", {"backend": "cluster"}, ValueError, "Unknown backend",
     ("cli", "cli-fleet", "cli-resume")),
    ("negative-prune-margin", {"prune_margin": -0.5}, ValueError, "prune margin",
     RUN_ENTRY_POINTS),
    ("nan-prune-margin", {"prune_margin": math.nan}, ValueError, "prune margin",
     RUN_ENTRY_POINTS),
    ("fold-timeout-on-threads", {"backend": "thread", "fold_timeout": 5.0}, ValueError,
     "only applies to the process backend", ()),
    ("fold-timeout-on-serial", {"backend": "serial", "fold_timeout": 5.0}, ValueError,
     "only applies to the process backend", ("run_fleet_from_directories", "cli-fleet")),
    ("fold-timeout-on-instance", {"backend": SerialBackend(), "fold_timeout": 5.0},
     ValueError, "existing backend instance", ("cli", "cli-fleet", "cli-resume")),
    ("negative-retries", {"backend": "process", "max_fold_retries": -1}, ValueError,
     "max_fold_retries must be non-negative", ()),
    ("zero-workers", {"backend": "process", "workers": 0}, ValueError,
     "workers must be at least 1", ()),
    ("run-dir-telemetry-without-run", {"telemetry": "run-dir"}, ValueError, "run-dir",
     RUN_ENTRY_POINTS),
    ("unknown-keyword", {"warp_factor": 9}, TypeError, "warp_factor",
     ("cli", "cli-fleet", "cli-resume")),
]

#: The one invalid combination that needs a run directory to exist.
PRUNED_RUN = ("prune-margin-in-a-run", {"prune_margin": 0.1}, ValueError,
              "checkpointed run", ())


def _flags(parser, execution):
    """``execution`` spelled as the command-line flags of ``parser``."""
    by_dest = {action.dest: action for action in parser._actions}
    argv = []
    for name, value in execution.items():
        argv.append(by_dest[name].option_strings[0])
        if by_dest[name].nargs != 0:
            argv.append(str(value))
    return argv


class _CliError(Exception):
    """Stand-in for the exception a CLI run printed as ``error: ...``."""


def _cli(argv, capsys):
    capsys.readouterr()
    exit_code = main(argv)
    assert exit_code == 1, "expected exit code 1 from {}".format(argv)
    message = capsys.readouterr().err.strip()
    assert message.startswith("error: ")
    raise _CliError(message[len("error: "):])


@pytest.fixture()
def workspace(tmp_path):
    """A saved task, an initialised run directory, and paths nothing may create."""
    task = synth.make_single_table_classification(n_samples=60, random_state=0)
    save_task(task, tmp_path / "task")
    ExperimentRun.create(tmp_path / "run", task=task, budget=2, n_splits=2, random_state=0)
    return tmp_path


def _entry_points(workspace, capsys):
    """``name -> callable(execution)`` for every way the knobs can arrive."""
    task_dir, run_dir = str(workspace / "task"), str(workspace / "run")
    store, new_run = str(workspace / "store"), str(workspace / "new-run")
    run_parser, resume_parser = build_parser(), build_resume_parser()
    return {
        "ExecutionConfig": lambda kw: ExecutionConfig.from_keywords(kw),
        "AutoBazaarSearch": lambda kw: AutoBazaarSearch(**kw),
        "AutoBazaarSession": lambda kw: AutoBazaarSession(store_path=store, **kw),
        "FleetCoordinator": lambda kw: FleetCoordinator(**kw),
        "run_from_directory": lambda kw: run_from_directory(task_dir, store_path=store, **kw),
        "run_fleet_from_directories": lambda kw: run_fleet_from_directories(
            [task_dir], store_path=store, **kw),
        "ExperimentRun.execute": lambda kw: ExperimentRun.open(run_dir).execute(**kw),
        "resume_run": lambda kw: resume_run(run_dir, **kw),
        "cli": lambda kw: _cli(
            [task_dir, "--store-path", store] + _flags(run_parser, kw), capsys),
        "cli-fleet": lambda kw: _cli(
            [task_dir, "--fleet", "--store-path", store] + _flags(run_parser, kw), capsys),
        "cli-resume": lambda kw: _cli(
            ["resume", run_dir] + _flags(resume_parser, kw), capsys),
        # the same two helpers, this time creating a checkpointed run
        "run_from_directory+run_dir": lambda kw: run_from_directory(
            task_dir, run_dir=new_run, **kw),
        "cli+run_dir": lambda kw: _cli(
            [task_dir, "--run-dir", new_run] + _flags(run_parser, kw), capsys),
    }


def _assert_untouched(workspace, threads_before):
    """Nothing was opened, created or started by the rejected call."""
    assert not (workspace / "store").exists()
    assert not (workspace / "new-run").exists()
    assert sorted(os.listdir(workspace / "run")) == ["manifest.json", "task"]
    assert multiprocessing.active_children() == []
    started = set(threading.enumerate()) - threads_before
    assert not [thread for thread in started if thread.is_alive()]


@pytest.mark.parametrize("case", INVALID, ids=[case[0] for case in INVALID])
def test_invalid_value_is_rejected_identically_and_up_front(case, workspace, capsys):
    _, execution, exception, pattern, exempt = case
    with pytest.raises(exception, match=pattern) as reference:
        ExecutionConfig.from_keywords(execution)
    driven = []
    for name, call in _entry_points(workspace, capsys).items():
        if name in exempt or name.endswith("+run_dir"):
            continue
        threads_before = set(threading.enumerate())
        expected = _CliError if name.startswith("cli") else exception
        with pytest.raises(expected) as raised:
            call(dict(execution))
        assert str(raised.value) == str(reference.value), name
        _assert_untouched(workspace, threads_before)
        driven.append(name)
    assert len(driven) >= 6, driven


def test_pruning_a_checkpointed_run_is_rejected_identically_and_up_front(workspace, capsys):
    _, execution, exception, pattern, _ = PRUNED_RUN
    with pytest.raises(exception, match=pattern) as reference:
        ExecutionConfig.from_keywords(execution, run_dir=str(workspace / "run"))
    entry_points = _entry_points(workspace, capsys)
    for name in RUN_ENTRY_POINTS[:2] + ("run_from_directory+run_dir", "cli+run_dir"):
        threads_before = set(threading.enumerate())
        expected = _CliError if name.startswith("cli") else exception
        with pytest.raises(expected) as raised:
            entry_points[name](dict(execution))
        assert str(raised.value) == str(reference.value), name
        _assert_untouched(workspace, threads_before)
    # the resume parser does not even have the flag
    with pytest.raises(SystemExit):
        build_resume_parser().parse_args(["run", "--prune-margin", "0.1"])
    capsys.readouterr()


def test_run_dir_telemetry_resolves_inside_a_run(workspace):
    config = ExecutionConfig.from_keywords({"telemetry": "run-dir"}, run_dir=workspace / "run")
    assert config.telemetry == str(workspace / "run" / "events")
    for spelling in (None, False, "off"):
        assert ExecutionConfig(telemetry=spelling).telemetry is None
    assert ExecutionConfig(telemetry=workspace / "events").telemetry == str(workspace / "events")


def test_a_resume_cannot_pass_what_the_manifest_fixes(workspace):
    for name in ("n_pending", "schedule"):
        with pytest.raises(TypeError, match=name):
            resume_run(workspace / "run", **{name: getattr(ExecutionConfig(), name)})
    assert set(STREAM_SHAPING) | set(EXECUTION_ONLY) == set(KNOBS)


def test_normalisation_happens_once_at_construction():
    config = ExecutionConfig(backend=None, n_pending=0, prefix_cache=None, batch_eval=1)
    assert (config.backend, config.n_pending, config.prefix_cache, config.batch_eval) == (
        "serial", 1, "off", True)
    # the keyword view hands the same objects on: nothing is deep-copied
    backend = SerialBackend()
    assert ExecutionConfig(backend=backend).as_kwargs()["backend"] is backend
    assert AutoBazaarSearch(backend=backend).execution.backend is backend


# -- parsers ------------------------------------------------------------------------


def test_parser_defaults_are_the_dataclass_defaults():
    defaults = ExecutionConfig()
    run = build_parser().parse_args(["some/task"])
    for name in KNOBS:
        assert getattr(run, name) == getattr(defaults, name), name
    resume = build_resume_parser().parse_args(["some/run"])
    assert sorted(vars(resume)) == sorted(EXECUTION_ONLY + ("run_dir",))
    for name in EXECUTION_ONLY:
        assert getattr(resume, name) == getattr(defaults, name), name


def test_readme_section_names_exactly_the_execution_flags():
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Execution configuration", 1)[1].split("\n## ", 1)[0]
    # one table row per knob: | `--flag ...` | `field` | default | kind | meaning |
    documented = dict(re.findall(r"^\| `(--[a-z-]+)[^`]*` \| `(\w+)` \|", section, re.M))
    on_parser = {
        action.option_strings[0]: action.dest
        for action in build_parser()._actions if action.dest in KNOBS
    }
    assert len(on_parser) == len(KNOBS)
    assert documented == on_parser
    for name in KNOBS:
        kind = "stream-shaping" if name in STREAM_SHAPING else "execution-only"
        assert re.search(r"\| `{}` \| [^|]+ \| {} \|".format(name, kind), section), name


# -- the threading cannot grow back ---------------------------------------------------


def _knob_threading_functions():
    """``(file, qualified name) -> declared knobs`` for functions declaring >= 3."""
    found = {}
    for path in sorted((REPO / "src" / "repro" / "automl").glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    arguments = child.args
                    declared = [
                        argument.arg
                        for argument in (arguments.posonlyargs + arguments.args
                                         + arguments.kwonlyargs)
                        if argument.arg in KNOBS
                    ]
                    if len(declared) >= 3:
                        found[(path.name, prefix + child.name)] = declared
                    visit(child, prefix + child.name + ".")
        visit(ast.parse(path.read_text()), "")
    return found


def test_no_signature_threads_the_knobs_by_hand():
    found = _knob_threading_functions()
    assert set(found) == {
        ("backends.py", "get_backend"),
        ("backends.py", "ProcessBackend.__init__"),
    }, found
    assert sum(len(declared) for declared in found.values()) == 7


# -- regressions that rode along ------------------------------------------------------


def test_session_does_not_leak_its_sink_when_the_store_fails_to_open(tmp_path):
    with PersistentPipelineStore(tmp_path / "store") as store:
        store.add({"task_name": "t", "template_name": "x", "score": 0.5})
    (tmp_path / "store" / "MANIFEST").write_text("no-such-segment.jsonl\n")
    events = tmp_path / "events"
    with pytest.raises(StoreCorruptionError):
        AutoBazaarSession(store_path=tmp_path / "store", telemetry=events)
    assert not [thread for thread in threading.enumerate()
                if thread.name == "telemetry-writer"]
    open_paths = [os.path.realpath(os.path.join("/proc/self/fd", name))
                  for name in os.listdir("/proc/self/fd")]
    assert not [path for path in open_paths if path.startswith(str(events))]


class _Kill(Exception):
    pass


def test_batch_eval_may_differ_between_a_run_and_its_resume(tmp_path, capsys):
    task = synth.make_single_table_classification(n_samples=60, random_state=0)
    options = dict(task=task, budget=8, n_splits=2, random_state=0, n_pending=3,
                   schedule="barrier")

    def digest(run):
        return record_stream_digest(run.store).hexdigest()

    with ExperimentRun.create(tmp_path / "whole", **options) as whole:
        whole.execute()
        expected = digest(whole)

    def kill(state):
        if state["n_reported"] >= 4:
            raise _Kill()

    with pytest.raises(_Kill):
        ExperimentRun.create(tmp_path / "killed", **options).execute(
            batch_eval=True, on_report=kill)
    shutil.copytree(tmp_path / "killed", tmp_path / "killed-too")

    with resume_run(tmp_path / "killed") as resumed:
        assert digest(resumed) == expected
    assert main(["resume", str(tmp_path / "killed-too"), "--batch-eval"]) == 0
    capsys.readouterr()
    with resume_run(tmp_path / "killed-too", batch_eval=True) as reopened:
        assert digest(reopened) == expected
