"""Tests for AutoBazaar sessions and the command-line interface."""

import json
import os

import pytest

from repro.automl import AutoBazaarSession, run_from_directory
from repro.automl.__main__ import build_parser, build_resume_parser, main
from repro.tasks import save_task, synth
from repro.tuning.selectors import ThompsonSamplingSelector, UCB1Selector
from repro.tuning.tuners import UniformTuner


@pytest.fixture(scope="module")
def task():
    return synth.make_single_table_classification(n_samples=90, random_state=11)


class TestAutoBazaarSession:
    def test_solve_records_results_and_store(self, task):
        session = AutoBazaarSession(budget=4, n_splits=2, random_state=0)
        result = session.solve(task)
        assert result.best_score is not None
        assert len(session.results) == 1
        assert len(session.store) == 4

    def test_solve_suite_accumulates(self):
        from repro.tasks import build_task_suite
        from repro.tasks.types import TaskType

        suite = build_task_suite(
            counts={TaskType("single_table", "classification"): 2}, random_state=1
        )
        session = AutoBazaarSession(budget=3, n_splits=2, random_state=0)
        results = session.solve_suite(suite)
        assert len(results) == 2
        assert len(session.store) == 6

    def test_tuner_and_selector_resolved_by_name(self, task):
        session = AutoBazaarSession(budget=3, tuner="uniform", selector="thompson",
                                    n_splits=2, random_state=0)
        assert session.tuner_class is UniformTuner
        assert session.selector_class is ThompsonSamplingSelector
        assert session.solve(task).best_score is not None

    def test_unknown_tuner_name_rejected(self):
        with pytest.raises(ValueError):
            AutoBazaarSession(tuner="grid_search")

    def test_summary_and_report(self, task):
        session = AutoBazaarSession(budget=4, n_splits=2, random_state=0)
        session.solve(task)
        summary = session.summary()
        assert summary["n_solved_tasks"] == 1
        assert task.name in str(summary["best_templates"])
        text = session.report(title="session X")
        assert "session X" in text

    def test_warm_start_session_reuses_history(self, task):
        session = AutoBazaarSession(budget=4, n_splits=2, random_state=0, warm_start=True)
        first = session.solve(synth.make_single_table_classification(n_samples=90, random_state=3))
        second = session.solve(task)
        assert first.best_score is not None
        assert second.best_score is not None
        assert len(session.store) == 8

    def test_save_store(self, task, tmp_path):
        session = AutoBazaarSession(budget=3, n_splits=2, random_state=0)
        session.solve(task)
        path = session.save_store(tmp_path / "store.json")
        documents = json.loads((tmp_path / "store.json").read_text())
        assert len(documents) == 3
        assert str(path) == str(tmp_path / "store.json")

    def test_default_selector_is_ucb1(self):
        assert AutoBazaarSession().selector_class is UCB1Selector

    def test_in_memory_session_defaults_to_cold_start(self):
        assert AutoBazaarSession().warm_start is False


class TestPersistentSession:
    def test_store_path_persists_across_sessions(self, task, tmp_path):
        first = AutoBazaarSession(budget=3, n_splits=2, random_state=0,
                                  store_path=tmp_path / "store")
        first.solve(task)
        assert len(first.store) == 3

        second = AutoBazaarSession(budget=3, n_splits=2, random_state=0,
                                   store_path=tmp_path / "store")
        assert len(second.store) == 3  # yesterday's records are back

    def test_existing_store_enables_automatic_warm_start(self, task, tmp_path):
        from repro.tasks import synth

        first = AutoBazaarSession(budget=3, n_splits=2, random_state=0,
                                  store_path=tmp_path / "store")
        assert first.warm_start is False  # empty store: cold start
        first.solve(synth.make_single_table_classification(n_samples=90, random_state=3))

        second = AutoBazaarSession(budget=3, n_splits=2, random_state=0,
                                   store_path=tmp_path / "store")
        assert second.warm_start is True  # history found: harvest it
        result = second.solve(task)
        assert result.best_score is not None
        assert len(second.store) == 6

    def test_warm_start_false_overrides_auto(self, task, tmp_path):
        first = AutoBazaarSession(budget=3, n_splits=2, random_state=0,
                                  store_path=tmp_path / "store")
        first.solve(task)
        second = AutoBazaarSession(budget=3, n_splits=2, random_state=0,
                                   store_path=tmp_path / "store", warm_start=False)
        assert second.warm_start is False


class TestRunFromDirectory:
    def test_runs_saved_task(self, task, tmp_path):
        save_task(task, tmp_path / "task")
        session = run_from_directory(
            str(tmp_path / "task"), budget=3, n_splits=2, random_state=0,
            output=str(tmp_path / "out.json"),
        )
        assert len(session.results) == 1
        assert (tmp_path / "out.json").exists()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_from_directory(str(tmp_path / "nope"))


class TestCLI:
    def test_parser_defaults(self):
        arguments = build_parser().parse_args(["some/dir"])
        assert arguments.budget == 20
        assert arguments.tuner == "gp_ei"
        assert arguments.backend == "serial"
        assert arguments.workers is None
        assert arguments.n_pending == 1

    def test_parser_backend_options(self):
        arguments = build_parser().parse_args(
            ["some/dir", "--backend", "process", "--workers", "4", "--pending", "2"]
        )
        assert arguments.backend == "process"
        assert arguments.workers == 4
        assert arguments.n_pending == 2

    @pytest.mark.parametrize("removed", [["--worker-cache", "4"], ["--data-plane", "pickle"]])
    def test_transport_flags_are_gone_from_both_parsers(self, removed, capsys):
        # the transport is chosen per task, not by the user
        for parser, positional in ((build_parser(), "some/dir"),
                                   (build_resume_parser(), "some/run")):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([positional] + removed)
            assert excinfo.value.code == 2
            assert removed[0] not in parser.format_help()
        capsys.readouterr()

    def test_parser_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["some/dir", "--backend", "cluster"])

    def test_process_summary_prints_each_counter_once(self, task, tmp_path, capsys):
        save_task(task, tmp_path / "task")
        exit_code = main([
            str(tmp_path / "task"), "--budget", "3", "--splits", "2", "--seed", "0",
            "--backend", "process", "--workers", "2", "--prefix-cache", "mem",
        ])
        lines = capsys.readouterr().out.splitlines()
        assert exit_code == 0
        assert len([line for line in lines if line.startswith("prefix cache ")]) == 1
        # a solo process search is tenant "default" of a fleet of one: one
        # tenant line and no separate data-plane line
        assert len([line for line in lines
                    if line.startswith("fleet tenant         : default (")]) == 1
        assert len([line for line in lines
                    if line.startswith("fault recovery       : 0 workers died, ")]) == 1
        assert not [line for line in lines if line.startswith("task data planes")]

    def test_main_happy_path(self, task, tmp_path, capsys):
        save_task(task, tmp_path / "task")
        exit_code = main([
            str(tmp_path / "task"), "--budget", "3", "--splits", "2", "--seed", "0",
            "--output", str(tmp_path / "store.json"),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "best template" in captured.out
        assert (tmp_path / "store.json").exists()

    def test_main_missing_directory(self, tmp_path, capsys):
        exit_code = main([str(tmp_path / "does-not-exist")])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error" in captured.err

    def test_main_rejects_unknown_tuner(self, task, tmp_path, capsys):
        save_task(task, tmp_path / "task")
        exit_code = main([str(tmp_path / "task"), "--tuner", "banana"])
        assert exit_code == 1


class TestDurableCLI:
    def test_parser_durability_defaults(self):
        arguments = build_parser().parse_args(["some/dir"])
        assert arguments.store_path is None
        assert arguments.run_dir is None
        assert arguments.warm_start == "auto"

    def test_parser_refuses_checkpoint_every(self, capsys):
        # every record carries its witness: there is no cadence to choose
        with pytest.raises(SystemExit):
            build_parser().parse_args(["d", "--run-dir", "r", "--checkpoint-every", "1"])
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_parser_warm_start_flags(self):
        assert build_parser().parse_args(["d", "--warm-start"]).warm_start is True
        assert build_parser().parse_args(["d", "--no-warm-start"]).warm_start is False

    def test_main_with_store_path(self, task, tmp_path, capsys):
        save_task(task, tmp_path / "task")
        exit_code = main([
            str(tmp_path / "task"), "--budget", "3", "--splits", "2", "--seed", "0",
            "--store-path", str(tmp_path / "store"),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "persistent store" in captured.out
        from repro.explorer import PersistentPipelineStore
        assert len(PersistentPipelineStore(tmp_path / "store")) == 3

    def test_main_run_dir_then_resume(self, task, tmp_path, capsys):
        save_task(task, tmp_path / "task")
        exit_code = main([
            str(tmp_path / "task"), "--budget", "3", "--splits", "2", "--seed", "0",
            "--run-dir", str(tmp_path / "run"),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "resume with" in captured.out

        exit_code = main(["resume", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "best template" in captured.out
        assert "records in store     : 3" in captured.out

    def test_main_run_dir_rejects_reuse(self, task, tmp_path, capsys):
        save_task(task, tmp_path / "task")
        assert main([str(tmp_path / "task"), "--budget", "2", "--splits", "2",
                     "--run-dir", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        exit_code = main([str(tmp_path / "task"), "--budget", "2", "--splits", "2",
                          "--run-dir", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "resume" in captured.err

    def test_resume_missing_directory(self, tmp_path, capsys):
        exit_code = main(["resume", str(tmp_path / "nope")])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error" in captured.err

    def test_forced_warm_start_with_run_dir_requires_store_path(self, task, tmp_path, capsys):
        save_task(task, tmp_path / "task")
        exit_code = main([
            str(tmp_path / "task"), "--budget", "2", "--splits", "2",
            "--run-dir", str(tmp_path / "run"), "--warm-start",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "store" in captured.err.lower()


class TestTelemetryCLI:
    def test_parser_telemetry_default_off(self):
        assert build_parser().parse_args(["some/dir"]).telemetry is None

    def test_main_with_telemetry_path_records_events(self, task, tmp_path, capsys):
        from repro.telemetry import load_events, replay_run

        save_task(task, tmp_path / "task")
        events_dir = tmp_path / "events"
        exit_code = main([
            str(tmp_path / "task"), "--budget", "2", "--splits", "2", "--seed", "0",
            "--telemetry", str(events_dir),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "best template" in captured.out
        report = replay_run(load_events(events_dir))
        assert report["n_events"] > 0
        assert len(report["records"]) == 2
        # main closed its session: the session-owned sink's event-stream
        # descriptors are gone
        open_paths = [os.path.realpath(os.path.join("/proc/self/fd", name))
                      for name in os.listdir("/proc/self/fd")]
        assert not [path for path in open_paths if path.startswith(str(events_dir))]

    def test_main_telemetry_run_dir_requires_run_dir(self, task, tmp_path, capsys):
        save_task(task, tmp_path / "task")
        exit_code = main([
            str(tmp_path / "task"), "--budget", "2", "--splits", "2",
            "--telemetry", "run-dir",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "run-dir" in captured.err
