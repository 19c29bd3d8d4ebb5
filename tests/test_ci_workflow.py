"""Structural validation of the CI workflow (a dry-run stand-in for actionlint).

The pipeline is part of the contract: lint, tier-1 tests, the benchmark
smoke runs, the crash/resume durability smoke and the chaos suite must
stay distinct jobs, every benchmark job must upload its fresh record to
the single ``bench-gate`` job that diffs all committed ``BENCH_*.json``
baselines, the test job must cover the supported interpreter matrix,
and every job must keep pip caching on.
"""

import glob
import os

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = os.path.join(os.path.dirname(__file__), "..", ".github", "workflows", "ci.yml")

#: The benchmark jobs feeding the unified regression gate.
BENCH_JOBS = {"prefix-cache", "multi-tenant", "telemetry", "chaos"}


@pytest.fixture(scope="module")
def workflow():
    with open(WORKFLOW) as stream:
        return yaml.safe_load(stream)


def _runs(workflow, job):
    return [step.get("run", "") for step in workflow["jobs"][job]["steps"]]


def _uploads(workflow, job):
    return [step for step in workflow["jobs"][job]["steps"]
            if step.get("uses", "").startswith("actions/upload-artifact")]


def test_workflow_parses_and_triggers(workflow):
    assert workflow["name"] == "CI"
    # PyYAML parses the bare `on:` key as boolean True
    triggers = workflow.get("on", workflow.get(True))
    assert "push" in triggers
    assert "pull_request" in triggers
    assert triggers["push"]["branches"] == ["main"]


def test_lint_tests_and_smoke_runs_are_distinct_jobs(workflow):
    jobs = workflow["jobs"]
    assert set(jobs) == {"lint", "tests", "bench-smoke", "crash-resume", "e2e-check",
                         "prefix-cache", "multi-tenant", "telemetry", "chaos",
                         "bench-gate"}
    assert any("ruff check" in step.get("run", "") for step in jobs["lint"]["steps"])
    # both CLI parsers are built (a shared-helper flag fails at construction)
    assert ["python -m repro.automl --help", "python -m repro.automl resume --help"] in [
        step.get("run", "").split("\n")[:2] for step in jobs["lint"]["steps"]
    ]
    # then the set-up import breakdown is printed (report only)
    lint_runs = [step.get("run", "") for step in jobs["lint"]["steps"]]
    footprint = [index for index, run in enumerate(lint_runs)
                 if "scripts/import_footprint.py" in run]
    parsers = [index for index, run in enumerate(lint_runs)
               if "python -m repro.automl resume --help" in run]
    assert footprint and parsers and footprint[0] > parsers[0]
    # and beside it the per-primitive breakdown of a serial suite pass (report only)
    primitives = [index for index, run in enumerate(lint_runs)
                  if "scripts/primitive_footprint.py" in run]
    assert primitives and primitives[0] == footprint[0] + 1
    assert any("python -m pytest -x -q" in step.get("run", "")
               for step in jobs["tests"]["steps"])
    assert any('-k "pipeline_engine"' in step.get("run", "")
               for step in jobs["bench-smoke"]["steps"])


def test_prefix_cache_smoke_records_the_throughput_benchmark(workflow):
    """The cache's 1.5x throughput bar is CI-enforced and its fresh record
    handed to the unified bench gate."""
    runs = _runs(workflow, "prefix-cache")
    smoke = [run for run in runs if "scripts/record_bench.py" in run]
    assert smoke, "the prefix-cache job must run scripts/record_bench.py"
    assert "BENCH_prefix_cache.json" in smoke[0]
    uploads = _uploads(workflow, "prefix-cache")
    assert uploads and "BENCH_prefix_cache.json" in uploads[0]["with"]["path"]
    # the script and the committed benchmark record both exist
    root = os.path.join(os.path.dirname(__file__), "..")
    assert os.path.exists(os.path.join(root, "scripts", "record_bench.py"))
    assert os.path.exists(os.path.join(root, "BENCH_prefix_cache.json"))


def test_multi_tenant_smoke_records_the_benchmark(workflow):
    """The fleet's 0.8x/1.5x aggregate-throughput bars are CI-enforced and
    the fresh record handed to the unified bench gate."""
    runs = _runs(workflow, "multi-tenant")
    assert any("record_bench.py multi-tenant" in run
               and "BENCH_multi_tenant.json" in run
               for run in runs), "the job must record the multi-tenant benchmark"
    uploads = _uploads(workflow, "multi-tenant")
    assert uploads and "BENCH_multi_tenant.json" in uploads[0]["with"]["path"]
    # the committed benchmark record and the benchmark test both exist
    root = os.path.join(os.path.dirname(__file__), "..")
    assert os.path.exists(os.path.join(root, "BENCH_multi_tenant.json"))
    assert os.path.exists(os.path.join(root, "benchmarks",
                                       "test_bench_multi_tenant.py"))


def test_telemetry_job_runs_round_trip_and_overhead_gates(workflow):
    """The replay guarantee and the <= ~5% overhead bar are CI-enforced and
    the fresh overhead record handed to the unified bench gate."""
    runs = _runs(workflow, "telemetry")
    assert any("pytest tests/telemetry" in run for run in runs), (
        "the job must run the replayer round-trip smoke")
    assert any("record_bench.py telemetry" in run
               and "BENCH_telemetry_overhead.json" in run
               for run in runs), "the job must record the overhead benchmark"
    uploads = _uploads(workflow, "telemetry")
    assert uploads and "BENCH_telemetry_overhead.json" in uploads[0]["with"]["path"]
    # the committed benchmark record and the round-trip tests both exist
    root = os.path.join(os.path.dirname(__file__), "..")
    assert os.path.exists(os.path.join(root, "BENCH_telemetry_overhead.json"))
    assert os.path.exists(os.path.join(root, "tests", "telemetry",
                                       "test_replayer.py"))


def test_chaos_job_runs_fault_injection_and_recovery_gates(workflow):
    """The fault-masking guarantee and the 0.7x kill-recovery bar are
    CI-enforced and the fresh record handed to the unified bench gate."""
    runs = _runs(workflow, "chaos")
    assert any("tests/automl/test_fault_tolerance.py" in run for run in runs), (
        "the job must run the fault-injection chaos suite")
    assert any("tests/automl/test_supervisor.py" in run for run in runs), (
        "the job must run the supervised-pool unit tests")
    assert any("record_bench.py fault-tolerance" in run
               and "BENCH_fault_tolerance.json" in run
               for run in runs), "the job must record the fault-tolerance benchmark"
    refit = [run for run in runs if "tests/automl/test_refit_on_backend.py" in run]
    assert len(refit) == 2, "the job must run the refit suite, and its fleet cases repeatedly"
    assert "seq 1 20" in refit[1] and '-k "fleet and' in refit[1] and "|| exit 1" in refit[1]
    # every process search completes its folds through the fleet, so the
    # fleet suite rides the same loop, each run stopping it on a failure
    loop = refit[1].splitlines()
    assert any("tests/automl/test_fleet.py" in line and "-x" in line
               and "|| exit 1" in line for line in loop)
    # so does the Louvain memo shared by serial searches on caller threads
    # while a process search forks
    assert any("tests/automl/test_louvain_memo_fleet.py" in line and "-x" in line
               and "|| exit 1" in line for line in loop)
    # and a first SciPy import on a tenant thread while other threads fork
    assert any("tests/automl/test_lazy_import_fork.py" in line and "-x" in line
               and "|| exit 1" in line for line in loop)
    # the pair that once hung the fleet (ROADMAP item 0), stress-looped together
    stress = [run for run in runs if "tests/automl/test_session_and_cli.py" in run
              and "tests/telemetry/test_replayer.py" in run]
    assert len(stress) == 1, "the job must stress-loop the session/CLI + replayer pair"
    assert "seq 1 50" in stress[0] and " -x" in stress[0] and "|| exit 1" in stress[0]
    uploads = _uploads(workflow, "chaos")
    assert uploads and "BENCH_fault_tolerance.json" in uploads[0]["with"]["path"]
    # the committed benchmark record, the chaos suite and the benchmark
    # twin all exist
    root = os.path.join(os.path.dirname(__file__), "..")
    assert os.path.exists(os.path.join(root, "BENCH_fault_tolerance.json"))
    assert os.path.exists(os.path.join(root, "tests", "automl",
                                       "test_fault_tolerance.py"))
    assert os.path.exists(os.path.join(root, "tests", "automl",
                                       "test_refit_on_backend.py"))
    assert os.path.exists(os.path.join(root, "tests", "automl",
                                       "test_louvain_memo_fleet.py"))
    assert os.path.exists(os.path.join(root, "tests", "automl",
                                       "test_lazy_import_fork.py"))
    assert os.path.exists(os.path.join(root, "benchmarks",
                                       "test_bench_fault_tolerance.py"))


def test_bench_gate_diffs_every_committed_record(workflow):
    """One unified regression gate: every benchmark job feeds it and it
    diffs every committed BENCH_*.json within the 20% tolerance."""
    job = workflow["jobs"]["bench-gate"]
    assert set(job["needs"]) == BENCH_JOBS
    downloads = [step for step in job["steps"]
                 if step.get("uses", "").startswith("actions/download-artifact")]
    assert downloads, "the gate must collect the fresh records"
    assert downloads[0]["with"]["path"] == ".bench-fresh"
    assert downloads[0]["with"].get("merge-multiple") is True
    gate = [run for run in _runs(workflow, "bench-gate")
            if "check_bench_regression.py" in run]
    assert gate, "the gate must run the regression checker"
    assert "--tolerance 0.20" in gate[0]
    assert "--fresh-dir .bench-fresh" in gate[0]
    # every bench job uploads at least one fresh record, and together
    # they cover every committed baseline the gate will look for
    uploaded = set()
    for name in BENCH_JOBS:
        uploads = _uploads(workflow, name)
        assert uploads, "{} must upload its fresh record(s)".format(name)
        for step in uploads:
            uploaded.update(line.strip()
                            for line in step["with"]["path"].splitlines()
                            if line.strip())
    root = os.path.join(os.path.dirname(__file__), "..")
    committed = {os.path.basename(path)
                 for path in glob.glob(os.path.join(root, "BENCH_*.json"))}
    assert committed, "committed BENCH_*.json baselines must exist"
    assert committed <= uploaded, (
        "committed records {} have no uploading job".format(
            sorted(committed - uploaded)))
    assert os.path.exists(os.path.join(root, "scripts",
                                       "check_bench_regression.py"))


def test_crash_resume_smoke_runs_the_kill_and_resume_gate(workflow):
    """The durability guarantee is CI-enforced: kill a run, resume, compare."""
    steps = workflow["jobs"]["crash-resume"]["steps"]
    smoke = [step for step in steps
             if "scripts/crash_resume_smoke.py" in step.get("run", "")]
    assert smoke, "the crash-resume job must run scripts/crash_resume_smoke.py"
    # the script exists and is the same file the job references
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "crash_resume_smoke.py")
    assert os.path.exists(script)
    # ... and it gates the per-record witness size (and the absence of a
    # separate snapshot file) as well as the stream
    with open(script) as stream:
        source = stream.read()
    assert "WITNESS_MAX_BYTES = 256" in source
    assert source.count("_assert_witnesses_are_small(killed_dir") == 2


def test_e2e_check_runs_the_cross_workload_output_checks(workflow):
    """One record digest per task on serial / process / fleet is CI-enforced."""
    assert any("bench_e2e/run.py --check" in run for run in _runs(workflow, "e2e-check"))
    root = os.path.join(os.path.dirname(__file__), "..")
    assert os.path.exists(os.path.join(root, "bench_e2e", "run.py"))


#: The frozen-reference suites of the layers the record digests depend on.
EXACTNESS_SUITES = ("tests/tuning/test_gp_identity.py", "tests/learners/test_graph.py",
                    "tests/learners/test_tree_kernel_identity.py",
                    "tests/learners/test_image_kernel_identity.py",
                    "tests/automl/test_dispatch_identity.py")


def test_e2e_check_runs_the_exactness_suites_before_the_digests(workflow):
    """A digest break is preceded by the suite of the layer that diverged."""
    runs = _runs(workflow, "e2e-check")
    check = next(index for index, run in enumerate(runs) if "bench_e2e/run.py --check" in run)
    suites = [index for index, run in enumerate(runs)
              if "python -m pytest" in run and all(suite in run for suite in EXACTNESS_SUITES)]
    assert suites and suites[0] < check, "the exactness suites must run before --check"
    root = os.path.join(os.path.dirname(__file__), "..")
    for suite in EXACTNESS_SUITES:
        assert os.path.exists(os.path.join(root, suite)), suite


def test_tier1_matrix_covers_supported_interpreters(workflow):
    matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
    assert matrix == ["3.10", "3.11", "3.12"]


def test_every_job_is_well_formed_with_pip_caching(workflow):
    for name, job in workflow["jobs"].items():
        assert job["runs-on"] == "ubuntu-latest", name
        steps = job["steps"]
        assert isinstance(steps, list) and steps, name
        for step in steps:
            # exactly one of uses/run per step, and actions are pinned
            assert ("uses" in step) != ("run" in step), (name, step)
            if "uses" in step:
                action, _, version = step["uses"].partition("@")
                assert version, step["uses"]
        setup_steps = [step for step in steps
                       if step.get("uses", "").startswith("actions/setup-python")]
        assert setup_steps, name
        assert all(step["with"].get("cache") == "pip" for step in setup_steps), name
