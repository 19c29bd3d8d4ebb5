"""End-to-end AutoBazaar search benchmark: one command per workload.

    python3 bench_e2e/run.py --workload suite_serial --seed 0 --seconds 20 --trace 0

prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``); the line before
it carries the run's provenance.  Other modes:

    --check        cross-workload output checks (one digest on serial / process / fleet)
    --repeat K     K full sets of runs; medians, gaps and bounds per (metric, workload)
    --smoke        one serial pass over three cheap tasks (the tier-1 contract test)

The process that parses the command line is only a *supervisor*: it pins
BLAS/OpenMP to one thread, gives the run a scratch directory inside the
checkout, starts the measured work in a child process group with a hard
deadline, audits what the child left behind and removes it.  A hang is
reported as failed evaluations, never waited out.  README.md has the rest.
"""

import argparse
import faulthandler
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402 - needs HERE on the path

#: Thread pinning, set before NumPy is imported anywhere below this process.
#: Measured at the seed commit: unpinned BLAS doubles CPU (15.7 vs 8.3 CPU-s)
#: on this 2-core box for no wall gain, and makes CPU time noisy.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Hard deadline of one worker, about five times the measured wall of the
#: slowest workload and inside the 180 s the driver allows a run.
DEADLINE_SECONDS = 150.0

#: Fresh processes that only set up, beside the worker's own set-up; the
#: reported ``setup_s`` is the median of all of them.
SETUP_PROBES = 2

MAX_REPS = 12
DEFAULT_SECONDS = 24


# -- supervisor -------------------------------------------------------------------------


def _child_env(workdir):
    env = dict(os.environ)
    env.update(PINNED)
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _artifacts(workdir, pid):
    """What the worker ``pid`` left behind: its shm segments and temp files.

    Segment names carry the publisher's pid and ``TMPDIR`` points into the
    run's own scratch directory, so nothing of another process on the box
    (tier-1 leaves dozens of ``/tmp/repro-*`` behind) is counted or removed.
    """
    found = glob.glob("/dev/shm/repro-shm-{}-*".format(pid))
    found += glob.glob(os.path.join(workdir, "tmp", "repro-*"))
    return sorted(found)


def _group_members(pgid):
    """Live processes of process group ``pgid`` (zombies excluded)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _stragglers(pgid, grace=2.0):
    """Processes of the worker's group still alive ``grace`` seconds after it.

    multiprocessing's resource tracker exits on its own when the worker's
    end of their pipe closes, a moment after the worker; only what outlives
    the grace period is a leaked child.
    """
    deadline = time.monotonic() + grace
    while True:
        members = _group_members(pgid)
        if not members or time.monotonic() > deadline:
            return members
        time.sleep(0.02)


def _spawn(role, arguments, workdir, extra=()):
    """Start ``run.py --role <role>`` in its own process group."""
    command = [
        sys.executable, os.path.abspath(__file__), "--role", role,
        "--workload", arguments.workload, "--seed", str(arguments.seed),
        "--seconds", str(arguments.seconds), "--trace", str(arguments.trace),
        "--workdir", workdir, "--spawned-at", repr(time.monotonic()), *extra,
    ]
    with open(os.path.join(workdir, role + ".log"), "ab") as log:
        return subprocess.Popen(
            command, env=_child_env(workdir), cwd=ROOT, start_new_session=True,
            stdout=log, stderr=log,
        )


def _read_json(path):
    try:
        with open(path) as stream:
            return json.load(stream)
    except (OSError, ValueError):
        return None


def _setup_probe(arguments, workdir, index):
    """Set-up time of one fresh process that sets up and exits."""
    result_path = os.path.join(workdir, "probe-{}.json".format(index))
    child = _spawn("probe", arguments, workdir, ["--result", result_path])
    try:
        child.wait(timeout=20)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    result = _read_json(result_path)
    if child.returncode != 0 or result is None:
        _replay_log(workdir, "probe")
        raise SystemExit("set-up probe failed with exit code {}".format(child.returncode))
    return result["setup_s"]


def _replay_log(workdir, role, tail=200):
    """Show the end of a failed child's output (stack dumps included)."""
    try:
        with open(os.path.join(workdir, role + ".log"), errors="replace") as stream:
            sys.stderr.writelines(stream.readlines()[-tail:])
    except OSError:
        pass


def supervise(arguments, config=None):
    """Run one workload in a watched child; returns ``(result, provenance)``.

    ``result`` has the keys of the contract's output line.  Raises
    ``SystemExit`` when the child fails or has to be killed.
    """
    workdir = os.path.join(HERE, ".work", "{}-{}".format(arguments.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    load_start = os.getloadavg()[0]
    result_path = os.path.join(workdir, "result.json")
    progress_path = os.path.join(workdir, "progress.json")
    extra = ["--result", result_path, "--progress", progress_path]
    if config is not None:
        extra += ["--config", json.dumps(config)]
    try:
        probes = []
        if not arguments.trace and config is None:
            probes = [_setup_probe(arguments, workdir, index) for index in range(SETUP_PROBES)]
        worker = _spawn("worker", arguments, workdir, extra)
        killed = False
        try:
            worker.wait(timeout=DEADLINE_SECONDS)
        except subprocess.TimeoutExpired:
            # the worker's own faulthandler timer has dumped every stack by now
            killed = True
        stragglers = [] if killed else _stragglers(worker.pid)
        if killed or stragglers:
            os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        leaked = _artifacts(workdir, worker.pid)
        for path in leaked:
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        result = _read_json(result_path)
        if killed or worker.returncode != 0 or result is None:
            progress = _read_json(progress_path) or {"attempted": 0, "reported": 0}
            failure = {
                "correct": False,
                "attempted": progress["attempted"],
                # a hang or a kill counts every evaluation not reported as failed
                "failed": progress["attempted"] - progress["reported"],
                "reason": "deadline of {:.0f}s passed".format(DEADLINE_SECONDS) if killed
                          else "worker exited with code {}".format(worker.returncode),
            }
            _replay_log(workdir, "worker")
            print(json.dumps(failure), file=sys.stderr)
            raise SystemExit(3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, ".work"))
        except OSError:
            pass

    leak_count = len(leaked) + len(stragglers)
    metrics = result["metrics"]
    if arguments.trace:
        metrics["backends.leaked_artifacts"] = leak_count
        names, units = spec.PER_LAYER_NAMES, spec.PER_LAYER_UNITS
    else:
        samples = probes + [result["provenance"]["setup_s"]]
        metrics["setup_s"] = statistics.median(samples)
        result["provenance"]["setup_samples_s"] = samples
        names, units = spec.END_TO_END_NAMES, spec.END_TO_END_UNITS
    provenance = result["provenance"]
    provenance.update({
        "load_1min_start": load_start,
        "load_1min_end": os.getloadavg()[0],
        "leaked_artifacts": leaked + ["pid {}".format(pid) for pid in stragglers],
        "git_sha": _git_sha(),
    })
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    return line, provenance


def _git_sha():
    """HEAD of the checkout, read without starting git; the driver's has none."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as stream:
            head = stream.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as stream:
                return stream.read().strip()
        return head
    except OSError:
        return "unknown"


# -- worker and probe (the measured process) ---------------------------------------------


def _write_json(path, payload, indent=None):
    temporary = path + ".tmp"
    with open(temporary, "w") as stream:
        json.dump(payload, stream, indent=indent)
    os.replace(temporary, path)


def _ready(arguments):
    """Set up and return ``(env, setup_s)``; the clock started in the supervisor."""
    import workloads

    config = spec.WORKLOADS.get(arguments.workload)
    if arguments.config:
        config = json.loads(arguments.config)
    env = workloads.prepare(config, arguments.workdir, arguments.seed)
    return env, time.monotonic() - arguments.spawned_at


def probe_main(arguments):
    _env, setup_s = _ready(arguments)
    _write_json(arguments.result, {"setup_s": setup_s})
    return 0


def worker_main(arguments):
    faulthandler.enable()
    faulthandler.dump_traceback_later(DEADLINE_SECONDS - 5.0, exit=False)
    import numpy

    import tracing
    import workloads

    env, setup_s = _ready(arguments)
    config = env.config
    planned = workloads.planned_evaluations(config, len(env.tasks))
    measure_start = time.perf_counter()
    passes = []
    tracer = None

    def starting_rep():
        # the rep about to run counts as attempted in full: if the supervisor
        # has to kill this process, whatever it did not report has failed
        done = sum(search["reported"] - search["failed"]
                   for search in workloads.searches(passes))
        _write_json(arguments.progress, {
            "attempted": planned * (len(passes) + 1), "reported": done,
        })

    def another_rep():
        if len(passes) < config["min_reps"]:
            return True
        spent = time.perf_counter() - measure_start
        return len(passes) < MAX_REPS and spent + spent / len(passes) <= arguments.seconds

    if arguments.trace:
        # warm-up, traced, untraced: the first pass of a process pays lazy
        # imports, so the traced pass is compared with the untraced one after it
        starting_rep()
        passes.append(workloads.run_pass(env, 0))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            starting_rep()
            passes.append(workloads.run_pass(env, 1, tracer))
        finally:
            tracer.uninstall()
        starting_rep()
        passes.append(workloads.run_pass(env, 2))
    else:
        while another_rep():
            starting_rep()
            passes.append(workloads.run_pass(env, len(passes)))

    problems = workloads.check_passes(config, passes)
    if config["kind"] == "durable":
        replayed, logged = workloads.replay_cross_check(passes[-1][-1]["run_dir"])
        if replayed != logged:
            problems.append("replayer rebuilt {} of {} records".format(replayed, logged))
    elif config["backend"] != "serial" and not workloads.spot_oracle(env, passes):
        problems.append("pool digest differs from the serial oracle on {}".format(
            env.tasks[0].name))

    attempted = planned * len(passes)
    failed = sum(search["failed"] for search in workloads.searches(passes))
    if arguments.trace:
        metrics = workloads.per_layer(env, tracer, passes[1], passes[2])
        trace_path = os.path.join(HERE, "out", "trace-{}.json".format(arguments.workload))
        workloads.write_trace(trace_path, arguments.workload, arguments.seed, tracer, passes[1])
    else:
        metrics = workloads.end_to_end(config, passes, len(env.tasks))

    _write_json(arguments.result, {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "provenance": {
            "workload": arguments.workload,
            "seed": arguments.seed,
            "search_seed": spec.SEARCH_SEED,
            "config": config,
            "reps": len(passes),
            "setup_s": setup_s,
            "problems": problems,
            "nproc": os.cpu_count(),
            "workers": spec.WORKERS,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "pinned": {name: os.environ.get(name) for name in PINNED},
            "pass_digest": workloads.pass_digest(passes[0]),
            "search_digests": {
                search["task"]: search["digest"] for search in workloads.searches(passes[:1])
            },
            "quality": workloads.quality(passes[0]),
            # the scaling behind the time metrics: the run's median kernel time
            # (and each rep's), and the headline rate as it reads without scaling
            "reference_kernel_s": workloads.REFERENCE_KERNEL_S,
            "kernel_s": workloads.kernel_median(passes),
            "kernel_s_per_rep": [workloads.kernel_median([units]) for units in passes],
            "unscaled_pipelines_per_s": planned / workloads.robust_sum(passes, "wall", False),
            # per-rep unit times, so the spread behind each median is inspectable
            "unit_wall_s": {
                unit["name"]: [units[index]["wall"] for units in passes]
                for index, unit in enumerate(passes[0])
            },
            "unit_cpu_s": {
                unit["name"]: [units[index]["cpu"] for units in passes]
                for index, unit in enumerate(passes[0])
            },
        },
    })
    faulthandler.cancel_dump_traceback_later()
    return 0


# -- modes ------------------------------------------------------------------------------


def run_once(arguments):
    line, provenance = supervise(arguments)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def check(arguments):
    """One digest across serial / process / fleet; durable store and replay green."""
    digests = {}
    for workload in spec.WORKLOADS:
        config = dict(spec.WORKLOADS[workload], min_reps=1)
        arguments.workload, arguments.seconds, arguments.trace = workload, 0, 0
        line, provenance = supervise(arguments, config=config)
        if not line["correct"]:
            print("check FAILED: {} reports {}".format(workload, provenance["problems"]))
            return 1
        digests[workload] = provenance["search_digests"]
        print("{}: {} searches, digest {}".format(
            workload, len(digests[workload]), provenance["pass_digest"][:16]))
    oracle = digests["suite_serial"]
    for workload in ("suite_process", "suite_fleet"):
        differing = sorted(task for task in oracle if digests[workload].get(task) != oracle[task])
        if differing:
            print("check FAILED: {} differs from suite_serial on {}".format(workload, differing))
            return 1
    print("check OK: suite_serial, suite_process and every suite_fleet tenant share one "
          "digest per task; durable_cheap store complete, replayer cross-check green")
    return 0


def _spread(values):
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def repeat(arguments):
    """K sets of runs over ``--seeds`` seeds, judged as the driver judges them.

    Per (metric, workload): the median of each set, how much worse each later
    median is than the first, each set's quartile spread over its median, and
    the bound.  Fails when a later median is worse than the first by more than
    the bound or (``setup_s`` excepted) a spread exceeds it.  The report is
    also written to ``out/repeatability.json``.
    """
    seeds = list(range(arguments.seed, arguments.seed + arguments.seeds))
    values = {}  # (workload, metric) -> one list of per-seed values per set
    for index in range(arguments.repeat):
        for workload in spec.WORKLOADS:
            for seed in seeds:
                arguments.workload, arguments.seed, arguments.trace = workload, seed, 0
                line, _provenance = supervise(arguments)
                if not line["correct"]:
                    print("repeat FAILED: {} seed {} is not correct".format(workload, seed))
                    return 1
                for name, metric in line["metrics"].items():
                    sets = values.setdefault(
                        (workload, name), [[] for _ in range(arguments.repeat)])
                    sets[index].append(metric["value"])
            print("set {} {} done".format(index, workload), file=sys.stderr)
    rows = []
    for name, _unit, better, bound in spec.END_TO_END:
        sign = 1.0 if better == "lower" else -1.0
        for workload in spec.WORKLOADS:
            sets = values[(workload, name)]
            medians = [statistics.median(per_seed) for per_seed in sets]
            gaps = [sign * (median - medians[0]) / medians[0] for median in medians[1:]]
            spreads = [_spread(per_seed) for per_seed in sets] if len(seeds) >= 2 else []
            ok = all(gap <= bound for gap in gaps) and (
                name == "setup_s" or all(spread <= bound for spread in spreads))
            rows.append({
                "metric": name, "workload": workload, "bound": bound, "medians": medians,
                "worsening_vs_first": gaps, "spread_iqr_over_median": spreads,
                "within_bound": ok, "values": sets,
            })
            print("{:<20} {:<14} medians {}  worse by {}  spread {}  bound {}  {}".format(
                name, workload, ["{:.5g}".format(median) for median in medians],
                ["{:+.3f}".format(gap) for gap in gaps],
                ["{:.3f}".format(spread) for spread in spreads], bound,
                "ok" if ok else "OVER"))
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "repeatability.json"), {
        "sets": arguments.repeat, "seeds": seeds, "seconds": arguments.seconds,
        "nproc": os.cpu_count(), "git_sha": _git_sha(), "rows": rows,
    }, indent=1)
    return 0 if all(row["within_bound"] for row in rows) else 1


def smoke(arguments):
    arguments.workload, arguments.seconds = "smoke", 0
    line, _provenance = supervise(arguments, config=spec.SMOKE)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS) + ["smoke"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="keep adding reps while one more fits in this many seconds "
                             "(never fewer than the workload's minimum reps)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--repeat", type=int, metavar="K")
    parser.add_argument("--seeds", type=int, default=10, help="seeds per set of --repeat")
    parser.add_argument("--smoke", action="store_true")
    for internal in ("--role", "--workdir", "--result", "--progress", "--config"):
        parser.add_argument(internal, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)

    if arguments.role == "probe":
        return probe_main(arguments)
    if arguments.role == "worker":
        return worker_main(arguments)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench_e2e: {} holds no src/repro to measure".format(ROOT), file=sys.stderr)
        return 2
    if arguments.check:
        return check(arguments)
    if arguments.repeat:
        return repeat(arguments)
    if arguments.smoke:
        return smoke(arguments)
    if arguments.workload is None:
        parser.error("--workload is required")
    return run_once(arguments)


if __name__ == "__main__":
    sys.exit(main())
