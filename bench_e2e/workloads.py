"""The measured side of the benchmark: set-up, the four workloads, the metrics.

Runs inside the worker process that ``run.py`` supervises.  Importing this
module imports nothing of the program; :func:`prepare` does, so that the
imports are part of the measured set-up time.

Timing rule (the fix for the earlier, too-noisy attempt).  The box this was
sized on shifts between speed states that last from seconds to minutes and
differ by up to 30 % (measured: one fixed 1.4 s search took 1.11-1.98 s over
70 back-to-back repetitions), so neither one long pass nor a minimum over a
few reps repeats.  Every workload therefore repeats identical work ``reps``
times, cut into short *units* -- one ``AutoBazaarSearch.search`` call (solo
suites), one whole fleet pass, or one 20-record lap of the create -> kill ->
resume cycle -- and runs a fixed calibration kernel between units.  Each time
metric is the sum over units of the median over reps of the unit's time,
scaled by ``REFERENCE_KERNEL_S / (median kernel time of the run)``.  On
recorded samples the scaling cut the spread of a 5-rep estimate from 13.9 %
to 3.4 %.  Record digests must be equal across reps, so the median is always
taken over identical work.
"""

import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import threading
import time

import spec
import tracing


class CoordinatorKilled(BaseException):
    """Raised from ``on_report`` to stop a checkpointed run dead, like a kill.

    A ``BaseException`` so that no ``except Exception`` inside the program
    can swallow it; ``ExperimentRun.execute`` closes the store and lets it
    through, leaving exactly the durable state a killed process leaves.
    """


class Env:
    """What set-up produced: the workload's configuration, catalog and tasks."""

    def __init__(self, config, workdir):
        self.config = config
        self.workdir = workdir
        self.catalog = None
        self.tasks = []


def prepare(config, workdir, seed):
    """Set-up: import the program, build the catalog, generate the tasks."""
    import numpy  # noqa: F401 - imported here so set-up time includes it

    from repro.automl import default_template_catalog
    from repro.tasks import synth
    from repro.tasks.suite import TABLE_II_COUNTS, build_task_suite

    env = Env(config, workdir)
    env.catalog = default_template_catalog()
    if config["kind"] == "durable":
        env.tasks = [synth.make_community_detection(random_state=seed)]
    else:
        wanted = config.get("task_types")
        counts = {
            task_type: 1 for task_type in TABLE_II_COUNTS
            if wanted is None or tuple(task_type) in {tuple(item) for item in wanted}
        }
        env.tasks = list(build_task_suite(counts=counts, random_state=seed))
    os.makedirs(workdir, exist_ok=True)
    return env


# -- measuring one unit ---------------------------------------------------------------

#: Iterations of the calibration kernel, about 6 ms of pure interpreter work
#: (the searches are interpreter-bound too: on recorded samples this kernel
#: tracked them better than a NumPy one, 1.5 % against 2.6 % spread).
KERNEL_ITERATIONS = 150_000

#: What the kernel takes on the box the workloads were sized on, in its usual
#: state.  Scaled seconds equal wall seconds on a box exactly this fast.
REFERENCE_KERNEL_S = 0.0065


def kernel_seconds():
    """Time one run of the calibration kernel: the box's speed right now."""
    started = time.perf_counter()
    total = 0
    for value in range(KERNEL_ITERATIONS):
        total += value * value
    return time.perf_counter() - started


def _calibrated(units, samples):
    """Keep a pass's kernel samples with its first unit."""
    units[0]["kernel_samples"] = samples
    return units


def kernel_median(passes):
    """The run's kernel time: the median of every sample of every pass.

    One factor per run, not per pass: a pass has 10 to 20 samples and their
    median still moves by 20 %, which scaling pass by pass would add to the
    very times it is meant to steady.
    """
    return statistics.median(
        sample for units in passes for sample in units[0]["kernel_samples"]
    )


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _measured(work):
    """Run ``work``; returns its value with wall, total CPU and coordinator CPU.

    Total CPU adds the user+system time of the children reaped meanwhile:
    every pool a unit starts is joined before the unit ends, so its workers
    are in ``RUSAGE_CHILDREN`` by then.
    """
    children = _children_cpu()
    own = time.process_time()
    started = time.perf_counter()
    value = work()
    wall = time.perf_counter() - started
    own = time.process_time() - own
    return value, wall, own + _children_cpu() - children, own


def _outcome(result, budget):
    """Digest and quality numbers of one search's record stream."""
    from repro.automl.checkpoint import record_stream_digest

    records = result.records
    digest = record_stream_digest(record.to_dict() for record in records).hexdigest()
    evals_to_best = None
    for index, record in enumerate(records):
        if not record.failed and record.score == result.best_score:
            evals_to_best = index + 1
            break
    return {
        "task": result.task_name,
        "digest": digest,
        "proposed": budget,
        "reported": len(records),
        # failed, pruned and never-reported evaluations alike
        "failed": result.n_failed + max(0, budget - len(records)),
        "best_score": result.best_score,
        "evals_to_best": evals_to_best,
        "cache_stats": result.cache_stats,
        "fleet_stats": result.fleet_stats,
    }


def _searcher(env, **overrides):
    from repro.automl import AutoBazaarSearch

    config = env.config
    options = dict(
        n_splits=config["n_splits"], random_state=spec.SEARCH_SEED,
        estimator_seed=spec.SEARCH_SEED, n_pending=config["n_pending"],
        catalog=env.catalog,
    )
    options.update(overrides)
    return AutoBazaarSearch(**options)


def _solo_units(env, tracer):
    """One unit per task: a search that owns (and tears down) its backend."""
    config = env.config
    units = []
    samples = []
    for task in env.tasks:
        samples.append(kernel_seconds())

        def work(task=task):
            searcher = _searcher(
                env, backend=config["backend"],
                workers=spec.WORKERS if config["backend"] != "serial" else None,
            )
            with _unit_span(tracer):
                return searcher.search(task, budget=config["budget"])

        result, wall, cpu, own = _measured(work)
        units.append({
            "name": task.name, "wall": wall, "cpu": cpu, "coordinator_cpu": own,
            "searches": [_outcome(result, config["budget"])],
        })
    samples.append(kernel_seconds())
    return _calibrated(units, samples)


def _start_pool(env, fleet):
    """Fork the fleet's workers now, before any tenant thread exists.

    A process pool forks its workers inside its first ``submit``.  Left to
    the tenants, that fork happens while 14 other threads publish their tasks
    to shared memory, and a worker forked while one of them holds
    ``shm._TRACKER_LOCK`` inherits it locked and deadlocks on its first
    attach: one fold never completes and its tenant waits for ever (ROADMAP
    item 0; reproduced here once in 61 and once in ~50 passes).  A
    long-running fleet has its pool up before tenants arrive, so the workload
    does the same: one throw-away tenant evaluates one default candidate of
    the cheapest task.  Should the hang still occur, the supervisor kills the
    run and counts the lost evaluations as failed.
    """
    from repro.automl import EvaluationCandidate

    task = env.tasks[0]
    template = env.catalog.get(task.data_modality, task.problem_type)[0]
    starter = fleet.register(name="pool-start")
    try:
        starter.submit(EvaluationCandidate(
            iteration=0, template=template,
            hyperparameters=template.default_hyperparameters(), task=task,
            n_splits=env.config["n_splits"], random_state=spec.SEARCH_SEED,
        ))
        starter.collect_one()
    finally:
        starter.shutdown()


def _fleet_units(env, tracer):
    """One unit: every task a concurrent tenant of one shared fleet."""
    from repro.automl import FleetCoordinator

    config = env.config
    results = [None] * len(env.tasks)
    failures = []

    def tenant(index, task, handle):
        searcher = _searcher(
            env, backend=handle, prefix_cache="disk", cache_dir=fleet.cache_dir,
        )
        try:
            with _unit_span(tracer):
                results[index] = searcher.search(task, budget=config["budget"])
        except BaseException as failure:  # noqa: BLE001 - re-raised on the main thread
            failures.append(failure)

    def work():
        nonlocal fleet
        fleet = FleetCoordinator(
            backend=config["backend"], workers=spec.WORKERS, prefix_cache="disk",
        )
        try:
            _start_pool(env, fleet)
            handles = [
                fleet.register(name="t{}-{}".format(index, task.name))
                for index, task in enumerate(env.tasks)
            ]
            threads = [
                threading.Thread(target=tenant, args=(index, task, handle),
                                 name="tenant-{}".format(index), daemon=True)
                for index, (task, handle) in enumerate(zip(env.tasks, handles))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            fleet.close()
        if failures:
            raise failures[0]

    fleet = None
    # the pass is one unit, so the kernel brackets it: five runs either side
    samples = [kernel_seconds() for _ in range(5)]
    _, wall, cpu, own = _measured(work)
    samples += [kernel_seconds() for _ in range(5)]
    return _calibrated([{
        "name": "fleet_pass", "wall": wall, "cpu": cpu, "coordinator_cpu": own,
        "searches": [_outcome(result, config["budget"]) for result in results],
    }], samples)


class _Laps:
    """Cuts one stretch of coordinator work into consecutive timed units.

    Each cut also runs the calibration kernel, outside the timed laps.
    """

    def __init__(self):
        self.units = []
        self.samples = [kernel_seconds()]
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def cut(self, name):
        wall, cpu = time.perf_counter(), time.process_time()
        self.units.append({
            "name": name, "wall": wall - self._wall, "cpu": cpu - self._cpu,
            "coordinator_cpu": cpu - self._cpu, "searches": [],
        })
        self.samples.append(kernel_seconds())
        self._wall, self._cpu = time.perf_counter(), time.process_time()


#: Records per timed unit of the durable cycle.  The cycle is cut at report
#: boundaries (``on_report``) into laps of about a third of a second so that
#: the per-unit median over reps works on pieces shorter than the box's
#: speed states, exactly as it does on the per-task units of the suites.
DURABLE_LAP = 20


def _durable_units(env, tracer, rep):
    """Create a checkpointed run, kill it half way, resume it: one lap per unit."""
    from repro.automl import ExperimentRun

    config = env.config
    run_dir = os.path.join(env.workdir, "run-{}".format(rep))
    shutil.rmtree(run_dir, ignore_errors=True)
    execution = dict(backend=config["backend"], prefix_cache="mem", telemetry="run-dir")
    laps = _Laps()

    def lap(prefix, kill_at=None):
        def on_report(state):
            reported = state["n_reported"]
            if reported % DURABLE_LAP == 0:
                laps.cut("{}-{:03d}".format(prefix, reported))
            if kill_at is not None and reported >= kill_at:
                raise CoordinatorKilled()
        return on_report

    with _unit_span(tracer):
        run = ExperimentRun.create(
            run_dir, task=env.tasks[0], budget=config["budget"],
            n_splits=config["n_splits"], random_state=spec.SEARCH_SEED,
            n_pending=config["n_pending"], checkpoint_every=1,
        )
        laps.cut("create")
        try:
            run.execute(on_report=lap("live", config["kill_at"]), **execution)
        except CoordinatorKilled:
            pass
        else:
            raise AssertionError("the kill hook never fired")
        # resume_run(run_dir) is open + execute; spelled out to pass the lap hook
        resumed = ExperimentRun.open(run_dir)
        result = resumed.execute(on_report=lap("resumed"), **execution)
        try:
            iterations = sorted(document["iteration"] for document in resumed.store)
        finally:
            resumed.close()
        laps.cut("finish")

    outcome = _outcome(result, config["budget"])
    outcome["store_complete"] = iterations == list(range(config["budget"]))
    laps.units[-1]["searches"] = [outcome]
    laps.units[-1]["run_dir"] = run_dir
    return _calibrated(laps.units, laps.samples)


def _unit_span(tracer):
    return tracer.span(tracing.UNIT_SPAN) if tracer is not None else contextlib.nullcontext()


def run_pass(env, rep, tracer=None):
    """One rep: every unit of the workload once; returns the unit measurements."""
    kind = env.config["kind"]
    if kind == "suite":
        return _solo_units(env, tracer)
    if kind == "fleet":
        return _fleet_units(env, tracer)
    return _durable_units(env, tracer, rep)


# -- aggregation ----------------------------------------------------------------------


def searches(passes):
    """Every search outcome of ``passes``, in rep, unit and tenant order."""
    return [search for units in passes for unit in units for search in unit["searches"]]


def planned_evaluations(config, n_tasks):
    """Evaluations one rep proposes."""
    return config["budget"] * n_tasks


def pass_digest(units):
    """One digest over every search of a pass, in unit and tenant order."""
    hasher = hashlib.sha256()
    for search in searches([units]):
        hasher.update(search["task"].encode("utf-8"))
        hasher.update(search["digest"].encode("utf-8"))
    return hasher.hexdigest()


def robust_sum(passes, field, scaled=True):
    """Sum over units of the median over reps of ``field``, in scaled seconds."""
    total = sum(
        statistics.median(units[index][field] for units in passes)
        for index in range(len(passes[0]))
    )
    return total * REFERENCE_KERNEL_S / kernel_median(passes) if scaled else total


def check_passes(config, passes):
    """Output checks made inside every run; returns a list of problems."""
    problems = []
    digests = {pass_digest(units) for units in passes}
    if len(digests) != 1:
        problems.append("record digests differ across reps: {}".format(sorted(digests)))
    for search in searches(passes):
        if search["reported"] != search["proposed"]:
            problems.append("{}: {} of {} evaluations reported".format(
                search["task"], search["reported"], search["proposed"]))
        if search["best_score"] is None:
            problems.append("{}: no pipeline scored".format(search["task"]))
        if search.get("store_complete") is False:
            problems.append("{}: store incomplete after resume".format(search["task"]))
    return problems


def replay_cross_check(run_dir):
    """The replayer must re-derive the record log from the event stream."""
    from repro.telemetry.replayer import load_events, load_record_documents, replay_run

    documents = load_record_documents(os.path.join(run_dir, "store"))
    report = replay_run(load_events(run_dir), record_documents=documents)
    return len(report["records"]), len(documents)


def spot_oracle(env, passes):
    """Serial search of the cheapest task; its digest is the pool's oracle.

    The full cross-workload comparison is ``run.py --check``; this is the
    part of it cheap enough (<0.1 s) to repeat inside every pool run.
    """
    budget = env.config["budget"]
    result = _searcher(env, backend="serial").search(env.tasks[0], budget=budget)
    return passes[0][0]["searches"][0]["digest"] == _outcome(result, budget)["digest"]


def end_to_end(config, passes, n_tasks):
    evaluations = planned_evaluations(config, n_tasks)
    wall = robust_sum(passes, "wall")
    cpu = robust_sum(passes, "cpu")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "pipelines_per_s": evaluations / wall,
        "cpu_s_per_pipeline": cpu / evaluations,
        "peak_rss_mb": max(own, children) / 1024.0,
    }


def quality(units):
    """Search-quality numbers of one pass (every pass of a run has the same)."""
    found = searches([units])
    scores = [search["best_score"] for search in found if search["best_score"] is not None]
    firsts = [search["evals_to_best"] for search in found if search["evals_to_best"]]
    proposed = sum(search["proposed"] for search in found)
    return {
        "search.best_score_mean": sum(scores) / len(scores) if scores else 0.0,
        "search.evals_to_best_mean": sum(firsts) / len(firsts) if firsts else 0.0,
        "search.failed_share": sum(search["failed"] for search in found) / proposed,
    }


# -- per-layer metrics from one traced pass ---------------------------------------------


def _directory_bytes(path):
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def per_layer(env, tracer, traced, untraced):
    """Every per-layer metric, from the traced pass ``traced``.

    ``untraced`` is the same pass run just before without wrappers; the
    difference of the two walls is the tracing overhead.
    """
    config = env.config
    totals = tracing.summarize(tracer)

    def duration(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def self_time(*names):
        return sum(totals.get(name, (0.0, 0.0, 0))[1] for name in names)

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2]

    found = searches([traced])
    wall = sum(unit["wall"] for unit in traced)
    untraced_wall = sum(unit["wall"] for unit in untraced)

    # attribution: the wall of the units is the top-level bench.unit spans; a
    # second is attributed when it lies in the self time of a layer's span,
    # and unattributed when only the search loop or the harness covers it
    unit_wall = duration(tracing.UNIT_SPAN)
    unattributed = self_time(tracing.UNIT_SPAN, tracing.ROOT_SPAN)
    roots = {span["id"]: span for span in tracer.spans if span["name"] == tracing.ROOT_SPAN}

    folds = tracer.folds
    costs = [fold["end"] - fold["start"] for fold in folds]
    busy = sum(costs)
    if config["kind"] == "fleet":
        groups = [(costs, wall)]
    else:
        by_search = {}
        for fold, cost in zip(folds, costs):
            by_search.setdefault(fold["search"], []).append(cost)
        groups = [
            (group, roots[search]["end"] - roots[search]["start"])
            for search, group in by_search.items() if search in roots
        ]
    pool_wall = sum(seconds for _costs, seconds in groups)
    attaches = sum(fold["layers"].get("shm.attach", (0, 0, 0))[2] for fold in folds)

    cache = {"hits": 0, "misses": 0, "bytes_written": 0}
    for search in found:
        for key in cache:
            cache[key] += (search["cache_stats"] or {}).get(key, 0)
    lookups = cache["hits"] + cache["misses"]
    fleet_stats = [search["fleet_stats"] for search in found if search["fleet_stats"]]
    finishes = [span["end"] for span in roots.values()] if config["kind"] == "fleet" else []

    replay_s = 0.0
    replay_count = 0
    for name, value, search in tracer.marks:
        if name == "checkpoint.replay_end" and search in roots:
            replay_s += value - roots[search]["start"]
        elif name == "checkpoint.replay_count":
            replay_count += value
    run_dir = traced[-1].get("run_dir")
    event_count = 0
    if run_dir:
        from repro.telemetry.replayer import load_events
        event_count = len(load_events(run_dir))

    metrics = {
        "learners.step_fit_s": duration("learners.step_fit"),
        "learners.step_produce_s": duration("learners.step_produce"),
        "core.pipeline_fit_s": duration("core.pipeline_fit"),
        "core.pipeline_predict_s": duration("core.pipeline_predict"),
        "core.glue_self_s": self_time("core.pipeline_fit", "core.pipeline_predict",
                                      "core.build_pipeline"),
        "tasks.cv_split_s": self_time("tasks.cv_split"),
        "tasks.score_s": self_time("tasks.score"),
        "tuning.propose_s": self_time("tuning.propose"),
        "tuning.propose_count": calls("tuning.propose"),
        "tuning.record_s": self_time("tuning.record"),
        "tuning.select_s": self_time("tuning.select"),
        "search.loop_self_s": self_time(tracing.ROOT_SPAN),
        "search.coordinator_cpu_s": sum(unit["coordinator_cpu"] for unit in traced),
        "search.unattributed_s": unattributed,
        "search.attributed_share": 1.0 - unattributed / unit_wall if unit_wall else 0.0,
        "backends.pool_start_s": self_time("backends.pool_start"),
        "backends.pool_shutdown_s": self_time("backends.pool_shutdown"),
        "backends.submit_s": self_time("backends.submit"),
        "backends.collect_wait_s": self_time("backends.collect_wait"),
        "backends.fold_count": len(folds),
        "backends.fold_busy_s": busy,
        "backends.dispatch_wait_s": sum(
            max(0.0, fold["start"] - fold["submitted"])
            for fold in folds if fold["submitted"] is not None
        ),
        "backends.worker_idle_share": (
            max(0.0, 1.0 - busy / (spec.WORKERS * pool_wall)) if pool_wall else 0.0
        ),
        "backends.sched_efficiency": tracing.sched_efficiency(groups, spec.WORKERS),
        "shm.publish_s": self_time("shm.publish"),
        "shm.publish_count": calls("shm.publish"),
        "shm.bytes_published": sum(
            value for name, value, _search in tracer.marks if name == "shm.bytes_published"
        ),
        "shm.attach_count": attaches,
        "shm.fallback_count": sum(
            1 for event in tracer.events if event["event"] == "shm_fallback"
        ),
        "fleet.folds_dispatched": sum(stats["folds_dispatched"] for stats in fleet_stats),
        "fleet.admission_wait_s": sum(tracing.admission_waits(tracer.events)),
        "fleet.queue_depth_hwm": max(
            [stats["queue_depth_hwm"] for stats in fleet_stats], default=0
        ),
        "fleet.tenant_finish_spread_s": max(finishes) - min(finishes) if finishes else 0.0,
        "prefix_cache.hits": cache["hits"],
        "prefix_cache.misses": cache["misses"],
        "prefix_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "prefix_cache.bytes_written": cache["bytes_written"],
        "explorer.store_add_s": self_time("explorer.store_add"),
        "explorer.log_append_s": self_time("explorer.log_append"),
        "explorer.log_bytes": _directory_bytes(os.path.join(run_dir, "store")) if run_dir else 0,
        "explorer.log_open_s": self_time("explorer.log_open"),
        "checkpoint.write_s": self_time("checkpoint.write", "checkpoint.after_report"),
        "checkpoint.write_count": calls("checkpoint.write"),
        "checkpoint.replay_s": replay_s,
        "checkpoint.replay_count": replay_count,
        "telemetry.emit_s": self_time("telemetry.emit"),
        "telemetry.event_count": event_count,
        "telemetry.bytes_written": (
            _directory_bytes(os.path.join(run_dir, "events")) if run_dir else 0
        ),
        "telemetry.close_s": self_time("telemetry.close", "telemetry.open"),
        "trace.overhead_share": (wall - untraced_wall) / untraced_wall,
    }
    metrics.update(quality(traced))
    return metrics


def write_trace(path, workload, seed, tracer, traced):
    """Dump the spans of the traced pass; the file is what a reader opens."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {
        "workload": workload,
        "seed": seed,
        "clock": "time.monotonic, seconds, shared by coordinator and workers",
        "spans": [
            {key: span[key] for key in ("id", "name", "start", "end", "parent", "search",
                                        "self", "thread")}
            for span in tracer.spans
        ],
        "folds": tracer.folds,
        "events": tracer.events,
        "units": [
            {key: unit[key] for key in ("name", "wall", "cpu", "coordinator_cpu")}
            for unit in traced
        ],
    }
    temporary = path + ".tmp"
    with open(temporary, "w") as stream:
        json.dump(payload, stream)
    os.replace(temporary, path)
