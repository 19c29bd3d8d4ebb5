"""Names and sizes of the end-to-end benchmark: the one place they are defined.

``BENCHMARK.json`` at the repository root repeats the workload and metric
names for the driver; ``test_contract.py`` keeps the two in step.  Nothing
here imports the program under test, so the supervisor process and the
static contract test can load it without NumPy.
"""

#: Worker processes of every pool workload.  Fixed at the core count of the
#: box the sizes were measured on (``nproc`` = 2, recorded in every run's
#: provenance); never raised to make a number look better.
WORKERS = 2

#: Seed of the *search* RNG (selector, tuners, estimators).  ``--seed`` makes
#: the inputs (the generated tasks); the search's own random draws are part of
#: the workload definition.  Measured at the seed commit: feeding ``--seed``
#: into the search RNG as well swings one serial pass between 5.4 s and
#: 14.4 s (the first uniform hyperparameter draws decide how many trees the
#: gradient-boosting templates grow), far outside any usable bound, while a
#: fixed search seed keeps passes over different task seeds within a few
#: percent.
SEARCH_SEED = 0

#: Candidates kept in flight per search on the three suite workloads.
SUITE_PENDING = 4

WORKLOADS = {
    "suite_serial": {
        "kind": "suite",
        "backend": "serial",
        "budget": 2,
        "n_splits": 2,
        "n_pending": SUITE_PENDING,
        "min_reps": 3,
        "why": "15 Table II task types, real catalog, serial backend: learners and "
               "pipeline glue are >=85% of wall; pools, shm and fleet do no work",
    },
    "suite_process": {
        "kind": "suite",
        "backend": "process",
        "budget": 2,
        "n_splits": 2,
        "n_pending": SUITE_PENDING,
        "min_reps": 3,
        "why": "same 15 searches on a process pool per task (2 workers, shm plane): "
               "pool start x15, dispatch/IPC and fold skew show here, not in suite_serial",
    },
    "suite_fleet": {
        "kind": "fleet",
        "backend": "process",
        "budget": 2,
        "n_splits": 2,
        "n_pending": SUITE_PENDING,
        "min_reps": 3,
        "why": "same 15 searches as concurrent tenants of one FleetCoordinator (one shared "
               "pool, stride admission, disk prefix cache): shared-pool costs solo pools hide",
    },
    "durable_cheap": {
        "kind": "durable",
        "backend": "serial",
        "budget": 240,
        "kill_at": 120,
        "n_splits": 3,
        "n_pending": 1,
        "min_reps": 3,
        "why": "one 7 ms/fold task as a checkpointed run killed half way and resumed: GP "
               "tuner, record log, checkpoints, telemetry and replay dominate, learners do not",
    },
}

#: Smoke configuration used by ``--smoke`` and the tier-1 contract test: one
#: serial pass over three cheap task types, no pools.
SMOKE = {
    "kind": "suite",
    "backend": "serial",
    "budget": 2,
    "n_splits": 2,
    "n_pending": 2,
    "min_reps": 1,
    "task_types": [
        ("graph", "community_detection"),
        ("graph", "link_prediction"),
        ("single_table", "classification"),
    ],
}

#: End-to-end metrics, identical on every workload, measured with tracing off.
#: ``(name, unit, better, bound)``; ``bound`` is the share of the parent's
#: median by which the metric may worsen.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pipelines_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_pipeline", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: Per-layer metrics of the traced run: ``(name, unit, better, moves)`` where
#: ``moves`` names the end-to-end metric and workload the layer metric is
#: expected to move (written down before measuring, choosing-metrics s3).
PER_LAYER = [
    ("learners.step_fit_s", "s", "lower", "pipelines_per_s, cpu_s_per_pipeline on suite_*"),
    ("learners.step_produce_s", "s", "lower", "pipelines_per_s, cpu_s_per_pipeline on suite_*"),
    ("core.pipeline_fit_s", "s", "lower", "pipelines_per_s, cpu_s_per_pipeline on suite_*"),
    ("core.pipeline_predict_s", "s", "lower", "pipelines_per_s, cpu_s_per_pipeline on suite_*"),
    ("core.glue_self_s", "s", "lower", "pipelines_per_s on suite_*; half that on durable_cheap"),
    ("tasks.cv_split_s", "s", "lower", "pipelines_per_s on suite_*; half that on durable_cheap"),
    ("tasks.score_s", "s", "lower", "pipelines_per_s on suite_*; half that on durable_cheap"),
    ("tuning.propose_s", "s", "lower", "pipelines_per_s on durable_cheap; none on suite_*"),
    ("tuning.propose_count", "count", "lower", "fixed by budget; a change means the loop changed"),
    ("tuning.record_s", "s", "lower", "pipelines_per_s on durable_cheap"),
    ("tuning.select_s", "s", "lower", "pipelines_per_s on durable_cheap"),
    ("search.loop_self_s", "s", "lower", "pipelines_per_s on durable_cheap and suite_fleet"),
    ("search.coordinator_cpu_s", "s", "lower", "cpu_s_per_pipeline on suite_fleet, durable_cheap"),
    ("search.unattributed_s", "s", "lower", "none: the remainder no layer explains"),
    ("search.attributed_share", "ratio", "higher", "none: coverage of the trace itself"),
    ("search.best_score_mean", "score", "higher", "search quality; exact for one seed"),
    ("search.evals_to_best_mean", "count", "lower", "search quality; exact for one seed"),
    ("search.failed_share", "ratio", "lower", "failed or unreported evaluations / proposed"),
    ("backends.pool_start_s", "s", "lower", "pipelines_per_s on suite_process (x15), fleet (x1)"),
    ("backends.pool_shutdown_s", "s", "lower", "pipelines_per_s on suite_process, suite_fleet"),
    ("backends.submit_s", "s", "lower", "pipelines_per_s on suite_process, suite_fleet"),
    ("backends.collect_wait_s", "s", "lower", "pipelines_per_s on suite_process, suite_fleet"),
    ("backends.fold_count", "count", "lower", "zero on suite_serial and durable_cheap"),
    ("backends.fold_busy_s", "s", "lower", "cpu_s_per_pipeline on suite_process, suite_fleet"),
    ("backends.dispatch_wait_s", "s", "lower", "pipelines_per_s on suite_process, suite_fleet"),
    ("backends.worker_idle_share", "ratio", "lower", "pipelines_per_s on the pool workloads"),
    ("backends.sched_efficiency", "ratio", "higher", "pipelines_per_s on the pool workloads"),
    ("backends.leaked_artifacts", "count", "lower", "none: shm segments, temp files, children"),
    ("shm.publish_s", "s", "lower", "pipelines_per_s on suite_process, suite_fleet"),
    ("shm.publish_count", "count", "lower", "one per task on the pool workloads"),
    ("shm.bytes_published", "B", "lower", "peak_rss_mb on suite_process, suite_fleet"),
    ("shm.attach_count", "count", "lower", "pipelines_per_s on suite_process, suite_fleet"),
    ("shm.fallback_count", "count", "lower", "tasks shipped by pickle instead of shm"),
    ("fleet.folds_dispatched", "count", "lower", "suite_fleet only"),
    ("fleet.admission_wait_s", "s", "lower", "pipelines_per_s on suite_fleet only"),
    ("fleet.queue_depth_hwm", "count", "lower", "suite_fleet only"),
    ("fleet.tenant_finish_spread_s", "s", "lower", "fairness of suite_fleet; nothing end to end"),
    ("prefix_cache.hits", "count", "higher", "pipelines_per_s on suite_fleet (cache on)"),
    ("prefix_cache.misses", "count", "lower", "pipelines_per_s on suite_fleet (cache on)"),
    ("prefix_cache.hit_ratio", "ratio", "higher", "suite_fleet; zero on suite_process (off)"),
    ("prefix_cache.bytes_written", "B", "lower", "pipelines_per_s on suite_fleet"),
    ("explorer.store_add_s", "s", "lower", "pipelines_per_s on durable_cheap"),
    ("explorer.log_append_s", "s", "lower", "pipelines_per_s on durable_cheap"),
    ("explorer.log_bytes", "B", "lower", "none: size of the record log"),
    ("explorer.log_open_s", "s", "lower", "pipelines_per_s on durable_cheap (resume)"),
    ("checkpoint.write_s", "s", "lower", "pipelines_per_s on durable_cheap"),
    ("checkpoint.write_count", "count", "lower", "one per live record on durable_cheap"),
    ("checkpoint.replay_s", "s", "lower", "pipelines_per_s on durable_cheap (resume)"),
    ("checkpoint.replay_count", "count", "lower", "records replayed on resume"),
    ("telemetry.emit_s", "s", "lower", "pipelines_per_s on durable_cheap"),
    ("telemetry.event_count", "count", "lower", "durable_cheap only"),
    ("telemetry.bytes_written", "B", "lower", "durable_cheap only"),
    ("telemetry.close_s", "s", "lower", "pipelines_per_s on durable_cheap"),
    ("trace.overhead_share", "ratio", "lower", "none: (traced - untraced wall) / untraced"),
]

END_TO_END_NAMES = [entry[0] for entry in END_TO_END]
PER_LAYER_NAMES = [entry[0] for entry in PER_LAYER]
PER_LAYER_UNITS = {entry[0]: entry[1] for entry in PER_LAYER}
END_TO_END_UNITS = {entry[0]: entry[1] for entry in END_TO_END}
