"""AutoBazaar sessions: configuration, suite runs and reporting.

The paper describes AutoBazaar as more than the search loop: "user
interfaces for administration and configuration, loaders and configuration
for ML tasks and primitives, data stores for metadata and pipeline
evaluation results, a pipeline execution engine, and an AutoML
coordinator" (Section IV-C).  :class:`AutoBazaarSession` is that outer
layer — it resolves tuner/selector names from configuration, runs whole
suites or on-disk task folders, accumulates every evaluation in a piex
store, and renders reports.
"""

import dataclasses
import os
import threading

from repro.automl.config import EXECUTION_ONLY, ExecutionConfig, fleet_backend
from repro.automl.search import AutoBazaarSearch
from repro.explorer import PersistentPipelineStore, PipelineStore, report, summarize_store
from repro.telemetry.sink import TelemetrySink
from repro.tasks.io import load_task
from repro.tuning.selectors import get_selector
from repro.tuning.tuners import get_tuner


class AutoBazaarSession:
    """A configured AutoBazaar instance that can solve many tasks.

    Parameters
    ----------
    budget:
        Pipeline evaluations per task.
    tuner, selector:
        Short names resolved through the BTB registries (for example
        ``"gp_ei"``, ``"uniform"``, ``"ucb1"``, ``"thompson"``).
    n_splits:
        Cross-validation folds for candidate scoring.
    warm_start:
        If True, each new task's tuners are warm-started from the session's
        accumulated history (the meta-learning extension).  The default
        ``"auto"`` enables warm-starting exactly when ``store_path`` opened
        a store that already holds prior evaluations — a session pointed at
        yesterday's store automatically seeds its tuners from it, while
        fresh in-memory sessions keep the historical cold-start behaviour.
    store_path:
        Optional directory of a :class:`~repro.explorer.persistence.PersistentPipelineStore`.
        When given, every evaluation record is durably appended to the
        crash-safe JSONL segment log at that path as it is reported (a
        killed run keeps everything already evaluated), and re-opening the
        same path in a later session makes its history available for
        automatic cross-run warm-starting.
    max_seconds_per_task:
        Optional wall-clock cap per task.
    **execution:
        The execution knobs of :class:`~repro.automl.config.ExecutionConfig`,
        kept as :attr:`execution`.  A ``telemetry`` path opens one sink
        owned by the session (closed with it) and shared by every task it
        solves — including all tenants of :meth:`solve_fleet`, which
        interleave into one totally ordered stream.
    """

    def __init__(self, budget=20, tuner="gp_ei", selector="ucb1", n_splits=3,
                 random_state=None, warm_start="auto", max_seconds_per_task=None,
                 store_path=None, **execution):
        config = ExecutionConfig.from_keywords(execution)
        self.budget = budget
        self.tuner_class = get_tuner(tuner)
        self.selector_class = get_selector(selector)
        self.n_splits = n_splits
        self.random_state = random_state
        self.max_seconds_per_task = max_seconds_per_task
        self.store_path = store_path
        if store_path is not None:
            self.store = PersistentPipelineStore(store_path)
        else:
            self.store = PipelineStore()
        # opened after the store, so a store that fails to open leaves no
        # sink (the event-stream descriptors) behind
        self._owned_sink = None
        if config.telemetry is not None and not isinstance(config.telemetry, TelemetrySink):
            try:
                self._owned_sink = TelemetrySink(config.telemetry)
            except BaseException:
                self.store.close()
                raise
            config = dataclasses.replace(config, telemetry=self._owned_sink)
        self.execution = config
        if warm_start == "auto":
            # harvest automatically when an opened persistent store already
            # holds history from previous runs; an in-memory session keeps
            # the historical (cold-start) default
            warm_start = store_path is not None and len(self.store) > 0
        self.warm_start = bool(warm_start)
        self.results = []

    # -- solving ------------------------------------------------------------------

    def _searcher(self, **overrides):
        """The searcher for one task: the session's configuration under ``overrides``."""
        execution = self.execution.as_kwargs()
        execution.update(overrides)
        return AutoBazaarSearch(
            tuner_class=self.tuner_class,
            selector_class=self.selector_class,
            n_splits=self.n_splits,
            random_state=self.random_state,
            store=self.store,
            warm_start_store=self.store if self.warm_start else None,
            **execution,
        )

    def solve(self, task, test_task=None):
        """Run the AutoBazaar search on one task and record the results."""
        result = self._searcher().search(
            task, budget=self.budget, test_task=test_task,
            max_seconds=self.max_seconds_per_task,
        )
        self.results.append(result)
        return result

    def solve_suite(self, suite):
        """Solve every task of a suite; returns the list of search results."""
        return [self.solve(task) for task in suite]

    def solve_fleet(self, tasks, weights=None):
        """Solve several tasks *concurrently* on one shared worker fleet.

        Builds a :class:`~repro.automl.fleet.FleetCoordinator` from the
        session's backend configuration (``"serial"`` is promoted to
        ``"process"`` — a fleet needs a pool), registers one tenant per
        task with the given fair-share ``weights`` (default: equal), and
        runs every search in its own thread over the shared pool, data
        plane and prefix cache.  All records land in the session's (thread
        -safe) store.  Results are returned in task order, each carrying
        its tenant's ``fleet_stats``; every tenant's record stream is
        bit-identical to the same search run solo (for deterministic,
        seeded pipelines), only wall-clock interleaving is shared.
        """
        from repro.automl.fleet import FleetCoordinator

        tasks = list(tasks)
        if not tasks:
            return []
        if weights is None:
            weights = [1.0] * len(tasks)
        weights = [float(weight) for weight in weights]
        if len(weights) != len(tasks):
            raise ValueError(
                "expected one weight per task, got {} weights for {} tasks".format(
                    len(weights), len(tasks)
                )
            )
        execution = self.execution.as_kwargs()
        execution["backend"] = fleet_backend(execution["backend"])
        fleet = FleetCoordinator(**execution)
        results = [None] * len(tasks)
        failures = []
        try:
            handles = [
                fleet.register(
                    name="t{}-{}".format(index, task.name), weight=weight
                )
                for index, (task, weight) in enumerate(zip(tasks, weights))
            ]

            def run(index, task, handle):
                # the pool-level knobs are the fleet's: a tenant search only
                # sees its handle and the fleet's shared cache directory
                searcher = self._searcher(
                    backend=handle, workers=None, fold_timeout=None,
                    max_fold_retries=None, cache_dir=fleet.cache_dir,
                )
                try:
                    results[index] = searcher.search(
                        task, budget=self.budget,
                        max_seconds=self.max_seconds_per_task,
                    )
                except BaseException as failure:  # noqa: BLE001 - re-raised below
                    failures.append(failure)

            threads = [
                threading.Thread(
                    target=run, args=(index, task, handle),
                    name="fleet-{}".format(handle.tenant_name), daemon=True,
                )
                for index, (task, handle) in enumerate(zip(tasks, handles))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            fleet.close()
        if failures:
            raise failures[0]
        self.results.extend(results)
        return results

    def solve_directory(self, directory):
        """Load a task folder produced by :func:`repro.tasks.io.save_task` and solve it."""
        task = load_task(directory)
        return self.solve(task)

    # -- reporting ----------------------------------------------------------------

    def summary(self):
        """Structured summary of everything evaluated in this session."""
        summary = summarize_store(self.store)
        summary["n_solved_tasks"] = len(self.results)
        summary["test_scores"] = {
            result.task_name: result.test_score for result in self.results
        }
        summary["refit_errors"] = {
            result.task_name: result.refit_error
            for result in self.results if result.refit_error
        }
        summary["best_templates"] = {
            result.task_name: result.best_template for result in self.results
        }
        return summary

    def report(self, title="AutoBazaar session"):
        """Human-readable text report of the session."""
        return report(self.store, title=title)

    def save_store(self, path):
        """Persist every evaluation document to a JSON file."""
        self.store.dump_json(path)
        return path

    def close(self):
        """Release the session's store handle and its file descriptors.

        Long-lived processes creating many persistent sessions should
        close (or ``with``-manage) each one.  No-op for in-memory
        sessions.
        """
        self.store.close()
        if self._owned_sink is not None:
            self._owned_sink.close()
            self._owned_sink = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return "AutoBazaarSession(budget={}, solved={}, evaluated={})".format(
            self.budget, len(self.results), len(self.store)
        )


def run_from_directory(task_directory, budget=20, tuner="gp_ei", selector="ucb1",
                       n_splits=3, random_state=0, output=None, store_path=None,
                       warm_start="auto", run_dir=None, **execution):
    """One-shot helper behind the command-line interface.

    Loads the task stored in ``task_directory``, runs a search configured
    by the ``execution`` knobs (see
    :class:`~repro.automl.config.ExecutionConfig`), optionally writes the
    evaluation store to ``output``, and returns the session.

    With ``store_path`` the records are durably appended to a persistent
    store (and automatically warm-start from any history already in it);
    with ``run_dir`` the search runs as a resumable checkpointed
    :class:`~repro.automl.checkpoint.ExperimentRun` whose record log (each
    record carrying its own resume witness) lives inside ``run_dir`` — a
    killed run is continued with
    ``python -m repro.automl resume <run_dir>``.  When both are given, the
    store at ``store_path`` serves as the (frozen) warm-start history and
    the run's own records land in ``run_dir``.
    """
    config = ExecutionConfig.from_keywords(execution, run_dir=run_dir)
    if not os.path.isdir(task_directory):
        raise FileNotFoundError("Task directory {!r} does not exist".format(task_directory))
    session_options = dict(
        budget=budget, tuner=tuner, selector=selector, n_splits=n_splits,
        random_state=random_state,
    )
    if run_dir is not None:
        from repro.automl.checkpoint import ExperimentRun

        warm_source = None
        if warm_start is True and store_path is None:
            raise ValueError(
                "warm_start=True with run_dir requires store_path: a checkpointed "
                "run freezes its warm-start history from the shared store, and "
                "there is no store to harvest from"
            )
        if warm_start is not False and store_path is not None:
            candidate = PersistentPipelineStore(store_path)
            if len(candidate) > 0 or warm_start is True:
                warm_source = candidate
            else:
                # empty store under "auto": cold start -- release the
                # handle (and its shared lock) instead of holding it for
                # the whole search
                candidate.close()
        try:
            run = ExperimentRun.create(
                run_dir, task_directory=task_directory, n_pending=config.n_pending,
                warm_start_source=warm_source, **session_options,
            )
        finally:
            # on success the history is frozen inside the run directory; on
            # failure the handle must not outlive the call either
            if warm_source is not None:
                warm_source.close()
        result = run.execute(**config.as_kwargs(EXECUTION_ONLY))
        # hand back the familiar session surface (report/summary/save_store)
        # wrapped around the run's durable store and result.  The store is
        # the run's own record log: query and close() it, but solving more
        # tasks into it would push the log past the run's budget and make
        # the run unresumable.
        session = AutoBazaarSession(warm_start=False, **session_options)
        session.store = run.store
        session.results.append(result)
    else:
        session = AutoBazaarSession(
            store_path=store_path, warm_start=warm_start, **session_options,
            **config.as_kwargs(),
        )
        session.solve_directory(task_directory)
    if output:
        session.save_store(output)
    return session


def run_fleet_from_directories(task_directories, budget=20, tuner="gp_ei", selector="ucb1",
                               n_splits=3, random_state=0, output=None, store_path=None,
                               warm_start="auto", weights=None, **execution):
    """Fleet-mode twin of :func:`run_from_directory` behind ``--fleet``.

    Loads every task folder, solves them *concurrently* as tenants of one
    shared :class:`~repro.automl.fleet.FleetCoordinator`, optionally dumps
    the combined store to ``output``, and returns the session (results in
    task-directory order).  ``weights`` sets the tenants' fair shares
    (default: equal).  The serial backend name is promoted to ``process``.
    """
    execution["backend"] = fleet_backend(execution.get("backend"))
    config = ExecutionConfig.from_keywords(execution)
    for task_directory in task_directories:
        if not os.path.isdir(task_directory):
            raise FileNotFoundError(
                "Task directory {!r} does not exist".format(task_directory)
            )
    session = AutoBazaarSession(
        budget=budget, tuner=tuner, selector=selector, n_splits=n_splits,
        random_state=random_state, store_path=store_path, warm_start=warm_start,
        **config.as_kwargs(),
    )
    tasks = [load_task(task_directory) for task_directory in task_directories]
    session.solve_fleet(tasks, weights=weights)
    if output:
        session.save_store(output)
    return session
