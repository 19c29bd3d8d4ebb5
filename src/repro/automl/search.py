"""Pipeline search and evaluation (paper Algorithm 2).

Given an ML task and a computational budget, AutoBazaar loads the candidate
templates for the task type, creates one tuner per template and a single
selector over the templates, and runs an asynchronous **sliding-window**
scheduler over the configured
:class:`~repro.automl.backends.ExecutionBackend`:

* **propose & dispatch** — keep exactly ``n_pending`` evaluations in
  flight: whenever the window has a free slot, select a template, draw one
  hyperparameter configuration (pending proposals use the constant-liar
  strategy, see :mod:`repro.tuning.tuners`) and submit it immediately,
* **collect** — block for *one* completed evaluation at a time
  (``backend.collect_one()``) and park it in a reorder buffer,
* **report** — file buffered results back into the tuners, the selector
  and the store strictly *in proposal order*; every reported result frees
  a window slot, so its replacement is proposed with the constant-liar
  bookkeeping updated incrementally per completion rather than per round.

Reporting in proposal order makes the record stream deterministic
regardless of which worker finished first, with one scheduling corollary:
the proposal of candidate ``k`` may only consume the reported results of
candidates ``0 .. k - n_pending``, so a straggler blocks the window only
after ``n_pending - 1`` newer evaluations have been proposed past it —
unlike the historical round-barrier loop (kept as ``schedule="barrier"``
for comparison benchmarks), which idled every worker while a round
drained behind its slowest member.

When the budget is exhausted, the best pipeline is refitted on the full
training data and scored on the held-out test partition — as one more job
of the backend (``backend.submit_refit``), so it runs where the folds ran.
"""

import shutil
import tempfile
import time
from collections import deque

import numpy as np

from repro.automl.backends import (
    CandidateFuture,
    EvaluationCandidate,
    EvaluationOutcome,
    PruneController,
    PrunedEvaluation,
    _cache_info_fields,
    _format_error,
    get_backend,
)
from repro.automl.catalog import default_template_catalog
from repro.automl.config import ExecutionConfig
from repro.automl.prefix_cache import (
    fold_data_key,
    make_prefix_cache_config,
    sweep_orphan_cache_tmp,
    task_content_digest,
)
from repro.explorer.store import normalize_value
from repro.tasks.task import materialize_cv_fold, split_task, task_cv_indices
from repro.telemetry.events import capture_event
from repro.telemetry.sink import TelemetrySink, activate_sink, deactivate_sink
from repro.tuning.selectors import UCB1Selector
from repro.tuning.tuners import GPEiTuner, UniformTuner


class ReplayMismatchError(RuntimeError):
    """A resumed search diverged from the recorded stream it is replaying.

    Raised when the candidate regenerated at some iteration does not match
    the record persisted for that iteration — the store was produced under
    a different configuration/seed, the run directory was tampered with,
    or a nondeterministic component leaked into the proposal path.
    """


def _verify_replay_candidate(candidate, recorded):
    """Check a regenerated candidate against its persisted record."""
    problems = []
    iteration = recorded.get("iteration")
    if iteration is not None and int(iteration) != candidate.iteration:
        problems.append("iteration {} != recorded {}".format(candidate.iteration, iteration))
    if recorded.get("template_name") != candidate.template_name:
        problems.append("template {!r} != recorded {!r}".format(
            candidate.template_name, recorded.get("template_name")))
    if bool(recorded.get("is_default", False)) != candidate.is_default:
        problems.append("is_default {} != recorded {}".format(
            candidate.is_default, recorded.get("is_default")))
    recorded_params = recorded.get("hyperparameters")
    if recorded_params is not None:
        proposed = normalize_value(
            {str(key): value for key, value in candidate.hyperparameters.items()}
        )
        if proposed != recorded_params:
            problems.append("hyperparameters {!r} != recorded {!r}".format(
                proposed, recorded_params))
    if problems:
        raise ReplayMismatchError(
            "Resumed search diverged from the stored record stream at iteration {}: {}. "
            "The store was written under a different configuration or seed, or was "
            "modified since.".format(candidate.iteration, "; ".join(problems))
        )


class EvaluationRecord:
    """One scored pipeline (one row of the paper's 2.5-million-pipeline dataset)."""

    def __init__(self, task_name, template_name, hyperparameters, score, raw_score,
                 iteration, elapsed, error=None, is_default=False, pruned=False):
        self.task_name = task_name
        self.template_name = template_name
        self.hyperparameters = dict(hyperparameters)
        self.score = score
        self.raw_score = raw_score
        self.iteration = iteration
        self.elapsed = elapsed
        self.error = error
        self.is_default = is_default
        self.pruned = bool(pruned)

    @property
    def failed(self):
        """Whether the pipeline failed to evaluate (including pruned candidates)."""
        return self.error is not None

    def to_dict(self):
        """Serialize to a flat dict (the document stored by piex)."""
        return {
            "task_name": self.task_name,
            "template_name": self.template_name,
            "hyperparameters": {str(key): value for key, value in self.hyperparameters.items()},
            "score": self.score,
            "raw_score": self.raw_score,
            "iteration": self.iteration,
            "elapsed": self.elapsed,
            "error": self.error,
            "is_default": self.is_default,
            "pruned": self.pruned,
        }

    def __repr__(self):
        return "EvaluationRecord(template={!r}, score={}, iteration={})".format(
            self.template_name, self.score, self.iteration
        )


class SearchResult:
    """Outcome of one AutoBazaar search run on one task."""

    def __init__(self, task_name, best_template, best_hyperparameters, best_score,
                 best_pipeline, records, test_score=None, elapsed=0.0, cache_stats=None,
                 fleet_stats=None, plane_counts=None, supervisor_stats=None,
                 refit_error=None):
        self.task_name = task_name
        self.best_template = best_template
        self.best_hyperparameters = best_hyperparameters
        self.best_score = best_score
        self.best_pipeline = best_pipeline
        self.records = list(records)
        self.test_score = test_score
        #: Why the final refit has no ``test_score`` (it raised) or no
        #: ``best_pipeline`` (the fitted pipeline could not be brought back
        #: from the worker), in the format of a failed record's ``error``;
        #: ``None`` when the refit succeeded or nothing was scored.
        self.refit_error = refit_error
        self.elapsed = elapsed
        self.cache_stats = cache_stats
        #: Per-tenant fair-share/data-plane counters when the search ran on
        #: a :class:`~repro.automl.fleet.TenantBackend`; ``None`` otherwise.
        self.fleet_stats = fleet_stats
        #: Tasks shipped per transport (``{"shm": n, "pickle": n}``) when
        #: the search ran on a process-boundary backend; ``None`` otherwise.
        self.plane_counts = plane_counts
        #: Fault-tolerance counters (worker deaths, fold retries/timeouts,
        #: pool rebuilds) when the search ran on a supervised process
        #: pool; ``None`` otherwise.
        self.supervisor_stats = supervisor_stats

    @property
    def n_evaluated(self):
        """Number of pipelines evaluated (including failures)."""
        return len(self.records)

    @property
    def n_failed(self):
        """Number of pipelines that failed to evaluate."""
        return sum(1 for record in self.records if record.failed)

    @property
    def n_pruned(self):
        """Number of candidates discarded mid-evaluation by early-discard pruning."""
        return sum(1 for record in self.records if getattr(record, "pruned", False))

    @property
    def default_score(self):
        """Score of the first successfully evaluated default pipeline."""
        for record in self.records:
            if record.is_default and not record.failed:
                return record.score
        return None

    @property
    def pipelines_per_second(self):
        """Throughput of the search (pipelines scored per second)."""
        if self.elapsed <= 0:
            return float("nan")
        return self.n_evaluated / self.elapsed

    def best_score_at_checkpoints(self, fractions=(0.25, 0.5, 0.75, 1.0)):
        """Best score seen after each fraction of the budget (paper's checkpoint view).

        The paper selects the best pipeline at 10/30/60/120-minute
        checkpoints; the in-process analogue uses fractions of the
        iteration budget.
        """
        checkpoints = []
        for fraction in fractions:
            cutoff = max(1, int(round(fraction * len(self.records))))
            seen = [r.score for r in self.records[:cutoff] if not r.failed]
            checkpoints.append(max(seen) if seen else None)
        return checkpoints

    def improvement_sigmas(self):
        """Improvement of the best over the first default, in std-devs of all scores.

        This is the per-task quantity plotted in paper Figure 6.
        """
        scores = [record.score for record in self.records if not record.failed]
        default = self.default_score
        if default is None or self.best_score is None or len(scores) < 2:
            return 0.0
        spread = float(np.std(scores))
        if spread == 0.0:
            return 0.0
        return float((self.best_score - default) / spread)

    def __repr__(self):
        return ("SearchResult(task={!r}, best_template={!r}, best_score={}, "
                "n_evaluated={})".format(self.task_name, self.best_template,
                                         self.best_score, self.n_evaluated))


def evaluate_pipeline(template, hyperparameters, train_task, test_task,
                      prefix_cache=None, data_key=None):
    """Fit a template's pipeline on one task and score it on another.

    Returns the normalized (higher-is-better) score and the raw metric
    value.  With a ``prefix_cache``, fitted preprocessing prefixes are
    looked up by content address instead of refit (see
    :mod:`repro.automl.prefix_cache`); ``data_key`` identifies the
    training data and defaults to its content digest.
    """
    pipeline = template.build_pipeline(hyperparameters)
    if prefix_cache is not None:
        if data_key is None:
            data_key = task_content_digest(train_task)
        pipeline.fit(prefix_cache=prefix_cache, data_key=data_key,
                     **train_task.pipeline_data())
    else:
        pipeline.fit(**train_task.pipeline_data())
    predictions = pipeline.predict(**test_task.pipeline_data(include_target=False))
    y_true = test_task.context["y"]
    raw = test_task.score(y_true, predictions)
    normalized = raw if test_task.higher_is_better else -raw
    return normalized, raw, pipeline


def cross_validate_template(template, hyperparameters, task, n_splits=3, random_state=None,
                            prefix_cache=None, pruner=None, collect=None):
    """Mean normalized cross-validation score of a template configuration on a task.

    The fold sequence and scores are identical to the historical
    implementation; the optional knobs bolt the serial backend onto the
    shared evaluation machinery:

    * ``prefix_cache`` memoizes fitted preprocessing prefixes per fold,
    * ``pruner`` (a :class:`~repro.automl.backends.PruneController`)
      raises :class:`~repro.automl.backends.PrunedEvaluation` as soon as
      the optimistic bound over the remaining folds cannot beat the task
      best minus the margin,
    * ``collect`` (a dict) accumulates the per-fold cache counters.
    """
    folds = task_cv_indices(task, n_splits=n_splits, random_state=random_state)
    scores = []
    raw_scores = []
    for fold_index, (train_indices, val_indices) in enumerate(folds):
        # telemetry capture: this function runs in the coordinator (serial
        # backend) or as a worker would, so it records both terminal fold
        # events itself; every capture_event is a no-op unless a sink is on
        fold_started = time.time()
        capture_event("fold_started", fold=fold_index)
        train_task, val_task = materialize_cv_fold(task, train_indices, val_indices)
        # cache kwargs only travel when caching is on, preserving the
        # historical evaluate_pipeline call signature for the default path
        extra = {}
        if prefix_cache is not None:
            extra.update(prefix_cache=prefix_cache,
                         data_key=fold_data_key(task, train_indices))
        try:
            normalized, raw, pipeline = evaluate_pipeline(
                template, hyperparameters, train_task, val_task, **extra
            )
        except Exception as failure:
            capture_event(
                "fold_finished", fold=fold_index, score=None, raw_score=None,
                error=_format_error(failure), elapsed=time.time() - fold_started,
            )
            raise
        scores.append(normalized)
        raw_scores.append(raw)
        fold_cache = {}
        if collect is not None:
            for field, value in _cache_info_fields(pipeline).items():
                collect[field] = collect.get(field, 0) + value
                fold_cache[field] = value
        capture_event(
            "fold_finished", fold=fold_index, score=normalized, raw_score=raw,
            error=None, elapsed=time.time() - fold_started,
            cache_hits=fold_cache.get("cache_hits", 0),
            cache_misses=fold_cache.get("cache_misses", 0),
        )
        if pruner is not None:
            pruner.observe_fold(normalized)
            reason = pruner.assess(scores, len(folds))
            if reason is not None:
                capture_event(
                    "prune_decision", reason=reason,
                    n_completed=len(scores), n_folds=len(folds),
                )
                raise PrunedEvaluation(reason)
    return float(np.mean(scores)), float(np.mean(raw_scores))


class AutoBazaarSearch:
    """The AutoBazaar pipeline search engine (paper Algorithm 2).

    Parameters
    ----------
    templates:
        Candidate templates.  When omitted they are loaded from the default
        template catalog based on the task's type.
    tuner_class:
        Tuner used for every template (default GP-EI, the paper's default).
    selector_class:
        Selector over templates (default UCB1).
    n_splits:
        Cross-validation folds used to score candidate pipelines.
    store:
        Optional :class:`~repro.explorer.store.PipelineStore`; every
        evaluation record is appended to it.
    warm_start_store:
        Optional :class:`~repro.explorer.store.PipelineStore` holding
        evaluations from *previous* tasks.  When given, tuners are
        warm-started from the historical configurations of each template
        (the meta-learning extension anticipated in the paper's
        conclusion).
    estimator_seed:
        When set, every loaded template is cloned with this value pinned
        as the ``random_state`` of each stochastic primitive (see
        :func:`~repro.automl.catalog.seed_templates`), making pipeline
        evaluation a pure function of the configuration.  Checkpointed
        runs set it so that a resumed search reproduces the uninterrupted
        run's scores exactly; the default ``None`` keeps the catalog's
        unseeded behaviour.
    **execution:
        The execution knobs (``backend``, ``workers``, ``n_pending``,
        ``schedule``, ``prefix_cache``, ``cache_dir``, ``prune_margin``,
        ``batch_eval``, ``telemetry``, ``fold_timeout``,
        ``max_fold_retries``): see
        :class:`~repro.automl.config.ExecutionConfig`, which they are
        collected into (:attr:`execution`) before anything else happens.
    """

    def __init__(self, templates=None, tuner_class=GPEiTuner, selector_class=UCB1Selector,
                 n_splits=3, random_state=None, store=None, catalog=None,
                 warm_start_store=None, estimator_seed=None, **execution):
        self.execution = ExecutionConfig.from_keywords(execution)
        self.templates = templates
        self.tuner_class = tuner_class
        self.selector_class = selector_class
        self.n_splits = n_splits
        self.random_state = random_state
        self.store = store
        self.catalog = catalog or default_template_catalog()
        self.warm_start_store = warm_start_store
        self.estimator_seed = estimator_seed

    # -- setup ----------------------------------------------------------------------

    def _load_templates(self, task):
        from repro.automl.catalog import seed_templates
        from repro.core.template import Hypertemplate

        if self.templates is not None:
            candidates = list(self.templates)
        else:
            candidates = self.catalog.get(task.data_modality, task.problem_type)
        templates = []
        for candidate in candidates:
            if isinstance(candidate, Hypertemplate):
                # hypertemplates contribute one selectable template per
                # combination of their conditional hyperparameters (Figure 4)
                templates.extend(candidate.derive_templates())
            else:
                templates.append(candidate)
        if self.estimator_seed is not None:
            templates = seed_templates(templates, self.estimator_seed)
        return templates

    def _build_tuners(self, templates, task):
        from repro.tuning.meta import WarmStartGPTuner, harvest_history

        tuners = {}
        for template in templates:
            space = template.get_tunable_hyperparameters()
            if not space:
                tuners[template.name] = None  # nothing to tune
                continue
            if self.warm_start_store is not None:
                history = harvest_history(
                    self.warm_start_store, template.name, exclude_task=task.name
                )
                tuners[template.name] = WarmStartGPTuner(
                    space, history=history, random_state=self.random_state
                )
            else:
                tuners[template.name] = self.tuner_class(space, random_state=self.random_state)
        return tuners

    # -- main loop ------------------------------------------------------------------

    def search(self, task, budget=20, test_task=None, holdout=0.25, max_seconds=None,
               checkpoint=None, replay=None, elapsed_offset=0.0):
        """Search for the best pipeline for ``task`` within ``budget`` evaluations.

        Parameters
        ----------
        task:
            The training task.  When ``test_task`` is omitted, ``holdout``
            of the task is split off as the test partition.
        budget:
            Number of pipeline evaluations.
        max_seconds:
            Optional wall-clock limit (the paper's per-task budget is a
            2-hour wall-clock limit); the loop stops at whichever of the
            two budgets is exhausted first.
        checkpoint:
            Optional observer with an ``after_report(state)`` method (see
            :class:`~repro.automl.checkpoint.CheckpointManager`), called
            after every reported record — strictly after the record was
            filed into the store/tuners/selector and strictly before the
            next proposal — with a snapshot-able view of the search state.
        replay:
            Optional sequence of previously recorded evaluation documents
            (:meth:`EvaluationRecord.to_dict` dicts), one per iteration
            from 0.  Iterations below ``len(replay)`` re-run the *proposal*
            path (consuming the RNG and updating tuner/selector pending
            state exactly as the original run did) but skip evaluation,
            substituting the recorded outcome — so a resumed search
            reconstructs the exact tuner/selector/RNG state and then
            continues with live evaluations, emitting the identical
            remaining record stream.  Replayed records are not re-added to
            the store.
        elapsed_offset:
            Seconds already spent by a previous incarnation of this search
            (resume); counted against ``max_seconds`` and included in the
            result's ``elapsed``.
        """
        # resolve the telemetry sink for this search: a TelemetrySink is
        # caller-owned and shared; a path opens a sink owned (and closed)
        # by this call.  The sink is also installed as the
        # process-global active sink so context-free emit points (fleet
        # scheduler, shm plane) reach it — refcounted, so concurrent
        # tenant searches sharing one sink compose.
        owned_sink = None
        sink = self.execution.telemetry
        if sink is not None and not isinstance(sink, TelemetrySink):
            owned_sink = TelemetrySink(sink)
            sink = owned_sink
        if sink is not None:
            activate_sink(sink)
        try:
            return self._search(
                task, budget, test_task, holdout, max_seconds, checkpoint,
                replay, elapsed_offset, sink,
            )
        finally:
            if sink is not None:
                deactivate_sink(sink)
                if owned_sink is not None:
                    owned_sink.close()

    def _search(self, task, budget, test_task, holdout, max_seconds, checkpoint,
                replay, elapsed_offset, sink):
        config = self.execution
        start = time.time() - float(elapsed_offset)
        if test_task is None:
            task, test_task = split_task(task, test_size=holdout, random_state=self.random_state)

        templates = self._load_templates(task)
        if not templates:
            raise ValueError("No templates available for task {!r}".format(task.name))
        template_index = {template.name: template for template in templates}
        tuners = self._build_tuners(templates, task)
        selector = self.selector_class(
            [template.name for template in templates], random_state=self.random_state
        )
        template_scores = {template.name: [] for template in templates}

        records = []
        best_score = None
        best_template = None
        best_hyperparameters = None
        defaults_pending = [template.name for template in templates]

        backend = get_backend(
            config.backend, workers=config.workers, fold_timeout=config.fold_timeout,
            max_fold_retries=config.max_fold_retries,
        )
        # a backend instance supplied by the caller outlives this search;
        # one resolved from a name is owned here and shut down on exit
        owns_backend = backend is not config.backend
        if not owns_backend:
            # a previous search on this backend may have aborted mid-collect
            backend.drain()

        owned_cache_dir = None
        cache_config = None
        if config.prefix_cache != "off":
            cache_dir = config.cache_dir
            if config.prefix_cache == "disk" and cache_dir is None:
                owned_cache_dir = tempfile.mkdtemp(prefix="repro-prefix-cache-")
                cache_dir = owned_cache_dir
            elif cache_dir is not None:
                # a shared, reused directory may hold temp files orphaned
                # by killed writers of earlier runs; sweep them up front
                sweep_orphan_cache_tmp(cache_dir)
            cache_config = make_prefix_cache_config(config.prefix_cache, cache_dir=cache_dir)
        cache_totals = {"hits": 0, "misses": 0, "bytes_written": 0}

        pruner = None
        if config.prune_margin is not None:
            pruner = PruneController(config.prune_margin)
            if self.store is not None:
                # seed the pruning threshold from everything the store
                # already holds for this task (e.g. a resumed or
                # warm-started run), so early candidates are accountable
                # to history, not just to this run's own reports.  The
                # history is matched by task name only: scores from a run
                # with a different CV configuration are not strictly
                # comparable, so choose the margin with the store's
                # provenance in mind (a generous margin neutralizes an
                # optimistic historical best)
                history = self.store.scores_for_task(task.name)
                if history:
                    pruner.update_task_best(max(history))

        budget = int(budget)
        proposed = 0
        next_report = 0
        reorder = {}  # iteration -> completed future, awaiting in-order reporting
        replay = list(replay or ())
        replay_count = len(replay)
        replayed_queue = deque()  # completed-instantly futures for replayed iterations
        submit_buffer = []  # candidates awaiting a fused submit_many (batch_eval)

        # the tenant id keying this search's events: the fleet's
        # per-tenant backend carries its name, every other backend is the
        # single "default" tenant
        tenant = getattr(backend, "tenant_name", None) or "default"
        if sink is not None:
            sink.emit(
                "search_started", tenant=tenant, task=task.name, budget=budget,
                backend=repr(backend), n_splits=self.n_splits,
                schedule=config.schedule, replay_count=replay_count,
            )

        def flush_submissions():
            # hand every candidate proposed in this scheduler burst to the
            # backend at once, so same-template ones fuse into batched
            # evaluation passes.  Futures complete through the backend's
            # normal completion machinery, and the reorder buffer already
            # reports strictly in proposal order, so batching cannot
            # change the record stream.
            if not submit_buffer:
                return
            candidates = list(submit_buffer)
            submit_buffer.clear()
            if len(candidates) == 1:
                backend.submit(candidates[0])
            else:
                backend.submit_many(candidates)

        def deadline_passed():
            # checked before every proposal, so the serial backend stops
            # mid-window like the historical loop; pool backends overshoot
            # by at most the work already in flight.  Replay proposals are
            # exempt: they cost no evaluation time and must all run, or a
            # resumed run whose elapsed_offset already reached max_seconds
            # would reconstruct nothing and return an empty result instead
            # of the records it durably holds.
            if proposed < replay_count:
                return False
            return max_seconds is not None and time.time() - start > max_seconds

        def propose_and_submit():
            # The first several proposals score each template once with
            # defaults; afterwards the selector picks a template and its
            # tuner proposes a configuration.  Pending bookkeeping (the
            # constant liar) steers later proposals away from the ones
            # still in flight.
            nonlocal proposed
            if defaults_pending:
                template_name = defaults_pending.pop(0)
                is_default = True
            else:
                template_name = selector.select(template_scores)
                is_default = False
            template = template_index[template_name]
            tuner = tuners[template_name]

            if is_default or tuner is None:
                hyperparameters = template.default_hyperparameters()
            else:
                propose_started = time.time()
                hyperparameters = tuner.propose()
                if sink is not None:
                    sink.emit(
                        "tuner_propose", tenant=tenant, iteration=proposed,
                        template=template_name, elapsed=time.time() - propose_started,
                    )
            if tuner is not None:
                tuner.add_pending(hyperparameters)
            selector.note_pending(template_name)

            candidate = EvaluationCandidate(
                iteration=proposed,
                template=template,
                hyperparameters=hyperparameters,
                task=task,
                n_splits=self.n_splits,
                random_state=self.random_state,
                template_name=template_name,
                is_default=is_default,
                cache_config=cache_config,
                pruner=pruner,
                telemetry=(sink, tenant) if sink is not None else None,
            )
            proposed += 1
            if candidate.iteration < replay_count:
                # resume replay: the proposal above consumed the RNG and
                # registered its pending bookkeeping exactly like the
                # original run; substitute the recorded outcome instead of
                # re-evaluating.  Replayed futures complete instantly and
                # are collected FIFO — the same semantics as the serial
                # backend — so the propose/report interleave (and with it
                # every subsequent RNG draw) is identical to the original.
                recorded = replay[candidate.iteration]
                _verify_replay_candidate(candidate, recorded)
                outcome = EvaluationOutcome(
                    recorded.get("score"), recorded.get("raw_score"),
                    recorded.get("error"), recorded.get("elapsed") or 0.0,
                    pruned=bool(recorded.get("pruned", False)),
                )
                replayed_queue.append(CandidateFuture(candidate, outcome))
            elif config.batch_eval:
                # buffered until the scheduler's flush point so same-burst
                # candidates can be fused; never buffered across a report
                submit_buffer.append(candidate)
            else:
                backend.submit(candidate)

        def report(future):
            # file one outcome back into the records, the store, the tuner
            # and the selector; called strictly in proposal order, so the
            # record stream (and hence the tuner/selector state feeding the
            # next proposal) is deterministic regardless of which worker
            # finished first
            nonlocal next_report, best_score, best_template, best_hyperparameters
            candidate = future.candidate
            outcome = future.result()
            error = outcome.error
            score = outcome.score
            raw_score = outcome.raw_score
            if error is None and (score is None or not np.isfinite(score)):
                # degenerate folds (nan/inf metric values) are a
                # recorded failure, not a fatal tuner error
                error = "NonFiniteScore: cross-validation produced {!r}".format(score)
                score = None
                raw_score = None

            record = EvaluationRecord(
                task_name=task.name,
                template_name=candidate.template_name,
                hyperparameters=candidate.hyperparameters,
                score=score,
                raw_score=raw_score,
                iteration=candidate.iteration,
                elapsed=outcome.elapsed,
                error=error,
                is_default=candidate.is_default,
                pruned=getattr(outcome, "pruned", False),
            )
            records.append(record)
            cache_totals["hits"] += getattr(outcome, "cache_hits", 0)
            cache_totals["misses"] += getattr(outcome, "cache_misses", 0)
            cache_totals["bytes_written"] += getattr(outcome, "cache_bytes", 0)
            next_report += 1
            if self.store is not None and candidate.iteration >= replay_count:
                # replayed records are already durable in the store; only
                # newly evaluated ones are appended (no duplicate lines)
                self.store.add(record)
            if sink is not None and candidate.iteration >= replay_count:
                # replayed iterations already have their events in the
                # stream from the original incarnation; re-emitting would
                # duplicate them (same guard as the store above)
                sink.emit(
                    "record_reported", tenant=tenant,
                    iteration=candidate.iteration, record=record.to_dict(),
                )

            tuner = tuners[candidate.template_name]
            if tuner is not None:
                tuner.resolve_pending(candidate.hyperparameters)
            selector.resolve_pending(candidate.template_name)

            if error is not None:
                # a failed evaluation consumed budget: count it as a spent
                # bandit trial and a known-bad tuner region so neither the
                # selector nor the tuner keeps re-drawing a crashing
                # configuration family.  Pruned candidates spend the trial
                # without the failure quarantine — they trailed the
                # incumbent, they did not crash.  Their configuration still
                # joins the tuner's failure set at the constant-liar score:
                # deliberately conservative (the partial evidence says
                # "behind", the lie says "worst seen"), which deflates
                # near-threshold regions harder than one fold strictly
                # proves — the cost of pruning aggressively; raise the
                # margin to soften it
                if getattr(outcome, "pruned", False) and hasattr(selector, "record_pruned"):
                    selector.record_pruned(candidate.template_name)
                else:
                    selector.record_failure(candidate.template_name)
                if tuner is not None:
                    tuner.record_failure(candidate.hyperparameters)
            else:
                template_scores[candidate.template_name].append(score)
                if tuner is not None:
                    fit_started = time.time()
                    tuner.record(candidate.hyperparameters, score)
                    if sink is not None:
                        sink.emit(
                            "tuner_fit", tenant=tenant, iteration=candidate.iteration,
                            template=candidate.template_name,
                            elapsed=time.time() - fit_started,
                        )
                if pruner is not None:
                    pruner.update_task_best(score)
                if best_score is None or score > best_score:
                    best_score = score
                    best_template = candidate.template_name
                    best_hyperparameters = dict(candidate.hyperparameters)

            if checkpoint is not None:
                # called after the record is fully filed and before the
                # next proposal, so a snapshot taken here captures a
                # consistent (report-boundary) view of the search state
                checkpoint.after_report({
                    "n_reported": next_report,
                    "proposed": proposed,
                    "budget": budget,
                    "max_seconds": max_seconds,
                    "elapsed": time.time() - start,
                    "records": records,
                    "replay_count": replay_count,
                    "defaults_pending": list(defaults_pending),
                    "task_name": task.name,
                    "selector": selector,
                    "tuners": tuners,
                    "template_scores": template_scores,
                })

        best_pipeline = None
        test_score = None
        refit_error = None
        try:
            # sliding window: keep n_pending evaluations in flight,
            # collect one completion at a time and propose its
            # replacement immediately.  Determinism bounds the slide:
            # proposal k may only use the reported results of
            # candidates 0..k-n_pending, so proposals stay at most
            # n_pending ahead of the reported prefix and a straggler
            # only stalls the window once it is the oldest outstanding
            # result and n_pending-1 newer evaluations sit buffered
            # behind it.
            def refill():
                if config.schedule == "barrier" and next_report != proposed:
                    # the historical round-barrier: a whole round is
                    # proposed only once nothing is in flight, so every
                    # worker idles behind the round's slowest evaluation
                    return
                while (proposed < budget
                       and proposed - next_report < config.n_pending
                       and not deadline_passed()):
                    propose_and_submit()

            while True:
                refill()
                # flush strictly after the refill and before collecting:
                # buffered proposals must reach the backend before the
                # loop blocks on (or breaks for lack of) completions
                flush_submissions()
                if next_report == proposed:
                    break  # nothing in flight and no proposal allowed
                if replayed_queue:
                    future = replayed_queue.popleft()
                else:
                    future = backend.collect_one()
                    if future is None:
                        break  # backend lost outstanding work; keep records
                reorder[future.candidate.iteration] = future
                while next_report in reorder:
                    report(reorder.pop(next_report))
                    # propose the freed slot's replacement *before*
                    # reporting the next buffered record: a burst of
                    # out-of-order completions must not advance the
                    # reported prefix by more than one report per
                    # proposal, or proposal k would see a different
                    # prefix than the serial interleave (report k-n,
                    # propose k, report k-n+1, ...) and the
                    # cross-backend record streams would diverge
                    refill()

            # refit the best pipeline on the full training partition and
            # score it on test: one more job of the backend, run where the
            # folds ran — the coordinator never fits a learner.  Always a
            # fresh, uncached fit: the full training partition is not a
            # cross-validation fold, so there is nothing to share anyway.
            # Every candidate has been collected by now, so the one
            # completion outstanding is the refit's.
            if best_template is not None:
                backend.submit_refit(EvaluationCandidate(
                    iteration=proposed,
                    template=template_index[best_template],
                    hyperparameters=best_hyperparameters,
                    task=task,
                    template_name=best_template,
                    telemetry=(sink, tenant) if sink is not None else None,
                ), test_task)
                refit = backend.collect_one()
                if refit is None:
                    refit_error = "RuntimeError: the backend lost the refit job"
                else:
                    outcome = refit.result()
                    test_score = outcome.raw_score
                    best_pipeline = outcome.pipeline
                    refit_error = outcome.error
        finally:
            if owns_backend:
                backend.shutdown()
            if owned_cache_dir is not None:
                shutil.rmtree(owned_cache_dir, ignore_errors=True)

        cache_stats = None
        if cache_config is not None:
            cache_stats = {"mode": config.prefix_cache}
            cache_stats.update(cache_totals)

        # a fleet tenant backend reports its fair-share counters; the
        # caller-owned handle is still alive here even though the search
        # loop is done with it
        fleet_stats = None
        stats_source = getattr(backend, "tenant_stats", None)
        if callable(stats_source):
            fleet_stats = stats_source()

        plane_counts = getattr(backend, "plane_counts", None)
        if plane_counts is not None:
            plane_counts = dict(plane_counts)

        # supervision counters survive the pool's shutdown, so this works
        # whether the backend is owned (already shut down) or shared
        supervisor_stats = getattr(backend, "supervisor_stats", None)

        if sink is not None:
            sink.emit(
                "search_finished", tenant=tenant, task=task.name,
                n_records=len(records), best_score=best_score,
                elapsed=time.time() - start,
            )
            # the event stream is durable before the result is returned,
            # so a caller that exits right after search() leaves a
            # replayable run directory behind
            sink.flush()

        return SearchResult(
            task_name=task.name,
            best_template=best_template,
            best_hyperparameters=best_hyperparameters,
            best_score=best_score,
            best_pipeline=best_pipeline,
            records=records,
            test_score=test_score,
            refit_error=refit_error,
            elapsed=time.time() - start,
            cache_stats=cache_stats,
            fleet_stats=fleet_stats,
            plane_counts=plane_counts,
            supervisor_stats=supervisor_stats,
        )


class RandomSearch(AutoBazaarSearch):
    """AutoBazaar with uniform-random tuning (the random-search ablation baseline)."""

    def __init__(self, **kwargs):
        kwargs.setdefault("tuner_class", UniformTuner)
        super().__init__(**kwargs)
