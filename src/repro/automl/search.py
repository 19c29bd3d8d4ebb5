"""Pipeline search and evaluation (paper Algorithm 2).

Given an ML task and a computational budget, AutoBazaar loads the candidate
templates for the task type, creates one tuner per template and a single
selector over the templates, and runs an asynchronous **sliding-window**
scheduler over the configured
:class:`~repro.automl.backends.ExecutionBackend`, in three stages:

* :class:`_Proposer` — selects a template and draws one hyperparameter
  configuration (pending proposals use the constant-liar strategy, see
  :mod:`repro.tuning.tuners`); resume is this stage reading the record log,
* :class:`_Window` — keeps exactly ``n_pending`` evaluations in flight,
  blocks for the next completed evaluation (``backend.collect_one()``),
  takes every other one already finished with it and parks them in a
  reorder buffer,
* :class:`_Reporter` — files buffered results back into the tuners, the
  selector and the store strictly *in proposal order*; every reported
  result frees a window slot, so its replacement is proposed with the
  constant-liar bookkeeping updated incrementally per completion rather
  than per round.

:meth:`AutoBazaarSearch.search` orchestrates: it opens the sink, the cache
directory and the backend, wires the stages and releases what it opened.
The stages stay in this module because ``bench_e2e/tracing.py`` patches its names.

Reporting in proposal order makes the record stream deterministic
regardless of which worker finished first, with one scheduling corollary:
the proposal of candidate ``k`` may only consume the reported results of
candidates ``0 .. k - n_pending``, so a straggler blocks the window only
after ``n_pending - 1`` newer evaluations have been proposed past it —
unlike a round-based loop (propose ``n_pending``, drain them all,
repeat), which idles every worker while a round drains behind its
slowest member.

Every backend, ``serial`` included, evaluates a candidate through the one
fold dispatcher of :mod:`repro.automl.backends`; the serial backend just
runs the fold jobs on the calling thread before ``submit`` returns.  The
plain fold loop :func:`cross_validate_template` is kept as the reference
semantics that dispatcher is tested against, not as a second engine.

When the budget is exhausted, the best pipeline is refitted on the full
training data and scored on the held-out test partition — as one more job
of the backend (``backend.submit_refit``), so it runs where the folds ran.
"""

import contextlib
import shutil
import time

import numpy as np

from repro.automl.backends import (
    CandidateFuture,
    EvaluationCandidate,
    EvaluationOutcome,
    get_backend,
)
from repro.automl.catalog import default_template_catalog
from repro.automl.config import ExecutionConfig
from repro.automl.prefix_cache import (
    make_prefix_cache_config,
    open_cache_dir,
    task_content_digest,
)
from repro.explorer.store import normalize_value
from repro.tasks.task import materialize_cv_fold, split_task, task_cv_indices
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
                 iteration, elapsed, error=None, is_default=False):
        self.task_name = task_name
        self.template_name = template_name
        self.hyperparameters = dict(hyperparameters)
        self.score = score
        self.raw_score = raw_score
        self.iteration = iteration
        self.elapsed = elapsed
        self.error = error
        self.is_default = is_default

    @property
    def failed(self):
        """Whether the pipeline failed to evaluate."""
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
        }

    def __repr__(self):
        return "EvaluationRecord(template={!r}, score={}, iteration={})".format(
            self.template_name, self.score, self.iteration
        )


class SearchResult:
    """Outcome of one AutoBazaar search run on one task."""

    def __init__(self, task_name, best_template, best_hyperparameters, best_score,
                 best_pipeline, records, test_score=None, elapsed=0.0, cache_stats=None,
                 fleet_stats=None, refit_error=None):
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
        #: Prefix-cache ``mode``, ``hits``, ``misses`` and ``bytes_written``
        #: summed over this search's fits; ``None`` with the cache off.
        self.cache_stats = cache_stats
        #: This search's counters as a fleet tenant — a
        #: :class:`~repro.automl.backends.TenantBackend`, which a process
        #: backend is (tenant ``"default"`` of a fleet of one); ``None``
        #: otherwise.  Folds that reached a worker, fold seconds, queue
        #: high-water mark and, under ``"supervisor"``, the pool's
        #: recovery counters cover this search only, also on a
        #: caller-owned backend that outlives it.
        self.fleet_stats = fleet_stats

    @property
    def n_evaluated(self):
        """Number of pipelines evaluated (including failures)."""
        return len(self.records)

    @property
    def n_failed(self):
        """Number of pipelines that failed to evaluate."""
        return sum(1 for record in self.records if record.failed)

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


def cross_validate_template(template, hyperparameters, task, n_splits=3, random_state=None):
    """Mean normalized cross-validation score of a template configuration on a task.

    The reference semantics of evaluating a candidate, and nothing more:
    one :func:`evaluate_pipeline` call per fold, in fold order, until one
    raises.  No backend calls it; every backend's outcome for a candidate
    equals its score pair, or the :func:`~repro.automl.backends._format_error`
    of what it raised, and the serial backend makes the same fold calls in
    the same order.
    """
    folds = task_cv_indices(task, n_splits=n_splits, random_state=random_state)
    scores = []
    raw_scores = []
    for train_indices, val_indices in folds:
        train_task, val_task = materialize_cv_fold(task, train_indices, val_indices)
        normalized, raw, _ = evaluate_pipeline(template, hyperparameters, train_task, val_task)
        scores.append(normalized)
        raw_scores.append(raw)
    return float(np.mean(scores)), float(np.mean(raw_scores))


# -- the search loop: three stages behind AutoBazaarSearch.search ----------------------

@contextlib.contextmanager
def _active_sink(telemetry):
    """The search's telemetry sink, installed as the process-global active sink.

    A :class:`TelemetrySink` is caller-owned and shared; a path opens a
    sink owned (and closed) by this search.  Installed, it is reached by
    context-free emit points (fleet scheduler, shm plane) — refcounted, so
    concurrent tenant searches sharing one sink compose.
    """
    if telemetry is None:
        yield None
        return
    sink = telemetry if isinstance(telemetry, TelemetrySink) else TelemetrySink(telemetry)
    activate_sink(sink)
    try:
        yield sink
    finally:
        deactivate_sink(sink)
        if sink is not telemetry:
            sink.close()


def _emit(telemetry, etype, **fields):
    """Emit one search event on a ``(sink, tenant)`` context, if telemetry is on.

    A sink whose log append has failed raises here, so the search fails
    fast; the emit points on callback and pool threads only drop their
    events.
    """
    if telemetry is not None:
        telemetry[0].emit(etype, tenant=telemetry[1], **fields)
        telemetry[0].raise_if_failed()


class _Proposer:
    """Proposes candidates: each template's defaults first, then selector and tuner.

    Pending bookkeeping (the constant liar) steers later proposals away
    from the ones still in flight; :meth:`observe` files a reported record
    back.  An iteration below ``len(replay)`` (see ``replay`` of
    :meth:`AutoBazaarSearch.search`) is checked against its recorded
    document and comes back with the recorded outcome.
    """

    def __init__(self, templates, tuners, selector, replay, task, telemetry,
                 **candidate_fields):
        self.templates = {template.name: template for template in templates}
        self.tuners = tuners
        self.selector = selector
        #: template name -> scores reported so far (the selector's input)
        self.template_scores = {template.name: [] for template in templates}
        self.defaults_pending = [template.name for template in templates]
        self.replay = replay
        self.task = task
        self.telemetry = telemetry
        self.candidate_fields = candidate_fields

    def propose(self, iteration):
        """``(candidate, recorded)``: ``recorded`` is the logged outcome's future, or ``None``."""
        if self.defaults_pending:
            template_name, is_default = self.defaults_pending.pop(0), True
        else:
            template_name, is_default = self.selector.select(self.template_scores), False
        template = self.templates[template_name]
        tuner = self.tuners[template_name]
        if is_default or tuner is None:
            hyperparameters = template.default_hyperparameters()
        else:
            propose_started = time.time()
            hyperparameters = tuner.propose()
            _emit(self.telemetry, "tuner_propose", iteration=iteration,
                  template=template_name, elapsed=time.time() - propose_started)
        if tuner is not None:
            tuner.add_pending(hyperparameters)
        self.selector.note_pending(template_name)
        candidate = EvaluationCandidate(
            iteration=iteration, template=template, hyperparameters=hyperparameters,
            task=self.task, template_name=template_name, is_default=is_default,
            telemetry=self.telemetry, **self.candidate_fields,
        )
        if iteration >= len(self.replay):
            return candidate, None
        recorded = self.replay[iteration]
        _verify_replay_candidate(candidate, recorded)
        return candidate, CandidateFuture(candidate, EvaluationOutcome(
            recorded.get("score"), recorded.get("raw_score"), recorded.get("error"),
            recorded.get("elapsed") or 0.0))

    def observe(self, candidate, record):
        """File a reported record into its template's tuner and the selector."""
        tuner = self.tuners[candidate.template_name]
        if tuner is not None:
            tuner.resolve_pending(candidate.hyperparameters)
        self.selector.resolve_pending(candidate.template_name)
        if record.failed:
            # a failed evaluation consumed budget: count it as a spent
            # bandit trial and a known-bad tuner region so neither the
            # selector nor the tuner keeps re-drawing a crashing
            # configuration family
            self.selector.record_failure(candidate.template_name)
            if tuner is not None:
                tuner.record_failure(candidate.hyperparameters)
            return
        self.template_scores[candidate.template_name].append(record.score)
        if tuner is not None:
            fit_started = time.time()
            tuner.record(candidate.hyperparameters, record.score)
            _emit(self.telemetry, "tuner_fit", iteration=candidate.iteration,
                  template=candidate.template_name, elapsed=time.time() - fit_started)


class _Window:
    """Keeps ``n_pending`` evaluations in flight; hands completions back in order.

    Determinism bounds the slide: proposal ``k`` may only use the
    reported results of candidates ``0 .. k - n_pending``, so proposals
    stay at most ``n_pending`` ahead of the reported prefix and a
    straggler only stalls the window once it is the oldest outstanding
    result and ``n_pending - 1`` newer evaluations sit buffered behind it.
    """

    def __init__(self, backend, proposer, config, budget, max_seconds, start):
        self.backend = backend
        self.proposer = proposer
        self.config = config
        self.budget, self.max_seconds, self.start = budget, max_seconds, start
        self.replay_count = len(proposer.replay)
        self.proposed = self.next_report = 0
        self.reorder = {}  # iteration -> completed future, awaiting in-order reporting

    def _deadline_passed(self):
        # checked before every proposal, so the serial backend stops
        # mid-window like the historical loop; pool backends overshoot
        # by at most the work already in flight.  Replay proposals are
        # exempt: they cost no evaluation time and must all run, or a
        # resumed run whose elapsed_offset already reached max_seconds
        # would reconstruct nothing and return an empty result instead
        # of the records it durably holds.
        if self.proposed < self.replay_count:
            return False
        return self.max_seconds is not None and time.time() - self.start > self.max_seconds

    def refill(self):
        """Propose into every free slot, within the budget and the deadline."""
        while (self.proposed < self.budget
               and self.proposed - self.next_report < self.config.n_pending
               and not self._deadline_passed()):
            candidate, recorded = self.proposer.propose(self.proposed)
            self.proposed += 1
            if recorded is not None:  # replayed: complete, never reaches the backend
                self.reorder[candidate.iteration] = recorded
            else:
                self.backend.submit(candidate)

    def collect_one(self):
        """Make the next result to report available; ``False`` when none can come.

        Blocks for one completion, then takes every one the backend already
        holds, each by its own ``backend.collect_one()`` (tracing wraps it).
        """
        if self.next_report == self.proposed:
            return False  # nothing in flight and no proposal allowed
        if self.next_report not in self.reorder:  # not a replayed outcome
            future = self.backend.collect_one()
            if future is None:
                return False  # backend lost outstanding work; keep records
            self.reorder[future.candidate.iteration] = future
            while self.backend.n_ready():
                future = self.backend.collect_one()
                self.reorder[future.candidate.iteration] = future
        return True

    def run(self, reporter):
        """Slide the window until the budget or the deadline is spent."""
        while True:
            self.refill()
            if not self.collect_one():
                return
            while self.next_report in self.reorder:
                future = self.reorder.pop(self.next_report)
                self.next_report += 1
                reporter.report(future, self)
                # propose the freed slot's replacement *before* reporting
                # the next buffered record: a burst of out-of-order
                # completions must not advance the reported prefix by
                # more than one report per proposal, or proposal k would
                # see a different prefix than the serial interleave
                # (report k-n, propose k, report k-n+1, ...) and the
                # cross-backend record streams would diverge
                self.refill()

    def refit(self, reporter, test_task):
        """Refit the best configuration; returns ``(test_score, pipeline, error)``.

        One more job of the backend, run where the folds ran — the
        coordinator never fits a learner.  Always a fresh, uncached fit:
        the full training partition is not a cross-validation fold, so
        there is nothing to share anyway.  Every candidate has been
        collected by now, so the one completion outstanding is the refit's.
        """
        if reporter.best_template is None:
            return None, None, None
        proposer = self.proposer
        self.backend.submit_refit(EvaluationCandidate(
            iteration=self.proposed, template=proposer.templates[reporter.best_template],
            hyperparameters=reporter.best_hyperparameters, task=proposer.task,
            template_name=reporter.best_template, telemetry=proposer.telemetry,
        ), test_task)
        refit = self.backend.collect_one()
        if refit is None:
            return None, None, "RuntimeError: the backend lost the refit job"
        outcome = refit.result()
        return outcome.raw_score, outcome.pipeline, outcome.error


class _Reporter:
    """Files outcomes in proposal order: records, store, sink, checkpoint, proposer.

    Called strictly in proposal order, so the record stream (and hence
    the tuner/selector state feeding the next proposal) is deterministic
    regardless of which worker finished first.
    """

    def __init__(self, proposer, store, checkpoint):
        self.proposer = proposer
        self.store = store
        self.checkpoint = checkpoint
        self.replay_count = len(proposer.replay)
        self.records = []
        self.cache_totals = {"hits": 0, "misses": 0, "bytes_written": 0}
        self.best_score = self.best_template = self.best_hyperparameters = None

    def _record(self, candidate, outcome):
        error, score, raw_score = outcome.error, outcome.score, outcome.raw_score
        if error is None and (score is None or not np.isfinite(score)):
            # degenerate folds (nan/inf metric values) are a recorded
            # failure, not a fatal tuner error
            error = "NonFiniteScore: cross-validation produced {!r}".format(score)
            score = raw_score = None
        return EvaluationRecord(
            self.proposer.task.name, candidate.template_name, candidate.hyperparameters,
            score, raw_score, candidate.iteration, outcome.elapsed, error=error,
            is_default=candidate.is_default)

    def _state(self, window):
        """The search state a checkpoint witnesses at this report."""
        proposer = self.proposer
        return {
            "n_reported": len(self.records), "replay_count": self.replay_count,
            "proposed": window.proposed, "max_seconds": window.max_seconds,
            "elapsed": time.time() - window.start, "records": self.records,
            "selector": proposer.selector, "tuners": proposer.tuners,
            "template_scores": proposer.template_scores,
        }

    def report(self, future, window):
        """File one completed future of ``window``."""
        candidate, outcome = future.candidate, future.result()
        record = self._record(candidate, outcome)
        self.records.append(record)
        self.cache_totals["hits"] += outcome.cache_hits
        self.cache_totals["misses"] += outcome.cache_misses
        self.cache_totals["bytes_written"] += outcome.cache_bytes
        state = None if self.checkpoint is None else self._state(window)
        if candidate.iteration >= self.replay_count:
            # replayed records are already durable in the store and their
            # events already in the stream from the original incarnation;
            # only newly evaluated ones are appended (no duplicates)
            if self.store is not None:
                document = record.to_dict()
                if state is not None:
                    # one line holds the record and its witness
                    document["witness"] = self.checkpoint.write(state)
                self.store.add(document)
            if self.proposer.telemetry is not None:  # spare the to_dict() otherwise
                _emit(self.proposer.telemetry, "record_reported",
                      iteration=candidate.iteration, record=record.to_dict())
                # the stream is durable through this record, like the store
                self.proposer.telemetry[0].flush()
        if state is not None:
            # the point every witness describes: the record is in the
            # stream, the tuners and selector have not learnt it yet
            self.checkpoint.after_report(state)
        self.proposer.observe(candidate, record)
        if not record.failed:
            if self.best_score is None or record.score > self.best_score:
                self.best_score = record.score
                self.best_template = candidate.template_name
                self.best_hyperparameters = dict(candidate.hyperparameters)

    def finish(self, window, refit, cache_mode, opened):
        """The search's result, once the window's backend is released.

        ``opened`` is the backend's :meth:`tenant_stats` when the search
        opened it: the result's fleet counters are what accrued since.
        """
        test_score, best_pipeline, refit_error = refit
        telemetry = self.proposer.telemetry
        if telemetry is not None:
            _emit(telemetry, "search_finished", task=self.proposer.task.name,
                  n_records=len(self.records), best_score=self.best_score,
                  elapsed=time.time() - window.start)
            # the event stream is durable before the result is returned,
            # so a caller that exits right after search() leaves a
            # replayable run directory behind
            telemetry[0].flush()
        return SearchResult(
            self.proposer.task.name, self.best_template, self.best_hyperparameters,
            self.best_score, best_pipeline, self.records, test_score=test_score,
            refit_error=refit_error, elapsed=time.time() - window.start,
            cache_stats=None if cache_mode == "off" else {"mode": cache_mode,
                                                          **self.cache_totals},
            # tenant counters survive the tenant's release and the pool's
            # shutdown, so this works whether the backend is owned or shared
            fleet_stats=window.backend.tenant_stats(since=opened),
        )


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
        ``prefix_cache``, ``cache_dir``, ``telemetry``, ``fold_timeout``,
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
            Optional :class:`~repro.automl.checkpoint.CheckpointManager`.
            For every reported record, after it joined the stream and
            before the tuners and selector learn it, its ``write(state)``
            builds a live record's witness, stored in the record's
            document, and then its ``after_report(state)`` runs for every
            record, replayed or live.
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
        config = self.execution
        with _active_sink(config.telemetry) as sink:
            start = time.time() - float(elapsed_offset)
            if test_task is None:
                task, test_task = split_task(
                    task, test_size=holdout, random_state=self.random_state)
            templates = self._load_templates(task)
            if not templates:
                raise ValueError("No templates available for task {!r}".format(task.name))
            tuners = self._build_tuners(templates, task)
            selector = self.selector_class(
                [template.name for template in templates], random_state=self.random_state)
            budget, replay = int(budget), list(replay or ())
            backend = owned_cache_dir = None
            try:
                # the owned cache directory comes first: an owned backend
                # spawns its pool workers at construction
                cache_dir, owned_cache_dir = open_cache_dir(
                    config.prefix_cache, config.cache_dir, "repro-prefix-cache-")
                cache_config = make_prefix_cache_config(config.prefix_cache, cache_dir=cache_dir)
                backend = self._open_backend()
                opened = backend.tenant_stats()
                # a fleet tenant's name keys this search's events; every
                # other backend is tenant "default"
                tenant = "default" if opened is None else opened["tenant"]
                telemetry = (sink, tenant) if sink is not None else None
                proposer = _Proposer(
                    templates, tuners, selector, replay, task, telemetry,
                    n_splits=self.n_splits, random_state=self.random_state,
                    cache_config=cache_config)
                reporter = _Reporter(proposer, self.store, checkpoint)
                window = _Window(backend, proposer, config, budget, max_seconds, start)
                # "schedule" stays a constant: event schema v1 only grows
                _emit(telemetry, "search_started", task=task.name, budget=budget,
                      backend=repr(backend), n_splits=self.n_splits,
                      schedule="window", replay_count=len(replay))
                window.run(reporter)
                refit = window.refit(reporter, test_task)
            finally:
                if backend is not None and backend is not config.backend:
                    backend.shutdown()
                if owned_cache_dir is not None:
                    shutil.rmtree(owned_cache_dir, ignore_errors=True)
            return reporter.finish(window, refit, config.prefix_cache, opened)

    def _open_backend(self):
        """The search's backend; one resolved from a name is owned and shut down on exit."""
        config = self.execution
        backend = get_backend(
            config.backend, workers=config.workers, fold_timeout=config.fold_timeout,
            max_fold_retries=config.max_fold_retries,
        )
        if backend is config.backend:
            # a caller-supplied backend outlives this search, and a
            # previous search on it may have aborted mid-collect
            backend.drain()
        return backend


class RandomSearch(AutoBazaarSearch):
    """AutoBazaar with uniform-random tuning (the random-search ablation baseline)."""

    def __init__(self, **kwargs):
        kwargs.setdefault("tuner_class", UniformTuner)
        super().__init__(**kwargs)
