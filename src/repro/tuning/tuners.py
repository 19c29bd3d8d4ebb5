"""Tuners: AutoML primitives with a ``record``/``propose`` interface.

A tuner owns the hyperparameter configuration space of one template and
solves the tuning problem (paper Equation 1): propose the configuration
that maximizes the expected score given everything recorded so far.
"""

import numpy as np

from repro.learners.base import check_random_state
from repro.tuning.acquisition import ACQUISITIONS
from repro.tuning.gp import GaussianCopulaProcessRegressor, GaussianProcessRegressor
from repro.tuning.hyperparams import Tunable


class BaseTuner:
    """Shared record/propose machinery.

    Parameters
    ----------
    tunable:
        A :class:`~repro.tuning.hyperparams.Tunable` describing the space,
        or a ``{key: HyperparamSpec}`` dict (as produced by
        ``Template.get_tunable_hyperparameters``).
    random_state:
        Seed for reproducible proposals.
    """

    def __init__(self, tunable, random_state=None):
        if not isinstance(tunable, Tunable):
            tunable = Tunable.from_specs(tunable)
        self.tunable = tunable
        self._rng = check_random_state(random_state)
        self.trials = []
        self.scores = []
        self._pending = []
        self.failed_trials = []
        # version counter of the *observed* training data (trials and
        # failures); meta-model caching keys on it.  Pending bookkeeping
        # deliberately does not bump it — see ``GPTuner._fit_meta_model``
        self._state_version = 0

    def _state_changed(self):
        """Mark the meta-model training data dirty (see ``GPTuner._fit_meta_model``)."""
        self._state_version += 1

    def record(self, params, score):
        """Record the observed score of a configuration."""
        score = float(score)
        if not np.isfinite(score):
            raise ValueError("Cannot record a non-finite score")
        self.trials.append(dict(params))
        self.scores.append(score)
        self._state_changed()

    def record_failure(self, params):
        """Record a configuration whose evaluation failed (crash or non-finite score).

        Failed configurations produce no usable score, so they never enter
        the real trial history — but pretending they never happened makes
        the meta-model re-propose the same crashing region over and over.
        They are kept in a separate list and participate in the meta-model
        fit at the constant-liar score (the worst score observed so far),
        which deflates the acquisition function around known-bad regions
        the same way pending proposals are deflated.
        """
        self.failed_trials.append(dict(params))
        self._state_changed()

    # -- pending proposals (constant-liar batching) ---------------------------------

    def add_pending(self, params):
        """Mark a proposed configuration as in flight (not yet scored).

        Pending configurations participate in the meta-model fit with a
        *constant-liar* score — the worst score observed so far — so that
        batch proposals spread out instead of piling onto the same
        optimum of the acquisition function.
        """
        self._pending.append(dict(params))

    def resolve_pending(self, params):
        """Drop one pending entry matching ``params``; returns whether one was found."""
        params = dict(params)
        for index, pending in enumerate(self._pending):
            if pending == params:
                del self._pending[index]
                return True
        return False

    @property
    def pending(self):
        """Snapshot of the configurations currently in flight."""
        return [dict(params) for params in self._pending]

    @property
    def best_score(self):
        """Best score recorded so far, or ``None`` if nothing was recorded."""
        return max(self.scores) if self.scores else None

    @property
    def best_params(self):
        """Configuration achieving the best recorded score."""
        if not self.scores:
            return None
        return dict(self.trials[int(np.argmax(self.scores))])

    def propose(self, n=1):
        """Propose the next configuration(s) to evaluate.

        With ``n == 1`` (the default) a single configuration dict is
        returned.  With ``n > 1`` a *batch* of ``n`` distinct
        configurations is returned as a list, drawn so the batch covers
        distinct regions of the space even though no real scores arrive
        in between — by default through the constant-liar loop (each
        proposal temporarily registered as pending before the next is
        drawn); GP tuners instead fit the meta-model once and take the
        top-``n`` distinct candidates of one vectorized acquisition pass.

        The AutoBazaar search loop drives the same pending primitives
        (:meth:`add_pending` / :meth:`resolve_pending`) directly instead
        of calling ``propose(n)``, because its template selection
        interleaves with proposing — a round's batch may span several
        tuners.  Keep the two paths in sync when changing the liar
        semantics.
        """
        n = int(n)
        if n < 1:
            raise ValueError("n must be at least 1")
        if n == 1:
            return self._propose_one()
        return self._propose_batch(n)

    def _propose_batch(self, n):
        """Propose ``n`` configurations (default: the constant-liar loop).

        Subclasses with an expensive meta-model may override this with a
        fit-once batched implementation (see ``GPTuner``); the contract is
        ``n`` mutually distinct-as-possible proposals with no pending or
        score state left behind.
        """
        proposals = []
        try:
            for _ in range(n):
                params = self._propose_one()
                proposals.append(params)
                self.add_pending(params)
        finally:
            for params in proposals:
                self.resolve_pending(params)
        return proposals

    def _propose_one(self):
        """Propose a single configuration (implemented by subclasses)."""
        raise NotImplementedError

    def __repr__(self):
        return "{}(n_trials={})".format(type(self).__name__, len(self.trials))


class UniformTuner(BaseTuner):
    """Propose uniformly random configurations (random-search baseline)."""

    def _propose_one(self):
        return self.tunable.sample(self._rng)


class GPTuner(BaseTuner):
    """Bayesian optimization tuner: GP meta-model + acquisition function.

    Parameters
    ----------
    kernel:
        ``"se"`` or ``"matern52"`` (paper Section VI-C compares the two).
    acquisition:
        ``"ei"``, ``"ucb"`` or ``"pi"``.
    n_candidates:
        Number of random candidates scored by the acquisition function per
        proposal (at least 1).
    min_trials:
        Number of purely random proposals before the meta-model is used
        (at least 1: the meta-model needs an observation to fit).
    """

    meta_model_class = GaussianProcessRegressor

    def __init__(self, tunable, kernel="se", acquisition="ei", n_candidates=100,
                 min_trials=3, random_state=None):
        super().__init__(tunable, random_state=random_state)
        if acquisition not in ACQUISITIONS:
            raise ValueError(
                "Unknown acquisition {!r}; expected one of {}".format(
                    acquisition, sorted(ACQUISITIONS)
                )
            )
        for name, value in (("n_candidates", n_candidates), ("min_trials", min_trials)):
            if value < 1:
                raise ValueError("{} must be at least 1, got {!r}".format(name, value))
        self.kernel = kernel
        self.acquisition = acquisition
        self.n_candidates = n_candidates
        self.min_trials = min_trials
        self._meta_model = None
        self._meta_model_version = None

    def _training_data(self):
        """Observed trials plus pending and failed ones under the constant liar.

        Each in-flight configuration — and each configuration whose
        evaluation failed — is assigned the worst score observed so far
        (the pessimistic liar), which deflates the acquisition function
        around pending proposals and known-bad regions without biasing
        the model upwards.
        """
        trials = list(self.trials)
        scores = list(self.scores)
        if scores and (self._pending or self.failed_trials):
            lie = min(scores)
            for extra in self._pending + self.failed_trials:
                trials.append(extra)
                scores.append(lie)
        return trials, scores

    def _fit_meta_model(self):
        """The meta-model over the observed trials, fit at most once per state.

        Fitting runs the full length-scale grid search, which used to
        happen on *every* proposal — including every element of a
        ``propose(n)`` batch and every window refill between reports.
        The fitted model is memoized on the observed-data version,
        bumped only by ``record``/``record_failure``: proposals that
        merely add or resolve *pending* entries reuse the cached model.
        That is the standard stale-model approximation of asynchronous
        Bayesian optimization — the pending constant liar still steers
        template selection (the selector counts in-flight trials) and
        the next genuine observation refits the model with every lie in
        place; in exchange, a template proposed repeatedly within a
        scheduling window pays for the grid search once, not per
        proposal.

        A refit goes to the same model instance (see :meth:`_refit`).  The
        training rows are the trials in the order they were recorded, then
        the pending and failed ones, so a new observation leaves every
        earlier trial's row where it was and the GP recomputes kernel
        values for the rows after it only — with the same result, bit for
        bit, as a fit from scratch.
        """
        if self._meta_model_version == self._state_version:
            return self._meta_model
        model = self._refit(*self._training_data())
        self._meta_model_version = self._state_version
        return model

    def _refit(self, trials, scores):
        """Fit this tuner's one meta-model instance on ``trials`` and ``scores``.

        The instance is built on the first call and kept, because the GP
        meta-models reuse what their previous fit computed.  It belongs to
        this tuner alone: tuners of concurrent searches live on different
        threads.
        """
        if self._meta_model is None:
            self._meta_model = self.meta_model_class(kernel=self.kernel)
        self._meta_model.fit(self.tunable.to_matrix(trials), np.asarray(scores, dtype=float))
        return self._meta_model

    def _score_candidates(self, model, candidates):
        vectors = self.tunable.to_matrix(candidates)
        mean, std = model.predict(vectors, return_std=True)
        acquisition_fn = ACQUISITIONS[self.acquisition]
        if self.acquisition == "ucb":
            return acquisition_fn(mean, std)
        return acquisition_fn(mean, std, best=max(self.scores))

    def _propose_one(self):
        if len(self.trials) < self.min_trials:
            return self.tunable.sample(self._rng)
        try:
            model = self._fit_meta_model()
        except (RuntimeError, np.linalg.LinAlgError):
            return self.tunable.sample(self._rng)
        candidates = self.tunable.sample_many(self.n_candidates, self._rng)
        acquisition_values = self._score_candidates(model, candidates)
        return candidates[int(np.argmax(acquisition_values))]

    def _propose_batch(self, n):
        """One meta-model fit and one vectorized acquisition pass for the whole batch.

        The base-class loop refits the GP after every batch element (each
        ``add_pending`` changes the liar set).  Here the model is fitted
        once, a pool of ``n * n_candidates`` candidates is scored in a
        single vectorized ``_score_candidates`` call, and the batch is
        the top-``n`` *distinct* configurations by acquisition value —
        distinctness standing in for the liar's spreading pressure at a
        fraction of the cost.
        """
        if len(self.trials) < self.min_trials:
            return [self.tunable.sample(self._rng) for _ in range(n)]
        try:
            model = self._fit_meta_model()
        except (RuntimeError, np.linalg.LinAlgError):
            return [self.tunable.sample(self._rng) for _ in range(n)]
        pool = self.tunable.sample_many(self.n_candidates * n, self._rng)
        acquisition_values = np.asarray(self._score_candidates(model, pool))
        proposals = []
        seen = set()
        for index in np.argsort(acquisition_values)[::-1]:
            candidate = pool[int(index)]
            key = tuple(sorted((key, value) for key, value in candidate.items()))
            if key in seen:
                continue
            seen.add(key)
            proposals.append(candidate)
            if len(proposals) == n:
                break
        while len(proposals) < n:  # a degenerate space with < n distinct points
            proposals.append(self.tunable.sample(self._rng))
        return proposals


class GPEiTuner(GPTuner):
    """GP meta-model with squared exponential kernel + expected improvement (GP-SE-EI)."""

    def __init__(self, tunable, n_candidates=100, min_trials=3, random_state=None):
        super().__init__(tunable, kernel="se", acquisition="ei", n_candidates=n_candidates,
                         min_trials=min_trials, random_state=random_state)


class GPMatern52EiTuner(GPTuner):
    """GP meta-model with Matérn 5/2 kernel + expected improvement (GP-Matern52-EI)."""

    def __init__(self, tunable, n_candidates=100, min_trials=3, random_state=None):
        super().__init__(tunable, kernel="matern52", acquisition="ei",
                         n_candidates=n_candidates, min_trials=min_trials,
                         random_state=random_state)


class GCPEiTuner(GPTuner):
    """Gaussian Copula Process meta-model + expected improvement (GCP-EI)."""

    meta_model_class = GaussianCopulaProcessRegressor

    def __init__(self, tunable, kernel="se", n_candidates=100, min_trials=3, random_state=None):
        super().__init__(tunable, kernel=kernel, acquisition="ei", n_candidates=n_candidates,
                         min_trials=min_trials, random_state=random_state)

    def _score_candidates(self, model, candidates):
        vectors = self.tunable.to_matrix(candidates)
        mean, std = model.predict_latent(vectors)
        # expected improvement computed in the latent normal-score space, where
        # the best observed score maps to its own normal score; the ranks use
        # the same training scores the copula was fitted on (real trials plus
        # pending constant-liar points) so the EI threshold and the model
        # share one latent scale — the lies equal the observed minimum, so
        # the maximum rank still belongs to the best real score
        from scipy import stats

        _, training_scores = self._training_data()
        ranks = stats.rankdata(training_scores, method="average")
        best_latent = stats.norm.ppf(ranks.max() / (len(training_scores) + 1.0))
        acquisition_fn = ACQUISITIONS["ei"]
        return acquisition_fn(mean, std, best=best_latent)


TUNERS = {
    "uniform": UniformTuner,
    "gp_ei": GPEiTuner,
    "gp_matern52_ei": GPMatern52EiTuner,
    "gcp_ei": GCPEiTuner,
}


def get_tuner(name):
    """Look up a tuner class by its short name."""
    try:
        return TUNERS[name]
    except KeyError:
        raise ValueError(
            "Unknown tuner {!r}; available tuners: {}".format(name, sorted(TUNERS))
        ) from None
