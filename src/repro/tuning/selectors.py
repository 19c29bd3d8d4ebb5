"""Selectors: AutoML primitives with a ``compute_rewards``/``select`` interface.

A selector solves the selection problem (paper Equation 2): which template
should be tuned next, balancing exploration and exploitation.  Selection is
treated as a multi-armed bandit over the history of scores per template.
"""

import numpy as np

from repro.learners.base import check_random_state


class BaseSelector:
    """Shared machinery for template selectors.

    Parameters
    ----------
    candidates:
        The identifiers of the selectable templates.
    random_state:
        Seed used for tie-breaking and random exploration.
    """

    def __init__(self, candidates, random_state=None):
        candidates = list(candidates)
        if not candidates:
            raise ValueError("A selector requires at least one candidate")
        self.candidates = candidates
        self._rng = check_random_state(random_state)
        self._pending_counts = {}
        self._failure_counts = {}

    def compute_rewards(self, scores):
        """Convert a list of raw scores into rewards (default: identity)."""
        return list(scores)

    def select(self, candidate_scores):
        """Select the next candidate given ``{candidate: [scores, ...]}``."""
        raise NotImplementedError

    # -- pending bookkeeping (batch proposals) --------------------------------------

    def note_pending(self, candidate):
        """Count one in-flight (proposed but not yet scored) evaluation."""
        self._pending_counts[candidate] = self._pending_counts.get(candidate, 0) + 1

    def resolve_pending(self, candidate):
        """Discount one in-flight evaluation once its result has arrived."""
        count = self._pending_counts.get(candidate, 0)
        if count <= 1:
            self._pending_counts.pop(candidate, None)
        else:
            self._pending_counts[candidate] = count - 1

    def pending_count(self, candidate):
        """Number of in-flight evaluations of one candidate."""
        return self._pending_counts.get(candidate, 0)

    # -- failed-trial bookkeeping ---------------------------------------------------

    def record_failure(self, candidate):
        """Count one failed (crashed or non-finite) evaluation as a spent trial.

        A failed evaluation yields no reward, but it *was* a pull of the
        arm: counting it toward the candidate's trial count shrinks its
        confidence bonus, so a template that crashes deterministically is
        drawn with rapidly decaying frequency instead of being re-proposed
        forever as an eternally "unexplored" arm.
        """
        self._failure_counts[candidate] = self._failure_counts.get(candidate, 0) + 1

    def failure_count(self, candidate):
        """Number of failed evaluations recorded for one candidate."""
        return self._failure_counts.get(candidate, 0)

    def _trial_count(self, candidate, scores):
        """Trials spent on one arm: scored + in-flight + failed evaluations."""
        return len(scores) + self.pending_count(candidate) + self.failure_count(candidate)

    def _bandit_state(self, candidate_scores):
        """Shared per-``select`` bookkeeping: ``(total, rewards_by_arm, liar)``.

        ``total`` counts every recorded score plus every in-flight and
        every failed evaluation.  Rewards are computed once per arm here
        and reused by both the liar and the caller's scoring loop.  The
        liar — the stand-in reward for an arm whose trials are all still
        in flight, or all failed — is the worst mean reward across the
        other arms, computed through this selector's own
        ``compute_rewards`` so it lives on the same scale as the real
        rewards (raw-score means for UCB1, top-K means for best-K,
        velocities for best-K-velocity); an absolute constant like 0.0
        would be *optimistic* whenever rewards are negative (e.g. -RMSE
        means) and a batch would flood the scoreless arm.  It is only
        computed when something is pending or failed: otherwise a
        scoreless arm never reaches a scoring loop (``_unseen`` returns
        it first).
        """
        total = sum(len(scores) for scores in candidate_scores.values())
        total += sum(self._pending_counts.values())
        total += sum(self._failure_counts.values())
        rewards_by_arm = {
            candidate: self.compute_rewards(candidate_scores.get(candidate, []))
            for candidate in self.candidates
        }
        liar = 0.0
        if self._pending_counts or self._failure_counts:
            means = [float(np.mean(rewards)) for rewards in rewards_by_arm.values() if rewards]
            liar = min(means) if means else 0.0
        return total, rewards_by_arm, liar

    def _unseen(self, candidate_scores):
        return [
            c for c in self.candidates
            if not candidate_scores.get(c) and not self.pending_count(c)
            and not self.failure_count(c)
        ]

    #: Scoreless failures tolerated before an arm is quarantined: the
    #: first failure may be transient (a killed worker, flaky I/O), so
    #: the arm gets exactly one retry before it is treated as
    #: deterministically broken.
    quarantine_failures = 2

    def _selectable(self, candidate_scores):
        """Arms eligible for a scoring loop: quarantine repeated failures.

        An arm whose every completed trial failed carries no reward signal
        at all — UCB-style exploration bonuses would keep re-drawing it
        forever against arms with real scores, burning budget on a
        template that crashes deterministically.  After
        ``quarantine_failures`` scoreless failures (one mandatory trial
        plus one retry, in case the first failure was transient) the arm
        is excluded while any other arm remains; if *every* arm is
        quarantined, the least-failed ones remain the best guess and stay
        in the pool.
        """
        alive = [
            c for c in self.candidates
            if candidate_scores.get(c)
            or self.failure_count(c) < self.quarantine_failures
        ]
        if alive:
            return alive
        fewest = min(self.failure_count(c) for c in self.candidates)
        return [c for c in self.candidates if self.failure_count(c) == fewest]

    def __repr__(self):
        return "{}(n_candidates={})".format(type(self).__name__, len(self.candidates))


class UniformSelector(BaseSelector):
    """Select candidates uniformly at random (round-robin-free baseline)."""

    def select(self, candidate_scores):
        unseen = self._unseen(candidate_scores)
        if unseen:
            return unseen[0]
        selectable = self._selectable(candidate_scores)
        return selectable[int(self._rng.randint(0, len(selectable)))]


class UCB1Selector(BaseSelector):
    """Upper confidence bound selection (paper Equations 3 and 4).

    The reward of a template is the mean of its scores, and the selected
    template maximizes ``z_j + sqrt(2 ln n / n_j)``.

    In-flight evaluations (batch proposals whose results have not yet
    returned) count toward both ``n`` and ``n_j``: a template with many
    pending evaluations sees its confidence bonus shrink, which spreads a
    proposal batch across templates instead of flooding one arm.  Failed
    evaluations count the same way — a crashed trial consumed budget, so
    a deterministically-broken template decays like any over-explored arm
    instead of staying maximally attractive forever.
    """

    def compute_rewards(self, scores):
        if not scores:
            return []
        return [float(np.mean(scores))] * len(scores)

    def select(self, candidate_scores):
        unseen = self._unseen(candidate_scores)
        if unseen:
            return unseen[0]
        total, rewards_by_arm, liar = self._bandit_state(candidate_scores)
        best_candidate = None
        best_bound = -np.inf
        for candidate in self._selectable(candidate_scores):
            scores = candidate_scores.get(candidate, [])
            trials = self._trial_count(candidate, scores)
            rewards = rewards_by_arm[candidate]
            mean_reward = float(np.mean(rewards)) if rewards else liar
            bound = mean_reward + np.sqrt(2.0 * np.log(total) / trials)
            if bound > best_bound:
                best_bound = bound
                best_candidate = candidate
        return best_candidate


class BestKRewardSelector(BaseSelector):
    """UCB over the mean of each template's best K scores.

    Focusing on the top-K scores rewards templates whose *tuned* performance
    is promising even if their default configurations score poorly.
    """

    def __init__(self, candidates, k=3, random_state=None):
        super().__init__(candidates, random_state=random_state)
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k

    def compute_rewards(self, scores):
        if not scores:
            return []
        top = sorted(scores, reverse=True)[: self.k]
        return [float(np.mean(top))] * len(scores)

    def select(self, candidate_scores):
        unseen = self._unseen(candidate_scores)
        if unseen:
            return unseen[0]
        total, rewards_by_arm, liar = self._bandit_state(candidate_scores)
        best_candidate = None
        best_bound = -np.inf
        for candidate in self._selectable(candidate_scores):
            scores = candidate_scores.get(candidate, [])
            # a candidate can reach this loop scoreless when all its trials
            # are still in flight (n_pending > 1); its trial count keeps
            # the bound finite and the liar reward keeps it pessimistic
            trials = self._trial_count(candidate, scores)
            rewards = rewards_by_arm[candidate]
            reward = rewards[0] if rewards else liar
            bound = reward + np.sqrt(2.0 * np.log(total) / trials)
            if bound > best_bound:
                best_bound = bound
                best_candidate = candidate
        return best_candidate


class BestKVelocitySelector(BestKRewardSelector):
    """UCB over the *velocity* of each template's best-K scores.

    The reward is the mean difference between consecutive top-K scores,
    which favors templates whose tuned performance is still improving —
    useful late in a search when flat-lined templates should be dropped.
    """

    def compute_rewards(self, scores):
        if not scores:
            return []
        top = sorted(scores, reverse=True)[: self.k + 1]
        if len(top) < 2:
            return [float(top[0])] * len(scores)
        velocity = float(np.mean(np.diff(top[::-1])))
        return [velocity] * len(scores)


class ThompsonSamplingSelector(BaseSelector):
    """Gaussian Thompson sampling over the per-template score distributions.

    Each template's scores are modeled as a normal distribution; one sample
    is drawn per template and the largest sample wins.  Compared to UCB1
    this randomizes exploration, which helps when many templates have
    similar means.
    """

    def __init__(self, candidates, prior_std=1.0, random_state=None):
        super().__init__(candidates, random_state=random_state)
        if prior_std <= 0:
            raise ValueError("prior_std must be positive")
        self.prior_std = prior_std

    def select(self, candidate_scores):
        unseen = self._unseen(candidate_scores)
        if unseen:
            return unseen[0]
        # the liar is reachable only with pending or failed work (scoreless
        # arms are otherwise returned by _unseen); skip the pass without it
        if self._pending_counts or self._failure_counts:
            liar = self._bandit_state(candidate_scores)[2]
        else:
            liar = 0.0
        best_candidate = None
        best_draw = -np.inf
        for candidate in self._selectable(candidate_scores):
            scores = np.asarray(candidate_scores.get(candidate, []), dtype=float)
            # scoreless candidates (trials in flight or failed) draw around
            # the pessimistic liar; spent trials narrow the distribution
            trials = self._trial_count(candidate, scores)
            mean = float(scores.mean()) if len(scores) else liar
            std = float(scores.std()) if len(scores) > 1 else self.prior_std
            std = max(std, 1e-6) / np.sqrt(max(trials, 1))
            draw = float(self._rng.normal(mean, std))
            if draw > best_draw:
                best_draw = draw
                best_candidate = candidate
        return best_candidate


SELECTORS = {
    "uniform": UniformSelector,
    "ucb1": UCB1Selector,
    "best_k": BestKRewardSelector,
    "best_k_velocity": BestKVelocitySelector,
    "thompson": ThompsonSamplingSelector,
}


def get_selector(name):
    """Look up a selector class by its short name."""
    try:
        return SELECTORS[name]
    except KeyError:
        raise ValueError(
            "Unknown selector {!r}; available selectors: {}".format(name, sorted(SELECTORS))
        ) from None
