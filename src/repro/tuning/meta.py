"""Meta-learning across tasks: warm-starting tuners from stored pipelines.

The paper's conclusion anticipates that "as we collect more and more scored
pipelines, we expect opportunities will emerge for meta-learning ... on ML
tasks and pipelines".  This module implements that extension: a tuner that
seeds its meta-model with the best configurations previously recorded for
the same template on *other* tasks (taken from a piex
:class:`~repro.explorer.store.PipelineStore`), so the search starts from
historically good regions instead of from scratch.
"""

import numbers

import numpy as np

from repro.explorer.store import normalize_value
from repro.tuning.hyperparams import (
    BooleanHyperparam,
    CategoricalHyperparam,
    FloatHyperparam,
    IntHyperparam,
)
from repro.tuning.tuners import GPEiTuner


class WarmStartGPTuner(GPEiTuner):
    """GP-EI tuner warm-started from historical evaluations of the same template.

    Parameters
    ----------
    tunable:
        The template's hyperparameter space.
    history:
        Iterable of ``(hyperparameters, score)`` pairs harvested from prior
        tasks (see :func:`harvest_history`).  Scores from different tasks
        are not comparable in absolute terms, so they are rank-normalized
        into [0, 1] before seeding the meta-model.
    warm_start_weight:
        Relative weight of a warm-start observation compared to a real one
        (real observations from the current task eventually dominate).
    """

    def __init__(self, tunable, history=(), warm_start_weight=0.5, n_candidates=100,
                 min_trials=1, random_state=None):
        super().__init__(tunable, n_candidates=n_candidates, min_trials=min_trials,
                         random_state=random_state)
        self.warm_start_weight = warm_start_weight
        self._warm_trials = []
        self._warm_scores = []
        self._load_history(history)

    def _load_history(self, history):
        pairs = [(params, score) for params, score in history if score is not None]
        if not pairs:
            return
        scores = np.asarray([score for _, score in pairs], dtype=float)
        # rank-normalize prior scores into [0, 1]
        order = scores.argsort().argsort()
        normalized = order / max(len(scores) - 1, 1)
        for (params, _), value in zip(pairs, normalized):
            try:
                usable = {
                    key: _space_value(hyperparam, params[key])
                    for key, hyperparam in self.tunable.hyperparams.items()
                }
            except (KeyError, ValueError):
                continue  # incomplete, or outside this space
            self._warm_trials.append(usable)
            self._warm_scores.append(float(value))

    @property
    def n_warm_observations(self):
        """Number of historical observations seeded into the meta-model."""
        return len(self._warm_trials)

    def _fit_meta_model(self):
        """The meta-model over the observed trials plus the warm rows, refit on every proposal.

        Unlike :meth:`GPTuner._fit_meta_model` this is not memoized on the
        observed-data version: every fit sees the pending entries added
        since the last observation as liar rows, so a memo would change
        its proposals whenever more than one proposal is in flight.
        Refits still go through :meth:`GPTuner._refit`, so the rows shared
        with the previous fit keep their Gram block.
        """
        trials, scores = self._training_data()
        if self._warm_trials and scores:
            # map warm-start ranks onto the observed score range so both live
            # on one comparable scale
            low, high = min(scores), max(scores)
            span = (high - low) or 1.0
            trials = trials + self._warm_trials
            scores = scores + [
                low + self.warm_start_weight * value * span for value in self._warm_scores
            ]
        return self._refit(trials, scores)

    def _propose_one(self):
        # if history exists, the very first proposal exploits the best prior
        # configuration instead of sampling at random; pending in-flight
        # proposals count as that first shot, otherwise a batch proposed
        # before any score returns would duplicate the same configuration
        if not self.trials and not self._pending and self._warm_trials:
            best = int(np.argmax(self._warm_scores))
            return dict(self._warm_trials[best])
        return super()._propose_one()


def _space_value(hyperparam, value):
    """The value of ``hyperparam``'s own space that a historical ``value`` stands for.

    Stored documents hold normalized values (a tuple category such as
    ``(64,)`` comes back as ``[64]``), so categories, and the two booleans,
    are matched by their :func:`~repro.explorer.store.normalize_value`
    form; a number must lie in ``[low, high]``.  A value outside the space
    raises ``ValueError``.
    """
    if isinstance(hyperparam, (IntHyperparam, FloatHyperparam)):
        if isinstance(value, numbers.Real) and hyperparam.low <= value <= hyperparam.high:
            return value
    elif isinstance(hyperparam, (CategoricalHyperparam, BooleanHyperparam)):
        choices = getattr(hyperparam, "values", (False, True))  # a boolean has two
        stored = normalize_value(value)
        for choice in choices:
            if normalize_value(choice) == stored:
                return choice
    else:
        return value
    raise ValueError("{!r} is outside the space of {!r}".format(value, hyperparam.name))


def harvest_history(store, template_name, exclude_task=None, limit=200):
    """Extract ``(hyperparameters, score)`` pairs for one template from a piex store.

    Parameters
    ----------
    store:
        A :class:`~repro.explorer.store.PipelineStore`.
    template_name:
        Only documents for this template are harvested.
    exclude_task:
        Task name to leave out (normally the task about to be tuned).
    limit:
        Keep at most this many of the highest-scoring documents.
    """
    documents = [
        document for document in store.find(template_name=template_name)
        if document.get("score") is not None and document.get("task_name") != exclude_task
    ]
    # stable sort: equal-scoring documents keep their store (insertion)
    # order, so harvesting from a reloaded persistent store seeds the
    # same history as harvesting from the live one
    documents.sort(key=lambda document: document["score"], reverse=True)
    history = []
    for document in documents[:limit]:
        hyperparameters = {}
        for key, value in document.get("hyperparameters", {}).items():
            hyperparameters[_parse_key(key)] = value
        history.append((hyperparameters, document["score"]))
    return history


def _parse_key(key):
    """Convert a stringified ``(step, hyperparam)`` key back into a tuple."""
    if isinstance(key, tuple):
        return key
    text = str(key).strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1]
        parts = [part.strip().strip("'\"") for part in inner.split(",")]
        parts = [part for part in parts if part]
        if len(parts) == 2:
            return (parts[0], parts[1])
    return key
