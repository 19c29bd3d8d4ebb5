"""Acquisition functions for Bayesian optimization tuners.

Acquisition functions are AutoML primitives in the paper's terminology:
they are combined with a meta-model primitive (a GP or GCP) to form a
tuner such as GP-EI or GCP-EI.

The standard normal CDF and density are written out as the expressions
``scipy.stats.norm`` evaluates for them (``ndtr``, and ``exp(-z**2/2)``
over ``sqrt(2 pi)``), without its argument checking and broadcasting on
every call; the values are the same to the bit.  ``ndtr`` is imported from
``scipy.special`` inside the two functions that use it (through
:func:`repro.lazyimport.import_module`), so importing this module loads no
SciPy: the first GP tuner proposal pays for it once.
"""

import numpy as np

from repro.lazyimport import import_module

_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z):
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def expected_improvement(mean, std, best, xi=0.01):
    """Expected improvement over the current best observed score.

    Scores are assumed to be maximized; ``best`` is the best score seen so
    far and ``xi`` a small exploration margin.
    """
    ndtr = import_module("scipy.special").ndtr
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = mean - best - xi
    z = improvement / std
    return improvement * ndtr(z) + std * _norm_pdf(z)


def upper_confidence_bound(mean, std, beta=2.0):
    """GP-UCB acquisition: mean plus ``beta`` standard deviations."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    return mean + beta * std


def probability_of_improvement(mean, std, best, xi=0.01):
    """Probability that a candidate improves on the best observed score."""
    ndtr = import_module("scipy.special").ndtr
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    return ndtr((mean - best - xi) / std)


ACQUISITIONS = {
    "ei": expected_improvement,
    "ucb": upper_confidence_bound,
    "pi": probability_of_improvement,
}
