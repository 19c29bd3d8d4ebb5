"""The copula's NumPy ranks and ``scipy.special`` normal functions equal ``scipy.stats``.

The GP meta-models import no ``scipy.stats``: average ranks come from
``repro.tuning.gp.average_ranks`` and the normal quantile and CDF from
``ndtri`` / ``ndtr``.  Tuner proposals (and so search record digests) depend
on these being the same numbers ``scipy.stats`` returned, so every check
here is exact.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import ndtr, ndtri

from repro.tuning.gp import average_ranks

#: A few values drawn over and over so ties and duplicates are common.
_TIE_PRONE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e300, 1e300])

_SCORES = st.lists(
    st.one_of(
        _TIE_PRONE,
        st.floats(allow_nan=False),
        st.integers(-3, 3).map(float),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(_SCORES)
def test_average_ranks_equal_scipy_rankdata(values):
    values = np.asarray(values, dtype=float)
    ours = average_ranks(values)
    theirs = stats.rankdata(values, method="average")
    assert ours.dtype == theirs.dtype
    assert np.array_equal(ours, theirs)


def test_average_ranks_of_one_element_and_all_ties():
    assert np.array_equal(average_ranks([7.0]), stats.rankdata([7.0], method="average"))
    assert np.array_equal(average_ranks([2.0] * 5), [3.0] * 5)
    assert np.array_equal(average_ranks([3.0, 1.0, 3.0, 2.0]), [3.5, 1.0, 3.5, 2.0])


_PROBABILITIES = st.lists(
    st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, 0.5, 5e-324, 1e-300, 1.0 - 2.0 ** -53]),
        # the copula's own quantile levels: average ranks over n + 1
        st.tuples(st.integers(1, 400), st.integers(1, 400)).map(
            lambda pair: min(pair) / (max(pair) + 1.0)
        ),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_PROBABILITIES)
def test_ndtri_equals_norm_ppf(levels):
    levels = np.asarray(levels, dtype=float)
    assert np.array_equal(ndtri(levels), stats.norm.ppf(levels))


_LATENT = st.lists(
    st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([np.inf, -np.inf, 0.0, -0.0, 38.5, -38.5, 8.3, -8.3]),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_LATENT)
def test_ndtr_equals_norm_cdf(points):
    points = np.asarray(points, dtype=float)
    assert np.array_equal(ndtr(points), stats.norm.cdf(points))


def test_scalar_quantile_matches_too():
    # ``GCPEiTuner`` calls ``ndtri`` on one scalar level per proposal
    for level in (1.0 / 3.0, 0.5, 239.0 / 241.0):
        assert ndtri(level) == stats.norm.ppf(level)
    assert np.array_equal(ndtr(np.array([-np.inf, np.inf])), [0.0, 1.0])
