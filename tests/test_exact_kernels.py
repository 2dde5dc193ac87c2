"""Differential tests of the exact kernels that work on integer numerators
(knn_indices, mean_of, mu_index, big_m_index, extremal_selection) against
the literal Fraction rules, which stay the oracle here."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from knnopinion.convergence import big_m_index, extremal_selection, mu_index
from knnopinion.dynamics import Configuration, knn_indices
from knnopinion.numerics import common_numerators, mean_of

F = Fraction
# a shrink schedule divides by k at every step; 28 steps at k = 15 reach this
LONG_RUN_DENOMINATOR = 15 ** 28

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=12)
TIED = st.sampled_from([F(0), F(1, 2), F(-1, 3), F(2, 3), F(-2)])
INTS = st.integers(min_value=-4, max_value=4)
LONG_RUN = st.builds(lambda p, e: F(p, 15 ** e),
                     st.integers(min_value=-3 * LONG_RUN_DENOMINATOR,
                                 max_value=3 * LONG_RUN_DENOMINATOR),
                     st.integers(min_value=0, max_value=28))
# distinct values a few units of the long-run denominator apart: a float
# key cannot tell them apart, the exact order must
NEAR_TIES = st.builds(lambda base, off: base + F(off, LONG_RUN_DENOMINATOR),
                      st.sampled_from([F(0), F(1, 3), F(-7, 5)]),
                      st.integers(min_value=-3, max_value=3))
EXACT = st.one_of(SMALL, TIED, INTS, LONG_RUN, NEAR_TIES)
STATES = st.lists(EXACT, min_size=1, max_size=12)


@settings(max_examples=300)
@given(STATES)
def test_common_numerators_scale_by_the_lcm(values):
    nums, den = common_numerators(values)
    assert den >= 1 and all(isinstance(m, int) for m in nums)
    assert [F(m, den) for m in nums] == [F(v) for v in values]
    assert all(den % F(v).denominator == 0 for v in values)


@settings(max_examples=300)
@given(STATES)
def test_knn_indices_matches_the_fraction_sort(opinions):
    n = len(opinions)
    for i in range(n):
        oracle = sorted(range(n), key=lambda j: (abs(opinions[j] - opinions[i]), j))
        for k in range(1, n + 1):
            assert knn_indices(opinions, i, k) == oracle[:k]


@settings(max_examples=300)
@given(STATES)
def test_exact_mean_of_matches_fraction_sum(values):
    mean = mean_of(values)
    assert mean == sum(values, Fraction(0)) / len(values)
    # a homogeneous set returns its first value untouched, as before
    assert type(mean) is (type(values[0]) if len(set(values)) == 1 else Fraction)


@settings(max_examples=300)
@given(STATES)
def test_extremal_indices_match_fraction_min_max(values):
    config = Configuration(values)
    ops = config.opinions
    assert mu_index(config) == ops.index(min(ops)) + 1
    assert big_m_index(config) == ops.index(max(ops)) + 1
    for k in range(1, config.n + 1):
        sel = extremal_selection(config, k)
        low = sorted(range(config.n), key=lambda j: (abs(ops[j] - ops[sel.mu - 1]), j))[:k]
        high = sorted(range(config.n), key=lambda j: (abs(ops[j] - ops[sel.big_m - 1]), j))[:k]
        assert sel.y == max(ops[j] for j in low)
        assert sel.z == min(ops[j] for j in high)


def test_extremal_indices_keep_float_behaviour():
    config = Configuration([0.5, -0.0, 0.0, 2.0, 2.0])
    assert mu_index(config) == 2
    assert big_m_index(config) == 4
