"""One grouping and one label rule against the former per-backend code.

A limit state is labelled as `simulate` labels it: `single_linkage_groups`
at tol for float states and at 0 for exact ones, then `_limit_class` on the
group sizes. `reference_classify` keeps the old bodies: a dict of equal
values and the definition-based `is_clustered` for exact states, single
linkage with a re-sort for float states. Hypothesis draws exact states with ties, groups of
k-1, k and k+1 agents and values one numerator apart, and float states with
gaps at the tolerance and one ulp either side of it, signed zeros and
chained linkage, under k-NN and ABC. Labels must agree, and partitions must
agree group by group: representative (by `==`, type and `float.hex`) and
members.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnopinion.dynamics import Configuration
from knnopinion.equilibria import partition_clusters, quantize_clusters, single_linkage_groups
from knnopinion.harness import _limit_class
from knnopinion.numerics import EXACT, FLOAT
from knnopinion.scenario import ModelSpec
from reference_classify import (
    reference_classify_opinions,
    reference_partition_clusters,
    reference_quantize_clusters,
)

ORACLE = settings(max_examples=400, deadline=None, derandomize=True)
UNIT = 2.0 ** -10
ABC = ModelSpec(kind="abc", d=Fraction(1, 4))


def classify(opinions, model, tol, backend):
    """The label `simulate` gives a converged final state."""
    groups = single_linkage_groups(opinions, tol if backend == FLOAT else 0)
    return _limit_class([len(g) for g in groups], model.k)


def assert_same_partition(got, want):
    assert len(got.groups) == len(want.groups)
    for (rep, members), (rep0, members0) in zip(got.groups, want.groups):
        assert type(rep) is type(rep0) and rep == rep0
        if isinstance(rep, float):
            assert rep.hex() == rep0.hex()
        assert members == members0


@st.composite
def exact_states(draw):
    """(opinions, model): groups of k-1, k and k+1 agents at p/den, with
    neighbouring p one numerator apart and repeated p merging groups."""
    k = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 2, 3, 7]))
    sizes = [s for s in (k - 1, k, k + 1) if s > 0]
    groups = draw(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(sizes)),
                           min_size=1, max_size=4))
    opinions = [Fraction(p, den) for p, size in groups for _ in range(size)]
    opinions = draw(st.permutations(opinions))
    knn = k <= len(opinions) and draw(st.sampled_from([True, True, False]))
    return opinions, ModelSpec(kind="knn", k=k) if knn else ABC


@st.composite
def float_states(draw):
    """(opinions, model, tol): multiples of UNIT, signed zeros and arbitrary
    floats; tol is UNIT, 2 UNIT or a gap of the state, or one ulp either
    side of it."""
    n = draw(st.integers(1, 10))
    pool = (st.integers(-6, 6).map(lambda m: m * UNIT) | st.sampled_from([0.0, -0.0])
            | st.floats(-1, 1, allow_subnormal=False))
    opinions = draw(st.lists(pool, min_size=n, max_size=n))
    ordered = sorted(opinions)
    gaps = [b - a for a, b in zip(ordered, ordered[1:]) if b > a]
    base = draw(st.sampled_from([UNIT, 2 * UNIT] + gaps))
    tol = draw(st.sampled_from([base, math.nextafter(base, 0), math.nextafter(base, math.inf)]))
    knn = draw(st.sampled_from([True, True, False]))
    model = ModelSpec(kind="knn", k=draw(st.integers(1, n))) if knn else ABC
    return opinions, model, tol


@ORACLE
@given(exact_states(), st.sampled_from([1e-9, 0.5, 2.0]))
@example(([Fraction(0)] * 3 + [Fraction(1)] * 3, ModelSpec(kind="knn", k=3)), 1e-9)
@example(([Fraction(0)] * 2 + [Fraction(1)] * 3, ModelSpec(kind="knn", k=3)), 1e-9)
def test_exact_states_match_the_reference(state, tol):
    opinions, model = state
    assert (classify(opinions, model, tol, EXACT)
            == reference_classify_opinions(opinions, model, tol, EXACT))
    config = Configuration(opinions)
    assert_same_partition(partition_clusters(config), reference_partition_clusters(config))


@ORACLE
@given(float_states())
@example(([0.0, UNIT, 2 * UNIT, 3 * UNIT, 5 * UNIT], ModelSpec(kind="knn", k=4), UNIT))
@example(([-0.0, 0.0, UNIT, -0.0], ModelSpec(kind="knn", k=2), UNIT))
@example(([0.0, UNIT], ModelSpec(kind="knn", k=1), math.nextafter(UNIT, 0)))
def test_float_states_match_the_reference(state):
    opinions, model, tol = state
    assert (classify(opinions, model, tol, FLOAT)
            == reference_classify_opinions(opinions, model, tol, FLOAT))
    config = Configuration(opinions)
    assert_same_partition(quantize_clusters(config, tol),
                          reference_quantize_clusters(config, tol))
