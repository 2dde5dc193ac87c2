"""The update map's two shortcuts against the literal rules, on both backends.

`harness._update_map` returns a homogeneous k-NN neighbourhood's first
opinion without a neighbour walk, and reads the ABC neighbours in one pass
over the opinions. On a float state both must give the bits of the literal
mean over `knn_indices` and `abc_indices`, the sign of zero included; float
opinions come from a pool with exact ties, signed zeros and a
rounding-collapsed near-tie (from 1.0, both 0.0 and 2**-60 are at 1.0). On an
exact state both must equal `mean_exact` over `common_numerators` of those
neighbours; exact opinions are Fractions over small denominators, so ties
are common.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnopinion.dynamics import OpinionIndex, abc_indices, knn_indices
from knnopinion.harness import _update_map
from knnopinion.numerics import EXACT, FLOAT, coerce_all, common_numerators, mean_exact, mean_float
from knnopinion.scenario import ModelSpec

POOL = [0.0, -0.0, 1.0, -1.0, 0.5, 0.25, 2.0, 0.1, 2.0 ** -60, 2.0 ** -59]
# the float of 1/10 or 1/5 is above it, so a float run compares with the float below
DISTANCES = [0.0, 0.25, 0.5, 1.0, 0.1, Fraction(1, 4), Fraction(1, 10), Fraction(1, 5)]


@st.composite
def states(draw):
    opinions = draw(st.lists(st.sampled_from(POOL) | st.floats(-2, 2, allow_subnormal=False),
                             min_size=1, max_size=12))
    n = len(opinions)
    return opinions, draw(st.integers(0, n - 1)), draw(st.integers(1, n))


def updated(opinions, idx, model):
    """The map's update of opinions[idx], on the backend of the opinions."""
    return _update_map(OpinionIndex(list(opinions)), model, coerce_all(opinions)[1])(idx)


KNN_CASES = [   # (opinions, idx, k, whether the neighbour walk is skipped)
    ([0.5, 0.5, 0.1, 0.9], 0, 3, False),        # a run of k-1 equal values
    ([0.5, 0.5, 0.5, 0.1, 0.9], 1, 3, True),    # a run of k
    ([0.1, 0.5, 0.5, 0.5, 0.5], 4, 3, True),    # a run of k+1
    ([-0.0, 1.0, 0.0, 0.0], 2, 3, True),        # the lowest position holds -0.0
    ([0.0, -0.0, -0.0, 1.0], 2, 2, True),       # ... and 0.0
    ([0.3, -0.0, 0.0], 2, 1, True),             # k = 1
    ([0.25, 0.25, 0.25], 1, 3, True),           # k = n, homogeneous
    ([0.25, 0.5, 0.25], 0, 3, False),           # k = n, mixed
    ([1.0, 0.0, 2.0 ** -60, 2.0], 0, 2, False),  # 0.0 and 2**-60 both at 1.0 from 1.0
    ([2.0 ** -60, 1.0, 0.0, 2.0, 1.0], 1, 3, False),
]
KNN_EXAMPLES = [case[:3] for case in KNN_CASES]

F = Fraction
EXACT_KNN_CASES = [   # the same shapes on exact states
    ([F(1, 2), F(1, 2), F(1, 4), F(3, 4)], 0, 3, False),         # a run of k-1
    ([F(1, 2), F(1, 2), F(1, 2), F(1, 4), F(3, 4)], 1, 3, True),  # a run of k
    ([F(1, 4), F(1, 2), F(1, 2), F(1, 2), F(1, 2)], 4, 3, True),  # a run of k+1
    ([F(0), F(1, 3), F(2, 3), F(1, 3)], 1, 2, True),             # two holders, k of them
    ([F(0), F(1, 3), F(2, 3), F(1)], 1, 2, False),              # the far tie goes to id 1
    ([F(1, 3), F(0), F(0)], 0, 1, True),                       # k = 1
    ([F(1, 4), F(1, 4), F(1, 4)], 1, 3, True),                  # k = n, homogeneous
    ([F(1, 4), F(1, 2), F(1, 4)], 0, 3, False),                 # k = n, mixed
]


def with_examples(cases):
    """Each case as a hypothesis @example of the one-argument test."""
    def apply(test):
        for case in cases:
            test = example(case)(test)
        return test
    return apply


@with_examples(KNN_EXAMPLES)
@settings(max_examples=500, deadline=None, derandomize=True)
@given(states())
def test_float_knn_map_returns_the_literal_mean(state):
    opinions, idx, k = state
    got = updated(opinions, idx, ModelSpec(kind="knn", k=k))
    want = mean_float([opinions[j] for j in knn_indices(opinions, idx, k)])
    assert got.hex() == want.hex()


@st.composite
def exact_states(draw):
    """Fractions p/q with q <= 4 in [-2, 2], so equal values and equal
    distances are common."""
    opinions = draw(st.lists(st.builds(F, st.integers(-8, 8), st.sampled_from([1, 2, 3, 4])),
                             min_size=1, max_size=12))
    n = len(opinions)
    return opinions, draw(st.integers(0, n - 1)), draw(st.integers(1, n))


def exact_mean(values):
    return mean_exact(*common_numerators(values))


@with_examples([case[:3] for case in EXACT_KNN_CASES])
@settings(max_examples=500, deadline=None, derandomize=True)
@given(exact_states())
def test_exact_knn_map_returns_the_literal_mean(state):
    opinions, idx, k = state
    got = updated(opinions, idx, ModelSpec(kind="knn", k=k))
    assert type(got) is Fraction
    assert got == exact_mean([opinions[j] for j in knn_indices(opinions, idx, k)])


@st.composite
def abc_states(draw):
    opinions, idx, _ = draw(states())
    return opinions, idx, draw(st.sampled_from(DISTANCES))


ABC_EXAMPLES = [   # (opinions, idx, d)
    ([0.0, 0.25, 0.5, 0.75], 1, 0.25),         # both neighbours exactly d away
    ([0.0, 0.25, 0.5, 0.75], 1, Fraction(1, 4)),
    ([1.0, 0.0, 2.0 ** -60, 2.0], 0, 1.0),     # the collapsed near-tie is within d
    ([-0.0, 0.0, 0.5], 1, 0.0),               # d = 0 keeps both signed zeros
    ([0.0, 0.1, -0.1, 0.2], 0, Fraction(1, 10)),   # 0.1 away is more than 1/10
    ([0.1, 0.0, -0.0, 0.2], 0, Fraction(1, 10)),
    ([-0.0, 0.2, 0.0, 0.4], 0, Fraction(1, 5)),    # 0.2 away is more than 1/5
    ([0.2, -0.0, 0.4, 0.0], 3, Fraction(1, 5)),
]


@with_examples(ABC_EXAMPLES)
@settings(max_examples=500, deadline=None, derandomize=True)
@given(abc_states())
def test_float_abc_map_returns_the_literal_mean(state):
    opinions, idx, d = state
    got = updated(opinions, idx, ModelSpec(kind="abc", d=d))
    want = mean_float([opinions[j] for j in abc_indices(opinions, idx, d)])
    assert got.hex() == want.hex()


@pytest.mark.parametrize("opinions, idx, d", ABC_EXAMPLES)
def test_a_float_abc_map_compares_no_fraction_once_built(monkeypatch, opinions, idx, d):
    """A float run's map holds the largest float not above d, so its update
    compares floats only, whatever the type of d."""
    want = [updated(opinions, j, ModelSpec(kind="abc", d=d)).hex() for j in range(len(opinions))]
    update = _update_map(OpinionIndex(list(opinions)), ModelSpec(kind="abc", d=d), FLOAT)

    def refuse(*args):
        raise AssertionError("a Fraction was compared")

    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, refuse)
    assert [update(j).hex() for j in range(len(opinions))] == want


EXACT_DISTANCES = [F(0), F(1, 4), F(1, 3), F(1, 2), F(1), 0.25, 0.1, 1 / 3]


@st.composite
def exact_abc_states(draw):
    opinions, idx, _ = draw(exact_states())
    return opinions, idx, draw(st.sampled_from(EXACT_DISTANCES))
EXACT_ABC_EXAMPLES = [   # (opinions, idx, d)
    ([F(0), F(1, 4), F(1, 2), F(3, 4)], 1, F(1, 4)),   # both neighbours exactly d away
    ([F(0), F(1, 4), F(1, 2), F(3, 4)], 1, 0.25),      # ... with a float d
    ([F(0), F(1, 3), F(2, 3)], 1, F(1, 3)),
    ([F(0), F(1, 3), F(2, 3)], 1, 1 / 3),             # the float 1/3 is below 1/3
    ([F(0), F(1, 10), F(1, 5)], 0, 0.1),              # the float 0.1 is above 1/10
    ([F(1, 2), F(1, 2), F(0)], 0, F(0)),              # d = 0 keeps the equal values
]


@with_examples(EXACT_ABC_EXAMPLES)
@settings(max_examples=500, deadline=None, derandomize=True)
@given(exact_abc_states())
def test_exact_abc_map_returns_the_literal_mean(state):
    opinions, idx, d = state
    got = updated(opinions, idx, ModelSpec(kind="abc", d=d))
    assert type(got) is Fraction
    assert got == exact_mean([opinions[j] for j in abc_indices(opinions, idx, d)])


@pytest.mark.parametrize("opinions, idx, k, shortcut", KNN_CASES + EXACT_KNN_CASES)
def test_a_homogeneous_neighbourhood_skips_the_neighbour_walk(monkeypatch, opinions, idx, k,
                                                              shortcut):
    calls = []
    knn = OpinionIndex.knn

    def counted(index, idx, k):
        calls.append(idx)
        return knn(index, idx, k)

    monkeypatch.setattr(OpinionIndex, "knn", counted)
    updated(opinions, idx, ModelSpec(kind="knn", k=k))
    assert calls == ([] if shortcut else [idx])
