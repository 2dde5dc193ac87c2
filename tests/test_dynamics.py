import copy
import math
import pickle
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnopinion.dynamics import (
    Configuration,
    OpinionIndex,
    ParameterError,
    abc_update,
    diameter,
    knn_indices,
    knn_neighbors,
    knn_update,
)
from knnopinion.equilibria import build_example1
from knnopinion.numerics import BackendError
from knnopinion.rng import SeededRng

F = Fraction


def oracle_knn_members(config, i, k):
    """Independent neighbor oracle: enumerate every k-subset and pick the one
    whose sorted (distance, id) key list is lexicographically smallest."""
    xi = config.opinion(i)
    def key(subset):
        return sorted((abs(config.opinion(j) - xi), j) for j in subset)
    best = min(combinations(config.agents(), k), key=key)
    return set(best)


def test_tie_counterexample_neighbors_of_middle_agent():
    x = Configuration([F(0), F(1), F(0), F(1), F(0), F(1), F(1, 2)])
    ns = knn_neighbors(x, 7, 3)
    assert ns == (7, 1, 2)  # self at distance 0, then lowest ids win the six-way tie


def test_k_equals_n_gives_everyone():
    x = Configuration([F(3), F(0), F(9)])
    assert set(knn_neighbors(x, 2, 3)) == {1, 2, 3}


def test_example1_agent12_neighbors():
    x = build_example1(F(0), F(1))
    assert set(knn_neighbors(x, 12, 5)) == {1, 12, 13, 14, 15}


def test_all_equal_excludes_self_when_ties_fill_up():
    x = Configuration([F(0)] * 4)
    assert set(knn_neighbors(x, 3, 2)) == {1, 2}


def test_neighbors_match_bruteforce_oracle():
    rng = SeededRng("nbr-oracle")
    for _ in range(200):
        n = 2 + rng.randbelow(6)
        k = 1 + rng.randbelow(n)
        x = Configuration([F(rng.randbelow(8), 1 + rng.randbelow(3)) for _ in range(n)])
        i = 1 + rng.randbelow(n)
        assert set(knn_neighbors(x, i, k)) == oracle_knn_members(x, i, k)


def test_update_example1_is_fixed_for_agent12():
    x = build_example1(F(0), F(1))
    assert knn_update(x, 12, 5) == x


def test_update_consensus_fixed():
    x = Configuration([F(2, 7)] * 5)
    for i in x.agents():
        assert knn_update(x, i, 3) == x


def test_update_three_agents_midpoint():
    # N_2 = {1, 2}: agents 1 and 3 tie at distance 1/2, lower id wins
    x = Configuration([F(0), F(1, 2), F(1)])
    assert set(knn_neighbors(x, 2, 2)) == oracle_knn_members(x, 2, 2) == {1, 2}
    assert knn_update(x, 2, 2) == Configuration([F(0), F(1, 4), F(1)])


def test_update_touches_exactly_one_component():
    rng = SeededRng("single-writer")
    for _ in range(50):
        n = 2 + rng.randbelow(8)
        x = Configuration([F(rng.randbelow(10)) for _ in range(n)])
        i = 1 + rng.randbelow(n)
        k = 1 + rng.randbelow(n)
        y = knn_update(x, i, k)
        assert all(y.opinion(j) == x.opinion(j) for j in x.agents() if j != i)


def test_affine_equivariance_of_selection():
    rng = SeededRng("affine")
    for _ in range(50):
        n = 2 + rng.randbelow(7)
        x = Configuration([F(rng.randbelow(12), 2) for _ in range(n)])
        a, b = F(1 + rng.randbelow(5)), F(rng.randbelow(9) - 4)
        mapped = Configuration([a * v + b for v in x.opinions])
        i = 1 + rng.randbelow(n)
        k = 1 + rng.randbelow(n)
        assert knn_neighbors(mapped, i, k) == knn_neighbors(x, i, k)
        assert knn_update(mapped, i, k) == Configuration(
            [a * v + b for v in knn_update(x, i, k).opinions]
        )


def test_abc_update_threshold():
    x = Configuration([0.0, 0.2, 1.0])
    got = abc_update(x, 1, 0.25)
    assert got.opinions == (0.1, 0.2, 1.0)


def test_abc_isolated_agent_unchanged():
    x = Configuration([F(0), F(10), F(20)])
    assert abc_update(x, 2, F(1)) == x


def test_abc_full_visibility_gives_global_mean():
    x = Configuration([F(0), F(1), F(5)])
    assert abc_update(x, 3, F(100)).opinion(3) == F(2)


def test_abc_negative_d_rejected():
    with pytest.raises(ParameterError):
        abc_update(Configuration([F(0), F(1)]), 1, F(-1))


def test_diameter():
    assert diameter(Configuration([F(4)] * 3)) == 0
    assert diameter(Configuration([F(0), F(1), F(2), F(3)])) == 3
    assert diameter(build_example1(F(0), F(1))) == 1


def test_parameter_errors():
    x = Configuration([F(0), F(1)])
    with pytest.raises(ParameterError):
        knn_neighbors(x, 1, 3)
    with pytest.raises(ParameterError):
        knn_neighbors(x, 5, 1)
    with pytest.raises(ParameterError):
        Configuration([])


@pytest.mark.parametrize("config, den", [
    (Configuration([F(1, 3), F(0), 2]), 3),
    (Configuration([0.5, -0.0, 2.0, 0.0]), None),
    # the update stores [1/4, 1/2, 1] over D = 4; the replace reduces
    # [2, 2, 4] / 4 to [1, 1, 2] / 2. Nothing has read its opinions yet, so
    # it is pickled and copied as built, with no opinion tuple.
    (knn_update(Configuration([F(0), F(1, 2), F(1)]), 1, 2).replace(1, F(1, 2)), 2),
], ids=["exact", "float", "exact-carrying-numerators"])
def test_configuration_pickles_and_copies(config, den):
    assert config.den == den
    for twin in (pickle.loads(pickle.dumps(config)), copy.copy(config), copy.deepcopy(config)):
        assert twin == config and twin.backend == config.backend
        assert hash(twin) == hash(config)
        assert (twin.keys, twin.den) == (config.keys, den)
        assert repr(twin.opinions) == repr(config.opinions)  # keeps the sign of zero
        if config.backend == "exact":
            nums, den = twin.keys, twin.den
            assert [F(m, den) for m in nums] == list(config.opinions)
            assert knn_update(twin, 2, 3) == knn_update(config, 2, 3)


def test_replace_keeps_one_backend():
    exact, floats = Configuration([F(1), F(2)]), Configuration([1.0, 2.0])
    for config, value in ((exact, 0.5), (floats, F(1, 2)), (exact, True), (floats, False)):
        with pytest.raises(BackendError):
            config.replace(1, value)
    # a plain int takes the configuration's backend, as in Configuration()
    assert type(exact.replace(1, 3).opinion(1)) is Fraction
    assert repr(floats.replace(2, 3).opinions) == "(1.0, 3.0)"
    replaced = exact.replace(2, 5)
    assert (list(replaced.keys), replaced.den) == ([1, 5], 1)


def test_replace_edge_cases():
    # a one-agent state coerces the new value with its one opinion, so a
    # plain int cannot flip it to the exact backend, and the other backend fails
    assert repr(Configuration([0.5]).replace(1, 3).opinions) == "(3.0,)"
    with pytest.raises(BackendError):
        Configuration([F(1)]).replace(1, 0.5)
    with pytest.raises(BackendError):
        Configuration([0.5]).replace(1, F(1, 2))
    # the entries not written keep the sign of their zeros
    assert repr(Configuration([-0.0, 0.0, -0.0]).replace(2, -1).opinions) == "(-0.0, -1.0, -0.0)"
    config = Configuration([F(1), F(2), F(3)])
    for agent in (0, config.n + 1):
        with pytest.raises(ParameterError, match=f"agent id {agent} out of range 1..3"):
            config.replace(agent, F(9))
    assert config.opinions == (F(1), F(2), F(3))


# Differential tests of the sorted opinion index against the sort-based
# knn_indices oracle: same neighbours, in the same order, for every agent and
# every k, on inputs built to stress the window search.

def assert_index_matches_oracle(index, opinions):
    assert index.opinions is opinions
    assert index.pairs == sorted(zip(opinions, range(len(opinions))))
    for got, want in ((index.min(), min(opinions)), (index.max(), max(opinions))):
        assert got == want and math.copysign(1, got) == math.copysign(1, want)
    for idx in range(len(opinions)):
        for k in range(1, len(opinions) + 1):
            assert index.knn(idx, k) == knn_indices(opinions, idx, k)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
TIED = st.sampled_from([0.0, 0.5, 1.0, 2.0])
SIGNED_ZEROS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0 ** -1074])
# from x = 1.0 the distances to 0, 2**-61 and 2**-60 all round to 1.0, and
# 1 + 2**-52 and 1 - 2**-53 sit one ulp away on either side
COLLAPSED = st.sampled_from([1.0, 0.0, 2.0 ** -61, 2.0 ** -60, 2.0,
                             1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 3.0 * 2.0 ** -61])
FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
VALUES = st.one_of(FLOATS, TIED, SIGNED_ZEROS, COLLAPSED)


@settings(max_examples=300, derandomize=True)
@given(st.one_of(
    st.lists(FLOATS, min_size=1, max_size=10),
    st.lists(TIED, min_size=1, max_size=12),
    st.lists(SIGNED_ZEROS, min_size=1, max_size=12),
    st.lists(COLLAPSED, min_size=1, max_size=12),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=12),
    st.lists(st.integers(min_value=-2 ** 70, max_value=2 ** 70), min_size=1, max_size=10),
))
def test_knn_indices_is_the_literal_rule(x):
    n = len(x)
    for i in range(n):
        oracle = sorted(range(n), key=lambda j: (abs(x[j] - x[i]), j))
        for k in range(1, n + 1):
            assert knn_indices(x, i, k) == oracle[:k]


@settings(max_examples=150, derandomize=True)
@given(st.one_of(
    st.lists(FLOATS, min_size=1, max_size=10),
    st.lists(TIED, min_size=1, max_size=12),
    st.lists(SIGNED_ZEROS, min_size=1, max_size=12),
    st.lists(COLLAPSED, min_size=1, max_size=12),
    st.lists(FRACTIONS, min_size=1, max_size=10),
))
# ties at the k-th distance on both sides of x
@example([0.0, 2.0, 1.0, 0.0, 2.0])
# windows that reach both ends: all equal, and ties past both ends
@example([0.5, 0.5, 0.5, 0.5])
@example([0.0, 1.0, 2.0, 1.0, 0.0, 2.0])
# distances that overflow to inf, which must still stop at both ends
@example([-1.5e308, 1.5e308, 1.0e308, -1.0e308, 0.0])
def test_index_knn_matches_sort_oracle(opinions):
    assert_index_matches_oracle(OpinionIndex(opinions), opinions)


def test_index_collapsed_distances_tie_on_id():
    # all three distances from 1.0 round to exactly 1.0, so ids decide
    opinions = [2.0 ** -60, 1.0, 0.0, 2.0 ** -61]
    assert {abs(v - 1.0) for v in opinions if v != 1.0} == {1.0}
    index = OpinionIndex(opinions)
    assert index.knn(1, 3) == knn_indices(opinions, 1, 3) == [1, 0, 2]


@settings(max_examples=100)
@given(
    st.one_of(st.lists(VALUES, min_size=1, max_size=8),
              st.lists(FRACTIONS, min_size=1, max_size=8)),
    st.lists(st.tuples(st.sampled_from(["move", "move", "add", "remove"]),
                       st.integers(0, 7), st.integers(0, 7)), max_size=12),
)
def test_index_survives_moves_and_rebuilds(opinions, ops):
    # a new value copies an opinion already present (keeping ties) or is the
    # midpoint of two, so every state stays within one backend
    index = OpinionIndex(opinions)
    for op, a, b in ops:
        u, v = opinions[a % len(opinions)], opinions[b % len(opinions)]
        value = v if a % 2 else u / 2 + v / 2
        if op == "move":
            index.move(a % len(opinions), value)
        elif op == "add":
            opinions.append(value)
            index = OpinionIndex(opinions)
        elif len(opinions) > 1:
            del opinions[a % len(opinions)]
            index = OpinionIndex(opinions)
        assert_index_matches_oracle(index, opinions)
