"""Differential tests of the exact kernels that work on integer numerators
(knn_indices, mean_exact, mu_index, big_m_index, extremal_selection, the
ratio store behind knn_update and replace, the clustered check, the lemma 2
comparisons) against the literal Fraction rules, which stay the oracle here."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnopinion import convergence
from knnopinion.convergence import (big_m_index, extremal_selection, mu_index,
                                    verify_lemma2_monotonicity, verify_lemma3_contraction)
from knnopinion.dynamics import (Configuration, ParameterError, diameter, knn_indices,
                                 knn_neighbors, knn_update)
from knnopinion.equilibria import is_clustered, is_equilibrium
from knnopinion.numerics import common_numerators, mean_exact, mean_float
from reference_numerics import mean_of

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


# Typed kernels and the numerators an exact Configuration carries, against
# mean_of and against configurations built afresh.

ZEROS = st.sampled_from([0.0, -0.0])
COLLAPSING = st.sampled_from([1.0, 1.0 + 2 ** -52, 1.0 - 2 ** -53, 2 ** -60, 1e-17,
                              -1e-17, 1e16, 1e16 + 2, 0.1, 0.2, 0.3])
FLOATS = st.one_of(ZEROS, COLLAPSING,
                   st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False))
FLOAT_LISTS = st.one_of(
    st.lists(FLOATS, min_size=1, max_size=12),
    st.builds(lambda v, c: [v] * c, FLOATS, st.integers(min_value=1, max_value=12)),
    # x and its neighbours one ulp away: the sum of such a list can round
    # outside its hull, which the clamp must undo
    st.builds(lambda x, offs: [math.nextafter(x, x + o) for o in offs],
              st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3]), FLOATS),
              st.lists(st.sampled_from([0, 1, -1]), min_size=2, max_size=12)),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(FLOAT_LISTS)
@example([-0.0, 0.0])                          # the guard keeps the first zero's sign
@example([0.1, 0.1 + 2 ** -56, 0.1, 0.1, 0.1, 0.1])   # the sum rounds below the hull
def test_mean_float_matches_mean_of_bit_for_bit(values):
    assert mean_float(values).hex() == mean_of(values).hex()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(STATES, st.integers(min_value=1, max_value=15 ** 3))
def test_mean_exact_matches_fraction_sum(values, extra):
    nums, den = common_numerators(values)
    expected = sum(values, Fraction(0)) / len(values)
    assert mean_exact(nums, den) == expected
    # any positive common denominator will do, not only the least one
    assert mean_exact([m * extra for m in nums], den * extra) == expected


CHAIN_STEPS = st.lists(
    st.one_of(st.tuples(st.just("update"), st.integers(min_value=0), st.integers(min_value=0)),
              st.tuples(st.just("replace"), st.integers(min_value=0), EXACT)),
    min_size=1, max_size=16)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(STATES, CHAIN_STEPS)
def test_carried_numerators_match_a_fresh_configuration(values, steps):
    state, expected = Configuration(values), [F(v) for v in values]
    for op, i, arg in steps:
        agent = i % state.n + 1
        if op == "update":
            k = arg % state.n + 1
            fresh = knn_update(Configuration(expected), agent, k)
            state = knn_update(state, agent, k)
            assert state == fresh
            expected[agent - 1] = fresh.opinion(agent)
        else:
            state = state.replace(agent, F(arg))
            expected[agent - 1] = F(arg)
        nums, den = state.keys, state.den
        # (N, D) stays canonical: D is the least common denominator
        assert den >= 1 and math.gcd(den, *nums) == 1
        assert [F(m, den) for m in nums] == expected
        assert state.opinion(agent) == expected[agent - 1]
        assert state.opinions == tuple(expected)   # built on this first read
        again = Configuration(expected)
        scale = i % 5 + 2
        scaled = Configuration._from_keys([m * scale for m in nums], den * scale)
        for twin in (again, scaled):
            assert twin == state and hash(twin) == hash(state)
            assert (twin.keys, twin.den) == (nums, den)
        assert mu_index(state) == mu_index(again)
        assert big_m_index(state) == big_m_index(again)
        assert diameter(state) == max(state.opinions) - min(state.opinions)
        for k in range(1, state.n + 1):
            assert knn_neighbors(state, agent, k) == knn_neighbors(again, agent, k)


# The exact ratio store and the key-based neighbour reads of the verifiers,
# against the literal Fraction rule and the knn_neighbors definitions.

DIFF = settings(max_examples=200, deadline=None, derandomize=True)
WIDE = st.one_of(EXACT, st.fractions(min_value=-5, max_value=5, max_denominator=10 ** 6))


def _replaced(values, writes):
    state = Configuration(values)
    for i, value in writes:
        state = state.replace(i % state.n + 1, value)
    return state


# states built directly, and states a chain of replace calls left behind
EXACT_STATES = st.one_of(
    st.lists(WIDE, min_size=1, max_size=8).map(Configuration),
    st.builds(_replaced, st.lists(WIDE, min_size=1, max_size=8),
              st.lists(st.tuples(st.integers(min_value=0, max_value=50), WIDE), max_size=6)))
# few distinct values, so that clustered states and tied neighbourhoods are common
CLUSTERY = st.builds(lambda groups, order: [groups[j % len(groups)] for j in order],
                     st.lists(WIDE, min_size=1, max_size=3),
                     st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=10))


def _stores(call):
    """call()'s result and the denominators it handed to _from_keys."""
    seen, real = [], Configuration.__dict__["_from_keys"]

    def spy(cls, keys, den):
        seen.append(den)
        return real.__func__(cls, keys, den)

    with mock.patch.object(Configuration, "_from_keys", classmethod(spy)):
        return call(), seen


@DIFF
@given(EXACT_STATES)
@example(Configuration([F(1, 2), F(3, 2), F(5, 2)]))   # a mean of halves that is an integer
def test_exact_knn_update_is_the_literal_fraction_rule(state):
    ops = list(state.opinions)
    for i in range(1, state.n + 1):
        for k in range(1, state.n + 1):
            expected = ops.copy()
            expected[i - 1] = sum((ops[j] for j in knn_indices(ops, i - 1, k)), F(0)) / k
            out, dens = _stores(lambda: knn_update(state, i, k))
            assert out.opinions == tuple(expected) and out == Configuration(expected)
            assert math.gcd(out.den, *out.keys) == 1
            # the mean is reduced before the lcm, so N is rescaled only when
            # its reduced denominator does not divide D
            assert dens == [math.lcm(state.den, expected[i - 1].denominator)]


@DIFF
@given(EXACT_STATES, st.integers(min_value=0, max_value=50), st.one_of(WIDE, INTS))
def test_replace_is_a_rebuilt_configuration(state, i, value):
    agent = i % state.n + 1
    rebuilt = list(state.opinions)
    rebuilt[agent - 1] = value
    out, fresh = state.replace(agent, value), Configuration(rebuilt)
    assert (out.keys, out.den) == (fresh.keys, fresh.den)
    assert out.opinions == fresh.opinions


def _literal_extremal(config, k):
    ops = config.opinions
    mu, big_m = ops.index(min(ops)) + 1, ops.index(max(ops)) + 1

    def key(j):
        return ops[j - 1]

    y = config.opinion(max(knn_neighbors(config, mu, k), key=key))
    z = config.opinion(min(knn_neighbors(config, big_m, k), key=key))
    return mu, big_m, y, z


@DIFF
@given(st.one_of(EXACT_STATES, CLUSTERY.map(Configuration), FLOAT_LISTS.map(Configuration)))
@example(Configuration([0.0, -0.0, 1.0, -0.0, 0.0]))
@example(Configuration([1.0, 0.0, -0.0, -1.0, 0.0, -0.0]))
# from -1e20, 0.0 and 1.0 are both 1e20 away, so at k=2 the tie goes to 1.0 by
# id and y is 1.0, where the order statistic would give 0.0
@example(Configuration([-1e20, 1.0, 0.0]))
def test_extremal_selection_is_the_knn_neighbors_definition(config):
    for k in range(1, config.n + 1):
        sel = extremal_selection(config, k)
        mu, big_m, y, z = _literal_extremal(config, k)
        assert (sel.mu, sel.big_m) == (mu, big_m)
        # repr tells a float's signed zeros apart, and a Fraction from a float
        assert (repr(sel.y), repr(sel.z)) == (repr(y), repr(z))


def _literal_witnesses(config, k):
    ops, agents = config.opinions, config.agents()
    members = {i: knn_neighbors(config, i, k) for i in agents}
    witnesses = {}
    moved = [i for i in agents if sum((ops[j - 1] for j in members[i]), F(0)) / k != ops[i - 1]]
    if moved:
        witnesses["equilibrium"] = {"agent": moved[0], "neighbors": list(members[moved[0]])}
    mixed = [i for i in agents if any(ops[j - 1] != ops[i - 1] for j in members[i])]
    if mixed:
        witnesses["clustered"] = {"agent": mixed[0], "neighbors": list(members[mixed[0]])}
    other = [j for j in agents if ops[j - 1] != ops[0]]
    if other:
        witnesses["consensus"] = {"agents": [1, other[0]]}
    return witnesses


@DIFF
@given(st.one_of(CLUSTERY.map(Configuration), EXACT_STATES))
def test_clustered_and_equilibrium_witnesses_are_the_literal_ones(config):
    for k in range(1, config.n + 1):
        report, expected = is_equilibrium(config, k), _literal_witnesses(config, k)
        assert report.witnesses == expected
        assert report.is_clustered == is_clustered(config, k) == ("clustered" not in expected)
        assert report.is_equilibrium == ("equilibrium" not in expected)


def _literal_lemma2(config, k, steps):
    """verify_lemma2_monotonicity's report with every opinion compared as a
    Fraction, on the same schedule run."""
    members0 = set(knn_indices(config.opinions, mu_index(config) - 1, k))
    y0 = max(config.opinions[j] for j in members0)
    run = convergence.run_schedule_tags(config, k, [convergence.MU] * steps)

    def fail(step, reason):
        state = [str(v) for v in run.states[step].opinions]
        return {"name": "mu_monotonicity", "passed": False,
                "detail": {"step": step, "reason": reason, "state": state}}

    for t, mu in enumerate(run.updaters):
        ops, after = run.states[t].opinions, run.states[t + 1].opinions
        members = set(knn_indices(ops, mu - 1, k))
        if members != members0:
            return fail(t, "neighbor set of the minimal agent changed")
        if max(ops[j] for j in members) != y0:
            return fail(t, "y changed")
        for j in range(config.n):
            if j in members0:
                if after[j] < ops[j]:
                    return fail(t, f"member {j + 1} decreased")
                if after[j] > y0:
                    return fail(t, f"member {j + 1} exceeded y(0)")
            elif after[j] != ops[j]:
                return fail(t, f"non-member {j + 1} moved")
    return {"name": "mu_monotonicity", "passed": True, "detail": {"steps": steps}}


# a move of a corrupted update: the true update (None), or some agent set to
# a drawn value or to a copy of another agent's opinion, so that equal values
# and values over other denominators meet in the comparisons
MOVES = st.lists(st.tuples(
    st.integers(min_value=0, max_value=11),
    st.one_of(st.none(), WIDE.map(lambda v: ("value", v)),
              st.integers(min_value=0, max_value=11).map(lambda j: ("copy", j)))),
    max_size=6)


def _corrupted_update(moves):
    """knn_update that makes the given moves, one per call, then the true ones."""
    left = iter(moves)

    def update(state, i, k):
        offset, move = next(left, (0, None))
        if move is None:
            return knn_update(state, i, k)
        kind, v = move
        value = v if kind == "value" else state.opinions[v % state.n]
        return state.replace((i - 1 + offset) % state.n + 1, value)

    return update


@DIFF
@given(st.one_of(EXACT_STATES, CLUSTERY.map(Configuration)), MOVES, st.data())
def test_lemma2_on_keys_is_the_fraction_comparison(config, moves, data):
    k = data.draw(st.integers(min_value=1, max_value=config.n))
    steps = data.draw(st.integers(min_value=1, max_value=6))
    with mock.patch.object(convergence, "knn_update", _corrupted_update(moves)):
        got = verify_lemma2_monotonicity(config, k, steps).to_jsonable()
    with mock.patch.object(convergence, "knn_update", _corrupted_update(moves)):
        assert got == _literal_lemma2(config, k, steps)


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("check", [
    is_clustered, is_equilibrium, extremal_selection,
    lambda config, k: verify_lemma2_monotonicity(config, k, 2),
    verify_lemma3_contraction,
], ids=["is_clustered", "is_equilibrium", "extremal_selection", "lemma2", "lemma3"])
def test_key_based_reads_reject_k_out_of_range(check, k):
    # knn_indices itself takes any k, so each reader checks 1 <= k <= n
    with pytest.raises(ParameterError, match=f"k={k} violates"):
        check(Configuration([0, 1, 1]), k)
