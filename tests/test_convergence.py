from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnopinion import convergence
from knnopinion.convergence import (
    check_z_le_y,
    extremal_selection,
    random_exact_configuration,
    reflect,
    run_shrink_schedule,
    shrink_schedule,
    verify_lemma2_monotonicity,
    verify_lemma3_contraction,
    verify_lemma_bigm,
    verify_shrink_contraction,
)
from knnopinion.dynamics import Configuration, knn_neighbors, knn_update
from knnopinion.rng import SeededRng

F = Fraction


def test_extremal_indices():
    sel = extremal_selection(Configuration([F(3), F(1), F(2)]), 1)
    assert (sel.mu, sel.big_m) == (2, 1)
    sel = extremal_selection(Configuration([F(1), F(1), F(2), F(2)]), 1)
    assert (sel.mu, sel.big_m) == (1, 3)


def test_extremal_y_z_on_sorted_chain():
    sel = extremal_selection(Configuration([F(0), F(1), F(2), F(3)]), 2)
    assert sel.y == 1 and sel.z == 2 and sel.z > sel.y


def test_reflection_identity():
    rng = SeededRng("reflect")
    for _ in range(200):
        x = random_exact_configuration(2 + rng.randbelow(9), rng)
        k = 1 + rng.randbelow(x.n)
        sel = extremal_selection(x, k)
        mirrored = extremal_selection(reflect(x), k)
        assert sel.big_m == mirrored.mu
        assert sel.z == -mirrored.y


# few distinct values, so exact ties in opinion and in distance are common
TIED_FRACTIONS = st.lists(
    st.sampled_from([F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(-1, 2), F(-1)]),
    min_size=1, max_size=9,
)


@settings(max_examples=200)
@given(TIED_FRACTIONS, st.data())
def test_reflection_keeps_neighbors_and_commutes_with_update(opinions, data):
    # verify_lemma_bigm rests on this: x -> -x keeps every distance and the
    # id tie-break, so the M-side checks on x are the mu-side checks on -x
    x = Configuration(opinions)
    k = data.draw(st.integers(1, x.n))
    for i in x.agents():
        assert knn_neighbors(reflect(x), i, k) == knn_neighbors(x, i, k)
        assert reflect(knn_update(x, i, k)) == knn_update(reflect(x), i, k)


def test_z_le_y_small_regime():
    assert check_z_le_y(9, 5, 2000, seed=0).passed


def test_z_le_y_witness_when_large():
    report = check_z_le_y(4, 2, 1, seed=0)
    assert report.passed
    assert report.detail["y"] == "1" and report.detail["z"] == "2"


def test_z_le_y_boundary():
    for k in (2, 3, 5):
        assert check_z_le_y(2 * k - 1, k, 500, seed=1).passed


def test_schedule_length():
    for k in range(1, 9):
        assert len(shrink_schedule(k)) == 2 * k - 2


def test_shrink_three_agents_tight():
    run = run_shrink_schedule(Configuration([F(0), F(1, 2), F(1)]), 2)
    assert run.states[-1] == Configuration([F(1, 4), F(1, 2), F(3, 4)])
    d = run.diameters
    assert d[-1] == F(1, 2) == (1 - F(1, 2)) * d[0]  # contraction achieved with equality


def test_shrink_consensus_noop():
    x = Configuration([F(2, 3)] * 5)
    run = run_shrink_schedule(x, 3)
    assert all(s == x for s in run.states)


def test_shrink_contraction_random():
    rng = SeededRng("shrink")
    for _ in range(100):
        n = 1 + rng.randbelow(9)
        k = n // 2 + 1 + rng.randbelow(n - n // 2)
        assert n < 2 * k
        assert verify_shrink_contraction(random_exact_configuration(n, rng), k).passed


def test_mu_monotonicity_flat_bottom_group_constant():
    x = Configuration([F(1), F(1), F(1), F(5)])
    report = verify_lemma2_monotonicity(x, 3, steps=4)
    assert report.passed
    # mu's neighborhood is all at y, so nothing moves at all
    assert knn_update(x, 1, 3) == x


def test_mu_monotonicity_three_agent_rise():
    report = verify_lemma2_monotonicity(Configuration([F(0), F(1, 2), F(1)]), 2, steps=5)
    assert report.passed


def test_mu_monotonicity_random():
    rng = SeededRng("mono")
    for _ in range(50):
        report = verify_lemma2_monotonicity(random_exact_configuration(9, rng), 5, steps=12)
        assert report.passed, report.detail


def test_mu_monotonicity_detects_corrupted_update(monkeypatch):
    def corrupted(config, i, k):
        # pushes the updater past its neighborhood max
        return config.replace(i, max(config.opinions) + 1)

    monkeypatch.setattr(convergence, "knn_update", corrupted)
    report = verify_lemma2_monotonicity(Configuration([F(0), F(1, 2), F(1)]), 2, steps=3)
    assert not report.passed
    assert "reason" in report.detail


def test_mu_contraction_three_agent_tight():
    report = verify_lemma3_contraction(Configuration([F(0), F(1, 2), F(1)]), 2)
    assert report.passed
    assert report.detail["lhs"] == report.detail["rhs"] == "1/4"


def test_mu_contraction_consensus_trivial():
    assert verify_lemma3_contraction(Configuration([F(1)] * 4), 3).passed


def test_mu_contraction_random():
    rng = SeededRng("contract")
    for _ in range(200):
        assert verify_lemma3_contraction(random_exact_configuration(7, rng), 4).passed


def test_bigm_consensus():
    assert verify_lemma_bigm(Configuration([F(1)] * 3), 2, steps=3).passed


def test_bigm_single_step_bounds():
    x = Configuration([F(0), F(1, 2), F(1)])
    report = verify_lemma_bigm(x, 2, steps=1)
    assert report.passed
    assert knn_update(x, 3, 2) == Configuration([F(0), F(1, 2), F(3, 4)])


def test_bigm_random_includes_reflection_crosscheck():
    rng = SeededRng("bigm")
    for _ in range(60):
        n = 2 + rng.randbelow(8)
        k = 1 + rng.randbelow(n)
        report = verify_lemma_bigm(random_exact_configuration(n, rng), k, steps=6)
        assert report.passed, report.detail


def test_shrink_contraction_at_n_2k_is_reported_not_asserted():
    # (0, 1, 2, 3), k=2: the schedule leaves (1/2, 1, 2, 5/2), diameter 2 > 3/2
    report = verify_shrink_contraction(Configuration([F(0), F(1), F(2), F(3)]), 2)
    assert report.passed
    assert report.detail["bound_applies"] is False
    assert report.detail["observed_holds"] is False
    assert report.detail["final_diameter"] == "2"
