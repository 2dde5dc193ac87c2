"""Pins of the verification suite under injected faults, and of its draws.

Every check of `run_suite` must keep its verdict and its detail when a
fault makes it fail, and every random state it draws must stay the same.
`failing_suite_reports.json` holds the reports the suite gave for these
faults before its trial loops were merged into `convergence.scan_trials`.
Further faults, one per lemma verdict that none of those reaches, check
that each such verdict is reported with its check's name and reason.
"""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from knnopinion import convergence, harness, verification
from knnopinion.dynamics import Configuration, ParameterError, knn_indices
from knnopinion.verification import run_suite

EXPECTED = json.loads((Path(__file__).parent / "failing_suite_reports.json").read_text())
SEED, TRIALS = 0, 8


def update_past_max(monkeypatch):
    def corrupted(config, i, k):
        return config.replace(i, max(config.opinions) + 1)

    monkeypatch.setattr(convergence, "knn_update", corrupted)


def never_equilibrium(monkeypatch):
    monkeypatch.setattr(verification, "is_equilibrium", lambda config, k: SimpleNamespace(
        is_equilibrium=False, is_clustered=False))


def inverted_clustered(monkeypatch):
    real = verification.is_clustered
    monkeypatch.setattr(verification, "is_clustered", lambda config, k: not real(config, k))


def z_is_global_max(monkeypatch):
    real = convergence.extremal_selection
    monkeypatch.setattr(convergence, "extremal_selection", lambda config, k: replace(
        real(config, k), z=max(config.opinions)))


FAULTS = [update_past_max, never_equilibrium, inverted_clustered, z_is_global_max]


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__)
def test_failing_reports_are_pinned(monkeypatch, fault):
    fault(monkeypatch)
    report = run_suite(SEED, trials=TRIALS)
    expected = EXPECTED[fault.__name__]
    assert not report.all_passed
    assert [r.name for r in report.reports] == list(expected)
    for check in report.reports:
        assert check.to_jsonable() == expected[check.name]


def test_suite_draws_are_pinned(monkeypatch):
    drawn = []

    def recording(module, name):
        real = getattr(module, name)

        def draw(*args, **kwargs):
            config = real(*args, **kwargs)
            drawn.append(f"{name}:{','.join(str(v) for v in config.opinions)}")
            return config

        monkeypatch.setattr(module, name, draw)

    recording(convergence, "random_exact_configuration")
    recording(verification, "random_exact_configuration")
    recording(verification, "random_cluster_layout")
    assert run_suite(SEED, trials=TRIALS).all_passed
    assert len(drawn) == 2414
    assert hashlib.sha256("\n".join(drawn).encode()).hexdigest() == (
        "4f5970307e6e3170529899bfe72ec59a89e26325a0e79483fd237833004ef44b")


BUDGETED = [
    ("verify_cluster_size_equivalence",
     lambda t: verification.verify_cluster_size_equivalence(t, 1)),
    ("verify_clustered_implies_equilibrium",
     lambda t: verification.verify_clustered_implies_equilibrium(t, 1)),
    ("verify_counterexamples", lambda t: verification.verify_counterexamples(t, 1)),
    ("verify_zy_dichotomy_grid", lambda t: verification.verify_zy_dichotomy_grid(t, 1)),
    ("verify_shrink_grid", lambda t: verification.verify_shrink_grid(t, 1)),
    ("check_z_le_y below 2k", lambda t: convergence.check_z_le_y(3, 2, t, 1)),
    ("check_z_le_y witness", lambda t: convergence.check_z_le_y(4, 2, t, 1)),
    ("scan_trials", lambda t: convergence.scan_trials("none", t, lambda: None, {})),
    ("monte_carlo_consensus", lambda t: harness.monte_carlo_consensus(3, 2, runs=t, seed=1)),
]


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("verifier", BUDGETED, ids=[name for name, _ in BUDGETED])
def test_no_trials_is_an_error_not_a_pass(verifier, trials):
    # a verifier that runs no trial certifies nothing, so it must not pass
    with pytest.raises(ParameterError, match="must be >= 1"):
        verifier[1](trials)


# Faults for the verdicts no suite fault reaches. Each is injected into the
# module that the checks look their helpers up in at call time.

def update_to_neighborhood_max(monkeypatch):
    def corrupted(config, i, k):
        ops = config.opinions
        return config.replace(i, max(ops[j] for j in knn_indices(config.keys, i - 1, k)))

    monkeypatch.setattr(convergence, "knn_update", corrupted)


def run_from_doubled_state(monkeypatch):
    real = convergence.run_schedule_tags
    monkeypatch.setattr(convergence, "run_schedule_tags", lambda config, k, tags: real(
        Configuration._from_keys([2 * v for v in config.keys], config.den), k, tags))


def update_next_agent(monkeypatch):
    real = convergence.knn_update
    monkeypatch.setattr(convergence, "knn_update",
                        lambda config, i, k: real(config, i % config.n + 1, k))


def last_maximizer(monkeypatch):
    monkeypatch.setattr(convergence, "big_m_index", lambda config: (
        len(config.keys) - config.keys[::-1].index(max(config.keys))))


def lemma2(config, k):
    return convergence.verify_lemma2_monotonicity(config, k, steps=3)


def lemma_bigm(config, k):
    return convergence.verify_lemma_bigm(config, k, steps=3)


VERDICTS = [
    # [2, 2, 0] at k=2: agent 3 jumps to its neighbours' max, 2; then agent 1
    # is the lowest, and its neighbours are agents 1 and 2, not 1 and 3
    (update_to_neighborhood_max, lemma2, [2, 2, 0], 2,
     "mu_monotonicity", 1, "neighbor set of the minimal agent changed"),
    # the run starts from (0, 2, 10): agent 1's neighbours are the same,
    # their max is not
    (run_from_doubled_state, lemma2, [0, 1, 5], 2, "mu_monotonicity", 0, "y changed"),
    # agent 2 updates in place of agent 1: to 1/2, a member, then to 3, not one
    (update_next_agent, lemma2, [0, 1, 5], 2, "mu_monotonicity", 0, "member 2 decreased"),
    (update_next_agent, lemma2, [0, 5, 1], 2, "mu_monotonicity", 0, "non-member 2 moved"),
    # agent 3 updates on x where agent 1 does on -x, both to the mean 14/3
    (last_maximizer, lemma_bigm, [5, 4, 5], 3, "big_m_mirror", 1, "reflection identity broken"),
]


@pytest.mark.parametrize(
    "fault, check, opinions, k, name, step, reason", VERDICTS,
    ids=[f"{v[0].__name__}-{v[6]}" for v in VERDICTS])
def test_each_lemma_verdict_is_reached(monkeypatch, fault, check, opinions, k, name, step,
                                       reason):
    config = Configuration([F(v) for v in opinions])
    assert check(config, k).passed
    fault(monkeypatch)
    report = check(config, k)
    assert (report.name, report.passed) == (name, False)
    assert (report.detail["step"], report.detail["reason"]) == (step, reason)
