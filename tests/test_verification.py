"""Pins of the verification suite under injected faults, and of its draws.

Every check of `run_suite` must keep its verdict and its detail when a
fault makes it fail, and every random state it draws must stay the same.
`failing_suite_reports.json` holds the reports the suite gave for these
faults before its trial loops were merged into `convergence.scan_trials`.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from knnopinion import convergence, verification
from knnopinion.dynamics import ParameterError
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
]


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("verifier", BUDGETED, ids=[name for name, _ in BUDGETED])
def test_no_trials_is_an_error_not_a_pass(verifier, trials):
    # a verifier that runs no trial certifies nothing, so it must not pass
    with pytest.raises(ParameterError, match="must be >= 1"):
        verifier[1](trials)
