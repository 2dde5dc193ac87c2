"""The argument and state guards of the library, one case each: the exact
exception type and its message. Each call takes a scratch directory, where
the malformed-JSON case writes its file (`{dir}` in its message)."""

from fractions import Fraction

import pytest

from knnopinion.convergence import (verify_lemma2_monotonicity, verify_lemma3_contraction,
                                    verify_lemma_bigm, verify_shrink_contraction)
from knnopinion.dynamics import Configuration, ParameterError, knn_update
from knnopinion.equilibria import (FloatBackendError, build_tie_counterexample,
                                   max_cluster_count, quantize_clusters)
from knnopinion.harness import classify_configuration, monte_carlo_consensus, simulate
from knnopinion.numerics import BackendError, backend_of
from knnopinion.rng import SeededRng
from knnopinion.scenario import (InitialSpec, ModelSpec, ScenarioError, ScenarioSpec,
                                 ScheduleSpec, load_json)
from knnopinion.verification import verify_shrink_grid, verify_zy_dichotomy_grid

F = Fraction
TIE = Configuration([F(0), F(1), F(1, 2)])
FLOAT_LINE = Configuration([0.0, 1.0, 2.0])


def set_attribute(config):
    config.keys = ()


def simulate_model(**model):
    """simulate a spec built in code, which skips the document parser."""
    return simulate(ScenarioSpec(
        model=ModelSpec(**model),
        initial=InitialSpec(kind="explicit", opinions=(0.0, 0.25, 0.5, 0.75, 1.0)),
        schedule=ScheduleSpec(kind="uniform_random", seed=0), max_steps=10))


def load_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"a": 1,\n  "b": }\n')
    return load_json(str(path))


GUARDS = [
    ("without-last-agent", lambda _: Configuration([F(1)]).without(1),
     ParameterError, "cannot remove the last agent"),
    ("immutable-configuration", lambda _: set_attribute(TIE),
     AttributeError, "Configuration is immutable"),
    ("max-cluster-count-k-above-n", lambda _: max_cluster_count(3, 4),
     ParameterError, "k=4 violates 1 <= k <= n=3"),
    ("float-tie-counterexample", lambda _: build_tie_counterexample(0.0, 1.0),
     FloatBackendError, "counterexample constructors are exact-only"),
    ("quantize-at-zero-tolerance",
     lambda _: quantize_clusters(Configuration([0.1, 0.2]), 0),
     ParameterError, "tolerance must be a finite positive number"),
    ("monte-carlo-k-above-n", lambda _: monte_carlo_consensus(3, 4, runs=1, seed=0),
     ParameterError, "k=4 violates 1 <= k <= n=3"),
    ("backend-of-a-string", lambda _: backend_of("x"),
     BackendError, "unsupported scalar type str"),
    ("mixed-backends", lambda _: Configuration([F(1), 0.5]),
     BackendError, "cannot mix exact and float scalars"),
    ("randbelow-zero", lambda _: SeededRng(0).randbelow(0),
     ValueError, "bound must be positive"),
    ("lemma2-without-steps", lambda _: verify_lemma2_monotonicity(TIE, 1, steps=0),
     ParameterError, "steps must be >= 1"),
    ("float-lemma2", lambda _: verify_lemma2_monotonicity(FLOAT_LINE, 2, steps=3),
     FloatBackendError, "verify_lemma2_monotonicity requires the exact backend"),
    ("float-lemma3", lambda _: verify_lemma3_contraction(FLOAT_LINE, 2),
     FloatBackendError, "verify_lemma3_contraction requires the exact backend"),
    ("float-lemma-bigm", lambda _: verify_lemma_bigm(FLOAT_LINE, 2, steps=3),
     FloatBackendError, "verify_lemma_bigm requires the exact backend"),
    ("float-shrink-contraction", lambda _: verify_shrink_contraction(FLOAT_LINE, 2),
     FloatBackendError, "verify_shrink_contraction requires the exact backend"),
    ("spec-knn-k-zero", lambda _: simulate_model(kind="knn", k=0),
     ScenarioError, "model.k: must be a positive integer"),
    ("spec-knn-k-missing", lambda _: simulate_model(kind="knn", k=None),
     ScenarioError, "model.k: must be a positive integer"),
    ("spec-abc-d-negative", lambda _: simulate_model(kind="abc", d=-1.0),
     ScenarioError, "model.d: must be >= 0"),
    ("spec-abc-d-missing", lambda _: simulate_model(kind="abc", d=None),
     ScenarioError, "model.d: is required for the abc model"),
    ("classify-float-k-zero",
     lambda _: classify_configuration(Configuration([0.1, 0.2]), 0, 1e-9),
     ParameterError, "k=0 violates 1 <= k <= n=2"),
    ("zy-grid-without-pairs", lambda _: verify_zy_dichotomy_grid(5, 0, n_max=1),
     ParameterError, "n_max must be >= 2"),
    ("shrink-grid-without-pairs", lambda _: verify_shrink_grid(0, 0, n_max=0),
     ParameterError, "n_max must be >= 1"),
    ("knn-update-id-zero-exact", lambda _: knn_update(TIE, 0, 2),
     ParameterError, "agent id 0 out of range 1..3"),
    ("knn-update-id-above-n-exact", lambda _: knn_update(TIE, 4, 2),
     ParameterError, "agent id 4 out of range 1..3"),
    ("knn-update-id-zero-float", lambda _: knn_update(FLOAT_LINE, 0, 2),
     ParameterError, "agent id 0 out of range 1..3"),
    ("knn-update-id-above-n-float", lambda _: knn_update(FLOAT_LINE, 4, 2),
     ParameterError, "agent id 4 out of range 1..3"),
    ("malformed-json", load_malformed,
     ScenarioError, "{dir}/bad.json: invalid JSON at line 2: Expecting value"),
]


@pytest.mark.parametrize("call, error, message",
                         [case[1:] for case in GUARDS], ids=[case[0] for case in GUARDS])
def test_guard_raises(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message.format(dir=tmp_path)
