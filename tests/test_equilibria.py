from collections import Counter
from fractions import Fraction

import pytest

from knnopinion import equilibria
from knnopinion.dynamics import Configuration
from knnopinion.equilibria import (
    FloatBackendError,
    build_example1,
    build_tie_counterexample,
    is_clustered,
    is_equilibrium,
    max_cluster_count,
    partition_clusters,
    quantize_clusters,
)
from knnopinion.rng import SeededRng
from knnopinion.verification import random_cluster_layout, verify_cluster_size_equivalence
from builders import build_clustered

F = Fraction


def test_partition_consensus():
    part = partition_clusters(Configuration([F(3, 7)] * 5))
    assert part.sizes == [5]


def test_partition_example1_layout():
    part = partition_clusters(build_example1(F(0), F(1)))
    assert part.sizes == [11, 2, 2, 5]
    assert part.opinions == [F(0), F(2, 5), F(3, 5), F(1)]


def test_partition_tie_counterexample_layout():
    part = partition_clusters(build_tie_counterexample(F(0), F(1)))
    assert part.sizes == [3, 1, 3]
    assert part.opinions == [F(0), F(1, 2), F(1)]


def test_partition_rejects_floats():
    with pytest.raises(FloatBackendError):
        partition_clusters(Configuration([0.1, 0.2]))


def test_tie_counterexample_is_nonclustered_equilibrium():
    x = build_tie_counterexample(F(0), F(1))
    report = is_equilibrium(x, 3)
    assert report.is_equilibrium and not report.is_clustered
    assert report.witnesses["clustered"]["agent"] == 7


def test_example1_is_nonclustered_equilibrium():
    report = is_equilibrium(build_example1(F(0), F(1)), 5)
    assert report.is_equilibrium and not report.is_clustered


def test_every_configuration_is_equilibrium_for_k1():
    rng = SeededRng("k1")
    for _ in range(20):
        n = 1 + rng.randbelow(9)
        x = Configuration([F(rng.randbelow(10), 3) for _ in range(n)])
        assert is_equilibrium(x, 1).is_equilibrium


def test_report_implication_chain():
    # consensus => clustered => equilibrium on the report itself
    rng = SeededRng("chain")
    for _ in range(100):
        x = random_cluster_layout(1 + rng.randbelow(12), rng)
        r = is_equilibrium(x, 1 + rng.randbelow(x.n))
        if r.is_consensus:
            assert r.is_clustered
        if r.is_clustered:
            assert r.is_equilibrium


def test_is_clustered_paper_cases():
    two_tens = build_clustered([(F(0), 10), (F(1), 10)])
    assert is_clustered(two_tens, 5)
    assert not is_clustered(build_tie_counterexample(F(0), F(1)), 3)
    assert is_clustered(Configuration([F(5)] * 4), 4)


@pytest.mark.parametrize("mixed", [None, (1, (1, 2))])
def test_size_certificate_fails_when_definition_and_sizes_disagree(monkeypatch, mixed):
    """is_clustered computes the definition alone; the group sizes are a
    second computation, made by the size certificate, so a neighbour rule
    that disagrees with them is reported there with the layout it missed."""
    monkeypatch.setattr(equilibria, "_first_mixed_neighborhood", lambda config, k: mixed)
    report = verify_cluster_size_equivalence(50, 0)
    assert (report.name, report.passed) == ("cluster_size_equivalence", False)
    config, k = Configuration([F(v) for v in report.detail["config"]]), report.detail["k"]
    assert is_clustered(config, k) != (min(Counter(config.keys).values()) >= k)


def test_max_cluster_count():
    assert max_cluster_count(20, 5) == 4
    assert max_cluster_count(9, 5) == 1
    for k in (2, 3, 7):
        assert max_cluster_count(2 * k - 1, k) == 1
        assert max_cluster_count(2 * k, k) == 2


def test_counterexample_symmetric_midpoint():
    x = build_tie_counterexample(F(-1), F(1))
    assert x.opinion(7) == 0


def test_counterexample_thirds():
    x = build_tie_counterexample(F(1, 3), F(2, 3))
    assert x.opinion(7) == F(1, 2)
    assert is_equilibrium(x, 3).is_equilibrium


def test_example1_scaled_variants():
    x = build_example1(F(0), F(5))
    assert x.opinion(12) == 2 and x.opinion(14) == 3
    y = build_example1(F(-1), F(1))
    assert y.opinion(12) == F(-1, 5) and y.opinion(14) == F(1, 5)


def test_builders_reject_bad_order():
    with pytest.raises(ValueError):
        build_tie_counterexample(F(1), F(0))
    with pytest.raises(ValueError):
        build_example1(F(1), F(1))


def test_quantize_obvious_gap():
    part = quantize_clusters(Configuration([0.4000001, 0.3999999, 0.9]), 1e-3)
    assert part.sizes == [2, 1]


def test_quantize_all_close():
    part = quantize_clusters(Configuration([0.5, 0.5 + 1e-12, 0.5 - 1e-12]), 1e-9)
    assert part.sizes == [3]


def test_quantize_chained_linkage_merges():
    # documented single-linkage behavior: consecutive gaps at the tolerance chain up
    part = quantize_clusters(Configuration([0.0, 0.5, 1.0]), 0.5)
    assert part.sizes == [3]


def test_quantize_needs_float_backend():
    with pytest.raises(Exception):
        quantize_clusters(Configuration([F(1, 2)]), 1e-9)
