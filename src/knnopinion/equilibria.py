"""Classification of configurations (equilibrium / clustered / consensus),
cluster decomposition, and the two non-clustered equilibrium constructions.

Classification is by direct application of the update map for every agent:
n neighbor computations is cheap at desk scale and the definition itself
leaves no room for shortcut bugs. Exact backend is required; float limits of
Monte Carlo runs go through quantize_clusters instead.

The checks read a configuration's stored keys: equal keys are equal
opinions. Both partitions are single_linkage_groups over the keys, each
group represented by its mean: an exact state's numerators link at
tolerance 0, i.e. by equal value; float opinions at a positive tolerance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .dynamics import (Configuration, ParameterError, _check_k, _config_mean, knn_indices,
                       knn_neighbors, knn_update)
from .numerics import EXACT, FLOAT, BackendError, Scalar, format_scalar


class FloatBackendError(BackendError):
    """Exact classification asked of a float configuration."""


def _require_exact(config: Configuration, what: str,
                   remedy: str = "; for float configurations use quantize_clusters") -> None:
    if config.backend != EXACT:
        raise FloatBackendError(f"{what} requires the exact backend{remedy}")


@dataclass(frozen=True)
class ClusterPartition:
    """Same-opinion groups, sorted by ascending opinion."""

    groups: tuple  # of (opinion, frozenset of agent ids)

    @property
    def sizes(self) -> list:
        return [len(members) for _, members in self.groups]

    @property
    def opinions(self) -> list:
        return [op for op, _ in self.groups]

    def to_jsonable(self) -> dict:
        return {
            "groups": [
                {"opinion": format_scalar(op), "members": sorted(members)}
                for op, members in self.groups
            ],
            "sizes": self.sizes,
        }


@dataclass
class EquilibriumReport:
    is_equilibrium: bool
    is_clustered: bool
    is_consensus: bool
    witnesses: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return asdict(self)


def _linkage_partition(config: Configuration, tolerance) -> ClusterPartition:
    """Single-linkage groups of the stored keys, each represented by its mean."""
    return ClusterPartition(groups=tuple(
        (_config_mean(config, idxs), frozenset(j + 1 for j in idxs))
        for idxs in single_linkage_groups(config.keys, tolerance)
    ))


def partition_clusters(config: Configuration) -> ClusterPartition:
    """Same-opinion groups: exact order keys linked at tolerance 0."""
    _require_exact(config, "partition_clusters")
    return _linkage_partition(config, 0)


def _first_mixed_neighborhood(config: Configuration, k: int):
    """(agent, neighbor ids) of the first agent whose neighbor set holds
    another opinion than its own; None when the configuration is clustered."""
    _check_k(k, config.n)
    keys = config.keys
    for i, x in enumerate(keys):
        idxs = knn_indices(keys, i, k)
        if any(keys[j] != x for j in idxs):
            return i + 1, tuple(j + 1 for j in idxs)
    return None


def is_clustered(config: Configuration, k: int) -> bool:
    """True iff every agent's neighbor set is homogeneous at its own opinion,
    computed from the definition. The equivalent size criterion (every
    same-opinion group has >= k members) is certified against it by
    verification.verify_cluster_size_equivalence."""
    _require_exact(config, "is_clustered")
    return _first_mixed_neighborhood(config, k) is None


def is_equilibrium(config: Configuration, k: int) -> EquilibriumReport:
    _require_exact(config, "is_equilibrium")
    witnesses: dict = {}

    moved = next((i for i in config.agents() if knn_update(config, i, k) != config), None)
    if moved is not None:
        witnesses["equilibrium"] = {
            "agent": moved, "neighbors": list(knn_neighbors(config, moved, k))}

    mixed = _first_mixed_neighborhood(config, k)
    if mixed is not None:
        witnesses["clustered"] = {"agent": mixed[0], "neighbors": list(mixed[1])}

    keys = config.keys
    other = next((j for j in config.agents() if keys[j - 1] != keys[0]), None)
    if other is not None:
        witnesses["consensus"] = {"agents": [1, other]}

    return EquilibriumReport(
        is_equilibrium=moved is None,
        is_clustered=mixed is None,
        is_consensus=other is None,
        witnesses=witnesses,
    )


def max_cluster_count(n: int, k: int) -> int:
    """Upper bound floor(n/k) on the number of distinct clusters."""
    _check_k(k, n)
    return n // k


def _check_alpha_beta(alpha: Scalar, beta: Scalar) -> None:
    if not (isinstance(alpha, (int, Fraction)) and isinstance(beta, (int, Fraction))):
        raise FloatBackendError("counterexample constructors are exact-only")
    if not alpha < beta:
        raise ParameterError("alpha must be strictly less than beta")


def build_tie_counterexample(alpha: Scalar, beta: Scalar) -> Configuration:
    """n=7 non-clustered equilibrium for k=3 that hinges on the tie rule:
    agents 1,3,5 at alpha, agents 2,4,6 at beta, agent 7 at the midpoint.
    verification.verify_counterexamples certifies it."""
    _check_alpha_beta(alpha, beta)
    alpha, beta = Fraction(alpha), Fraction(beta)
    mid = (alpha + beta) / 2
    return Configuration([alpha, beta, alpha, beta, alpha, beta, mid])


def build_example1(alpha: Scalar, beta: Scalar) -> Configuration:
    """n=20 non-clustered equilibrium for k=5 that does not rely on ties:
    11 agents at alpha, two at (3a+2b)/5, two at (2a+3b)/5, five at beta.
    verification.verify_counterexamples certifies it."""
    _check_alpha_beta(alpha, beta)
    alpha, beta = Fraction(alpha), Fraction(beta)
    low_mid = (3 * alpha + 2 * beta) / 5
    high_mid = (2 * alpha + 3 * beta) / 5
    return Configuration([alpha] * 11 + [low_mid] * 2 + [high_mid] * 2 + [beta] * 5)


def single_linkage_groups(opinions, tolerance) -> list:
    """Groups of 0-based indices, in ascending order of opinion: sort by
    opinion, split where the gap between consecutive opinions exceeds the
    tolerance. Chained linkage is deliberate: a group's total spread may
    exceed the tolerance."""
    order = sorted(range(len(opinions)), key=opinions.__getitem__)   # stable: ties by index
    groups = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if opinions[cur] - opinions[prev] <= tolerance:
            groups[-1].append(cur)
        else:
            groups.append([cur])
    return groups


def quantize_clusters(config: Configuration, tolerance: Scalar) -> ClusterPartition:
    """Single-linkage grouping of a float configuration at `tolerance`, a
    finite positive number (the CLI's `classify --tol`); each group is
    represented by its mean opinion."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ParameterError("tolerance must be a finite positive number")
    if config.backend != FLOAT:
        raise BackendError("quantize_clusters is for float configurations")
    return _linkage_partition(config, tolerance)
