"""The former grouping and labelling code, the oracle for the label
`harness.simulate` gives a limit state (`single_linkage_groups` then
`_limit_class`), `equilibria.partition_clusters` and
`equilibria.quantize_clusters`.

Each backend has its own path here: an exact state is grouped in a dict of
equal values and labelled through the definition-based `is_clustered`; a
float state is linked at the tolerance, its groups re-sorted by their mean,
and labelled by the group-size rule written out in place. The library must
give the same labels and the same partitions from one single-linkage
grouping and one label rule.
"""

from knnopinion.dynamics import Configuration
from knnopinion.equilibria import ClusterPartition, is_clustered, single_linkage_groups
from knnopinion.harness import CLASS_CLUSTERED, CLASS_CONSENSUS, CLASS_NON_CLUSTERED
from knnopinion.numerics import EXACT
from reference_numerics import mean_of


def reference_partition_clusters(config: Configuration) -> ClusterPartition:
    by_value: dict = {}
    for i in config.agents():
        by_value.setdefault(config.opinion(i), set()).add(i)
    return ClusterPartition(groups=tuple(
        (op, frozenset(by_value[op])) for op in sorted(by_value)))


def reference_quantize_clusters(config: Configuration, tolerance) -> ClusterPartition:
    groups = []
    for idxs in single_linkage_groups(config.opinions, tolerance):
        rep = mean_of([config.opinions[j] for j in idxs])
        groups.append((rep, frozenset(j + 1 for j in idxs)))
    groups.sort(key=lambda g: g[0])
    return ClusterPartition(groups=tuple(groups))


def reference_classify_opinions(opinions, model, tol, backend) -> str:
    if backend == EXACT:
        config = Configuration(list(opinions))
        if len(reference_partition_clusters(config).groups) == 1:
            return CLASS_CONSENSUS
        if model.kind == "knn":
            return CLASS_CLUSTERED if is_clustered(config, model.k) else CLASS_NON_CLUSTERED
        return CLASS_CLUSTERED
    groups = single_linkage_groups(opinions, tol)
    if len(groups) == 1:
        return CLASS_CONSENSUS
    if model.kind == "knn" and any(len(g) < model.k for g in groups):
        return CLASS_NON_CLUSTERED
    return CLASS_CLUSTERED
