"""Test-only constructors of configurations."""

from knnopinion.dynamics import Configuration


def build_clustered(groups) -> Configuration:
    """Configuration from (opinion, size) pairs, ids assigned in blocks."""
    return Configuration([op for op, size in groups for _ in range(size)])
