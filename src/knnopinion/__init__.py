"""Asynchronous k-nearest-neighbor opinion dynamics: exact and floating-point
simulation, equilibrium classification, contraction certificates and a
Monte Carlo consensus harness."""

__version__ = "0.1.0"

from .dynamics import (
    Configuration,
    ParameterError,
    abc_update,
    diameter,
    knn_neighbors,
    knn_update,
)
from .equilibria import (
    ClusterPartition,
    EquilibriumReport,
    build_example1,
    build_tie_counterexample,
    is_clustered,
    is_equilibrium,
    max_cluster_count,
    partition_clusters,
    quantize_clusters,
)
from .convergence import (
    ExtremalSelection,
    check_z_le_y,
    extremal_selection,
    run_shrink_schedule,
    shrink_schedule,
    verify_lemma2_monotonicity,
    verify_lemma3_contraction,
    verify_lemma_bigm,
)
from .harness import (
    MonteCarloStats,
    TrajectoryRecord,
    batch_sweep,
    classify_configuration,
    figure_runs,
    monte_carlo_consensus,
    robustness_addition,
    robustness_removal,
    simulate,
)
from .numerics import Scalar, format_scalar, parse_scalar
from .rng import SeededRng
from .scenario import ScenarioError, ScenarioSpec, load_scenario, parse_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
