"""Balanced separators and fat pattern minors in unweighted graphs.

The package decides, for a vertex-weighted host graph and a small pattern,
between a balanced vertex separator covered by a few small-radius balls
and a d-fat model of the pattern (branch sets pairwise d apart except for
mandatory vertex-edge contacts).  `coarse_separator_or_model` is the main
entry point; the submodules expose the building blocks (partitions, the
flow/cut dichotomy, model verification) and exhaustive oracles for tests.
"""

from .fatminor import (CrudeFatModel, FatModel, LiftError, ModelError,
                       ModelReport, PatternGraph, SubdividedPattern,
                       crude_to_fat, ensure_fat_model, ensure_no_isolated,
                       lift_model, power_model_to_base, restrict_model,
                       sample_crude_model, two_subdivision,
                       verify_crude_model, verify_fat_model)
from .flow import (BalancedSeparatorResult, ConcurrentFlow, FlowCutError,
                   FlowError, HeavyFlowResult, balanced_separator_or_flow,
                   flow_or_sparse_cut)
from .graph import (GraphError, QuotientGraph, Separation,
                    SeparatorCertificate, SeparatorReport, WeightedGraph,
                    ball, bfs_distances, connected_components,
                    coverage_radius, greedy_cover, induced_subgraph,
                    make_separation, power, quotient, set_distance,
                    verify_certificate, verify_separator)
from .oracle import (brute_force_fat_minor, exact_min_balanced_separator,
                     exact_sparsest_separation)
from .partition import (ClusterClosePairs, ConnectedPartition,
                        close_cluster_pairs, greedy_dominating_set,
                        max_ball2_clusters, peel_threshold, sparse_partition,
                        star_partition)
from .pipeline import (ModelFound, PipelineConfig, PipelineFailure,
                       SeparatorFound, coarse_separator_or_model, core_3fat,
                       induced_minor_separator)

__version__ = "0.1.0"

__all__ = [
    "BalancedSeparatorResult", "ClusterClosePairs", "ConcurrentFlow",
    "ConnectedPartition", "CrudeFatModel", "FatModel", "FlowCutError",
    "FlowError", "GraphError", "HeavyFlowResult", "LiftError", "ModelError",
    "ModelFound", "ModelReport", "PatternGraph", "PipelineConfig",
    "PipelineFailure", "QuotientGraph", "Separation", "SeparatorCertificate",
    "SeparatorFound", "SeparatorReport", "SubdividedPattern", "WeightedGraph",
    "ball", "balanced_separator_or_flow", "bfs_distances",
    "brute_force_fat_minor", "close_cluster_pairs",
    "coarse_separator_or_model", "connected_components", "core_3fat",
    "coverage_radius", "crude_to_fat", "ensure_fat_model",
    "ensure_no_isolated", "exact_min_balanced_separator",
    "exact_sparsest_separation", "flow_or_sparse_cut", "greedy_dominating_set",
    "greedy_cover", "induced_minor_separator", "induced_subgraph",
    "lift_model", "make_separation", "max_ball2_clusters", "peel_threshold",
    "power", "power_model_to_base", "quotient", "restrict_model",
    "sample_crude_model", "set_distance", "sparse_partition", "star_partition",
    "two_subdivision", "verify_certificate", "verify_crude_model",
    "verify_fat_model", "verify_separator",
]
