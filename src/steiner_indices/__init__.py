"""Steiner k-Wiener and k-hyper-Wiener indices of connected graphs.

Exact brute-force oracles, Hosoya-polynomial identities, modular-graph
distance formulas, and a Theta-class cut method for partial cubes and trees.
"""

from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    IntegralityError,
    PreconditionError,
)
from .graph import (
    DistanceMatrix,
    DistanceMoments,
    Graph,
    all_pairs_distances,
    distance_moments,
    hyper_wiener,
    parse_edge_list,
)
from .theta import (
    GraphClassification,
    PartialCubeResult,
    ThetaClasses,
    count_medians,
    is_bipartite,
    is_partial_cube,
    median_classification,
    pair_counts,
    theta_classes,
    theta_related,
)
from .steiner import (
    K_MAX,
    SteinerHosoya,
    indices_from_hosoya,
    modular_indices_3,
    steiner_distance,
    steiner_hosoya,
    steiner_k_indices_brute,
)
from .cutmethod import cut_report, sww3_cut
from .generators import (
    GeneratorDescriptor,
    complete_formulas,
    family_classification,
    generate,
    grid_sw3,
    grid_sww3,
    order_size,
    parse_descriptor,
    path_formulas,
)

__all__ = [
    "DisconnectedGraphError",
    "GraphFormatError",
    "IntegralityError",
    "PreconditionError",
    "DistanceMatrix",
    "DistanceMoments",
    "Graph",
    "all_pairs_distances",
    "distance_moments",
    "hyper_wiener",
    "parse_edge_list",
    "GraphClassification",
    "PartialCubeResult",
    "ThetaClasses",
    "count_medians",
    "is_bipartite",
    "is_partial_cube",
    "median_classification",
    "pair_counts",
    "theta_classes",
    "theta_related",
    "K_MAX",
    "SteinerHosoya",
    "indices_from_hosoya",
    "modular_indices_3",
    "steiner_distance",
    "steiner_hosoya",
    "steiner_k_indices_brute",
    "cut_report",
    "sww3_cut",
    "GeneratorDescriptor",
    "complete_formulas",
    "family_classification",
    "generate",
    "grid_sw3",
    "grid_sww3",
    "order_size",
    "parse_descriptor",
    "path_formulas",
]
