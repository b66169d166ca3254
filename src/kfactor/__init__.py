"""Exact k-factor computation by augmenting trails over layered dart graphs.

A k-factor of a simple undirected graph is a spanning subgraph in which
every vertex has degree exactly k (a perfect matching at k = 1, a disjoint
cycle cover at k = 2). The solver grows a degree-capped subgraph one
augmenting trail at a time: each trail alternates between non-member and
member edges, is found with a layered search over darts (oriented half
edges), and repairs fold-backs through odd cycles with a blossom deletion
step. At k = 1 the trails are augmenting paths from Edmonds' blossom
search on the graph itself. A brute-force oracle and a differential-test
harness ship alongside the solver; `kfactor --help` exposes the solver,
the factor checker and the harness on the command line.
"""

from .difftest import DiffConfig, DiffReport, DiffRow, run_difftest
from .graph import Graph, GraphFormatError, dart_edge, opposite, parse_graph, serialize_graph
from .matching import edmonds_augmenting_path
from .oracle import (
    DEFAULT_EDGE_CAP,
    brute_force_k_factor,
    enumerate_graphs,
    is_valid_factor,
    random_gnp,
    random_regular,
    vertex_pairs,
)
from .search import (
    BlossomViolation,
    LayeredDartGraph,
    SearchCounters,
    blossom_operation,
    build_layers,
    extract_trail,
    find_augmenting_trail,
    find_blossom_violation,
    is_cut_dart,
    prune,
    restrict_to_target,
)
from .solver import (
    FACTOR_FOUND,
    INFEASIBLE_PRECHECK,
    NO_FACTOR,
    SolveOutcome,
    SolveStats,
    compute_bipartite_k_factor,
    compute_k_factor,
    feasibility_precheck,
    two_coloring,
    verify_factor,
)
from .subgraph import KLimitedSubgraph, Trail, parse_factor, serialize_factor

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphFormatError",
    "parse_graph",
    "serialize_graph",
    "opposite",
    "dart_edge",
    "KLimitedSubgraph",
    "Trail",
    "serialize_factor",
    "parse_factor",
    "LayeredDartGraph",
    "BlossomViolation",
    "SearchCounters",
    "build_layers",
    "prune",
    "restrict_to_target",
    "extract_trail",
    "find_blossom_violation",
    "is_cut_dart",
    "blossom_operation",
    "find_augmenting_trail",
    "edmonds_augmenting_path",
    "SolveOutcome",
    "SolveStats",
    "FACTOR_FOUND",
    "NO_FACTOR",
    "INFEASIBLE_PRECHECK",
    "feasibility_precheck",
    "compute_k_factor",
    "compute_bipartite_k_factor",
    "verify_factor",
    "two_coloring",
    "brute_force_k_factor",
    "is_valid_factor",
    "enumerate_graphs",
    "vertex_pairs",
    "random_gnp",
    "random_regular",
    "DEFAULT_EDGE_CAP",
    "DiffConfig",
    "DiffRow",
    "DiffReport",
    "run_difftest",
]
