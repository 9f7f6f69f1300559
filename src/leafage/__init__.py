"""Leafage and vertex leafage of chordal graphs.

Compute the minimum host-tree leaf count (leafage) and the minimum worst
per-vertex subtree leaf count (vertex leafage) over all tree models of a
chordal graph, with certificates, an exact brute-force oracle for small
instances, and a NAE-SAT reduction gadget.
"""

from .cliquetrees import (
    BranchingSets,
    CliqueTree,
    TreeModel,
    branching_sets,
    build_clique_tree,
    model_from_clique_tree,
    path_containment_violation,
)
from .gadget import (
    GadgetGraph,
    NaeInstance,
    build_gadget,
    is_solution,
    parse_clause_file,
    solve_brute_force,
    verify_reduction,
)
from .graphs import (
    Graph,
    GraphFormatError,
    InputError,
    PerfectEliminationOrder,
    check_chordal,
    chordal_cliques,
    clique_graph,
    format_edge_list,
    parse_graph,
)
from .oracle import OracleLimitError, OracleResult, oracle_optima
from .tokens import (
    AugmentingPath,
    CertificateError,
    TokenAssignment,
    TokenMove,
    find_realizing_tree,
    minimize_leafage,
    minimize_leafage_with_trace,
    shortest_augmenting_path,
    tokens_from_tree,
)
from .vertex_leafage import (
    VlCertificate,
    clique_tree_with_branching,
    simultaneous_optimum,
    vertex_leafage_bounded,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentingPath",
    "BranchingSets",
    "CertificateError",
    "CliqueTree",
    "GadgetGraph",
    "Graph",
    "GraphFormatError",
    "InputError",
    "NaeInstance",
    "OracleLimitError",
    "OracleResult",
    "PerfectEliminationOrder",
    "TokenAssignment",
    "TokenMove",
    "TreeModel",
    "VlCertificate",
    "branching_sets",
    "build_clique_tree",
    "build_gadget",
    "check_chordal",
    "chordal_cliques",
    "clique_graph",
    "clique_tree_with_branching",
    "find_realizing_tree",
    "format_edge_list",
    "is_solution",
    "minimize_leafage",
    "minimize_leafage_with_trace",
    "model_from_clique_tree",
    "oracle_optima",
    "parse_clause_file",
    "parse_graph",
    "path_containment_violation",
    "shortest_augmenting_path",
    "simultaneous_optimum",
    "solve_brute_force",
    "tokens_from_tree",
    "verify_reduction",
    "vertex_leafage_bounded",
]
