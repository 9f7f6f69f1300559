"""Vertex-leafage computation for graphs of bounded leafage.

The key subroutine builds, for a prescribed set F of clique-graph edges, a
clique tree whose branching edges (edges incident to nodes of degree >= 3)
are exactly F.  It augments the graph with one marker vertex per edge of F,
minimizes host leaves on the augmented graph, and strips the markers back
out.  Enumerating candidate F sets then yields the exact vertex leafage,
together with a tree model realizing both optima simultaneously.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .cliquetrees import (
    CliqueTree,
    Forest,
    TreeModel,
    branching_sets,
    build_clique_tree,
    model_from_clique_tree,
    path_containment_violation,
)
from .graphs import CliqueGraph, Graph, _mcs_cliques, chordal_cliques, clique_graph
from .tokens import CertificateError, minimize_leafage

BranchEdgeSet = frozenset[tuple[int, int]]


@dataclass(frozen=True)
class VlCertificate:
    """Vertex leafage with a realizing clique tree and per-vertex leaf counts."""

    value: int
    tree: CliqueTree
    per_vertex: Mapping[str, int]


def _marker_name(edge: tuple[int, int]) -> str:
    return f"edge:{edge[0]}-{edge[1]}"


def augmented_graph(
    g: Graph, cliques: tuple[frozenset[str], ...], f: BranchEdgeSet
) -> Graph:
    """Graph with one marker vertex per prescribed branching edge.

    A marker for edge CC' is adjacent to every vertex of C or C', and two
    markers are adjacent when their edges share a clique.
    """
    edges = list(g.edges())
    f_sorted = sorted(f)
    for e in f_sorted:
        marker = _marker_name(e)
        for u in sorted(cliques[e[0]] | cliques[e[1]]):
            edges.append((marker, u))
    for a, b in itertools.combinations(f_sorted, 2):
        if set(a) & set(b):
            edges.append((_marker_name(a), _marker_name(b)))
    return Graph.from_edges(list(g.vertices), edges)


def clique_tree_with_branching(
    g: Graph,
    f: BranchEdgeSet,
    cliques: tuple[frozenset[str], ...] | None = None,
) -> CliqueTree | None:
    """Clique tree of ``g`` whose branching edge set equals ``f``, or None.

    Builds the marker-augmented graph; if it is chordal, minimizes host
    leaves on it, renames each node back to its underlying clique, and
    accepts the result only when it is a clique tree of ``g`` with branching
    edges exactly ``f``.
    """
    if cliques is None:
        cliques = chordal_cliques(g)
    if len(f) >= len(cliques):
        return None
    for i, j in f:
        if not cliques[i] & cliques[j]:
            raise ValueError(f"({i}, {j}) is not a clique-graph edge")
    cliques_p = _mcs_cliques(augmented_graph(g, cliques, f))
    if cliques_p is None or len(cliques_p) != len(cliques):
        return None
    tmin = minimize_leafage(build_clique_tree(clique_graph(cliques_p)))
    vertex_set = set(g.vertices)
    stripped = [frozenset(c & vertex_set) for c in cliques_p]
    index = {c: i for i, c in enumerate(cliques)}
    if sorted(stripped, key=lambda c: tuple(sorted(c))) != list(cliques):
        return None
    rename = {i: index[c] for i, c in enumerate(stripped)}
    edges = frozenset(
        (rename[a], rename[b]) if rename[a] < rename[b] else (rename[b], rename[a])
        for a, b in tmin.edges
    )
    tree = CliqueTree(cliques, edges)
    if path_containment_violation(tree) is not None:
        return None
    if branching_sets(tree).incident_edges != f:
        return None
    return tree


def _admissible_stars(
    cg: CliqueGraph, center: int, max_size: int
) -> list[tuple[tuple[int, int], ...]]:
    # Sets of >= 3 edges at one node that a clique tree could carry: any two
    # leaves hanging off the same node must have their intersection inside it.
    incident = cg.incident(center)
    out = []
    for size in range(3, min(max_size, len(incident)) + 1):
        for combo in itertools.combinations(incident, size):
            ok = True
            for (a1, b1), (a2, b2) in itertools.combinations(combo, 2):
                x = b1 if a1 == center else a1
                y = b2 if a2 == center else a2
                if not cg.cliques[x] & cg.cliques[y] <= cg.cliques[center]:
                    ok = False
                    break
            if ok:
                out.append(combo)
    return out


def _fits_clique_tree(cg: CliqueGraph, f: BranchEdgeSet) -> bool:
    # F must embed in a clique tree: a forest in which every vertex's
    # cliques are connected inside each component.
    forest = Forest(cg.cliques)
    return all(forest.join(a, b) for a, b in sorted(f))


def candidate_branch_sets(
    cg: CliqueGraph, leafage: int, budget: int
) -> list[BranchEdgeSet]:
    """Branching-set candidates, smallest first, deterministic order.

    A branching edge set of a tree is a union of full stars around its
    high-degree nodes, with degree slack summing to at most leafage - 2; the
    enumeration covers exactly those shapes (plus the empty set) up to the
    size budget and filters out sets no clique tree could carry.
    """
    results: set[BranchEdgeSet] = {frozenset()}
    max_centers = max(0, leafage - 2)
    slack = leafage - 2
    star_table = {
        c: _admissible_stars(cg, c, budget) for c in range(len(cg.cliques))
    }

    # An explicit stack, not a recursive closure: the closure's reference
    # cycle would keep ``results`` alive until the next garbage collection.
    # Entries: (centers so far, last center, edge set, slack used).
    stack: list[tuple[int, int, BranchEdgeSet, int]] = [(0, -1, frozenset(), 0)]
    while stack:
        count, last, f, used_slack = stack.pop()
        if count:
            results.add(f)
        if count == max_centers:
            continue
        for c in range(last + 1, len(cg.cliques)):
            for star in star_table[c]:
                combined = f | frozenset(star)
                degree = sum(1 for e in combined if c in e)
                if len(combined) > budget or used_slack + degree - 2 > slack:
                    continue
                stack.append((count + 1, c, combined, used_slack + degree - 2))
    filtered = [f for f in results if not f or _fits_clique_tree(cg, f)]
    filtered.sort(key=lambda f: (len(f), sorted(f)))
    return filtered


def vertex_leafage_bounded(g: Graph, ell: int | None = None) -> VlCertificate | None:
    """Exact vertex leafage of a connected chordal graph with small leafage.

    Returns None when the leafage exceeds ``ell``.  Branching sets are
    enumerated up to 3 * (leafage - 2) edges, which covers every branching
    set of a simultaneously optimal tree; the paper's leafage - 2 bounds the
    branching *nodes*, which ``candidate_branch_sets`` enforces.
    """
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    cliques = chordal_cliques(g)
    cg = clique_graph(cliques)
    tmin = minimize_leafage(build_clique_tree(cg))
    leafage = len(tmin.leaves())
    if ell is not None and leafage > ell:
        return None
    if leafage <= 2:
        # A path, whose subtrees are paths: no clique tree does better.
        per_vertex = {u: tmin.vertex_leaf_count(u) for u in g.vertices}
        return VlCertificate(max(per_vertex.values(), default=0), tmin, per_vertex)
    budget = min(3 * (leafage - 2), len(cliques) - 1)
    best: tuple[int, CliqueTree] | None = None
    # The first candidate, the empty set, only fits a path.
    for f in candidate_branch_sets(cg, leafage, budget)[1:]:
        tree = clique_tree_with_branching(g, f, cliques)
        if tree is None:
            continue
        vl = tree.max_vertex_leaf_count(g.vertices)
        if best is None or vl < best[0]:
            best = (vl, tree)
        if best[0] <= 2:
            break
    if best is None:
        raise CertificateError(
            f"no branching set of size <= {budget} admits a clique tree (leafage {leafage})"
        )
    per_vertex = {u: best[1].vertex_leaf_count(u) for u in g.vertices}
    return VlCertificate(best[0], best[1], per_vertex)


def simultaneous_optimum(g: Graph) -> tuple[TreeModel, CliqueTree]:
    """Tree model realizing minimum host leaves and minimum vertex leafage.

    Starts leafage minimization from a vertex-leafage-optimal tree; the
    iteration never increases any subtree's leaf count, so both optima hold
    at once in the result.  A tree with at most two leaves is a path and
    already has minimum leafage, so it is not minimized again.
    """
    cert = vertex_leafage_bounded(g)
    if cert is None:
        raise CertificateError("no vertex-leafage certificate without a leafage bound")
    tree = cert.tree if len(cert.tree.leaves()) <= 2 else minimize_leafage(cert.tree)
    vl = tree.max_vertex_leaf_count(g.vertices)
    if vl != cert.value:
        raise CertificateError(
            f"leafage minimization moved the vertex leafage from {cert.value} to {vl}"
        )
    return model_from_clique_tree(tree), tree
