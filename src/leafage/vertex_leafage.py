"""Vertex-leafage computation for graphs of bounded leafage.

The key subroutine builds, for a prescribed set F of clique-graph edges, a
clique tree whose branching edges (edges incident to nodes of degree >= 3)
are exactly F.  It augments the graph with one marker vertex per edge of F,
minimizes host leaves on the augmented graph, and strips the markers back
out.  The candidates are the branching sets of the trees with exactly
leafage leaves, each generated once.  F alone fixes every leaf count of such
a tree, so the candidates are ranked without building anything and built
best first; the first one realized gives the exact vertex leafage, together
with a tree model realizing both optima simultaneously.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .cliquetrees import (
    CliqueTree,
    Forest,
    TreeModel,
    _class_nodes,
    branching_sets,
    build_clique_tree,
    model_from_clique_tree,
    path_containment_violation,
)
from .graphs import (
    CliqueGraph,
    Graph,
    _connected_cliques,
    _holders,
    _mcs_cliques,
    chordal_cliques,
    clique_graph,
)
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


def _join_all(forest: Forest, ends: Mapping, edges: Iterable) -> bool:
    """Link all of ``edges`` on their class nodes, or take back the ones linked.

    ``ends`` and ``forest`` are :func:`_class_nodes`' map and a forest on its
    nodes.  The links succeed iff the edges linked before plus ``edges`` lie
    in some clique tree: every edge is in the map and none closes a cycle.
    That is a property of the edge set, so the order is free.
    """
    for done, edge in enumerate(edges):
        if edge not in ends or not forest.union(*ends[edge]):
            for _ in range(done):
                forest.undo()
            return False
    return True


def _branching_leaf_counts(
    cliques: tuple[frozenset[str], ...], f: BranchEdgeSet
) -> tuple[int, Counter[str]]:
    """Leaf counts of any clique tree whose branching edge set is ``f``.

    Returns the tree's leaves and, per vertex, its subtree's leaves beyond
    two.  A tree has 2 + sum(deg(x) - 2) leaves over its nodes x of degree
    >= 3, and every edge at such a node is in ``f``.  The same holds for
    the subtree of a vertex u in two or more cliques, whose degree at x
    counts the edges of ``f`` at x whose other end also holds u.  So both
    counts follow from ``f`` and the cliques alone, with no tree built.
    """
    degree: Counter[int] = Counter()
    held: Counter[tuple[str, int]] = Counter()
    for a, b in f:
        degree[a] += 1
        degree[b] += 1
        for u in cliques[a] & cliques[b]:
            held[u, a] += 1
            held[u, b] += 1
    extra: Counter[str] = Counter()
    for (u, _), d in held.items():
        if d > 2:
            extra[u] += d - 2
    return 2 + sum(d - 2 for d in degree.values() if d > 2), extra


def candidate_branch_sets(cg: CliqueGraph, leafage: int) -> list[BranchEdgeSet]:
    """Branching sets of the clique trees with ``leafage`` leaves, each once.

    A tree's branching set F is the union of the full stars at its nodes of
    degree >= 3, its centres, and the tree has 2 + sum(deg(x) - 2) leaves
    over them.  Centres are picked in increasing order, each with its whole
    star, so each F comes from one sequence of choices: an earlier centre's
    star is final and a node passed over keeps degree <= 2, so a star adds
    an edge to an earlier node only while that node has degree < 2, and a
    node of degree >= 3 cannot be passed over.  F is kept once the excess
    sum(deg(x) - 2) is leafage - 2 and no later node has degree >= 3, so
    |F| <= 3 * (leafage - 2).  Smallest first, then by sorted edges.

    The search is depth first over one ``Forest`` on the class nodes that
    holds the current set, so a star is checked by linking only the edges
    it adds (:func:`_join_all`), and a set that no clique tree carries is
    not extended: no superset of it fits.
    """
    n = len(cg.cliques)
    slack = leafage - 2
    ends, node_count = _class_nodes(cg)
    forest = Forest(node_count)
    degree = [0] * n

    def stars(start: int, excess: int) -> Iterator[tuple[int, tuple, int]]:
        # (centre, edges its star adds, excess after it) for centres >= start.
        # The edges at c already in the set are those of earlier centres.
        # Read lazily: deeper stars are taken back before it resumes.
        for c in range(start, n):
            held = degree[c]
            free = [e for e in cg.incident(c) if e[0] == c or degree[e[0]] < 2]
            for k in range(max(0, 3 - held), min(len(free), slack - excess - held + 2) + 1):
                for added in itertools.combinations(free, k):
                    yield c, added, excess + held + k - 2
            if held >= 3:
                return

    def count(edges: tuple, step: int) -> None:
        for a, b in edges:
            degree[a] += step
            degree[b] += step

    out = []
    # An explicit stack, not recursion.  Frames: (the stars at the next
    # centre, the edges that made the current set, to take back after).
    frames = [(stars(0, 0), ())] if slack > 0 else []
    while frames:
        options, links = frames[-1]
        step = next(options, None)
        if step is not None:
            c, added, excess = step
            if not _join_all(forest, ends, added):
                continue
            count(added, 1)
            if excess < slack:
                frames.append((stars(c + 1, excess), added))
                continue
            if max(degree[c + 1:], default=0) < 3:
                out.append(frozenset(e for _, made in frames for e in made).union(added))
        else:
            frames.pop()
            added = links
        # Take back the last star: the one a set was just kept with, or the
        # one whose extensions are all done.
        for _ in added:
            forest.undo()
        count(added, -1)
    out.sort(key=lambda f: (len(f), sorted(f)))
    return out


def vertex_leafage_bounded(g: Graph, ell: int | None = None) -> VlCertificate | None:
    """Exact vertex leafage of a connected chordal graph with small leafage.

    Returns None when the leafage exceeds ``ell``.  The candidates are the
    branching sets of the trees with exactly leafage leaves
    (``candidate_branch_sets``): at most leafage - 2 branching nodes, the
    paper's bound, and so at most 3 * (leafage - 2) edges.

    The vertex leaf counts of a tree follow from its branching set
    (``_branching_leaf_counts``), so no tree is built to rank a candidate:
    they are tried in (vertex leafage, size, sorted edges) order, and the
    first one that ``clique_tree_with_branching`` realizes is optimal.  Its
    tree's per-vertex leaf counts must match the formula's, and it must have
    exactly leafage leaves, or ``CertificateError`` is raised.
    """
    cliques = _connected_cliques(g)
    cg = clique_graph(cliques)
    tmin = minimize_leafage(build_clique_tree(cg))
    leafage = len(tmin.leaves())
    if ell is not None and leafage > ell:
        return None
    if leafage <= 2:
        # A path, whose subtrees are paths: no clique tree does better.
        tree, f = tmin, frozenset()
    else:
        # Stable: candidates of equal vertex leafage keep (|F|, sorted F) order.
        ranked = sorted(
            candidate_branch_sets(cg, leafage),
            key=lambda f: max(_branching_leaf_counts(cliques, f)[1].values(), default=0),
        )
        for f in ranked:
            tree = clique_tree_with_branching(g, f, cliques)
            if tree is not None:
                break
        else:
            raise CertificateError(f"no branching set of a tree with {leafage} leaves is realized")
    per_vertex = {u: tree.vertex_leaf_count(u) for u in g.vertices}
    extra = _branching_leaf_counts(cliques, f)[1]
    expected = {u: 2 + extra[u] if len(ids) > 1 else 0 for u, ids in _holders(cliques).items()}
    if per_vertex != expected:
        raise CertificateError(
            "the tree's vertex leaf counts differ from those of its branching set"
        )
    if len(tree.leaves()) != leafage:
        raise CertificateError(f"the tree has {len(tree.leaves())} leaves, not the leafage {leafage}")
    return VlCertificate(max(per_vertex.values()), tree, per_vertex)


def simultaneous_optimum(g: Graph) -> tuple[TreeModel, CliqueTree]:
    """Tree model realizing minimum host leaves and minimum vertex leafage.

    The tree of ``vertex_leafage_bounded`` has least vertex leafage and, as
    it checks, exactly leafage leaves, so its model realizes both optima at
    once.  Its vertex leafage is counted again from the tree as a check.
    """
    cert = vertex_leafage_bounded(g)
    if cert is None:
        raise CertificateError("no vertex-leafage certificate without a leafage bound")
    vl = cert.tree.max_vertex_leaf_count(g.vertices)
    if vl != cert.value:
        raise CertificateError(
            f"recounting the tree moved the vertex leafage from {cert.value} to {vl}"
        )
    return model_from_clique_tree(cert.tree), cert.tree
