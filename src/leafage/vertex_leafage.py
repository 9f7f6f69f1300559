"""Vertex-leafage computation for graphs of bounded leafage.

The key subroutine builds, for a prescribed set F of clique-graph edges, a
clique tree whose branching edges (edges incident to nodes of degree >= 3)
are exactly F.  It augments the graph with one marker vertex per edge of F,
minimizes host leaves on the augmented graph, and strips the markers back
out.  F alone fixes every leaf count of such a tree, so candidate F sets are
ranked without building anything and built best first; the first one
realized gives the exact vertex leafage, together with a tree model
realizing both optima simultaneously.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping

from .cliquetrees import (
    CliqueTree,
    Forest,
    TreeModel,
    branching_sets,
    build_clique_tree,
    model_from_clique_tree,
    path_containment_violation,
)
from .graphs import CliqueGraph, Graph, _holders, _mcs_cliques, chordal_cliques, clique_graph
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


def _join_all(forest: Forest, edges: BranchEdgeSet) -> bool:
    """Join all of ``edges`` into ``forest``, or take back the ones joined.

    The joins succeed iff the forest plus ``edges`` still embeds in a clique
    tree: a forest in which every vertex's cliques are connected inside each
    component.  That is a property of the edge set, so the order is free.
    """
    for done, (a, b) in enumerate(edges):
        if not forest.join(a, b):
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


def _extensions(
    star_table: list[list[BranchEdgeSet]],
    budget: int,
    slack: int,
    state: tuple[int, int, BranchEdgeSet, int],
) -> Iterator[tuple[tuple[int, int, BranchEdgeSet, int], BranchEdgeSet]]:
    # Each state one more star adds, with the edges the star brings in.
    # States: (centers so far, last center, edge set, slack used).
    count, last, f, used_slack = state
    degree = Counter(x for e in f for x in e)
    for c in range(last + 1, len(star_table)):
        for star in star_table[c]:
            added = star - f
            if len(f) + len(added) > budget:
                continue
            # Every edge of the star is at c: c's degree in the union.
            used = used_slack + degree[c] + len(added) - 2
            if used <= slack:
                yield (count + 1, c, f | added, used), added


def candidate_branch_sets(
    cg: CliqueGraph, leafage: int, budget: int
) -> list[BranchEdgeSet]:
    """Branching-set candidates, smallest first, deterministic order.

    A branching edge set of a tree is a union of full stars around its
    high-degree nodes, with degree slack summing to at most leafage - 2; the
    enumeration covers exactly those shapes (plus the empty set) up to the
    size budget and keeps only sets some clique tree could carry.

    The search is depth first over one ``Forest`` that holds the current
    set, so a star is checked by joining only the edges it adds.  Two cuts
    leave the list unchanged: a set that no clique tree carries is not
    extended, since no superset of it fits either, and a search state
    already reached is not expanded again.
    """
    slack = leafage - 2
    max_centers = max(0, slack)
    star_table = [
        [frozenset(s) for s in _admissible_stars(cg, c, budget)]
        for c in range(len(cg.cliques))
    ]
    seen: set[tuple[int, int, BranchEdgeSet, int]] = set()
    forest = Forest(cg.cliques)
    # An explicit stack, not recursion.  Frames: (the extensions of a
    # state, the links that made its set, to undo once they are done).
    frames = []
    if max_centers:
        frames.append((_extensions(star_table, budget, slack, (0, -1, frozenset(), 0)), 0))
    while frames:
        extensions, links = frames[-1]
        step = next(extensions, None)
        if step is None:
            frames.pop()
            for _ in range(links):
                forest.undo()
            continue
        state, added = step
        if state in seen or not _join_all(forest, added):
            continue
        seen.add(state)
        if state[0] < max_centers:
            frames.append((_extensions(star_table, budget, slack, state), len(added)))
        else:
            for _ in range(len(added)):
                forest.undo()
    out = list({frozenset()} | {state[2] for state in seen})
    out.sort(key=lambda f: (len(f), sorted(f)))
    return out


def vertex_leafage_bounded(g: Graph, ell: int | None = None) -> VlCertificate | None:
    """Exact vertex leafage of a connected chordal graph with small leafage.

    Returns None when the leafage exceeds ``ell``.  Branching sets are
    enumerated up to 3 * (leafage - 2) edges, which covers every branching
    set of a simultaneously optimal tree; the paper's leafage - 2 bounds the
    branching *nodes*, which ``candidate_branch_sets`` enforces.

    The host and vertex leaf counts of a tree follow from its branching set
    (``_branching_leaf_counts``), so no tree is built to rank a candidate:
    sets whose trees would have fewer leaves than the leafage are dropped,
    the rest are tried in (vertex leafage, size, sorted edges) order, and
    the first one that ``clique_tree_with_branching`` realizes is optimal.
    Its tree's per-vertex leaf counts must match the formula's, or
    ``CertificateError`` is raised.
    """
    if not g.vertices:
        raise ValueError("graph is empty")
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
        tree, f = tmin, frozenset()
    else:
        budget = min(3 * (leafage - 2), len(cliques) - 1)
        ranked = []
        # The first candidate, the empty set, only fits a path.
        for f in candidate_branch_sets(cg, leafage, budget)[1:]:
            host, extra = _branching_leaf_counts(cliques, f)
            if host >= leafage:
                ranked.append((max(extra.values(), default=0), f))
        # Stable: candidates of equal vertex leafage keep (|F|, sorted F) order.
        ranked.sort(key=lambda r: r[0])
        for _, f in ranked:
            tree = clique_tree_with_branching(g, f, cliques)
            if tree is not None:
                break
        else:
            raise CertificateError(
                f"no branching set of size <= {budget} admits a clique tree (leafage {leafage})"
            )
    per_vertex = {u: tree.vertex_leaf_count(u) for u in g.vertices}
    extra = _branching_leaf_counts(cliques, f)[1]
    expected = {u: 2 + extra[u] if len(ids) > 1 else 0 for u, ids in _holders(cliques).items()}
    if per_vertex != expected:
        raise CertificateError(
            "the tree's vertex leaf counts differ from those of its branching set"
        )
    return VlCertificate(max(per_vertex.values()), tree, per_vertex)


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
