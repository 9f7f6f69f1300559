"""Vertex-leafage computation for graphs of bounded leafage.

The key subroutine builds, for a prescribed set F of clique-graph edges, a
clique tree whose branching edges (edges incident to nodes of degree >= 3)
are exactly F.  It adds one marker per edge of F to the two cliques that
edge joins, builds a clique tree of these marked cliques, minimizes its host
leaves, and strips the markers back out.  The candidates are the branching
sets of the trees with exactly leafage leaves, each generated once.  F alone
fixes every leaf count of such a tree, so the candidates are generated one
vertex-leafage layer at a time, least first, without building anything; the
first one realized gives the exact vertex leafage, together with a tree
model realizing both optima simultaneously.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .cliquetrees import (
    CliqueTree,
    TreeModel,
    branching_sets,
    build_clique_tree,
    model_from_clique_tree,
)
from .graphs import (
    Cliques,
    Forest,
    Graph,
    _connected_cliques,
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
    markers are adjacent when their edges share a clique.  It is the
    reference the marked cliques of :func:`clique_tree_with_branching` are
    tested against.
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


def clique_tree_with_branching(g: Graph, f: BranchEdgeSet) -> CliqueTree | None:
    """Clique tree of ``g`` whose branching edge set equals ``f``, or None.

    First a centre-ban check, before anything is built.  A tree realizing
    ``f`` is a clique tree, so a spanning tree of the clique graph of the
    greatest weight, sum(|C|) - |V| (Gavril 1987; Blair & Peyton 1993),
    that holds ``f`` and no other edge at a centre, a node of ``f``-degree
    >= 3.  The heaviest such forest is ``f`` plus Kruskal, in the family's
    one order, over the edges at no centre; unless it has that weight, None
    is returned.  The check is necessary, so it cuts only sets the build
    rejects, and a set it passes has a clique tree holding it.

    Then each edge of ``f`` puts a marker into the two cliques it joins, so
    the marked cliques have a clique tree, and each of theirs holds ``f``.
    Stripping the markers keeps every vertex's subtree, so the minimized
    tree, validated by the builders, is a clique tree of ``g`` with no check
    again; it is returned if its branching edges are exactly ``f``.  The
    marked cliques are sorted as an elimination pass over
    :func:`augmented_graph` lists them, so the tree is the same.  A marker
    lies in two cliques only, so the marked ``leaf_floor`` is at least
    2 + sum(deg_f(x) - 2), and ``minimize_leafage`` returns a Kruskal tree
    with that many leaves without a search.  Raises ``ValueError`` on a
    pair of ``f`` that is not a clique-graph edge ``(i, j)``,
    ``0 <= i < j < k``, whatever the size of ``f``; a well-formed ``f`` of
    k or more pairs holds a cycle and gives None.
    """
    cliques = chordal_cliques(g)
    for i, j in f:
        if not 0 <= i < j < len(cliques) or not cliques[i] & cliques[j]:
            raise ValueError(f"({i}, {j}) is not a clique-graph edge")
    if len(f) >= len(cliques):
        return None
    if not g.is_connected():
        raise ValueError("clique graph is disconnected")
    # The centre-ban check: f, then Kruskal over the edges at no centre.
    centres = {x for x, d in Counter(i for e in f for i in e).items() if d >= 3}
    forest = Forest(len(cliques))
    if not all(forest.union(*e) for e in f):
        return None
    kept = [e for e in cliques.kruskal_order if centres.isdisjoint(e) and forest.union(*e)]
    weight = sum(map(cliques.weights.__getitem__, itertools.chain(f, kept)))
    if weight != sum(map(len, cliques)) - len(cliques.holders):
        return None
    marked = [c | {_marker_name(e) for e in f if i in e} for i, c in enumerate(cliques)]
    order = sorted(range(len(marked)), key=lambda i: tuple(sorted(marked[i])))
    built = minimize_leafage(build_clique_tree(clique_graph(marked[i] for i in order)))
    edges = frozenset(tuple(sorted((order[a], order[b]))) for a, b in built.edges)
    tree = CliqueTree(cliques, edges)
    if branching_sets(tree).incident_edges != f:
        return None
    return tree


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


def candidate_branch_sets(
    cliques: Cliques, leafage: int, floor: int = 0
) -> list[BranchEdgeSet]:
    """Least vertex-excess layer of the branching sets of ``leafage``-leaf trees.

    A tree's branching set F is the union of the full stars at its nodes of
    degree >= 3, its centres, and the tree has 2 + sum(deg(x) - 2) leaves
    over them.  Centres are picked in increasing order, each with its whole
    star, so each F comes from one sequence of choices: an earlier centre's
    star is final and a node passed over is no centre.  F is complete once
    the excess sum(deg(x) - 2) is leafage - 2 and no later node must be a
    centre, so |F| <= 3 * (leafage - 2).

    Two rules drop sets that no clique tree realizes, on the pairs every
    clique tree holds, ``Cliques.forced``.  A tree T with branching set F
    holds every forced pair, and:

    - at a centre, T's edges are exactly F's, so a centre's star takes
      every forced pair at it;
    - any other node has T-degree <= 2, so its load, its edges of F plus
      its forced pairs outside F, is at most 2.  A node is passed over
      only with load < 3, joins a later star by an unforced edge only with
      load < 2, and a set is complete only while every later node has
      load < 3.

    Both are necessary, so the builder rejects every set they drop, and the
    first set realized, hence the tree returned, is the same with them.

    Of the sets kept, only those of least vertex excess e(F) >= ``floor``
    are returned, smallest first, then by sorted edges.  e(F) is
    max_u sum_x max(0, d_u(x) - 2), where d_u(x) counts the edges of F at x
    whose two ends both hold u, so the trees with branching set F have
    vertex leafage e(F) + 2 (:func:`_branching_leaf_counts`).  e(F) <=
    leafage - 2, as d_u(x) <= deg(x).  The layers for increasing ``floor``
    list every set kept once.

    The search is depth first, over one explicit stack.  Each star is built
    edge by edge, its forced pairs first, each other edge taken before it
    is left out, and linked as it is taken in one ``Forest`` on the
    family's ``class_nodes``, so an edge that no clique tree holds together
    with the set cuts every superset.  The counts d_u(x) and each vertex's
    excess follow every link and unlink.  Adding an edge never lowers
    e(F), so an edge that lifts it above the least excess >= ``floor`` of
    the sets found so far is not linked.

    Two more cuts drop only branches that complete no set, so the layer and
    its order are unchanged.  A node adds at most max(0, h - 2) host
    excess, h its held edges, so ``cap[c]`` sums that over the nodes from c
    on: a centre whose excess so far plus ``cap[c]`` is short of leafage -
    2 is dropped, and a star takes at least enough edges that the later
    nodes' cap can still close the gap.  A node with fewer than three held
    edges never branches, so the centres jump over it (``after``).
    """
    n = len(cliques)
    slack = leafage - 2
    if slack <= 0 or floor > slack:
        return []
    ends, node_count = cliques.class_nodes
    forced = cliques.forced
    forest = Forest(node_count)
    union = forest.union
    find = forest.find
    # Per clique: the edges at it that some clique tree holds, in sorted order.
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in sorted(ends):
        incident[e[0]].append(e)
        incident[e[1]].append(e)
    # cap[c] bounds the host excess nodes c.. can still add (cap[n] = 0 ends
    # the centres); after[c] is the first node >= c that can branch.
    cap = [0] * (n + 1)
    after = [n] * (n + 1)
    for c in range(n - 1, -1, -1):
        cap[c] = cap[c + 1] + max(0, len(incident[c]) - 2)
        after[c] = c if len(incident[c]) >= 3 else after[c + 1]
    degree = [0] * n
    # load[x]: the edges at x that the set or every clique tree holds.
    load = [0] * n
    for a, b in forced:
        load[a] += 1
        load[b] += 1
    # Per edge: its class nodes, whether it is unforced (what it adds to its
    # ends' load), and (u, slot of (u, a), slot of (u, b)) for each
    # vertex u of C_a & C_b, numbered densely, with d_u(x) in ``held[slot]``.
    vertex_ids: dict[str, int] = {}
    table = {
        (a, b): (
            x,
            y,
            (a, b) not in forced,
            [
                (u, u * n + a, u * n + b)
                for u in (vertex_ids.setdefault(v, len(vertex_ids)) for v in cliques[a] & cliques[b])
            ],
        )
        for (a, b), (x, y) in ends.items()
    }
    held = [0] * (len(vertex_ids) * n)
    excess = [0] * len(vertex_ids)
    peak = [0]  # e of the set after each link, the current one last
    chosen: list[tuple[int, int]] = []
    bound = slack
    kept: list[BranchEdgeSet] = []

    def link(edge: tuple[int, int]) -> bool:
        # Add ``edge`` to the set unless it lifts e above the bound or
        # closes a cycle; the bound is checked first, changing nothing.
        x, y, unforced, shared = table[edge]
        top = peak[-1]
        for u, p, q in shared:
            top = max(top, excess[u] + (held[p] >= 2) + (held[q] >= 2))
        if top > bound or not union(x, y):
            return False
        for u, p, q in shared:
            held[p] += 1
            held[q] += 1
            excess[u] += (held[p] > 2) + (held[q] > 2)
        a, b = edge
        degree[a] += 1
        degree[b] += 1
        load[a] += unforced
        load[b] += unforced
        chosen.append(edge)
        peak.append(top)
        return True

    def unlink() -> None:
        edge = chosen.pop()
        _, _, unforced, shared = table[edge]
        for u, p, q in shared:
            excess[u] -= (held[p] > 2) + (held[q] > 2)
            held[p] -= 1
            held[q] -= 1
        a, b = edge
        degree[a] -= 1
        degree[b] -= 1
        load[a] -= unforced
        load[b] -= unforced
        peak.pop()
        forest.undo()

    # Steps, the next one last: ("centre", c, x) tries the stars at centre
    # c, which can branch, and at the later centres, with host excess x so
    # far; ("star", c, free, m, i, k, lo, hi, x) decides free[i], the first
    # m forced, with k edges of c's star taken, lo <= k <= hi at the end
    # and host excess x + k after it; None takes back the last edge linked.
    stack: list = [("centre", after[0], 0)]
    while stack:
        step = stack.pop()
        if step is None:
            unlink()
            continue
        if step[0] == "centre":
            _, c, x = step
            if x + cap[c] < slack:
                continue
            d = degree[c]
            if load[c] < 3:
                stack.append(("centre", after[c + 1], x))
            # An edge whose class nodes the set already joins fits no
            # superset, so it is left out of the star; so is an unforced
            # edge to an earlier node that would lift its load past 2.
            # Forced edges never close a cycle, so every one at c not yet
            # in the set is free, and goes first.
            must: list[tuple[int, int]] = []
            free: list[tuple[int, int]] = []
            for e in incident[c]:
                x0, y0, unforced, _ = table[e]
                if find(x0) == find(y0):
                    continue
                if not unforced:
                    must.append(e)
                elif e[0] == c or load[e[0]] < 2:
                    free.append(e)
            lo = max(len(must), 3 - d, slack - x - d + 2 - cap[c + 1])
            hi = min(len(must) + len(free), slack - x - d + 2)
            if lo <= hi:
                stack.append(("star", c, must + free, len(must), 0, 0, lo, hi, x + d - 2))
            continue
        _, c, free, m, i, k, lo, hi, x = step
        if k < hi and i < len(free):
            if i >= m and k + len(free) - i > lo:
                stack.append(("star", c, free, m, i + 1, k, lo, hi, x))
            if link(free[i]):
                stack.append(None)
                stack.append(("star", c, free, m, i + 1, k + 1, lo, hi, x))
        elif x + k < slack:
            stack.append(("centre", after[c + 1], x + k))
        elif max(load[c + 1:], default=0) < 3 and peak[-1] >= floor:
            if peak[-1] < bound:
                bound = peak[-1]
                kept = []
            kept.append(frozenset(chosen))
    kept.sort(key=lambda f: (len(f), sorted(f)))
    return kept


def vertex_leafage_bounded(g: Graph, ell: int | None = None) -> VlCertificate | None:
    """Exact vertex leafage of a connected chordal graph with small leafage.

    Returns None when the leafage exceeds ``ell``.  The candidates are the
    branching sets of the trees with exactly leafage leaves
    (``candidate_branch_sets``): at most leafage - 2 branching nodes, the
    paper's bound, and so at most 3 * (leafage - 2) edges.

    The vertex leaf counts of a tree follow from its branching set
    (``_branching_leaf_counts``), so no tree is built to rank a candidate:
    they are asked for one vertex-leafage layer at a time, least first, and
    tried in (size, sorted edges) order within it.  The first one that
    ``clique_tree_with_branching`` realizes is optimal.  A layer none of
    whose sets is realized lifts the floor past its excess, read off its
    first set.  The floor rises with every layer and no set has excess above
    leafage - 2, so the search ends.  The tree's per-vertex leaf counts must
    match the formula's, and it must have exactly leafage leaves, or
    ``CertificateError`` is raised.
    """
    cliques = _connected_cliques(g)
    tmin = minimize_leafage(build_clique_tree(clique_graph(cliques)))
    leafage = len(tmin.leaves())
    if ell is not None and leafage > ell:
        return None
    if leafage <= 2:
        # A path, whose subtrees are paths: no clique tree does better.
        tree, f = tmin, frozenset()
    else:
        tree, floor = None, 0
        while tree is None:
            layer = candidate_branch_sets(cliques, leafage, floor) if floor <= leafage - 2 else []
            if not layer:
                raise CertificateError(f"no branching set of a tree with {leafage} leaves is realized")
            for f in layer:
                tree = clique_tree_with_branching(g, f)
                if tree is not None:
                    break
            else:
                # Every set of a layer has its excess; the next layer lies above.
                excess = max(_branching_leaf_counts(cliques, layer[0])[1].values(), default=0)
                floor = max(floor, excess) + 1
    per_vertex = {u: tree.vertex_leaf_count(u) for u in g.vertices}
    extra = _branching_leaf_counts(cliques, f)[1]
    expected = {u: 2 + extra[u] if len(ids) > 1 else 0 for u, ids in cliques.holders.items()}
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
