"""Clique trees, their validity check, tree models, and leaf statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .graphs import (
    CertificateError,
    Cliques,
    Forest,
    _path,
    _sorted_adjacency,
)


@dataclass(frozen=True)
class CliqueTree:
    """Tree on the maximal cliques of a chordal graph.

    ``cliques`` is the canonical clique list, made a :class:`Cliques`
    family if it is a plain tuple; node ids are positions in it.  ``edges``
    holds ``(i, j)`` pairs with ``i < j``.
    """

    cliques: Cliques
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cliques", Cliques(self.cliques))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour ids of every node, built once per tree."""
        ids = range(len(self.cliques))
        adj = _sorted_adjacency(ids, self.edges)
        # From a list, not a generator: tuple() then allocates the exact
        # size and reuses freed tuples, where a generator's grow-and-resize
        # lets one freed k-tuple per enumerated tree pile up in the
        # interpreter's tuple free list (measured: +0.3 MB peak RSS).
        return tuple([adj[i] for i in ids])

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def leaves(self) -> list[int]:
        # A single-node tree has no leaves by convention.
        if len(self.cliques) == 1:
            return []
        return [i for i, ws in enumerate(self.adjacency) if len(ws) == 1]

    def path(self, src: int, dst: int) -> list[int]:
        """Node sequence of the unique src-dst path."""
        path = _path(self.adjacency, src, dst, range(len(self.cliques)))
        if path is None:
            raise ValueError(f"no path between nodes {src} and {dst}")
        return path

    @cached_property
    def _vertex_leaves(self) -> Counter[str]:
        # One pass over the edges, O(sum |C_a & C_b|): u's tree degree at
        # each clique holding it; u's leaves are the cliques where it is 1.
        c = self.cliques
        degree: dict[tuple[str, int], int] = {}
        for a, b in self.edges:
            for u in c[a] & c[b]:
                degree[u, a] = degree.get((u, a), 0) + 1
                degree[u, b] = degree.get((u, b), 0) + 1
        return Counter([u for (u, _), d in degree.items() if d == 1])

    def vertex_leaf_count(self, u: str) -> int:
        """Leaves of the subtree induced by the cliques containing ``u``."""
        return self._vertex_leaves[u]

    def max_vertex_leaf_count(self, vertices: Iterable[str]) -> int:
        return max(map(self._vertex_leaves.__getitem__, vertices), default=0)


def path_containment_violation(
    t: CliqueTree,
) -> tuple[int, int, int] | None:
    """A triple (i, j, k), i < j, where clique k on the i-j path misses i & j.

    ``t`` must be a spanning tree on its cliques.  It is a clique tree exactly
    when the cliques holding each vertex u induce a connected subtree, that
    is, when the tree edges inside them number one less than the cliques.  No
    vertex can have more (its edges form a forest), so comparing the sums
    over all vertices decides validity: the tree edges' intersection sizes
    must total sum(|C|) - |V|.  Cost O(sum(|C_a & C_b|) + sum(|C|)) instead
    of one path search per intersecting clique pair.

    Returns None for a clique tree.  Otherwise the witness comes from the
    first vertex u, in sorted order, whose cliques are disconnected: i is
    the smallest clique holding u, j the smallest one holding u that i
    cannot reach over the tree edges whose intersection holds u (a
    :class:`Forest` of those edges tells), and k the first node of the i-j
    path that misses u.  This is *a* violation, not necessarily the
    lexicographically first pair.
    """
    cliques = t.cliques
    holders = cliques.holders
    inside = sum(len(cliques[a] & cliques[b]) for a, b in t.edges)
    if inside == sum(map(len, cliques)) - len(holders):
        return None
    edge_count: Counter[str] = Counter()
    for a, b in t.edges:
        edge_count.update(cliques[a] & cliques[b])
    u = min(v for v, ids in holders.items() if edge_count[v] != len(ids) - 1)
    forest = Forest(len(cliques))
    for a, b in t.edges:
        if u in cliques[a] and u in cliques[b]:
            forest.union(a, b)
    i = holders[u][0]
    root = forest.find(i)
    j = next(x for x in holders[u] if forest.find(x) != root)
    k = next(x for x in t.path(i, j) if u not in cliques[x])
    return (i, j, k)


def check_clique_tree(t: CliqueTree) -> None:
    """Raise ``ValueError`` unless ``t`` is a clique tree of its cliques.

    The one validity check (Blair & Peyton 1993), three conditions in this
    order: the edges form a spanning tree, at most k - 1 of them, each
    linking two components of a :class:`Forest` on the k nodes; every edge
    joins intersecting cliques; and the cliques holding each vertex induce
    a connected subtree, decided by :func:`path_containment_violation`,
    whose (i, j, k) witness the message names.  Cost O(k log k) beyond that
    decision.
    """
    cliques, k = t.cliques, len(t.cliques)
    if len(t.edges) > k - 1:
        raise ValueError(f"edge set is not a spanning tree: {len(t.edges)} edges on {k} cliques")
    forest = Forest(k)
    if sum(forest.union(a, b) for a, b in t.edges) < k - 1:
        raise ValueError("edge set is not a spanning tree: the cliques are disconnected")
    disjoint = [(a, b) for a, b in t.edges if cliques[a].isdisjoint(cliques[b])]
    if disjoint:
        raise ValueError(f"tree edge {min(disjoint)} joins disjoint cliques")
    witness = path_containment_violation(t)
    if witness is not None:
        raise ValueError(f"spanning tree violated containment: {witness}")


def build_clique_tree(cliques: Cliques) -> CliqueTree:
    """Maximum-weight spanning tree of the clique graph, validated.

    Kruskal in the family's ``kruskal_order``; for a chordal graph this
    always yields a clique tree, and :func:`check_clique_tree` re-checks it
    before returning.  Raises ``ValueError`` when the clique graph is
    disconnected or the spanning tree is not a clique tree (the cliques do
    not come from a chordal graph).
    """
    forest = Forest(len(cliques))
    edges = cliques.kruskal_order
    tree = CliqueTree(cliques, frozenset([(i, j) for i, j in edges if forest.union(i, j)]))
    check_clique_tree(tree)
    return tree


@dataclass(frozen=True)
class TreeModel:
    """Host tree plus one connected subtree of it per graph vertex.

    Host node ids are opaque strings.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    subtrees: Mapping[str, frozenset[str]]

    @cached_property
    def adjacency(self) -> Mapping[str, tuple[str, ...]]:
        """Sorted neighbours of every host node, built once per model."""
        return _sorted_adjacency(self.nodes, self.edges)


@dataclass(frozen=True)
class LeafReport:
    host_leaves: int
    per_vertex_leaves: Mapping[str, int]
    max_vertex_leaves: int


def model_from_clique_tree(t: CliqueTree) -> TreeModel:
    """Tree model defined by a clique tree: vertex u spans {C : u in C}."""
    width = max(3, len(str(len(t.cliques))))
    names = tuple(f"n{i:0{width}d}" for i in range(len(t.cliques)))
    edges = frozenset(
        (names[a], names[b]) if names[a] < names[b] else (names[b], names[a])
        for a, b in t.edges
    )
    holders = t.cliques.holders
    subtrees = {u: frozenset(map(names.__getitem__, holders[u])) for u in sorted(holders)}
    return TreeModel(names, edges, subtrees)


def leaf_report(m: TreeModel) -> LeafReport:
    """Host and subtree leaf counts of a model, read off its host adjacency.

    A node is a leaf of a subtree, or of the host, when exactly one of its
    host neighbours lies in it; a single node has no leaves.
    """
    adj = m.adjacency

    def leaves(nodes: frozenset[str]) -> int:
        if len(nodes) <= 1:
            return 0
        return sum(1 for x in nodes if sum(1 for w in adj[x] if w in nodes) == 1)

    per_vertex = {u: leaves(m.subtrees[u]) for u in sorted(m.subtrees)}
    return LeafReport(
        host_leaves=leaves(frozenset(m.nodes)),
        per_vertex_leaves=per_vertex,
        max_vertex_leaves=max(per_vertex.values(), default=0),
    )


@dataclass(frozen=True)
class BranchingSets:
    """Nodes of degree >= 3 in a tree and the edges incident to them."""

    high_nodes: frozenset[int]
    incident_edges: frozenset[tuple[int, int]]


def branching_sets(t: CliqueTree) -> BranchingSets:
    high = frozenset(i for i in range(len(t.cliques)) if t.degree(i) >= 3)
    incident = frozenset(e for e in t.edges if e[0] in high or e[1] in high)
    # Branching nodes are bounded by the leaf count; the edge set is
    # recorded but deliberately not bounded the same way (a star already has
    # more branching edges than leaves minus two).
    if high and len(high) > len(t.leaves()) - 2:
        raise CertificateError(f"{len(high)} branching nodes but {len(t.leaves())} leaves")
    return BranchingSets(high, incident)
