"""Clique trees, the forest that grows them, tree models, and leaf statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .graphs import (
    CertificateError,
    CliqueGraph,
    Graph,
    _holders,
    _path,
    _reach,
    _sorted_adjacency,
    chordal_cliques,
)


def _count_vertex_leaves(tokens: Iterable[Iterable[frozenset[str]]]) -> Counter[str]:
    """Subtree leaf count of every vertex from each clique's neighbour tokens.

    ``tokens`` gives, per clique, the intersections with its tree neighbours.
    A clique is a leaf of u's subtree when exactly one of them holds u.
    """
    counts: Counter[str] = Counter()
    for toks in tokens:
        # ``once``: the vertices held by exactly one token so far.
        seen = once = frozenset()
        for s in toks:
            once = (once - s) | (s - seen)
            seen |= s
        counts.update(once)
    return counts


@dataclass(frozen=True)
class CliqueTree:
    """Tree on the maximal cliques of a chordal graph.

    ``cliques`` is the canonical clique list; node ids are positions in it.
    ``edges`` holds ``(i, j)`` pairs with ``i < j``.
    """

    cliques: tuple[frozenset[str], ...]
    edges: frozenset[tuple[int, int]]

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
        # One pass over the neighbour intersections, O(sum |C_a & C_b|).
        c = self.cliques
        return _count_vertex_leaves(
            [[c[i] & c[j] for j in ws] for i, ws in enumerate(self.adjacency)]
        )

    def vertex_leaf_count(self, u: str) -> int:
        """Leaves of the subtree induced by the cliques containing ``u``."""
        return self._vertex_leaves[u]

    def max_vertex_leaf_count(self, vertices: Iterable[str]) -> int:
        counts = self._vertex_leaves
        return max((counts[u] for u in vertices), default=0)


class Forest:
    """Union-find on clique ids that can undo its links; grows clique trees.

    Links by size and never compresses paths, so ``find`` costs O(log k)
    and ``undo`` takes back the most recent link.  Every root also keeps the
    vertex union of its component's cliques; a link merges the smaller
    union into the larger one, O(min(|A|, |B|)).
    """

    def __init__(self, cliques: tuple[frozenset[str], ...]):
        self.cliques = cliques
        self.parent = list(range(len(cliques)))
        self.size = [1] * len(cliques)
        self.vertices = [set(c) for c in cliques]
        # Per link: (kept root, absorbed root, kept root's old union,
        # the union that grew, the vertices it gained).
        self._links: list[tuple[int, int, set, set, set]] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Link the components of ``a`` and ``b``; False if they are one."""
        return self._link(self.find(a), self.find(b))

    def join(self, a: int, b: int) -> bool:
        """Add the edge a-b if the forest stays part of some clique tree.

        When every vertex's cliques are connected inside each component
        (the connected-subtree criterion, Blair & Peyton 1993), joining
        components A and B by a-b keeps that so iff every vertex in both
        components lies in C_a and C_b: (U A) & (U B) <= C_a & C_b.  False,
        and nothing changes, on a cycle or a violation.
        """
        ra, rb = self.find(a), self.find(b)
        common = self.cliques[a] & self.cliques[b]
        if ra != rb and not self.vertices[ra] & self.vertices[rb] <= common:
            return False
        return self._link(ra, rb)

    def _link(self, ra: int, rb: int) -> bool:
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        kept, other = self.vertices[ra], self.vertices[rb]
        small, big = (kept, other) if len(kept) < len(other) else (other, kept)
        added = small - big
        big |= added
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.vertices[ra] = big
        self._links.append((ra, rb, kept, big, added))
        return True

    def undo(self) -> None:
        """Take back the most recent link."""
        ra, rb, kept, big, added = self._links.pop()
        big -= added
        self.vertices[ra] = kept
        self.parent[rb] = rb
        self.size[ra] -= self.size[rb]


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
    cannot reach inside u's cliques, and k the first node of the i-j path
    that misses u.  This is *a* violation, not necessarily the
    lexicographically first pair.
    """
    cliques = t.cliques
    inside = sum(len(cliques[a] & cliques[b]) for a, b in t.edges)
    if inside == sum(map(len, cliques)) - len(set().union(*cliques)):
        return None
    edge_count: Counter[str] = Counter()
    for a, b in t.edges:
        edge_count.update(cliques[a] & cliques[b])
    holders = _holders(cliques)
    u = min(v for v, ids in holders.items() if edge_count[v] != len(ids) - 1)
    i = holders[u][0]
    seen = _reach(t.adjacency, i, set(holders[u]))
    j = next(x for x in holders[u] if x not in seen)
    k = next(x for x in t.path(i, j) if u not in cliques[x])
    return (i, j, k)


def _is_tree(t: CliqueTree) -> bool:
    nodes = set(range(len(t.cliques)))
    return len(t.edges) == len(nodes) - 1 and len(_reach(t.adjacency, 0, nodes)) == len(nodes)


def verify_clique_tree(g: Graph, t: CliqueTree) -> tuple[bool, tuple[int, int, int] | None]:
    """Check that ``t`` is a clique tree of ``g``.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness is a
    path-containment violation from :func:`path_containment_violation`: a
    violating triple, not necessarily the lexicographically first, found in
    time linear in the total size of the cliques.  Raises when the node set
    does not match the maximal cliques of ``g`` or the edge set is not a
    tree over intersecting cliques.
    """
    expected = chordal_cliques(g)
    if t.cliques != expected:
        raise ValueError("tree nodes are not the canonical maximal cliques of the graph")
    if not _is_tree(t):
        raise ValueError("edge set is not a spanning tree")
    for a, b in t.edges:
        if not t.cliques[a] & t.cliques[b]:
            raise ValueError(f"tree edge ({a}, {b}) joins disjoint cliques")
    witness = path_containment_violation(t)
    return (witness is None, witness)


def build_clique_tree(cg: CliqueGraph) -> CliqueTree:
    """Maximum-weight spanning tree of the clique graph, validated.

    Kruskal on intersection sizes with canonical tie-breaking; for a chordal
    graph this always yields a clique tree, and the path-containment property
    is re-checked before returning.  Raises ``ValueError`` when the clique
    graph is disconnected or the spanning tree is not a clique tree (the
    cliques do not come from a chordal graph).
    """
    forest = Forest(cg.cliques)
    edges = sorted(cg.weights, key=lambda e: (-cg.weights[e], e))
    chosen = [(i, j) for i, j in edges if forest.union(i, j)]
    if len(chosen) != len(cg.cliques) - 1:
        raise ValueError("clique graph is disconnected")
    tree = CliqueTree(cg.cliques, frozenset(chosen))
    violation = path_containment_violation(tree)
    if violation is not None:
        raise ValueError(f"spanning tree construction violated containment: {violation}")
    return tree


@dataclass(frozen=True)
class TreeModel:
    """Host tree plus one connected subtree of it per graph vertex.

    Host node ids are opaque strings, decoupled from clique ids so that
    non-minimal models are representable.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    subtrees: Mapping[str, frozenset[str]]

    @cached_property
    def adjacency(self) -> Mapping[str, tuple[str, ...]]:
        """Sorted neighbours of every host node, built once per model."""
        return _sorted_adjacency(self.nodes, self.edges)

    def node_neighbors(self, x: str) -> tuple[str, ...]:
        return self.adjacency[x]

    def host_leaf_count(self) -> int:
        if len(self.nodes) == 1:
            return 0
        adj = self.adjacency
        return sum(1 for x in self.nodes if len(adj[x]) == 1)

    def subtree_leaf_count(self, u: str) -> int:
        nodes = self.subtrees[u]
        if len(nodes) <= 1:
            return 0
        adj = self.adjacency
        return sum(1 for x in nodes if sum(1 for w in adj[x] if w in nodes) == 1)


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
    holders = _holders(t.cliques)
    subtrees = {u: frozenset(names[i] for i in holders[u]) for u in sorted(holders)}
    return TreeModel(names, edges, subtrees)


def is_tree_model(g: Graph, m: TreeModel) -> bool:
    """Whether ``m`` is a valid tree model of ``g``."""
    if not _host_is_tree(m):
        return False
    if sorted(m.subtrees) != list(g.vertices):
        return False
    for u in g.vertices:
        nodes = m.subtrees[u]
        if not nodes or not _is_connected_in_host(m, nodes):
            return False
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1:]:
            intersects = bool(m.subtrees[u] & m.subtrees[v])
            if intersects != g.has_edge(u, v):
                return False
    return True


def _host_is_tree(m: TreeModel) -> bool:
    if len(m.edges) != len(m.nodes) - 1:
        return False
    return len(m.nodes) <= 1 or _is_connected_in_host(m, frozenset(m.nodes))


def _is_connected_in_host(m: TreeModel, nodes: frozenset[str]) -> bool:
    if not nodes <= m.adjacency.keys():
        return False
    return len(_reach(m.adjacency, next(iter(nodes)), nodes)) == len(nodes)


def leaf_report(m: TreeModel) -> LeafReport:
    per_vertex = {u: m.subtree_leaf_count(u) for u in sorted(m.subtrees)}
    return LeafReport(
        host_leaves=m.host_leaf_count(),
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
