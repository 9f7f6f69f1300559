"""Simple undirected graphs, chordality recognition, and maximal cliques.

Vertices are opaque strings; the canonical vertex order is lexicographic and
is used for all tie-breaking downstream, so every operation here is
deterministic.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Container, Iterable, Mapping, Sequence

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


class GraphFormatError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph.

    ``vertices`` is sorted lexicographically; ``adjacency`` is symmetric,
    loop-free, and keyed by every vertex.
    """

    vertices: tuple[str, ...]
    adjacency: Mapping[str, frozenset[str]]

    @classmethod
    def from_edges(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        verts = set(vertices)
        adj: dict[str, set[str]] = {}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u!r}")
            verts.add(u)
            verts.add(v)
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        ordered = tuple(sorted(verts))
        return cls(ordered, {v: frozenset(adj.get(v, ())) for v in ordered})

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[str, str]]:
        return [
            (u, v)
            for u in self.vertices
            for v in sorted(self.adjacency[u])
            if u < v
        ]

    def has_edge(self, u: str, v: str) -> bool:
        return v in self.adjacency[u]

    def neighbors(self, v: str) -> frozenset[str]:
        return self.adjacency[v]

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(_reach(self.adjacency, self.vertices[0], self.adjacency.keys())) == self.n


def _sorted_adjacency(nodes: Iterable, edges: Iterable[tuple]) -> dict[Any, tuple]:
    """Node -> sorted tuple of its neighbours, for ``nodes`` and edge ends."""
    adj: dict[Any, list] = {x: [] for x in nodes}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return {x: tuple(sorted(ws)) for x, ws in adj.items()}


def _reach(adj: Mapping | Sequence, start: Any, allowed: Container) -> set:
    """Nodes reachable from ``start`` through nodes of ``allowed`` only."""
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _path(adj: Mapping | Sequence, src: Any, dst: Any, allowed: Container) -> list | None:
    """A shortest src-dst path through nodes of ``allowed``, or None.

    Breadth-first in the order of ``adj``, so with sorted neighbour lists
    the result is the canonical one.
    """
    prev: dict[Any, Any] = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            out = [u]
            while prev[out[-1]] is not None:
                out.append(prev[out[-1]])
            out.reverse()
            return out
        for w in adj[u]:
            if w in allowed and w not in prev:
                prev[w] = u
                queue.append(w)
    return None


@dataclass(frozen=True)
class PerfectEliminationOrder:
    """Vertex order where each vertex's later neighbours form a clique."""

    order: tuple[str, ...]


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document.

    Format: ``#`` starts a comment, ``v <name>`` declares an isolated vertex,
    ``e <name> <name>`` declares an edge.  Duplicate edges and self-loops are
    rejected with the line number.
    """
    vertices: set[str] = set()
    edges: list[tuple[str, str]] = []
    seen_edges: set[frozenset[str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "v":
            if len(fields) != 2:
                raise GraphFormatError("expected 'v <name>'", lineno)
            name = fields[1]
            if not _NAME_RE.match(name):
                raise GraphFormatError(f"bad vertex name {name!r}", lineno)
            vertices.add(name)
        elif fields[0] == "e":
            if len(fields) != 3:
                raise GraphFormatError("expected 'e <name> <name>'", lineno)
            u, v = fields[1], fields[2]
            for name in (u, v):
                if not _NAME_RE.match(name):
                    raise GraphFormatError(f"bad vertex name {name!r}", lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at {u!r}", lineno)
            key = frozenset((u, v))
            if key in seen_edges:
                raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
            seen_edges.add(key)
            vertices.add(u)
            vertices.add(v)
            edges.append((u, v))
        else:
            raise GraphFormatError(f"unknown directive {fields[0]!r}", lineno)
    return Graph.from_edges(vertices, edges)


def format_edge_list(g: Graph) -> str:
    """Render a graph back into the edge-list format."""
    lines = []
    covered = set()
    for u, v in g.edges():
        covered.add(u)
        covered.add(v)
    for v in g.vertices:
        if v not in covered:
            lines.append(f"v {v}")
    for u, v in g.edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def _mcs_order(g: Graph) -> list[str]:
    # Maximum-cardinality search; ties broken by lexicographically least name.
    # The elimination order is the reverse of the visit order.
    weight = {v: 0 for v in g.vertices}
    unvisited = set(g.vertices)
    visit: list[str] = []
    while unvisited:
        best = min(unvisited, key=lambda v: (-weight[v], v))
        unvisited.discard(best)
        visit.append(best)
        for w in g.adjacency[best]:
            if w in unvisited:
                weight[w] += 1
    visit.reverse()
    return visit


def is_valid_peo(g: Graph, order: Iterable[str]) -> bool:
    seq = list(order)
    if sorted(seq) != list(g.vertices):
        return False
    position = {v: i for i, v in enumerate(seq)}
    for i, v in enumerate(seq):
        later = [w for w in g.adjacency[v] if position[w] > i]
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                if not g.has_edge(later[a], later[b]):
                    return False
    return True


def _find_hole(g: Graph) -> tuple[str, ...] | None:
    # Scan every pair of nonadjacent common neighbours x, y of a vertex v and
    # look for an x-y path avoiding N[v] \ {x, y}; any such path closes an
    # induced cycle of length >= 4 through v.  If the graph has a hole, taking
    # v on the hole with its two hole-neighbours succeeds, so the scan is
    # exhaustive.
    adj = _sorted_adjacency(g.vertices, g.edges())
    for v in g.vertices:
        nbrs = adj[v]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                x, y = nbrs[i], nbrs[j]
                if g.has_edge(x, y):
                    continue
                allowed = (set(g.vertices) - g.adjacency[v] - {v}) | {x, y}
                path = _path(adj, x, y, allowed)
                if path is not None:
                    cycle = (v, *path)
                    assert _is_induced_cycle(g, cycle)
                    return cycle
    return None


def _is_induced_cycle(g: Graph, cycle: tuple[str, ...]) -> bool:
    k = len(cycle)
    if k < 4:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(cycle[i], cycle[j])
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
    return True


def check_chordal(g: Graph) -> PerfectEliminationOrder | tuple[str, ...]:
    """Test chordality.

    Returns a :class:`PerfectEliminationOrder` when the graph is chordal,
    otherwise an induced cycle of length >= 4 as a witness tuple.
    """
    order = _mcs_order(g)
    if is_valid_peo(g, order):
        return PerfectEliminationOrder(tuple(order))
    hole = _find_hole(g)
    assert hole is not None, "MCS order invalid but no hole found"
    return hole


def maximal_cliques(g: Graph, peo: PerfectEliminationOrder) -> tuple[frozenset[str], ...]:
    """All maximal cliques, sorted by their sorted member tuples.

    The position of a clique in the returned tuple is its canonical id used
    throughout the rest of the library.
    """
    if not is_valid_peo(g, peo.order):
        raise ValueError("order is not a perfect elimination order for this graph")
    position = {v: i for i, v in enumerate(peo.order)}
    candidates = set()
    for i, v in enumerate(peo.order):
        later = frozenset(w for w in g.adjacency[v] if position[w] > i)
        candidates.add(later | {v})
    cliques = [
        c for c in candidates
        if not any(c < other for other in candidates)
    ]
    cliques.sort(key=lambda c: tuple(sorted(c)))
    return tuple(cliques)


@dataclass(frozen=True)
class CliqueGraph:
    """Maximal cliques with an edge between every intersecting pair.

    ``weights`` is keyed by ``(i, j)`` with ``i < j`` and maps to the
    intersection size, which is >= 1 on every edge.
    """

    cliques: tuple[frozenset[str], ...]
    weights: Mapping[tuple[int, int], int]

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.weights)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Sorted neighbour ids of every clique, built once per graph."""
        return _sorted_adjacency(range(len(self.cliques)), self.weights)

    def incident(self, i: int) -> list[tuple[int, int]]:
        """Edges at clique ``i``, in sorted order."""
        return [(j, i) if j < i else (i, j) for j in self.adjacency[i]]


def clique_graph(cliques: Iterable[frozenset[str]]) -> CliqueGraph:
    """Build the intersection graph of the given maximal cliques."""
    nodes = tuple(cliques)
    weights = {}
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            common = nodes[i] & nodes[j]
            if common:
                weights[(i, j)] = len(common)
    return CliqueGraph(nodes, weights)


def chordal_cliques(g: Graph) -> tuple[frozenset[str], ...]:
    """Convenience: check chordality and return the canonical clique list.

    Raises ``ValueError`` with the witness cycle when the graph is not
    chordal.
    """
    result = check_chordal(g)
    if not isinstance(result, PerfectEliminationOrder):
        raise ValueError(f"graph is not chordal; induced cycle: {list(result)}")
    return maximal_cliques(g, result)
