"""Simple undirected graphs, chordality recognition, and the clique family.

Vertices are opaque strings; the canonical vertex order is lexicographic and
is used for all tie-breaking downstream, so every operation here is
deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Container, Iterable, Iterator, Mapping, Sequence

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


class CertificateError(RuntimeError):
    """A computed result broke an invariant it is certified by."""


class InputError(ValueError):
    """Input the library cannot take; carries the offending 1-based line number, if any."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphFormatError(InputError):
    """Malformed edge-list input."""


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

    def edges(self) -> list[tuple[str, str]]:
        return [
            (u, v)
            for u in self.vertices
            for v in sorted(self.adjacency[u])
            if u < v
        ]

    def has_edge(self, u: str, v: str) -> bool:
        return v in self.adjacency[u]

    def is_connected(self) -> bool:
        return self._search[2] <= 1

    @cached_property
    def _search(self) -> tuple[tuple[str, ...], list[set[int]], int]:
        # Searched once per graph: connectivity, the chordality check and
        # the clique list all read this one pass.
        return _mcs(self)

    @cached_property
    def _cliques(self) -> Cliques | None:
        # Decided and listed once per graph: every layer reads this family.
        return _peo_cliques(*self._search[:2])


def _sorted_adjacency(nodes: Iterable, edges: Iterable[tuple]) -> dict[Any, tuple]:
    """Node -> sorted tuple of its neighbours, for ``nodes`` and edge ends."""
    adj: dict[Any, list] = {x: [] for x in nodes}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return {x: tuple(sorted(ws)) for x, ws in adj.items()}


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


def _blocks(pairs: list[tuple[int, int]]) -> Iterator[list[int]]:
    """The blocks (biconnected components) of the multigraph ``pairs`` on nodes 0, 1, ...

    Each block is the sorted list of its edges' indices in ``pairs``;
    parallel edges fall in one block, and a bridge is a block of its own.
    Tarjan's low-point search, with its own stack.
    """
    size = 1 + max(map(max, pairs), default=-1)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for e, (x, y) in enumerate(pairs):
        adj[x].append((y, e))
        adj[y].append((x, e))
    disc = [0] * size  # 1 + the order a node is reached in; 0 while it is not
    low = [0] * size
    reached = 0
    for root in range(size):
        if disc[root] or not adj[root]:
            continue
        reached += 1
        disc[root] = low[root] = reached
        edges: list[int] = []
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            x, via, out = stack[-1]
            for y, e in out:
                if not disc[y]:
                    reached += 1
                    disc[y] = low[y] = reached
                    edges.append(e)
                    stack.append((y, e, iter(adj[y])))
                    break
                if e != via and disc[y] < disc[x]:
                    edges.append(e)
                    if disc[y] < low[x]:
                        low[x] = disc[y]
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[x] < low[parent]:
                        low[parent] = low[x]
                    if low[x] >= disc[parent]:
                        block: list[int] = []
                        while not block or block[-1] != via:
                            block.append(edges.pop())
                        yield sorted(block)


class Forest:
    """Union-find on the ids 0..n-1 that can undo its links.

    Links by size and never compresses paths, so ``find`` costs O(log n)
    and ``undo`` takes back the most recent link.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        # The absorbed root of every link, the latest last.
        self._links: list[int] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Link the components of ``a`` and ``b``; False if they are one."""
        # Both roots are walked to here, not through ``find``: the
        # branching search links and undoes once per edge it tries.
        parent = self.parent
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            return False
        size = self.size
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        self._links.append(b)
        return True

    def undo(self) -> None:
        """Take back the most recent link."""
        rb = self._links.pop()
        ra = self.parent[rb]
        self.parent[rb] = rb
        self.size[ra] -= self.size[rb]


@dataclass(frozen=True)
class PerfectEliminationOrder:
    """Vertex order where each vertex's later neighbours form a clique."""

    order: tuple[str, ...]


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document.

    Format: ``#`` starts a comment, ``v <name>`` declares an isolated vertex,
    ``e <name> <name>`` declares an edge.  Duplicate edges and self-loops are
    rejected with the line number.  One pass builds the adjacency sets: a
    name is checked when first seen, and an edge is a duplicate when its
    ends are already adjacent.
    """
    adj: dict[str, set[str]] = {}

    def neighbours(name: str, lineno: int) -> set[str]:
        nbrs = adj.get(name)
        if nbrs is None:
            if not _NAME_RE.match(name):
                raise GraphFormatError(f"bad vertex name {name!r}", lineno)
            nbrs = adj[name] = set()
        return nbrs

    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "e":
            if len(fields) != 3:
                raise GraphFormatError("expected 'e <name> <name>'", lineno)
            u, v = fields[1], fields[2]
            nu, nv = neighbours(u, lineno), neighbours(v, lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at {u!r}", lineno)
            if v in nu:
                raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
            nu.add(v)
            nv.add(u)
        elif fields[0] == "v":
            if len(fields) != 2:
                raise GraphFormatError("expected 'v <name>'", lineno)
            neighbours(fields[1], lineno)
        else:
            raise GraphFormatError(f"unknown directive {fields[0]!r}", lineno)
    ordered = tuple(sorted(adj))
    return Graph(ordered, {v: frozenset(adj[v]) for v in ordered})


def format_edge_list(g: Graph) -> str:
    """Render a graph back into the edge-list format: isolated vertices, then edges."""
    lines = [f"v {v}" for v in g.vertices if not g.adjacency[v]]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _mcs(g: Graph) -> tuple[tuple[str, ...], list[set[int]], int]:
    # Maximum-cardinality search; ties broken by lexicographically least name.
    # Returns the elimination order (the reverse of the visit order), each
    # vertex's later neighbours (those visited before it) as positions in
    # it, and the component count: a vertex visited with none starts one.
    # Vertices are their ranks in ``g.vertices``, and the heap holds
    # rank - weight * n, which orders by (-weight, rank).  Weights only
    # grow, so a vertex's current entry pops before its stale ones, which
    # are skipped once it is visited.
    names = g.vertices
    n = k = len(names)
    rank = {v: i for i, v in enumerate(names)}
    adj = [[rank[w] for w in g.adjacency[v]] for v in names]
    weight = [0] * n
    position = [-1] * n  # -1 while unvisited
    order: list[str] = [""] * n
    later: list[set[int]] = [set()] * n
    components = 0
    heap = list(range(n))  # sorted, hence a heap
    while heap:
        v = heapq.heappop(heap) % n
        if position[v] >= 0:
            continue
        k -= 1
        position[v] = k
        order[k] = names[v]
        seen = later[k] = set()
        for w in adj[v]:
            if position[w] >= 0:
                seen.add(position[w])
            else:
                weight[w] += 1
                heapq.heappush(heap, w - weight[w] * n)
        components += not seen
    return tuple(order), later, components


def _peo_cliques(order: Sequence[str], later: list[set[int]]) -> Cliques | None:
    """The maximal cliques, canonically sorted, or None if ``order`` is no PEO.

    ``later[i]`` holds the positions of the later neighbours of
    ``order[i]``, as :func:`_mcs` gives them.  One pass (Rose, Tarjan &
    Lueker 1976).  With p the earliest later neighbour of v, the order is
    perfect iff later(v) - {p} <= later(p) for every v.  Then {v} | later(v)
    is a maximal clique unless some u with p(u) = v has exactly one more
    later neighbour than v.
    """
    absorbed = set()
    for lv in later:
        if lv:
            p = min(lv)
            if len(lv - later[p]) > 1:
                return None
            if len(lv) == len(later[p]) + 1:
                absorbed.add(p)
    cliques = [
        frozenset([order[i], *map(order.__getitem__, lv)]) for i, lv in enumerate(later) if i not in absorbed
    ]
    cliques.sort(key=lambda c: tuple(sorted(c)))
    return Cliques(cliques)


def _find_hole(g: Graph) -> tuple[str, ...]:
    # Scan every pair of nonadjacent common neighbours x, y of a vertex v and
    # look for an x-y path avoiding N[v] \ {x, y}; any such path closes an
    # induced cycle of length >= 4 through v.  If the graph has a hole, taking
    # v on the hole with its two hole-neighbours succeeds, so the scan is
    # exhaustive.  Only called once an MCS order failed, so finding no hole
    # is an error.
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
                    if not _is_induced_cycle(g, cycle):
                        raise CertificateError(f"witness {list(cycle)} is not an induced cycle")
                    return cycle
    raise CertificateError("MCS order is not perfect but the graph has no hole")


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
    otherwise an induced cycle of length >= 4 as a witness tuple.  Reads
    the graph's one search pass.
    """
    if g._cliques is not None:
        return PerfectEliminationOrder(g._search[0])
    return _find_hole(g)


def maximal_cliques(g: Graph, peo: PerfectEliminationOrder) -> Cliques:
    """All maximal cliques, sorted by their sorted member tuples.

    The position of a clique in the returned tuple is its canonical id used
    throughout the rest of the library.
    """
    order, cliques = peo.order, None
    if sorted(order) == list(g.vertices):
        position = {v: i for i, v in enumerate(order)}
        later = [{j for j in map(position.__getitem__, g.adjacency[v]) if j > i} for v, i in position.items()]
        cliques = _peo_cliques(order, later)
    if cliques is None:
        raise ValueError("order is not a perfect elimination order for this graph")
    return cliques


class Cliques(tuple):
    """A clique list, with the facts of it that every layer reads.

    A tuple of frozensets, a clique's id being its position, that compares
    and hashes as the plain tuple.  ``Cliques(c)`` is ``c`` itself when
    ``c`` is one already, so the clique graph, the clique trees and the
    token assignments of one list share one family, and each fact below is
    built once, on first use, as plain data with no reference back to the
    family: ``holders``, ``weights`` (the clique graph's edges),
    ``kruskal_order``, ``class_nodes``, ``blocks``, ``forced``,
    ``leaf_floor`` and the S-blocks.
    Two certify a clique tree: its weight under ``weights`` is the greatest
    a spanning tree has, sum(|C|) - |V|, and its leaves are at least
    ``leaf_floor``.
    """

    def __new__(cls, cliques: Iterable[frozenset[str]] = ()) -> "Cliques":
        if type(cliques) is cls:
            return cliques
        family = super().__new__(cls, cliques)
        family._s_blocks = {}
        family._holding = {}
        return family

    @cached_property
    def holders(self) -> dict[str, list[int]]:
        """Each vertex -> the increasing ids of the cliques that hold it."""
        holders: dict[str, list[int]] = {}
        for i, c in enumerate(self):
            for u in c:
                holders.setdefault(u, []).append(i)
        return holders

    @cached_property
    def weights(self) -> dict[tuple[int, int], int]:
        """Each intersecting pair ``(i, j)``, ``i < j``, in sorted order -> ``|C_i & C_j|``."""
        shared: dict[tuple[int, int], int] = {}
        for ids in self.holders.values():
            if len(ids) > 1:
                for e in itertools.combinations(ids, 2):
                    shared[e] = shared.get(e, 0) + 1
        return dict(sorted(shared.items()))

    @cached_property
    def kruskal_order(self) -> list[tuple[int, int]]:
        """The intersecting pairs heaviest first, ties by pair: Kruskal's one canonical order."""
        weights = self.weights
        return sorted(weights, key=lambda e: (-weights[e], e))

    @cached_property
    def class_nodes(self) -> tuple[dict[tuple[int, int], tuple[int, int]], int]:
        """Each pair some clique tree holds -> its two class nodes, and the number of class nodes.

        The clique trees are the maximum-weight spanning trees of the
        clique graph, weighted by ``weights`` (Gavril 1987, Blair & Peyton
        1993).  The nodes of weight class w are the components of the
        strictly heavier pairs; a pair of weight w with both ends in one
        node lies in no clique tree and is left out.  A clique tree is one
        spanning forest of each class's nodes, chosen independently, so a
        set of pairs lies in some clique tree iff each is in the map and
        they form no cycle on the class nodes.  One pass over
        ``kruskal_order``, a class at a time, so the map runs from the
        heaviest class down, each class in pair order.
        """
        heavier = Forest(len(self))
        nodes: dict[tuple[int, int], int] = {}
        ends: dict[tuple[int, int], tuple[int, int]] = {}
        for w, group in itertools.groupby(self.kruskal_order, key=self.weights.__getitem__):
            kept = [(a, b) for a, b in group if heavier.find(a) != heavier.find(b)]
            for e in kept:
                ends[e] = tuple(nodes.setdefault((w, heavier.find(x)), len(nodes)) for x in e)
            for a, b in kept:
                heavier.union(a, b)
        return ends, len(nodes)

    @cached_property
    def blocks(self) -> list[list[tuple[int, int]]]:
        """The blocks of each class's multigraph on its class nodes.

        Each block is the sorted list of its pairs, keys of ``class_nodes``.
        A clique tree is one spanning forest of each class's nodes, and a
        spanning forest is one spanning tree per block, so the blocks split
        the choices into independent ones; a block of one pair, a bridge,
        leaves no choice.  No two classes share a node, so one block pass
        over all the pairs finds every class's blocks.
        """
        ends, _ = self.class_nodes
        kept = list(ends)
        return [[kept[e] for e in block] for block in _blocks(list(ends.values()))]

    @cached_property
    def forced(self) -> frozenset[tuple[int, int]]:
        """The pairs every clique tree holds: the bridges of their classes, blocks of one pair."""
        return frozenset(block[0] for block in self.blocks if len(block) == 1)

    @cached_property
    def leaf_floor(self) -> int:
        """A lower bound on the leaves of every clique tree of two or more cliques.

        The largest of 2; the cliques that meet one other clique only, each
        a leaf of every tree; and 2 + sum(max(0, d(x) - 2)), d(x) counting
        the private pairs at x: two cliques that share a vertex no other
        clique holds, which every clique tree holds.  A clique with no
        vertex in three or more cliques meets just its private partners,
        so both counts come from ``holders`` in O(sum |C|).

        The private pairs are some of ``forced``, and the bound holds for
        any pairs every clique tree holds, so ``forced`` would give a
        floor at least as high.  It is not read here because
        ``minimize_leafage`` asks for the floor of most families it sees,
        the builder's marked families among them, which need no class
        nodes: reading ``forced`` would make each of them build
        ``class_nodes`` and run the block pass.
        """
        forced = {tuple(ids) for ids in self.holders.values() if len(ids) == 2}
        crowded = {i for ids in self.holders.values() if len(ids) > 2 for i in ids}
        degree = Counter(i for e in forced for i in e)
        return max(
            2,
            sum(1 for i, d in degree.items() if d == 1 and i not in crowded),
            2 + sum(max(0, d - 2) for d in degree.values()),
        )

    def s_blocks(self, s: frozenset[str]) -> tuple[dict[int, int], int]:
        """The S-block id of every clique containing ``s``, and the number of S-blocks.

        Two cliques containing S share an S-block when their parts outside
        S lie in one component of G - S (Habib & Stacho, ESA 2009; see
        :mod:`leafage.tokens`).  The cliques containing S are read off those
        of its vertex in fewest.
        """
        entry = self._s_blocks.get(s)
        if entry is None:
            # Each clique is linked to the first one holding each of its
            # vertices outside s; the blocks are numbered in ``ids`` order.
            fewest = min(map(self.holders.__getitem__, s), key=len)
            ids = [i for i in fewest if s <= self[i]]
            forest = Forest(len(ids))
            first: dict[str, int] = {}
            for x, i in enumerate(ids):
                for v in self[i] - s:
                    forest.union(x, first.setdefault(v, x))
            roots: dict[int, int] = {}
            block = {i: roots.setdefault(forest.find(x), len(roots)) for x, i in enumerate(ids)}
            entry = self._s_blocks[s] = (block, len(roots))
        return entry

    def holding(self, tokens: Iterable[frozenset[str]]) -> list[int]:
        """Increasing ids of the cliques that contain one of ``tokens``."""
        values = frozenset(tokens)
        ids = self._holding.get(values)
        if ids is None:
            ids = self._holding[values] = sorted(set().union(*(self.s_blocks(s)[0] for s in values)))
        return ids


def clique_graph(cliques: Iterable[frozenset[str]]) -> Cliques:
    """The clique graph: the family itself, its edges the intersecting pairs of ``weights``.

    The weights are built before it returns.
    """
    family = Cliques(cliques)
    family.weights
    return family


def chordal_cliques(g: Graph) -> Cliques:
    """The canonical clique list, decided and built from the graph's one search pass.

    The pass runs once per graph; later calls return the same family.
    Raises ``ValueError`` with a witness cycle when the graph is not chordal.
    """
    if g._cliques is None:
        raise ValueError(f"graph is not chordal; induced cycle: {list(_find_hole(g))}")
    return g._cliques


def _connected_cliques(g: Graph) -> Cliques:
    """The canonical clique list of ``g``; :class:`InputError` unless it is nonempty and connected."""
    if not g.vertices:
        raise InputError("graph is empty")
    if not g.is_connected():
        raise InputError("graph is disconnected")
    return chordal_cliques(g)
