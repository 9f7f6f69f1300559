"""Brute-force ground truth: clique-tree enumeration and corpus generation."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Iterator

from .cliquetrees import CliqueTree, Forest
from .graphs import Graph, _path, _reach, chordal_cliques, clique_graph
from .tokens import CertificateError

DEFAULT_TREE_LIMIT = 10**6


class OracleLimitError(RuntimeError):
    """Raised when an enumeration would exceed the configured tree cap."""


def tree_limit() -> int:
    return int(os.environ.get("LEAFAGE_ORACLE_LIMIT", DEFAULT_TREE_LIMIT))


def enumerate_clique_trees(g: Graph, limit: int | None = None) -> Iterator[CliqueTree]:
    """All clique trees of ``g``, each exactly once, in canonical order.

    The clique trees are the maximum-weight spanning trees of the clique
    graph, weighted by |C_a & C_b| (Gavril 1987, Blair & Peyton 1993).  Take
    the weight classes from heaviest to lightest.  The nodes of class w are
    the components of the strictly heavier edges; an edge of weight w with
    both ends in one node lies in no clique tree.  A clique tree is one
    spanning forest of each class's nodes, chosen independently.  So the
    search walks the remaining edges in canonical order over one
    :class:`Forest` on the nodes, taking each edge before skipping it.  It
    takes an edge iff the edge's nodes are still apart, and skips it iff
    they still meet through the chosen edges and the later edges of its
    class; a class without a cycle is all bridges, so its edges are never
    skipped.  Every search node thus reaches a tree.  The search keeps its
    own stack, so long inputs cannot hit the recursion limit.  Raises
    :class:`OracleLimitError` past the cap.
    """
    if not g.vertices:
        raise ValueError("graph is empty")
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    cap = tree_limit() if limit is None else limit
    cliques = chordal_cliques(g)
    k = len(cliques)
    classes: dict[int, list[tuple[int, int]]] = {}
    for edge, w in clique_graph(cliques).weights.items():
        classes.setdefault(w, []).append(edge)
    heavier = Forest((frozenset(),) * k)
    nodes: dict[tuple[int, int], int] = {}

    def node(w: int, a: int) -> int:
        return nodes.setdefault((w, heavier.find(a)), len(nodes))

    # Per remaining edge, in canonical order: the edge, its two class nodes,
    # and its class's node pairs with the index of the next one, or None
    # when the class has no cycle.
    steps: list[tuple[tuple[int, int], int, int, list | None, int]] = []
    for w in sorted(classes, reverse=True):
        kept = [(a, b) for a, b in classes[w] if heavier.find(a) != heavier.find(b)]
        pairs = [(node(w, a), node(w, b)) for a, b in kept]
        cyclic = sum(heavier.union(a, b) for a, b in kept) < len(kept)
        for pos, (edge, (x, y)) in enumerate(zip(kept, pairs)):
            steps.append((edge, x, y, pairs if cyclic else None, pos + 1))
    steps.sort()
    forest = Forest((frozenset(),) * len(nodes))
    chosen: list[tuple[int, int]] = []
    count = 0

    def meet(x: int, y: int, pairs: list[tuple[int, int]], start: int) -> bool:
        # Whether x and y meet through the chosen edges and pairs[start:]:
        # link those in until they do, then take the links back.
        linked = 0
        met = False
        for p, q in pairs[start:]:
            if forest.union(p, q):
                linked += 1
                met = forest.find(x) == forest.find(y)
                if met:
                    break
        for _ in range(linked):
            forest.undo()
        return met

    # Frames: (idx, False) decides edge idx; (idx, True) undoes taking it
    # and then skips it if a tree without it remains.
    stack = [(0, False)]
    while stack:
        idx, taken = stack.pop()
        if taken:
            forest.undo()
            chosen.pop()
            _, x, y, pairs, start = steps[idx]
            if pairs is not None and meet(x, y, pairs, start):
                stack.append((idx + 1, False))
            continue
        if len(chosen) == k - 1:
            count += 1
            if count > cap:
                raise OracleLimitError(
                    f"clique-tree enumeration exceeded {cap} trees"
                )
            yield CliqueTree(cliques, frozenset(chosen))
            continue
        edge, x, y, _, _ = steps[idx]
        if forest.union(x, y):
            chosen.append(edge)
            stack.append((idx, True))
        stack.append((idx + 1, False))


@dataclass(frozen=True)
class OracleResult:
    """Exact optima with witnesses: (min host leaves, min vl, joint)."""

    leafage: int
    vertex_leafage: int
    witness_trees: tuple[CliqueTree, CliqueTree, CliqueTree]
    tree_count: int


def oracle_optima(g: Graph, limit: int | None = None) -> OracleResult:
    """Exact leafage and vertex leafage over the full clique-tree enumeration."""
    vertices = list(g.vertices)
    best_leaf: tuple[int, CliqueTree] | None = None
    best_vl: tuple[int, CliqueTree] | None = None
    best_joint: tuple[tuple[int, int], CliqueTree] | None = None
    count = 0
    for tree in enumerate_clique_trees(g, limit):
        count += 1
        leaves = len(tree.leaves())
        vl = tree.max_vertex_leaf_count(vertices)
        if best_leaf is None or leaves < best_leaf[0]:
            best_leaf = (leaves, tree)
        if best_vl is None or vl < best_vl[0]:
            best_vl = (vl, tree)
        if best_joint is None or (leaves, vl) < best_joint[0]:
            best_joint = ((leaves, vl), tree)
    if best_joint is None:  # all three are set by the first tree
        raise CertificateError("the enumeration produced no clique tree")
    # A tree optimal for both criteria simultaneously must exist.
    if best_joint[0] != (best_leaf[0], best_vl[0]):
        raise CertificateError("no enumerated tree achieves both minima simultaneously")
    return OracleResult(
        leafage=best_leaf[0],
        vertex_leafage=best_vl[0],
        witness_trees=(best_leaf[1], best_vl[1], best_joint[1]),
        tree_count=count,
    )


def random_chordal(n: int, density: float = 0.5, seed: int = 0) -> Graph:
    """Random connected chordal graph on ``n`` vertices, deterministic per seed.

    Built by sampling a random host tree and one random connected subtree per
    vertex and taking the intersection graph, so chordality holds by
    construction.  A disconnected sample is resampled, up to 1,000 times; the
    1,000th is connected instead: the subtree of each later component's
    least vertex grows along the host path to the first component, so every
    subtree stays connected and the graph chordal.  Never raises for n >= 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    names = [f"v{i:02d}" for i in range(n)]

    def intersection_graph(subtrees: dict[str, set[int]]) -> Graph:
        edges = [
            (a, b)
            for i, a in enumerate(names)
            for b in names[i + 1:]
            if subtrees[a] & subtrees[b]
        ]
        return Graph.from_edges(names, edges)

    for _ in range(1000):
        hosts = rng.randint(max(1, (3 * n) // 4), n)
        host_adj: dict[int, set[int]] = {0: set()}
        for node in range(1, hosts):
            attach = rng.randrange(node)
            host_adj.setdefault(node, set()).add(attach)
            host_adj[attach].add(node)
        subtrees: dict[str, set[int]] = {}
        for name in names:
            nodes = {rng.randrange(hosts)}
            frontier = set().union(*(host_adj[x] for x in nodes)) - nodes
            while frontier and rng.random() < density:
                nodes.add(rng.choice(sorted(frontier)))
                frontier = set().union(*(host_adj[x] for x in nodes)) - nodes
            subtrees[name] = nodes
        g = intersection_graph(subtrees)
        if g.is_connected():
            return g
    components: list[set[str]] = []
    for v in names:
        if not any(v in c for c in components):
            components.append(_reach(g.adjacency, v, g.adjacency.keys()))
    target = min(set().union(*(subtrees[v] for v in components[0])))
    for c in components[1:]:
        u = min(c)
        subtrees[u].update(_path(host_adj, min(subtrees[u]), target, host_adj))
    return intersection_graph(subtrees)
