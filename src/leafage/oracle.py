"""Brute-force ground truth: clique-tree enumeration and corpus generation."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Iterator

from .cliquetrees import CliqueTree
from .graphs import (
    Forest,
    Graph,
    InputError,
    _connected_cliques,
    _path,
    _sorted_adjacency,
    chordal_cliques,
)
from .tokens import CertificateError

DEFAULT_TREE_LIMIT = 10**6


class OracleLimitError(RuntimeError):
    """Raised when an enumeration would exceed the configured tree cap."""


def tree_limit() -> int:
    """The tree cap: ``LEAFAGE_ORACLE_LIMIT``, an integer >= 1 (else :class:`InputError`), or the default."""
    raw = os.environ.get("LEAFAGE_ORACLE_LIMIT")
    if raw is None:
        return DEFAULT_TREE_LIMIT
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise InputError(f"LEAFAGE_ORACLE_LIMIT must be an integer >= 1, not {raw!r}")


def _block_trees(block: list[tuple[int, int]], cap: int) -> int:
    """Spanning trees of the connected multigraph ``block``, or a lower bound past ``cap``.

    Kirchhoff's matrix-tree theorem: the count is the determinant of the
    Laplacian without one node's row and column, taken here with Bareiss'
    fraction-free elimination, one row at a time so every division is
    exact.  The matrix is symmetric, so a row's entries right of the
    diagonal are read from the later rows' entries left of it, and only the
    lower triangle is kept.  The leading minor of rows 0..i is the tree
    count of the multigraph with every later node and the removed one
    merged.  The nodes go in reverse breadth-first order from the removed
    one, so the merged nodes are connected, the merge only contracts edges,
    and every leading minor is at most the count: once one passes ``cap``
    the elimination stops.
    """
    adj = _sorted_adjacency((), block)
    order = [block[0][0]]
    seen = set(order)
    for x in order:
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                order.append(y)
    order = order[:0:-1]
    index = {y: i for i, y in enumerate(order)}
    rows: list[list[int]] = []
    minors = [1]
    for i, y in enumerate(order):
        row = [0] * (i + 1)
        row[i] = len(adj[y])
        for z in adj[y]:
            j = index.get(z, i)
            if j < i:
                row[j] -= 1
        for j in range(i):
            pivot, prev, f = minors[j + 1], minors[j], row[j]
            for c in range(j + 1, i):
                row[c] = (row[c] * pivot - f * rows[c][j]) // prev
            row[i] = (row[i] * pivot - f * f) // prev
        rows.append(row)
        minors.append(row[i])
        if row[i] > cap:
            break
    return minors[-1]


def _spanning_forests(blocks: list[list[tuple[int, int]]], cap: int) -> int:
    """Spanning forests of a multigraph, one tree per component, from its blocks.

    A spanning forest is one spanning tree per block, so the count is the
    product of the blocks' counts; the bridges, which count 1, may be left
    out.  Past ``cap`` the product may stop early at a lower bound above
    ``cap``.
    """
    count = 1
    for block in blocks:
        count *= _block_trees(block, cap)
        if count > cap:
            break
    return count


def _walk(g: Graph, limit: int | None) -> Iterator[tuple[int, int, list[tuple[int, int]]]]:
    """Every clique tree of ``g`` once, in canonical order, with its leaf counts.

    A clique tree is one spanning forest of each weight class's nodes,
    chosen independently (``Cliques.class_nodes``), so the trees number the
    product of the classes' spanning-forest counts, taken block by block
    (``Cliques.blocks``, :func:`_block_trees`).  That count is known before the walk: past the
    cap, the walk raises :class:`OracleLimitError` before the first tree.
    At the end it must equal the trees walked, or the walk raises
    :class:`CertificateError`.

    A bridge of a class's multigraph lies in every spanning forest
    (``Cliques.forced``), so every bridge is linked into one
    :class:`Forest` on the nodes once, before the walk, and never undone.
    A simple path between two nodes of
    one block stays in that block, so no bridge changes whether a block
    edge's nodes are apart or meet.  The walk then goes over the block
    edges in canonical order, taking each edge before skipping it.  It
    takes an edge iff the edge's nodes are still apart, and skips it iff
    they still meet through the chosen edges and the later edges of its
    block.  Every search node thus reaches a tree, and the trees come in
    lexicographic order of their sorted edges.  The walk keeps its own
    stack, so long inputs cannot hit the recursion limit.

    Consecutive trees share most of their edges, so the leaf counts are
    kept by each take's delta and taken back on its undo.  A slot is a
    vertex in one of its cliques; its degree is the number of chosen edges
    at that clique whose intersection holds the vertex, and the vertex's
    subtree leaves are its slots of degree 1.  The host tree counts as one
    more vertex, held by every clique.  Yields (host leaves, max vertex
    leaf count, chosen edges) per tree, the edges indexing the clique list
    of ``g``; the edge list is the walk's own and changes as the walk goes on.
    """
    cap = tree_limit() if limit is None else limit
    cliques = chordal_cliques(g)
    k = len(cliques)
    ends, node_count = cliques.class_nodes
    # Per pair in a block with a cycle: the block's node pairs and the
    # index of the next one.
    cyclic: list[list[tuple[int, int]]] = []
    later: dict[tuple[int, int], tuple[list, int]] = {}
    for block in cliques.blocks:
        if len(block) > 1:
            cyclic.append([ends[e] for e in block])
            for pos, e in enumerate(block, 1):
                later[e] = (cyclic[-1], pos)
    total = _spanning_forests(cyclic, cap)
    if total > cap:
        raise OracleLimitError(f"the graph has more than {cap} clique trees")
    # One leaf counter per vertex, then the host's at n.  The host's slot at
    # clique i is slot i; the vertices' slots follow.
    n = len(g.vertices)
    counter = {u: i for i, u in enumerate(g.vertices)}
    slot: dict[tuple[str, int], int] = {}
    for i, c in enumerate(cliques):
        for u in c:
            slot[u, i] = k + len(slot)
    # Per pair some clique tree holds, in canonical order: the pair, its two
    # class nodes, its block's node pairs with the index of the next one,
    # or None for a bridge, and the (counter, slot) pairs a take shifts.
    steps: list[tuple[tuple[int, int], int, int, list | None, int, list]] = []
    for (a, b), (x, y) in ends.items():
        touch = [(n, a), (n, b)]
        for u in cliques[a] & cliques[b]:
            touch += [(counter[u], slot[u, a]), (counter[u], slot[u, b])]
        steps.append(((a, b), x, y, *later.get((a, b), (None, 0)), touch))
    steps.sort()
    forest = Forest(node_count)
    chosen: list[tuple[int, int]] = []
    degree = [0] * (k + len(slot))
    leaves = [0] * (n + 1)
    count = 0

    def shift(touch: list[tuple[int, int]], d: int) -> None:
        for c, s in touch:
            old = degree[s]
            degree[s] = old + d
            leaves[c] += (old + d == 1) - (old == 1)

    for edge, x, y, pairs, _, touch in steps:
        if pairs is None:
            forest.union(x, y)
            chosen.append(edge)
            shift(touch, 1)
    steps = [step for step in steps if step[3] is not None]

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
            _, x, y, pairs, start, touch = steps[idx]
            shift(touch, -1)
            if meet(x, y, pairs, start):
                stack.append((idx + 1, False))
            continue
        if len(chosen) == k - 1:
            count += 1
            yield leaves[n], max(leaves[:n]), chosen
            continue
        edge, x, y, _, _, touch = steps[idx]
        if forest.union(x, y):
            chosen.append(edge)
            shift(touch, 1)
            stack.append((idx, True))
        stack.append((idx + 1, False))
    if count != total:
        raise CertificateError(
            f"the walk found {count} clique trees but the matrix-tree count is {total}"
        )


@dataclass(frozen=True)
class OracleResult:
    """Exact optima with witnesses: (min host leaves, min vl, joint)."""

    leafage: int
    vertex_leafage: int
    witness_trees: tuple[CliqueTree, CliqueTree, CliqueTree]
    tree_count: int


def oracle_optima(g: Graph, limit: int | None = None) -> OracleResult:
    """Exact leafage and vertex leafage over the full clique-tree enumeration.

    Reads each tree's leaf counts off the walk, and builds a
    :class:`CliqueTree` only for a tree that becomes a new best witness.
    """
    min_leaves = min_vl = float("inf")
    joint = (min_leaves, min_vl)
    count = 0
    cliques = _connected_cliques(g)
    for leaves, vl, chosen in _walk(g, limit):
        count += 1
        if leaves < min_leaves or vl < min_vl or (leaves, vl) < joint:
            tree = CliqueTree(cliques, frozenset(chosen))
            if leaves < min_leaves:
                min_leaves, leaf_tree = leaves, tree
            if vl < min_vl:
                min_vl, vl_tree = vl, tree
            if (leaves, vl) < joint:
                joint, joint_tree = (leaves, vl), tree
    if not count:
        raise CertificateError("the enumeration produced no clique tree")
    # A tree optimal for both criteria simultaneously must exist.
    if joint != (min_leaves, min_vl):
        raise CertificateError("no enumerated tree achieves both minima simultaneously")
    return OracleResult(
        leafage=min_leaves,
        vertex_leafage=min_vl,
        witness_trees=(leaf_tree, vl_tree, joint_tree),
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
        attach = [(node, rng.randrange(node)) for node in range(1, hosts)]
        host_adj = _sorted_adjacency(range(hosts), attach)
        subtrees: dict[str, set[int]] = {}
        for name in names:
            nodes = {rng.randrange(hosts)}
            frontier = set().union(*(host_adj[x] for x in nodes)) - nodes
            while frontier and rng.random() < density:
                nodes.add(rng.choice(sorted(frontier)))
                frontier = set().union(*(host_adj[x] for x in nodes)) - nodes
            subtrees[name] = nodes
        # Link each vertex to the first one seen at each of its host nodes:
        # the forest's components are the graph's, so n - 1 links connect it.
        forest = Forest(n)
        seen: dict[int, int] = {}
        links = sum(
            forest.union(i, seen.setdefault(x, i)) for i, name in enumerate(names) for x in subtrees[name]
        )
        if links == n - 1:
            return intersection_graph(subtrees)
    # The components, in order of their first vertex.
    components: dict[int, list[str]] = {}
    for i, v in enumerate(names):
        components.setdefault(forest.find(i), []).append(v)
    first, *rest = components.values()
    target = min(set().union(*(subtrees[v] for v in first)))
    for c in rest:
        u = min(c)
        subtrees[u].update(_path(host_adj, min(subtrees[u]), target, host_adj))
    return intersection_graph(subtrees)
