"""Brute-force ground truth: clique-tree enumeration and corpus generation."""

from __future__ import annotations

import itertools
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


def _forests(steps: list, size: int, forest: Forest, chosen: list, lanes: int) -> Iterator[int]:
    """Every spanning forest of some blocks once, in canonical order, by take-before-skip.

    ``steps`` holds the blocks' pairs in canonical order, each as (pair,
    its two class nodes, its block's node pairs, the index of the next one,
    its lane mask), and a spanning forest of the blocks has ``size`` pairs.
    The search takes a pair before it skips it.  It takes a pair iff the
    pair's nodes are still apart in ``forest``, and skips it iff they still
    meet through the taken pairs and the later pairs of its block.  A
    simple path between two nodes of one block stays in that block, so
    nothing outside the blocks is linked, and every search node reaches a
    forest: the forests come in lexicographic order of their sorted pairs.
    Each taken pair is appended to ``chosen`` and its mask added to
    ``lanes``; at each forest the search yields ``lanes``, with ``chosen``
    ending in the forest's pairs.  It keeps its own stack, so long inputs
    cannot hit the recursion limit, and leaves ``forest`` and ``chosen`` as
    it found them.
    """
    stop = len(chosen) + size

    def meet(x: int, y: int, pairs: list[tuple[int, int]], start: int) -> bool:
        # Whether x and y meet through the taken pairs and pairs[start:]:
        # link those in until they do, then take the links back.  Indexed,
        # not sliced: a slice would copy the block's later pairs each time.
        linked = 0
        met = False
        for i in range(start, len(pairs)):
            if forest.union(*pairs[i]):
                linked += 1
                met = forest.find(x) == forest.find(y)
                if met:
                    break
        for _ in range(linked):
            forest.undo()
        return met

    # Frames: (idx, False) decides pair idx; (idx, True) undoes taking it
    # and then skips it if a forest without it remains.
    stack = [(0, False)]
    while stack:
        idx, taken = stack.pop()
        if taken:
            forest.undo()
            chosen.pop()
            _, x, y, pairs, start, mask = steps[idx]
            lanes -= mask
            if meet(x, y, pairs, start):
                stack.append((idx + 1, False))
            continue
        if len(chosen) == stop:
            yield lanes
            continue
        pair, x, y, _, _, mask = steps[idx]
        if forest.union(x, y):
            chosen.append(pair)
            lanes += mask
            stack.append((idx, True))
        stack.append((idx + 1, False))


def _product(listed: list, chosen: list, lanes: int, level: int = 0) -> Iterator[int]:
    """Every choice of one forest from each of ``listed[level:]``, the first list outermost.

    Each list holds a group's forests as (pairs, lane sum).  Yields
    ``lanes`` plus the chosen forests' sums, with ``chosen`` ending in
    their pairs, and leaves ``chosen`` as it found it.
    """
    mark = len(chosen)
    for pairs, add in listed[level]:
        chosen[mark:] = pairs
        if level + 1 < len(listed):
            yield from _product(listed, chosen, lanes + add, level + 1)
        else:
            yield lanes + add
    del chosen[mark:]


def _walk(g: Graph, limit: int | None) -> Iterator[tuple[int, int, list[tuple[int, int]]]]:
    """Every clique tree of ``g`` once, in canonical order, with its leaf counts.

    A clique tree is one spanning forest of each weight class's nodes,
    chosen independently (``Cliques.class_nodes``), and a spanning forest
    is one spanning tree of each block of the class's multigraph
    (``Cliques.blocks``).  So the trees number the product of the blocks'
    counts (:func:`_block_trees`), known before the walk: past the cap, the
    walk raises :class:`OracleLimitError` before the first tree.  At the
    end it must equal the trees walked, or the walk raises
    :class:`CertificateError`.  ``g`` must be nonempty and connected, or
    the walk raises :class:`InputError`.

    A bridge, a block of one pair, lies in every clique tree
    (``Cliques.forced``), so the walk decides only the pairs of the other
    blocks.  In canonical order, those pairs split into groups, the
    maximal runs that no block straddles.  A tree's sorted decided pairs
    are then one spanning forest of each group, group after group, and the
    trees in lexicographic order of their sorted pairs are the product of
    each group's forests in that order, the first group outermost.
    :func:`_forests` searches the first group's forests as the walk goes,
    and lists each later group's once, before the first tree.  Each group
    has a block with a cycle, so two or more forests, and the listed
    forests number at most (tree count) / (forests of the first group).

    The leaf counts are kept as the walk goes.  A slot is a vertex in one
    of its cliques; its degree is the number of chosen pairs at that clique
    whose intersection holds the vertex, and the vertex's subtree leaves
    are its slots of degree 1.  The host tree counts as one more vertex,
    held by every clique.  The degree of every slot some decided pair
    touches is a w-bit lane of one integer, w = k.bit_length() + 1, whose
    top bit is a guard that stays 0, a degree being at most k - 1.  Each
    pair's mask has a 1 in the lowest
    bit of the lanes it touches, so a take adds the mask and its undo
    subtracts it, and the lanes of degree 1 are the guard bits set in
    ``high & ~(((lanes ^ ones) | high) - ones)``.  The slots only bridges
    touch keep one degree throughout, so their leaves are counted once,
    before the walk.  Yields (host leaves, max vertex leaf count, chosen
    pairs) per tree, the pairs indexing the clique list of ``g``; the list
    is the walk's own and changes as the walk goes on.
    """
    cap = tree_limit() if limit is None else limit
    cliques = _connected_cliques(g)
    ends, node_count = cliques.class_nodes
    cyclic = sorted(block for block in cliques.blocks if len(block) > 1)
    nodes = [[ends[e] for e in block] for block in cyclic]
    total = _spanning_forests(nodes, cap)
    if total > cap:
        raise OracleLimitError(f"the graph has more than {cap} clique trees")
    w = len(cliques).bit_length() + 1

    def slots(a: int, b: int) -> tuple[tuple[str | None, int], ...]:
        # The slots a take of (a, b) shifts; the host is the vertex None.
        return ((None, a), (None, b), *[(u, x) for u in cliques[a] & cliques[b] for x in (a, b)])

    # A lane per slot some decided pair touches.  The groups, each as its
    # steps and the number of pairs in a spanning forest of its blocks; a
    # block starting past every earlier block's last pair starts a group.
    lane: dict[tuple[str | None, int], int] = {}
    groups: list[tuple[list, int]] = []
    last = (-1, -1)
    for block, pairs in zip(cyclic, nodes):
        if block[0] > last:
            groups.append(([], 0))
        steps, size = groups[-1]
        for pos, e in enumerate(block, 1):
            mask = 0
            for s in slots(*e):
                mask |= 1 << w * lane.setdefault(s, len(lane))
            steps.append((e, *ends[e], pairs, pos, mask))
        groups[-1] = steps, size + len(set(itertools.chain(*pairs))) - 1
        last = max(last, block[-1])
    for steps, _ in groups:
        steps.sort()
    # The bridges are chosen throughout: they start the lanes, and the
    # other slots they touch keep their degree.
    start = 0
    degree: dict[tuple[str | None, int], int] = {}
    chosen = sorted(cliques.forced)
    for e in chosen:
        for s in slots(*e):
            if s in lane:
                start += 1 << w * lane[s]
            else:
                degree[s] = degree.get(s, 0) + 1
    # Per vertex: its leaves at slots only bridges touch, and the guard
    # bits of its lanes.
    fixed: dict[str | None, int] = {}
    for (u, _), d in degree.items():
        if d == 1:
            fixed[u] = fixed.get(u, 0) + 1
    guards: dict[str | None, int] = {}
    for (u, _), i in lane.items():
        guards[u] = guards.get(u, 0) | 1 << w * i + w - 1
    host, host_guards = fixed.pop(None, 0), guards.pop(None, 0)
    varying = [(fixed.pop(u, 0), m) for u, m in guards.items()]
    top = max(fixed.values(), default=0)
    ones = ((1 << w * len(lane)) - 1) // ((1 << w) - 1)
    high = ones << w - 1
    (first, first_size), *later = groups or [([], 0)]
    forest = Forest(node_count)
    listed = []
    for steps, size in later:
        edges: list[tuple[int, int]] = []
        listed.append([(edges[:], add) for add in _forests(steps, size, forest, edges, 0)])
    count = 0
    for part in _forests(first, first_size, forest, chosen, start):
        for lanes in _product(listed, chosen, part) if listed else (part,):
            one = high & ~(((lanes ^ ones) | high) - ones)
            vl = top
            for base, m in varying:
                c = base + (one & m).bit_count()
                if c > vl:
                    vl = c
            count += 1
            yield host + (one & host_guards).bit_count(), vl, chosen
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
