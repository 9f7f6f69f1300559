"""Token assignments and augmenting-path leafage minimization.

A token assignment gives every maximal clique a multiset of vertex subsets.
Clique trees induce the assignment mapping each clique to its intersections
with its tree neighbours; moving tokens along shortest augmenting paths
lowers the host leaf count one at a time without ever increasing any
vertex's subtree leaf count.

Realizability is decided separator by separator (Habib & Stacho, ESA 2009).
For a token value S, the cliques containing S fall into *S-blocks*: two of
them share a block when their parts outside S lie in one component of
G - S.  In every clique tree the edges labelled S join different S-blocks
and form a spanning tree on them (Galinier, Habib & Paul 1995), and cliques
of different S-blocks meet in exactly S.  So an assignment is realizable
iff its tokens total 2(k - 1) and, for every token value S, there are
m_S >= 2 S-blocks, 2(m_S - 1) S-tokens, and at least one S-token in every
S-block; a tree on the blocks with those degrees always exists (Prüfer).
Deciding costs one pass over the tokens once the block table of each token
value is built, in O(sum |C|) per value.  The realizing tree itself is
built once per minimization, on the final assignment, in one pass over the
clique pairs that keeps a forest on the S-blocks of each token value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .cliquetrees import (
    CliqueTree,
    Forest,
    _count_vertex_leaves,
    _is_tree,
    path_containment_violation,
)
from .graphs import CertificateError, _reach

Token = frozenset[str]


def _token_key(s: Token) -> tuple[str, ...]:
    return tuple(sorted(s))


@dataclass(frozen=True)
class TokenAssignment:
    """Per-clique multisets of vertex subsets.

    ``tokens[i]`` is stored as a tuple sorted by token key, so tuple equality
    is multiset equality.
    """

    cliques: tuple[frozenset[str], ...]
    tokens: Mapping[int, tuple[Token, ...]]

    @classmethod
    def create(
        cls,
        cliques: tuple[frozenset[str], ...],
        tokens: Mapping[int, tuple[Token, ...]],
    ) -> "TokenAssignment":
        normal = {
            i: tuple(sorted(tokens.get(i, ()), key=_token_key))
            for i in range(len(cliques))
        }
        for i, toks in normal.items():
            for s in toks:
                if not s:
                    raise ValueError(f"empty token at clique {i}")
                if not s <= cliques[i]:
                    raise ValueError(
                        f"token {sorted(s)} is not a subset of clique {sorted(cliques[i])}"
                    )
        return cls(cliques, normal)

    def size(self, i: int) -> int:
        return len(self.tokens[i])

    def total(self) -> int:
        return sum(len(t) for t in self.tokens.values())

    def leaf_count(self) -> int:
        """Host leaves of any realizing tree: cliques holding one token."""
        if len(self.cliques) == 1:
            return 0
        return sum(1 for toks in self.tokens.values() if len(toks) == 1)

    def vertex_leaf_counts(self) -> Counter[str]:
        """Subtree leaf count of every vertex, in one pass over the tokens."""
        return _count_vertex_leaves(self.tokens.values())


@dataclass(frozen=True)
class TokenMove:
    """One token carried from one clique to another."""

    from_clique: int
    to_clique: int
    token: Token


@dataclass(frozen=True)
class AugmentingPath:
    moves: tuple[TokenMove, ...]


def tokens_from_tree(t: CliqueTree) -> TokenAssignment:
    """Assignment mapping each clique to its intersections with tree neighbours."""
    tokens = {
        i: tuple(t.cliques[i] & t.cliques[j] for j in t.neighbors(i))
        for i in range(len(t.cliques))
    }
    return TokenAssignment.create(t.cliques, tokens)


def apply_move(ta: TokenAssignment, mv: TokenMove) -> TokenAssignment:
    """Remove one instance of the token at the source, add one at the target."""
    src = list(ta.tokens[mv.from_clique])
    try:
        src.remove(mv.token)
    except ValueError:
        raise ValueError(
            f"token {sorted(mv.token)} absent at clique {mv.from_clique}"
        ) from None
    tokens = dict(ta.tokens)
    tokens[mv.from_clique] = tuple(src)
    if mv.to_clique != mv.from_clique:
        tokens[mv.to_clique] = ta.tokens[mv.to_clique] + (mv.token,)
    else:
        tokens[mv.from_clique] = tuple(src) + (mv.token,)
    return TokenAssignment.create(ta.cliques, tokens)


def apply_path(ta: TokenAssignment, path: AugmentingPath) -> TokenAssignment:
    for mv in path.moves:
        ta = apply_move(ta, mv)
    return ta


class SeparatorBlocks:
    """S-blocks of one clique family, built per token value on first use.

    ``of(s)`` returns the block id of every clique containing ``s`` and the
    number of blocks.  The table depends only on the cliques, so one
    minimization builds it once and passes it to every decision it makes.
    """

    def __init__(self, cliques: tuple[frozenset[str], ...]):
        self.cliques = cliques
        self._table: dict[Token, tuple[dict[int, int], int]] = {}

    def of(self, s: Token) -> tuple[dict[int, int], int]:
        entry = self._table.get(s)
        if entry is None:
            entry = self._table[s] = self._blocks(s)
        return entry

    def _blocks(self, s: Token) -> tuple[dict[int, int], int]:
        # Cliques (int ids) and their vertices outside s (str names) form a
        # bipartite graph whose components are the s-blocks.
        adj: dict[int | str, list] = {}
        for i, c in enumerate(self.cliques):
            if s <= c:
                adj[i] = c - s
                for v in adj[i]:
                    adj.setdefault(v, []).append(i)
        block: dict[int, int] = {}
        m = 0
        for i in range(len(self.cliques)):
            if i in adj and i not in block:
                for x in _reach(adj, i, adj.keys()):
                    if isinstance(x, int):
                        block[x] = m
                m += 1
        return block, m


def is_realizable(ta: TokenAssignment, blocks: SeparatorBlocks | None = None) -> bool:
    """Whether some clique tree induces ``ta``, decided per separator block.

    True iff the tokens total 2(k - 1) and every token value S has m_S >= 2
    S-blocks, exactly 2(m_S - 1) tokens, and a token in each S-block (see the
    module docstring).  ``blocks`` must belong to ``ta.cliques``; without it
    a fresh table is built.  Cost O(number of tokens) plus building the
    table entry of each token value not seen before.
    """
    if ta.total() != 2 * (len(ta.cliques) - 1):
        return False
    if blocks is None:
        blocks = SeparatorBlocks(ta.cliques)
    holders: dict[Token, list[int]] = {}
    for i, toks in ta.tokens.items():
        for s in toks:
            holders.setdefault(s, []).append(i)
    for s, ids in holders.items():
        block, m = blocks.of(s)
        # len(ids) >= 1, so len(ids) == 2(m - 1) already forces m >= 2.
        if len(ids) != 2 * (m - 1) or len({block[i] for i in ids}) != m:
            return False
    return True


def find_realizing_tree(
    ta: TokenAssignment, blocks: SeparatorBlocks | None = None
) -> CliqueTree | None:
    """Clique tree whose neighbour intersections equal ``ta``, or None.

    Returns None at once when :func:`is_realizable` says no.  Otherwise the
    realizing trees are the independent choices, one per token value S, of
    a spanning tree on the S-blocks whose clique degrees are the S-token
    counts (see the module docstring).  One pass over the clique pairs in
    canonical order takes (i, j), with S = C_i & C_j, iff some realizing
    tree holds it and every pair taken before: i and j both still hold an
    S-token, their S-blocks lie in different components of the S-edges
    taken, and the merged component keeps an unused S-token unless it spans
    every S-block.  So the result is the first tree a search taking each
    pair before skipping it would reach, with no backtracking.  Raises
    :class:`CertificateError` if the pairs taken are not a clique tree.
    """
    if blocks is None:
        blocks = SeparatorBlocks(ta.cliques)
    if not is_realizable(ta, blocks):
        return None
    cliques = ta.cliques
    held = [Counter(ta.tokens[i]) for i in range(len(cliques))]
    # Per token value: its block table, a forest on its S-blocks and, at
    # each component's root, the S-tokens its cliques still hold.
    groups: dict[Token, tuple[dict[int, int], Forest, list[int]]] = {}
    for s in {s for toks in ta.tokens.values() for s in toks}:
        block, m = blocks.of(s)
        unused = [0] * m
        for i, b in block.items():
            unused[b] += held[i][s]
        groups[s] = (block, Forest(m), unused)
    chosen: list[tuple[int, int]] = []
    for i in range(len(cliques)):
        for j in range(i + 1, len(cliques)):
            s = cliques[i] & cliques[j]
            if not (s and held[i][s] and held[j][s]):
                continue
            block, forest, unused = groups[s]
            a, b = forest.find(block[i]), forest.find(block[j])
            left = unused[a] + unused[b] - 2
            if a == b or (left == 0 and forest.size[a] + forest.size[b] < len(unused)):
                continue
            forest.union(a, b)
            unused[forest.find(a)] = left
            held[i][s] -= 1
            held[j][s] -= 1
            chosen.append((i, j))
    tree = CliqueTree(cliques, frozenset(chosen))
    if not _is_tree(tree) or path_containment_violation(tree) is not None:
        raise CertificateError("the pairs taken for a realizable assignment are no clique tree")
    return tree


def shortest_augmenting_path(
    ta: TokenAssignment, blocks: SeparatorBlocks | None = None
) -> AugmentingPath | None:
    """Minimum-length augmenting path of ``ta``, canonical tie-break.

    A path starts at a clique holding >= 3 tokens, passes through cliques
    holding exactly 2, ends at a clique holding exactly 1, visits distinct
    cliques, and every single move must alone produce a realizable
    assignment (all conditions are evaluated against ``ta`` itself).  Among
    shortest paths the lexicographically least clique-id sequence wins, and
    each move carries the least feasible token.  ``blocks`` is passed to
    :func:`is_realizable`.
    """
    k = len(ta.cliques)
    if blocks is None:
        blocks = SeparatorBlocks(ta.cliques)
    sizes = {i: ta.size(i) for i in range(k)}
    starts = sorted(i for i in range(k) if sizes[i] >= 3)
    if not starts:
        return None

    move_cache: dict[tuple[int, int], Token | None] = {}

    def feasible_token(src: int, dst: int) -> Token | None:
        key = (src, dst)
        if key not in move_cache:
            result = None
            for s in sorted(set(ta.tokens[src]), key=_token_key):
                if not s <= ta.cliques[dst]:
                    continue
                if is_realizable(apply_move(ta, TokenMove(src, dst, s)), blocks):
                    result = s
                    break
            move_cache[key] = result
        return move_cache[key]

    def extend(start: int, length: int) -> list[int] | None:
        # Depth-first over clique ids in increasing order; ``cursor[d]`` is
        # the next id to try after ``path[d]``.
        path = [start]
        cursor = [0]
        while path:
            if len(path) == length + 1:
                return path
            last = path[-1]
            want = 1 if len(path) == length else 2
            nxt = next(
                (
                    c
                    for c in range(cursor[-1], k)
                    if c not in path
                    and sizes[c] == want
                    and feasible_token(last, c) is not None
                ),
                None,
            )
            if nxt is None:
                path.pop()
                cursor.pop()
            else:
                cursor[-1] = nxt + 1
                path.append(nxt)
                cursor.append(0)
        return None

    for length in range(1, k):
        for start in starts:
            found = extend(start, length)
            if found is not None:
                moves = tuple(
                    TokenMove(a, b, feasible_token(a, b))
                    for a, b in zip(found, found[1:])
                )
                return AugmentingPath(moves)
    return None


@dataclass(frozen=True)
class IterationRecord:
    """Trace entry for one augmenting-path application."""

    path: AugmentingPath
    leaves_before: int
    leaves_after: int


def minimize_leafage(t: CliqueTree) -> CliqueTree:
    tree, _ = minimize_leafage_with_trace(t)
    return tree


def minimize_leafage_with_trace(t: CliqueTree) -> tuple[CliqueTree, list[IterationRecord]]:
    """Iterate shortest augmenting paths until none exists.

    The returned tree has the minimum possible host leaf count, and for every
    vertex its subtree leaf count never exceeds the input tree's.  Each
    iteration must keep the assignment realizable, lower the host leaf count
    by exactly one and raise no vertex's leaf count; a step that does not
    raises :class:`CertificateError`.  The S-block table is built once per
    call, and the realizing tree is built once, on the final assignment;
    without any iteration ``t`` itself is returned.
    """
    blocks = SeparatorBlocks(t.cliques)
    ta = tokens_from_tree(t)
    trace: list[IterationRecord] = []
    vertex_leaves: Counter[str] = Counter()  # of ``ta``, once an iteration ran
    while True:
        path = shortest_augmenting_path(ta, blocks)
        if path is None:
            break
        before = ta.leaf_count()
        before_vertex = vertex_leaves if trace else ta.vertex_leaf_counts()
        ta = apply_path(ta, path)
        if not is_realizable(ta, blocks):
            raise CertificateError("assignment after augmenting path is unrealizable")
        after = ta.leaf_count()
        if after != before - 1:
            raise CertificateError(
                f"host leaf count went from {before} to {after}, not down by one"
            )
        vertex_leaves = ta.vertex_leaf_counts()
        risen = sorted(u for u, n in vertex_leaves.items() if n > before_vertex[u])
        if risen:
            raise CertificateError(f"subtree leaf count rose for vertices {risen}")
        trace.append(IterationRecord(path, before, after))
    if not trace:
        return t, trace
    # The last iteration found ``ta`` realizable, so this returns a tree.
    return find_realizing_tree(ta, blocks), trace
