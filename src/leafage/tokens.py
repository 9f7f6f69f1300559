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
value is built, in O(sum |C|) per value.  The backtracking search for the
realizing tree itself runs once per minimization, on the final assignment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .cliquetrees import CliqueTree, Forest, _count_vertex_leaves, path_containment_violation
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

    def vertex_leaf_count(self, u: str) -> int:
        return self.vertex_leaf_counts()[u]


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

    Returns None at once when :func:`is_realizable` says no.  Otherwise an
    edge between cliques i and j consumes one token equal to their
    intersection from each side, and a depth-first search over the candidate
    pairs in canonical order, taking each pair before skipping it, returns
    the first full pairing that is a clique tree, so the result is
    deterministic.  The search keeps its own stack, so it does not recurse,
    and may backtrack exponentially often; minimization calls it once, on
    its final assignment.
    """
    if not is_realizable(ta, blocks):
        return None
    cliques = ta.cliques
    k = len(cliques)
    if k == 1:
        return CliqueTree(cliques, frozenset())

    remaining = {i: Counter(ta.tokens[i]) for i in range(k)}
    candidates: list[tuple[int, int, Token]] = []
    for i in range(k):
        for j in range(i + 1, k):
            common = cliques[i] & cliques[j]
            if common and remaining[i][common] and remaining[j][common]:
                candidates.append((i, j, common))
    # Per-clique availability of candidate edges by token value.
    avail: dict[int, Counter] = {i: Counter() for i in range(k)}
    for i, j, s in candidates:
        avail[i][s] += 1
        avail[j][s] += 1

    chosen: list[tuple[int, int]] = []
    forest = Forest(cliques)

    # Frames: (ENTER, idx) decides candidate idx; (UNTAKE, idx) undoes
    # taking it and then tries skipping it; (UNSKIP, idx) undoes the skip.
    # Both undo frames are popped only once every branch below them has
    # failed, so links are undone last in, first out.
    ENTER, UNTAKE, UNSKIP = range(3)
    stack = [(ENTER, 0)]
    while stack:
        action, idx = stack.pop()
        if action == ENTER:
            if len(chosen) == k - 1:
                tree = CliqueTree(cliques, frozenset(chosen))
                if path_containment_violation(tree) is None:
                    return tree
                continue
            if len(chosen) + len(candidates) - idx < k - 1:
                continue
        i, j, s = candidates[idx]
        if action == ENTER:
            if remaining[i][s] and remaining[j][s] and forest.union(i, j):
                remaining[i][s] -= 1
                remaining[j][s] -= 1
                avail[i][s] -= 1
                avail[j][s] -= 1
                chosen.append((i, j))
                stack.append((UNTAKE, idx))
                stack.append((ENTER, idx + 1))
                continue
        elif action == UNTAKE:
            chosen.pop()
            forest.undo()
            remaining[i][s] += 1
            remaining[j][s] += 1
            avail[i][s] += 1
            avail[j][s] += 1
        else:
            avail[i][s] += 1
            avail[j][s] += 1
            continue
        # Leave the edge out; both endpoints must still be satisfiable.
        avail[i][s] -= 1
        avail[j][s] -= 1
        if avail[i][s] >= remaining[i][s] and avail[j][s] >= remaining[j][s]:
            stack.append((UNSKIP, idx))
            stack.append((ENTER, idx + 1))
        else:
            avail[i][s] += 1
            avail[j][s] += 1
    return None


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
    call, and the realizing tree is searched for once, on the final
    assignment; without any iteration ``t`` itself is returned.
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
    tree = find_realizing_tree(ta, blocks)
    if tree is None:
        raise CertificateError("no clique tree realizes the final assignment")
    return tree, trace
