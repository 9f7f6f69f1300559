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
value S is built, in O(sum |C|) over the cliques C containing S.  The table
depends only on the cliques, so the clique family
(:meth:`~leafage.graphs.Cliques.s_blocks`) builds each entry once, and
every decision, move and realizing tree on that clique list reads it.

One class, :class:`_TokenState`, holds an assignment and these counts; it
makes every move and every realizability decision.  A move changes two
cliques and one token value, so the state keeps its counts by each move's
delta: the S-tokens of each S-block, the values whose count or coverage is
wrong, the clique sizes, the host leaves and, per clique, how many tokens
hold each vertex.  A move is then decided in O(1): the assignment it leads
to is realizable iff the total is right, no other value is wrong and S
still has a token in every S-block.  The realizing tree is built once per
minimization, on the final assignment, by a fresh state: the one pass over
the tokens that decides realizability also lists each value's holders, and
the pair pass then runs per token value S over the pairs of S's holders,
keeping a forest on the S-blocks.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .cliquetrees import CliqueTree, check_clique_tree
from .graphs import CertificateError, Cliques, Forest

Token = frozenset[str]


def _token_key(s: Token) -> tuple[str, ...]:
    return tuple(sorted(s))


def _normal(
    cliques: tuple[frozenset[str], ...], i: int, toks: Sequence[Token]
) -> tuple[Token, ...]:
    """Clique ``i``'s tokens sorted by token key, each checked to be a nonempty subset."""
    for s in toks:
        if not s:
            raise ValueError(f"empty token at clique {i}")
        if not s <= cliques[i]:
            raise ValueError(
                f"token {sorted(s)} is not a subset of clique {sorted(cliques[i])}"
            )
    return tuple(sorted(toks, key=_token_key))


@dataclass(frozen=True)
class TokenAssignment:
    """Per-clique multisets of vertex subsets.

    ``tokens[i]`` is stored as a tuple sorted by token key, so tuple equality
    is multiset equality.  ``cliques`` is made a :class:`Cliques` family if
    it is a plain tuple.
    """

    cliques: Cliques
    tokens: Mapping[int, tuple[Token, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cliques", Cliques(self.cliques))

    @classmethod
    def create(
        cls,
        cliques: tuple[frozenset[str], ...],
        tokens: Mapping[int, tuple[Token, ...]],
    ) -> "TokenAssignment":
        """Assignment of ``tokens``; raises ``ValueError`` on a key that is no clique id."""
        for i in tokens:
            if i not in range(len(cliques)):
                raise ValueError(f"tokens keyed {i!r}, not a clique id 0..{len(cliques) - 1}")
        normal = {i: _normal(cliques, i, tokens.get(i, ())) for i in range(len(cliques))}
        return cls(cliques, normal)

    def leaf_count(self) -> int:
        """Host leaves of any realizing tree: cliques holding one token."""
        if len(self.cliques) == 1:
            return 0
        return sum(1 for toks in self.tokens.values() if len(toks) == 1)


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


def _fits(per_block: list[int]) -> bool:
    """2(m - 1) tokens of one value with one in each of its m blocks (so m >= 2)."""
    return sum(per_block) == 2 * (len(per_block) - 1) and min(per_block) > 0


def find_realizing_tree(ta: TokenAssignment) -> CliqueTree | None:
    """Clique tree whose neighbour intersections equal ``ta``, or None.

    One fresh :class:`_TokenState` of ``ta`` decides realizability, and
    None is returned at once if it says no.  Otherwise the realizing trees
    are the independent choices, one per token value S, of a spanning tree
    on the S-blocks whose clique degrees are the S-token counts (see the
    module docstring).  So each S is decided on its own, in one pass over
    the pairs (i, j) of S's holders in increasing order, read off the
    state's coverage: it takes (i, j) iff some realizing tree holds it and
    every pair taken before: i and j both still hold an S-token, their
    S-blocks lie in different components of the S-edges taken, and the
    merged component keeps an unused S-token unless it spans every S-block.
    Cliques of different S-blocks meet in exactly S, and the pairs of one
    S-block are never taken, so these are the pairs whose intersection is
    S.  The result is the first tree a search taking each clique pair, in
    canonical order, before skipping it would reach, with no backtracking.
    Raises :class:`CertificateError` if the pairs taken are not a clique
    tree.
    """
    state = _TokenState(ta)
    if not state.realizable():
        return None
    chosen: list[tuple[int, int]] = []
    for block, per_block, ids in state._coverage[0].values():
        m = len(per_block)
        held = Counter(ids)
        ids = list(held)
        # A forest on the S-blocks and, at each component's root, the
        # S-tokens its cliques still hold.
        forest = Forest(m)
        unused = per_block.copy()
        for x, i in enumerate(ids):
            for j in ids[x + 1:]:
                if not held[i]:
                    break
                if not held[j]:
                    continue
                a, b = forest.find(block[i]), forest.find(block[j])
                left = unused[a] + unused[b] - 2
                if a == b or (left == 0 and forest.size[a] + forest.size[b] < m):
                    continue
                forest.union(a, b)
                unused[forest.find(a)] = left
                held[i] -= 1
                held[j] -= 1
                chosen.append((i, j))
    tree = CliqueTree(ta.cliques, frozenset(chosen))
    try:
        check_clique_tree(tree)
    except ValueError as exc:
        raise CertificateError(
            f"the pairs taken for a realizable assignment are no clique tree: {exc}"
        ) from exc
    return tree


_Cover = tuple[dict[int, int], list[int], list[int]]


class _TokenState:
    """One assignment and the counts its token moves change, kept by each move's delta.

    ``sizes`` (tokens per clique), ``starts`` (cliques holding >= 3 tokens,
    increasing) and ``leaves`` (host leaves) are counted when the state is
    made.  The block coverage of the token values and the per-clique vertex
    counts behind ``vertex_leaves`` need a block table per value, so they
    are built on first use: an assignment with no path start needs neither.
    """

    def __init__(self, ta: TokenAssignment):
        # The state's own copy of the token map, which ``apply`` changes in place.
        self.ta = TokenAssignment(ta.cliques, dict(ta.tokens))
        self.sizes = [len(ta.tokens[i]) for i in range(len(ta.cliques))]
        self.starts = [i for i, n in enumerate(self.sizes) if n >= 3]
        self.leaves = ta.leaf_count()
        self.total_ok = sum(self.sizes) == 2 * (len(self.sizes) - 1)

    @cached_property
    def _coverage(self) -> tuple[dict[Token, _Cover], set[Token]]:
        # Per token value S: its block table, the S-tokens in each S-block
        # and the cliques holding S, once per token, in increasing order.
        # Then the values whose count or coverage is wrong.  Moves keep the
        # first two parts but not the holders.
        cover: dict[Token, _Cover] = {}
        for i in range(len(self.sizes)):
            for s in self.ta.tokens[i]:
                if s not in cover:
                    block, m = self.ta.cliques.s_blocks(s)
                    cover[s] = (block, [0] * m, [])
                block, per_block, ids = cover[s]
                per_block[block[i]] += 1
                ids.append(i)
        return cover, {s for s, (_, per_block, _) in cover.items() if not _fits(per_block)}

    @cached_property
    def _held(self) -> list[Counter[str]]:
        # Per clique: how many of its tokens hold each vertex.
        return [Counter(u for s in self.ta.tokens[i] for u in s) for i in range(len(self.sizes))]

    @cached_property
    def vertex_leaves(self) -> Counter[str]:
        """Subtree leaf count of every vertex: the cliques where one token holds it."""
        return Counter(u for held in self._held for u, n in held.items() if n == 1)

    def realizable(self) -> bool:
        """Whether the kept assignment is realizable, from the kept coverage."""
        return self.total_ok and not self._coverage[1]

    def can_move(self, src: int, dst: int, s: Token) -> bool:
        """Whether moving one ``s`` from ``src`` to ``dst`` leaves a realizable assignment.

        ``src`` must hold ``s`` and ``dst`` contain it.  The move changes
        only S's coverage, so the result is realizable iff the total is
        right, no other value is wrong and S fits after the move; O(1)
        unless S itself is wrong.
        """
        cover, bad = self._coverage
        if not self.total_ok or (bad and (len(bad) > 1 or s not in bad)):
            return False
        block, per_block, _ = cover[s]
        a, b = block[src], block[dst]
        if s not in bad:
            return a == b or per_block[a] >= 2
        after = per_block.copy()
        after[a] -= 1
        after[b] += 1
        return _fits(after)

    def apply(self, path: AugmentingPath) -> dict[str, int]:
        """Carry out ``path`` move by move; return each touched vertex's leaf count before it.

        Each move takes one ``s`` out of its source, raising ``ValueError``
        if the source holds none, and sorts it into its target, which must
        contain it.  Every move is made on the touched cliques' staged
        tokens, and they are written into the kept map only once all moves
        are made, before any count changes; so a path that raises leaves
        the state as it was, at a cost of O(|moves|) and not O(k).
        """
        # Read before ``ta`` changes: each is built from it on first use.
        cover, bad = self._coverage
        vertex_leaves = self.vertex_leaves
        tokens = self.ta.tokens
        staged: dict[int, tuple[Token, ...]] = {}
        for mv in path.moves:
            i, j, s = mv.from_clique, mv.to_clique, mv.token
            src = list(staged.get(i, tokens[i]))
            try:
                src.remove(s)
            except ValueError:
                raise ValueError(f"token {sorted(s)} absent at clique {i}") from None
            staged[i] = tuple(src)
            staged[j] = _normal(self.ta.cliques, j, staged.get(j, tokens[j]) + (s,))
        tokens.update(staged)
        before: dict[str, int] = {}
        for mv in path.moves:
            s = mv.token
            for i, d in ((mv.from_clique, -1), (mv.to_clique, 1)):
                n = self.sizes[i]
                self.sizes[i] = n + d
                self.leaves += (n + d == 1) - (n == 1)
                if d > 0 and n == 2:
                    insort(self.starts, i)
                elif d < 0 and n == 3:
                    self.starts.remove(i)
                held = self._held[i]
                for u in s:
                    before.setdefault(u, vertex_leaves[u])
                    h = held[u]
                    held[u] = h + d
                    vertex_leaves[u] += (h + d == 1) - (h == 1)
            block, per_block, _ = cover[s]
            a = block[mv.from_clique]
            per_block[a] -= 1
            per_block[block[mv.to_clique]] += 1
            if s in bad or not per_block[a]:
                if _fits(per_block):
                    bad.discard(s)
                else:
                    bad.add(s)
        return before


def shortest_augmenting_path(
    ta: TokenAssignment, state: _TokenState | None = None
) -> AugmentingPath | None:
    """Minimum-length augmenting path of ``ta``, canonical tie-break.

    A path starts at a clique holding >= 3 tokens, passes through cliques
    holding exactly 2, ends at a clique holding exactly 1, visits distinct
    cliques, and every single move must alone produce a realizable
    assignment (all conditions are evaluated against ``ta`` itself).  Among
    shortest paths the lexicographically least clique-id sequence wins, and
    each move carries the least feasible token.  ``state`` holds the kept
    counts of ``ta`` (a minimization passes its own); without it one is
    made from ``ta``.

    One breadth-first search finds it.  Every move is judged against
    ``ta`` alone, so the feasible moves form a fixed digraph and a shortest
    path visits distinct cliques.  Level 0 is the starts, increasing; each
    level's sources are gone over in order, each listing its targets (the
    cliques containing one of its tokens) in increasing order.  So each
    level is in lexicographic order of its cliques' least shortest paths,
    and the first clique holding one token that a level reaches ends the
    least shortest path.  Otherwise each clique holding two tokens that the
    level reaches, and no earlier one did, joins the next level from the
    first source with a feasible move to it.  Each clique is reached at
    most once and lists its targets at most twice.
    """
    if state is None:
        state = _TokenState(ta)
    cliques, sizes = ta.cliques, state.sizes

    def move(src: int, dst: int) -> TokenMove | None:
        # ``tokens[src]`` is sorted, so this is the least feasible value.
        return next(
            (
                TokenMove(src, dst, s)
                for s in dict.fromkeys(ta.tokens[src])
                if s <= cliques[dst] and state.can_move(src, dst, s)
            ),
            None,
        )

    # The move that first reached each clique; None at the starts.
    reached: dict[int, TokenMove | None] = dict.fromkeys(state.starts)
    level = state.starts
    while level:
        for src in level:
            for dst in cliques.holding(ta.tokens[src]):
                if sizes[dst] == 1 and (mv := move(src, dst)) is not None:
                    moves = [mv]
                    while (mv := reached[mv.from_clique]) is not None:
                        moves.append(mv)
                    return AugmentingPath(tuple(reversed(moves)))
        sources, level = level, []
        for src in sources:
            for dst in cliques.holding(ta.tokens[src]):
                if sizes[dst] == 2 and dst not in reached and (mv := move(src, dst)) is not None:
                    reached[dst] = mv
                    level.append(dst)
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
    raises :class:`CertificateError`.  These checks read counts kept by each
    move's delta, so an iteration costs O(|moves| * |S|) beyond its search.
    At the end the realizing tree, built once, re-decides realizability,
    and its host and vertex leaf counts, counted from its edges, must equal
    the kept ones; a mismatch raises :class:`CertificateError`.
    Without any iteration ``t`` itself is returned, at once when no node
    has degree >= 3 (no clique holds three tokens, so no path starts) or
    ``t`` has at most its cliques' ``leaf_floor`` leaves (no clique tree
    has fewer, and a path would lead to one).
    """
    if all(len(ws) < 3 for ws in t.adjacency) or len(t.leaves()) <= t.cliques.leaf_floor:
        # The check building the assignment makes: every token is nonempty.
        empty = [a for a, b in t.edges if t.cliques[a].isdisjoint(t.cliques[b])]
        if empty:
            raise ValueError(f"empty token at clique {min(empty)}")
        return t, []
    state = _TokenState(tokens_from_tree(t))
    trace: list[IterationRecord] = []
    while True:
        path = shortest_augmenting_path(state.ta, state=state)
        if path is None:
            break
        before = state.leaves
        vertex_before = state.apply(path)
        if not state.realizable():
            raise CertificateError("assignment after augmenting path is unrealizable")
        if state.leaves != before - 1:
            raise CertificateError(
                f"host leaf count went from {before} to {state.leaves}, not down by one"
            )
        risen = sorted(u for u, n in vertex_before.items() if state.vertex_leaves[u] > n)
        if risen:
            raise CertificateError(f"subtree leaf count rose for vertices {risen}")
        trace.append(IterationRecord(path, before, state.leaves))
    if not trace:
        return t, trace
    tree = find_realizing_tree(state.ta)
    if tree is None:
        raise CertificateError("the final assignment is unrealizable")
    if state.leaves != len(tree.leaves()) or state.vertex_leaves != tree._vertex_leaves:
        raise CertificateError("kept leaf counts differ from the recount of the realizing tree")
    return tree, trace
