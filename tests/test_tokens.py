"""Token assignments, realizability, and augmenting-path minimization."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import leafage
import leafage.tokens as tokens_module
from conftest import (
    _reference_augmenting_path,
    apply_move,
    apply_path,
    check_clique_tree_of,
    count_calls,
    enumerate_clique_trees,
    is_realizable,
    nae_families,
    reference_find_realizing_tree,
    reference_minimize_leafage,
    spider_graph,
)
from leafage.cliquetrees import CliqueTree
from leafage.demo import demo_clique_tree, demo_graph
from leafage.gadget import NaeInstance, build_gadget
from leafage.graphs import Cliques, Forest, Graph, chordal_cliques, clique_graph
from leafage.cliquetrees import build_clique_tree
from leafage.oracle import random_chordal
from leafage.tokens import (
    AugmentingPath,
    TokenAssignment,
    TokenMove,
    _TokenState,
    find_realizing_tree,
    minimize_leafage,
    minimize_leafage_with_trace,
    shortest_augmenting_path,
    tokens_from_tree,
)


def _label(c):
    return "".join(sorted(c))


# The neighbour-intersection assignment of the demo starting tree, written
# out token for token (keys are clique member strings).
DEMO_TOKENS = {
    "abc": ["a", "a", "ac", "bc"],
    "acd": ["ac", "ad", "cd"],
    "adf": ["ad", "d"],
    "ag": ["a"],
    "ah": ["a"],
    "bci": ["bc", "c"],
    "cdk": ["cd"],
    "cj": ["c"],
    "de": ["d"],
}


@pytest.fixture
def demo():
    g = demo_graph()
    t = demo_clique_tree()
    return g, t, tokens_from_tree(t)


class TestTokenAssignment:
    def test_demo_tree_tokens_exact(self, demo):
        _, t, ta = demo
        actual = {
            _label(t.cliques[i]): sorted("".join(sorted(s)) for s in ta.tokens[i])
            for i in range(len(t.cliques))
        }
        assert actual == {k: sorted(v) for k, v in DEMO_TOKENS.items()}

    def test_degree_identity_host(self, demo):
        _, t, ta = demo
        # Token counts equal host-tree degrees.
        assert all(len(ta.tokens[i]) == t.degree(i) for i in range(len(t.cliques)))

    def test_degree_identity_per_vertex(self, demo):
        g, t, ta = demo
        # Tokens holding u equal the degree of the clique in u's subtree.
        for u in g.vertices:
            for i, c in enumerate(t.cliques):
                if u in c:
                    held = sum(1 for s in ta.tokens[i] if u in s)
                    assert held == sum(1 for w in t.neighbors(i) if u in t.cliques[w])

    def test_leaf_counts_match_tree(self, demo):
        g, t, ta = demo
        assert ta.leaf_count() == len(t.leaves()) == 5
        for u in g.vertices:
            assert _TokenState(ta).vertex_leaves[u] == t.vertex_leaf_count(u)

    def test_corpus_degree_identities(self, corpus):
        for g, _ in corpus[:40]:
            t = build_clique_tree(clique_graph(chordal_cliques(g)))
            ta = tokens_from_tree(t)
            assert all(len(ta.tokens[i]) == t.degree(i) for i in range(len(t.cliques)))
            assert sum(map(len, ta.tokens.values())) == 2 * (len(t.cliques) - 1)

    def test_token_outside_clique_rejected(self):
        cliques = (frozenset("ab"), frozenset("bc"))
        with pytest.raises(ValueError, match="not a subset"):
            TokenAssignment.create(
                cliques, {0: (frozenset("c"),), 1: (frozenset("b"),)}
            )

    def test_empty_token_rejected(self):
        cliques = (frozenset("ab"),)
        with pytest.raises(ValueError, match="empty token"):
            TokenAssignment.create(cliques, {0: (frozenset(),)})

    @pytest.mark.parametrize("key", [7, -1, 2, "0"])
    def test_key_outside_cliques_rejected(self, key):
        cliques = (frozenset("ab"), frozenset("bc"))
        with pytest.raises(ValueError, match=f"tokens keyed {key!r}, not a clique id 0..1"):
            TokenAssignment.create(cliques, {key: (frozenset("a"),)})


class TestCliqueFamily:
    """Trees and assignments on a plain tuple share the family's facts."""

    @pytest.mark.parametrize("seed", range(4))
    def test_plain_tuple_is_the_family(self, seed):
        g = random_chordal(14, density=0.4, seed=seed)
        family = chordal_cliques(g)
        plain = tuple(family)
        assert type(family) is Cliques and type(plain) is tuple
        tree = build_clique_tree(clique_graph(family))
        from_plain = CliqueTree(plain, tree.edges)
        assert type(from_plain.cliques) is Cliques
        assert from_plain == tree and hash(from_plain) == hash(tree)
        ta = tokens_from_tree(tree)
        ta_plain = TokenAssignment(plain, ta.tokens)
        assert type(ta_plain.cliques) is Cliques
        assert ta_plain == ta and hash(ta_plain.cliques) == hash(ta.cliques)
        assert find_realizing_tree(ta_plain) == find_realizing_tree(ta) == tree
        assert minimize_leafage(from_plain) == minimize_leafage(tree)

    def test_family_is_kept(self):
        family = chordal_cliques(demo_graph())
        assert Cliques(family) is family
        assert clique_graph(family) is family
        tree = build_clique_tree(clique_graph(family))
        assert tree.cliques is family
        assert tokens_from_tree(tree).cliques is family
        assert minimize_leafage(tree).cliques is family

    def test_facts_hold_no_reference_to_the_family(self):
        # A fact that refers back to the family makes a reference cycle, so
        # the family and every table cached on it wait for the cycle
        # collector instead of going with their last user.
        family = Cliques(tuple(chordal_cliques(random_chordal(20, density=0.4, seed=1))))
        before = sys.getrefcount(family)
        a, b = next(iter(family.weights))
        family.holders, family.kruskal_order, family.class_nodes, family.blocks, family.forced
        family.leaf_floor
        family.s_blocks(family[a] & family[b])
        assert sys.getrefcount(family) == before


class TestMoves:
    def test_apply_move(self, demo):
        _, t, ta = demo
        moved = apply_move(ta, TokenMove(0, 3, frozenset("a")))
        assert len(moved.tokens[0]) == 3
        assert len(moved.tokens[3]) == 2

    def test_apply_move_missing_token(self, demo):
        _, _, ta = demo
        with pytest.raises(ValueError, match="absent"):
            apply_move(ta, TokenMove(8, 2, frozenset("x")))

    def test_self_move_is_identity(self, demo):
        _, _, ta = demo
        assert apply_move(ta, TokenMove(0, 0, frozenset("a"))) == ta

    def test_state_apply_matches_reference(self, demo):
        _, _, ta = demo
        path = AugmentingPath(
            (
                TokenMove(0, 2, frozenset("a")),
                TokenMove(2, 6, frozenset("d")),
                TokenMove(5, 5, frozenset("c")),
            )
        )
        state = tokens_module._TokenState(ta)
        state.apply(path)
        assert state.ta == apply_path(ta, path)

    @pytest.mark.parametrize(
        "move, message",
        [
            (TokenMove(8, 2, frozenset("x")), "absent at clique 8"),
            (TokenMove(0, 3, frozenset("bc")), "not a subset"),
        ],
    )
    def test_state_apply_rejects_bad_move(self, demo, move, message):
        # The state copies the caller's map once and changes only its copy,
        # in place.  A path whose first move is sound and whose second
        # raises leaves the tokens and every kept count as they were.
        _, _, ta = demo
        callers = dict(ta.tokens)
        state = tokens_module._TokenState(ta)
        first = AugmentingPath((TokenMove(0, 2, frozenset("a")), TokenMove(2, 6, frozenset("d"))))
        state.apply(first)
        applied = apply_path(ta, first)
        kept = state.ta.tokens
        with pytest.raises(ValueError, match=message):
            state.apply(AugmentingPath((TokenMove(0, 3, frozenset("a")), move)))
        assert state.ta.tokens is kept and state.ta == applied
        fresh = tokens_module._TokenState(applied)
        assert (state.sizes, state.starts, state.leaves) == (fresh.sizes, fresh.starts, fresh.leaves)
        assert state.vertex_leaves == fresh.vertex_leaves == _TokenState(applied).vertex_leaves
        assert state.realizable() == fresh.realizable()
        cover, bad = state._coverage
        assert bad == fresh._coverage[1]
        assert {s: c[1] for s, c in cover.items()} == {s: c[1] for s, c in fresh._coverage[0].items()}
        assert ta.tokens == callers and kept is not ta.tokens

    def test_apply_path_composes(self, demo):
        _, _, ta = demo
        path = AugmentingPath(
            (
                TokenMove(0, 2, frozenset("a")),
                TokenMove(2, 6, frozenset("d")),
            )
        )
        result = apply_path(ta, path)
        assert len(result.tokens[0]) == 3
        assert len(result.tokens[2]) == 2
        assert len(result.tokens[6]) == 2


class TestRealizability:
    def test_tree_assignment_realizable(self, demo):
        g, t, ta = demo
        tree = find_realizing_tree(ta)
        assert tree is not None
        check_clique_tree_of(g, tree)
        # The realizing tree reproduces the assignment.
        assert tokens_from_tree(tree) == ta

    def test_wrong_total_unrealizable(self, demo):
        _, t, ta = demo
        smaller = apply_move(ta, TokenMove(0, 0, frozenset("a")))
        tokens = dict(smaller.tokens)
        tokens[0] = tokens[0][1:]  # drop one token: total is now odd
        broken = TokenAssignment.create(smaller.cliques, tokens)
        assert not is_realizable(broken)

    def test_corpus_round_trip(self, corpus):
        for g, _ in corpus[:40]:
            t = build_clique_tree(clique_graph(chordal_cliques(g)))
            ta = tokens_from_tree(t)
            tree = find_realizing_tree(ta)
            assert tree is not None
            assert tokens_from_tree(tree) == ta

    def test_single_clique(self):
        ta = TokenAssignment.create((frozenset("ab"),), {})
        tree = find_realizing_tree(ta)
        assert tree is not None and tree.edges == frozenset()

    def test_realizing_tree_reads_each_block_table_once(self, monkeypatch):
        # The decision and the pair pass share one pass over the tokens:
        # each token value's S-block entry is asked for once.
        graphs = [demo_graph(), spider_graph(5, 2), random_chordal(30, density=0.3, seed=1)]
        calls = count_calls(monkeypatch, Cliques, "s_blocks")
        for g in graphs:
            family = Cliques(tuple(chordal_cliques(g)))
            ta = tokens_from_tree(minimize_leafage(build_clique_tree(clique_graph(family))))
            calls.clear()
            assert find_realizing_tree(ta) is not None
            values = {s for toks in ta.tokens.values() for s in toks}
            assert Counter(s for _, s in calls) == Counter(values)

    def test_infeasible_pairing_unrealizable(self):
        # Two cliques, but the tokens do not match their intersection.
        cliques = (frozenset("ab"), frozenset("bc"))
        ta = TokenAssignment.create(
            cliques, {0: (frozenset("a"),), 1: (frozenset("c"),)}
        )
        assert not is_realizable(ta)


class TestAugmentingPath:
    def test_demo_first_path_is_single_move(self, demo):
        _, t, ta = demo
        path = shortest_augmenting_path(ta)
        assert path is not None
        assert len(path.moves) == 1
        mv = path.moves[0]
        assert _label(t.cliques[mv.from_clique]) == "abc"
        assert _label(t.cliques[mv.to_clique]) == "ag"
        assert mv.token == frozenset("a")

    def test_demo_first_iteration_counts(self, demo):
        g, t, ta = demo
        path = shortest_augmenting_path(ta)
        after = apply_path(ta, path)
        assert ta.leaf_count() == 5 and after.leaf_count() == 4
        assert _TokenState(ta).vertex_leaves["a"] == 3 and _TokenState(after).vertex_leaves["a"] == 2
        for u in g.vertices:
            assert _TokenState(after).vertex_leaves[u] <= _TokenState(ta).vertex_leaves[u]

    def test_every_move_individually_realizable(self, demo):
        _, _, ta = demo
        path = shortest_augmenting_path(ta)
        for mv in path.moves:
            assert is_realizable(apply_move(ta, mv))

    def test_none_when_optimal(self, demo):
        _, t, _ = demo
        final = minimize_leafage(t)
        assert shortest_augmenting_path(tokens_from_tree(final)) is None


class TestMinimizeLeafage:
    def test_demo_reaches_three_leaves(self, demo):
        g, t, _ = demo
        final, trace = minimize_leafage_with_trace(t)
        assert len(final.leaves()) == 3
        assert [(r.leaves_before, r.leaves_after) for r in trace] == [(5, 4), (4, 3)]
        check_clique_tree_of(g, final)

    def test_demo_vertex_counts_never_increase(self, demo):
        g, t, _ = demo
        final, _ = minimize_leafage_with_trace(t)
        for u in g.vertices:
            assert final.vertex_leaf_count(u) <= t.vertex_leaf_count(u)
        assert final.vertex_leaf_count("a") == 2

    def test_corpus_matches_oracle(self, corpus):
        for g, result in corpus[:60]:
            t = build_clique_tree(clique_graph(chordal_cliques(g)))
            final, trace = minimize_leafage_with_trace(t)
            assert len(final.leaves()) == result.leafage
            for rec in trace:
                assert rec.leaves_before - rec.leaves_after == 1

    @pytest.mark.parametrize("m", [48, 128])
    def test_large_star_without_recursion(self, m):
        g = Graph.from_edges(
            ["c"] + [f"l{i}" for i in range(m)], [("c", f"l{i}") for i in range(m)]
        )
        t = build_clique_tree(clique_graph(chordal_cliques(g)))
        final, trace = minimize_leafage_with_trace(t)
        assert len(final.leaves()) == 2
        assert len(trace) == m - 3


# Each script forces one bad minimization step by replacing the kept
# state's step ``_TokenState.apply``; run under ``python -O``, so a check
# written as ``assert`` would vanish.
_BAD_STEPS = {
    "unrealizable": """
def bad(self, path):
    # One more move takes abc's only bc-token out of its bc-block.
    ids = {"".join(sorted(c)): i for i, c in enumerate(self.ta.cliques)}
    extra = tk.TokenMove(ids["abc"], ids["bci"], frozenset("bc"))
    return original(self, tk.AugmentingPath(path.moves + (extra,)))
""",
    "not down by one": """
def bad(self, path):
    return original(self, tk.AugmentingPath(path.moves[:-1]))
""",
    "rose": """
from leafage.oracle import _walk
before = tk.tokens_from_tree(t)
trees = [tk.CliqueTree(t.cliques, frozenset(c)) for _, _, c in _walk(demo_graph(), None)]
worse = next(
    ta for ta in map(tk.tokens_from_tree, trees)
    if ta.leaf_count() == before.leaf_count() - 1
    and any(n > tk._TokenState(before).vertex_leaves[u] for u, n in tk._TokenState(ta).vertex_leaves.items())
)
def bad(self, path):
    # Moves that turn the assignment into ``worse``: per token value, each
    # surplus token goes to a clique that is one short.
    moves = []
    for s in {s for toks in worse.tokens.values() for s in toks}:
        diff = [self.ta.tokens[i].count(s) - worse.tokens[i].count(s) for i in worse.tokens]
        surplus = [i for i, d in enumerate(diff) for _ in range(d)]
        short = [i for i, d in enumerate(diff) for _ in range(-d)]
        moves += [tk.TokenMove(a, b, s) for a, b in zip(surplus, short)]
    return original(self, tk.AugmentingPath(tuple(moves)))
""",
    # The kept coverage says realizable; the fresh decision at the end does not.
    "final assignment": """
def bad(self, path):
    tk.find_realizing_tree = lambda ta: None
    return original(self, path)
""",
    # A slip in the kept counts that no per-iteration check sees.
    "recount": """
def bad(self, path):
    before = original(self, path)
    self.vertex_leaves["a"] -= 1
    return before
""",
    # The tree returned is the 5-leaf start tree, not one realizing the
    # final assignment; only the counts checked against it tell.
    "realizing tree": """
def bad(self, path):
    tk.find_realizing_tree = lambda ta: t
    return original(self, path)
""",
}


@pytest.mark.parametrize("case", sorted(_BAD_STEPS))
def test_certificate_error_survives_optimize(case):
    script = (
        "import leafage.tokens as tk\n"
        "from leafage.demo import demo_clique_tree, demo_graph\n"
        "assert False, 'not run under -O'\n"
        "t = demo_clique_tree()\n"
        "original = tk._TokenState.apply\n"
        + _BAD_STEPS[case]
        + "tk._TokenState.apply = bad\n"
        "try:\n"
        "    tk.minimize_leafage_with_trace(t)\n"
        "except tk.CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    src = str(Path(leafage.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificateError:") and case in out.stdout


def _spider(legs, length):
    edges = []
    for leg in range(legs):
        prev = "c"
        for step in range(length):
            edges.append((prev, f"a{leg}x{step}"))
            prev = f"a{leg}x{step}"
    return Graph.from_edges(sorted({v for e in edges for v in e}), edges)


def _gadget(*clauses):
    return build_gadget(NaeInstance.create([frozenset(c) for c in clauses], 3)).graph


def _key(ta):
    return tuple(ta.tokens[i] for i in range(len(ta.cliques)))


def _random_spanning_tree(cliques, rng):
    # Kruskal on random weights over the intersecting clique pairs.
    pairs = [e for e in clique_graph(cliques).weights]
    rng.shuffle(pairs)
    forest = Forest(len(cliques))
    edges = [(i, j) for i, j in pairs if forest.union(i, j)]
    return CliqueTree(cliques, frozenset(edges))


def _random_move(ta, rng):
    src = rng.choice([i for i, toks in ta.tokens.items() if toks])
    s = rng.choice(ta.tokens[src])
    dst = rng.choice([i for i, c in enumerate(ta.cliques) if s <= c])
    return apply_move(ta, TokenMove(src, dst, s))


def test_separator_decision_matches_clique_trees(corpus):
    """``is_realizable`` is true exactly on assignments of enumerated clique trees."""
    graphs = [g for g, _ in corpus if 2 <= len(chordal_cliques(g)) <= 7]
    graphs += [
        _spider(4, 2),
        _spider(5, 2),
        _gadget(("v1", "v2", "v3"), ("v1", "v4", "v5"), ("v2", "v4", "v6"), ("v3", "v5", "v6")),
        _gadget(("v1", "v2", "v3"), ("v1", "v4", "v5"), ("v2", "v4", "v6")),
    ]
    rng = random.Random(3)
    realizable = unrealizable = 0
    for g in graphs:
        cliques = chordal_cliques(g)
        reference = {_key(tokens_from_tree(t)) for t in enumerate_clique_trees(g)}
        tried = [tokens_from_tree(_random_spanning_tree(cliques, rng)) for _ in range(12)]
        tried += [_random_move(rng.choice(tried), rng) for _ in range(12)]
        for ta in tried:
            expected = _key(ta) in reference
            assert is_realizable(ta) == expected
            tree = find_realizing_tree(ta)
            assert (tree is not None) == expected
            assert _edges(tree) == _edges(reference_find_realizing_tree(ta))
            if tree is not None:
                assert tokens_from_tree(tree) == ta
            realizable += expected
            unrealizable += not expected
    assert realizable > 100 and unrealizable > 100


# The greedy pass must return the tree the backtracking search it replaced
# (``conftest.reference_find_realizing_tree``) returns, and None with it.


def _edges(tree):
    return None if tree is None else tree.edges


def _assert_reference_tree(ta):
    assert _edges(find_realizing_tree(ta)) == _edges(reference_find_realizing_tree(ta))


def _caterpillar(spine, rng):
    s = [f"s{i:02d}" for i in range(spine)]
    edges = list(zip(s, s[1:]))
    edges += [(x, f"{x}q{j}") for x in s for j in range(rng.randint(2, 3))]
    return Graph.from_edges([], edges)


def _final_assignment(g):
    t = build_clique_tree(clique_graph(chordal_cliques(g)))
    _, trace = minimize_leafage_with_trace(t)
    ta = tokens_from_tree(t)
    for rec in trace:
        ta = apply_path(ta, rec.path)
    return ta


def test_realizing_tree_matches_reference_on_clique_trees(corpus):
    graphs = [g for g, _ in corpus]
    graphs += [
        _gadget(("v1", "v2", "v3"), ("v1", "v2", "v4"), ("v1", "v3", "v4"), ("v2", "v3", "v4")),
        _gadget(("v1", "v2", "v3"), ("v1", "v4", "v5"), ("v2", "v4", "v6"), ("v3", "v5", "v6")),
    ]
    for g in graphs:
        for t in enumerate_clique_trees(g):
            _assert_reference_tree(tokens_from_tree(t))


def test_realizing_tree_matches_reference_on_final_assignments():
    rng = random.Random(5)
    graphs = [
        Graph.from_edges([], [("c", f"l{i:02d}") for i in range(m)]) for m in range(3, 65)
    ]
    graphs += [_caterpillar(spine, rng) for spine in range(3, 13)]
    for g in graphs:
        _assert_reference_tree(_final_assignment(g))


@pytest.mark.parametrize("n", [20, 25, 30, 35, 40])
def test_realizing_tree_matches_reference_on_random_chordal(n):
    rng = random.Random(n)
    for seed in range(2):
        g = random_chordal(n, density=0.3, seed=seed)
        cliques = chordal_cliques(g)
        start = tokens_from_tree(build_clique_tree(clique_graph(cliques)))
        tried = [start, _final_assignment(g)]
        tried += [tokens_from_tree(_random_spanning_tree(cliques, rng)) for _ in range(4)]
        tried += [_random_move(start, rng) for _ in range(4)]
        for ta in tried:
            _assert_reference_tree(ta)


def test_unrealizable_pairs_raise_under_optimize(run_optimized):
    # The decision is patched to accept an assignment that no clique tree
    # induces: the pass must raise, not return a broken tree or None.
    out = run_optimized(
        "import leafage.tokens as tk\n"
        "assert False, 'not run under -O'\n"
        "cliques = (frozenset('ab'), frozenset('bc'), frozenset('cd'))\n"
        "ta = tk.TokenAssignment.create(cliques, {0: (frozenset('b'),), 1: (frozenset('b'),)})\n"
        "tk._TokenState.realizable = lambda self: True\n"
        "try:\n"
        "    print('returned', tk.find_realizing_tree(ta))\n"
        "except tk.CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificateError:")


def test_minimization_matches_reference(corpus, monkeypatch):
    """Same paths and tree as the rebuild-per-move loop; kept counts equal recounts."""
    rng = random.Random(13)
    graphs = [g for g, _ in corpus]
    graphs += [spider_graph(legs, length) for legs in range(3, 7) for length in (2, 3)]
    graphs += [build_gadget(inst).graph for inst in nae_families()]
    graphs += [Graph.from_edges([], [("c", f"l{i:02d}") for i in range(m)]) for m in range(8, 41)]
    graphs += [_caterpillar(spine, rng) for spine in range(3, 25)]
    kept = []
    step = tokens_module._TokenState.apply

    def recording(self, path):
        before = step(self, path)
        # A snapshot: the state changes its own token map in place.
        snapshot = TokenAssignment(self.ta.cliques, dict(self.ta.tokens))
        kept.append((snapshot, self.realizable(), self.leaves, Counter(self.vertex_leaves)))
        return before

    monkeypatch.setattr(tokens_module._TokenState, "apply", recording)
    iterations = 0
    for g in graphs:
        t = build_clique_tree(clique_graph(chordal_cliques(g)))
        kept.clear()
        final, trace = minimize_leafage_with_trace(t)
        reference, reference_trace = reference_minimize_leafage(t)
        assert trace == reference_trace
        assert final.edges == reference.edges
        ta = tokens_from_tree(t)
        for rec, (kept_ta, realizable, leaves, vertex_leaves) in zip(trace, kept, strict=True):
            ta = apply_path(ta, rec.path)
            assert kept_ta == ta
            assert realizable and is_realizable(ta)
            assert leaves == ta.leaf_count() == rec.leaves_after
            assert vertex_leaves == _TokenState(ta).vertex_leaves
        iterations += len(trace)
    assert iterations > 1000


def test_kept_move_decision_matches_full_decision(corpus):
    """``can_move`` and the kept counts agree with deciding and counting afresh.

    The assignments include unrealizable ones, where some values are wrong.
    """
    rng = random.Random(11)
    graphs = [g for g, _ in corpus if 2 <= len(chordal_cliques(g)) <= 7][:60]
    graphs += [_spider(4, 2), _gadget(("v1", "v2", "v3"), ("v1", "v4", "v5"), ("v2", "v4", "v6"))]
    decided = {True: 0, False: 0}
    for g in graphs:
        cliques = chordal_cliques(g)
        start = tokens_from_tree(_random_spanning_tree(cliques, rng))
        state = tokens_module._TokenState(start)
        for _ in range(6):
            ta = state.ta
            moves = [
                TokenMove(i, j, s)
                for i in range(len(cliques))
                for s in dict.fromkeys(ta.tokens[i])
                for j in range(len(cliques))
                if j != i and s <= cliques[j]
            ]
            for mv in moves:
                expected = is_realizable(apply_move(ta, mv))
                assert state.can_move(mv.from_clique, mv.to_clique, mv.token) == expected
                decided[expected] += 1
            if not moves:
                break
            state.apply(AugmentingPath((rng.choice(moves),)))
            ta = state.ta
            assert state.realizable() == is_realizable(ta)
            assert state.leaves == ta.leaf_count()
            assert state.sizes == [len(ta.tokens[i]) for i in range(len(cliques))]
            assert state.starts == [i for i in range(len(cliques)) if len(ta.tokens[i]) >= 3]
            assert state.vertex_leaves == _TokenState(ta).vertex_leaves
    assert decided[True] > 100 and decided[False] > 100


def _random_clique_tree(cliques, rng):
    # Kruskal on the intersection sizes, ties broken at random: any clique tree.
    weights = clique_graph(cliques).weights
    pairs = sorted(weights, key=lambda e: (-weights[e], rng.random()))
    forest = Forest(len(cliques))
    return CliqueTree(cliques, frozenset(e for e in pairs if forest.union(*e)))


def test_search_matches_reference_off_the_minimization():
    """The search returns the reference's path on assignments off the minimization's path.

    Random spanning trees' and random clique trees' assignments, each after
    up to two random single moves, so many are unrealizable.  Paths of two
    or more moves are rare and show on clique trees only.
    """
    rng = random.Random(17)
    lengths = Counter()
    for n in (20, 24, 28, 32):
        for density in (0.6, 0.7, 0.8):
            for seed in range(6):
                cliques = chordal_cliques(random_chordal(n, density=density, seed=seed))
                for tree in (_random_spanning_tree, _random_clique_tree) * 3:
                    ta = tokens_from_tree(tree(cliques, rng))
                    for _ in range(3):
                        path = shortest_augmenting_path(ta)
                        assert path == _reference_augmenting_path(ta)
                        lengths[0 if path is None else min(len(path.moves), 2)] += 1
                        ta = _random_move(ta, rng)
    assert lengths[0] > 100 and lengths[1] > 100 and lengths[2] > 10, lengths


def test_search_lists_each_cliques_targets_at_most_twice(monkeypatch):
    """Every search of a whole minimization makes at most 2k ``holding`` calls on k cliques."""
    cliques = chordal_cliques(random_chordal(120, density=0.3, seed=3))
    k = len(cliques)
    assert k == 40
    holding = count_calls(monkeypatch, Cliques, "holding")
    search = tokens_module.shortest_augmenting_path
    per_search = []

    def counting(ta, state=None):
        holding.clear()
        path = search(ta, state)
        per_search.append(len(holding))
        return path

    monkeypatch.setattr(tokens_module, "shortest_augmenting_path", counting)
    _, trace = minimize_leafage_with_trace(build_clique_tree(clique_graph(cliques)))
    assert len(per_search) == len(trace) + 1
    assert max(per_search) <= 2 * k, per_search
