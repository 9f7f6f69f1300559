"""Token assignments, realizability, and augmenting-path minimization."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import leafage
from leafage.cliquetrees import CliqueTree, Forest, verify_clique_tree
from leafage.demo import demo_clique_tree, demo_graph
from leafage.gadget import NaeInstance, build_gadget
from leafage.graphs import Graph, chordal_cliques, clique_graph
from leafage.cliquetrees import build_clique_tree
from leafage.oracle import enumerate_clique_trees
from leafage.tokens import (
    AugmentingPath,
    TokenAssignment,
    TokenMove,
    apply_move,
    apply_path,
    find_realizing_tree,
    is_realizable,
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
        assert all(ta.size(i) == t.degree(i) for i in range(len(t.cliques)))

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
            assert ta.vertex_leaf_count(u) == t.vertex_leaf_count(u)

    def test_corpus_degree_identities(self, corpus):
        for g, _ in corpus[:40]:
            t = build_clique_tree(clique_graph(chordal_cliques(g)))
            ta = tokens_from_tree(t)
            assert all(ta.size(i) == t.degree(i) for i in range(len(t.cliques)))
            assert ta.total() == 2 * (len(t.cliques) - 1)

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


class TestMoves:
    def test_apply_move(self, demo):
        _, t, ta = demo
        moved = apply_move(ta, TokenMove(0, 3, frozenset("a")))
        assert moved.size(0) == 3
        assert moved.size(3) == 2

    def test_apply_move_missing_token(self, demo):
        _, _, ta = demo
        with pytest.raises(ValueError, match="absent"):
            apply_move(ta, TokenMove(8, 2, frozenset("x")))

    def test_self_move_is_identity(self, demo):
        _, _, ta = demo
        assert apply_move(ta, TokenMove(0, 0, frozenset("a"))) == ta

    def test_apply_path_composes(self, demo):
        _, _, ta = demo
        path = AugmentingPath(
            (
                TokenMove(0, 2, frozenset("a")),
                TokenMove(2, 6, frozenset("d")),
            )
        )
        result = apply_path(ta, path)
        assert result.size(0) == 3
        assert result.size(2) == 2
        assert result.size(6) == 2


class TestRealizability:
    def test_tree_assignment_realizable(self, demo):
        g, t, ta = demo
        tree = find_realizing_tree(ta)
        assert tree is not None
        ok, _ = verify_clique_tree(g, tree)
        assert ok
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
        assert ta.vertex_leaf_count("a") == 3 and after.vertex_leaf_count("a") == 2
        for u in g.vertices:
            assert after.vertex_leaf_count(u) <= ta.vertex_leaf_count(u)

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
        ok, _ = verify_clique_tree(g, final)
        assert ok

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


# Each script forces one bad minimization step by replacing ``apply_path``;
# run under ``python -O``, so a check written as ``assert`` would vanish.
_BAD_STEPS = {
    "unrealizable": """
def bad(ta, path):
    ta = original(ta, path)
    i = next(i for i, toks in ta.tokens.items() if toks)
    return tk.TokenAssignment.create(ta.cliques, {**ta.tokens, i: ta.tokens[i][1:]})
""",
    "not down by one": """
def bad(ta, path):
    return original(ta, tk.AugmentingPath(path.moves[:-1]))
""",
    "rose": """
from leafage.oracle import enumerate_clique_trees
before = tk.tokens_from_tree(t)
worse = next(
    ta for ta in map(tk.tokens_from_tree, enumerate_clique_trees(demo_graph()))
    if ta.leaf_count() == before.leaf_count() - 1
    and any(n > before.vertex_leaf_counts()[u] for u, n in ta.vertex_leaf_counts().items())
)
def bad(ta, path):
    return worse
""",
}


@pytest.mark.parametrize("case", sorted(_BAD_STEPS))
def test_certificate_error_survives_optimize(case):
    script = (
        "import leafage.tokens as tk\n"
        "from leafage.demo import demo_clique_tree, demo_graph\n"
        "assert False, 'not run under -O'\n"
        "t = demo_clique_tree()\n"
        "original = tk.apply_path\n"
        + _BAD_STEPS[case]
        + "tk.apply_path = bad\n"
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
    forest = Forest(cliques)
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
            if tree is not None:
                assert tokens_from_tree(tree) == ta
            realizable += expected
            unrealizable += not expected
    assert realizable > 100 and unrealizable > 100
