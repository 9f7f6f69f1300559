"""Clique trees, tree models, and branching sets."""

import itertools
import random

import pytest

from conftest import check_clique_tree_of, enumerate_clique_trees, is_tree_model
from leafage.cliquetrees import (
    CliqueTree,
    TreeModel,
    branching_sets,
    build_clique_tree,
    check_clique_tree,
    leaf_report,
    model_from_clique_tree,
    path_containment_violation,
)
from leafage.demo import demo_clique_tree, demo_graph
from leafage.graphs import Forest, Graph, _path, chordal_cliques, clique_graph
from leafage.oracle import _walk


@pytest.fixture
def demo():
    g = demo_graph()
    return g, demo_clique_tree()


class TestCliqueTree:
    def test_demo_tree_leaf_count(self, demo):
        _, t = demo
        assert len(t.leaves()) == 5

    def test_demo_tree_vertex_a_leaves(self, demo):
        _, t = demo
        assert t.vertex_leaf_count("a") == 3

    def test_demo_tree_max_vertex_leaves(self, demo):
        g, t = demo
        assert t.max_vertex_leaf_count(g.vertices) == 3

    def test_single_node_tree_has_no_leaves(self):
        t = CliqueTree((frozenset("ab"),), frozenset())
        assert t.leaves() == []
        assert t.vertex_leaf_count("a") == 0

    def test_path_endpoints(self, demo):
        _, t = demo
        p = _path(t.adjacency, 8, 0, range(len(t.cliques)))  # de .. abc
        assert p[0] == 8 and p[-1] == 0
        for a, b in zip(p, p[1:]):
            assert (min(a, b), max(a, b)) in t.edges


class TestVerifyCliqueTree:
    def test_demo_tree_passes(self, demo):
        _, t = demo
        check_clique_tree(t)

    def test_containment_violation_detected(self, demo):
        _, t = demo
        # Rewire: attach the de clique (id 8) to ag (id 3); their
        # intersection is empty, so the edge itself is rejected.
        bad_edges = (t.edges - {(2, 8)}) | {(3, 8)}
        bad = CliqueTree(t.cliques, frozenset(bad_edges))
        with pytest.raises(ValueError, match="disjoint"):
            check_clique_tree(bad)

    def test_spanning_tree_with_bad_path_rejected(self, demo):
        _, t = demo
        # Attach de (id 8) to acd (id 1) is fine; attach it to abc (id 0)
        # instead: d is in de∩acd but the path de-abc-..-acd misses d at abc?
        # abc lacks d, and de∩acd = {d}, so containment must fail.
        bad_edges = (t.edges - {(2, 8)}) | {(0, 8)}
        bad = CliqueTree(t.cliques, frozenset(bad_edges))
        with pytest.raises(ValueError):
            # de∩abc is empty, so this is also a disjoint-edge error.
            check_clique_tree(bad)

    def test_non_tree_rejected(self, demo):
        _, t = demo
        bad = CliqueTree(t.cliques, frozenset(list(t.edges)[:-1]))
        with pytest.raises(ValueError, match="spanning tree"):
            check_clique_tree(bad)

    def test_extra_edge_rejected(self, demo):
        _, t = demo
        # abc (0) and acd (1) meet in ac; one more edge makes a cycle.
        assert (0, 1) in t.edges and (0, 2) not in t.edges
        bad = CliqueTree(t.cliques, t.edges | {(0, 2)})
        with pytest.raises(ValueError, match="spanning tree: 9 edges on 9 cliques"):
            check_clique_tree(bad)

    def test_wrong_nodes_rejected(self, demo):
        g, _ = demo
        t = CliqueTree((frozenset("ab"),), frozenset())
        with pytest.raises(ValueError, match="maximal cliques"):
            check_clique_tree_of(g, t)

    @pytest.mark.parametrize(
        "cliques, edges",
        [(("ab", "ac"), ()), (("ab", "bc", "cd"), ((1, 2),))],
        ids=["no-edges", "one-edge-of-two"],
    )
    def test_path_containment_on_non_spanning_edges_raises(self, cliques, edges):
        # The witness's i-j path does not exist: a ValueError, not a TypeError.
        t = CliqueTree(tuple(map(frozenset, cliques)), frozenset(edges))
        with pytest.raises(ValueError, match="no path between nodes 0 and 1"):
            path_containment_violation(t)

    def test_path_containment_witness_shape(self, demo):
        _, t = demo
        # Build a spanning tree over intersecting pairs that breaks
        # containment: route everything through abc (id 0) as a star where
        # possible; acd-cdk containment then fails via abc.
        cliques = t.cliques
        star = {(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (5, 7), (2, 8), (1, 6)}
        tree = CliqueTree(cliques, frozenset(star))
        assert path_containment_violation(tree) is None
        # now a genuinely bad one: hang cdk (6) off bci (5) (share c)
        bad = CliqueTree(cliques, frozenset((star - {(1, 6)}) | {(5, 6)}))
        witness = path_containment_violation(bad)
        assert witness is not None
        i, j, k = witness
        common = cliques[i] & cliques[j]
        assert not common <= cliques[k]


class TestBuildCliqueTree:
    def test_demo_build_is_valid(self, demo):
        g, _ = demo
        t = build_clique_tree(clique_graph(chordal_cliques(g)))
        check_clique_tree_of(g, t)

    def test_corpus_builds_valid_trees(self, corpus):
        for g, _ in corpus[:60]:
            t = build_clique_tree(clique_graph(chordal_cliques(g)))
            check_clique_tree_of(g, t)

    def test_disconnected_clique_graph_rejected(self):
        g = Graph.from_edges(["a", "b"], [])
        with pytest.raises(ValueError, match="disconnected"):
            build_clique_tree(clique_graph(chordal_cliques(g)))

    def test_single_clique(self):
        g = Graph.from_edges([], [("a", "b")])
        t = build_clique_tree(clique_graph(chordal_cliques(g)))
        assert t.edges == frozenset()

    def test_non_chordal_clique_family_raises(self):
        # The cliques of C4: every spanning tree of their 4-cycle clique
        # graph separates the two cliques holding one vertex.  The check
        # raises rather than asserts, so it also holds under python -O.
        cliques = tuple(frozenset(s) for s in ("ab", "ad", "bc", "cd"))
        with pytest.raises(ValueError, match=r"violated containment: \(2, 3, 0\)"):
            build_clique_tree(clique_graph(cliques))


class TestTreeModel:
    def test_model_from_demo_tree(self, demo):
        g, t = demo
        m = model_from_clique_tree(t)
        assert is_tree_model(g, m)
        report = leaf_report(m)
        assert report.host_leaves == len(t.leaves())
        for u in g.vertices:
            assert report.per_vertex_leaves[u] == t.vertex_leaf_count(u)

    def test_vertex_leaves_match_model_recount(self, graphs):
        # The tree-degree count of each vertex's leaves against the model's
        # host-adjacency recount, on every clique tree of the corpus, the
        # spiders and the gadgets.
        trees = 0
        for g in graphs:
            cliques = chordal_cliques(g)
            for _, _, chosen in _walk(g, None):
                t = CliqueTree(cliques, frozenset(chosen))
                report = leaf_report(model_from_clique_tree(t))
                assert {u: t.vertex_leaf_count(u) for u in g.vertices} == report.per_vertex_leaves
                assert t.max_vertex_leaf_count(g.vertices) == report.max_vertex_leaves
                trees += 1
        assert trees == 4708

    def test_leaf_report(self, demo):
        g, t = demo
        report = leaf_report(model_from_clique_tree(t))
        assert report.host_leaves == 5
        assert report.per_vertex_leaves["a"] == 3
        assert report.max_vertex_leaves == 3

    def test_not_a_model_when_edge_missing(self):
        g = Graph.from_edges([], [("a", "b"), ("b", "c")])
        m = TreeModel(
            ("x", "y"),
            frozenset({("x", "y")}),
            {"a": frozenset({"x"}), "b": frozenset({"x"}), "c": frozenset({"y"})},
        )
        # b's subtree misses y, so b-c would not intersect: not a model.
        assert not is_tree_model(g, m)

    def test_not_a_model_when_subtree_leaves_host(self):
        g = Graph.from_edges([], [("a", "b")])
        m = TreeModel(
            ("x", "y"),
            frozenset({("x", "y")}),
            {"a": frozenset({"x"}), "b": frozenset({"z"})},
        )
        assert not is_tree_model(g, m)


class TestBranchingSets:
    def test_demo_tree_branching(self, demo):
        _, t = demo
        bs = branching_sets(t)
        # High-degree nodes: abc (degree 4) and acd (degree 3).
        assert bs.high_nodes == frozenset({0, 1})
        assert len(bs.incident_edges) == 6
        for e in bs.incident_edges:
            assert e in t.edges
            assert e[0] in bs.high_nodes or e[1] in bs.high_nodes

    def test_path_tree_has_empty_branching(self):
        cliques = tuple(
            frozenset(s) for s in ("ab", "bc", "cd")
        )
        t = CliqueTree(cliques, frozenset({(0, 1), (1, 2)}))
        bs = branching_sets(t)
        assert bs.high_nodes == frozenset()
        assert bs.incident_edges == frozenset()


def _pairwise_violation(t: CliqueTree):
    """Reference check: scan the tree path of every intersecting clique pair."""
    n = len(t.cliques)
    for i in range(n):
        for j in range(i + 1, n):
            common = t.cliques[i] & t.cliques[j]
            if not common:
                continue
            for k in _path(t.adjacency, i, j, range(n)):
                if not common <= t.cliques[k]:
                    return (i, j, k)
    return None


def _random_spanning_tree(cg, rng):
    edges = list(cg.weights)
    rng.shuffle(edges)
    forest = Forest(len(cg))
    chosen = [(a, b) for a, b in edges if forest.union(a, b)]
    return CliqueTree(cg, frozenset(chosen))


class TestLinearContainmentCheck:
    """The per-vertex criterion agrees with the pairwise path scan."""

    def test_oracle_trees_are_valid_for_both(self, corpus):
        for g, _ in corpus[:40]:
            for tree in enumerate_clique_trees(g):
                assert path_containment_violation(tree) is None
                assert _pairwise_violation(tree) is None

    def test_random_spanning_trees_agree(self, corpus):
        rng = random.Random(0)
        invalid = 0
        for g, _ in corpus[:40]:
            cg = clique_graph(chordal_cliques(g))
            for _ in range(25):
                tree = _random_spanning_tree(cg, rng)
                witness = path_containment_violation(tree)
                assert (witness is None) == (_pairwise_violation(tree) is None)
                if witness is None:
                    continue
                invalid += 1
                i, j, k = witness
                assert i < j
                assert k in _path(tree.adjacency, i, j, range(len(tree.cliques)))
                assert not tree.cliques[i] & tree.cliques[j] <= tree.cliques[k]
        assert invalid >= 100


def test_branching_bound_survives_optimize(run_optimized):
    # The demo tree has two branching nodes; with its leaves hidden the
    # bound "branching nodes <= leaves - 2" must fail loudly.
    out = run_optimized(
        "import leafage.cliquetrees as ct\n"
        "from leafage.demo import demo_clique_tree\n"
        "from leafage.graphs import CertificateError\n"
        "assert False, 'not run under -O'\n"
        "ct.CliqueTree.leaves = lambda self: []\n"
        "try:\n"
        "    ct.branching_sets(demo_clique_tree())\n"
        "except CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificateError:") and "branching nodes" in out.stdout
