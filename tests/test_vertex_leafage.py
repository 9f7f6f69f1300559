"""Prescribed-branching clique trees and exact vertex leafage."""

from collections import defaultdict

import pytest

from leafage.cliquetrees import branching_sets, build_clique_tree, leaf_report, verify_clique_tree
from leafage.demo import demo_graph
from leafage.graphs import Graph, chordal_cliques, clique_graph, parse_graph
from leafage.oracle import enumerate_clique_trees
from leafage.tokens import minimize_leafage
from leafage.vertex_leafage import (
    NoFeasibleBranchingError,
    augmented_graph,
    candidate_branch_sets,
    clique_tree_with_branching,
    simultaneous_optimum,
    vertex_leafage_bounded,
)

PATH_GRAPH = "e a b\ne b c\ne c d\n"


class TestAugmentedGraph:
    def test_marker_adjacency(self):
        g = demo_graph()
        cliques = chordal_cliques(g)
        f = frozenset({(0, 1)})
        gp = augmented_graph(g, cliques, f)
        marker = "edge:0-1"
        assert marker in gp.vertices
        assert gp.neighbors(marker) == cliques[0] | cliques[1]

    def test_markers_of_sharing_edges_adjacent(self):
        g = demo_graph()
        cliques = chordal_cliques(g)
        f = frozenset({(0, 1), (1, 2)})
        gp = augmented_graph(g, cliques, f)
        assert gp.has_edge("edge:0-1", "edge:1-2")


class TestCliqueTreeWithBranching:
    def test_empty_branching_on_interval_graph(self):
        g = parse_graph(PATH_GRAPH)
        t = clique_tree_with_branching(g, frozenset())
        assert t is not None
        assert branching_sets(t).incident_edges == frozenset()

    def test_empty_branching_infeasible_on_demo(self):
        # The demo graph has leafage 3, so no branching-free (path) clique
        # tree exists.
        assert clique_tree_with_branching(demo_graph(), frozenset()) is None

    def test_reproduces_prescribed_branching(self):
        g = demo_graph()
        # Take the branching set of some valid clique tree and ask for it back.
        seen = 0
        for t in enumerate_clique_trees(g):
            f = branching_sets(t).incident_edges
            rebuilt = clique_tree_with_branching(g, f)
            if rebuilt is not None:
                assert branching_sets(rebuilt).incident_edges == f
                ok, _ = verify_clique_tree(g, rebuilt)
                assert ok
                seen += 1
            if seen >= 5:
                break
        assert seen >= 1

    def test_non_edge_rejected(self):
        g = demo_graph()
        cliques = chordal_cliques(g)
        # cliques 3 (ag) and 8 (de) are disjoint.
        with pytest.raises(ValueError, match="not a clique-graph edge"):
            clique_tree_with_branching(g, frozenset({(3, 8)}), cliques)

    def test_oversized_branching_returns_none(self):
        g = parse_graph(PATH_GRAPH)
        cliques = chordal_cliques(g)
        f = frozenset({(0, 1), (1, 2), (0, 2)})
        assert len(f) >= len(cliques)
        assert clique_tree_with_branching(g, f, cliques) is None


class TestCandidateBranchSets:
    def test_contains_empty_set_first(self):
        cg = clique_graph(chordal_cliques(demo_graph()))
        cands = candidate_branch_sets(cg, leafage=3, budget=3)
        assert cands[0] == frozenset()

    def test_candidates_are_star_unions(self):
        cg = clique_graph(chordal_cliques(demo_graph()))
        for f in candidate_branch_sets(cg, leafage=4, budget=6):
            if not f:
                continue
            degree = defaultdict(int)
            for a, b in f:
                degree[a] += 1
                degree[b] += 1
            high = {v for v, d in degree.items() if d >= 3}
            assert high
            assert all(a in high or b in high for a, b in f)
            # Every candidate fits the size budget.
            assert len(f) <= 6

    def test_covers_optimal_branching(self, corpus):
        # For every corpus graph, the safe-budget candidate list contains
        # the branching set of at least one vertex-leafage-optimal tree.
        for g, result in corpus[:40]:
            cliques = chordal_cliques(g)
            if len(cliques) < 2:
                continue
            cg = clique_graph(cliques)
            ell = result.leafage
            budget = min(3 * max(ell - 2, 0), len(cliques) - 1)
            cands = set(candidate_branch_sets(cg, max(ell, 2), budget))
            optimal_fs = {
                branching_sets(t).incident_edges
                for t in enumerate_clique_trees(g)
                if t.max_vertex_leaf_count(g.vertices) == result.vertex_leafage
                and len(t.leaves()) == result.leafage
            }
            assert optimal_fs & cands


class TestVertexLeafageBounded:
    def test_demo_graph(self):
        cert = vertex_leafage_bounded(demo_graph())
        assert cert.value == 2
        assert cert.per_vertex["a"] == 2

    def test_single_clique(self):
        g = Graph.from_edges([], [("a", "b"), ("b", "c"), ("a", "c")])
        cert = vertex_leafage_bounded(g)
        assert cert.value == 0
        assert all(v == 0 for v in cert.per_vertex.values())

    def test_path_runs_front_end_once(self, monkeypatch):
        # For leafage <= 2 the minimized leafage tree is the answer; the
        # graph's cliques must not be derived a second time.
        import leafage.graphs
        import leafage.vertex_leafage

        calls = []
        original = leafage.graphs.maximal_cliques

        def counting(g, peo):
            calls.append(g)
            return original(g, peo)

        for module in (leafage.graphs, leafage.vertex_leafage):
            monkeypatch.setattr(module, "maximal_cliques", counting)
        g = parse_graph(PATH_GRAPH)
        cert = vertex_leafage_bounded(g)
        assert len(calls) == 1
        assert cert.value == 2
        assert cert.tree == minimize_leafage(build_clique_tree(clique_graph(chordal_cliques(g))))

    def test_ell_bound_returns_none(self):
        assert vertex_leafage_bounded(demo_graph(), ell=2) is None

    def test_interval_graph_paper_mode(self):
        g = parse_graph(PATH_GRAPH)
        cert = vertex_leafage_bounded(g, budget_mode="paper")
        assert cert.value == 2

    def test_paper_mode_infeasible_when_leafage_three(self):
        # With leafage 3 the "paper" budget is 1, but any nonempty branching
        # set has at least 3 edges; only the empty set remains and it is
        # infeasible, so the enumeration must fail loudly.
        with pytest.raises(NoFeasibleBranchingError):
            vertex_leafage_bounded(demo_graph(), budget_mode="paper")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="budget mode"):
            vertex_leafage_bounded(demo_graph(), budget_mode="fast")

    def test_disconnected_rejected(self):
        g = Graph.from_edges(["a", "b"], [])
        with pytest.raises(ValueError, match="disconnected"):
            vertex_leafage_bounded(g)

    def test_corpus_matches_oracle(self, corpus):
        for g, result in corpus[:60]:
            cert = vertex_leafage_bounded(g)
            assert cert.value == result.vertex_leafage


class TestBranchingDeterminesLeafCounts:
    def test_equal_branching_equal_counts(self, corpus):
        # Any two clique trees with the same branching edge set give every
        # vertex the same subtree leaf count.
        checked = 0
        for g, _ in corpus:
            if checked >= 15:
                break
            groups = defaultdict(list)
            for t in enumerate_clique_trees(g):
                groups[branching_sets(t).incident_edges].append(t)
            multi = [ts for ts in groups.values() if len(ts) > 1]
            if not multi:
                continue
            checked += 1
            for ts in multi:
                profiles = {
                    tuple(t.vertex_leaf_count(u) for u in g.vertices) for t in ts
                }
                assert len(profiles) == 1
        assert checked >= 5


class TestSimultaneousOptimum:
    def test_demo_graph(self):
        g = demo_graph()
        m, tree = simultaneous_optimum(g)
        report = leaf_report(m)
        assert report.host_leaves == 3
        assert report.max_vertex_leaves == 2

    def test_corpus_matches_both_optima(self, corpus):
        for g, result in corpus[:60]:
            m, tree = simultaneous_optimum(g)
            report = leaf_report(m)
            assert report.host_leaves == result.leafage
            assert report.max_vertex_leaves == result.vertex_leafage


_CORRUPT_CERTIFICATES = {
    "no vertex-leafage certificate": """
vl.vertex_leafage_bounded = lambda g: None
""",
    "moved the vertex leafage": """
import dataclasses
original = vl.vertex_leafage_bounded
vl.vertex_leafage_bounded = lambda g: dataclasses.replace(original(g), value=1)
""",
}


@pytest.mark.parametrize("case", sorted(_CORRUPT_CERTIFICATES))
def test_simultaneous_optimum_check_survives_optimize(case, run_optimized):
    out = run_optimized(
        "import leafage.vertex_leafage as vl\n"
        "from leafage.demo import demo_graph\n"
        "assert False, 'not run under -O'\n"
        + _CORRUPT_CERTIFICATES[case]
        + "try:\n"
        "    vl.simultaneous_optimum(demo_graph())\n"
        "except vl.CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificateError:") and case in out.stdout
