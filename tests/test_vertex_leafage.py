"""Prescribed-branching clique trees and exact vertex leafage."""

from collections import defaultdict

import pytest

import leafage.graphs
import leafage.vertex_leafage
from conftest import (
    branch_set_layers,
    check_clique_tree_of,
    count_calls,
    enumerate_clique_trees,
    forced_cut,
    reference_clique_tree_with_branching,
    reference_ranked_branch_sets,
    spider_graph,
)
from leafage.cliquetrees import branching_sets, build_clique_tree, leaf_report
from leafage.demo import demo_graph
from leafage.gadget import build_gadget, parse_clause_file
from leafage.graphs import Cliques, Graph, chordal_cliques, clique_graph, parse_graph
from leafage.oracle import oracle_optima, random_chordal
from leafage.tokens import minimize_leafage
from leafage.vertex_leafage import (
    _branching_leaf_counts,
    augmented_graph,
    candidate_branch_sets,
    clique_tree_with_branching,
    simultaneous_optimum,
    vertex_leafage_bounded,
)

PATH_GRAPH = "e a b\ne b c\ne c d\n"
NAE_K4 = "k 3\nv1 v2 v3\nv1 v2 v4\nv1 v3 v4\nv2 v3 v4\n"
NAE_6 = "k 3\nv1 v2 v3\nv1 v4 v5\nv2 v4 v6\nv3 v5 v6\n"


class TestAugmentedGraph:
    def test_marker_adjacency(self):
        g = demo_graph()
        cliques = chordal_cliques(g)
        f = frozenset({(0, 1)})
        gp = augmented_graph(g, cliques, f)
        marker = "edge:0-1"
        assert marker in gp.vertices
        assert gp.adjacency[marker] == cliques[0] | cliques[1]

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
                check_clique_tree_of(g, rebuilt)
                seen += 1
            if seen >= 5:
                break
        assert seen >= 1

    def test_non_edge_rejected(self):
        g = demo_graph()
        cliques = chordal_cliques(g)
        # cliques 3 (ag) and 8 (de) are disjoint.
        assert not cliques[3] & cliques[8]
        with pytest.raises(ValueError, match="not a clique-graph edge"):
            clique_tree_with_branching(g, frozenset({(3, 8)}))

    def test_malformed_edge_ids_rejected(self):
        # A realizable set, then the same set as reversed pairs, with
        # negative ids, and with an id past the last clique.
        g = demo_graph()
        k = len(chordal_cliques(g))
        f = frozenset({(0, 1), (1, 2), (1, 6)})
        assert clique_tree_with_branching(g, f) is not None
        for bad in (
            frozenset((j, i) for i, j in f),
            frozenset((i - k, j - k) for i, j in f),
            frozenset({(0, 1), (1, 2), (1, k)}),
        ):
            with pytest.raises(ValueError, match="not a clique-graph edge"):
                clique_tree_with_branching(g, bad)

    def test_no_elimination_pass_when_cliques_given(self, monkeypatch):
        # The marked cliques are built directly, and the graph's own clique
        # list is the one it already has: no graph is decided chordal.
        g = demo_graph()
        chordal_cliques(g)
        f = branching_sets(vertex_leafage_bounded(g).tree).incident_edges
        peo_calls = count_calls(monkeypatch, leafage.graphs, "_peo_cliques")
        mcs_calls = count_calls(monkeypatch, leafage.graphs, "_mcs")
        assert clique_tree_with_branching(g, f) is not None
        assert peo_calls == mcs_calls == []

    def test_set_no_clique_tree_holds_returns_none(self, monkeypatch):
        # Three cliques in a chain; the light edge (0, 2) joins the two ends,
        # so no clique tree holds it and no tree reaches the minimizer.
        g = parse_graph("e v1 v2\ne v1 v3\ne v2 v3\ne v2 v4\ne v3 v4\ne v3 v5\ne v4 v5\n")
        cliques = chordal_cliques(g)
        f = frozenset({(0, 2)})
        assert cliques[0] & cliques[2] == {"v3"}
        calls = count_calls(monkeypatch, leafage.vertex_leafage, "minimize_leafage")
        assert clique_tree_with_branching(g, f) is None
        assert calls == []
        assert reference_clique_tree_with_branching(g, f, cliques) is None

    def test_disconnected_graph_rejected(self):
        g = parse_graph("e a b\ne c d\n")
        with pytest.raises(ValueError, match="clique graph is disconnected"):
            clique_tree_with_branching(g, frozenset())

    def test_oversized_branching_returns_none(self):
        # K_{1,3}: the three cliques meet pairwise at the centre, so all
        # three pairs are clique-graph edges, and no tree holds all three.
        g = parse_graph("e c x\ne c y\ne c z\n")
        cliques = chordal_cliques(g)
        f = frozenset({(0, 1), (1, 2), (0, 2)})
        assert len(f) >= len(cliques)
        assert clique_tree_with_branching(g, f) is None

    def test_cyclic_branching_returns_none_unbuilt(self, monkeypatch):
        # K_{1,4}: fewer pairs than cliques, but three that close a cycle,
        # so the centre-ban check returns None before any tree is built.
        g = parse_graph("e c w\ne c x\ne c y\ne c z\n")
        f = frozenset({(0, 1), (1, 2), (0, 2)})
        assert len(f) < len(chordal_cliques(g))
        calls = count_calls(monkeypatch, leafage.vertex_leafage, "build_clique_tree")
        assert clique_tree_with_branching(g, f) is None
        assert calls == []

    def test_oversized_malformed_branching_raises(self):
        # The path's end cliques are disjoint: the pair is checked before
        # the size of the set is.
        g = parse_graph(PATH_GRAPH)
        f = frozenset({(0, 1), (1, 2), (0, 2)})
        assert len(f) >= len(chordal_cliques(g))
        with pytest.raises(ValueError, match=r"\(0, 2\) is not a clique-graph edge"):
            clique_tree_with_branching(g, f)


class TestCandidateBranchSets:
    def test_leafage_two_is_empty_and_sets_are_unique(self):
        # A path has no branching set to enumerate, nor has a floor above
        # leafage - 2; the layers list the rank-everything order's sets
        # that obey the forced-pair rules, each set once.
        cg = clique_graph(chordal_cliques(demo_graph()))
        assert candidate_branch_sets(cg, leafage=2) == []
        assert candidate_branch_sets(cg, leafage=1) == []
        for leafage in (3, 4, 5):
            assert candidate_branch_sets(cg, leafage, leafage - 1) == []
            cands = [f for layer in branch_set_layers(cg, leafage) for f in layer]
            assert cands and len(set(cands)) == len(cands)
            assert cands == forced_cut(cg, reference_ranked_branch_sets(cg, leafage))

    def test_candidates_are_star_unions(self):
        cg = clique_graph(chordal_cliques(demo_graph()))
        for layer in branch_set_layers(cg, leafage=4):
            for f in layer:
                degree = defaultdict(int)
                for a, b in f:
                    degree[a] += 1
                    degree[b] += 1
                high = {v for v, d in degree.items() if d >= 3}
                assert high
                assert all(a in high or b in high for a, b in f)
                # |F| <= 3 * (leafage - 2).
                assert len(f) <= 6

    def test_covers_optimal_branching(self, corpus):
        # For every graph of leafage >= 3, the layers contain the branching
        # set of at least one vertex-leafage-optimal tree.
        graphs = [(g, result) for g, result in corpus if result.leafage >= 3]
        for text in (NAE_K4, NAE_6):
            g = build_gadget(parse_clause_file(text)).graph
            graphs.append((g, oracle_optima(g)))
        for g, result in graphs:
            cg = clique_graph(chordal_cliques(g))
            cands = {f for layer in branch_set_layers(cg, result.leafage) for f in layer}
            optimal_fs = {
                branching_sets(t).incident_edges
                for t in enumerate_clique_trees(g)
                if t.max_vertex_leaf_count(g.vertices) == result.vertex_leafage
                and len(t.leaves()) == result.leafage
            }
            assert optimal_fs & cands
        assert len(graphs) >= 14 + 2


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
        # graph's connectivity and cliques come from exactly one search
        # pass and one elimination check.
        searches = count_calls(monkeypatch, leafage.graphs, "_mcs")
        checks = count_calls(monkeypatch, leafage.graphs, "_peo_cliques")
        g = parse_graph(PATH_GRAPH)
        cert = vertex_leafage_bounded(g)
        assert len(searches) == len(checks) == 1
        assert cert.value == 2
        assert cert.tree == minimize_leafage(build_clique_tree(clique_graph(chordal_cliques(g))))

    @pytest.mark.parametrize("make", [demo_graph, lambda: spider_graph(5, 3)], ids=["demo", "spider-5-3"])
    def test_one_elimination_pass(self, monkeypatch, make):
        # The graph's connectivity and clique list come from one search
        # pass; every candidate's tree and the certificate check read it.
        g = make()
        calls = count_calls(monkeypatch, leafage.graphs, "_mcs")
        vertex_leafage_bounded(g)
        assert len(calls) == 1

    def test_spider_builds_one_tree(self, monkeypatch):
        # The first set of spider(5, 3)'s least layer is realizable, so exactly
        # one tree is built (building every candidate's tree took 321).
        calls = count_calls(monkeypatch, leafage.vertex_leafage, "clique_tree_with_branching")
        assert vertex_leafage_bounded(spider_graph(5, 3)).value == 2
        assert len(calls) == 1

    def test_candidates_below_the_leafage_are_never_built(self, monkeypatch):
        # A set whose trees would have fewer leaves than the leafage cannot be
        # realized, so its tree is never asked for.
        g = build_gadget(parse_clause_file(NAE_6)).graph
        calls = count_calls(monkeypatch, leafage.vertex_leafage, "clique_tree_with_branching")
        assert vertex_leafage_bounded(g).value == 3
        cliques = chordal_cliques(g)
        assert calls and all(_branching_leaf_counts(cliques, f)[0] >= 6 for _, f in calls)

    def test_ell_bound_returns_none(self):
        assert vertex_leafage_bounded(demo_graph(), ell=2) is None

    def test_disconnected_rejected(self):
        g = Graph.from_edges(["a", "b"], [])
        with pytest.raises(ValueError, match="disconnected"):
            vertex_leafage_bounded(g)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="graph is empty"):
            vertex_leafage_bounded(Graph.from_edges([], []))

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
    @pytest.mark.parametrize(
        "g",
        [
            # An interval chain: cliques {s_i, s_i+1, t_i} on a line.
            Graph.from_edges(
                [],
                [e for i in range(12) for e in
                 ((f"s{i}", f"s{i + 1}"), (f"s{i}", f"t{i}"), (f"s{i + 1}", f"t{i}"))],
            ),
            random_chordal(16, density=0.3, seed=5),
        ],
        ids=["interval-chain", "random-16-0.3-5"],
    )
    def test_vertex_holders_built_once_per_clique_list(self, monkeypatch, g):
        calls = count_calls(monkeypatch, Cliques.__dict__["holders"], "func")
        simultaneous_optimum(g)
        lists = [tuple(family) for (family,) in calls]
        assert tuple(chordal_cliques(g)) in lists
        assert len(lists) == len(set(lists))

    def test_demo_graph(self):
        g = demo_graph()
        m, tree = simultaneous_optimum(g)
        report = leaf_report(m)
        assert report.host_leaves == 3
        assert report.max_vertex_leaves == 2

    def test_path_minimized_once(self, monkeypatch):
        # The path tree of vertex_leafage_bounded already has minimum
        # leafage; the model is not minimized a second time.
        calls = count_calls(monkeypatch, leafage.vertex_leafage, "minimize_leafage")
        m, tree = simultaneous_optimum(parse_graph(PATH_GRAPH))
        assert len(calls) == 1
        assert leaf_report(m).host_leaves == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="graph is empty"):
            simultaneous_optimum(Graph.from_edges([], []))

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


def test_no_realizable_candidate_raises_under_optimize(run_optimized):
    # Some candidate always realizes a graph of leafage >= 3; with none
    # left the certificate is missing, which must raise even under -O.
    out = run_optimized(
        "import leafage.vertex_leafage as vl\n"
        "from leafage.demo import demo_graph\n"
        "assert False, 'not run under -O'\n"
        "vl.candidate_branch_sets = lambda cg, leafage, floor=0: [frozenset()]\n"
        "try:\n"
        "    vl.vertex_leafage_bounded(demo_graph())\n"
        "except vl.CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificateError:") and "no branching set" in out.stdout


def test_wrong_tree_raises_under_optimize(run_optimized):
    # A tree whose leaf counts differ from its branching set's is caught by
    # the second derivation even with asserts stripped.
    out = run_optimized(
        "import leafage.vertex_leafage as vl\n"
        "from leafage.cliquetrees import CliqueTree\n"
        "from leafage.demo import demo_graph\n"
        "from leafage.graphs import chordal_cliques\n"
        "from leafage.oracle import _walk\n"
        "assert False, 'not run under -O'\n"
        "g = demo_graph()\n"
        "trees = [CliqueTree(chordal_cliques(g), frozenset(c)) for _, _, c in _walk(g, None)]\n"
        "worst = max(trees, key=lambda t: t.max_vertex_leaf_count(g.vertices))\n"
        "vl.clique_tree_with_branching = lambda g, f: worst\n"
        "try:\n"
        "    vl.vertex_leafage_bounded(g)\n"
        "except vl.CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificateError:") and "leaf counts differ" in out.stdout


def test_tree_with_more_leaves_raises_under_optimize(run_optimized):
    # The demo graph has leafage 3.  A realizable branching set of a 4-leaf
    # tree passes the per-vertex check, but not the host leaf count.
    out = run_optimized(
        "import leafage.vertex_leafage as vl\n"
        "from leafage.cliquetrees import CliqueTree, branching_sets\n"
        "from leafage.demo import demo_graph\n"
        "from leafage.graphs import chordal_cliques\n"
        "from leafage.oracle import _walk\n"
        "assert False, 'not run under -O'\n"
        "g = demo_graph()\n"
        "trees = [CliqueTree(chordal_cliques(g), frozenset(c)) for _, _, c in _walk(g, None)]\n"
        "four = next(t for t in trees if len(t.leaves()) == 4)\n"
        "f = branching_sets(four).incident_edges\n"
        "vl.candidate_branch_sets = lambda cg, leafage, floor=0: [f]\n"
        "try:\n"
        "    vl.vertex_leafage_bounded(g)\n"
        "except vl.CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificateError:") and "4 leaves, not the leafage 3" in out.stdout
