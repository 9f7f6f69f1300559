"""Graph parsing, chordality recognition, and maximal cliques."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import leafage.graphs
from leafage.demo import DEMO_EDGE_LIST, demo_graph
from leafage.gadget import NaeInstance, build_gadget
from leafage.graphs import (
    Cliques,
    Graph,
    GraphFormatError,
    PerfectEliminationOrder,
    check_chordal,
    chordal_cliques,
    clique_graph,
    format_edge_list,
    maximal_cliques,
    parse_graph,
    _mcs,
)
from leafage.oracle import random_chordal
from leafage.vertex_leafage import augmented_graph

from conftest import (
    brute_force_has_hole,
    brute_force_maximal_cliques,
    count_calls,
    is_valid_peo,
    reference_candidate_branch_sets,
    reference_component_count,
    reference_parse_graph,
)


def small_graphs(max_n=7):
    """Hypothesis strategy for arbitrary small simple graphs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        verts = [f"v{i}" for i in range(n)]
        pairs = list(itertools.combinations(verts, 2))
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [p for p, keep in zip(pairs, mask) if keep]
        return Graph.from_edges(verts, edges)

    return build()


class TestParseGraph:
    def test_single_vertex(self):
        g = parse_graph("v a\n")
        assert g.vertices == ("a",)
        assert g.edges() == []

    def test_demo_graph_shape(self):
        g = parse_graph(DEMO_EDGE_LIST)
        assert len(g.vertices) == 11
        assert len(g.edges()) == 15

    def test_duplicate_edge_rejected_with_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("e a b\ne a b\n")
        assert exc.value.line == 2

    def test_duplicate_edge_reversed_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph("e a b\ne b a\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("e a a\n")
        assert exc.value.line == 1

    def test_bad_name_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph("e a b-c\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("x a b\n")
        assert exc.value.line == 1

    def test_comments_and_blank_lines_ignored(self):
        g = parse_graph("# header\n\ne a b  # trailing\n")
        assert g.edges() == [("a", "b")]

    def test_isolated_vertex_retained(self):
        g = parse_graph("v z\ne a b\n")
        assert "z" in g.vertices

    def test_format_round_trip(self):
        g = parse_graph("v z\ne a b\ne b c\n")
        assert parse_graph(format_edge_list(g)) == g

    @pytest.mark.parametrize(
        "doc",
        [
            "v b-c\n",
            "e a b\nv a.b\n",
            "e a b\ne b a\n",
            "e a b\r\n\te  b\ta  # again\n",
            "e a a\n",
            "e a b\nv a\nv c\n",
            "v v\ne e v\n",
            "# only a comment\n\n \t\n",
            "e a b c\n",
            "v\n",
            "e a é\n",
            "x a b\n",
            "e a#b c\n",
        ],
    )
    def test_matches_reference_parser_on(self, doc):
        self._compare(doc)

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_reference_parser(self, data):
        # Documents of "e" and "v" lines, blank, whitespace-only and comment
        # lines, lines of the wrong arity and unknown directives, with
        # names from a small pool (so duplicate edges in both orientations,
        # self-loops and "v" after "e" come up) that holds a few bad names.
        # Half the documents are kept to good names, no loops and known
        # directives, so that most of them parse.
        clean = data.draw(st.booleans())
        good = ["a", "b", "c", "d", "x_1", "B2", "v", "e"]
        name = st.sampled_from(good if clean else good * 2 + ["b-c", "é", "a.b"])
        gap = st.sampled_from([" ", "\t", "  ", " \t"])
        lead = st.sampled_from(["", "", " ", "\t"])
        tail = st.sampled_from(["", "", " ", "\t", "# note", "  #e a b", "#"])
        kinds = ["e"] * 6 + ["v"] * 2 + ["blank", "comment"] + ([] if clean else ["arity", "unknown"])
        lines = []
        for _ in range(data.draw(st.integers(0, 10))):
            kind = data.draw(st.sampled_from(kinds))
            if kind == "blank":
                lines.append(data.draw(st.sampled_from(["", " ", "\t", " \t "])))
                continue
            if kind == "comment":
                lines.append(data.draw(st.sampled_from(["#", "# e a a", " \t# v b-c"])))
                continue
            if kind == "e":
                u = data.draw(name)
                fields = ["e", u, data.draw(name.filter(lambda v: v != u) if clean else name)]
            elif kind == "v":
                fields = ["v", data.draw(name)]
            else:
                head = ["e", "v"] if kind == "arity" else ["x", "E", "ve"]
                fields = [data.draw(st.sampled_from(head)), *data.draw(st.lists(name, max_size=3))]
            lines.append(data.draw(lead) + data.draw(gap).join(fields) + data.draw(tail))
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        self._compare(end.join(lines) + data.draw(st.sampled_from(["", end])))

    @staticmethod
    def _compare(doc):
        # The same graph, or the same error message on the same line.
        try:
            expected = reference_parse_graph(doc)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                parse_graph(doc)
            assert (str(got.value), got.value.line) == (str(exc), exc.line)
        else:
            g = parse_graph(doc)
            assert (g.vertices, g.adjacency) == (expected.vertices, expected.adjacency)


class TestCheckChordal:
    def test_four_cycle_witness(self):
        g = Graph.from_edges([], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        result = check_chordal(g)
        assert isinstance(result, tuple)
        assert sorted(result) == ["a", "b", "c", "d"]

    def test_complete_graph_any_order(self):
        g = Graph.from_edges([], list(itertools.combinations("abcd", 2)))
        result = check_chordal(g)
        assert isinstance(result, PerfectEliminationOrder)

    def test_demo_graph_chordal(self):
        result = check_chordal(demo_graph())
        assert isinstance(result, PerfectEliminationOrder)
        assert is_valid_peo(demo_graph(), result.order)

    def test_six_cycle_witness_is_induced(self):
        g = Graph.from_edges(
            [], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a")]
        )
        result = check_chordal(g)
        assert isinstance(result, tuple)
        assert len(result) >= 4

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_matches_brute_force_hole_search(self, g):
        result = check_chordal(g)
        has_hole = brute_force_has_hole(g)
        if isinstance(result, PerfectEliminationOrder):
            assert not has_hole
            assert is_valid_peo(g, result.order)
        else:
            assert has_hole
            # The witness really is an induced cycle of length >= 4.
            k = len(result)
            assert k >= 4
            for i, j in itertools.combinations(range(k), 2):
                adjacent = g.has_edge(result[i], result[j])
                consecutive = j - i == 1 or (i == 0 and j == k - 1)
                assert adjacent == consecutive


class TestMaximalCliques:
    def test_demo_graph_nine_cliques(self):
        g = demo_graph()
        expected = [
            "abc", "acd", "adf", "ag", "ah", "bci", "cdk", "cj", "de",
        ]
        cliques = chordal_cliques(g)
        assert ["".join(sorted(c)) for c in cliques] == expected

    def test_invalid_peo_rejected(self):
        g = demo_graph()
        bad = PerfectEliminationOrder(tuple(sorted(g.vertices)))
        if is_valid_peo(g, bad.order):
            pytest.skip("sorted order happens to be a valid elimination order")
        with pytest.raises(ValueError):
            maximal_cliques(g, bad)

    def test_non_chordal_raises_with_witness(self):
        g = Graph.from_edges([], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        with pytest.raises(ValueError, match="induced cycle"):
            chordal_cliques(g)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(max_n=6))
    def test_matches_brute_force_cliques(self, g):
        result = check_chordal(g)
        if not isinstance(result, PerfectEliminationOrder):
            return
        assert list(maximal_cliques(g, result)) == brute_force_maximal_cliques(g)

    def test_clique_count_at_most_n(self, corpus):
        for g, _ in corpus[:50]:
            assert len(chordal_cliques(g)) <= len(g.vertices)


class TestCliqueWeights:
    def test_demo_graph_edge_count(self):
        # Independent recount: all intersecting clique pairs.
        cliques = chordal_cliques(demo_graph())
        expected = sum(
            1
            for a, b in itertools.combinations(cliques, 2)
            if a & b
        )
        cg = clique_graph(cliques)
        assert len(cg.weights) == expected == 23

    def test_weights_are_intersection_sizes(self, graphs):
        # The holder count, which skips vertices held by one clique, against
        # len(C_i & C_j) over all pairs, on the demo, the corpus, spiders,
        # gadgets and larger random graphs; a fresh family, so nothing is cached.
        larger = [random_chordal(n, density=d, seed=s) for n in (40, 80) for d in (0.3, 0.6) for s in range(3)]
        for g in [demo_graph(), *graphs, *larger]:
            cliques = Cliques(tuple(chordal_cliques(g)))
            assert list(cliques.weights.items()) == list(_pairwise_weights(cliques).items())


# Reference versions of the front end, as it was before the one-pass
# elimination check: a pairwise test of every later-neighbour pair, a
# subset filter over the candidate cliques, and all k^2 clique pairs.


def _pairwise_is_valid_peo(g, order):
    seq = list(order)
    if sorted(seq) != list(g.vertices):
        return False
    position = {v: i for i, v in enumerate(seq)}
    for i, v in enumerate(seq):
        later = [w for w in g.adjacency[v] if position[w] > i]
        if any(not g.has_edge(a, b) for a, b in itertools.combinations(later, 2)):
            return False
    return True


def _subset_filter_cliques(g, order):
    position = {v: i for i, v in enumerate(order)}
    candidates = {
        frozenset(w for w in g.adjacency[v] if position[w] > i) | {v}
        for i, v in enumerate(order)
    }
    cliques = [c for c in candidates if not any(c < other for other in candidates)]
    cliques.sort(key=lambda c: tuple(sorted(c)))
    return tuple(cliques)


def _pairwise_weights(cliques):
    weights = {}
    for i, j in itertools.combinations(range(len(cliques)), 2):
        common = cliques[i] & cliques[j]
        if common:
            weights[(i, j)] = len(common)
    return weights


def _simplicial_order(g, pick):
    """An elimination order removing a simplicial vertex while one exists.

    ``pick`` chooses among the candidates, so on a chordal graph every
    perfect elimination order can come out; once none is left (a hole) the
    remaining vertices follow in sorted order.
    """
    remaining = set(g.vertices)
    order = []
    while remaining:
        simplicial = [
            v for v in sorted(remaining)
            if all(
                g.has_edge(a, b)
                for a, b in itertools.combinations(sorted(g.adjacency[v] & remaining), 2)
            )
        ]
        if not simplicial:
            return order + sorted(remaining)
        v = pick(simplicial)
        order.append(v)
        remaining.discard(v)
    return order


@st.composite
def graphs_with_orders(draw):
    g = draw(small_graphs())
    if draw(st.booleans()):
        order = draw(st.permutations(g.vertices))
    else:
        order = _simplicial_order(g, lambda vs: draw(st.sampled_from(vs)))
    return g, list(order)


def _assert_matches_references(g, order):
    valid = _pairwise_is_valid_peo(g, order)
    assert is_valid_peo(g, order) == valid
    if not valid:
        with pytest.raises(ValueError):
            maximal_cliques(g, PerfectEliminationOrder(tuple(order)))
        return
    cliques = maximal_cliques(g, PerfectEliminationOrder(tuple(order)))
    assert cliques == _subset_filter_cliques(g, order)
    # Same pairs, same weights, same key order.
    assert list(clique_graph(cliques).weights.items()) == list(_pairwise_weights(cliques).items())


class TestOnePassFrontEnd:
    """The one elimination pass and the vertex-count clique graph agree with the references."""

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_orders())
    def test_random_orders(self, case):
        _assert_matches_references(*case)

    def test_orders_that_are_not_permutations(self):
        g = demo_graph()
        order = list(check_chordal(g).order)
        for bad in (order[:-1], order + order[:1], order[:-1] + order[:1]):
            assert not is_valid_peo(g, bad)

    def test_corpus(self, corpus):
        rng = random.Random(5)
        valid = invalid = 0
        for g, _ in corpus:
            orders = [list(_mcs(g)[0]), _simplicial_order(g, rng.choice)]
            orders += [rng.sample(g.vertices, len(g.vertices)) for _ in range(3)]
            for order in orders:
                _assert_matches_references(g, order)
                ok = is_valid_peo(g, order)
                valid += ok
                invalid += not ok
        assert valid > 400 and invalid > 100

    def test_augmented_gadget_graphs(self):
        rng = random.Random(11)
        valid = invalid = 0
        for clauses in (
            [("v1", "v2", "v3"), ("v1", "v4", "v5"), ("v2", "v4", "v6"), ("v3", "v5", "v6")],
            [("v1", "v2", "v3"), ("v1", "v4", "v5"), ("v2", "v4", "v6")],
        ):
            g = build_gadget(NaeInstance.create([frozenset(c) for c in clauses], 3)).graph
            cliques = chordal_cliques(g)
            cg = clique_graph(cliques)
            for f in reference_candidate_branch_sets(cg, len(cliques) - 1, 4)[:60]:
                gp = augmented_graph(g, cliques, f)
                orders = [list(_mcs(gp)[0]), _simplicial_order(gp, rng.choice)]
                orders += [rng.sample(gp.vertices, len(gp.vertices)) for _ in range(2)]
                for order in orders:
                    _assert_matches_references(gp, order)
                    ok = is_valid_peo(gp, order)
                    valid += ok
                    invalid += not ok
        assert valid > 100 and invalid > 100


def _scan_mcs_order(g):
    # Reference: maximum-cardinality search picking the next vertex by a
    # scan of all unvisited ones, as before the heap.
    weight = {v: 0 for v in g.vertices}
    unvisited = set(g.vertices)
    visit = []
    while unvisited:
        best = min(unvisited, key=lambda v: (-weight[v], v))
        unvisited.discard(best)
        visit.append(best)
        for w in g.adjacency[best]:
            if w in unvisited:
                weight[w] += 1
    visit.reverse()
    return visit


_C4 = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]


class TestOneSearchPass:
    """The search's component count, and one pass per graph for every reader."""

    # Disconnected and non-chordal graphs, each with and without the other.
    @settings(max_examples=300, deadline=None)
    @given(small_graphs(max_n=9))
    @example(Graph.from_edges(["x", "y"], _C4))
    @example(Graph.from_edges([], _C4 + [("p", "q"), ("q", "r")]))
    @example(Graph.from_edges(["x"], [("a", "b"), ("b", "c")]))
    @example(Graph.from_edges([], []))
    def test_component_count(self, g):
        count = reference_component_count(g)
        assert _mcs(g)[2] == count
        assert g.is_connected() == (count <= 1)

    @pytest.mark.parametrize("chordal", [True, False])
    def test_connectivity_then_cliques_one_pass(self, monkeypatch, chordal):
        calls = count_calls(monkeypatch, leafage.graphs, "_mcs")
        g = Graph.from_edges([], _C4 + [("a", "c")] * chordal)
        assert g.is_connected()
        if chordal:
            assert len(chordal_cliques(g)) == 2
        else:
            with pytest.raises(ValueError, match="induced cycle"):
                chordal_cliques(g)
        check_chordal(g)
        assert len(calls) == 1


class TestMcsOrder:
    """The heap search visits in the same order as the full scan, ties included."""

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(max_n=9))
    def test_arbitrary_graphs(self, g):
        assert list(_mcs(g)[0]) == _scan_mcs_order(g)

    def test_corpus_and_larger_graphs(self, corpus):
        graphs = [g for g, _ in corpus]
        graphs.append(Graph.from_edges([], [(f"p{i:03d}", f"p{i + 1:03d}") for i in range(299)]))
        rng = random.Random(3)
        for n in (40, 80):
            verts = [f"x{i}" for i in range(n)]
            pairs = itertools.combinations(verts, 2)
            graphs.append(Graph.from_edges(verts, [p for p in pairs if rng.random() < 0.1]))
        for g in graphs:
            assert list(_mcs(g)[0]) == _scan_mcs_order(g)


_CORRUPT_HOLE_SEARCHES = {
    # A hole search whose witness fails the induced-cycle check.
    "is not an induced cycle": """
graphs._is_induced_cycle = lambda g, cycle: False
g = Graph.from_edges([], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
""",
    # An imperfect order on a chordal graph: the hole search finds nothing.
    "has no hole": """
# b, a, c: b is eliminated first, with its later neighbours a and c.
graphs._mcs = lambda g: (("b", "a", "c"), [{1, 2}, set(), set()], 1)
g = Graph.from_edges([], [("a", "b"), ("b", "c")])
""",
}


@pytest.mark.parametrize("case", sorted(_CORRUPT_HOLE_SEARCHES))
def test_hole_checks_survive_optimize(case, run_optimized):
    out = run_optimized(
        "import leafage.graphs as graphs\n"
        "from leafage.graphs import CertificateError, Graph\n"
        "assert False, 'not run under -O'\n"
        + _CORRUPT_HOLE_SEARCHES[case]
        + "try:\n"
        "    graphs.check_chordal(g)\n"
        "except CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificateError:") and case in out.stdout


def test_certificate_error_is_one_class():
    import leafage
    import leafage.graphs
    import leafage.tokens

    assert leafage.CertificateError is leafage.tokens.CertificateError is leafage.graphs.CertificateError
