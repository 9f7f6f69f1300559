"""Graph parsing, chordality recognition, and maximal cliques."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from leafage.demo import DEMO_EDGE_LIST, demo_graph
from leafage.graphs import (
    Graph,
    GraphFormatError,
    PerfectEliminationOrder,
    check_chordal,
    chordal_cliques,
    clique_graph,
    format_edge_list,
    is_valid_peo,
    maximal_cliques,
    parse_graph,
)

from conftest import brute_force_has_hole, brute_force_maximal_cliques


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
        assert g.n == 11
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
            assert len(chordal_cliques(g)) <= g.n


class TestCliqueGraph:
    def test_demo_graph_edge_count(self):
        # Independent recount: all intersecting clique pairs.
        cliques = chordal_cliques(demo_graph())
        expected = sum(
            1
            for a, b in itertools.combinations(cliques, 2)
            if a & b
        )
        cg = clique_graph(cliques)
        assert len(cg.edges()) == expected == 23

    def test_weights_are_intersection_sizes(self):
        cliques = chordal_cliques(demo_graph())
        cg = clique_graph(cliques)
        for (i, j), w in cg.weights.items():
            assert w == len(cliques[i] & cliques[j]) >= 1

    def test_incident_and_neighbors_consistent(self):
        # The cached adjacency agrees with a recount from the weights.
        cg = clique_graph(chordal_cliques(demo_graph()))
        for i in range(len(cg.cliques)):
            recount = sorted(e for e in cg.weights if i in e)
            assert cg.incident(i) == recount
            assert list(cg.adjacency[i]) == [b if a == i else a for a, b in recount]
