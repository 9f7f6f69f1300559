"""Best-first branching search and the leaf counts read off a branching set.

The exhaustive search that ``vertex_leafage_bounded`` replaced is kept here
as a reference only: it built a tree for every candidate in (|F|, sorted F)
order, kept the first one of least vertex leafage and stopped at vertex
leafage 2.  Its candidates come from the old generator
(``conftest.reference_candidate_branch_sets``), which also kept sets that are
no tree's branching set or whose trees have fewer leaves than the leafage.
"""

from collections import Counter

from conftest import nae_families, reference_candidate_branch_sets, spider_graph
from leafage.cliquetrees import branching_sets, build_clique_tree
from leafage.gadget import build_gadget, parse_clause_file
from leafage.graphs import chordal_cliques, clique_graph
from leafage.oracle import enumerate_clique_trees
from leafage.tokens import minimize_leafage
from leafage.vertex_leafage import (
    _branching_leaf_counts,
    candidate_branch_sets,
    clique_tree_with_branching,
    vertex_leafage_bounded,
)

NAE_K4 = "k 3\nv1 v2 v3\nv1 v2 v4\nv1 v3 v4\nv2 v3 v4\n"
NAE_6 = "k 3\nv1 v2 v3\nv1 v4 v5\nv2 v4 v6\nv3 v5 v6\n"


def reference_search(g, candidates):
    """Build every candidate's tree; keep the first of least vertex leafage."""
    cliques = chordal_cliques(g)
    best = None
    for f in candidates[1:]:
        tree = clique_tree_with_branching(g, f, cliques)
        if tree is None:
            continue
        vl = tree.max_vertex_leaf_count(g.vertices)
        if best is None or vl < best[0]:
            best = (vl, tree)
        if best[0] <= 2:
            break
    return best


def _search_graphs(corpus):
    """Corpus graphs of leafage >= 3, the 31 NAE gadgets and small spiders."""
    out = [g for g, r in corpus if r.leafage >= 3]
    assert len(out) >= 14
    out += [build_gadget(inst).graph for inst in nae_families()]
    out += [spider_graph(legs, length) for legs in (3, 4, 5) for length in (2, 3)]
    return out


def is_full_star_union(f):
    """Every edge of ``f`` is at a node where ``f`` has degree >= 3."""
    degree = Counter(x for e in f for x in e)
    return all(max(degree[a], degree[b]) >= 3 for a, b in f)


def test_search_and_generator_match_references(corpus):
    """The reference's sets of leafage-leaf trees, once each; the exhaustive search's tree."""
    graphs = _search_graphs(corpus)
    for g in graphs:
        cliques = chordal_cliques(g)
        cg = clique_graph(cliques)
        leafage = len(minimize_leafage(build_clique_tree(cg)).leaves())
        assert leafage >= 3
        budget = min(3 * (leafage - 2), len(cliques) - 1)
        reference = reference_candidate_branch_sets(cg, leafage, budget)
        candidates = candidate_branch_sets(cg, leafage)
        assert len(set(candidates)) == len(candidates)
        assert candidates == [
            f for f in reference
            if is_full_star_union(f) and _branching_leaf_counts(cliques, f)[0] == leafage
        ]
        vl, tree = reference_search(g, reference)
        cert = vertex_leafage_bounded(g)
        assert cert.value == vl
        assert cert.tree.edges == tree.edges
    assert len(graphs) >= 14 + 31 + 6


def test_candidates_lie_in_clique_trees(corpus):
    """Every candidate is a subset of some enumerated clique tree."""
    candidates = 0
    for g in _search_graphs(corpus):
        trees = list(enumerate_clique_trees(g))
        leafage = min(len(t.leaves()) for t in trees)
        for f in candidate_branch_sets(clique_graph(chordal_cliques(g)), leafage):
            assert any(f <= t.edges for t in trees)
            candidates += 1
    assert candidates > 1000


def test_spider_sets_are_generated_once():
    """spider(6, 2): 1,296 sets, each a union of full stars with six leaves."""
    cliques = chordal_cliques(spider_graph(6, 2))
    candidates = candidate_branch_sets(clique_graph(cliques), 6)
    assert len(candidates) == len(set(candidates)) == 1296
    for f in candidates:
        assert is_full_star_union(f)
        assert _branching_leaf_counts(cliques, f)[0] == 6


def _identity_graphs(corpus):
    out = [g for g, _ in corpus if len(chordal_cliques(g)) >= 2]
    out += [build_gadget(parse_clause_file(text)).graph for text in (NAE_K4, NAE_6)]
    return out


def test_leaf_counts_follow_from_branching_set(corpus):
    """On every clique tree: host and per-vertex leaf counts from F alone."""
    trees = 0
    for g in _identity_graphs(corpus):
        cliques = chordal_cliques(g)
        multi = {u for u in g.vertices if sum(u in c for c in cliques) > 1}
        for t in enumerate_clique_trees(g):
            f = branching_sets(t).incident_edges
            host, extra = _branching_leaf_counts(cliques, f)
            assert host == len(t.leaves())
            assert 2 + max(extra.values(), default=0) == t.max_vertex_leaf_count(g.vertices)
            for u in g.vertices:
                assert t.vertex_leaf_count(u) == (2 + extra[u] if u in multi else 0)
            trees += 1
    assert trees > 1000
