"""Layered branching search and the leaf counts read off a branching set.

The exhaustive search that ``vertex_leafage_bounded`` replaced is kept here
as a reference only: it built a tree for every candidate in (|F|, sorted F)
order, kept the first one of least vertex leafage and stopped at vertex
leafage 2.  Its candidates come from the old generator
(``conftest.reference_candidate_branch_sets``), which also kept sets that are
no tree's branching set or whose trees have fewer leaves than the leafage.
The rank-everything order the layers replaced is
``conftest.reference_ranked_branch_sets``; the generator lists the sets of
it that ``conftest.forced_cut`` keeps, those that obey the two rules on the
pairs every clique tree holds (``conftest.reference_forced``).
"""

import pytest

import leafage.tokens
import leafage.vertex_leafage
from conftest import (
    FANO,
    branch_set_layers,
    count_calls,
    enumerate_clique_trees,
    forced_cut,
    is_full_star_union,
    nae_families,
    reference_candidate_branch_sets,
    reference_clique_tree_with_branching,
    reference_forced,
    reference_ranked_branch_sets,
    spider_graph,
    vertex_excess,
)
from leafage.cliquetrees import branching_sets, build_clique_tree
from leafage.gadget import NaeInstance, build_gadget, parse_clause_file
from leafage.graphs import Forest, chordal_cliques, clique_graph
from leafage.oracle import OracleLimitError, _walk, oracle_optima, random_chordal
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
    best = None
    for f in candidates[1:]:
        tree = clique_tree_with_branching(g, f)
        if tree is None:
            continue
        vl = tree.max_vertex_leaf_count(g.vertices)
        if best is None or vl < best[0]:
            best = (vl, tree)
        if best[0] <= 2:
            break
    return best


@pytest.fixture(scope="module")
def search_graphs(corpus):
    """Corpus graphs of leafage >= 3, the 31 NAE gadgets and small spiders.

    Each with its clique graph, leafage and the reference ranking.
    """
    graphs = [g for g, r in corpus if r.leafage >= 3]
    assert len(graphs) >= 14
    graphs += [build_gadget(inst).graph for inst in nae_families()]
    graphs += [spider_graph(legs, length) for legs in (3, 4, 5) for length in (2, 3)]
    out = []
    for g in graphs:
        cg = clique_graph(chordal_cliques(g))
        leafage = len(minimize_leafage(build_clique_tree(cg)).leaves())
        assert leafage >= 3
        out.append((g, cg, leafage, reference_ranked_branch_sets(cg, leafage)))
    return out


@pytest.fixture(scope="module")
def reference_candidates(search_graphs):
    """The old generator's sets for each search graph, in the same order."""
    out = []
    for _, cg, leafage, _ in search_graphs:
        budget = min(3 * (leafage - 2), len(cg) - 1)
        out.append(reference_candidate_branch_sets(cg, leafage, budget))
    return out


def test_search_and_generator_match_references(search_graphs, reference_candidates):
    """The layers list the reference ranking's sets that obey the forced-pair rules, once each.

    The search returns the exhaustive search's tree.
    """
    for (g, cg, leafage, ranked), old_sets in zip(search_graphs, reference_candidates):
        layers = branch_set_layers(cg, leafage)
        candidates = [f for layer in layers for f in layer]
        assert len(set(candidates)) == len(candidates)
        assert candidates == forced_cut(cg, ranked)
        excess = [vertex_excess(cg, layer[0]) for layer in layers]
        assert excess == sorted(set(excess))
        for e, layer in zip(excess, layers):
            assert {vertex_excess(cg, f) for f in layer} == {e}
            assert layer == sorted(layer, key=lambda f: (len(f), sorted(f)))
        vl, tree = reference_search(g, old_sets)
        cert = vertex_leafage_bounded(g)
        assert cert.value == vl
        assert cert.tree.edges == tree.edges
    assert len(search_graphs) == 14 + 31 + 6


def test_builder_matches_reference_route(search_graphs, reference_candidates):
    """Marked cliques give the augmented graph route's tree, or None where it does.

    Every k-th of the old generator's sets on the search graphs, about 30
    per graph over all sizes, and every set on Random(16, 0.3, 5), whose
    markers sort before its vertex names: they reorder its cliques, which
    moves Kruskal's tie-breaks on two of its sets.
    """
    cases = [
        (g, cg, sets[::max(1, len(sets) // 30)])
        for (g, cg, _, _), sets in zip(search_graphs, reference_candidates)
    ]
    g = random_chordal(16, density=0.3, seed=5)
    cg = clique_graph(chordal_cliques(g))
    cases.append((g, cg, reference_candidate_branch_sets(cg, 3, 3)))
    realized = rejected = 0
    for g, cliques, sets in cases:
        for f in sets:
            tree = clique_tree_with_branching(g, f)
            reference = reference_clique_tree_with_branching(g, f, cliques)
            if reference is None:
                assert tree is None
                rejected += 1
            else:
                assert tree is not None and tree.edges == reference.edges
                realized += 1
    assert realized > 200 and rejected > 900


def test_minimal_kruskal_tree_is_not_minimized(search_graphs, monkeypatch):
    """No augmenting search when the Kruskal tree is at its cliques' leaf floor.

    A marker lies in two cliques only, so F's edges are forced and a tree
    holding F has at least 2 + sum(deg_F(x) - 2) leaves: such a Kruskal
    tree is minimal and a search would find no path.  On spider(4, 3)'s
    first set it is.  Over the first two sets of each search graph every
    case occurs: no search on a set the centre-ban check cuts, and on a set
    built, realized or not, one minimization that searches or does not.
    Every tree is the reference route's, which always minimizes.
    """
    g = spider_graph(4, 3)
    f = candidate_branch_sets(clique_graph(chordal_cliques(g)), 4)[0]
    calls = count_calls(monkeypatch, leafage.tokens, "shortest_augmenting_path")
    tree = clique_tree_with_branching(g, f)
    reference = reference_clique_tree_with_branching(g, f, chordal_cliques(g))
    assert calls == []
    assert tree is not None and tree.edges == reference.edges
    minimized = count_calls(monkeypatch, leafage.vertex_leafage, "minimize_leafage")
    seen = set()
    for g, cg, _, ranked in search_graphs:
        for f in ranked[:2]:
            calls.clear()
            minimized.clear()
            tree = clique_tree_with_branching(g, f)
            reference = reference_clique_tree_with_branching(g, f, cg)
            assert (tree is None) == (reference is None)
            assert tree is None or tree.edges == reference.edges
            assert len(minimized) <= 1
            seen.add((min(len(calls), 1), tree is not None))
    assert seen == {(0, False), (0, True), (1, False), (1, True)}


@pytest.fixture(scope="module")
def random_graphs():
    """Random(n, d, s), n 12..30 even, d in {0.3, 0.5, 0.7}, s 0..7.

    The 181 of them with leafage >= 3 and at most 20 cliques.
    """
    out = []
    for n in range(12, 31, 2):
        for density in (0.3, 0.5, 0.7):
            for seed in range(8):
                g = random_chordal(n, density=density, seed=seed)
                cg = clique_graph(chordal_cliques(g))
                if len(cg) > 20:
                    continue
                if len(minimize_leafage(build_clique_tree(cg)).leaves()) >= 3:
                    out.append(g)
    assert len(out) == 181
    return out


def test_centre_ban_check_is_necessary(search_graphs, random_graphs, monkeypatch):
    """Every set the centre-ban check cuts, the reference route rejects; the trees are its.

    The check cuts a set before the marked cliques' clique graph is made,
    so a call that makes none was cut.  Every call the search makes returns
    None where the reference route does and its tree otherwise, so the
    search's tree, the last one asked for, is the reference route's.  The
    generator's forced-pair rules drop most sets the check would cut, so
    it cuts 188 of the 736 calls here.
    """
    made = count_calls(monkeypatch, leafage.vertex_leafage, "clique_graph")
    original = clique_tree_with_branching
    calls = []

    def recording(g, f):
        before = len(made)
        tree = original(g, f)
        calls.append((f, tree, len(made) == before))
        return tree

    monkeypatch.setattr(leafage.vertex_leafage, "clique_tree_with_branching", recording)
    cuts = built = 0
    for g in [g for g, _, _, _ in search_graphs] + random_graphs:
        calls.clear()
        cert = vertex_leafage_bounded(g)
        for f, tree, cut in calls:
            reference = reference_clique_tree_with_branching(g, f, chordal_cliques(g))
            assert (tree is None) == (reference is None)
            assert tree is None or tree.edges == reference.edges
            assert not cut or tree is None
            cuts += cut
            built += not cut
        assert calls[-1][1].edges == cert.tree.edges
    assert cuts > 150 and built > 500


def test_forced_pairs_are_the_reference_and_in_every_tree(corpus, search_graphs, random_graphs):
    """``Cliques.forced`` is the pairwise reference, and every walked tree holds it.

    On the pinned corpus, the search graphs and the mid-size random graphs;
    the trees are walked on those with at most 20,000 of them.
    """
    graphs = [g for g, _ in corpus] + [g for g, _, _, _ in search_graphs] + random_graphs
    forced = walked = 0
    for g in graphs:
        cliques = chordal_cliques(g)
        assert cliques.forced == reference_forced(cliques)
        forced += len(cliques.forced)
        try:
            for _, _, chosen in _walk(g, 20_000):
                assert cliques.forced <= set(chosen)
                walked += 1
        except OracleLimitError:
            pass
    assert forced > 1300 and walked > 70_000


def test_forced_rules_cut_only_unrealized_sets(search_graphs):
    """Every reference set the generator drops, the builder rejects: the rules are necessary.

    On the search graphs, which hold the 31 NAE gadgets, and the Fano gadget.
    """
    fano = build_gadget(NaeInstance.create([frozenset(c) for c in FANO], 3)).graph
    cg = clique_graph(chordal_cliques(fano))
    ell = len(minimize_leafage(build_clique_tree(cg)).leaves())
    cases = search_graphs + [(fano, cg, ell, reference_ranked_branch_sets(cg, ell))]
    dropped = 0
    for g, cg, leafage, ranked in cases:
        kept = {f for layer in branch_set_layers(cg, leafage) for f in layer}
        for f in ranked:
            if f not in kept:
                assert clique_tree_with_branching(g, f) is None
                dropped += 1
    assert dropped > 80


def test_centre_ban_check_fires_on_nae_gadget(monkeypatch):
    """The six-variable gadget's first two reference sets are cut unbuilt; the third is realized.

    The generator drops those two by the forced-pair rules, so its first
    set is the third.
    """
    g = build_gadget(parse_clause_file(NAE_6)).graph
    cg = clique_graph(chordal_cliques(g))
    layer = reference_ranked_branch_sets(cg, 6)[:3]
    assert candidate_branch_sets(cg, 6)[0] == layer[2]
    made = count_calls(monkeypatch, leafage.vertex_leafage, "clique_graph")
    assert [clique_tree_with_branching(g, f) for f in layer[:2]] == [None, None]
    assert made == []
    assert clique_tree_with_branching(g, layer[2]) is not None
    assert len(made) == 1


def test_leaf_floor_bounds_the_leafage(corpus, search_graphs):
    """``leaf_floor`` is at most the oracle's leafage, and exact on spiders."""
    cases = [(g, r.leafage) for g, r in corpus if len(chordal_cliques(g)) >= 2]
    cases += [(g, oracle_optima(g).leafage) for g, _, _, _ in search_graphs]
    assert all(chordal_cliques(g).leaf_floor <= leafage for g, leafage in cases)
    assert len(cases) > 230
    for legs in range(3, 7):
        for length in range(2, 5):
            assert chordal_cliques(spider_graph(legs, length)).leaf_floor == legs


def test_spider_needs_no_augmenting_search(monkeypatch):
    """spider(4, 3): the Kruskal trees, base and marked, are at the leaf floor."""
    calls = count_calls(monkeypatch, leafage.tokens, "shortest_augmenting_path")
    cert = vertex_leafage_bounded(spider_graph(4, 3))
    assert calls == []
    assert cert.value == 2 and len(cert.tree.leaves()) == 4


def count_tree_calls(monkeypatch):
    """Record each ``clique_tree_with_branching`` call's set and whether it was realized."""
    original = clique_tree_with_branching
    calls = []

    def recording(g, f):
        tree = original(g, f)
        calls.append((f, tree is not None))
        return tree

    monkeypatch.setattr(leafage.vertex_leafage, "clique_tree_with_branching", recording)
    return calls


def test_trees_asked_for_in_ranked_order(search_graphs, monkeypatch):
    """The trees built are the reference ranking's kept by the forced-pair rules, up to the first realized."""
    built = 0
    for g, cg, _, ranked in search_graphs:
        calls = count_tree_calls(monkeypatch)
        vertex_leafage_bounded(g)
        assert [f for f, _ in calls] == forced_cut(cg, ranked)[:len(calls)]
        assert [ok for _, ok in calls] == [False] * (len(calls) - 1) + [True]
        built += len(calls)
    assert built > len(search_graphs)


# Graphs whose reference least layer has no realized set: (seed, n, density)
# of random_chordal.
TWO_LAYER_GRAPHS = [(47, 12, 0.25), (86, 14, 0.3), (286, 14, 0.3)]


@pytest.mark.parametrize("seed, n, density", TWO_LAYER_GRAPHS)
def test_unrealized_layer_moves_the_floor_up(seed, n, density, monkeypatch):
    """No set of the reference least layer is realized: the search asks for the next one.

    Where the forced-pair rules drop the whole layer, as on the first two
    graphs, the generator's least layer is the next one already.
    """
    g = random_chordal(n, density=density, seed=seed)
    cg = clique_graph(chordal_cliques(g))
    original = candidate_branch_sets
    floors = []

    def recording(cg, leafage, floor=0):
        floors.append(floor)
        return original(cg, leafage, floor)

    monkeypatch.setattr(leafage.vertex_leafage, "candidate_branch_sets", recording)
    calls = count_tree_calls(monkeypatch)
    cert = vertex_leafage_bounded(g)
    optima = oracle_optima(g)
    ranked = reference_ranked_branch_sets(cg, optima.leafage)
    least = [f for f in ranked if vertex_excess(cg, f) == 0]
    assert least and not any(clique_tree_with_branching(g, f) for f in least)
    kept = forced_cut(cg, ranked)
    assert floors == ([0, 1] if vertex_excess(cg, kept[0]) == 0 else [0])
    assert cert.value == optima.vertex_leafage == 3
    assert [f for f, _ in calls] == kept[:len(calls)]
    assert [ok for _, ok in calls] == [False] * (len(calls) - 1) + [True]


def test_candidates_lie_in_clique_trees(search_graphs):
    """Every candidate of every layer is a subset of some enumerated clique tree."""
    candidates = 0
    for g, cg, leafage, _ in search_graphs:
        trees = list(enumerate_clique_trees(g))
        assert leafage == min(len(t.leaves()) for t in trees)
        for layer in branch_set_layers(cg, leafage):
            for f in layer:
                assert any(f <= t.edges for t in trees)
                candidates += 1
    assert candidates > 1000


def test_spider_sets_are_generated_once():
    """spider(6, 2): 1,296 sets over the layers, each a union of full stars with six leaves."""
    cliques = chordal_cliques(spider_graph(6, 2))
    candidates = [f for layer in branch_set_layers(clique_graph(cliques), 6) for f in layer]
    assert len(candidates) == len(set(candidates)) == 1296
    for f in candidates:
        assert is_full_star_union(f)
        assert _branching_leaf_counts(cliques, f)[0] == 6


def test_generator_cuts_dead_branches(monkeypatch):
    """Pins the generator's work: ``Forest.union`` calls for one layer.

    The capacity cut (the host excess the later nodes can still add) and
    the jump over nodes with fewer than three held edges brought the calls
    from 604 to 255 on the NAE_6 gadget and from 705 to 593 on spider(5, 3).
    The forced-pair rules, with the excess bound checked before the link,
    brought them to 168, and the gadget's sets from 20 to 18, and to 303
    on spider(5, 3).
    """
    unions = [0]

    class CountingForest(Forest):
        def union(self, a, b):
            unions[0] += 1
            return super().union(a, b)

    monkeypatch.setattr(leafage.vertex_leafage, "Forest", CountingForest)
    for g, ell, sets, most in [
        (build_gadget(parse_clause_file(NAE_6)).graph, 6, 18, 168),
        (spider_graph(5, 3), 5, 60, 303),
    ]:
        unions[0] = 0
        assert len(candidate_branch_sets(clique_graph(chordal_cliques(g)), ell)) == sets
        assert unions[0] <= most


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
