"""Exhaustive clique-tree enumeration and corpus generation."""

import hashlib
import itertools
import math
import tracemalloc
from collections import Counter

import pytest

from conftest import check_clique_tree_of, enumerate_clique_trees, spider_graph
from leafage.cliquetrees import CliqueTree, build_clique_tree, check_clique_tree
from leafage.demo import demo_clique_tree, demo_graph
from leafage.graphs import (
    Forest,
    Graph,
    InputError,
    PerfectEliminationOrder,
    _blocks,
    _connected_cliques,
    check_chordal,
    chordal_cliques,
    clique_graph,
    format_edge_list,
)
from leafage.oracle import (
    DEFAULT_TREE_LIMIT,
    OracleLimitError,
    _spanning_forests,
    _walk,
    oracle_optima,
    random_chordal,
    tree_limit,
)


@pytest.fixture
def forest_calls(monkeypatch):
    """Counts of ``Forest.union`` and ``Forest.undo`` calls made in the test."""
    calls = Counter()
    for name in ("union", "undo"):
        def counted(self, *args, _name=name, _method=getattr(Forest, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(Forest, name, counted)
    return calls


class TestEnumerateCliqueTrees:
    def test_two_cliques_single_tree(self):
        g = Graph.from_edges([], [("a", "b"), ("b", "c")])
        trees = list(enumerate_clique_trees(g))
        assert len(trees) == 1
        assert trees[0].edges == frozenset({(0, 1)})

    def test_demo_graph_contains_known_trees(self):
        g = demo_graph()
        edge_sets = {t.edges for t in enumerate_clique_trees(g)}
        assert demo_clique_tree().edges in edge_sets
        # A known three-leaf optimum.
        assert frozenset(
            {(0, 1), (0, 5), (1, 2), (1, 6), (2, 3), (3, 4), (5, 7), (6, 8)}
        ) in edge_sets

    def test_demo_graph_tree_count(self):
        assert sum(1 for _ in enumerate_clique_trees(demo_graph())) == 180

    def test_all_trees_valid_and_distinct(self):
        g = demo_graph()
        seen = set()
        for t in enumerate_clique_trees(g):
            check_clique_tree_of(g, t)
            assert t.edges not in seen
            seen.add(t.edges)

    def test_non_chordal_rejected(self):
        g = Graph.from_edges([], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        with pytest.raises(ValueError, match="induced cycle"):
            list(enumerate_clique_trees(g))

    def test_disconnected_rejected(self):
        g = Graph.from_edges(["a", "b"], [])
        with pytest.raises(ValueError, match="disconnected"):
            list(enumerate_clique_trees(g))

    def test_limit_exceeded(self):
        with pytest.raises(OracleLimitError):
            list(enumerate_clique_trees(demo_graph(), limit=10))

    def test_limit_counts_trees(self):
        # spider(4, 2) has 4^2 clique trees: the cap counts trees, not
        # search nodes.
        g = spider_graph(4, 2)
        assert len(list(enumerate_clique_trees(g, limit=16))) == 16
        with pytest.raises(OracleLimitError):
            list(enumerate_clique_trees(g, limit=15))

    def test_cap_checked_before_the_first_tree(self):
        # spider(9, 2) has 9^7 = 4,782,969 clique trees; counting them takes
        # milliseconds, walking them most of a minute.
        trees = enumerate_clique_trees(spider_graph(9, 2), limit=10**6)
        with pytest.raises(OracleLimitError, match="more than 1000000 clique trees"):
            next(trees)

    def test_cap_checked_before_a_dense_count(self):
        # K_{1,300}: the 300 edges are cliques that meet pairwise in the
        # centre, so the one weight class is K_300 with 300^298 spanning
        # trees.  The count stops a few rows into the elimination.
        g = Graph.from_edges([], [("c", f"a{i:03d}") for i in range(300)])
        with pytest.raises(OracleLimitError, match="more than 1000000 clique trees"):
            next(enumerate_clique_trees(g, limit=10**6))

    @pytest.mark.parametrize("ends, count", [((0,), 3), ((0, 2199), 9)])
    def test_long_path_with_claws(self, ends, count):
        # P_2200 with two pendant vertices at each end in ``ends``: three
        # cliques share that end, a triangle in the one weight class, whose
        # other 2,198 edges are bridges.  The count takes each triangle as a
        # block of its own, not the whole class as one matrix.
        edges = [(f"p{i:04d}", f"p{i + 1:04d}") for i in range(2199)]
        edges += [(f"p{e:04d}", f"q{e}{j}") for e in ends for j in range(2)]
        assert oracle_optima(Graph.from_edges([], edges)).tree_count == count

    def test_long_path_takes_linear_work(self, forest_calls):
        # P_2200 has one clique tree, and its one weight class has no cycle,
        # so no edge is tested for a skip.
        g = Graph.from_edges([], [(f"p{i:04d}", f"p{i + 1:04d}") for i in range(2199)])
        trees = list(enumerate_clique_trees(g))
        assert len(trees) == 1
        k = len(trees[0].cliques)
        assert k == 2199
        assert forest_calls["union"] + forest_calls["undo"] <= 4 * k

    def test_bridges_add_no_work_per_tree(self, forest_calls):
        # spider(6, L) has 6L cliques and 6^4 clique trees for every L:
        # its legs past the first edge are bridges, so longer legs may add
        # work once, not once per tree.
        work = []
        for length in (10, 100):
            forest_calls.clear()
            assert sum(1 for _ in _walk(spider_graph(6, length), None)) == 6**4
            work.append(forest_calls["union"] + forest_calls["undo"])
        assert work[1] - work[0] <= 4 * 6 * (100 - 10)

    def test_limit_env_override(self, monkeypatch):
        monkeypatch.setenv("LEAFAGE_ORACLE_LIMIT", "10")
        assert tree_limit() == 10
        with pytest.raises(OracleLimitError):
            list(enumerate_clique_trees(demo_graph()))

    def test_default_limit(self, monkeypatch):
        monkeypatch.delenv("LEAFAGE_ORACLE_LIMIT", raising=False)
        assert tree_limit() == DEFAULT_TREE_LIMIT


def _joined_by_heavier(weights, a, b) -> bool:
    """Whether cliques a and b meet through edges heavier than a-b."""
    w = weights[(a, b)]
    seen, stack = {a}, [a]
    while stack:
        x = stack.pop()
        for e, we in weights.items():
            if x in e and we > w:
                y = e[0] + e[1] - x
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return b in seen


def test_enumerated_trees_are_maximum_weight_spanning_trees(graphs):
    """The fact the enumeration prunes by, on the corpus, spiders and gadgets.

    No tree uses an edge whose ends strictly heavier edges already join,
    and every tree has the maximum spanning weight.
    """
    trees = dead = 0
    for g in graphs:
        cg = clique_graph(chordal_cliques(g))
        excluded = {e for e in cg.weights if _joined_by_heavier(cg.weights, *e)}
        dead += len(excluded)
        best = sum(cg.weights[e] for e in build_clique_tree(cg).edges)
        for t in enumerate_clique_trees(g):
            assert not t.edges & excluded
            assert sum(cg.weights[e] for e in t.edges) == best
            trees += 1
    assert trees > 4000 and dead > 100


def test_tree_count_matches_enumeration(graphs):
    """The matrix-tree count is the number of trees walked, on every graph.

    The cap is checked against the count before the first tree, so the
    count is n exactly when a cap of n lets the walk through and a cap of
    n - 1 stops it before any tree.
    """
    trees = 0
    for g in graphs:
        n = sum(1 for _ in enumerate_clique_trees(g, limit=DEFAULT_TREE_LIMIT))
        next(enumerate_clique_trees(g, limit=n))
        with pytest.raises(OracleLimitError):
            next(enumerate_clique_trees(g, limit=n - 1))
        trees += n
    assert trees > 4000


def _complete(m: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(m), 2))


@pytest.mark.parametrize(
    "pairs, count",
    [
        ([(0, 1)], 1),
        ([(0, 1), (1, 0), (0, 1)], 3),
        ([(i, (i + 1) % 7) for i in range(7)], 7),
        (_complete(6), 6**4),
        ([(a, b) for a in (0, 1) for b in (2, 3, 4)], 12),
        # Two triangles sharing node 0, then a path, then a double edge.
        ([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (4, 5), (5, 6), (6, 7), (7, 6)], 18),
        # Two components.
        ([(0, 1), (1, 2), (2, 0), (5, 6), (6, 5)], 6),
    ],
)
def test_spanning_forests_known_counts(pairs, count):
    blocks = [[pairs[e] for e in block] for block in _blocks(pairs)]
    assert sorted(e for block in blocks for e in block) == sorted(pairs)
    assert _spanning_forests(blocks, DEFAULT_TREE_LIMIT) == count
    assert _spanning_forests(blocks, count) == count
    assert _spanning_forests(blocks, count - 1) > count - 1


def test_spanning_forests_stop_past_the_cap():
    # K_60 has 60^58 spanning trees; the leading minors are lower bounds, so
    # the count stops at the first one past the cap.
    bound = _spanning_forests([_complete(60)], 10**6)
    assert 10**6 < bound < 60**58


def test_walk_leaf_counts_match_recount(graphs):
    """The walk's incremental leaf counts equal a recount of every tree."""
    trees = 0
    for g in graphs:
        cliques = _connected_cliques(g)
        for leaves, vl, chosen in _walk(g, None):
            t = CliqueTree(cliques, frozenset(chosen))
            assert leaves == len(t.leaves())
            assert vl == t.max_vertex_leaf_count(g.vertices)
            trees += 1
    assert trees > 4000


def test_walk_order_is_lexicographic(graphs):
    """Each tree's sorted edges come after the previous tree's.

    The witnesses ``oracle_optima`` keeps are the first trees to reach
    each optimum, so this order fixes them.  The family holds spider(6, 2),
    whose 1,296 trees differ only in their block edges.
    """
    trees = 0
    for g in graphs:
        walked = [tuple(sorted(chosen)) for _, _, chosen in _walk(g, None)]
        assert all(a < b for a, b in zip(walked, walked[1:]))
        trees += len(walked)
    assert trees > 4000


def test_walk_matches_subset_reference(graphs):
    """The walk lists exactly the clique trees among the (k - 1)-subsets of the intersecting pairs.

    The reference shares no code with the walk: it tries every subset, in
    lexicographic order, with ``check_clique_tree``.  It runs on each graph
    with at most 20,000 subsets, among them graphs whose decided pairs split
    into two or more groups (maximal runs in pair order that no block
    straddles) and graphs where a block's pairs start before an earlier
    block's end.
    """
    graphs_checked = subsets = split = interleaved = 0
    for g in graphs:
        cliques = chordal_cliques(g)
        pairs = list(cliques.weights)
        if math.comb(len(pairs), len(cliques) - 1) > 20_000:
            continue
        reference = []
        for edges in itertools.combinations(pairs, len(cliques) - 1):
            subsets += 1
            try:
                check_clique_tree(CliqueTree(cliques, frozenset(edges)))
            except ValueError:
                continue
            reference.append(edges)
        assert [tuple(sorted(chosen)) for _, _, chosen in _walk(g, None)] == reference
        graphs_checked += 1
        groups = crossed = 0
        last = (-1, -1)
        for block in sorted(block for block in cliques.blocks if len(block) > 1):
            groups += block[0] > last
            crossed |= block[0] < last
            last = max(last, block[-1])
        split += groups > 1
        interleaved += crossed
    assert (graphs_checked, subsets, split, interleaved) == (206, 13_349, 12, 10)


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (["a", "b"], [], "graph is disconnected"),
        ([], [("a", "b"), ("c", "d")], "graph is disconnected"),
        ([], [], "graph is empty"),
    ],
)
def test_walk_rejects_unconnected_graphs(vertices, edges, message):
    with pytest.raises(InputError, match=message):
        next(_walk(Graph.from_edges(vertices, edges), None))


def test_walk_memory_grows_linearly():
    """Walking P_4000 peaks at most 2.5 times as high as walking P_2000.

    The cliques are listed beforehand.  Every pair of a path's one clique
    tree is a bridge, so the walk holds the class nodes, the blocks and one
    degree per slot the bridges touch, all linear in the cliques.
    """
    peaks = []
    for n in (2000, 4000):
        g = Graph.from_edges([], [(f"p{i:04d}", f"p{i + 1:04d}") for i in range(n - 1)])
        chordal_cliques(g)
        tracemalloc.start()
        try:
            assert sum(1 for _ in _walk(g, None)) == 1
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


class TestOracleOptima:
    def test_complete_graph(self):
        g = Graph.from_edges([], list(itertools.combinations("abcd", 2)))
        r = oracle_optima(g)
        assert (r.leafage, r.vertex_leafage) == (0, 0)
        assert r.tree_count == 1

    def test_demo_graph(self):
        r = oracle_optima(demo_graph())
        assert (r.leafage, r.vertex_leafage) == (3, 2)
        assert r.tree_count == 180

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="graph is empty"):
            oracle_optima(Graph.from_edges([], []))

    def test_witnesses_achieve_their_optima(self):
        g = demo_graph()
        r = oracle_optima(g)
        leaf_tree, vl_tree, joint = r.witness_trees
        assert len(leaf_tree.leaves()) == r.leafage
        assert vl_tree.max_vertex_leaf_count(g.vertices) == r.vertex_leafage
        assert len(joint.leaves()) == r.leafage
        assert joint.max_vertex_leaf_count(g.vertices) == r.vertex_leafage

    def test_non_complete_graphs_have_optima_at_least_two(self, corpus):
        for g, r in corpus:
            complete = all(
                g.has_edge(u, v)
                for u, v in itertools.combinations(g.vertices, 2)
            )
            if complete:
                assert (r.leafage, r.vertex_leafage) == (0, 0)
            else:
                assert r.leafage >= 2
                assert r.vertex_leafage >= 2

# sha256 of the 200 corpus graphs' edge lists: connecting a sample that
# would have been given up must leave every seed that succeeds unchanged.
CORPUS_SHA256 = "9ff0a5b056ab52cf0a092832f53a0ea8177a46ab3ac3f00800ac348ba47f9708"
# sha256 of the edge lists of the 16 graphs of ``test_mid_size_never_gives_up``,
# n, then density, then seed: the late samples and the fallback, which the
# corpus (n <= 10) does not reach.
MID_SIZE_SHA256 = "a62d2cd20eaa8f05ac45c2534f4911fcd91874ac70afd0ae19d1e9cfab577821"


class TestRandomChordal:
    def test_single_vertex(self):
        g = random_chordal(1, seed=7)
        assert len(g.vertices) == 1

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            random_chordal(0)

    def test_chordal_and_connected(self):
        for seed in range(30):
            g = random_chordal(8, seed=seed)
            assert g.is_connected()
            assert isinstance(check_chordal(g), PerfectEliminationOrder)

    @pytest.mark.parametrize("n", [20, 40])
    @pytest.mark.parametrize("density", [0.2, 0.3, 0.4, 0.5])
    def test_mid_size_never_gives_up(self, n, density):
        # Half of these seeds draw 1,000 disconnected samples; the last one
        # is connected rather than given up.
        for seed in range(2):
            g = random_chordal(n, density=density, seed=seed)
            assert len(g.vertices) == n and g.is_connected()
            assert isinstance(check_chordal(g), PerfectEliminationOrder)

    def test_corpus_unchanged(self, corpus):
        text = "".join(format_edge_list(g) for g, _ in corpus)
        assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256

    def test_mid_size_unchanged(self):
        text = "".join(
            format_edge_list(random_chordal(n, density=density, seed=seed))
            for n in (20, 40)
            for density in (0.2, 0.3, 0.4, 0.5)
            for seed in range(2)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == MID_SIZE_SHA256

    def test_deterministic_per_seed(self):
        assert random_chordal(9, seed=3) == random_chordal(9, seed=3)
        assert any(
            random_chordal(9, seed=3) != random_chordal(9, seed=s)
            for s in range(4, 10)
        )


_CORRUPT_ENUMERATIONS = {
    # Leaf optimum (4 leaves) and vertex-leafage optimum (vl 2) in
    # different trees, so no tree attains both.
    "both minima": """
walked = [(*stats, list(chosen)) for *stats, chosen in oracle._walk(g, None)]
pick = [next(w for w in walked if w[:2] == key) for key in ((4, 3), (5, 2))]
oracle._walk = lambda g, limit: iter(pick)
""",
    "no clique tree": """
oracle._walk = lambda g, limit: iter(())
""",
}


@pytest.mark.parametrize("case", sorted(_CORRUPT_ENUMERATIONS))
def test_joint_optimum_check_survives_optimize(case, run_optimized):
    out = run_optimized(
        "import leafage.oracle as oracle\n"
        "from leafage.demo import demo_graph\n"
        "from leafage.tokens import CertificateError\n"
        "assert False, 'not run under -O'\n"
        "g = demo_graph()\n"
        + _CORRUPT_ENUMERATIONS[case]
        + "try:\n"
        "    oracle.oracle_optima(g)\n"
        "except CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificateError:") and case in out.stdout


def test_tree_count_check_survives_optimize(run_optimized):
    # One more spanning forest in the count of each class with a cycle than
    # the walk finds; the demo graph has one such class.
    out = run_optimized(
        "import leafage.oracle as oracle\n"
        "from leafage.demo import demo_graph\n"
        "from leafage.tokens import CertificateError\n"
        "assert False, 'not run under -O'\n"
        "count = oracle._spanning_forests\n"
        "oracle._spanning_forests = lambda blocks, cap: count(blocks, cap) + bool(blocks)\n"
        "try:\n"
        "    oracle.oracle_optima(demo_graph())\n"
        "except CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == (
        "CertificateError: the walk found 180 clique trees but the matrix-tree count is 181\n"
    )


def test_long_path_needs_no_recursion(run_optimized):
    # P_300 has one clique tree; the enumeration must not recurse per edge.
    out = run_optimized(
        "import sys\n"
        "from leafage.graphs import Graph\n"
        "from leafage.oracle import oracle_optima\n"
        "g = Graph.from_edges([], [(f'p{i:03d}', f'p{i + 1:03d}') for i in range(299)])\n"
        "sys.setrecursionlimit(200)\n"
        "print(oracle_optima(g).tree_count)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1\n"
