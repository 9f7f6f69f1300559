"""The undoable union-find, and the branching-set fit test built on it.

The clique-tree enumeration whose ``containment_ok`` checked the tree path
of every newly connected clique pair is kept here as a reference
implementation only (the oracle now walks weight classes).  Both the
oracle's trees and the class-node fit test (the map of
``Cliques.class_nodes``, linked by ``conftest.join_all``) are checked
against it.
"""

import random

from conftest import enumerate_clique_trees, join_all
from leafage.cliquetrees import CliqueTree
from leafage.demo import demo_graph
from leafage.graphs import Forest, Graph, chordal_cliques, clique_graph


def reference_enumerate(g):
    """Clique trees by inclusion/exclusion, checking every new pair's path."""
    cliques = chordal_cliques(g)
    k = len(cliques)
    if k == 1:
        yield CliqueTree(cliques, frozenset())
        return
    edge_list = list(clique_graph(cliques).weights)
    adj = {i: set() for i in range(k)}
    component = {i: {i} for i in range(k)}
    chosen = []

    def tree_path(src, dst):
        stack = [(src, -1)]
        prev = {src: -1}
        while stack:
            node, par = stack.pop()
            if node == dst:
                out = [node]
                while prev[out[-1]] != -1:
                    out.append(prev[out[-1]])
                return out
            for w in adj[node]:
                if w != par:
                    prev[w] = node
                    stack.append((w, node))
        raise AssertionError("nodes not connected in partial forest")

    def containment_ok(a, b):
        for x in component[a]:
            for y in component[b]:
                common = cliques[x] & cliques[y]
                if common and not all(common <= cliques[n] for n in tree_path(x, y)):
                    return False
        return True

    def can_connect(idx):
        parent = {}

        def find(v):
            while parent.get(v, v) != v:
                v = parent[v]
            return v

        for a, b in chosen + edge_list[idx:]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return all(find(i) == find(0) for i in range(k))

    def generate(idx):
        if len(chosen) == k - 1:
            yield CliqueTree(cliques, frozenset(chosen))
            return
        if idx == len(edge_list) or not can_connect(idx):
            return
        a, b = edge_list[idx]
        if component[a] is not component[b]:
            adj[a].add(b)
            adj[b].add(a)
            if containment_ok(a, b):
                saved_a, saved_b = component[a], component[b]
                merged = saved_a | saved_b
                for node in merged:
                    component[node] = merged
                chosen.append((a, b))
                yield from generate(idx + 1)
                chosen.pop()
                for node in saved_a:
                    component[node] = saved_a
                for node in saved_b:
                    component[node] = saved_b
            adj[a].discard(b)
            adj[b].discard(a)
        yield from generate(idx + 1)

    yield from generate(0)


def _fits(cliques, f):
    ends, node_count = cliques.class_nodes
    return join_all(Forest(node_count), ends, f)


class TestForest:
    def _snapshot(self, f):
        return (list(f.parent), list(f.size))

    def test_union_links_components_once(self):
        f = Forest(4)
        assert f.union(0, 1) and f.union(1, 2)
        assert f.find(0) == f.find(2) != f.find(3)
        assert not f.union(0, 2)
        assert f.size[f.find(0)] == 3

    def test_undo_restores_every_link(self):
        f = Forest(9)
        snapshots = []
        for a, b in [(0, 1), (5, 6), (1, 2), (0, 5), (3, 4), (0, 3)]:
            snapshots.append(self._snapshot(f))
            assert f.union(a, b)
        while snapshots:
            f.undo()
            assert self._snapshot(f) == snapshots.pop()

    def test_join_rejects_separated_vertex(self):
        # demo cliques: 0 abc, 1 acd, 2 adf, 8 de.  Joining {adf, de} to
        # {abc, acd} through abc-adf would separate d's cliques at abc: the
        # heavier edges abc-acd and acd-adf put abc and adf in one node.
        ends, node_count = chordal_cliques(demo_graph()).class_nodes
        f = Forest(node_count)
        assert join_all(f, ends, [(2, 8), (0, 1)])
        before = self._snapshot(f)
        assert not join_all(f, ends, [(0, 2)])
        assert not join_all(f, ends, [(1, 6), (0, 2)])
        assert self._snapshot(f) == before
        assert join_all(f, ends, [(1, 2)])
        assert not join_all(f, ends, [(1, 8)])  # a cycle
        assert not join_all(f, ends, [(0, 8)])  # no clique-graph edge


def test_enumeration_matches_pairwise_reference(graphs):
    """Same clique trees in the same order on the corpus, spiders and gadgets."""
    trees = 0
    for g in graphs:
        got = [t.edges for t in enumerate_clique_trees(g)]
        assert got == [t.edges for t in reference_enumerate(g)]
        trees += len(got)
    assert trees > 4000


def test_forest_check_matches_pairwise_reference(graphs):
    """``join_all`` accepts an edge set iff some reference clique tree holds it."""
    # abc, bcd, cde: every clique tree is the path through bcd.
    path = Graph.from_edges([], [tuple(e) for e in "ab ac bc bd cd ce de".split()])
    pinned = [(path, {(0, 2)}), (demo_graph(), {(2, 8), (0, 1), (0, 2)})]
    assert chordal_cliques(path) == tuple(map(frozenset, ("abc", "bcd", "cde")))
    for g, f in pinned:
        assert not _fits(chordal_cliques(g), f)
        assert not any(f <= t.edges for t in reference_enumerate(g))
    rng = random.Random(5)
    rejected = accepted = 0
    for g in graphs:
        cliques = chordal_cliques(g)
        edges = list(cliques.weights)
        if len(edges) < 2:
            continue
        trees = [t.edges for t in reference_enumerate(g)]
        for _ in range(40):
            f = frozenset(rng.sample(edges, rng.randint(2, min(len(edges), len(cliques)))))
            ok = _fits(cliques, f)
            assert ok == any(f <= t for t in trees)
            accepted += ok
            rejected += not ok
    assert accepted > 1000 and rejected > 1000
