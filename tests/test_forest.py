"""The undoable forest that grows partial clique trees.

Two pairwise path scans are kept here as reference implementations only:
the clique-tree enumeration whose ``containment_ok`` checked the tree path
of every newly connected clique pair (the oracle now prunes by weight
class), and the branching-set check (formerly ``_forest_containment_ok``),
which ``Forest.join`` replaced and which did the same on a finished edge
set.
"""

import itertools
import random

from leafage.cliquetrees import CliqueTree, Forest
from leafage.demo import demo_graph
from leafage.graphs import chordal_cliques, clique_graph
from leafage.oracle import enumerate_clique_trees
from leafage.vertex_leafage import _join_all


def reference_enumerate(g):
    """Clique trees by inclusion/exclusion, checking every new pair's path."""
    cliques = chordal_cliques(g)
    k = len(cliques)
    if k == 1:
        yield CliqueTree(cliques, frozenset())
        return
    edge_list = clique_graph(cliques).edges()
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


def reference_forest_ok(cg, f):
    """A forest whose intersecting clique pairs keep their intersection on the path."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    adj = {}
    for a, b in sorted(f):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    def forest_path(src, dst):
        prev = {src: None}
        stack = [src]
        while stack:
            node = stack.pop()
            if node == dst:
                out = [node]
                while prev[out[-1]] is not None:
                    out.append(prev[out[-1]])
                return out
            for w in adj[node]:
                if w not in prev:
                    prev[w] = node
                    stack.append(w)
        return None

    for x, y in itertools.combinations(sorted(adj), 2):
        common = cg.cliques[x] & cg.cliques[y]
        path = forest_path(x, y) if common else None
        if path is not None and any(not common <= cg.cliques[n] for n in path):
            return False
    return True


class TestForest:
    def _snapshot(self, f):
        return (list(f.parent), list(f.size), [set(v) for v in f.vertices])

    def test_union_links_components_once(self):
        cliques = chordal_cliques(demo_graph())
        f = Forest(cliques)
        assert f.union(0, 1) and f.union(1, 2)
        assert f.find(0) == f.find(2)
        assert not f.union(0, 2)
        assert f.vertices[f.find(0)] == cliques[0] | cliques[1] | cliques[2]

    def test_undo_restores_every_link(self):
        cliques = chordal_cliques(demo_graph())
        f = Forest(cliques)
        snapshots = []
        for a, b in [(0, 1), (5, 6), (1, 2), (0, 5), (3, 4), (0, 3)]:
            snapshots.append(self._snapshot(f))
            assert f.union(a, b)
        while snapshots:
            f.undo()
            assert self._snapshot(f) == snapshots.pop()

    def test_join_rejects_separated_vertex(self):
        # demo cliques: 0 abc, 1 acd, 2 adf, 8 de.  Joining {adf, de} to
        # {abc, acd} through abc-adf would separate d's cliques at abc.
        f = Forest(chordal_cliques(demo_graph()))
        assert f.join(2, 8) and f.join(0, 1)
        before = self._snapshot(f)
        assert not f.join(0, 2)
        assert self._snapshot(f) == before
        assert f.join(1, 2)
        assert not f.join(0, 8)  # a cycle


def test_enumeration_matches_pairwise_reference(graphs):
    """Same clique trees in the same order on the corpus, spiders and gadgets."""
    trees = 0
    for g in graphs:
        got = [t.edges for t in enumerate_clique_trees(g)]
        assert got == [t.edges for t in reference_enumerate(g)]
        trees += len(got)
    assert trees > 4000


def test_forest_check_matches_pairwise_reference(graphs):
    """``_join_all`` decides random edge sets as the pairwise scan."""
    rng = random.Random(5)
    rejected = accepted = 0
    for g in graphs:
        cg = clique_graph(chordal_cliques(g))
        edges = cg.edges()
        if len(edges) < 2:
            continue
        for _ in range(40):
            f = frozenset(rng.sample(edges, rng.randint(2, min(len(edges), len(cg.cliques)))))
            ok = _join_all(Forest(cg.cliques), f)
            assert ok == reference_forest_ok(cg, f)
            accepted += ok
            rejected += not ok
    assert accepted > 1000 and rejected > 1000
