"""Shared fixtures: the random chordal corpus with precomputed oracle optima."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import leafage

from leafage.cliquetrees import (
    CliqueTree,
    TreeModel,
    branching_sets,
    build_clique_tree,
    check_clique_tree,
    path_containment_violation,
)
from leafage.gadget import NaeInstance, build_gadget
from leafage.graphs import (
    _NAME_RE,
    Cliques,
    Forest,
    Graph,
    GraphFormatError,
    PerfectEliminationOrder,
    _connected_cliques,
    _mcs,
    _peo_cliques,
    check_chordal,
    chordal_cliques,
    clique_graph,
    maximal_cliques,
)
from leafage.oracle import _walk, oracle_optima, random_chordal
from leafage.tokens import (
    AugmentingPath,
    IterationRecord,
    TokenAssignment,
    TokenMove,
    _normal,
    _token_key,
    _TokenState,
    minimize_leafage,
    tokens_from_tree,
)
from leafage.vertex_leafage import _branching_leaf_counts, augmented_graph, candidate_branch_sets

CORPUS_SIZE = 200


def build_corpus(size: int = CORPUS_SIZE):
    """Connected chordal graphs with at most 10 maximal cliques, n <= 10.

    Mixes sizes and densities for structural variety; each entry is paired
    with its exact-oracle optima.
    """
    from leafage.graphs import chordal_cliques

    out = []
    seed = 0
    specs = itertools.cycle(
        (n, d) for n in (4, 6, 8, 10, 10, 10) for d in (0.2, 0.25, 0.3, 0.4, 0.5)
    )
    while len(out) < size:
        n, density = next(specs)
        g = random_chordal(n, density=density, seed=seed)
        seed += 1
        if len(chordal_cliques(g)) > 10:
            continue
        out.append((g, oracle_optima(g)))
    return out


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def format_clause_file(inst: NaeInstance) -> str:
    lines = [f"k {inst.k}"]
    lines.extend(" ".join(sorted(c)) for c in inst.clauses)
    return "\n".join(lines) + "\n"


def dominating_pair(inst: NaeInstance) -> tuple[str, str] | None:
    """First ordered pair (u, w) with every clause of ``u`` containing ``w``."""
    for u in inst.variables:
        for w in inst.variables:
            if u != w and inst.clause_set(u) <= inst.clause_set(w):
                return (u, w)
    return None


def satisfies_star(inst: NaeInstance) -> bool:
    """Domination-freeness: no variable's clause set inside another's."""
    return dominating_pair(inst) is None


def nae_families() -> list[NaeInstance]:
    """The 31 domination-free 3-uniform families with n <= 6, m <= 4."""
    out = []
    for n in range(3, 7):
        variables = [f"v{i}" for i in range(1, n + 1)]
        subsets = [frozenset(c) for c in itertools.combinations(variables, 3)]
        for m in range(1, 5):
            for fam in itertools.combinations(subsets, m):
                inst = NaeInstance.create(list(fam), 3)
                if inst.n == n and satisfies_star(inst):
                    out.append(inst)
    return out


def spider_graph(legs: int, length: int) -> Graph:
    """A centre vertex ``c`` with ``legs`` paths of ``length`` edges hanging off it."""
    edges = []
    for leg in range(legs):
        prev = "c"
        for step in range(length):
            edges.append((prev, f"a{leg}x{step}"))
            prev = f"a{leg}x{step}"
    return Graph.from_edges([], edges)


SPIDER_SHAPES = [(6, 2), (5, 5), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]

FANO = [("p1", "p2", "p3"), ("p1", "p4", "p5"), ("p1", "p6", "p7"), ("p2", "p4", "p6"),
        ("p2", "p5", "p7"), ("p3", "p4", "p7"), ("p3", "p5", "p6")]


@pytest.fixture(scope="session")
def graphs(corpus):
    """The clique-tree enumeration's test family: corpus, spiders, 32 gadgets.

    The gadgets are the 31 domination-free 3-uniform families with n <= 6,
    m <= 4, then Fano.
    """
    families = nae_families()
    families.append(NaeInstance.create([frozenset(c) for c in FANO], 3))
    gadgets = [build_gadget(inst).graph for inst in families]
    assert len(gadgets) == 32
    return [g for g, _ in corpus] + [spider_graph(*s) for s in SPIDER_SHAPES] + gadgets


def admissible_stars(cliques: Cliques, center: int, max_size: int) -> list[tuple[tuple[int, int], ...]]:
    """Sets of >= 3 edges at one node that a clique tree could carry.

    Any two cliques hanging off the same node must have their intersection
    inside it.
    """
    incident = [e for e in cliques.weights if center in e]
    out = []
    for size in range(3, min(max_size, len(incident)) + 1):
        for combo in itertools.combinations(incident, size):
            ok = True
            for (a1, b1), (a2, b2) in itertools.combinations(combo, 2):
                x = b1 if a1 == center else a1
                y = b2 if a2 == center else a2
                if not cliques[x] & cliques[y] <= cliques[center]:
                    ok = False
                    break
            if ok:
                out.append(combo)
    return out


def join_all(forest: Forest, ends, edges) -> bool:
    """Link all of ``edges`` on their class nodes, or take back the ones linked.

    ``ends`` and ``forest`` are the map of ``Cliques.class_nodes`` and a
    forest on its nodes.  The links succeed iff the edges linked before plus
    ``edges`` lie in some clique tree: every edge is in the map and none
    closes a cycle.  That is a property of the edge set, so the order is
    free.
    """
    for done, edge in enumerate(edges):
        if edge not in ends or not forest.union(*ends[edge]):
            for _ in range(done):
                forest.undo()
            return False
    return True


def reference_candidate_branch_sets(cliques: Cliques, leafage: int, budget: int) -> list[frozenset]:
    """The old, uncut branching-set generator, kept as a reference.

    Every union of admissible stars at up to leafage - 2 increasing centres,
    with degree slack summing to at most leafage - 2 and at most ``budget``
    edges, plus the empty set; then the sets some clique tree carries
    (``join_all`` on the class nodes), smallest first.  It reaches one set
    many times, and keeps sets that are no tree's branching set or whose
    trees have fewer than leafage leaves.
    """
    results = {frozenset()}
    max_centers = max(0, leafage - 2)
    slack = leafage - 2
    star_table = {c: admissible_stars(cliques, c, budget) for c in range(len(cliques))}
    stack = [(0, -1, frozenset(), 0)]
    while stack:
        count, last, f, used_slack = stack.pop()
        if count:
            results.add(f)
        if count == max_centers:
            continue
        for c in range(last + 1, len(cliques)):
            for star in star_table[c]:
                combined = f | frozenset(star)
                degree = sum(1 for e in combined if c in e)
                if len(combined) > budget or used_slack + degree - 2 > slack:
                    continue
                stack.append((count + 1, c, combined, used_slack + degree - 2))
    ends, node_count = cliques.class_nodes
    filtered = [f for f in results if join_all(Forest(node_count), ends, f)]
    filtered.sort(key=lambda f: (len(f), sorted(f)))
    return filtered


def reference_forced(cliques: Cliques) -> frozenset:
    """The pairs every clique tree holds, one pair at a time, in O(E^2).

    A clique tree is one spanning forest of each weight class's nodes
    (``Cliques.class_nodes``), so a pair lies in every one iff the other
    pairs of its class leave its two class nodes apart.  Each pair's test
    is its own search, sharing nothing with the family's block pass.
    """
    ends, _ = cliques.class_nodes
    out = set()
    for e, (x, y) in ends.items():
        adj: dict[int, list[int]] = {}
        for other, (p, q) in ends.items():
            if other != e and cliques.weights[other] == cliques.weights[e]:
                adj.setdefault(p, []).append(q)
                adj.setdefault(q, []).append(p)
        seen = {x}
        stack = [x]
        while stack:
            for z in adj.get(stack.pop(), ()):
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        if y not in seen:
            out.add(e)
    return frozenset(out)


def obeys_forced_rules(f, forced) -> bool:
    """Whether a tree with branching set ``f`` could hold every pair of ``forced``.

    A node of ``f``-degree >= 3 has its tree edges in ``f``, so it holds
    ``f``'s edges only; any other node has tree degree at most 2, so it
    holds at most 2 edges of ``f`` and ``forced`` together.
    """
    degree = Counter(x for e in f for x in e)
    load = Counter(x for e in f | forced for x in e)
    return all(load[x] == degree[x] if degree[x] >= 3 else load[x] <= 2 for x in load)


def forced_cut(cliques: Cliques, sets) -> list[frozenset]:
    """The sets of ``sets`` that obey the rules of :func:`obeys_forced_rules`, in order."""
    forced = reference_forced(cliques)
    return [f for f in sets if obeys_forced_rules(f, forced)]


def is_full_star_union(f) -> bool:
    """Every edge of ``f`` is at a node where ``f`` has degree >= 3."""
    degree = Counter(x for e in f for x in e)
    return all(max(degree[a], degree[b]) >= 3 for a, b in f)


def vertex_excess(cliques, f) -> int:
    """Vertex leafage - 2 of the trees whose branching set is ``f``."""
    return max(_branching_leaf_counts(cliques, f)[1].values(), default=0)


def reference_ranked_branch_sets(cliques: Cliques, leafage: int) -> list[frozenset]:
    """The rank-everything order the layered search replaced, kept as a reference.

    The branching sets of the trees with ``leafage`` leaves (the reference
    generator's full-star unions with that many leaves), sorted by
    (vertex leafage, size, sorted edges): all were generated, then ranked.
    """
    budget = min(3 * (leafage - 2), len(cliques) - 1)
    sets = [
        f for f in reference_candidate_branch_sets(cliques, leafage, budget)
        if is_full_star_union(f) and _branching_leaf_counts(cliques, f)[0] == leafage
    ]
    return sorted(sets, key=lambda f: vertex_excess(cliques, f))


def branch_set_layers(cliques: Cliques, leafage: int) -> list[list[frozenset]]:
    """Every layer of ``candidate_branch_sets``, least vertex excess first."""
    layers = []
    floor = 0
    while layer := candidate_branch_sets(cliques, leafage, floor):
        layers.append(layer)
        excess = vertex_excess(cliques, layer[0])
        assert excess >= floor
        floor = excess + 1
    return layers


def check_clique_tree_of(g: Graph, t: CliqueTree) -> None:
    """Raise ``ValueError`` unless ``t`` is a clique tree on the canonical cliques of ``g``."""
    if t.cliques != chordal_cliques(g):
        raise ValueError("tree nodes are not the canonical maximal cliques of the graph")
    check_clique_tree(t)


def reference_clique_tree_with_branching(g: Graph, f: frozenset, cliques) -> CliqueTree | None:
    """The marker-augmented graph route the marked cliques replaced, kept as a reference.

    Decides :func:`augmented_graph` chordal and lists its maximal cliques in
    one MCS pass, minimizes host leaves on their clique tree, strips the
    markers and renames each node back to its clique.  None unless that is
    a clique tree of ``g`` whose branching edges are exactly ``f``.
    """
    if len(f) >= len(cliques):
        return None
    gp = augmented_graph(g, cliques, f)
    cliques_p = _peo_cliques(*_mcs(gp)[:2])
    if cliques_p is None or len(cliques_p) != len(cliques):
        return None
    tmin = minimize_leafage(build_clique_tree(clique_graph(cliques_p)))
    vertex_set = set(g.vertices)
    stripped = [frozenset(c & vertex_set) for c in cliques_p]
    if sorted(stripped, key=lambda c: tuple(sorted(c))) != list(cliques):
        return None
    rename = [cliques.index(c) for c in stripped]
    tree = CliqueTree(cliques, frozenset(tuple(sorted((rename[a], rename[b]))) for a, b in tmin.edges))
    if path_containment_violation(tree) is not None or branching_sets(tree).incident_edges != f:
        return None
    return tree


def enumerate_clique_trees(g: Graph, limit: int | None = None):
    """All clique trees of ``g``, each exactly once, in canonical order.

    The oracle's walk, yielding each tree; raises ``OracleLimitError``
    before the first tree when ``g`` has more clique trees than the cap.
    """
    cliques = _connected_cliques(g)
    for _, _, chosen in _walk(g, limit):
        yield CliqueTree(cliques, frozenset(chosen))


def is_realizable(ta) -> bool:
    """Whether some clique tree induces ``ta``: a fresh token state's decision."""
    return _TokenState(ta).realizable()


def apply_move(ta, mv):
    """Remove one instance of the token at the source, add one at the target.

    The one-move reference for ``_TokenState.apply``: it copies the whole
    assignment and re-sorts and re-checks both cliques the move changes.
    """
    i, j = mv.from_clique, mv.to_clique
    src = list(ta.tokens[i])
    try:
        src.remove(mv.token)
    except ValueError:
        raise ValueError(f"token {sorted(mv.token)} absent at clique {i}") from None
    tokens = dict(ta.tokens)
    if j == i:
        src.append(mv.token)
    else:
        tokens[j] = _normal(ta.cliques, j, ta.tokens[j] + (mv.token,))
    tokens[i] = _normal(ta.cliques, i, src)
    return TokenAssignment(ta.cliques, tokens)


def reference_find_realizing_tree(ta):
    """The backtracking search ``find_realizing_tree`` replaced, kept as a reference.

    None unless ``is_realizable``; otherwise a depth-first search over the
    intersecting clique pairs in canonical order, taking each pair before
    skipping it, returns the first full pairing that is a clique tree.  It
    may backtrack exponentially often.
    """
    if not is_realizable(ta):
        return None
    cliques = ta.cliques
    k = len(cliques)
    if k == 1:
        return CliqueTree(cliques, frozenset())

    remaining = {i: Counter(ta.tokens[i]) for i in range(k)}
    candidates = []
    for i in range(k):
        for j in range(i + 1, k):
            common = cliques[i] & cliques[j]
            if common and remaining[i][common] and remaining[j][common]:
                candidates.append((i, j, common))
    # Per-clique availability of candidate edges by token value.
    avail = {i: Counter() for i in range(k)}
    for i, j, s in candidates:
        avail[i][s] += 1
        avail[j][s] += 1

    chosen = []
    forest = Forest(k)

    # Frames: (ENTER, idx) decides candidate idx; (UNTAKE, idx) undoes
    # taking it and then tries skipping it; (UNSKIP, idx) undoes the skip.
    # Both undo frames are popped only once every branch below them has
    # failed, so links are undone last in, first out.
    ENTER, UNTAKE, UNSKIP = range(3)
    stack = [(ENTER, 0)]
    while stack:
        action, idx = stack.pop()
        if action == ENTER:
            if len(chosen) == k - 1:
                tree = CliqueTree(cliques, frozenset(chosen))
                if path_containment_violation(tree) is None:
                    return tree
                continue
            if len(chosen) + len(candidates) - idx < k - 1:
                continue
        i, j, s = candidates[idx]
        if action == ENTER:
            if remaining[i][s] and remaining[j][s] and forest.union(i, j):
                remaining[i][s] -= 1
                remaining[j][s] -= 1
                avail[i][s] -= 1
                avail[j][s] -= 1
                chosen.append((i, j))
                stack.append((UNTAKE, idx))
                stack.append((ENTER, idx + 1))
                continue
        elif action == UNTAKE:
            chosen.pop()
            forest.undo()
            remaining[i][s] += 1
            remaining[j][s] += 1
            avail[i][s] += 1
            avail[j][s] += 1
        else:
            avail[i][s] += 1
            avail[j][s] += 1
            continue
        # Leave the edge out; both endpoints must still be satisfiable.
        avail[i][s] -= 1
        avail[j][s] -= 1
        if avail[i][s] >= remaining[i][s] and avail[j][s] >= remaining[j][s]:
            stack.append((UNSKIP, idx))
            stack.append((ENTER, idx + 1))
        else:
            avail[i][s] += 1
            avail[j][s] += 1
    return None


def _reference_augmenting_path(ta):
    """The shortest augmenting path, each move tried by applying it and re-deciding."""
    k = len(ta.cliques)
    sizes = {i: len(ta.tokens[i]) for i in range(k)}
    starts = sorted(i for i in range(k) if sizes[i] >= 3)
    if not starts:
        return None

    move_cache = {}

    def feasible_token(src, dst):
        key = (src, dst)
        if key not in move_cache:
            result = None
            for s in sorted(set(ta.tokens[src]), key=_token_key):
                if not s <= ta.cliques[dst]:
                    continue
                if is_realizable(apply_move(ta, TokenMove(src, dst, s))):
                    result = s
                    break
            move_cache[key] = result
        return move_cache[key]

    def extend(start, length):
        path = [start]
        cursor = [0]
        while path:
            if len(path) == length + 1:
                return path
            last = path[-1]
            want = 1 if len(path) == length else 2
            nxt = next(
                (
                    c
                    for c in range(cursor[-1], k)
                    if c not in path
                    and sizes[c] == want
                    and feasible_token(last, c) is not None
                ),
                None,
            )
            if nxt is None:
                path.pop()
                cursor.pop()
            else:
                cursor[-1] = nxt + 1
                path.append(nxt)
                cursor.append(0)
        return None

    for length in range(1, k):
        for start in starts:
            found = extend(start, length)
            if found is not None:
                return AugmentingPath(
                    tuple(TokenMove(a, b, feasible_token(a, b)) for a, b in zip(found, found[1:]))
                )
    return None


def apply_path(ta, path):
    """Apply each move of an augmenting path in turn."""
    for mv in path.moves:
        ta = apply_move(ta, mv)
    return ta


def reference_minimize_leafage(t):
    """The minimization before it kept its counts by delta, kept as a reference.

    Every candidate move is decided by applying it to the whole assignment
    and re-deciding realizability, every iteration recounts every leaf, and
    the final tree comes from ``reference_find_realizing_tree``.  Returns
    the final tree and the iteration records.
    """
    ta = tokens_from_tree(t)
    trace = []
    while (path := _reference_augmenting_path(ta)) is not None:
        before, before_vertex = ta.leaf_count(), _TokenState(ta).vertex_leaves
        ta = apply_path(ta, path)
        assert is_realizable(ta) and ta.leaf_count() == before - 1
        assert all(n <= before_vertex[u] for u, n in _TokenState(ta).vertex_leaves.items())
        trace.append(IterationRecord(path, before, ta.leaf_count()))
    return (reference_find_realizing_tree(ta) if trace else t), trace


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for this test; return the list of its calls."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def run_optimized():
    """Run a Python script under ``python -O`` (asserts stripped); return it done."""
    src = str(Path(leafage.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def run(script: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )

    return run


def reference_parse_graph(text: str) -> Graph:
    """The two-pass edge-list parser: every name checked, edges kept as sets."""
    vertices: set[str] = set()
    edges: list[tuple[str, str]] = []
    seen_edges: set[frozenset[str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "v":
            if len(fields) != 2:
                raise GraphFormatError("expected 'v <name>'", lineno)
            name = fields[1]
            if not _NAME_RE.match(name):
                raise GraphFormatError(f"bad vertex name {name!r}", lineno)
            vertices.add(name)
        elif fields[0] == "e":
            if len(fields) != 3:
                raise GraphFormatError("expected 'e <name> <name>'", lineno)
            u, v = fields[1], fields[2]
            for name in (u, v):
                if not _NAME_RE.match(name):
                    raise GraphFormatError(f"bad vertex name {name!r}", lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at {u!r}", lineno)
            key = frozenset((u, v))
            if key in seen_edges:
                raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
            seen_edges.add(key)
            vertices.add(u)
            vertices.add(v)
            edges.append((u, v))
        else:
            raise GraphFormatError(f"unknown directive {fields[0]!r}", lineno)
    return Graph.from_edges(vertices, edges)


def is_tree_model(g: Graph, m: TreeModel) -> bool:
    """Whether ``m`` is a valid tree model of ``g``."""
    if not _host_is_tree(m):
        return False
    if sorted(m.subtrees) != list(g.vertices):
        return False
    for u in g.vertices:
        nodes = m.subtrees[u]
        if not nodes or not _is_connected_in_host(m, nodes):
            return False
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1:]:
            intersects = bool(m.subtrees[u] & m.subtrees[v])
            if intersects != g.has_edge(u, v):
                return False
    return True


def _host_is_tree(m: TreeModel) -> bool:
    if len(m.edges) != len(m.nodes) - 1:
        return False
    return len(m.nodes) <= 1 or _is_connected_in_host(m, frozenset(m.nodes))


def _reach(adj, start, allowed) -> set:
    """Nodes reachable from ``start`` through nodes of ``allowed`` only: the reference search."""
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _is_connected_in_host(m: TreeModel, nodes: frozenset[str]) -> bool:
    if not nodes <= m.adjacency.keys():
        return False
    return len(_reach(m.adjacency, next(iter(nodes)), nodes)) == len(nodes)


def reference_component_count(g: Graph) -> int:
    """Components of ``g``, one reach from the least vertex not yet reached at a time."""
    left = set(g.vertices)
    count = 0
    while left:
        left -= _reach(g.adjacency, min(left), g.adjacency.keys())
        count += 1
    return count


def is_valid_peo(g: Graph, order) -> bool:
    """Whether ``order`` is a perfect elimination order of ``g``."""
    try:
        maximal_cliques(g, PerfectEliminationOrder(tuple(order)))
    except ValueError:
        return False
    return True


def brute_force_maximal_cliques(g: Graph) -> list[frozenset[str]]:
    """Independent oracle: test all vertex subsets for maximal cliqueness."""
    cliques = []
    verts = list(g.vertices)
    for r in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                cliques.append(frozenset(combo))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    maximal.sort(key=lambda c: tuple(sorted(c)))
    return maximal


def brute_force_has_hole(g: Graph) -> bool:
    """Independent oracle: search all vertex subsets for an induced cycle >= 4."""
    verts = list(g.vertices)
    for r in range(4, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            sub_edges = [
                (u, v)
                for u, v in itertools.combinations(combo, 2)
                if g.has_edge(u, v)
            ]
            if len(sub_edges) != r:
                continue
            degree = {v: 0 for v in combo}
            for u, v in sub_edges:
                degree[u] += 1
                degree[v] += 1
            if any(d != 2 for d in degree.values()):
                continue
            seen = {combo[0]}
            stack = [combo[0]]
            adj = {v: set() for v in combo}
            for u, v in sub_edges:
                adj[u].add(v)
                adj[v].add(u)
            while stack:
                x = stack.pop()
                for w in adj[x]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == r:
                return True
    return False
