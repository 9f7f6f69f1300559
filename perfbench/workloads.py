"""Seeded instance families, op schedules and known answers.

Every instance is generated here as CLI input text (an edge list or a
clause file) together with the facts the checker needs: the maximal cliques
of the graph, known by construction, and the expected optimum, known from a
closed form.  Nothing in this module calls the program under test.

A workload is a cycle of instance *shapes* (family plus size).  The closed
loop walks the cycle over and over; each pass draws fresh vertex names, so
no two consecutive passes feed the program the same text.  The seed fixes
the names, the random structure (pendant counts, interval chains, gadget
choice) and the order of the small ops inside each pass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Passes generated up front, inside setup_s.  A run that outlasts them
# starts over at the first pass, so input text repeats after this many
# passes; a cache keyed on the whole input would profit from that.
PASSES = 8


@dataclass(frozen=True)
class Instance:
    """One op: CLI arguments (input text comes on stdin) plus its answer key."""

    shape: str
    args: tuple[str, ...]
    text: str
    expect: dict
    cliques: tuple[frozenset[str], ...] = ()
    clauses: tuple[frozenset[str], ...] = ()


def edge_text(edges) -> str:
    return "".join(f"e {u} {v}\n" for u, v in edges)


def relabel(vertices, rng: random.Random, prefix: str = "v") -> dict[str, str]:
    """Fresh names that keep the sorted order of ``vertices``.

    The program breaks ties by name order, so an order-preserving renaming
    gives new input text with the same amount of work.
    """
    ordered = sorted(vertices)
    numbers = sorted(rng.sample(range(10**6), len(ordered)))
    return {v: f"{prefix}{x:06d}" for v, x in zip(ordered, numbers)}


def tree_instance(shape, args, edges, rng, expect) -> Instance:
    """Instance for a graph that is a tree: its maximal cliques are its edges."""
    name = relabel({x for e in edges for x in e}, rng)
    edges = [(name[u], name[v]) for u, v in edges]
    return Instance(shape, args, edge_text(edges), expect, tuple(frozenset(e) for e in edges))


def star(m: int) -> list[tuple[str, str]]:
    return [("c", f"l{i:03d}") for i in range(m)]


def path(n: int) -> list[tuple[str, str]]:
    return [(f"p{i:04d}", f"p{i + 1:04d}") for i in range(n - 1)]


def caterpillar(pendants: list[int]) -> list[tuple[str, str]]:
    spine = [f"s{i:04d}" for i in range(len(pendants))]
    edges = list(zip(spine, spine[1:]))
    for i, p in enumerate(pendants):
        edges.extend((spine[i], f"q{i:04d}x{j}") for j in range(p))
    return edges


def spider(legs: int, length: int) -> list[tuple[str, str]]:
    edges = []
    for leg in range(legs):
        prev = "c"
        for step in range(length):
            cur = f"a{leg}x{step}"
            edges.append((prev, cur))
            prev = cur
    return edges


def spider_answers(legs: int, length: int) -> dict:
    """Closed-form optima of a spider with at least three legs of length >= 2.

    The cliques are the edges.  The ``legs`` centre edges pairwise meet in
    the centre, and each leg's chain of edges can only hang off its own
    centre edge, so the clique trees are the spanning trees of K_legs with
    the chains attached: legs^(legs-2) of them (Cayley).  The last edge of a
    leg meets only its predecessor, so it is a leaf of every clique tree;
    joining all centre edges to one of them leaves no other leaf, so the
    leafage is ``legs``.  Laying the centre edges out as a path makes every
    vertex subtree a path, so the vertex leafage is 2.
    """
    return {"leafage": legs, "vertex_leafage": 2, "tree_count": legs ** (legs - 2)}


def interval_chain(rng: random.Random, n_cliques: int) -> tuple[list, list[frozenset[str]]]:
    """Random connected interval graph whose cliques C_0..C_{k-1} lie on a line.

    C_i = B_{i-1} + P_i + B_i: the 1-3 bridge vertices B_i belong to C_i and
    C_{i+1} only, the 0-3 private vertices P_i to C_i only (the two end
    cliques get at least one, so every C_i is maximal).  No vertex spans three
    cliques, so the clique graph is the path itself and the start tree needs
    no augmenting iteration.  Vertex names are random, not order-preserving.
    """
    bridges = [[f"b{i}x{j}" for j in range(rng.randint(1, 3))] for i in range(n_cliques - 1)]
    private = [
        [f"p{i}x{j}" for j in range(rng.randint(1 if i in (0, n_cliques - 1) else 0, 3))]
        for i in range(n_cliques)
    ]
    members = []
    for i in range(n_cliques):
        left = bridges[i - 1] if i > 0 else []
        right = bridges[i] if i < n_cliques - 1 else []
        members.append(left + private[i] + right)
    vertices = [v for c in members for v in c]
    names = rng.sample(range(10**6), len(set(vertices)))
    name = {v: f"u{x:06d}" for v, x in zip(sorted(set(vertices)), names)}
    cliques = [frozenset(name[v] for v in c) for c in members]
    edges = sorted({tuple(sorted(e)) for c in cliques for e in itertools.combinations(c, 2)})
    rng.shuffle(edges)
    return edges, cliques


# --- NAE-SAT gadgets -------------------------------------------------------

FANO = tuple(
    frozenset(c)
    for c in (
        ("p1", "p2", "p3"), ("p1", "p4", "p5"), ("p1", "p6", "p7"), ("p2", "p4", "p6"),
        ("p2", "p5", "p7"), ("p3", "p4", "p7"), ("p3", "p5", "p6"),
    )
)


def star_families() -> list[tuple[frozenset[str], ...]]:
    """The 31 domination-free 3-uniform families with n <= 6 variables, m <= 4 clauses.

    Domination-free: no variable's clause set lies inside another's.
    """
    out = []
    for n in range(3, 7):
        variables = [f"v{i}" for i in range(1, n + 1)]
        for m in range(1, 5):
            for fam in itertools.combinations(itertools.combinations(variables, 3), m):
                fam = tuple(frozenset(c) for c in fam)
                if set().union(*fam) != set(variables):
                    continue
                sets = {v: {j for j, c in enumerate(fam) if v in c} for v in variables}
                if not any(u != w and sets[u] <= sets[w] for u in variables for w in variables):
                    out.append(fam)
    return out


def nae_solvable(clauses) -> bool:
    """Brute force: some variable subset meets every clause without containing it."""
    variables = sorted(set().union(*clauses))
    for size in range(len(variables) + 1):
        for chosen in itertools.combinations(variables, size):
            s = set(chosen)
            if all(c & s and c - s for c in clauses):
                return True
    return False


def gadget_graph(clauses) -> tuple[list, list[frozenset[str]]]:
    """Split graph of the reduction: clause clique y*, variables, z1 and z2.

    Its maximal cliques are A = {z1} + Y, B = {z2} + Y and, per variable v,
    Q_v = {v} + {y_j : v in clause j}.
    """
    ys = [f"y{j + 1}" for j in range(len(clauses))]
    edges = list(itertools.combinations(ys, 2))
    variables = sorted(set().union(*clauses))
    cliques = [frozenset(["z1", *ys]), frozenset(["z2", *ys])]
    for v in variables:
        mine = [ys[j] for j, c in enumerate(clauses) if v in c]
        edges.extend((v, y) for y in mine)
        cliques.append(frozenset([v, *mine]))
    edges.extend((z, y) for z in ("z1", "z2") for y in ys)
    return edges, cliques


def rename_clauses(clauses, rng) -> tuple[frozenset[str], ...]:
    name = relabel(set().union(*clauses), rng, prefix="x")
    return tuple(frozenset(name[v] for v in c) for c in clauses)


def gadget_vl_instance(shape, clauses, rng) -> Instance:
    clauses = rename_clauses(clauses, rng)
    edges, cliques = gadget_graph(clauses)
    rng.shuffle(edges)
    return Instance(shape, ("vertex-leafage",), edge_text(edges), {}, tuple(cliques), clauses)


def gadget_verify_instance(shape, clauses, rng) -> Instance:
    clauses = rename_clauses(clauses, rng)
    clause_list = [sorted(c) for c in clauses]
    rng.shuffle(clause_list)
    text = "k 3\n" + "".join(" ".join(c) + "\n" for c in clause_list)
    expect = {"k": 3, "n": len(set().union(*clauses)), "m": len(clauses)}
    return Instance(shape, ("gadget", "verify"), text, expect, clauses=clauses)


# --- workloads -------------------------------------------------------------


def _leafage_augment(rng: random.Random, pass_no: int, families: list) -> tuple[list, list]:
    """Stars and 2-3-pendant caterpillars through ``leafage``: ℓ = 2."""

    def st(m):
        return tree_instance(f"star-{m}", ("leafage",), star(m), rng, {"leafage": 2})

    def cat(spine, lo, hi):
        pend = [rng.randint(lo, hi) for _ in range(spine)]
        return tree_instance(
            f"caterpillar-{spine}x{lo}-{hi}", ("leafage",), caterpillar(pend), rng, {"leafage": 2}
        )

    big = [st(22), st(22)]
    small = [st(8), st(12), cat(10, 2, 3), cat(12, 2, 3), st(16), st(16), cat(20, 2, 2), st(20)]
    return big, small


def _vl_branching(rng: random.Random, pass_no: int, families: list) -> tuple[list, list]:
    """Vertex leafage of NAE gadgets (vl 3) and spiders (vl 2)."""

    def sp(legs, length):
        ans = spider_answers(legs, length)
        return tree_instance(
            f"spider-{legs}x{length}", ("vertex-leafage",), spider(legs, length), rng,
            {"vertex_leafage": ans["vertex_leafage"]},
        )

    # Three gadgets per pass, walking the seeded order of the 30 families
    # that take ~1 s; the 31st (4 variables) is a small op.
    big_fams = [f for f in families if len(set().union(*f)) == 6]
    small_fam = next(f for f in families if len(set().union(*f)) < 6)
    chosen = [big_fams[(3 * pass_no + i) % len(big_fams)] for i in range(3)]
    big = [gadget_vl_instance("nae-gadget", f, rng) for f in chosen] + [sp(5, 3)]
    counts = {(3, 2): 4, (3, 3): 4, (4, 2): 2, (4, 3): 15}
    small = [sp(legs, length) for (legs, length), n in counts.items() for _ in range(n)]
    small.append(gadget_vl_instance("nae-gadget-small", small_fam, rng))
    return big, small


def _model_interval(rng: random.Random, pass_no: int, families: list) -> tuple[list, list]:
    """Interval graphs through ``model``: ℓ = vl = 2, no augmenting iteration."""
    expect = {"leafage": 2, "vertex_leafage": 2}

    def p(n):
        return tree_instance(f"path-{n}", ("model",), path(n), rng, expect)

    def cat(spine):
        return tree_instance(f"caterpillar-{spine}x1", ("model",), caterpillar([1] * spine), rng, expect)

    def chain(k):
        edges, cliques = interval_chain(rng, k)
        return Instance(f"interval-{k}", ("model",), edge_text(edges), expect, tuple(cliques))

    big = [p(300), p(300)]
    small = [chain(40), p(100), cat(50), p(150), chain(80), chain(80), p(200), chain(120)]
    return big, small


def _oracle_gadget(rng: random.Random, pass_no: int, families: list) -> tuple[list, list]:
    """``gadget verify`` on all 31 families plus Fano, ``oracle`` on spiders."""

    def sp(legs, length):
        return tree_instance(
            f"oracle-spider-{legs}x{length}", ("oracle",), spider(legs, length), rng,
            spider_answers(legs, length),
        )

    # Four spider(5,5) oracles per pass (~0.13 s, twice the slowest verify)
    # put the 90th percentile inside one shape instead of on the edge of the
    # verify ops' tail.
    big = [sp(6, 2), gadget_verify_instance("verify-fano", FANO, rng)] + [sp(5, 5) for _ in range(4)]
    small = [gadget_verify_instance("verify-nae", f, rng) for f in families]
    small += [sp(legs, length) for legs in (3, 4, 5) for length in (2, 3)]
    return big, small


WORKLOADS = {
    "leafage-augment": _leafage_augment,
    "vl-branching": _vl_branching,
    "model-interval": _model_interval,
    "oracle-gadget": _oracle_gadget,
}


def _interleave(big: list, small: list, rng: random.Random) -> list:
    """One pass: small ops in seeded order, big ops spread evenly among them.

    Even spacing keeps the share of big ops in any stretch of the run close
    to their share in the pass, so where the time limit cuts the last pass
    moves the op count and the percentiles little.
    """
    rng.shuffle(small)
    out = list(small)
    step = (len(small) + len(big)) / len(big)
    for i, inst in enumerate(big):
        out.insert(int(i * step), inst)
    return out


def build_schedule(workload: str, seed: int, passes: int = PASSES) -> list[Instance]:
    """The op sequence of a run: ``passes`` passes of the workload's cycle."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    families = star_families()
    rng.shuffle(families)
    ops = []
    for pass_no in range(passes):
        big, small = make(rng, pass_no, families)
        ops.extend(_interleave(big, small, rng))
    return ops
