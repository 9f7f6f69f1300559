"""NAE-k-SAT reduction gadget: split-graph construction and verification.

A positive k-uniform NOT-ALL-EQUAL instance translates into a split graph
whose vertex leafage is k + 1 in general, and at most k exactly when the
instance is solvable.  Solutions and low-leafage clique trees translate into
each other mechanically, which is what the verifier exercises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .cliquetrees import CliqueTree, verify_clique_tree
from .graphs import _NAME_RE, CertificateError, Graph, chordal_cliques
from .oracle import oracle_optima


class ClauseFormatError(ValueError):
    """Malformed clause-file input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class NaeInstance:
    """Positive k-uniform NOT-ALL-EQUAL-SAT instance."""

    k: int
    variables: tuple[str, ...]
    clauses: tuple[frozenset[str], ...]

    @classmethod
    def create(cls, clauses: list[frozenset[str]], k: int | None = None) -> "NaeInstance":
        if not clauses:
            if k is None:
                raise ValueError("empty instance needs an explicit clause width")
            return cls(k, (), ())
        width = k if k is not None else len(clauses[0])
        for i, c in enumerate(clauses):
            if len(c) != width:
                raise ValueError(
                    f"clause {i + 1} has {len(c)} variables, expected {width}"
                )
        variables = tuple(sorted(set().union(*clauses)))
        return cls(width, variables, tuple(clauses))

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def m(self) -> int:
        return len(self.clauses)

    def clause_set(self, var: str) -> frozenset[int]:
        """Indices of the clauses containing ``var``."""
        return frozenset(j for j, c in enumerate(self.clauses) if var in c)


def parse_clause_file(text: str) -> NaeInstance:
    """Parse a clause document: one clause per line, names separated by spaces.

    ``#`` starts a comment.  An optional first line ``k <int>`` fixes the
    clause width; otherwise the width is inferred from the first clause and
    validated uniform.
    """
    k: int | None = None
    clauses: list[frozenset[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if not clauses and k is None and len(fields) == 2 and fields[0] == "k":
            if not fields[1].isdigit() or int(fields[1]) < 1:
                raise ClauseFormatError(f"bad clause width {fields[1]!r}", lineno)
            k = int(fields[1])
            continue
        for name in fields:
            if not _NAME_RE.match(name):
                raise ClauseFormatError(f"bad variable name {name!r}", lineno)
        if len(set(fields)) != len(fields):
            raise ClauseFormatError("repeated variable in clause", lineno)
        if k is not None and len(fields) != k:
            raise ClauseFormatError(
                f"clause has {len(fields)} variables, expected {k}", lineno
            )
        if k is None and clauses and len(fields) != len(next(iter(clauses))):
            raise ClauseFormatError(
                f"clause has {len(fields)} variables, expected "
                f"{len(next(iter(clauses)))}", lineno
            )
        clauses.append(frozenset(fields))
    if not clauses:
        raise ClauseFormatError("no clauses in input")
    return NaeInstance.create(clauses, k)


def format_clause_file(inst: NaeInstance) -> str:
    lines = [f"k {inst.k}"]
    lines.extend(" ".join(sorted(c)) for c in inst.clauses)
    return "\n".join(lines) + "\n"


def is_solution(inst: NaeInstance, s: frozenset[str]) -> bool:
    """Whether every clause has a variable inside ``s`` and one outside it."""
    if not s <= set(inst.variables):
        return False
    return all(c & s and c - s for c in inst.clauses)


def solve_brute_force(inst: NaeInstance) -> frozenset[str] | None:
    """Least solution (by size, then variable names), or None if unsolvable."""
    for size in range(inst.n + 1):
        for combo in itertools.combinations(inst.variables, size):
            s = frozenset(combo)
            if is_solution(inst, s):
                return s
    return None


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


def normalize_star(inst: NaeInstance) -> NaeInstance:
    """Eliminate dominated variables until domination-freeness holds.

    Each round removes the canonically first dominated variable together with
    all clauses containing it, which preserves solvability in both
    directions.  May eliminate every clause, leaving an empty (trivially
    solvable) instance.
    """
    while True:
        pair = dominating_pair(inst)
        if pair is None:
            return inst
        doomed = inst.clause_set(pair[0])
        clauses = [c for j, c in enumerate(inst.clauses) if j not in doomed]
        inst = NaeInstance.create(clauses, inst.k)


@dataclass(frozen=True)
class GadgetGraph:
    """Split graph of an instance, with named maximal cliques.

    ``clique_names`` maps "A", "B", and "Q_<variable>" to clique member sets;
    ``inst`` is the instance the graph encodes and ``cliques`` its canonical
    maximal clique list.
    """

    graph: Graph
    clique_names: Mapping[str, frozenset[str]]
    inst: NaeInstance
    cliques: tuple[frozenset[str], ...]


def build_gadget(inst: NaeInstance) -> GadgetGraph:
    """Split graph whose vertex leafage encodes NAE solvability.

    Vertices: the variables, one clique vertex per clause (y1..ym), and z1,
    z2.  The clause vertices form a clique; each variable is adjacent to the
    clique vertices of its clauses; z1 and z2 are adjacent to every clause
    vertex.  Requires clause width >= 3 and every variable in some clause.
    """
    if inst.k < 3:
        raise ValueError("reduction requires clause width k >= 3")
    if not inst.clauses:
        raise ValueError("reduction requires at least one clause")
    reserved = {f"y{j + 1}" for j in range(inst.m)} | {"z1", "z2"}
    collisions = reserved & set(inst.variables)
    if collisions:
        raise ValueError(
            f"variable names collide with gadget vertices: {sorted(collisions)}"
        )
    for v in inst.variables:
        if not inst.clause_set(v):
            raise ValueError(f"variable {v!r} appears in no clause")
    ys = [f"y{j + 1}" for j in range(inst.m)]
    edges: list[tuple[str, str]] = []
    edges.extend(itertools.combinations(ys, 2))
    for v in inst.variables:
        for j in sorted(inst.clause_set(v)):
            edges.append((v, ys[j]))
    for z in ("z1", "z2"):
        for y in ys:
            edges.append((z, y))
    graph = Graph.from_edges(list(inst.variables) + ys + ["z1", "z2"], edges)
    names: dict[str, frozenset[str]] = {
        "A": frozenset(["z1", *ys]),
        "B": frozenset(["z2", *ys]),
    }
    for v in inst.variables:
        names[f"Q_{v}"] = frozenset([v] + [ys[j] for j in sorted(inst.clause_set(v))])
    cliques = chordal_cliques(graph)
    if sorted(names.values(), key=lambda c: tuple(sorted(c))) != list(cliques):
        raise ValueError("named cliques do not match the maximal cliques")
    return GadgetGraph(graph, names, inst, cliques)


def _clique_ids(gg: GadgetGraph) -> dict[str, int]:
    index = {c: i for i, c in enumerate(gg.cliques)}
    return {name: index[c] for name, c in gg.clique_names.items()}


def solution_to_tree(gg: GadgetGraph, s: frozenset[str]) -> CliqueTree:
    """Clique tree with edge AB, and each Q_i on A if its variable is chosen.

    The resulting model has every subtree with at most k leaves; in
    particular each clause vertex's subtree has exactly k leaves.
    """
    if not s <= set(gg.inst.variables):
        raise ValueError("chosen set contains unknown variables")
    for c in gg.inst.clauses:
        if not (c & s and c - s):
            raise ValueError(
                f"clause {sorted(c)} is monochromatic under the chosen set"
            )
    ids = _clique_ids(gg)
    a, b = ids["A"], ids["B"]
    edges = {(min(a, b), max(a, b))}
    for v in gg.inst.variables:
        anchor = a if v in s else b
        q = ids[f"Q_{v}"]
        edges.add((min(anchor, q), max(anchor, q)))
    tree = CliqueTree(gg.cliques, frozenset(edges))
    ok, witness = verify_clique_tree(gg.graph, tree)
    if not ok:
        raise ValueError(f"chosen set does not induce a clique tree: {witness}")
    return tree


def tree_to_solution(gg: GadgetGraph, t: CliqueTree) -> frozenset[str]:
    """Read off S = {v : edge A-Q_v in the tree} from a low-leafage clique tree.

    Requires every subtree of the model to have at most k leaves; the
    extracted set is validated as a solution.
    """
    k = gg.inst.k
    ok, witness = verify_clique_tree(gg.graph, t)
    if not ok:
        raise ValueError(f"not a clique tree: {witness}")
    worst = t.max_vertex_leaf_count(gg.graph.vertices)
    if worst > k:
        raise ValueError(
            f"some subtree has {worst} leaves, exceeding the clause width {k}"
        )
    ids = _clique_ids(gg)
    a = ids["A"]
    s = frozenset(
        v
        for v in gg.inst.variables
        if (min(a, ids[f"Q_{v}"]), max(a, ids[f"Q_{v}"])) in t.edges
    )
    if not is_solution(gg.inst, s):
        raise CertificateError(f"extracted set {sorted(s)} is not a solution")
    return s


def verify_reduction(inst: NaeInstance) -> dict:
    """Desk-scale check of the reduction on one instance.

    Compares brute-force solvability against the exact-oracle vertex leafage
    of the gadget: the latter is always at most k + 1, and at most k exactly
    when the instance is solvable.  Both facts are checked (raising
    :class:`CertificateError`) and reported.
    """
    gg = build_gadget(inst)
    solution = solve_brute_force(inst)
    result = oracle_optima(gg.graph)
    vl = result.vertex_leafage
    upper_ok = vl <= inst.k + 1
    equivalence_ok = (vl <= inst.k) == (solution is not None)
    if not upper_ok:
        raise CertificateError(f"vertex leafage {vl} exceeds k + 1 = {inst.k + 1}")
    if not equivalence_ok:
        raise CertificateError(
            f"vertex leafage {vl} vs solvable={solution is not None} breaks the biconditional"
        )
    return {
        "k": inst.k,
        "n": inst.n,
        "m": inst.m,
        "solvable": solution is not None,
        "solution": sorted(solution) if solution is not None else None,
        "vertex_leafage": vl,
        "upper_bound_ok": upper_ok,
        "equivalence_ok": equivalence_ok,
    }
