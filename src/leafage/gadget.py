"""NAE-k-SAT reduction gadget: split-graph construction and verification.

A positive k-uniform NOT-ALL-EQUAL instance translates into a split graph
whose vertex leafage is k + 1 in general, and at most k exactly when the
instance is solvable.  ``verify_reduction`` checks both bounds on one
instance: it takes the exact oracle's vertex leafage of the gadget, then
decides solvability by brute force and compares the two.  The oracle goes
first, so a bad tree cap, or one the gadget exceeds, is reported before the
exponential brute force starts.  ``solution_to_tree`` and
``tree_to_solution`` translate solutions and clique trees with at most k
leaves per subtree into each other, and the verifier runs both on the
instance it checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .cliquetrees import CliqueTree, check_clique_tree
from .graphs import _NAME_RE, CertificateError, Graph, InputError, chordal_cliques
from .oracle import oracle_optima


class ClauseFormatError(InputError):
    """Malformed clause-file input."""


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
                raise InputError("empty instance needs an explicit clause width")
            return cls(k, (), ())
        width = k if k is not None else len(clauses[0])
        for i, c in enumerate(clauses):
            if len(c) != width:
                raise InputError(f"clause {i + 1} has {len(c)} variables, expected {width}")
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
            if not fields[1].isdecimal() or int(fields[1]) < 1:
                raise ClauseFormatError(f"bad clause width {fields[1]!r}", lineno)
            k = int(fields[1])
            continue
        for name in fields:
            if not _NAME_RE.match(name):
                raise ClauseFormatError(f"bad variable name {name!r}", lineno)
        if len(set(fields)) != len(fields):
            raise ClauseFormatError("repeated variable in clause", lineno)
        if k is not None or clauses:
            width = k if k is not None else len(clauses[0])
            if len(fields) != width:
                raise ClauseFormatError(f"clause has {len(fields)} variables, expected {width}", lineno)
        clauses.append(frozenset(fields))
    if not clauses:
        raise ClauseFormatError("no clauses in input")
    return NaeInstance.create(clauses, k)


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


@dataclass(frozen=True)
class GadgetGraph:
    """Split graph of an instance, with named maximal cliques.

    ``clique_names`` maps "A", "B", and "Q_<variable>" to clique member sets;
    ``inst`` is the instance the graph encodes.
    """

    graph: Graph
    clique_names: Mapping[str, frozenset[str]]
    inst: NaeInstance


def build_gadget(inst: NaeInstance) -> GadgetGraph:
    """Split graph whose vertex leafage encodes NAE solvability.

    Vertices: the variables, one clique vertex per clause (y1..ym), and z1,
    z2.  The clause vertices form a clique; each variable is adjacent to the
    clique vertices of its clauses; z1 and z2 are adjacent to every clause
    vertex.  Requires clause width >= 3, at least one clause, no variable
    named like a gadget vertex and every variable in some clause, and raises
    :class:`InputError` otherwise.
    """
    if inst.k < 3:
        raise InputError("reduction requires clause width k >= 3")
    if not inst.clauses:
        raise InputError("reduction requires at least one clause")
    reserved = {f"y{j + 1}" for j in range(inst.m)} | {"z1", "z2"}
    collisions = reserved & set(inst.variables)
    if collisions:
        raise InputError(
            f"variable names collide with gadget vertices: {sorted(collisions)}"
        )
    for v in inst.variables:
        if not inst.clause_set(v):
            raise InputError(f"variable {v!r} appears in no clause")
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
    if sorted(names.values(), key=lambda c: tuple(sorted(c))) != list(chordal_cliques(graph)):
        raise ValueError("named cliques do not match the maximal cliques")
    return GadgetGraph(graph, names, inst)


def _clique_ids(gg: GadgetGraph) -> dict[str, int]:
    index = {c: i for i, c in enumerate(chordal_cliques(gg.graph))}
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
    tree = CliqueTree(chordal_cliques(gg.graph), frozenset(edges))
    check_clique_tree(tree)
    return tree


def tree_to_solution(gg: GadgetGraph, t: CliqueTree) -> frozenset[str]:
    """Read off S = {v : edge A-Q_v in the tree} from a low-leafage clique tree.

    Requires ``t`` to be a clique tree on the gadget's canonical cliques
    and every subtree of the model to have at most k leaves; the extracted
    set is validated as a solution.
    """
    k = gg.inst.k
    if t.cliques != chordal_cliques(gg.graph):
        raise ValueError("tree nodes are not the canonical maximal cliques of the graph")
    check_clique_tree(t)
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
    :class:`CertificateError`) and reported.  Then both translations run:
    the solution found must give a clique tree with at most k leaves per
    subtree, and the oracle's vertex-leafage witness, when it has at most
    k, must give a solution.  The oracle runs first, so its limit errors
    come before the brute force.
    """
    gg = build_gadget(inst)
    result = oracle_optima(gg.graph)
    vl = result.vertex_leafage
    solution = solve_brute_force(inst)
    upper_ok = vl <= inst.k + 1
    equivalence_ok = (vl <= inst.k) == (solution is not None)
    if not upper_ok:
        raise CertificateError(f"vertex leafage {vl} exceeds k + 1 = {inst.k + 1}")
    if not equivalence_ok:
        raise CertificateError(
            f"vertex leafage {vl} vs solvable={solution is not None} breaks the biconditional"
        )
    if solution is not None:
        worst = solution_to_tree(gg, solution).max_vertex_leaf_count(gg.graph.vertices)
        if worst > inst.k:
            raise CertificateError(
                f"the tree of solution {sorted(solution)} has a subtree with {worst} leaves,"
                f" more than k = {inst.k}"
            )
    if vl <= inst.k:
        tree_to_solution(gg, result.witness_trees[1])
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
