"""Independent answer checks for one op's stdout.

Nothing here calls the program under test.  Each check parses the JSON the
CLI printed and re-derives, from the instance's known maximal cliques and
edges, that the returned tree is a clique tree of the input and that the
reported optima and leaf counts hold.  A check returns None when the output
is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import lru_cache

from workloads import Instance, nae_solvable


@lru_cache(maxsize=None)
def _gadget_answers(clauses) -> dict:
    """The reduction's claim: vl = 3 if the NAE instance is solvable, else 4."""
    solvable = nae_solvable(clauses)
    return {"vertex_leafage": 3 if solvable else 4, "solvable": solvable}


def _expected(inst: Instance) -> dict:
    if inst.clauses:
        return {**inst.expect, **_gadget_answers(inst.clauses)}
    return inst.expect


def _label(clique) -> str:
    return ",".join(sorted(clique))


def _tree_problem(inst: Instance, tree_edges) -> tuple[str | None, dict]:
    """Validate a clique tree given as pairs of clique labels.

    Returns (problem, stats) where stats holds the host leaf count and the
    leaf count of every vertex subtree.  A spanning tree on the maximal
    cliques is a clique tree iff, for every vertex, the tree edges inside
    its cliques number one less than its cliques.
    """
    labels = {_label(c): c for c in inst.cliques}
    k = len(labels)
    if len(tree_edges) != k - 1:
        return f"{len(tree_edges)} tree edges for {k} cliques", {}
    degree = dict.fromkeys(labels, 0)
    parent = {x: x for x in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    inner = defaultdict(int)
    vdeg = defaultdict(lambda: defaultdict(int))
    for a, b in tree_edges:
        if a not in labels or b not in labels:
            return f"tree edge {a} -- {b} is not between maximal cliques", {}
        ra, rb = find(a), find(b)
        if ra == rb:
            return f"tree edge {a} -- {b} closes a cycle", {}
        parent[ra] = rb
        degree[a] += 1
        degree[b] += 1
        for v in labels[a] & labels[b]:
            inner[v] += 1
            vdeg[v][a] += 1
            vdeg[v][b] += 1
    count = defaultdict(int)
    for c in inst.cliques:
        for v in c:
            count[v] += 1
    for v, n in count.items():
        if inner[v] != n - 1:
            return f"cliques of vertex {v} are not connected in the tree", {}
    host = 0 if k == 1 else sum(1 for d in degree.values() if d == 1)
    per_vertex = {v: sum(1 for d in vdeg[v].values() if d == 1) for v in count}
    return None, {"host": host, "per_vertex": per_vertex}


def _check_leafage(inst: Instance, out: dict) -> str | None:
    problem, stats = _tree_problem(inst, out["tree_edges"])
    if problem:
        return problem
    if out["leafage"] != inst.expect["leafage"]:
        return f"leafage {out['leafage']}, expected {inst.expect['leafage']}"
    if stats["host"] != out["leafage"]:
        return f"tree has {stats['host']} leaves, output claims {out['leafage']}"
    steps = out["iterations"]
    for rec in steps:
        if rec["leaves_after"] != rec["leaves_before"] - 1:
            return "an iteration did not remove exactly one leaf"
    if steps and steps[-1]["leaves_after"] != out["leafage"]:
        return "last iteration does not end at the reported leafage"
    return None


def _check_vertex_leafage(inst: Instance, out: dict) -> str | None:
    problem, stats = _tree_problem(inst, out["tree_edges"])
    if problem:
        return problem
    want = _expected(inst)["vertex_leafage"]
    if out["vertex_leafage"] != want:
        return f"vertex leafage {out['vertex_leafage']}, expected {want}"
    if stats["host"] != out["leafage"]:
        return f"tree has {stats['host']} leaves, output claims {out['leafage']}"
    if out["per_vertex_leaves"] != stats["per_vertex"]:
        return "per-vertex leaf counts differ from the returned tree"
    if max(stats["per_vertex"].values()) != want:
        return "returned tree does not attain the vertex leafage"
    degree = defaultdict(int)
    for a, b in out["tree_edges"]:
        degree[a] += 1
        degree[b] += 1
    branch = sorted(sorted(e) for e in out["tree_edges"] if degree[e[0]] >= 3 or degree[e[1]] >= 3)
    if out["branch_edge_set"] != branch:
        return "branch edge set is not the edges at nodes of degree >= 3"
    return None


def _check_model(inst: Instance, out: dict) -> str | None:
    nodes = out["nodes"]
    subtrees = {u: set(s) for u, s in out["subtrees"].items()}
    vertices = {v for c in inst.cliques for v in c}
    if set(subtrees) != vertices:
        return "model vertices differ from the input vertices"
    members = defaultdict(set)
    for u, s in subtrees.items():
        for x in s:
            members[x].add(u)
    if sorted(map(frozenset, members.values()), key=sorted) != sorted(inst.cliques, key=sorted):
        return "model nodes are not the maximal cliques of the input"
    node_clique = {x: frozenset(members[x]) for x in nodes}
    tree_edges = [(_label(node_clique[a]), _label(node_clique[b])) for a, b in out["edges"]]
    problem, stats = _tree_problem(inst, tree_edges)
    if problem:
        return problem
    if (out["leafage"], out["vertex_leafage"]) != (inst.expect["leafage"], inst.expect["vertex_leafage"]):
        return f"optima ({out['leafage']}, {out['vertex_leafage']}), expected " \
               f"({inst.expect['leafage']}, {inst.expect['vertex_leafage']})"
    if stats["host"] != out["leafage"] or max(stats["per_vertex"].values()) != out["vertex_leafage"]:
        return "model leaf counts differ from the reported optima"
    return None


def _check_oracle(inst: Instance, out: dict) -> str | None:
    for key in ("leafage", "vertex_leafage", "tree_count"):
        if out[key] != inst.expect[key]:
            return f"{key} {out[key]}, expected {inst.expect[key]}"
    want = {
        "min_leafage": (out["leafage"], None),
        "min_vertex_leafage": (None, out["vertex_leafage"]),
        "joint": (out["leafage"], out["vertex_leafage"]),
    }
    for name, (host, vl) in want.items():
        problem, stats = _tree_problem(inst, out["witness_trees"][name])
        if problem:
            return f"{name} witness: {problem}"
        if host is not None and stats["host"] != host:
            return f"{name} witness has {stats['host']} leaves"
        if vl is not None and max(stats["per_vertex"].values()) != vl:
            return f"{name} witness misses the vertex leafage"
    return None


def _check_gadget_verify(inst: Instance, out: dict) -> str | None:
    expect = _expected(inst)
    for key in ("k", "n", "m", "solvable", "vertex_leafage"):
        if out[key] != expect[key]:
            return f"{key} {out[key]}, expected {expect[key]}"
    if not (out["upper_bound_ok"] and out["equivalence_ok"]):
        return "reduction flags are not both true"
    solution = out["solution"]
    if (solution is not None) != out["solvable"]:
        return "solution presence disagrees with solvability"
    if solution is not None:
        s = set(solution)
        if not all(c & s and c - s for c in inst.clauses):
            return "reported solution leaves a clause monochromatic"
    return None


CHECKS = {
    ("leafage",): _check_leafage,
    ("vertex-leafage",): _check_vertex_leafage,
    ("model",): _check_model,
    ("oracle",): _check_oracle,
    ("gadget", "verify"): _check_gadget_verify,
}


def check_output(inst: Instance, stdout: bytes) -> str | None:
    """None if ``stdout`` is a right answer for ``inst``, else the reason."""
    try:
        out = json.loads(stdout)
        return CHECKS[inst.args](inst, out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
