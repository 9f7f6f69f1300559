"""Spans around the public functions of each leafage module.

The tracer rebinds each wrapped function in every ``leafage.*`` module that
holds it (``minimize_leafage`` lives in both ``tokens`` and
``vertex_leafage``, for example), so calls made through any import path are
seen.  Nothing under ``src/`` changes; ``uninstall`` restores the originals.

A span records its name, start, end, parent span and op id.  Spans stay in
memory as flat arrays and are written once, when the run ends.  Self time is
a span's duration minus the time of its child spans, accumulated as spans
close.  ``CliqueTree.neighbors`` is only counted: it runs ~345k times in one
K_{1,28} op, too often to span.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, counter hook).  A hook maps the return
# value to {counter name: increment}.
SPANS = [
    ("graphs", "parse_graph", "graphs.parse_graph", None),
    ("graphs", "check_chordal", "graphs.check_chordal", None),
    ("graphs", "maximal_cliques", "graphs.maximal_cliques", None),
    ("graphs", "clique_graph", "graphs.clique_graph", lambda r: {"graphs.clique_graph.edges": len(r.weights)}),
    ("cliquetrees", "build_clique_tree", "cliquetrees.build_clique_tree", None),
    ("cliquetrees", "path_containment_violation", "cliquetrees.path_containment_violation", None),
    ("cliquetrees", "model_from_clique_tree", "cliquetrees.model_from_clique_tree", None),
    ("cliquetrees", "leaf_report", "cliquetrees.leaf_stats", None),
    ("cliquetrees", "CliqueTree.vertex_leaf_count", "cliquetrees.leaf_stats", None),
    ("cliquetrees", "CliqueTree.max_vertex_leaf_count", "cliquetrees.leaf_stats", None),
    ("tokens", "find_realizing_tree", "tokens.find_realizing_tree",
     lambda r: {"tokens.find_realizing_tree.found": r is not None}),
    ("tokens", "shortest_augmenting_path", "tokens.shortest_augmenting_path",
     lambda r: {"tokens.iterations": r is not None}),
    # ``minimize_leafage`` delegates to this, so one span per minimization.
    ("tokens", "minimize_leafage_with_trace", "tokens.minimize_leafage", None),
    ("vertex_leafage", "augmented_graph", "vertex_leafage.augmented_graph", None),
    ("vertex_leafage", "clique_tree_with_branching", "vertex_leafage.clique_tree_with_branching",
     lambda r: {"vertex_leafage.clique_tree_with_branching.accepted": r is not None}),
    ("vertex_leafage", "candidate_branch_sets", "vertex_leafage.candidate_branch_sets",
     lambda r: {"vertex_leafage.candidates": len(r)}),
    ("vertex_leafage", "vertex_leafage_bounded", "vertex_leafage.vertex_leafage_bounded", None),
    ("vertex_leafage", "simultaneous_optimum", "vertex_leafage.simultaneous_optimum", None),
    ("oracle", "oracle_optima", "oracle.oracle_optima", lambda r: {"oracle.trees": r.tree_count}),
    ("gadget", "build_gadget", "gadget.build_gadget", None),
    ("gadget", "solve_brute_force", "gadget.solve_brute_force", None),
    ("gadget", "verify_reduction", "gadget.verify_reduction", None),
]
COUNTED = [("cliquetrees", "CliqueTree.neighbors", "cliquetrees.CliqueTree.neighbors.calls")]
ROOT = "cli"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span index, child time]
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(perf_counter())
        return idx

    def _close(self, name: str) -> float:
        t = perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def run_op(self, op_id: int, fn):
        """Call ``fn()`` as op ``op_id`` under a root span; return (result, seconds)."""
        self._op_id = op_id
        self._open(ROOT)
        try:
            result = fn()
        finally:
            dur = self._close(ROOT)
        return result, dur

    def _span(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name)
            if hook is not None:
                for key, inc in hook(result).items():
                    tracer.counters[key] += inc
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, key):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every listed function wherever a ``leafage`` module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "leafage" or n.startswith("leafage.")]
        plan = [(mod, attr, self._span, name, hook) for mod, attr, name, hook in SPANS]
        plan += [(mod, attr, self._count, key) for mod, attr, key in COUNTED]
        for mod, attr, make, *extra in plan:
            owner = sys.modules[f"leafage.{mod}"]
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, make(orig, *extra))
                continue
            orig = getattr(owner, attr)
            wrapped = make(orig, *extra)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._saved):
            setattr(target, key, orig)
        self._saved.clear()

    def write(self, path, meta: dict) -> None:
        """Write every span, once, as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "op"],
                    "spans": [
                        list(row)
                        for row in zip(self.name, self.start, self.end, self.parent, self.op)
                    ],
                },
                fh,
            )


def layer_metrics(tr: Tracer, ops: int) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics, per traced op: name -> (value, unit, base note)."""
    per_op = f"per op, base {ops} traced ops"
    out: dict[str, tuple[float, str, str]] = {}

    def calls(name):
        out[f"{name}.calls"] = (tr.calls[name] / ops, "1/op", per_op)

    def self_s(name):
        out[f"{name}.self_s"] = (tr.self_s[name] / ops, "s/op", per_op)

    def count(key):
        out[key] = (tr.counters[key] / ops, "1/op", per_op)

    def ratio(key, num, den_name):
        den = tr.calls[den_name]
        n = tr.counters[num]
        out[key] = (n / den if den else 0.0, "1", f"{n} of {den} calls")

    for name in ("tokens.find_realizing_tree", "tokens.shortest_augmenting_path", "tokens.minimize_leafage"):
        calls(name)
        self_s(name)
    ratio("tokens.find_realizing_tree.found_ratio", "tokens.find_realizing_tree.found",
          "tokens.find_realizing_tree")
    count("tokens.iterations")
    calls("cliquetrees.path_containment_violation")
    self_s("cliquetrees.path_containment_violation")
    count("cliquetrees.CliqueTree.neighbors.calls")
    calls("vertex_leafage.candidate_branch_sets")
    self_s("vertex_leafage.candidate_branch_sets")
    count("vertex_leafage.candidates")
    calls("vertex_leafage.clique_tree_with_branching")
    self_s("vertex_leafage.clique_tree_with_branching")
    ratio("vertex_leafage.clique_tree_with_branching.accept_ratio",
          "vertex_leafage.clique_tree_with_branching.accepted",
          "vertex_leafage.clique_tree_with_branching")
    self_s("vertex_leafage.augmented_graph")
    self_s("vertex_leafage.vertex_leafage_bounded")
    self_s("vertex_leafage.simultaneous_optimum")
    for fn in ("parse_graph", "check_chordal", "maximal_cliques", "clique_graph"):
        calls(f"graphs.{fn}")
        self_s(f"graphs.{fn}")
    count("graphs.clique_graph.edges")
    calls("cliquetrees.build_clique_tree")
    self_s("cliquetrees.build_clique_tree")
    self_s("cliquetrees.leaf_stats")
    self_s("cliquetrees.model_from_clique_tree")
    calls("oracle.oracle_optima")
    self_s("oracle.oracle_optima")
    count("oracle.trees")
    for fn in ("build_gadget", "solve_brute_force", "verify_reduction"):
        self_s(f"gadget.{fn}")
    self_s(ROOT)
    return out
