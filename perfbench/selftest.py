"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Known answers: the closed forms agree with the program's exhaustive
   oracle on small spiders, and the bench's NAE brute force agrees with the
   program's ``solve_brute_force`` on all 31 families and Fano.
2. The checker passes the smallest instance of every workload and flags a
   deliberately corrupted copy of its answer (an optimum off by one) as a
   wrong answer.
3. A short run of every workload, untraced and traced, prints every metric
   named in BENCHMARK.json with the unit given there.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check_output  # noqa: E402
from run import Client  # noqa: E402
from workloads import (FANO, WORKLOADS, build_schedule, nae_solvable, spider,  # noqa: E402
                       spider_answers, star_families)


def _bump(field):
    return f"{field} + 1", lambda out: out.update({field: out[field] + 1})


# Deliberate corruptions of each command's output: an optimum off by one,
# and a broken certificate.
CORRUPTIONS = {
    ("leafage",): [_bump("leafage"), ("tree edge dropped", lambda out: out["tree_edges"].pop())],
    ("vertex-leafage",): [_bump("vertex_leafage"),
                          ("tree edge dropped", lambda out: out["tree_edges"].pop())],
    ("model",): [_bump("leafage"), ("host edge dropped", lambda out: out["edges"].pop())],
    ("oracle",): [_bump("tree_count"),
                  ("witness edge dropped", lambda out: out["witness_trees"]["joint"].pop())],
    ("gadget", "verify"): [_bump("vertex_leafage"),
                           ("solution emptied", lambda out: out.update(solution=[]))],
}


def fail(msg: str) -> None:
    sys.exit(f"selftest FAILED: {msg}")


def known_answers() -> None:
    from leafage.gadget import NaeInstance, solve_brute_force
    from leafage.graphs import Graph
    from leafage.oracle import oracle_optima

    for legs in (3, 4, 5):
        for length in (2, 3):
            res = oracle_optima(Graph.from_edges([], spider(legs, length)))
            got = {"leafage": res.leafage, "vertex_leafage": res.vertex_leafage,
                   "tree_count": res.tree_count}
            if got != spider_answers(legs, length):
                fail(f"spider({legs},{length}) closed form {spider_answers(legs, length)} != oracle {got}")
    for clauses in star_families() + [FANO]:
        lib = solve_brute_force(NaeInstance.create(list(clauses), 3)) is not None
        if lib != nae_solvable(clauses):
            fail(f"NAE solvability disagrees on {sorted(map(sorted, clauses))}")
    print("known answers: spider closed forms and NAE solvability agree with the program")


def checker(client: Client) -> None:
    for workload in WORKLOADS:
        smallest = min(build_schedule(workload, 1, passes=1), key=lambda i: len(i.text))
        op = client.op(smallest)
        problem = op.error or check_output(smallest, op.stdout)
        if problem:
            fail(f"{workload}: {smallest.shape} fails: {problem}")
        print(f"checker: {workload} {smallest.shape} passes")
        for what, corrupt in CORRUPTIONS[smallest.args]:
            out = json.loads(op.stdout)
            corrupt(out)
            reason = check_output(smallest, json.dumps(out).encode())
            if reason is None:
                fail(f"{workload}: {smallest.shape} with {what} passed the checker")
            print(f"checker: {workload} {smallest.shape} with {what} flagged: {reason}")


def metrics_present() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=170,
            )
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                fail(f"{workload} trace {trace}: correct={result['correct']} failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in names}
            if got != want:
                fail(f"{workload} trace {trace}: metrics {got} != {want}")
        print(f"metrics: {workload} prints every end-to-end and per-layer metric with its unit")


def main_() -> int:
    client = Client()
    known_answers()
    checker(client)
    metrics_present()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
