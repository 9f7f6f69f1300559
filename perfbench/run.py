"""Closed-loop benchmark of the leafage CLI.

    python3 perfbench/run.py --workload leafage-augment --seed 1 --seconds 20 --trace 0

One client sends one op at a time: a CLI command invoked in-process through
``click.testing.CliRunner`` on generated input text.  The loop runs ops for
``--seconds`` seconds, then checks every answer against its known optimum
(outside the timed window) and prints a per-instance breakdown followed by
one JSON line with the metrics.  ``--trace 0`` gives the end-to-end metrics,
timed in reference seconds (see hostspeed.py);
``--trace 1`` runs every op untraced and then traced, reports per-layer
metrics, and reports ``correct: false`` unless both runs of every op print
identical stdout.

``--workload baseline`` instead runs the rows of the ROADMAP baseline table
once each, including the known ``RecursionError`` on K_{1,48}.

Runs from the repository root: the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_output  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import (FANO, WORKLOADS, build_schedule, caterpillar, gadget_vl_instance,  # noqa: E402
                       path, spider, spider_answers, star, star_families, tree_instance)

OP_LIMIT_S = 20.0  # an op still running after this is stopped and failed
SETUP_PROBES = 7
DEFAULT_SEED = 1


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S} s")


@dataclass(slots=True)
class Op:
    """Outcome of one op."""

    inst: object
    start: float  # perf_counter when the op was invoked
    seconds: float
    stdout: bytes
    error: str | None  # None, or why the op failed


class Client:
    """The one closed-loop client: the CLI imported from ``src/`` of this checkout."""

    def __init__(self):
        src = HERE.parent / "src"
        if not (src / "leafage" / "cli.py").is_file():
            sys.exit(f"error: no leafage sources at {src}; run from a repository checkout")
        sys.path.insert(0, str(src))
        from click.testing import CliRunner
        from leafage.cli import main

        self.runner = CliRunner()
        self.main = main
        # One copy of each distinct output per instance, so memory does not
        # grow with the op count and peak RSS reflects the program.
        self._outputs: dict[tuple[int, bytes], bytes] = {}
        signal.signal(signal.SIGALRM, _on_alarm)

    def op(self, inst, call=None) -> Op:
        """Run one op, timed from CLI invoke to stdout returned.

        ``call`` wraps the invocation (the tracer's root span) and returns
        (result, seconds).
        """
        fn = lambda: self.runner.invoke(self.main, [*inst.args, "-"], input=inst.text)  # noqa: E731
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        t0 = time.perf_counter()
        try:
            if call is None:
                res = fn()
                dt = time.perf_counter() - t0
            else:
                res, dt = call(fn)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        error = None
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            error = f"{type(res.exception).__name__}: {str(res.exception)[:80]}"
        elif res.exit_code != 0:
            error = f"exit code {res.exit_code}"
        out = res.stdout_bytes
        return Op(inst, t0, dt, self._outputs.setdefault((id(inst), out), out), error)


def check_ops(ops: list[Op]) -> int:
    """Check every answer once per distinct output; return the wrong-answer count."""
    verdicts: dict[tuple[int, bytes], str | None] = {}
    wrong = 0
    for op in ops:
        if op.error is not None:
            continue
        key = (id(op.inst), op.stdout)
        if key not in verdicts:
            verdicts[key] = check_output(op.inst, op.stdout)
        if verdicts[key] is not None:
            op.error = f"wrong answer: {verdicts[key]}"
            wrong += 1
    return wrong


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(len(ordered) * q, 9)))
    return ordered[rank - 1]


def setup_seconds(workload: str, seed: int, speed: HostSpeed) -> float:
    """Median time, in reference seconds, of fresh processes that import the
    program and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL,
        )
        t1 = time.perf_counter()
        speed.sample()
        times.append((t1 - t0) * speed.scale(t0, t1))
    return statistics.median(times)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def breakdown(ops: list[Op]) -> None:
    """Per-instance-shape rows: op count, median and max op time, failures."""
    by_shape = defaultdict(list)
    for op in ops:
        by_shape[op.inst.shape].append(op)
    for shape in sorted(by_shape, key=lambda s: statistics.median(o.seconds for o in by_shape[s])):
        group = by_shape[shape]
        secs = [o.seconds for o in group]
        errors = sorted({o.error for o in group if o.error})
        print(f"instance {shape:<24} {' '.join(group[0].inst.args):<15} ops={len(group):<4} "
              f"median_s={statistics.median(secs):.4f} max_s={max(secs):.4f} "
              f"failed={sum(1 for o in group if o.error)}" + (f" ({'; '.join(errors)})" if errors else ""))


def run_loop(client, schedule, seconds, one_op, speed=None) -> tuple[list, float]:
    """Closed loop: next op only after the previous one returns.

    With ``speed``, the reference task is timed before the first op and
    after every op.
    """
    client.op(schedule[0])  # warm-up, not counted
    results = []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    if speed:
        speed.sample()
    while time.perf_counter() < deadline:
        results.append(one_op(i, schedule[i % len(schedule)]))
        if speed:
            speed.sample()
        i += 1
    return results, time.perf_counter() - t0


def end_to_end(args, client, schedule) -> dict:
    speed = HostSpeed()
    setup_s = setup_seconds(args.workload, args.seed, speed)
    ops, _ = run_loop(client, schedule, args.seconds, lambda i, inst: client.op(inst), speed)
    wrong = check_ops(ops)
    failed = sum(1 for op in ops if op.error)
    # Op times in reference seconds (see hostspeed.py).  A failed op counts
    # as missing every latency limit: it ranks at the op limit, above every
    # op that finished.
    ref = [op.seconds * speed.scale(op.start, op.start + op.seconds) for op in ops]
    secs = [OP_LIMIT_S if op.error else r for op, r in zip(ops, ref)]
    wall = [OP_LIMIT_S if op.error else op.seconds for op in ops]
    breakdown(ops)
    print(f"fail_ratio {failed / len(ops):.4f} (failed {failed} of {len(ops)} attempted ops, "
          f"{wrong} wrong answers)")
    print(f"host speed: {speed.summary()}")
    print(f"wall clock, not rescaled: op_s_p50 {percentile(wall, 0.5):.6g} s, "
          f"op_s_p90 {percentile(wall, 0.9):.6g} s, "
          f"ops_per_s {len(ops) / sum(op.seconds for op in ops):.6g} ops/s")
    metrics = {
        "op_s_p50": (percentile(secs, 0.5), "s"),
        "op_s_p90": (percentile(secs, 0.9), "s"),
        "ops_per_s": (len(ops) / sum(ref), "ops/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}" + (" (MB)" if unit == "MB" else " (reference)"))
    return {"correct": wrong == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced(args, client, schedule) -> dict:
    tracer = Tracer()

    def pair(i, inst):
        plain = client.op(inst)
        tracer.install()
        try:
            spanned = client.op(inst, call=lambda fn: tracer.run_op(i, fn))
        finally:
            tracer.uninstall()
        return plain, spanned

    pairs, _ = run_loop(client, schedule, args.seconds, pair)
    plain = [p for p, _ in pairs]
    spanned = [s for _, s in pairs]
    wrong = check_ops(plain) + check_ops(spanned)
    mismatched = [p.inst.shape for p, s in pairs if p.stdout != s.stdout]
    failed = sum(1 for p, s in pairs if p.error or s.error)
    overhead = sum(s.seconds for s in spanned) / sum(p.seconds for p in plain) - 1
    breakdown(spanned)
    print(f"stdout identical traced vs untraced: {len(pairs) - len(mismatched)} of "
          f"{len(pairs)} ops" + (f" (differ: {sorted(set(mismatched))})" if mismatched else ""))
    layers = layer_metrics(tracer, len(spanned))
    layers["trace.overhead_ratio"] = (overhead, "1", f"traced / untraced time of {len(pairs)} ops - 1")
    for name, (value, unit, base) in layers.items():
        print(f"metric {name} = {value:.6g} {unit} ({base})")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": environment()})
    print(f"spans: {len(tracer.start)} written to {path.relative_to(HERE.parent)}")
    return {"correct": wrong == 0 and not mismatched, "attempted": len(spanned), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in layers.items()}}


def baseline(client) -> dict:
    """The ROADMAP baseline rows, one op each; K_{1,48} is the known RecursionError."""
    rng = random.Random(DEFAULT_SEED)
    p800 = tree_instance("path-800", ("model",), path(800), rng, {"leafage": 2, "vertex_leafage": 2})
    rows = [
        tree_instance("star-16", ("leafage",), star(16), rng, {"leafage": 2}),
        tree_instance("star-32", ("leafage",), star(32), rng, {"leafage": 2}),
        tree_instance("star-48", ("leafage",), star(48), rng, {"leafage": 2}),
        tree_instance("caterpillar-400x2", ("leafage",), caterpillar([2] * 400), rng, {"leafage": 2}),
        tree_instance("spider-5x3", ("vertex-leafage",), spider(5, 3), rng,
                      {"vertex_leafage": spider_answers(5, 3)["vertex_leafage"]}),
        gadget_vl_instance("nae-gadget", next(f for f in star_families()
                                             if len(set().union(*f)) == 6), rng),
        gadget_vl_instance("fano-gadget", FANO, rng),
        p800,
        tree_instance("oracle-spider-6x2", ("oracle",), spider(6, 2), rng, spider_answers(6, 2)),
    ]
    ops = [client.op(inst) for inst in rows]
    wrong = check_ops(ops)
    for op in ops:
        print(f"baseline {op.inst.shape:<20} {' '.join(op.inst.args):<15} {op.seconds:8.3f} s  "
              f"{op.error or 'ok'}")
    # The ROADMAP row for P_800 times the front half alone: the graph and
    # clique-tree layers and the leaf statistics.  Trace one more op for it.
    tracer = Tracer()
    tracer.install()
    try:
        op = client.op(p800, call=lambda fn: tracer.run_op(0, fn))
    finally:
        tracer.uninstall()
    front = [n for n in tracer.self_s if n.startswith(("graphs.", "cliquetrees."))
             and n != "cliquetrees.model_from_clique_tree"]
    print(f"baseline path-800 front half: {sum(tracer.self_s[n] for n in front):.3f} s of a "
          f"{op.seconds:.3f} s traced op, over {tracer.calls['graphs.check_chordal']} passes "
          f"through the graph layers ({', '.join(sorted(front))})")
    failed = sum(1 for op in ops if op.error)
    return {"correct": wrong == 0, "attempted": len(ops), "failed": failed,
            "metrics": {f"{op.inst.shape}.op_s": {"value": op.seconds, "unit": "s"} for op in ops}}


def main_(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "baseline"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    client = Client()
    if args.workload == "baseline":
        result = baseline(client)
    else:
        schedule = build_schedule(args.workload, args.seed)
        if args.setup_probe:
            return 0
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        run = traced if args.trace else end_to_end
        result = run(args, client, schedule)
    print(f"env {json.dumps(environment())}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main_())
