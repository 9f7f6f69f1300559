"""Host-speed reference: a fixed pure-Python task timed between ops.

The benchmark shares a few cores of a host with other jobs, and the speed
those cores give one process drifts by a quarter or more over tens of
seconds, in every kind of code alike.  So the timing metrics are reported in
*reference seconds*: each wall time is multiplied by ``NOMINAL_S`` over the
time the reference task took around it, which is what the time would have
been on a host that runs the reference task in exactly ``NOMINAL_S``.

The task is the benchmark's own and does not call the program under test,
so a change to the program moves the metrics and a change of host speed
mostly does not.  Like the program, it is set and dict work on a small graph:
breadth-first searches over a fixed random graph, with sorting and frozenset
building.  It takes about 2 ms on a 2.1 GHz x86_64 core.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

NOMINAL_S = 0.002  # reference task time that a reference second stands for
WINDOW_S = 0.25  # samples this close to an interval count towards its speed


class HostSpeed:
    """Times the reference task on demand and rescales wall times with it."""

    def __init__(self):
        rng = random.Random(0)
        self.adj = {v: set() for v in range(300)}
        while sum(len(n) for n in self.adj.values()) < 2 * 900:
            a, b = rng.randrange(300), rng.randrange(300)
            if a != b:
                self.adj[a].add(b)
                self.adj[b].add(a)
        self.at: list[float] = []  # perf_counter at the end of each sample
        self.took: list[float] = []  # its duration
        self.task()  # warm-up

    def task(self) -> int:
        total = 0
        for source in range(0, len(self.adj), 60):
            seen = {source}
            frontier = [source]
            parent = {}
            while frontier:
                nxt = []
                for u in frontier:
                    for v in sorted(self.adj[u]):
                        if v not in seen:
                            seen.add(v)
                            parent[v] = u
                            nxt.append(v)
                frontier = nxt
            total += len(seen) + sum(frozenset(parent.values()))
        return total

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.task()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median sample taken within WINDOW_S of [start, end].

        Samples are taken between ops, so one lies just before and one just
        after every op; the window adds neighbours to steady the median.
        """
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return NOMINAL_S / statistics.median(self.took[lo:hi])

    def summary(self) -> str:
        q = statistics.quantiles(self.took, n=4)
        return (f"reference task {statistics.median(self.took) * 1e3:.3f} ms median "
                f"(quartiles {q[0] * 1e3:.3f}-{q[2] * 1e3:.3f} ms, {len(self.took)} samples; "
                f"nominal {NOMINAL_S * 1e3:.3f} ms)")
