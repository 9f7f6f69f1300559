"""Shared fixtures: the random chordal corpus with precomputed oracle optima."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leafage

from leafage.graphs import Graph, check_chordal, PerfectEliminationOrder
from leafage.oracle import oracle_optima, random_chordal

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
