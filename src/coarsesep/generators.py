"""Deterministic graph families for tests, benchmarks and the CLI."""

from __future__ import annotations

import random

from .graph import GraphError, WeightedGraph, connected_components

# pairing-model draws before `random_regular_graph` gives up
_REGULAR_ATTEMPTS = 1000


def path_graph(n: int) -> WeightedGraph:
    return WeightedGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> WeightedGraph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return WeightedGraph(n, edges)


def complete_graph(n: int) -> WeightedGraph:
    return WeightedGraph(n, [(i, j) for i in range(n)
                             for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int | None = None) -> WeightedGraph:
    if cols is None:
        cols = rows
    if rows < 1 or cols < 1:
        raise GraphError("grid needs positive dimensions")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return WeightedGraph(rows * cols, edges)


def torus_graph(rows: int, cols: int | None = None) -> WeightedGraph:
    if cols is None:
        cols = rows
    if rows < 3 or cols < 3:
        raise GraphError("torus needs both dimensions at least 3")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges.add((min(v, right), max(v, right)))
            edges.add((min(v, down), max(v, down)))
    return WeightedGraph(rows * cols, sorted(edges))


def gnp_graph(n: int, p: float, seed: int = 0) -> WeightedGraph:
    if not (0.0 <= p <= 1.0):
        raise GraphError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return WeightedGraph(n, edges)


def random_regular_graph(n: int, degree: int, seed: int = 0) -> WeightedGraph:
    """Connected d-regular graph via the pairing model; resamples on clash."""
    if degree < 1 or degree >= n:
        raise GraphError("degree must lie in [1, n)")
    if n * degree % 2 == 1:
        raise GraphError("n * degree must be even")
    rng = random.Random(seed)
    for _ in range(_REGULAR_ATTEMPTS):
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        g = WeightedGraph(n, sorted(edges))
        # insist on connectivity so downstream demands are routable
        if len(connected_components(g)) == 1:
            return g
    raise GraphError(
        f"no simple connected {degree}-regular graph found in "
        f"{_REGULAR_ATTEMPTS} attempts")


def barbell_graph(k: int, bridge: int = 0) -> WeightedGraph:
    """Two k-cliques joined by a path with `bridge` interior vertices."""
    if k < 2:
        raise GraphError("barbell cliques need at least 2 vertices")
    if bridge < 0:
        raise GraphError("bridge length must be nonnegative")
    n = 2 * k + bridge
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((k + bridge + i, k + bridge + j))
    chain = [k - 1] + list(range(k, k + bridge)) + [k + bridge]
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b))
    return WeightedGraph(n, edges)
