"""Exhaustive reference implementations for small instances.

These are ground-truth oracles used by the test suite to validate the
scalable algorithms: a brute-force fat-minor search, the exact sparsest
separation, and the exact minimum balanced separator.  They recompute
everything from first principles (own BFS, own connectivity) instead of
calling the main implementations, so agreement between the two is
meaningful evidence.

All three enforce hard instance-size caps; they are exponential by design
and useless beyond toy sizes.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations

from .fatminor import FatModel, PatternGraph
from .graph import GraphError, Separation, WeightedGraph, make_separation

_MAX_HOST_N = 12
_MAX_PATTERN_SIZE = 6
_MAX_EXACT_N = 16


def _distance_matrix(g: WeightedGraph) -> list[list[float]]:
    out = []
    for s in range(g.n):
        dist = [math.inf] * g.n
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in g.adj[u]:
                if dist[v] == math.inf:
                    dist[v] = dist[u] + 1
                    q.append(v)
        out.append(dist)
    return out


def _adjacency_masks(g: WeightedGraph) -> list[int]:
    masks = [0] * g.n
    for u in range(g.n):
        for v in g.adj[u]:
            masks[u] |= 1 << v
    return masks


def _reach(adj: list[int], seed: int, mask: int) -> int:
    """Bitmask grown from `seed` along `adj`, one BFS layer at a time.

    Each layer adds the neighbours inside `mask` of the vertices reached.
    """
    reach = seed
    while True:
        grow = reach
        m = reach
        while m:
            low = m & -m
            grow |= adj[low.bit_length() - 1] & mask
            m ^= low
        if grow == reach:
            return reach
        reach = grow


def _connected_subsets(g: WeightedGraph) -> list[int]:
    """All nonempty connected vertex subsets as bitmasks, small first."""
    adj = _adjacency_masks(g)
    out = []
    for mask in range(1, 1 << g.n):
        if _reach(adj, mask & -mask, mask) == mask:
            out.append(mask)
    out.sort(key=lambda s: (bin(s).count("1"), s))
    return out


def _mask_vertices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def brute_force_fat_minor(g: WeightedGraph, pattern: PatternGraph,
                          d: int) -> FatModel | None:
    """Search all branch-set assignments; None means none exists.

    Hosts are capped at 12 vertices and patterns at size 6 (vertices plus
    edges).  Branch sets are tried small-first, so positive instances
    usually return quickly; negative instances pay for full exhaustion.
    """
    if g.n > _MAX_HOST_N:
        raise GraphError(f"brute force capped at {_MAX_HOST_N} host vertices")
    if pattern.size > _MAX_PATTERN_SIZE:
        raise GraphError(
            f"brute force capped at pattern size {_MAX_PATTERN_SIZE}")
    if d < 1:
        raise GraphError("fatness must be at least 1")
    if pattern.n == 0:
        return FatModel(d, {}, {})
    if g.n == 0:
        return None

    dist = _distance_matrix(g)
    candidates = _connected_subsets(g)

    # close_of[v] = vertices within distance d - 1 of v; two branch sets
    # violate the distance condition iff one meets the closure of the other
    close_of = [0] * g.n
    for v in range(g.n):
        for u in range(g.n):
            if dist[v][u] < d:
                close_of[v] |= 1 << u
    closure: dict[int, int] = {}
    for mask in candidates:
        acc = 0
        for v in _mask_vertices(mask):
            acc |= close_of[v]
        closure[mask] = acc

    def has_scatter(mask: int, need: int) -> bool:
        # does `mask` hold `need` vertices pairwise at distance >= d?
        if need <= 1:
            return mask != 0 or need == 0
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            if has_scatter(mask & ~close_of[v], need - 1):
                return True
            # dropping v keeps fewer options, handled by the loop
        return False

    # vertices first (high degree first), each edge as soon as both of its
    # endpoints are placed; edges are the tightly constrained slots
    vertex_order = sorted(range(pattern.n),
                          key=lambda v: (-pattern.degree(v), v))
    slots: list[tuple[str, object]] = []
    placed: set[int] = set()
    for v in vertex_order:
        placed.add(v)
        slots.append(("vertex", v))
        for e in pattern.edges:
            if ("edge", e) not in slots and e[0] in placed and e[1] in placed:
                slots.append(("edge", e))

    # a vertex of pattern degree k needs k contact points pairwise >= d
    # apart (its incident edge sets each meet it but must avoid each other)
    slot_candidates: list[list[int]] = []
    for kind, item in slots:
        if kind == "vertex" and pattern.degree(item) >= 2:
            k = pattern.degree(item)
            slot_candidates.append(
                [m for m in candidates if has_scatter(m, k)])
        else:
            slot_candidates.append(candidates)

    def incident(kind: str, item, okind: str, oitem) -> bool:
        if kind == "edge" and okind == "vertex":
            return oitem in item
        if kind == "vertex" and okind == "edge":
            return item in oitem
        return False

    def compatible(kind: str, item, mask: int,
                   chosen: list[tuple[str, object, int]]) -> bool:
        for okind, oitem, omask in chosen:
            if incident(kind, item, okind, oitem):
                if not (mask & omask):
                    return False
            elif closure[mask] & omask:
                return False
        return True

    chosen: list[tuple[str, object, int]] = []

    def feasible_ahead(upto: int) -> bool:
        # forward check: every unplaced slot still has some candidate
        # compatible with everything chosen so far
        for j in range(upto, len(slots)):
            kind, item = slots[j]
            if not any(compatible(kind, item, mask, chosen)
                       for mask in slot_candidates[j]):
                return False
        return True

    def search(i: int) -> bool:
        if i == len(slots):
            return True
        kind, item = slots[i]
        for mask in slot_candidates[i]:
            if not compatible(kind, item, mask, chosen):
                continue
            chosen.append((kind, item, mask))
            if feasible_ahead(i + 1) and search(i + 1):
                return True
            chosen.pop()
        return False

    if not search(0):
        return None
    vertex_sets = {}
    edge_sets = {}
    for kind, item, mask in chosen:
        if kind == "vertex":
            vertex_sets[item] = frozenset(_mask_vertices(mask))
        else:
            edge_sets[item] = frozenset(_mask_vertices(mask))
    return FatModel(d, vertex_sets, edge_sets)


def exact_sparsest_separation(g: WeightedGraph) -> Separation | None:
    """Minimum-sparsity separation by full enumeration (n <= 16).

    Every separator subset S is tried with every assignment of the
    components of G - S to the two sides; sides are S plus their assigned
    components.  None when no valid separation exists (no positive weight
    to put on both sides).
    """
    if g.n > _MAX_EXACT_N:
        raise GraphError(f"exact search capped at {_MAX_EXACT_N} vertices")
    if g.n == 0:
        return None
    adj = _adjacency_masks(g)
    weights = g.weights

    def mask_weight(mask: int) -> float:
        return math.fsum(weights[v] for v in _mask_vertices(mask))

    def components(mask: int) -> list[int]:
        comps = []
        rest = mask
        while rest:
            reach = _reach(adj, rest & -rest, mask)
            comps.append(reach)
            rest &= ~reach
        return comps

    full = (1 << g.n) - 1
    best: tuple[float, int, int] | None = None
    for s_mask in range(1 << g.n):
        s_size = bin(s_mask).count("1")
        ws = mask_weight(s_mask)
        comps = components(full & ~s_mask)
        cw = [mask_weight(c) for c in comps]
        for assign in range(1 << len(comps)):
            xa = math.fsum(cw[i] for i in range(len(comps))
                           if assign >> i & 1)
            wa = ws + xa
            wb = ws + math.fsum(cw) - xa
            if wa <= 0 or wb <= 0:
                continue
            prod = wa * wb  # if it underflows, a nonempty cut is inf sparse
            alpha = s_size / prod if prod else math.inf if s_size else 0.0
            if best is None or alpha < best[0]:
                a_mask = s_mask
                for i in range(len(comps)):
                    if assign >> i & 1:
                        a_mask |= comps[i]
                best = (alpha, a_mask, s_mask | (full & ~a_mask))
    if best is None:
        return None
    return make_separation(g, _mask_vertices(best[1]),
                           _mask_vertices(best[2]))


def exact_min_balanced_separator(g: WeightedGraph) -> frozenset[int]:
    """Smallest vertex set whose removal leaves components of weight <= W/2.

    Ties go to the lexicographically first set of the smallest size.
    Capped at 16 vertices.  Removing all n vertices balances, so the
    search always returns a set.
    """
    if g.n > _MAX_EXACT_N:
        raise GraphError(f"exact search capped at {_MAX_EXACT_N} vertices")
    half = g.total_weight / 2.0
    adj = _adjacency_masks(g)
    weights = g.weights

    def balanced(s: tuple[int, ...]) -> bool:
        s_mask = 0
        for v in s:
            s_mask |= 1 << v
        rest = ((1 << g.n) - 1) & ~s_mask
        while rest:
            reach = _reach(adj, rest & -rest, rest)
            if math.fsum(weights[v] for v in _mask_vertices(reach)) > half:
                return False
            rest &= ~reach
        return True

    for size in range(g.n + 1):
        for s in combinations(range(g.n), size):
            if balanced(s):
                return frozenset(s)
