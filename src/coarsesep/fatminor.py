"""Fat-minor models: patterns, subdivisions, verification, conversions.

A pattern H is realized in a host graph at fatness d by branch sets: one
connected vertex set per pattern vertex and one per pattern edge.  A branch
set of an edge must intersect the branch sets of both endpoints; every
other pair of branch sets must be at host distance at least d.  Fatness 1
is the classical minor condition (pairwise disjointness plus contraction
edges).

A *crude* model lives on the 2-subdivision of the pattern (each edge
becomes a path with two fresh interior vertices): it assigns host vertices
to subdivision vertices and host paths to subdivision edges, and only path
pairs with four distinct subdivision endpoints must stay d apart.  Crude
models are what randomized rounding produces; `crude_to_fat` upgrades them
to genuine models, `lift_model` transports models from a cluster quotient
back to the underlying graph, and `power_model_to_base` turns a 3-fat
model in the d-th graph power into a d-fat model in the base graph.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .flow import ConcurrentFlow
from .graph import (GraphError, WeightedGraph, bfs_layers, bfs_tree,
                    set_distance)


class ModelError(GraphError):
    """A claimed fat-minor model failed verification."""

    def __init__(self, message: str, violations: tuple[str, ...] = ()):
        super().__init__(message)
        self.violations = violations


# ---------------------------------------------------------------------------
# Patterns and their 2-subdivisions


class PatternGraph:
    """Simple unweighted pattern on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("pattern needs a nonnegative vertex count")
        self.n = n
        canon = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"pattern edge ({u}, {v}) out of range")
            if u == v:
                raise GraphError(f"pattern has self-loop at {u}")
            canon.add((min(u, v), max(u, v)))
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = [sorted(xs) for xs in adj]

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def size(self) -> int:
        """Vertex count plus edge count."""
        return self.n + len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.adj[v]]


def ensure_no_isolated(pattern: PatternGraph) -> PatternGraph:
    """Add edges pairing up isolated vertices; leftover joins a neighbor.

    Realizing the augmented pattern realizes the original: extra edges only
    impose conditions, never relax them.  A single isolated vertex attaches
    to the smallest non-isolated vertex.  Rejects the one-vertex pattern,
    which cannot be fixed by adding edges.
    """
    isolated = pattern.isolated_vertices()
    if not isolated:
        return pattern
    if pattern.n == 1:
        raise GraphError("cannot augment a single-vertex pattern")
    edges = list(pattern.edges)
    for i in range(0, len(isolated) - 1, 2):
        edges.append((isolated[i], isolated[i + 1]))
    if len(isolated) % 2 == 1:
        leftover = isolated[-1]
        anchor = min(v for v in range(pattern.n)
                     if pattern.adj[v] or (v in isolated and v != leftover))
        edges.append((min(anchor, leftover), max(anchor, leftover)))
    return PatternGraph(pattern.n, edges)


SubVertex = Hashable  # original int, or ((u, v), 1) / ((u, v), 2)
SubEdge = tuple  # pair of SubVertex


class SubdividedPattern:
    """The 2-subdivision: every pattern edge becomes a three-edge path.

    For a pattern edge (u, v) with u < v the path is
    u - ((u, v), 1) - ((u, v), 2) - v.  Vertex and edge orders are fixed by
    construction, so iteration is deterministic.
    """

    __slots__ = ("pattern", "vertices", "edges", "adj")

    def __init__(self, pattern: PatternGraph):
        self.pattern = pattern
        vertices: list[SubVertex] = list(range(pattern.n))
        edges: list[SubEdge] = []
        adj: dict[SubVertex, list[SubVertex]] = {v: [] for v in vertices}
        for e in pattern.edges:
            u, v = e
            a, b = (e, 1), (e, 2)
            vertices.extend([a, b])
            adj[a] = []
            adj[b] = []
            for x, y in ((u, a), (a, b), (b, v)):
                edges.append((x, y))
                adj[x].append(y)
                adj[y].append(x)
        self.vertices = vertices
        self.edges = edges
        self.adj = adj

    @property
    def size(self) -> int:
        """Vertex count plus edge count of the subdivision."""
        return len(self.vertices) + len(self.edges)

    def middle_edge(self, e: tuple[int, int]) -> SubEdge:
        return ((e, 1), (e, 2))

    def edges_at_original(self, u: int) -> list[SubEdge]:
        """Subdivision edges incident to the original pattern vertex u."""
        out: list[SubEdge] = []
        for e in self.pattern.edges:
            if e[0] == u:
                out.append((u, (e, 1)))
            elif e[1] == u:
                out.append(((e, 2), u))
        return out

    def separated_edge_pairs(self) -> list[tuple[SubEdge, SubEdge]]:
        """Unordered edge pairs with four distinct endpoints."""
        out = []
        for i, e in enumerate(self.edges):
            for f in self.edges[i + 1:]:
                if e[0] not in f and e[1] not in f:
                    out.append((e, f))
        return out


def two_subdivision(pattern: PatternGraph) -> SubdividedPattern:
    return SubdividedPattern(pattern)


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True)
class FatModel:
    """Branch sets realizing a pattern at the given fatness."""

    fatness: int
    vertex_sets: Mapping[int, frozenset[int]]
    edge_sets: Mapping[tuple[int, int], frozenset[int]]

    def all_sets(self) -> list[tuple[str, frozenset[int]]]:
        out = [(f"vertex {u}", s) for u, s in sorted(self.vertex_sets.items())]
        out.extend((f"edge {e}", s) for e, s in sorted(self.edge_sets.items()))
        return out


@dataclass(frozen=True)
class CrudeFatModel:
    """Vertex and path assignments on a 2-subdivision.

    `vertex_map` sends every subdivision vertex to a host vertex;
    `edge_paths` sends every subdivision edge (x, y) to a host path from
    vertex_map[x] to vertex_map[y].  Only path pairs whose subdivision
    edges have four distinct endpoints are promised to be far apart.
    """

    fatness: int
    vertex_map: Mapping[SubVertex, int]
    edge_paths: Mapping[SubEdge, tuple[int, ...]]


@dataclass(frozen=True)
class ModelReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _connected_in(g: WeightedGraph, vertices: frozenset[int]) -> bool:
    # all else flagged: one search from a member reaches all iff connected
    seen = [True] * g.n
    for v in vertices:
        seen[v] = False
    start = min(vertices)
    seen[start] = True
    return 1 + sum(map(len, bfs_layers(g, (start,), seen))) == len(vertices)


def verify_fat_model(g: WeightedGraph, pattern: PatternGraph,
                     model: FatModel, d: int) -> ModelReport:
    """Check every branch-set condition; report all violations found."""
    bad: list[str] = []
    for u in range(pattern.n):
        if u not in model.vertex_sets or not model.vertex_sets[u]:
            bad.append(f"vertex {u} has no branch set")
    for e in pattern.edges:
        if e not in model.edge_sets or not model.edge_sets[e]:
            bad.append(f"edge {e} has no branch set")
    if bad:
        return ModelReport(tuple(bad))
    labeled = model.all_sets()
    for name, s in labeled:
        for v in s:
            if not (0 <= v < g.n):
                bad.append(f"{name} contains out-of-range vertex {v}")
    if bad:
        return ModelReport(tuple(bad))
    for name, s in labeled:
        if not _connected_in(g, s):
            bad.append(f"{name} branch set is disconnected")
    for (u, v), s in sorted(model.edge_sets.items()):
        for end in (u, v):
            if not (s & model.vertex_sets[end]):
                bad.append(f"edge ({u}, {v}) misses its endpoint {end}")
    incident = {(f"vertex {end}", f"edge {e}")
                for e in pattern.edges for end in e}
    for i, (name_a, set_a) in enumerate(labeled):
        for name_b, set_b in labeled[i + 1:]:
            if (name_a, name_b) in incident or (name_b, name_a) in incident:
                continue
            dist = set_distance(g, set_a, set_b)
            if dist < d:
                bad.append(f"{name_a} and {name_b} are at distance "
                           f"{dist} < {d}")
    return ModelReport(tuple(bad))


def ensure_fat_model(g: WeightedGraph, pattern: PatternGraph,
                     model: FatModel, d: int) -> None:
    report = verify_fat_model(g, pattern, model, d)
    if not report.ok:
        raise ModelError(
            f"model fails at fatness {d}: {report.violations[0]}",
            report.violations)


def verify_crude_model(g: WeightedGraph, sub: SubdividedPattern,
                       model: CrudeFatModel, d: int) -> ModelReport:
    """Check a crude model directly against host distances."""
    bad: list[str] = []
    for x in sub.vertices:
        if x not in model.vertex_map:
            bad.append(f"subdivision vertex {x} unmapped")
    for e in sub.edges:
        if e not in model.edge_paths:
            bad.append(f"subdivision edge {e} has no path")
    if bad:
        return ModelReport(tuple(bad))
    for e in sub.edges:
        path = model.edge_paths[e]
        if not path:
            bad.append(f"edge {e} has an empty path")
            continue
        if path[0] != model.vertex_map[e[0]] or \
                path[-1] != model.vertex_map[e[1]]:
            bad.append(f"path for {e} does not join its endpoints")
        if len(set(path)) != len(path):
            bad.append(f"path for {e} repeats a vertex")
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                bad.append(f"path for {e} uses non-edge ({a}, {b})")
                break
    if bad:
        return ModelReport(tuple(bad))
    for e, f in sub.separated_edge_pairs():
        dist = set_distance(g, set(model.edge_paths[e]),
                            set(model.edge_paths[f]))
        if dist < d:
            bad.append(f"paths for {e} and {f} are at distance {dist} < {d}")
    return ModelReport(tuple(bad))


def crude_to_fat(sub: SubdividedPattern, crude: CrudeFatModel) -> FatModel:
    """Merge subdivision paths into branch sets of the original pattern.

    A pattern vertex receives the union of the paths of its incident
    subdivision edges; a pattern edge receives the path of its middle
    subdivision edge.  Any pair the merged model must keep far apart comes
    from a subdivision edge pair with four distinct endpoints, so a valid
    crude model always converts to a valid model at the same fatness.
    The result is not verified here.
    """
    pattern = sub.pattern
    vertex_sets: dict[int, frozenset[int]] = {}
    for u in range(pattern.n):
        acc: set[int] = set()
        for e in sub.edges_at_original(u):
            acc.update(crude.edge_paths[e])
        if not acc:
            acc.add(crude.vertex_map[u])
        vertex_sets[u] = frozenset(acc)
    edge_sets = {e: frozenset(crude.edge_paths[sub.middle_edge(e)])
                 for e in pattern.edges}
    return FatModel(crude.fatness, vertex_sets, edge_sets)


def lift_model(clusters: Sequence[Sequence[int]], quotient_model: FatModel,
               d: int) -> FatModel:
    """Replace each quotient vertex in a model by its underlying cluster.

    Adjacent clusters share an edge and a quotient distance of k forces at
    least k inter-cluster edges on any connecting path, so distances can
    only grow and connectivity is preserved.  The result is not verified.
    """
    def blow_up(s: frozenset[int]) -> frozenset[int]:
        acc: set[int] = set()
        for c in s:
            acc.update(clusters[c])
        return frozenset(acc)

    return FatModel(d,
                    {u: blow_up(s)
                     for u, s in quotient_model.vertex_sets.items()},
                    {e: blow_up(s)
                     for e, s in quotient_model.edge_sets.items()})


def restrict_model(model: FatModel, pattern: PatternGraph) -> FatModel:
    """Forget branch sets of edges outside the pattern.

    Used to strip augmentation edges: dropping sets never breaks the
    remaining conditions.
    """
    keep = set(pattern.edges)
    return FatModel(model.fatness, dict(model.vertex_sets),
                    {e: s for e, s in model.edge_sets.items() if e in keep})


# ---------------------------------------------------------------------------
# Randomized rounding of a flow into a crude model


def sample_crude_model(sub: SubdividedPattern, flow: ConcurrentFlow,
                       fatness: int, rng: random.Random,
                       population: Sequence[int] | None = None
                       ) -> CrudeFatModel:
    """Draw one crude-model candidate from a concurrent flow.

    Subdivision vertices get independent weight-proportional host vertices
    (from `population` if given, else from every positive-weight vertex);
    each subdivision edge gets the flow's tree path between its endpoint
    images (a tree flow routes each pair on one path).  The candidate
    carries no guarantee: callers must verify and resample on failure.
    """
    host = flow.host
    w = host.weights
    if population is None:
        population = [v for v in range(host.n) if w[v] > 0]
    else:
        population = [v for v in population if w[v] > 0]
    if not population:
        raise GraphError("flow host carries no weight to sample from")
    cum = list(itertools.accumulate(w[v] for v in population))
    vertex_map = {
        x: population[bisect.bisect_right(cum, rng.random() * cum[-1], 0,
                                          len(cum) - 1)]
        for x in sub.vertices
    }
    edge_paths: dict[SubEdge, tuple[int, ...]] = {}
    for e in sub.edges:
        a, b = vertex_map[e[0]], vertex_map[e[1]]
        if a == b:
            edge_paths[e] = (a,)
            continue
        # the pair has one path, so this draw picks nothing; it keeps each
        # seed's random stream, hence its model and `separate` output, fixed
        rng.random()
        edge_paths[e] = flow.path(a, b)
    return CrudeFatModel(fatness, vertex_map, edge_paths)


# ---------------------------------------------------------------------------
# Power-graph reduction


# Not on `bfs_layers`: `power_model_to_base` runs about 1,900 early-exit
# searches per call on path(3000) at d = 5, each reaching a few vertices, and
# a version on `bfs_layers` with one flag list over all n ran twice as slow.
def _bfs_path(g: WeightedGraph, src: int, dst: int) -> list[int]:
    """Deterministic shortest path: BFS with sorted neighbor order."""
    parent = {src: -1}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in g.adj[u]:
            if v not in parent:
                parent[v] = u
                if v == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                q.append(v)
    raise GraphError(f"no path between {src} and {dst}")


def _power_spanning_tree(power: WeightedGraph,
                         branch: frozenset[int]) -> list[tuple[int, int]]:
    # the caller has checked that branch is nonempty and connected in power;
    # every vertex outside it is flagged, so the search stays inside it
    seen = [True] * power.n
    for v in branch:
        seen[v] = False
    root = min(branch)
    seen[root] = True
    parent, order = bfs_tree(power, root, seen)
    return [(parent[v], v) for v in order[1:]]


def power_model_to_base(base: WeightedGraph, power: WeightedGraph,
                        pattern: PatternGraph, model: FatModel,
                        d: int) -> FatModel:
    """Turn a 3-fat model in the d-th power into a d-fat model in the base.

    Each branch set is reconnected inside the base graph by padding a
    power-graph spanning tree with base-graph geodesics (interior vertices
    sit within d // 2 of the set).  Sets 3-fat in the power are at base
    distance at least 2d + 1, which the padding cannot bring below d + 1.
    Only the input is checked: the padding needs it 3-fat and in range.
    """
    ensure_fat_model(power, pattern, model, 3)

    def pad(branch: frozenset[int]) -> frozenset[int]:
        acc = set(branch)
        for u, v in _power_spanning_tree(power, branch):
            if not base.has_edge(u, v):
                acc.update(_bfs_path(base, u, v)[1:-1])
        return frozenset(acc)

    return FatModel(d,
                    {u: pad(s) for u, s in model.vertex_sets.items()},
                    {e: pad(s) for e, s in model.edge_sets.items()})
