"""Core graph type and metric primitives.

Everything in this package works on simple undirected graphs with
nonnegative vertex weights and 0-based integer vertex ids.  Distances are
hop counts; ``math.inf`` marks unreachable pairs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Raised for malformed graphs, partitions or separations."""


class WeightedGraph:
    """Immutable simple graph with one nonnegative float weight per vertex.

    Adjacency lists are kept sorted so that every traversal in the package
    is deterministic.
    """

    __slots__ = ("n", "adj", "weights", "_m", "_total")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 weights: Sequence[float] | None = None):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
            m += 1
        for lst in adj:
            lst.sort()
        self.adj = adj
        self._m = m
        if weights is None:
            self.weights = [1.0] * n
        else:
            if len(weights) != n:
                raise GraphError("weight vector length does not match n")
            ws = [float(w) for w in weights]
            for v, w in enumerate(ws):
                if w < 0 or not math.isfinite(w):
                    raise GraphError(
                        f"negative or non-finite weight at vertex {v}")
            self.weights = ws
        self._total = math.fsum(self.weights)

    @property
    def m(self) -> int:
        return self._m

    @property
    def total_weight(self) -> float:
        return self._total

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def weight_of(self, vertices: Iterable[int]) -> float:
        w = self.weights
        return math.fsum(w[v] for v in vertices)

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        lo, hi = 0, len(a)
        while lo < hi:
            mid = (lo + hi) // 2
            if a[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(a) and a[lo] == v

    def with_weights(self, weights: Sequence[float]) -> "WeightedGraph":
        return WeightedGraph(self.n, self.edges(), weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self.n}, m={self.m})"


def bfs_distances(g: WeightedGraph, sources: Iterable[int]) -> list[float]:
    """Hop distance from the nearest source, ``inf`` when unreachable."""
    dist: list[float] = [math.inf] * g.n
    q: deque[int] = deque()
    for s in sources:
        if not (0 <= s < g.n):
            raise GraphError(f"source {s} out of range")
        if dist[s] == math.inf:
            dist[s] = 0
            q.append(s)
    adj = g.adj
    while q:
        u = q.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] == math.inf:
                dist[v] = du
                q.append(v)
    return dist


def ball(g: WeightedGraph, center: int, radius: int) -> set[int]:
    """Closed ball: all vertices within `radius` hops of `center`."""
    if radius < 0:
        raise GraphError("radius must be nonnegative")
    out = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for v in g.adj[u]:
                if v not in out:
                    out.add(v)
                    nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    return out


def set_distance(g: WeightedGraph, xs: Iterable[int], ys: Iterable[int]) -> float:
    """min over (x, y) in X x Y of dist(x, y); X and Y must be nonempty."""
    xset = set(xs)
    yset = set(ys)
    if not xset or not yset:
        raise GraphError("set_distance requires nonempty sets")
    if xset & yset:
        return 0
    # BFS from the smaller side until the other side is hit.
    if len(yset) < len(xset):
        xset, yset = yset, xset
    dist = [-1] * g.n
    q: deque[int] = deque()
    for s in xset:
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        du = dist[u] + 1
        for v in g.adj[u]:
            if dist[v] == -1:
                if v in yset:
                    return du
                dist[v] = du
                q.append(v)
    return math.inf


def power(g: WeightedGraph, r: int) -> WeightedGraph:
    """Graph power G^r: edge between u, v iff 1 <= dist_G(u, v) <= r."""
    if r < 1:
        raise GraphError("power exponent must be >= 1")
    if r == 1:
        return WeightedGraph(g.n, g.edges(), g.weights)
    edges = []
    for u in range(g.n):
        # truncated BFS to depth r
        seen = {u}
        frontier = [u]
        for _ in range(r):
            nxt = []
            for x in frontier:
                for y in g.adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
                        if y > u:
                            edges.append((u, y))
            if not nxt:
                break
            frontier = nxt
    return WeightedGraph(g.n, edges, g.weights)


def connected_components(g: WeightedGraph,
                         within: Iterable[int] | None = None) -> list[list[int]]:
    """Sorted vertex lists of the components (of the induced subgraph)."""
    if within is None:
        allowed = None
        order: Iterable[int] = range(g.n)
    else:
        allowed = set(within)
        order = sorted(allowed)
    seen: set[int] = set()
    comps: list[list[int]] = []
    for s in order:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        q = deque([s])
        while q:
            u = q.popleft()
            for v in g.adj[u]:
                if v in seen:
                    continue
                if allowed is not None and v not in allowed:
                    continue
                seen.add(v)
                comp.append(v)
                q.append(v)
        comp.sort()
        comps.append(comp)
    return comps


def induced_subgraph(g: WeightedGraph,
                     vertices: Iterable[int]) -> tuple[WeightedGraph, list[int]]:
    """Induced subgraph plus the list mapping new ids -> original ids."""
    ids = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(ids)}
    edges = []
    for u in ids:
        for v in g.adj[u]:
            if u < v and v in pos:
                edges.append((pos[u], pos[v]))
    sub = WeightedGraph(len(ids), edges, [g.weights[v] for v in ids])
    return sub, ids


# ---------------------------------------------------------------------------
# Separations and separator certificates


@dataclass(frozen=True)
class Separation:
    """A pair (A, B) with A u B = V and no edge between A\\B and B\\A.

    The separator is A n B and the sparsity is |A n B| / (w(A) * w(B)).
    """

    side_a: frozenset[int]
    side_b: frozenset[int]
    sparsity: float

    @property
    def separator(self) -> frozenset[int]:
        return self.side_a & self.side_b


def make_separation(g: WeightedGraph, side_a: Iterable[int],
                    side_b: Iterable[int]) -> Separation:
    """Validate (A, B) against `g` and compute its sparsity."""
    a = frozenset(side_a)
    b = frozenset(side_b)
    if a | b != frozenset(range(g.n)):
        raise GraphError("separation sides must cover every vertex")
    only_a = a - b
    only_b = b - a
    for u in only_a:
        for v in g.adj[u]:
            if v in only_b:
                raise GraphError(f"edge ({u}, {v}) crosses the separation")
    wa = g.weight_of(a)
    wb = g.weight_of(b)
    if wa <= 0 or wb <= 0:
        raise GraphError("both sides of a separation need positive weight")
    alpha = len(a & b) / (wa * wb)
    return Separation(a, b, alpha)


@dataclass(frozen=True)
class SeparatorCertificate:
    """Balanced separator S together with ball centers and a ball radius."""

    separator: frozenset[int]
    centers: tuple[int, ...]
    radius: int


@dataclass
class SeparatorReport:
    balanced: bool
    covered: bool
    heaviest_component: float
    uncovered: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.balanced and self.covered


def verify_separator(g: WeightedGraph, separator: Iterable[int],
                     centers: Iterable[int], radius: int) -> SeparatorReport:
    """Check balance (components of G-S weigh <= W/2) and ball coverage."""
    s = set(separator)
    for v in s:
        if not (0 <= v < g.n):
            raise GraphError(f"separator vertex {v} out of range")
    half = g.total_weight / 2.0
    heaviest = 0.0
    balanced = True
    rest = [v for v in range(g.n) if v not in s]
    for comp in connected_components(g, rest):
        cw = g.weight_of(comp)
        heaviest = max(heaviest, cw)
        if cw > half:
            balanced = False
    center_list = list(centers)
    if s and not center_list:
        return SeparatorReport(balanced, False, heaviest, sorted(s))
    if center_list:
        dist = bfs_distances(g, center_list)
        uncovered = sorted(v for v in s if dist[v] > radius)
    else:
        uncovered = []
    return SeparatorReport(balanced, not uncovered, heaviest, uncovered)


def verify_certificate(g: WeightedGraph,
                       cert: SeparatorCertificate) -> SeparatorReport:
    return verify_separator(g, cert.separator, cert.centers, cert.radius)


def greedy_cover(g: WeightedGraph, vertices: Iterable[int],
                 radius: int) -> list[int]:
    """Greedy centers among `vertices`: each input vertex is within `radius`.

    Scans `vertices` in id order.  An unmarked vertex becomes a center and
    marks the unmarked vertices its search reaches within `radius` hops;
    the search does not pass through vertices already marked.  So every
    input vertex ends up within `radius` of a center, but two centers may
    be `radius` or fewer hops apart.
    """
    if radius < 0:
        raise GraphError("radius must be nonnegative")
    blocked = [False] * g.n
    centers: list[int] = []
    for v in sorted(set(vertices)):
        if blocked[v]:
            continue
        centers.append(v)
        # mark everything within `radius` of the new center
        blocked[v] = True
        frontier = [v]
        for _ in range(radius):
            nxt = []
            for x in frontier:
                for y in g.adj[x]:
                    if not blocked[y]:
                        blocked[y] = True
                        nxt.append(y)
            if not nxt:
                break
            frontier = nxt
    return centers


def coverage_radius(g: WeightedGraph, vertices: Iterable[int],
                    centers: Iterable[int]) -> float:
    """max over `vertices` of the distance to the nearest center."""
    vs = list(vertices)
    if not vs:
        return 0
    cs = list(centers)
    if not cs:
        return math.inf
    dist = bfs_distances(g, cs)
    return max(dist[v] for v in vs)


# ---------------------------------------------------------------------------
# Quotients of connected partitions


@dataclass(frozen=True)
class QuotientGraph:
    """Quotient of a graph by a connected partition.

    Vertex i of `graph` is cluster i; its weight is the cluster's total
    weight.  `cluster_of` maps base vertices to cluster indices.
    """

    graph: WeightedGraph
    clusters: tuple[tuple[int, ...], ...]
    cluster_of: tuple[int, ...]


def quotient(g: WeightedGraph, clusters: Sequence[Sequence[int]]) -> QuotientGraph:
    """Contract each cluster to one vertex; weights add, edges dedupe."""
    cluster_of = [-1] * g.n
    norm: list[tuple[int, ...]] = []
    for i, cl in enumerate(clusters):
        cl = tuple(sorted(cl))
        if not cl:
            raise GraphError(f"cluster {i} is empty")
        norm.append(cl)
        for v in cl:
            if not (0 <= v < g.n):
                raise GraphError(f"cluster {i} contains out-of-range vertex {v}")
            if cluster_of[v] != -1:
                raise GraphError(f"vertex {v} appears in two clusters")
            cluster_of[v] = i
    missing = [v for v in range(g.n) if cluster_of[v] == -1]
    if missing:
        raise GraphError(f"partition does not cover vertex {missing[0]}")
    for i, cl in enumerate(norm):
        if len(connected_components(g, cl)) != 1:
            raise GraphError(f"cluster {i} is not connected")
    qedges = set()
    for u, v in g.edges():
        cu, cv = cluster_of[u], cluster_of[v]
        if cu != cv:
            qedges.add((min(cu, cv), max(cu, cv)))
    qweights = [g.weight_of(cl) for cl in norm]
    qg = WeightedGraph(len(norm), sorted(qedges), qweights)
    return QuotientGraph(qg, tuple(norm), tuple(cluster_of))
