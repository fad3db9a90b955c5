"""Core graph type and metric primitives.

Everything in this package works on simple undirected graphs with
nonnegative vertex weights and 0-based integer vertex ids.  Distances are
hop counts; ``math.inf`` marks unreachable pairs.

Every breadth-first search in the package is one of two here.
`bfs_layers(g, sources, seen, radius)` yields the frontiers at depth 1, 2,
..., `radius` as lists in FIFO discovery order and stops at the first
empty one.  `bfs_tree(g, src, seen)` returns the parent array and the
visit order of the whole search from `src`.  Both take the flag list the
same way: the caller owns `seen` and flags the sources; the search flags
each vertex it reaches and never enters a flagged one.  So pre-flagged
vertices are walls (outside `within`, already covered), and a caller that
clears its flags can reuse one list for many searches.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Raised for malformed graphs, partitions or separations."""


class WeightedGraph:
    """Immutable simple graph with one nonnegative float weight per vertex.

    Adjacency lists are kept sorted so that every traversal in the package
    is deterministic.  The public constructor checks every edge and weight.
    Graphs derived from a valid graph (`power`, `induced_subgraph`,
    `quotient`, `with_weights`) are built by `_derived` from adjacency rows
    that are already sorted, symmetric and simple, and skip those checks.
    No code mutates `adj` or `weights` after construction, so derived
    graphs may share them.
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
        self.weights = ([1.0] * n if weights is None
                        else _checked_weights(weights, n))
        self._total = math.fsum(self.weights)

    @classmethod
    def _derived(cls, adj: list[list[int]],
                 weights: list[float]) -> "WeightedGraph":
        """Graph on sorted, symmetric, simple `adj` and valid float weights.

        Trusts its inputs: callers build them from a graph that passed the
        public constructor's checks.
        """
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        g._m = sum(map(len, adj)) // 2
        g.weights = weights
        g._total = math.fsum(weights)
        return g

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
        i = bisect.bisect_left(a, v)
        return i < len(a) and a[i] == v

    def with_weights(self, weights: Sequence[float]) -> "WeightedGraph":
        """The same graph with new (checked) weights; shares `adj`."""
        return WeightedGraph._derived(self.adj,
                                      _checked_weights(weights, self.n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self.n}, m={self.m})"


def _checked_weights(weights: Sequence[float], n: int) -> list[float]:
    if len(weights) != n:
        raise GraphError("weight vector length does not match n")
    ws = [float(w) for w in weights]
    for v, w in enumerate(ws):
        if w < 0 or not math.isfinite(w):
            raise GraphError(f"negative or non-finite weight at vertex {v}")
    return ws


def bfs_layers(g: WeightedGraph, sources: Iterable[int], seen: list[bool],
               radius: float = math.inf) -> Iterator[list[int]]:
    """BFS frontiers at depth 1, 2, ..., `radius`; see the module doc."""
    adj = g.adj
    layer = list(sources)
    depth = 0
    while depth < radius:
        depth += 1
        nxt = []
        for u in layer:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(v)
        if not nxt:
            return
        yield nxt
        layer = nxt


def bfs_tree(g: WeightedGraph, src: int,
             seen: list[bool]) -> tuple[list[int], list[int]]:
    """BFS tree (parent array, visit order) from src; see the module doc.

    Neighbours are visited in adjacency order, so the tree is deterministic.
    """
    parent = [-1] * g.n
    order = [src]
    for u in order:  # the visit order is the FIFO queue itself
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    return parent, order


def _check_ids(g: WeightedGraph, ids: Collection[int]) -> None:
    """Raise `GraphError` unless every id in `ids` is a vertex of `g`."""
    if ids:
        lo, hi = min(ids), max(ids)
        if lo < 0 or hi >= g.n:
            raise GraphError(f"vertex {lo if lo < 0 else hi} "
                             f"out of range for n={g.n}")


def bfs_distances(g: WeightedGraph, sources: Iterable[int]) -> list[float]:
    """Hop distance from the nearest source, ``inf`` when unreachable."""
    start = list(sources)
    _check_ids(g, start)
    dist: list[float] = [math.inf] * g.n
    seen = [False] * g.n
    for s in start:
        seen[s] = True
        dist[s] = 0
    for d, layer in enumerate(bfs_layers(g, start, seen), 1):
        for v in layer:
            dist[v] = d
    return dist


def ball(g: WeightedGraph, center: int, radius: int) -> set[int]:
    """Closed ball: all vertices within `radius` hops of `center`."""
    if radius < 0:
        raise GraphError("radius must be nonnegative")
    _check_ids(g, (center,))
    seen = [False] * g.n
    seen[center] = True
    out = {center}
    for layer in bfs_layers(g, (center,), seen, radius):
        out.update(layer)
    return out


def set_distance(g: WeightedGraph, xs: Iterable[int], ys: Iterable[int]) -> float:
    """min over (x, y) in X x Y of dist(x, y); X and Y must be nonempty."""
    xset = set(xs)
    yset = set(ys)
    if not xset or not yset:
        raise GraphError("set_distance requires nonempty sets")
    _check_ids(g, xset | yset)
    if not xset.isdisjoint(yset):
        return 0
    # BFS from the smaller side until a layer meets the other side
    if len(yset) < len(xset):
        xset, yset = yset, xset
    seen = [False] * g.n
    for s in xset:
        seen[s] = True
    for d, layer in enumerate(bfs_layers(g, xset, seen), 1):
        if not yset.isdisjoint(layer):
            return d
    return math.inf


def power(g: WeightedGraph, r: int) -> WeightedGraph:
    """Graph power G^r: edge between u, v iff 1 <= dist_G(u, v) <= r."""
    if r < 1:
        raise GraphError("power exponent must be >= 1")
    if r == 1:
        return WeightedGraph._derived(g.adj, g.weights)
    # one flag list for every row, cleared after each
    seen = [False] * g.n
    rows = []
    for u in range(g.n):
        seen[u] = True
        row: list[int] = []
        for layer in bfs_layers(g, (u,), seen, r):
            row += layer
        seen[u] = False
        for v in row:
            seen[v] = False
        row.sort()
        rows.append(row)
    return WeightedGraph._derived(rows, g.weights)


def connected_components(g: WeightedGraph,
                         within: Iterable[int] | None = None) -> list[list[int]]:
    """Sorted vertex lists of the components (of the induced subgraph)."""
    if within is None:
        order: Sequence[int] = range(g.n)
        seen = [False] * g.n
    else:
        # vertices outside `within` start flagged, so no search enters them
        order = sorted(set(within))
        _check_ids(g, order)
        seen = [True] * g.n
        for v in order:
            seen[v] = False
    comps: list[list[int]] = []
    for s in order:
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for layer in bfs_layers(g, (s,), seen):
            comp += layer
        comp.sort()
        comps.append(comp)
    return comps


def induced_subgraph(g: WeightedGraph,
                     vertices: Iterable[int]) -> tuple[WeightedGraph, list[int]]:
    """Induced subgraph plus the list mapping new ids -> original ids."""
    ids = sorted(set(vertices))
    _check_ids(g, ids)
    pos = {v: i for i, v in enumerate(ids)}
    adj = g.adj
    # ids ascend, so each relabelled row stays sorted
    rows = [[pos[v] for v in adj[u] if v in pos] for u in ids]
    weights = g.weights
    return WeightedGraph._derived(rows, [weights[v] for v in ids]), ids


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
    cut = len(a & b)
    # w(A) w(B) may underflow to 0; an empty separator is sparsity 0 anyway
    alpha = cut / (wa * wb) if cut else 0.0
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
    _check_ids(g, s)
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
    order = sorted(set(vertices))
    _check_ids(g, order)
    blocked = [False] * g.n
    centers: list[int] = []
    for v in order:
        if blocked[v]:
            continue
        centers.append(v)
        # mark everything within `radius` of the new center
        blocked[v] = True
        for _ in bfs_layers(g, (v,), blocked, radius):
            pass
    return centers


def coverage_radius(g: WeightedGraph, vertices: Iterable[int],
                    centers: Iterable[int]) -> float:
    """max over `vertices` of the distance to the nearest center."""
    vs = list(vertices)
    if not vs:
        return 0
    _check_ids(g, vs)
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
    # every vertex outside the current cluster is flagged, so one search
    # from its first vertex reaches all of it iff it is connected, and
    # leaves every flag set again for the next cluster
    adj = g.adj
    seen = [True] * g.n
    rows = []
    for i, cl in enumerate(norm):
        for v in cl:
            seen[v] = False
        seen[cl[0]] = True
        if 1 + sum(map(len, bfs_layers(g, cl[:1], seen))) != len(cl):
            raise GraphError(f"cluster {i} is not connected")
        nbrs = {cluster_of[v] for u in cl for v in adj[u]}
        rows.append(sorted(nbrs - {i}))
    qg = WeightedGraph._derived(rows, [g.weight_of(cl) for cl in norm])
    return QuotientGraph(qg, tuple(norm), tuple(cluster_of))
