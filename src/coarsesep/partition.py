"""Connected partitions: low-diameter random clustering and star partitions.

`sparse_partition` builds connected clusters of small strong diameter with
exponentially shifted BFS (each vertex draws a capped exponential head
start; clusters are the resulting Voronoi cells, found by a multi-source
Dijkstra that pushes a vertex only when its key improves).  The cap alone
guarantees the diameter contract (Miller, Peng and Xu, SPAA 2013), so each
cell is measured once, for its strong diameter and center, and never
re-split; the measurement grows all members' balls at once as int bitsets.
How well balls of radius 2 spread over few clusters is measured, not
enforced.

`close_cluster_pairs` counts the cluster pairs at quotient distance <= 2
with one int bitset per cluster and answers single queries from the
quotient adjacency; the pairs themselves are never stored.

`star_partition` peels low-degree vertices into singletons and covers the
dense residual with a greedy dominating set, giving radius-1 clusters.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterable

from .graph import (GraphError, QuotientGraph, WeightedGraph, bfs_layers,
                    quotient)


@dataclass(frozen=True)
class ConnectedPartition:
    """Partition of V(G) into connected clusters with designated centers.

    `strong_diameter` is the measured max over clusters of the diameter of
    the induced subgraph; `centers[i]` minimizes the eccentricity inside
    cluster i (ties to the smallest id).
    """

    clusters: tuple[tuple[int, ...], ...]
    centers: tuple[int, ...]
    strong_diameter: int

    def cluster_of_map(self, n: int) -> list[int]:
        out = [-1] * n
        for i, cl in enumerate(self.clusters):
            for v in cl:
                out[v] = i
        return out

    def validate(self, g: WeightedGraph) -> QuotientGraph:
        """Check the partition of g and return its quotient.

        The centers are checked here; `quotient` checks that the clusters
        are nonempty, in range, disjoint, connected and cover V.
        """
        if len(self.centers) != len(self.clusters):
            raise GraphError("the partition needs one center per cluster")
        for i, (cl, c) in enumerate(zip(self.clusters, self.centers)):
            if c not in cl:
                raise GraphError(f"center of cluster {i} lies outside it")
        return quotient(g, self.clusters)


def _cluster_metrics(g: WeightedGraph, cluster: tuple[int, ...]) -> tuple[int, int]:
    """(strong diameter, eccentricity-minimizing center) of G[cluster].

    Grows every member's ball at once as an int bitset over the cluster's
    own adjacency, built once: each round, a member's ball becomes the
    union of its neighbours' balls of the round before.  A member's
    eccentricity is the last round in which its ball grew; a ball that
    stops growing is its whole component and stays finished, so a
    disconnected set gives each member its eccentricity in its component.
    The center is the first member (the smallest id) of least eccentricity.
    """
    idx = {v: i for i, v in enumerate(cluster)}
    adj = g.adj
    local = [[idx[u] for u in adj[v] if u in idx] for v in cluster]
    k = len(cluster)
    balls = [1 << s for s in range(k)]
    ecc = [0] * k
    growing = range(k)
    rnd = 0
    while growing:
        rnd += 1
        grown = []
        for s in growing:
            b = old = balls[s]
            for x in local[s]:
                b |= balls[x]
            if b != old:
                grown.append((s, b))
        # written back only now, so every union above read last round's balls
        for s, b in grown:
            balls[s] = b
            ecc[s] = rnd
        growing = [s for s, _ in grown]
    return max(ecc), cluster[ecc.index(min(ecc))]


def sparse_partition(g: WeightedGraph, eps: float,
                     rng: random.Random) -> ConnectedPartition:
    """Connected partition with strong diameter at most ceil(32/eps).

    Every vertex draws an Exp(eps/8) head start capped at 16/eps and the
    clusters are the Voronoi cells of the shifted BFS (ties by vertex id).
    The search is a Dijkstra with decrease-key by lazy deletion: a vertex
    gets a heap entry only when a relaxation improves its least pending
    (key, source), which leaves every owner as pushing each relaxation
    would.  The bound holds by construction: v is popped at key
    <= -shift[v] <= 0, so its depth in its owner's tree is at most
    shift[owner] <= 16/eps, and that tree lies inside the cell.
    """
    if not (0 < eps <= 1):
        raise GraphError("eps must lie in (0, 1]")
    cap = 16.0 / eps
    n = g.n
    if n == 0:
        return ConnectedPartition((), (), 0)
    beta = eps / 8.0
    shift = [min(rng.expovariate(beta), cap) for _ in range(n)]
    # Multi-source Dijkstra on keys dist(u, c) - shift[c]; owner follows the
    # relaxing neighbor, so every cell is a tree and hence connected.
    # pending[u] is the least (key, src) pushed for u so far, and a push is
    # made only when it improves on it.  Owners are those of pushing every
    # relaxation: each push has key k + 1 above the popped key k, so popped
    # keys never decrease and every later push is larger than the entry
    # just popped.  Hence the first entry popped for u is the least entry
    # ever pushed for u, and a skipped entry is never below pending[u], so
    # it can never be that one.
    owner = [-1] * n
    pending = [(-shift[v], v) for v in range(n)]
    heap = [(-shift[v], v, v) for v in range(n)]
    heapq.heapify(heap)
    adj = g.adj
    assigned = 0
    while heap and assigned < n:
        k, v, src = heapq.heappop(heap)
        if owner[v] != -1:
            continue
        owner[v] = owner[src] if owner[src] != -1 else src
        assigned += 1
        entry = (k + 1.0, v)
        for u in adj[v]:
            if owner[u] == -1 and entry < pending[u]:
                pending[u] = entry
                heapq.heappush(heap, (entry[0], u, v))
    by_owner: dict[int, list[int]] = {}
    for v in range(n):
        by_owner.setdefault(owner[v], []).append(v)
    clusters = tuple(tuple(vs) for _, vs in sorted(by_owner.items()))
    metrics = [_cluster_metrics(g, cl) for cl in clusters]
    return ConnectedPartition(clusters, tuple(c for _, c in metrics),
                              max(d for d, _ in metrics))


def max_ball2_clusters(g: WeightedGraph, part: ConnectedPartition) -> int:
    """Measured sparsity: max over u of #clusters meeting the radius-2 ball."""
    cluster_of = part.cluster_of_map(g.n)
    # one flag list for every search, cleared after each
    seen = [False] * g.n
    best = 0
    for u in range(g.n):
        seen[u] = True
        reached = [u]
        for layer in bfs_layers(g, (u,), seen, 2):
            reached += layer
        for v in reached:
            seen[v] = False
        best = max(best, len({cluster_of[v] for v in reached}))
    return best


@dataclass(frozen=True)
class ClusterClosePairs:
    """The relation "quotient-graph distance <= 2" on clusters.

    Symmetric and reflexive.  `len()` is the number of ordered close pairs;
    `close(i, j)` answers from the quotient adjacency `rows` (i equals j,
    is adjacent to j, or shares a neighbor with it), so no pair is stored.
    """

    rows: tuple[frozenset[int], ...]
    size: int

    def __len__(self) -> int:
        return self.size

    def close(self, i: int, j: int) -> bool:
        rows = self.rows
        return i == j or j in rows[i] or not rows[i].isdisjoint(rows[j])


def close_cluster_pairs(q: QuotientGraph) -> ClusterClosePairs:
    """The relation of cluster pairs within distance 2 of each other.

    Distance is measured in the quotient graph itself (two clusters one
    intermediate cluster apart count as close no matter how wide that
    intermediate cluster is), which is the relation the rounding step's
    spread check needs.  The count ORs the int bitset of each cluster's
    closed neighbourhood over its own closed neighbourhood and adds up the
    popcounts.
    """
    adj = q.graph.adj
    rows = tuple(frozenset(a) for a in adj)
    # masks[i] holds bit i and the bits of row i; the clusters close to i
    # are the union of the masks of i's closed neighbourhood
    masks = []
    for i, a in enumerate(adj):
        m = 1 << i
        for j in a:
            m |= 1 << j
        masks.append(m)
    size = 0
    for a, m in zip(adj, masks):
        for j in a:
            m |= masks[j]
        size += m.bit_count()
    return ClusterClosePairs(rows, size)


# ---------------------------------------------------------------------------
# Star partition (radius-1 clusters, low quotient edge count)


def peel_threshold(n: int) -> int:
    """Degree threshold ceil(n^(1/3) * ln(n)^(2/3)); 1 for n < 3."""
    if n < 3:
        return 1
    return math.ceil(n ** (1.0 / 3.0) * math.log(n) ** (2.0 / 3.0))


def greedy_dominating_set(g: WeightedGraph, vertices: Iterable[int]) -> list[int]:
    """Greedy dominating set of the induced subgraph on `vertices`.

    Repeatedly picks the vertex covering the most uncovered closed
    neighborhoods (ties to the smallest id).
    """
    vs = sorted(set(vertices))
    inside = set(vs)
    uncovered = set(vs)
    dominators: list[int] = []
    while uncovered:
        best_v = -1
        best_gain = -1
        for v in vs:
            gain = (1 if v in uncovered else 0)
            gain += sum(1 for u in g.adj[v] if u in inside and u in uncovered)
            if gain > best_gain:
                best_gain = gain
                best_v = v
        dominators.append(best_v)
        if best_v in uncovered:
            uncovered.discard(best_v)
        for u in g.adj[best_v]:
            if u in inside:
                uncovered.discard(u)
    return dominators


def star_partition(g: WeightedGraph) -> tuple[ConnectedPartition, QuotientGraph]:
    """Radius-1 connected partition: peeled singletons plus dominator stars.

    Peels a maximal sequence of vertices whose remaining degree stays at or
    below the threshold k = ceil(n^(1/3) ln(n)^(2/3)); each peeled vertex
    becomes a singleton cluster.  The residual graph has min degree > k, so
    its greedy dominating set has size O(n log k / k); every residual vertex
    joins an adjacent dominator's star.
    """
    n = g.n
    k = peel_threshold(n)
    deg = [g.degree(v) for v in range(n)]
    peeled = [False] * n
    heap = [v for v in range(n) if deg[v] <= k]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        if peeled[v] or deg[v] > k:
            continue
        peeled[v] = True
        order.append(v)
        for u in g.adj[v]:
            if not peeled[u]:
                deg[u] -= 1
                if deg[u] <= k:
                    heapq.heappush(heap, u)
    residual = [v for v in range(n) if not peeled[v]]
    clusters: list[list[int]] = [[v] for v in order]
    centers: list[int] = list(order)
    if residual:
        doms = greedy_dominating_set(g, residual)
        dom_set = set(doms)
        star_of: dict[int, list[int]] = {d: [d] for d in doms}
        inside = set(residual)
        for v in residual:
            if v in dom_set:
                continue
            home = next(u for u in g.adj[v] if u in dom_set and u in inside)
            star_of[home].append(v)
        for d in doms:
            clusters.append(sorted(star_of[d]))
            centers.append(d)
    pairs = sorted(zip(clusters, centers))
    clusters = [c for c, _ in pairs]
    centers = [c for _, c in pairs]
    strong = 0
    for cl in clusters:
        if len(cl) > 1:
            d, _ = _cluster_metrics(g, tuple(cl))
            strong = max(strong, d)
    part = ConnectedPartition(tuple(tuple(cl) for cl in clusters),
                              tuple(centers), strong)
    return part, part.validate(g)
