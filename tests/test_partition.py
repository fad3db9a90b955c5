import heapq
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsesep import (
    GraphError,
    WeightedGraph,
    ball,
    bfs_distances,
    close_cluster_pairs,
    connected_components,
    greedy_dominating_set,
    induced_subgraph,
    max_ball2_clusters,
    peel_threshold,
    power,
    quotient,
    sparse_partition,
    star_partition,
)
from coarsesep.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
)
from coarsesep.partition import ConnectedPartition, _cluster_metrics


# ---------------------------------------------------------------------------
# Low-diameter random partitions


def test_sparse_partition_contract_on_grid():
    g = grid_graph(20)
    for seed in range(3):
        part = sparse_partition(g, 1.0, random.Random(seed))
        part.validate(g)
        assert part.strong_diameter <= 32


def test_sparse_partition_diameter_scales_with_eps():
    g = path_graph(600)
    for eps in (0.25, 0.5, 1.0):
        part = sparse_partition(g, eps, random.Random(1))
        part.validate(g)
        assert part.strong_diameter <= math.ceil(32 / eps)


def test_sparse_partition_deterministic_for_seed():
    g = gnp_graph(120, 0.05, seed=4)
    a = sparse_partition(g, 0.5, random.Random(9))
    b = sparse_partition(g, 0.5, random.Random(9))
    assert a.clusters == b.clusters
    assert a.centers == b.centers


def test_sparse_partition_rejects_bad_eps():
    g = path_graph(4)
    for eps in (0.0, -1.0, 1.5):
        with pytest.raises(GraphError):
            sparse_partition(g, eps, random.Random(0))


def test_sparse_partition_singletons_and_empty():
    part = sparse_partition(WeightedGraph(0, []), 1.0, random.Random(0))
    assert part.clusters == ()
    part = sparse_partition(WeightedGraph(3, []), 1.0, random.Random(0))
    part.validate(WeightedGraph(3, []))
    assert len(part.clusters) == 3


@pytest.mark.parametrize("clusters, centers", [
    (((0, 3),), (0,)),  # vertex 3 is out of range
    (((0, 1), (2,)), (2, 2)),  # center 2 lies outside cluster 0
    (((0, 1), (2,)), (0,)),  # cluster 1 has no center
    (((0, 2), (1,)), (0, 1)),  # cluster 0 is not connected
])
def test_validate_rejects_a_bad_partition(clusters, centers):
    with pytest.raises(GraphError):
        ConnectedPartition(clusters, centers, 0).validate(path_graph(3))


def test_validate_returns_the_quotient():
    q = ConnectedPartition(((0, 1), (2,)), (0, 2), 1).validate(path_graph(3))
    assert q.clusters == ((0, 1), (2,))
    assert q.cluster_of == (0, 0, 1)
    assert [q.graph.adj[i] for i in range(2)] == [[1], [0]]


def _reference_partition(g, eps, rng):
    """`sparse_partition` with a heap entry for every relaxation."""
    n = g.n
    shift = [min(rng.expovariate(eps / 8.0), 16.0 / eps) for _ in range(n)]
    owner = [-1] * n
    heap = [(-shift[v], v, v) for v in range(n)]
    heapq.heapify(heap)
    while heap:
        k, v, src = heapq.heappop(heap)
        if owner[v] != -1:
            continue
        owner[v] = owner[src] if owner[src] != -1 else src
        for u in g.adj[v]:
            if owner[u] == -1:
                heapq.heappush(heap, (k + 1.0, u, v))
    by_owner = {}
    for v in range(n):
        by_owner.setdefault(owner[v], []).append(v)
    clusters = tuple(tuple(vs) for _, vs in sorted(by_owner.items()))
    metrics = [_brute_cluster_metrics(g, cl) for cl in clusters]
    return (clusters, tuple(c for _, c in metrics),
            max((d for d, _ in metrics), default=0))


@st.composite
def _partition_cases(draw):
    # sparse gnp hosts have isolated vertices and several components
    n = draw(st.integers(1, 60))
    p = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]))
    g = gnp_graph(n, p, seed=draw(st.integers(0, 2**16)))
    r = draw(st.integers(1, 5))
    if r > 1:
        g = power(g, r)
    return (g, draw(st.sampled_from([0.25, 0.5, 1.0])),
            draw(st.integers(0, 2**32)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_partition_cases())
def test_sparse_partition_matches_push_every_relaxation(case):
    g, eps, seed = case
    part = sparse_partition(g, eps, random.Random(seed))
    assert (part.clusters, part.centers, part.strong_diameter) == \
        _reference_partition(g, eps, random.Random(seed))


def _brute_cluster_metrics(g, cluster):
    sub, ids = induced_subgraph(g, cluster)
    ecc = [max(bfs_distances(sub, [i])) for i in range(sub.n)]
    # ids ascend, so the first least eccentricity has the smallest id
    return max(ecc), ids[ecc.index(min(ecc))]


def test_cluster_metrics_break_ties_to_smallest_id():
    # rows of a grid are induced paths; block boundaries are induced even
    # cycles; both have several members of least eccentricity
    g = grid_graph(8)
    clusters = [tuple(range(r * 8 + c0, r * 8 + c1))
                for r in (0, 3) for c0 in (0, 2) for c1 in range(c0 + 1, 9)]
    for top, left, h, w in ((0, 0, 3, 3), (2, 1, 3, 4), (1, 2, 5, 4),
                            (3, 3, 4, 4)):
        clusters.append(tuple(sorted(
            (top + i) * 8 + left + j for i in range(h) for j in range(w)
            if i in (0, h - 1) or j in (0, w - 1))))
    for cl in clusters:
        assert _cluster_metrics(g, cl) == _brute_cluster_metrics(g, cl)
    assert _cluster_metrics(g, (0, 1, 2, 3)) == (3, 1)
    assert _cluster_metrics(g, (0, 1, 2, 8, 10, 16, 17, 18)) == (4, 0)


def test_cluster_metrics_on_a_disconnected_set():
    # each member's eccentricity is taken in its own component
    assert _cluster_metrics(path_graph(6), (0, 1, 2, 4, 5)) == (2, 1)
    assert _cluster_metrics(WeightedGraph(3, []), (0, 1, 2)) == (0, 0)


@st.composite
def _hosts_with_clusters(draw):
    n = draw(st.integers(1, 30))
    p = draw(st.sampled_from([0.05, 0.15, 0.4]))
    g = gnp_graph(n, p, seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        g = power(g, draw(st.integers(2, 3)))
    clusters = list(connected_components(g))
    clusters += sparse_partition(g, draw(st.sampled_from([0.25, 1.0])),
                                 random.Random(draw(st.integers(0, 99)))
                                 ).clusters
    for _ in range(3):
        v = draw(st.integers(0, n - 1))
        clusters.append(tuple(sorted(ball(g, v, draw(st.integers(0, 3))))))
    return g, clusters


# the whole of grid(9) and a 70-vertex cycle are clusters of more than 64
# members, so their balls span several machine words
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_hosts_with_clusters())
@example((grid_graph(9), [tuple(range(81)), tuple(range(0, 81, 9))]))
@example((cycle_graph(70), [tuple(range(70)), tuple(range(69))]))
@example((power(random_regular_graph(200, 3, 2), 3), [tuple(range(200))]))
def test_cluster_metrics_match_brute_force(case):
    g, clusters = case
    for cl in clusters:
        assert _cluster_metrics(g, tuple(cl)) == _brute_cluster_metrics(g, cl)


def test_max_ball2_clusters_is_measured_not_assumed():
    g = grid_graph(15)
    part = sparse_partition(g, 1.0, random.Random(2))
    k = max_ball2_clusters(g, part)
    # a radius-2 ball holds at most 13 vertices, so 13 bounds the measure
    assert 1 <= k <= 13
    assert max_ball2_clusters(WeightedGraph(0, []),
                              ConnectedPartition((), (), 0)) == 0


# ---------------------------------------------------------------------------
# Close cluster pairs (quotient distance <= 2)


def test_close_pairs_path_singletons():
    g = path_graph(9)
    q = quotient(g, [(i,) for i in range(9)])
    close = close_cluster_pairs(q)
    # 9 + 2*8 + 2*7 ordered pairs within two hops on a 9-path
    assert len(close) == 39
    assert close.close(0, 2) and close.close(2, 0)
    assert not close.close(0, 3)


def test_close_pairs_uses_quotient_distance():
    # two small clusters bridged by one wide cluster: they are two hops
    # apart in the quotient and hence close, despite host distance 10
    g = path_graph(13)
    q = quotient(g, [(0, 1), tuple(range(2, 11)), (11, 12)])
    close = close_cluster_pairs(q)
    assert close.close(0, 2)
    assert len(close) == 9


def test_close_pairs_cycle_of_clusters():
    g = cycle_graph(6)
    q = quotient(g, [(0, 1), (2, 3), (4, 5)])
    close = close_cluster_pairs(q)
    assert len(close) == 9  # complete relation on three clusters


def test_close_pairs_disconnected_quotient():
    g = WeightedGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    q = quotient(g, [(0, 1, 2), (3, 4, 5)])
    close = close_cluster_pairs(q)
    assert len(close) == 2  # only the two reflexive pairs
    assert not close.close(0, 1)


def test_close_pairs_neighbors_are_sorted_rows():
    g = path_graph(5)
    q = quotient(g, [(i,) for i in range(5)])
    close = close_cluster_pairs(q)
    assert [j for j in range(5) if close.close(0, j)] == [0, 1, 2]
    assert [j for j in range(5) if close.close(2, j)] == [0, 1, 2, 3, 4]


def _close_quotients():
    yield quotient(path_graph(9), [(i,) for i in range(9)])
    yield quotient(path_graph(13), [(0, 1), tuple(range(2, 11)), (11, 12)])
    yield quotient(cycle_graph(6), [(0, 1), (2, 3), (4, 5)])
    yield quotient(cycle_graph(30), [tuple(range(i, i + 3))
                                     for i in range(0, 30, 3)])
    two = WeightedGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    yield quotient(two, [(0, 1, 2), (3, 4, 5)])
    yield quotient(WeightedGraph(4, [(0, 1)]), [(0, 1), (2,), (3,)])
    g = power(random_regular_graph(600, 3, seed=1), 2)
    part = sparse_partition(g, 1.0, random.Random(3))
    yield quotient(g, part.clusters)


def test_close_pairs_match_quotient_bfs():
    for q in _close_quotients():
        close = close_cluster_pairs(q)
        k = q.graph.n
        dist = [bfs_distances(q.graph, [i]) for i in range(k)]
        expected = {(i, j) for i in range(k) for j in range(k)
                    if dist[i][j] <= 2}
        assert len(close) == len(expected)
        for i in range(k):
            for j in range(k):
                assert close.close(i, j) == ((i, j) in expected), (i, j)


# ---------------------------------------------------------------------------
# Star partitions


def test_peel_threshold_values():
    assert peel_threshold(2) == 1
    assert peel_threshold(100) == 13
    assert peel_threshold(1000) == 37


def test_greedy_dominating_set_covers():
    g = cycle_graph(12)
    doms = greedy_dominating_set(g, range(12))
    covered = set()
    for d in doms:
        covered.add(d)
        covered.update(g.adj[d])
    assert covered == set(range(12))
    assert len(doms) <= 4


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(1, 40), st.floats(0.02, 0.9), st.integers(0, 10**6),
       st.data())
def test_greedy_dominating_set_meets_the_greedy_bound(n, p, seed, data):
    # Every closed neighbourhood inside `vs` has at least delta + 1
    # vertices, so each pick covers at least a (delta + 1) / |vs| share of
    # what is uncovered; that counts to the bound below.  Its instance
    # with delta > k is the dominator count `star_partition` relies on.
    g = gnp_graph(n, p, seed=seed)
    vs = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    inside = set(vs)
    delta = min(sum(1 for u in g.adj[v] if u in inside) for v in vs)
    doms = greedy_dominating_set(g, vs)
    assert set(doms) <= inside
    covered = set(doms).union(*(inside.intersection(g.adj[d]) for d in doms))
    assert covered == inside
    bound = len(vs) * (1 + math.log(delta + 1)) / (delta + 1) + 1
    assert len(doms) <= bound


def test_star_partition_clusters_are_stars():
    for g in (gnp_graph(80, 0.15, seed=3), complete_graph(30),
              random_regular_graph(64, 3, 5)):
        part, q = star_partition(g)
        part.validate(g)
        for cl, center in zip(part.clusters, part.centers):
            for v in cl:
                assert v == center or g.has_edge(v, center)
        assert q.graph.n == len(part.clusters)


def test_star_partition_dense_graph_uses_dominators():
    # all degrees sit far above the peel threshold, so no vertex peels and
    # one dominator star swallows the whole clique
    part, q = star_partition(complete_graph(50))
    assert len(part.clusters) == 1
    assert q.graph.n == 1


def test_star_partition_sparse_graph_peels_everything():
    g = cycle_graph(40)  # degree 2 <= threshold, peels to singletons
    part, q = star_partition(g)
    assert len(part.clusters) == 40
    assert q.graph.m == g.m


def test_star_partition_star_host():
    # leaves peel first; once enough are gone the hub peels too
    g = WeightedGraph(100, [(0, i) for i in range(1, 100)])
    part, _ = star_partition(g)
    part.validate(g)
    assert all(len(cl) == 1 for cl in part.clusters)


def test_star_partition_empty_graph():
    part, q = star_partition(WeightedGraph(0, []))
    assert part.clusters == ()
    assert q.graph.n == 0
