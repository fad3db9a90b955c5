import math

import pytest

from coarsesep import (
    GraphError,
    WeightedGraph,
    ball,
    bfs_distances,
    connected_components,
    coverage_radius,
    greedy_cover,
    induced_subgraph,
    make_separation,
    power,
    quotient,
    set_distance,
    verify_separator,
)
from coarsesep.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
)


def test_basic_construction():
    g = WeightedGraph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.adj[1] == [0, 2]
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.total_weight == 4.0
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphError):
        WeightedGraph(3, [(0, 3)])
    with pytest.raises(GraphError):
        WeightedGraph(3, [(1, 1)])
    with pytest.raises(GraphError):
        WeightedGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        WeightedGraph(2, [(0, 1)], [1.0])
    with pytest.raises(GraphError):
        WeightedGraph(2, [(0, 1)], [1.0, -2.0])


def test_with_weights():
    g = path_graph(3).with_weights([5, 0, 2])
    assert g.weights == [5.0, 0.0, 2.0]
    assert g.total_weight == 7.0
    assert g.weight_of([0, 2]) == 7.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_weights_must_be_finite(bad):
    with pytest.raises(GraphError, match="non-finite weight at vertex 0"):
        WeightedGraph(2, [(0, 1)], [bad, 1.0])
    with pytest.raises(GraphError, match="non-finite weight at vertex 2"):
        path_graph(3).with_weights([1.0, 1.0, bad])


def test_bfs_distances_multi_source():
    g = path_graph(6)
    dist = bfs_distances(g, [0, 5])
    assert dist == [0, 1, 2, 2, 1, 0]
    dist = bfs_distances(WeightedGraph(3, []), [0])
    assert dist[0] == 0 and math.isinf(dist[1])


def test_ball_and_set_distance():
    g = cycle_graph(8)
    assert ball(g, 0, 1) == {7, 0, 1}
    assert set_distance(g, {0}, {4}) == 4
    assert set_distance(g, {0, 1}, {1, 2}) == 0
    h = WeightedGraph(4, [(0, 1), (2, 3)])
    assert math.isinf(set_distance(h, {0}, {3}))


def test_power_graph():
    g = cycle_graph(8)
    g2 = power(g, 2)
    assert g2.has_edge(0, 2) and g2.has_edge(0, 1)
    assert not g2.has_edge(0, 3)
    assert g2.weights == g.weights
    # power 1 is the same graph
    assert power(g, 1).edges() == g.edges()


def test_connected_components():
    g = WeightedGraph(6, [(0, 1), (1, 2), (4, 5)])
    comps = connected_components(g)
    assert sorted(map(tuple, comps)) == [(0, 1, 2), (3,), (4, 5)]
    comps = connected_components(g, {1, 2, 4})
    assert sorted(map(tuple, comps)) == [(1, 2), (4,)]


def test_induced_subgraph_relabels():
    g = cycle_graph(6).with_weights([1, 2, 3, 4, 5, 6])
    sub, ids = induced_subgraph(g, [5, 1, 2])
    assert ids == [1, 2, 5]
    assert sub.n == 3
    assert sub.edges() == [(0, 1)]
    assert sub.weights == [2.0, 3.0, 6.0]


def test_make_separation_and_sparsity():
    g = path_graph(3)
    sep = make_separation(g, {0, 1}, {1, 2})
    assert sorted(sep.separator) == [1]
    assert sep.sparsity == pytest.approx(1 / 4)
    with pytest.raises(GraphError):
        make_separation(g, {0}, {2})  # does not cover vertex 1
    with pytest.raises(GraphError):
        make_separation(g, {0, 1}, {2})  # edge (1, 2) crosses


def test_verify_separator_balance_and_coverage():
    g = path_graph(9)
    report = verify_separator(g, {4}, [4], 0)
    assert report.ok and report.balanced and report.covered
    assert report.heaviest_component == 4.0
    # off-center separator leaves a too-heavy side
    report = verify_separator(g, {1}, [1], 0)
    assert not report.balanced
    # coverage failure is reported with the offending vertices
    report = verify_separator(g, {0, 4}, [4], 1)
    assert report.balanced and not report.covered
    assert report.uncovered == [0]


def test_verify_separator_needs_centers_for_nonempty():
    g = path_graph(4)
    report = verify_separator(g, {1, 2}, [], 3)
    assert not report.ok
    # the empty separator with no centers is fine when balance holds,
    # which takes a host whose components each carry at most half
    report = verify_separator(WeightedGraph(2, []), set(), [], 0)
    assert report.balanced and report.covered


def test_greedy_cover_radius_contract():
    g = grid_graph(7)
    target = set(range(g.n))
    centers = greedy_cover(g, target, 3)
    assert centers == sorted(centers)
    assert coverage_radius(g, target, centers) <= 3
    # pairwise spread: chosen centers are at distance > 3 from each other
    for i, a in enumerate(centers):
        for b in centers[i + 1:]:
            assert set_distance(g, {a}, {b}) > 3
    # here centers may lie within the radius of each other (3 and 4 are
    # both chosen), so only coverage is promised
    g = WeightedGraph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    target = {0, 3, 4}
    assert coverage_radius(g, target, greedy_cover(g, target, 2)) <= 2


def test_coverage_radius_empty_and_unreachable():
    g = path_graph(5)
    assert coverage_radius(g, set(), [0]) == 0
    assert math.isinf(coverage_radius(g, {4}, []))


def test_quotient_contracts_clusters():
    g = path_graph(6).with_weights([1, 1, 2, 2, 3, 3])
    q = quotient(g, [(0, 1), (2, 3), (4, 5)])
    assert q.graph.n == 3
    assert q.graph.edges() == [(0, 1), (1, 2)]
    assert q.graph.weights == [2.0, 4.0, 6.0]
    assert q.cluster_of[4] == 2


def test_quotient_rejects_bad_partitions():
    g = path_graph(4)
    with pytest.raises(GraphError):
        quotient(g, [(0, 1), (1, 2), (3,)])  # overlap
    with pytest.raises(GraphError):
        quotient(g, [(0, 1), (2, 3), ()])  # empty cluster
    with pytest.raises(GraphError):
        quotient(g, [(0, 1), (2,)])  # vertex 3 missing
    with pytest.raises(GraphError):
        quotient(g, [(0, 2), (1, 3)])  # disconnected cluster


def test_complete_graph_structure():
    g = complete_graph(5)
    assert g.m == 10
    assert all(g.degree(v) == 4 for v in range(5))
