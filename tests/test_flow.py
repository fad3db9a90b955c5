import math

import pytest

from coarsesep import (
    BalancedSeparatorResult,
    ConcurrentFlow,
    FlowError,
    GraphError,
    HeavyFlowResult,
    Separation,
    WeightedGraph,
    balanced_separator_or_flow,
    connected_components,
    flow_or_sparse_cut,
    make_separation,
)
from coarsesep.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
)
from coarsesep.flow import _cut_orders, _tree_congestion, _tree_from


def test_two_vertices_flow_congestion_exactly_two():
    g = path_graph(2)
    res = flow_or_sparse_cut(g, 2.0)
    assert isinstance(res, ConcurrentFlow)
    res.check()
    assert res.congestion_vector() == [2.0, 2.0]


def test_two_vertices_below_endpoint_bound_is_cut():
    res = flow_or_sparse_cut(path_graph(2), 1.9)
    assert isinstance(res, Separation)


def test_path3_cut_at_small_gamma():
    res = flow_or_sparse_cut(path_graph(3), 0.1)
    assert isinstance(res, Separation)
    assert res.sparsity == pytest.approx(0.25)
    assert sorted(res.separator) == [1]


def test_path3_tree_flow_middle_congestion():
    res = flow_or_sparse_cut(path_graph(3), 6.0)
    assert isinstance(res, ConcurrentFlow)
    res.check()
    assert res.congestion_vector() == [4.0, 6.0, 4.0]


def test_path3_infeasible_just_below_six():
    # vertex 1 carries its four endpoint units plus the (0, 2) demands, so
    # no routing beats congestion 6
    res = flow_or_sparse_cut(path_graph(3), 5.9)
    assert isinstance(res, Separation)


def test_triangle_flow():
    res = flow_or_sparse_cut(complete_graph(3), 100.0)
    assert isinstance(res, ConcurrentFlow)
    res.check()
    assert res.max_congestion() == pytest.approx(4.0)


def test_cycle4_lp_splits_antipodal_demands():
    # shortest-path trees cannot reach congestion 7: the antipodal demand
    # must split across both sides, which only the LP achieves
    res = flow_or_sparse_cut(cycle_graph(4), 7.0)
    assert isinstance(res, ConcurrentFlow)
    res.check()
    assert max(res.congestion_vector()) <= 7.0 * (1 + 1e-7)
    assert res.congestion_vector() == pytest.approx([7.0] * 4)


def test_cycle4_cut_just_below_seven():
    res = flow_or_sparse_cut(cycle_graph(4), 6.9)
    assert isinstance(res, Separation)
    assert res.sparsity == pytest.approx(2 / 9)


def test_gamma_must_be_positive():
    with pytest.raises(GraphError):
        flow_or_sparse_cut(path_graph(3), 0.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_gamma_must_be_finite(gamma):
    with pytest.raises(GraphError, match="gamma"):
        flow_or_sparse_cut(path_graph(3), gamma)


def test_fewer_than_two_positive_weights_gives_empty_flow():
    g = path_graph(4).with_weights([0, 3, 0, 0])
    res = flow_or_sparse_cut(g, 0.01)
    assert isinstance(res, ConcurrentFlow)
    assert res.paths == []
    assert res.max_congestion() == 0.0


def test_disconnected_positives_give_sparsity_zero_cut():
    g = WeightedGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    res = flow_or_sparse_cut(g, 1000.0)
    assert isinstance(res, Separation)
    assert res.sparsity == 0.0
    assert not res.separator


def test_zero_weight_vertices_route_nothing_but_may_carry():
    g = path_graph(5).with_weights([1, 0, 0, 0, 1])
    res = flow_or_sparse_cut(g, 2.0)
    assert isinstance(res, ConcurrentFlow)
    res.check()
    # both demands cross the middle of the path
    assert res.congestion_vector() == [2.0, 2.0, 2.0, 2.0, 2.0]


def test_weighted_demands_meet_product():
    g = path_graph(3).with_weights([2, 1, 3])
    res = flow_or_sparse_cut(g, 1e6)
    assert isinstance(res, ConcurrentFlow)
    res.check()
    assert math.fsum(a for _, a in res.paths_between(0, 2)) == pytest.approx(6.0)


def _reference_tree_flow(g, trees):
    """Every path of a tree flow written out, and its congestion."""
    w = g.weights
    paths = {}
    cong = [0.0] * g.n
    for s, parent in trees.items():
        for t in trees:
            if t == s:
                continue
            rev = [t]
            while rev[-1] != s:
                rev.append(parent[rev[-1]])
            verts = tuple(reversed(rev))
            paths[(s, t)] = [(verts, w[s] * w[t])]
            for v in verts:
                cong[v] += w[s] * w[t]
    return paths, cong


def test_tree_flow_walks_the_paths_of_its_parent_arrays():
    # vertex 3 weighs nothing but is the only way into vertex 1; plain BFS
    # trees peak at congestion 0.78, so gamma 0.72 needs a rerouted round.
    # Weights in tenths are inexact in binary, so the exact comparison of
    # congestion vectors also pins the order of summation.
    g = WeightedGraph(7, [(0, 3), (0, 4), (1, 3), (2, 3), (2, 4), (2, 5),
                          (4, 5), (4, 6), (5, 6)],
                      [0.1, 0.2, 0.3, 0.0, 0.2, 0.1, 0.3])
    positives = [0, 1, 2, 4, 5, 6]
    bfs = {s: _tree_from(g, s, None) for s in positives}
    bfs_peak = max(_tree_congestion(g, positives, bfs, g.total_weight))
    assert bfs_peak == pytest.approx(0.78)
    res = flow_or_sparse_cut(g, 0.72)
    assert isinstance(res, ConcurrentFlow)
    assert list(res.trees) == positives
    assert res.trees != {s: parent for s, (parent, _) in bfs.items()}
    ref_paths, ref_cong = _reference_tree_flow(g, res.trees)
    for u in range(g.n):
        for v in range(g.n):
            assert res.paths_between(u, v) == ref_paths.get((u, v), [])
    assert res.congestion_vector() == ref_cong
    assert res.max_congestion() <= 0.72
    assert res.path_count == 30
    res.check()


def test_check_walks_every_tree_path():
    res = flow_or_sparse_cut(path_graph(5), 1e6)
    assert isinstance(res, ConcurrentFlow)
    res.check()
    res.trees[0][4] = 2  # source 0's path to 4 now steps 2 -> 4
    with pytest.raises(FlowError, match="not an edge"):
        res.check()
    res.trees[0][4] = 3
    res.trees[0][2] = 3  # 3 -> 2 -> 3 never gets back to source 0
    with pytest.raises(FlowError, match="does not lead"):
        res.check()


def test_cut_orders_cover_a_host_with_isolated_vertices():
    # a unit-weight path plus isolated zero-weight vertices: no BFS or
    # Dijkstra order from the path reaches the isolated ones
    n = 10
    g = WeightedGraph(2 * n, [(i, i + 1) for i in range(n - 1)],
                      [1.0] * n + [0.0] * n)
    plain = _cut_orders(g, list(range(n)), None)
    dual = _cut_orders(g, list(range(n)), [0.5] * g.n)
    assert len(dual) > len(plain)
    for order in plain + dual:
        assert sorted(order) == list(range(g.n))
    # gamma 0.5 goes straight to the sweep; at gamma 18, the endpoint bound,
    # the tree flow fails and the sweep also walks the LP's dual lengths
    for gamma in (0.5, 18.0):
        res = flow_or_sparse_cut(g, gamma)
        assert isinstance(res, Separation)
        again = make_separation(g, res.side_a, res.side_b)
        assert again.sparsity == res.sparsity
        assert res.sparsity <= 64.0 * math.log(g.n) / gamma


def test_separation_objects_are_sound():
    for g in (grid_graph(6), gnp_graph(30, 0.15, seed=2), cycle_graph(30)):
        res = flow_or_sparse_cut(g, 0.5)
        assert isinstance(res, Separation)
        # no edge may join the two open sides
        side_a = res.side_a - res.separator
        side_b = res.side_b - res.separator
        for u, v in g.edges():
            assert not ((u in side_a and v in side_b) or
                        (u in side_b and v in side_a))
        assert res.sparsity <= 64.0 * math.log(g.n) / 0.5 + 1e-9


def test_balanced_loop_on_path():
    g = path_graph(100)
    res = balanced_separator_or_flow(g, 0.5)
    assert isinstance(res, BalancedSeparatorResult)
    half = g.total_weight / 2
    outside = set(range(g.n)) - set(res.separator)
    for comp in connected_components(g, outside):
        assert g.weight_of(comp) <= half
    assert len(res.separator) <= 64.0 * 100 ** 2 * math.log(100) / 0.5


def test_balanced_loop_peels_barbell_bridge():
    g = barbell_graph(10, 3)
    res = balanced_separator_or_flow(g, 2.0)
    assert isinstance(res, BalancedSeparatorResult)
    assert len(res.separator) <= 2
    # pieces partition the rest and respect the recorded steps
    seen = set(res.separator)
    for piece in res.pieces:
        for v in piece:
            assert v not in seen
            seen.add(v)
    assert seen == set(range(g.n))
    assert len(res.steps) >= 1


def test_balanced_loop_surfaces_flow_at_huge_gamma():
    g = complete_graph(20)
    res = balanced_separator_or_flow(g, 1e9)
    assert isinstance(res, HeavyFlowResult)
    assert res.vertices == tuple(range(20))
    assert res.separator == frozenset()
    res.flow.check()
    assert g.weight_of(res.vertices) >= g.total_weight / 2


def test_balanced_loop_flow_host_is_relabelled_subgraph():
    w = [1.0] * 40
    w[0] = 100.0
    g = WeightedGraph(40, cycle_graph(40).edges(), w)
    res = balanced_separator_or_flow(g, 1e9)
    assert isinstance(res, HeavyFlowResult)
    assert res.flow.host.n == len(res.vertices)
    assert set(res.separator).isdisjoint(res.vertices)


def test_loop_puts_majority_vertex_into_the_separator():
    # a majority-weight vertex can never sit in a light component; the
    # first sweep cut drops it straight into the separator
    g = path_graph(9).with_weights([1, 1, 1, 1, 20, 1, 1, 1, 1])
    res = balanced_separator_or_flow(g, 0.5)
    assert isinstance(res, BalancedSeparatorResult)
    assert res.separator == frozenset({4})
    covered = set(res.separator)
    for piece in res.pieces:
        covered.update(piece)
    assert covered == set(range(9))
