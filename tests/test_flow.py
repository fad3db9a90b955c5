import hashlib
import math
import random

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
    induced_minor_separator,
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
import coarsesep.flow as flow_module
from coarsesep.flow import (_best_sweep_separation, _congestion_lower_bound,
                            _cut_orders, _tree_congestion, _tree_from)


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


def _random_weighted_host(rng):
    n = rng.randint(2, 36)
    p = rng.choice([0.1, 0.2, 0.4, 0.8])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return WeightedGraph(n, edges, _random_weights(rng, n))


def _random_sparse_host(rng, max_n):
    """Mostly a random recursive tree plus a few random edges."""
    n = rng.randint(2, max_n)
    p = min(1.0, rng.choice([0, 1, 2, 4]) / max(n - 1, 1))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p}
    if rng.random() < 0.8:
        edges |= {(rng.randrange(v), v) for v in range(1, n)}
    return WeightedGraph(n, sorted(edges), _random_weights(rng, n))


def _random_weights(rng, n):
    kind = rng.choice(["unit", "integer", "skewed", "zeros"])
    if kind == "unit":
        return [1.0] * n
    if kind == "integer":
        return [float(rng.randint(1, 9)) for _ in range(n)]
    if kind == "skewed":
        return [10 ** rng.uniform(-6, 6) for _ in range(n)]
    return [0.0 if rng.random() < 0.4 else float(rng.randint(1, 5))
            for _ in range(n)]


def test_sweep_alone_answers_below_the_endpoint_bound(monkeypatch):
    # Below max_v 2 w(v) (W - w(v)) neither the tree routing nor the LP may
    # run: the weight-ascending order's last prefix cuts off a heaviest
    # vertex t at sparsity 1 / (W w(t)), under the bound 64 ln(n) / gamma.
    def unreachable(*args, **kwargs):
        raise AssertionError("flow search ran below the endpoint bound")

    monkeypatch.setattr(flow_module, "_solve_throughput_lp", unreachable)
    monkeypatch.setattr(flow_module, "_attempt_tree_flow", unreachable)
    rng = random.Random(7)
    tried = 0
    while tried < 300:
        g = _random_weighted_host(rng)
        w = g.weights
        positives = [v for v in range(g.n) if w[v] > 0]
        if len(positives) < 2:
            continue
        tried += 1
        pw = g.weight_of(positives)
        endpoint_lb = max(2.0 * w[v] * (pw - w[v]) for v in positives)
        gamma = endpoint_lb * rng.choice([1e-6, 0.01, 0.5, 0.99, 0.999])
        res = flow_or_sparse_cut(g, gamma)
        assert isinstance(res, Separation)
        assert res.sparsity <= 64.0 * math.log(g.n) / gamma * (1 + 1e-9)


def test_flow_or_sparse_cut_outputs_match_golden_digest():
    # Every result of the dichotomy on 60 seeded random hosts, at one gamma
    # below the endpoint bound, one inside the window where a sweep cut may
    # certify that no flow fits, and one around W^2.  The digest covers the
    # kind, the sides, repr of the sparsity, every routed path with its
    # amount and the congestion vector.  It was captured before the sweep
    # certificate let flow_or_sparse_cut skip the tree routing.
    rng = random.Random(11)
    digest = hashlib.sha256()
    kinds = []
    while len(kinds) < 180:
        g = _random_sparse_host(rng, 60)
        w = g.weights
        positives = [v for v in range(g.n) if w[v] > 0]
        if len(positives) < 2:
            continue
        total = g.total_weight
        endpoint_lb = max(2.0 * w[v] * (total - w[v]) for v in positives)
        ceiling = total * total / 2 + endpoint_lb
        below = endpoint_lb * 10 ** rng.uniform(-1, 0)
        inside = endpoint_lb * (ceiling / endpoint_lb) ** rng.random() ** 2
        around = total * total * 10 ** rng.uniform(-1, 0.3)
        for gamma in (below, inside, around):
            res = flow_or_sparse_cut(g, gamma)
            if isinstance(res, Separation):
                record = ("cut", sorted(res.side_a), sorted(res.side_b),
                          repr(res.sparsity))
            else:
                record = ("flow", list(res.routed()), res.congestion_vector())
            kinds.append(record[0])
            digest.update(repr(record).encode())
    assert (kinds.count("flow"), kinds.count("cut")) == (52, 128)
    assert digest.hexdigest() == (
        "357a756619db5f678d34696da3b0b8cdfa9defc99afcd3a05483cc177d57bed9")


def _recording(monkeypatch, name):
    """Wrap `flow_module.<name>`; returns the original and its results."""
    original = getattr(flow_module, name)
    results = []

    def wrapper(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(flow_module, name, wrapper)
    return original, results


def test_sweep_certificate_skips_only_routing_that_fails(monkeypatch):
    # Inside the window a sweep cut may certify that every flow has max
    # congestion above gamma; flow_or_sparse_cut then skips the routing.
    # Whenever it does, the routing must fail and the exact LP optimum must
    # be at least the certified bound.
    route, routed = _recording(monkeypatch, "_attempt_tree_flow")
    _, solved = _recording(monkeypatch, "_solve_throughput_lp")
    rng = random.Random(13)
    fired = tried = 0
    while tried < 60:
        g = _random_sparse_host(rng, 36)
        w = g.weights
        positives = [v for v in range(g.n) if w[v] > 0]
        if len(positives) < 2 or sum(
                any(w[v] > 0 for v in comp)
                for comp in connected_components(g)) > 1:
            continue
        tried += 1
        total = g.total_weight
        endpoint_lb = max(2.0 * w[v] * (total - w[v]) for v in positives)
        ceiling = total * total / 2 + endpoint_lb
        gamma = endpoint_lb * (ceiling / endpoint_lb) ** rng.random() ** 2
        routed.clear()
        solved.clear()
        res = flow_or_sparse_cut(g, gamma)
        if routed:
            continue
        fired += 1
        _, prefix = _best_sweep_separation(g, positives, None)
        floor = _congestion_lower_bound(g, *prefix)
        assert floor > gamma
        assert isinstance(res, Separation)
        assert route(g, gamma, positives) is None
        # the LP still runs, since its dual lengths choose sweep orders
        assert len(solved) == 1
        assert 1.0 / solved[0].throughput >= floor * (1 - 1e-7)
    assert 0 < fired < tried, (fired, tried)


def test_induced_gnp_routes_only_where_no_cut_rules_a_flow_out(monkeypatch):
    # The certificate is the one found before the sweep certificate existed,
    # when the same call made 21 tree-routing attempts.  The star-quotient
    # oracle now peels sweep cuts alone, so it neither routes nor solves LPs.
    _, routed = _recording(monkeypatch, "_attempt_tree_flow")
    _, solved = _recording(monkeypatch, "_solve_throughput_lp")
    cert = induced_minor_separator(gnp_graph(150, 4 / 150, seed=0))
    expected = (3, 4, 6, 9, 11, 12, 16, 17, 21, 27, 28, 32, 37, 46, 49, 56,
                59, 63, 78, 80, 83, 95, 96, 99, 101, 102, 105, 107, 110, 118,
                119, 129, 147)
    assert tuple(sorted(cert.separator)) == expected
    assert cert.centers == expected
    assert cert.radius == 0
    assert len(routed) == 0
    assert len(solved) == 0


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
