import hashlib
import math
import random
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarsesep import (
    BalancedSeparatorResult,
    ConcurrentFlow,
    FlowCutError,
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
    verify_certificate,
    verify_separator,
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
from coarsesep.flow import (_MIN_BITE, _best_sweep_separation, _cut_orders,
                            _fiedler_order, _fiedler_vector, _pruned,
                            _sweep_cut, _sweep_order, _tree_congestion,
                            balanced_separator_by_sweeps)
from coarsesep.graph import bfs_tree, weight_units
from coarsesep.oracle import exact_sparsest_separation


def _bfs_tree(g, s):
    """The unwalled BFS tree (parent array, visit order) of source s."""
    seen = [False] * g.n
    seen[s] = True
    return bfs_tree(g, s, seen)


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


def test_cycle4_at_seven_gives_a_cut_within_the_bound():
    # a flow at congestion 7 exists, but only by splitting the antipodal
    # demands across both sides; the BFS trees peak at 8, so the sweep
    # answers, and any cut within the bound is a valid answer
    g = cycle_graph(4)
    res = flow_or_sparse_cut(g, 7.0)
    assert isinstance(res, Separation)
    assert make_separation(g, res.side_a, res.side_b).sparsity == res.sparsity
    assert res.sparsity <= 64.0 * math.log(4) / 7.0


def test_small_demands_inside_the_window_still_get_a_cut():
    # Weights spread over five orders of magnitude: the demand of (9, 2) is
    # about 1e-9 of W^2.  The tree flow misses this gamma, and the sweep's
    # cut is far inside the bound.
    w = [196, 0.13, 0.00421, 2.47, 15.9, 55.7, 0.301, 1.09, 200, 0.0255,
         0.00713, 0.0143, 0.978, 45.7, 138]
    g = cycle_graph(15).with_weights(w)
    gamma = 215207.89
    endpoint_lb = max(2.0 * x * (g.total_weight - x) for x in w)
    assert endpoint_lb < gamma < g.total_weight ** 2
    res = flow_or_sparse_cut(g, gamma)
    assert isinstance(res, Separation)
    assert make_separation(g, res.side_a, res.side_b).sparsity == res.sparsity
    assert res.sparsity <= 64.0 * math.log(15) / gamma


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
    assert list(res.routed()) == []
    assert res.path_count == 0
    assert res.max_congestion() == 0.0
    res.check()


def test_disconnected_positives_give_sparsity_zero_cut():
    # W^2 = 36: the split comes before the flow ceiling is looked at
    g = WeightedGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    for gamma in (36.0, 1000.0):
        res = flow_or_sparse_cut(g, gamma)
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
    assert res.path(0, 2) == (0, 1, 2)
    assert [a for s, t, _, a in res.routed() if (s, t) == (0, 2)] == [6.0]


def _reference_tree_flow(g, trees):
    """Every path of a tree flow with its amount, and the congestion."""
    w = g.weights
    paths = {}
    cong = [0.0] * g.n
    for s, (parent, _) in trees.items():
        for t in trees:
            if t == s:
                continue
            rev = [t]
            while rev[-1] != s:
                rev.append(parent[rev[-1]])
            verts = tuple(reversed(rev))
            paths[(s, t)] = (verts, w[s] * w[t])
            for v in verts:
                cong[v] += w[s] * w[t]
    return paths, cong


def test_tree_flow_walks_the_paths_of_its_parent_arrays():
    # vertex 3 weighs nothing but is the only way into vertex 1; the BFS
    # trees peak at congestion 0.78.  Below that peak the sweep answers
    # with a cut within the bound, though a rerouted flow would fit 0.72;
    # at the peak the BFS-tree flow itself comes back.  Weights in tenths
    # are inexact in binary: the congestion vector is one subtree-sum pass
    # over the trees, equal to `_tree_congestion` exactly and to the
    # path-by-path sum up to rounding.
    g = WeightedGraph(7, [(0, 3), (0, 4), (1, 3), (2, 3), (2, 4), (2, 5),
                          (4, 5), (4, 6), (5, 6)],
                      [0.1, 0.2, 0.3, 0.0, 0.2, 0.1, 0.3])
    positives = [0, 1, 2, 4, 5, 6]
    bfs = {s: _bfs_tree(g, s) for s in positives}
    bfs_peak = max(_tree_congestion(g, bfs))
    assert bfs_peak == pytest.approx(0.78)
    cut = flow_or_sparse_cut(g, 0.72)
    assert isinstance(cut, Separation)
    assert make_separation(g, cut.side_a, cut.side_b).sparsity == cut.sparsity
    assert cut.sparsity <= 64.0 * math.log(7) / 0.72
    res = flow_or_sparse_cut(g, 0.78)
    assert isinstance(res, ConcurrentFlow)
    assert all(res.tree(s) == bfs[s] for s in positives)
    ref_paths, ref_cong = _reference_tree_flow(g, bfs)
    for (s, t), (verts, _) in ref_paths.items():
        assert res.path(s, t) == verts
    # the sources are the positives, in id order
    assert list(res.routed()) == [(s, t, verts, amount) for (s, t), (
        verts, amount) in ref_paths.items()]
    assert res.congestion_vector() == _tree_congestion(g, bfs)
    assert res.congestion_vector() == pytest.approx(ref_cong, rel=1e-12)
    assert res.max_congestion() == bfs_peak
    assert res.path_count == 30
    res.check()


def test_check_walks_every_tree_path():
    res = flow_or_sparse_cut(path_graph(5), 1e6)
    assert isinstance(res, ConcurrentFlow)
    res.check()
    parent = res.tree(0)[0]
    parent[4] = 2  # source 0's path to 4 now steps 2 -> 4
    with pytest.raises(FlowError, match="not an edge"):
        res.check()
    parent[4] = 3
    parent[2] = 3  # 3 -> 2 -> 3 never gets back to source 0
    with pytest.raises(FlowError, match="does not lead"):
        res.check()


def test_flow_ceiling_builds_a_tree_only_when_its_paths_are_walked(
        monkeypatch):
    # At gamma >= W^2 every routing fits, so the flow comes back with no
    # tree built; looking up one pair builds its source's tree only.
    _, trees = _recording(monkeypatch, "bfs_tree")

    def built():
        return [order[0] for _, order in trees]

    g = grid_graph(6).with_weights([1.0 + v % 3 for v in range(36)])
    res = flow_or_sparse_cut(g, g.total_weight ** 2)
    assert isinstance(res, ConcurrentFlow)
    assert res.path_count == 36 * 35
    assert built() == []
    verts = res.path(0, 35)
    assert (verts[0], verts[-1]) == (0, 35)
    assert built() == [0]
    res.path(0, 20)
    assert res.tree(0) is res.tree(0)
    assert built() == [0]
    res.path(35, 0)
    assert built() == [0, 35]


@pytest.mark.parametrize("g", [
    path_graph(40),
    grid_graph(7).with_weights([0.1 * (v % 4) for v in range(49)]),
    cycle_graph(30).with_weights([10.0 ** (v % 7 - 3) for v in range(30)]),
    barbell_graph(8, 5).with_weights([0.3] * 21),
])
def test_flow_ceiling_walks_the_paths_of_eager_bfs_trees(g):
    # the BFS trees built up front, whose congestion the window checks
    # against gamma and the ceiling does not
    w = g.weights
    positives = [v for v in range(g.n) if w[v] > 0]
    gamma = g.total_weight ** 2
    res = flow_or_sparse_cut(g, gamma)
    assert isinstance(res, ConcurrentFlow)
    bfs = {s: _bfs_tree(g, s) for s in positives}
    assert max(_tree_congestion(g, bfs)) <= gamma
    ref_paths, _ = _reference_tree_flow(g, bfs)
    assert list(res.routed()) == [(s, t, verts, amount) for (s, t), (
        verts, amount) in ref_paths.items()]
    assert res.congestion_vector() == _tree_congestion(g, bfs)
    assert res.path_count == len(ref_paths)
    assert all(res.tree(s) == bfs[s] for s in positives)


_MIXED_WEIGHTS = st.one_of(st.just(0.0), st.just(1.0),
                           st.floats(-6, 6).map(lambda x: 10 ** x))


@st.composite
def _connected_weighted_hosts(draw, max_n=30,
                              weights=st.just(_MIXED_WEIGHTS)):
    # a random recursive tree plus extra edges; `weights` draws the strategy
    # of this host's vertex weights (default: zero, unit and skewed mixed)
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(e), max(e)) for e in extra if e[0] != e[1]}
    weight = draw(weights)
    return WeightedGraph(n, sorted(edges),
                         draw(st.lists(weight, min_size=n, max_size=n)))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(_connected_weighted_hosts(), st.floats(0, 3))
def test_flow_at_or_above_the_ceiling_fits_gamma(g, u):
    gamma = g.total_weight ** 2 * 10 ** u
    if gamma == 0:
        return  # no positive weight: gamma must be positive
    res = flow_or_sparse_cut(g, gamma)
    assert isinstance(res, ConcurrentFlow)
    res.check()
    assert res.max_congestion() <= gamma


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_connected_weighted_hosts(36, st.sampled_from([
    st.just(1.0), st.integers(0, 9).map(float),
    st.floats(-3, 3).map(lambda x: 10 ** x)])), st.floats(0, 1))
def test_in_window_answers_are_sound(g, u):
    # unit, integer or 10^U(-3, 3) weights, one kind per host
    # gamma log-uniform between the endpoint bound and W^2
    total = g.total_weight
    positives = [v for v in range(g.n) if g.weights[v] > 0]
    assume(len(positives) >= 2)
    endpoint_lb = max(2.0 * g.weights[v] * (total - g.weights[v])
                      for v in positives)
    gamma = endpoint_lb * (total * total / endpoint_lb) ** u
    res = flow_or_sparse_cut(g, gamma)
    if isinstance(res, ConcurrentFlow):
        # the one flow the window returns: the BFS trees of the positives
        assert res.path_count == len(positives) * (len(positives) - 1)
        assert all(res.tree(s) == _bfs_tree(g, s) for s in positives)
        res.check()
        assert res.max_congestion() <= gamma * (1 + 1e-9)
    else:
        assert make_separation(g, res.side_a, res.side_b).sparsity == (
            res.sparsity)
        assert res.sparsity <= 64.0 * math.log(g.n) / gamma * (1 + 1e-9)


def test_cut_orders_cover_a_host_with_isolated_vertices():
    # a unit-weight path plus isolated zero-weight vertices: no BFS order
    # from the path reaches the isolated ones, and the cuts stay valid
    n = 10
    g = WeightedGraph(2 * n, [(i, i + 1) for i in range(n - 1)],
                      [1.0] * n + [0.0] * n)
    # gamma 0.5 goes straight to the sweep; at gamma 18, the endpoint bound,
    # the tree flow fails and the sweep answers
    for gamma in (0.5, 18.0):
        res = flow_or_sparse_cut(g, gamma)
        assert isinstance(res, Separation)
        again = make_separation(g, res.side_a, res.side_b)
        assert again.sparsity == res.sparsity
        assert res.sparsity <= 64.0 * math.log(g.n) / gamma


def test_every_bfs_order_starts_inside_the_positives_component():
    # vertices 0 and 1 form a weightless component; a BFS order from
    # vertex 0 would cover only it and give no cut
    edges = [(0, 1)] + [(v, v + 1) for v in range(2, 11)] + [(2, 11)]
    g = WeightedGraph(12, edges, [0.0, 0.0] + [float(v) for v in range(2, 12)])
    sources = flow_module._bfs_sources(g)
    assert sources[:2] == [11, 2]
    orders = _cut_orders(g)[:len(sources)]
    for order in orders:
        assert _sweep_order(g, order, g.total_weight) is not None


def test_an_empty_separator_has_sparsity_zero_at_any_weight():
    # w(A) w(B) = 1e-400 underflows to 0; the component split's empty
    # separator still has sparsity 0, with no division
    g = WeightedGraph(2, [], [1e-200, 1e-200])
    assert make_separation(g, {0}, {1}).sparsity == 0.0
    res = flow_or_sparse_cut(g, 1.0)
    assert isinstance(res, Separation)
    assert res.separator == frozenset()
    assert res.sparsity == 0.0


def test_a_cut_whose_weight_product_underflows_has_sparsity_inf():
    # 1e-200 * 1e-150 underflows to 0, so a cut that keeps both heavy ends
    # on one side reads as infinitely sparse; the sweep and the oracle both
    # find the cut that puts one heavy end on each side.
    g = path_graph(6).with_weights([1e-200] * 4 + [1e-150] * 2)
    assert make_separation(g, {0, 1, 2}, {2, 3, 4, 5}).sparsity == math.inf
    res = flow_or_sparse_cut(g, 1e-300)
    assert isinstance(res, Separation)
    assert res.separator == frozenset({4})
    want = exact_sparsest_separation(g)
    assert want.separator == frozenset({4})
    assert res.sparsity == want.sparsity == 1 / (2e-150 * 1e-150)
    # Here every cut's sparsity overflows, and so does the bound: a cut of
    # sparsity inf still counts, within it.
    h = path_graph(3).with_weights([1e-156] * 3)
    res = flow_or_sparse_cut(h, 1e-313)
    assert isinstance(res, Separation)
    assert (res.separator, res.sparsity) == (frozenset({1}), math.inf)
    assert exact_sparsest_separation(h).sparsity == math.inf


@st.composite
def _dichotomy_cases(draw):
    # a host on at most 9 vertices with random edges, unit, skewed or
    # zero-and-decimal weights, and gamma from 1e-3 W^2 to 2 W^2
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    edges = sorted({(min(e), max(e)) for e in pairs if e[0] != e[1]})
    weight = draw(st.sampled_from([
        st.just(1.0),
        st.floats(-3, 3).map(lambda x: 10.0 ** x),
        st.sampled_from([0.0, 1.0, 2.5])]))
    g = WeightedGraph(n, edges, draw(st.lists(weight, min_size=n,
                                              max_size=n)))
    assume(g.total_weight > 0)
    return g, g.total_weight ** 2 * 10.0 ** draw(st.floats(-3, 0.3))


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_dichotomy_cases())
def test_flow_or_cut_is_sound_against_the_exact_sparsest_cut(case):
    g, gamma = case
    res = flow_or_sparse_cut(g, gamma)
    if isinstance(res, ConcurrentFlow):
        res.check()
        assert res.max_congestion() <= gamma * (1 + 1e-9)
        return
    redone = make_separation(g, res.side_a, res.side_b)
    assert redone.sparsity <= 64.0 * math.log(g.n) / gamma * (1 + 1e-9)
    assert redone.sparsity >= (exact_sparsest_separation(g).sparsity
                               * (1 - 1e-9))


def test_sweep_stops_before_the_last_positive_vertex():
    # Summed in path order the positives weigh 1.0, below their exact total
    # 1 + 2e-16: the prefix holding all of them once read as a cut of
    # sparsity 0, and make_separation rejected its weightless side B.
    g = WeightedGraph(4, [(0, 1), (1, 2)], [1.0, 1e-16, 1e-16, 0.0])
    assert verify_certificate(g, induced_minor_separator(g)).ok
    res = flow_or_sparse_cut(g, 1e-17)
    assert isinstance(res, Separation)
    assert make_separation(g, res.side_a, res.side_b).sparsity == res.sparsity
    assert res.sparsity <= 64.0 * math.log(4) / 1e-17


def _edge_by_edge_laplacian(g):
    """Reference: the Laplacian summed one edge at a time."""
    import numpy as np
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges():
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    return lap


def _eigh_fiedler(g):
    """Reference: dense eigh's Fiedler vector, signed as `_fiedler_order`
    signs it, with all eigenvalues."""
    import numpy as np
    vals, vecs = np.linalg.eigh(_edge_by_edge_laplacian(g))
    vec = vecs[:, 1]
    for x in vec:
        if abs(x) > 1e-12:
            if x < 0:
                vec = -vec
            break
    return vals, vec


def _best_sweep_of(g, order):
    hits = [_sweep_order(g, o, g.total_weight) for o in (order, order[::-1])]
    return min((h[0] for h in hits if h is not None), default=None)


def test_fiedler_order_matches_edge_by_edge_laplacian():
    import numpy as np
    rng = random.Random(11)
    hosts = [grid_graph(12), cycle_graph(60), barbell_graph(8, 4),
             complete_graph(9)]
    hosts += [_random_sparse_host(rng, 120) for _ in range(12)]
    # isolated vertices give zero rows and a multiple zero eigenvalue
    disconnected = WeightedGraph(30, [(i, i + 1) for i in range(19)])
    hosts.append(disconnected)
    compared = 0
    for g in hosts:
        if g.n < 3 or not g.m:
            continue
        lap = _edge_by_edge_laplacian(g)
        vals, ref = _eigh_fiedler(g)
        lam2, lam_max = vals[1], vals[-1]
        x = _fiedler_vector(g)
        # a unit vector orthogonal to 1, and an eigenvector of the
        # Laplacian summed edge by edge for its second eigenvalue
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert abs(x.sum()) <= 1e-9
        assert np.linalg.norm(lap @ x - lam2 * x) <= 1e-8 * lam_max
        # where lambda_2 is well separated and no two entries nearly tie,
        # the order is eigh's
        gaps = np.diff(np.sort(ref))
        if vals[2] - lam2 >= 1e-3 * lam_max and gaps.min() > 1e-9:
            compared += 1
            order = sorted(range(g.n), key=lambda v: (ref[v], v))
            assert _fiedler_order(g) == order
    assert compared >= 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _fiedler_order(disconnected) is not None


@st.composite
def _hosts_with_simple_lambda2(draw):
    g = draw(_connected_weighted_hosts(60, st.just(st.just(1.0))))
    assume(g.n >= 3)
    vals = _eigh_fiedler(g)[0]
    assume(vals[2] - vals[1] >= 1e-3 * vals[-1])
    return g


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_hosts_with_simple_lambda2())
def test_fiedler_order_sweeps_as_well_as_eigh(g):
    vec = _eigh_fiedler(g)[1]
    ref = sorted(range(g.n), key=lambda v: (vec[v], v))
    got = _best_sweep_of(g, _fiedler_order(g))
    want = _best_sweep_of(g, ref)
    if want is None:
        assert got is None
    else:
        assert abs(got - want) <= 1e-9 * want


# Leaves of one vertex, which an automorphism swaps, have Fiedler entries
# that are equal in exact arithmetic but differ by rounding noise, and the
# noise differs between LAPACK routines.  `_fiedler_order` gives a sorted
# entry within 1e-9 max|x| of the one before it the same key before its
# stable sort, so such leaves go in id order.  The property above draws
# unit weights, where their order decides nothing.
_TIED_LEAVES_TREE = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 5)]


def test_tied_fiedler_entries_decide_the_weighted_sweep():
    g = WeightedGraph(7, _TIED_LEAVES_TREE, [0.0] * 6 + [1.0])
    x = _fiedler_vector(g)
    leaves = [2, 3, 4, 6]
    assert max(x[leaves]) - min(x[leaves]) <= 1e-12
    order = _fiedler_order(g)
    assert order == [5, 1, 0] + leaves
    # The tied leaves in id order, and in the order dense eigh gave them:
    # their best sweep cuts differ, 1 against 3.
    assert _best_sweep_of(g, [5, 1, 0, 2, 3, 4, 6]) == 1.0
    assert _best_sweep_of(g, [5, 1, 0, 3, 6, 4, 2]) == 3.0


def test_tied_fiedler_entries_go_in_id_order():
    # leaves 3 and 7 of vertex 1, and 5 and 6 of vertex 4, tie
    g = WeightedGraph(8, [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5), (4, 6),
                          (1, 7)])
    order = _fiedler_order(g)
    assert order.index(3) < order.index(7)
    assert order.index(5) < order.index(6)


def test_fiedler_ties_go_in_id_order_across_any_grid_boundary(monkeypatch):
    # Entries 0 and 1 lie 1e-13 on either side of 4.5e-9, a cell boundary
    # of a fixed 1e-9 grid, and entries 2 and 3 lie 4e-10 apart: each pair
    # shares a key, so goes in id order.
    import numpy as np
    vec = np.array([4.5e-9 + 1e-13, 4.5e-9 - 1e-13, 0.5 + 4e-10, 0.5, -1.0])
    monkeypatch.setattr(flow_module, "_fiedler_vector", lambda g: vec)
    assert _fiedler_order(path_graph(5)) == [4, 0, 1, 2, 3]


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
    # Below max_v 2 w(v) (W - w(v)) the tree routing may not run: the
    # weight-ascending order's last prefix cuts off a heaviest vertex t at
    # sparsity 1 / (W w(t)), under the bound 64 ln(n) / gamma.
    def unreachable(*args, **kwargs):
        raise AssertionError("flow search ran below the endpoint bound")

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


def test_a_sweep_cut_above_the_bound_is_refused(monkeypatch):
    # inside the window on cycle(20) the tree flow misses gamma and the
    # sweep's cut lies under the bound 64 ln(20) / gamma; with the constant
    # shrunk to 1e-9 the same cut lies above it, and no answer is left
    g = cycle_graph(20)
    gamma = 0.2 * g.total_weight ** 2
    assert gamma >= max(2.0 * x * (g.total_weight - x) for x in g.weights)
    res = flow_or_sparse_cut(g, gamma)
    assert isinstance(res, Separation)
    assert 0 < res.sparsity <= 64.0 * math.log(20) / gamma
    monkeypatch.setattr(flow_module, "CUT_CONSTANT", 1e-9)
    with pytest.raises(FlowCutError, match="no flow within the congestion"):
        flow_or_sparse_cut(g, gamma)


def test_flow_or_sparse_cut_outputs_match_golden_digest():
    # Every result of the dichotomy on 60 seeded random hosts, at one gamma
    # below the endpoint bound, one inside the window (between it and
    # W^2 / 2 plus it), and one around W^2.  The digest covers the kind, the
    # sides, repr of the sparsity, every routed path with its amount and the
    # congestion vector, so it also pins the order of the congestion sums.
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
    assert (kinds.count("flow"), kinds.count("cut")) == (46, 134)
    assert digest.hexdigest() == (
        "ab60051499dc558936ade0f4a0342ca7e71200986f6c88395732b59425ace950")


def _recording(monkeypatch, name):
    """Wrap `flow_module.<name>`; returns the original and its results."""
    original = getattr(flow_module, name)
    results = []

    def wrapper(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(flow_module, name, wrapper)
    return original, results


def _in_window_calls(rng, count):
    """Three fixed (host, gamma) calls, then seeded ones up to `count`.

    The seeded gammas lie between the endpoint bound and W^2, log-uniform,
    on hosts whose positives share a component.
    """
    calls = [(cycle_graph(6), 15.0), (cycle_graph(6), 10.0),
             (grid_graph(5, 5), 60.0)]
    while len(calls) < count:
        g = _random_sparse_host(rng, 36)
        w = g.weights
        positives = [v for v in range(g.n) if w[v] > 0]
        if len(positives) < 2 or sum(
                any(w[v] > 0 for v in comp)
                for comp in connected_components(g)) > 1:
            continue
        total = g.total_weight
        endpoint_lb = max(2.0 * w[v] * (total - w[v]) for v in positives)
        gamma = endpoint_lb * (total * total / endpoint_lb) ** rng.random()
        calls.append((g, gamma))
    return calls


def test_window_routes_first_and_sweeps_once_only_for_a_cut(monkeypatch):
    # Inside the window the dichotomy routes before it sweeps: a call that
    # returns a flow runs no sweep, and a call that returns a cut runs
    # exactly one, after the routing failed.
    _, swept = _recording(monkeypatch, "_best_sweep_separation")
    _, routed = _recording(monkeypatch, "_attempt_tree_flow")
    kinds = []
    for g, gamma in _in_window_calls(random.Random(13), 60):
        swept.clear()
        routed.clear()
        res = flow_or_sparse_cut(g, gamma)
        assert len(routed) == 1
        if isinstance(res, ConcurrentFlow):
            assert len(swept) == 0
        else:
            assert len(swept) == 1
            assert routed[0] is None
            assert swept[0] == res
        kinds.append(type(res))
    assert kinds[:3] == [Separation, Separation, Separation]
    assert ConcurrentFlow in kinds[3:] and Separation in kinds[3:]


@st.composite
def _hosts_with_orders(draw):
    # Weights are small integers or powers of two, zeros included, so every
    # running sum of the sweep is exact: whether a prefix counts must then
    # agree with the brute force, not just come close to it.
    n = draw(st.integers(1, 25))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    edges = sorted({(min(e), max(e)) for e in extra if e[0] != e[1]})
    weight = st.one_of(st.just(0.0), st.integers(0, 5).map(float),
                       st.integers(-8, 8).map(lambda k: 2.0 ** k))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    return WeightedGraph(n, edges, weights), order


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_hosts_with_orders())
def test_sweep_order_finds_the_sparsest_prefix_cut(host_order):
    g, order = host_order
    w = g.weights

    def exact_sparsity(length):
        # the cut (U + N(U), V - U) of the prefix U, or None if a side
        # carries no weight
        u_set = set(order[:length])
        side_a = u_set.union(*(g.adj[v] for v in u_set))
        side_b = set(range(g.n)) - u_set
        wa = math.fsum(w[v] for v in side_a)
        wb = math.fsum(w[v] for v in side_b)
        if wa <= 0 or wb <= 0:
            return None
        return len(side_a & side_b) / (wa * wb)

    exact = [exact_sparsity(length) for length in range(1, g.n)]
    valid = [x for x in exact if x is not None]
    hit = _sweep_order(g, order, g.total_weight)
    if not valid:
        assert hit is None
        return
    assert hit is not None
    alpha, length = hit
    found = exact[length - 1]
    assert found is not None
    assert found <= min(valid) * (1 + 1e-9)
    assert alpha == pytest.approx(found, rel=1e-9, abs=0)


def test_induced_gnp_routes_only_where_no_cut_rules_a_flow_out(monkeypatch):
    # The same call once made 21 tree-routing attempts.  The star-quotient
    # path peels sweep cuts alone, so it never routes.  The certificate is
    # the one of the peel with a minimum bite and a prune.
    _, routed = _recording(monkeypatch, "_attempt_tree_flow")
    cert = induced_minor_separator(gnp_graph(150, 4 / 150, seed=0))
    expected = (3, 4, 6, 8, 11, 12, 17, 23, 27, 28, 30, 39, 42, 56, 59, 63,
                74, 76, 78, 79, 80, 83, 87, 95, 99, 102, 105, 107, 108, 114,
                118, 119, 145, 148)
    assert tuple(sorted(cert.separator)) == expected
    assert cert.centers == expected
    assert cert.radius == 0
    assert len(routed) == 0


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


def _lollipop():
    """K40 with a pendant leaf 40 on vertex 0, unit weights."""
    return WeightedGraph(41, complete_graph(40).edges() + [(0, 40)])


def _lighter_side(g, sep):
    return min(g.weight_of(sep.side_a), g.weight_of(sep.side_b))


def test_sweep_peel_step_takes_at_least_the_minimum_bite():
    # The sparsest cut takes the leaf and its neighbour, a side of 2 of 41;
    # the sweep peel's step holds out for sides of at least 5 % each.
    g = _lollipop()
    crumb = _best_sweep_separation(g)
    assert _lighter_side(g, crumb) == 2.0
    step = _sweep_cut(g)
    assert _lighter_side(g, step) >= _MIN_BITE * g.total_weight
    assert step.sparsity > crumb.sparsity


@pytest.mark.parametrize("g", [_lollipop(), grid_graph(5), path_graph(2)],
                         ids=["lollipop", "grid5", "K2"])
def test_an_unmet_bite_falls_back_to_the_sparsest_cut(monkeypatch, g):
    # A cut whose sides both hold the whole weight needs an empty prefix,
    # so no order meets a bite of 1: every order is swept again without
    # it, and the answer is the unrestricted sparsest cut.
    want = _best_sweep_separation(g)
    _, hits = _recording(monkeypatch, "_sweep_order")
    assert _best_sweep_separation(g, 1.0) == want
    k = len(_cut_orders(g))
    assert len(hits) == 2 * k and hits[:k] == [None] * k


@pytest.mark.parametrize("g, separator, pieces", [
    (complete_graph(2), {1}, ((0,),)),
    (WeightedGraph(3, [(0, 1), (1, 2)], [1.0, 0.0, 1.0]), {2}, ((0, 1),)),
])
def test_sweep_peel_keeps_one_vertex_where_one_balances(g, separator, pieces):
    # The peel cuts while the active weight is at least W/2, so it also cuts
    # a last part of exactly W/2 and ends with two vertices.  The prune
    # gives the first back: the component it joins weighs exactly W/2.
    res = balanced_separator_by_sweeps(g)
    assert res.separator == separator
    assert res.pieces == pieces
    assert verify_certificate(g, induced_minor_separator(g)).ok


@pytest.mark.parametrize("weights, separator, as_is, kept", [
    # vertex 0 alone weighs exactly W/2 and goes back, then 1 would join 0
    # and 2
    ([1.0, 0.0, 1.0], {0, 1}, True, {1}),
    # no weight at all: every part weighs 0 = W/2, so all of S goes back
    ([0.0, 0.0, 0.0], {0, 1, 2}, True, set()),
    # heaviest first, equal weights by id: 1 goes back, then neither 2 nor
    # 0 can join it
    ([1.0, 2.0, 2.0], {0, 1, 2}, True, {0, 2}),
    # 0 and 2 go back well below W/2; 1 would join them both
    ([1.0, 0.5, 1.0], {0, 1, 2}, False, {1}),
    # 0 alone would weigh W/2 + 5e-13, so it stays; 1 then joins 2 at
    # weight 1 <= W/2, exactly
    ([1 + 1e-12, 0.0, 1.0], {0, 1}, False, {0}),
])
def test_prune_gives_back_only_what_keeps_every_part_light(weights, separator,
                                                          as_is, kept):
    # `as_is`: the weights are whole numbers, so they are their own units
    # and the prune compares them unscaled
    g = WeightedGraph(3, [(0, 1), (1, 2)], weights)
    units = weight_units(g.weights)
    assert (units == weights) == as_is
    outside = connected_components(g, set(range(3)) - separator)
    sep, pieces = _pruned(g, frozenset(separator), outside, units)
    assert sep == kept
    assert pieces == connected_components(g, set(range(3)) - kept)
    assert verify_separator(g, kept, kept, 0).balanced


def test_prune_decides_balance_on_the_units_it_is_given():
    # The floats tie vertices 0 and 2; the units make 0 weigh 3 of 5, so 0
    # stays (6 > 5) and 1 goes back to join 2 (2 * 2 <= 5).
    g = WeightedGraph(3, [(0, 1), (1, 2)], [1.0, 0.0, 1.0])
    sep, pieces = _pruned(g, frozenset({0, 1}), [[2]], [3, 0, 2])
    assert (sep, pieces) == ({0}, [[1, 2]])


@pytest.mark.parametrize("g", [
    WeightedGraph(5, [(0, 1), (0, 3), (1, 2), (2, 3)],
                  [0.3, 0.1, 0.2, 0.0, 0.0]),
    WeightedGraph(7, [(0, 1), (0, 3), (0, 6), (1, 2), (1, 3), (2, 3), (2, 5),
                      (2, 6), (3, 4), (3, 5), (4, 5), (5, 6)],
                  [0.0, 0.2, 0.0, 0.0, 0.1, 0.3, 0.0]),
    # two K7 joined by the edge (6, 7): each is one star, and the quotient
    # weighs 1.0 on each, so its sums look exact
    WeightedGraph(14, [(u, v) for u in range(14) for v in range(u + 1, 14)
                       if u // 7 == v // 7] + [(6, 7)],
                  [0.1, 0.2] + [0.0] * 11 + [0.3]),
], ids=["C4-and-isolated", "7-vertex", "two-K7"])
def test_prune_of_a_rescaled_quotient_stays_balanced_on_the_host(g):
    # Divided by 0.3, the weights 0.1 and 0.2 sum to exactly half of the
    # quotient's weight, while on the host 0.1 + 0.2 exceeds 0.3 = W/2: a
    # quotient tie must not count as balanced.
    assert verify_certificate(g, induced_minor_separator(g)).ok
