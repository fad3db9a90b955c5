import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    max_ball2_clusters,
    power,
    quotient,
    set_distance,
    sparse_partition,
    verify_separator,
)
from coarsesep.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    torus_graph,
)
from coarsesep.graph import weight_units
from coarsesep.oracle import _distance_matrix


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


def test_verify_separator_names_the_same_bad_vertex_for_any_input_order():
    g = path_graph(5)
    bad = [190, 21, 155, 61, 133, 177]
    messages = set()
    for sep in (bad, tuple(bad), frozenset(bad), sorted(bad)):
        with pytest.raises(GraphError) as exc:
            verify_separator(g, sep, [], 0)
        messages.add(str(exc.value))
    assert messages == {"vertex 190 out of range for n=5"}


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


def test_quotient_names_the_first_disconnected_cluster():
    g = path_graph(6)
    for clusters, first in (([(0, 1), (3, 5), (2, 4)], 1),
                            ([(2, 4), (0, 1), (3, 5)], 0),
                            ([(0,), (1,), (2, 4), (3, 5)], 2)):
        with pytest.raises(GraphError,
                           match=f"^cluster {first} is not connected$"):
            quotient(g, clusters)


def test_complete_graph_structure():
    g = complete_graph(5)
    assert g.m == 10
    assert all(g.degree(v) == 4 for v in range(5))


# ---------------------------------------------------------------------------
# Derived graphs equal the same graph built through the public constructor


@st.composite
def _sparse_hosts(draw):
    # few edges, so isolated vertices are common; some weights are zero
    n = draw(st.integers(0, 18))
    edges = set()
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in draw(st.lists(pairs, max_size=2 * n)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e-300]),
                            min_size=n, max_size=n))
    return WeightedGraph(n, sorted(edges), weights)


def _assert_same_graph(got, want):
    assert got.n == want.n
    assert got.adj == want.adj
    assert got.weights == want.weights
    assert got.m == want.m
    assert got.total_weight == want.total_weight
    assert got.edges() == want.edges()


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(_sparse_hosts(), st.data())
def test_derived_graphs_match_public_constructor(g, data):
    for r in range(1, 6):
        want = [(u, v) for u in range(g.n)
                for v, d in enumerate(bfs_distances(g, [u]))
                if u < v and d <= r]
        _assert_same_graph(power(g, r), WeightedGraph(g.n, want, g.weights))

    keep = sorted(data.draw(st.sets(st.integers(0, max(g.n - 1, 0)))
                            if g.n else st.just(set())))
    sub, ids = induced_subgraph(g, keep)
    assert ids == keep
    pos = {v: i for i, v in enumerate(keep)}
    want = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    _assert_same_graph(sub, WeightedGraph(len(keep), want,
                                          [g.weights[v] for v in keep]))

    # the components of a random edge subset form a connected partition
    contracted = data.draw(st.lists(st.sampled_from(g.edges()), unique=True)
                           if g.m else st.just([]))
    clusters = [tuple(cl) for cl in
                connected_components(WeightedGraph(g.n, sorted(contracted)))]
    q = quotient(g, clusters)
    want = sorted({(min(q.cluster_of[u], q.cluster_of[v]),
                    max(q.cluster_of[u], q.cluster_of[v]))
                   for u, v in g.edges()
                   if q.cluster_of[u] != q.cluster_of[v]})
    _assert_same_graph(q.graph, WeightedGraph(
        len(clusters), want, [math.fsum(g.weights[v] for v in cl)
                              for cl in clusters]))

    new = data.draw(st.lists(st.sampled_from([0, 2, 0.25, 7.5]),
                             min_size=g.n, max_size=g.n))
    _assert_same_graph(g.with_weights(new),
                       WeightedGraph(g.n, g.edges(), new))
    with pytest.raises(GraphError):
        g.with_weights(new + [1.0])
    if g.n:
        with pytest.raises(GraphError):
            g.with_weights([-1.0] + new[1:])

    # quotient keeps its partition checks
    big = [cl for cl in clusters if len(cl) > 1]
    if len(clusters) > 1:
        with pytest.raises(GraphError, match="two clusters"):
            quotient(g, [clusters[0] + clusters[1][:1]] + list(clusters[1:]))
        with pytest.raises(GraphError, match="does not cover"):
            quotient(g, clusters[1:])
    if big:
        with pytest.raises(GraphError, match="does not cover"):
            quotient(g, [cl for cl in clusters if cl != big[0]]
                     + [big[0][1:]])
    apart = [(i, j) for i in range(len(clusters)) for j in range(i)
             if j not in q.graph.adj[i]]
    if apart:
        i, j = apart[0]
        rest = [cl for k, cl in enumerate(clusters) if k not in (i, j)]
        with pytest.raises(GraphError, match="not connected"):
            quotient(g, rest + [clusters[i] + clusters[j]])


def test_induced_subgraph_rejects_out_of_range_vertices():
    with pytest.raises(GraphError):
        induced_subgraph(path_graph(3), [0, 3])
    with pytest.raises(GraphError):
        induced_subgraph(path_graph(3), [-1, 1])


@pytest.mark.parametrize("bad", [-1, 5])
def test_traversal_helpers_reject_out_of_range_vertices(bad):
    # a negative id used to wrap around to the end of the flag lists
    g = path_graph(5)
    calls = [lambda: ball(g, bad, 1),
             lambda: set_distance(g, {bad}, {0}),
             lambda: set_distance(g, {0}, {bad}),
             lambda: connected_components(g, [bad, 3]),
             lambda: greedy_cover(g, [bad], 1),
             lambda: coverage_radius(g, [bad], [0])]
    for call in calls:
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            call()


# ---------------------------------------------------------------------------
# Every layered search against the oracle's all-pairs distances


@st.composite
def _small_gnp_hosts(draw):
    # sparse enough for isolated vertices and several components
    n = draw(st.integers(1, 16))
    p = draw(st.sampled_from([0.05, 0.1, 0.2, 0.35]))
    return gnp_graph(n, p, seed=draw(st.integers(0, 10**6)))


def _reference_components(dist, vertices):
    comps = []
    for v in sorted(vertices):
        if not any(v in c for c in comps):
            comps.append([u for u in sorted(vertices) if dist[v][u] < math.inf])
    return comps


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_small_gnp_hosts(), st.data())
def test_layered_searches_match_all_pairs_distances(g, data):
    dist = _distance_matrix(g)
    vertex = st.integers(0, g.n - 1)
    some = st.sets(vertex, min_size=1, max_size=4)
    for s in range(g.n):
        assert bfs_distances(g, [s]) == dist[s]
    xs, ys = data.draw(some), data.draw(some)
    assert bfs_distances(g, xs) == [min(dist[x][v] for x in xs)
                                    for v in range(g.n)]
    assert set_distance(g, xs, ys) == min(dist[x][y] for x in xs for y in ys)
    for r in range(4):
        c = data.draw(vertex)
        assert ball(g, c, r) == {v for v in range(g.n) if dist[c][v] <= r}
    for r in range(1, 5):
        want = [[v for v in range(g.n) if 1 <= dist[u][v] <= r]
                for u in range(g.n)]
        assert power(g, r).adj == want

    assert connected_components(g) == _reference_components(dist, range(g.n))
    within = data.draw(st.sets(vertex))
    sub, ids = induced_subgraph(g, within)
    local = _reference_components(_distance_matrix(sub), range(sub.n))
    assert connected_components(g, within) == [[ids[x] for x in c]
                                               for c in local]

    centers = data.draw(st.lists(vertex, max_size=3))
    want = max((min((dist[c][v] for c in centers), default=math.inf)
                for v in within), default=0)
    assert coverage_radius(g, within, centers) == want

    part = sparse_partition(g, 1.0, random.Random(data.draw(vertex)))
    cluster_of = part.cluster_of_map(g.n)
    assert max_ball2_clusters(g, part) == max(
        len({cluster_of[v] for v in range(g.n) if dist[u][v] <= 2})
        for u in range(g.n))

    # greedy_cover's contract: sorted centers from the input, the first
    # input vertex among them, every input vertex within the radius
    radius = data.draw(st.integers(0, 3))
    cover = greedy_cover(g, within, radius)
    assert cover == sorted(set(cover)) and set(cover) <= within
    assert cover[:1] == sorted(within)[:1]
    assert all(min(dist[c][v] for c in cover) <= radius for v in within)


@pytest.mark.parametrize("call, message", [
    (lambda: WeightedGraph(-1), "vertex count must be nonnegative"),
    (lambda: ball(path_graph(3), 0, -1), "radius must be nonnegative"),
    (lambda: set_distance(path_graph(3), [], [0]), "nonempty sets"),
    (lambda: power(path_graph(3), 0), "power exponent must be >= 1"),
    (lambda: greedy_cover(path_graph(3), [0], -1),
     "radius must be nonnegative"),
    (lambda: quotient(path_graph(3), [[0, 5]]), "out-of-range vertex 5"),
    (lambda: cycle_graph(2), "at least 3 vertices"),
    (lambda: grid_graph(3, 0), "positive dimensions"),
    (lambda: torus_graph(3, 2), "both dimensions at least 3"),
    (lambda: gnp_graph(5, 1.5), "edge probability must lie in [0, 1]"),
    (lambda: random_regular_graph(4, 4), "degree must lie in [1, n)"),
    (lambda: random_regular_graph(5, 3), "n * degree must be even"),
    # a 1-regular graph on 4 vertices is a matching, never connected
    (lambda: random_regular_graph(4, 1), "no simple connected 1-regular"),
    (lambda: barbell_graph(1), "at least 2 vertices"),
    (lambda: barbell_graph(3, -1), "bridge length must be nonnegative"),
], ids=["vertex-count", "ball-radius", "set-distance", "power", "cover-radius",
        "quotient-range", "cycle", "grid", "torus", "gnp", "regular-degree",
        "regular-parity", "regular-connected", "barbell-k", "barbell-bridge"])
def test_argument_errors_name_the_argument(call, message):
    with pytest.raises(GraphError) as exc:
        call()
    assert message in str(exc.value)


@pytest.mark.parametrize("weights", [
    # from the least subnormal to near the largest float, and 0
    [5e-324, 0.0, 2.5e-308, 1e-300, 0.1, 0.2, 0.3, 1.0, 3.0, 1e300, 1.7e308],
    # 0.1 + 0.2 exceeds 0.3 in binary: the first two weigh more than half
    [0.1, 0.2, 0.3],
    [5e-324] * 5,
], ids=["range", "decimal", "subnormal"])
def test_weight_units_keep_the_floats_ratios_and_decide_balance_exactly(
        weights):
    units = weight_units(weights)
    assert all(type(u) is int for u in units)
    # one scale: every unit is the same multiple of its float
    top = max(range(len(weights)), key=weights.__getitem__)
    scale = Fraction(units[top]) / Fraction(weights[top])
    assert [Fraction(u) for u in units] == [scale * Fraction(w)
                                           for w in weights]
    # each prefix of every order is light in units exactly when it is in
    # exact arithmetic, and then the verifier's fsum agrees
    total = sum(units)
    exact_total = sum(map(Fraction, weights))
    rng = random.Random(0)
    order = list(range(len(weights)))
    for _ in range(20):
        rng.shuffle(order)
        for k in range(len(order) + 1):
            part = order[:k]
            light = 2 * sum(units[v] for v in part) <= total
            assert light == (2 * sum(Fraction(weights[v]) for v in part)
                             <= exact_total)
            if light:
                assert (math.fsum(weights[v] for v in part)
                        <= math.fsum(weights) / 2)
