import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesep import (
    ConcurrentFlow,
    CrudeFatModel,
    FatModel,
    GraphError,
    ModelError,
    PatternGraph,
    WeightedGraph,
    crude_to_fat,
    ensure_fat_model,
    ensure_no_isolated,
    flow_or_sparse_cut,
    lift_model,
    make_separation,
    power,
    power_model_to_base,
    quotient,
    restrict_model,
    sample_crude_model,
    two_subdivision,
    verify_crude_model,
    verify_fat_model,
)
from coarsesep.fatminor import _power_spanning_tree
from coarsesep.fileio import model_from_jsonable, model_jsonable
from coarsesep.generators import cycle_graph, path_graph

K2 = PatternGraph(2, [(0, 1)])
P3 = PatternGraph(3, [(0, 1), (1, 2)])
K3 = PatternGraph(3, [(0, 1), (1, 2), (0, 2)])
K5 = PatternGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


# ---------------------------------------------------------------------------
# Patterns and subdivisions


def test_pattern_canonicalizes_edges():
    pat = PatternGraph(3, [(2, 0), (0, 2), (1, 0)])
    assert pat.edges == ((0, 1), (0, 2))
    assert pat.m == 2
    assert pat.size == 5
    assert pat.degree(0) == 2
    assert pat.isolated_vertices() == []


def test_pattern_validation():
    with pytest.raises(GraphError):
        PatternGraph(2, [(0, 2)])
    with pytest.raises(GraphError):
        PatternGraph(2, [(1, 1)])
    with pytest.raises(GraphError):
        PatternGraph(-1, [])


def test_ensure_no_isolated_pairs_up():
    pat = PatternGraph(4, [])
    aug = ensure_no_isolated(pat)
    assert aug.edges == ((0, 1), (2, 3))
    pat = PatternGraph(3, [(0, 1)])
    aug = ensure_no_isolated(pat)
    assert aug.edges == ((0, 1), (0, 2))
    assert ensure_no_isolated(K3) is K3
    with pytest.raises(GraphError):
        ensure_no_isolated(PatternGraph(1, []))


def test_two_subdivision_shape():
    sub = two_subdivision(K2)
    assert sub.size == 7
    assert len(sub.vertices) == 4
    assert len(sub.edges) == 3
    e = (0, 1)
    m1, m2 = (e, 1), (e, 2)
    assert sub.edges == [(0, m1), (m1, m2), (m2, 1)]
    assert sub.middle_edge(e) == (m1, m2)
    assert sub.edges_at_original(0) == [(0, m1)]


def test_two_subdivision_sizes():
    assert two_subdivision(K2).size == 7
    assert two_subdivision(P3).size == 13
    assert two_subdivision(K3).size == 18
    assert two_subdivision(K5).size == 55


def test_separated_edge_pairs_counts():
    # pairs of subdivision edges with four distinct endpoints
    assert len(two_subdivision(K2).separated_edge_pairs()) == 1
    assert len(two_subdivision(P3).separated_edge_pairs()) == 10
    assert len(two_subdivision(K3).separated_edge_pairs()) == 27


# ---------------------------------------------------------------------------
# Model verification


def c12_triangle_model():
    return FatModel(1, {0: frozenset({0, 1}),
                        1: frozenset({3, 4}),
                        2: frozenset({6, 7})},
                    {(0, 1): frozenset({1, 2, 3}),
                     (1, 2): frozenset({4, 5, 6}),
                     (0, 2): frozenset({7, 8, 9, 10, 11, 0})})


def test_verify_fat_model_accepts_cycle_triangle():
    g = cycle_graph(12)
    report = verify_fat_model(g, K3, c12_triangle_model(), 1)
    assert report.ok


def test_verify_fat_model_rejects_at_higher_fatness():
    g = cycle_graph(12)
    report = verify_fat_model(g, K3, c12_triangle_model(), 2)
    assert not report.ok
    assert any("distance" in v for v in report.violations)


def test_verify_fat_model_missing_endpoint():
    g = cycle_graph(12)
    model = c12_triangle_model()
    broken = FatModel(1, model.vertex_sets,
                      {**model.edge_sets, (0, 1): frozenset({2})})
    report = verify_fat_model(g, K3, broken, 1)
    assert any("misses its endpoint" in v for v in report.violations)


def test_verify_fat_model_disconnected_branch_set():
    g = cycle_graph(12)
    model = c12_triangle_model()
    broken = FatModel(1, {**model.vertex_sets, 0: frozenset({0, 2})},
                      model.edge_sets)
    report = verify_fat_model(g, K3, broken, 1)
    assert any("disconnected" in v for v in report.violations)


def test_verify_fat_model_missing_sets():
    report = verify_fat_model(cycle_graph(5), K2, FatModel(1, {}, {}), 1)
    assert "vertex 0 has no branch set" in report.violations
    assert "edge (0, 1) has no branch set" in report.violations


def test_verify_fat_model_reports_every_out_of_range_vertex():
    model = c12_triangle_model()
    broken = FatModel(1, {**model.vertex_sets, 1: frozenset({12, -1})},
                      model.edge_sets)
    report = verify_fat_model(cycle_graph(12), K3, broken, 1)
    assert sorted(report.violations) == [
        "vertex 1 contains out-of-range vertex -1",
        "vertex 1 contains out-of-range vertex 12"]


def test_ensure_fat_model_raises_with_violations():
    with pytest.raises(ModelError) as exc:
        ensure_fat_model(cycle_graph(5), K2, FatModel(1, {}, {}), 1)
    assert exc.value.violations


# ---------------------------------------------------------------------------
# Crude models and their conversion


def c18_crude(d):
    sub = two_subdivision(K2)
    e1, e2, e3 = sub.edges
    return CrudeFatModel(
        d,
        {e1[0]: 0, e1[1]: 6, e2[1]: 11, e3[1]: 16},
        {e1: tuple(range(0, 7)),
         e2: tuple(range(6, 12)),
         e3: tuple(range(11, 17))})


def test_crude_model_fatness_two_on_cycle():
    g = cycle_graph(18)
    sub = two_subdivision(K2)
    # the outer paths approach each other around the cycle at distance 2
    assert verify_crude_model(g, sub, c18_crude(2), 2).ok
    report = verify_crude_model(g, sub, c18_crude(3), 3)
    assert not report.ok
    assert any("distance 2 < 3" in v for v in report.violations)


def test_crude_model_path_validation():
    g = path_graph(10)
    sub = two_subdivision(K2)
    e1, e2, e3 = sub.edges
    vmap = {e1[0]: 0, e1[1]: 3, e2[1]: 6, e3[1]: 9}
    good = {e1: (0, 1, 2, 3), e2: (3, 4, 5, 6), e3: (6, 7, 8, 9)}
    assert verify_crude_model(g, sub, CrudeFatModel(1, vmap, good), 1).ok
    bad = dict(good)
    bad[e2] = (3, 5, 6)
    report = verify_crude_model(g, sub, CrudeFatModel(1, vmap, bad), 1)
    assert any("non-edge" in v for v in report.violations)
    bad[e2] = (3, 4, 5)
    report = verify_crude_model(g, sub, CrudeFatModel(1, vmap, bad), 1)
    assert any("does not join" in v for v in report.violations)


@pytest.mark.parametrize("change, violation", [
    (lambda vmap, paths: vmap.pop(((0, 1), 1)),
     "subdivision vertex ((0, 1), 1) unmapped"),
    (lambda vmap, paths: paths.pop((((0, 1), 1), ((0, 1), 2))),
     "subdivision edge (((0, 1), 1), ((0, 1), 2)) has no path"),
    (lambda vmap, paths: paths.update({(((0, 1), 1), ((0, 1), 2)): ()}),
     "edge (((0, 1), 1), ((0, 1), 2)) has an empty path"),
    (lambda vmap, paths: paths.update(
        {(((0, 1), 1), ((0, 1), 2)): (3, 4, 5, 4, 5, 6)}),
     "path for (((0, 1), 1), ((0, 1), 2)) repeats a vertex"),
], ids=["unmapped", "no-path", "empty-path", "repeating-path"])
def test_crude_model_rejects_missing_and_malformed_paths(change, violation):
    g = path_graph(10)
    sub = two_subdivision(K2)
    e1, e2, e3 = sub.edges
    vmap = {e1[0]: 0, e1[1]: 3, e2[1]: 6, e3[1]: 9}
    paths = {e1: (0, 1, 2, 3), e2: (3, 4, 5, 6), e3: (6, 7, 8, 9)}
    change(vmap, paths)
    report = verify_crude_model(g, sub, CrudeFatModel(1, vmap, paths), 1)
    assert report.violations == (violation,)


def test_crude_to_fat_merges_paths():
    g = path_graph(10)
    sub = two_subdivision(K2)
    e1, e2, e3 = sub.edges
    crude = CrudeFatModel(
        2,
        {e1[0]: 0, e1[1]: 3, e2[1]: 6, e3[1]: 9},
        {e1: (0, 1, 2, 3), e2: (3, 4, 5, 6), e3: (6, 7, 8, 9)})
    fat = crude_to_fat(sub, crude)
    assert fat.vertex_sets[0] == frozenset({0, 1, 2, 3})
    assert fat.vertex_sets[1] == frozenset({6, 7, 8, 9})
    assert fat.edge_sets[(0, 1)] == frozenset({3, 4, 5, 6})
    assert verify_fat_model(g, K2, fat, 2).ok


def test_crude_to_fat_check_flag():
    g = path_graph(10)
    sub = two_subdivision(K2)
    e1, e2, e3 = sub.edges
    crude = CrudeFatModel(
        5,  # claims more room than the path offers
        {e1[0]: 0, e1[1]: 3, e2[1]: 6, e3[1]: 9},
        {e1: (0, 1, 2, 3), e2: (3, 4, 5, 6), e3: (6, 7, 8, 9)})
    model = crude_to_fat(sub, crude)
    assert not verify_fat_model(g, K2, model, 5).ok


# ---------------------------------------------------------------------------
# Lifting and restriction


def test_lift_model_blows_up_clusters():
    g = cycle_graph(18)
    clusters = [(2 * i, 2 * i + 1) for i in range(9)]
    q = quotient(g, clusters)
    qmodel = FatModel(3, {0: frozenset({0}), 1: frozenset({3})},
                      {(0, 1): frozenset({0, 1, 2, 3})})
    assert verify_fat_model(q.graph, K2, qmodel, 3).ok
    lifted = lift_model(clusters, qmodel, 3)
    assert lifted.vertex_sets[0] == frozenset({0, 1})
    assert lifted.vertex_sets[1] == frozenset({6, 7})
    assert lifted.edge_sets[(0, 1)] == frozenset(range(8))
    assert verify_fat_model(g, K2, lifted, 3).ok


@pytest.mark.parametrize("call, outcome", [
    # the branch set {0, 1} is connected in the power, not in the base
    (lambda: power_model_to_base(WeightedGraph(2), WeightedGraph(2, [(0, 1)]),
                                 PatternGraph(1, []),
                                 FatModel(3, {0: frozenset({0, 1})}, {}), 2),
     (GraphError, "no path between 0 and 1")),
    # an isolated pattern vertex has no path to merge: it keeps its image
    (lambda: crude_to_fat(two_subdivision(PatternGraph(2, [])),
                          CrudeFatModel(3, {0: 5, 1: 7}, {})),
     FatModel(3, {0: frozenset({5}), 1: frozenset({7})}, {})),
    (lambda: make_separation(WeightedGraph(2, [], [1.0, 0.0]), {0}, {1}),
     (GraphError, "both sides of a separation need positive weight")),
], ids=["power-no-base-path", "crude-isolated", "separation-weightless-side"])
def test_public_calls_reach_their_checks(call, outcome):
    # lines that no pipeline run reaches, each reached through a public call
    if isinstance(outcome, FatModel):
        assert call() == outcome
        return
    error, message = outcome
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)


def test_restrict_model_drops_augmented_edges():
    pat = PatternGraph(3, [(0, 1)])
    aug = ensure_no_isolated(pat)
    model = FatModel(1, {0: frozenset({0}), 1: frozenset({2}),
                         2: frozenset({4})},
                     {(0, 1): frozenset({0, 1, 2}),
                      (0, 2): frozenset({0, 3, 4})})
    small = restrict_model(model, pat)
    assert set(small.edge_sets) == {(0, 1)}
    assert small.vertex_sets == model.vertex_sets
    assert aug.edges == ((0, 1), (0, 2))


def test_model_json_round_trip():
    model = c12_triangle_model()
    again = model_from_jsonable(model_jsonable(model))
    assert again == model


# ---------------------------------------------------------------------------
# Power reduction


def cycle_arc(n, a, b):
    out = []
    x = a
    while True:
        out.append(x)
        if x == b:
            return frozenset(out)
        x = (x + 1) % n


def test_power_model_reduces_to_base_fatness():
    base = cycle_graph(40)
    squared = power(base, 2)
    model = FatModel(3,
                     {0: cycle_arc(40, 0, 7), 1: cycle_arc(40, 14, 21),
                      2: cycle_arc(40, 28, 34)},
                     {(0, 1): cycle_arc(40, 7, 14),
                      (1, 2): cycle_arc(40, 21, 28),
                      (0, 2): cycle_arc(40, 34, 0)})
    assert verify_fat_model(squared, K3, model, 3).ok
    reduced = power_model_to_base(base, squared, K3, model, 2)
    assert verify_fat_model(base, K3, reduced, 2).ok
    # padding only ever grows branch sets
    for u, s in model.vertex_sets.items():
        assert s <= reduced.vertex_sets[u]


def _deque_power_spanning_tree(pw, branch):
    """The queue-and-set BFS `_power_spanning_tree` once ran, as reference."""
    root = min(branch)
    seen = {root}
    out = []
    q = deque([root])
    while q:
        u = q.popleft()
        for v in pw.adj[u]:
            if v in branch and v not in seen:
                seen.add(v)
                out.append((u, v))
                q.append(v)
    return out


@st.composite
def _powers_and_branches(draw):
    # a random graph, its r-th power, and a branch grown from one vertex
    # by adding a neighbour in the power at a time, so connected there
    n = draw(st.integers(1, 25))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
    g = WeightedGraph(n, sorted({(min(e), max(e)) for e in pairs
                                 if e[0] != e[1]}))
    pw = power(g, draw(st.sampled_from([1, 2, 3])))
    branch = {draw(st.integers(0, n - 1))}
    for _ in range(draw(st.integers(0, n))):
        out = sorted({v for u in branch for v in pw.adj[u]} - branch)
        if not out:
            break
        branch.add(out[draw(st.integers(0, len(out) - 1))])
    return pw, frozenset(branch)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_powers_and_branches())
def test_power_spanning_tree_matches_the_deque_search(case):
    pw, branch = case
    tree = _power_spanning_tree(pw, branch)
    assert tree == _deque_power_spanning_tree(pw, branch)
    assert len(tree) == len(branch) - 1


# ---------------------------------------------------------------------------
# Sampling


def host_flow(weights):
    g = path_graph(len(weights)).with_weights(weights)
    flow = flow_or_sparse_cut(g, 1e9)
    assert isinstance(flow, ConcurrentFlow)
    return g, flow


def test_sample_crude_model_is_deterministic_per_seed():
    _, flow = host_flow([1, 1, 1, 1, 1, 1])
    sub = two_subdivision(K2)
    a = sample_crude_model(sub, flow, 3, random.Random(5))
    b = sample_crude_model(sub, flow, 3, random.Random(5))
    assert a.vertex_map == b.vertex_map
    assert a.edge_paths == b.edge_paths


def test_sample_crude_model_weight_proportional():
    _, flow = host_flow([3, 1])
    sub = two_subdivision(K2)
    rng = random.Random(0)
    hits = 0
    draws = 0
    for _ in range(500):
        crude = sample_crude_model(sub, flow, 3, rng)
        for v in crude.vertex_map.values():
            draws += 1
            hits += v == 0
    assert 0.70 <= hits / draws <= 0.80


def test_sample_crude_model_population_filter():
    g, flow = host_flow([1, 1, 1, 1])
    sub = two_subdivision(K2)
    rng = random.Random(1)
    crude = sample_crude_model(sub, flow, 3, rng, population=[0, 2])
    assert set(crude.vertex_map.values()) <= {0, 2}
    with pytest.raises(GraphError):
        sample_crude_model(sub, flow, 3, rng, population=[])


def test_sample_crude_model_same_image_collapses_path():
    _, flow = host_flow([1, 1])
    sub = two_subdivision(K2)
    rng = random.Random(3)
    for _ in range(50):
        crude = sample_crude_model(sub, flow, 3, rng)
        for e in sub.edges:
            a, b = crude.vertex_map[e[0]], crude.vertex_map[e[1]]
            path = crude.edge_paths[e]
            if a == b:
                assert path == (a,)
            else:
                assert path[0] == a and path[-1] == b
