import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesep import (
    GraphError,
    ModelFound,
    PatternGraph,
    PipelineConfig,
    PipelineFailure,
    SeparatorFound,
    WeightedGraph,
    coarse_separator_or_model,
    core_3fat,
    induced_minor_separator,
    star_partition,
    verify_fat_model,
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
from coarsesep.pipeline import _default_quotient_oracle

K2 = PatternGraph(2, [(0, 1)])
K3 = PatternGraph(3, [(0, 1), (1, 2), (0, 2)])


def assert_verified_certificate(g, res, eps=1.0, d=3):
    assert isinstance(res, SeparatorFound)
    cert = res.certificate
    report = verify_separator(g, cert.separator, cert.centers, cert.radius)
    assert report.ok
    bound = math.ceil(32 / eps)
    if d > 3:
        bound *= d
    assert cert.radius <= bound
    return cert


def test_grid_certificate():
    g = grid_graph(30)
    res = core_3fat(g, K3, PipelineConfig())
    cert = assert_verified_certificate(g, res)
    assert res.branch == "peeling"
    assert res.gamma is not None
    assert 0 < len(cert.separator) < g.n


def test_clique_certificate():
    g = complete_graph(100)
    res = core_3fat(g, K3, PipelineConfig())
    cert = assert_verified_certificate(g, res)
    assert cert.radius <= 1


def test_path_certificate_smaller_eps():
    g = path_graph(400)
    res = core_3fat(g, K3, PipelineConfig(eps=0.5, seed=3))
    assert_verified_certificate(g, res, eps=0.5)


def test_deterministic_for_seed():
    g = grid_graph(15)
    a = core_3fat(g, K3, PipelineConfig(seed=7))
    b = core_3fat(g, K3, PipelineConfig(seed=7))
    assert a.certificate == b.certificate


def test_core_ignores_fatness_below_four():
    g = grid_graph(10)
    results = [coarse_separator_or_model(g, K3, d, PipelineConfig(seed=1))
               for d in (1, 2, 3)]
    assert all(isinstance(r, SeparatorFound) for r in results)
    assert results[0].certificate == results[1].certificate
    assert results[1].certificate == results[2].certificate


def test_power_reduction_remeasures_radius():
    g = grid_graph(30)
    res = coarse_separator_or_model(g, K3, 6, PipelineConfig())
    cert = assert_verified_certificate(g, res, d=6)
    assert cert.radius <= 6 * 32


def test_fatness_must_be_positive():
    with pytest.raises(GraphError):
        coarse_separator_or_model(grid_graph(5), K3, 0)


# ---------------------------------------------------------------------------
# Degenerate inputs


def test_empty_pattern_embeds_vacuously():
    res = core_3fat(grid_graph(5), PatternGraph(0, []), PipelineConfig())
    assert isinstance(res, ModelFound)
    assert res.branch == "degenerate"
    assert res.model.vertex_sets == {}


def test_single_vertex_pattern_embeds_anywhere():
    res = core_3fat(grid_graph(5), PatternGraph(1, []), PipelineConfig())
    assert isinstance(res, ModelFound)
    assert verify_fat_model(grid_graph(5), PatternGraph(1, []),
                            res.model, 3).ok


def test_empty_and_weightless_hosts():
    res = core_3fat(WeightedGraph(0, []), K2, PipelineConfig())
    assert isinstance(res, SeparatorFound)
    assert res.certificate.separator == frozenset()
    g = path_graph(4).with_weights([0, 0, 0, 0])
    res = core_3fat(g, K2, PipelineConfig())
    assert isinstance(res, SeparatorFound)
    assert res.certificate.separator == frozenset()


# ---------------------------------------------------------------------------
# The flow side, reached through the congestion override


def test_override_rounds_flow_into_model():
    g = path_graph(2000)
    cfg = PipelineConfig(congestion_override=1e15, trials=64, seed=0)
    res = core_3fat(g, K2, cfg)
    assert isinstance(res, ModelFound)
    assert res.branch == "rounding"
    assert verify_fat_model(g, K2, res.model, 3).ok


def test_override_single_trial_can_fail():
    g = path_graph(2000)
    cfg = PipelineConfig(congestion_override=1e15, trials=1, seed=0)
    res = core_3fat(g, K2, cfg)
    assert isinstance(res, PipelineFailure)
    assert res.stage == "rounding"
    assert res.trials == 1
    assert (res.collision_failures + res.spread_failures
            + res.lift_failures) == 1


def test_override_heavy_clusters_join_separator():
    # two dominant-weight vertices: their clusters outweigh the light rest,
    # so they are added to the separator instead of rounding
    w = [1.0] * 2000
    w[666] = 2000.0
    w[1333] = 2000.0
    g = WeightedGraph(2000, path_graph(2000).edges(), w)
    cfg = PipelineConfig(congestion_override=1e15, trials=8, seed=0)
    res = core_3fat(g, K2, cfg)
    assert isinstance(res, SeparatorFound)
    assert res.branch == "heavy-clusters"
    assert {666, 1333} <= set(res.certificate.separator)
    report = verify_separator(g, res.certificate.separator,
                              res.certificate.centers, res.certificate.radius)
    assert report.ok


# ---------------------------------------------------------------------------
# Star-quotient separators


def test_induced_separator_star_host():
    g = WeightedGraph(100, [(0, i) for i in range(1, 100)])
    cert = induced_minor_separator(g)
    assert sorted(cert.separator) == [0]
    assert cert.centers == (0,)
    assert cert.radius == 0


def test_induced_separator_clique_host():
    cert = induced_minor_separator(complete_graph(100))
    assert len(cert.separator) == 100
    assert cert.radius <= 1


def test_induced_separator_cycle_host():
    g = cycle_graph(200)
    cert = induced_minor_separator(g)
    report = verify_separator(g, cert.separator, cert.centers, cert.radius)
    assert report.ok
    assert cert.radius <= 1


def test_induced_separator_empty_graph():
    cert = induced_minor_separator(WeightedGraph(0, []))
    assert cert.separator == frozenset()


def test_induced_separator_rejects_bad_oracle():
    g = cycle_graph(20)
    with pytest.raises(GraphError):
        induced_minor_separator(g, quotient_oracle=lambda q: [q.n + 5])
    with pytest.raises(GraphError):
        induced_minor_separator(g, quotient_oracle=lambda q: [])


def test_induced_separator_accepts_custom_oracle():
    g = cycle_graph(20)  # star partition peels the cycle into singletons
    cert = induced_minor_separator(g, quotient_oracle=lambda q: range(q.n))
    assert len(cert.separator) == 20


def test_induced_separators_match_golden_digest():
    # Captured when the default oracle still reran the flow/cut peel at a
    # shrinking congestion budget; the sweep-only peel gives the same bytes.
    hosts = ([gnp_graph(150, 4 / 150, seed=s) for s in range(16)]
             + [grid_graph(10), cycle_graph(100), barbell_graph(10, 5)])
    digest = hashlib.sha256()
    for g in hosts:
        cert = induced_minor_separator(g)
        digest.update(f"{sorted(cert.separator)}|{list(cert.centers)}|"
                      f"{cert.radius}\n".encode())
    assert digest.hexdigest() == (
        "f65c8907865c03e18e2289c6da4d0f442ec571bf51c8cb92ae898dea0f83699a")


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_induced_separator_at_extreme_weight_scales(scale):
    # Products of two such weights leave the float range; the default
    # oracle rescales the quotient by a power of two before it peels.
    for seed in range(4):
        g = gnp_graph(150, 4 / 150, seed=seed)
        g = g.with_weights([scale] * g.n)
        cert = induced_minor_separator(g)
        assert verify_separator(g, cert.separator, cert.centers,
                                cert.radius).ok
        assert cert.radius <= 1
        # not every star, as a failed search would return
        assert len(cert.centers) < len(star_partition(g)[0].clusters)


@st.composite
def _weighted_hosts(draw):
    n = draw(st.integers(1, 24))
    edges = set()
    if draw(st.booleans()):  # a random spanning tree makes it connected
        for v in range(1, n):
            edges.add((draw(st.integers(0, v - 1)), v))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pairs, max_size=2 * n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    kind = draw(st.sampled_from(["unit", "skewed", "partly zero"]))
    if kind == "unit":
        weights = [1.0] * n
    elif kind == "skewed":
        weights = draw(st.lists(st.floats(-6, 6).map(lambda e: 10.0 ** e),
                                min_size=n, max_size=n))
    else:
        weights = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0]),
                                min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
    return WeightedGraph(n, sorted(edges), [x * scale for x in weights])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_weighted_hosts())
def test_default_quotient_oracle_is_balanced(q):
    chosen = sorted(set(_default_quotient_oracle(q)))
    assert verify_separator(q, chosen, chosen, 0).balanced
