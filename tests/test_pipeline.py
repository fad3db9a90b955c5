import hashlib
import importlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsesep
from coarsesep import (
    BalancedSeparatorResult,
    ConcurrentFlow,
    FatModel,
    FlowCutError,
    GraphError,
    HeavyFlowResult,
    ModelFound,
    PatternGraph,
    PipelineConfig,
    PipelineFailure,
    SeparatorCertificate,
    SeparatorFound,
    WeightedGraph,
    balanced_separator_or_flow,
    coarse_separator_or_model,
    flow_or_sparse_cut,
    induced_minor_separator,
    power,
    power_model_to_base,
    quotient,
    star_partition,
    verify_certificate,
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
    random_regular_graph,
)
import coarsesep.flow as flow_module
import coarsesep.pipeline as pipeline_module
from coarsesep.cli import main as cli_main
from coarsesep.flow import balanced_separator_by_sweeps
from coarsesep.pipeline import _weighed_quotient

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
    res = coarse_separator_or_model(g, K3, 3, PipelineConfig())
    cert = assert_verified_certificate(g, res)
    assert res.branch == "peeling"
    assert res.gamma is not None
    assert 0 < len(cert.separator) < g.n


def test_clique_certificate():
    g = complete_graph(100)
    res = coarse_separator_or_model(g, K3, 3, PipelineConfig())
    cert = assert_verified_certificate(g, res)
    assert cert.radius <= 1


def test_path_certificate_smaller_eps():
    g = path_graph(400)
    res = coarse_separator_or_model(g, K3, 3,
                                    PipelineConfig(eps=0.5, seed=3))
    assert_verified_certificate(g, res, eps=0.5)


def test_deterministic_for_seed():
    g = grid_graph(15)
    a = coarse_separator_or_model(g, K3, 3, PipelineConfig(seed=7))
    b = coarse_separator_or_model(g, K3, 3, PipelineConfig(seed=7))
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


@pytest.mark.parametrize("d", [1, 3, 5])
def test_certificate_is_verified_once_on_the_callers_graph(monkeypatch, d):
    # at d = 5 the core runs on the power graph; only G verifies the answer
    hosts = []
    original = pipeline_module.verify_separator

    def recording(host, *args):
        hosts.append(host)
        return original(host, *args)

    monkeypatch.setattr(pipeline_module, "verify_separator", recording)
    g = grid_graph(12)
    res = coarse_separator_or_model(g, K3, d, PipelineConfig())
    assert_verified_certificate(g, res, d=d)
    assert len(hosts) == 1 and hosts[0] is g


def _spy_on_verifiers(monkeypatch):
    """Record (verifier, host) for every call of either verifier.

    Each verifier is replaced under every name a package module looks it up
    by, so calls through `verify_certificate` and `ensure_fat_model` count.
    """
    calls = []
    modules = [importlib.import_module(f"coarsesep.{name}")
               for name in ("graph", "fatminor", "flow", "pipeline", "cli")]
    for name, home in (("verify_separator", modules[0]),
                       ("verify_fat_model", modules[1])):
        def spy(host, *args, _name=name, _original=getattr(home, name)):
            calls.append((_name, host))
            return _original(host, *args)

        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("g, d, config, hosts", [
    # the smallest path on which the override reaches rounding at d = 3
    (path_graph(1200), 3, PipelineConfig(eps=1.0, congestion_override=1e15),
     [("verify_fat_model", "g")]),
    # power_model_to_base checks its input, the 3-fat precondition it needs
    (path_graph(3000), 5, PipelineConfig(eps=0.5, congestion_override=1e15),
     [("verify_fat_model", "power"), ("verify_fat_model", "g")]),
], ids=["d3", "d5"])
def test_a_model_is_verified_once_on_the_callers_graph(monkeypatch, g, d,
                                                       config, hosts):
    calls = _spy_on_verifiers(monkeypatch)
    res = coarse_separator_or_model(g, K2, d, config)
    assert res.branch == "rounding"
    power_edges = power(g, d).edges()
    assert [(name, "g" if host is g else
             "power" if host.edges() == power_edges else "other")
            for name, host in calls] == hosts


def test_each_bench_row_is_verified_once(monkeypatch, capsys):
    calls = _spy_on_verifiers(monkeypatch)
    assert cli_main(["bench", "--family", "grid", "--sizes", "6,8"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()]
    assert [(row[1], row[-1]) for row in rows[1:]] == [("separator",
                                                        "True")] * 2
    assert [(name, host.n) for name, host in calls] == [
        ("verify_separator", 36), ("verify_separator", 64)]


def test_a_model_that_fails_its_check_is_an_internal_fault(monkeypatch):
    # a lift whose vertex branch sets coincide: the entry point's one check
    # of the model, on g, raises
    original = pipeline_module.lift_model

    def touching(*args):
        model = original(*args)
        first = model.vertex_sets[0]
        return FatModel(model.fatness, {u: first for u in model.vertex_sets},
                        model.edge_sets)

    monkeypatch.setattr(pipeline_module, "lift_model", touching)
    config = PipelineConfig(eps=1.0, congestion_override=1e15)
    with pytest.raises(GraphError, match="model fails at fatness 3: vertex 0 "
                       "and vertex 1 are at distance 0 < 3"):
        coarse_separator_or_model(path_graph(1200), K2, 3, config)


def test_a_certificate_that_fails_its_check_is_an_internal_fault(monkeypatch):
    # a peel that returns the empty separator of a connected host: the entry
    # point's one check of the certificate, on g, raises
    monkeypatch.setattr(pipeline_module, "balanced_separator_by_sweeps",
                        lambda q, units: BalancedSeparatorResult(
                            frozenset(), (), ()))
    with pytest.raises(GraphError, match="star-quotient certificate failed "
                       r"verification \(balanced=False, heaviest=10.0"):
        induced_minor_separator(path_graph(10))


def test_fatness_must_be_positive():
    with pytest.raises(GraphError):
        coarse_separator_or_model(grid_graph(5), K3, 0)


# ---------------------------------------------------------------------------
# Degenerate inputs


def test_empty_pattern_embeds_vacuously():
    res = coarse_separator_or_model(grid_graph(5), PatternGraph(0, []), 3,
                                    PipelineConfig())
    assert isinstance(res, ModelFound)
    assert res.branch == "degenerate"
    assert res.model.vertex_sets == {}


def test_single_vertex_pattern_embeds_anywhere():
    res = coarse_separator_or_model(grid_graph(5), PatternGraph(1, []), 3,
                                    PipelineConfig())
    assert isinstance(res, ModelFound)
    assert verify_fat_model(grid_graph(5), PatternGraph(1, []),
                            res.model, 3).ok


def test_empty_and_weightless_hosts():
    res = coarse_separator_or_model(WeightedGraph(0, []), K2, 3,
                                    PipelineConfig())
    assert isinstance(res, SeparatorFound)
    assert res.certificate.separator == frozenset()
    g = path_graph(4).with_weights([0, 0, 0, 0])
    res = coarse_separator_or_model(g, K2, 3, PipelineConfig())
    assert isinstance(res, SeparatorFound)
    assert res.certificate.separator == frozenset()


@pytest.mark.parametrize("d", [3, 5])
def test_disconnected_light_components_need_no_separator(d):
    # each triangle weighs 3 of 9, so the empty separator is balanced
    g = WeightedGraph(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (6, 7), (7, 8), (6, 8)])
    res = coarse_separator_or_model(g, K2, d, PipelineConfig())
    assert isinstance(res, SeparatorFound)
    assert res.branch == "peeling"
    assert res.certificate == SeparatorCertificate(frozenset(), (), 0)


# ---------------------------------------------------------------------------
# The flow side, reached through the congestion override


def test_power_reduction_turns_a_rounded_model_into_a_base_model():
    g = path_graph(3000)
    cfg = PipelineConfig(eps=0.5, congestion_override=1e15, seed=0)
    res = coarse_separator_or_model(g, K2, 5, cfg)
    assert isinstance(res, ModelFound)
    assert res.branch == "rounding"
    assert res.model.fatness == 5
    assert verify_fat_model(g, K2, res.model, 5).ok
    cfg.trials = 0
    res = coarse_separator_or_model(g, K2, 5, cfg)
    assert res == PipelineFailure("rounding", 0, 0, 0)


def test_override_rounds_flow_into_model():
    g = path_graph(2000)
    cfg = PipelineConfig(congestion_override=1e15, trials=64, seed=0)
    res = coarse_separator_or_model(g, K2, 3, cfg)
    assert isinstance(res, ModelFound)
    assert res.branch == "rounding"
    assert verify_fat_model(g, K2, res.model, 3).ok


def test_override_single_trial_can_fail():
    g = path_graph(2000)
    cfg = PipelineConfig(congestion_override=1e15, trials=1, seed=0)
    res = coarse_separator_or_model(g, K2, 3, cfg)
    assert isinstance(res, PipelineFailure)
    assert res.stage == "rounding"
    assert res.trials == 1
    assert res.collision_failures + res.spread_failures == 1


def _hub(a):
    """Vertex 0 joined to all others; two random 3-regular graphs on
    1..a and a+1..2a, matched by the edges (i, a + i)."""
    edges = [(0, v) for v in range(1, 2 * a + 1)]
    for seed, shift in ((1, 1), (2, a + 1)):
        edges += [(u + shift, v + shift)
                  for u, v in random_regular_graph(a, 3, seed=seed).edges()]
    edges += [(i, a + i) for i in range(1, a + 1)]
    return WeightedGraph(2 * a + 1, edges)


@pytest.mark.xfail(strict=True, raises=FlowCutError,
                   reason="ROADMAP Direction 9: inside the window no sweep "
                          "cut meets the bound and the flow is not found")
def test_hub_inside_the_window_gets_a_flow_or_a_cut():
    # every BFS tree routes through the hub, whose congestion 0.994 W^2
    # misses gamma; the best sweep cut, one vertex, is above the bound
    gamma = 0.9 * 801 ** 2
    res = flow_or_sparse_cut(_hub(400), gamma)
    if isinstance(res, ConcurrentFlow):
        res.check()
        assert res.max_congestion() <= gamma * (1 + 1e-9)
    else:
        assert res.sparsity <= 64.0 * math.log(801) / gamma * (1 + 1e-9)


def _two_cliques(a, b):
    """K_a on 0..a-1 and K_b on a..a+b-1, with no edge between them."""
    return [(u, v) for u in range(a + b) for v in range(u + 1, a + b)
            if (u < a) == (v < a)]


@pytest.mark.parametrize("solve", [
    induced_minor_separator,
    lambda g: coarse_separator_or_model(
        g, K3, 3, PipelineConfig(eps=0.5)).certificate,
], ids=["induced", "pipeline"])
def test_a_tie_on_rescaled_weights_gives_a_verified_certificate(solve):
    # Divided by 0.3, the weights 0.1 and 0.2 sum to exactly 1 = W/2, while
    # on the host 0.1 + 0.2 = 0.30000000000000004 exceeds W/2 = 0.3: a
    # balance decided on the rescaled quotient kept {1, 2} whole.  The two
    # cliques each weigh 1.7 in decimal, W/2, but not in binary: on the
    # rescaled quotient both entry points kept the heavier one whole.
    # Balance decided on the host's weight units cuts it.
    hosts = [
        WeightedGraph(3, [(1, 2)], [0.3, 0.1, 0.2]),
        WeightedGraph(14, _two_cliques(6, 8),
                      [0.3, 0.1, 0.3, 0.2, 0.7, 0.1,
                       0.4, 0.3, 0.4, 0.0, 0.0, 0.2, 0.4, 0.0]),
    ]
    for g in hosts:
        assert verify_certificate(g, solve(g)).ok


@st.composite
def _decimal_weight_hosts(draw):
    # one-decimal weights, whose sums in binary miss their decimal values
    n = draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    weights = draw(st.lists(st.sampled_from(
        [0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 1.1]), min_size=n, max_size=n))
    return WeightedGraph(n, [e for e, k in zip(pairs, keep) if k], weights)


@pytest.mark.parametrize("solve", [
    lambda g: SeparatorFound(induced_minor_separator(g)),
    lambda g: coarse_separator_or_model(g, K3, 3, PipelineConfig(eps=0.5)),
    # far above W^2 every peel step routes, so the heavy-clusters test
    # decides most hosts
    lambda g: coarse_separator_or_model(
        g, K2, 1, PipelineConfig(trials=8, congestion_override=1e9)),
], ids=["induced", "pipeline", "override"])
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(g=_decimal_weight_hosts())
def test_decimal_weights_give_answers_that_verify_on_the_host(solve, g):
    # a model was verified on g where the entry point returned it
    res = solve(g)
    if isinstance(res, SeparatorFound):
        assert verify_certificate(g, res.certificate).ok
    else:
        assert isinstance(res, (ModelFound, PipelineFailure))


def test_default_trials_can_all_fail():
    # a real failure, not one forced by trials=0: all 64 default rounding
    # trials fail, by collision or by spread
    cfg = PipelineConfig(eps=0.5, seed=0, congestion_override=0.05 * 801 ** 2)
    res = coarse_separator_or_model(_hub(400), K2, 1, cfg)
    assert res == PipelineFailure("rounding", 64, 9, 55)
    assert res.collision_failures + res.spread_failures == res.trials


@pytest.mark.parametrize("pattern", [PatternGraph(0, []), K2])
def test_negative_trials_are_rejected(pattern):
    cfg = PipelineConfig(congestion_override=1e15, trials=-1, seed=0)
    with pytest.raises(GraphError, match="trials must be nonnegative, got -1"):
        coarse_separator_or_model(path_graph(50), pattern, 3, cfg)


def test_override_heavy_clusters_join_separator():
    # two dominant-weight vertices: their clusters outweigh the light rest,
    # so they are added to the separator instead of rounding
    w = [1.0] * 2000
    w[666] = 2000.0
    w[1333] = 2000.0
    g = WeightedGraph(2000, path_graph(2000).edges(), w)
    cfg = PipelineConfig(congestion_override=1e15, trials=8, seed=0)
    res = coarse_separator_or_model(g, K2, 3, cfg)
    assert isinstance(res, SeparatorFound)
    assert res.branch == "heavy-clusters"
    assert {666, 1333} <= set(res.certificate.separator)
    report = verify_separator(g, res.certificate.separator,
                              res.certificate.centers, res.certificate.radius)
    assert report.ok


def test_override_rounds_an_in_window_flow_into_model(monkeypatch):
    # At 0.64 W^2 the quotient (266 clusters) lies inside the window, below
    # its own W^2, and its BFS-tree flow fits gamma: rounding runs on a flow
    # that passed the congestion test, not on an unchecked ceiling flow.
    original = flow_module._attempt_tree_flow
    window_flows = []

    def recording(g, gamma):
        res = original(g, gamma)
        window_flows.append(res is not None and gamma < g.total_weight ** 2)
        return res

    monkeypatch.setattr(flow_module, "_attempt_tree_flow", recording)
    g = path_graph(1303)
    cfg = PipelineConfig(eps=1.0, trials=8, seed=0,
                         congestion_override=0.64 * g.total_weight ** 2)
    res = coarse_separator_or_model(g, K2, 1, cfg)
    assert window_flows == [True]
    assert isinstance(res, ModelFound)
    assert res.branch == "rounding"
    assert verify_fat_model(g, K2, res.model, 1).ok


def test_rounded_models_match_golden_digest():
    # Captured before the flow ceiling, when the heavy part's flow was
    # still routed and its congestion computed ahead of rounding.
    g = path_graph(1200)
    digest = hashlib.sha256()
    for seed in range(6):
        cfg = PipelineConfig(eps=1.0, congestion_override=1e15, seed=seed)
        res = coarse_separator_or_model(g, K2, 3, cfg)
        assert isinstance(res, ModelFound) and res.branch == "rounding"
        digest.update(repr(res.model.all_sets()).encode())
    assert digest.hexdigest() == (
        "526fab4c9e9c0caad47250801a5b37592117ae990c4d416e385e4c7c96ffc4bf")


def test_power_reductions_match_golden_digest():
    # Captured while the power model's spanning tree still had its own BFS.
    # Padding follows the tree's edges and the geodesic `_bfs_path` picks;
    # on the grid a diagonal step has two geodesics, so both show.
    digest = hashlib.sha256()
    g = path_graph(3000)
    for seed in range(6):
        cfg = PipelineConfig(eps=0.5, seed=seed, congestion_override=1e15)
        res = coarse_separator_or_model(g, K2, 5, cfg)
        assert isinstance(res, ModelFound) and res.branch == "rounding"
        digest.update(repr([(name, sorted(s))
                            for name, s in res.model.all_sets()]).encode())
    base = grid_graph(12)

    def checkerboard(rows):  # the cells of even parity in rows x rows
        return frozenset(12 * r + c for r in rows for c in rows
                         if (r + c) % 2 == 0)

    model = FatModel(3, {0: checkerboard(range(5)),
                         1: checkerboard(range(7, 12))},
                     {(0, 1): frozenset(13 * i for i in range(4, 8))})
    lifted = power_model_to_base(base, power(base, 2), K2, model, 2)
    digest.update(repr([(name, sorted(s))
                        for name, s in lifted.all_sets()]).encode())
    assert digest.hexdigest() == (
        "9d825d6a1eb18c6bd601067399c666477dc1304e2cceb225251e41791c11fd53")


_ROUNDING_SCRIPT = """
import sys
from coarsesep import ModelFound, PatternGraph, PipelineConfig
from coarsesep import coarse_separator_or_model
from coarsesep.generators import path_graph
cfg = PipelineConfig(eps=1.0, congestion_override=1e15, seed=0)
res = coarse_separator_or_model(path_graph(1200), PatternGraph(2, [(0, 1)]),
                                3, cfg)
print(isinstance(res, ModelFound), "numpy" in sys.modules)
"""


def _run_script(script):
    """stdout of `script` in a fresh interpreter that imports this package."""
    env = dict(os.environ)
    src = str(Path(coarsesep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_rounding_at_the_flow_ceiling_never_imports_numpy():
    # no sweep or spectral order runs on this branch, so numpy's memory
    # stays out of the process
    assert _run_script(_ROUNDING_SCRIPT).split() == ["True", "False"]


_WINDOW_SCRIPT = """
import sys
from coarsesep import Separation, flow_or_sparse_cut
from coarsesep.generators import cycle_graph
res = flow_or_sparse_cut(cycle_graph(6), 15.0)
print(isinstance(res, Separation), "numpy" in sys.modules,
      "scipy" in sys.modules)
"""


def test_the_window_never_imports_scipy():
    # inside the window the routing fails on C6 at 15 and the sweep, with
    # its spectral order, answers; nothing there needs scipy
    assert _run_script(_WINDOW_SCRIPT).split() == ["True", "True", "False"]


# ---------------------------------------------------------------------------
# Weight scale


@pytest.mark.parametrize("scale", [0.1, 1.1, 1e-300, 1e-150, 1e300])
def test_pipeline_gives_unit_answer_at_any_uniform_weight(scale):
    # gamma ~ W^2 leaves the float range at 1e-300 and 1e300, and sums of
    # 0.1 or 1.1 round where sums of ones do not; the pipeline divides the
    # weights by the heaviest one before the core runs
    for g in (grid_graph(20), random_regular_graph(300, 3, seed=0)):
        scaled = g.with_weights([scale] * g.n)
        for d in (3, 5):
            unit = coarse_separator_or_model(g, K3, d)
            res = coarse_separator_or_model(scaled, K3, d)
            assert res.branch == unit.branch == "peeling"
            assert res.certificate == unit.certificate
            assert_verified_certificate(scaled, res, d=d)
            # reported in the caller's scale: 0 or inf beyond float range
            assert res.gamma == unit.gamma * scale * scale


@pytest.mark.parametrize("scale", [1e-300, 3.0, 1e300])
def test_core_gives_unit_answer_at_any_uniform_weight(scale):
    # the core weighs its quotient by the heaviest vertex, so the scale
    # cancels
    g = grid_graph(20)
    scaled = g.with_weights([scale] * g.n)
    unit = coarse_separator_or_model(g, K3, 3)
    res = coarse_separator_or_model(scaled, K3, 3)
    assert res.branch == unit.branch == "peeling"
    assert res.certificate == unit.certificate
    assert_verified_certificate(scaled, res)
    assert res.gamma == unit.gamma * scale * scale


@pytest.mark.parametrize("weights", [
    [2.0, 6.0, 7.0, 6.0, 9.0, 1.0, 3.0, 8.0],
    [0.1, 0.2, 0.3, 0.7, 1.1, 0.0, 0.6, 0.3],
    [1e300, 3e-300, 1.7e300, 1e300, 2.5e300, 7e299, 0.0, 1e300],
    [3e-300, 1e-300, 5e-324, 2e-300, 4e-300, 1e-310, 0.0, 2.5e-300],
], ids=["integer", "decimal", "huge", "tiny"])
def test_weighed_quotient_rounds_each_exact_cluster_sum_once(weights):
    g = path_graph(8).with_weights(weights)
    q = quotient(g, [[0, 1, 2, 3], [4], [5, 6], [7]])
    qg, units = _weighed_quotient(g, q)
    top = Fraction(max(weights))
    exact = [sum(Fraction(weights[v]) for v in cl) for cl in q.clusters]
    assert qg.adj == q.graph.adj
    assert qg.weights == [float(x / top) for x in exact]
    # the units scale every exact sum by one factor
    assert all(Fraction(u) == units[1] / top * x
               for u, x in zip(units, exact))
    assert qg.weights[1] == 1.0  # the heaviest vertex alone
    if weights[0] == 2.0:
        # {2, 6, 7, 6} / 9: one rounding, where the sum of rounded
        # ratios is one unit in the last place lower
        assert qg.weights[0] == 21 / 9 == 2.3333333333333335
        assert math.fsum(weights[v] / 9 for v in range(4)) < 21 / 9


@pytest.mark.parametrize("scale", [1e-100, 3.0, 1e100])
def test_congestion_override_is_in_the_callers_scale(scale):
    g = path_graph(1200)
    unit = coarse_separator_or_model(
        g, K2, 3, PipelineConfig(congestion_override=1e15))
    override = 1e15 * scale * scale
    res = coarse_separator_or_model(
        g.with_weights([scale] * g.n), K2, 3,
        PipelineConfig(congestion_override=override))
    assert unit.branch == res.branch == "rounding"
    assert res.model == unit.model
    assert res.gamma == override


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


def test_induced_separators_match_golden_digest():
    # Captured when the sweep peel first took a minimum bite and pruned its
    # separator, and tied Fiedler entries first went in id order.
    hosts = ([gnp_graph(150, 4 / 150, seed=s) for s in range(16)]
             + [grid_graph(10), cycle_graph(100), barbell_graph(10, 5)])
    digest = hashlib.sha256()
    for g in hosts:
        cert = induced_minor_separator(g)
        digest.update(f"{sorted(cert.separator)}|{list(cert.centers)}|"
                      f"{cert.radius}\n".encode())
    assert digest.hexdigest() == (
        "caf115ed0c64dfa0573e6c99efa01b50a1fee53ea364f47393e84224e2bb0772")


def test_sweep_peel_steps_and_size_on_the_golden_quotients():
    # On the star quotients of the 16 gnp hosts above, the peel that took
    # the sparsest cut at every step ran 183 steps for 531 separator
    # vertices.  With the minimum bite and the prune it runs 116 for 485;
    # crumb steps coming back would raise the first count.
    steps = size = 0
    for seed in range(16):
        g = gnp_graph(150, 4 / 150, seed=seed)
        res = balanced_separator_by_sweeps(star_partition(g)[1].graph)
        steps += len(res.steps)
        size += len(res.separator)
    assert (steps, size) == (116, 485)


@pytest.mark.parametrize("weights, separator", [
    ([0.0] * 36, []),
    ([2.5 if v == 14 else 0.0 for v in range(36)], [14]),
])
def test_induced_separator_with_fewer_than_two_positive_vertices(weights,
                                                                 separator):
    # no weight needs no separator; one positive vertex alone is cut out
    g = grid_graph(6).with_weights(weights)
    cert = induced_minor_separator(g)
    assert sorted(cert.separator) == separator
    assert verify_certificate(g, cert).ok


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_induced_separator_at_extreme_weight_scales(scale):
    # Products of two such weights leave the float range; the quotient
    # carries the weights divided by the heaviest one, so its heaviest
    # weight lies in [1, n].
    for seed in range(4):
        g = gnp_graph(150, 4 / 150, seed=seed)
        g = g.with_weights([scale] * g.n)
        cert = induced_minor_separator(g)
        assert verify_separator(g, cert.separator, cert.centers,
                                cert.radius).ok
        assert cert.radius <= 1
        # a real search, not every star
        assert len(cert.centers) < len(star_partition(g)[0].clusters)


@pytest.mark.parametrize("scale", [0.1, 1.1, 1e-300, 1e300])
def test_induced_separator_gives_unit_answer_at_any_uniform_weight(scale):
    for seed in range(16):
        g = gnp_graph(150, 4 / 150, seed=seed)
        scaled = g.with_weights([scale] * g.n)
        cert = induced_minor_separator(scaled)
        assert cert == induced_minor_separator(g)
        assert verify_separator(scaled, cert.separator, cert.centers,
                                cert.radius).ok


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


def _assert_peel_structure(g, res):
    """The pieces and the separator partition V; no edge joins two pieces.

    A heavy flow's vertices are disjoint from the separator peeled so far.
    """
    if isinstance(res, HeavyFlowResult):
        assert not res.separator & set(res.vertices)
        assert res.separator | set(res.vertices) <= set(range(g.n))
        return
    piece_of = {}
    for i, piece in enumerate(res.pieces):
        for v in piece:
            assert v not in piece_of and v not in res.separator
            piece_of[v] = i
    assert piece_of.keys() | res.separator == set(range(g.n))
    for u, v in g.edges():
        if u in piece_of and v in piece_of:
            assert piece_of[u] == piece_of[v]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_weighted_hosts())
def test_peels_are_balanced_and_within_the_size_cap(q):
    cert = induced_minor_separator(q)
    assert verify_certificate(q, cert).ok
    if q.total_weight == 0:
        return
    # the peels, on the graph and units the entry points hand them
    g, units = _weighed_quotient(q, quotient(q, [[v] for v in range(q.n)]))
    total = g.total_weight
    if sum(1 for w in g.weights if w > 0) >= 2:
        res = balanced_separator_by_sweeps(g, units=units)
        _assert_peel_structure(g, res)
        assert verify_separator(q, res.separator, res.separator, 0).balanced
    for c in (0.01, 0.3, 2.0):
        gamma = c * total * total
        res = balanced_separator_or_flow(g, gamma, units=units)
        _assert_peel_structure(g, res)
        if isinstance(res, BalancedSeparatorResult):
            # the proof in `balanced_separator_or_flow`: each step's cut is
            # within the bound, and |S| within W^2 times it
            bound = 64.0 * math.log(max(g.n, 2)) / gamma * (1 + 1e-9)
            assert all(x <= bound for x in res.steps)
            assert len(res.separator) <= bound * total * total


def _weighted(g, kind, seed):
    rng = random.Random(seed)
    if kind == "integer":
        return g.with_weights([float(rng.randint(1, 9)) for _ in range(g.n)])
    if kind == "skewed":
        return g.with_weights([10 ** rng.uniform(-3, 3) for _ in range(g.n)])
    return g


@st.composite
def _small_override_runs(draw):
    # A host with n <= 30, weights, pattern, fatness, eps and a congestion
    # override from far below W^2 to just above it.  These end in peeling or
    # heavy clusters: rounding needs light clusters, each under W / (4 h^2),
    # to outweigh the heavy ones, so it needs about 50 clusters at least.
    family = draw(st.sampled_from(["path", "cycle", "grid", "gnp"]))
    if family == "path":
        g = path_graph(draw(st.integers(2, 30)))
    elif family == "cycle":
        g = cycle_graph(draw(st.integers(3, 30)))
    elif family == "grid":
        g = grid_graph(draw(st.integers(1, 5)), draw(st.integers(2, 6)))
    else:
        g = gnp_graph(draw(st.integers(2, 30)), draw(st.floats(0.05, 0.5)),
                      seed=draw(st.integers(0, 1000)))
    g = _weighted(g, draw(st.sampled_from(["unit", "integer", "skewed"])),
                  draw(st.integers(0, 2 ** 32)))
    pattern = draw(st.sampled_from([K2, K3]))
    d = draw(st.sampled_from([1, 3, 5]))
    eps = draw(st.sampled_from([0.5, 1.0]))
    override = g.total_weight ** 2 * 10 ** draw(st.floats(-5, 0.5))
    return g, pattern, d, eps, override


@st.composite
def _long_override_runs(draw):
    # Long paths and cycles from the region where rounding runs: K2, d <= 3,
    # eps = 1, near-uniform weights and an override near W^2.
    g = draw(st.sampled_from([path_graph, cycle_graph]))(
        draw(st.integers(1000, 1600)))
    g = _weighted(g, draw(st.sampled_from(["unit", "integer"])),
                  draw(st.integers(0, 2 ** 32)))
    override = g.total_weight ** 2 * 10 ** draw(st.floats(-0.5, 0.5))
    return g, K2, draw(st.sampled_from([1, 3])), 1.0, override

@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.one_of(_small_override_runs(), _long_override_runs()))
def test_outputs_verify_under_any_congestion_override(run):
    g, pattern, d, eps, override = run
    cfg = PipelineConfig(eps=eps, trials=8, seed=0,
                         congestion_override=override)
    res = coarse_separator_or_model(g, pattern, d, cfg)
    if isinstance(res, SeparatorFound):
        assert_verified_certificate(g, res, eps=eps, d=d)
    elif isinstance(res, ModelFound):
        assert verify_fat_model(g, pattern, res.model, d).ok
    else:
        assert isinstance(res, PipelineFailure)
        assert res.stage == "rounding"
        assert res.collision_failures + res.spread_failures == res.trials == 8
