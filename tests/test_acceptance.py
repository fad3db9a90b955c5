"""End-to-end checks of the package's headline promises.

Each test exercises one externally visible guarantee: runs always verify,
center counts scale sublinearly, radii respect the eps budget, the flow/cut
answer is sound against an exact oracle, crude models always convert, power
models return to the base graph, the brute-force oracle and the verifier
agree, regular-graph runs rarely fail, star quotients stay sparse, and the
CLI is byte-deterministic.
"""

import json
import math
import random
import time

from coarsesep import (
    ConcurrentFlow,
    CrudeFatModel,
    ModelFound,
    PatternGraph,
    PipelineConfig,
    PipelineFailure,
    Separation,
    SeparatorFound,
    WeightedGraph,
    coarse_separator_or_model,
    crude_to_fat,
    exact_sparsest_separation,
    flow_or_sparse_cut,
    make_separation,
    power,
    power_model_to_base,
    star_partition,
    two_subdivision,
    verify_certificate,
    verify_crude_model,
    verify_fat_model,
)
from coarsesep import FatModel, brute_force_fat_minor
from coarsesep.cli import main
from coarsesep.fileio import write_graph
from coarsesep.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
)

K2 = PatternGraph(2, [(0, 1)])
P3 = PatternGraph(3, [(0, 1), (1, 2)])
K3 = PatternGraph(3, [(0, 1), (1, 2), (0, 2)])
K5 = PatternGraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])

PETERSEN = WeightedGraph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                              (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                              (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])


def check_output(g, pattern, fatness, eps, res):
    """A non-failure output must verify; certificates must respect eps."""
    if isinstance(res, SeparatorFound):
        report = verify_certificate(g, res.certificate)
        assert report.ok, report
        budget = math.ceil(32 / eps)
        if fatness > 3:
            budget *= fatness
        assert res.certificate.radius <= budget
    else:
        assert isinstance(res, ModelFound)
        report = verify_fat_model(g, pattern, res.model, fatness)
        assert report.ok, report.violations


def test_every_run_verifies_across_the_matrix():
    """200 runs over mixed families: all outputs verify, failures are rare."""
    regs = {}

    def host(kind, seed):
        if kind.startswith("reg"):
            n = int(kind[3:])
            if (n, seed) not in regs:
                regs[n, seed] = random_regular_graph(n, 3, seed=seed)
            return regs[n, seed]
        return {
            "grid10": lambda: grid_graph(10),
            "grid20": lambda: grid_graph(20),
            "grid30": lambda: grid_graph(30),
            "cycle100": lambda: cycle_graph(100),
            "cycle400": lambda: cycle_graph(400),
            "cycle1000": lambda: cycle_graph(1000),
            "barbell": lambda: barbell_graph(20, 10),
        }[kind]()

    kinds = ["grid10", "grid20", "grid30", "cycle100", "cycle400",
             "cycle1000", "barbell", "reg200", "reg1000", "reg2000"]
    full = [(kind, pattern, d, eps, seed)
            for kind in kinds
            for pattern in (K2, K3, K5)
            for d in (1, 3, 5)
            for eps in (0.25, 0.5)
            for seed in range(5)]
    jobs = [full[round(i * len(full) / 200)] for i in range(200)]

    start = time.monotonic()
    failures = []
    for kind, pattern, d, eps, seed in jobs:
        g = host(kind, seed)
        res = coarse_separator_or_model(
            g, pattern, d, PipelineConfig(eps=eps, seed=seed))
        if isinstance(res, PipelineFailure):
            failures.append(res)
        else:
            check_output(g, pattern, d, eps, res)
    # only the randomized model-search stage is allowed to come up empty
    assert all(f.stage == "rounding" for f in failures)
    assert len(failures) <= 2
    assert time.monotonic() - start < 1800


def test_center_count_grows_sublinearly_on_grids():
    counts = {}
    for k in (10, 20, 30, 40):
        res = coarse_separator_or_model(grid_graph(k), K5, 3,
                                        PipelineConfig(eps=0.25))
        assert isinstance(res, SeparatorFound)
        counts[k] = max(1, len(res.certificate.centers))
    kappa = counts[10] / 100 ** 0.75
    ratios = []
    for k, c in counts.items():
        n = k * k
        assert c <= kappa * n ** 0.75 * (1 + 1e-9)
        ratios.append(c / n)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_certificate_radius_stays_within_eps_budget():
    for eps in (0.25, 0.5, 1.0):
        res = coarse_separator_or_model(grid_graph(20), K3, 3,
                                        PipelineConfig(eps=eps))
        assert isinstance(res, SeparatorFound)
        assert res.certificate.radius <= math.ceil(32 / eps)
    for g, d, eps in ((grid_graph(20), 5, 0.5), (cycle_graph(400), 4, 0.25)):
        res = coarse_separator_or_model(g, K3, d, PipelineConfig(eps=eps))
        assert isinstance(res, SeparatorFound)
        assert res.certificate.radius <= d * math.ceil(32 / eps)


def _star(n):
    return WeightedGraph(n, [(0, i) for i in range(1, n)])


def _small_corpus():
    gs = [path_graph(n) for n in range(2, 11)]
    gs += [cycle_graph(n) for n in range(3, 11)]
    gs += [complete_graph(n) for n in range(3, 11)]
    gs += [grid_graph(2), grid_graph(3), grid_graph(2, 3), grid_graph(2, 5)]
    gs += [_star(5), _star(8), _star(10)]
    gs += [gnp_graph(8, 0.3, seed=s) for s in range(5)]
    gs += [gnp_graph(10, 0.25, seed=s) for s in range(5)]
    gs += [barbell_graph(3), barbell_graph(4, 2)]
    gs.append(PETERSEN)
    gs.append(path_graph(6).with_weights([1, 2, 3, 4, 5, 6]))
    gs.append(cycle_graph(8).with_weights([1, 0, 1, 0, 1, 0, 1, 0]))
    gs.append(complete_graph(4).with_weights([0, 1, 1, 1]))
    gs.append(WeightedGraph(6, [(0, 1), (1, 2), (0, 2),
                                (3, 4), (4, 5), (3, 5)]))
    gs.append(WeightedGraph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]))
    assert len(gs) == 50
    return gs


def test_flow_cut_answers_are_sound_against_exact_oracle():
    for g in _small_corpus():
        opt = exact_sparsest_separation(g)
        for gamma in (0.1, 1.0, 10.0):
            res = flow_or_sparse_cut(g, gamma)
            if isinstance(res, ConcurrentFlow):
                res.check()
                assert res.max_congestion() <= gamma * (1 + 1e-6)
            else:
                assert isinstance(res, Separation)
                redone = make_separation(g, res.side_a, res.side_b)
                bound = 64.0 * math.log(max(g.n, 2)) / gamma
                assert redone.sparsity <= bound * (1 + 1e-9)
                assert opt is not None
                assert redone.sparsity >= opt.sparsity - 1e-9


def _random_bfs_path(g, src, dst, rng):
    """A shortest src-dst path chosen with shuffled neighbor order."""
    if src == dst:
        return (src,)
    parent = {src: src}
    frontier = [src]
    while frontier and dst not in parent:
        nxt = []
        for u in frontier:
            nbrs = list(g.adj[u])
            rng.shuffle(nbrs)
            for v in nbrs:
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    if dst not in parent:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)


def _sample_valid_crude(g, sub, d, rng, budget=5000):
    """Rejection-sample a crude model that verifies at distance d."""
    verts = list(sub.vertices)
    for _ in range(budget):
        image = rng.sample(range(g.n), len(verts))
        vmap = dict(zip(verts, image))
        paths = {}
        for e in sub.edges:
            p = _random_bfs_path(g, vmap[e[0]], vmap[e[1]], rng)
            if p is None:
                break
            paths[e] = p
        else:
            crude = CrudeFatModel(d, vmap, paths)
            if verify_crude_model(g, sub, crude, d).ok:
                return crude
    raise AssertionError("sampling budget exhausted")


def test_crude_models_always_convert_to_fat_models():
    jobs = []
    jobs += [(K2, 1, gnp_graph(40, 0.1, seed=j)) for j in range(60)]
    jobs += [(K2, 2, random_regular_graph(48, 3, seed=j)) for j in range(40)]
    jobs += [(K2, 3, random_regular_graph(60, 3, seed=j)) for j in range(20)]
    jobs += [(P3, 1, gnp_graph(50, 0.08, seed=j)) for j in range(30)]
    jobs += [(P3, 2, random_regular_graph(60, 3, seed=100 + j))
             for j in range(10)]
    jobs += [(K3, 1, gnp_graph(60, 0.08, seed=j)) for j in range(40)]
    assert len(jobs) == 200

    rng = random.Random(20260814)
    for pattern, d, g in jobs:
        sub = two_subdivision(pattern)
        crude = _sample_valid_crude(g, sub, d, rng)
        fat = crude_to_fat(sub, crude)
        report = verify_fat_model(g, pattern, fat, d)
        assert report.ok, report.violations


def test_power_model_comes_back_to_the_base_cycle():
    base = cycle_graph(40)
    squared = power(base, 2)

    def arc(a, b):
        return frozenset(i % 40 for i in range(a, b + 1))

    model = FatModel(3,
                     {0: arc(0, 7), 1: arc(14, 21), 2: arc(28, 34)},
                     {(0, 1): arc(7, 14), (1, 2): arc(21, 28),
                      (0, 2): arc(34, 40)})
    assert verify_fat_model(squared, K3, model, 3).ok
    based = power_model_to_base(base, squared, K3, model, 2)
    report = verify_fat_model(base, K3, based, 2)
    assert report.ok, report.violations


# For which fatness values does each pattern embed in each host?  Worked
# out by hand for the paths/cycles and spot-checked for Petersen.
EMBEDDABLE = {
    ("P4", "K2"): {1, 2, 3}, ("P4", "P3"): {1}, ("P4", "K3"): set(),
    ("C6", "K2"): {1, 2, 3}, ("C6", "P3"): {1}, ("C6", "K3"): {1},
    ("C12", "K2"): {1, 2, 3}, ("C12", "P3"): {1, 2, 3},
    ("C12", "K3"): {1, 2},
    ("petersen", "K2"): {1, 2}, ("petersen", "P3"): {1},
    ("petersen", "K3"): {1},
}


def test_brute_force_oracle_agrees_with_the_verifier():
    hosts = {"P4": path_graph(4), "C6": cycle_graph(6),
             "C12": cycle_graph(12), "petersen": PETERSEN}
    patterns = {"K2": K2, "P3": P3, "K3": K3}
    for hname, g in hosts.items():
        for pname, pattern in patterns.items():
            for d in (1, 2, 3):
                model = brute_force_fat_minor(g, pattern, d)
                if d in EMBEDDABLE[hname, pname]:
                    assert model is not None
                    assert verify_fat_model(g, pattern, model, d).ok
                else:
                    assert model is None


def test_regular_graph_runs_rarely_fail():
    verified = 0
    for seed in range(100):
        g = random_regular_graph(2000, 3, seed=seed)
        res = coarse_separator_or_model(
            g, K2, 3, PipelineConfig(eps=0.3, trials=64, seed=seed))
        if isinstance(res, PipelineFailure):
            continue
        check_output(g, K2, 3, 0.3, res)
        verified += 1
    assert verified >= 95


def test_star_partition_quotients_stay_sparse():
    fit = None
    for n in (100, 400, 1600):
        g = gnp_graph(n, 4.0 / n, seed=7)
        part, q = star_partition(g)
        part.validate(g)
        for cluster, center in zip(part.clusters, part.centers):
            for v in cluster:
                assert v == center or g.has_edge(v, center)
        shape = n ** (4 / 3) * math.log(n) ** (2 / 3)
        if fit is None:
            fit = q.graph.m / shape
        assert q.graph.m <= fit * shape * (1 + 1e-9)


def run_cli(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


def test_cli_repeats_are_byte_identical(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    ppath = tmp_path / "k3.txt"
    write_graph(grid_graph(12), str(gpath))
    ppath.write_text("3 3\n0 1\n1 2\n0 2\n")

    sep = ["separate", str(gpath), "--pattern", str(ppath),
           "--seed", "3", "--json"]
    code, first = run_cli(capsys, *sep)
    assert code == 0
    assert run_cli(capsys, *sep) == (0, first)
    json.loads(first)

    gen = ["gen", "--family", "gnp", "--n", "40", "--p", "0.1",
           "--seed", "5"]
    code, first = run_cli(capsys, *gen)
    assert code == 0
    assert run_cli(capsys, *gen) == (0, first)

    bench = ["bench", "--family", "grid", "--sizes", "6,8", "--quiet"]
    code, first = run_cli(capsys, *bench)
    assert code == 0
    assert run_cli(capsys, *bench) == (0, first)
