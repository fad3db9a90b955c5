"""Command-line interface.

Exit codes: 0 for a positive outcome (object found, verification passed),
2 for a negative one (rounding failure, verification failure, bad input).
All output is deterministic for a fixed invocation; wall-clock timings
only appear when explicitly requested (`bench --timings`).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import time

from . import generators
from .fatminor import PatternGraph, verify_fat_model
from .fileio import (FormatError, format_graph, read_graph, read_model,
                     read_pattern, read_separator_result, read_weights,
                     model_jsonable, result_jsonable, separator_jsonable)
from .flow import ConcurrentFlow, FlowCutError, flow_or_sparse_cut
from .graph import GraphError, WeightedGraph, verify_certificate
from .oracle import (brute_force_fat_minor, exact_min_balanced_separator,
                     exact_sparsest_separation)
from .partition import (close_cluster_pairs, max_ball2_clusters,
                        sparse_partition)
from .pipeline import (ModelFound, PipelineConfig, PipelineFailure,
                       SeparatorFound, coarse_separator_or_model,
                       induced_minor_separator)


def _emit(args, obj: dict, human: str) -> None:
    """Print `obj` as JSON under --json, else `human` unless --quiet."""
    if args.json:
        # strict JSON: a non-finite float (an underflowing cut's inf) is null
        obj = {k: None if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in obj.items()}
        print(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False))
    elif not args.quiet:
        print(human)


def _load_graph(args) -> WeightedGraph:
    g = read_graph(args.graph)
    if args.weights:
        g = g.with_weights(read_weights(args.weights, g.n))
    return g


def _separator_sentence(cert) -> str:
    return (f"separator of {len(cert.separator)} vertices covered by "
            f"{len(cert.centers)} balls of radius {cert.radius}")


# ---------------------------------------------------------------------------
# Subcommands


# family -> builder(n, args); `bench` offers the families in _BENCH_FAMILIES
_FAMILIES = {
    "path": lambda n, a: generators.path_graph(n),
    "cycle": lambda n, a: generators.cycle_graph(n),
    "clique": lambda n, a: generators.complete_graph(n),
    "grid": lambda n, a: generators.grid_graph(a.rows or n, a.cols),
    "torus": lambda n, a: generators.torus_graph(a.rows or n, a.cols),
    "gnp": lambda n, a: generators.gnp_graph(n, a.p, a.seed),
    "regular": lambda n, a: generators.random_regular_graph(n, a.degree,
                                                            a.seed),
    "barbell": lambda n, a: generators.barbell_graph(n, a.bridge),
}
_BENCH_FAMILIES = ["grid", "cycle", "path", "regular", "gnp"]


def _cmd_gen(args) -> int:
    fam = args.family
    g = _FAMILIES[fam](args.n, args)
    text = format_graph(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {fam} graph with {g.n} vertices, {g.m} edges "
                  f"to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_partition(args) -> int:
    g = _load_graph(args)
    part = sparse_partition(g, args.eps, random.Random(args.seed))
    q = part.validate(g)
    close = close_cluster_pairs(q)
    stats = {
        "clusters": len(part.clusters),
        "strong_diameter": part.strong_diameter,
        "close_pairs": len(close),
        "max_ball2_clusters": max_ball2_clusters(g, part),
    }
    _emit(args, {**stats, "members": [list(c) for c in part.clusters],
                 "centers": list(part.centers)},
          f"{stats['clusters']} clusters, strong diameter "
          f"{stats['strong_diameter']}, {stats['close_pairs']} close "
          f"pairs, sparsity {stats['max_ball2_clusters']}")
    return 0


def _cmd_flowcut(args) -> int:
    res = flow_or_sparse_cut(_load_graph(args), args.gamma)
    if isinstance(res, ConcurrentFlow):
        obj = {"kind": "flow", "paths": res.path_count,
               "max_congestion": res.max_congestion()}
        human = (f"flow with {obj['paths']} paths, max congestion "
                 f"{obj['max_congestion']:.6g}")
    else:
        obj = {"kind": "cut", "side_a": sorted(res.side_a),
               "side_b": sorted(res.side_b),
               "separator": sorted(res.separator),
               "sparsity": res.sparsity}
        human = (f"cut with separator size {len(res.separator)}, sparsity "
                 f"{res.sparsity:.6g}")
    _emit(args, obj, human)
    return 0


def _cmd_separate(args) -> int:
    g = _load_graph(args)
    pattern = read_pattern(args.pattern)
    config = PipelineConfig(eps=args.eps, trials=args.trials, seed=args.seed,
                            congestion_override=args.gamma_override)
    res = coarse_separator_or_model(g, pattern, args.fatness, config)
    obj = result_jsonable(res)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if isinstance(res, SeparatorFound):
        human = _separator_sentence(res.certificate)
    elif isinstance(res, ModelFound):
        sizes = sorted(len(s) for s in res.model.vertex_sets.values())
        human = (f"model at fatness {res.model.fatness}, branch-set sizes "
                 f"{sizes}")
    else:
        human = (f"failure after {res.trials} trials "
                 f"(collisions {res.collision_failures}, spread "
                 f"{res.spread_failures})")
    _emit(args, obj, human)
    return 2 if isinstance(res, PipelineFailure) else 0


def _cmd_induced_sep(args) -> int:
    g = _load_graph(args)
    cert = induced_minor_separator(g)
    _emit(args, separator_jsonable(cert), _separator_sentence(cert))
    return 0


def _cmd_verify_model(args) -> int:
    g = _load_graph(args)
    pattern = read_pattern(args.pattern)
    model = read_model(args.model)
    report = verify_fat_model(g, pattern, model, args.fatness)
    _emit(args, {"ok": report.ok, "violations": list(report.violations)},
          f"model is valid at fatness {args.fatness}" if report.ok
          else "\n".join(f"violation: {v}" for v in report.violations))
    return 0 if report.ok else 2


def _cmd_verify_separator(args) -> int:
    g = _load_graph(args)
    report = verify_certificate(g, read_separator_result(args.result))
    _emit(args, {"ok": report.ok, "balanced": report.balanced,
                 "covered": report.covered,
                 "heaviest_component": report.heaviest_component,
                 "uncovered": report.uncovered},
          f"balanced={report.balanced} covered={report.covered} "
          f"heaviest={report.heaviest_component:.6g}")
    return 0 if report.ok else 2


def _cmd_oracle(args) -> int:
    g = _load_graph(args)
    if args.kind == "fatminor":
        if not args.pattern:
            raise GraphError("oracle fatminor needs --pattern")
        pattern = read_pattern(args.pattern)
        model = brute_force_fat_minor(g, pattern, args.fatness)
        if model is None:
            _emit(args, {"exists": False}, "no model exists")
            return 2
        _emit(args, {"exists": True, "model": model_jsonable(model)},
              f"model exists at fatness {args.fatness}")
        return 0
    if args.kind == "sparsest":
        sep = exact_sparsest_separation(g)
        if sep is None:
            _emit(args, {"exists": False}, "no separation exists")
            return 2
        _emit(args, {"exists": True, "side_a": sorted(sep.side_a),
                     "side_b": sorted(sep.side_b), "sparsity": sep.sparsity},
              f"sparsest separation has sparsity {sep.sparsity:.6g}")
        return 0
    s = exact_min_balanced_separator(g)
    _emit(args, {"separator": sorted(s)},
          f"minimum balanced separator has {len(s)} vertices")
    return 0


_BENCH_FIELDS = ["n", "branch", "separator_size", "centers", "radius",
                 "runtime_s", "verified"]


def _cmd_bench(args) -> int:
    try:
        sizes = [int(x) for x in args.sizes.split(",") if x]
    except ValueError:
        raise GraphError(f"--sizes needs comma-separated integers, got "
                         f"{args.sizes!r}") from None
    k = args.pattern_clique
    pat = PatternGraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_BENCH_FIELDS)
    for n in sizes:
        g = _FAMILIES[args.family](n, args)
        config = PipelineConfig(eps=args.eps, seed=args.seed)
        start = time.perf_counter()
        res = coarse_separator_or_model(g, pat, args.fatness, config)
        elapsed = time.perf_counter() - start
        runtime = f"{elapsed:.3f}" if args.timings else ""
        # the pipeline verified every answer it returned, on g
        if isinstance(res, SeparatorFound):
            cert = res.certificate
            writer.writerow([g.n, "separator", len(cert.separator),
                             len(cert.centers), cert.radius, runtime, True])
        elif isinstance(res, ModelFound):  # pragma: no cover - see below
            # no congestion override here, and the default budget needs about
            # 50,000 clusters to round: at pure-Python sizes rows separate
            writer.writerow([g.n, "model", "", "", "", runtime, True])
        else:
            writer.writerow([g.n, "failure", "", "", "", runtime, False])
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {len(sizes)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for every random choice (default 0)")
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    common.add_argument("--quiet", action="store_true",
                        help="suppress human-readable output")
    # the graph file and its optional weights, for every command reading one
    graph_args = argparse.ArgumentParser(add_help=False)
    graph_args.add_argument("graph")
    graph_args.add_argument("--weights", default=None)

    parser = argparse.ArgumentParser(
        prog="coarsesep",
        description="Balanced separators and fat pattern minors.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", parents=[common],
                        help="write a generated graph")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--n", type=int, default=0,
                   help="vertex count (cliques, paths, ...) or side length")
    p.add_argument("--rows", type=int, default=0)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--p", type=float, default=0.5,
                   help="edge probability for gnp")
    p.add_argument("--degree", type=int, default=3,
                   help="degree for regular graphs")
    p.add_argument("--bridge", type=int, default=0,
                   help="bridge length for barbells")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("partition", parents=[common, graph_args],
                        help="sparse low-diameter partition statistics")
    p.add_argument("--eps", type=float, default=1.0)
    p.set_defaults(func=_cmd_partition)

    p = subs.add_parser("flowcut", parents=[common, graph_args],
                        help="concurrent flow or sparse separation")
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_flowcut)

    p = subs.add_parser("separate", parents=[common, graph_args],
                        help="balanced separator certificate or fat model")
    p.add_argument("--pattern", required=True)
    p.add_argument("--fatness", type=int, default=3)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--gamma-override", type=float, default=None,
                   dest="gamma_override")
    p.add_argument("--out", default=None,
                   help="also write the JSON result here")
    p.set_defaults(func=_cmd_separate)

    p = subs.add_parser("induced-sep", parents=[common, graph_args],
                        help="balanced separator from a star quotient")
    p.set_defaults(func=_cmd_induced_sep)

    p = subs.add_parser("verify-model", parents=[common, graph_args],
                        help="check a fat-minor model file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--fatness", type=int, required=True)
    p.set_defaults(func=_cmd_verify_model)

    p = subs.add_parser("verify-separator", parents=[common, graph_args],
                        help="check a separator result file")
    p.add_argument("--result", required=True)
    p.set_defaults(func=_cmd_verify_separator)

    # `kind` comes before the graph, so it needs a parent of its own
    oracle_kind = argparse.ArgumentParser(add_help=False)
    oracle_kind.add_argument("kind",
                             choices=["fatminor", "sparsest", "balanced"])
    p = subs.add_parser("oracle", parents=[common, oracle_kind, graph_args],
                        help="exhaustive ground truth on small inputs")
    p.add_argument("--pattern", default=None)
    p.add_argument("--fatness", type=int, default=1)
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("bench", parents=[common],
                        help="run the pipeline across sizes, emit CSV")
    p.add_argument("--family", default="grid", choices=_BENCH_FAMILIES)
    p.add_argument("--sizes", required=True,
                   help="comma-separated size list")
    p.add_argument("--fatness", type=int, default=3)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.05)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--pattern-clique", type=int, default=3,
                   dest="pattern_clique")
    p.add_argument("--timings", action="store_true",
                   help="fill the runtime column (non-deterministic)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench, rows=0, cols=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Pin BLAS to one thread: the spectral sweep order's dense LAPACK calls
    # (`eigvalsh` and `solve`) would compete with BLAS threads for the
    # cores; the `eigh` they replaced ran 8-49x slower unpinned.  numpy is
    # imported lazily, so this runs before it loads; `setdefault` keeps a
    # value set outside.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, GraphError, FlowCutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
