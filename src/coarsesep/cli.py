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
import random
import sys
import time

from . import generators
from .fatminor import PatternGraph, verify_fat_model
from .fileio import (FormatError, format_graph, read_graph, read_model,
                     read_pattern, read_separator_result, read_weights)
from .flow import ConcurrentFlow, FlowCutError, flow_or_sparse_cut
from .graph import GraphError, WeightedGraph, quotient, verify_separator
from .oracle import (brute_force_fat_minor, exact_min_balanced_separator,
                     exact_sparsest_separation)
from .partition import (close_cluster_pairs, max_ball2_clusters,
                        sparse_partition)
from .pipeline import (ModelFound, PipelineConfig, PipelineFailure,
                       SeparatorFound, coarse_separator_or_model,
                       induced_minor_separator)


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _load_graph(args) -> WeightedGraph:
    g = read_graph(args.graph)
    if getattr(args, "weights", None):
        g = g.with_weights(read_weights(args.weights, g.n))
    return g


def _separator_json(cert) -> dict:
    return {
        "result": "separator",
        "S": sorted(cert.separator),
        "centers": sorted(cert.centers),
        "radius": cert.radius,
    }


def _result_json(res) -> dict:
    if isinstance(res, SeparatorFound):
        return _separator_json(res.certificate)
    if isinstance(res, ModelFound):
        return {"result": "model", "model": res.model.to_jsonable()}
    assert isinstance(res, PipelineFailure)
    return {
        "result": "failure",
        "stage": res.stage,
        "trials": res.trials,
        "collision_failures": res.collision_failures,
        "spread_failures": res.spread_failures,
        "lift_failures": res.lift_failures,
    }


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args) -> int:
    fam = args.family
    if fam == "path":
        g = generators.path_graph(args.n)
    elif fam == "cycle":
        g = generators.cycle_graph(args.n)
    elif fam == "clique":
        g = generators.complete_graph(args.n)
    elif fam == "grid":
        g = generators.grid_graph(args.rows or args.n, args.cols)
    elif fam == "torus":
        g = generators.torus_graph(args.rows or args.n, args.cols)
    elif fam == "gnp":
        g = generators.gnp_graph(args.n, args.p, args.seed)
    elif fam == "regular":
        g = generators.random_regular_graph(args.n, args.degree, args.seed)
    else:
        g = generators.barbell_graph(args.n, args.bridge)
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
    part.validate(g)
    q = quotient(g, part.clusters)
    close = close_cluster_pairs(q)
    stats = {
        "clusters": len(part.clusters),
        "strong_diameter": part.strong_diameter,
        "close_pairs": len(close),
        "max_ball2_clusters": max_ball2_clusters(g, part),
    }
    if args.json:
        _print_json({**stats,
                     "members": [list(c) for c in part.clusters],
                     "centers": list(part.centers)})
    elif not args.quiet:
        print(f"{stats['clusters']} clusters, strong diameter "
              f"{stats['strong_diameter']}, {stats['close_pairs']} close "
              f"pairs, sparsity {stats['max_ball2_clusters']}")
    return 0


def _cmd_flowcut(args) -> int:
    g = _load_graph(args)
    try:
        res = flow_or_sparse_cut(g, args.gamma)
    except FlowCutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    if args.json:
        _print_json(obj)
    elif not args.quiet:
        print(human)
    return 0


def _cmd_separate(args) -> int:
    g = _load_graph(args)
    pattern = read_pattern(args.pattern)
    config = PipelineConfig(eps=args.eps, trials=args.trials, seed=args.seed,
                            congestion_override=args.gamma_override)
    res = coarse_separator_or_model(g, pattern, args.fatness, config)
    obj = _result_json(res)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.json:
        _print_json(obj)
    elif not args.quiet:
        if isinstance(res, SeparatorFound):
            cert = res.certificate
            print(f"separator of {len(cert.separator)} vertices covered by "
                  f"{len(cert.centers)} balls of radius {cert.radius}")
        elif isinstance(res, ModelFound):
            sizes = sorted(len(s) for s in res.model.vertex_sets.values())
            print(f"model at fatness {res.model.fatness}, branch-set sizes "
                  f"{sizes}")
        else:
            print(f"failure after {res.trials} trials "
                  f"(collisions {res.collision_failures}, spread "
                  f"{res.spread_failures}, lifts {res.lift_failures})")
    return 2 if isinstance(res, PipelineFailure) else 0


def _cmd_induced_sep(args) -> int:
    g = _load_graph(args)
    cert = induced_minor_separator(g)
    obj = _separator_json(cert)
    if args.json:
        _print_json(obj)
    elif not args.quiet:
        print(f"separator of {len(cert.separator)} vertices covered by "
              f"{len(cert.centers)} balls of radius {cert.radius}")
    return 0


def _cmd_verify_model(args) -> int:
    g = _load_graph(args)
    pattern = read_pattern(args.pattern)
    model = read_model(args.model)
    report = verify_fat_model(g, pattern, model, args.fatness)
    if args.json:
        _print_json({"ok": report.ok, "violations": list(report.violations)})
    elif not args.quiet:
        if report.ok:
            print(f"model is valid at fatness {args.fatness}")
        else:
            for v in report.violations:
                print(f"violation: {v}")
    return 0 if report.ok else 2


def _cmd_verify_separator(args) -> int:
    g = _load_graph(args)
    res = read_separator_result(args.result)
    report = verify_separator(g, res.separator, res.centers, res.radius)
    if args.json:
        _print_json({"ok": report.ok, "balanced": report.balanced,
                     "covered": report.covered,
                     "heaviest_component": report.heaviest_component,
                     "uncovered": report.uncovered})
    elif not args.quiet:
        print(f"balanced={report.balanced} covered={report.covered} "
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
            if args.json:
                _print_json({"exists": False})
            elif not args.quiet:
                print("no model exists")
            return 2
        if args.json:
            _print_json({"exists": True, "model": model.to_jsonable()})
        elif not args.quiet:
            print(f"model exists at fatness {args.fatness}")
        return 0
    if args.kind == "sparsest":
        sep = exact_sparsest_separation(g)
        if sep is None:
            if args.json:
                _print_json({"exists": False})
            elif not args.quiet:
                print("no separation exists")
            return 2
        if args.json:
            _print_json({"exists": True, "side_a": sorted(sep.side_a),
                         "side_b": sorted(sep.side_b),
                         "sparsity": sep.sparsity})
        elif not args.quiet:
            print(f"sparsest separation has sparsity {sep.sparsity:.6g}")
        return 0
    s = exact_min_balanced_separator(g)
    if s is None:  # pragma: no cover - removing everything always balances
        return 2
    if args.json:
        _print_json({"separator": sorted(s)})
    elif not args.quiet:
        print(f"minimum balanced separator has {len(s)} vertices")
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
        if args.family == "grid":
            g = generators.grid_graph(n)
        elif args.family == "cycle":
            g = generators.cycle_graph(n)
        elif args.family == "path":
            g = generators.path_graph(n)
        elif args.family == "regular":
            g = generators.random_regular_graph(n, args.degree, args.seed)
        else:
            g = generators.gnp_graph(n, args.p, args.seed)
        config = PipelineConfig(eps=args.eps, seed=args.seed)
        start = time.perf_counter()
        res = coarse_separator_or_model(g, pat, args.fatness, config)
        elapsed = time.perf_counter() - start
        runtime = f"{elapsed:.3f}" if args.timings else ""
        if isinstance(res, SeparatorFound):
            cert = res.certificate
            report = verify_separator(g, cert.separator, cert.centers,
                                      cert.radius)
            writer.writerow([g.n, "separator", len(cert.separator),
                             len(cert.centers), cert.radius, runtime,
                             report.ok])
        elif isinstance(res, ModelFound):
            report = verify_fat_model(g, pat, res.model, args.fatness)
            writer.writerow([g.n, "model", "", "", "", runtime, report.ok])
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

    parser = argparse.ArgumentParser(
        prog="coarsesep",
        description="Balanced separators and fat pattern minors.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", parents=[common],
                        help="write a generated graph")
    p.add_argument("--family", required=True,
                   choices=["path", "cycle", "clique", "grid", "torus",
                            "gnp", "regular", "barbell"])
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

    p = subs.add_parser("partition", parents=[common],
                        help="sparse low-diameter partition statistics")
    p.add_argument("graph")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--weights", default=None)
    p.set_defaults(func=_cmd_partition)

    p = subs.add_parser("flowcut", parents=[common],
                        help="concurrent flow or sparse separation")
    p.add_argument("graph")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--weights", default=None)
    p.set_defaults(func=_cmd_flowcut)

    p = subs.add_parser("separate", parents=[common],
                        help="balanced separator certificate or fat model")
    p.add_argument("graph")
    p.add_argument("--pattern", required=True)
    p.add_argument("--fatness", type=int, default=3)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--gamma-override", type=float, default=None,
                   dest="gamma_override")
    p.add_argument("--weights", default=None)
    p.add_argument("--out", default=None,
                   help="also write the JSON result here")
    p.set_defaults(func=_cmd_separate)

    p = subs.add_parser("induced-sep", parents=[common],
                        help="balanced separator from a star quotient")
    p.add_argument("graph")
    p.add_argument("--weights", default=None)
    p.set_defaults(func=_cmd_induced_sep)

    p = subs.add_parser("verify-model", parents=[common],
                        help="check a fat-minor model file")
    p.add_argument("graph")
    p.add_argument("--pattern", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--fatness", type=int, required=True)
    p.add_argument("--weights", default=None)
    p.set_defaults(func=_cmd_verify_model)

    p = subs.add_parser("verify-separator", parents=[common],
                        help="check a separator result file")
    p.add_argument("graph")
    p.add_argument("--result", required=True)
    p.add_argument("--weights", default=None)
    p.set_defaults(func=_cmd_verify_separator)

    p = subs.add_parser("oracle", parents=[common],
                        help="exhaustive ground truth on small inputs")
    p.add_argument("kind", choices=["fatminor", "sparsest", "balanced"])
    p.add_argument("graph")
    p.add_argument("--pattern", default=None)
    p.add_argument("--fatness", type=int, default=1)
    p.add_argument("--weights", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("bench", parents=[common],
                        help="run the pipeline across sizes, emit CSV")
    p.add_argument("--family", default="grid",
                   choices=["grid", "cycle", "path", "regular", "gnp"])
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
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
