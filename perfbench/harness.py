"""Closed-loop runs of one workload: timing, correctness and layer metrics.

One client in one single-threaded process issues the next entry-point call
only after the previous one returned and was checked.  Every call is
checked with the package's independent verifiers (`verify_certificate`,
`verify_fat_model`), against the workload's expected branch and against the
radius budget; the check is timed apart from the call.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any

from tracing import Tracer, aggregate, missing_layers
from workloads import INDUCED, Workload, instance_seeds, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# (name, unit); the untraced run reports these, `BENCHMARK.json` bounds them
END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (name, unit); the traced run reports these.  Counts must repeat exactly
# between traced calls of one seed; times are medians over traced calls.
COUNTS = (
    ("partition.sparse_partition.clusters", "count"),
    ("partition.sparse_partition.strong_diameter", "hops"),
    ("partition.close_cluster_pairs.pairs", "count"),
    ("partition.star_partition.clusters", "count"),
    ("flow.flow_or_sparse_cut.calls", "count"),
    ("flow.flow_or_sparse_cut.errors", "count"),
    ("flow.flow_or_sparse_cut.cut.calls", "count"),
    ("flow.flow_or_sparse_cut.flow.calls", "count"),
    ("flow.balanced_separator_or_flow.calls", "count"),
    ("flow.balanced_separator_or_flow.steps", "count"),
    ("flow.balanced_separator_or_flow.separator.calls", "count"),
    ("graph.quotient.m", "count"),
    ("graph.induced_subgraph.calls", "count"),
    ("graph.verify_separator.calls", "count"),
    ("fatminor.sample_crude_model.calls", "count"),
    ("fatminor.lift_model.ok.calls", "count"),
    ("fatminor.lift_model.errors", "count"),
    ("flow.tree_routing.calls", "count"),
    ("flow.tree_routing.flow.calls", "count"),
    ("flow.lp.calls", "count"),
    ("flow.sweep.calls", "count"),
)
TIMES = (
    "partition.sparse_partition.s",
    "partition.close_cluster_pairs.s",
    "partition.star_partition.s",
    "flow.flow_or_sparse_cut.s",
    "flow.flow_or_sparse_cut.cut.s",
    "flow.flow_or_sparse_cut.flow.s",
    "flow.balanced_separator_or_flow.s",
    "flow.balanced_separator_or_flow.self_s",
    "flow.tree_routing.s",
    "flow.lp.s",
    "flow.sweep.s",
    "graph.power.s",
    "graph.quotient.s",
    "graph.induced_subgraph.s",
    "graph.greedy_cover.s",
    "graph.coverage_radius.s",
    "graph.verify_separator.s",
    "fatminor.sample_crude_model.s",
    "fatminor.crude_to_fat.s",
    "fatminor.lift_model.s",
    "fatminor.power_model_to_base.s",
    "pipeline.self_s",
    "pipeline.s",
    "check.verify_s",
)
QUALITY = ("separator_size", "centers", "radius", "model_vertices")
RATIOS = (
    # (name, numerator, denominator) over the counts above
    ("flow.balanced_separator_or_flow.separator_frac",
     "flow.balanced_separator_or_flow.separator.calls",
     "flow.balanced_separator_or_flow.calls"),
    ("flow.tree_routing.useful_frac",
     "flow.tree_routing.flow.calls", "flow.tree_routing.calls"),
    ("fatminor.sample_crude_model.useful_frac",
     "fatminor.lift_model.ok.calls", "fatminor.sample_crude_model.calls"),
)
PER_LAYER = (
    [(name, unit) for name, unit in COUNTS]
    + [(name, "s") for name in TIMES]
    + [(name, "frac") for name, _, _ in RATIOS]
    + [(f"quality.{q}", "count") for q in QUALITY]
    + [("trace.overhead_frac", "frac")]
)


@dataclass
class Call:
    """One checked entry-point call."""

    solve_s: float
    cpu_s: float
    verify_s: float
    branch: str
    quality: dict[str, int]
    error: str | None = None
    layers: dict[str, float] = field(default_factory=dict)
    instance: int = 0


# ---------------------------------------------------------------------------
# Provenance


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def provenance(seed: int) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Set-up time


def setup_seconds(workload: Workload, seed: int) -> float:
    """Import-plus-generate time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_time.py"), workload.name,
         str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Checked calls


def radius_budget(workload: Workload) -> int:
    if workload.entry == INDUCED:
        return 1
    budget = math.ceil(32 / workload.eps)
    return budget * workload.fatness if workload.fatness > 3 else budget


def check(workload: Workload, g, pattern, result) -> tuple[str, dict, str | None]:
    """Branch, output quality and the reason it fails (None if it passes)."""
    from coarsesep import (ModelFound, PipelineFailure, SeparatorFound,
                           verify_certificate, verify_fat_model)
    if workload.entry == INDUCED:
        branch, cert, model = "star-quotient", result, None
    elif isinstance(result, SeparatorFound):
        branch, cert, model = result.branch, result.certificate, None
    elif isinstance(result, ModelFound):
        branch, cert, model = result.branch, None, result.model
    elif isinstance(result, PipelineFailure):
        return "failure", {}, f"PipelineFailure: {result}"
    else:
        return "unknown", {}, f"unexpected result type {type(result).__name__}"
    if cert is not None:
        quality = {"separator_size": len(cert.separator),
                   "centers": len(cert.centers), "radius": cert.radius}
        report = verify_certificate(g, cert)
        reason = None if report.ok else f"certificate rejected: {report}"
        if reason is None and cert.radius > radius_budget(workload):
            reason = (f"radius {cert.radius} exceeds the budget "
                      f"{radius_budget(workload)}")
    else:
        quality = {"model_vertices": sum(len(s) for _, s in model.all_sets())}
        report = verify_fat_model(g, pattern, model, workload.fatness)
        reason = None if report.ok else (
            f"model rejected: {report.violations[:3]}")
    if reason is None and branch != workload.branch:
        reason = f"branch {branch!r}, expected {workload.branch!r}"
    return branch, quality, reason


def checked_call(workload: Workload, g, pattern, seed: int,
                 tracer: Tracer | None = None) -> Call:
    """One timed entry-point call, then its untimed independent check."""
    import coarsesep
    if workload.entry == INDUCED:
        fn, args = coarsesep.induced_minor_separator, (g,)
    else:
        config = coarsesep.PipelineConfig(
            eps=workload.eps, seed=seed,
            congestion_override=workload.congestion_override)
        fn = coarsesep.coarse_separator_or_model
        args = (g, pattern, workload.fatness, config)
    start = time.perf_counter()
    cpu = time.process_time()
    try:
        if tracer is None:
            result = fn(*args)
        else:
            with tracer.installed():
                result = tracer.call(f"pipeline.{workload.entry}", fn,
                                     args, {})
    except Exception as exc:  # a failed call is counted, never dropped
        call = Call(time.perf_counter() - start, time.process_time() - cpu,
                    0.0, "exception", {}, f"{type(exc).__name__}: {exc}")
    else:
        solve_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu
        start = time.perf_counter()
        branch, quality, reason = check(workload, g, pattern, result)
        call = Call(solve_s, cpu_s, time.perf_counter() - start, branch,
                    quality, reason)
    if tracer is not None:
        call.layers = aggregate(tracer.spans, tracer.run)
        call.layers["check.verify_s"] = call.verify_s
    return call


# ---------------------------------------------------------------------------
# Runs


def _closed_loop(seconds: float, step, min_steps: int) -> list[Call]:
    """Run `step(n)` back to back while time lasts; returns every call.

    The next step starts only if the slowest step so far would still end
    within `seconds`; at least `min_steps` steps run.
    """
    calls: list[Call] = []
    start = time.perf_counter()
    slowest = 0.0
    n = 0
    while True:
        began = time.perf_counter()
        calls.extend(step(n))
        n += 1
        slowest = max(slowest, time.perf_counter() - began)
        if (n >= min_steps
                and time.perf_counter() - start + slowest > seconds):
            return calls


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def _per_instance(calls: list[Call], value) -> float:
    """Mean over instances of the median of `value(call)` on each one."""
    by_instance: dict[int, list[float]] = {}
    for c in calls:
        by_instance.setdefault(c.instance, []).append(value(c))
    return _mean([_median(v) for v in by_instance.values()])


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict[str, Any]:
    """Measure one workload; returns the result line and its details.

    Steps visit the instances in turn, each at least once.  Untraced, a
    step is one call.  Traced, a step is an untraced call and then a traced
    call on the same instance, so that every traced call has an untraced
    neighbour to compare its output and time with; the first instance gets
    at least two steps, so that two traced calls can be compared.
    """
    seeds = instance_seeds(workload, seed)
    inputs = [make_inputs(workload, s) for s in seeds]
    tracer = Tracer() if trace else None
    setup: list[float] = []
    start = time.perf_counter()

    def step(n: int) -> list[Call]:
        # set-up samples are spread over the run: the machine's speed drifts
        # over tens of seconds, and samples taken back to back see one speed
        if (not trace and len(setup) < SETUP_REPEATS
                and (time.perf_counter() - start) * SETUP_REPEATS
                >= len(setup) * seconds):
            setup.append(setup_seconds(workload, seed))
        i = n % len(seeds)
        (g, pattern), s = inputs[i], seeds[i]
        out = []
        for use in ((None, tracer) if trace else (None,)):
            out.append(checked_call(workload, g, pattern, s, use))
            out[-1].instance = i
        return out

    calls = _closed_loop(seconds, step, len(seeds) + (1 if trace else 0))
    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(workload, seed))
    first: dict[int, Call] = {}
    first_traced: dict[int, Call] = {}
    failures = []
    for n, c in enumerate(calls):
        base = first.setdefault(c.instance, c)
        where = {"call": n, "seed": seeds[c.instance],
                 "traced": bool(c.layers)}
        if c.error:
            failures.append({**where, "error": c.error})
        elif (c.branch, c.quality) != (base.branch, base.quality):
            failures.append({**where, "error": (
                f"output differs from the first call on this instance: "
                f"{c.branch} {c.quality} vs {base.branch} {base.quality}")})
        elif c.layers:
            ref = first_traced.setdefault(c.instance, c).layers
            diff = {k: (ref.get(k, 0), c.layers.get(k, 0)) for k, _ in COUNTS
                    if ref.get(k, 0) != c.layers.get(k, 0)}
            if diff:
                failures.append({**where, "error": (
                    f"layer counts differ between traced calls: {diff}")})
    if trace:
        metrics = _layer_metrics(calls)
    else:
        metrics = {
            "solve_s": _per_instance(calls, lambda c: c.solve_s),
            "setup_s": _median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    failed = len({f["call"] for f in failures})
    units = dict(PER_LAYER if trace else END_TO_END)
    detail = {
        "workload": workload.name,
        "entry": workload.entry,
        "expected_branch": workload.branch,
        "trace": trace,
        "provenance": provenance(seed),
        "instance_seeds": seeds,
        "samples": {"calls": len(calls),
                    "traced_calls": sum(1 for c in calls if c.layers),
                    "setup": len(setup)},
        "solve_s": [c.solve_s for c in calls],
        "cpu_s": [c.cpu_s for c in calls],
        "setup_s": setup,
        "branch": [first[i].branch for i in range(len(seeds))],
        "quality": [first[i].quality for i in range(len(seeds))],
        "failed_frac": failed / len(calls),
        "failures": failures,
        "missing_layers": missing_layers(),
    }
    result = {
        "correct": not failures,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return {"detail": detail, "result": result,
            "spans": tracer.to_jsonable() if tracer else []}


def _layer_metrics(calls: list[Call]) -> dict[str, float]:
    """Per-layer metrics of one entry-point call, averaged over instances.

    Counts come from each instance's first traced call (the later ones must
    repeat them); times are each instance's median over its traced calls.
    The tracing overhead is the median, over untraced-then-traced pairs, of
    traced over untraced solve time, minus 1.
    """
    traced = [c for c in calls if c.layers]
    firsts = list({c.instance: c for c in reversed(traced)}.values())
    out = {name: _mean([c.layers.get(name, 0) for c in firsts])
           for name, _ in COUNTS}
    for name in TIMES:
        out[name] = _per_instance(traced, lambda c: c.layers.get(name, 0.0))
    for name, num, den in RATIOS:
        out[name] = out[num] / out[den] if out[den] else 0.0
    for q in QUALITY:
        out[f"quality.{q}"] = _mean([c.quality.get(q, 0) for c in firsts])
    out["trace.overhead_frac"] = _median([
        t.solve_s / u.solve_s for u, t in zip(calls[::2], calls[1::2])]) - 1.0
    return {name: out[name] for name, _ in PER_LAYER}


def write_spans(spans: list[dict], workload: str, seed: int) -> Path:
    """Spans of a traced run go to `perfbench/out/`, one file per run."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(spans))
    return path
