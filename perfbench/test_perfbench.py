"""Self-tests of the benchmark harness, on the tiny `smoke-*` workloads.

Run from the root of a checkout:

    python3 -m pytest perfbench -q

They run the same code path as the measured workloads (the same `run.py`,
harness and tracing) on inputs small enough to finish in seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from tracing import Span, Tracer, aggregate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = [name for name in WORKLOADS if name.startswith("smoke-")]


def run(workload: str, trace: int, seed: int = 0, seconds: float = 0.5,
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        harness.PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for entry in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]:
        assert len(entry.get("why", "")) <= 200 and "\n" not in entry.get(
            "why", "")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", SMOKE)
def test_smoke_run_prints_every_metric(workload, trace):
    result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # traced: an untraced-then-traced pair per instance, one more on the first
    instances = WORKLOADS[workload].instances
    minimum = 2 * (instances + 1) if trace else instances
    assert result["attempted"] >= minimum
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_counts_repeat_across_processes():
    counts = [name for name, _ in harness.COUNTS]
    first, second = (result_of(run("smoke-gnp", 1, seed=3))["metrics"]
                     for _ in range(2))
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["partition.sparse_partition.clusters"]["value"] > 0


def test_smoke_workloads_separate_the_layers():
    path = result_of(run("smoke-path", 1))["metrics"]
    assert path["flow.flow_or_sparse_cut.flow.calls"]["value"] >= 1
    assert path["fatminor.sample_crude_model.calls"]["value"] >= 1
    induced = result_of(run("smoke-induced", 1))["metrics"]
    assert induced["partition.star_partition.clusters"]["value"] > 0
    assert induced["partition.sparse_partition.clusters"]["value"] == 0
    assert induced["flow.tree_routing.calls"]["value"] >= 1


def _direct_run(workload, trace=False):
    return harness.run_workload(workload, 0, 0.1, trace)


def test_wrong_branch_counts_as_failure():
    wrong = dataclasses.replace(WORKLOADS["smoke-grid"], branch="rounding")
    out = _direct_run(wrong)
    assert not out["result"]["correct"]
    assert out["result"]["failed"] == out["result"]["attempted"]
    assert "expected 'rounding'" in out["detail"]["failures"][0]["error"]


@pytest.mark.parametrize("trace", [False, True])
def test_exception_counts_as_failure_with_its_message(trace):
    bad = dataclasses.replace(WORKLOADS["smoke-grid"], fatness=0)
    out = _direct_run(bad, trace)
    assert out["result"]["failed"] == out["result"]["attempted"] >= 1
    assert out["detail"]["failures"][0]["error"].startswith("GraphError: ")
    assert out["detail"]["failed_frac"] == 1.0


def test_tracing_restores_every_layer():
    import coarsesep.flow
    import coarsesep.pipeline
    before = (coarsesep.pipeline.sparse_partition,
              coarsesep.flow.flow_or_sparse_cut)
    workload = WORKLOADS["smoke-grid"]
    from workloads import make_inputs
    g, pattern = make_inputs(workload, 0)
    tracer = Tracer()
    call = harness.checked_call(workload, g, pattern, 0, tracer)
    assert call.error is None
    assert call.layers["partition.sparse_partition.calls"] == 1
    assert (coarsesep.pipeline.sparse_partition,
            coarsesep.flow.flow_or_sparse_cut) == before


def test_self_time_subtracts_children():
    spans = [Span("pipeline.x", 0, 10_000_000_000, -1, 0),
             Span("flow.a", 1_000_000_000, 4_000_000_000, 0, 0,
                  {"outcome": "cut"}),
             Span("graph.b", 2_000_000_000, 3_000_000_000, 1, 0),
             Span("flow.a", 5_000_000_000, 6_000_000_000, 0, 0,
                  {"outcome": "error"})]
    agg = aggregate(spans, 0)
    assert agg["pipeline.self_s"] == pytest.approx(6.0)
    assert agg["flow.a.calls"] == 2 and agg["flow.a.s"] == pytest.approx(4.0)
    assert agg["flow.a.self_s"] == pytest.approx(3.0)
    assert agg["flow.a.cut.calls"] == 1 and agg["flow.a.errors"] == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("smoke-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
