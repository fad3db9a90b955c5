"""Run every benchmark workload and print every metric by name and unit.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--seed 0] [--seconds N] [--workloads a,b]

By default it covers every workload in `workloads.py` except the `smoke-*`
ones, including `gnp-d5`, which `BENCHMARK.json` leaves out.  For each
workload it starts `run.py` twice, one process after the other:
untraced for the end-to-end metrics and traced for the per-layer ones.
Each process is fresh, so `peak_rss_mb` belongs to that workload alone.
It then prints provenance, each workload's branch, output quality,
`failed_frac` with its sample count, every metric, and the share of traced
`solve_s` (`pipeline.s`) spent in the layers the workloads isolate.

Exits 1 when any output failed its check (and lists each failure with its
reason), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# the layer each workload is built to load (see README.md)
SHARES = (
    "partition.sparse_partition.s",
    "partition.close_cluster_pairs.s",
    "flow.flow_or_sparse_cut.cut.s",
    "flow.flow_or_sparse_cut.flow.s",
    "flow.tree_routing.s",
)


def run_once(workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} --trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        name for name in WORKLOADS if not name.startswith("smoke-")))
    args = parser.parse_args(argv)

    failed = False
    printed_provenance = False
    for name in args.workloads.split(","):
        for trace in (0, 1):
            try:
                detail, result = run_once(name, args.seed, args.seconds, trace)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"{name} trace={trace}: FAILED to run: {exc}")
                failed = True
                continue
            if not printed_provenance:
                print("provenance:", json.dumps(detail["provenance"]))
                printed_provenance = True
            kind = "traced" if trace else "untraced"
            print(f"\n== {name} ({kind}) branch={detail['branch']} "
                  f"quality={json.dumps(detail['quality'])}")
            print(f"  failed_frac = {detail['failed_frac']:.4g} frac "
                  f"({result['failed']} of {result['attempted']} calls; "
                  f"setup samples {detail['samples']['setup']})")
            for failure in detail["failures"]:
                print(f"  FAILURE {json.dumps(failure)}")
            failed = failed or not result["correct"]
            metrics = result["metrics"]
            for metric, m in metrics.items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            if trace and metrics["pipeline.s"]["value"] > 0:
                total = metrics["pipeline.s"]["value"]
                shares = ", ".join(
                    f"{s[:-2]} {metrics[s]['value'] / total:.0%}"
                    for s in SHARES)
                print(f"  share of traced solve_s: {shares}")
    print("\nresult:", "FAILED" if failed else "all outputs verified")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
