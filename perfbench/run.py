"""Benchmark one coarsesep workload and print its metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload regular-d5 --seed 0 --seconds 40 \\
        --trace 0

The last line of standard output is the result:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
With `--trace 0` the metrics are the end-to-end ones (`solve_s`, `setup_s`,
`peak_rss_mb`); with `--trace 1` they are the per-layer ones.  The line
before it is `{"detail": ...}`: provenance, every call's time, the output
quality and every failure with its reason.  A traced run also writes its
spans to `perfbench/out/`.  `perfbench/report.py` runs every workload and
prints all metrics by name.

Exit codes: 0 when a result was printed (`correct` says whether every
output passed), 2 for bad arguments or a checkout without `src/coarsesep`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import harness
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in (0, 3600]")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "coarsesep" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from the "
              "root of a coarsesep checkout", file=sys.stderr)
        return 2
    # one client in one single-threaded process: BLAS threads would compete
    # with it for the cores and make the timings depend on machine load
    for var in harness.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    out = harness.run_workload(WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace))
    if args.trace:
        path = harness.write_spans(out["spans"], args.workload, args.seed)
        out["detail"]["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
