"""Size probe for the `induced-gnp` workload, under an address-space cap.

Usage (from the root of a checkout):

    python3 perfbench/probe_induced.py [--sizes 200,400] [--cap-mb 2048]

For each n it starts a child process that caps its own address space with
`resource.setrlimit(RLIMIT_AS)`, then times `induced_minor_separator` on
`gnp_graph(n, 4/n)` (average degree 4, as `induced-gnp` at n=400) and
reports its peak RSS.  A child that runs out of its cap reports
`MemoryError` instead of taking the machine down.  The default sizes are
quick; n=800 takes minutes and n=1600 exceeds any cap this benchmark would
set (see README.md), so add them only on purpose.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child(n: int, seed: int, cap_mb: int) -> None:
    cap = cap_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(ROOT / "src"))
    from coarsesep import induced_minor_separator, verify_certificate
    from coarsesep.generators import gnp_graph
    g = gnp_graph(n, 4.0 / n, seed=seed)
    out = {"n": n, "seed": seed, "cap_mb": cap_mb}
    start = time.perf_counter()
    try:
        cert = induced_minor_separator(g)
    except MemoryError:
        out["outcome"] = "MemoryError"
    else:
        out["outcome"] = ("verified" if verify_certificate(g, cert).ok
                          else "REJECTED")
        out["separator_size"] = len(cert.separator)
    out["solve_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="200,400")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cap-mb", type=int, default=2048)
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child, args.seed, args.cap_mb)
        return 0
    try:
        sizes = [int(x) for x in args.sizes.split(",")]
    except ValueError:
        parser.error("--sizes takes comma-separated integers")
    bad = False
    for n in sizes:
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", str(n), "--seed",
                 str(args.seed), "--cap-mb", str(args.cap_mb)],
                capture_output=True, text=True, timeout=args.timeout)
        except subprocess.TimeoutExpired:
            print(json.dumps({"n": n, "outcome": "timeout",
                              "timeout_s": args.timeout}))
            bad = True
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            print(json.dumps({"n": n, "outcome": "crashed",
                              "returncode": proc.returncode,
                              "stderr": tail[0]}))
            bad = True
            continue
        print(lines[-1])
        bad = bad or json.loads(lines[-1])["outcome"] != "verified"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
