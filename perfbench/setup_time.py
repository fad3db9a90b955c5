"""Time the set-up of one workload in this fresh interpreter.

Usage: python3 perfbench/setup_time.py <workload> <seed>

Prints the seconds spent importing coarsesep and generating the hosts and
patterns of the run's instances.  A run starts this script five times,
spread over the run, and reports the median as `setup_s`; a fresh
interpreter is needed because a process pays for an import only once.
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS, instance_seeds, make_inputs


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import coarsesep  # noqa: F401  (the import is what is timed)
    for instance in instance_seeds(workload, seed):
        make_inputs(workload, instance)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
