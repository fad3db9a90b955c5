"""Digests of the benchmark workloads' outputs, one sha256 per row.

Usage (from the root of a checkout):

    PYTHONPATH=src python tools/digests.py [row ...]

prints one `row hexdigest` line per row (every row by default).  A row's
digest is the sha256 of the `repr` of every result, concatenated with no
separator, in seed order.  A change meant to keep outputs byte-identical
keeps every digest; `tests/test_digests.py` pins them.  The rows:

* `regular-d5`: `random_regular_graph(2000, 3, seed=s)`, K3, d = 5,
  `PipelineConfig(eps=0.5, seed=s)`, s = 0..17;
* `model-path-d5`: `path_graph(3000)`, K2, d = 5, the same config with
  `congestion_override=1e15`, s = 0..17;
* `induced-gnp`: `induced_minor_separator(gnp_graph(150, 4/150, seed=s))`,
  s = 0..47;
* `gnp-d5`: `gnp_graph(300, 10/300, seed=s)`, K3, d = 5, eps 0.5,
  s = 0..8.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Any, Callable

from coarsesep import (PatternGraph, PipelineConfig, coarse_separator_or_model,
                       induced_minor_separator)
from coarsesep.generators import gnp_graph, path_graph, random_regular_graph

K2 = PatternGraph(2, [(0, 1)])
K3 = PatternGraph(3, [(0, 1), (1, 2), (0, 2)])


def _regular_d5(s: int) -> Any:
    return coarse_separator_or_model(random_regular_graph(2000, 3, seed=s),
                                     K3, 5, PipelineConfig(eps=0.5, seed=s))


def _model_path_d5(s: int) -> Any:
    config = PipelineConfig(eps=0.5, seed=s, congestion_override=1e15)
    return coarse_separator_or_model(path_graph(3000), K2, 5, config)


def _induced_gnp(s: int) -> Any:
    return induced_minor_separator(gnp_graph(150, 4 / 150, seed=s))


def _gnp_d5(s: int) -> Any:
    return coarse_separator_or_model(gnp_graph(300, 10 / 300, seed=s), K3, 5,
                                     PipelineConfig(eps=0.5, seed=s))


# row -> (one call per seed, number of seeds)
ROWS: dict[str, tuple[Callable[[int], Any], int]] = {
    "regular-d5": (_regular_d5, 18),
    "model-path-d5": (_model_path_d5, 18),
    "induced-gnp": (_induced_gnp, 48),
    "gnp-d5": (_gnp_d5, 9),
}


def digest(row: str) -> str:
    call, seeds = ROWS[row]
    text = "".join(repr(call(s)) for s in range(seeds))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str]) -> int:
    for row in argv or ROWS:
        print(row, digest(row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
