"""Seeded workloads for the coarsesep benchmark.

Each workload names one public entry point, the inputs it is called on and
the branch a correct answer must take.  A run calls the entry point on a few
instances; each instance seed, derived from the benchmark's `--seed`, is
both the generator seed of the host and `PipelineConfig.seed`, so one
`--seed` fixes every call of the run.  Why each workload exists, and which
layer it isolates, is in `perfbench/README.md` and in `BENCHMARK.json`.

The `smoke-*` workloads run the same harness on tiny inputs so that the
benchmark's own tests finish in seconds; `BENCHMARK.json` does not list
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

SEPARATOR = "coarse_separator_or_model"
INDUCED = "induced_minor_separator"

K2 = (2, ((0, 1),))
K3 = (3, ((0, 1), (1, 2), (0, 2)))


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a host generator plus the call made on it.

    `host(generators, seed)` builds the host graph from the package's
    `generators` module; `branch` is the only answer that counts as a
    success.  `pattern`, `fatness`, `eps` and `congestion_override` are
    used by the `coarse_separator_or_model` entry point only.  A run calls
    the entry point on `instances` inputs, one per instance seed.
    """

    name: str
    entry: str
    branch: str
    host: Callable[[Any, int], Any]
    pattern: tuple[int, tuple[tuple[int, int], ...]] = K3
    fatness: int = 5
    eps: float = 0.5
    congestion_override: float | None = None
    instances: int = 3


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # the generator resamples until the pairing model gives a simple graph,
    # so set-up time varies between seeds; more graphs even it out
    Workload("regular-d5", SEPARATOR, "peeling",
             lambda gen, seed: gen.random_regular_graph(2000, 3, seed=seed),
             instances=6),
    # not in BENCHMARK.json: its time budget holds three workloads at the
    # run length a steady solve_s needs (see README.md)
    Workload("gnp-d5", SEPARATOR, "peeling",
             lambda gen, seed: gen.gnp_graph(300, 10 / 300, seed=seed)),
    # the host is fixed; the pipeline seed moves the partition, hence the
    # routed flow's size and the peak memory, so a run takes the largest
    # of several seeds' peaks
    Workload("model-path-d5", SEPARATOR, "rounding",
             lambda gen, seed: gen.path_graph(3000), pattern=K2,
             congestion_override=1e15, instances=6),
    # the retry count, and with it the time, varies by about 25 % between
    # graphs here, so a run averages over many of them
    Workload("induced-gnp", INDUCED, "star-quotient",
             lambda gen, seed: gen.gnp_graph(150, 4 / 150, seed=seed),
             instances=16),
    # tiny versions of the four above, for the benchmark's self-tests
    Workload("smoke-grid", SEPARATOR, "peeling",
             lambda gen, seed: gen.grid_graph(8)),
    Workload("smoke-gnp", SEPARATOR, "peeling",
             lambda gen, seed: gen.gnp_graph(60, 0.08, seed=seed)),
    # the smallest path on which the override reaches rounding
    Workload("smoke-path", SEPARATOR, "rounding",
             lambda gen, seed: gen.path_graph(1200), pattern=K2, fatness=3,
             eps=1.0, congestion_override=1e15),
    Workload("smoke-induced", INDUCED, "star-quotient",
             lambda gen, seed: gen.gnp_graph(40, 0.06, seed=seed)),
)}


def instance_seeds(workload: Workload, seed: int) -> list[int]:
    """Seeds of a run's instances: generator and `PipelineConfig` seed."""
    return [seed * workload.instances + i for i in range(workload.instances)]


def make_inputs(workload: Workload, seed: int):
    """Host graph and pattern for one seed; imports the package lazily."""
    from coarsesep import PatternGraph, generators
    host = workload.host(generators, seed)
    n, edges = workload.pattern
    return host, PatternGraph(n, list(edges))
