"""Spans around the calls into each coarsesep layer, recorded from outside.

The benchmark does not change the package.  For the length of one traced
call it replaces layer functions at the names their callers look them up
by (`coarsesep.pipeline.sparse_partition`, `coarsesep.flow.
flow_or_sparse_cut`, ...) with wrappers that record a span, then puts the
originals back.  `graph`, `partition`, `flow` and `fatminor` are the layers;
`pipeline` orchestrates them and is the root span of every call.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One call into a layer.  `parent` indexes `Tracer.spans` (-1: root)."""

    name: str
    start_ns: int
    end_ns: int
    parent: int
    run: int
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _quotient(q: Any) -> dict:
    return {"m": q.graph.m}


# (module the caller lives in, attribute the caller looks up, span name,
#  counts read from the result)
LAYERS: tuple[tuple[str, str, str, Callable[[Any], dict] | None], ...] = (
    ("pipeline", "power", "graph.power", None),
    ("pipeline", "sparse_partition", "partition.sparse_partition",
     lambda p: {"clusters": len(p.clusters),
                "strong_diameter": p.strong_diameter}),
    ("pipeline", "quotient", "graph.quotient", _quotient),
    ("partition", "quotient", "graph.quotient", _quotient),
    ("pipeline", "close_cluster_pairs", "partition.close_cluster_pairs",
     lambda c: {"pairs": len(c)}),
    ("pipeline", "star_partition", "partition.star_partition",
     lambda r: {"clusters": len(r[0].clusters)}),
    ("pipeline", "balanced_separator_or_flow",
     "flow.balanced_separator_or_flow",
     lambda r: {"steps": len(r.steps),
                "outcome": ("separator" if hasattr(r, "pieces")
                            else "flow")}),
    ("flow", "induced_subgraph", "graph.induced_subgraph", None),
    ("flow", "flow_or_sparse_cut", "flow.flow_or_sparse_cut",
     lambda r: {"outcome": ("flow" if type(r).__name__ == "ConcurrentFlow"
                            else "cut")}),
    ("pipeline", "greedy_cover", "graph.greedy_cover", None),
    ("pipeline", "coverage_radius", "graph.coverage_radius", None),
    ("pipeline", "verify_separator", "graph.verify_separator", None),
    ("pipeline", "sample_crude_model", "fatminor.sample_crude_model", None),
    ("pipeline", "crude_to_fat", "fatminor.crude_to_fat", None),
    ("pipeline", "lift_model", "fatminor.lift_model",
     lambda _: {"outcome": "ok"}),
    ("pipeline", "power_model_to_base", "fatminor.power_model_to_base",
     None),
    # Inside one flow_or_sparse_cut call.  A tree-routing attempt that fails
    # ends in a sweep cut, so the split by return type above books its time
    # under `.cut`; these spans separate routing from sweeps and the LP.
    # They use private names, which a refactor may drop: a missing one is
    # skipped and listed by `missing_layers`.
    ("flow", "_attempt_tree_flow", "flow.tree_routing",
     lambda r: {"outcome": "none" if r is None else "flow"}),
    ("flow", "_solve_throughput_lp", "flow.lp", None),
    ("flow", "_best_sweep_separation", "flow.sweep", None),
)


def missing_layers() -> list[str]:
    """`module.attribute` of every entry in `LAYERS` the package lacks."""
    return [f"{module}.{attr}" for module, attr, _, _ in LAYERS
            if not hasattr(importlib.import_module(f"coarsesep.{module}"),
                           attr)]


class Tracer:
    """Keeps every span of the benchmark run in memory, in start order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run = -1

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             describe: Callable[[Any], dict] | None = None) -> Any:
        parent = self._open[-1] if self._open else -1
        span = Span(name, 0, 0, parent, self.run)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start_ns = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.info = {"outcome": "error", "error": type(exc).__name__}
            raise
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()
        if describe is not None:
            span.info = describe(result)
        return result

    def wrap(self, name: str, fn: Callable,
             describe: Callable[[Any], dict] | None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, describe)
        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every layer in `LAYERS` for the body, then restore them."""
        self.run += 1
        saved = []
        try:
            for module_name, attr, name, describe in LAYERS:
                module = importlib.import_module(f"coarsesep.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, describe))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_jsonable(self) -> list[dict]:
        return [{"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "parent": s.parent, "run": s.run, **s.info}
                for s in self.spans]


def aggregate(spans: list[Span], run: int) -> dict[str, float]:
    """Per-name totals of one traced call (`run`).

    For every span name N: `N.calls`, `N.s` (summed duration), `N.self_s`
    (duration minus the time its child spans cover), the sum of every
    integer count in the spans' info as `N.<count>`, and for spans with an
    outcome `N.<outcome>.calls` (`N.errors` for calls that raised) and
    `N.<outcome>.s`.  The root span, the
    entry-point call itself, is reported under the name `pipeline`.
    """
    child_s: dict[int, float] = {}
    for s in spans:
        if s.run == run and s.parent >= 0:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.seconds
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for i, s in enumerate(spans):
        if s.run != run:
            continue
        name = "pipeline" if s.parent == -1 else s.name
        add(f"{name}.calls", 1)
        add(f"{name}.s", s.seconds)
        add(f"{name}.self_s", s.seconds - child_s.get(i, 0.0))
        for key, value in s.info.items():
            if key == "outcome":
                add(f"{name}.errors" if value == "error"
                    else f"{name}.{value}.calls", 1)
                add(f"{name}.{value}.s", s.seconds)
            elif isinstance(value, int):
                add(f"{name}.{key}", value)
    return out
