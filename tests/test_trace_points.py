"""The benchmark's trace points still name functions of the package.

`perfbench/tracing.py` wraps layer functions by module and attribute name
and silently skips a name the package no longer has, which would zero that
layer's metrics.  Loading it by file path keeps `perfbench/` read-only.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_benchmark_trace_point_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    # the exact LP is gone, so the `flow.lp` span has nothing to wrap; its
    # entry leaves tracing.py with the next change to the benchmark, and
    # this list then goes back to empty
    assert tracing.missing_layers() == ["flow._solve_throughput_lp"]
