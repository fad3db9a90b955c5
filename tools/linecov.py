"""Opt-in line coverage of `src/coarsesep` for a pytest run, stdlib only.

Usage (from the root of a checkout):

    PYTHONPATH=tools python -m pytest -p linecov [pytest args]

The plugin traces the test process with `sys.settrace` and, at the end of
the run, lists per module the executable lines of `src/coarsesep` that
never ran.  If any did, the run fails (exit status 1), so the full suite
passes under it only when every line runs or is marked.  It is loaded
only by `-p linecov`; the test suite does not collect `tools/`.  Tracing
makes a full run about five times slower.

What it cannot see: code run in a subprocess (the tests that start
`python -c`) and code run in other threads.  A line marked
`# pragma: no cover` is not listed, nor is the rest of a block that such a
line opens.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coarsesep"
_PRAGMA = "# pragma: no cover"


def _code_lines(code) -> set[int]:
    """Line numbers of the code object and of every code object in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _excluded(source: str) -> set[int]:
    """Lines marked with the pragma, with the whole block each one opens."""
    marked = {i for i, line in enumerate(source.splitlines(), 1)
              if _PRAGMA in line}
    out = set(marked)
    for node in ast.walk(ast.parse(source)):
        if getattr(node, "lineno", None) in marked:
            out.update(range(node.lineno, node.end_lineno + 1))
    return out


def _ranges(lines: list[int]) -> str:
    parts: list[list[int]] = []
    for line in lines:
        if parts and parts[-1][1] == line - 1:
            parts[-1][1] = line
        else:
            parts.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in parts)


class LineCoverage:
    """Records the lines run in the files under `root` while it traces."""

    def __init__(self, root: Path = SRC):
        self.root = root
        self.hits: dict[str, set[int]] = {}
        # code object -> the line tracer of its file, None outside root
        self._tracers: dict[object, object] = {}
        self.report: dict[str, list[int]] = {}

    def _line_tracer(self, name: str):
        add = self.hits.setdefault(name, set()).add

        def trace(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace
        return trace

    def _trace_call(self, frame, event, arg):
        code = frame.f_code
        try:
            return self._tracers[code]
        except KeyError:
            name = code.co_filename
            tracer = (self._line_tracer(name)
                      if name.startswith(str(self.root)) else None)
            self._tracers[code] = tracer
            return tracer

    def start(self) -> None:
        sys.settrace(self._trace_call)

    def stop(self) -> None:
        sys.settrace(None)

    def unexecuted(self) -> dict[str, list[int]]:
        """Executable lines that never ran, by module file name."""
        report = {}
        for path in sorted(self.root.glob("*.py")):
            source = path.read_text()
            lines = _code_lines(compile(source, str(path), "exec"))
            lines -= _excluded(source)
            lines.discard(0)  # a module's RESUME, which no line event marks
            report[path.name] = sorted(lines - self.hits.get(str(path),
                                                             set()))
        return report

    # pytest hooks, active once `pytest_configure` registers the object

    def pytest_runtest_setup(self, item) -> None:
        # an exception inside the tracer, such as the RecursionError of a
        # test that nests past the recursion limit, switches tracing off
        if sys.gettrace() is None:
            self.start()

    def pytest_unconfigure(self, config) -> None:
        self.stop()

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        # runs before the terminal summary, and its exit status is the run's
        self.stop()
        self.report = self.unexecuted()
        if exitstatus == pytest.ExitCode.OK and any(self.report.values()):
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter) -> None:
        terminalreporter.section(f"unexecuted lines of {self.root.name}")
        total = 0
        for name, missed in self.report.items():
            total += len(missed)
            terminalreporter.write_line(
                f"{name}: {len(missed)}"
                + (f"  {_ranges(missed)}" if missed else ""))
        terminalreporter.write_line(f"total: {total}")
        if total:
            terminalreporter.write_line(
                "line coverage failed: every line must run or be marked "
                f"'{_PRAGMA}' with a reason", red=True)


def pytest_configure(config) -> None:
    coverage = LineCoverage()
    config.pluginmanager.register(coverage, "linecov-tracer")
    coverage.start()
