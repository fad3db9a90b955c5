"""Text formats for graphs, patterns, weights, models and results.

Graph files are plain text: a header line ``n m`` followed by exactly m
edge lines ``u v`` (0-based endpoints).  Blank lines are ignored; anything
else is rejected with the offending line number.  Patterns reuse the graph
format.  Weight files carry one ``vertex weight`` line per vertex.  Models
and results are JSON; `read_model` also reads a `separate` model result.
"""

from __future__ import annotations

import json
import math

from .fatminor import FatModel, PatternGraph
from .graph import GraphError, SeparatorCertificate, WeightedGraph
from .pipeline import ModelFound, PipelineFailure, PipelineResult


class FormatError(GraphError):
    """Malformed input file; the message names the offending line."""


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            out.append((i, line))
    return out


def _parse_edge_list(text: str, what: str) -> tuple[int, list[tuple[int, int]]]:
    lines = _content_lines(text)
    if not lines:
        raise FormatError(f"empty {what} file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(
            f"line {lineno}: header must be '<n> <m>', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(
            f"line {lineno}: header must hold two integers") from None
    if n < 0 or m < 0:
        raise FormatError(f"line {lineno}: negative counts in header")
    body = lines[1:]
    if len(body) != m:
        raise FormatError(
            f"header promises {m} edges but the file holds {len(body)}")
    seen = set()
    edges = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(
                f"line {lineno}: edge line must be '<u> <v>', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(
                f"line {lineno}: edge endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: endpoint out of range")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append((u, v))
    return n, edges


def parse_graph(text: str) -> WeightedGraph:
    n, edges = _parse_edge_list(text, "graph")
    return WeightedGraph(n, edges)


def read_graph(path: str) -> WeightedGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def format_graph(g: WeightedGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def write_graph(g: WeightedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))


def parse_pattern(text: str) -> PatternGraph:
    n, edges = _parse_edge_list(text, "pattern")
    return PatternGraph(n, edges)


def read_pattern(path: str) -> PatternGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_pattern(fh.read())


def parse_weights(text: str, n: int) -> list[float]:
    lines = _content_lines(text)
    if len(lines) != n:
        raise FormatError(
            f"weight file must hold {n} lines, got {len(lines)}")
    out: list[float | None] = [None] * n
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(
                f"line {lineno}: weight line must be '<vertex> <weight>'")
        try:
            v = int(parts[0])
            w = float(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: bad vertex or weight") from None
        if not (0 <= v < n):
            raise FormatError(f"line {lineno}: vertex {v} out of range")
        if out[v] is not None:
            raise FormatError(f"line {lineno}: vertex {v} repeated")
        if w < 0 or math.isnan(w) or math.isinf(w):
            raise FormatError(f"line {lineno}: weight must be finite and >= 0")
        out[v] = w
    return [float(x) for x in out]  # type: ignore[arg-type]


def read_weights(path: str, n: int) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        return parse_weights(fh.read(), n)


def write_weights(weights: list[float], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v, w in enumerate(weights):
            fh.write(f"{v} {w!r}\n")


def read_model(path: str) -> FatModel:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"model file is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "result" in data:
        # a result file written by `separate`
        if data["result"] != "model":
            raise FormatError("result file does not hold a model result")
        data = data.get("model")
    return FatModel.from_jsonable(data)


def write_model(model: FatModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_jsonable(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def separator_jsonable(cert: SeparatorCertificate) -> dict:
    return {
        "result": "separator",
        "S": sorted(cert.separator),
        "centers": sorted(cert.centers),
        "radius": cert.radius,
    }


def result_jsonable(res: PipelineResult) -> dict:
    """The JSON result of a pipeline run, as `separate` prints and writes it."""
    if isinstance(res, ModelFound):
        return {"result": "model", "model": res.model.to_jsonable()}
    if isinstance(res, PipelineFailure):
        return {
            "result": "failure",
            "stage": res.stage,
            "trials": res.trials,
            "collision_failures": res.collision_failures,
            "spread_failures": res.spread_failures,
            "lift_failures": res.lift_failures,
        }
    return separator_jsonable(res.certificate)


def read_separator_result(path: str) -> SeparatorCertificate:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"result file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("result") != "separator":
        raise FormatError("result file does not hold a separator result")
    try:
        sep = frozenset(int(v) for v in data["S"])
        centers = tuple(int(v) for v in data["centers"])
        radius = int(data["radius"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed separator result: {exc}") from exc
    return SeparatorCertificate(sep, centers, radius)
