"""Text formats for graphs, patterns, weights, models and results.

Graph files are plain text: a header line ``n m`` followed by exactly m
edge lines ``u v`` (0-based endpoints).  Blank lines are ignored; anything
else is rejected with the offending line number.  Patterns reuse the graph
format.  Weight files carry one ``vertex weight`` line per vertex.  Models
and results are JSON; `read_model` also reads a `separate` model result.
Their vertex ids, radius and fatness must be JSON integers, and anything
else is rejected with a FormatError that names the key.  Every file is
read as UTF-8; other bytes raise a FormatError too.
"""

from __future__ import annotations

import json
import math

from .fatminor import FatModel, PatternGraph
from .graph import GraphError, SeparatorCertificate, WeightedGraph
from .pipeline import ModelFound, PipelineFailure, PipelineResult


class FormatError(GraphError):
    """Malformed input file; the message names the offending line."""


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of `path`; `what` heads the FormatError if it is not."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what}: {exc}") from exc


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
    return parse_graph(_read_text(path, "graph file is not valid UTF-8"))


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
    return parse_pattern(_read_text(path, "pattern file is not valid UTF-8"))


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
    return parse_weights(_read_text(path, "weight file is not valid UTF-8"), n)


def write_weights(weights: list[float], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v, w in enumerate(weights):
            fh.write(f"{v} {w!r}\n")


_JSON_KINDS = {int: "integer", list: "array", dict: "object"}


def _checked(value: object, kind: type, label: str):
    # bool is an int subclass, and a float such as 1.7 or 1e400 is no vertex
    if type(value) is not kind:
        raise FormatError(
            f"{label} must be a JSON {_JSON_KINDS[kind]}, got {value!r:.40}")
    return value


def _id_list(value: object, label: str) -> list[int]:
    return [_checked(v, int, f"{label} entry")
            for v in _checked(value, list, label)]


def _key_ids(key: str, count: int, label: str) -> tuple[int, ...]:
    """The vertex ids of an object key: one ('3') or, for an edge, two."""
    parts = key.split("-")
    if len(parts) != count or not all(p.isascii() and p.isdigit()
                                      for p in parts):
        want = "a vertex id" if count == 1 else "an edge 'u-v'"
        raise FormatError(f"{label} key {key!r:.40} is not {want}")
    return tuple(map(int, parts))


def model_jsonable(model: FatModel) -> dict:
    return {
        "fatness": model.fatness,
        "vertex_sets": {str(u): sorted(s)
                        for u, s in sorted(model.vertex_sets.items())},
        "edge_sets": {f"{u}-{v}": sorted(s)
                      for (u, v), s in sorted(model.edge_sets.items())},
    }


def model_from_jsonable(data: object) -> FatModel:
    """The model `model_jsonable` wrote; FormatError names a malformed key."""
    if not isinstance(data, dict):
        raise FormatError("model data is not a JSON object")
    vertex_sets = _checked(data.get("vertex_sets"), dict, "'vertex_sets'")
    edge_sets = _checked(data.get("edge_sets"), dict, "'edge_sets'")
    return FatModel(
        _checked(data.get("fatness"), int, "'fatness'"),
        {_key_ids(k, 1, "'vertex_sets'")[0]: frozenset(
            _id_list(vs, f"'vertex_sets' {k!r:.40}"))
         for k, vs in vertex_sets.items()},
        {_key_ids(k, 2, "'edge_sets'"): frozenset(
            _id_list(vs, f"'edge_sets' {k!r:.40}"))
         for k, vs in edge_sets.items()})


def _read_json(path: str, what: str) -> object:
    # JSON text is UTF-8, so bytes that are not are invalid JSON too
    label = f"{what} file is not valid JSON"
    text = _read_text(path, label)
    try:
        return json.loads(text)
    # a JSONDecodeError, or nesting deeper than the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{label}: {exc}") from exc


def read_model(path: str) -> FatModel:
    data = _read_json(path, "model")
    if isinstance(data, dict) and "result" in data:
        # a result file written by `separate`
        if data["result"] != "model":
            raise FormatError("result file does not hold a model result")
        data = data.get("model")
    return model_from_jsonable(data)


def write_model(model: FatModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_jsonable(model), fh, indent=2, sort_keys=True)
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
        return {"result": "model", "model": model_jsonable(res.model)}
    if isinstance(res, PipelineFailure):
        return {
            "result": "failure",
            "stage": res.stage,
            "trials": res.trials,
            "collision_failures": res.collision_failures,
            "spread_failures": res.spread_failures,
        }
    return separator_jsonable(res.certificate)


def read_separator_result(path: str) -> SeparatorCertificate:
    data = _read_json(path, "result")
    if not isinstance(data, dict) or data.get("result") != "separator":
        raise FormatError("result file does not hold a separator result")
    return SeparatorCertificate(
        frozenset(_id_list(data.get("S"), "'S'")),
        tuple(_id_list(data.get("centers"), "'centers'")),
        _checked(data.get("radius"), int, "'radius'"))
