import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsesep
from coarsesep import (FatModel, ModelFound, PatternGraph,
                       SeparatorCertificate, SeparatorFound, WeightedGraph,
                       verify_certificate)
from coarsesep.cli import main
from coarsesep.flow import FlowCutError
from coarsesep.fileio import (
    FormatError,
    format_graph,
    parse_graph,
    parse_pattern,
    parse_weights,
    read_graph,
    read_model,
    read_separator_result,
    read_weights,
    result_jsonable,
    separator_jsonable,
    write_graph,
    write_model,
    write_weights,
)
from coarsesep.generators import (
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    torus_graph,
)


# ---------------------------------------------------------------------------
# Text formats


def test_graph_round_trip(tmp_path):
    g = gnp_graph(15, 0.3, seed=6)
    path = tmp_path / "g.txt"
    write_graph(g, str(path))
    again = read_graph(str(path))
    assert again.n == g.n
    assert again.edges() == g.edges()


def test_parse_graph_reports_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_graph("3\n0 1\n")
    with pytest.raises(FormatError, match="line 3: endpoint out of range"):
        parse_graph("3 2\n0 1\n0 7\n")
    with pytest.raises(FormatError, match="line 2: self-loop"):
        parse_graph("3 1\n1 1\n")
    with pytest.raises(FormatError, match="duplicate edge"):
        parse_graph("3 2\n0 1\n1 0\n")
    with pytest.raises(FormatError, match="promises 2 edges"):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(FormatError, match="empty graph file"):
        parse_graph("\n\n")


def test_parse_graph_skips_blank_lines():
    g = parse_graph("\n3 2\n\n0 1\n\n1 2\n\n")
    assert g.n == 3 and g.m == 2


def test_parse_pattern_uses_graph_format():
    pat = parse_pattern("3 2\n2 1\n0 1\n")
    assert isinstance(pat, PatternGraph)
    assert pat.edges == ((0, 1), (1, 2))


def test_weights_round_trip(tmp_path):
    path = tmp_path / "w.txt"
    write_weights([1.5, 0.0, 7.25], str(path))
    assert read_weights(str(path), 3) == [1.5, 0.0, 7.25]


def test_parse_weights_errors():
    with pytest.raises(FormatError, match="must hold 3 lines"):
        parse_weights("0 1\n1 2\n", 3)
    with pytest.raises(FormatError, match="line 2: vertex 0 repeated"):
        parse_weights("0 1\n0 2\n", 2)
    with pytest.raises(FormatError, match="out of range"):
        parse_weights("0 1\n5 2\n", 2)
    with pytest.raises(FormatError, match="finite"):
        parse_weights("0 1\n1 nan\n", 2)


def _parse_two_weights(text):
    return parse_weights(text, 2)


@pytest.mark.parametrize("parse, text, message", [
    pytest.param(parse_graph, "\n3 2 1\n0 1\n1 2\n",
                 "line 2: header must be '<n> <m>'", id="header-fields"),
    pytest.param(parse_graph, "3 two\n0 1\n1 2\n",
                 "line 1: header must hold two integers", id="header-int"),
    pytest.param(parse_graph, "-3 0\n",
                 "line 1: negative counts in header", id="negative-n"),
    pytest.param(parse_graph, "3 -1\n",
                 "line 1: negative counts in header", id="negative-m"),
    pytest.param(parse_graph, "3 2\n0 1\n\n1 2 0\n",
                 "line 4: edge line must be '<u> <v>'", id="edge-fields"),
    pytest.param(parse_graph, "3 2\n0 1\n1\n",
                 "line 3: edge line must be '<u> <v>'", id="edge-one-field"),
    pytest.param(parse_graph, "3 2\n0 1\n1 b\n",
                 "line 3: edge endpoints must be integers", id="edge-int"),
    pytest.param(parse_pattern, "3 1\n0.5 1\n",
                 "line 2: edge endpoints must be integers", id="pattern-int"),
    pytest.param(_parse_two_weights, "0 1\n1 2 3\n",
                 "line 2: weight line must be '<vertex> <weight>'",
                 id="weight-fields"),
    pytest.param(_parse_two_weights, "0\n1 2\n",
                 "line 1: weight line must be '<vertex> <weight>'",
                 id="weight-one-field"),
    pytest.param(_parse_two_weights, "0 1\nx 2\n",
                 "line 2: bad vertex or weight", id="weight-vertex"),
    pytest.param(_parse_two_weights, "0 1\n1 heavy\n",
                 "line 2: bad vertex or weight", id="weight-value"),
])
def test_text_parser_errors_name_the_line(parse, text, message):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value).startswith(message)


def test_model_file_round_trip(tmp_path):
    model = FatModel(2, {0: frozenset({1, 2}), 1: frozenset({5})},
                     {(0, 1): frozenset({2, 3, 4, 5})})
    path = tmp_path / "m.json"
    write_model(model, str(path))
    assert read_model(str(path)) == model
    path.write_text("{ not json")
    with pytest.raises(FormatError, match="not valid JSON"):
        read_model(str(path))


def test_separator_result_file(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"result": "separator", "S": [3, 1],
                                "centers": [1], "radius": 2}))
    res = read_separator_result(str(path))
    assert res.separator == frozenset({1, 3})
    assert res.radius == 2
    path.write_text(json.dumps({"result": "model"}))
    with pytest.raises(FormatError, match="does not hold a separator"):
        read_separator_result(str(path))


_IDS = st.integers(0, 50)
_ID_SETS = st.frozensets(_IDS, max_size=6)


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)),
                      st.integers(0, max(n - 1, 0)))
    edges = {(min(e), max(e)) for e in draw(st.lists(pairs, max_size=20))
             if e[0] != e[1]}
    return WeightedGraph(n, sorted(edges))


_WEIGHT_LISTS = st.lists(st.one_of(
    st.just(0.0), st.floats(0.0, 1e300, allow_nan=False,
                            allow_infinity=False)), max_size=12)
_CERTIFICATES = st.builds(
    SeparatorCertificate, _ID_SETS,
    _ID_SETS.map(lambda c: tuple(sorted(c))), st.integers(0, 10 ** 30))
_MODELS = st.builds(
    FatModel, st.integers(0, 10 ** 30),
    st.dictionaries(_IDS, _ID_SETS, max_size=4),
    st.dictionaries(st.tuples(_IDS, _IDS), _ID_SETS, max_size=4))


def _write_json(path, obj):
    # as `separate --out` writes a result
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_graphs(), _WEIGHT_LISTS, _CERTIFICATES, _MODELS)
def test_file_formats_round_trip(tmp_path_factory, g, weights, cert, model):
    path = tmp_path_factory.mktemp("round_trip") / "f"
    again = parse_graph(format_graph(g))
    assert (again.n, again.edges()) == (g.n, g.edges())
    write_weights(weights, str(path))
    assert read_weights(str(path), len(weights)) == weights
    _write_json(path, separator_jsonable(cert))
    assert read_separator_result(str(path)) == cert
    _write_json(path, result_jsonable(SeparatorFound(cert)))
    assert read_separator_result(str(path)) == cert
    write_model(model, str(path))
    assert read_model(str(path)) == model
    _write_json(path, result_jsonable(ModelFound(model)))
    assert read_model(str(path)) == model


# any JSON value, NaN and the infinities included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.sampled_from([1e400, -1e400, 1.7, 2.0]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
# near-valid files: the right keys, with values of any kind
_ID_LISTS = _JSON | st.lists(_JSON | st.integers(0, 5), max_size=3)
_SET_KEYS = st.sampled_from(["0", "1", "0-1", "1-2", "-1", "1-", "x", "٣"])
_SET_MAPS = _JSON | st.dictionaries(_SET_KEYS, _ID_LISTS, max_size=3)
_MODEL_DATA = st.fixed_dictionaries({
    "fatness": _JSON | st.integers(0, 5),
    "vertex_sets": _SET_MAPS, "edge_sets": _SET_MAPS})
_FILE_DATA = st.one_of(
    _JSON,
    st.fixed_dictionaries({"result": st.just("separator") | _JSON,
                           "S": _ID_LISTS, "centers": _ID_LISTS,
                           "radius": _JSON | st.integers(0, 5)}),
    _MODEL_DATA,
    st.fixed_dictionaries({"result": st.just("model") | _JSON,
                           "model": _MODEL_DATA | _JSON}))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_FILE_DATA)
def test_result_and_model_files_load_or_raise_format_error(tmp_path_factory,
                                                           data):
    path = tmp_path_factory.mktemp("fuzz") / "f.json"
    path.write_text(json.dumps(data))
    for read in (read_separator_result, read_model):
        try:
            loaded = read(str(path))
        except FormatError:
            continue
        # whatever loads was written with JSON integers only
        if read is read_separator_result:
            assert type(data["radius"]) is int
            assert loaded.radius == data["radius"]
            assert loaded.separator == frozenset(data["S"])
            assert loaded.centers == tuple(data["centers"])
        else:
            source = data["model"] if "result" in data else data
            assert type(source["fatness"]) is int
            assert loaded.fatness == source["fatness"]


# ---------------------------------------------------------------------------
# Command-line interface


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# runs `main` in a fresh interpreter and prints the BLAS variables after it,
# and whether importing the CLI had already loaded numpy (the pin in `main`
# only reaches BLAS if it had not)
_PIN_SCRIPT = """
import json, os, sys
from coarsesep.cli import main
early = "numpy" in sys.modules
code = main(["gen", "--family", "path", "--n", "3"])
print(json.dumps([early, code] + [os.environ.get(v) for v in %r]))
""" % (_BLAS_VARS,)


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_pins_blas_threads_unless_set(preset):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    src = str(Path(coarsesep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if preset is not None:
        env["OMP_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", _PIN_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    early, code, *values = json.loads(out.splitlines()[-1])
    assert not early
    assert code == 0
    want = dict.fromkeys(_BLAS_VARS, "1")
    if preset is not None:
        want["OMP_NUM_THREADS"] = preset
    assert dict(zip(_BLAS_VARS, values)) == want


def test_cli_gen_writes_parseable_graph(tmp_path, capsys):
    path = tmp_path / "grid.txt"
    code, out, _ = run_cli(capsys, "gen", "--family", "grid", "--n", "5",
                           "--out", str(path))
    assert code == 0
    g = read_graph(str(path))
    assert g.n == 25
    assert "wrote grid graph" in out


def test_cli_gen_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "path", "--n", "4")
    assert code == 0
    assert out == "4 3\n0 1\n1 2\n2 3\n"


def test_cli_partition_json(tmp_path, capsys):
    path = tmp_path / "g.txt"
    write_graph(grid_graph(8), str(path))
    code, out, _ = run_cli(capsys, "partition", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["clusters"] == len(data["members"])
    assert data["strong_diameter"] <= 32


def test_cli_flowcut_json(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    write_graph(WeightedGraph(3, [(0, 1), (1, 2)]), str(path))
    code, out, _ = run_cli(capsys, "flowcut", str(path), "--gamma", "0.1",
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "cut"
    assert data["sparsity"] == 0.25
    code, out, _ = run_cli(capsys, "flowcut", str(path), "--gamma", "6",
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "flow"
    assert data["paths"] == 6
    assert data["max_congestion"] == 6.0


def test_cli_flowcut_answers_small_demands_inside_the_window(tmp_path,
                                                             capsys):
    # some product demands here are about 1e-9 of W^2; the routing fails,
    # and the sweep's cut is within the bound 64 ln(15) / gamma
    gpath = tmp_path / "c15.txt"
    wpath = tmp_path / "c15.w"
    write_graph(cycle_graph(15), str(gpath))
    write_weights([196, 0.13, 0.00421, 2.47, 15.9, 55.7, 0.301, 1.09, 200,
                   0.0255, 0.00713, 0.0143, 0.978, 45.7, 138], str(wpath))
    code, out, err = run_cli(capsys, "flowcut", str(gpath), "--weights",
                             str(wpath), "--gamma", "215207.89", "--json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["kind"] == "cut"
    assert data["sparsity"] <= 64.0 * math.log(15) / 215207.89


def test_cli_flowcut_splits_components_whose_weight_product_underflows(
        tmp_path, capsys):
    # w(A) w(B) = 1e-400 underflows to 0 in the component split
    gpath = tmp_path / "two.txt"
    wpath = tmp_path / "two.w"
    gpath.write_text("2 0\n")
    wpath.write_text("0 1e-200\n1 1e-200\n")
    code, out, err = run_cli(capsys, "flowcut", str(gpath), "--weights",
                             str(wpath), "--gamma", "1")
    assert (code, out, err) == (
        0, "cut with separator size 0, sparsity 0\n", "")


@pytest.mark.parametrize("command, options, line", [
    (["flowcut"], ["--gamma", "1e-300"],
     "cut with separator size 1, sparsity 5e+299\n"),
    (["oracle", "sparsest"], [], "sparsest separation has sparsity 5e+299\n"),
], ids=["flowcut", "oracle-sparsest"])
def test_cli_cuts_whose_weight_product_underflows(tmp_path, capsys,
                                                  command, options, line):
    # 1e-200 * 1e-150 underflows to 0: such a cut has sparsity inf, and
    # the sparsest cut puts one heavy end on each side
    gpath = tmp_path / "p6.txt"
    wpath = tmp_path / "p6.w"
    write_graph(path_graph(6), str(gpath))
    wpath.write_text("".join(f"{v} {x}\n" for v, x in
                             enumerate(["1e-200"] * 4 + ["1e-150"] * 2)))
    code, out, err = run_cli(capsys, *command, str(gpath), "--weights",
                             str(wpath), *options)
    assert (code, out, err) == (0, line, "")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command, options", [
    (["flowcut"], ["--gamma", "1e-313"]),
    (["oracle", "sparsest"], []),
], ids=["flowcut", "oracle-sparsest"])
def test_cli_json_writes_a_sparsity_of_inf_as_null(tmp_path, capsys,
                                                   command, options):
    # with weights 1e-156 every cut of path(3) has w(A) w(B) <= 4e-312, so
    # its sparsity is inf, which strict JSON cannot hold
    gpath = tmp_path / "p3.txt"
    wpath = tmp_path / "p3.w"
    write_graph(path_graph(3), str(gpath))
    wpath.write_text("0 1e-156\n1 1e-156\n2 1e-156\n")
    args = [*command, str(gpath), "--weights", str(wpath), *options]
    code, out, err = run_cli(capsys, *args, "--json")
    assert (code, err) == (0, "")
    obj = json.loads(out, parse_constant=_reject_constant)
    assert obj["sparsity"] is None
    assert obj["side_a"] and obj["side_b"]
    # the human-readable line keeps inf
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and out.rstrip().endswith("sparsity inf")


def test_cli_flowcut_rejects_nan_gamma(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    write_graph(WeightedGraph(3, [(0, 1), (1, 2)]), str(path))
    code, out, err = run_cli(capsys, "flowcut", str(path), "--gamma", "nan")
    assert code == 2
    assert out == ""
    assert "error:" in err and "gamma" in err


def test_cli_separate_verify_round_trip(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    ppath = tmp_path / "k3.txt"
    rpath = tmp_path / "res.json"
    write_graph(grid_graph(12), str(gpath))
    ppath.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, _, _ = run_cli(capsys, "separate", str(gpath), "--pattern",
                         str(ppath), "--out", str(rpath), "--quiet")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify-separator", str(gpath),
                           "--result", str(rpath))
    assert code == 0
    assert "balanced=True" in out


def _path_k2_rounding_args(tmp_path):
    # the smallest path on which the override reaches rounding at d = 3
    gpath = tmp_path / "p1200.txt"
    ppath = tmp_path / "k2.txt"
    write_graph(path_graph(1200), str(gpath))
    ppath.write_text("2 1\n0 1\n")
    return [str(gpath), "--pattern", str(ppath), "--fatness", "3",
            "--eps", "1", "--gamma-override", "1e15"]


def test_cli_verify_model_reads_a_separate_model_result(tmp_path, capsys):
    args = _path_k2_rounding_args(tmp_path)
    rpath = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "separate", *args, "--out", str(rpath),
                         "--quiet")
    assert code == 0
    assert json.loads(rpath.read_text())["result"] == "model"
    code, out, err = run_cli(capsys, "verify-model", *args[:3],
                             "--model", str(rpath), "--fatness", "3")
    assert (code, out, err) == (0, "model is valid at fatness 3\n", "")


def test_cli_verify_model_rejects_other_separate_results(tmp_path, capsys):
    # a separator result (grid and K2) and a failure result (no trials)
    args = _path_k2_rounding_args(tmp_path)
    gpath = tmp_path / "g10.txt"
    write_graph(grid_graph(10), str(gpath))
    sep_args = [str(gpath), *args[1:3]]
    for run_args in (sep_args, args + ["--trials", "0"]):
        rpath = tmp_path / "r.json"
        run_cli(capsys, "separate", *run_args, "--out", str(rpath), "--quiet")
        assert json.loads(rpath.read_text())["result"] != "model"
        code, out, err = run_cli(capsys, "verify-model", *run_args[:3],
                                 "--model", str(rpath), "--fatness", "3")
        assert (code, out) == (2, "")
        assert err == "error: result file does not hold a model result\n"


def test_cli_separate_failure_is_exit_two(tmp_path, capsys):
    args = _path_k2_rounding_args(tmp_path) + ["--trials", "0"]
    code, out, err = run_cli(capsys, "separate", *args)
    assert code == 2 and err == ""
    assert out == "failure after 0 trials (collisions 0, spread 0)\n"
    code, out, _ = run_cli(capsys, "separate", *args, "--json")
    assert code == 2
    assert json.loads(out) == {
        "result": "failure", "stage": "rounding", "trials": 0,
        "collision_failures": 0, "spread_failures": 0}


def test_cli_separate_rejects_negative_trials(tmp_path, capsys):
    args = _path_k2_rounding_args(tmp_path) + ["--trials", "-1"]
    code, out, err = run_cli(capsys, "separate", *args)
    assert (code, out) == (2, "")
    assert err == "error: trials must be nonnegative, got -1\n"


def test_cli_separate_json_schema(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    ppath = tmp_path / "k2.txt"
    write_graph(grid_graph(10), str(gpath))
    ppath.write_text("2 1\n0 1\n")
    code, out, _ = run_cli(capsys, "separate", str(gpath), "--pattern",
                           str(ppath), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "separator"
    assert set(data) == {"result", "S", "centers", "radius"}
    assert data["S"] == sorted(data["S"])


def test_cli_verify_model(tmp_path, capsys):
    gpath = tmp_path / "c12.txt"
    ppath = tmp_path / "k3.txt"
    mpath = tmp_path / "m.json"
    write_graph(WeightedGraph(12, [(i, (i + 1) % 12) for i in range(12)]),
                str(gpath))
    ppath.write_text("3 3\n0 1\n1 2\n0 2\n")
    model = FatModel(1, {0: frozenset({0, 1}), 1: frozenset({3, 4}),
                         2: frozenset({6, 7})},
                     {(0, 1): frozenset({1, 2, 3}),
                      (1, 2): frozenset({4, 5, 6}),
                      (0, 2): frozenset({7, 8, 9, 10, 11, 0})})
    write_model(model, str(mpath))
    code, out, _ = run_cli(capsys, "verify-model", str(gpath), "--pattern",
                           str(ppath), "--model", str(mpath),
                           "--fatness", "1")
    assert code == 0
    assert "valid at fatness 1" in out
    code, out, _ = run_cli(capsys, "verify-model", str(gpath), "--pattern",
                           str(ppath), "--model", str(mpath),
                           "--fatness", "2")
    assert code == 2
    assert "violation" in out


def test_cli_oracle_exit_codes(tmp_path, capsys):
    gpath = tmp_path / "p3.txt"
    k2 = tmp_path / "k2.txt"
    k3 = tmp_path / "k3.txt"
    write_graph(WeightedGraph(3, [(0, 1), (1, 2)]), str(gpath))
    k2.write_text("2 1\n0 1\n")
    k3.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, out, _ = run_cli(capsys, "oracle", "fatminor", str(gpath),
                           "--pattern", str(k2), "--fatness", "1")
    assert code == 0 and "model exists" in out
    code, out, _ = run_cli(capsys, "oracle", "fatminor", str(gpath),
                           "--pattern", str(k3), "--fatness", "1")
    assert code == 2 and "no model" in out
    code, out, _ = run_cli(capsys, "oracle", "sparsest", str(gpath), "--json")
    assert code == 0
    assert json.loads(out)["sparsity"] == 0.25
    code, out, _ = run_cli(capsys, "oracle", "balanced", str(gpath))
    assert code == 0
    assert out == "minimum balanced separator has 1 vertices\n"
    code, out, _ = run_cli(capsys, "oracle", "balanced", str(gpath), "--json")
    assert code == 0
    assert json.loads(out) == {"separator": [1]}


def test_cli_oracle_error_exits(tmp_path, capsys):
    gpath = tmp_path / "p3.txt"
    write_graph(WeightedGraph(3, [(0, 1), (1, 2)]), str(gpath))
    code, out, err = run_cli(capsys, "oracle", "fatminor", str(gpath))
    assert (code, out, err) == (
        2, "", "error: oracle fatminor needs --pattern\n")
    # no vertex, so no weight to put on either side
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n")
    code, out, err = run_cli(capsys, "oracle", "sparsest", str(empty))
    assert (code, out, err) == (2, "no separation exists\n", "")


def test_cli_flowcut_error_is_exit_two(tmp_path, capsys, monkeypatch):
    # A stand-in for the dichotomy: the one known host that raises it,
    # hub(400) inside the window, is on ROADMAP Direction 9 to be mended.
    def no_answer(g, gamma):
        raise FlowCutError("no flow and no cut")

    monkeypatch.setattr("coarsesep.cli.flow_or_sparse_cut", no_answer)
    gpath = tmp_path / "p3.txt"
    write_graph(WeightedGraph(3, [(0, 1), (1, 2)]), str(gpath))
    code, out, err = run_cli(capsys, "flowcut", str(gpath), "--gamma", "1")
    assert (code, out, err) == (2, "", "error: no flow and no cut\n")


def test_cli_induced_sep(tmp_path, capsys):
    gpath = tmp_path / "star.txt"
    write_graph(WeightedGraph(30, [(0, i) for i in range(1, 30)]),
                str(gpath))
    code, out, _ = run_cli(capsys, "induced-sep", str(gpath), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["S"] == [0]


def test_cli_bench_deterministic_without_timings(tmp_path, capsys):
    args = ["bench", "--family", "grid", "--sizes", "6,8", "--quiet"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "n,branch,separator_size,centers,radius,runtime_s,verified"
    assert len(lines) == 3
    for row in lines[1:]:
        assert row.split(",")[5] == ""  # runtime left blank


def test_cli_bench_out_writes_the_csv(tmp_path, capsys):
    args = ["bench", "--family", "grid", "--sizes", "6,8"]
    _, table, _ = run_cli(capsys, *args)
    path = tmp_path / "bench.csv"
    code, out, _ = run_cli(capsys, *args, "--out", str(path))
    assert code == 0
    assert out == f"wrote 2 rows to {path}\n"
    assert path.read_bytes() == table.encode()
    code, out, _ = run_cli(capsys, *args, "--out", str(path), "--quiet")
    assert code == 0 and out == ""


def test_cli_bench_timings_fill_runtime(capsys):
    code, out, _ = run_cli(capsys, "bench", "--family", "path", "--sizes",
                           "30", "--timings", "--quiet")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[5]) >= 0.0


def test_cli_bench_bad_sizes_is_exit_two(capsys):
    code, out, err = run_cli(capsys, "bench", "--sizes", "3,x")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'3,x'" in err


def test_cli_bad_input_is_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a graph\n")
    code, _, err = run_cli(capsys, "partition", str(path))
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "partition", str(tmp_path / "missing.txt"))
    assert code == 2


@pytest.mark.parametrize("command, text", [
    ("verify-separator", "[1, 2]"),
    ("verify-separator", "null"),
    ("verify-model", "[1, 2]"),
    ("verify-model", "null"),
    ("verify-model",
     '{"fatness": 1, "vertex_sets": {"0": 5}, "edge_sets": {}}'),
])
def test_cli_malformed_json_is_exit_two(tmp_path, capsys, command, text):
    gpath = tmp_path / "p3.txt"
    ppath = tmp_path / "k2.txt"
    jpath = tmp_path / "in.json"
    write_graph(WeightedGraph(3, [(0, 1), (1, 2)]), str(gpath))
    ppath.write_text("2 1\n0 1\n")
    jpath.write_text(text)
    if command == "verify-separator":
        extra = ["--result", str(jpath)]
    else:
        extra = ["--pattern", str(ppath), "--model", str(jpath),
                 "--fatness", "1"]
    code, out, err = run_cli(capsys, command, str(gpath), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command, text, key", [
    ("verify-separator",
     '{"result": "separator", "S": [1], "centers": [1], "radius": 1e400}',
     "'radius'"),
    ("verify-separator",
     '{"result": "separator", "S": [1.7], "centers": [1.2], "radius": 0.9}',
     "'S'"),
    ("verify-separator",
     '{"result": "separator", "S": "12", "centers": [1], "radius": 0}',
     "'S'"),
    ("verify-separator",
     '{"result": "separator", "S": [1], "centers": [true], "radius": 1}',
     "'centers'"),
    ("verify-model",
     '{"fatness": 1e400, "vertex_sets": {}, "edge_sets": {}}',
     "'fatness'"),
    ("verify-model",
     '{"fatness": 1, "vertex_sets": {"0": [0], "1": [2.0]}, '
     '"edge_sets": {"0-1": [0, 1, 2]}}',
     "'vertex_sets' '1'"),
])
def test_cli_non_integer_json_numbers_are_exit_two(tmp_path, capsys, command,
                                                   text, key):
    # each would be read as integers before: an OverflowError traceback for
    # 1e400, and S = {1} at radius 0 for the floats on path(3)
    gpath = tmp_path / "p3.txt"
    ppath = tmp_path / "k2.txt"
    jpath = tmp_path / "in.json"
    write_graph(WeightedGraph(3, [(0, 1), (1, 2)]), str(gpath))
    ppath.write_text("2 1\n0 1\n")
    jpath.write_text(text)
    if command == "verify-separator":
        extra = ["--result", str(jpath)]
    else:
        extra = ["--pattern", str(ppath), "--model", str(jpath),
                 "--fatness", "1"]
    code, out, err = run_cli(capsys, command, str(gpath), *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key} ")


@pytest.mark.parametrize("command", ["verify-separator", "verify-model"])
def test_cli_undecodable_json_is_exit_two(tmp_path, capsys, command):
    # nesting past the decoder's recursion limit, and bytes that are not
    # UTF-8, once ended in a traceback
    gpath = tmp_path / "p3.txt"
    ppath = tmp_path / "k2.txt"
    write_graph(WeightedGraph(3, [(0, 1), (1, 2)]), str(gpath))
    ppath.write_text("2 1\n0 1\n")
    for name, data in (("deep.json", b"[" * 10 ** 5 + b"]" * 10 ** 5),
                       ("bytes.json", b"\xff\xfe")):
        jpath = tmp_path / name
        jpath.write_bytes(data)
        if command == "verify-separator":
            extra = ["--result", str(jpath)]
        else:
            extra = ["--pattern", str(ppath), "--model", str(jpath),
                     "--fatness", "1"]
        code, out, err = run_cli(capsys, command, str(gpath), *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "not valid JSON" in err


@pytest.mark.parametrize("bad", ["graph", "pattern", "weight"])
def test_cli_undecodable_text_is_exit_two(tmp_path, capsys, bad):
    # a graph, pattern or weight file holding a byte that is not UTF-8 once
    # ended in a UnicodeDecodeError traceback
    paths = {name: tmp_path / f"{name}.txt"
             for name in ("graph", "pattern", "weight")}
    write_graph(WeightedGraph(3, [(0, 1), (1, 2)]), str(paths["graph"]))
    paths["pattern"].write_text("2 1\n0 1\n")
    write_weights([1.0, 1.0, 1.0], str(paths["weight"]))
    paths[bad].write_bytes(b"\xff")
    code, out, err = run_cli(capsys, "separate", str(paths["graph"]),
                             "--pattern", str(paths["pattern"]),
                             "--weights", str(paths["weight"]))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad} file is not valid UTF-8: ")
    assert "Traceback" not in err


def test_cli_induced_sep_on_weights_that_drift_in_the_sweep(tmp_path,
                                                           capsys):
    # Summed in path order the positives weigh 1.0, below their exact total
    # 1 + 2e-16: the sweep once read the prefix holding all of them as a cut
    # of sparsity 0 and failed with "both sides ... need positive weight".
    gpath = tmp_path / "g.txt"
    wpath = tmp_path / "g.w"
    rpath = tmp_path / "r.json"
    write_graph(WeightedGraph(4, [(0, 1), (1, 2)]), str(gpath))
    write_weights([1.0, 1e-16, 1e-16, 0.0], str(wpath))
    code, out, err = run_cli(capsys, "induced-sep", str(gpath), "--weights",
                             str(wpath), "--json")
    assert (code, err) == (0, "")
    rpath.write_text(out)
    code, out, err = run_cli(capsys, "verify-separator", str(gpath),
                             "--weights", str(wpath), "--result", str(rpath))
    assert (code, err) == (0, "")
    assert out.startswith("balanced=True covered=True")


def test_cli_weights_option(tmp_path, capsys):
    gpath = tmp_path / "p5.txt"
    wpath = tmp_path / "w.txt"
    write_graph(WeightedGraph(5, [(i, i + 1) for i in range(4)]),
                str(gpath))
    write_weights([1, 1, 50, 1, 1], str(wpath))
    code, out, _ = run_cli(capsys, "flowcut", str(gpath), "--gamma", "0.5",
                           "--weights", str(wpath), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "cut"


def test_format_graph_is_stable():
    g = WeightedGraph(3, [(2, 1), (0, 1)])
    assert format_graph(g) == "3 2\n0 1\n1 2\n"


# Expected stdout of fixed invocations, captured once from the CLI and pinned
# here so that a refactor which changes a single byte fails.  Short outputs
# are stored as text, long ones as "sha256:<hex digest>".  "{x}" stands for
# the input file x written in `test_cli_output_is_byte_identical_to_golden`.
_GOLDEN = [
    (["gen", "--family", "path", "--n", "6"],
     "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"),
    (["gen", "--family", "cycle", "--n", "6"],
     "6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"),
    (["gen", "--family", "clique", "--n", "5"],
     "5 10\n0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"),
    (["gen", "--family", "grid", "--rows", "3", "--cols", "4"],
     "12 17\n0 1\n0 4\n1 2\n1 5\n2 3\n2 6\n3 7\n4 5\n4 8\n5 6\n5 9\n6 7\n"
     "6 10\n7 11\n8 9\n9 10\n10 11\n"),
    (["gen", "--family", "grid", "--n", "3"],
     "9 12\n0 1\n0 3\n1 2\n1 4\n2 5\n3 4\n3 6\n4 5\n4 7\n5 8\n6 7\n7 8\n"),
    (["gen", "--family", "torus", "--n", "4"],
     "sha256:530c29ca6410a1ad1383827c11c931e4464b6064efecd719d7a708f84ab54130"),
    (["gen", "--family", "gnp", "--n", "20", "--p", "0.2", "--seed", "3"],
     "sha256:67b307f0b60b056a9c67e9955298224197ab81ce73cdf948fb20a2cc610b1ebc"),
    (["gen", "--family", "regular", "--n", "20", "--seed", "1"],
     "sha256:b754c548b28ffbe322c016b96de80d7fe2752445b7a21c6d28f22ea59fc2e21b"),
    (["gen", "--family", "barbell", "--n", "4", "--bridge", "2"],
     "10 15\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n5 6\n6 7\n6 8\n6 9\n"
     "7 8\n7 9\n8 9\n"),
    (["partition", "{reg}", "--seed", "1", "--json"],
     "sha256:82f77aff9f4fe40943e823a34e9a6255701130ffe967c6310793c77212442d40"),
    (["partition", "{gnp}", "--seed", "4", "--json"],
     "sha256:86b8669c59aa5a9dcc35b973668a12aad9466d448affd0f8012284a4586d8def"),
    (["separate", "{reg}", "--pattern", "{k3}", "--fatness", "5", "--eps",
      "0.5", "--json"],
     "sha256:d24090168d09d44122889878f7d703086a56d846f0805f046065829b73da606a"),
    (["separate", "{grid}", "--pattern", "{k3}", "--json"],
     "sha256:ae2bdc05c384cc92ab2fd4cb778cf33057ffe7089b1d2aec62084dfff2a6206c"),
    # a fat model found by rounding, which runs the close-pairs spread check
    (["separate", "{path}", "--pattern", "{k2}", "--gamma-override", "1e15",
      "--json"],
     "sha256:291f971ec1517bfd82a6f00d076fbacd9235b7bd9591be6917be5d347f773d51"),
    (["induced-sep", "{gnp}", "--json"],
     "sha256:ad291545c7ffe2f45284605838f1d6a297d010726d75487cb0f37821eb281ea0"),
    # integer weights 1-9; at d = 5 the power graph hides them, at d = 3
    # and on the star quotient they move the separator
    (["separate", "{reg}", "--weights", "{wreg}", "--pattern", "{k3}",
      "--fatness", "5", "--eps", "0.5", "--json"],
     "sha256:d24090168d09d44122889878f7d703086a56d846f0805f046065829b73da606a"),
    (["separate", "{reg}", "--weights", "{wreg}", "--pattern", "{k3}",
      "--fatness", "3", "--eps", "0.5", "--json"],
     "sha256:52cc379d16bba14f0ba724416540ce39d91334ca2ceed007486e027ab81add28"),
    (["induced-sep", "{gnp}", "--weights", "{wgnp}", "--json"],
     "sha256:ca1de6978f002c5dc8669b219b0b3c71ededf5115a54209a5a639e9a57643252"),
    (["bench", "--family", "grid", "--sizes", "5,7"],
     "n,branch,separator_size,centers,radius,runtime_s,verified\r\n"
     "25,separator,14,1,6,,True\r\n49,separator,23,1,9,,True\r\n"),
    (["bench", "--family", "cycle", "--sizes", "30"],
     "n,branch,separator_size,centers,radius,runtime_s,verified\r\n"
     "30,separator,12,1,15,,True\r\n"),
    (["bench", "--family", "path", "--sizes", "30"],
     "n,branch,separator_size,centers,radius,runtime_s,verified\r\n"
     "30,separator,12,1,18,,True\r\n"),
    (["bench", "--family", "regular", "--sizes", "40"],
     "n,branch,separator_size,centers,radius,runtime_s,verified\r\n"
     "40,separator,21,1,6,,True\r\n"),
    (["bench", "--family", "gnp", "--sizes", "40", "--p", "0.1"],
     "n,branch,separator_size,centers,radius,runtime_s,verified\r\n"
     "40,separator,24,1,3,,True\r\n"),
    # flow_or_sparse_cut's branches: in-window sweeps after the routing
    # failed (C6 at 15 and 10, T3 at 20), a tree flow, a sweep below the
    # endpoint bound and the component split
    (["flowcut", "{c6}", "--gamma", "15", "--json"],
     "sha256:74d35c5067e1e75ce61dc286fe5c7d08965ba8953489b940896d93053a4c6119"),
    (["flowcut", "{t3}", "--gamma", "20", "--json"],
     "sha256:334941b8974014679a25c9fa9ed5250f2b3cf7764617acb0b3072fb35d85ba9b"),
    (["flowcut", "{c6}", "--gamma", "10", "--json"],
     "sha256:74d35c5067e1e75ce61dc286fe5c7d08965ba8953489b940896d93053a4c6119"),
    (["flowcut", "{p3}", "--gamma", "6", "--json"],
     '{\n  "kind": "flow",\n  "max_congestion": 6.0,\n  "paths": 6\n}\n'),
    (["flowcut", "{grid}", "--gamma", "0.5", "--json"],
     "sha256:0d057b92d2b7324263393d9ab5420b10584ccd1c50e3e46af8999193ace3458d"),
    (["flowcut", "{split}", "--gamma", "1", "--json"],
     '{\n  "kind": "cut",\n  "separator": [],\n  "side_a": [\n    0,\n    1\n'
     '  ],\n  "side_b": [\n    2,\n    3\n  ],\n  "sparsity": 0.0\n}\n'),
]


def test_cli_output_is_byte_identical_to_golden(tmp_path, capsys):
    files = {"reg": random_regular_graph(300, 3, 2), "grid": grid_graph(10),
             "path": path_graph(1200), "gnp": gnp_graph(60, 0.1, seed=5),
             "c6": cycle_graph(6), "t3": torus_graph(3), "p3": path_graph(3)}
    paths = {}
    for name, g in files.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        write_graph(g, paths[name])
    for name, text in (("k2", "2 1\n0 1\n"), ("k3", "3 3\n0 1\n1 2\n0 2\n"),
                       ("split", "4 2\n0 1\n2 3\n")):
        paths[name] = str(tmp_path / f"{name}.txt")
        (tmp_path / f"{name}.txt").write_text(text)
    rng = random.Random(7)
    weights = [float(rng.randint(1, 9)) for _ in range(300)]
    for name, n in (("wreg", 300), ("wgnp", 60)):
        paths[name] = str(tmp_path / f"{name}.txt")
        write_weights(weights[:n], paths[name])
    for argv, expected in _GOLDEN:
        code, out, _ = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 0, argv
        if expected.startswith("sha256:"):
            out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
        assert out == expected, argv
