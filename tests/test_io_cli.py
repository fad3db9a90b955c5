import hashlib
import json

import pytest

from coarsesep import FatModel, PatternGraph, WeightedGraph
from coarsesep.cli import main
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
    assert res.separator == (3, 1)
    assert res.certificate().radius == 2
    path.write_text(json.dumps({"result": "model"}))
    with pytest.raises(FormatError, match="does not hold a separator"):
        read_separator_result(str(path))


# ---------------------------------------------------------------------------
# Command-line interface


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    # flow_or_sparse_cut's branches: LP flows, a sweep that also walks the
    # LP's dual lengths, a tree flow, a plain sweep and the component split
    (["flowcut", "{c6}", "--gamma", "15", "--json"],
     '{\n  "kind": "flow",\n  "max_congestion": 14.0,\n  "paths": 30\n}\n'),
    (["flowcut", "{t3}", "--gamma", "20", "--json"],
     '{\n  "kind": "flow",\n  "max_congestion": 20.0,\n  "paths": 72\n}\n'),
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
    for argv, expected in _GOLDEN:
        code, out, _ = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 0, argv
        if expected.startswith("sha256:"):
            out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
        assert out == expected, argv
