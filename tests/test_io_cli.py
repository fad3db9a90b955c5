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
from coarsesep.generators import gnp_graph, grid_graph


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
