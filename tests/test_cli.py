import json

import numpy as np
import pytest

from curvflow import ValidationError
from curvflow.cli import TRACE_HEADER, emit_trace, main, parse_graph, parse_partition


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "vertices": 3,
        "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.0},
                  {"u": 1, "v": 2, "w": 1.0, "len": 1.0},
                  {"u": 0, "v": 2, "w": 1.0, "len": 1.0}],
        "measure": [2.0, 2.0, 2.0]}))
    return str(path)


@pytest.fixture
def pathgraph(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "vertices": 3,
        "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.0},
                  {"u": 1, "v": 2, "w": 1.0, "len": 1.0}],
        "measure": [2.0, 2.0, 2.0]}))
    return str(path)


def test_parse_graph_ok(triangle):
    g = parse_graph(triangle)
    assert g.n == 3 and g.edge_count() == 3
    assert g.measure.tolist() == [2.0, 2.0, 2.0]


def test_parse_graph_two_vertices(tmp_path):
    p = tmp_path / "two.json"
    p.write_text('{"vertices":2,"edges":[{"u":0,"v":1,"w":1.0,"len":1.0}]}')
    g = parse_graph(str(p))
    assert g.n == 2 and g.measure.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("doc,fragment", [
    ({"vertices": 2, "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.0},
                               {"u": 0, "v": 1, "w": 2.0, "len": 1.0}]},
     "duplicate"),
    ({"vertices": 2, "edges": [{"u": 1, "v": 0, "w": 1.0, "len": 1.0}]},
     "u < v"),
    ({"vertices": 2, "edges": [{"u": 0, "v": 1, "w": -1.0, "len": 1.0}]},
     "weight"),
    ({"vertices": 2, "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.0}],
      "measure": [1.0]}, "measure"),
    ({"vertices": 2, "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.0}],
      "measure": [1.0, -1.0]}, "measure"),
    ({"vertices": 0, "edges": []}, "vertices"),
])
def test_parse_graph_rejections(tmp_path, doc, fragment):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        parse_graph(str(p))
    assert fragment.lower() in str(err.value).lower()


def test_parse_partition(tmp_path, pathgraph):
    g = parse_graph(pathgraph)
    p = tmp_path / "part.json"
    p.write_text('{"X": [0], "K": [1], "Y": [2]}')
    part = parse_partition(str(p), g)
    assert part.k_set == (1,)
    bad = tmp_path / "bad.json"
    bad.write_text('{"X": [0], "K": [1]}')
    with pytest.raises(ValidationError):
        parse_partition(str(bad), g)


def test_emit_trace_header_only(tmp_path):
    out = tmp_path / "t.csv"
    emit_trace([], "csv", str(out))
    assert out.read_text() == TRACE_HEADER + "\n"


def test_emit_trace_rows_and_json_mirror(tmp_path):
    rows = [{"n": 0, "lambda_plus": 1.0, "lambda_minus": -1.0,
             "delta_sup": 0.5, "base_value": 0.0},
            {"n": 1, "lambda_plus": 0.5, "lambda_minus": -0.25,
             "delta_sup": 0.125, "base_value": 1.0,
             "deleted_edge": "0-1"}]
    csv_path = tmp_path / "t.csv"
    emit_trace(rows, "csv", str(csv_path))
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"
    assert lines[2].split(",")[-1] == "0-1"
    json_path = tmp_path / "t.json"
    emit_trace(rows, "json", str(json_path))
    loaded = json.loads(json_path.read_text())
    assert [r["n"] for r in loaded] == [0, 1]
    assert loaded[0]["curvature_min"] is None
    # round trip reproduces every value exactly
    for original, parsed in zip(rows, loaded):
        for key, val in original.items():
            assert parsed[key] == val
    with pytest.raises(ValidationError):
        emit_trace([{"bogus": 1}], "csv", str(csv_path))


def test_float_precision_in_trace(tmp_path):
    value = 0.1234567890123456789
    rows = [{"n": 0, "lambda_plus": value}]
    out = tmp_path / "t.csv"
    emit_trace(rows, "csv", str(out))
    printed = out.read_text().strip().split("\n")[1].split(",")[1]
    assert float(printed) == value  # 17 significant digits round-trip


def test_flow_command_and_trace(tmp_path, triangle, capsys):
    out = tmp_path / "flow.json"
    trace = tmp_path / "flow.csv"
    code = main(["flow", triangle, "--alpha", "0.5", "--tol", "1e-9",
                 "-o", str(out), "--trace", str(trace)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["status"] == "converged"
    assert doc["results"]["growth_rate"]["0"] == pytest.approx(np.log(0.75))
    assert doc["results"]["final_curvature_spread"] < 1e-9
    assert doc["config"]["alpha"] == 0.5
    assert doc["config"]["seed"] == 0
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == TRACE_HEADER


def test_curvature_command(triangle, capsys):
    code = main(["curvature", triangle, "--kinds", "ollivier,lly"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    for row in doc["results"]["edges"]:
        assert row["kappa"] == pytest.approx(0.5)
        assert row["kappa_lly"] == pytest.approx(1.5, abs=1e-6)


def test_resolvent_command(pathgraph, capsys):
    code = main(["resolvent", pathgraph, "--f", "0,1,2", "--p", "2",
                 "--eps", "0.1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["residual"] < 1e-10


def test_separation_command(tmp_path, pathgraph, capsys):
    part = tmp_path / "part.json"
    part.write_text('{"X": [0], "K": [1], "Y": [2]}')
    code = main(["separation", pathgraph, str(part), "--mode", "linear",
                 "--eps", "0.4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["status"] == "converged"
    assert doc["results"]["sign_min_x"] >= -1e-9
    assert doc["results"]["sign_max_y"] <= 1e-9


def test_ric_command(triangle, capsys):
    code = main(["ric", triangle, "--operator", "lazy-walk:0.3",
                 "--samples", "16"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["exact"]
    assert doc["results"]["lower"] <= doc["results"]["upper"] + 1e-12


def test_pf_command(tmp_path, capsys):
    mats = tmp_path / "m.json"
    mats.write_text(json.dumps({"matrices": [[[1.0, 1.0], [1.0, 1.0]]]}))
    code = main(["pf", str(mats), "--f0", "0,1.0986122886681098"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["eigenvalue_factor"] == pytest.approx(2.0, abs=1e-8)
    assert doc["results"]["eigen_residual"] < 1e-8


def test_verify_command(triangle, capsys):
    code = main(["verify", "--operator", "lazy-walk:0.3", "--graph", triangle,
                 "--samples", "20"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    conds = doc["results"]["conditions"]
    assert conds["1"]["passed"] and conds["4"]["passed"] and conds["5"]["passed"]


def test_counterexample_command(tmp_path, capsys):
    out = tmp_path / "ce.json"
    code = main(["counterexample", "--eps0", "0.01", "--steps", "50",
                 "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["status"] == "oscillating"
    diffs = doc["results"]["x3_minus_x4"]
    assert diffs[:4] == [0.02, -0.02, 0.02, -0.02]


def test_exit_codes(tmp_path, triangle, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["flow", str(bad)]) == 2
    # precondition: negatively curved spider rejected without waiver
    spider = tmp_path / "spider.json"
    spider.write_text(json.dumps({
        "vertices": 7,
        "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.0},
                  {"u": 1, "v": 2, "w": 1.0, "len": 1.0},
                  {"u": 0, "v": 3, "w": 1.0, "len": 1.0},
                  {"u": 3, "v": 4, "w": 1.0, "len": 1.0},
                  {"u": 0, "v": 5, "w": 1.0, "len": 1.0},
                  {"u": 5, "v": 6, "w": 1.0, "len": 1.0}],
        "measure": [3.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]}))
    part = tmp_path / "spart.json"
    part.write_text('{"X": [2], "K": [0, 1, 3, 5], "Y": [4, 6]}')
    assert main(["separation", str(spider), str(part), "--eps", "0.2"]) == 4
    # non-convergence: starve the flow of iterations
    assert main(["flow", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_nonconvergence_exit_code(tmp_path, capsys):
    g = tmp_path / "slow.json"
    g.write_text(json.dumps({
        "vertices": 4,
        "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.2},
                  {"u": 1, "v": 2, "w": 1.0, "len": 0.7},
                  {"u": 2, "v": 3, "w": 1.0, "len": 1.9}],
        "measure": [2.0, 2.0, 2.0, 2.0]}))
    code = main(["flow", str(g), "--tol", "1e-12", "--max-iter", "3"])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["status"] == "max-iterations"


def test_byte_identical_reproducibility(tmp_path, triangle):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["ric", triangle, "--operator", "lazy-walk:0.3", "--samples", "8",
            "--seed", "7"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_env_default(tmp_path, triangle, monkeypatch, capsys):
    monkeypatch.setenv("CURVFLOW_SEED", "123")
    main(["ric", triangle, "--samples", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 123


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({
        "vertices": 4,
        "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.0},
                  {"u": 1, "v": 2, "w": 1.0, "len": 1.0},
                  {"u": 2, "v": 3, "w": 1.0, "len": 1.0},
                  {"u": 0, "v": 3, "w": 1.0, "len": 1.0}],
        "measure": [2.0, 2.0, 2.0, 2.0]}))
    part = tmp_path / "c4part.json"
    part.write_text('{"X": [0], "K": [1, 3], "Y": [2]}')
    return str(path), str(part)


def test_separation_p_mode_command(square, capsys):
    graph, part = square
    code = main(["separation", graph, part, "--mode", "p", "--p", "1",
                 "--eps", "0.1", "--tol", "1e-9"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    res = doc["results"]
    assert res["status"] == "converged"
    defects = [s["defect"] for s in res["stages"]]
    assert all(b < a for a, b in zip(defects, defects[1:]))


def test_separation_generic_mode_command(square, capsys):
    graph, part = square
    code = main(["separation", graph, part, "--mode", "generic",
                 "--operator", "lazy-walk:0.25", "--tol", "1e-10"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    res = doc["results"]
    assert res["status"] == "converged" and res["ric_verified"]
    assert res["sign_min_x"] >= -1e-9 and res["sign_max_y"] <= 1e-9


def test_verify_counterexample_operator(capsys):
    code = main(["verify", "--operator", "counterexample:0.01",
                 "--samples", "15"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    conds = doc["results"]["conditions"]
    assert conds["3"]["passed"] and conds["4"]["passed"]
    assert conds["3"]["estimate"]["epsilon_0"] >= 0.5 - 1e-9


def test_solver_failure_maps_to_exit_five(capsys, monkeypatch):
    from curvflow import SolverError
    import curvflow.cli as cli

    def boom(args):
        raise SolverError("synthetic inner failure")

    # main() rebuilds its parser per call, so the patched handler is bound
    monkeypatch.setattr(cli, "_cmd_counterexample", boom)
    code = cli.main(["counterexample", "--steps", "5"])
    assert code == 5
    doc = json.loads(capsys.readouterr().out)
    assert "synthetic inner failure" in doc["error"]


def test_trace_flushed_on_nonconvergence(tmp_path, capsys):
    g = tmp_path / "slow.json"
    g.write_text(json.dumps({
        "vertices": 3,
        "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.5},
                  {"u": 1, "v": 2, "w": 1.0, "len": 0.7}],
        "measure": [2.0, 2.0, 2.0]}))
    trace = tmp_path / "partial.csv"
    code = main(["flow", str(g), "--tol", "1e-13", "--max-iter", "4",
                 "--trace", str(trace)])
    assert code == 3
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 5  # the partial trace was flushed before exit


def test_curvature_alpha_kind_and_ric_nonlinear(triangle, capsys):
    code = main(["curvature", triangle, "--kinds", "alpha", "--alpha", "0.25"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert all("kappa_alpha" in row for row in doc["results"]["edges"])
    # nonlinear operator: no kernel, so only the sampled upper bound exists
    code = main(["ric", triangle, "--operator", "resolvent:2,0.1",
                 "--samples", "4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert not doc["results"]["exact"]
    assert doc["results"]["lower"] == "-inf"


def test_pf_min_family_command(tmp_path, capsys):
    mats = tmp_path / "fam.json"
    mats.write_text(json.dumps({"matrices": [
        [[2.0, 0.3], [0.4, 1.0]],
        [[1.0, 0.7], [0.2, 1.5]]]}))
    code = main(["pf", str(mats), "--tol", "1e-12"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    res = doc["results"]
    assert res["status"] == "converged"
    assert res["eigen_residual"] < 1e-8
    v = np.array(res["eigenvector"])
    A = np.array([[2.0, 0.3], [0.4, 1.0]])
    B = np.array([[1.0, 0.7], [0.2, 1.5]])
    np.testing.assert_allclose(np.minimum(A @ v, B @ v),
                               res["eigenvalue_factor"] * v, atol=1e-8)


def test_verify_linear_matrix_file(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps([[0.6, 0.4], [0.3, 0.7]]))
    code = main(["verify", "--operator", f"linear:{mat}", "--samples", "25"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    conds = doc["results"]["conditions"]
    for c in ("1", "2", "4", "5", "6", "7"):
        assert conds[c]["passed"], conds[c]


def test_graph_immutability_of_distance_matrix():
    from curvflow import shortest_path_metric, WeightedGraph

    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0)])
    d = shortest_path_metric(g)
    with pytest.raises(ValueError):
        d.values[0, 1] = 9.0


@pytest.mark.parametrize("case", ["linear-missing", "pf-no-matrices",
                                  "weight-not-number", "f-file-missing"])
def test_bad_file_inputs_exit_two(tmp_path, triangle, capsys, case):
    missing = str(tmp_path / "missing.json")
    if case == "linear-missing":
        argv = ["ric", triangle, "--operator", f"linear:{missing}"]
    elif case == "pf-no-matrices":
        doc = tmp_path / "foo.json"
        doc.write_text('{"foo": 1}')
        argv = ["pf", str(doc)]
    elif case == "weight-not-number":
        doc = tmp_path / "wabc.json"
        doc.write_text(json.dumps({"vertices": 2, "edges": [
            {"u": 0, "v": 1, "w": "abc", "len": 1.0}]}))
        argv = ["curvature", str(doc)]
    else:
        argv = ["resolvent", triangle, "--f-file", missing]
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]


def test_curvature_command_records_lly_failure_per_edge(triangle, capsys,
                                                        monkeypatch):
    import curvflow.curvature as curvature

    def disagree(g, d, x, y, **kwargs):
        if (x, y) == (0, 1):
            raise curvature.CurvatureError("slopes disagree")
        return 1.5

    monkeypatch.setattr(curvature, "kappa_lly", disagree)
    code = main(["curvature", triangle, "--kinds", "ollivier,lly"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["results"]["edges"]
    assert rows[0]["lly_error"] == "slopes disagree" and "kappa_lly" not in rows[0]
    assert all(row["kappa_lly"] == 1.5 for row in rows[1:])
    assert all("kappa" in row for row in rows)
