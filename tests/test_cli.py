import json
import time

import numpy as np
import pytest

from curvflow import ValidationError
from curvflow.cli import TRACE_HEADER, _jsonable, emit_trace, main, parse_graph, parse_partition


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


_ODD_NUMBERS = [
    # bools once passed for integers and numbers, numeric strings for
    # numbers; {"vertices": true} ended in a TypeError traceback
    {"vertices": True, "edges": []},
    {"vertices": 2, "edges": [{"u": False, "v": True, "w": 1.0, "len": 1.0}]},
    {"vertices": 2, "edges": [{"u": 0, "v": 1, "w": "0.5", "len": 1.0}]},
    {"vertices": 2, "edges": [{"u": 0, "v": 1, "w": 0.5, "len": "1"}]},
    {"vertices": 3, "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.0}],
     "measure": [2, True, 2]},
    # an integer beyond the float range ended in an OverflowError traceback
    {"vertices": 2, "edges": [{"u": 0, "v": 1, "w": 10 ** 400, "len": 1.0}]},
]


@pytest.mark.parametrize("command", ["curvature", "flow", "resolvent"])
@pytest.mark.parametrize("doc", _ODD_NUMBERS)
def test_graph_numbers_must_be_json_numbers(tmp_path, command, doc):
    graph, out = tmp_path / "g.json", tmp_path / "out.json"
    graph.write_text(json.dumps(doc))
    # f fits the vertex count, so a graph read as valid would solve
    f = ["--f", ",".join(["0"] * int(doc["vertices"]))] if command == "resolvent" else []
    assert main([command, str(graph), *f, "-o", str(out)]) == 2
    assert str(graph) in json.loads(out.read_text())["error"]


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


@pytest.mark.parametrize("target", ["output", "trace"])
def test_unwritable_output_exits_two(tmp_path, triangle, capsys, target):
    # once a FileNotFoundError traceback (exit 1) after the whole flow ran
    missing = str(tmp_path / "missing" / "file")
    flag = "-o" if target == "output" else "--trace"
    assert main(["flow", triangle, flag, missing]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert f"cannot write {target} to {missing}" in doc["error"]
    assert doc["results"]["status"] == "converged"


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


def test_resolvent_command_p1_is_exact(triangle, capsys):
    code = main(["resolvent", triangle, "--f", "0,1,3", "--p", "1", "--eps", "0.5"])
    assert code == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["method"] == "tv-dual-active-set"
    assert results["residual"] <= 1e-12
    selection = np.array(results["subgradient_selection"])
    assert selection.shape == (3, 3) and np.all(selection == -selection.T)


@pytest.mark.parametrize("eps", ["1e-9", "1e-12", "1e-20", "1e-97"])
def test_resolvent_command_p3_at_small_eps(square, capsys, eps):
    # the Newton stop test once bounded the raw gradient, whose roundoff
    # the prox term scales by 1/eps: these exited 5
    code = main(["resolvent", square[0], "--f", "0,1,2,0.5", "--p", "3", "--eps", eps])
    assert code == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert np.max(np.abs(np.array(results["g"]) - [0, 1, 2, 0.5])) <= 1e-8


@pytest.mark.parametrize("p", ["2.5", "3", "4"])
@pytest.mark.parametrize("eps", ["1e9", "1e12", "1e16"])
def test_resolvent_command_above_p_two_at_huge_eps(square, capsys, p, eps):
    # eps x the gradient, once the stop test, overstates the error in g
    # where the energy's Hessian dwarfs 1/eps: these exited 5
    code = main(["resolvent", square[0], "--f", "0,1,2,0.5", "--p", p, "--eps", eps])
    assert code == 0
    g = np.array(json.loads(capsys.readouterr().out)["results"]["g"])
    assert abs(np.mean(g) - 0.875) <= 1e-12 and np.ptp(g) <= 2.0


@pytest.mark.parametrize("doc", [
    {"X": ["a"], "K": [1], "Y": [2]}, {"X": [[0]], "K": [1], "Y": [2]},
    {"X": [0], "K": [1], "Y": 2}, {"X": [0], "K": [1.0], "Y": [2]}])
def test_malformed_partition_documents_exit_two(tmp_path, pathgraph, capsys, doc):
    # these once ended in a TypeError or IndexError traceback
    part = tmp_path / "part.json"
    part.write_text(json.dumps(doc))
    assert main(["separation", pathgraph, str(part), "--eps", "0.4"]) == 2
    result = json.loads(capsys.readouterr().out)
    assert result["error"] and result["results"] == {}


@pytest.mark.parametrize("args", [
    ["--mode", "linear", "--eps", "nan"], ["--mode", "linear", "--tol", "nan"],
    ["--mode", "p", "--eps", "nan"], ["--mode", "p", "--tol", "inf"],
    ["--mode", "generic", "--tol", "nan"],
    ["--mode", "generic", "--operator", "resolvent:2,0.1", "--tol", "nan"],
    # the operator checks its p at the first apply, after tol
    ["--mode", "generic", "--operator", "resolvent:0.5,0.1", "--tol", "nan"],
    ["--mode", "p", "--tol", "1e-13"]])  # below the p-flow's floor
def test_separation_rejects_non_finite_eps_and_tol(tmp_path, pathgraph, capsys, args):
    # NaN eps once exited 5 at step 0, NaN tol ran to --max-iter (3) and
    # failed the generic gate (4)
    part = tmp_path / "part.json"
    part.write_text('{"X": [0], "K": [1], "Y": [2]}')
    assert main(["separation", pathgraph, str(part), *args]) == 2
    doc = json.loads(capsys.readouterr().out)
    expected = "floor plaplace.GAP_TOL" if "1e-13" in args else "must be finite and positive"
    assert expected in doc["error"]


@pytest.mark.parametrize("argv", [
    ["pf", "MATRICES", "--tol", "nan"], ["pf", "MATRICES", "--tol", "inf"],
    ["counterexample", "--tol", "nan"], ["counterexample", "--tol", "inf"]])
def test_chain_commands_reject_non_finite_tol(tmp_path, capsys, argv):
    mats = tmp_path / "m.json"
    mats.write_text("[[[1.0, 1.0], [1.0, 1.0]]]")
    assert main([str(mats) if a == "MATRICES" else a for a in argv]) == 2
    assert "tolerance" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("argv", [
    ["pf", "MATRICES", "--max-iter", "-3"], ["pf", "MATRICES", "--max-iter", "0"],
    ["separation", "GRAPH", "PARTITION", "--max-iter", "-3"],
    ["separation", "GRAPH", "PARTITION", "--mode", "p", "--waive-curvature", "--max-iter", "-3"],
    ["counterexample", "--steps", "-5"]])
def test_chain_commands_reject_an_iteration_cap_below_one(tmp_path, pathgraph, capsys, argv):
    # these once exited 3 with a negative "iterations"
    mats, part = tmp_path / "m.json", tmp_path / "part.json"
    mats.write_text("[[[1.0, 1.0], [1.0, 1.0]]]")
    part.write_text('{"X": [0], "K": [1], "Y": [2]}')
    files = {"MATRICES": str(mats), "GRAPH": pathgraph, "PARTITION": str(part)}
    assert main([files.get(a, a) for a in argv]) == 2
    assert "max_iter must be at least 1" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("args", [
    ["--p", "3", "--eps", "nan"], ["--p", "nan"], ["--p", "1", "--eps", "inf"],
    ["--p", "2", "--eps", "0"], ["--p", "0.5"], ["--p", "2", "--f", "0,nan,1"],
    ["--p", "1", "--f", "0,inf,1"]])
def test_resolvent_command_rejects_non_finite_input_at_once(pathgraph, capsys, args):
    # these once hung, exited 5 after seconds, or exited 0 with a null residual
    argv = ["resolvent", pathgraph, "--f", "0,1,2", *args]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] and doc["results"] == {}


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


@pytest.mark.parametrize("args,fragment", [
    (["--r", "nan"], "r must be"), (["--r", "inf"], "r must be"),
    (["--r", "0"], "r must be"), (["--samples", "-3"], "n_samples"),
    (["--r", "1e308"], "2 r max(d) finite")])
def test_ric_command_rejects_bad_r_and_samples(triangle, capsys, args, fragment):
    for operator in ("lazy-walk:0.2", "resolvent:2,0.1"):
        assert main(["ric", triangle, "--operator", operator] + args) == 2
        assert fragment in json.loads(capsys.readouterr().out)["error"]


def test_ric_command_on_one_vertex(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"vertices": 1, "edges": []}')
    for operator in ("lazy-walk:0.2", "resolvent:2,0.1"):
        assert main(["ric", str(path), "--operator", operator]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert (res["lower"], res["upper"], res["exact"]) == (1.0, 1.0, True)


def test_ric_command_of_a_linear_operator_ignores_seed_and_samples(triangle, capsys):
    outputs = set()
    for extra in ([], ["--seed", "5"], ["--seed", "-4"], ["--samples", "0"],
                  ["--samples", "300", "--seed", "9"]):
        assert main(["ric", triangle, "--operator", "lazy-walk:0.2"] + extra) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 <= doc["results"]["upper"] - doc["results"]["lower"] <= 1e-12
        outputs.add(json.dumps(doc["results"]))
    assert len(outputs) == 1


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


def test_seed_env_is_read_on_every_call(triangle, monkeypatch, capsys):
    # one parser serves the process; the environment is not cached in it
    for seed in ("5", "9"):
        monkeypatch.setenv("CURVFLOW_SEED", seed)
        assert main(["ric", triangle, "--samples", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == int(seed)


def test_bad_seed_env_exits_two(triangle, monkeypatch, capsys):
    monkeypatch.setenv("CURVFLOW_SEED", "abc")
    assert main(["flow", triangle]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert "CURVFLOW_SEED" in doc["error"] and doc["results"] == {}
    # an explicit --seed does not read the environment
    assert main(["flow", triangle, "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3


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


@pytest.mark.parametrize("magnitude", ["nan", "inf", "0", "-1", "9e306"])
def test_verify_rejects_a_magnitude_out_of_range(triangle, capsys, magnitude):
    # condition 4 draws c from +-10 magnitude: 20 x magnitude must be finite
    args = ["verify", "--operator", "lazy-walk:0.2", "--graph", triangle, "--samples", "3"]
    assert main(args + ["--magnitude", magnitude]) == 2
    assert "magnitude must be" in json.loads(capsys.readouterr().out)["error"]
    assert main(args + ["--magnitude", "8e306"]) == 0  # the largest that runs
    capsys.readouterr()


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("command", [
    ["verify", "--operator", "lazy-walk:0.2", "--samples", "3", "--graph"],
    ["ric", "--operator", "resolvent:2,0.1", "--samples", "3"]])
def test_a_negative_seed_exits_two(triangle, capsys, monkeypatch, source, command):
    args = command + [triangle]
    if source == "flag":
        args += ["--seed", "-1"]
    else:
        monkeypatch.setenv("CURVFLOW_SEED", "-1")
    assert main(args) == 2
    assert "seed must be an integer >= 0" in json.loads(capsys.readouterr().out)["error"]


def test_solver_failure_maps_to_exit_five(capsys, monkeypatch):
    from curvflow import SolverError
    import curvflow.cli as cli

    def boom(args):
        raise SolverError("synthetic inner failure")

    # main() looks its handler up on every call, so the patched one runs
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
                                  "weight-not-number", "f-file-missing",
                                  "pf-scalar-list"])
def test_bad_file_inputs_exit_two(tmp_path, triangle, capsys, case):
    missing = str(tmp_path / "missing.json")
    if case == "linear-missing":
        argv = ["ric", triangle, "--operator", f"linear:{missing}"]
    elif case == "pf-no-matrices":
        doc = tmp_path / "foo.json"
        doc.write_text('{"foo": 1}')
        argv = ["pf", str(doc)]
    elif case == "pf-scalar-list":
        doc = tmp_path / "scalars.json"
        doc.write_text("[5]")
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


def test_curvature_command_records_phi_failure_per_edge(tmp_path, capsys):
    # on the path 0-1-2 with weights 1 and 0.5 and measure (1, 2, 1), the
    # walk from 0 moves all its mass to 1 and the walk from 1 keeps 1/4
    # there; the three-cycle exclusion bars the cell (1, 1), so the convex
    # phi transport of (0, 1) is infeasible while (1, 2) has one.  The
    # error stays in its cell and every other value is kept
    graph = tmp_path / "path.json"
    graph.write_text(json.dumps({"vertices": 3, "measure": [1.0, 2.0, 1.0], "edges": [
        {"u": 0, "v": 1, "w": 1.0, "len": 1.0}, {"u": 1, "v": 2, "w": 0.5, "len": 1.0}]}))
    code = main(["curvature", str(graph), "--kinds", "ollivier,phi-convex"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["results"]["edges"]
    assert [row["kappa"] for row in rows] == [0.25, 0.25]
    assert rows[0]["phi-convex_error"] == ("forbidden entries block the sphere "
                                           "marginals at edge (0, 1)")
    assert "khat_convex" not in rows[0] and "phi-convex_error" not in rows[1]
    assert rows[1]["khat_convex"] == -0.25


@pytest.mark.parametrize("spec", [
    "shift:abc", "scale:x", "lazy-walk:zz", "resolvent:a,b", "counterexample:q",
    "shift:nan", "scale:inf", "resolvent:3,inf", "resolvent:nan,0.1",
    "lazy-walk:nan"])
def test_non_finite_operator_arguments_exit_two(triangle, capsys, spec):
    assert main(["ric", triangle, "--operator", spec, "--samples", "4"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert "not a finite number" in doc["error"]


def test_resolvent_operator_builds_its_solver_once(triangle, capsys, monkeypatch):
    from curvflow import plaplace

    built, real = [], plaplace._Resolvent
    monkeypatch.setattr(plaplace, "_Resolvent", lambda *args: built.append(args) or real(*args))
    assert main(["ric", triangle, "--operator", "resolvent:1.5,0.1", "--samples", "4"]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("args,name", [
    (["--tol", "nan"], "tolerance"), (["--tol", "inf"], "tolerance"),
    (["--tol=-inf"], "tolerance"), (["--threshold", "nan"], "deletion threshold"),
    (["--threshold", "inf"], "deletion threshold")])
def test_non_finite_flow_parameters_exit_two(tmp_path, capsys, args, name):
    # each of these once ran the flow: NaN to --max-iter, inf "converged"
    # after one step, and a non-finite threshold turned surgery off
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": 4, "edges": [
        {"u": 0, "v": 1, "w": 0.3, "len": 1.0}, {"u": 1, "v": 2, "w": 0.3, "len": 2.0},
        {"u": 0, "v": 2, "w": 0.3, "len": 1.5}, {"u": 2, "v": 3, "w": 0.3, "len": 1.0}]}))
    trace = tmp_path / "t.csv"
    assert main(["flow", str(graph), *args, "--trace", str(trace)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert name in doc["error"] and doc["results"] == {}
    assert trace.read_text().count("\n") == 1  # header only: no step ran


@pytest.mark.parametrize("lengths,curvature_code,fragment", [
    ((1e308, 1e308), 2, "past the float range"),
    ((1e308, 1.0), 0, "max adjacent length ratio"),
    ((1e300, 1e-10), 0, "max adjacent length ratio")])
def test_lengths_past_the_float_range(tmp_path, capsys, lengths, curvature_code, fragment):
    # a path sum past the float range once read as "measure supports lie in
    # different components", a default threshold 2 x ratio past it blamed a
    # deletion threshold never set, and numpy printed overflow warnings
    graph = tmp_path / "long.json"
    graph.write_text(json.dumps({"vertices": 3, "edges": [
        {"u": 0, "v": 1, "w": 1.0, "len": lengths[0]},
        {"u": 1, "v": 2, "w": 1.0, "len": lengths[1]}], "measure": [2.0, 2.0, 2.0]}))
    assert main(["curvature", str(graph)]) == curvature_code
    out = capsys.readouterr()
    assert out.err == ""
    if curvature_code:
        assert str(graph) in json.loads(out.out)["error"]
    for args in ([], ["--threshold", "1e10"]):
        assert main(["flow", str(graph), *args]) == 2
        out = capsys.readouterr()
        assert fragment in json.loads(out.out)["error"] and out.err == ""


def test_lly_curvature_past_the_float_range_names_the_edge(tmp_path, capsys):
    # the slope over d(1, 2) = 1e-10 once printed -Infinity, which is not
    # JSON, and an overflow warning on stderr
    graph = tmp_path / "long.json"
    graph.write_text(json.dumps({"vertices": 3, "edges": [
        {"u": 0, "v": 1, "w": 1.0, "len": 1e300},
        {"u": 1, "v": 2, "w": 1.0, "len": 1e-10}], "measure": [2.0, 2.0, 2.0]}))
    assert main(["curvature", str(graph), "--kinds", "lly"]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    doc = json.loads(out.out)
    assert "kappa_lly at (1, 2)" in doc["error"] and "float range" in doc["error"]
    assert doc["results"] == {}


def test_infeasible_modified_curvature_gate_exits_four(tmp_path, capsys):
    graph = tmp_path / "edge.json"
    graph.write_text(json.dumps({
        "vertices": 2, "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.0}],
        "measure": [1.0, 2.0]}))
    part = tmp_path / "part.json"
    part.write_text('{"X": [], "K": [0, 1], "Y": []}')
    code = main(["separation", str(graph), str(part), "--mode", "p", "--p", "3"])
    assert code == 4
    doc = json.loads(capsys.readouterr().out)
    assert "(0, 1)" in doc["error"] and "waive_curvature" in doc["error"]


def test_infeasible_modified_curvature_is_an_error_cell(tmp_path, capsys):
    # deg(1) = 2 > 1: no walk measure at 1, so every edge's cell is an error
    graph = tmp_path / "path.json"
    graph.write_text(json.dumps({
        "vertices": 3, "measure": [1.0, 1.0, 1.0],
        "edges": [{"u": 0, "v": 1, "w": 1.0, "len": 1.0},
                  {"u": 1, "v": 2, "w": 1.0, "len": 1.0}]}))
    code = main(["curvature", str(graph), "--kinds", "phi-convex"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["results"]["edges"]
    assert len(rows) == 2
    for row in rows:
        assert row["phi-convex_error"].startswith("forbidden entries block")
        assert "khat_convex" not in row


def test_pf_tiny_entry_does_not_underflow_lambda(tmp_path):
    # a nonnegative family with no zero row keeps Lambda in the positive
    # cone; exp(f - max f) once underflowed the row that 6.08e-111 feeds
    matrices, out = tmp_path / "u.json", tmp_path / "out.json"
    matrices.write_text("[[[1, 6.2], [1, 0]], [[2, 3], [0, 6.08e-111]]]")
    code = main(["pf", str(matrices), "--max-iter", "200", "-o", str(out)])
    assert code in (0, 3)
    assert "error" not in json.loads(out.read_text())


# ---------------------------------------------------------------------------
# failure surface: arbitrary matrix documents


from hypothesis import example, given, settings
from hypothesis import strategies as st

_scalars = st.one_of(st.integers(-3, 3), st.floats(-10.0, 10.0), st.floats(),
                     st.text(max_size=2), st.none(), st.booleans(),
                     st.just([]))


def _nested(depth: int):
    if depth == 0:
        return _scalars
    return st.one_of(_scalars, st.lists(_nested(depth - 1), max_size=3))


def _square(n: int):
    entry = st.one_of(st.floats(0.0, 10.0), st.integers(-1, 3))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


# families of equal-size square matrices reach the chain itself
_families = st.integers(1, 3).flatmap(
    lambda n: st.lists(_square(n), min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(doc=st.one_of(_nested(3), _families))
def test_pf_matrix_documents_end_in_a_documented_exit(tmp_path_factory, doc):
    work = tmp_path_factory.mktemp("pf")
    matrices, out = work / "m.json", work / "out.json"
    matrices.write_text(json.dumps(doc))
    code = main(["pf", str(matrices), "--max-iter", "20", "-o", str(out)])
    assert code in (0, 2, 3, 4, 5)
    result = json.loads(out.read_text())
    # non-convergence (3) is a result with a status, not an error
    assert ("error" in result) == (code in (2, 4, 5))
    if code in (0, 3):
        assert result["results"]["status"]


# ---------------------------------------------------------------------------
# failure surface: graph documents for curvature and flow


_odd = st.sampled_from([True, False, "1", "0.5", float("nan"), 1e308, None])


@st.composite
def _graph_documents(draw):
    """A graph with up to five vertices and deg <= 1, any edge set, and in
    half the documents one value swapped for a bool, a numeric string,
    NaN, 1e308 or null."""
    n = draw(st.integers(1, 5))
    edges = [{"u": u, "v": v, "w": draw(st.floats(0.1, 1.0)), "len": draw(st.floats(0.5, 2.0))}
             for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    doc = {"vertices": n, "edges": edges, "measure": [draw(st.floats(4.0, 8.0))] * n}
    if draw(st.booleans()):
        slots = ([(doc, "vertices")] + [(e, k) for e in edges for k in e]
                 + [(doc["measure"], i) for i in range(n)])
        holder, key = draw(st.sampled_from(slots))
        holder[key] = draw(_odd)
    return doc


_CURVATURE = ["curvature", "--kinds", "ollivier,lly,phi-convex,phi-concave"]


@settings(max_examples=100, deadline=None)
@given(doc=st.one_of(_nested(3), _graph_documents()),
       command=st.sampled_from([_CURVATURE, ["flow", "--max-iter", "20"]]))
@example(doc={"vertices": True, "edges": []}, command=_CURVATURE)
@example(doc={"vertices": True, "edges": []}, command=["flow", "--max-iter", "20"])
def test_graph_documents_end_in_a_documented_exit(tmp_path_factory, doc, command):
    work = tmp_path_factory.mktemp("graph")
    graph, out = work / "g.json", work / "out.json"
    graph.write_text(json.dumps(doc))
    code = main([command[0], str(graph), *command[1:], "-o", str(out)])
    assert code in (0, 2, 3, 4, 5)
    result = json.loads(out.read_text())
    assert ("error" in result) == (code in (2, 4, 5))
    if command[0] == "flow" and code in (0, 3):
        assert result["results"]["status"]


# ---------------------------------------------------------------------------
# failure surface: the separation command


_vertex_ids = st.lists(st.one_of(st.integers(-1, 4), st.sampled_from([1.0, True, "1", None])),
                       max_size=3)
# half the documents are valid and two in three numbers are fine, so that
# many examples reach a flow
_partitions = st.booleans().flatmap(lambda valid: st.sampled_from(
    [{"X": [0], "K": [1, 3], "Y": [2]}, {"X": [], "K": [0, 1], "Y": [2, 3]}]) if valid
    else st.one_of(_nested(3), st.fixed_dictionaries(
        {"X": _vertex_ids, "K": _vertex_ids, "Y": _vertex_ids})))
_modes = st.one_of(
    st.just(["--mode", "linear"]),
    st.sampled_from(["1", "1.5", "2", "3", "0.5", "nan"]).map(lambda p: ["--mode", "p", "--p", p]),
    st.tuples(st.sampled_from(["lazy-walk:0.2", "identity", "resolvent:2,0.1"]),
              st.booleans()).map(lambda t: ["--mode", "generic", "--operator", t[0]]
                                 + ["--allow-unverified"] * t[1]))
_fine = st.sampled_from([0.1, 0.2, 1e-8, 1e-12])
_numbers = st.one_of(_fine, _fine, st.floats())


@settings(max_examples=100, deadline=None)
@given(doc=_partitions, mode=_modes, eps=_numbers, tol=_numbers)
def test_separation_documents_end_in_a_documented_exit(tmp_path_factory, doc, mode, eps, tol):
    work = tmp_path_factory.mktemp("sep")
    graph, part, out = work / "g.json", work / "part.json", work / "out.json"
    graph.write_text(json.dumps({"vertices": 4, "measure": [2.0] * 4, "edges": [
        {"u": u, "v": v, "w": 1.0, "len": 1.0} for u, v in ((0, 1), (1, 2), (2, 3), (0, 3))]}))
    part.write_text(json.dumps(doc))
    code = main(["separation", str(graph), str(part), *mode, f"--eps={eps!r}",
                 f"--tol={tol!r}", "--max-iter", "20", "-o", str(out)])
    assert code in (0, 2, 3, 4, 5)
    result = json.loads(out.read_text())
    assert ("error" in result) == (code in (2, 4, 5))
    if code in (0, 3):
        assert result["results"]["status"]


# ---------------------------------------------------------------------------
# failure surface: the resolvent command


@st.composite
def _resolvent_documents(draw):
    """A graph document with up to five vertices, any edge set and a
    constant measure, with f in [-1e3, 1e3] on its vertices."""
    n = draw(st.integers(1, 5))
    weight = st.floats(0.1, 10.0)
    edges = [{"u": u, "v": v, "w": draw(weight), "len": 1.0}
             for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    doc = {"vertices": n, "edges": edges, "measure": [draw(st.floats(0.5, 5.0))] * n}
    f = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    return doc, f


def _run_resolvent(work, doc, f, p, eps):
    graph, out = work / "g.json", work / "out.json"
    graph.write_text(json.dumps(doc))
    code = main(["resolvent", str(graph), "--f=" + ",".join(map(repr, f)),
                 f"--p={p!r}", f"--eps={eps!r}", "-o", str(out)])
    return code, json.loads(out.read_text())


def _prox_objective(doc, f, p, eps, x):
    """sum_edges (w/m) |x_v - x_u|^p / p + ||x - f||^2 / (2 eps)."""
    m = doc["measure"][0]
    energy = sum(e["w"] / m * abs(x[e["v"]] - x[e["u"]]) ** p / p for e in doc["edges"])
    return energy + float(np.sum((np.asarray(x) - f) ** 2)) / (2 * eps)


@settings(max_examples=100, deadline=None)
@given(case=_resolvent_documents(), p=st.floats(1.0, 2.0), eps=st.floats(1e-12, 1e2))
def test_resolvent_documents_up_to_p_two_solve(tmp_path_factory, case, p, eps):
    work = tmp_path_factory.mktemp("res")
    code, result = _run_resolvent(work, *case, p, eps)
    assert code == 0, result.get("error")
    g = result["results"]["g"]
    assert np.all(np.isfinite(g))
    # g minimizes the prox objective: no worse than f or the p = 1 prox,
    # which is all but optimal as p approaches 1
    doc, f = case
    _, tv = _run_resolvent(work, doc, f, 1.0, eps)
    best = min(_prox_objective(doc, f, p, eps, h) for h in (f, tv["results"]["g"]))
    assert _prox_objective(doc, f, p, eps, g) <= best + 1e-9 * max(1.0, best)


@settings(max_examples=100, deadline=None)
@given(case=_resolvent_documents(), p=st.floats(2.0, 4.0, exclude_min=True),
       eps=st.floats(1e-12, 1e2))
def test_resolvent_documents_above_p_two_solve_or_report(tmp_path_factory, case, p, eps):
    code, result = _run_resolvent(tmp_path_factory.mktemp("res"), *case, p, eps)
    assert code in (0, 5)
    if code == 0:
        assert np.all(np.isfinite(result["results"]["g"]))
    else:
        assert result["error"]


def test_jsonable_writes_numpy_and_python_non_finite_floats_alike():
    # a numpy inf or NaN was written as Infinity or NaN, which is not JSON
    values = [np.float64("inf"), -np.float64("inf"), np.float64("nan"), np.float32("inf"),
              float("inf"), float("-inf"), float("nan"), np.float64(1.5), np.int64(3),
              np.bool_(True)]
    out = _jsonable({"row": values, "array": np.array([np.inf, np.nan, 2.0])})
    assert out == {"row": ["inf", "-inf", None, "inf", "inf", "-inf", None, 1.5, 3, True],
                   "array": ["inf", None, 2.0]}
    assert all(type(v) in (str, type(None), float, int, bool) for v in out["row"])
    json.dumps(out, allow_nan=False)
