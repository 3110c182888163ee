import json

import numpy as np
import pytest

from tropharm.cli import main

TRIPOD = {
    "vertices": ["w"],
    "edges": [],
    "leaves": [{"id": "p1", "vertex": "w"}, {"id": "p2", "vertex": "w"}, {"id": "p3", "vertex": "w"}],
}
DUMBBELL = {
    "vertices": ["u", "v"],
    "edges": [
        {"id": "e1", "ends": ["u", "v"], "length": 1.0},
        {"id": "e2", "ends": ["u", "v"], "length": 2.0},
    ],
    "leaves": [{"id": "p1", "vertex": "u"}, {"id": "p2", "vertex": "v"}],
}
R_LINE = {"rows": 2, "leaf_order": ["p1", "p2", "p3"], "entries": [[1, 0, -1], [0, 1, -1]]}
R_33 = {"rows": 1, "leaf_order": ["p1", "p2"], "entries": [[3, -3]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (
        ("tripod", TRIPOD), ("dumbbell", DUMBBELL), ("rline", R_LINE), ("r33", R_33),
        ("twists", {"e1": np.pi / 2, "e2": np.pi}),
        ("badrow", {"rows": 1, "leaf_order": ["p1", "p2"], "entries": [[1, 1]]}),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_tripod(capsys, files):
    code, out, _ = run(capsys, "check", files["tripod"])
    assert code == 0
    doc = json.loads(out)
    assert doc["g"] == 0 and doc["n"] == 3 and doc["dims"] == [2, 0]


def test_check_not_cubic(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"vertices": ["u"], "edges": [],
                             "leaves": [{"id": "p1", "vertex": "u"}]}))
    code, _, err = run(capsys, "check", str(p))
    assert code == 1
    assert json.loads(err)["code"] == "NotCubic"


def test_check_negative_length(capsys, tmp_path):
    doc = json.loads(json.dumps(DUMBBELL))
    doc["edges"][0]["length"] = -1.0
    p = tmp_path / "neg.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(p))
    assert code == 1
    assert json.loads(err)["code"] == "NonPositiveLength"


def test_solve_values(capsys, files):
    code, out, _ = run(capsys, "solve", files["dumbbell"], files["r33"])
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["e1"] == 2 and doc["values"]["e2"] == 1
    assert doc["metadata"]["balancing_residual"] <= 1e-9


def test_solve_bad_row(capsys, files):
    code, _, err = run(capsys, "solve", files["dumbbell"], files["badrow"])
    assert code == 1
    assert json.loads(err)["code"] == "ResiduesDontSumToZero"


def test_embed_json_and_svg(capsys, files, tmp_path):
    code, out, _ = run(capsys, "embed", files["tripod"], files["rline"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rays"]) == 3
    out_svg = tmp_path / "scene.svg"
    code, _, _ = run(capsys, "--quiet", "embed", files["tripod"], files["rline"], "--svg",
                     "--out", str(out_svg))
    assert code == 0
    assert out_svg.read_text().startswith("<svg")


def test_embed_svg_dimension_error(capsys, files, tmp_path):
    r4 = tmp_path / "r4.json"
    r4.write_text(json.dumps({"rows": 4, "leaf_order": ["p1", "p2", "p3"],
                              "entries": [[0, 0, 0]] * 4}))
    code, _, err = run(capsys, "embed", files["tripod"], str(r4), "--svg")
    assert code == 1
    assert json.loads(err)["code"] == "UnsupportedDimensionForSvg"


def test_regularity(capsys, files):
    code, out, _ = run(capsys, "regularity", files["dumbbell"], files["r33"])
    assert code == 0
    assert json.loads(out) == {"expected": 1, "is_regular": True, "rank": 1}


def test_twists_solve_and_check(capsys, files):
    code, out, _ = run(capsys, "twists", files["dumbbell"], files["r33"], "solve")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 1 and doc["rank"] == 1
    code, out, _ = run(capsys, "twists", files["dumbbell"], files["r33"], "check",
                       "--twists", files["twists"])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_periods(capsys, files):
    code, out, _ = run(capsys, "periods", files["dumbbell"], files["r33"], files["twists"],
                       "--a-edges", "e1")
    assert code == 0
    doc = json.loads(out)
    assert doc["integer"] is True
    assert doc["entries"] == [[[3, 0]], [[2, 0]], [[0, 0]]]


def test_collar_value(capsys):
    code, out, _ = run(capsys, "collar", "--l", "0.1")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["w"] == pytest.approx(3.689087757070663)
    assert row["m"] == pytest.approx(30.416342942336896)


def test_collar_sweep_increasing(capsys):
    code, out, _ = run(capsys, "collar", "--sweep", "1e-1..1e-6")
    assert code == 0
    rows = json.loads(out)["rows"]
    prods = [r["l_times_m"] for r in rows]
    assert prods == sorted(prods)
    assert prods[-1] < np.pi


def test_collar_negative_errors(capsys):
    code, _, err = run(capsys, "collar", "--l", "-1")
    assert code == 1
    assert json.loads(err)["code"] == "NonPositiveLength"


def test_collar_sweep_through_zero_errors(capsys):
    code, _, err = run(capsys, "collar", "--sweep", "0..1e-3")
    assert code == 1
    assert json.loads(err)["code"] == "NonPositiveLength"


@pytest.mark.parametrize("argv", [["--l", "inf"], ["--l", "nan"], ["--sweep", "1e-3..inf"]])
def test_collar_non_finite_length_errors(capsys, argv):
    code, out, err = run(capsys, "collar", *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"


def test_degenerate_zero_density_errors(capsys, files):
    code, _, err = run(capsys, "degenerate", files["tripod"], files["rline"], "--density", "0")
    assert code == 1
    assert json.loads(err)["code"] == "MinimumDensityViolation"


def test_degenerate_bad_t_list_errors(capsys, files):
    code, _, err = run(capsys, "degenerate", files["tripod"], files["rline"], "--t", "abc")
    assert code == 1
    assert json.loads(err)["code"] == "BadInput"


def test_degenerate_infinite_t_errors(capsys, files):
    code, out, err = run(capsys, "degenerate", files["tripod"], files["rline"], "--t", "inf")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"


def test_degenerate_with_csv(capsys, files, tmp_path):
    csv = tmp_path / "d.csv"
    code, out, _ = run(capsys, "--quiet", "degenerate", files["tripod"], files["rline"],
                       "--t", "1e3,1e4", "--window", "3", "--density", "0.5",
                       "--csv", str(csv))
    assert code == 0
    doc = json.loads(out)
    assert set(doc["results"]) == {"1000", "10000"}
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,global_hausdorff" and len(lines) == 3


def test_output_deterministic(capsys, files):
    _, out1, _ = run(capsys, "solve", files["dumbbell"], files["r33"])
    _, out2, _ = run(capsys, "solve", files["dumbbell"], files["r33"])
    assert out1 == out2


def test_unknown_flag_is_error(capsys, files):
    code, _, err = run(capsys, "check", files["tripod"], "--bogus")
    assert code == 1
    assert json.loads(err)["code"] == "BadUsage"


def test_solve_multirow_output(capsys, files, tmp_path):
    r2 = tmp_path / "r2.json"
    r2.write_text(json.dumps({"rows": 2, "leaf_order": ["p1", "p2"],
                              "entries": [[3, -3], [6, -6]]}))
    code, out, _ = run(capsys, "solve", files["dumbbell"], str(r2))
    assert code == 0
    doc = json.loads(out)
    assert "forms" in doc and len(doc["forms"]) == 2
    assert doc["forms"][1]["e1"] == 4


def test_check_leafless_graph(capsys, tmp_path):
    theta = {"vertices": ["u", "v"],
             "edges": [{"id": f"e{i}", "ends": ["u", "v"], "length": float(i + 1)}
                       for i in range(3)],
             "leaves": []}
    p = tmp_path / "theta.json"
    p.write_text(json.dumps(theta))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["g"] == 2 and doc["n"] == 0 and doc["dims"] is None


def test_twists_check_failing_verdict_still_exit_0(capsys, files, tmp_path):
    bad = tmp_path / "badtw.json"
    bad.write_text(json.dumps({"e1": 1.0, "e2": 0.0}))
    code, out, _ = run(capsys, "twists", files["dumbbell"], files["r33"], "check",
                       "--twists", str(bad))
    assert code == 0
    assert json.loads(out)["all_pass"] is False
