import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tropharm
from tropharm import cli
from tropharm.cli import main
from tropharm.graph import load_graph

from _generators import benchmark_gen
from conftest import MERGING_TREE, MERGING_TREE_RESIDUES, genus2_graph

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
GOLDEN = Path(__file__).parent / "golden"


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


def test_check_empty_graph(capsys, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"vertices": [], "edges": [], "leaves": []}))
    code, out, err = run(capsys, "check", str(p))
    assert code == 1 and out == ""
    assert json.loads(err) == {"code": "NotCubic", "message": "graph has no vertices"}


@pytest.mark.parametrize("l1, l2", [(1e-200, 2e-200), (1e200, 2e200), (1.0, 1e300)])
def test_check_dims_at_extreme_lengths(capsys, tmp_path, l1, l2):
    doc = json.loads(json.dumps(DUMBBELL))
    doc["edges"][0]["length"], doc["edges"][1]["length"] = l1, l2
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(p))
    assert (code, err) == (0, "")
    assert json.loads(out)["dims"] == [1, 1]


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


@pytest.mark.parametrize("entry", ["NaN", "null", "Infinity", '"1e400"'])
def test_non_finite_residues_error(capsys, files, tmp_path, entry):
    path = tmp_path / "r.json"
    path.write_text(f'{{"rows": 1, "leaf_order": ["p1", "p2"], "entries": [[{entry}, 0]]}}')
    for command in ("solve", "embed", "regularity"):
        code, out, err = run(capsys, command, files["dumbbell"], str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["code"] == "BadInput"


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


@pytest.mark.parametrize("length", ["nan", "inf", "0", "-1"])
def test_embed_bad_ray_length_errors(capsys, files, length):
    for fmt in ("--svg", "--json"):
        code, out, err = run(capsys, "embed", files["tripod"], files["rline"], fmt,
                             "--ray-length", length)
        assert code == 1 and out == ""
        assert json.loads(err)["code"] == "BadInput"


@pytest.fixture
def overflowing_flow(tmp_path):
    # the caterpillar golden with edge c of length 10: a residue of 1e308
    # drives a potential of 1e309, which overflows
    doc = json.loads((GOLDEN / "caterpillar.graph.json").read_text())
    doc["edges"][0]["length"] = 10.0
    residues = json.loads((GOLDEN / "caterpillar.residues.json").read_text())
    residues["entries"] = [[1e308, 0, -1e308, 0], [0, 1, 0, -1]]
    paths = tmp_path / "graph.json", tmp_path / "residues.json"
    for path, content in zip(paths, (doc, residues)):
        path.write_text(json.dumps(content))
    return [str(path) for path in paths]


@pytest.mark.parametrize("argv", [["solve"], ["embed"], ["degenerate", "--t", "1e3"]], ids=lambda a: a[0])
def test_overflowing_electrical_flow_errors(capsys, overflowing_flow, argv):
    code, out, err = run(capsys, argv[0], *overflowing_flow, *argv[1:])
    assert code == 1 and out == ""
    message = "the residues' electrical flow overflows: a potential or current is not finite"
    assert json.loads(err) == {"code": "BadInput", "message": message}


def test_solve_singular_period_matrix_errors(capsys, tmp_path):
    # genus2 with the loop e1-e2 of length 2e-300 and the path u-a-b-v of 3e300
    doc = json.loads((GOLDEN / "genus2.graph.json").read_text())
    for edge in doc["edges"]:
        edge["length"] = 1e-300 if edge["id"] in ("e1", "e2") else 1e300
    graph, res = tmp_path / "graph.json", tmp_path / "residues.json"
    graph.write_text(json.dumps(doc))
    res.write_text(json.dumps({"rows": 1, "leaf_order": ["p1", "p2"], "entries": [[1, -1]]}))
    code, out, err = run(capsys, "solve", str(graph), str(res))
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "SingularSystem"


def test_embed_svg_extent_overflow_errors(capsys):
    # the rays end 1e308 from the origin, so the drawing's extent overflows
    code, out, err = run(capsys, "embed", str(GOLDEN / "tripod.graph.json"),
                         str(GOLDEN / "tripod.residues.json"), "--svg", "--ray-length", "1e308")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput" and "the drawing overflows" in err


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


# perfbench/gen.py tropical_instance(102, 61): genus 2, three leaves; the
# exact loop slopes are all 0, the float ones round-off below 4e-17
ROUND_OFF_LOOPS = {
    "vertices": ["v0", "v1", "v2", "v3", "v4"],
    "edges": [{"id": "e0", "ends": ["v0", "v1"], "length": 2}, {"id": "e1", "ends": ["v0", "v2"], "length": 2},
              {"id": "e2", "ends": ["v2", "v3"], "length": 1}, {"id": "e3", "ends": ["v3", "v4"], "length": 3},
              {"id": "e4", "ends": ["v2", "v1"], "length": 1}, {"id": "e5", "ends": ["v1", "v0"], "length": 3}],
    "leaves": [{"id": "p0", "vertex": "v3"}, {"id": "p1", "vertex": "v4"}, {"id": "p2", "vertex": "v4"}],
}
R_ROUND_OFF_LOOPS = {"rows": 2, "leaf_order": ["p0", "p1", "p2"], "entries": [[0, -2, 2], [2, 0, -2]]}


def test_regularity_rank_of_round_off_loop_slopes_is_zero(capsys, tmp_path):
    g, r = tmp_path / "g.json", tmp_path / "r.json"
    g.write_text(json.dumps(ROUND_OFF_LOOPS))
    r.write_text(json.dumps(R_ROUND_OFF_LOOPS))
    code, out, _ = run(capsys, "regularity", str(g), str(r))
    assert code == 0
    assert json.loads(out) == {"expected": 4, "is_regular": False, "rank": 0}
    code, out, _ = run(capsys, "twists", str(g), str(r), "solve")
    assert code == 0 and json.loads(out)["rank"] == 0


def test_regularity_and_twists_read_large_slopes_as_integers_at_tol_zero(capsys, tmp_path):
    # perfbench/gen.py tropical_instance(101, 179) has the slope
    # 5579.999999999998: an absolute floor of 1e-12 read it as no integer,
    # so regularity fell to singular values cut at 0 and printed rank 8,
    # regular, and twists solve refused it as not tropical
    inst = benchmark_gen().tropical_instance(101, 179)
    g, r = tmp_path / "g.json", tmp_path / "r.json"
    g.write_text(json.dumps(inst["graph"]))
    r.write_text(json.dumps(inst["residues"]))
    code, out, _ = run(capsys, "regularity", str(g), str(r), "--tol", "0")
    assert code == 0
    assert json.loads(out) == {"expected": 8, "is_regular": False, "rank": 5}
    code, out, err = run(capsys, "twists", str(g), str(r), "solve", "--tol", "0")
    assert (code, err) == (0, "") and json.loads(out)["rank"] == 5


def test_twists_solve_and_check(capsys, files):
    code, out, _ = run(capsys, "twists", files["dumbbell"], files["r33"], "solve")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 1 and doc["rank"] == 1
    code, out, _ = run(capsys, "twists", files["dumbbell"], files["r33"], "check",
                       "--twists", files["twists"])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


@pytest.mark.parametrize("residue", [3 * 2**53, 3e27])
def test_twists_solve_refuses_slopes_past_exact_floats(capsys, files, tmp_path, residue):
    # slopes 2/3 and 1/3 of the residue: from 2**53 on every float is an
    # integer whatever the exact slope; 2e27 was cast to int64 as garbage
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"rows": 1, "leaf_order": ["p1", "p2"], "entries": [[residue, -residue]]}))
    code, out, err = run(capsys, "twists", files["dumbbell"], str(p), "solve")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"
    assert "below 2**53" in json.loads(err)["message"]


def test_regularity_refuses_slopes_past_exact_floats(capsys, files, tmp_path):
    # regularity reads integer slopes as twists solve does, so it refuses
    # the same matrix; the SVD used to give it a rank
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"rows": 1, "leaf_order": ["p1", "p2"], "entries": [[3 * 2**53, -3 * 2**53]]}))
    code, out, err = run(capsys, "regularity", files["dumbbell"], str(p))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"code": "BadInput", "message": "loop slopes must be finite and below 2**53 in "
                               "magnitude to be read as exact integers"}


def test_periods(capsys, files):
    code, out, _ = run(capsys, "periods", files["dumbbell"], files["r33"], files["twists"],
                       "--a-edges", "e1")
    assert code == 0
    doc = json.loads(out)
    assert doc["integer"] is True
    assert doc["entries"] == [[[3, 0]], [[2, 0]], [[0, 0]]]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", ["regularity", "periods", "twists check", "twists solve"])
def test_bad_tolerance_errors(capsys, files, command, tol):
    g, r, tw = files["dumbbell"], files["r33"], files["twists"]
    argv = {"regularity": ["regularity", g, r], "periods": ["periods", g, r, tw],
            "twists check": ["twists", g, r, "check", "--twists", tw],
            "twists solve": ["twists", g, r, "solve"]}[command]
    for flagged in (["--tol", tol, *argv], [*argv, "--tol", tol]):
        code, out, err = run(capsys, *flagged)
        assert code == 1 and out == ""
        assert json.loads(err)["code"] == "BadUsage"


def test_collar_value(capsys):
    code, out, _ = run(capsys, "collar", "--l", "0.1")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["w"] == pytest.approx(3.689087757070663)
    assert row["m"] == pytest.approx(30.416342942336896)


def test_collar_flags_no_deviation_at_l_one(capsys):
    # l*m(1) = 2.18 is nearer the quoted constant 2 than pi
    code, out, _ = run(capsys, "collar", "--l", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["observed_limit_of_l_times_m"] == pytest.approx(2.1808304953223345)
    assert doc["deviates_from_quoted_constant"] is False


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


@pytest.mark.parametrize("argv", [["--l", "1e-310"], ["--sweep", "1e-1..1e-310"]])
def test_collar_length_too_small_errors(capsys, argv):
    # below about 1.1e-308, 1/sinh(l/2) or m ~ pi/l overflows the float range
    code, out, err = run(capsys, "collar", *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"


def test_collar_huge_length_is_quiet(capsys):
    # sinh(l/2) overflows to inf, and w = 0 is the right limit
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "collar", "--l", "1e308")
    assert code == 0 and err == "" and caught == []
    assert json.loads(out)["rows"][0]["w"] == 0.0


@pytest.mark.parametrize("points", ["-3", "0", "1"])
def test_collar_too_few_points_errors(capsys, points):
    code, out, err = run(capsys, "collar", "--sweep", "1e-1..1e-8", "--points", points)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"


def test_collar_sweep_too_many_points_errors(capsys):
    # numpy refuses the 7.28 TiB sweep array before allocating anything
    code, out, err = run(capsys, "collar", "--sweep", "1e-1..1e-8", "--points", "1000000000000")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "SamplingTooDense"


def test_collar_two_points(capsys):
    code, out, _ = run(capsys, "collar", "--sweep", "1e-1..1e-8", "--points", "2")
    assert code == 0
    assert [row["l"] for row in json.loads(out)["rows"]] == [0.1, 1e-8]


def test_collar_sweep_matches_golden(capsys):
    code, out, err = run(capsys, "collar", "--sweep", "1e-1..1e-8")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "collar.sweep.stdout").read_bytes()


@pytest.mark.parametrize("argv, message", [
    # lengths in about (1.1e-308, 1.8e-308) overflow the modulus but not
    # the width; the largest failing length decides
    (["--sweep", "1e-300..1e-309", "--points", "40"], "collar_modulus overflows: the length is too small"),
    (["--sweep", "1e-1..1e-310"], "collar_width overflows: the length is too small"),
])
def test_collar_sweep_reports_the_largest_failing_length(capsys, argv, message):
    code, out, err = run(capsys, "collar", *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"code": "BadInput", "message": message}


@pytest.mark.parametrize("command", ["twists check", "collar"])
def test_bad_arguments_are_bad_input(capsys, files, command):
    argv = {"twists check": ["twists", files["dumbbell"], files["r33"], "check"],  # no --twists
            "collar": ["collar", "--sweep", "abc"]}[command]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"


def test_degenerate_zero_density_errors(capsys, files):
    code, _, err = run(capsys, "degenerate", files["tripod"], files["rline"], "--density", "0")
    assert code == 1
    assert json.loads(err)["code"] == "MinimumDensityViolation"


def test_degenerate_density_too_small_for_u_step_errors(capsys, files):
    # 0.02 / 5e-324 overflows the radial step to inf
    code, out, err = run(capsys, "degenerate", files["tripod"], files["rline"], "--density", "5e-324")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "MinimumDensityViolation"


def test_degenerate_too_dense_errors(capsys, files):
    # the first array of this density is far beyond any memory; numpy refuses
    # it before touching a page
    code, out, err = run(capsys, "degenerate", files["tripod"], files["rline"], "--density", "1e9")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "SamplingTooDense"


@pytest.mark.parametrize("t, density", [("3", "8e15"), ("1e3", "1e20"), ("1e3", "1e307")])
def test_degenerate_unindexable_density_is_too_dense(capsys, files, t, density):
    # a chart's radius rows beyond any array size, a circle's angles beyond
    # it, and an angle count that overflows to inf: each used to end in
    # Internal (numpy's size ValueError, or round(inf)'s OverflowError)
    code, out, err = run(capsys, "degenerate", files["tripod"], files["rline"], "--t", t,
                         "--density", density)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "SamplingTooDense"


def test_degenerate_bad_t_list_errors(capsys, files):
    code, _, err = run(capsys, "degenerate", files["tripod"], files["rline"], "--t", "abc")
    assert code == 1
    assert json.loads(err)["code"] == "BadInput"


def test_degenerate_infinite_t_errors(capsys, files):
    code, out, err = run(capsys, "degenerate", files["tripod"], files["rline"], "--t", "inf")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"


@pytest.mark.parametrize("window", ["nan", "inf", "1e300", "1e-170"])
def test_degenerate_non_finite_window_errors(capsys, files, window):
    # a NaN bound, an infinite bound, a window whose diagonal overflows and
    # one whose scene sample spacing (diagonal / 2048) underflows to 0
    code, out, err = run(capsys, "degenerate", files["tripod"], files["rline"],
                         "--t", "1e3", "--window", window)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"


@pytest.mark.parametrize("argv", [["--t", "3,1e6", "--density", "8e15"], ["--t", "1e6,inf"]])
def test_degenerate_refuses_an_unplaceable_t_before_sampling_any(capsys, tmp_path, argv):
    # every t is placed before any is sampled: t = 1e6 cannot be placed on
    # this tree, so its error comes before t = 3's too-dense sampling, and,
    # each t checked as it is placed, before t = inf's placement error
    paths = []
    for name, doc in (("graph", MERGING_TREE), ("residues", MERGING_TREE_RESIDUES)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    code, out, err = run(capsys, "degenerate", *map(str, paths), *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"code": "BadInput", "message": "punctures must be pairwise distinct"}


@pytest.mark.parametrize("fixture, length, ts", [
    ("three-vertex", None, "1e3,1e308"),  # t**H overflowed to an OverflowError
    ("caterpillar", 50.0, "1e7"),
    ("caterpillar", None, "1e308"),  # the global grid's linspace overflowed, exit 0
])
def test_degenerate_refuses_a_t_whose_placement_leaves_the_float_range(capsys, tmp_path, fixture, length, ts):
    graph = json.loads((GOLDEN / f"{fixture}.graph.json").read_text())
    if length is not None:
        graph["edges"][0]["length"] = length
    (tmp_path / "graph.json").write_text(json.dumps(graph))
    code, out, err = run(capsys, "degenerate", str(tmp_path / "graph.json"),
                         str(GOLDEN / f"{fixture}.residues.json"), "--t", ts)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"
    assert "beyond the float range" in json.loads(err)["message"]


@pytest.mark.parametrize("fixture", ["tripod", "caterpillar", "three-vertex", "genus2"])
def test_check_stdout_matches_golden(capsys, fixture):
    # the goldens hold the stdout of the rank-verified version; genus2 is the
    # conftest graph, so the check also runs over loop rows
    path = GOLDEN / f"{fixture}.graph.json"
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{fixture}.check.stdout").read_bytes()
    if fixture == "genus2":
        assert load_graph(str(path)) == genus2_graph()


@pytest.mark.parametrize("command", ["solve", "embed"])
@pytest.mark.parametrize("fixture", ["tripod", "caterpillar", "three-vertex", "genus2"])
def test_solve_and_embed_stdout_match_golden(capsys, monkeypatch, fixture, command):
    # residues are integers on these trees, and on genus2 they are a multiple
    # that makes every current an integer, so the goldens hold exact values;
    # solve echoes the graph path it is given, so this runs from the
    # repository root, as CI does
    monkeypatch.chdir(GOLDEN.parent.parent)
    code, out, err = run(capsys, command, f"tests/golden/{fixture}.graph.json",
                         f"tests/golden/{fixture}.residues.json")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{fixture}.{command}.stdout").read_bytes()


@pytest.mark.parametrize("fixture", ["tripod", "caterpillar", "three-vertex", "genus2"])
def test_embed_svg_stdout_matches_golden(capsys, fixture):
    # the drawing every cli-tropical benchmark job makes; it prints no path
    code, out, err = run(capsys, "embed", str(GOLDEN / f"{fixture}.graph.json"),
                         str(GOLDEN / f"{fixture}.residues.json"), "--svg")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{fixture}.embed-svg.stdout").read_bytes()


@pytest.mark.parametrize("command", ["regularity", "twists-solve", "twists-check", "periods"])
def test_morphism_commands_match_genus2_golden(capsys, command):
    # the commands that read the morphism, on the conftest genus-2 graph with
    # integer slopes; genus2.twists.json passes every loop congruence
    graph, residues, twists = (str(GOLDEN / f"genus2.{x}.json") for x in ("graph", "residues", "twists"))
    argv = {"regularity": ["regularity", graph, residues],
            "twists-solve": ["twists", graph, residues, "solve"],
            "twists-check": ["twists", graph, residues, "check", "--twists", twists],
            "periods": ["periods", graph, residues, twists]}[command]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"genus2.{command}.stdout").read_bytes()


def test_periods_with_other_a_edges_matches_genus2_golden(capsys):
    # e1, f1 is a valid choice other than the default e2, f3, so this basis
    # goes through the check that the default one skips
    graph, residues, twists = (str(GOLDEN / f"genus2.{x}.json") for x in ("graph", "residues", "twists"))
    code, out, err = run(capsys, "periods", graph, residues, twists, "--a-edges", "e1,f1")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "genus2.periods-a-edges.stdout").read_bytes()


@pytest.mark.parametrize("tol", ["0", "1e-9", "0.4"])
def test_regularity_on_integer_slopes_is_the_twist_rank_at_every_tol(capsys, tol):
    # the SVD read the genus-2 loop matrix as rank 4, regular, at --tol 0,
    # where round-off singular values count, and as rank 1 at --tol 0.4; on
    # integer slopes --tol is the integrality tolerance, as for twists
    graph, residues = (str(GOLDEN / f"genus2.{x}.json") for x in ("graph", "residues"))
    code, out, err = run(capsys, "regularity", graph, residues, "--tol", tol)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"expected": 4, "is_regular": False, "rank": 2}
    code, out, _ = run(capsys, "twists", graph, residues, "solve", "--tol", tol)
    assert code == 0 and json.loads(out)["rank"] == 2


@pytest.mark.parametrize("window, density", [(None, None), ("3", None), ("3", "2")],
                         ids=["None", "3", "3-density2"])
@pytest.mark.parametrize("fixture", ["tripod", "caterpillar", "three-vertex"])
def test_degenerate_stdout_matches_golden(capsys, fixture, window, density):
    # the golden files without a density hold stdout of the version before
    # conjugate-twin samples were dropped, less the "kappa" key the report
    # has lost since; the density-2 ones, whose larger charts give other
    # BLAS call shapes, that of the version before the cloud was kept sorted
    # by region chart by chart; every later change must reproduce them byte
    # for byte
    argv = ["degenerate", str(GOLDEN / f"{fixture}.graph.json"),
            str(GOLDEN / f"{fixture}.residues.json"), "--t", "1e3,1e6"]
    name = fixture
    if window is not None:
        argv += ["--window", window]
        name += f".window{window}"
    if density is not None:
        argv += ["--density", density]
        name += f".density{density}"
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


def test_degenerate_stdout_does_not_depend_on_the_blas_kernel():
    # real residues make the image a sum of inexact products; through BLAS
    # its last bits followed the kernel OpenBLAS picks for the CPU, and v0's
    # distance at t = 1e3 printed 0.098702577988267398 under an AVX-512
    # kernel and 0.098702577988267495 under Sandybridge.  Both runs must
    # print the golden stdout
    argv = ["degenerate", str(GOLDEN / "caterpillar.graph.json"), str(GOLDEN / "caterpillar.real-residues.json"),
            "--t", "1e3,1e6", "--window", "3", "--density", "2"]
    src = os.path.dirname(os.path.dirname(tropharm.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    outs = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Sandybridge"}):
        proc = subprocess.run([sys.executable, "-c", "import sys; from tropharm.cli import main; sys.exit(main())",
                               *argv], env={**env, **kernel}, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0] == (GOLDEN / "caterpillar.real.window3.density2.stdout").read_bytes()


def test_degenerate_wide_window_matches_earlier_stdout(capsys):
    # the scene runs out to 1e20 while the cloud stays near the origin; this
    # took 20 s while a KD-tree on the cloud served the scene-to-cloud side
    code, out, err = run(capsys, "degenerate", str(GOLDEN / "tripod.graph.json"),
                         str(GOLDEN / "tripod.residues.json"), "--t", "1e3", "--window", "1e20")
    assert (code, err) == (0, "")
    assert out == (
        '{"base_vertex": "w", "infinite_leaf": "p3", "results": {"1000": {"global_hausdorff": '
        '1.4142135623730951e+20, "per_tripod": {"w": 1.4142135623730951e+20}, "samples": 1112419}}, '
        '"window": [[-1e+20, 1e+20], [-1e+20, 1e+20]]}\n'
    )


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


def test_degenerate_repeated_t_runs_once(capsys, files, tmp_path):
    argv = ["--quiet", "degenerate", files["tripod"], files["rline"], "--window", "3",
            "--density", "0.5"]
    code, once, _ = run(capsys, *argv, "--t", "1e3")
    assert code == 0
    csv = tmp_path / "d.csv"
    code, twice, _ = run(capsys, *argv, "--t", "1e3,1e3", "--csv", str(csv))
    assert code == 0 and twice == once
    assert len(csv.read_text().splitlines()) == 2


@pytest.mark.parametrize("where", ["out-missing-dir", "out-directory", "csv-missing-dir"])
def test_unwritable_output_file_errors(capsys, files, tmp_path, where):
    target = str(tmp_path) if where == "out-directory" else str(tmp_path / "missing" / "x")
    if where.startswith("csv"):
        argv = ["degenerate", files["tripod"], files["rline"], "--t", "1e3", "--window", "3",
                "--density", "0.5", "--csv", target]
    else:
        argv = ["check", files["tripod"], "--out", target]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"


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


# a missing file, text that is not JSON, bytes that are not UTF-8, and JSON
# that is not an object
UNREADABLE = [None, "{not json", b"\xff\xfe{}", "[1, 2]"]


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)


@pytest.mark.parametrize("content", UNREADABLE + ['{"e1": NaN, "e2": 0}', '{"e1": "1e400", "e2": 0}'])
def test_bad_twist_file_errors(capsys, files, tmp_path, content):
    path = tmp_path / "tw.json"
    _write(path, content)
    for argv in (("periods", files["dumbbell"], files["r33"], str(path)),
                 ("twists", files["dumbbell"], files["r33"], "check", "--twists", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["code"] == "BadInput"


@pytest.mark.parametrize("kind", ["graph", "residues"])
@pytest.mark.parametrize("content", UNREADABLE)
def test_bad_graph_or_residue_file_errors(capsys, files, tmp_path, kind, content):
    path = tmp_path / "in.json"
    _write(path, content)
    argv = ["solve", files["dumbbell"], files["r33"]]
    argv[1 if kind == "graph" else 2] = str(path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"


BIG_INT = "1" + "0" * 400  # an integer literal no float can hold


@pytest.mark.parametrize("command, kind, text", [
    ("check", "graph", "true"),
    ("check", "graph", '"2"'),
    ("check", "graph", BIG_INT),
    ("solve", "residues", '{"rows": true, "leaf_order": ["p1", "p2"], "entries": [[1, -1]]}'),
    ("solve", "residues", '{"rows": 2.5, "leaf_order": ["p1", "p2"], "entries": [[1, -1], [2, -2]]}'),
    ("solve", "residues", '{"rows": 1, "leaf_order": ["p1", "p2"], "entries": [[true, -1]]}'),
    ("solve", "residues", '{"rows": 1, "leaf_order": ["p1", "p2"], "entries": [[1, "-1"]]}'),
    ("solve", "residues", f'{{"rows": 1, "leaf_order": ["p1", "p2"], "entries": [[{BIG_INT}, -1]]}}'),
    ("twists check", "twists", '{"e1": true, "e2": 0.5}'),
    ("twists check", "twists", '{"e1": 1, "e2": "0.5"}'),
    ("twists check", "twists", f'{{"e1": {BIG_INT}, "e2": 0}}'),
], ids=["length-true", "length-string", "length-big-int", "rows-true", "rows-float",
        "entry-true", "entry-string", "entry-big-int", "twist-true", "twist-string", "twist-big-int"])
def test_non_number_input_errors(capsys, files, tmp_path, command, kind, text):
    path = tmp_path / "in.json"
    if kind == "graph":  # the text is the first edge's length
        path.write_text(json.dumps(DUMBBELL).replace('"length": 1.0', f'"length": {text}', 1))
    else:
        path.write_text(text)
    g = str(path) if kind == "graph" else files["dumbbell"]
    r = str(path) if kind == "residues" else files["r33"]
    argv = {"check": ["check", g], "solve": ["solve", g, r],
            "twists check": ["twists", g, r, "check", "--twists", str(path)]}[command]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadInput"


@pytest.mark.parametrize("field, value, code", [
    ("length", "abc", "BadInput"),
    ("length", [1], "BadInput"),
    ("length", float("inf"), "BadInput"),
    ("length", float("nan"), "NonPositiveLength"),
    ("ribbon", [1, 2], "BadInput"),
    ("ribbon", {"v0": 5}, "BadInput"),
], ids=["length-abc", "length-list", "length-inf", "length-nan", "ribbon-list", "ribbon-int-order"])
def test_malformed_graph_document_errors(capsys, tmp_path, field, value, code):
    doc = json.loads((GOLDEN / "caterpillar.graph.json").read_text())
    if field == "length":
        doc["edges"][0]["length"] = value
    else:
        doc["ribbon"] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    got, out, err = run(capsys, "check", str(path))
    assert got == 1 and out == ""
    assert json.loads(err)["code"] == code


@pytest.mark.parametrize("change, code, message", [
    ({"vertices": ["u", "v", "u"]}, "BadInput", "duplicate vertex ids"),
    ({"leaves": [{"id": "e1", "vertex": "u"}, {"id": "p2", "vertex": "v"}]}, "BadInput",
     "edge and leaf ids must be pairwise distinct"),
    ({"edges": [{"id": "e1", "ends": ["u", "w"], "length": 1.0}, DUMBBELL["edges"][1]]}, "BadInput",
     "edge e1 references unknown vertex"),
    ({"leaves": [{"id": "p1", "vertex": "w"}, {"id": "p2", "vertex": "v"}]}, "BadInput",
     "leaf p1 references unknown vertex"),
    ({"ribbon": {"w": ["a", "b", "c"]}}, "BadRibbon", "ribbon mentions unknown vertices ['w']"),
], ids=["repeated-vertex", "edge-id-as-leaf-id", "edge-to-unknown-vertex", "leaf-on-unknown-vertex",
        "ribbon-on-unknown-vertex"])
def test_graph_document_with_unresolved_ids_errors(capsys, tmp_path, change, code, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**DUMBBELL, **change}))
    got, out, err = run(capsys, "check", str(path))
    assert (got, out) == (1, "")
    assert json.loads(err) == {"code": code, "message": message}


GENUS2 = {x: str(GOLDEN / f"genus2.{x}.json") for x in ("graph", "residues", "twists")}


@pytest.mark.parametrize("argv, doc, code, message", [
    (["solve", "{dumbbell}", "{in}"], {"rows": 2, "leaf_order": ["p1", "p2"], "entries": [[1, -1]]}, "BadInput",
     "entries shape (1, 2) does not match rows=2, 2 leaves"),
    (["embed", "{dumbbell}", "{r33}", "--base-vertex", "w"], None, "BadInput", "unknown base vertex w"),
    (["twists", "{dumbbell}", "{r33}", "check", "--twists", "{in}"], {"e1": 0.0}, "BadInput",
     "twists missing for edges ['e2']"),
    (["periods", "{dumbbell}", "{r33}", "{in}"], {"e1": 0.0, "e2": 0.0, "p1": 0.0}, "BadInput",
     "twists on unknown edges ['p1']"),
    (["periods", *GENUS2.values(), "--a-edges", "e2,e2"], None, "BadBasis",
     "A-cycle edges must be distinct non-leaf edges"),
    (["periods", *GENUS2.values(), "--a-edges", "e2,p1"], None, "BadBasis",
     "A-cycle edges must be distinct non-leaf edges"),
    (["periods", *GENUS2.values(), "--a-edges", "f1,f2"], None, "BadBasis",
     "A-edges pair degenerately with the B-loops"),
], ids=["residue-shape", "unknown-base-vertex", "twist-missing", "twist-on-leaf", "repeated-a-edge",
        "leaf-as-a-edge", "degenerate-a-edges"])
def test_inconsistent_input_errors(capsys, files, tmp_path, argv, doc, code, message):
    (tmp_path / "in.json").write_text(json.dumps(doc))
    got, out, err = run(capsys, *(a.format(**files, **{"in": str(tmp_path / "in.json")}) for a in argv))
    assert (got, out) == (1, "")
    assert json.loads(err) == {"code": code, "message": message}


def test_regularity_has_no_base_vertex_flag(capsys, files):
    code, out, err = run(capsys, "regularity", files["dumbbell"], files["r33"], "--base-vertex", "u")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadUsage"


def test_no_subcommand_imports_scipy(files):
    # a fresh interpreter: this test process may already hold scipy
    script = """
import sys
from tropharm import cli
for argv in {calls!r} + [{degenerate!r}]:
    assert cli.main(argv) == 0, argv
for module in ("scipy", "fractions", "decimal"):
    assert module not in sys.modules, module
"""
    g, r = files["dumbbell"], files["r33"]
    calls = [
        ["check", g], ["solve", g, r], ["embed", g, r], ["embed", files["tripod"], files["rline"], "--svg"],
        ["regularity", g, r], ["twists", g, r, "solve"],
        ["twists", g, r, "check", "--twists", files["twists"]],
        ["periods", g, r, files["twists"]], ["collar", "--l", "0.1"],
    ]
    degenerate = ["degenerate", files["tripod"], files["rline"], "--t", "1e3",
                  "--window", "3", "--density", "0.5"]
    src = os.path.dirname(os.path.dirname(tropharm.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script.format(calls=calls, degenerate=degenerate)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flag, value, attr, expected", [
    ("--tol", "0.5", "tol", 0.5), ("--out", "x.json", "out", "x.json"), ("--quiet", None, "quiet", True),
])
@pytest.mark.parametrize("before", [True, False])
def test_global_flag_before_or_after_subcommand(flag, value, attr, expected, before):
    given = [flag] if value is None else [flag, value]
    command = ["regularity", "g.json", "r.json"]
    args = cli.build_parser().parse_args(given + command if before else command + given)
    assert getattr(args, attr) == expected
    plain = cli.build_parser().parse_args(command)
    assert (plain.tol, plain.out, plain.quiet) == (1e-9, None, False)


def test_collar_l_and_sweep_are_exclusive(capsys):
    code, out, err = run(capsys, "collar", "--l", "0.1", "--sweep", "1e-3..1e-1")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadUsage"


def test_parser_is_reused_without_leaking_state(capsys, files, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    out_file = tmp_path / "check.json"
    code, out, _ = run(capsys, "check", files["dumbbell"], "--out", str(out_file), "--quiet")
    assert code == 0 and out == ""
    code, out, err = run(capsys, "bogus", files["dumbbell"])
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "BadUsage"
    code, out, err = run(capsys, "check", files["dumbbell"])
    assert code == 0 and err == ""
    assert out == out_file.read_text()
