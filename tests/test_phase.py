import functools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropharm import _intmat
from tropharm.errors import BadBasisError, InputError, NotTropicalError
from tropharm.forms import ResidueMatrix, residues_from_dict
from tropharm.graph import (CubicGraph, Edge, GraphPath, Leaf, MetricGraph, OrientedEdge, _path_columns,
                            cycle_basis, graph_from_dict)
from tropharm.morphisms import build_morphism, regularity_rank
from tropharm.phase import (
    PeriodBasis,
    TwistAssignment,
    _check_basis,
    check_integrality,
    default_period_basis,
    is_integer_period_matrix,
    limit_period_matrix,
    solve_twists,
    zero_twists,
)

from conftest import caterpillar_graph, dumbbell_graph, genus2_graph
from _generators import benchmark_gen, random_tropical_morphism, random_valid_cubic
from oracles import rational_nullspace_fraction

R33 = ResidueMatrix([[3.0, -3.0]])


def twist_sums(mg, theta):
    """check_integrality's (loop, coordinate) sums for R = [[3, -3]], where
    the currents are e1: 2, e2: 1."""
    return check_integrality(mg, TwistAssignment(mg, theta), build_morphism(mg, R33)).sums


def test_loop_twist_sum_zero_twists(dumbbell):
    assert twist_sums(dumbbell, {"e1": 0.0, "e2": 0.0}).tolist() == [[0.0]]


def test_loop_twist_sum_cancellation(dumbbell):
    assert twist_sums(dumbbell, {"e1": np.pi / 2, "e2": np.pi})[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_loop_twist_sum_value(dumbbell):
    # the basis loop runs e2 forward and e1 backward: 0 * 1 - 1 * 2
    assert [(oe.id, oe.forward) for oe in dumbbell.loops[0].items] == [("e2", True), ("e1", False)]
    assert twist_sums(dumbbell, {"e1": 1.0, "e2": 0.0})[0, 0] == pytest.approx(-2.0)


def test_check_integrality_cases(dumbbell):
    mor = build_morphism(dumbbell, R33)
    assert check_integrality(dumbbell, zero_twists(dumbbell), mor, 1e-9).all_pass
    good = TwistAssignment(dumbbell, {"e1": np.pi / 2, "e2": np.pi})
    assert check_integrality(dumbbell, good, mor, 1e-9).all_pass
    bad = TwistAssignment(dumbbell, {"e1": 1.0, "e2": 0.0})
    assert not check_integrality(dumbbell, bad, mor, 1e-9).all_pass


def test_check_integrality_needs_integer_slopes(dumbbell):
    mor = build_morphism(dumbbell, ResidueMatrix([[1.0, -1.0]]))
    with pytest.raises(NotTropicalError):
        check_integrality(dumbbell, zero_twists(dumbbell), mor, 1e-9)


@pytest.mark.parametrize("solve", [True, False], ids=["solve", "check"])
def test_not_tropical_names_the_worst_slope(solve):
    # slopes off an integer by 0.25, 0.25, 0.125, 0.125, 0.375 and, last of
    # all, 0.5 on leaf p4's second coordinate
    mg = caterpillar_graph()
    mor = build_morphism(mg, ResidueMatrix([[0.25, 0.75, -1.0, 0.0], [0.0, 0.125, 0.375, -0.5]]))
    with pytest.raises(NotTropicalError, match=r"^morphism has non-integer slopes: p4 coordinate 1 "
                                               r"has slope 0\.5, 0\.5 from the nearest integer$"):
        if solve:
            solve_twists(mg, mor)
        else:
            check_integrality(mg, zero_twists(mg), mor)


def test_integrality_linear_in_cycle_space(rng):
    # pass on the basis implies pass on random integer combinations
    mg, R, mor = random_tropical_morphism(genus2_graph(), rng)
    sol = solve_twists(mg, mor)
    tw = sol.sample(rng)
    loops = cycle_basis(mg)
    eidx = {e: i for i, e in enumerate(mg.graph.edge_ids)}
    theta = np.array([tw.theta[e] for e in mg.graph.edge_ids])
    slopes = np.array([mor.edge_slope[e][0] for e in mg.graph.edge_ids])
    inc = np.zeros((len(loops), len(eidx)))
    for i, loop in enumerate(loops):
        for oe in loop.items:
            inc[i, eidx[oe.id]] += 1.0 if oe.forward else -1.0
    for _ in range(10):
        combo = rng.integers(-3, 4, size=len(loops)).astype(float) @ inc
        s = float((combo * theta * slopes).sum())
        assert abs(s - 2 * np.pi * np.round(s / (2 * np.pi))) <= 1e-8


def test_solve_twists_dumbbell(dumbbell):
    mor = build_morphism(dumbbell, R33)
    sol = solve_twists(dumbbell, mor)
    assert sol.rank == 1
    assert sol.dimension == 1
    assert sorted(sol.edge_order) == ["e1", "e2"]
    # representative theta = 0 always solves the homogeneous congruences
    assert check_integrality(dumbbell, sol.representative, mor, 1e-9).all_pass
    # constraint row is +-(2, -1) over (e1, e2)
    row = sol.constraint_matrix[0]
    assert sorted(np.abs(row)) == [1, 2]


def test_solve_twists_genus0(tripod):
    mor = build_morphism(tripod, ResidueMatrix([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]))
    sol = solve_twists(tripod, mor)
    assert sol.dimension == 0 == sol.rank  # no edges, no constraints


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 2]))
def test_regularity_rank_equals_twist_rank(seed, m):
    # both ranks are of the one loop-slope matrix, by SVD and by exact
    # elimination; the twist torus has dimension |E| - rank, and the morphism
    # is regular exactly when that is |E| - m*g
    rng = np.random.default_rng(seed)
    mg, _, mor = random_tropical_morphism(random_valid_cubic(rng), rng, m=m)
    rep = regularity_rank(mg, mor)
    sol = solve_twists(mg, mor)
    n_edges = len(mg.graph.edge_ids)
    assert rep.rank == sol.rank
    assert sol.dimension == n_edges - sol.rank
    assert rep.is_regular == (sol.dimension == n_edges - m * mg.genus)


def test_solve_twists_samples_pass(rng):
    for base in (dumbbell_graph(), genus2_graph()):
        mg, R, mor = random_tropical_morphism(base, rng)
        sol = solve_twists(mg, mor)
        for _ in range(20):
            tw = sol.sample(rng)
            chk = check_integrality(mg, tw, mor, 1e-9)
            assert chk.all_pass, chk.residuals


@functools.cache
def _benchmark_morphisms(seed):
    """(graph, morphism) of the benchmark's tropical_instance(seed, i) for i < 200:
    genus 1-4, 2-6 leaves, two integer residue rows."""
    gen, out = benchmark_gen(), []
    for i in range(200):
        inst = gen.tropical_instance(seed, i)
        mg = graph_from_dict(inst["graph"])
        out.append((mg, build_morphism(mg, residues_from_dict(inst["residues"], mg))))
    return out


def test_twist_samples_of_the_benchmark_instances_pass_their_check():
    # float coefficients times the kernel, reduced mod 2*pi afterwards, gave
    # 53 of these 200 samples loop residuals up to 3.08 rad
    gen = benchmark_gen()
    for i, (mg, mor) in enumerate(_benchmark_morphisms(101)):
        tw = solve_twists(mg, mor).sample(gen.instance_rng(101, gen.TWIST_STREAM, i))
        chk = check_integrality(mg, tw, mor, 1e-9)
        assert chk.all_pass, (i, chk.residuals.max())


def test_twist_solve_and_check_refuse_the_same_slopes_at_tol_zero():
    # solve_twists read tol 0 as is and refused 91 of these morphisms as not
    # tropical, while check_integrality floored tol at 1e-12 and refused 4,
    # whose slopes of a few thousand miss an integer by round-off alone; a
    # floor of 16 eps times the largest slope refuses none
    refused = 0
    for mg, mor in _benchmark_morphisms(101):
        try:
            solve_twists(mg, mor, tol=0.0)
            solved = True
        except NotTropicalError:
            solved = False
        try:
            check_integrality(mg, zero_twists(mg), mor, tol=0.0)
            checked = True
        except NotTropicalError:
            checked = False
        assert solved == checked
        refused += not solved
    assert refused == 0


def test_limit_period_matrix_dumbbell(dumbbell):
    basis = PeriodBasis(("p1",), ("e1",), cycle_basis(dumbbell))
    tw = TwistAssignment(dumbbell, {"e1": np.pi / 2, "e2": np.pi})
    P = limit_period_matrix(dumbbell, tw, R33, basis)
    assert P.labels == ("puncture:p1", "A:e1", "B:0")
    assert np.allclose(P.entries.ravel(), [3.0, 2.0, 0.0], atol=1e-12)
    assert is_integer_period_matrix(P, 1e-9)

    tw2 = TwistAssignment(dumbbell, {"e1": np.pi / 2, "e2": 0.0})
    P2 = limit_period_matrix(dumbbell, tw2, R33, basis)
    b_entry = P2.entries[2, 0]
    assert abs(b_entry.real + 0.5) <= 1e-12 or abs(b_entry.real - 0.5) <= 1e-12
    assert not is_integer_period_matrix(P2, 1e-9)


def test_limit_period_matrix_refuses_data_on_another_graph():
    # the dumbbells a and b differ only in e2's length; b's morphism gave
    # a's A-row 0.5 where a's own gives 1, without an error
    a, b = dumbbell_graph(1.0, 2.0), dumbbell_graph(1.0, 5.0)
    with pytest.raises(InputError, match="HarmonicMorphism lives on another metric graph"):
        limit_period_matrix(a, zero_twists(a), R33, mor=build_morphism(b, R33))
    with pytest.raises(InputError, match="TwistAssignment lives on another metric graph"):
        limit_period_matrix(a, zero_twists(b), R33)
    # an equal carrier built separately is the same graph
    same = limit_period_matrix(a, zero_twists(a), R33, mor=build_morphism(dumbbell_graph(1.0, 2.0), R33))
    assert same.entries.tolist() == limit_period_matrix(a, zero_twists(a), R33).entries.tolist() == [[3], [1], [0]]


def _ring(rng, k):
    """k vertices on a cycle, one leaf at each, random edge directions and
    lengths: the one basis loop has k edges."""
    edges = [Edge(f"e{i:02d}", (f"v{i}", f"v{(i + 1) % k}")[::int(rng.choice([1, -1]))]) for i in range(k)]
    g = CubicGraph(tuple(f"v{i}" for i in range(k)), tuple(edges), tuple(Leaf(f"p{i}", f"v{i}") for i in range(k)))
    return MetricGraph(g, {e.id: float(rng.uniform(0.5, 3.0)) for e in edges})


def _sequential_twist_sums(twists, mor, loops):
    """Each loop's theta(e) * slope(e) terms added one by one in loop order, from +0.0."""
    sums = np.zeros((len(loops), mor.ambient_dim))
    for row, loop in zip(sums, loops):
        for oe in loop.items:
            slope = mor.edge_slope[oe.id]
            row += twists.theta[oe.id] * (slope if oe.forward else -slope)
    return sums


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(8, 14), m=st.integers(1, 2))
def test_twist_sums_are_added_in_loop_order(seed, k, m):
    # one loop of 8-14 edges: np.sum or a product in edge order would add the
    # terms in another order and round differently; B-rows and check sums
    # must equal the loop-order sums bit for bit
    rng = np.random.default_rng(seed)
    mg = _ring(rng, k)
    rows = rng.normal(size=(m, k))
    rows[:, -1] = -rows[:, :-1].sum(axis=1)
    R = ResidueMatrix(rows)
    twists = TwistAssignment(mg, {e: float(rng.uniform(0, 2 * np.pi)) for e in mg.graph.edge_ids})
    want = _sequential_twist_sums(twists, build_morphism(mg, R), mg.loops)
    P = limit_period_matrix(mg, twists, R)
    assert P.entries[-1:].real.tobytes() == (want / (2 * np.pi)).tobytes()
    tmg, _, mor = random_tropical_morphism(mg, rng)
    tw = TwistAssignment(tmg, twists.theta)
    assert check_integrality(tmg, tw, mor).sums.tobytes() == _sequential_twist_sums(tw, mor, tmg.loops).tobytes()


def test_limit_period_matrix_refuses_a_morphism_of_other_residues():
    # the puncture rows come from R and the A-rows from mor: [[6, -6]]'s
    # morphism gave A-row 2 beside R = [[3, -3]]'s puncture row 3, where R's
    # own morphism gives 1, without an error
    a = dumbbell_graph(1.0, 2.0)
    with pytest.raises(InputError, match="the morphism's residues are not R"):
        limit_period_matrix(a, zero_twists(a), R33, mor=build_morphism(a, ResidueMatrix([[6.0, -6.0]])))
    own = limit_period_matrix(a, zero_twists(a), R33, mor=build_morphism(a, R33))
    assert own.entries.tolist() == [[3], [1], [0]]


def test_check_integrality_refuses_data_on_another_graph():
    a, b = dumbbell_graph(1.0, 2.0), dumbbell_graph(1.0, 5.0)
    R66 = ResidueMatrix([[6.0, -6.0]])  # integer slopes on both
    with pytest.raises(InputError, match="HarmonicMorphism lives on another metric graph"):
        check_integrality(a, zero_twists(a), build_morphism(b, R66))
    with pytest.raises(InputError, match="TwistAssignment lives on another metric graph"):
        check_integrality(a, zero_twists(b), build_morphism(a, R66))


def test_solve_twists_refuses_a_morphism_on_another_graph():
    a, b = dumbbell_graph(1.0, 2.0), dumbbell_graph(1.0, 5.0)
    with pytest.raises(InputError, match="HarmonicMorphism lives on another metric graph"):
        solve_twists(a, build_morphism(b, ResidueMatrix([[6.0, -6.0]])))


def test_limit_period_matrix_tripod(tripod):
    R = ResidueMatrix([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
    P = limit_period_matrix(tripod, zero_twists(tripod), R)
    assert P.labels == ("puncture:p1", "puncture:p2")
    assert np.allclose(P.entries, [[1.0, 0.0], [0.0, 1.0]])


def test_puncture_rows_equal_residues(rng):
    mg, R, mor = random_tropical_morphism(genus2_graph(), rng)
    P = limit_period_matrix(mg, zero_twists(mg), R)
    n = mg.n_leaves
    leaf_cols = {l.id: j for j, l in enumerate(mg.graph.leaves)}
    for i in range(n - 1):
        lid = P.labels[i].split(":", 1)[1]
        assert np.allclose(P.entries[i].real, R.entries[:, leaf_cols[lid]])


def test_bad_basis_rejected(dumbbell):
    loops = cycle_basis(dumbbell)
    with pytest.raises(BadBasisError):
        limit_period_matrix(dumbbell, zero_twists(dumbbell), R33,
                            PeriodBasis(("p1", "p2"), ("e1",), loops))
    with pytest.raises(BadBasisError):
        limit_period_matrix(dumbbell, zero_twists(dumbbell), R33,
                            PeriodBasis(("p1",), ("e1", "e2"), loops))


_G2 = genus2_graph()
_G2_LOOPS = cycle_basis(_G2)


@pytest.mark.parametrize("change, message", [
    ({"puncture_leaves": ("p1", "p1")}, "puncture labels must be distinct leaves"),
    ({"puncture_leaves": ("e1",)}, "puncture labels must be distinct leaves"),
    ({"a_edges": ("e2", "e2")}, "A-cycle edges must be distinct non-leaf edges"),
    ({"a_edges": ("e2", "p1")}, "A-cycle edges must be distinct non-leaf edges"),
    ({"b_loops": (_G2_LOOPS[0], GraphPath((OrientedEdge("p1", True), OrientedEdge("f2", True),
                                          OrientedEdge("p2", False)), is_loop=False))},
     "B-cycle entries must be loops"),
    ({"b_loops": (_G2_LOOPS[0], _G2_LOOPS[0])}, "B-loops are rationally dependent"),
    ({"a_edges": ("f1", "f2")}, "A-edges pair degenerately with the B-loops"),  # f1, f2 lie on one loop
], ids=["repeated-puncture", "edge-as-puncture", "repeated-a-edge", "leaf-as-a-edge", "leaf-path-as-b-loop",
        "repeated-b-loop", "degenerate-pairing"])
def test_period_basis_refusals(change, message):
    basis = replace(default_period_basis(_G2), **change)
    with pytest.raises(BadBasisError, match=message):
        limit_period_matrix(_G2, zero_twists(_G2), ResidueMatrix([[1.0, -1.0]]), basis)


def test_default_basis_valid(rng):
    mg, R, mor = random_tropical_morphism(genus2_graph(), rng)
    basis = default_period_basis(mg)
    P = limit_period_matrix(mg, zero_twists(mg), R, basis)
    assert P.entries.shape == (2 * mg.genus + mg.n_leaves - 1, R.m)


def test_twist_angles_reduced(dumbbell):
    tw = TwistAssignment(dumbbell, {"e1": 7.0, "e2": -1.0})
    assert tw.theta["e1"] == pytest.approx(7.0 - 2 * np.pi)
    assert tw.theta["e2"] == pytest.approx(2 * np.pi - 1.0)
    assert all(0 <= v < 2 * np.pi for v in tw.theta.values())


def test_loop_twist_sum_additive_in_cycle_space(rng):
    # sum over an integer combination of basis loops, evaluated directly on
    # the combined incidence vector, equals the combination of loop sums
    mg, R, mor = random_tropical_morphism(genus2_graph(), rng)
    tw = TwistAssignment(mg, {e: float(rng.uniform(0, 2 * np.pi)) for e in mg.graph.edge_ids})
    loops = cycle_basis(mg)
    sums = check_integrality(mg, tw, mor).sums  # the sums over mg.loops, which are cycle_basis(mg)
    eidx = {e: i for i, e in enumerate(mg.graph.edge_ids)}
    inc = np.zeros((len(loops), len(eidx)))
    for i, loop in enumerate(loops):
        for oe in loop.items:
            inc[i, eidx[oe.id]] += 1.0 if oe.forward else -1.0
    theta = np.array([tw.theta[e] for e in mg.graph.edge_ids])
    slopes = np.array([mor.edge_slope[e] for e in mg.graph.edge_ids])
    for _ in range(10):
        coeff = rng.integers(-3, 4, size=len(loops)).astype(float)
        direct = ((coeff @ inc) * theta) @ slopes
        combined = coeff @ sums
        assert direct == pytest.approx(combined, abs=1e-10)


@st.composite
def integer_matrices(draw):
    """1-8 rows by 1-14 columns: entries small or up to +-10^6 of either sign,
    some rows zero or integer combinations of two earlier rows, some columns
    zero."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 14))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6), st.just(0))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
            ca, cb = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    mat = np.array(rows, dtype=np.int64)
    zero_cols = draw(st.lists(st.integers(0, ncols - 1), max_size=3))
    mat[:, zero_cols] = 0
    return mat


@settings(max_examples=300)
@given(integer_matrices())
def test_rational_nullspace_matches_fraction_oracle(mat):
    rank, basis = _intmat.nullspace(mat)
    want_rank, want_basis = rational_nullspace_fraction(mat)
    assert rank == want_rank == _intmat.rank(mat)
    assert basis == want_basis
    assert all(type(x) is int for vec in basis for x in vec)


def test_exact_rank_of_a_unimodular_matrix_the_svd_reads_as_rank_one():
    # determinant 1, yet its smallest singular value, about 5e-6, lies below
    # regularity's default cutoff of 1e-9 times the largest entry
    s = 10**5
    mat = np.array([[s, s + 1], [s - 1, s]])
    assert _intmat.rank(mat) == 2 == rational_nullspace_fraction(mat)[0]
    assert np.sum(np.linalg.svd(mat.astype(float), compute_uv=False) > 1e-9 * s) == 1


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_default_period_basis_passes_the_basis_check(seed):
    # limit_period_matrix skips _check_basis on the default basis, which is
    # valid by construction; this test is that check, on random cubic graphs
    mg = random_valid_cubic(np.random.default_rng(seed), max_genus=8, max_leaves=8)
    assert _check_basis(mg, default_period_basis(mg)) == [_path_columns(mg.graph, loop) for loop in mg.loops]


def test_tropical_paths_call_no_lapack(monkeypatch, capsys):
    # on integer slopes regularity, both twist modes and the default-basis
    # period matrix are decided in integers; only real residues reach the SVD
    from tropharm.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("svd", "matrix_rank", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    golden = Path(__file__).parent / "golden"
    graph, residues, twists = (str(golden / f"genus2.{x}.json") for x in ("graph", "residues", "twists"))
    for command, argv in (("regularity", ["regularity", graph, residues]),
                          ("twists-solve", ["twists", graph, residues, "solve"]),
                          ("twists-check", ["twists", graph, residues, "check", "--twists", twists]),
                          ("periods", ["periods", graph, residues, twists])):
        assert main(argv) == 0
        out = capsys.readouterr()
        assert (out.out.encode(), out.err) == ((golden / f"genus2.{command}.stdout").read_bytes(), "")
    rng = np.random.default_rng(404)
    for m in (1, 2, 1, 2, 1, 2):
        mg, R, mor = random_tropical_morphism(random_valid_cubic(rng), rng, m=m)
        sol = solve_twists(mg, mor)
        assert regularity_rank(mg, mor).rank == sol.rank
        assert check_integrality(mg, sol.sample(rng), mor).all_pass
        limit_period_matrix(mg, zero_twists(mg), R, mor=mor)
    dumbbell = dumbbell_graph()
    with pytest.raises(AssertionError, match="LAPACK called"):
        regularity_rank(dumbbell, build_morphism(dumbbell, ResidueMatrix([[1.0, -1.0]])))
