import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropharm.errors import (
    BalancingViolationError,
    InfiniteIntegralError,
    NotPathOrLoopError,
    ResiduesDontSumToZeroError,
    TooFewLeavesError,
)
from tropharm.forms import (
    OneForm,
    ResidueMatrix,
    decompose,
    dual_form,
    form_space_dims,
    integrate,
    is_integer_form,
    potentials_and_currents,
    residues,
    solve_exact_form,
)
from tropharm.graph import GraphPath, OrientedEdge, cycle_basis, leaf_paths

from conftest import theta_graph
from _generators import random_cubic, random_valid_cubic
from oracles import energy_min_flow


def dumbbell_loop_e1_fwd():
    # the spec's orientation: e1 forward (u -> v), e2 backward
    return GraphPath((OrientedEdge("e1", True), OrientedEdge("e2", False)), is_loop=True)


def test_residues_zero_form(tripod):
    f = OneForm(tripod, {})
    assert list(residues(f)) == [0.0, 0.0, 0.0]


def test_residues_readoff(tripod):
    f = OneForm(tripod, {"p1": 1.0, "p2": 1.0, "p3": -2.0})
    assert list(residues(f)) == [1.0, 1.0, -2.0]


def test_unbalanced_rejected(tripod):
    with pytest.raises(BalancingViolationError):
        OneForm(tripod, {"p1": 1.0})


def test_residue_sum_property(rng):
    for _ in range(10):
        mg = random_valid_cubic(rng)
        n = mg.n_leaves
        row = rng.normal(size=n)
        row[-1] -= row.sum()
        f = solve_exact_form(mg, row)
        assert abs(residues(f).sum()) <= n * 1e-9 * max(1.0, np.abs(row).max())


def test_integrate_dumbbell(dumbbell):
    f = OneForm(dumbbell, {"e1": 2.0, "e2": 1.0, "p1": 3.0, "p2": -3.0})
    assert integrate(f, dumbbell_loop_e1_fwd()) == pytest.approx(1 * 2 - 2 * 1, abs=1e-15)


def test_integrate_zero_form(dumbbell):
    f = OneForm(dumbbell, {})
    assert integrate(f, dumbbell_loop_e1_fwd()) == 0.0


def test_integrate_dual_of_loop(dumbbell):
    loop = dumbbell_loop_e1_fwd()
    f = dual_form(dumbbell, loop)
    assert integrate(f, loop) == pytest.approx(3.0)


def test_integrate_refuses_leaf_with_value(tripod):
    f = OneForm(tripod, {"p1": 1.0, "p2": -1.0})
    (path, _) = leaf_paths(tripod, "p1")
    with pytest.raises(InfiniteIntegralError):
        integrate(f, path)


def test_dual_form_of_dumbbell_loop(dumbbell):
    f = dual_form(dumbbell, dumbbell_loop_e1_fwd())
    assert f.values["e1"] == 1.0
    assert f.values["e2"] == -1.0
    assert f.values["p1"] == 0.0 and f.values["p2"] == 0.0


def test_dual_form_of_path(tripod):
    (p12, _) = leaf_paths(tripod, "p1")
    f = dual_form(tripod, p12)
    assert list(residues(f)) == [1.0, -1.0, 0.0]


def test_dual_form_empty_rejected(tripod):
    with pytest.raises(NotPathOrLoopError):
        dual_form(tripod, GraphPath((), is_loop=False))


def test_solve_zero_residues(dumbbell):
    f = solve_exact_form(dumbbell, [0.0, 0.0])
    assert all(v == 0.0 for v in f.values.values())


def test_solve_dumbbell_hand_values(dumbbell):
    f = solve_exact_form(dumbbell, [1.0, -1.0])
    assert f.values["e1"] == pytest.approx(2 / 3, abs=1e-12)
    assert f.values["e2"] == pytest.approx(1 / 3, abs=1e-12)
    f3 = solve_exact_form(dumbbell, [3.0, -3.0])
    assert f3.values["e1"] == pytest.approx(2.0, abs=1e-12)
    assert f3.values["e2"] == pytest.approx(1.0, abs=1e-12)


def test_solve_rejects_bad_row(dumbbell):
    with pytest.raises(ResiduesDontSumToZeroError):
        solve_exact_form(dumbbell, [1.0, 1.0])


def test_solve_linearity(rng):
    for _ in range(8):
        mg = random_valid_cubic(rng)
        n = mg.n_leaves
        r1 = rng.normal(size=n)
        r1 -= r1.mean()
        r2 = rng.normal(size=n)
        r2 -= r2.mean()
        a, b = rng.normal(), rng.normal()
        f1 = solve_exact_form(mg, r1)
        f2 = solve_exact_form(mg, r2)
        f = solve_exact_form(mg, a * r1 + b * r2)
        for k, v in f.values.items():
            assert v == pytest.approx(a * f1.values[k] + b * f2.values[k], abs=1e-9)


def test_solve_matches_energy_oracle(rng):
    for _ in range(12):
        mg = random_valid_cubic(rng)
        row = rng.normal(size=mg.n_leaves)
        row -= row.mean()
        f = solve_exact_form(mg, row)
        oracle = energy_min_flow(mg, row)
        for e, cur in oracle.items():
            assert f.values[e] == pytest.approx(cur, abs=1e-9)


def test_solved_form_is_exact(rng):
    for _ in range(8):
        mg = random_valid_cubic(rng)
        row = rng.normal(size=mg.n_leaves)
        row -= row.mean()
        f = solve_exact_form(mg, row)
        budget = 1e-9 * mg.total_length() * max(1.0, np.abs(row).max())
        for loop in cycle_basis(mg):
            assert abs(integrate(f, loop)) <= budget


def test_decompose_dumbbell(dumbbell):
    w = OneForm(dumbbell, {"e1": 1.0, "e2": 1.0, "p1": 2.0, "p2": -2.0})
    dec = decompose(w)
    assert dec.exact.values["e1"] == pytest.approx(4 / 3, abs=1e-12)
    assert dec.exact.values["e2"] == pytest.approx(2 / 3, abs=1e-12)
    assert dec.holomorphic.values["e1"] == pytest.approx(-1 / 3, abs=1e-12)
    assert dec.holomorphic.values["e2"] == pytest.approx(1 / 3, abs=1e-12)
    assert np.max(np.abs(residues(dec.holomorphic))) <= 1e-12


def test_decompose_exact_input(dumbbell):
    f = solve_exact_form(dumbbell, [2.5, -2.5])
    dec = decompose(f)
    assert max(abs(v) for v in dec.holomorphic.values.values()) <= 1e-9


def test_decompose_holomorphic_input(dumbbell):
    c = 0.7
    w = OneForm(dumbbell, {"e1": c, "e2": -c})
    dec = decompose(w)
    assert max(abs(v) for v in dec.exact.values.values()) <= 1e-9


def test_decompose_idempotent(rng):
    mg = random_valid_cubic(rng)
    row = rng.normal(size=mg.n_leaves)
    row -= row.mean()
    f = solve_exact_form(mg, row)
    again = decompose(f)
    assert max(abs(v) for v in again.holomorphic.values.values()) <= 1e-9


def test_dual_loop_is_holomorphic(rng):
    for _ in range(5):
        mg = random_valid_cubic(rng)
        for loop in cycle_basis(mg):
            f = dual_form(mg, loop)
            assert np.max(np.abs(residues(f))) == 0.0


def test_form_space_dims(tripod, dumbbell):
    assert form_space_dims(tripod) == (2, 0)
    assert form_space_dims(dumbbell) == (1, 1)


def test_form_space_dims_needs_leaves():
    with pytest.raises(TooFewLeavesError):
        form_space_dims(theta_graph())


def test_is_integer_form(dumbbell):
    assert is_integer_form(solve_exact_form(dumbbell, [3.0, -3.0]), 1e-9)
    assert not is_integer_form(solve_exact_form(dumbbell, [1.0, -1.0]), 1e-9)
    assert is_integer_form(OneForm(dumbbell, {}), 1e-9)


def test_residue_matrix_row_sum():
    with pytest.raises(ResiduesDontSumToZeroError):
        ResidueMatrix([[1.0, 2.0]])
    R = ResidueMatrix([[1.0, -1.0], [5.0, -5.0]])
    assert (R.m, R.n) == (2, 2)


@settings(derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), genus=st.integers(0, 5), leaves=st.integers(2, 6))
def test_incidence_and_cycle_matrices_obey_kirchhoff(seed, genus, leaves):
    assume(2 * genus - 2 + leaves >= 1)
    rng = np.random.default_rng(seed)
    mg = random_cubic(rng, genus, leaves)
    assume(mg is not None)
    ne = len(mg.graph.edges)
    inc, cycles = mg.incidence, mg.cycles
    assert np.array_equal(inc[:, :ne].sum(axis=0), np.zeros(ne))
    assert np.array_equal(inc[:, ne:].sum(axis=0), -np.ones(leaves))
    assert np.array_equal(inc[:, :ne] @ cycles.T, np.zeros((inc.shape[0], genus)))
    assert np.linalg.matrix_rank(cycles) == genus == mg.genus

    row = rng.normal(size=leaves)
    row -= row.mean()
    _, currents = potentials_and_currents(mg, row)
    scale = max(1.0, np.abs(row).max()) * max(1.0, mg.lengths.sum())
    assert np.max(np.abs(inc @ np.concatenate([currents[0], row]))) <= 1e-9 * scale
    assert np.max(np.abs(cycles @ (mg.lengths * currents[0])), initial=0.0) <= 1e-9 * scale
