import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropharm import forms
from tropharm.errors import (
    BalancingViolationError,
    InfiniteIntegralError,
    InputError,
    NotPathOrLoopError,
    ResiduesDontSumToZeroError,
    SingularSystemError,
    TooFewLeavesError,
)
from tropharm.forms import (
    OneForm,
    ResidueMatrix,
    decompose,
    dual_form,
    form_space_dims,
    integrate,
    potentials_and_currents,
    residues,
    solve_exact_form,
)
from tropharm.graph import GraphPath, MetricGraph, OrientedEdge, cycle_basis, leaf_paths

from conftest import dumbbell_graph, genus2_graph, theta_graph
from _generators import random_cubic, random_valid_cubic
from oracles import dense_incidence, energy_min_flow, form_space_dims_svd, kirchhoff_fraction


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


@pytest.mark.parametrize("values", [{"p1": np.nan, "p2": 1.0, "p3": -1.0}, {"p1": np.inf, "p2": -np.inf}])
def test_non_finite_values_rejected(tripod, values):
    # the balancing of such a form is nan, which no tolerance refuses
    with pytest.raises(InputError, match="finite"):
        OneForm(tripod, values)


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


def test_integrate_leaf_tolerance_follows_the_form_scale(dumbbell):
    # the end leaves' residues of 1 are round-off next to an edge value of
    # 1e12 (tolerance 1e-9 of the form's largest value), so the path is finite
    f = OneForm(dumbbell, {"e1": 1e12 + 1.0, "e2": -1e12, "p1": 1.0, "p2": -1.0})
    (path,) = leaf_paths(dumbbell, "p1")
    assert integrate(f, path) == 1e12 + 1.0


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


@pytest.mark.parametrize("items, match", [
    ((OrientedEdge("p1"),), "loops contain no leaves"),
    ((OrientedEdge("e1"), OrientedEdge("e2")), "loop is not cyclically head-to-tail"),
], ids=["leaf", "open"])
def test_dual_form_refuses_a_bad_loop_as_not_a_path_or_loop(dumbbell, items, match):
    # check_path refuses these loops with NotALoopError, which dual_form
    # raises as NotPathOrLoopError
    with pytest.raises(NotPathOrLoopError, match=match):
        dual_form(dumbbell, GraphPath(items, is_loop=True))


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
    with pytest.raises(InputError, match="expected 2 residues"):
        solve_exact_form(dumbbell, [1.0])


def test_one_form_refuses_values_on_unknown_ids(dumbbell):
    with pytest.raises(InputError, match="unknown leaf-edges: \\['nope'\\]"):
        OneForm(dumbbell, {"nope": 1.0})


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


@given(seed=st.integers(0, 2**32 - 1), genus=st.integers(0, 8), leaves=st.integers(2, 10))
def test_form_space_dims_agrees_with_three_ranks(seed, genus, leaves):
    assume(2 * genus - 2 + leaves >= 1)
    mg = random_cubic(np.random.default_rng(seed), genus, leaves)
    assume(mg is not None)
    exact, holo, balanced = form_space_dims_svd(mg)
    assert form_space_dims(mg) == (exact, holo) == (leaves - 1, genus)
    assert balanced == genus + leaves - 1


@pytest.mark.parametrize("flip", ["leaf path edge", "leaf path leaf", "loop"])
def test_form_space_dims_refuses_a_wrong_sign(monkeypatch, flip):
    # one reversed item breaks balancing (or the -I pivot on the leaves), so
    # the certificate is not vacuous
    mg = random_cubic(np.random.default_rng(3), 2, 4)

    def reverse(path, k):
        items = list(path.items)
        items[k] = items[k].reverse()
        return GraphPath(tuple(items), path.is_loop)

    if flip == "loop":
        object.__setattr__(mg, "loops", (reverse(mg.loops[0], 1),) + mg.loops[1:])  # a local graph
    else:
        k = 1 if flip == "leaf path edge" else -1
        real = forms.leaf_paths
        monkeypatch.setattr(forms, "leaf_paths", lambda mg, base: (reverse(real(mg, base)[0], k),)
                            + real(mg, base)[1:])
    with pytest.raises(RuntimeError, match="basis certificate"):
        form_space_dims(mg)


def test_form_space_dims_at_two_thousand_edges():
    # g = 600, n = 400: |E| = 2197; three dense SVDs took 7-9 s on two vCPUs
    mg = None
    rng = np.random.default_rng(11)
    while mg is None:
        mg = random_cubic(rng, 600, 400)
    assert len(mg.graph.edges) == 2197
    start = time.perf_counter()
    assert form_space_dims(mg) == (399, 600)
    assert time.perf_counter() - start < 2.0


def test_residue_matrix_row_sum():
    with pytest.raises(ResiduesDontSumToZeroError):
        ResidueMatrix([[1.0, 2.0]])
    R = ResidueMatrix([[1.0, -1.0], [5.0, -5.0]])
    assert (R.m, R.n) == (2, 2)


def test_residue_matrix_leaves_the_callers_array_writeable():
    entries = np.array([[1.0, -1.0]])
    R = ResidueMatrix(entries)
    assert entries.flags.writeable and not R.entries.flags.writeable
    entries[0, 0] = 7.0
    assert R.entries[0, 0] == 1.0


def test_residue_matrix_refuses_overflowing_rows_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row in ([1e308, 1e308, -1e308], [-1e308, -1e308, 1e308]):
            with pytest.raises(ResiduesDontSumToZeroError):
                ResidueMatrix([row])


@given(seed=st.integers(0, 2**32 - 1), genus=st.integers(0, 5), leaves=st.integers(2, 6))
def test_incidence_and_cycle_matrices_obey_kirchhoff(seed, genus, leaves):
    assume(2 * genus - 2 + leaves >= 1)
    rng = np.random.default_rng(seed)
    mg = random_cubic(rng, genus, leaves)
    assume(mg is not None)
    ne = len(mg.graph.edges)
    inc, cycles = dense_incidence(mg.graph), mg.cycles
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


@pytest.mark.parametrize("rows", [[1.0, -1.0], [[1.0, 0.0, 0.0, -1.0]], [[[1.0, 0.0, -1.0]]]])
def test_potentials_and_currents_refuse_rows_of_the_wrong_shape(tripod, rows):
    # the tree flow reads the rows leaf by leaf, so a row of the wrong length
    # would otherwise be cut short or padded without a word
    with pytest.raises(InputError, match="expected rows of 3 residues"):
        potentials_and_currents(tripod, rows)


def test_potentials_and_currents_refuse_a_singular_period_matrix():
    # with lengths scaled so the longest is at most 1, e1 and e2 underflow
    # to 0 and the period matrix of the loops has a zero row
    mg = genus2_graph({"e1": 1e-300, "e2": 1e-300, "f1": 1e300, "f2": 1e300, "f3": 1e300})
    with pytest.raises(SingularSystemError):
        potentials_and_currents(mg, [[1.0, -1.0]])


def test_currents_survive_a_loop_longer_than_the_float_range():
    # the loop is 3.4e308 long, past the largest float; Q is formed over the
    # lengths scaled by a power of two, so the currents are still the halves
    phi, currents = potentials_and_currents(dumbbell_graph(1.7e308, 1.7e308), [1.0, -1.0])
    assert currents.tolist() == [[0.5, 0.5]] and phi.tolist() == [[0.0, -8.5e307]]


def _ends0_side_leaves(g, eid):
    """Leaf indices on the ends[0] side of tree edge ``eid``."""
    edge_ends = {e.id: e.ends for e in g.edges}
    side, queue = {edge_ends[eid][0]}, [edge_ends[eid][0]]
    for v in queue:
        for ref in g.incident(v):
            if ref == eid or ref not in edge_ends:
                continue
            w = next(x for x in edge_ends[ref] if x != v)
            if w not in side:
                side.add(w)
                queue.append(w)
    return [j for j, leaf in enumerate(g.leaves) if leaf.vertex in side]


@given(seed=st.integers(0, 2**32 - 1), leaves=st.integers(3, 8))
def test_tree_currents_are_integer_leaf_path_sums(seed, leaves):
    # on a tree each current is the residue sum of the leaves on one side of
    # its edge; for integer residues the tree flow gives it bit for bit, a
    # zero as +0.0, where a Laplacian solve left round-off
    rng = np.random.default_rng(seed)
    mg = random_cubic(rng, 0, leaves)
    assume(mg is not None)
    rows = rng.integers(-3, 4, size=(2, leaves))
    rows[:, -1] -= rows.sum(axis=1)
    _, currents = potentials_and_currents(mg, rows.astype(float))
    for k, e in enumerate(mg.graph.edge_ids):
        side = _ends0_side_leaves(mg.graph, e)
        for row, got in zip(rows.tolist(), currents[:, k].tolist()):
            want = sum(row[j] for j in side)
            assert got == want
            if want == 0:
                assert math.copysign(1.0, got) == 1.0


@given(seed=st.integers(0, 2**32 - 1), genus=st.integers(1, 4), leaves=st.integers(2, 5))
@settings(max_examples=40)
def test_currents_match_the_fraction_kirchhoff_oracle(seed, genus, leaves):
    rng = np.random.default_rng(seed)
    base = random_cubic(rng, genus, leaves)
    assume(base is not None)
    mg = MetricGraph(base.graph, {e: float(rng.integers(1, 4)) for e in base.graph.edge_ids})
    rows = rng.integers(-3, 4, size=(2, leaves)).astype(float)
    rows[:, -1] -= rows.sum(axis=1)
    phi, currents = potentials_and_currents(mg, rows)
    for row, pot, cur in zip(rows, phi, currents):
        want = sum(kirchhoff_fraction(mg, row), [])
        scale = max(1, max(abs(x) for x in want))
        for got, exact in zip(np.concatenate([pot, cur]).tolist(), want):
            assert abs(Fraction(got) - exact) <= Fraction(1e-12) * scale
