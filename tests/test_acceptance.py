"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import time

import numpy as np
import pytest

import tropharm as th
from tropharm.degeneration import collar_sweep
from tropharm.forms import (ResidueMatrix, balancing_residual, form_space_dims,
                            integrate, solve_exact_form)
from tropharm.graph import cycle_basis
from tropharm.morphisms import build_morphism, regularity_rank
from tropharm.phase import (
    TwistAssignment,
    check_integrality,
    is_integer_period_matrix,
    limit_period_matrix,
    solve_twists,
)

from conftest import (
    caterpillar_graph,
    dumbbell_graph,
    genus2_graph,
    triangle_graph,
    tripod_graph,
)
from _generators import random_tropical_morphism, random_valid_cubic
from oracles import energy_min_flow


def _criterion(n, desc, fn):
    t0 = time.time()
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {n:2d} ({time.time() - t0:5.1f}s): {desc}")
        raise
    print(f"PASS criterion {n:2d} ({time.time() - t0:5.1f}s): {desc}")


def test_criterion_1_dimension_theorem():
    def body():
        rng = np.random.default_rng(101)
        t0 = time.time()
        for _ in range(25):
            mg = random_valid_cubic(rng, max_genus=4, max_leaves=6)
            assert form_space_dims(mg) == (mg.n_leaves - 1, mg.genus)
        assert time.time() - t0 < 5.0

    _criterion(1, "dim(exact) = n-1 and dim(holomorphic) = g on 25 random graphs", body)


def test_criterion_2_kirchhoff_oracle():
    def body():
        rng = np.random.default_rng(202)
        t0 = time.time()
        for _ in range(50):
            mg = random_valid_cubic(rng, max_genus=4, max_leaves=6)
            assert len(mg.graph.edges) <= 30
            row = rng.normal(size=mg.n_leaves)
            row -= row.mean()
            f = solve_exact_form(mg, row)
            oracle = energy_min_flow(mg, row)
            dev = max(abs(f.values[e] - cur) for e, cur in oracle.items()) if oracle else 0.0
            assert dev <= 1e-9
        assert time.time() - t0 < 10.0

    _criterion(2, "solver matches the dense energy-minimization oracle to 1e-9", body)


def test_criterion_3_balancing_and_exactness():
    def body():
        rng = np.random.default_rng(303)
        for _ in range(25):
            mg = random_valid_cubic(rng)
            row = rng.normal(size=mg.n_leaves)
            row -= row.mean()
            row /= max(1.0, np.abs(row).max())  # unit scale for absolute tolerances
            f = solve_exact_form(mg, row)
            assert balancing_residual(f) <= 1e-9
            for loop in cycle_basis(mg):
                assert abs(integrate(f, loop)) <= 1e-9 * mg.total_length()

    _criterion(3, "solved forms balance to 1e-9 and loop integrals vanish to 1e-9*sum(l)", body)


def test_criterion_4_collar_modulus():
    def body():
        t0 = time.time()
        ls = 10.0 ** -np.arange(1, 9)
        ws = th.collar_width(ls)
        ms = th.collar_modulus(ls)
        # the closed form, literally
        assert np.allclose(ms, (2.0 / ls) * np.arccos(1.0 / np.cosh(ws)), rtol=0, atol=0)
        prod = ls * ms
        assert np.all(np.diff(prod) > 0)
        assert abs(prod[-1] - np.pi) <= 1e-6
        rep = collar_sweep(ls)
        assert rep["deviates_from_quoted_constant"] is True
        assert rep["quoted_asymptotic_constant"] == 2.0
        assert abs(rep["observed_limit_of_l_times_m"] - 2.0 * np.arccos(0.0)) <= 1e-6
        assert time.time() - t0 < 1.0

    _criterion(4, "l*m(l) sweeps monotonically to within 1e-6 of pi; deviation flagged", body)


def test_criterion_5_degeneration_constant():
    def body():
        t0 = time.time()
        rep = th.annulus_period_experiment(1.0)  # paper-default kappa = 4*pi
        assert abs(rep.kappa_star - 2.0 * np.pi**2) <= 0.01 * 2.0 * np.pi**2
        rep2 = th.annulus_period_experiment(2.0, kappa=2.0 * np.pi**2)
        assert abs(rep2.kappa_star - 2.0 * np.pi**2) <= 0.01 * 2.0 * np.pi**2
        assert time.time() - t0 < 1.0

    _criterion(5, "annulus experiment reports kappa* = 2*pi^2 within 1%", body)


def test_criterion_6_line_amoeba_convergence():
    def body():
        t0 = time.time()
        mg = tripod_graph()
        R = ResidueMatrix([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
        rep = th.convergence_experiment(mg, R, [1e3, 1e4, 1e5, 1e6],
                                        window=[[-3.0, 3.0], [-3.0, 3.0]])
        ds = [e.global_hausdorff for e in rep.entries]
        assert all(b <= a for a, b in zip(ds, ds[1:])), ds
        assert ds[-1] <= 0.05, ds
        assert time.time() - t0 < 30.0

    _criterion(6, "rescaled line amoeba: Hausdorff non-increasing, <= 0.05 at t = 1e6", body)


def test_criterion_7_genus0_realization():
    def body():
        t0 = time.time()
        mg = caterpillar_graph(1.0)
        R = ResidueMatrix([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        sphere = th.place_tree(mg, 1e6).sphere()
        assert sphere.punctures[:2] == (0.0 + 0.0j, 1.0 + 0.0j)
        assert sphere.punctures[2] == pytest.approx(1e6)
        rep = th.convergence_experiment(mg, R, [1e3, 1e4, 1e5, 1e6],
                                        window=[[-3.0, 3.0], [-3.0, 3.0]], base_vertex="v0")
        last = rep.entries[-1]
        assert last.global_hausdorff <= 0.08, last
        assert set(last.per_tripod) == {"v0", "v1"}
        assert all(d is not None and d <= 0.08 for d in last.per_tripod.values()), last
        assert time.time() - t0 < 60.0

    _criterion(7, "4-leaf caterpillar realization: Hausdorff <= 0.08 at t = 1e6, per tripod", body)


def test_criterion_8_integrality_lemma():
    def body():
        rng = np.random.default_rng(808)
        cases = 0
        verdicts_checked = 0
        while cases < 20:
            base = dumbbell_graph() if cases % 2 == 0 else genus2_graph()
            mg, R, mor = random_tropical_morphism(base, rng)
            sol = solve_twists(mg, mor)
            for tw in [sol.representative] + [sol.sample(rng) for _ in range(3)]:
                chk = check_integrality(mg, tw, mor, 1e-9)
                assert chk.all_pass and np.max(chk.residuals, initial=0.0) <= 1e-9
                P = limit_period_matrix(mg, tw, R)
                assert is_integer_period_matrix(P, 1e-8) == chk.all_pass
                verdicts_checked += 1
            # random non-solution twists must fail, with matching verdicts
            found = 0
            while found < 1:
                theta = {e: float(rng.uniform(0, 2 * np.pi)) for e in mg.graph.edge_ids}
                tw = TwistAssignment(mg, theta)
                chk = check_integrality(mg, tw, mor, 1e-9)
                if np.max(chk.residuals) > 1e-3:
                    assert not chk.all_pass
                    P = limit_period_matrix(mg, tw, R)
                    assert is_integer_period_matrix(P, 1e-8) == chk.all_pass
                    verdicts_checked += 1
                    found += 1
            cases += 1
        assert verdicts_checked >= 40

    _criterion(8, "twist solutions pass integrality at 1e-9, non-solutions fail; "
                  "period-matrix verdicts agree", body)


def test_criterion_9_regularity():
    def body():
        rng = np.random.default_rng(909)
        # genus-0 morphisms are always regular with mg = 0
        for _ in range(5):
            mg = random_valid_cubic(rng, max_genus=0, max_leaves=6)
            R = rng.normal(size=(2, mg.n_leaves))
            R -= R.mean(axis=1, keepdims=True)
            assert regularity_rank(mg, build_morphism(mg, ResidueMatrix(R))) == (0, 0, True)
        db = dumbbell_graph()
        mor = build_morphism(db, ResidueMatrix([[3.0, -3.0]]))
        assert regularity_rank(db, mor) == (1, 1, True)
        zero = build_morphism(db, ResidueMatrix(np.zeros((1, 2))))
        rep = regularity_rank(db, zero)
        assert rep.rank == 0 and rep.expected == 1 and not rep.is_regular
        # planar genus-1 immersions: rank = 2g = 2 every time
        for _ in range(10):
            tri = triangle_graph()
            a = rng.integers(-3, 4, size=2)
            b = rng.integers(-3, 4, size=2)
            while np.linalg.det(np.array([a, b]).astype(float)) == 0:
                b = rng.integers(-3, 4, size=2)
            c = -(a + b)
            # residues from balancing with unit lengths: inward columns
            # r_A = a - c, r_B = b - a, r_C = c - b
            cols = np.stack([a - c, b - a, c - b], axis=1).astype(float)
            mor = build_morphism(tri, ResidueMatrix(cols))
            assert th.is_tropical(mor)
            assert regularity_rank(tri, mor) == (2, 2, True)

    _criterion(9, "regularity ranks: genus 0 trivial, dumbbell regular, zero morphism "
                  "superabundant, planar genus-1 immersions rank 2g", body)


def test_criterion_10_Ht_identity():
    def body():
        rng = np.random.default_rng(1010)
        ts = rng.uniform(np.e + 0.01, 1e6, size=1000)
        zs = rng.uniform(1e-4, 1e4, size=1000) * np.exp(1j * rng.uniform(0, 2 * np.pi, 1000))
        worst = 0.0
        for t, z in zip(ts, zs):
            h = th.rescale_H(t, z)
            worst = max(worst, abs(np.log(abs(h)) - np.log(abs(z)) / np.log(t)))
        assert worst <= 1e-12

    _criterion(10, "log|H_t(z)| = log|z|/log t to 1e-12 over 1000 random draws", body)


def test_criterion_11_pair_of_pants():
    def body():
        rng = np.random.default_rng(1111)
        for _ in range(100):
            lam1, lam_1 = rng.uniform(1e-2, 10.0, size=2)
            z = th.field_zero(lam1, lam_1)
            # closed form (sign as the differential actually vanishes: the
            # zero sits nearer the weaker source)
            assert abs(z - (lam_1 - lam1) / (lam1 + lam_1)) <= 1e-12
            assert abs(lam1 / (z - 1) + lam_1 / (z + 1)) <= 1e-10 * (lam1 + lam_1)
        w = th.ind_genus0(th.PuncturedSphere((1.0, -1.0, None)), [2.0, 1.5, -3.5])
        C = 1e-6
        for j, res in ((0, 2.0), (1, 1.5)):
            for r in (1e-2, 1e-3):
                per = w.circular_period(w.sphere.punctures[j], r)
                assert abs(per / (2j * np.pi) - res) <= C * r
                assert abs(per.real) <= 1e-9
        assert abs(w.circular_period(0.0, 10.0).real) <= 1e-9

    _criterion(11, "pair-of-pants zero matches the closed form to 1e-12; quadrature "
                   "residues within C*r, periods purely imaginary", body)
