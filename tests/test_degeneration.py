import ast
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tropharm
from tropharm import degeneration as dg
from tropharm import distance as dist
from tropharm.degeneration import (
    PuncturedSphere,
    annulus_period_experiment,
    collar_modulus,
    collar_sweep,
    collar_width,
    convergence_experiment,
    field_zero,
    hausdorff,
    ind_genus0,
    place_tree,
    rescale_H,
)
from tropharm.errors import (
    EmptyAfterClippingError,
    EvaluationAtPunctureError,
    InputError,
    MinimumDensityViolationError,
    NonPositiveLengthError,
    NonPositiveResiduesError,
    NotATreeError,
    ResiduesDontSumToZeroError,
    ZeroCoordinateError,
)
from tropharm.forms import ResidueMatrix, load_residues, residues_from_dict
from tropharm.graph import CubicGraph, MetricGraph, graph_from_dict, load_graph
from tropharm.morphisms import Scene, build_morphism, emit_embedding

from _generators import random_cubic
from conftest import MERGING_TREE, MERGING_TREE_RESIDUES, caterpillar_graph, dumbbell_graph, tripod_graph
from oracles import (
    amoeba_map,
    chart_logdist_full,
    circle_units,
    experiment_cloud_stacked,
    place_tree_reference,
    points_to_segments_broadcast,
    rows_near_window_chart,
    scene_hausdorff_bruteforce,
    scene_samples_linspace,
)

GOLDEN = Path(__file__).parent / "golden"
LINE_R = ResidueMatrix([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
LINE_SPHERE = PuncturedSphere((0.0, 1.0, None))


# collar formulas; reference digits cross-checked at 40 decimals with mpmath


def test_collar_width_values():
    assert collar_width(0.1) == pytest.approx(3.689087757070663, abs=1e-12)
    l0 = 2.0 * np.arcsinh(1.0)
    assert collar_width(l0) == pytest.approx(np.arcsinh(1.0), abs=1e-14)


def test_collar_width_monotone():
    ls = np.geomspace(0.05, 50, 200)
    ws = collar_width(ls)
    assert np.all(np.diff(ws) < 0)
    assert ws[-1] < 1e-9


def test_collar_nonpositive():
    with pytest.raises(NonPositiveLengthError):
        collar_width(0.0)
    with pytest.raises(NonPositiveLengthError):
        collar_modulus(-1.0)


def test_collar_modulus_value():
    assert collar_modulus(0.1) == pytest.approx(30.416342942336896, rel=1e-13)
    # the closed form agrees with the tanh simplification
    ls = np.geomspace(1e-6, 3.0, 50)
    alt = (2.0 / ls) * np.arccos(np.tanh(ls / 2.0))
    assert np.allclose(collar_modulus(ls), alt, rtol=1e-12)


def test_l_times_modulus_limit_pi():
    ls = 10.0 ** -np.arange(1, 9)
    prod = ls * collar_modulus(ls)
    assert np.all(np.diff(prod) > 0)
    assert abs(prod[-1] - np.pi) <= 1e-6
    diffs = np.abs(np.diff(np.pi - prod))
    assert np.all(np.diff(diffs) < 0)  # successive differences shrink
    assert np.all(prod < np.pi) and np.all(prod > 0)


def test_collar_sweep_report_flags_deviation():
    rep = collar_sweep(10.0 ** -np.arange(1, 9))
    assert rep["deviates_from_quoted_constant"] is True
    assert rep["quoted_asymptotic_constant"] == 2.0
    assert rep["analytic_limit"] == pytest.approx(np.pi)
    assert abs(rep["observed_limit_of_l_times_m"] - np.pi) <= 1e-6


def test_collar_sweep_flags_no_deviation_on_an_empty_sweep():
    assert collar_sweep([])["deviates_from_quoted_constant"] is False


def test_annulus_experiment_kappa_star():
    rep = annulus_period_experiment(1.0)  # default kappa = 4*pi
    assert rep.limit == pytest.approx(np.pi / 2, abs=2e-3)
    assert rep.kappa_star == pytest.approx(2 * np.pi**2, rel=1e-2)
    rep2 = annulus_period_experiment(1.0, kappa=2 * np.pi**2)
    assert rep2.limit == pytest.approx(1.0, abs=3e-3)
    assert rep2.kappa_star == pytest.approx(2 * np.pi**2, rel=1e-2)


@pytest.mark.parametrize("kwargs, match", [
    ({"l_trop": 0.0}, "l_trop and kappa must be positive"),
    ({"l_trop": 1.0, "kappa": -1.0}, "l_trop and kappa must be positive"),
    ({"l_trop": 1.0, "t_values": [1e8]}, "at least two t values"),
    ({"l_trop": 1.0, "t_values": [2.0, 1e8]}, "all exceeding e"),
], ids=["l_trop", "kappa", "one-t", "t-below-e"])
def test_annulus_experiment_refuses_bad_arguments(kwargs, match):
    with pytest.raises(InputError, match=match):
        annulus_period_experiment(**kwargs)


def test_annulus_limit_inverse_in_kappa():
    a = annulus_period_experiment(1.0, kappa=4 * np.pi).limit
    b = annulus_period_experiment(1.0, kappa=8 * np.pi).limit
    assert b == pytest.approx(a / 2, rel=1e-2)


def test_annulus_limit_linear_in_l():
    a = annulus_period_experiment(1.0, kappa=2 * np.pi**2).limit
    b = annulus_period_experiment(2.5, kappa=2 * np.pi**2).limit
    assert b == pytest.approx(2.5 * a, rel=1e-2)


# genus-0 differentials


def test_ind_genus0_two_punctures():
    w = ind_genus0(PuncturedSphere((0.0, None)), [1.0, -1.0])
    zs = np.array([0.5 + 0.2j, 2.0, -3.0 + 1j])
    assert np.allclose(w.value(zs), 1.0 / zs)  # dz/z


def test_ind_genus0_pair_of_pants_form():
    lam1, lam_1 = 2.0, 1.5
    w = ind_genus0(PuncturedSphere((1.0, -1.0, None)), [lam1, lam_1, -lam1 - lam_1])
    z = 0.3 + 0.7j
    assert w.value(z) == pytest.approx(lam1 / (z - 1) + lam_1 / (z + 1))


def test_ind_genus0_refuses_a_row_of_the_wrong_length():
    with pytest.raises(InputError, match="expected 3 residues"):
        ind_genus0(LINE_SPHERE, [1.0, -1.0])


def test_ind_genus0_rejects_bad_sum():
    with pytest.raises(ResiduesDontSumToZeroError):
        ind_genus0(LINE_SPHERE, [1.0, 1.0, 1.0])


def test_circular_period_residue_readoff(rng):
    for _ in range(5):
        lam = rng.uniform(0.2, 3.0, size=2)
        w = ind_genus0(PuncturedSphere((1.0, -1.0, None)), [lam[0], lam[1], -lam.sum()])
        for j, r in ((0, 1e-2), (1, 1e-3)):
            per = w.circular_period(w.sphere.punctures[j], r)
            assert abs(per / (2j * np.pi) - lam[j]) <= 1e-6 * r
            assert abs(per.real) <= 1e-9


def test_circular_period_refuses_a_zero_radius_and_a_circle_through_a_puncture():
    w = ind_genus0(PuncturedSphere((1.0, -1.0, None)), [2.0, 1.0, -3.0])
    with pytest.raises(InputError, match="radius must be positive"):
        w.circular_period(0.0, 0.0)
    with pytest.raises(EvaluationAtPunctureError):
        w.circular_period(0.0, 1.0)


def test_periods_purely_imaginary(rng):
    w = ind_genus0(PuncturedSphere((1.0, -1.0, None)), [2.0, 1.0, -3.0])
    for center, radius in ((0.0, 5.0), (1.0, 0.5), (3.0, 1.0)):
        assert abs(w.circular_period(center, radius).real) <= 1e-9


def test_field_zero_values():
    assert field_zero(1.0, 1.0) == 0.0
    # sign note: the zero of lam1/(z-1) + lam_1/(z+1) sits nearer the weaker
    # source, so lam1=2, lam_1=1 gives -1/3 (not +1/3)
    assert field_zero(2.0, 1.0) == pytest.approx(-1 / 3, abs=1e-15)
    assert field_zero(1.0, 3.0) == pytest.approx(0.5, abs=1e-15)


def test_field_zero_residual_and_range(rng):
    for _ in range(50):
        lam1, lam_1 = rng.uniform(1e-3, 10.0, size=2)
        z = field_zero(lam1, lam_1)
        assert -1 < z < 1
        assert abs(lam1 / (z - 1) + lam_1 / (z + 1)) <= 1e-10 * (lam1 + lam_1)


def test_field_zero_rejects_nonpositive():
    with pytest.raises(NonPositiveResiduesError):
        field_zero(-1.0, 2.0)


@pytest.mark.parametrize("name, call", [pytest.param(name, call, id=name) for name, call in (
    ("lam1", lambda: field_zero(np.inf, 1.0)),
    ("lam_minus1", lambda: field_zero(1.0, np.nan)),
    ("l_trop", lambda: annulus_period_experiment(np.inf)),
    ("kappa", lambda: annulus_period_experiment(1.0, kappa=np.inf)),
    ("t_values", lambda: annulus_period_experiment(1.0, t_values=[1e8, np.inf])),
)])
def test_collar_and_pants_helpers_refuse_non_finite_arguments(name, call):
    # an infinite residue used to end in an untyped internal error, and an
    # infinite l_trop or t in a NonPositiveLength about the collar width
    with pytest.raises(InputError, match=f"^{name} must be finite"):
        call()


def test_field_zero_refuses_a_zero_that_rounds_onto_a_puncture():
    # one residue 1e16 times the other: the zero rounds to -1, where the
    # residual check used to divide by zero
    with pytest.raises(InputError, match="rounds onto the puncture"):
        field_zero(1e16, 1.0)


def test_field_zero_survives_residues_whose_sum_overflows():
    # lam1 + lam_minus1 overflows to inf; the zero is still (1.7 - 1)/2.7
    z = field_zero(1e308, 1.7e308)
    assert abs(z - field_zero(1.0, 1.7)) <= math.ulp(field_zero(1.0, 1.7))
    assert z == pytest.approx(0.7 / 2.7, rel=1e-15)
    assert field_zero(1.7e308, 1e308) == -z


# amoeba map and sampling


def test_amoeba_map_line_value():
    img = amoeba_map(LINE_SPHERE, LINE_R, 2.0)
    assert img == pytest.approx([np.log(2.0), 0.0])


def test_amoeba_map_at_puncture():
    with pytest.raises(EvaluationAtPunctureError):
        amoeba_map(LINE_SPHERE, LINE_R, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, -math.inf),
                                 complex(math.nan, 1.0)])
def test_punctured_sphere_refuses_non_finite_punctures(bad):
    with pytest.raises(InputError, match="finite"):
        PuncturedSphere((bad, 1.0, None))


def test_punctured_sphere_refuses_one_puncture_and_two_at_infinity():
    with pytest.raises(InputError, match="at least 2 punctures"):
        PuncturedSphere((0.0,))
    with pytest.raises(InputError, match="at most one puncture may sit at infinity"):
        PuncturedSphere((None, None, 1.0))


def test_punctured_sphere_refuses_repeated_punctures():
    with pytest.raises(InputError, match="distinct"):
        PuncturedSphere((1.0, 2.0 + 1.0j, 1.0 + 0.0j, None))
    with pytest.raises(InputError, match="distinct"):
        PuncturedSphere((0.0, -0.0, None))


def test_amoeba_map_zero_residues():
    img = amoeba_map(LINE_SPHERE, ResidueMatrix(np.zeros((2, 3))), 5.0 + 1j)
    assert np.allclose(img, 0.0)


def test_amoeba_respects_rescaling(rng):
    # amoeba of H_t-image equals (1/log t) amoeba: checked on the identity
    # log|H_t(z)| = log|z| / log t coordinateively
    t = 37.5
    zs = rng.uniform(0.1, 5.0, size=20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
    hz = rescale_H(t, zs)
    assert np.max(np.abs(np.log(np.abs(hz)) - np.log(np.abs(zs)) / np.log(t))) <= 1e-12
    assert np.max(np.abs(np.angle(hz) - np.angle(zs))) <= 1e-12


def test_rescale_H_refuses_t_at_most_one():
    with pytest.raises(InputError, match="t must exceed 1"):
        rescale_H(1.0, 2.0)


def test_rescale_H_zero_coordinate():
    with pytest.raises(ZeroCoordinateError):
        rescale_H(10.0, [0.0 + 0.0j])


def test_sampling_config_gate(tripod):
    # 0.02 / 5e-324 overflows the radial step to inf
    for density in (0.0, -1.0, float("inf"), float("nan"), 5e-324):
        with pytest.raises(MinimumDensityViolationError):
            convergence_experiment(tripod, LINE_R, [1e3], density)


def test_density_is_checked_before_genus(dumbbell):
    with pytest.raises(MinimumDensityViolationError):
        convergence_experiment(dumbbell, ResidueMatrix([[1.0, -1.0]]), [1e3], 0.0)


def test_grid_logdist_drops_node_on_puncture():
    # an odd grid puts its centre node on the puncture at 0; it is dropped
    logdist = dg._grid_logdist(np.array([-1.0, 0.0, 1.0], dtype=complex), 9)
    assert logdist.shape[0] == 3 and logdist.shape[1] > 0 and np.all(np.isfinite(logdist))


# hausdorff


def test_hausdorff_point_vs_segment():
    scene = Scene(2, {"a": np.zeros(2), "b": np.array([1.0, 0.0])}, (("e", "a", "b"),), (), 1.0)
    assert hausdorff(np.zeros((1, 2)), scene, [[-2, 2], [-2, 2]]) == pytest.approx(1.0, abs=1e-3)


def test_hausdorff_grid_vs_fill():
    h = 0.125
    xs = np.arange(-1.0, 1.0 + h / 2, h)
    grid = np.array([[x, y] for x in xs for y in xs])
    verts = {}
    edges = []
    for i, y in enumerate(xs):
        verts[f"l{i}"] = np.array([-1.0, y])
        verts[f"r{i}"] = np.array([1.0, y])
        edges.append((f"s{i}", f"l{i}", f"r{i}"))
    scene = Scene(2, verts, tuple(edges), (), 1.0)
    assert hausdorff(grid, scene, [[-2, 2], [-2, 2]]) <= h / np.sqrt(2) + 1e-6


def test_hausdorff_reads_a_pair_as_the_same_bounds_on_every_axis():
    scene = Scene(2, {"a": np.zeros(2), "b": np.array([1.0, 0.0])}, (("e", "a", "b"),), (), 1.0)
    pts = np.array([[0.5, 0.5], [3.0, 0.0], [-1.5, 1.0]])  # (3, 0) lies outside the window
    assert hausdorff(pts, scene, [-2, 2]) == hausdorff(pts, scene, [[-2, 2], [-2, 2]]) == math.hypot(1.5, 1.0)


@pytest.mark.parametrize("points", [np.zeros(2), np.zeros((1, 1, 2))])
def test_hausdorff_refuses_points_that_are_not_a_2d_array(points):
    scene = Scene(2, {"a": np.zeros(2), "b": np.array([1.0, 0.0])}, (("e", "a", "b"),), (), 1.0)
    with pytest.raises(InputError, match="points must be an \\(N, m\\) array"):
        hausdorff(points, scene, [-2, 2])


def test_hausdorff_refuses_a_window_of_the_wrong_dimension():
    scene = Scene(2, {"a": np.zeros(2), "b": np.array([1.0, 0.0])}, (("e", "a", "b"),), (), 1.0)
    with pytest.raises(InputError, match="window must be \\(dim, 2\\)"):
        hausdorff(np.zeros((4, 2)), scene, [[-2, 2], [-2, 2], [-2, 2]])


def test_hausdorff_empty_after_clip():
    scene = Scene(2, {"a": np.zeros(2)}, (), (("p", np.zeros(2), np.array([1.0, 0.0])),), 1.0)
    with pytest.raises(EmptyAfterClippingError):
        hausdorff(np.array([[10.0, 10.0]]), scene, [[-1, 1], [-1, 1]])


def test_hausdorff_refuses_a_window_whose_sample_spacing_underflows():
    # the diagonal 2.8e-170 squares to 0, so the scene's sample spacing
    # (diagonal / 2048) would be 0
    scene = Scene(2, {"a": np.zeros(2)}, (), (("p", np.zeros(2), np.array([1.0, 0.0])),), 1.0)
    with pytest.raises(InputError, match="too small"):
        hausdorff(np.zeros((1, 2)), scene, [[-1e-170, 1e-170], [-1e-170, 1e-170]])


def test_clip_scene_ray_with_every_component_tiny_is_a_point():
    # each component is below the slab threshold, the norm is not
    d = np.array([0.9e-300, 0.9e-300])
    rays = (("p", np.ones(2), d), ("q", np.full(2, 5.0), d))
    segs = dg.clip_scene(Scene(2, {"a": np.ones(2)}, (), rays, 1.0), [[-2, 2], [-2, 2]])
    assert len(segs) == 1
    assert all(np.array_equal(end, np.ones(2)) for end in segs[0])


def test_clip_scene_refuses_a_ray_whose_exit_overflows():
    # the exit parameter 1e10 / 1e-300 is beyond double range
    ray = ("p", np.zeros(2), np.array([1e-300, 0.0]))
    with pytest.raises(InputError, match="ray direction"):
        dg.clip_scene(Scene(2, {"a": np.zeros(2)}, (), (ray,), 1.0), [[-1e10, 1e10], [-1, 1]])


@pytest.mark.parametrize("dim", [2, 3])
def test_points_to_segments_matches_broadcast_formula_bit_for_bit(dim):
    rng = np.random.default_rng(700 + dim)
    for _ in range(40):
        n_segs = int(rng.integers(1, 16))
        segs = rng.normal(size=(n_segs, 2, dim)) * rng.choice([1e-3, 1.0, 1e3])
        segs[0, 1] = segs[0, 0]  # zero-length, as from a zero-direction ray
        pts = rng.normal(size=(int(rng.integers(1, 2000)), dim)) * rng.choice([1e-2, 1.0, 1e2])
        a, b = segs[-1]
        pts[:4] = a + np.array([[0.0], [1.0], [0.25], [0.5]]) * (b - a)  # on a segment
        pts[4:6] = segs[0, 0]
        got, _, _ = dist._points_to_segments(np.ascontiguousarray(pts.T), dist._segment_params(segs))
        assert np.array_equal(got, points_to_segments_broadcast(pts, segs))


@settings(max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), duplicate=st.booleans(),
       zero_length=st.booleans(), parallel=st.booleans(), one_side=st.booleans(),
       on_samples=st.booleans(), bounded=st.booleans(), block=st.sampled_from([7, dist._BLOCK]))
def test_scene_hausdorff_matches_bruteforce_bit_for_bit(seed, dim, duplicate, zero_length,
                                                        parallel, one_side, on_samples, bounded, block):
    rng = np.random.default_rng(seed)
    win = np.tile([-3.0, 3.0], (dim, 1))
    segs = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 7)), 2, dim))
    if zero_length:
        segs[0, 1] = segs[0, 0]
    if duplicate:  # coincident rays repeat a segment row
        segs = np.concatenate([segs, segs[rng.integers(0, len(segs), 2)]])
    if parallel:
        offset = 10.0 ** rng.uniform(-9.0, -2.0) * rng.normal(size=dim)
        segs = np.concatenate([segs, segs[-1:] + offset])
    pts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 150)), dim))
    if one_side:  # every point within 0.3 of the window's lower x edge
        pts[:, 0] = -3.0 + 0.05 * (pts[:, 0] + 3.0)
    if on_samples:
        step = float(np.linalg.norm(win[:, 1] - win[:, 0])) / 2048.0
        samples, _ = dist._sample_segments(segs, step)
        pts = np.concatenate([pts, samples[:, rng.integers(0, samples.shape[1], 5)].T])
    # the routine with no point bounded, as the public hausdorff and each
    # tripod distance call it, or with upper bounds on some points and any
    # bins, as the global distance of the experiment calls it; projections,
    # scans and scene bounds go block by block, here also 7 points at a time
    scene, cols, n = dist._ClippedScene(segs, win), np.ascontiguousarray(pts.T), pts.shape[0]
    bound, bins = np.full(n, np.inf), np.zeros(n, dtype=np.intp)
    if bounded:
        some = rng.random(n) < 0.8
        bound[some] = points_to_segments_broadcast(pts, segs)[some] + rng.uniform(0.0, 0.5, n)[some]
        bins[:] = rng.integers(0, scene.cols.shape[1], n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_BLOCK", block)
        got = dist._global_hausdorff(cols, scene, bound, bins)
    assert got == scene_hausdorff_bruteforce(pts, segs, win)


def test_scan_keeps_the_first_of_two_nearest_points_across_a_block_boundary():
    # the scene sample (0, 0) of the diagonal has two equally near cloud
    # points, the last of one block and the first of the next; the scan must
    # take the first, as one argmin over the whole cloud does, and tighten
    # every other bound by its distances, which differ from the second's
    win = np.array([[-3.0, 3.0], [-3.0, 3.0]])
    scene = dist._ClippedScene(np.array([win.T]), win)  # 2049 samples, 6/2048 apart: exact
    [i] = np.flatnonzero(np.all(scene.cols == 0.0, axis=0))
    cols = np.full((2, 14), 2.5)
    cols[:, 6], cols[:, 7] = (-0.5, 0.25), (0.5, 0.25)
    bound = np.full(scene.cols.shape[1], 10.0)
    bound[i] = 20.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_BLOCK", 7)
        # the bounds after one scan are all below 5, which stops the scans
        assert scene.scan(cols, bound, -math.inf, above=5.0) == math.sqrt(0.3125)
    first, second = (np.sqrt(dist._sq_dist(scene.cols, p)) for p in cols.T[6:8])
    assert np.array_equal(bound, first) and not np.array_equal(first, second)


# placement, realization, convergence


def test_place_tripod_constant():
    mg = tripod_graph()
    for t in (10.0, 1e4):
        pl = place_tree(mg, t)
        assert pl.punctures == (0.0 + 0.0j, 1.0 + 0.0j, None)


def test_place_caterpillar_matches_expected():
    mg = caterpillar_graph(2.5)
    pl = place_tree(mg, 100.0)
    assert pl.punctures[0] == 0.0
    assert pl.punctures[1] == 1.0
    assert pl.punctures[2] == pytest.approx(100.0**2.5)
    assert pl.punctures[3] is None


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), leaves=st.integers(3, 64))
def test_place_tree_matches_the_dict_reference_bit_for_bit(seed, leaves):
    rng = np.random.default_rng(seed)
    mg = random_cubic(rng, 0, leaves)
    assume(mg is not None)
    g = mg.graph
    ribbon = {v: tuple(rng.permutation(g.incident(v))) for v in g.vertices}
    mg = MetricGraph(CubicGraph(g.vertices, g.edges, g.leaves, ribbon), mg.length)
    for t in (1e3, 1e6):
        pl = place_tree(mg, t)
        punctures, height, up_path = place_tree_reference(mg, t)
        # tuples of complex numbers compare by value; compare the bits
        assert [None if p is None else (p.real.hex(), p.imag.hex()) for p in pl.punctures] == \
            [None if p is None else (p.real.hex(), p.imag.hex()) for p in punctures]
        assert dict(zip(g.vertices, pl.height)) == height
        assert {v: tuple(g.vertices[w] for w in pl.up_path(i)) for i, v in enumerate(g.vertices)} == up_path


def test_place_tree_rejects_a_positive_genus_graph():
    with pytest.raises(NotATreeError):
        place_tree(dumbbell_graph(), 100.0)


def test_convergence_line(tripod):
    rep = convergence_experiment(tripod, LINE_R, [1e3, 1e4, 1e5, 1e6], window=[[-3, 3], [-3, 3]])
    ds = [e.global_hausdorff for e in rep.entries]
    assert all(b <= a * 1.10 for a, b in zip(ds, ds[1:]))  # 10% slack
    assert ds[-1] <= 0.05


def test_convergence_zero_residues(tripod):
    rep = convergence_experiment(tripod, ResidueMatrix(np.zeros((2, 3))), [1e3],
                                 window=[[-1, 1], [-1, 1]])
    assert rep.entries[0].global_hausdorff <= 1e-9


def test_convergence_report_serialization(tripod):
    rep = convergence_experiment(tripod, LINE_R, [1e3], window=[[-3, 3], [-3, 3]])
    doc = rep.to_dict()
    assert "1000" in doc["results"]
    assert type(doc["results"]["1000"]["samples"]) is int
    assert json.loads(json.dumps(doc)) == doc
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "t,global_hausdorff"


def test_hausdorff_engine_moved_without_changing_the_public_names():
    assert callable(tropharm.hausdorff) and tropharm.hausdorff is dist.hausdorff
    for name in ("hausdorff", "clip_scene", "place_tree", "convergence_experiment"):
        assert callable(getattr(dg, name))


@pytest.mark.parametrize("w", [1e20, 1e150])
def test_convergence_distance_scales_with_a_wide_window(tripod, w):
    # the cloud stays within a few hundred units of the origin while the ray
    # of slope -(1, 1) runs to the window corner: the distance is sqrt(2) * w
    rep = convergence_experiment(tripod, LINE_R, [1e3], 0.125, window=[[-w, w], [-w, w]])
    assert rep.entries[0].global_hausdorff == pytest.approx(math.sqrt(2.0) * w, rel=1e-12)


def test_convergence_rejects_positive_genus(dumbbell):
    with pytest.raises(NotATreeError):
        convergence_experiment(dumbbell, ResidueMatrix([[1.0, -1.0]]), [1e3])


def test_convergence_refuses_no_t_values(tripod):
    with pytest.raises(InputError, match="at least one t value"):
        convergence_experiment(tripod, LINE_R, [])


def test_convergence_refuses_a_window_that_clips_the_whole_cloud(tripod):
    with pytest.raises(EmptyAfterClippingError, match="point cloud is empty"):
        convergence_experiment(tripod, LINE_R, [1e3], window=[[100, 101], [100, 101]])


def test_convergence_refuses_a_window_that_clips_the_whole_scene(tripod):
    # amoeba points fall in this box, but no piece of the scene does
    with pytest.raises(EmptyAfterClippingError, match="scene is empty after clipping"):
        convergence_experiment(tripod, LINE_R, [1e3], window=[[0.01, 0.04], [-0.2, -0.1]])


def _merging_tree():
    mg = graph_from_dict(MERGING_TREE)
    return mg, residues_from_dict(MERGING_TREE_RESIDUES, mg)


def test_convergence_refuses_an_unplaceable_t_before_clipping_or_sampling(monkeypatch):
    # the punctures coincide at t = 1e6: the experiment must refuse before it
    # clips, prepares or samples anything, for t = 1e3 too
    mg, R = _merging_tree()
    called = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(dg, "_experiment_cloud"), (dist, "_ClippedScene"), (dg, "clip_scene")]:
        spy(module, name)
    with pytest.raises(InputError, match="punctures must be pairwise distinct"):
        convergence_experiment(mg, R, [1e3, 1e6], window=[[-3, 3], [-3, 3]])
    assert called == []
    # the spies see the calls of a placeable experiment
    convergence_experiment(mg, R, [1e3], window=[[-3, 3], [-3, 3]])
    assert set(called) == {"_experiment_cloud", "_ClippedScene", "clip_scene"}


def test_convergence_places_each_distinct_t_once(monkeypatch):
    mg, R = _merging_tree()
    placed = []
    real = dg.place_tree
    monkeypatch.setattr(dg, "place_tree", lambda mg, t: placed.append(t) or real(mg, t))
    rep = convergence_experiment(mg, R, [1e4, 1e3, 1e4, 1e3], window=[[-3, 3], [-3, 3]])
    assert [e.t for e in rep.entries] == [1e3, 1e4]
    assert placed == [1e3, 1e4]


class _Stop(Exception):
    """Raised by a spy to end an experiment before it samples."""


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), leaves=st.integers(3, 16), m=st.integers(1, 3))
def test_alignment_shift_is_the_mean_value_of_the_leaf_meets(seed, leaves, m):
    # the experiment moves the rescaled cloud by positions[b] minus
    # sum_j R[:, j] * H(meet(b, v_j)) over the finite leaves j, the meet of
    # the base vertex b and the leaf's vertex v_j read off the dict
    # reference's upward paths; a random base vertex is often off some
    # leaf's path to the root, where H(meet) and H(v_j) differ
    rng = np.random.default_rng(seed)
    mg = random_cubic(rng, 0, leaves)
    g = mg.graph
    base = g.vertices[rng.integers(len(g.vertices))]
    rows = rng.normal(size=(m, leaves))
    rows[:, -1] = -rows[:, :-1].sum(axis=1)
    R = ResidueMatrix(rows)
    t = 3.0  # small, so the punctures of deep trees stay distinct
    finite = [p for p in place_tree(mg, t).punctures if p is not None]
    assume(len(set(finite)) == len(finite))
    _, height, up_path = place_tree_reference(mg, t)
    on_base = set(up_path[base])
    offset = np.zeros(m)
    for j, leaf in enumerate(g.leaves[:-1]):
        offset += R.entries[:, j] * height[next(w for w in up_path[leaf.vertex] if w in on_base)]
    want = build_morphism(mg, R, base).vertex_position[base] - offset

    shifts = []

    def spy(placement, R, plan, window, shift, sampling):
        shifts.append(shift)
        raise _Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dg, "_experiment_cloud", spy)
        with pytest.raises(_Stop):
            convergence_experiment(mg, R, [t], base_vertex=base)
    assert shifts[0].tobytes() == want.tobytes()


def test_amoeba_of_Ht_image_is_rescaled_amoeba():
    # coordinate-wise: log|H_t(w)| = (1/log t) log|w| on points of the complex
    # torus, here z/(z - t) and z - 1 as for the caterpillar's punctures 0, 1, t
    t = 1e4
    zs = np.array([0.5 + 0.25j, -2.0 + 1.0j, 40.0 + 3.0j, 0.1j])
    w = np.stack([zs / (zs - t), zs - 1.0], axis=1)  # (N, 2)
    hw = rescale_H(t, w)
    lhs = np.log(np.abs(hw))
    rhs = np.log(np.abs(w)) / np.log(t)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_hausdorff_dimension_one():
    from tropharm.morphisms import build_morphism, emit_embedding

    mg = dumbbell_graph()
    scene = emit_embedding(build_morphism(mg, ResidueMatrix([[3.0, -3.0]]), "u"), 5.0)
    pts = np.linspace(-1.5, 3.0, 200)[:, None]
    assert hausdorff(pts, scene, [[-1.5, 3.0]]) <= 0.05


def test_convergence_deeper_tree():
    from tropharm.graph import CubicGraph, Edge, Leaf, MetricGraph

    g = CubicGraph(
        ("v0", "v1", "v2"),
        (Edge("a", ("v0", "v1")), Edge("b", ("v1", "v2"))),
        (Leaf("q1", "v0"), Leaf("q2", "v0"), Leaf("q3", "v1"),
         Leaf("q4", "v2"), Leaf("q5", "v2")),
        ribbon={"v0": ("a", "q1", "q2"), "v1": ("b", "a", "q3"), "v2": ("q5", "b", "q4")},
    )
    mg = MetricGraph(g, {"a": 1.0, "b": 0.5})
    pl = place_tree(mg, 1e4)
    assert pl.height == (0.0, 1.0, 1.5) and pl.parent == (1, 2, -1)
    assert pl.punctures[:4] == (0j, 1 + 0j, 1e4 + 0j, 1e6 + 0j)
    R = ResidueMatrix([[1.0, 0.0, -1.0, 0.0, 0.0], [0.0, 1.0, 1.0, -1.0, -1.0]])
    rep = convergence_experiment(mg, R, [1e4, 1e6], window=[[-3, 3], [-3, 3]],
                                 base_vertex="v0")
    ds = [e.global_hausdorff for e in rep.entries]
    assert ds[1] < ds[0]
    assert ds[1] <= 0.07
    # every vertex owns a tripod region at t=1e6, and each converges
    per_tripod = rep.entries[1].per_tripod
    assert set(per_tripod) == {"v0", "v1", "v2"}
    assert all(d is not None and d <= 0.07 for d in per_tripod.values())


def _every_row(pts, j, log_radii, *args):
    return np.ones(log_radii.size, dtype=bool)


def _cloud_args(mg, R, t, window, sampling):
    """The arguments (placement, R, mor, window, shift, sampling) of
    ``_cloud`` and of the stacked oracle at t, based at the first vertex;
    window None is the default window."""
    base = mg.graph.vertices[0]
    mor = build_morphism(mg, R, base)
    win = dg.default_window(emit_embedding(mor, 1.0)) if window is None else window
    placement = place_tree(mg, t)
    _, shift = dg._chart_plan(placement, mor, win)
    return placement, R, mor, win, shift, sampling


def _cloud(placement, R, mor, win, shift, sampling):
    """``_experiment_cloud`` with the chart plan the experiment makes once:
    the rescaled in-window cloud sorted by region, the region ends and the
    sample count."""
    return dg._experiment_cloud(placement, R, dg._chart_plan(placement, mor, win)[0], win, shift, sampling)


def _in_window_cloud(mg, R, t, window, sampling):
    """In-window rescaled points, their region ends and the sample count,
    with the rows that cannot reach the window skipped as the experiment
    does."""
    cols, ends, samples = _cloud(*_cloud_args(mg, R, t, window, sampling))
    return cols.T, ends, samples


def _counting_columns(mp):
    """Spy on ``_chart_logdist`` and ``_grid_logdist`` through the
    monkeypatch ``mp``: the list it returns gets the column count of each
    chart block and grid evaluated, in call order."""
    columns = []
    chart_logdist, grid_logdist = dg._chart_logdist, dg._grid_logdist

    def chart_spy(*args, **kwargs):
        logdist, drawn = chart_logdist(*args, **kwargs)
        columns.append(logdist.shape[1])
        return logdist, drawn

    def grid_spy(*args):
        grid = grid_logdist(*args)
        columns.append(grid.shape[1])
        return grid

    mp.setattr(dg, "_chart_logdist", chart_spy)
    mp.setattr(dg, "_grid_logdist", grid_spy)
    return columns


def _random_tree_residues(seed, leaves, t, m=2):
    """A random tree with ``leaves`` leaves and a random integer residue
    matrix with m rows, or None where the draw is no tree or two of its
    punctures at t merge in floating point."""
    rng = np.random.default_rng(seed)
    mg = random_cubic(rng, 0, leaves)
    if mg is None:
        return None
    finite = [p for p in place_tree(mg, t).punctures if p is not None]
    if len(set(finite)) != len(finite):
        return None
    rows = rng.integers(-2, 3, size=(m, leaves)).astype(float)
    rows[:, -1] -= rows.sum(axis=1)
    return mg, ResidueMatrix(rows)


def _assert_same_cloud(args):
    """``_experiment_cloud`` against the oracle that evaluates each chart
    into arrays of its own and stacks them, its image then rescaled, clipped
    to the window and sorted by region, stably: the same points, region
    ends and count, bit for bit."""
    placement, _, _, win, shift, _ = args
    cols, ends, samples = _cloud(*args)
    raw_ref, region_ref, samples_ref = experiment_cloud_stacked(*args)
    ref = raw_ref.T / math.log(placement.t) + shift[:, None]
    keep = np.flatnonzero(dist._in_window(ref, win))
    keep = keep[np.argsort(region_ref[keep], kind="stable")]
    ref, regions = ref[:, keep], np.arange(len(placement.carrier.graph.vertices) + 1)
    assert cols.shape == ref.shape and cols.tobytes() == ref.tobytes()
    assert np.array_equal(ends, np.searchsorted(region_ref[keep], regions))
    assert samples == samples_ref


@pytest.mark.parametrize("module", [dg, dist])
def test_sampler_and_distance_engine_multiply_without_blas(module):
    # a BLAS product's last bits follow the kernel OpenBLAS picks for the CPU
    # and the shape of the call, so these modules multiply with np.einsum,
    # numpy's own loop.  The 1-D np.linalg.norm calls in distance.py (BLAS
    # ddot) stay: they read the window diagonal and segment lengths only to
    # check the sample spacing and to count each segment's scene samples
    # through a ceiling, never a distance the report prints
    blas = {"matmul", "dot", "inner", "tensordot"}
    found = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"@ at line {node.lineno}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name, owner = node.func.attr, node.func.value
            if name == "dot" or (name in blas and isinstance(owner, ast.Name) and owner.id == "np"):
                found.append(f"{name} at line {node.lineno}")
    assert found == []


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), leaves=st.integers(3, 8),
       t=st.sampled_from([1e3, 1e6]), half_width=st.sampled_from([None, 3.0]),
       m=st.sampled_from([1, 2, 3]), density=st.sampled_from([0.5, 0.7, 1.0, 2.0]))
def test_experiment_cloud_matches_stacked_charts_bit_for_bit(seed, leaves, t, half_width, m, density):
    # the cloud is allocated once and written chart by chart, through reused
    # puncture-major chart buffers; densities 0.5, 0.7, 1 and 2 give 32, 45
    # (odd: no angle at pi), 64 and 128 angles
    drawn = _random_tree_residues(seed, leaves, t, m)
    assume(drawn is not None)
    window = None if half_width is None else np.array([[-half_width, half_width]] * m)
    _assert_same_cloud(_cloud_args(*drawn, t, window, dg._sampling(density)))


@pytest.mark.parametrize("t", [1e3, 1e6])
def test_experiment_cloud_matches_stacked_charts_with_samples_on_a_puncture(t):
    # on the golden tripod the circle of radius 1 around puncture 0 passes
    # through puncture 1 at angle 0: that chart's rows are compacted
    mg = load_graph(str(GOLDEN / "tripod.graph.json"))
    R = load_residues(str(GOLDEN / "tripod.residues.json"), mg)
    dropped = []
    chart_logdist = dg._chart_logdist

    def spy(pts, j, log_radii, angular_count, **kwargs):
        rows, drawn = chart_logdist(pts, j, log_radii, angular_count, **kwargs)
        dropped.append(log_radii.size * dg._chart_units(pts, angular_count).size - rows.shape[1])
        return rows, drawn

    args = _cloud_args(mg, R, t, None, dg._sampling(1.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dg, "_chart_logdist", spy)
        _assert_same_cloud(args)
    assert dropped == [1, 0]


def test_experiment_cloud_matches_stacked_charts_on_moved_punctures():
    # the tripod rules read the nearest puncture off each sample, wherever
    # the punctures are: moved off a placed tree's clusters, to random
    # points at random scales or to a real triple -1, 0, 1 around which
    # samples tie in log-distance to -1 and 1, the regions must still be
    # those of argmin over each sample (the first index on a tie), and the
    # image the same, bit for bit
    for seed in range(24):
        rng = np.random.default_rng(seed)
        m = 1 + seed % 3
        drawn = _random_tree_residues(seed, 4 + seed % 5, 1e3, m)
        if drawn is None:
            continue
        mg, R = drawn
        placement = place_tree(mg, 1e3)
        n = len(placement.punctures) - 1  # the last leaf's puncture is at infinity
        if seed % 2:
            pts = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-2.0, 3.0, n)
        else:
            pts = np.concatenate([[1.0, 0.0, -1.0], 10.0 ** rng.uniform(1.0, 4.0, n - 3)]) + 0j
        moved = dataclasses.replace(placement, punctures=(*pts.tolist(), None))
        base = mg.graph.vertices[0]
        mor = build_morphism(mg, R, base)
        window = np.array([[-3.0, 3.0]] * m)
        _, shift = dg._chart_plan(moved, mor, window)
        _assert_same_cloud((moved, R, mor, window, shift, dg._sampling(0.5)))


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), leaves=st.integers(3, 8),
       t=st.sampled_from([1e3, 1e6]), half_width=st.sampled_from([None, 3.0]))
def test_skipped_rows_change_no_in_window_point(seed, leaves, t, half_width):
    drawn = _random_tree_residues(seed, leaves, t)
    assume(drawn is not None)
    mg, R = drawn
    window = None if half_width is None else np.array([[-half_width, half_width]] * 2)
    sampling = dg._sampling(1.0)
    pts, ends, samples = _in_window_cloud(mg, R, t, window, sampling)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dg, "_rows_near_window", _every_row)
        pts_all, ends_all, samples_all = _in_window_cloud(mg, R, t, window, sampling)
    assert np.array_equal(pts, pts_all)
    assert np.array_equal(ends, ends_all)
    assert samples == samples_all


def test_sample_on_the_window_edge_survives_row_skipping():
    # m = 1 on the tripod, punctures 0 and 1: on the chart around 0 a row's
    # coordinates log r + log|r e^(i theta) - 1| reach the row's bounds
    # log r + log(r + 1) at angle pi and log r + log(r - 1) at angle 0, so a
    # window whose edge is that very sample leaves the row no slack but the
    # safety margin; the raw window's round-off falls on either side of it
    mg = tripod_graph()
    R = ResidueMatrix([[1.0, 1.0, -2.0]])
    t, sampling = 10.0**4.5, (0.05, 4, 32)
    logt = math.log(t)
    mor = build_morphism(mg, R, "w")
    placement = place_tree(mg, t)
    _, shift = dg._chart_plan(placement, mor, np.array([[-60.0, 60.0]]))  # the window sets only the reach
    idx, pts = placement.sphere().finite()
    for u in np.arange(4, 81) * 0.05:
        logdist, _ = _chart_logdist(pts, 0, np.array([u * logt]), 4)
        # the experiment's product shape for one residue row: (N, n) @ (n, 1)
        row = (np.ascontiguousarray(logdist.T) @ R.entries[:, idx].T / logt + shift)[:, 0]
        for edge, win in ((row.max(), [[row.max(), 60.0]]), (row.min(), [[-60.0, row.min()]])):
            win = np.array(win)
            cloud, _, _ = _cloud(placement, R, mor, win, shift, sampling)
            assert np.any(cloud[0] == edge)
    with pytest.MonkeyPatch.context() as mp:
        skipping = _counting_columns(mp)
        _cloud(placement, R, mor, win, shift, sampling)
    with pytest.MonkeyPatch.context() as mp:
        every = _counting_columns(mp)
        mp.setattr(dg, "_rows_near_window", _every_row)
        _cloud(placement, R, mor, win, shift, sampling)
    assert sum(skipping) < sum(every)


@pytest.mark.parametrize("length, t, height, fits", [(50.0, 1e7, "50.0", 1e6), (1.0, 1e308, "1.0", 1e300)])
def test_place_tree_refuses_a_t_beyond_the_float_range(length, t, height, fits):
    # t**50 overflows at t = 1e7; at t = 1e308 the punctures are finite, but
    # the experiment's global grid around them is not
    with pytest.raises(InputError, match=re.escape(f"t = {t!r} ") + f".* the tree's height is {height}$"):
        place_tree(caterpillar_graph(length), t)
    place_tree(caterpillar_graph(length), fits)


def test_rows_near_window_matches_each_chart_bit_for_bit():
    # each chart's mask must be the per-chart oracle's; the u grid holds
    # every integer height, so some circles pass exactly through another
    # puncture
    seen = np.zeros(3, dtype=int)  # rows kept, dropped, and on a puncture
    for seed in range(60):
        rng = np.random.default_rng(seed)
        t, m = [1e3, 1e6][seed % 2], 1 + seed % 3
        drawn = _random_tree_residues(seed, 3 + seed % 6, t, m)
        if drawn is None:
            continue
        mg, R = drawn
        idx, pts = place_tree(mg, t).sphere().finite()
        logt = math.log(t)
        ks = [np.arange(lo, lo + n) for lo, n in zip(rng.integers(-300, 0, pts.size), rng.integers(0, 600, pts.size))]
        half = rng.choice([0.5, 3.0, 30.0])
        window = np.array([[-half, half]] * m) + rng.normal(size=(m, 1))
        shift = rng.normal(size=m)
        args = (R.entries[:, idx], window, shift, logt)
        for j, k in enumerate(ks):
            log_radii = k * 0.02 * logt
            near = dg._rows_near_window(pts, j, log_radii, *args)
            assert near.dtype == bool and np.array_equal(near, rows_near_window_chart(pts, j, log_radii, *args))
            seen[:2] += np.count_nonzero(near), np.count_nonzero(~near)
            d, r = np.abs(np.delete(pts, j) - pts[j]), np.exp(log_radii)[:, None]
            seen[2] += np.count_nonzero(np.any(np.abs(d - r) <= 1e-6 * (d + r), axis=1))
    assert np.all(seen > 0)


def test_rows_near_window_scratch_is_one_charts():
    # the filter's scratch is one chart's (n, rows) arrays: on this 16-leaf
    # tree about 0.35 MB a call, where all 15 charts' rows at once take
    # about 3.85 MB
    rng = np.random.default_rng(2)
    mg = random_cubic(rng, 0, 16)
    rows = rng.integers(-1, 2, (2, 16)).astype(float)
    rows[:, -1] -= rows.sum(axis=1)
    scratch = []

    def traced(*args):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        near = filter_rows(*args)
        scratch.append(tracemalloc.get_traced_memory()[1] - before)
        return near

    filter_rows = dg._rows_near_window
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dg, "_rows_near_window", traced)
        tracemalloc.start()
        try:
            convergence_experiment(mg, ResidueMatrix(rows), [1e3], window=[[-3.0, 3.0], [-3.0, 3.0]])
        finally:
            tracemalloc.stop()
    assert max(scratch) <= 0.5e6
    assert len(scratch) == 15  # a chart per finite puncture


def _public_distances(mg, R, t, win, base):
    """The experiment's cloud with every radius row evaluated over the whole
    circle: its sample count, points and regions, and the public hausdorff of
    the global scene and of each tripod scene on its region's cloud (None
    where hausdorff refuses an empty clip)."""

    def public(pts, scene):
        try:
            return hausdorff(pts, scene, win)
        except EmptyAfterClippingError:
            return None

    mor = build_morphism(mg, R, base)
    placement = place_tree(mg, t)
    plan, shift = dg._chart_plan(placement, mor, win)
    everywhere = np.tile([-np.inf, np.inf], (R.m, 1))  # keeps every point, clipped by hausdorff
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dg, "_chart_units", lambda pts, angular_count: circle_units(angular_count))
        mp.setattr(dg, "_rows_near_window", _every_row)
        cols, ends, samples = dg._experiment_cloud(placement, R, plan, everywhere, shift, dg._sampling(1.0))
    pts, region = cols.T, np.repeat(np.arange(-1, ends.size - 1), np.diff(ends, prepend=0))
    per_tripod = {v: public(pts[region == i], dg._tripod_scene(mor, v))
                  for i, v in enumerate(mg.graph.vertices)}
    return samples, pts, region, public(pts, emit_embedding(mor)), per_tripod


@pytest.mark.parametrize("window, clipped, empty", [
    pytest.param([[-3.0, 3.0], [-3.0, 3.0]], None, None, id="window0-None"),
    # v1 has samples, but none in the window
    pytest.param([[-3.0, 0.4], [-3.0, 0.4]], "v1", "point cloud", id="window1-v1"),
    # v0's tripod lies left of x = 0.5, 14 samples of its region do not: they
    # and the 740 in-window grid samples have no tripod bound
    pytest.param([[0.501, 3.0], [-3.0, 3.0]], "v0", "scene", id="window2-v0"),
])
def test_convergence_matches_public_hausdorff_per_tripod(window, clipped, empty):
    # the experiment skips radius rows that cannot reach the window,
    # evaluates real-puncture charts on half the circle, clips once, groups
    # in-window samples by region and bounds the global cloud side by the
    # tripod distances; each distance must equal the public hausdorff on the
    # region cloud of every row over the whole circle
    mg = caterpillar_graph(1.0)
    R = ResidueMatrix([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    t, win = 1e3, np.array(window)
    entry = convergence_experiment(mg, R, [t], window=win, base_vertex="v0").entries[0]
    samples, pts, region, d_global, per_tripod = _public_distances(mg, R, t, win, "v0")
    assert entry.samples == samples == pts.shape[0]
    assert entry.global_hausdorff == d_global
    assert entry.per_tripod == per_tripod
    if clipped is not None:
        i = mg.graph.vertices.index(clipped)
        assert np.any(region == i) and per_tripod[clipped] is None
        with pytest.raises(EmptyAfterClippingError, match=empty):
            hausdorff(pts[region == i], dg._tripod_scene(build_morphism(mg, R, "v0"), clipped), win)
    if empty == "scene":
        assert np.any(dist._in_window(pts[region == i].T, win))
        assert np.any(dist._in_window(pts[region == -1].T, win))


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), leaves=st.integers(3, 8),
       t=st.sampled_from([1e3, 1e6]), half_width=st.sampled_from([None, 3.0]))
def test_convergence_matches_public_hausdorff_on_random_trees(seed, leaves, t, half_width):
    # the global cloud side is bounded through the tripod projections and
    # refined only where a bound beats the maximum: every bound must hold at
    # every point, and every distance must equal the public hausdorff bit
    # for bit, here with the sampler and the distance engine going 31
    # samples at a time, so that block edges fall inside every region
    drawn = _random_tree_residues(seed, leaves, t)
    assume(drawn is not None)
    mg, R = drawn
    base = mg.graph.vertices[0]
    window = None if half_width is None else [[-half_width, half_width]] * 2
    bounds = []
    global_hausdorff = dist._global_hausdorff

    def spy(cols, scene, bound, bins):
        exact, _, _ = dist._points_to_segments(cols, scene.params)
        bounds.append((bound.copy(), exact))
        return global_hausdorff(cols, scene, bound, bins)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_global_hausdorff", spy)
        mp.setattr(dist, "_BLOCK", 31)
        report = convergence_experiment(mg, R, [t], window=window, base_vertex=base)
    entry = report.entries[0]
    _, _, _, d_global, per_tripod = _public_distances(mg, R, t, report.window, base)
    assert all(np.all(bound >= exact) for bound, exact in bounds)
    assert entry.global_hausdorff == d_global
    assert entry.per_tripod == per_tripod


def test_scene_samples_match_per_segment_linspace_bit_for_bit():
    # the scene is deduplicated and sampled once; the segments kept,
    # the samples and the counts must be those of np.unique(axis=0),
    # np.linalg.norm and np.linspace one segment at a time, also for a
    # corner-to-corner segment, whose length is the window diagonal, exactly
    # 2048 sample steps, and for duplicates that differ only in -0.0
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        for _ in range(40):
            win = np.tile([-3.0, 3.0], (dim, 1)) * rng.uniform(0.5, 2.0, (dim, 1))
            step = dist._scene_step(win)
            segs = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 9)), 2, dim))
            segs[rng.random(segs.shape) < 0.2] = 0.0
            segs[0, 0, 0] = 0.0
            twin = segs[:1].copy()
            twin[0, 0, 0] = -0.0
            segs = np.concatenate([segs, win.T[None], twin, segs[rng.integers(0, len(segs), 2)]])
            scene = dist._ClippedScene(segs, win)
            kept, samples, counts = scene_samples_linspace(segs, step)
            assert scene.segs.tobytes() == kept.tobytes()
            assert np.array_equal(scene.counts, counts) and 2049 in counts
            assert scene.cols.tobytes() == np.ascontiguousarray(samples.T).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_tripod_tables_bound_every_tripod_sample_by_its_slack(dim):
    # every sample of a piece is binned into the sample range of one global
    # segment, a nearest parent of the piece by its farther endpoint, and the
    # piece's slack is at least the distance of each of its samples to that
    # segment, so a tripod distance plus the slack bounds the global one;
    # random pieces off the global segments give slacks far above round-off
    rng = np.random.default_rng(40 + dim)
    win = np.tile([-3.0, 3.0], (dim, 1))
    for _ in range(30):
        glob = dist._ClippedScene(rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 8)), 2, dim)), win)
        tri = dist._ClippedScene(rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 4)), 2, dim)), win)
        slack, parent_bin = dist._tripod_table(tri, glob, 3.0)
        assert slack.shape == parent_bin.shape == (tri.cols.shape[1],)
        assert np.all((parent_bin >= 0) & (parent_bin < glob.cols.shape[1]))
        parent = np.searchsorted(glob.offset, parent_bin, side="right") - 1
        for piece, lo, n in zip(tri.segs, tri.offset, tri.counts):
            [p] = np.unique(parent[lo:lo + n])
            [s] = np.unique(slack[lo:lo + n])
            worst = [points_to_segments_broadcast(piece, g[None]).max() for g in glob.segs]
            assert worst[p] <= min(worst) + 1e-12
            assert np.all(points_to_segments_broadcast(tri.cols[:, lo:lo + n].T, glob.segs[p][None]) <= s)


@pytest.mark.parametrize("t", [1e3, 1e6])
def test_line_amoeba_projects_few_points_on_the_global_scene(t):
    # residue rows that are negatives of each other put the amoeba on the
    # line y = -x, which the scene fits to round-off: each tripod bound's
    # slack is above every exact distance, so only the scene samples scanned
    # before the global projections keep every in-window point from being
    # projected on the global scene; the tripod distances go through the
    # same routine, so the global call is picked by its scene's segments
    mg = caterpillar_graph(1.0)
    R = ResidueMatrix([[0.0, 1.0, 1.0, -2.0], [0.0, -1.0, -1.0, 2.0]])
    win = np.array([[-3.0, 3.0], [-3.0, 3.0]])
    glob = dist._ClippedScene(np.array(dg.clip_scene(emit_embedding(build_morphism(mg, R, "v0")), win)), win)
    calls, clouds = [], []
    points_to_segments, global_hausdorff = dist._points_to_segments, dist._global_hausdorff

    def spy_points(cols, params, **kwargs):
        calls.append((params, cols.shape[1]))
        return points_to_segments(cols, params, **kwargs)

    def spy_global(cols, scene, *args):
        clouds.append((scene, cols.shape[1]))
        return global_hausdorff(cols, scene, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_points_to_segments", spy_points)
        mp.setattr(dist, "_global_hausdorff", spy_global)
        entry = convergence_experiment(mg, R, [t], window=win, base_vertex="v0").entries[0]
    [(params, n)] = [(scene.params, k) for scene, k in clouds if np.array_equal(scene.segs, glob.segs)]
    projected = sum(k for p, k in calls if p is params)
    assert projected < 0.05 * n
    assert entry.global_hausdorff == _public_distances(mg, R, t, win, "v0")[3]


def test_convergence_peak_memory_stays_within_budget():
    # per t the sampler holds the in-window pieces of the charts so far, the
    # chart buffers and one chart's image, then the pieces and the cloud
    # sorted by region; the distances hold the cloud, a bound and a bin per
    # point and block-sized scratch; nothing outlives its t.  The budget is
    # 25 % above the traced peak of 1.57 MB measured on this tree
    mg, R = _random_tree_residues(3, 8, 1e6)
    tracemalloc.start()
    try:
        convergence_experiment(mg, R, [1e3, 1e6], window=[[-3.0, 3.0], [-3.0, 3.0]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 1.57e6


def test_convergence_peak_memory_per_sample():
    # each phase of a t holds about one copy of its cloud, 16 bytes per
    # point for m = 2: 32 while its pieces are put together, 26 while its
    # bounds and bins live, and the pieces so far plus one chart's buffers
    # before that; 40 bytes per evaluated sample of the larger t, plus
    # 0.5 MB for the scenes, tables and block-sized scratch, bounds the
    # traced peak
    mg, R = _random_tree_residues(3, 8, 1e6)
    per_t = len(mg.graph.leaves)  # a chart per finite puncture and the grid
    with pytest.MonkeyPatch.context() as mp:
        columns = _counting_columns(mp)
        tracemalloc.start()
        try:
            convergence_experiment(mg, R, [1e3, 1e6], density=2.0, window=[[-3.0, 3.0], [-3.0, 3.0]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(columns) == 2 * per_t
    assert peak <= 40 * max(sum(columns[:per_t]), sum(columns[per_t:])) + 0.5e6


def _chart_logdist(pts, j, log_radii, angular_count):
    """dg._chart_logdist on units and buffers of its own, sized for one chart."""
    units = dg._chart_units(pts, angular_count)
    return dg._chart_logdist(pts, j, log_radii, angular_count, units=units,
                             buffers=(np.empty(pts.size * log_radii.size * units.size),
                                      np.empty((2, units.size), dtype=complex)))


def _same_row_set(kept, full):
    return np.array_equal(np.unique(kept, axis=0), np.unique(full, axis=0))


def _check_chart(pts, j, log_radii, angular_count):
    """_chart_logdist against the whole-circle oracle: the same row set and
    count, and on punctures of one imaginary part exactly the rows of angle
    indices 0 .. A - ceil(A/2), in the oracle's order."""
    kept, drawn = _chart_logdist(pts, j, log_radii, angular_count)
    kept = kept.T  # one row per sample, as the oracle lays it out
    full, index = chart_logdist_full(pts, j, log_radii, angular_count)
    assert _same_row_set(kept, full)
    assert drawn == full.shape[0]
    if np.all(pts.imag == pts[0].imag):
        assert np.array_equal(kept, full[index <= angular_count - (angular_count + 1) // 2])
    else:
        assert np.array_equal(kept, full)
    return kept, drawn


@pytest.mark.parametrize("angular_count", [1, 2, 7, 64])
@pytest.mark.parametrize("kind", ["real", "complex", "on_puncture"])
def test_chart_logdist_drops_only_twin_copies(kind, angular_count):
    log_radii = np.linspace(np.log(1e-3), np.log(1e4), 37)
    pts = {"real": np.array([0.0, 1.0, 1e3, -2.5]),
           "complex": np.array([0.0, 1.0 + 2.0j, -1.5 + 0.5j, 3.0 - 1.0j]),
           # radius exp(0) = 1 at angle 0 lands exactly on the puncture at 1
           "on_puncture": np.array([0.0, 1.0, -3.0])}[kind].astype(complex)
    if kind == "on_puncture":
        log_radii = np.append(log_radii, 0.0)
    for j in range(pts.size):
        kept, drawn = _check_chart(pts, j, log_radii, angular_count)
        if kind == "complex":
            assert kept.shape[0] == log_radii.size * angular_count
        if kind == "on_puncture" and j == 0:
            assert drawn == log_radii.size * angular_count - 1


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), leaves=st.integers(3, 6))
def test_placed_tree_charts_keep_the_full_row_set(seed, leaves):
    mg = random_cubic(np.random.default_rng(seed), 0, leaves)
    assume(mg is not None)
    _, pts = place_tree(mg, 1e3).sphere().finite()
    log_radii = np.arange(-150, 151) * 0.02 * math.log(1e3)
    for j in range(pts.size):
        _check_chart(pts, j, log_radii, 64)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), angular_count=st.integers(1, 80),
       imag=st.sampled_from([0.0, -0.0, 1.5, -1e-7]))
def test_real_puncture_mirror_samples_are_exact_copies(seed, n, angular_count, imag):
    # every sample above the real line has the same distances, bit for bit,
    # as its mirror image below it: the premise of evaluating half the circle
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1e3, 1e3, n) * 10.0 ** rng.integers(-6, 4, n) + 1j * imag
    assume(np.unique(pts).size == n)
    log_radii = rng.uniform(-12.0, 12.0, 9)
    a = angular_count
    for j in range(n):
        full, _ = chart_logdist_full(pts, j, log_radii, a)
        assume(full.shape[0] == log_radii.size * a)  # no sample on a puncture
        rows = full.reshape(log_radii.size, a, n)
        upper = np.arange(a - (a + 1) // 2 + 1, a)
        assert np.array_equal(rows[:, upper], rows[:, a - upper])


def test_convergence_shallow_slopes_no_overflow(tripod):
    # slopes of 0.02 would need radii beyond double range to reach the window
    # edge; the cloud must stay finite and the distance honest, not garbage
    R = ResidueMatrix([[0.02, 0.0, -0.02], [0.0, 0.02, -0.02]])
    rep = convergence_experiment(tripod, R, [1e6], window=[[-3, 3], [-3, 3]])
    d = rep.entries[0].global_hausdorff
    assert np.isfinite(d)


def test_collar_modulus_strictly_decreasing():
    ls = np.geomspace(0.01, 10.0, 300)
    ms = collar_modulus(ls)
    assert np.all(np.diff(ms) < 0)


def test_convergence_dimension_one(tripod):
    # m = 1: the rescaled amoeba collapses onto the line, distance settles at
    # the radial sampling resolution
    R = ResidueMatrix([[1.0, 1.0, -2.0]])
    rep = convergence_experiment(tripod, R, [1e3, 1e6], window=[[-3.0, 3.0]])
    assert all(e.global_hausdorff <= 0.05 for e in rep.entries)


def test_chart_evaluation_matches_direct_amoeba_map(rng):
    # the analytic own-log-radius path must agree with plain evaluation
    # wherever plain subtraction is well-conditioned
    mg = caterpillar_graph(1.0)
    R = ResidueMatrix([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    t = 1e5
    pl = place_tree(mg, t)
    sph = pl.sphere()
    finite = [p for p in sph.punctures if p is not None]
    us = rng.uniform(-1.0, 3.0, 300)
    ths = rng.uniform(0, 2 * np.pi, 300)
    for j, p in enumerate(finite):
        radii = t**us
        u_kept, z_kept = [], []
        for u, r, a in zip(us, radii, ths):
            if r < 1e-6 * (1.0 + abs(p)):
                continue
            z = p + r * np.exp(1j * a)
            if min(abs(z - q) for q in finite) > 1e-9 * (1.0 + abs(p)):
                u_kept.append(u)
                z_kept.append(z)
        z_arr = np.array(z_kept)
        direct = amoeba_map(sph, R, z_arr)
        cols = [np.array(u_kept) * np.log(t) if k == j else np.log(np.abs(z_arr - q))
                for k, q in enumerate(finite)]
        chart = np.stack(cols, axis=1) @ R.entries[:, :3].T
        assert np.max(np.abs(direct - chart)) <= 1e-8


def test_dual_forms_span_form_space(rng):
    # dual forms of n-1 leaf paths plus g basis loops are a basis of the
    # whole form space (dimension g + n - 1)
    from tropharm.forms import dual_form
    from tropharm.graph import cycle_basis, leaf_paths
    from _generators import random_valid_cubic

    for _ in range(5):
        mg = random_valid_cubic(rng)
        base = mg.graph.leaf_ids[0]
        forms = [dual_form(mg, p) for p in leaf_paths(mg, base)]
        forms += [dual_form(mg, loop) for loop in cycle_basis(mg)]
        keys = list(mg.graph.edge_ids) + list(mg.graph.leaf_ids)
        mat = np.array([[f.values[k] for k in keys] for f in forms])
        assert np.linalg.matrix_rank(mat) == mg.genus + mg.n_leaves - 1
