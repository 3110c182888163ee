"""Numerical degeneration lab: collars, annulus moduli, genus-0 amoebas.

Three groups of tools live here:

* closed-form hyperbolic collar quantities (width, conformal modulus) and the
  length schedule l_t(e) = kappa / (l(e) * log t) for degenerating families,
  together with a desk-scale experiment measuring which kappa makes the
  rescaled model-annulus integral converge to the tropical edge length;

* explicit genus-0 differentials sum_j r_j dz/(z - p_j) on punctured spheres
  (real residues, purely imaginary periods), their harmonic amoeba map
  A(z)_k = sum_j r_jk log|z - p_j|, and deterministic amoeba sampling;

* the convergence experiment: place punctures for a metric tree so the
  log-t-rescaled amoeba approaches the piecewise-linear image of the tree,
  and measure Hausdorff distances globally and per tripod region.

Puncture placement for a tree uses nested clusters.  Root the tree at the
vertex carrying the designated infinite leaf and give each vertex v the
height H(v) = ecc - dist(root, v).  Walking from the root toward leaf j, each
branch taken at a vertex w contributes c * t**H(w) with branch constants
c in {0, 1} read off the ribbon order.  Pairwise puncture distances are then
t**H(meet), which reproduces the tree's edge lengths in log_t scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    EmptyAfterClippingError,
    EvaluationAtPunctureError,
    InputError,
    MinimumDensityViolationError,
    NonPositiveLengthError,
    NonPositiveResiduesError,
    NonIntegerResiduesError,
    NotATreeError,
    ResiduesDontSumToZeroError,
    ZeroCoordinateError,
)
from .forms import ResidueMatrix
from .graph import MetricGraph, _spanning_tree
from .morphisms import HarmonicMorphism, Scene, build_morphism, emit_embedding

FOUR_PI = 4.0 * np.pi
TWO_PI_SQ = 2.0 * np.pi**2


# ----------------------------------------------------------------------
# collar geometry


def collar_width(l):
    """Half-collar width arcsinh(1/sinh(l/2)) around a geodesic of length l."""
    arr = np.asarray(l, dtype=float)
    if np.any(arr <= 0.0):
        raise NonPositiveLengthError("collar_width needs a positive length")
    if not np.all(np.isfinite(arr)):
        raise InputError("collar_width needs a finite length")
    out = np.arcsinh(1.0 / np.sinh(arr / 2.0))
    return float(out) if np.isscalar(l) or arr.ndim == 0 else out


def collar_modulus(l):
    """Conformal modulus of the collar: (2/l) * arccos(1/cosh(w(l))).

    As l -> 0 this behaves like pi/l, so l * m(l) -> pi = 2*arccos(0).
    """
    arr = np.asarray(l, dtype=float)
    if np.any(arr <= 0.0):
        raise NonPositiveLengthError("collar_modulus needs a positive length")
    if not np.all(np.isfinite(arr)):
        raise InputError("collar_modulus needs a finite length")
    out = (2.0 / arr) * np.arccos(1.0 / np.cosh(collar_width(arr)))
    return float(out) if np.isscalar(l) or arr.ndim == 0 else out


def collar_sweep(l_values) -> dict:
    """Table of (l, w, m, l*m) plus the observed limit of l*m(l).

    The product l*m(l) approaches pi = 2*arccos(0); the asymptotic constant 2
    sometimes quoted for m(l) ~ 2/l does not match the closed form, and the
    report flags that explicitly.
    """
    ls = np.asarray(sorted(l_values, reverse=True), dtype=float)
    rows = []
    for l in ls:
        w = collar_width(l)
        m = collar_modulus(l)
        rows.append({"l": float(l), "w": float(w), "m": float(m), "l_times_m": float(l * m)})
    observed = rows[-1]["l_times_m"] if rows else float("nan")
    return {
        "rows": rows,
        "observed_limit_of_l_times_m": observed,
        "analytic_limit": float(2.0 * np.arccos(0.0)),
        "quoted_asymptotic_constant": 2.0,
        "deviates_from_quoted_constant": True,
        "note": (
            "l*m(l) tends to pi = 2*arccos(0); the frequently quoted "
            "asymptotic m(l) ~ 2/l would give 2 and is not what the closed "
            "form evaluates to"
        ),
    }


# ----------------------------------------------------------------------
# degeneration schedules and the annulus-period experiment

DEFAULT_ANNULUS_T = tuple(10.0**k for k in (8, 16, 32, 64, 128, 256))


@dataclass(frozen=True)
class DegenerationSchedule:
    target: MetricGraph
    kappa: float = FOUR_PI
    t_values: tuple[float, ...] = DEFAULT_ANNULUS_T

    def __post_init__(self):
        if not self.kappa > 0:
            raise InputError("kappa must be positive")
        ts = tuple(float(t) for t in self.t_values)
        if not ts or any(t <= np.e for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
            raise InputError("t values must be strictly increasing and all exceed e")
        object.__setattr__(self, "t_values", ts)
        object.__setattr__(self, "kappa", float(self.kappa))


def length_schedule(schedule: DegenerationSchedule, t: float) -> dict[str, float]:
    """Fenchel-Nielsen lengths l_t(e) = kappa / (l(e) * log t)."""
    if not t > 1.0:
        raise InputError("t must exceed 1")
    logt = math.log(t)
    return {e: schedule.kappa / (l * logt) for e, l in schedule.target.length.items()}


@dataclass(frozen=True)
class AnnulusReport:
    l_trop: float
    kappa: float
    samples: tuple[tuple[float, float], ...]  # (t, rescaled transversal integral)
    limit: float
    kappa_star: float


def annulus_period_experiment(l_trop: float, kappa: float = FOUR_PI,
                              t_values=None) -> AnnulusReport:
    """Rescaled transversal integral of the model differential across a collar.

    The model differential 2*pi*dz on the modulus-m annulus integrates to
    exactly 2*pi*m across the annulus, so with l_t = kappa/(l_trop * log t)
    the experiment evaluates v(t) = 2*pi*m(l_t) / log t.  The limit is
    2*pi^2*l_trop/kappa (fit as intercept in 1/log t), and kappa_star is the
    constant that would make the limit equal l_trop, namely
    kappa * limit / l_trop -> 2*pi^2.
    """
    if not (l_trop > 0 and kappa > 0):
        raise InputError("l_trop and kappa must be positive")
    ts = tuple(float(t) for t in (t_values if t_values is not None else DEFAULT_ANNULUS_T))
    if len(ts) < 2 or any(t <= np.e for t in ts):
        raise InputError("need at least two t values, all exceeding e")
    logt = np.log(np.asarray(ts))
    lt = kappa / (l_trop * logt)
    vals = 2.0 * np.pi * collar_modulus(lt) / logt
    b, a = np.polyfit(1.0 / logt, vals, 1)  # vals ~ a + b / log t
    return AnnulusReport(
        float(l_trop), float(kappa),
        tuple(zip((float(t) for t in ts), (float(v) for v in vals))),
        float(a), float(kappa * a / l_trop),
    )


# ----------------------------------------------------------------------
# punctured spheres and genus-0 differentials


@dataclass(frozen=True)
class PuncturedSphere:
    """Ordered punctures in the extended plane; None marks the one at infinity."""

    punctures: tuple[complex | None, ...]

    def __post_init__(self):
        pts = tuple(None if p is None else complex(p) for p in self.punctures)
        if len(pts) < 2:
            raise InputError("need at least 2 punctures")
        if sum(1 for p in pts if p is None) > 1:
            raise InputError("at most one puncture may sit at infinity")
        finite = [p for p in pts if p is not None]
        for i in range(len(finite)):
            for j in range(i + 1, len(finite)):
                if finite[i] == finite[j]:
                    raise InputError("punctures must be pairwise distinct")
        object.__setattr__(self, "punctures", pts)

    @property
    def n(self) -> int:
        return len(self.punctures)

    def finite(self) -> tuple[list[int], np.ndarray]:
        idx = [j for j, p in enumerate(self.punctures) if p is not None]
        return idx, np.array([self.punctures[j] for j in idx], dtype=complex)


@dataclass(frozen=True)
class SphereDifferential:
    """omega = sum over finite punctures of r_j dz/(z - p_j).

    This is the unique differential with simple poles at the punctures, the
    given real residues, and purely imaginary periods (genus 0).
    """

    sphere: PuncturedSphere
    residues: tuple[float, ...]

    def value(self, z):
        """The rational coefficient function sum_j r_j/(z - p_j)."""
        idx, pts = self.sphere.finite()
        z = np.asarray(z, dtype=complex)
        res = np.array([self.residues[j] for j in idx])
        return (res / (z[..., None] - pts)).sum(axis=-1)

    def circular_period(self, center: complex, radius: float, nodes: int = 4096) -> complex:
        """Trapezoid quadrature of omega along |z - center| = radius."""
        if not radius > 0:
            raise InputError("radius must be positive")
        _, pts = self.sphere.finite()
        if np.any(np.abs(np.abs(pts - center) - radius) < 1e-14 * (1.0 + radius)):
            raise EvaluationAtPunctureError("quadrature circle passes through a puncture")
        theta = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
        z = center + radius * np.exp(1j * theta)
        dz = 1j * radius * np.exp(1j * theta)
        return complex(np.mean(self.value(z) * dz) * 2.0 * np.pi)

    def residue_from_circle(self, leaf_index: int, radius: float = 1e-3, nodes: int = 4096) -> complex:
        p = self.sphere.punctures[leaf_index]
        if p is None:
            raise InputError("residue at infinity is minus the sum of the finite ones")
        return self.circular_period(p, radius, nodes) / (2j * np.pi)


def ind_genus0(sphere: PuncturedSphere, residue_row) -> SphereDifferential:
    """Differential with the given residues at the sphere's punctures.

    The row lists one residue per puncture, in puncture order; it must sum to
    zero (an infinite puncture's residue is then automatically minus the sum
    of the finite ones).
    """
    row = np.asarray(residue_row, dtype=float)
    if row.shape != (sphere.n,):
        raise InputError(f"expected {sphere.n} residues, got shape {row.shape}")
    scale = max(1.0, float(np.max(np.abs(row))))
    if abs(float(row.sum())) > sphere.n * 1e-9 * scale:
        raise ResiduesDontSumToZeroError(f"residues sum to {row.sum():.3e}")
    return SphereDifferential(sphere, tuple(float(r) for r in row))


def pair_of_pants_sphere() -> PuncturedSphere:
    return PuncturedSphere((1.0 + 0.0j, -1.0 + 0.0j, None))


def field_zero(lam1: float, lam_minus1: float) -> float:
    """Unique zero of lam1/(z-1) + lam_minus1/(z+1) for positive residues.

    Solving the linear equation gives (lam_minus1 - lam1)/(lam1 + lam_minus1),
    which always lies in (-1, 1); the residual is re-checked numerically.
    """
    if not (lam1 > 0 and lam_minus1 > 0):
        raise NonPositiveResiduesError("both residues must be positive")
    zeta = (lam_minus1 - lam1) / (lam1 + lam_minus1)
    residual = abs(lam1 / (zeta - 1.0) + lam_minus1 / (zeta + 1.0))
    if residual > 1e-10 * (lam1 + lam_minus1) or not (-1.0 < zeta < 1.0):
        raise RuntimeError(f"internal: field zero residual {residual:.3e} at {zeta}")
    return float(zeta)


# ----------------------------------------------------------------------
# harmonic amoeba map and sampling


def amoeba_map(sphere: PuncturedSphere, R: ResidueMatrix, z):
    """Coordinate k at z: sum over finite punctures of R[k, j] * log|z - p_j|."""
    if R.n != sphere.n:
        raise InputError(f"residue matrix has {R.n} columns for {sphere.n} punctures")
    idx, pts = sphere.finite()
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    dist = np.abs(zs[:, None] - pts[None, :])
    if np.any(dist == 0.0):
        raise EvaluationAtPunctureError("amoeba map evaluated at a puncture")
    img = np.log(dist) @ R.entries[:, idx].T
    return img[0] if scalar else img


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (N, m), read-only

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise InputError("point cloud is empty")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class SamplingConfig:
    """Polar charts around each finite puncture plus a global disk grid."""

    r_min: float = 1e-3
    r_max: float = 1e3
    radial_count: int = 512
    angular_count: int = 64
    grid_count: int = 48

    def __post_init__(self):
        if self.radial_count < 1 or self.angular_count < 1 or self.grid_count < 1:
            raise MinimumDensityViolationError("all sample counts must be at least 1")
        if not (0 < self.r_min < self.r_max):
            raise MinimumDensityViolationError("need 0 < r_min < r_max")


def _chart_logdist(pts: np.ndarray, j: int, log_radii: np.ndarray,
                   angles: np.ndarray) -> np.ndarray:
    """log-distances of p_j + r*e^(i*theta) to every finite puncture.

    The own column is log r exactly, which keeps tiny radii accurate where
    z - p_j would cancel to zero in floating point.  Samples landing exactly
    on another puncture are dropped.
    """
    radii = np.exp(log_radii)
    offs = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    logdist = np.empty((offs.size, pts.size))
    keep = np.ones(offs.size, dtype=bool)
    logdist[:, j] = np.repeat(log_radii, angles.size)
    for k in range(pts.size):
        if k == j:
            continue
        d = np.abs(pts[j] - pts[k] + offs)
        keep &= d > 0.0
        logdist[:, k] = np.log(np.where(d > 0.0, d, 1.0))
    return logdist[keep]


def _grid_logdist(pts: np.ndarray, grid_count: int) -> np.ndarray:
    """log-distances to every finite puncture on a square grid over a disk.

    The disk of radius r0 holds every finite puncture; grid nodes outside it,
    or within 1e-9 * (1 + r0) of a puncture, are dropped.
    """
    center = complex(np.mean(pts))
    r0 = 2.0 * float(np.max(np.abs(pts - center))) + 1.0
    axis = np.linspace(-r0, r0, grid_count)
    gx, gy = np.meshgrid(axis, axis)
    gz = (center + gx + 1j * gy).ravel()
    dist = np.abs(gz[:, None] - pts[None, :])
    keep = (np.abs(gz - center) <= r0) & (dist.min(axis=1) > 1e-9 * (1.0 + r0))
    return np.log(dist[keep])


def sample_amoeba(sphere: PuncturedSphere, R: ResidueMatrix,
                  config: SamplingConfig | None = None) -> PointCloud:
    """Deterministic amoeba sample: per-puncture polar charts + a global grid."""
    if config is None:
        config = SamplingConfig()
    if R.n != sphere.n:
        raise InputError(f"residue matrix has {R.n} columns for {sphere.n} punctures")
    idx, pts = sphere.finite()
    res_cols = R.entries[:, idx]
    log_radii = np.linspace(np.log(config.r_min), np.log(config.r_max), config.radial_count)
    angles = np.linspace(0.0, 2.0 * np.pi, config.angular_count, endpoint=False)
    chunks = [_chart_logdist(pts, j, log_radii, angles) @ res_cols.T for j in range(pts.size)]
    chunks.append(_grid_logdist(pts, config.grid_count) @ res_cols.T)
    return PointCloud(np.vstack(chunks))


# ----------------------------------------------------------------------
# window clipping and Hausdorff distance


def _as_window(window, dim: int) -> np.ndarray:
    w = np.asarray(window, dtype=float)
    if w.shape == (2,):  # symmetric [lo, hi] in every axis
        w = np.tile(w, (dim, 1))
    if w.shape != (dim, 2) or np.any(w[:, 0] >= w[:, 1]):
        raise InputError(f"window must be (dim, 2) with lo < hi, got shape {w.shape}")
    return w


def _clip_param_line(a: np.ndarray, d: np.ndarray, t_hi: float, window: np.ndarray):
    """Intersect {a + t*d : 0 <= t <= t_hi} with the window box (slab method)."""
    t0, t1 = 0.0, t_hi
    for k in range(len(a)):
        lo, hi = window[k]
        if abs(d[k]) < 1e-300:
            if a[k] < lo or a[k] > hi:
                return None
            continue
        ta, tb = (lo - a[k]) / d[k], (hi - a[k]) / d[k]
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return None
    return a + t0 * d, a + min(t1, 1e18) * d


def clip_scene(scene: Scene, window) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scene segments and rays clipped to the window; rays become segments."""
    win = _as_window(window, scene.dim)
    out = []
    for _, va, vb in scene.edges:
        a, b = scene.vertices[va], scene.vertices[vb]
        seg = _clip_param_line(a, b - a, 1.0, win)
        if seg is not None:
            out.append(seg)
    for _, origin, direction in scene.rays:
        if np.linalg.norm(direction) <= 1e-300:
            if np.all((win[:, 0] <= origin) & (origin <= win[:, 1])):
                out.append((origin, origin))
            continue
        seg = _clip_param_line(origin, np.asarray(direction, dtype=float), np.inf, win)
        if seg is not None:
            out.append(seg)
    return out


def _points_to_segments(pts: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the nearest segment; segs is (S, 2, d)."""
    a, b = segs[:, 0, :], segs[:, 1, :]
    ab = b - a
    denom = np.einsum("sd,sd->s", ab, ab)
    denom = np.where(denom == 0.0, 1.0, denom)
    out = np.empty(pts.shape[0])
    step = max(1, 4_000_000 // max(1, segs.shape[0]))
    for beg in range(0, pts.shape[0], step):
        blk = pts[beg:beg + step]
        t = np.einsum("nsd,sd->ns", blk[:, None, :] - a[None, :, :], ab) / denom
        t = np.clip(t, 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
        d = np.linalg.norm(blk[:, None, :] - proj, axis=2)
        out[beg:beg + step] = d.min(axis=1)
    return out


def _sample_segments(segs: np.ndarray, step: float) -> np.ndarray:
    pts = []
    for a, b in segs:
        n = max(2, int(np.ceil(np.linalg.norm(b - a) / step)) + 1)
        ts = np.linspace(0.0, 1.0, n)
        pts.append(a[None, :] + ts[:, None] * (b - a)[None, :])
    return np.vstack(pts)


def hausdorff(cloud: PointCloud, target, window, scene_step: float | None = None) -> float:
    """Symmetric Hausdorff distance after clipping both sides to the window.

    ``target`` is a Scene or another PointCloud.  Cloud-to-scene distances use
    exact point-to-segment projections; the scene-to-cloud direction samples
    the clipped scene at ``scene_step`` spacing (default: window diagonal /
    2048) and queries a KD-tree on the cloud.
    """
    dim = cloud.points.shape[1]
    win = _as_window(window, dim)
    inside = np.all((cloud.points >= win[:, 0]) & (cloud.points <= win[:, 1]), axis=1)
    pts = cloud.points[inside]
    if pts.size == 0:
        raise EmptyAfterClippingError("point cloud is empty after clipping")

    if isinstance(target, PointCloud):
        inside_b = np.all((target.points >= win[:, 0]) & (target.points <= win[:, 1]), axis=1)
        other = target.points[inside_b]
        if other.size == 0:
            raise EmptyAfterClippingError("target cloud is empty after clipping")
        d1 = cKDTree(other).query(pts)[0].max()
        d2 = cKDTree(pts).query(other)[0].max()
        return float(max(d1, d2))

    segs = clip_scene(target, win)
    if not segs:
        raise EmptyAfterClippingError("scene is empty after clipping")
    seg_arr = np.array([[a, b] for a, b in segs])
    d1 = _points_to_segments(pts, seg_arr).max()
    if scene_step is None:
        scene_step = float(np.linalg.norm(win[:, 1] - win[:, 0])) / 2048.0
    scene_pts = _sample_segments(seg_arr, scene_step)
    d2 = cKDTree(pts).query(scene_pts)[0].max()
    return float(max(d1, d2))


# ----------------------------------------------------------------------
# tree placement, realization, H_t


@dataclass(frozen=True)
class TreePlacement:
    """Puncture positions for a metric tree at a given t, with cluster data."""

    carrier: MetricGraph
    t: float
    infinite_leaf: str
    punctures: tuple[complex | None, ...]
    center: dict[str, complex]       # vertex -> cluster center
    height: dict[str, float]         # vertex -> H(v), decreasing away from the root
    up_path: dict[str, tuple[str, ...]]  # vertex -> path of vertices up to the root

    def sphere(self) -> PuncturedSphere:
        return PuncturedSphere(self.punctures)

    def meet_height(self, v: str, w: str) -> float:
        """H at the first common vertex of the two upward paths."""
        on_w = set(self.up_path[w])
        for x in self.up_path[v]:
            if x in on_w:
                return self.height[x]
        raise RuntimeError("internal: tree paths never meet")


def place_tree(mg: MetricGraph, t: float, infinite_leaf: str | None = None) -> TreePlacement:
    """Nested-cluster puncture placement for a genus-0 metric graph."""
    g = mg.graph
    if g.genus != 0:
        raise NotATreeError(f"graph has genus {g.genus}, not a tree")
    if not (np.isfinite(t) and t > np.e):
        raise InputError(f"t must be finite and exceed e, got {t}")
    if infinite_leaf is None:
        infinite_leaf = g.leaf_ids[-1]
    if not g.is_leaf(infinite_leaf):
        raise InputError(f"unknown leaf {infinite_leaf}")
    root = g.leaf(infinite_leaf).vertex

    # metric depth from the root through the (unique) tree paths; the
    # parent map is in breadth-first order, so parents come first
    _, parent = _spanning_tree(g, root)
    order = [root, *parent]
    depth = {root: 0.0}
    up_path: dict[str, tuple[str, ...]] = {root: (root,)}
    for w, (v, eid) in parent.items():
        depth[w] = depth[v] + mg.length[eid]
        up_path[w] = (w,) + up_path[v]
    ecc = max(depth.values())
    height = {v: ecc - d for v, d in depth.items()}

    # branch constants in ribbon order, starting after the incoming reference
    def branch_constants(v: str, incoming: str) -> dict[str, float]:
        order3 = list(g.ribbon[v])
        k = order3.index(incoming)
        rest = [order3[(k + 1) % 3], order3[(k + 2) % 3]]
        return {ref: float(c) for c, ref in enumerate(rest)}

    center: dict[str, complex] = {root: 0.0 + 0.0j}
    constants: dict[tuple[str, str], float] = {}
    incoming_ref = {root: infinite_leaf}
    for v in order:
        consts = branch_constants(v, incoming_ref[v])
        for ref, c in consts.items():
            constants[(v, ref)] = c
            if g.is_edge(ref):
                e = g.edge(ref)
                w = e.ends[0] if e.ends[1] == v else e.ends[1]
                if depth[w] > depth[v]:  # child in the rooted tree
                    center[w] = center[v] + c * t ** height[v]
                    incoming_ref[w] = ref

    punctures: list[complex | None] = []
    for l in g.leaves:
        if l.id == infinite_leaf:
            punctures.append(None)
        else:
            punctures.append(center[l.vertex] + constants[(l.vertex, l.id)] * t ** height[l.vertex])

    return TreePlacement(mg, float(t), infinite_leaf, tuple(punctures), center, height, dict(up_path))


@dataclass(frozen=True)
class IotaMap:
    """z -> (prod_j (z - p_j)^{R[k, j]})_k over the finite punctures."""

    sphere: PuncturedSphere
    exponents: np.ndarray  # integer (m, n_finite)

    def __call__(self, z):
        _, pts = self.sphere.finite()
        zs = np.asarray(z, dtype=complex)
        scalar = zs.ndim == 0
        zs = np.atleast_1d(zs)
        diffs = zs[:, None] - pts[None, :]
        if np.any(diffs == 0.0):
            raise EvaluationAtPunctureError("map evaluated at a puncture")
        out = np.exp(np.log(diffs) @ self.exponents.T.astype(complex))
        return out[0] if scalar else out


def realize_genus0(mg: MetricGraph, R: ResidueMatrix, t: float,
                   infinite_leaf: str | None = None) -> tuple[PuncturedSphere, IotaMap]:
    """Punctured sphere whose rescaled amoeba approaches the tree's image.

    Needs an integer residue matrix (so the coordinate-wise exponential of the
    integrals is single-valued) and a tree; the guarantee is expressed by the
    Hausdorff experiment, not analytically.
    """
    if mg.graph.genus != 0:
        raise NotATreeError(f"graph has genus {mg.graph.genus}, not a tree")
    if not R.is_integer():
        raise NonIntegerResiduesError("residue matrix must be integer")
    placement = place_tree(mg, t, infinite_leaf)
    sphere = placement.sphere()
    idx, _ = sphere.finite()
    exponents = np.round(R.entries[:, idx]).astype(int)
    return sphere, IotaMap(sphere, exponents)


def rescale_H(t: float, w):
    """Coordinate-wise |z|^(1/log t) * z/|z|; phases kept, moduli rescaled."""
    if not t > 1.0:
        raise InputError("t must exceed 1")
    zs = np.asarray(w, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    mag = np.abs(zs)
    if np.any(mag == 0.0):
        raise ZeroCoordinateError("H_t is undefined at zero coordinates")
    out = mag ** (1.0 / np.log(t)) * zs / mag
    return complex(out[0]) if scalar else out


# ----------------------------------------------------------------------
# convergence experiment


@dataclass(frozen=True)
class ExperimentSampling:
    """Sampling resolution for the convergence experiment.

    ``u_step`` is the radial grid step in log_t units (radii are t**u on a
    grid of u values anchored at integer multiples of the step).
    """

    u_step: float = 0.02
    angular_count: int = 64
    grid_count: int = 32

    def __post_init__(self):
        if not self.u_step > 0 or self.angular_count < 1 or self.grid_count < 1:
            raise MinimumDensityViolationError("sampling density is too low")


@dataclass(frozen=True)
class TStepResult:
    t: float
    global_hausdorff: float
    per_tripod: dict[str, float | None]
    samples: int


@dataclass(frozen=True)
class ConvergenceReport:
    entries: tuple[TStepResult, ...]
    kappa: float
    window: np.ndarray
    base_vertex: str
    infinite_leaf: str

    def distances(self) -> list[tuple[float, float]]:
        return [(e.t, e.global_hausdorff) for e in self.entries]

    def to_dict(self) -> dict:
        return {
            "kappa": float(self.kappa),
            "window": [[float(a), float(b)] for a, b in self.window],
            "base_vertex": self.base_vertex,
            "infinite_leaf": self.infinite_leaf,
            "results": {
                format(e.t, ".17g"): {
                    "global_hausdorff": e.global_hausdorff,
                    "per_tripod": e.per_tripod,
                    "samples": e.samples,
                }
                for e in self.entries
            },
        }

    def to_csv(self) -> str:
        lines = ["t,global_hausdorff"]
        for t, d in self.distances():
            lines.append(f"{t:.17g},{d:.17g}")
        return "\n".join(lines) + "\n"


def _tripod_scene(mor: HarmonicMorphism, v: str, ray_length: float) -> Scene:
    """Image of the vertex's half-tripod: half edges, full leaf rays."""
    mg = mor.carrier
    g = mg.graph
    vertices = {v: mor.vertex_position[v]}
    edges = []
    rays = []
    for ref in g.incident(v):
        if g.is_edge(ref):
            e = g.edge(ref)
            slope = mor.edge_slope[ref] if e.ends[0] == v else -mor.edge_slope[ref]
            mid = mor.vertex_position[v] + 0.5 * mg.length[ref] * slope
            mid_id = f"{ref}:mid"
            vertices[mid_id] = mid
            edges.append((ref, v, mid_id))
        else:
            rays.append((ref, mor.vertex_position[v], mor.leaf_slope[ref]))
    return Scene(mor.ambient_dim, vertices, tuple(edges), tuple(rays), ray_length)


def _alignment_offset(placement: TreePlacement, R: ResidueMatrix, base_vertex: str) -> np.ndarray:
    """Limit of the rescaled amoeba over the base vertex's cluster region.

    By the circle mean-value property, averaging the amoeba map over the
    cluster-scale circle at a vertex v gives sum_j r_j * H(meet(v, v_j)) in
    log_t units, up to vanishing corrections; matching this to the scene's
    vertex position removes the translation ambiguity without sampling noise.
    """
    g = placement.carrier.graph
    off = np.zeros(R.m)
    for j, l in enumerate(g.leaves):
        if l.id == placement.infinite_leaf:
            continue
        off += R.entries[:, j] * placement.meet_height(base_vertex, l.vertex)
    return off


def _experiment_cloud(placement: TreePlacement, R: ResidueMatrix, mor: HarmonicMorphism,
                      window: np.ndarray, sampling: ExperimentSampling):
    """Raw amoeba samples and the tripod region of each: an index into the
    graph's vertices, or -1 for samples of the global grid."""
    g = placement.carrier.graph
    idx, pts = placement.sphere().finite()
    res_cols = R.entries[:, idx]
    logt = math.log(placement.t)

    wmax = float(np.max(np.abs(window))) + 1.0
    slopes = [np.abs(v) for v in mor.edge_slope.values()]
    slopes += [np.abs(v) for v in mor.leaf_slope.values()]
    nonzero = [float(s.max()) for s in slopes if s.max() > 1e-12]
    floor = max(min(nonzero) if nonzero else 1.0, 0.05)
    reach = min(wmax / floor, 200.0)

    heights = placement.height
    h_top = max(heights.values())
    angles = np.linspace(0.0, 2.0 * np.pi, sampling.angular_count, endpoint=False)
    step = sampling.u_step

    # each chart's leaf vertex, its upward path as vertex indices, and the
    # scale thresholds between consecutive path vertices
    vertex_index = {v: i for i, v in enumerate(g.vertices)}
    leaf_vertices = [g.leaves[j].vertex for j in idx]
    paths, bounds = [], []
    for v in leaf_vertices:
        up = placement.up_path[v]
        hs = [heights[w] for w in up]
        paths.append(np.array([vertex_index[w] for w in up]))
        bounds.append(np.array([(a + b) / 2.0 for a, b in zip(hs, hs[1:])]))

    def assign_tripods(logdist: np.ndarray) -> np.ndarray:
        """Tripod region of each sample: nearest puncture in log scale, then
        walk that leaf's upward path to the sample's own scale."""
        nearest = np.argmin(logdist, axis=1)
        u_min = logdist.min(axis=1) / logt
        out = np.empty(logdist.shape[0], dtype=np.intp)
        for pos, (path, bnd) in enumerate(zip(paths, bounds)):
            mask = nearest == pos
            out[mask] = path[np.digitize(u_min[mask], bnd)]
        return out

    # keep radii t**u representable: |u * log t| must stay below exp overflow
    u_cap = 600.0 / logt
    u_hi = min(h_top + reach, u_cap)

    chunks: list[np.ndarray] = []
    regions: list[np.ndarray] = []
    for pos, v in enumerate(leaf_vertices):
        u_lo = max(heights[v] - reach, -u_cap)
        u = np.arange(math.ceil(u_lo / step), math.floor(u_hi / step) + 1) * step
        logdist = _chart_logdist(pts, pos, u * logt, angles)
        chunks.append(logdist @ res_cols.T)
        regions.append(assign_tripods(logdist))

    # coarse global grid over a disk containing all finite punctures
    grid = _grid_logdist(pts, sampling.grid_count)
    chunks.append(grid @ res_cols.T)
    regions.append(np.full(grid.shape[0], -1))
    return np.vstack(chunks), np.concatenate(regions)


def default_window(scene: Scene) -> np.ndarray:
    """Bounding box of the scene's vertices, inflated 1.5x about its center."""
    pos = np.array(list(scene.vertices.values()))
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    half = np.maximum(1.5 * half, 1.0)
    return np.stack([center - half, center + half], axis=1)


def convergence_experiment(mg: MetricGraph, R: ResidueMatrix, t_values,
                           sampling: ExperimentSampling | None = None,
                           window=None, base_vertex: str | None = None,
                           infinite_leaf: str | None = None,
                           kappa: float = FOUR_PI) -> ConvergenceReport:
    """Hausdorff distances of rescaled amoeba samples to the tree's image.

    For each t the tree's punctures are placed by nested clusters, the amoeba
    map is sampled on polar charts (radii t**u on a fixed u grid) plus a
    coarse global grid, rescaled by 1/log t, aligned at the base vertex, and
    compared to the emitted scene, globally and per tripod region.

    ``kappa`` is recorded in the report for provenance; the genus-0 placement
    itself does not involve the collar length schedule.
    """
    if mg.graph.genus != 0:
        raise NotATreeError("the experiment runs on trees (genus 0)")
    if sampling is None:
        sampling = ExperimentSampling()
    if base_vertex is None:
        base_vertex = mg.graph.vertices[0]
    mor = build_morphism(mg, R, base_vertex)
    ts = sorted(float(t) for t in t_values)
    if not ts:
        raise InputError("need at least one t value")

    probe = emit_embedding(mor, leaf_ray_length=1.0)
    win = default_window(probe) if window is None else _as_window(window, R.m)
    ray_length = 8.0 * float(np.linalg.norm(win[:, 1] - win[:, 0])) + 1.0
    scene = emit_embedding(mor, leaf_ray_length=ray_length)

    entries = []
    for t in ts:
        placement = place_tree(mg, t, infinite_leaf)
        raw, region = _experiment_cloud(placement, R, mor, win, sampling)
        shift = mor.vertex_position[base_vertex] - _alignment_offset(placement, R, base_vertex)
        pts = raw / math.log(t) + shift
        d_global = hausdorff(PointCloud(pts), scene, win)
        per_tripod: dict[str, float | None] = {}
        for i, v in enumerate(mg.graph.vertices):
            mask = region == i
            if not mask.any():
                per_tripod[v] = None
                continue
            sub = PointCloud(pts[mask])
            try:
                per_tripod[v] = hausdorff(sub, _tripod_scene(mor, v, ray_length), win)
            except EmptyAfterClippingError:
                per_tripod[v] = None
        entries.append(TStepResult(t, d_global, per_tripod, pts.shape[0]))

    return ConvergenceReport(tuple(entries), float(kappa), win, base_vertex,
                             infinite_leaf if infinite_leaf is not None else mg.graph.leaf_ids[-1])
