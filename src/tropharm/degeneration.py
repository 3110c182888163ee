"""Numerical degeneration lab: collars, annulus moduli, genus-0 amoebas.

Three groups of tools live here:

* closed-form hyperbolic collar quantities (width, conformal modulus) and a
  desk-scale experiment measuring which kappa makes the rescaled
  model-annulus integral, at collar length l_t = kappa / (l * log t),
  converge to the tropical edge length l;

* explicit genus-0 differentials sum_j r_j dz/(z - p_j) on punctured spheres
  (real residues, purely imaginary periods), and deterministic sampling of
  their harmonic amoeba map A(z)_k = sum_j r_jk log|z - p_j| on polar charts;

* the convergence experiment: place punctures for a metric tree so the
  log-t-rescaled amoeba approaches the piecewise-linear image of the tree,
  and measure Hausdorff distances globally and per tripod region (the
  distance engine is ``tropharm.distance``).

Puncture placement for a tree uses nested clusters.  The last leaf goes to
infinity.  Root the tree at the vertex carrying the last leaf and give each
vertex v the height H(v) = ecc - dist(root, v).  Walking from the root toward
leaf j, each branch taken at a vertex w contributes c * t**H(w) with branch
constants c in {0, 1} read off the ribbon order.  Pairwise puncture distances
are then |p_j - p_k| = t**H(meet) * |1 + O(t**-dh)|, dh > 0 the height drop
below the meet, which reproduces the tree's edge lengths in log_t scale.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import distance
from .distance import clip_scene, hausdorff  # hausdorff stays importable from here
from .errors import (
    EvaluationAtPunctureError,
    InputError,
    MinimumDensityViolationError,
    NonPositiveLengthError,
    NonPositiveResiduesError,
    NotATreeError,
    SamplingTooDenseError,
    TropharmError,
    ZeroCoordinateError,
)
from .forms import ResidueMatrix
from .graph import MetricGraph, _tree_walk
from .morphisms import HarmonicMorphism, Scene, build_morphism, emit_embedding

FOUR_PI = 4.0 * np.pi


# ----------------------------------------------------------------------
# collar geometry


def _require_finite(**args) -> None:
    """InputError naming the first argument that is, or holds, a non-finite number."""
    for name, value in args.items():
        if not np.all(np.isfinite(value)):
            raise InputError(f"{name} must be finite, got {value!r}")


def collar_width(l):
    """Half-collar width arcsinh(1/sinh(l/2)) around a geodesic of length l."""
    arr = np.asarray(l, dtype=float)
    if np.any(arr <= 0.0):
        raise NonPositiveLengthError("collar_width needs a positive length")
    if not np.all(np.isfinite(arr)):
        raise InputError("collar_width needs a finite length")
    with np.errstate(over="ignore"):  # sinh(l/2) = inf at huge l gives the limit w = 0
        out = np.arcsinh(1.0 / np.sinh(arr / 2.0))
    if not np.all(np.isfinite(out)):
        raise InputError("collar_width overflows: the length is too small")
    return float(out) if np.isscalar(l) or arr.ndim == 0 else out


def collar_modulus(l):
    """Conformal modulus of the collar: (2/l) * arccos(1/cosh(w(l))).

    As l -> 0 this behaves like pi/l, so l * m(l) -> pi = 2*arccos(0).
    """
    w = collar_width(l)  # refuses a non-positive or non-finite length first
    arr = np.asarray(l, dtype=float)
    with np.errstate(over="ignore"):
        out = (2.0 / arr) * np.arccos(1.0 / np.cosh(w))
    if not np.all(np.isfinite(out)):
        raise InputError("collar_modulus overflows: the length is too small")
    return float(out) if np.isscalar(l) or arr.ndim == 0 else out


def collar_sweep(l_values) -> dict:
    """Table of (l, w, m, l*m) plus the observed limit of l*m(l).

    The product l*m(l) approaches pi = 2*arccos(0); the asymptotic constant 2
    sometimes quoted for m(l) ~ 2/l does not match the closed form.  The
    report flags the deviation when l*m at the smallest l lies nearer pi
    than 2, and never on an empty sweep.  Of lengths that cannot be
    evaluated, the largest decides the error, its width's before its
    modulus's.
    """
    ls = np.asarray(sorted(l_values, reverse=True), dtype=float)
    try:
        ws, ms = collar_width(ls), collar_modulus(ls)
    except TropharmError:
        for l in ls:  # raise the error of the first length that fails
            collar_modulus(l)
        raise
    rows = [{"l": l, "w": w, "m": m, "l_times_m": lm}
            for l, w, m, lm in zip(ls.tolist(), ws.tolist(), ms.tolist(), (ls * ms).tolist())]
    observed = rows[-1]["l_times_m"] if rows else float("nan")
    analytic = float(2.0 * np.arccos(0.0))
    return {
        "rows": rows,
        "observed_limit_of_l_times_m": observed,
        "analytic_limit": analytic,
        "quoted_asymptotic_constant": 2.0,
        "deviates_from_quoted_constant": bool(rows) and abs(observed - analytic) < abs(observed - 2.0),
        "note": (
            "l*m(l) tends to pi = 2*arccos(0); the frequently quoted "
            "asymptotic m(l) ~ 2/l would give 2 and is not what the closed "
            "form evaluates to"
        ),
    }


# ----------------------------------------------------------------------
# the annulus-period experiment

DEFAULT_ANNULUS_T = tuple(10.0**k for k in (8, 16, 32, 64, 128, 256))


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
    _require_finite(l_trop=l_trop, kappa=kappa)
    if not (l_trop > 0 and kappa > 0):
        raise InputError("l_trop and kappa must be positive")
    ts = tuple(float(t) for t in (t_values if t_values is not None else DEFAULT_ANNULUS_T))
    _require_finite(t_values=ts)
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
        if not all(cmath.isfinite(p) for p in finite):
            raise InputError("punctures must be finite or None")
        if len(set(finite)) != len(finite):
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

    def circular_period(self, center: complex, radius: float) -> complex:
        """Trapezoid quadrature of omega along |z - center| = radius, 4096 nodes."""
        if not radius > 0:
            raise InputError("radius must be positive")
        _, pts = self.sphere.finite()
        if np.any(np.abs(np.abs(pts - center) - radius) < 1e-14 * (1.0 + radius)):
            raise EvaluationAtPunctureError("quadrature circle passes through a puncture")
        theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        z = center + radius * np.exp(1j * theta)
        dz = 1j * radius * np.exp(1j * theta)
        return complex(np.mean(self.value(z) * dz) * 2.0 * np.pi)


def ind_genus0(sphere: PuncturedSphere, residue_row) -> SphereDifferential:
    """Differential with the given residues at the sphere's punctures.

    The row lists one residue per puncture, in puncture order; it must sum to
    zero (an infinite puncture's residue is then automatically minus the sum
    of the finite ones).
    """
    row = np.asarray(residue_row, dtype=float)
    if row.shape != (sphere.n,):
        raise InputError(f"expected {sphere.n} residues, got shape {row.shape}")
    return SphereDifferential(sphere, tuple(float(r) for r in ResidueMatrix(row).row(0)))


def field_zero(lam1: float, lam_minus1: float) -> float:
    """Unique zero of lam1/(z-1) + lam_minus1/(z+1) for positive residues.

    Solving the linear equation gives (lam_minus1 - lam1)/(lam1 + lam_minus1),
    which lies in (-1, 1) but rounds onto a puncture when one residue exceeds
    the other about 1e16-fold; the residual is re-checked numerically.  Both
    residues are first scaled by the power of two of the larger one, which
    is exact, so the sum cannot overflow and every other bit is unchanged.
    """
    _require_finite(lam1=lam1, lam_minus1=lam_minus1)
    if not (lam1 > 0 and lam_minus1 > 0):
        raise NonPositiveResiduesError("both residues must be positive")
    scale = -math.frexp(max(lam1, lam_minus1))[1]
    a, b = math.ldexp(lam1, scale), math.ldexp(lam_minus1, scale)
    zeta = (b - a) / (a + b)
    if not -1.0 < zeta < 1.0:
        raise InputError(f"the field zero of residues {lam1!r}, {lam_minus1!r} rounds onto the puncture {zeta}")
    residual = abs(a / (zeta - 1.0) + b / (zeta + 1.0))
    if residual > 1e-10 * (a + b):
        raise RuntimeError(f"internal: field zero residual {residual:.3e} at {zeta}")
    return float(zeta)


# ----------------------------------------------------------------------
# amoeba sampling


def _chart_units(pts: np.ndarray, angular_count: int) -> np.ndarray:
    """Unit vectors of the angles evaluated on every chart around a puncture.

    Of the A = ``angular_count`` angles, indices 0 .. A - h, h = ceil(A/2),
    are the uniform grid 2*pi*k/A and index A - k is the exact conjugate of
    index k.  If every puncture has the same imaginary part, z and conj(z)
    are equidistant from each, bit for bit, so only indices 0 .. A - h are
    evaluated; otherwise all A are, in index order."""
    a = angular_count
    h = (a + 1) // 2  # angle indices 1 .. h-1 have mirrors a-1 .. a-h+1
    units = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, a, endpoint=False)[:a - h + 1])
    if np.all(pts.imag == pts[0].imag):
        return units
    return np.concatenate([units, units[h - 1:0:-1].conj()])


def _chart_logdist(pts: np.ndarray, j: int, log_radii: np.ndarray, angular_count: int, *,
                   units: np.ndarray, buffers: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, int]:
    """log-distances of p_j + r*e^(i*theta) to every finite puncture, one
    column per radius and evaluated angle (``units``, which is
    ``_chart_units(pts, angular_count)`` and shared by every chart of a
    sphere), radius by radius: an (n, N) block, one row per puncture.

    Row k is |z - p_k|, written in place and then logged in place, each a
    contiguous pass.  The own row is log r exactly, which keeps tiny radii
    accurate where z - p_j would cancel to zero in floating point.  Only if
    some distance is exactly 0, a sample landing on another puncture, are
    the columns compacted, in place, to drop those samples.  ``buffers``, a
    float array of at least n * N elements and a (2, W) complex array of at
    least one radius row, are the working storage: the offsets
    r*e^(i*theta) and the points z are made W // units.size radius rows at
    a time, and the block returned is the start of the float array, laid out
    (n, N) with N the samples kept.

    Returns the kept columns and the number of samples drawn off a puncture
    over the whole circle, mirror samples included."""
    shape = (log_radii.size, units.size)
    size = shape[0] * shape[1]
    buf, zbuf = buffers
    logdist = buf[:pts.size * size].reshape(pts.size, size)
    per_pass = zbuf.shape[1] // units.size  # radius rows
    for lo in range(0, shape[0], per_pass):
        radii = np.exp(log_radii[lo:lo + per_pass])
        part = slice(lo * units.size, (lo + radii.size) * units.size)
        offs, z = zbuf[:, :radii.size * units.size]
        np.multiply(radii[:, None], units, out=offs.reshape(radii.size, units.size))
        for k in range(pts.size):
            if k != j:
                np.add(offs, pts[j] - pts[k], out=z)
                np.abs(z, out=logdist[k, part])
    logdist[j] = 1.0  # passes the check until log r is written over it
    twins = angular_count - units.size  # angle indices 1 .. twins have mirror copies
    keep = None if logdist.all() else np.all(logdist > 0.0, axis=0)
    logdist[j].reshape(shape)[:] = log_radii[:, None]
    drawn = size + shape[0] * twins
    if keep is not None:  # some sample on a puncture
        drawn = int(np.count_nonzero(keep) + np.count_nonzero(keep.reshape(shape)[:, 1:1 + twins]))
        # compacted row by row into the start of the buffer: row k's kept
        # columns end before row k + 1 begins, so no row is written over unread
        kept = buf[:pts.size * np.count_nonzero(keep)].reshape(pts.size, -1)
        for k in range(pts.size):
            kept[k] = logdist[k, keep]
        logdist = kept
    for rows in (logdist[:j], logdist[j + 1:]):
        np.log(rows, out=rows)
    return logdist, drawn


def _grid_logdist(pts: np.ndarray, grid_count: int) -> np.ndarray:
    """log-distances to every finite puncture on a square grid over a disk,
    an (n, N) block as ``_chart_logdist`` gives, one row per puncture.

    The disk of radius r0 holds every finite puncture; grid nodes outside it,
    or within 1e-9 * (1 + r0) of a puncture, are dropped.
    """
    center = complex(np.mean(pts))
    r0 = 2.0 * float(np.max(np.abs(pts - center))) + 1.0
    axis = np.linspace(-r0, r0, grid_count)
    gx, gy = np.meshgrid(axis, axis)
    gz = (center + gx + 1j * gy).ravel()
    dist = np.abs(gz[None, :] - pts[:, None])
    keep = (np.abs(gz - center) <= r0) & (dist.min(axis=0) > 1e-9 * (1.0 + r0))
    return np.log(dist[:, keep])


# ----------------------------------------------------------------------
# tree placement, realization, H_t


@dataclass(frozen=True)
class TreePlacement:
    """Puncture positions for a metric tree at a given t, with the tree
    rooted at the last leaf's vertex: ``parent`` and ``height`` are indexed
    like the graph's vertices, the root's parent is -1, and H(v) decreases
    away from the root."""

    carrier: MetricGraph
    t: float
    punctures: tuple[complex | None, ...]
    parent: tuple[int, ...]
    height: tuple[float, ...]

    def sphere(self) -> PuncturedSphere:
        return PuncturedSphere(self.punctures)

    def up_path(self, v: int) -> list[int]:
        """Vertex indices from ``v`` up to the root."""
        path = [v]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        return path


# the natural log of the largest float
_LOG_MAX = math.log(np.finfo(float).max)


def place_tree(mg: MetricGraph, t: float) -> TreePlacement:
    """Nested-cluster puncture placement for a genus-0 metric graph; the last
    leaf's puncture sits at infinity.  A t at which the punctures, or the
    convergence experiment's global grid around them, may leave the float
    range is refused."""
    g = mg.graph
    if g.genus != 0:
        raise NotATreeError(f"graph has genus {g.genus}, not a tree")
    if not (np.isfinite(t) and t > np.e):
        raise InputError(f"t must be finite and exceed e, got {t}")
    ids, names, ne = g.edge_ids + g.leaf_ids, g.vertices, len(g.edges)
    *leaf_vertices, root = g._leaf_vertices.tolist()

    # metric depth from the root through the tree walked from it, in
    # breadth-first order (parents first); each vertex's parent and incoming
    # column (the last leaf at the root); Python-float lengths and heights
    walk, lengths = _tree_walk(g._tree_adj, root), mg.lengths.tolist()
    depth, incoming, parent = [0.0] * len(names), [len(ids) - 1] * len(names), [-1] * len(names)
    for w, v, k, _ in walk:
        depth[w], incoming[w], parent[w] = depth[v] + lengths[k], k, v
    ecc = max(depth)
    # a puncture sums at most one term c * t**H <= t**ecc per vertex, and the
    # convergence experiment's global grid spans under 16 times the largest
    if ecc * math.log(t) + math.log(16 * len(names)) > _LOG_MAX:
        raise InputError(f"t = {float(t)!r} places punctures beyond the float range: the tree's height is {ecc!r}")
    height = [ecc - d for d in depth]

    def branch(v: int, k: int) -> int:
        """Constant of branch column ``k`` at v: 0 or 1 by its ribbon
        position after the reference v is entered by."""
        ribbon = g.ribbon[names[v]]
        return (ribbon.index(ids[k]) - ribbon.index(ids[incoming[v]]) - 1) % 3

    center = [0j] * len(names)
    for w, v, k, _ in walk:
        center[w] = center[v] + branch(v, k) * t ** height[v]
    punctures = tuple(center[v] + branch(v, ne + j) * t ** height[v] for j, v in enumerate(leaf_vertices))
    return TreePlacement(mg, float(t), (*punctures, None), tuple(parent), tuple(height))


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


# the most elements of a complex array whose size in bytes numpy can index
_MAX_ELEMENTS = np.iinfo(np.intp).max // 16


def _check_indexable(count, what: str) -> None:
    """Refuse, as too dense, a sampling array of ``count`` elements that no
    numpy array can hold; an indexable one that does not fit in memory ends
    in a MemoryError instead."""
    if count > _MAX_ELEMENTS:
        raise SamplingTooDenseError(f"{what} of {count:.3g} samples cannot be indexed")


def _sampling(density: float) -> tuple[float, int, int]:
    """(u_step, angular_count, grid_count) of the convergence experiment at a
    sampling density: the radial step 0.02/density in log_t units (radii are
    t**u on a grid of u values anchored at integer multiples of the step),
    64*density angles per chart circle and a global grid of 32*density nodes
    per side, each count at least 1."""
    if not (density > 0 and math.isfinite(density)):
        raise MinimumDensityViolationError(f"density must be positive and finite, got {density}")
    u_step = 0.02 / density
    if not math.isfinite(u_step):
        raise MinimumDensityViolationError(f"u_step must be positive and finite, got {u_step}")
    _check_indexable(64 * density, "a chart circle")
    return u_step, max(1, round(64 * density)), max(1, round(32 * density))


@dataclass(frozen=True)
class TStepResult:
    t: float
    global_hausdorff: float
    per_tripod: dict[str, float | None]
    samples: int


@dataclass(frozen=True)
class ConvergenceReport:
    entries: tuple[TStepResult, ...]
    window: np.ndarray
    base_vertex: str
    infinite_leaf: str

    def distances(self) -> list[tuple[float, float]]:
        return [(e.t, e.global_hausdorff) for e in self.entries]

    def to_dict(self) -> dict:
        return {
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


def _tripod_scene(mor: HarmonicMorphism, v: str) -> Scene:
    """Image of the vertex's half-tripod: half edges, full leaf rays, in
    column order (edges by id, then leaves)."""
    mg = mor.carrier
    g, ne, i = mg.graph, len(mg.lengths), mg.graph.vertices.index(v)
    pos = mor.positions[i]
    vertices = {v: pos}
    edges = []
    rays = []
    for k, sign in sorted(zip(g._star[i].tolist(), g._star_sign[i].tolist())):
        if k < ne:
            ref, slope = g.edge_ids[k], mor.edge_slopes[k]
            vertices[f"{ref}:mid"] = pos + 0.5 * mg.lengths[k] * (slope if sign > 0 else -slope)
            edges.append((ref, v, f"{ref}:mid"))
        else:
            rays.append((g.leaf_ids[k - ne], pos, mor.leaf_slopes[k - ne]))
    return Scene(mor.ambient_dim, vertices, tuple(edges), tuple(rays))


def _rows_near_window(pts: np.ndarray, j: int, log_radii: np.ndarray, res_cols: np.ndarray,
                      window: np.ndarray, shift: np.ndarray, logt: float) -> np.ndarray:
    """Mask of the radius rows of the chart around p_j whose amoeba image
    may meet the window.

    On the circle |z - p_j| = r the own log-distance is log r exactly, and
    log|z - p_k| lies in [log|d_k - r|, log(d_k + r)] with d_k = |p_j - p_k|;
    the positive and negative parts of the residue columns turn these into a
    box holding the row's raw image.  A row is dropped only if its circle
    keeps clear of every other puncture, gap > 1e-6 * (d_k + r), and its box
    misses the window, taken in raw coordinates (window - shift) * log t, by
    1e-6 of the term sizes plus 1e-9: far above round-off, so no dropped
    sample lands on a puncture or inside the window.  Each bound is one
    (n, rows) array over the chart's radius rows, with one row per puncture.
    """
    d = np.abs(pts - pts[j])[:, None]  # d[k] = |p_k - p_j|
    radii = np.exp(log_radii)
    gap = d - radii
    np.abs(gap, out=gap)
    hi = d + radii
    clear = np.all(gap > 1e-6 * hi, axis=0)  # the own gap r always passes
    gap[:, ~clear] = 1.0  # logs safely; a row not clear is kept whatever its box
    lo, hi = np.log(gap, out=gap), np.log(hi, out=hi)
    lo[j] = hi[j] = log_radii
    pos, neg = np.maximum(res_cols, 0.0), np.maximum(-res_cols, 0.0)
    box_lo = pos @ lo - neg @ hi
    box_hi = pos @ hi - neg @ lo
    terms = np.abs(res_cols) @ np.maximum(np.abs(lo, out=lo), np.abs(hi, out=hi), out=lo)
    slack = 1e-6 * (terms + ((np.abs(window).max(axis=1) + np.abs(shift)) * logt)[:, None]) + 1e-9
    raw_win = (window - shift[:, None]) * logt
    miss = (box_hi + slack < raw_win[:, :1]) | (box_lo - slack > raw_win[:, 1:])
    return ~(clear & np.any(miss, axis=0))


def _chart_plan(placement: TreePlacement, mor: HarmonicMorphism, window: np.ndarray):
    """What the charts of every t share, (reach, top height, each chart's
    leaf height, upward paths, scale thresholds), and the alignment shift.
    Radii run, in log_t units, from reach below a chart's leaf height to
    reach above the top height.  The upward paths (vertex indices) and the
    increasing thresholds between consecutive path vertices (one row per
    level) are padded to one depth: a threshold of +inf is never reached, so
    no padded entry is read.

    The shift is positions[b] + sum_j s_j * H(meet(b, v_j)) over the finite
    leaves j, s_j = -r_j the leaf slope, each term added in the climb of leaf
    j's path: by the circle mean-value property the amoeba map averages to
    sum_j r_j * H(meet) (log_t units, up to vanishing corrections) on the
    cluster-scale circle at the base vertex b."""
    g = placement.carrier.graph
    wmax = float(np.max(np.abs(window))) + 1.0
    peaks = np.max(np.abs(np.vstack([mor.edge_slopes, mor.leaf_slopes])), axis=1)
    nonzero = peaks[peaks > 1e-12]
    floor = max(float(nonzero.min()) if nonzero.size else 1.0, 0.05)
    reach = min(wmax / floor, 200.0)
    heights, base = placement.height, g.vertices.index(mor.base_vertex)
    on_base = set(placement.up_path(base))
    *leaf_vertices, _ = g._leaf_vertices.tolist()  # the last leaf is at infinity
    ups = [placement.up_path(v) for v in leaf_vertices]
    depth = max(map(len, ups))
    paths = np.zeros((len(ups), depth), dtype=np.min_scalar_type(-len(g.vertices)))
    bounds = np.full((depth - 1, len(ups)), np.inf)
    lift = np.zeros(mor.ambient_dim)
    for j, up in enumerate(ups):
        hs = [heights[w] for w in up]
        paths[j, :len(up)] = up
        bounds[:len(up) - 1, j] = [(a + b) / 2.0 for a, b in zip(hs, hs[1:])]
        lift += mor.leaf_slopes[j] * heights[next(w for w in up if w in on_base)]
    plan = reach, max(heights), [heights[v] for v in leaf_vertices], paths, bounds
    return plan, mor.positions[base] + lift


def _experiment_cloud(placement: TreePlacement, R: ResidueMatrix, plan: tuple,
                      window: np.ndarray, shift: np.ndarray, sampling: tuple[float, int, int]):
    """The rescaled amoeba samples inside the window as (m, N) coordinate
    columns sorted by tripod region, where the regions end, and the samples
    drawn, at ``sampling`` = (u_step, angular_count, grid_count) (see
    ``_sampling``) and ``plan`` (see ``_chart_plan``).

    A region is an index into the graph's vertices; the samples of the
    global grid have none.  Rescaled points are raw / log t + shift.  The
    columns hold the grid's samples first, then each region in vertex
    order, each in chart order and then sample order: the grid is columns
    :ends[0] and region i columns ends[i]:ends[i + 1].  On real punctures
    each chart is evaluated on the lower half-circle only (see
    ``_chart_units``), and radius rows that provably miss the window (see
    ``_rows_near_window``) are never evaluated; the returned count still
    includes both: every chart sample drawn off a puncture over the whole
    circle, plus the grid samples.

    The near rows of every chart are found first, chart by chart, so the
    chart buffers are allocated once, sized for the largest chart and
    reused by every chart; the filter's scratch is one chart's (n, rows).
    The grid is evaluated first, then the charts, one at a time, each as
    an (n, N) block (``_chart_logdist``).  Each has
    exactly one residue product, over all its kept samples, into an image of
    its own (with one residue row over an (N, n) copy of the block: the
    (1, n) @ (n, N) product runs another BLAS kernel and changes last bits),
    which is rescaled in place.  A sample's tripod region is read off its
    nearest puncture, a running minimum over the block's rows, the first
    index winning ties, ``distance._BLOCK`` samples at a time.  The
    in-window columns of each image are moved to its front, sorted by
    region, stably, and these pieces are put together once, slot by slot
    (a slot is the grid or one region).
    So what lives at once is the pieces so far, the chart buffers, one
    image and block-sized scratch, and at the end the pieces and the
    cloud."""
    idx, pts = placement.sphere().finite()
    res_cols = R.entries[:, idx]
    logt = math.log(placement.t)
    step, angular_count, grid_count = sampling
    reach, top, heights, paths, bounds = plan
    # the slots of a piece, the grid's and then each region's, begin and end
    # where its sorted regions reach these values
    slot_edges = np.arange(-1, len(placement.carrier.graph.vertices) + 1)
    block = distance._BLOCK

    def assign_tripods(logdist: np.ndarray) -> np.ndarray:
        """Tripod region of each sample: nearest puncture in log scale, then
        walk that leaf's upward path to the sample's own scale (the level is
        the number of thresholds at or below it, as np.digitize counts)."""
        out = np.empty(logdist.shape[1], dtype=paths.dtype)
        for lo in range(0, logdist.shape[1], block):
            part = logdist[:, lo:lo + block]
            u_min = part[0].copy()
            nearest = np.zeros(u_min.size, dtype=np.intp)
            for k in range(1, pts.size):
                # k exceeds every index so far, so the max sets it where part[k] is smaller
                np.maximum(nearest, np.less(part[k], u_min) * k, out=nearest)
                np.minimum(u_min, part[k], out=u_min)
            u_min /= logt
            at = nearest * paths.shape[1]  # the flat index of (nearest, level) in paths
            for bnd in bounds:
                at += np.take(bnd, nearest) <= u_min
            out[lo:lo + block] = np.take(paths, at)
        return out

    def image_by_region(logdist: np.ndarray, region: np.ndarray):
        """The rescaled image of an (n, N) log-distance block, one residue
        product; with one residue row, (N, n) @ (n, 1) over a copy of the
        block, as for the stacked image.  Returns its in-window columns,
        moved to its front sorted by region, stably, and where each slot of
        them ends."""
        image = np.empty((R.m, logdist.shape[1]))
        if R.m == 1:
            np.matmul(np.ascontiguousarray(logdist.T), res_cols.T, out=image.T)
        else:
            np.matmul(res_cols, logdist, out=image)
        np.divide(image, logt, out=image)
        image += shift[:, None]
        keep = np.flatnonzero(distance._in_window(image, window))
        keep = keep[np.argsort(region[keep], kind="stable")]
        for row in image:
            row[:keep.size] = row[keep]
        return image[:, :keep.size], np.searchsorted(region[keep], slot_edges)

    # keep radii t**u representable: |u * log t| must stay below exp overflow
    u_cap = 600.0 / logt
    u_hi = min(top + reach, u_cap)

    # every chart is checked before any is filtered, and its radius rows
    # near the window are found before any is evaluated, so that the chart
    # buffers are allocated once
    spans = [(math.ceil(max(height - reach, -u_cap) / step), math.floor(u_hi / step)) for height in heights]
    for k_lo, k_hi in spans:
        # a chart's distance array holds every row's samples to every puncture
        _check_indexable((k_hi - k_lo + 1) * angular_count * pts.size, "a chart")
    charts, samples = [], 0
    for j, (k_lo, k_hi) in enumerate(spans):
        log_radii = np.arange(k_lo, k_hi + 1) * step * logt
        near = _rows_near_window(pts, j, log_radii, res_cols, window, shift, logt)
        # a dropped row keeps clear of every other puncture: all its samples count
        samples += int(near.size - np.count_nonzero(near)) * angular_count
        charts.append(log_radii[near])
    _check_indexable(grid_count**2 * pts.size, "the global grid")

    # coarse global grid over a disk containing all finite punctures
    grid = _grid_logdist(pts, grid_count)
    pieces = [image_by_region(grid, np.full(grid.shape[1], -1, dtype=paths.dtype))]
    samples += grid.shape[1]
    del grid

    # one product per chart over all its samples: a product of fewer samples
    # can differ from the same samples of the whole one in the last bit; the
    # log-distances of the largest chart, and z and its offsets for half a
    # block of samples each (at least one radius row)
    units = _chart_units(pts, angular_count)
    buffers = (np.empty(pts.size * max(chart.size for chart in charts) * units.size),
               np.empty((2, max(1, block // 2 // units.size) * units.size), dtype=complex))
    for pos, chart in enumerate(charts):
        logdist, drawn = _chart_logdist(pts, pos, chart, angular_count, units=units, buffers=buffers)
        pieces.append(image_by_region(logdist, assign_tripods(logdist)))
        samples += drawn
    del buffers, logdist

    # the pieces in slot order, each slot's in chart order
    cols = np.concatenate([piece[:, ends[slot]:ends[slot + 1]] for slot in range(slot_edges.size - 1)
                           for piece, ends in pieces], axis=1)
    return cols, np.cumsum(np.sum([np.diff(ends) for _, ends in pieces], axis=0)), samples


def default_window(scene: Scene) -> np.ndarray:
    """Bounding box of the scene's vertices, inflated 1.5x about its center."""
    pos = np.array(list(scene.vertices.values()))
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    half = np.maximum(1.5 * half, 1.0)
    return np.stack([center - half, center + half], axis=1)


def convergence_experiment(mg: MetricGraph, R: ResidueMatrix, t_values, density: float = 1.0,
                           window=None, base_vertex: str | None = None) -> ConvergenceReport:
    """Hausdorff distances of rescaled amoeba samples to the tree's image.

    For each distinct t, in increasing order, the tree's punctures are
    placed by nested clusters, the amoeba map is sampled on polar charts
    (radii t**u on a fixed u grid) plus a coarse global grid, rescaled by
    1/log t, aligned at the base vertex, and compared to the emitted scene,
    globally and per tripod region.  ``density`` scales the sampling
    resolution (see ``_sampling``).

    Every t is placed, and its punctures checked, before anything is clipped
    or sampled, so a t that cannot be placed raises its error before any t
    is sampled.  The global and tripod scenes are clipped and prepared once
    per experiment (``distance._ClippedScene``).
    Each t runs in a helper whose arrays are all freed before the next t
    samples.  Its cloud comes from the sampler already rescaled, clipped to
    the window and sorted by region, so each tripod cloud is a column slice
    (``_experiment_cloud``), with the radial reach, tripod paths and shift
    made once per experiment (``_chart_plan``); each phase of a t holds
    about one copy of its cloud besides block-sized scratch.  One call,
    ``distance._experiment_distances``, then computes every distance of the
    t, the global cloud side bounded through the tripod distances and the
    per-tripod tables built once per experiment
    (``distance._tripod_table``), each point carrying a bound and a bin, the
    index of a scene sample near its projection.  Every distance equals
    ``hausdorff`` on the same cloud bit for bit.
    """
    sampling = _sampling(density)
    if mg.graph.genus != 0:
        raise NotATreeError("the experiment runs on trees (genus 0)")
    if base_vertex is None:
        base_vertex = mg.graph.vertices[0]
    mor = build_morphism(mg, R, base_vertex)
    ts = sorted({float(t) for t in t_values})
    if not ts:
        raise InputError("need at least one t value")

    scene = emit_embedding(mor)
    win = default_window(scene) if window is None else distance._as_window(window, R.m)
    # place every t, checking its punctures as it is placed, before anything
    # is clipped or sampled, so a t that cannot be placed costs no work; the
    # heights, and so the chart plan and the alignment shift, do not depend on t
    placements = []
    for t in ts:
        placements.append(place_tree(mg, t))
        placements[-1].sphere()
    plan, shift = _chart_plan(placements[0], mor, win)

    # clipping cuts every ray at the window edge, so the scene's drawing
    # length is never read; the scenes do not depend on t: clip and prepare
    # each once, and link each tripod piece to its global parent once
    vertices = mg.graph.vertices
    clipped = [np.array(clip_scene(s, win)) for s in [scene, *(_tripod_scene(mor, v) for v in vertices)]]
    glob, *tripods = [distance._ClippedScene(segs, win) if segs.size else None for segs in clipped]
    scale = float(np.abs(win).max())
    tables = [None if tri is None or glob is None else distance._tripod_table(tri, glob, scale)
              for tri in tripods]

    def step(placement: TreePlacement) -> TStepResult:
        """The experiment at one placed t; nothing it allocates outlives it."""
        try:
            cols, ends, samples = _experiment_cloud(placement, R, plan, win, shift, sampling)
        except MemoryError as exc:
            raise SamplingTooDenseError(f"amoeba sampling does not fit in memory: {exc}") from exc
        d_global, per_tripod = distance._experiment_distances(cols, ends, glob, tripods, tables)
        return TStepResult(placement.t, d_global, dict(zip(vertices, per_tripod)), samples)

    entries = [step(placement) for placement in placements]
    return ConvergenceReport(tuple(entries), win, base_vertex, mg.graph.leaf_ids[-1])
