"""Harmonic and tropical morphisms into R^m, built by integrating exact forms.

A residue matrix R (m rows) induces m exact forms; stacking their values gives
a slope vector per oriented leaf-edge.  The forms are electrical flows, so
positions are minus the potentials, shifted to put the base vertex at 0.
The outgoing slope on leaf j is minus the j-th residue column: a positive
residue is an electrical source, and the image runs off to -infinity in that
coordinate along the leaf.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import _intmat
from .errors import InputError, UnsupportedDimensionForSvgError
from .forms import ResidueMatrix, potentials_and_currents
from .graph import MetricGraph, _balancing, _check_carrier

COMPAT_TOL = 1e-9
ZERO_SLOPE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HarmonicMorphism:
    """Vertex positions plus slope vectors per canonical oriented leaf-edge.

    ``positions``, ``edge_slopes`` and ``leaf_slopes``: one row of m coordinates
    per vertex, edge (along ends[0]->ends[1]) and leaf (outward), in the graph's
    order, read-only copies of the caller's arrays.  ``vertex_position``,
    ``edge_slope`` and ``leaf_slope`` are read-only dict views of the rows; ``==`` is identity.
    """

    carrier: MetricGraph
    base_vertex: str
    positions: np.ndarray
    edge_slopes: np.ndarray
    leaf_slopes: np.ndarray

    def __post_init__(self):
        g = self.carrier.graph
        m = np.shape(self.positions)[-1:]  # (m,) if positions is 2-D; any other shape fails
        for name, count in (("positions", len(g.vertices)), ("edge_slopes", len(g.edges)),
                            ("leaf_slopes", g.n_leaves)):
            rows = np.array(getattr(self, name), dtype=float, order="C")
            if rows.shape != (count, *m):
                raise InputError(f"{name} has shape {rows.shape}, expected ({count}, m)")
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)
        scale = max(1.0, _max_abs(self.edge_slopes), _max_abs(self.leaf_slopes))
        defect = balancing_defect(self)
        if not defect <= 3 * COMPAT_TOL * scale:  # a NaN defect fails too
            raise InputError(f"morphism slopes violate balancing by {defect:.3e}")
        pos_scale = max(1.0, _max_abs(self.positions))
        defect = compatibility_defect(self)
        if not defect <= 3 * COMPAT_TOL * max(pos_scale, scale):
            raise InputError(f"positions and slopes are incompatible by {defect:.3e}")

    def __getstate__(self):  # a mappingproxy does not pickle; the views are rebuilt on demand
        return {k: v for k, v in self.__dict__.items() if not isinstance(v, MappingProxyType)}

    @property
    def ambient_dim(self) -> int:
        return self.positions.shape[1]

    @cached_property
    def vertex_position(self) -> MappingProxyType[str, np.ndarray]:
        return MappingProxyType(dict(zip(self.carrier.graph.vertices, self.positions)))

    @cached_property
    def edge_slope(self) -> MappingProxyType[str, np.ndarray]:
        return MappingProxyType(dict(zip(self.carrier.graph.edge_ids, self.edge_slopes)))

    @cached_property
    def leaf_slope(self) -> MappingProxyType[str, np.ndarray]:
        return MappingProxyType(dict(zip(self.carrier.graph.leaf_ids, self.leaf_slopes)))


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def balancing_defect(mor: HarmonicMorphism) -> float:
    """Largest |sum of the 3 outgoing slopes| over all vertices."""
    inward = np.vstack([mor.edge_slopes, -mor.leaf_slopes])
    return _max_abs(_balancing(mor.carrier, inward))


def compatibility_defect(mor: HarmonicMorphism) -> float:
    """Largest |position(head) - position(tail) - length*slope| over all edges."""
    mg, pos = mor.carrier, mor.positions
    return _max_abs(pos[mg.graph._tails] - pos[mg.graph._heads] + mg.lengths[:, None] * mor.edge_slopes)


def build_morphism(mg: MetricGraph, R: ResidueMatrix, base_vertex: str | None = None) -> HarmonicMorphism:
    """Solve the m exact forms of R; positions are minus their potentials."""
    g = mg.graph
    if R.n != g.n_leaves:
        raise InputError(f"residue matrix has {R.n} columns for {g.n_leaves} leaves")
    if base_vertex is None:
        base_vertex = g.vertices[0]
    if base_vertex not in g.vertices:
        raise InputError(f"unknown base vertex {base_vertex}")

    phi, currents = potentials_and_currents(mg, R.entries)
    b = g.vertices.index(base_vertex)
    position = phi[:, b:b + 1] - phi
    return HarmonicMorphism(mg, base_vertex, position.T, currents.T, -R.entries.T)


def residues_of(mor: HarmonicMorphism) -> ResidueMatrix:
    """Inward leaf slopes as residue columns; inverse of build_morphism."""
    return ResidueMatrix(-mor.leaf_slopes.T)


def is_tropical(mor: HarmonicMorphism, tol: float = 1e-9) -> bool:
    """True iff every edge and leaf slope vector is integral within tol."""
    slopes = np.vstack([mor.edge_slopes, mor.leaf_slopes])
    return _max_abs(slopes - np.round(slopes)) <= tol


def _reads_as_integers(mor: HarmonicMorphism, tol: float) -> bool:
    """True iff every slope is an integer within max(tol, 1e-12): the rule by
    which regularity, twists and their check read a morphism as tropical."""
    return is_tropical(mor, tol=max(tol, 1e-12))


def loop_slope_matrix(mor: HarmonicMorphism) -> np.ndarray:
    """(basis loop, coordinate) x edge matrix of slopes signed by the loops.

    Row i*m + k holds, at each edge of basis loop i, the k-th slope component
    of the edge as oriented by the loop, and 0 off the loop.
    """
    g, ne = mor.carrier.cycles.shape
    return (mor.carrier.cycles[:, None, :] * mor.edge_slopes.T).reshape(g * mor.ambient_dim, ne)


def _integer_loop_slopes(mor: HarmonicMorphism) -> np.ndarray:
    """The loop-slope matrix of a morphism that reads as integers, rounded to
    an int array; InputError unless every entry is below 2**53, where floats
    still tell integers apart."""
    mat = np.round(loop_slope_matrix(mor))
    if not np.all(np.abs(mat) < 2.0**53):  # also false on NaN
        raise InputError("loop slopes must be finite and below 2**53 in magnitude to be read as exact integers")
    return mat.astype(int)


class RegularityReport(NamedTuple):
    rank: int
    expected: int
    is_regular: bool


def regularity_rank(mg: MetricGraph, mor: HarmonicMorphism, rank_tol: float = 1e-9) -> RegularityReport:
    """Rank of the loop-constraint system on edge lengths, against m*genus.

    Row (loop, coordinate k): entry at edge e is the signed k-th slope
    component of e as oriented by the loop (0 off the loop).  Lengths
    admitting a combinatorially equivalent morphism satisfy these linear
    conditions; the morphism is regular when they are independent.

    On a morphism whose slopes read as integers within max(``rank_tol``,
    1e-12), as ``solve_twists`` reads them, the rank is exact: that of the
    integer matrix, so it equals the twist rank.  Otherwise a singular value
    counts when it exceeds ``rank_tol`` times the largest slope of the whole
    morphism, edges and leaves, so a loop matrix of round-off has rank 0.
    """
    _check_carrier(mg, mor)
    expected = mor.ambient_dim * mg.genus
    if _reads_as_integers(mor, rank_tol):
        rank = _intmat.rank(_integer_loop_slopes(mor))
    else:
        mat = loop_slope_matrix(mor)
        scale = max(_max_abs(mor.edge_slopes), _max_abs(mor.leaf_slopes))
        rank = int(np.sum(np.linalg.svd(mat, compute_uv=False) > rank_tol * scale)) if mat.any() else 0
    return RegularityReport(rank, expected, rank == expected)


# ----------------------------------------------------------------------
# piecewise-linear scene: segments for edges, rays for leaves


@dataclass(frozen=True)
class Scene:
    dim: int
    vertices: dict[str, np.ndarray]
    edges: tuple[tuple[str, str, str], ...]  # (edge id, from vertex, to vertex)
    rays: tuple[tuple[str, np.ndarray, np.ndarray], ...]  # (leaf id, origin, direction)
    ray_length: float = 3.0


def emit_embedding(mor: HarmonicMorphism, leaf_ray_length: float = 3.0) -> Scene:
    if not 0.0 < leaf_ray_length < np.inf:
        raise InputError(f"leaf ray length must be positive and finite, got {leaf_ray_length}")
    g = mor.carrier.graph
    rays = tuple(zip(g.leaf_ids, mor.positions[g._leaf_vertices], mor.leaf_slopes))
    edges = tuple((e.id, e.ends[0], e.ends[1]) for e in g.edges)
    return Scene(mor.ambient_dim, dict(zip(g.vertices, mor.positions)), edges, rays, float(leaf_ray_length))


def scene_to_dict(scene: Scene) -> dict:
    return {
        "vertices": {v: [float(x) for x in p] for v, p in scene.vertices.items()},
        "edges": [{"id": eid, "from": a, "to": b} for eid, a, b in scene.edges],
        "rays": [
            {"leaf": lid, "origin": [float(x) for x in o], "direction": [float(x) for x in d]}
            for lid, o, d in scene.rays
        ],
    }


_ISO = np.array([[0.8660254037844386, -0.8660254037844386, 0.0],
                 [0.5, 0.5, -1.0]])


def _to_plane(p: np.ndarray, dim: int) -> np.ndarray:
    if dim == 1:
        return np.array([p[0], 0.0])
    if dim == 2:
        return np.asarray(p, dtype=float)
    return _ISO @ p


@np.errstate(over="ignore", invalid="ignore")  # fmt refuses what overflows
def scene_to_svg(scene: Scene) -> str:
    """Deterministic SVG: edges solid, rays dashed, vertices labelled.

    A drawing whose coordinates or extent overflow is refused."""
    if scene.dim not in (1, 2, 3):
        raise UnsupportedDimensionForSvgError(f"cannot render dimension {scene.dim} as SVG")

    def fmt(x: float) -> str:
        if not np.isfinite(x):
            raise InputError(f"the drawing overflows: a coordinate or its extent is {x}")
        return format(x, ".6f")

    segs = []
    for eid, a, b in scene.edges:
        segs.append((eid, _to_plane(scene.vertices[a], scene.dim),
                     _to_plane(scene.vertices[b], scene.dim), False))
    for lid, origin, direction in scene.rays:
        norm = float(np.linalg.norm(direction))
        tip = origin if norm <= ZERO_SLOPE_TOL else origin + scene.ray_length * direction / norm
        segs.append((lid, _to_plane(origin, scene.dim), _to_plane(tip, scene.dim), True))

    pts = [p for _, a, b, _ in segs for p in (a, b)]
    pts = np.array(pts) if pts else np.zeros((1, 2))
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-6)
    margin = 0.05 * float(span.max())
    lo, hi = lo - margin, hi + margin
    w, h = hi - lo

    # SVG y grows downward; flip the second coordinate.
    def xy(p):
        return fmt(p[0]), fmt(float(lo[1]) + float(hi[1]) - p[1])

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(lo[0])} {fmt(lo[1])} {fmt(w)} {fmt(h)}">'
    ]
    sw = fmt(float(span.max()) / 200.0)
    # parallel edges get a tiny deterministic offset so both strokes show
    seen: dict[tuple, int] = {}
    for label, a, b, dashed in segs:
        key = (tuple(np.round(a, 9)), tuple(np.round(b, 9)))
        k = seen.get(key, 0)
        seen[key] = k + 1
        off = np.zeros(2)
        if k and np.linalg.norm(b - a) > 0:
            t = (b - a) / np.linalg.norm(b - a)
            off = k * 0.01 * float(span.max()) * np.array([-t[1], t[0]])
        (x1, y1), (x2, y2) = xy(a + off), xy(b + off)
        dash = ' stroke-dasharray="4,3"' if dashed else ""
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="{sw}"{dash}>'
            f"<title>{label}</title></line>"
        )
    r = fmt(float(span.max()) / 100.0)
    fs = fmt(float(span.max()) / 25.0)
    for v in sorted(scene.vertices):
        p = _to_plane(scene.vertices[v], scene.dim)
        x, y = xy(p)
        lines.append(f'<circle cx="{x}" cy="{y}" r="{r}" fill="black"/>')
        lines.append(f'<text x="{x}" y="{y}" font-size="{fs}" dx="{r}" dy="-{r}">{v}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
