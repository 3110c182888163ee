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
from typing import NamedTuple

import numpy as np

from .errors import InputError, UnsupportedDimensionForSvgError
from .forms import ResidueMatrix, potentials_and_currents
from .graph import MetricGraph, OrientedEdge

COMPAT_TOL = 1e-9
ZERO_SLOPE_TOL = 1e-12


@dataclass(frozen=True)
class HarmonicMorphism:
    """Vertex positions plus slope vectors per canonical oriented leaf-edge.

    ``edge_slope[e]`` is the gradient along ends[0]->ends[1]; ``leaf_slope[l]``
    is the gradient along the outward orientation of leaf l.
    """

    carrier: MetricGraph
    ambient_dim: int
    base_vertex: str
    vertex_position: dict[str, np.ndarray]
    edge_slope: dict[str, np.ndarray]
    leaf_slope: dict[str, np.ndarray]

    def __post_init__(self):
        g = self.carrier.graph
        m = self.ambient_dim
        # The dicts are the public view; the stacked arrays (rows in vertex,
        # edge and leaf order) back them and feed the matrix computations.
        for name, table, keys in (("_positions", self.vertex_position, g.vertices),
                                  ("_edge_slopes", self.edge_slope, g.edge_ids),
                                  ("_leaf_slopes", self.leaf_slope, g.leaf_ids)):
            rows = np.array([np.asarray(table[k], dtype=float).reshape(m) for k in keys])
            rows = rows.reshape(len(keys), m)
            rows.setflags(write=False)
            table.update(zip(keys, rows))
            object.__setattr__(self, name, rows)
        scale = max(1.0, _max_abs(self._edge_slopes), _max_abs(self._leaf_slopes))
        defect = balancing_defect(self)
        if defect > 3 * COMPAT_TOL * scale:
            raise InputError(f"morphism slopes violate balancing by {defect:.3e}")
        pos_scale = max(1.0, _max_abs(self._positions))
        defect = compatibility_defect(self)
        if defect > 3 * COMPAT_TOL * max(pos_scale, scale):
            raise InputError(f"positions and slopes are incompatible by {defect:.3e}")

    def slope(self, oe: OrientedEdge) -> np.ndarray:
        g = self.carrier.graph
        if g.is_edge(oe.id):
            s = self.edge_slope[oe.id]
            return s if oe.forward else -s
        s = self.leaf_slope[oe.id]  # stored outward; forward means inward
        return -s if oe.forward else s


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def balancing_defect(mor: HarmonicMorphism) -> float:
    """Largest |sum of the 3 outgoing slopes| over all vertices."""
    inward = np.vstack([mor._edge_slopes, -mor._leaf_slopes])
    return _max_abs(mor.carrier.incidence @ inward)


def compatibility_defect(mor: HarmonicMorphism) -> float:
    """Largest |position(head) - position(tail) - length*slope| over all edges."""
    mg = mor.carrier
    edges = mg.incidence[:, :len(mg.lengths)]
    gap = edges.T @ mor._positions + mg.lengths[:, None] * mor._edge_slopes
    return _max_abs(gap)


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
    return HarmonicMorphism(
        mg, R.m, base_vertex,
        dict(zip(g.vertices, position.T)),
        dict(zip(g.edge_ids, currents.T)),
        dict(zip(g.leaf_ids, -R.entries.T)),
    )


def residues_of(mor: HarmonicMorphism) -> ResidueMatrix:
    """Inward leaf slopes as residue columns; inverse of build_morphism."""
    return ResidueMatrix(-mor._leaf_slopes.T)


def is_tropical(mor: HarmonicMorphism, tol: float = 1e-9) -> bool:
    """True iff every edge and leaf slope vector is integral within tol."""
    slopes = np.vstack([mor._edge_slopes, mor._leaf_slopes])
    return _max_abs(slopes - np.round(slopes)) <= tol


@dataclass(frozen=True)
class CombinatorialType:
    """Direction tag per canonical oriented leaf-edge: unit vector or None (contracted)."""

    tags: dict[str, tuple[float, ...] | None]

    def same_as(self, other: "CombinatorialType", tol: float = 1e-9) -> bool:
        if set(self.tags) != set(other.tags):
            return False
        for k, tag in self.tags.items():
            o = other.tags[k]
            if (tag is None) != (o is None):
                return False
            if tag is not None and np.max(np.abs(np.array(tag) - np.array(o))) > tol:
                return False
        return True


def combinatorial_type(mor: HarmonicMorphism, zero_tol: float = ZERO_SLOPE_TOL) -> CombinatorialType:
    tags: dict[str, tuple[float, ...] | None] = {}
    for table in (mor.edge_slope, mor.leaf_slope):
        for k, v in table.items():
            norm = float(np.linalg.norm(v))
            tags[k] = None if norm <= zero_tol else tuple(v / norm)
    return CombinatorialType(tags)


def loop_slope_matrix(mor: HarmonicMorphism) -> np.ndarray:
    """(basis loop, coordinate) x edge matrix of slopes signed by the loops.

    Row i*m + k holds, at each edge of basis loop i, the k-th slope component
    of the edge as oriented by the loop, and 0 off the loop.
    """
    g, ne = mor.carrier.cycles.shape
    return (mor.carrier.cycles[:, None, :] * mor._edge_slopes.T).reshape(g * mor.ambient_dim, ne)


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
    """
    expected = mor.ambient_dim * mg.genus
    mat = loop_slope_matrix(mor)
    if not mat.any():
        return RegularityReport(0, expected, expected == 0)
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(svals > rank_tol * svals[0]))
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
    g = mor.carrier.graph
    rays = tuple(
        (l.id, mor.vertex_position[l.vertex], mor.leaf_slope[l.id]) for l in g.leaves
    )
    edges = tuple((e.id, e.ends[0], e.ends[1]) for e in g.edges)
    return Scene(mor.ambient_dim, dict(mor.vertex_position), edges, rays, float(leaf_ray_length))


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


def scene_to_svg(scene: Scene) -> str:
    """Deterministic SVG: edges solid, rays dashed, vertices labelled."""
    if scene.dim not in (1, 2, 3):
        raise UnsupportedDimensionForSvgError(f"cannot render dimension {scene.dim} as SVG")

    def fmt(x: float) -> str:
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
