"""Linear theory of 1-forms on a metric graph.

A 1-form assigns a real number to every oriented leaf-edge, antisymmetric
under orientation reversal, with the three outgoing values at every vertex
summing to zero (balancing).  The value on an inward-oriented leaf is the
residue at that leaf.

Exact forms (vanishing integral around every loop) are determined by their
residues: the electrical flow with edge resistance equal to edge length
(Kirchhoff's voltage law for ``integral = sum l(e) * w(e)``), a tree flow
corrected in the g-dimensional cycle space (``potentials_and_currents``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BalancingViolationError,
    InfiniteIntegralError,
    InputError,
    NotPathOrLoopError,
    ResiduesDontSumToZeroError,
    SingularSystemError,
    TooFewLeavesError,
)
from .graph import (GraphPath, MetricGraph, _balancing, _cotree, _leaf_columns, check_path, json_number,
                    loop_matrix, read_json)

# Balancing / residue tolerances: relative to the largest stored value.
TOL_BALANCE = 1e-9
TOL_RESIDUE = 1e-9
_OVERFLOW = "the residues' electrical flow overflows: a potential or current is not finite"


@dataclass(frozen=True)
class OneForm:
    """Values on canonical orientations: edges ends[0]->ends[1], leaves inward.

    ``values`` is keyed by id, edges first, then leaves; ``_columns`` holds
    the same values as a read-only array in that order and ``_scale`` is
    max(1, largest |value|), the scale of the balancing tolerance.
    """

    carrier: MetricGraph
    values: dict[str, float]

    def __post_init__(self):
        g = self.carrier.graph
        vals = {ref: float(self.values.get(ref, 0.0)) for ref in g.edge_ids + g.leaf_ids}
        extra = set(self.values) - set(vals)
        if extra:
            raise InputError(f"values on unknown leaf-edges: {sorted(extra)}")
        columns = np.array(list(vals.values()))
        if not np.isfinite(columns).all():
            raise InputError("1-form values must be finite numbers")
        columns.setflags(write=False)
        scale = max(1.0, float(np.max(np.abs(columns))))
        for name, value in (("values", vals), ("_columns", columns), ("_scale", scale)):
            object.__setattr__(self, name, value)
        defects = _balancing(self.carrier, columns)
        bad = np.flatnonzero(np.abs(defects) > 3 * (TOL_BALANCE * scale))
        if bad.size:
            v = bad[0]
            raise BalancingViolationError(f"balancing fails at vertex {g.vertices[v]} by {defects[v]:.3e}")


def residues(form: OneForm) -> np.ndarray:
    """Inward leaf values, in leaf order (a read-only view)."""
    return form._columns[len(form.carrier.lengths):]


def balancing_residual(form: OneForm) -> float:
    """Largest |sum of outgoing values| over the vertices."""
    return float(np.max(np.abs(_balancing(form.carrier, form._columns))))


def integrate(form: OneForm, path: GraphPath) -> float:
    """Sum of length(e) * value(e as oriented by the path) over non-leaf edges.

    Leaves are metrically infinite: a nonzero value on a leaf inside the path
    makes the integral infinite, which is refused.
    """
    return _integral(form, *check_path(form.carrier.graph, path))


def _integral(form: OneForm, cols: list[int], signs: list[float]) -> float:
    """``integrate`` over a valid path's columns and signs (``check_path`` is
    not run): the terms are added in path order."""
    lengths, values = form.carrier.lengths, form._columns
    total = 0.0
    for k, sign in zip(cols, signs):
        if k >= len(lengths):
            if abs(values[k]) > TOL_BALANCE * form._scale:
                lid = form.carrier.graph.leaf_ids[k - len(lengths)]
                raise InfiniteIntegralError(f"nonzero value on leaf {lid} inside the path")
            continue
        total += lengths[k] * (values[k] if sign > 0 else -values[k])
    return float(total)


def dual_form(mg: MetricGraph, path: GraphPath) -> OneForm:
    """Form with value +1 on the oriented leaf-edges of a loop or leaf-to-leaf path."""
    try:
        check_path(mg.graph, path)
    except NotPathOrLoopError:
        raise
    except Exception as exc:  # NotALoop on a bad loop is still "not a path or loop" here
        raise NotPathOrLoopError(str(exc)) from exc
    return OneForm(mg, {oe.id: 1.0 if oe.forward else -1.0 for oe in path.items})


def potentials_and_currents(mg: MetricGraph, rows) -> tuple[np.ndarray, np.ndarray]:
    """Electrical flow for each residue row: potentials (m x |V|), currents (m x |E|).

    Current residue_row[j] is injected at the vertex of leaf j and edge e has
    conductance 1/length(e).  Potentials are grounded at the lexicographically
    smallest vertex (index 0); currents run along canonical orientations.
    The tree flow F pushes each vertex's injection up the spanning tree: on
    a tree it is the current, exact on integer residues.  For genus g > 0,
    I = F - C^T Q^-1 (C diag(l) F), Q = C diag(l) C^T over the basis loops
    C, one g x g solve per row (m right-hand sides at once would round the
    last bit differently, which flips integrality verdicts).  Potentials
    integrate -l * I down the tree.  Zero flows and potentials are +0.0; a
    flow that overflows to a non-finite potential or current is refused.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != mg.n_leaves:
        raise InputError(f"expected rows of {mg.n_leaves} residues, got shape {rows.shape}")
    nv, ne = len(mg.graph.vertices), len(mg.lengths)
    walk, lengths, leaf_vertices = mg.graph._walk, mg.lengths.tolist(), mg.graph._leaf_vertices.tolist()
    flows = []
    for row in rows.tolist():
        held = [0.0] * nv  # the injection at and below each vertex, pushed up the walk
        for v, r in zip(leaf_vertices, row):
            held[v] += r
        flow = [0.0] * ne
        for child, parent, e, sign in reversed(walk):
            flow[e] = held[child] if sign > 0 else 0.0 - held[child]
            held[parent] += held[child]
        flows.append(flow)
    currents = np.array(flows).reshape(len(flows), ne)
    if mg.genus:
        # stacked (row, ., 1) operands: each row gets its own products and solve;
        # lengths scaled by a power of two to at most 1 (exact), so Q stays finite
        cycles = mg.cycles
        weighted = cycles * np.ldexp(mg.lengths, -math.frexp(max(lengths))[1])  # C diag(l)
        with np.errstate(over="ignore", invalid="ignore"):
            periods = weighted @ cycles.T
            integrals = weighted @ currents[:, :, None]  # the tree flows' loop integrals
            try:
                currents -= (cycles.T @ np.linalg.solve(periods, integrals))[:, :, 0]
            except np.linalg.LinAlgError as exc:  # an integral that overflowed raises here too
                if not np.isfinite(integrals).all():
                    raise InputError(_OVERFLOW) from exc
                raise SingularSystemError(f"cycle-space period matrix is singular: {exc}") from exc
    pots = []
    for current in currents.tolist():
        pot = [0.0] * nv
        for child, parent, e, sign in walk:
            pot[child] = pot[parent] + sign * lengths[e] * current[e]  # +0.0 + -0.0 is +0.0
        if not all(map(math.isfinite, current + pot)):
            raise InputError(_OVERFLOW)
        pots.append(pot)
    return np.array(pots).reshape(len(pots), nv), currents


def solve_exact_form(mg: MetricGraph, residue_row) -> OneForm:
    """The unique balanced form with the given residues and zero loop integrals.

    Its edge values are the currents of ``potentials_and_currents``.
    """
    row = np.asarray(residue_row, dtype=float)
    if row.shape != (mg.n_leaves,):
        raise InputError(f"expected {mg.n_leaves} residues, got shape {row.shape}")
    row = ResidueMatrix(row).row(0)
    _, currents = potentials_and_currents(mg, row)
    return OneForm(mg, dict(zip(mg.graph.edge_ids + mg.graph.leaf_ids, [*currents[0], *row])))


@dataclass(frozen=True)
class FormDecomposition:
    exact: OneForm
    holomorphic: OneForm


def decompose(form: OneForm) -> FormDecomposition:
    """Split into the exact part (from the residues) and a holomorphic remainder."""
    exact = solve_exact_form(form.carrier, residues(form))
    holo_vals = dict(zip(form.values, form._columns - exact._columns))
    return FormDecomposition(exact, OneForm(form.carrier, holo_vals))


def form_space_dims(mg: MetricGraph) -> tuple[int, int]:
    """(dim of exact forms, dim of holomorphic forms) = (n-1, g), certified exactly.

    Basis rows: the g fundamental loops and the n-1 paths from the first leaf,
    over the incidence columns (integer products, exact in float64).  Each row is
    balanced, the loops are I on their co-tree edges and 0 on the leaves, and the
    paths are -I on the other leaves, so the g + n - 1 = |E| + n - |V| rows are a
    basis of the balanced forms.  Zero residues leave the span of the loops (g);
    there the loop integrals are cycles @ diag(l) @ cycles.T, positive definite,
    so the exact forms (zero loop integrals) have dimension n - 1.
    """
    n, g = mg.n_leaves, mg.genus
    if n < 2:
        raise TooFewLeavesError(f"need at least 2 leaves, have {n}")
    cotree = _cotree(mg.graph)
    basis = loop_matrix(mg.graph, (*mg._loops, *_leaf_columns(mg.graph, mg.graph.leaf_ids[0])))
    if (np.any(_balancing(mg, basis.T)) or np.any(basis[:g, -n:])
            or not np.array_equal(basis[:g, cotree], np.eye(g))
            or not np.array_equal(basis[g:, 1 - n:], -np.eye(n - 1))):
        raise RuntimeError("internal: the loops and leaf paths fail their basis certificate")
    return n - 1, g


@dataclass(frozen=True)
class ResidueMatrix:
    """m x n real matrix of residues, rows summing to zero, columns in leaf order."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float, ndmin=2)  # a copy: the caller's array stays writeable
        if not np.isfinite(arr).all():
            raise InputError("residues must be finite numbers")
        scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0)
        with np.errstate(over="ignore", invalid="ignore"):  # rows near 1e308 may sum to inf or nan
            sums = arr.sum(axis=1)
        if not np.all(np.abs(sums) <= arr.shape[1] * TOL_RESIDUE * scale):
            raise ResiduesDontSumToZeroError(f"row sums {sums} are not zero")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def row(self, k: int) -> np.ndarray:
        return self.entries[k]


# ----------------------------------------------------------------------
# file formats


def residues_from_dict(d: dict, mg: MetricGraph | None = None) -> ResidueMatrix:
    try:
        rows = d["rows"]
        entries = np.array([[json_number(x, "residue entry") for x in row] for row in d["entries"]])
        leaf_order = [str(x) for x in d["leaf_order"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed residue-matrix document: {exc}") from exc
    if isinstance(rows, bool) or not isinstance(rows, int):
        raise InputError(f"rows must be an integer, got {rows!r}")
    if entries.shape != (rows, len(leaf_order)):
        raise InputError(
            f"entries shape {entries.shape} does not match rows={rows}, {len(leaf_order)} leaves"
        )
    if mg is not None and list(mg.graph.leaf_ids) != leaf_order:
        raise InputError(
            f"leaf_order {leaf_order} does not match the graph's leaf order {list(mg.graph.leaf_ids)}"
        )
    return ResidueMatrix(entries)


def load_residues(path: str, mg: MetricGraph | None = None) -> ResidueMatrix:
    return residues_from_dict(read_json(path, "residue"), mg)
