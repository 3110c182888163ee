"""Linear theory of 1-forms on a metric graph.

A 1-form assigns a real number to every oriented leaf-edge, antisymmetric
under orientation reversal, with the three outgoing values at every vertex
summing to zero (balancing).  The value on an inward-oriented leaf is the
residue at that leaf.

Exact forms (vanishing integral around every loop) are determined by their
residues; they are computed as the electrical flow on the graph with edge
resistance equal to edge length, which is precisely Kirchhoff's voltage law
for the integral formula ``integral = sum l(e) * w(e)``.
"""
from __future__ import annotations

import json
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
from .graph import GraphPath, MetricGraph, OrientedEdge, check_path, graph_from_dict

# Balancing / residue tolerances: relative to the largest stored value.
TOL_BALANCE = 1e-9
TOL_RESIDUE = 1e-9


@dataclass(frozen=True)
class OneForm:
    """Values on canonical orientations: edges ends[0]->ends[1], leaves inward."""

    carrier: MetricGraph
    values: dict[str, float]

    def __post_init__(self):
        g = self.carrier.graph
        vals: dict[str, float] = {}
        for ref in list(g.edge_ids) + list(g.leaf_ids):
            vals[ref] = float(self.values.get(ref, 0.0))
        extra = set(self.values) - set(vals)
        if extra:
            raise InputError(f"values on unknown leaf-edges: {sorted(extra)}")
        object.__setattr__(self, "values", vals)
        tol = TOL_BALANCE * max(1.0, max(abs(v) for v in vals.values()) if vals else 1.0)
        defects = _balancing(self)
        bad = np.flatnonzero(np.abs(defects) > 3 * tol)
        if bad.size:
            v = bad[0]
            raise BalancingViolationError(f"balancing fails at vertex {g.vertices[v]} by {defects[v]:.3e}")

    def value(self, oe: OrientedEdge) -> float:
        stored = self.values[oe.id]
        return stored if oe.forward else -stored


def _balancing(form: OneForm) -> np.ndarray:
    """Sum of outgoing values at each vertex; ``OneForm`` stores its values in
    incidence column order (edge ids, then leaf ids)."""
    vals = np.fromiter(form.values.values(), dtype=float, count=len(form.values))
    return form.carrier.incidence @ vals


def residues(form: OneForm) -> np.ndarray:
    """Inward leaf values, in leaf order."""
    return np.array([form.values[l.id] for l in form.carrier.graph.leaves], dtype=float)


def balancing_residual(form: OneForm) -> float:
    """Largest |sum of outgoing values| over the vertices."""
    return float(np.max(np.abs(_balancing(form))))


def integrate(form: OneForm, path: GraphPath) -> float:
    """Sum of length(e) * value(e as oriented by the path) over non-leaf edges.

    Leaves are metrically infinite: a nonzero value on a leaf inside the path
    makes the integral infinite, which is refused.
    """
    g = form.carrier.graph
    check_path(g, path)
    scale = max(1.0, max(abs(v) for v in form.values.values()))
    total = 0.0
    for oe in path.items:
        if g.is_leaf(oe.id):
            if abs(form.values[oe.id]) > TOL_BALANCE * scale:
                raise InfiniteIntegralError(f"nonzero value on leaf {oe.id} inside the path")
            continue
        total += form.carrier.length[oe.id] * form.value(oe)
    return total


def dual_form(mg: MetricGraph, path: GraphPath) -> OneForm:
    """Form with value +1 on the oriented leaf-edges of a loop or leaf-to-leaf path."""
    try:
        check_path(mg.graph, path)
    except NotPathOrLoopError:
        raise
    except Exception as exc:  # NotALoop on a bad loop is still "not a path or loop" here
        raise NotPathOrLoopError(str(exc)) from exc
    vals: dict[str, float] = {}
    for oe in path.items:
        vals[oe.id] = 1.0 if oe.forward else -1.0
    return OneForm(mg, vals)


def check_residue_row(mg: MetricGraph, residue_row) -> np.ndarray:
    row = np.asarray(residue_row, dtype=float)
    if row.shape != (mg.n_leaves,):
        raise InputError(f"expected {mg.n_leaves} residues, got shape {row.shape}")
    scale = max(1.0, float(np.max(np.abs(row))) if row.size else 1.0)
    if abs(float(row.sum())) > max(1, row.size) * TOL_RESIDUE * scale:
        raise ResiduesDontSumToZeroError(f"residues sum to {row.sum():.3e}")
    return row


def potentials_and_currents(mg: MetricGraph, rows) -> tuple[np.ndarray, np.ndarray]:
    """Electrical flow for each residue row: potentials (m x |V|), currents (m x |E|).

    Current residue_row[j] is injected at the vertex of leaf j and edge e has
    conductance 1/length(e).  Potentials are grounded at the lexicographically
    smallest vertex (index 0); currents run along canonical orientations.
    Each row gets its own solve: a solve with m right-hand sides at once
    rounds differently in the last bit, which flips integrality verdicts.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    ne = len(mg.lengths)
    edges, leaves = mg.incidence[:, :ne], mg.incidence[:, ne:]
    lap = (edges / mg.lengths) @ edges.T
    # 0.0 - x rather than -x, so that a vertex without injection holds +0.0
    inject = 0.0 - leaves @ rows.T
    phi = np.zeros((rows.shape[0], len(mg.graph.vertices)))
    if phi.shape[1] > 1:
        try:
            for k in range(rows.shape[0]):
                phi[k, 1:] = np.linalg.solve(lap[1:, 1:], inject[1:, k])
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"grounded Laplacian is singular: {exc}") from exc
    return phi, (phi @ edges) / mg.lengths


def solve_exact_form(mg: MetricGraph, residue_row) -> OneForm:
    """The unique balanced form with the given residues and zero loop integrals.

    Its edge values are the currents of ``potentials_and_currents``.
    """
    row = check_residue_row(mg, residue_row)
    _, currents = potentials_and_currents(mg, row)
    vals = dict(zip(mg.graph.edge_ids, currents[0]))
    vals.update(zip(mg.graph.leaf_ids, row))
    return OneForm(mg, vals)


@dataclass(frozen=True)
class FormDecomposition:
    exact: OneForm
    holomorphic: OneForm


def decompose(form: OneForm) -> FormDecomposition:
    """Split into the exact part (from the residues) and a holomorphic remainder."""
    exact = solve_exact_form(form.carrier, residues(form))
    holo_vals = {k: form.values[k] - exact.values[k] for k in form.values}
    return FormDecomposition(exact, OneForm(form.carrier, holo_vals))


def form_space_dims(mg: MetricGraph) -> tuple[int, int]:
    """(dim of exact forms, dim of holomorphic forms) = (n-1, g), rank-verified."""
    n, g = mg.n_leaves, mg.genus
    if n < 2:
        raise TooFewLeavesError(f"need at least 2 leaves, have {n}")
    bal = mg.incidence
    total = bal.shape[1]
    loops = np.hstack([mg.cycles * mg.lengths, np.zeros((g, n))])
    leaf_rows = np.hstack([np.zeros((n, total - n)), np.eye(n)])

    dim_exact = total - np.linalg.matrix_rank(np.vstack([bal, loops]), tol=None)
    dim_holo = total - np.linalg.matrix_rank(np.vstack([bal, leaf_rows]), tol=None)
    dim_all = total - np.linalg.matrix_rank(bal, tol=None)
    if (dim_exact, dim_holo) != (n - 1, g) or dim_all != g + n - 1:
        raise RuntimeError(
            f"internal: rank verification failed, got dims ({dim_exact}, {dim_holo}, {dim_all}) "
            f"for (n-1, g, g+n-1) = ({n - 1}, {g}, {g + n - 1})"
        )
    return n - 1, g


def is_integer_form(form: OneForm, tol: float = 1e-9) -> bool:
    vals = np.array(list(form.values.values()))
    return bool(np.all(np.abs(vals - np.round(vals)) <= tol))


@dataclass(frozen=True)
class ResidueMatrix:
    """m x n real matrix of residues, rows summing to zero, columns in leaf order."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.entries, dtype=float))
        scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0)
        sums = arr.sum(axis=1)
        if arr.size and np.max(np.abs(sums)) > arr.shape[1] * TOL_RESIDUE * scale:
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

    def is_integer(self, tol: float = 1e-9) -> bool:
        return bool(np.all(np.abs(self.entries - np.round(self.entries)) <= tol))


# ----------------------------------------------------------------------
# file formats


def one_form_from_dict(d: dict, mg: MetricGraph | None = None) -> OneForm:
    if mg is None:
        gdoc = d.get("graph")
        if isinstance(gdoc, str):
            from .graph import load_graph

            mg = load_graph(gdoc)
        elif isinstance(gdoc, dict):
            mg = graph_from_dict(gdoc)
        else:
            raise InputError("one-form document has no usable 'graph' entry")
    try:
        vals = {str(k): float(v) for k, v in d["values"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed one-form document: {exc}") from exc
    return OneForm(mg, vals)


def residues_from_dict(d: dict, mg: MetricGraph | None = None) -> ResidueMatrix:
    try:
        rows = int(d["rows"])
        entries = np.asarray(d["entries"], dtype=float)
        leaf_order = [str(x) for x in d["leaf_order"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed residue-matrix document: {exc}") from exc
    if entries.shape != (rows, len(leaf_order)):
        raise InputError(
            f"entries shape {entries.shape} does not match rows={rows}, {len(leaf_order)} leaves"
        )
    if mg is not None and list(mg.graph.leaf_ids) != leaf_order:
        raise InputError(
            f"leaf_order {leaf_order} does not match the graph's leaf order {list(mg.graph.leaf_ids)}"
        )
    return ResidueMatrix(entries)


def residues_to_dict(r: ResidueMatrix, mg: MetricGraph) -> dict:
    return {
        "rows": r.m,
        "leaf_order": list(mg.graph.leaf_ids),
        "entries": [[float(x) for x in row] for row in r.entries],
    }


def load_residues(path: str, mg: MetricGraph | None = None) -> ResidueMatrix:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read residue file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"residue file {path} is not valid JSON: {exc}") from exc
    return residues_from_dict(d, mg)
