"""Twist data on non-leaf edges and limit periods of degenerating families.

Twists are stored as angles in [0, 2*pi) (the argument of a unit complex
number, with the log branch fixed on [0, 2*pi)), so the loop condition for a
phase-tropical morphism becomes a real congruence: around every loop and in
every coordinate, sum of theta(e) * slope(e) must vanish mod 2*pi.

The gluing convention behind the twists identifies boundary circles by
z -> -conj(Theta(e) * z); it is recorded here for reference only, no
surface is ever built.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import BadBasisError, InputError, NotALoopError, NotTropicalError
from .forms import OneForm, ResidueMatrix
from .graph import GraphPath, MetricGraph, check_path, loop_matrix
from .morphisms import HarmonicMorphism, build_morphism, is_tropical, loop_slope_matrix

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TwistAssignment:
    """One angle in [0, 2*pi) per non-leaf edge."""

    carrier: MetricGraph
    theta: dict[str, float]

    def __post_init__(self):
        g = self.carrier.graph
        missing = set(g.edge_ids) - set(self.theta)
        if missing:
            raise InputError(f"twists missing for edges {sorted(missing)}")
        extra = set(self.theta) - set(g.edge_ids)
        if extra:
            raise InputError(f"twists on unknown edges {sorted(extra)}")
        theta = {e: float(np.mod(v, TWO_PI)) for e, v in self.theta.items()}
        object.__setattr__(self, "theta", theta)


def zero_twists(mg: MetricGraph) -> TwistAssignment:
    return TwistAssignment(mg, {e: 0.0 for e in mg.graph.edge_ids})


def loop_twist_sum(mg: MetricGraph, twists: TwistAssignment, form: OneForm, loop: GraphPath) -> float:
    """sum over the loop of theta(e) * value(e as oriented by the loop)."""
    if not loop.is_loop:
        raise NotALoopError("expected a loop")
    check_path(mg.graph, loop)
    return sum(twists.theta[oe.id] * form.value(oe) for oe in loop.items)


def _twist_sums(twists: TwistAssignment, mor: HarmonicMorphism, loops) -> np.ndarray:
    """(loops, coordinates) array of sum theta(e) * slope(e) around each loop.

    Terms are added in each loop's own order: a product in edge order rounds
    differently and flips verdicts on sums that sit at the tolerance.
    """
    sums = np.zeros((len(loops), mor.ambient_dim))
    for i, loop in enumerate(loops):
        for oe in loop.items:
            sums[i] += twists.theta[oe.id] * mor.slope(oe)
    return sums


@dataclass(frozen=True)
class IntegralityCheck:
    loops: tuple[GraphPath, ...]
    sums: np.ndarray       # (loops, coordinates)
    residuals: np.ndarray  # distance to 2*pi*Z
    passes: np.ndarray     # bool, same shape

    @property
    def all_pass(self) -> bool:
        return bool(self.passes.all()) if self.passes.size else True


def check_integrality(mg: MetricGraph, twists: TwistAssignment, mor: HarmonicMorphism,
                      tol: float = 1e-9) -> IntegralityCheck:
    """Per (basis loop, coordinate): is the twist sum 0 mod 2*pi within tol?

    Slopes must be integer; integrality on a cycle-space basis then implies it
    on every loop by linearity.
    """
    if not is_tropical(mor, tol=max(tol, 1e-12)):
        raise NotTropicalError("morphism has non-integer slopes")
    sums = _twist_sums(twists, mor, mg.loops)
    residuals = np.abs(sums - TWO_PI * np.round(sums / TWO_PI))
    return IntegralityCheck(mg.loops, sums, residuals, residuals <= tol)


# ----------------------------------------------------------------------
# twist congruence solver


def _rational_nullspace(mat: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """Exact rank and integer null-space basis of an integer matrix."""
    rows = [[Fraction(int(x)) for x in row] for row in mat]
    ncols = mat.shape[1]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][f]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        basis.append(np.array([int(x * denom) for x in vec], dtype=float))
    return r, basis


@dataclass(frozen=True)
class TwistSolution:
    """Affine subtorus {theta : A theta = 0 mod 2*pi} through theta = 0."""

    carrier: MetricGraph
    edge_order: tuple[str, ...]
    constraint_matrix: np.ndarray  # integer entries, (m*g) x |E|
    rank: int
    dimension: int
    representative: TwistAssignment
    kernel: tuple[np.ndarray, ...]  # integer basis of the null space

    def sample(self, rng: np.random.Generator) -> TwistAssignment:
        """Random point on the identity component of the solution subtorus."""
        theta = np.zeros(len(self.edge_order))
        for vec in self.kernel:
            theta += rng.uniform(0.0, TWO_PI) * vec
        theta = np.mod(theta, TWO_PI)
        return TwistAssignment(self.carrier, dict(zip(self.edge_order, theta)))


def solve_twists(mg: MetricGraph, mor: HarmonicMorphism, tol: float = 1e-9) -> TwistSolution:
    """Solve the loop congruences on twists for a tropical morphism.

    The system is homogeneous, so theta = 0 always solves it; the solution set
    is a subtorus of dimension |E| - rank of the integer constraint matrix.
    """
    if not is_tropical(mor, tol=tol):
        raise NotTropicalError("morphism has non-integer slopes")
    edge_order = mg.graph.edge_ids
    mat = np.round(loop_slope_matrix(mor)).astype(int)
    rank, kernel = _rational_nullspace(mat)
    return TwistSolution(
        mg, edge_order, mat, rank, len(edge_order) - rank,
        zero_twists(mg), tuple(kernel),
    )


# ----------------------------------------------------------------------
# limit period matrices


@dataclass(frozen=True)
class PeriodBasis:
    """Row choices: n-1 puncture leaves, g edges (A-cycles), g loops (B-cycles)."""

    puncture_leaves: tuple[str, ...]
    a_edges: tuple[str, ...]
    b_loops: tuple[GraphPath, ...]


def default_period_basis(mg: MetricGraph) -> PeriodBasis:
    """All leaves but the last; co-tree edges; their fundamental cycles."""
    g = mg.graph
    a_edges = tuple(loop.items[0].id for loop in mg.loops)
    return PeriodBasis(g.leaf_ids[:-1] if g.n_leaves else (), a_edges, mg.loops)


@dataclass(frozen=True)
class LimitPeriodMatrix:
    labels: tuple[str, ...]
    entries: np.ndarray  # complex, (2g+n-1) x m


def _check_basis(mg: MetricGraph, basis: PeriodBasis) -> None:
    g = mg.graph
    if len(set(basis.puncture_leaves)) != len(basis.puncture_leaves) or any(
        not g.is_leaf(l) for l in basis.puncture_leaves
    ):
        raise BadBasisError("puncture labels must be distinct leaves")
    if len(basis.puncture_leaves) != max(g.n_leaves - 1, 0):
        raise BadBasisError(f"need {g.n_leaves - 1} puncture labels, got {len(basis.puncture_leaves)}")
    if len(set(basis.a_edges)) != len(basis.a_edges) or any(not g.is_edge(e) for e in basis.a_edges):
        raise BadBasisError("A-cycle edges must be distinct non-leaf edges")
    if len(basis.a_edges) != g.genus or len(basis.b_loops) != g.genus:
        raise BadBasisError(f"need genus = {g.genus} A-edges and B-loops")
    for loop in basis.b_loops:
        check_path(g, loop)
        if not loop.is_loop:
            raise BadBasisError("B-cycle entries must be loops")
    if g.genus:
        # B-loops must be a cycle-space basis and pair non-degenerately with
        # the chosen A-edges (signed incidence determinant nonzero).
        inc = loop_matrix(g, basis.b_loops)
        if np.linalg.matrix_rank(inc) != g.genus:
            raise BadBasisError("B-loops are rationally dependent")
        pairing = inc[:, [g.edge_ids.index(e) for e in basis.a_edges]]
        if abs(np.linalg.det(pairing)) < 1e-9:
            raise BadBasisError("A-edges pair degenerately with the B-loops")


def limit_period_matrix(mg: MetricGraph, twists: TwistAssignment, R: ResidueMatrix,
                        basis: PeriodBasis | None = None,
                        mor: HarmonicMorphism | None = None) -> LimitPeriodMatrix:
    """Limit of 1/(2*pi*i) periods: residues; edge slopes; twist sums / 2*pi.

    Puncture rows are the residue columns, A-rows the solved edge slopes, and
    B-rows the loop twist sums divided by 2*pi.  All limit entries are real;
    they are stored as complex numbers with zero imaginary part.
    """
    if basis is None:
        basis = default_period_basis(mg)
    _check_basis(mg, basis)
    if mor is None:
        mor = build_morphism(mg, R)
    g = mg.graph
    leaf_index = {l.id: j for j, l in enumerate(g.leaves)}
    rows = []
    labels = []
    for lid in basis.puncture_leaves:
        labels.append(f"puncture:{lid}")
        rows.append(R.entries[:, leaf_index[lid]].astype(complex))
    for eid in basis.a_edges:
        labels.append(f"A:{eid}")
        rows.append(mor.edge_slope[eid].astype(complex))
    for i, s in enumerate(_twist_sums(twists, mor, basis.b_loops)):
        labels.append(f"B:{i}")
        rows.append((s / TWO_PI).astype(complex))
    entries = np.array(rows) if rows else np.zeros((0, R.m), dtype=complex)
    return LimitPeriodMatrix(tuple(labels), entries)


def is_integer_period_matrix(P: LimitPeriodMatrix, tol: float = 1e-9) -> bool:
    re, im = P.entries.real, P.entries.imag
    return bool(np.all(np.abs(im) <= tol) and np.all(np.abs(re - np.round(re)) <= tol))


def period_matrix_to_dict(P: LimitPeriodMatrix) -> dict:
    return {
        "labels": list(P.labels),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in P.entries],
    }


def twists_from_dict(d: dict, mg: MetricGraph) -> TwistAssignment:
    try:
        theta = {str(k): float(v) for k, v in d.items()}
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed twist document: {exc}") from exc
    return TwistAssignment(mg, theta)
