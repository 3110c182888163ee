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

import numpy as np

from . import _intmat
from .errors import BadBasisError, InputError, NotTropicalError
from .forms import ResidueMatrix
from .graph import (GraphPath, MetricGraph, _check_carrier, _kind, _path_columns, check_path, json_number,
                    loop_matrix)
from .morphisms import HarmonicMorphism, _integer_loop_slopes, _reads_as_integers, build_morphism

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
        theta = {e: float(v) for e, v in self.theta.items()}
        nonfinite = sorted(e for e, v in theta.items() if not np.isfinite(v))
        if nonfinite:
            raise InputError(f"twist angles on edges {nonfinite} are not finite")
        theta = {e: float(np.mod(v, TWO_PI)) for e, v in theta.items()}
        object.__setattr__(self, "theta", theta)


def zero_twists(mg: MetricGraph) -> TwistAssignment:
    return TwistAssignment(mg, {e: 0.0 for e in mg.graph.edge_ids})


def _twist_sums(twists: TwistAssignment, mor: HarmonicMorphism, loops) -> np.ndarray:
    """(loops, coordinates) array of sum theta(e) * slope(e) around each loop,
    given as (columns, signs).

    Terms are added in each loop's own order: a product in edge order, or
    np.sum, rounds differently and flips verdicts on sums that sit at the
    tolerance.
    """
    ids, slopes = mor.carrier.graph.edge_ids, mor.edge_slopes
    sums = np.zeros((len(loops), mor.ambient_dim))
    for row, (cols, signs) in zip(sums, loops):
        for k, sign in zip(cols, signs):
            row += twists.theta[ids[k]] * (slopes[k] if sign > 0 else -slopes[k])
    return sums


def _require_tropical(mor: HarmonicMorphism, tol: float) -> None:
    """NotTropicalError naming the slope farthest from an integer (edge or
    leaf, coordinate, value, distance) unless every slope is an integer
    within max(tol, 1e-12); a NaN slope counts as the farthest."""
    if not _reads_as_integers(mor, tol):
        slopes = np.vstack([mor.edge_slopes, mor.leaf_slopes])
        off = np.abs(slopes - np.round(slopes))
        i, k = map(int, np.unravel_index(np.argmax(off), off.shape))
        g = mor.carrier.graph
        raise NotTropicalError(f"morphism has non-integer slopes: {(g.edge_ids + g.leaf_ids)[i]} coordinate {k} "
                               f"has slope {float(slopes[i, k])!r}, {off[i, k]:.3g} from the nearest integer")


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
    _check_carrier(mg, twists, mor)
    _require_tropical(mor, tol)
    sums = _twist_sums(twists, mor, [_path_columns(mg.graph, loop) for loop in mg.loops])
    residuals = np.abs(sums - TWO_PI * np.round(sums / TWO_PI))
    return IntegralityCheck(mg.loops, sums, residuals, residuals <= tol)


# ----------------------------------------------------------------------
# twist congruence solver


@dataclass(frozen=True)
class TwistSolution:
    """Affine subtorus {theta : A theta = 0 mod 2*pi} through theta = 0."""

    carrier: MetricGraph
    edge_order: tuple[str, ...]
    constraint_matrix: np.ndarray  # integer entries, (m*g) x |E|
    rank: int
    dimension: int
    representative: TwistAssignment
    kernel: tuple[tuple[int, ...], ...]  # integer basis of the null space

    def sample(self, rng: np.random.Generator) -> TwistAssignment:
        """Random point on the identity component of the solution subtorus.

        Each kernel vector k_i gets an integer coefficient a_i below N = 2**53,
        and theta_e = 2*pi * c_e / N with c_e = sum a_i * k_i[e] mod N, reduced
        in integers: every loop sum of c_e * slope(e) is a multiple of N, so
        every twist sum is a whole multiple of 2*pi up to one rounding per angle.
        """
        n = 2**53
        coeffs = rng.integers(n, size=len(self.kernel)).tolist()
        cells = [sum(a * vec[e] for a, vec in zip(coeffs, self.kernel)) % n for e in range(len(self.edge_order))]
        return TwistAssignment(self.carrier, {e: TWO_PI * (c / n) for e, c in zip(self.edge_order, cells)})


def solve_twists(mg: MetricGraph, mor: HarmonicMorphism, tol: float = 1e-9) -> TwistSolution:
    """Solve the loop congruences on twists for a tropical morphism.

    The system is homogeneous, so theta = 0 always solves it; the solution set
    is a subtorus of dimension |E| - rank of the integer constraint matrix.
    Slopes are integers by check_integrality's rule: within max(tol, 1e-12).
    """
    _check_carrier(mg, mor)
    _require_tropical(mor, tol)
    edge_order = mg.graph.edge_ids
    mat = _integer_loop_slopes(mor)
    rank, kernel = _intmat.nullspace(mat)
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


def _check_basis(mg: MetricGraph, basis: PeriodBasis) -> list[tuple[list[int], list[float]]]:
    """BadBasisError unless ``basis`` is a period basis of ``mg``; returns
    the B-loops' columns and signs."""
    g = mg.graph
    if len(set(basis.puncture_leaves)) != len(basis.puncture_leaves) or any(
        _kind(g, l) != "leaf" for l in basis.puncture_leaves
    ):
        raise BadBasisError("puncture labels must be distinct leaves")
    if len(basis.puncture_leaves) != max(g.n_leaves - 1, 0):
        raise BadBasisError(f"need {g.n_leaves - 1} puncture labels, got {len(basis.puncture_leaves)}")
    if len(set(basis.a_edges)) != len(basis.a_edges) or any(_kind(g, e) != "edge" for e in basis.a_edges):
        raise BadBasisError("A-cycle edges must be distinct non-leaf edges")
    if len(basis.a_edges) != g.genus or len(basis.b_loops) != g.genus:
        raise BadBasisError(f"need genus = {g.genus} A-edges and B-loops")
    loops = []
    for loop in basis.b_loops:
        loops.append(check_path(g, loop))
        if not loop.is_loop:
            raise BadBasisError("B-cycle entries must be loops")
    if g.genus:
        # B-loops must be a cycle-space basis and pair non-degenerately with
        # the chosen A-edges (signed incidence determinant nonzero).
        inc = loop_matrix(g, loops)
        if np.linalg.matrix_rank(inc) != g.genus:
            raise BadBasisError("B-loops are rationally dependent")
        pairing = inc[:, [g._column[e] for e in basis.a_edges]]
        if abs(np.linalg.det(pairing)) < 1e-9:
            raise BadBasisError("A-edges pair degenerately with the B-loops")
    return loops


def limit_period_matrix(mg: MetricGraph, twists: TwistAssignment, R: ResidueMatrix,
                        basis: PeriodBasis | None = None,
                        mor: HarmonicMorphism | None = None) -> LimitPeriodMatrix:
    """Limit of 1/(2*pi*i) periods: residues; edge slopes; twist sums / 2*pi.

    Puncture rows are the residue columns, A-rows the solved edge slopes, and
    B-rows the loop twist sums divided by 2*pi.  All limit entries are real;
    they are stored as complex numbers with zero imaginary part.  A given
    ``mor`` must be R's morphism: its leaf slopes are exactly -R.  A caller's
    ``basis`` is checked (BadBasisError); the default one is valid by
    construction, as each B-loop holds its own A-edge and no other, so that
    the pairing is the identity, and the tests check it, not every call.
    """
    if basis is None:
        basis = default_period_basis(mg)
        b_loops = [_path_columns(mg.graph, loop) for loop in mg.loops]
    else:
        b_loops = _check_basis(mg, basis)
    if mor is None:
        mor = build_morphism(mg, R)
    _check_carrier(mg, twists, mor)
    if not np.array_equal(-mor.leaf_slopes.T, R.entries):
        raise InputError("the morphism's residues are not R")
    column, ne = mg.graph._column, len(mg.lengths)
    entries = np.vstack([R.entries[:, [column[l] - ne for l in basis.puncture_leaves]].T,
                         mor.edge_slopes[[column[e] for e in basis.a_edges]],
                         _twist_sums(twists, mor, b_loops) / TWO_PI]).astype(complex)
    labels = ([f"puncture:{lid}" for lid in basis.puncture_leaves] + [f"A:{eid}" for eid in basis.a_edges]
              + [f"B:{i}" for i in range(len(basis.b_loops))])
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
    if not isinstance(d, dict):
        raise InputError(f"twist document must be a JSON object, got {type(d).__name__}")
    theta = {str(k): json_number(v, f"twist on edge {k}") for k, v in d.items()}
    return TwistAssignment(mg, theta)
