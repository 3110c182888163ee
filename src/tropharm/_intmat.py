"""Exact rank and null space of integer matrices, on Python ints.

The loop-slope matrix of a tropical morphism has integer entries, so its rank
(regularity) and its null space (the twist subtorus) are decided here without
floats: no singular-value cutoff to choose, and no LAPACK call.
"""
from __future__ import annotations

from math import gcd, lcm

import numpy as np


def _eliminate(rows: list[list[int]], ncols: int, above: bool) -> list[int]:
    """Fraction-free elimination of ``rows`` in place; returns the pivot columns.

    The pivot of column c is the first non-zero entry at or below row r; each
    row i below it (and above it too when ``above``, which is Gauss-Jordan)
    with entry f in that column becomes p * row_i - f * row_r (p the pivot),
    divided by the gcd of its entries.  Each row stays a non-zero multiple of
    the row it would be with fractions, so the rank is the pivot count either way.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(0 if above else r + 1, len(rows)):
            f = rows[i][c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(mat: np.ndarray) -> int:
    """Exact rank of an integer matrix: forward elimination only."""
    return len(_eliminate(mat.tolist(), mat.shape[1], above=False))


def nullspace(mat: np.ndarray) -> tuple[int, list[tuple[int, ...]]]:
    """Exact rank and integer null-space basis, as tuples of Python ints, of an
    integer matrix.

    After Gauss-Jordan the reduced-row-echelon entry of pivot row i in free
    column f is rows[i][f] / rows[i][p_i].  The basis vector of free column f
    is the one with 1 at f and minus those entries at the pivots, scaled to
    primitive integers by the lcm of their denominators.
    """
    rows = mat.tolist()
    ncols = mat.shape[1]
    pivots = _eliminate(rows, ncols, above=True)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        scale = 1
        for row, p in zip(rows, pivots):  # math.lcm ignores the sign of a negative pivot
            scale = lcm(scale, row[p] // gcd(row[f], row[p]))
        vec = [0] * ncols
        vec[f] = scale
        for row, p in zip(rows, pivots):
            vec[p] = -row[f] * scale // row[p]
        basis.append(tuple(vec))
    return len(pivots), basis
