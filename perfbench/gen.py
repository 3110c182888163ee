"""Seeded input generators for the benchmark.

Everything here is plain Python and numpy on JSON-ready dicts; nothing is
imported from tropharm or from the test suite, so neither a library change
nor a test refactor can change the benchmark's inputs.  Every instance is
drawn from its own generator seeded with (seed, stream, index), so instance i
is the same bytes whether it is made during set-up or later in the run.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import lcm, log2

import numpy as np

KIRCHHOFF_STREAM = 1
TROPICAL_STREAM = 2
TREE_STREAM = 3
TWIST_STREAM = 102  # draws the twist sampled for tropical instance i

KIRCHHOFF_MATRICES = 4  # residue matrices per session
KIRCHHOFF_ROWS = 3      # m of each session matrix
TROPICAL_ROWS = 2       # m of the tropical and tree instances


def instance_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def random_cubic(rng: np.random.Generator, g: int, n: int, integer_lengths: bool = False) -> dict:
    """Graph document of a random connected cubic graph of genus g with n leaves.

    A random tree with maximum degree 3 on 2g-2+n vertices gets g extra edges
    between distinct vertices with free valence (parallel edges allowed); the
    remaining valence becomes the n leaves.  Draws that dead-end are redrawn
    from the same generator, so the result is a function of its state.
    Lengths are uniform on [0.5, 2] or, with ``integer_lengths``, in {1, 2, 3}.
    """
    nv = 2 * g - 2 + n
    if nv < 1:
        raise ValueError("need 2g-2+n > 0")
    while True:
        deg = [0] * nv
        ends = []
        for i in range(1, nv):
            cands = [v for v in range(i) if deg[v] < 3]
            a = cands[rng.integers(len(cands))]
            ends.append((a, i))
            deg[a] += 1
            deg[i] += 1
        for _ in range(g):
            cands = [v for v in range(nv) if deg[v] < 3]
            if len(cands) < 2:
                break
            a = cands[rng.integers(len(cands))]
            others = [v for v in cands if v != a]
            b = others[rng.integers(len(others))]
            ends.append((a, b))
            deg[a] += 1
            deg[b] += 1
        else:
            break
    if integer_lengths:
        lengths = [int(x) for x in rng.integers(1, 4, size=len(ends))]
    else:
        lengths = [float(x) for x in rng.uniform(0.5, 2.0, size=len(ends))]
    leaves = [v for v in range(nv) for _ in range(3 - deg[v])]
    return {
        "vertices": [f"v{i}" for i in range(nv)],
        "edges": [
            {"id": f"e{k}", "ends": [f"v{a}", f"v{b}"], "length": lengths[k]}
            for k, (a, b) in enumerate(ends)
        ],
        "leaves": [{"id": f"p{j}", "vertex": f"v{v}"} for j, v in enumerate(leaves)],
    }


def integer_residue_row(rng: np.random.Generator, n: int, bound: int = 3) -> list[int]:
    """Nonzero integer row with entries drawn from [-bound, bound], summing to zero."""
    while True:
        row = [int(x) for x in rng.integers(-bound, bound + 1, size=n)]
        row[-1] -= sum(row)
        if any(row):
            return row


def real_residue_matrix(rng: np.random.Generator, m: int, n: int) -> list[list[float]]:
    """m x n standard-normal residues; the last column makes each row sum to zero."""
    out = []
    for _ in range(m):
        row = [float(x) for x in rng.standard_normal(n)]
        row[-1] = -sum(row[:-1])
        out.append(row)
    return out


def residue_doc(doc: dict, entries) -> dict:
    return {
        "rows": len(entries),
        "leaf_order": [l["id"] for l in doc["leaves"]],
        "entries": [list(row) for row in entries],
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# exact Kirchhoff solve and the least tropical multiple


def _vertex_index(doc: dict) -> dict[str, int]:
    # grounded at the smallest id, as the library does; any ground gives the same currents
    return {v: i for i, v in enumerate(sorted(doc["vertices"]))}


def exact_currents(doc: dict, row) -> dict[str, Fraction]:
    """Edge currents (along ends[0] -> ends[1]) of the electrical flow with
    resistance = length and injection row[j] at leaf j's vertex, solved
    exactly over the rationals by Gauss-Jordan elimination on the grounded
    Laplacian."""
    idx = _vertex_index(doc)
    nv = len(idx)
    lap = [[Fraction(0)] * nv for _ in range(nv)]
    for e in doc["edges"]:
        c = 1 / Fraction(e["length"])
        a, b = idx[e["ends"][0]], idx[e["ends"][1]]
        lap[a][a] += c
        lap[b][b] += c
        lap[a][b] -= c
        lap[b][a] -= c
    rhs = [Fraction(0)] * nv
    for r, leaf in zip(row, doc["leaves"]):
        rhs[idx[leaf["vertex"]]] += Fraction(r)
    # drop the ground row/column, solve the rest
    a = [lap[i][1:] + [rhs[i]] for i in range(1, nv)]
    size = nv - 1
    for c in range(size):
        piv = next(i for i in range(c, size) if a[i][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(size):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    phi = [Fraction(0)] + [a[i][size] for i in range(size)]
    return {
        e["id"]: (phi[idx[e["ends"][0]]] - phi[idx[e["ends"][1]]]) / Fraction(e["length"])
        for e in doc["edges"]
    }


def least_tropical_multiple(doc: dict, row) -> int:
    """Least k >= 1 with every current of k * row an integer (row is integer)."""
    return lcm(1, *(x.denominator for x in exact_currents(doc, row).values()))


def energy_min_flow(doc: dict, row) -> dict[str, float]:
    """Currents minimising sum l(e) i(e)^2 under vertex conservation.

    A KKT system in the edge currents, independent of the library's
    Laplacian formulation; one conservation row (the first vertex) is
    dropped because the rows sum to zero.
    """
    idx = _vertex_index(doc)
    nv, ne = len(idx), len(doc["edges"])
    con = np.zeros((nv, ne))
    for k, e in enumerate(doc["edges"]):
        con[idx[e["ends"][0]], k] += 1.0
        con[idx[e["ends"][1]], k] -= 1.0
    inj = np.zeros(nv)
    for r, leaf in zip(row, doc["leaves"]):
        inj[idx[leaf["vertex"]]] += float(r)
    con, inj = con[1:], inj[1:]
    hess = np.diag([2.0 * float(e["length"]) for e in doc["edges"]])
    kkt = np.block([[hess, con.T], [con, np.zeros((nv - 1, nv - 1))]])
    sol = np.linalg.solve(kkt, np.concatenate([np.zeros(ne), inj]))
    return {e["id"]: float(sol[k]) for k, e in enumerate(doc["edges"])}


def placement_range_bits(doc: dict, t: float) -> float:
    """Bits between the largest and the smallest scale of the nested-cluster
    placement of a tree at t.  Clusters sit at offsets t**H(v), where the
    height H(v) falls by the metric distance from the root (the vertex of
    the last leaf), so the punctures span from t**H(root) down to t**H(v)
    at the deepest leaf vertex: log2(t) times that vertex's depth.  Past 53
    bits float64 cannot keep every pair of punctures apart."""
    root = doc["leaves"][-1]["vertex"]
    adj: dict[str, list[tuple[str, float]]] = {v: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        a, b = e["ends"]
        adj[a].append((b, e["length"]))
        adj[b].append((a, e["length"]))
    depth = {root: 0.0}
    stack = [root]
    while stack:
        v = stack.pop()
        for w, length in adj[v]:
            if w not in depth:
                depth[w] = depth[v] + length
                stack.append(w)
    deepest = max(depth[leaf["vertex"]] for leaf in doc["leaves"][:-1])
    return deepest * log2(t)


# ----------------------------------------------------------------------
# per-workload instances


def kirchhoff_instance(seed: int, index: int, g: int = 150, n: int = 100) -> dict:
    """One session: a random cubic graph, residue matrices, one oracle row."""
    rng = instance_rng(seed, KIRCHHOFF_STREAM, index)
    doc = random_cubic(rng, g, n)
    residues = [real_residue_matrix(rng, KIRCHHOFF_ROWS, n) for _ in range(KIRCHHOFF_MATRICES)]
    return {
        "graph_text": dumps(doc),
        "residues": residues,
        "oracle": energy_min_flow(doc, residues[0][0]),
    }


def tropical_instance(seed: int, index: int) -> dict:
    """Small tropical instance: genus 1-4 and 2-6 leaves, cycled so that every
    run sees each (genus, leaves) pair equally often; integer lengths in
    {1, 2, 3}; integer residue rows each scaled by its least tropical multiple.
    """
    rng = instance_rng(seed, TROPICAL_STREAM, index)
    g, n = 1 + index % 4, 2 + index % 5
    doc = random_cubic(rng, g, n, integer_lengths=True)
    rows = []
    for _ in range(TROPICAL_ROWS):
        row = integer_residue_row(rng, n)
        k = least_tropical_multiple(doc, row)
        rows.append([k * x for x in row])
    return {"graph": doc, "residues": residue_doc(doc, rows), "genus": g, "leaves": n}


def tree_instance(seed: int, index: int) -> dict:
    """Random metric tree with 4-8 leaves, cycled so that every run sees each
    leaf count equally often, and TROPICAL_ROWS integer residue rows with
    entries in [-1, 1] before the last one balances the row.  Small residues
    keep the slopes, and so the curve's extent, moderate; the puncture
    placement does not depend on them."""
    rng = instance_rng(seed, TREE_STREAM, index)
    n = 4 + index % 5
    doc = random_cubic(rng, 0, n)
    rows = [integer_residue_row(rng, n, bound=1) for _ in range(TROPICAL_ROWS)]
    return {"graph": doc, "residues": residue_doc(doc, rows), "leaves": n}
