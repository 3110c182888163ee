"""Seeded random instances: cubic graphs and integer tropical morphisms."""
import importlib.util
from pathlib import Path

import numpy as np

from tropharm.forms import ResidueMatrix
from tropharm.graph import CubicGraph, Edge, Leaf, MetricGraph
from tropharm.morphisms import build_morphism, is_tropical


def random_cubic(rng, g, n):
    """Random connected cubic graph of genus g with n leaves (or None if the
    degree bookkeeping dead-ends for this draw)."""
    nv = 2 * g - 2 + n
    if nv < 1:
        raise ValueError("need 2g-2+n > 0")
    verts = [f"v{i}" for i in range(nv)]
    deg = dict.fromkeys(verts, 0)
    edges = []
    for i in range(1, nv):
        cands = [v for v in verts[:i] if deg[v] < 3]
        if not cands:
            return None
        a = cands[rng.integers(len(cands))]
        edges.append(Edge(f"e{len(edges)}", (a, verts[i])))
        deg[a] += 1
        deg[verts[i]] += 1
    for _ in range(g):
        cands = [v for v in verts if deg[v] < 3]
        if len(cands) < 2:
            return None
        a = cands[rng.integers(len(cands))]
        others = [v for v in cands if v != a]
        b = others[rng.integers(len(others))]
        edges.append(Edge(f"e{len(edges)}", (a, b)))
        deg[a] += 1
        deg[b] += 1
    leaves = []
    for v in verts:
        for _ in range(3 - deg[v]):
            leaves.append(Leaf(f"p{len(leaves)}", v))
    if len(leaves) != n:
        return None
    graph = CubicGraph(tuple(verts), tuple(edges), tuple(leaves))
    lengths = {e.id: float(rng.uniform(0.5, 2.0)) for e in edges}
    return MetricGraph(graph, lengths)


def random_valid_cubic(rng, max_genus=4, max_leaves=6):
    while True:
        g = int(rng.integers(0, max_genus + 1))
        n = int(rng.integers(2, max_leaves + 1))
        if 2 * g - 2 + n < 1:
            continue
        mg = random_cubic(rng, g, n)
        if mg is not None:
            return mg


def random_tropical_morphism(base: MetricGraph, rng, m=1, max_tries=100):
    """Integer-slope morphism on the given graph structure.

    With integer edge lengths and integer residues the exact form is rational
    with a bounded denominator (weighted spanning-tree count), so scaling the
    residues by a small k makes every slope integer.
    """
    g = base.graph
    from tropharm.forms import solve_exact_form

    for _ in range(max_tries):
        lengths = {e: float(rng.integers(1, 4)) for e in g.edge_ids}
        res = rng.integers(-3, 4, size=g.n_leaves).astype(float)
        res[-1] -= res.sum()
        if not res.any():
            continue
        mg = MetricGraph(g, lengths)
        f = solve_exact_form(mg, res)
        vals = np.array([f.values[e] for e in g.edge_ids]) if g.edge_ids else np.zeros(0)
        for k in range(1, 1201):
            kv = k * vals
            if np.max(np.abs(kv - np.round(kv)), initial=0.0) < 1e-7:
                rows = [k * res * (j + 1) for j in range(m)]
                R = ResidueMatrix(np.array(rows))
                mor = build_morphism(mg, R)
                if is_tropical(mor, tol=1e-9):
                    return mg, R, mor
                break
    raise RuntimeError("could not build a random tropical morphism")


def benchmark_gen():
    """The benchmark's instance generator, ``perfbench/gen.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", Path(__file__).parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen
