#!/usr/bin/env python3
"""Time the operations of the roadmap's first baseline table.

    python3 perfbench/baseline_table.py

Run from the repository root.  A random cubic graph with (g, n) = (300, 200)
(|E| = 1097) and a real residue matrix with m = 3 rows feed build_morphism,
regularity_rank and cycle_basis; convergence_experiment runs on the 4-leaf
caterpillar of the acceptance tests at t = 1e3, 1e4, 1e5, 1e6 with its
default window.  Prints the median and minimum of REPEATS repeats per
operation; the graph and residues are drawn with seed SEED.
"""
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 0
REPEATS = 5


def timed(fn):
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out), min(out)


def main() -> int:
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    import numpy as np

    import gen
    from tropharm import degeneration, forms, graph, morphisms

    rng = gen.instance_rng(SEED, 0, 0)
    doc = gen.random_cubic(rng, 300, 200)
    mg = graph.graph_from_dict(doc)
    R = forms.ResidueMatrix(np.array(gen.real_residue_matrix(rng, 3, 200)))
    mor = morphisms.build_morphism(mg, R)

    caterpillar = graph.graph_from_dict({
        "vertices": ["v0", "v1"],
        "edges": [{"id": "c", "ends": ["v0", "v1"], "length": 1.0}],
        "leaves": [{"id": f"p{j}", "vertex": v} for j, v in ((1, "v0"), (2, "v0"), (3, "v1"), (4, "v1"))],
        "ribbon": {"v0": ["c", "p1", "p2"], "v1": ["p4", "c", "p3"]},
    })
    R4 = forms.ResidueMatrix(np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]))

    rows = [
        (f"E={len(doc['edges'])}, m=3", "build_morphism", 0.18,
         lambda: morphisms.build_morphism(mg, R)),
        (f"E={len(doc['edges'])}, m=3", "regularity_rank", 0.41,
         lambda: morphisms.regularity_rank(mg, mor)),
        (f"E={len(doc['edges'])}, m=3", "cycle_basis", 0.05,
         lambda: graph.cycle_basis(mg)),
        ("caterpillar, 4 t values", "convergence_experiment", 0.38,
         lambda: degeneration.convergence_experiment(caterpillar, R4, [1e3, 1e4, 1e5, 1e6])),
    ]
    print(f"| Input | Operation | Quoted | Median of {REPEATS} | Min |")
    print("|---|---|---|---|---|")
    results = []
    for size, op, quoted, fn in rows:
        fn()  # warm-up
        med, best = timed(fn)
        print(f"| {size} | `{op}` | {quoted:.2f} s | {med:.3f} s | {best:.3f} s |")
        results.append({"input": size, "operation": op, "quoted_s": quoted, "median_s": med, "min_s": best})
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
