"""Tests of the benchmark's own logic: seeded generators, the percentile
rules and span self-time arithmetic.

    python3 -m pytest perfbench -q
"""
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import gen  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


# ----------------------------------------------------------------------
# generators


def test_instances_are_a_function_of_seed_and_index():
    assert gen.kirchhoff_instance(5, 3, g=10, n=8) == gen.kirchhoff_instance(5, 3, g=10, n=8)
    assert gen.kirchhoff_instance(5, 3, g=10, n=8) != gen.kirchhoff_instance(6, 3, g=10, n=8)
    for make in (gen.tropical_instance, gen.tree_instance):
        a = [gen.dumps(make(7, i)) for i in range(12)]
        assert a == [gen.dumps(make(7, i)) for i in range(12)]
        assert a != [gen.dumps(make(8, i)) for i in range(12)]


def test_prepared_files_are_byte_identical(tmp_path):
    import workloads

    for cls in (workloads.CliTropical, workloads.Degenerate):
        contents = []
        for run in ("a", "b"):
            d = tmp_path / f"{cls.__name__}-{run}"
            d.mkdir()
            wl = cls(11, str(d))
            for i in range(6):
                wl.prepare(i)
            contents.append({p.name: p.read_bytes() for p in d.iterdir()})
        assert contents[0] == contents[1]
        assert len(contents[0]) >= 12


@pytest.mark.parametrize("g,n", [(0, 3), (0, 8), (1, 2), (4, 6), (30, 20)])
def test_random_cubic_is_cubic_with_requested_counts(g, n):
    doc = gen.random_cubic(np.random.default_rng(g * 100 + n), g, n)
    valence = {v: 0 for v in doc["vertices"]}
    for e in doc["edges"]:
        a, b = e["ends"]
        assert a != b
        valence[a] += 1
        valence[b] += 1
    for leaf in doc["leaves"]:
        valence[leaf["vertex"]] += 1
    assert set(valence.values()) == {3}
    assert len(doc["leaves"]) == n
    assert len(doc["edges"]) - len(doc["vertices"]) + 1 == g


def test_exact_currents_match_the_energy_minimising_flow():
    rng = np.random.default_rng(3)
    doc = gen.random_cubic(rng, 3, 4, integer_lengths=True)
    row = gen.integer_residue_row(rng, 4)
    exact = gen.exact_currents(doc, row)
    flow = gen.energy_min_flow(doc, row)
    assert max(abs(float(exact[e]) - flow[e]) for e in flow) < 1e-10


def test_least_tropical_multiple_is_least():
    rng = np.random.default_rng(4)
    seen = set()
    for _ in range(20):
        g = int(rng.integers(1, 4))
        doc = gen.random_cubic(rng, g, 3, integer_lengths=True)
        row = gen.integer_residue_row(rng, 3)
        k = gen.least_tropical_multiple(doc, row)
        currents = gen.exact_currents(doc, row).values()
        assert all((k * x).denominator == 1 for x in currents)
        assert all(any((j * x).denominator != 1 for x in currents) for j in range(1, k))
        seen.add(k)
    assert len(seen) > 1  # the draws exercise non-trivial multiples


def test_exact_currents_of_a_dumbbell():
    # e1 (length 1) and e2 (length 2) in parallel carry 2/3 and 1/3 of the current
    doc = {"vertices": ["u", "v"],
           "edges": [{"id": "e1", "ends": ["u", "v"], "length": 1},
                     {"id": "e2", "ends": ["u", "v"], "length": 2}],
           "leaves": [{"id": "p1", "vertex": "u"}, {"id": "p2", "vertex": "v"}]}
    assert gen.exact_currents(doc, [1, -1]) == {"e1": Fraction(2, 3), "e2": Fraction(1, 3)}
    assert gen.least_tropical_multiple(doc, [1, -1]) == 3


def test_placement_range_bits_is_the_deepest_leaf_vertex_in_log2_t():
    doc = {"vertices": ["v0", "v1"],
           "edges": [{"id": "c", "ends": ["v0", "v1"], "length": 2.0}],
           "leaves": [{"id": f"p{j}", "vertex": v} for j, v in enumerate(["v0", "v0", "v1", "v1"])]}
    assert gen.placement_range_bits(doc, 8.0) == pytest.approx(6.0)


def test_every_puncture_collision_is_beyond_float64():
    from tropharm import degeneration, graph
    from tropharm.errors import InputError

    collisions = 0
    for index in range(40):
        doc = gen.tree_instance(1, index)["graph"]
        try:
            degeneration.place_tree(graph.graph_from_dict(doc), 1e6).sphere()
        except InputError:
            collisions += 1
            assert gen.placement_range_bits(doc, 1e6) > 53
    assert collisions > 0


# ----------------------------------------------------------------------
# percentile rules


@pytest.mark.parametrize("n", [1, 10, 20, 21, 37, 100, 513])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    p = stats.tail_percentile(n)
    xs = list(range(n))
    beyond = sum(x > stats.percentile(xs, p) for x in xs)
    if n > 20:
        assert beyond >= 10
        assert sum(x > stats.percentile(xs, p + 1) for x in xs) < 10 or p == stats.TAIL_CAP
    else:
        assert p == 50


def test_percentile_is_nearest_rank():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(xs, 50) == 3.0
    assert stats.percentile(xs, 80) == 4.0
    assert stats.percentile(xs, 81) == 5.0
    assert stats.percentile(xs, 0) == 1.0


def test_job_count_is_whole_cycles_near_the_nominal_rate():
    import run
    import workloads

    for cls in workloads.WORKLOADS.values():
        assert run.job_count(cls, 0.01) == cls.cycle
        for seconds in (10, 35, 60):
            n = run.job_count(cls, seconds)
            assert n % cls.cycle == 0
            assert abs(n - seconds * cls.nominal_rate) <= cls.cycle / 2


def test_job_summary_counts_every_job_at_its_time():
    import run
    from workloads import Outcome

    records = [(0, 1.0, Outcome(), None),
               (1, 0.1, Outcome(failures=["exit 1"]), None),
               (2, 3.0, Outcome(failures=["twist rejected"]), None),
               (3, 2.0, Outcome(), None)]
    summary = run.job_summary(records)
    assert summary["job_p50_s"] == 1.0  # nearest-rank median of 1, 0.1, 3 and 2
    assert summary["job_tail_s"] == 1.0  # p50 when there are 20 jobs or fewer
    assert summary["fail_frac"] == 0.5
    assert summary["jobs_per_s"] == pytest.approx(2 / 6.1)
    assert summary["job_p50_penalised_s"] == 2.0  # 1, 2 and both failures at the penalty


def test_turning_a_failure_into_a_success_never_raises_a_percentile():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        secs = list(rng.exponential(1.0, n))
        failed = list(rng.random(n) < 0.3)
        if not any(failed):
            continue
        before = stats.penalised(secs, failed)
        j = int(rng.choice([i for i, f in enumerate(failed) if f]))
        # the job may take any time at all once it succeeds
        secs[j] = float(rng.uniform(0.0, stats.PENALTY_S))
        failed[j] = False
        after = stats.penalised(secs, failed)
        for p in (1, 25, 50, 75, 90, stats.tail_percentile(n), 99, 100):
            assert stats.percentile(after, p) <= stats.percentile(before, p)


# ----------------------------------------------------------------------
# spans


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_merged_children():
    s = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),      # overlaps a: together they cover [1, 5]
        span("c", 6.0, 7.0, 0),
        span("a.x", 1.5, 2.5, 1),    # grandchild: counts against a, not root
    ]
    assert spans.self_times(s) == pytest.approx([10.0 - 4.0 - 1.0, 2.0 - 1.0, 3.0, 1.0, 1.0])


def test_outermost_total_counts_nested_group_members_once():
    s = [
        span("load", 0.0, 4.0, -1),
        span("parse", 1.0, 2.0, 0),   # inside load: already counted
        span("other", 5.0, 6.0, -1),
        span("parse", 6.5, 7.0, 2),   # under a non-member: counted
    ]
    assert spans.outermost_total(s, ("load", "parse")) == pytest.approx(4.5)


def test_tracer_records_nesting_and_passes_recursion_through():
    import types

    mod = types.ModuleType("m")

    def leaf(x):
        return x + 1

    def rec(n):
        return 0 if n == 0 else mod.rec(n - 1) + mod.leaf(0)

    mod.leaf, mod.rec = leaf, rec
    alias = types.ModuleType("alias")
    alias.leaf = leaf  # a second binding, as `from m import leaf` makes
    t = spans.Tracer()
    t.install([mod, alias], [(mod, "rec", "m.rec", None, None), (mod, "leaf", "m.leaf", None, None)])
    try:
        assert mod.rec(3) == 3
        assert alias.leaf(1) == 2
    finally:
        t.uninstall()
    assert mod.leaf is leaf and alias.leaf is leaf and mod.rec is rec
    names = [(name, parent) for name, _, _, parent, _ in t.spans]
    # one span for the outermost rec; each leaf call nests under it
    assert names == [("m.rec", -1), ("m.leaf", 0), ("m.leaf", 0), ("m.leaf", 0), ("m.leaf", -1)]
    selfs = spans.self_times(t.spans)
    root = t.spans[0]
    assert selfs[0] == pytest.approx(root[2] - root[1] - sum(s[2] - s[1] for s in t.spans[1:4]))


def test_per_layer_metrics_match_benchmark_json():
    import json

    import layers

    with open(layers.BENCHMARK) as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    summary = {"jobs": 1, "fail_frac": 0.0, "job_p50_s": 1.0,
               "job_p50_penalised_s": 1.0, "job_tail_penalised_s": 1.0}
    got = layers.LayerMetrics().metrics(spans.Tracer(), summary, summary)
    assert {k: unit for k, (_, unit) in got.items()} == listed
