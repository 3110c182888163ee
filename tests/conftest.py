import numpy as np
import pytest
from hypothesis import settings

from tropharm.graph import CubicGraph, Edge, Leaf, MetricGraph

# seeded, replayable property tests: the same examples on every run, no
# example database and no per-example deadline
settings.register_profile("tropharm", derandomize=True, database=None, deadline=None)
settings.load_profile("tropharm")


def tripod_graph():
    g = CubicGraph(("w",), (), (Leaf("p1", "w"), Leaf("p2", "w"), Leaf("p3", "w")))
    return MetricGraph(g, {})


def dumbbell_graph(l1=1.0, l2=2.0):
    g = CubicGraph(
        ("u", "v"),
        (Edge("e1", ("u", "v")), Edge("e2", ("u", "v"))),
        (Leaf("p1", "u"), Leaf("p2", "v")),
    )
    return MetricGraph(g, {"e1": l1, "e2": l2})


def caterpillar_graph(length=1.0):
    # leaves p1,p2 at v0; p3,p4 at v1; ribbon chosen so the standard
    # placement produces punctures (0, 1, t**length, infinity)
    g = CubicGraph(
        ("v0", "v1"),
        (Edge("c", ("v0", "v1")),),
        (Leaf("p1", "v0"), Leaf("p2", "v0"), Leaf("p3", "v1"), Leaf("p4", "v1")),
        ribbon={"v0": ("c", "p1", "p2"), "v1": ("p4", "c", "p3")},
    )
    return MetricGraph(g, {"c": length})


def theta_graph():
    g = CubicGraph(
        ("u", "v"),
        (Edge("e1", ("u", "v")), Edge("e2", ("u", "v")), Edge("e3", ("u", "v"))),
        (),
    )
    return MetricGraph(g, {"e1": 1.0, "e2": 1.5, "e3": 2.0})


def genus2_graph(lengths=None):
    # u = v via two parallel edges plus a path u - a - b - v; leaves at a, b
    g = CubicGraph(
        ("a", "b", "u", "v"),
        (
            Edge("e1", ("u", "v")),
            Edge("e2", ("u", "v")),
            Edge("f1", ("u", "a")),
            Edge("f2", ("a", "b")),
            Edge("f3", ("b", "v")),
        ),
        (Leaf("p1", "a"), Leaf("p2", "b")),
    )
    if lengths is None:
        lengths = {"e1": 1.0, "e2": 2.0, "f1": 1.0, "f2": 1.0, "f3": 1.0}
    return MetricGraph(g, lengths)


def triangle_graph():
    # 3-cycle with one leaf per vertex; genus 1, n = 3
    g = CubicGraph(
        ("A", "B", "C"),
        (Edge("ab", ("A", "B")), Edge("bc", ("B", "C")), Edge("ca", ("C", "A"))),
        (Leaf("p1", "A"), Leaf("p2", "B"), Leaf("p3", "C")),
    )
    return MetricGraph(g, {"ab": 1.0, "bc": 1.0, "ca": 1.0})


# a random 7-leaf tree (the benchmark's gen.tree_instance(101, 3)) whose
# nested-cluster punctures are distinct at t = 1e3 and coincide in float64
# at t = 1e6
MERGING_TREE = {
    "vertices": ["v0", "v1", "v2", "v3", "v4"],
    "edges": [
        {"id": "e0", "ends": ["v0", "v1"], "length": 0.7811604946055309},
        {"id": "e1", "ends": ["v0", "v2"], "length": 0.767492098809297},
        {"id": "e2", "ends": ["v1", "v3"], "length": 1.8388643530221989},
        {"id": "e3", "ends": ["v2", "v4"], "length": 1.1060262746179894},
    ],
    "leaves": [
        {"id": "p0", "vertex": "v0"},
        {"id": "p1", "vertex": "v1"},
        {"id": "p2", "vertex": "v2"},
        {"id": "p3", "vertex": "v3"},
        {"id": "p4", "vertex": "v3"},
        {"id": "p5", "vertex": "v4"},
        {"id": "p6", "vertex": "v4"},
    ],
}
MERGING_TREE_RESIDUES = {
    "rows": 2, "leaf_order": ["p0", "p1", "p2", "p3", "p4", "p5", "p6"],
    "entries": [[-1, 1, 1, 1, 0, -1, -1], [0, 1, -1, 1, -1, -1, 1]],
}


@pytest.fixture
def tripod():
    return tripod_graph()


@pytest.fixture
def dumbbell():
    return dumbbell_graph()


@pytest.fixture
def caterpillar():
    return caterpillar_graph()


@pytest.fixture
def genus2():
    return genus2_graph()


@pytest.fixture
def triangle():
    return triangle_graph()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
