import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tropharm.errors import (
    BadRibbonError,
    DisconnectedError,
    NonPositiveLengthError,
    NotCubicError,
    SelfLoopEdgeError,
    UnknownLeafError,
)
from tropharm.graph import (
    CubicGraph,
    Edge,
    GraphPath,
    Leaf,
    MetricGraph,
    OrientedEdge,
    check_path,
    cycle_basis,
    leaf_paths,
)

from conftest import dumbbell_graph, theta_graph, tripod_graph
from _generators import random_cubic, random_valid_cubic


@given(seed=st.integers(0, 2**32 - 1), genus=st.integers(0, 3), leaves=st.integers(0, 4))
def test_disjoint_union_is_disconnected(seed, genus, leaves):
    # two random cubic graphs side by side: every vertex is trivalent, so
    # only the spanning forest can tell that the graph is not connected
    assume(2 * genus - 2 + leaves >= 1)
    rng = np.random.default_rng(seed)
    parts = [random_cubic(rng, genus, leaves), random_valid_cubic(rng, 3, 4)]
    assume(parts[0] is not None)
    vs, es, ls = [], [], []
    for tag, mg in zip("ab", parts):
        g = mg.graph
        vs += [tag + v for v in g.vertices]
        es += [Edge(tag + e.id, (tag + e.ends[0], tag + e.ends[1])) for e in g.edges]
        ls += [Leaf(tag + l.id, tag + l.vertex) for l in g.leaves]
    with pytest.raises(DisconnectedError, match="graph is not connected"):
        CubicGraph(tuple(vs), tuple(es), tuple(ls))


def test_tripod_valid():
    mg = tripod_graph()
    assert mg.genus == 0
    assert mg.n_leaves == 3
    assert len(mg.graph.edges) == 0


def test_dumbbell_counts():
    mg = dumbbell_graph()
    g = mg.graph
    assert mg.genus == 1
    assert len(g.edges) == 3 * 1 - 3 + 2
    assert len(g.vertices) == 2 * 1 - 2 + 2


def test_two_leaf_vertex_not_cubic():
    with pytest.raises(NotCubicError):
        CubicGraph(("w",), (), (Leaf("p1", "w"), Leaf("p2", "w")))


def test_self_loop_rejected():
    with pytest.raises(SelfLoopEdgeError):
        CubicGraph(("u",), (Edge("e", ("u", "u")),), (Leaf("p", "u"),))


def test_disconnected_rejected():
    with pytest.raises(DisconnectedError):
        CubicGraph(
            ("a", "b"),
            (),
            (
                Leaf("p1", "a"), Leaf("p2", "a"), Leaf("p3", "a"),
                Leaf("q1", "b"), Leaf("q2", "b"), Leaf("q3", "b"),
            ),
        )


def test_theta_graph_satisfies_all_invariants():
    # 2 vertices, 3 parallel edges, no leaves: g = 2, E = 3 = 3g-3, V = 2 = 2g-2
    mg = theta_graph()
    assert mg.genus == 2
    assert mg.n_leaves == 0


def test_nonpositive_length():
    g = dumbbell_graph().graph
    with pytest.raises(NonPositiveLengthError):
        MetricGraph(g, {"e1": 1.0, "e2": -2.0})
    with pytest.raises(NonPositiveLengthError):
        MetricGraph(g, {"e1": 1.0})


def test_bad_ribbon():
    with pytest.raises(BadRibbonError):
        CubicGraph(
            ("w",), (), (Leaf("p1", "w"), Leaf("p2", "w"), Leaf("p3", "w")),
            ribbon={"w": ("p1", "p2", "p2")},
        )


def test_ribbon_default_is_sorted():
    mg = dumbbell_graph()
    assert mg.graph.ribbon["u"] == ("e1", "e2", "p1")


def test_oriented_edge_double_reverse():
    oe = OrientedEdge("e1", True)
    assert oe.reverse().reverse() == oe


def test_euler_counts_on_random_graphs(rng):
    for _ in range(15):
        mg = random_valid_cubic(rng)
        g = mg.graph
        gn = g.genus
        assert len(g.edges) == 3 * gn - 3 + g.n_leaves
        assert len(g.vertices) == 2 * gn - 2 + g.n_leaves


def test_cycle_basis_tripod_empty():
    assert cycle_basis(tripod_graph()) == ()


def test_cycle_basis_dumbbell():
    loops = cycle_basis(dumbbell_graph())
    assert len(loops) == 1
    ids = {oe.id for oe in loops[0].items}
    assert ids == {"e1", "e2"}
    # the two edges are traversed in opposite canonical directions
    signs = {oe.id: oe.forward for oe in loops[0].items}
    assert signs["e1"] != signs["e2"]


def test_cycle_basis_rank(rng):
    for _ in range(10):
        mg = random_valid_cubic(rng)
        loops = cycle_basis(mg)
        assert len(loops) == mg.genus
        if not loops:
            continue
        eidx = {e: i for i, e in enumerate(mg.graph.edge_ids)}
        inc = np.zeros((len(loops), len(eidx)))
        for i, loop in enumerate(loops):
            for oe in loop.items:
                inc[i, eidx[oe.id]] += 1.0 if oe.forward else -1.0
        assert np.linalg.matrix_rank(inc) == mg.genus


@given(seed=st.integers(0, 2**32 - 1), genus=st.integers(0, 6), leaves=st.integers(0, 6))
def test_cycle_basis_loops_are_valid_paths(seed, genus, leaves):
    # cycle_basis does not validate its loops at run time; this is the check
    assume(2 * genus - 2 + leaves >= 1)
    mg = random_cubic(np.random.default_rng(seed), genus, leaves)
    assume(mg is not None)
    loops = cycle_basis(mg)
    assert len(loops) == mg.genus == genus
    for loop in loops:
        assert loop.is_loop
        check_path(mg.graph, loop)
    # nor does leaf_paths validate its paths
    if mg.n_leaves:
        paths = leaf_paths(mg, mg.graph.leaf_ids[0])
        assert len(paths) == mg.n_leaves - 1
        for path in paths:
            assert not path.is_loop
            check_path(mg.graph, path)


def test_leaf_paths_tripod():
    mg = tripod_graph()
    paths = leaf_paths(mg, "p1")
    assert len(paths) == 2
    assert [p.items[-1].id for p in paths] == ["p2", "p3"]
    for p in paths:
        assert p.items[0] == OrientedEdge("p1", True)


def test_leaf_paths_dumbbell_uses_smallest_edge():
    mg = dumbbell_graph()
    (path,) = leaf_paths(mg, "p1")
    assert [oe.id for oe in path.items] == ["p1", "e1", "p2"]


def test_leaf_paths_unknown_leaf():
    with pytest.raises(UnknownLeafError):
        leaf_paths(tripod_graph(), "nope")


def test_leaf_paths_never_repeat_edges(rng):
    for _ in range(10):
        mg = random_valid_cubic(rng)
        base = mg.graph.leaf_ids[0]
        for p in leaf_paths(mg, base):
            ids = [oe.id for oe in p.items]
            assert len(set(ids)) == len(ids)
            check_path(mg.graph, p)


def test_loop_validation_rejects_leaves():
    mg = tripod_graph()
    bad = GraphPath((OrientedEdge("p1", True),), is_loop=True)
    with pytest.raises(Exception):
        check_path(mg.graph, bad)
