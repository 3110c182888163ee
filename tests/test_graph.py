import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tropharm.errors import (
    BadRibbonError,
    DisconnectedError,
    InputError,
    NonPositiveLengthError,
    NotALoopError,
    NotCubicError,
    SelfLoopEdgeError,
    TropharmError,
    UnknownLeafError,
)
from tropharm.graph import (
    CubicGraph,
    Edge,
    GraphPath,
    Leaf,
    MetricGraph,
    OrientedEdge,
    _cotree,
    _leaf_columns,
    _path_columns,
    _tree_walk,
    check_path,
    cycle_basis,
    leaf_paths,
    loop_matrix,
)

from conftest import caterpillar_graph, dumbbell_graph, genus2_graph, theta_graph, tripod_graph
from oracles import (check_path_reference, cubic_index_reference, cycle_basis_reference, leaf_paths_reference,
                     spanning_tree_reference)
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


@pytest.mark.parametrize("length, message", [
    ({"e1": 1.0, "e2": "two"}, "edge e2 has length 'two', not a number"),
    ({"e1": 1.0, "e2": 2.0, "p1": 1.0}, r"length entries for unknown edges \(leaves carry no length\): \['p1'\]"),
])
def test_metric_graph_refuses_bad_length_entries(length, message):
    with pytest.raises(InputError, match=message):
        MetricGraph(dumbbell_graph().graph, length)


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
    with pytest.raises(NotALoopError, match="loops contain no leaves"):
        check_path(mg.graph, bad)


def _check_incidence_and_tree(mg, root):
    # the stored star table, incident(), walks and co-tree against the
    # graph's edge and leaf lists and the id-keyed spanning-tree oracle
    g = mg.graph
    vidx = {v: i for i, v in enumerate(g.vertices)}
    column = {ref: k for k, ref in enumerate(g.edge_ids + g.leaf_ids)}
    edge_ends = {e.id: e.ends for e in g.edges}
    for v, i in vidx.items():
        star = [(int(k), float(s)) for k, s in zip(g._star[i], g._star_sign[i])]
        assert star == ([(column[e.id], 1.0) for e in g.edges if e.ends[0] == v]
                        + [(column[e.id], -1.0) for e in g.edges if e.ends[1] == v]
                        + [(column[l.id], -1.0) for l in g.leaves if l.vertex == v])
        incident = g.incident(v)
        assert incident == (tuple(e.id for e in g.edges if v in e.ends)
                            + tuple(l.id for l in g.leaves if l.vertex == v))
        assert sorted(g.ribbon[v]) == sorted(incident)
    assert g._tails.tolist() == [vidx[e.ends[0]] for e in g.edges]
    assert g._heads.tolist() == [vidx[e.ends[1]] for e in g.edges]
    assert g._leaf_vertices.tolist() == [vidx[l.vertex] for l in g.leaves]
    for start, walk in ((None, g._walk), (root, _tree_walk(g._tree_adj, vidx[root]))):
        tree, parent = spanning_tree_reference(g, start)
        assert walk == tuple((vidx[w], vidx[v], column[eid], 1 if edge_ends[eid][0] == w else -1)
                             for w, (v, eid) in parent.items())
    cotree = [e.id for e in g.edges if e.id not in tree]
    assert [g.edge_ids[k] for k in _cotree(g)] == cotree
    assert [loop.items[0] for loop in mg.loops] == [OrientedEdge(e, True) for e in cotree]
    assert len(cotree) == mg.genus


def _relabelled(rng, mg):
    """The graph with its vertex and edge ids drawn afresh and some edges
    reversed, so that id order and construction order disagree."""
    g = mg.graph
    vname = dict(zip(g.vertices, (f"v{k}" for k in rng.permutation(3 * len(g.vertices)))))
    ename = dict(zip(g.edge_ids, (f"e{k}" for k in rng.permutation(3 * len(g.edges)))))
    edges = [Edge(ename[e.id], tuple(vname[x] for x in (e.ends[::-1] if rng.random() < 0.5 else e.ends)))
             for e in g.edges]
    leaves = [Leaf(l.id, vname[l.vertex]) for l in g.leaves]
    graph = CubicGraph(tuple(vname.values()), tuple(edges), tuple(leaves))
    return MetricGraph(graph, {ename[e]: length for e, length in mg.length.items()})


@given(seed=st.integers(0, 2**32 - 1), genus=st.integers(0, 4), leaves=st.integers(1, 8))
def test_incidence_and_spanning_tree_match_the_id_oracle(seed, genus, leaves):
    # random cubic graphs, parallel edges included, relabelled so that sorted
    # ids differ from construction order; a walk that took its neighbours in
    # another order than (vertex id, edge id) fails here
    assume(2 * genus - 2 + leaves >= 1)
    rng = np.random.default_rng(seed)
    mg = random_cubic(rng, genus, leaves)
    assume(mg is not None)
    mg = _relabelled(rng, mg)
    g = mg.graph
    _check_incidence_and_tree(mg, g.vertices[rng.integers(len(g.vertices))])
    assert all(g.ribbon[v] == tuple(sorted(g.incident(v))) for v in g.vertices)  # the default ribbon


@pytest.mark.parametrize("make", [tripod_graph, dumbbell_graph, caterpillar_graph, genus2_graph, theta_graph])
def test_incidence_and_spanning_tree_of_the_fixtures(make):
    mg = make()
    _check_incidence_and_tree(mg, mg.graph.vertices[-1])


def _check_index_against_the_oracle(vertices, edges, leaves):
    # the same refusal (class and message), or the same index: arrays of
    # the same dtype and shape, read-only, and equal tuples
    try:
        want = cubic_index_reference(vertices, edges, leaves)
    except TropharmError as exc:
        with pytest.raises(TropharmError) as got:
            CubicGraph(tuple(vertices), tuple(edges), tuple(leaves))
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    g = CubicGraph(tuple(vertices), tuple(edges), tuple(leaves))
    for name, value in want.items():
        have = getattr(g, name)
        if isinstance(value, np.ndarray):
            assert (have.dtype, have.shape) == (value.dtype, value.shape) and np.array_equal(have, value)
            assert not have.flags.writeable
        else:
            assert have == value


@given(seed=st.integers(0, 2**32 - 1), genus=st.integers(0, 4), leaves=st.integers(1, 8),
       defect=st.sampled_from([None, "edge dropped", "edge added", "leaf moved", "second component"]))
def test_index_matches_the_numpy_oracle(seed, genus, leaves, defect):
    # the star table, its signs, the column ends and the spanning tree grouped
    # in lists against the numpy construction, on relabelled random graphs
    # with at most one defect; a valence refusal names the first bad vertex
    # in sorted id order, which the relabelling makes differ from the order
    # in which the vertices are given
    assume(2 * genus - 2 + leaves >= 1)
    rng = np.random.default_rng(seed)
    mg = random_cubic(rng, genus, leaves)
    assume(mg is not None)
    g = _relabelled(rng, mg).graph
    vs, es, ls = list(g.vertices), list(g.edges), list(g.leaves)
    rng.shuffle(vs)
    if defect == "edge dropped" and es:
        es.pop(rng.integers(len(es)))
    elif defect == "edge added" and len(vs) > 1:
        a, b = rng.choice(len(vs), size=2, replace=False)
        es.append(Edge("extra", (vs[a], vs[b])))
    elif defect == "leaf moved":
        j = rng.integers(len(ls))
        ls[j] = Leaf(ls[j].id, vs[rng.integers(len(vs))])
    elif defect == "second component":  # a theta graph: trivalent, but apart
        vs += ["w0", "w1"]
        es += [Edge(f"f{k}", ("w0", "w1")) for k in range(3)]
    _check_index_against_the_oracle(vs, es, ls)


@pytest.mark.parametrize("make", [tripod_graph, dumbbell_graph, caterpillar_graph, genus2_graph, theta_graph, None])
def test_index_of_the_fixtures_matches_the_numpy_oracle(make):
    if make is None:  # no vertices at all
        _check_index_against_the_oracle((), (), ())
    else:
        g = make().graph
        _check_index_against_the_oracle(g.vertices, g.edges, g.leaves)


@given(seed=st.integers(0, 2**32 - 1), genus=st.integers(0, 5), leaves=st.integers(1, 8))
def test_loop_and_leaf_columns_match_the_object_oracle(seed, genus, leaves):
    # one climb gives the loop and the leaf-path columns; the path objects
    # built from them on demand equal those of the object-building climb
    assume(2 * genus - 2 + leaves >= 1)
    rng = np.random.default_rng(seed)
    mg = random_cubic(rng, genus, leaves)
    assume(mg is not None)
    mg = _relabelled(rng, mg)
    g = mg.graph
    loops = cycle_basis_reference(mg)
    columns = [_path_columns(g, loop) for loop in loops]
    assert list(mg._loops) == columns
    assert mg.cycles.tobytes() == loop_matrix(g, columns)[:, :len(g.edges)].tobytes()
    assert mg.loops == cycle_basis(mg) == loops
    assert mg.loops is mg.loops  # built once
    for leaf in g.leaf_ids:
        paths = leaf_paths_reference(mg, leaf)
        assert _leaf_columns(g, leaf) == [_path_columns(g, p) for p in paths]
        assert leaf_paths(mg, leaf) == paths


def _mutants(rng, path, known):
    """The path with one item dropped, one reversed, two swapped, a known or
    an unknown id inserted, ``is_loop`` flipped, and the whole path reversed."""
    items = list(path.items)
    i, j = sorted(rng.choice(len(items), size=2, replace=len(items) < 2))
    at = int(rng.integers(len(items) + 1))
    swapped = list(items)
    swapped[i], swapped[j] = items[j], items[i]
    inserted = [OrientedEdge(ref, bool(rng.integers(2))) for ref in (known[rng.integers(len(known))], "nope")]
    return [
        GraphPath(tuple(items[:i] + items[i + 1:]), path.is_loop),
        GraphPath(tuple(items[:i] + [items[i].reverse()] + items[i + 1:]), path.is_loop),
        GraphPath(tuple(swapped), path.is_loop),
        *(GraphPath(tuple(items[:at] + [oe] + items[at:]), path.is_loop) for oe in inserted),
        GraphPath(path.items, not path.is_loop),
        GraphPath(tuple(oe.reverse() for oe in reversed(items)), path.is_loop),
    ]


def _outcome(check, g, path):
    try:
        return check(g, path)
    except TropharmError as exc:
        return type(exc), str(exc)


@given(seed=st.integers(0, 2**32 - 1), genus=st.integers(0, 3), leaves=st.integers(3, 7))
def test_check_path_matches_the_object_reference(seed, genus, leaves):
    # valid loops and leaf paths of relabelled random graphs, mutated once and
    # twice: the column check raises the reference's error class and message,
    # and on a valid path returns the columns and signs of the reference's ids
    rng = np.random.default_rng(seed)
    mg = random_cubic(rng, genus, leaves)
    assume(mg is not None)
    mg = _relabelled(rng, mg)
    g = mg.graph
    known = g.edge_ids + g.leaf_ids
    column = {ref: k for k, ref in enumerate(known)}
    valid = mg.loops + leaf_paths(mg, g.leaf_ids[rng.integers(leaves)])
    paths = [*valid, *(m for p in valid for m in _mutants(rng, p, known))]
    paths += [m for p in paths[len(valid):] if p.items for m in _mutants(rng, p, known)]
    assert all(isinstance(check_path_reference(g, p), list) for p in valid)
    for path in paths:
        want = _outcome(check_path_reference, g, path)
        got = _outcome(check_path, g, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            cols, signs = got
            assert cols == [column[ref] for ref, _ in want]
            assert signs == [1.0 if forward else -1.0 for _, forward in want]
