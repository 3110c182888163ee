import pickle

import numpy as np
import pytest

from tropharm.errors import InputError, UnsupportedDimensionForSvgError
from tropharm.forms import ResidueMatrix, solve_exact_form
from tropharm.graph import MetricGraph
from tropharm.morphisms import (
    HarmonicMorphism,
    build_morphism,
    balancing_defect,
    compatibility_defect,
    emit_embedding,
    is_tropical,
    regularity_rank,
    residues_of,
    scene_to_dict,
    scene_to_svg,
)

from conftest import tripod_graph
from oracles import spanning_tree_reference
from _generators import random_valid_cubic

LINE_R = ResidueMatrix([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])


def test_build_morphism_refuses_a_residue_matrix_of_other_width(tripod):
    with pytest.raises(InputError, match="residue matrix has 2 columns for 3 leaves"):
        build_morphism(tripod, ResidueMatrix([[1.0, -1.0]]))


def test_tropical_line_slopes(tripod):
    mor = build_morphism(tripod, LINE_R, "w")
    # outgoing slope on leaf j is minus the residue column: the image's
    # tentacles agree with the amoeba's (-1,0), (0,-1), (1,1)
    assert mor.leaf_slope["p1"] == pytest.approx([-1.0, 0.0])
    assert mor.leaf_slope["p2"] == pytest.approx([0.0, -1.0])
    assert mor.leaf_slope["p3"] == pytest.approx([1.0, 1.0])
    assert balancing_defect(mor) <= 1e-12


def test_dumbbell_positions(dumbbell):
    mor = build_morphism(dumbbell, ResidueMatrix([[3.0, -3.0]]), "u")
    assert mor.vertex_position["u"] == pytest.approx([0.0])
    assert mor.vertex_position["v"] == pytest.approx([2.0])
    assert mor.edge_slope["e1"] == pytest.approx([2.0])
    assert mor.edge_slope["e2"] == pytest.approx([1.0])
    assert compatibility_defect(mor) <= 1e-12


def test_zero_residues_zero_morphism(dumbbell):
    mor = build_morphism(dumbbell, ResidueMatrix(np.zeros((2, 2))))
    assert all(np.all(p == 0) for p in mor.vertex_position.values())
    assert all(np.all(s == 0) for s in mor.edge_slope.values())


def test_residues_roundtrip(rng):
    for _ in range(8):
        mg = random_valid_cubic(rng)
        R = rng.normal(size=(2, mg.n_leaves))
        R -= R.mean(axis=1, keepdims=True)
        mor = build_morphism(mg, ResidueMatrix(R))
        back = residues_of(mor)
        assert np.max(np.abs(back.entries - R)) <= 1e-12
        mor2 = build_morphism(mg, back, mor.base_vertex)
        for e in mg.graph.edge_ids:
            assert mor2.edge_slope[e] == pytest.approx(mor.edge_slope[e], abs=1e-12)
        for v in mg.graph.vertices:
            assert mor2.vertex_position[v] == pytest.approx(mor.vertex_position[v], abs=1e-9)


def _random_morphism(rng, m=3):
    mg = random_valid_cubic(rng)
    entries = rng.normal(size=(m, mg.n_leaves))
    R = ResidueMatrix(entries - entries.mean(axis=1, keepdims=True))
    base = mg.graph.vertices[rng.integers(len(mg.graph.vertices))]
    return mg, R, build_morphism(mg, R, base)


def test_slopes_are_the_exact_forms_bit_for_bit(rng):
    # each residue row is solved on its own; a solve with all rows at once
    # rounds differently in the last bit, which moves twist verdicts
    for _ in range(10):
        mg, R, mor = _random_morphism(rng)
        edges = mg.graph.edge_ids
        for k in range(R.m):
            form = solve_exact_form(mg, R.row(k))
            got = np.array([mor.edge_slope[e][k] for e in edges])
            assert got.tobytes() == np.array([form.values[e] for e in edges]).tobytes()


def test_positions_integrate_slopes_along_spanning_tree(rng):
    # positions are minus the potentials; integrating length * slope along
    # the spanning tree from the base vertex must give them back
    for _ in range(10):
        mg, R, mor = _random_morphism(rng)
        g = mg.graph
        _, parent = spanning_tree_reference(g)
        edge_ends = {e.id: e.ends for e in g.edges}
        rel = {g.vertices[0]: np.zeros(R.m)}
        for w, (v, eid) in parent.items():  # breadth-first: parents come first
            step = mg.length[eid] * mor.edge_slope[eid]
            rel[w] = rel[v] + (step if edge_ends[eid][0] == v else -step)
        want = {v: rel[v] - rel[mor.base_vertex] for v in g.vertices}
        scale = max(1.0, max(float(np.max(np.abs(p))) for p in want.values()))
        for v in g.vertices:
            assert np.max(np.abs(mor.vertex_position[v] - want[v])) <= 1e-12 * scale


TABLES = {"vertex_position": "positions", "edge_slope": "edge_slopes", "leaf_slope": "leaf_slopes"}


def test_morphism_copies_the_callers_arrays_and_refuses_bad_shapes(dumbbell):
    mor = build_morphism(dumbbell, ResidueMatrix([[3.0, -3.0]]))
    arrays = {name: np.array(getattr(mor, name)) for name in TABLES.values()}
    built = HarmonicMorphism(dumbbell, "u", **arrays)
    assert built.ambient_dim == 1
    assert built == built and built != mor  # identity: arrays have no single truth value
    g = dumbbell.graph
    for (view, name), keys in zip(TABLES.items(), (g.vertices, g.edge_ids, g.leaf_ids)):
        arr, stored, table = arrays[name], getattr(built, name), getattr(built, view)
        assert arr.flags.writeable and not np.shares_memory(arr, stored)
        assert not stored.flags.writeable and stored.tobytes() == arr.tobytes()
        assert getattr(built, view) is table and list(table) == list(keys)
        assert all(table[k].tobytes() == row.tobytes() for k, row in zip(keys, stored))
        with pytest.raises(TypeError):
            table[keys[0]] = arr[0]
        with pytest.raises(ValueError, match="read-only"):
            table[keys[0]][0] = 1.0
        for bad in (arr[1:], arr.ravel(), arr[:, :, None], np.hstack([arr, arr])):
            with pytest.raises(InputError, match="has shape"):
                HarmonicMorphism(dumbbell, "u", **dict(arrays, **{name: bad}))
    again = pickle.loads(pickle.dumps(built))  # with the dict views built, as above
    for view, name in TABLES.items():
        assert getattr(again, name).tobytes() == getattr(built, name).tobytes()
        assert getattr(again, view).keys() == getattr(built, view).keys()


@pytest.mark.parametrize("name", ["vertex_position", "edge_slope"])
def test_morphism_refuses_a_nan_defect(dumbbell, name):
    # a NaN position or slope makes a defect NaN, which must fail its check
    mor = build_morphism(dumbbell, ResidueMatrix([[3.0, -3.0]]))
    arrays = {key: np.array(getattr(mor, key)) for key in TABLES.values()}
    arrays[TABLES[name]][0] = np.nan
    with pytest.raises(InputError, match="incompatible" if name == "vertex_position" else "balancing"):
        HarmonicMorphism(dumbbell, "u", **arrays)


def test_residues_of_line(tripod):
    mor = build_morphism(tripod, LINE_R)
    assert np.allclose(residues_of(mor).entries, LINE_R.entries, atol=1e-12)


def test_residues_of_handbuilt_dumbbell(dumbbell):
    mor = build_morphism(dumbbell, ResidueMatrix([[3.0, -3.0]]), "u")
    assert np.allclose(residues_of(mor).entries, [[3.0, -3.0]])


def test_is_tropical(tripod, dumbbell):
    assert is_tropical(build_morphism(tripod, LINE_R))
    assert is_tropical(build_morphism(dumbbell, ResidueMatrix([[3.0, -3.0]])))
    assert not is_tropical(build_morphism(dumbbell, ResidueMatrix([[1.0, -1.0]])))


def test_combinatorial_type(rng):
    # positive scaling of the residues scales every slope and so keeps each
    # slope direction, the combinatorial type of the morphism
    for _ in range(10):
        mg = random_valid_cubic(rng)
        R = rng.normal(size=(2, mg.n_leaves))
        R -= R.mean(axis=1, keepdims=True)
        mor = build_morphism(mg, ResidueMatrix(R))
        mor5 = build_morphism(mg, ResidueMatrix(5.0 * R))
        for s, s5 in ((mor.edge_slopes, mor5.edge_slopes), (mor.leaf_slopes, mor5.leaf_slopes)):
            assert s5 == pytest.approx(5.0 * s, rel=1e-9, abs=1e-12)


def test_combinatorial_type_zero(dumbbell):
    # zero residues contract every edge and leaf
    mor = build_morphism(dumbbell, ResidueMatrix(np.zeros((1, 2))))
    assert not mor.edge_slopes.any() and not mor.leaf_slopes.any()


def test_regularity_genus0(tripod):
    rep = regularity_rank(tripod, build_morphism(tripod, LINE_R))
    assert rep == (0, 0, True)


def test_regularity_dumbbell(dumbbell):
    mor = build_morphism(dumbbell, ResidueMatrix([[3.0, -3.0]]))
    rep = regularity_rank(dumbbell, mor)
    assert rep == (1, 1, True)
    zero = build_morphism(dumbbell, ResidueMatrix(np.zeros((1, 2))))
    rep0 = regularity_rank(dumbbell, zero)
    assert rep0.rank == 0 and not rep0.is_regular


def test_regularity_refuses_a_morphism_on_another_graph(tripod, dumbbell):
    # the dumbbell's morphism against the tripod read rank 1 of expected 0
    with pytest.raises(InputError, match="HarmonicMorphism lives on another metric graph"):
        regularity_rank(tripod, build_morphism(dumbbell, ResidueMatrix([[3.0, -3.0]])))


def test_slope_map_rank_m_n_minus_1(rng):
    # the linear map R -> slopes has rank m*(n-1)
    for _ in range(5):
        mg = random_valid_cubic(rng)
        n = mg.n_leaves
        cols = []
        for j in range(n - 1):
            row = np.zeros(n)
            row[j], row[-1] = 1.0, -1.0
            mor = build_morphism(mg, ResidueMatrix(row[None, :]))
            cols.append(np.concatenate([mor.edge_slope[e] for e in mg.graph.edge_ids]
                                       + [mor.leaf_slope[l] for l in mg.graph.leaf_ids]))
        assert np.linalg.matrix_rank(np.array(cols)) == n - 1


def test_uniform_rescaling_preserves_slopes(rng):
    mg = random_valid_cubic(rng)
    R = rng.normal(size=(2, mg.n_leaves))
    R -= R.mean(axis=1, keepdims=True)
    mor = build_morphism(mg, ResidueMatrix(R))
    c = 3.7
    mg2 = MetricGraph(mg.graph, {e: c * l for e, l in mg.length.items()})
    mor2 = build_morphism(mg2, ResidueMatrix(R))
    for e in mg.graph.edge_ids:
        assert mor2.edge_slope[e] == pytest.approx(mor.edge_slope[e], abs=1e-9)
    for v in mg.graph.vertices:
        assert mor2.vertex_position[v] == pytest.approx(c * mor.vertex_position[v], abs=1e-9)


def test_emit_embedding_line(tripod):
    scene = emit_embedding(build_morphism(tripod, LINE_R), 3.0)
    doc = scene_to_dict(scene)
    assert doc["vertices"] == {"w": [0.0, 0.0]}
    dirs = {r["leaf"]: r["direction"] for r in doc["rays"]}
    assert dirs["p3"] == [1.0, 1.0]
    assert doc["edges"] == []


def test_emit_embedding_zero(dumbbell):
    scene = emit_embedding(build_morphism(dumbbell, ResidueMatrix(np.zeros((1, 2)))), 3.0)
    assert all(p == pytest.approx([0.0]) for p in scene.vertices.values())


def test_emit_embedding_dumbbell_segment(dumbbell):
    scene = emit_embedding(build_morphism(dumbbell, ResidueMatrix([[3.0, -3.0]]), "u"), 3.0)
    doc = scene_to_dict(scene)
    assert doc["vertices"] == {"u": [0.0], "v": [2.0]}
    assert len(doc["edges"]) == 2  # both parallel edges map onto [0, 2]


def test_svg_output(tripod, dumbbell):
    svg = scene_to_svg(emit_embedding(build_morphism(tripod, LINE_R), 3.0))
    assert svg.startswith("<svg") and "dasharray" in svg
    svg1 = scene_to_svg(emit_embedding(build_morphism(dumbbell, ResidueMatrix([[3.0, -3.0]])), 3.0))
    assert "<line" in svg1


def test_svg_dimension_gate(rng):
    mg = tripod_graph()
    R = np.zeros((4, 3))
    scene = emit_embedding(build_morphism(mg, ResidueMatrix(R)), 3.0)
    with pytest.raises(UnsupportedDimensionForSvgError):
        scene_to_svg(scene)


def test_triangle_immersion_regular(triangle):
    R = ResidueMatrix([[2.0, -1.0, -1.0], [1.0, 1.0, -2.0]])
    mor = build_morphism(triangle, R)
    assert is_tropical(mor)
    rep = regularity_rank(triangle, mor)
    assert rep == (2, 2, True)


def test_svg_m3_isometric(tripod):
    R3 = ResidueMatrix([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [1.0, -1.0, 0.0]])
    svg = scene_to_svg(emit_embedding(build_morphism(tripod, R3), 2.0))
    assert svg.startswith("<svg")
