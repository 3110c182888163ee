import numpy as np
import pytest

from tropharm.errors import UnsupportedDimensionForSvgError
from tropharm.forms import ResidueMatrix, solve_exact_form
from tropharm.graph import MetricGraph, _spanning_tree
from tropharm.morphisms import (
    build_morphism,
    balancing_defect,
    combinatorial_type,
    compatibility_defect,
    emit_embedding,
    is_tropical,
    regularity_rank,
    residues_of,
    scene_to_dict,
    scene_to_svg,
)

from conftest import tripod_graph
from _generators import random_valid_cubic

LINE_R = ResidueMatrix([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])


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
        _, parent = _spanning_tree(g)
        rel = {g.vertices[0]: np.zeros(R.m)}
        for w, (v, eid) in parent.items():  # breadth-first: parents come first
            step = mg.length[eid] * mor.edge_slope[eid]
            rel[w] = rel[v] + (step if g.edge(eid).ends[0] == v else -step)
        want = {v: rel[v] - rel[mor.base_vertex] for v in g.vertices}
        scale = max(1.0, max(float(np.max(np.abs(p))) for p in want.values()))
        for v in g.vertices:
            assert np.max(np.abs(mor.vertex_position[v] - want[v])) <= 1e-12 * scale


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


def test_combinatorial_type(tripod):
    mor = build_morphism(tripod, LINE_R)
    typ = combinatorial_type(mor)
    assert typ.tags["p1"] == pytest.approx((-1.0, 0.0))
    assert typ.tags["p3"] == pytest.approx((1 / np.sqrt(2), 1 / np.sqrt(2)))
    # positive scaling leaves the type unchanged
    typ5 = combinatorial_type(build_morphism(tripod, ResidueMatrix(5.0 * LINE_R.entries)))
    assert typ.same_as(typ5, tol=1e-12)


def test_combinatorial_type_zero(dumbbell):
    mor = build_morphism(dumbbell, ResidueMatrix(np.zeros((1, 2))))
    typ = combinatorial_type(mor)
    assert all(tag is None for tag in typ.tags.values())


def test_type_unit_norm(rng):
    mg = random_valid_cubic(rng)
    R = rng.normal(size=(3, mg.n_leaves))
    R -= R.mean(axis=1, keepdims=True)
    typ = combinatorial_type(build_morphism(mg, ResidueMatrix(R)))
    for tag in typ.tags.values():
        if tag is not None:
            assert np.linalg.norm(tag) == pytest.approx(1.0, abs=1e-12)


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
