"""File-format loaders, the one-leaf graph, and twist solving on a tree."""
import pytest

from tropharm.errors import InputError, TooFewLeavesError
from tropharm.forms import (
    form_space_dims,
    residues_from_dict,
    ResidueMatrix,
)
from tropharm.graph import CubicGraph, Edge, Leaf, MetricGraph
from tropharm.phase import solve_twists
from tropharm.morphisms import build_morphism

from conftest import caterpillar_graph


def one_leaf_graph():
    # n = 1 is achievable at genus 2: parallel pair a=b, path through c
    g = CubicGraph(
        ("a", "b", "c"),
        (Edge("e1", ("a", "b")), Edge("e2", ("a", "b")), Edge("e3", ("a", "c")),
         Edge("e4", ("b", "c"))),
        (Leaf("p1", "c"),),
    )
    return MetricGraph(g, {"e1": 1.0, "e2": 1.0, "e3": 1.0, "e4": 1.0})


def test_one_leaf_graph_valid_but_too_few_leaves():
    mg = one_leaf_graph()
    assert mg.genus == 2 and mg.n_leaves == 1
    with pytest.raises(TooFewLeavesError):
        form_space_dims(mg)


def test_residue_file_leaf_order_must_match(dumbbell):
    doc = {"rows": 1, "leaf_order": ["p2", "p1"], "entries": [[1.0, -1.0]]}
    with pytest.raises(InputError):
        residues_from_dict(doc, dumbbell)
    doc["leaf_order"] = ["p1", "p2"]
    assert residues_from_dict(doc, dumbbell).entries.shape == (1, 2)


def test_solve_twists_genus0_with_edges():
    mg = caterpillar_graph(1.0)
    mor = build_morphism(mg, ResidueMatrix([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]))
    sol = solve_twists(mg, mor)
    assert sol.rank == 0
    assert sol.dimension == len(mg.graph.edges)  # the full twist torus

