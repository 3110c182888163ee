"""Cubic graphs with marked leaves: the combinatorial substrate.

A metric graph here is a connected cubic graph (every internal vertex
trivalent, self-loop edges forbidden, parallel edges allowed) with an ordered
sequence of marked leaves and a positive length on every non-leaf edge.
Leaves are metrically infinite and never carry a length entry.

All types are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadRibbonError,
    DisconnectedError,
    InputError,
    NonPositiveLengthError,
    NotALoopError,
    NotCubicError,
    NotPathOrLoopError,
    SelfLoopEdgeError,
    UnknownLeafError,
)


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, str]


@dataclass(frozen=True)
class Leaf:
    id: str
    vertex: str


@dataclass(frozen=True)
class CubicGraph:
    """Connected graph with trivalent internal vertices and marked leaves.

    ``leaves`` is ordered: this order indexes residue vectors throughout the
    library.  ``ribbon`` maps each vertex to the cyclic order of its three
    incident leaf/edge ids; if omitted, sorted ids are used.  ``edge_ids``
    (sorted) and ``leaf_ids`` are built once; ``_column``, the one id index,
    maps each id to its incidence column, edges first.  The incidence is kept
    as index arrays: ``_tails`` (ends[0]), ``_heads``, ``_leaf_vertices`` and
    the (|V|, 3) ``_star`` of columns at each vertex, ``_star_sign`` +1 where
    an edge leaves it, else -1, in order: edges leaving, edges entering,
    leaves, each by column.  They are grouped in plain lists, which give the
    valences, and each array is made from its list.  ``_ends`` holds the
    columns' tails and heads as two tuples of ints, a leaf's tail -1 (its
    open end).  The spanning tree is ``_tree_adj``, each vertex's tree
    neighbours as (neighbour, column, sign) in (neighbour, column) order,
    sign +1 where the edge runs from the neighbour to the vertex, and
    ``_walk``, the tree walked from vertex 0 (``_tree_walk``).
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    leaves: tuple[Leaf, ...]
    ribbon: dict[str, tuple[str, str, str]] = field(default_factory=dict)
    edge_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    leaf_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = tuple(sorted(str(v) for v in self.vertices))
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex ids")
        edges = tuple(
            sorted(
                (Edge(str(e.id), (str(e.ends[0]), str(e.ends[1]))) for e in self.edges),
                key=lambda e: e.id,
            )
        )
        leaves = tuple(Leaf(str(l.id), str(l.vertex)) for l in self.leaves)
        ids = [e.id for e in edges] + [l.id for l in leaves]
        if len(set(ids)) != len(ids):
            raise InputError("edge and leaf ids must be pairwise distinct")
        vidx = {v: i for i, v in enumerate(vertices)}
        for e in edges:
            if e.ends[0] not in vidx or e.ends[1] not in vidx:
                raise InputError(f"edge {e.id} references unknown vertex")
            if e.ends[0] == e.ends[1]:
                raise SelfLoopEdgeError(f"edge {e.id} joins {e.ends[0]} to itself")
        for l in leaves:
            if l.vertex not in vidx:
                raise InputError(f"leaf {l.id} references unknown vertex")

        # the columns at each vertex and their signs: edges whose tail it is
        # (+1), edges whose head it is (-1), then its leaves (-1)
        nv, ne = len(vertices), len(edges)
        tails, heads = [vidx[e.ends[0]] for e in edges], [vidx[e.ends[1]] for e in edges]
        leaf_vertices = [vidx[l.vertex] for l in leaves]
        star, star_sign = [[] for _ in vertices], [[] for _ in vertices]
        for ends, sign, first in ((tails, 1.0, 0), (heads, -1.0, 0), (leaf_vertices, -1.0, ne)):
            for k, v in enumerate(ends, first):
                star[v].append(k)
                star_sign[v].append(sign)
        bad = next((v for v, at in enumerate(star) if len(at) != 3), None)
        if bad is not None:
            raise NotCubicError(f"vertex {vertices[bad]} has valence {len(star[bad])}, not 3")
        if not vertices:
            raise NotCubicError("graph has no vertices")

        # Kruskal on the sorted edge ids gives the one spanning tree that cycle
        # bases, leaf paths and tree placement walk; a walk from vertex 0 that
        # misses a vertex means the graph is disconnected.  With every vertex
        # trivalent and the graph connected, |E| = 3g - 3 + n and
        # |V| = 2g - 2 + n follow.
        root = list(range(nv))

        def find(v):
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        adjacent: list[list[tuple[int, int, int]]] = [[] for _ in vertices]
        for k, (u, w) in enumerate(zip(tails, heads)):
            ru, rw = find(u), find(w)
            if ru != rw:
                root[ru] = rw
                adjacent[u].append((w, k, -1))
                adjacent[w].append((u, k, 1))
        tree_adj = tuple(tuple(sorted(adj)) for adj in adjacent)
        walk = _tree_walk(tree_adj, 0)
        if len(walk) != nv - 1:
            raise DisconnectedError("graph is not connected")

        ribbon: dict[str, tuple[str, str, str]] = {}
        for v, at in zip(vertices, star):
            incident = sorted(ids[k] for k in at)
            if self.ribbon and v in self.ribbon:
                order3 = tuple(str(x) for x in self.ribbon[v])
                if sorted(order3) != incident:
                    raise BadRibbonError(f"ribbon at {v} is not a cyclic order of its incident leaf-edges")
                ribbon[v] = order3
            else:
                ribbon[v] = tuple(incident)
        if self.ribbon:
            unknown = set(self.ribbon) - set(vidx)
            if unknown:
                raise BadRibbonError(f"ribbon mentions unknown vertices {sorted(unknown)}")

        arrays = {"_tails": np.array(tails, dtype=np.intp), "_heads": np.array(heads, dtype=np.intp),
                  "_leaf_vertices": np.array(leaf_vertices, dtype=np.intp),
                  "_star": np.array(star, dtype=np.intp), "_star_sign": np.array(star_sign)}
        for arr in arrays.values():
            arr.setflags(write=False)
        for name, value in {"vertices": vertices, "edges": edges, "leaves": leaves, "ribbon": ribbon,
                            "edge_ids": tuple(ids[:ne]), "leaf_ids": tuple(ids[ne:]),
                            "_column": {ref: k for k, ref in enumerate(ids)},
                            "_ends": (tuple(tails + [-1] * len(leaves)), tuple(heads + leaf_vertices)),
                            **arrays, "_tree_adj": tree_adj, "_walk": walk}.items():
            object.__setattr__(self, name, value)

    def incident(self, v: str) -> tuple[str, ...]:
        """Ids of the three leaf-edges at vertex ``v``: edges by id, then leaves."""
        ids = self.edge_ids + self.leaf_ids
        return tuple(ids[k] for k in sorted(self._star[self.vertices.index(v)].tolist()))

    @property
    def genus(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)


@dataclass(frozen=True)
class OrientedEdge:
    """Reference to a leaf-edge with a direction.

    For non-leaf edges ``forward`` means ends[0] -> ends[1] (the canonical
    orientation).  For leaves ``forward`` means inward, i.e. from the open end
    toward the attachment vertex; the canonical orientation of a leaf is
    inward.
    """

    id: str
    forward: bool = True

    def reverse(self) -> "OrientedEdge":
        return OrientedEdge(self.id, not self.forward)


@dataclass(frozen=True)
class GraphPath:
    """Edge-injective path (leaf to leaf) or loop (no leaves)."""

    items: tuple[OrientedEdge, ...]
    is_loop: bool = False


@dataclass(frozen=True)
class MetricGraph:
    """A cubic graph with edge lengths, plus its linear algebra as read-only arrays.

    ``lengths`` is |E| (edge-id order); ``_loops``, which the library reads,
    the fundamental loops as (columns, signs) lists (``_loop_columns``),
    ``cycles`` their genus x |E| signed matrix and ``loops`` their ``GraphPath``
    objects, built on first read.  Incidence and spanning tree: the graph's.
    """

    graph: CubicGraph
    length: dict[str, float]
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    cycles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.graph
        length: dict[str, float] = {}
        for e in g.edges:
            if e.id not in self.length:
                raise NonPositiveLengthError(f"edge {e.id} has no length")
            try:
                val = float(self.length[e.id])
            except (TypeError, ValueError) as exc:
                raise InputError(f"edge {e.id} has length {self.length[e.id]!r}, not a number") from exc
            if not val > 0.0:
                raise NonPositiveLengthError(f"edge {e.id} has length {val}")
            if val == np.inf:
                raise InputError(f"edge {e.id} has infinite length")
            length[e.id] = val
        extra = set(self.length) - set(length)
        if extra:
            raise InputError(f"length entries for unknown edges (leaves carry no length): {sorted(extra)}")
        object.__setattr__(self, "length", length)

        lengths = np.array(list(length.values()))
        loops = _loop_columns(g)
        cycles = loop_matrix(g, loops)[:, :len(g.edges)]
        lengths.setflags(write=False)
        cycles.setflags(write=False)
        for name, value in (("lengths", lengths), ("_loops", loops), ("cycles", cycles)):
            object.__setattr__(self, name, value)

    loops = cached_property(lambda self: cycle_basis(self))

    @property
    def genus(self) -> int:
        return self.graph.genus

    @property
    def n_leaves(self) -> int:
        return self.graph.n_leaves

    def total_length(self) -> float:
        return sum(self.length.values())


def _balancing(mg: MetricGraph, values: np.ndarray) -> np.ndarray:
    """Sum of the outgoing values at each vertex: the star table's three
    columns gathered and signed; ``values`` has one entry, or row, per column."""
    g = mg.graph
    return np.einsum("vk,vk...->v...", g._star_sign, values[g._star])


def _check_carrier(mg: MetricGraph, *objs) -> None:
    """InputError unless each object's ``carrier`` is ``mg`` or equal to it."""
    for obj in objs:
        if obj.carrier is not mg and obj.carrier != mg:
            raise InputError(f"the {type(obj).__name__} lives on another metric graph")


def check_path(g: CubicGraph, path: GraphPath) -> tuple[list[int], list[float]]:
    """Validate chaining and injectivity; raise NotPathOrLoop / NotALoop.

    Returns the path's columns and signs (``_path_columns``); an item runs
    from tail to head (``_ends``), or back where ``forward=False``.
    """
    items = path.items
    if not items:
        raise NotPathOrLoopError("empty path")
    ids = [oe.id for oe in items]
    if len(set(ids)) != len(ids):
        raise NotPathOrLoopError("path repeats a leaf-edge")
    for ref in ids:
        if ref not in g._column:
            raise NotPathOrLoopError(f"unknown leaf-edge {ref}")
    cols, signs = _path_columns(g, path)
    tails, heads = g._ends
    steps = [(tails[k], heads[k]) if s > 0 else (heads[k], tails[k]) for k, s in zip(cols, signs)]
    leaf = [tails[k] < 0 for k in cols]
    if path.is_loop:
        if any(leaf):
            raise NotALoopError("loops contain no leaves")
        if any(steps[i - 1][1] != steps[i][0] for i in range(len(steps))):
            raise NotALoopError("loop is not cyclically head-to-tail")
    else:
        if not (leaf[0] and signs[0] > 0):
            raise NotPathOrLoopError("path must start at a leaf, oriented inward")
        if not (leaf[-1] and signs[-1] < 0):
            raise NotPathOrLoopError("path must end at a leaf, oriented outward")
        if any(leaf[1:-1]):
            raise NotPathOrLoopError("interior of a path cannot contain leaves")
        if any(steps[i - 1][1] != steps[i][0] for i in range(1, len(steps))):
            raise NotPathOrLoopError("path is not head-to-tail")
    return cols, signs


def _path_columns(g: CubicGraph, path: GraphPath) -> tuple[list[int], list[float]]:
    """The incidence columns of a path's items and their signs, +1.0 along
    the canonical orientation, else -1.0, in path order; the path is not
    checked (the loops and leaf paths built here are valid by construction)."""
    return [g._column[oe.id] for oe in path.items], [1.0 if oe.forward else -1.0 for oe in path.items]


def _kind(g: CubicGraph, ref: str) -> str | None:
    """"edge" or "leaf" for an id of ``g`` (edges take the first columns), else None."""
    k = g._column.get(ref)
    return None if k is None else "edge" if k < len(g.edges) else "leaf"


# ----------------------------------------------------------------------
# spanning tree, cycle basis, leaf paths (deterministic: sorted edge ids)


def _tree_walk(tree_adj, root: int) -> tuple[tuple[int, int, int, int], ...]:
    """The spanning tree from vertex ``root`` as (child, parent, column, sign)
    in breadth-first order, each vertex's neighbours in ``tree_adj`` order
    (vertex, column): parents come first.  Sign +1 where the edge runs from
    child to parent."""
    walk = []
    seen = [False] * len(tree_adj)
    seen[root] = True
    queue = [root]
    for v in queue:
        for w, k, sign in tree_adj[v]:
            if not seen[w]:
                seen[w] = True
                walk.append((w, v, k, sign))
                queue.append(w)
    return tuple(walk)


def _cotree(g: CubicGraph) -> list[int]:
    """Columns of the edges off the spanning tree, in edge order."""
    tree = {k for _, _, k, _ in g._walk}
    return [k for k in range(len(g.edges)) if k not in tree]


def _tree_columns(g: CubicGraph, pairs) -> list[tuple[list[int], list[float]]]:
    """The tree path u -> v of each vertex pair (u, v) as columns and signs:
    one climb of the walk from both ends, the deeper first, until they meet;
    the steps from u in order, then those from v reversed and flipped."""
    parent, column, sign, depth = ([0] * len(g.vertices) for _ in range(4))
    for child, p, k, s in g._walk:
        parent[child], column[child], sign[child], depth[child] = p, k, float(s), depth[p] + 1
    paths = []
    for u, v in pairs:
        up, back = [], []  # the children of the steps from u, from v
        while u != v:
            if depth[u] >= depth[v]:
                up.append(u)
                u = parent[u]
            else:
                back.append(v)
                v = parent[v]
        back.reverse()
        paths.append(([column[w] for w in up + back], [sign[w] for w in up] + [-sign[w] for w in back]))
    return paths


def _loop_columns(g: CubicGraph) -> tuple[tuple[list[int], list[float]], ...]:
    """The fundamental loops as columns and signs, one per co-tree edge in edge
    order: the co-tree edge, then the tree path from its head to its tail."""
    cotree, (tails, heads) = _cotree(g), g._ends
    return tuple(([k, *cols], [1.0, *signs])
                 for k, (cols, signs) in zip(cotree, _tree_columns(g, [(heads[k], tails[k]) for k in cotree])))


def _leaf_columns(g: CubicGraph, base_leaf: str) -> list[tuple[list[int], list[float]]]:
    """The paths from ``base_leaf`` (UnknownLeafError unless a leaf) to every
    other leaf, in leaf order, as columns and signs: in, the tree path, out."""
    if _kind(g, base_leaf) != "leaf":
        raise UnknownLeafError(f"unknown leaf {base_leaf}")
    b, at = g._column[base_leaf], g._ends[1]  # a leaf column's head is its vertex
    others = [k for k in range(len(g.edges), len(g._column)) if k != b]
    return [([b, *cols, k], [1.0, *signs, -1.0])
            for k, (cols, signs) in zip(others, _tree_columns(g, [(at[b], at[k]) for k in others]))]


def _path_objects(g: CubicGraph, paths, is_loop: bool) -> tuple[GraphPath, ...]:
    """The paths given as columns and signs, as ``GraphPath`` objects."""
    ids = g.edge_ids + g.leaf_ids
    return tuple(GraphPath(tuple(OrientedEdge(ids[k], s > 0) for k, s in zip(cols, signs)), is_loop)
                 for cols, signs in paths)


def cycle_basis(mg: MetricGraph) -> tuple[GraphPath, ...]:
    """Fundamental cycles of the sorted-id spanning tree, one per co-tree edge.

    Returns exactly ``genus`` loops whose edge incidence vectors are linearly
    independent (each contains a distinct co-tree edge).  Each loop is the
    co-tree edge followed by the tree path back to its tail, so it passes
    ``check_path`` by construction; the tests check this, not every call.
    """
    return _path_objects(mg.graph, mg._loops, is_loop=True)


def loop_matrix(g: CubicGraph, paths) -> np.ndarray:
    """len(paths) x (|E|+n) signed matrix of paths given as (columns, signs):
    +1 where a loop or path runs along a leaf-edge's canonical orientation,
    -1 against it (paths are edge-injective, so no column repeats)."""
    mat = np.zeros((len(paths), len(g._column)))
    for row, (cols, signs) in zip(mat, paths):
        row[cols] = signs
    return mat


def leaf_paths(mg: MetricGraph, base_leaf: str) -> tuple[GraphPath, ...]:
    """Paths from ``base_leaf`` to every other leaf, in leaf order.

    Each path runs through the spanning tree, so it passes ``check_path`` by
    construction; as for ``cycle_basis``, the tests check this, not every call.
    """
    return _path_objects(mg.graph, _leaf_columns(mg.graph, base_leaf), is_loop=False)


# ----------------------------------------------------------------------
# file format


def graph_from_dict(d: dict) -> MetricGraph:
    try:
        vertices = tuple(d["vertices"])
        edges = tuple(Edge(e["id"], (e["ends"][0], e["ends"][1])) for e in d["edges"])
        leaves = tuple(Leaf(l["id"], l["vertex"]) for l in d["leaves"])
        lengths = {e["id"]: json_number(e["length"], f"edge {e['id']} length") for e in d["edges"]}
        ribbon = {v: tuple(order) for v, order in d.get("ribbon", {}).items()}
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise InputError(f"malformed graph document: {exc}") from exc
    g = CubicGraph(vertices, edges, leaves, ribbon)
    return MetricGraph(g, lengths)


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number (an int or a float, not a
    bool) that a float can hold; else InputError.  ``what`` names it in errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(f"{what} is an integer too large for a float") from exc


def read_json(path: str, what: str):
    """The JSON document in the file at ``path``; ``what`` names the file in errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise InputError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_graph(path: str) -> MetricGraph:
    return graph_from_dict(read_json(path, "graph"))
