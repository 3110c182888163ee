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
    incident leaf/edge ids; if omitted, sorted ids are used.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    leaves: tuple[Leaf, ...]
    ribbon: dict[str, tuple[str, str, str]] = field(default_factory=dict)

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
        vset = set(vertices)
        for e in edges:
            if e.ends[0] not in vset or e.ends[1] not in vset:
                raise InputError(f"edge {e.id} references unknown vertex")
            if e.ends[0] == e.ends[1]:
                raise SelfLoopEdgeError(f"edge {e.id} joins {e.ends[0]} to itself")
        for l in leaves:
            if l.vertex not in vset:
                raise InputError(f"leaf {l.id} references unknown vertex")

        incidence: dict[str, list[str]] = {v: [] for v in vertices}
        for e in edges:
            incidence[e.ends[0]].append(e.id)
            incidence[e.ends[1]].append(e.id)
        for l in leaves:
            incidence[l.vertex].append(l.id)
        for v in vertices:
            if len(incidence[v]) != 3:
                raise NotCubicError(f"vertex {v} has valence {len(incidence[v])}, not 3")

        _check_connected(vertices, edges)

        # Euler counts: always consistent for a connected 3-valent graph,
        # re-checked exactly since downstream dimension formulas lean on them.
        g = len(edges) - len(vertices) + 1
        n = len(leaves)
        if len(edges) != 3 * g - 3 + n or len(vertices) != 2 * g - 2 + n or 2 * g - 2 + n <= 0:
            raise NotCubicError("edge/vertex counts inconsistent with a cubic graph")

        ribbon: dict[str, tuple[str, str, str]] = {}
        for v in vertices:
            if self.ribbon and v in self.ribbon:
                order = tuple(str(x) for x in self.ribbon[v])
                if sorted(order) != sorted(incidence[v]):
                    raise BadRibbonError(f"ribbon at {v} is not a cyclic order of its incident leaf-edges")
                ribbon[v] = order
            else:
                ribbon[v] = tuple(sorted(incidence[v]))
        if self.ribbon:
            unknown = set(self.ribbon) - vset
            if unknown:
                raise BadRibbonError(f"ribbon mentions unknown vertices {sorted(unknown)}")

        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "ribbon", ribbon)
        object.__setattr__(self, "_edge_by_id", {e.id: e for e in edges})
        object.__setattr__(self, "_leaf_by_id", {l.id: l for l in leaves})
        object.__setattr__(self, "_incidence", {v: tuple(incidence[v]) for v in vertices})

    # lookups

    def edge(self, eid: str) -> Edge:
        return self._edge_by_id[eid]

    def leaf(self, lid: str) -> Leaf:
        return self._leaf_by_id[lid]

    def is_edge(self, ref: str) -> bool:
        return ref in self._edge_by_id

    def is_leaf(self, ref: str) -> bool:
        return ref in self._leaf_by_id

    def incident(self, v: str) -> tuple[str, ...]:
        """Ids of the three leaf-edges at vertex ``v``."""
        return self._incidence[v]

    @property
    def genus(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def leaf_ids(self) -> tuple[str, ...]:
        return tuple(l.id for l in self.leaves)

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    # oriented leaf-edges

    def tail(self, oe: "OrientedEdge") -> str | None:
        """Start vertex of an oriented leaf-edge (None at the open leaf end)."""
        if self.is_edge(oe.id):
            ends = self.edge(oe.id).ends
            return ends[0] if oe.forward else ends[1]
        return None if oe.forward else self.leaf(oe.id).vertex

    def head(self, oe: "OrientedEdge") -> str | None:
        if self.is_edge(oe.id):
            ends = self.edge(oe.id).ends
            return ends[1] if oe.forward else ends[0]
        return self.leaf(oe.id).vertex if oe.forward else None


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

    ``incidence`` is |V| x (|E|+n): edge columns (edge-id order) carry +1 at
    ends[0] and -1 at ends[1], leaf columns (leaf order) -1 at the leaf's
    vertex, so ``incidence @ values`` is the balancing of a 1-form stored on
    canonical orientations.  ``lengths`` is |E|, ``loops`` the fundamental
    cycle basis and ``cycles`` its genus x |E| signed edge matrix.
    """

    graph: CubicGraph
    length: dict[str, float]
    incidence: np.ndarray = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    loops: tuple[GraphPath, ...] = field(init=False, repr=False, compare=False)
    cycles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.graph
        length: dict[str, float] = {}
        for e in g.edges:
            if e.id not in self.length:
                raise NonPositiveLengthError(f"edge {e.id} has no length")
            val = float(self.length[e.id])
            if not val > 0.0:
                raise NonPositiveLengthError(f"edge {e.id} has length {val}")
            length[e.id] = val
        extra = set(self.length) - set(length)
        if extra:
            raise InputError(f"length entries for unknown edges (leaves carry no length): {sorted(extra)}")
        object.__setattr__(self, "length", length)

        vidx = {v: i for i, v in enumerate(g.vertices)}
        ne = len(g.edges)
        incidence = np.zeros((len(g.vertices), ne + g.n_leaves))
        for k, e in enumerate(g.edges):
            incidence[vidx[e.ends[0]], k] = 1.0
            incidence[vidx[e.ends[1]], k] = -1.0
        for j, l in enumerate(g.leaves):
            incidence[vidx[l.vertex], ne + j] = -1.0
        lengths = np.array(list(length.values()))
        loops = cycle_basis(self)
        cycles = loop_matrix(g, loops)
        for arr in (incidence, lengths, cycles):
            arr.setflags(write=False)
        object.__setattr__(self, "incidence", incidence)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "cycles", cycles)

    @property
    def genus(self) -> int:
        return self.graph.genus

    @property
    def n_leaves(self) -> int:
        return self.graph.n_leaves

    def total_length(self) -> float:
        return sum(self.length.values())


def _check_connected(vertices, edges) -> None:
    if not vertices:
        raise NotCubicError("graph has no vertices")
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for e in edges:
        adj[e.ends[0]].add(e.ends[1])
        adj[e.ends[1]].add(e.ends[0])
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(vertices):
        raise DisconnectedError("graph is not connected")


def check_path(g: CubicGraph, path: GraphPath) -> None:
    """Validate chaining and injectivity; raise NotPathOrLoop / NotALoop."""
    items = path.items
    if not items:
        raise NotPathOrLoopError("empty path")
    ids = [oe.id for oe in items]
    if len(set(ids)) != len(ids):
        raise NotPathOrLoopError("path repeats a leaf-edge")
    for oe in items:
        if not (g.is_edge(oe.id) or g.is_leaf(oe.id)):
            raise NotPathOrLoopError(f"unknown leaf-edge {oe.id}")
    if path.is_loop:
        for oe in items:
            if g.is_leaf(oe.id):
                raise NotALoopError("loops contain no leaves")
        for k, oe in enumerate(items):
            nxt = items[(k + 1) % len(items)]
            if g.head(oe) != g.tail(nxt):
                raise NotALoopError("loop is not cyclically head-to-tail")
    else:
        first, last = items[0], items[-1]
        if not (g.is_leaf(first.id) and first.forward):
            raise NotPathOrLoopError("path must start at a leaf, oriented inward")
        if not (g.is_leaf(last.id) and not last.forward):
            raise NotPathOrLoopError("path must end at a leaf, oriented outward")
        for oe in items[1:-1]:
            if g.is_leaf(oe.id):
                raise NotPathOrLoopError("interior of a path cannot contain leaves")
        for k in range(len(items) - 1):
            if g.head(items[k]) != g.tail(items[k + 1]):
                raise NotPathOrLoopError("path is not head-to-tail")


# ----------------------------------------------------------------------
# spanning tree, cycle basis, leaf paths (deterministic: sorted edge ids)


def _spanning_tree(g: CubicGraph, root: str | None = None) -> tuple[set[str], dict[str, tuple[str, str]]]:
    """Kruskal on lexicographically sorted edge ids.

    Returns the tree edge id set and a parent map: vertex -> (parent vertex,
    connecting edge id), rooted at ``root`` (default: the smallest vertex id).
    The map is in breadth-first order, neighbours visited by (vertex id,
    edge id), so every vertex comes after its parent.
    """
    parent_uf = {v: v for v in g.vertices}

    def find(v):
        while parent_uf[v] != v:
            parent_uf[v] = parent_uf[parent_uf[v]]
            v = parent_uf[v]
        return v

    tree: set[str] = set()
    for e in g.edges:  # already sorted by id
        ru, rv = find(e.ends[0]), find(e.ends[1])
        if ru != rv:
            parent_uf[ru] = rv
            tree.add(e.id)

    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        if e.id in tree:
            adj[e.ends[0]].append((e.ends[1], e.id))
            adj[e.ends[1]].append((e.ends[0], e.id))
    for v in adj:
        adj[v].sort()

    if root is None:
        root = g.vertices[0]
    parent: dict[str, tuple[str, str]] = {}
    seen = {root}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w, eid in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = (v, eid)
                queue.append(w)
    return tree, parent


def _tree_path(g: CubicGraph, parent: dict[str, tuple[str, str]], u: str, v: str) -> list[OrientedEdge]:
    """Oriented edges of the spanning-tree path u -> v."""

    def root_path(x):
        out = [x]
        while x in parent:
            x = parent[x][0]
            out.append(x)
        return out

    pu, pv = root_path(u), root_path(v)
    su, sv = set(pu), set(pv)
    meet = next(x for x in pu if x in sv)

    def climb(x, stop):
        steps = []
        while x != stop:
            par, eid = parent[x]
            e = g.edge(eid)
            steps.append(OrientedEdge(eid, forward=(e.ends[0] == x)))
            x = par
        return steps

    up = climb(u, meet)
    down = [oe.reverse() for oe in reversed(climb(v, meet))]
    return up + down


def cycle_basis(mg: MetricGraph) -> tuple[GraphPath, ...]:
    """Fundamental cycles of the sorted-id spanning tree, one per co-tree edge.

    Returns exactly ``genus`` loops whose edge incidence vectors are linearly
    independent (each contains a distinct co-tree edge).
    """
    g = mg.graph
    tree, parent = _spanning_tree(g)
    loops = []
    for e in g.edges:
        if e.id in tree:
            continue
        items = [OrientedEdge(e.id, True)] + _tree_path(g, parent, e.ends[1], e.ends[0])
        loop = GraphPath(tuple(items), is_loop=True)
        check_path(g, loop)
        loops.append(loop)
    return tuple(loops)


def loop_matrix(g: CubicGraph, loops) -> np.ndarray:
    """len(loops) x |E| signed edge matrix: +1 where a loop runs along an
    edge's canonical orientation, -1 where it runs against it."""
    eidx = {eid: i for i, eid in enumerate(g.edge_ids)}
    mat = np.zeros((len(loops), len(g.edges)))
    for i, loop in enumerate(loops):
        for oe in loop.items:
            mat[i, eidx[oe.id]] += 1.0 if oe.forward else -1.0
    return mat


def leaf_paths(mg: MetricGraph, base_leaf: str) -> tuple[GraphPath, ...]:
    """Paths from ``base_leaf`` to every other leaf, in leaf order."""
    g = mg.graph
    if not g.is_leaf(base_leaf):
        raise UnknownLeafError(f"unknown leaf {base_leaf}")
    _, parent = _spanning_tree(g)
    base = g.leaf(base_leaf)
    paths = []
    for l in g.leaves:
        if l.id == base_leaf:
            continue
        items = (
            [OrientedEdge(base.id, True)]
            + _tree_path(g, parent, base.vertex, l.vertex)
            + [OrientedEdge(l.id, False)]
        )
        p = GraphPath(tuple(items), is_loop=False)
        check_path(g, p)
        paths.append(p)
    return tuple(paths)


# ----------------------------------------------------------------------
# file format


def graph_from_dict(d: dict) -> MetricGraph:
    try:
        vertices = tuple(d["vertices"])
        edges = tuple(Edge(e["id"], (e["ends"][0], e["ends"][1])) for e in d["edges"])
        leaves = tuple(Leaf(l["id"], l["vertex"]) for l in d["leaves"])
        lengths = {e["id"]: e["length"] for e in d["edges"]}
    except (KeyError, TypeError, IndexError) as exc:
        raise InputError(f"malformed graph document: {exc}") from exc
    ribbon = {v: tuple(order) for v, order in d.get("ribbon", {}).items()}
    g = CubicGraph(vertices, edges, leaves, ribbon)
    return MetricGraph(g, lengths)


def graph_to_dict(mg: MetricGraph) -> dict:
    g = mg.graph
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "ends": [e.ends[0], e.ends[1]], "length": mg.length[e.id]}
            for e in g.edges
        ],
        "leaves": [{"id": l.id, "vertex": l.vertex} for l in g.leaves],
        "ribbon": {v: list(g.ribbon[v]) for v in g.vertices},
    }


def load_graph(path: str) -> MetricGraph:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read graph file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"graph file {path} is not valid JSON: {exc}") from exc
    return graph_from_dict(d)
