"""Independent oracles the implementation is checked against."""
import json
import math
from fractions import Fraction
from math import gcd

import numpy as np

from tropharm.errors import EvaluationAtPunctureError, NotALoopError, NotPathOrLoopError


def energy_min_flow(mg, residue_row):
    """Minimize sum l(e) i(e)^2 over flows with the given leaf injections.

    Dense KKT system, nothing shared with the Laplacian solver: variables are
    the per-edge currents (canonical orientation), constraints are vertex
    conservation.  Returns edge id -> current.
    """
    g = mg.graph
    edges = list(g.edge_ids)
    eidx = {e: i for i, e in enumerate(edges)}
    vidx = {v: i for i, v in enumerate(g.vertices)}
    ne, nv = len(edges), len(g.vertices)
    C = np.zeros((nv, ne))
    for e in g.edges:
        C[vidx[e.ends[0]], eidx[e.id]] += 1.0
        C[vidx[e.ends[1]], eidx[e.id]] -= 1.0
    b = np.zeros(nv)
    for r, l in zip(residue_row, g.leaves):
        b[vidx[l.vertex]] += float(r)
    L = np.diag([2.0 * mg.length[e] for e in edges])
    kkt = np.block([[L, C.T], [C, np.zeros((nv, nv))]])
    rhs = np.concatenate([np.zeros(ne), b])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return {e: sol[eidx[e]] for e in edges}


def check_path_reference(g, path):
    """The path check on objects: each item's ends looked up in id dicts built
    from ``g.edges`` and ``g.leaves`` (an edge's ends, a leaf's open end None
    and its vertex), swapped where the item runs backward, then compared head
    to tail.  Raises what ``graph.check_path`` raises, in the same order;
    returns the items' (id, forward) pairs."""
    edge_ends = {e.id: e.ends for e in g.edges}
    leaf_vertex = {l.id: l.vertex for l in g.leaves}

    def ends(oe):
        tail, head = edge_ends[oe.id] if oe.id in edge_ends else (None, leaf_vertex[oe.id])
        return (tail, head) if oe.forward else (head, tail)

    items = path.items
    if not items:
        raise NotPathOrLoopError("empty path")
    ids = [oe.id for oe in items]
    if len(set(ids)) != len(ids):
        raise NotPathOrLoopError("path repeats a leaf-edge")
    for ref in ids:
        if ref not in edge_ends and ref not in leaf_vertex:
            raise NotPathOrLoopError(f"unknown leaf-edge {ref}")
    if path.is_loop:
        if any(ref in leaf_vertex for ref in ids):
            raise NotALoopError("loops contain no leaves")
        for k, oe in enumerate(items):
            if ends(oe)[1] != ends(items[(k + 1) % len(items)])[0]:
                raise NotALoopError("loop is not cyclically head-to-tail")
    else:
        first, last = items[0], items[-1]
        if not (first.id in leaf_vertex and first.forward):
            raise NotPathOrLoopError("path must start at a leaf, oriented inward")
        if not (last.id in leaf_vertex and not last.forward):
            raise NotPathOrLoopError("path must end at a leaf, oriented outward")
        if any(ref in leaf_vertex for ref in ids[1:-1]):
            raise NotPathOrLoopError("interior of a path cannot contain leaves")
        for a, b in zip(items, items[1:]):
            if ends(a)[1] != ends(b)[0]:
                raise NotPathOrLoopError("path is not head-to-tail")
    return [(oe.id, oe.forward) for oe in items]


def spanning_tree_reference(g, root=None):
    """The spanning tree by Kruskal on the sorted edge ids, with components
    merged as vertex sets, then walked breadth-first from ``root`` (default:
    the smallest vertex id), each vertex's tree neighbours taken in (vertex
    id, edge id) order.  Returns the tree's edge ids and the parent map
    vertex -> (parent, edge id) in walk order."""
    component = {v: {v} for v in g.vertices}
    tree = set()
    for e in sorted(g.edges, key=lambda e: e.id):
        a, b = component[e.ends[0]], component[e.ends[1]]
        if a is not b:
            tree.add(e.id)
            a |= b
            for v in b:
                component[v] = a
    neighbours = {v: [] for v in g.vertices}
    for e in g.edges:
        if e.id in tree:
            neighbours[e.ends[0]].append((e.ends[1], e.id))
            neighbours[e.ends[1]].append((e.ends[0], e.id))
    root = min(g.vertices) if root is None else root
    parent = {}
    queue = [root]
    for v in queue:
        for w, eid in sorted(neighbours[v]):
            if w != root and w not in parent:
                parent[w] = (v, eid)
                queue.append(w)
    return tree, parent


def dense_incidence(g):
    """|V| x (|E|+n) signed incidence built from the graph's edges and leaves:
    edge columns (edge-id order) +1 at ends[0] and -1 at ends[1], leaf
    columns (leaf order) -1 at the leaf's vertex, so its product with a
    1-form's canonical values is the balancing at each vertex."""
    vidx = {v: i for i, v in enumerate(g.vertices)}
    ne = len(g.edges)
    inc = np.zeros((len(g.vertices), ne + len(g.leaves)))
    for k, e in enumerate(g.edges):
        inc[vidx[e.ends[0]], k] = 1.0
        inc[vidx[e.ends[1]], k] = -1.0
    for j, leaf in enumerate(g.leaves):
        inc[vidx[leaf.vertex], ne + j] = -1.0
    return inc


def form_space_dims_svd(mg):
    """(dim exact, dim holomorphic, dim balanced) from three dense float ranks.

    Balanced forms are the kernel of the incidence (``dense_incidence``);
    exact ones also have zero loop integrals (the rank is that of the bare
    cycles, since cycles @ diag(l) @ cycles.T is positive definite),
    holomorphic ones zero residues.
    """
    bal = dense_incidence(mg.graph)
    total, g, n = bal.shape[1], mg.genus, mg.n_leaves
    loops = np.hstack([mg.cycles, np.zeros((g, n))])
    leaf_rows = np.hstack([np.zeros((n, total - n)), np.eye(n)])
    return (
        total - np.linalg.matrix_rank(np.vstack([bal, loops])),
        total - np.linalg.matrix_rank(np.vstack([bal, leaf_rows])),
        total - np.linalg.matrix_rank(bal),
    )


def kirchhoff_fraction(mg, residue_row):
    """Exact electrical flow by Kirchhoff's laws in ``Fraction`` arithmetic:
    the grounded Laplacian (conductance 1/length(e), potential 0 at vertex 0)
    solved by Gauss-Jordan, residue j injected at leaf j's vertex.  Returns
    (potentials, currents) as Fraction lists in vertex and edge-id order;
    the current on e runs ends[0] -> ends[1].  Exact for any float input, so
    meant for small graphs."""
    g = mg.graph
    vidx = {v: i for i, v in enumerate(g.vertices)}
    nv = len(g.vertices)
    lap = [[Fraction(0)] * nv for _ in range(nv)]
    rhs = [Fraction(0)] * nv
    for e in g.edges:
        a, b = vidx[e.ends[0]], vidx[e.ends[1]]
        c = 1 / Fraction(mg.length[e.id])
        lap[a][a] += c
        lap[b][b] += c
        lap[a][b] -= c
        lap[b][a] -= c
    for r, leaf in zip(residue_row, g.leaves):
        rhs[vidx[leaf.vertex]] += Fraction(float(r))
    rows = [lap[i][1:] + [rhs[i]] for i in range(1, nv)]
    for c in range(nv - 1):
        piv = next(i for i in range(c, nv - 1) if rows[i][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(nv - 1):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    phi = [Fraction(0)] + [row[-1] for row in rows]
    currents = [(phi[vidx[e.ends[0]]] - phi[vidx[e.ends[1]]]) / Fraction(mg.length[e.id]) for e in g.edges]
    return phi, currents


def loop_edge_signs(loop):
    return {oe.id: (1.0 if oe.forward else -1.0) for oe in loop.items}


def points_to_segments_broadcast(pts, segs):
    """Distance from each point to the nearest segment; segs is (S, 2, d).

    Broadcasts every point against every segment at once, (N, S, d)
    temporaries included, and takes the norm of each difference.
    """
    a, b = segs[:, 0, :], segs[:, 1, :]
    ab = b - a
    denom = np.einsum("sd,sd->s", ab, ab)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.einsum("nsd,sd->ns", pts[:, None, :] - a[None, :, :], ab) / denom
    t = np.clip(t, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    return np.linalg.norm(pts[:, None, :] - proj, axis=2).min(axis=1)


def scene_hausdorff_bruteforce(pts, segs, win):
    """Hausdorff distance between the points and the segments (S, 2, d): the
    broadcast point-to-segment distance one way; the other way, the scene
    sampled as the library samples it (n >= 2 evenly spaced points per
    segment, at most window diagonal / 2048 apart) and every sample's minimum
    over all points, each squared distance summed in coordinate order."""
    d1 = points_to_segments_broadcast(pts, segs).max()
    step = float(np.linalg.norm(win[:, 1] - win[:, 0])) / 2048.0
    d2 = 0.0
    for a, b in segs:
        n = max(2, int(np.ceil(np.linalg.norm(b - a) / step)) + 1)
        samples = a[None, :] + np.linspace(0.0, 1.0, n)[:, None] * (b - a)[None, :]
        sq = np.zeros((n, pts.shape[0]))
        for k in range(pts.shape[1]):
            sq += (pts[None, :, k] - samples[:, k, None]) ** 2
        d2 = max(d2, np.sqrt(sq.min(axis=1)).max())
    return float(max(d1, d2))


def scene_samples_linspace(segs, step):
    """Samples of the segments (S, 2, d) as the scene is sampled, one segment
    at a time: exact duplicate rows dropped as np.unique(axis=0) drops them
    (the first kept, in order), then n >= 2 samples a + linspace(0, 1, n) *
    (b - a) per segment, at most ``step`` apart by np.linalg.norm.  Returns
    the kept segments, the (N, d) samples and the count of each segment."""
    _, first = np.unique(segs.reshape(segs.shape[0], -1), axis=0, return_index=True)
    kept = segs[np.sort(first)]
    samples, counts = [], []
    for a, b in kept:
        n = max(2, int(np.ceil(np.linalg.norm(b - a) / step)) + 1)
        samples.append(a[None, :] + np.linspace(0.0, 1.0, n)[:, None] * (b - a)[None, :])
        counts.append(n)
    return kept, np.vstack(samples), np.array(counts)


def amoeba_map(sphere, R, z):
    """Coordinate k at z: sum over finite punctures of R[k, j] * log|z - p_j|,
    evaluated directly."""
    idx, pts = sphere.finite()
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    dist = np.abs(zs[:, None] - pts[None, :])
    if np.any(dist == 0.0):
        raise EvaluationAtPunctureError("amoeba map evaluated at a puncture")
    img = np.log(dist) @ R.entries[:, idx].T
    return img[0] if scalar else img


def circle_units(angular_count):
    """Unit vectors of all A angles of a chart circle: index k <= A - ceil(A/2)
    is the uniform angle 2*pi*k/A, and index A - k above it the conjugate of
    index k's unit vector."""
    a = angular_count
    lower = a - (a + 1) // 2
    units = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, a, endpoint=False))
    upper = np.arange(lower + 1, a)
    units[upper] = np.conj(units[a - upper])
    return units


def chart_logdist_full(pts, j, log_radii, angular_count):
    """log-distances of p_j + r*e^(i*theta) to every finite puncture, one row
    per sample off a puncture over the whole circle, mirror samples included,
    and the angle index of each row.

    Angle index k <= A - ceil(A/2) is the uniform angle 2*pi*k/A; index
    A - k above it takes the conjugate of index k's unit vector.  The own
    column is log r; samples landing exactly on another puncture are dropped.
    """
    a = angular_count
    units = circle_units(a)
    offs = (np.exp(log_radii)[:, None] * units[None, :]).ravel()
    index = np.tile(np.arange(a), log_radii.size)
    logdist = np.empty((offs.size, pts.size))
    keep = np.ones(offs.size, dtype=bool)
    logdist[:, j] = np.repeat(log_radii, a)
    for k in range(pts.size):
        if k == j:
            continue
        d = np.abs(pts[j] - pts[k] + offs)
        keep &= d > 0.0
        logdist[:, k] = np.log(np.where(d > 0.0, d, 1.0))
    return logdist[keep], index[keep]


def chart_logdist_masked(pts, j, log_radii, angular_count):
    """log-distances of p_j + r*e^(i*theta) to every finite puncture, each
    column k of one (rows, angles) distance block per puncture, gathered
    through a keep mask of the samples off every puncture.  On punctures of
    one imaginary part only angle indices 0 .. A - ceil(A/2) are evaluated;
    the count returned includes their mirror samples."""
    a = angular_count
    h = (a + 1) // 2
    units = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, a, endpoint=False)[:a - h + 1])
    mirrored = bool(np.all(pts.imag == pts[j].imag))
    if not mirrored:
        units = np.concatenate([units, units[h - 1:0:-1].conj()])
    offs = np.exp(log_radii)[:, None] * units[None, :]
    dist = np.empty((pts.size, *offs.shape))
    keep = np.ones(offs.shape, dtype=bool)
    for k in range(pts.size):
        if k == j:
            continue
        d = dist[k]
        np.abs(pts[j] - pts[k] + offs, out=d)
        keep &= d > 0.0
    drawn = np.count_nonzero(keep)
    if mirrored:
        drawn += np.count_nonzero(keep[:, 1:h])
    logdist = np.empty((np.count_nonzero(keep), pts.size))
    logdist[:, j] = np.broadcast_to(log_radii[:, None], offs.shape)[keep]
    for k in range(pts.size):
        if k != j:
            logdist[:, k] = np.log(dist[k][keep])
    return logdist, int(drawn)


def rows_near_window_chart(pts: np.ndarray, j: int, log_radii: np.ndarray, res_cols: np.ndarray,
                           window: np.ndarray, shift: np.ndarray, logt: float) -> np.ndarray:
    """Mask of the chart rows around p_j whose amoeba image may meet the window.

    On the circle |z - p_j| = r the own log-distance is log r exactly, and
    log|z - p_k| lies in [log|d_k - r|, log(d_k + r)] with d_k = |p_j - p_k|;
    the positive and negative parts of the residue columns turn these into a
    box holding the row's raw image.  A row is dropped only if its circle
    keeps clear of every other puncture, gap > 1e-6 * (d_k + r), and its box
    misses the window, taken in raw coordinates (window - shift) * log t, by
    1e-6 of the term sizes plus 1e-9: far above round-off, so no dropped
    sample lands on a puncture or inside the window.
    """
    others = np.delete(np.arange(pts.size), j)
    d = np.abs(pts[others] - pts[j])
    radii = np.exp(log_radii)[:, None]
    gap = np.abs(d - radii)
    near = np.ones(log_radii.size, dtype=bool)
    clear = np.flatnonzero(np.all(gap > 1e-6 * (d + radii), axis=1))
    lo = np.empty((clear.size, pts.size))
    hi = np.empty_like(lo)
    lo[:, j] = hi[:, j] = log_radii[clear]
    lo[:, others] = np.log(gap[clear])
    hi[:, others] = np.log(d + radii[clear])
    pos, neg = np.maximum(res_cols.T, 0.0), np.maximum(-res_cols.T, 0.0)
    box_lo = lo @ pos - hi @ neg
    box_hi = hi @ pos - lo @ neg
    terms = np.maximum(np.abs(lo), np.abs(hi)) @ np.abs(res_cols.T)
    slack = 1e-6 * (terms + (np.abs(window).max(axis=1) + np.abs(shift)) * logt) + 1e-9
    raw_win = (window - shift[:, None]) * logt
    miss = (box_hi + slack < raw_win[:, 0]) | (box_lo - slack > raw_win[:, 1])
    near[clear] = ~np.any(miss, axis=1)
    return near


def grid_logdist_rows(pts, grid_count):
    """log-distances to every finite puncture on a square grid over a disk,
    one row per grid node: the disk of radius r0 = 2 max|p - centre| + 1
    about the punctures' mean holds them all, and nodes outside it or within
    1e-9 * (1 + r0) of a puncture are dropped."""
    center = complex(np.mean(pts))
    r0 = 2.0 * float(np.max(np.abs(pts - center))) + 1.0
    axis = np.linspace(-r0, r0, grid_count)
    gx, gy = np.meshgrid(axis, axis)
    gz = (center + gx + 1j * gy).ravel()
    dist = np.abs(gz[:, None] - pts[None, :])
    keep = (np.abs(gz - center) <= r0) & (dist.min(axis=1) > 1e-9 * (1.0 + r0))
    return np.log(dist[keep])


def experiment_cloud_stacked(placement, R, mor, window, shift, sampling):
    """The convergence experiment's raw cloud, regions and sample count, each
    chart evaluated into arrays of its own (``chart_logdist_masked``) and
    multiplied by the residue columns, and the charts and the global grid
    stacked at the end.  Chart radii, rows skipped as missing the window
    (``rows_near_window_chart``, one chart at a time) and tripod regions
    follow the library's rules."""
    g = placement.carrier.graph
    idx, pts = placement.sphere().finite()
    res_cols = R.entries[:, idx]
    logt = math.log(placement.t)

    wmax = float(np.max(np.abs(window))) + 1.0
    slopes = [np.abs(v) for v in mor.edge_slope.values()]
    slopes += [np.abs(v) for v in mor.leaf_slope.values()]
    nonzero = [float(s.max()) for s in slopes if s.max() > 1e-12]
    floor = max(min(nonzero) if nonzero else 1.0, 0.05)
    reach = min(wmax / floor, 200.0)

    heights = placement.height
    h_top = max(heights)
    step, angular_count, grid_count = sampling

    vertex_index = {v: i for i, v in enumerate(g.vertices)}
    region_type = np.min_scalar_type(-len(g.vertices))
    leaf_vertices = [vertex_index[g.leaves[j].vertex] for j in idx]
    depth = max(len(placement.up_path(v)) for v in leaf_vertices)
    paths = np.zeros((len(leaf_vertices), depth), dtype=region_type)
    bounds = np.full((depth - 1, len(leaf_vertices)), np.inf)
    for pos, v in enumerate(leaf_vertices):
        up = placement.up_path(v)
        hs = [heights[w] for w in up]
        paths[pos, :len(up)] = up
        bounds[:len(up) - 1, pos] = [(a + b) / 2.0 for a, b in zip(hs, hs[1:])]

    def assign_tripods(logdist):
        nearest = np.argmin(logdist, axis=1)
        u_min = np.take_along_axis(logdist, nearest[:, None], axis=1)[:, 0] / logt
        level = np.zeros(nearest.size, dtype=np.intp)
        for bnd in bounds:
            level += bnd[nearest] <= u_min
        return paths[nearest, level]

    u_cap = 600.0 / logt
    u_hi = min(h_top + reach, u_cap)

    chunks, regions = [], []
    samples = 0
    for pos, v in enumerate(leaf_vertices):
        u_lo = max(heights[v] - reach, -u_cap)
        k_lo, k_hi = math.ceil(u_lo / step), math.floor(u_hi / step)
        u = np.arange(k_lo, k_hi + 1) * step
        log_radii = u * logt
        near = rows_near_window_chart(pts, pos, log_radii, res_cols, window, shift, logt)
        logdist, drawn = chart_logdist_masked(pts, pos, log_radii[near], angular_count)
        chunks.append(logdist @ res_cols.T)
        regions.append(assign_tripods(logdist))
        samples += drawn + (near.size - np.count_nonzero(near)) * angular_count

    grid = grid_logdist_rows(pts, grid_count)
    chunks.append(grid @ res_cols.T)
    regions.append(np.full(grid.shape[0], -1, dtype=region_type))
    return np.vstack(chunks), np.concatenate(regions), samples + grid.shape[0]


def place_tree_reference(mg, t):
    """Nested-cluster puncture placement kept in per-vertex dicts, the last
    leaf at infinity: (punctures, height, up_path) as place_tree gives them.

    The constants of the two branches after the incoming reference, in ribbon
    order, are 0 and 1; a child is a neighbour deeper than its vertex, and
    its cluster centre is the parent's centre plus c * t**H(parent).
    """
    g = mg.graph
    edge_ends = {e.id: e.ends for e in g.edges}
    infinite_leaf = g.leaf_ids[-1]
    root = g.leaves[-1].vertex
    _, parent = spanning_tree_reference(g, root)
    depth = {root: 0.0}
    up_path = {root: (root,)}
    for w, (v, eid) in parent.items():
        depth[w] = depth[v] + mg.length[eid]
        up_path[w] = (w,) + up_path[v]
    ecc = max(depth.values())
    height = {v: ecc - d for v, d in depth.items()}

    def branch_constants(v, incoming):
        order3 = list(g.ribbon[v])
        k = order3.index(incoming)
        return {order3[(k + 1) % 3]: 0.0, order3[(k + 2) % 3]: 1.0}

    center = {root: 0.0 + 0.0j}
    constants = {}
    incoming_ref = {root: infinite_leaf}
    for v in [root, *parent]:
        for ref, c in branch_constants(v, incoming_ref[v]).items():
            constants[(v, ref)] = c
            if ref in edge_ends:
                ends = edge_ends[ref]
                w = ends[0] if ends[1] == v else ends[1]
                if depth[w] > depth[v]:
                    center[w] = center[v] + c * t ** height[v]
                    incoming_ref[w] = ref
    punctures = tuple(
        None if l.id == infinite_leaf
        else center[l.vertex] + constants[(l.vertex, l.id)] * t ** height[l.vertex]
        for l in g.leaves
    )
    return punctures, height, up_path


def rational_nullspace_fraction(mat):
    """Exact rank and integer null-space basis, as tuples of ints, of an
    integer matrix, by Gauss-Jordan on ``Fraction`` rows: each pivot row is
    divided by its pivot, and each kernel vector (1 at its free column, minus
    the reduced entries at the pivot columns) is scaled by the lcm of its
    denominators."""
    rows = [[Fraction(int(x)) for x in row] for row in mat]
    ncols = mat.shape[1]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][f]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        basis.append(tuple(int(x * denom) for x in vec))
    return r, basis


def dumps_canonical_chain(obj):
    """Canonical JSON by one ``isinstance`` chain, recursing once per value:
    sorted keys, floats at 17 significant digits, non-finite floats as null,
    strings and keys through ``json.dumps``."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return "null" if math.isnan(x) or math.isinf(x) else format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps_canonical_chain(obj.tolist())
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {dumps_canonical_chain(v)}"
                 for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))]
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_canonical_chain(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")
