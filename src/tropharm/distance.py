"""Hausdorff distance between a point cloud and a piecewise-linear scene,
both clipped to a window box: exact point-to-segment projections on the
cloud side, the scene sampled at a spacing of the window diagonal / 2048 on
the other.  One routine, ``_global_hausdorff``, computes the public
``hausdorff`` and every distance of the convergence experiment
(``_experiment_distances``).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import EmptyAfterClippingError, InputError
from .morphisms import Scene


def _as_window(window, dim: int) -> np.ndarray:
    w = np.asarray(window, dtype=float)
    if w.shape == (2,):  # symmetric [lo, hi] in every axis
        w = np.tile(w, (dim, 1))
    if not np.all(np.isfinite(w)):
        raise InputError("window bounds must be finite")
    if w.shape != (dim, 2) or np.any(w[:, 0] >= w[:, 1]):
        raise InputError(f"window must be (dim, 2) with lo < hi, got shape {w.shape}")
    with np.errstate(over="ignore"):
        step = _scene_step(w)
    if not math.isfinite(step):
        raise InputError("window diagonal overflows")
    if not step >= np.finfo(float).tiny:
        raise InputError(f"window is too small: its scene sample spacing {step:.3g} "
                         "(diagonal / 2048) is not a positive normal float")
    return w


def _scene_step(win: np.ndarray) -> float:
    """Spacing of the scene samples in a window: its diagonal / 2048."""
    return float(np.linalg.norm(win[:, 1] - win[:, 0])) / 2048.0


def _clip_param_line(a: np.ndarray, d: np.ndarray, t_hi: float, window: np.ndarray):
    """Intersect {a + t*d : 0 <= t <= t_hi} with the window box (slab method).

    A direction below 1e-300 in every component is the point a; a ray whose
    exit parameter overflows is refused, not cut short."""
    if np.all(np.abs(d) < 1e-300):
        return (a, a) if np.all((window[:, 0] <= a) & (a <= window[:, 1])) else None
    t0, t1 = 0.0, t_hi
    for ak, dk, (lo, hi) in zip(a.tolist(), d.tolist(), window.tolist()):
        if abs(dk) < 1e-300:
            if ak < lo or ak > hi:
                return None
            continue
        ta, tb = (lo - ak) / dk, (hi - ak) / dk
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return None
    if math.isinf(t1):
        raise InputError(f"ray direction {d.tolist()} is too short to reach the window edge")
    return a + t0 * d, a + t1 * d


def clip_scene(scene: Scene, window) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scene segments and rays clipped to the window; rays become segments."""
    win = _as_window(window, scene.dim)
    lines = [(scene.vertices[va], scene.vertices[vb] - scene.vertices[va], 1.0)
             for _, va, vb in scene.edges]
    lines += [(origin, np.asarray(d, dtype=float), np.inf) for _, origin, d in scene.rays]
    segs = [_clip_param_line(a, d, t_hi, win) for a, d, t_hi in lines]
    return [seg for seg in segs if seg is not None]


def _in_window(cols: np.ndarray, win: np.ndarray) -> np.ndarray:
    """Mask of the points of the (m, N) coordinate rows ``cols`` inside the
    window box, compared one coordinate at a time."""
    inside = np.ones(cols.shape[1], dtype=bool)
    for row, (lo, hi) in zip(cols, win):
        inside &= row >= lo
        inside &= row <= hi
    return inside


def _take_columns(cols: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """cols[:, idx] by one take per row: a take along columns would first
    copy the wider rows of a view, and fancy indexing is slower."""
    out = np.empty((cols.shape[0], idx.size))
    for row, dest in zip(cols, out):
        row.take(idx, out=dest)
    return out


def _clipped_t(cols: np.ndarray, a: np.ndarray, ab: np.ndarray, denom: float,
               lanes: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Projection parameter t = (p - a).ab / |ab|^2 of every column point on
    one segment, clipped to [0, 1], written into lanes[0].

    The dot product adds the even and the odd coordinates apart before adding
    the two sums, which is the order of numpy's two-lane einsum contraction."""
    for k in range(cols.shape[0]):
        term = lanes[k] if k < 2 else r
        np.subtract(cols[k], a[k], out=term)
        term *= ab[k]
        if k >= 2:
            lanes[k % 2] += r
    t = lanes[0]
    if cols.shape[0] > 1:
        t += lanes[1]
    t /= denom
    return np.clip(t, 0.0, 1.0, out=t)


def _sq_dist(cols: np.ndarray, x) -> np.ndarray:
    """sum_k (cols[k] - x[k])**2 added in coordinate order; x[k] is a scalar
    or a column like cols[k].  Every point-to-point distance is this sum
    followed by sqrt, so two of them for the same pair agree bit for bit."""
    out = cols[0] - x[0]
    out *= out
    term = np.empty_like(out)
    for k in range(1, cols.shape[0]):
        np.subtract(cols[k], x[k], out=term)
        term *= term
        out += term
    return out


def _segment_params(segs: np.ndarray):
    a, b = segs[:, 0, :], segs[:, 1, :]
    ab = b - a
    denom = np.einsum("sd,sd->s", ab, ab)
    return a, ab, np.where(denom == 0.0, 1.0, denom)


# points per pass of the distance engine and of the chart sampler, so that
# their scratch arrays stay small next to the cloud
_BLOCK = 8192


def _points_to_segments(cols: np.ndarray, params, out: np.ndarray | None = None):
    """Exact distance from each column point to the nearest segment, written
    into ``out`` if given; cols is (d, N) and params is ``_segment_params``
    of the (S, 2, d) segments.

    One pass per segment over the coordinate columns: the clipped projection
    parameter (``_clipped_t``), then a running minimum of the squared
    distance to a + t*ab, and one sqrt at the end; the result equals the
    broadcast formula bit for bit, and each point's value depends on that
    point alone, so callers pass the points ``_BLOCK`` at a time to keep the
    scratch small.  Also returns the index of each point's nearest segment
    and the clipped t on it.
    """
    a, ab, denom = params
    dim, n = cols.shape
    best, best_t = np.empty(n) if out is None else out, np.zeros(n)
    best.fill(np.inf)
    best_seg = np.zeros(n, dtype=np.min_scalar_type(a.shape[0] - 1))
    lanes, r = np.empty((2, n)), np.empty(n)
    sq = lanes[1]  # free once the two lanes of t are added
    closer = np.empty(n, dtype=bool)
    for s in range(a.shape[0]):
        t = _clipped_t(cols, a[s], ab[s], denom[s], lanes, r)
        for k in range(dim):
            term = sq if k == 0 else r
            np.multiply(t, ab[s, k], out=term)
            term += a[s, k]
            np.subtract(cols[k], term, out=term)
            term *= term
            if k:
                sq += r
        np.less(sq, best, out=closer)
        np.copyto(best, sq, where=closer)
        np.copyto(best_t, t, where=closer)
        np.copyto(best_seg, s, where=closer)
    return np.sqrt(best, out=best), best_seg, best_t


def _sample_segments(segs: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Samples a + linspace(0, 1, n)*(b - a) of each segment, n >= 2 of them
    at most ``step`` apart by np.linalg.norm, as (d, total) coordinate
    columns, and the count n of each segment."""
    parts, counts = [], []
    for a, b in segs:
        n = max(2, int(np.ceil(np.linalg.norm(b - a) / step)) + 1)
        parts.append(a[:, None] + np.linspace(0.0, 1.0, n) * (b - a)[:, None])
        counts.append(n)
    return np.concatenate(parts, axis=1), np.array(counts)


class _ClippedScene:
    """The part of a Hausdorff distance to clipped segments that does not
    depend on the cloud: the segments without duplicates (coincident rays
    give the same samples and distances; the first of equal rows is kept),
    their ``_segment_params``, and the scene samples at a spacing of the
    window diagonal / 2048, as coordinate columns, with the sample range of
    each segment."""

    def __init__(self, segs: np.ndarray, win: np.ndarray):
        rows = segs.reshape(segs.shape[0], -1)
        equal = np.all(rows[:, None, :] == rows[None, :, :], axis=2)
        self.segs = segs[~np.tril(equal, -1).any(axis=1)]
        self.params = _segment_params(self.segs)
        self.cols, self.counts = _sample_segments(self.segs, _scene_step(win))
        self.offset = np.cumsum(self.counts) - self.counts
        self.last = (self.counts - 1).astype(float)  # each segment's last sample index
        self.start = np.repeat(self.offset, self.counts)
        self.stop = self.start + np.repeat(self.counts, self.counts)

    def bin(self, seg: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Indices of the scene samples nearest t on the segments seg."""
        at = np.take(self.last, seg)
        at *= t
        np.rint(at, out=at)
        bins = np.take(self.offset, seg)
        np.add(bins, at, out=bins, casting="unsafe")  # exact: both are integers below 2**53
        return bins

    def bounds(self, cols: np.ndarray, bins: np.ndarray) -> np.ndarray:
        """Upper bound on each scene sample's distance to the cloud: every
        sample gets the point binned to its nearest covered sample on the
        same segment, or point 0 on a segment no point is binned to."""
        n = self.cols.shape[1]
        rep = np.full(n, -1, dtype=np.intp)
        for lo in range(0, bins.size, _BLOCK):  # a later point binned to a sample replaces an earlier one
            rep[bins[lo:lo + _BLOCK]] = np.arange(lo, min(lo + _BLOCK, bins.size))
        idx = np.arange(n)
        covered = rep >= 0
        before = np.maximum.accumulate(np.where(covered, idx, -1))
        after = np.minimum.accumulate(np.where(covered, idx, n)[::-1])[::-1]
        gap_before = np.where(before >= self.start, idx - before, n)
        gap_after = np.where(after < self.stop, after - idx, n)
        near = np.where(gap_before <= gap_after, before, after)
        fill = np.where(np.minimum(gap_before, gap_after) < n, rep[near.clip(0, n - 1)], 0)
        return np.sqrt(_sq_dist(_take_columns(cols, fill), self.cols))

    def scan(self, cols: np.ndarray, bound: np.ndarray, lmax: float, above: float = -math.inf) -> float:
        """max(lmax, the largest distance from a scanned scene sample to the
        cloud): exact scans, largest ``bound`` first, while the largest bound
        beats both lmax and ``above``.  A scan takes the cloud ``_BLOCK``
        points at a time and keeps the first of its nearest points: a later
        block's nearest replaces it only if strictly nearer.  That point
        tightens every other bound, in place, so a later call goes on from
        there; with ``above`` at -inf the result is max(lmax, the
        scene-to-cloud distance)."""
        i = np.argmax(bound)
        while bound[i] > max(lmax, above):
            sample, nearest, p = self.cols[:, i], math.inf, 0
            for lo in range(0, cols.shape[1], _BLOCK):
                sq = _sq_dist(cols[:, lo:lo + _BLOCK], sample)
                k = np.argmin(sq)
                if sq[k] < nearest:
                    nearest, p = sq[k], lo + k
            lmax = max(lmax, np.sqrt(nearest))
            np.minimum(bound, np.sqrt(_sq_dist(self.cols, cols[:, p])), out=bound)
            i = np.argmax(bound)
        return float(lmax)


def _tripod_table(tripod: _ClippedScene, glob: _ClippedScene, scale: float):
    """For each sample of a tripod scene, the slack of its piece and the
    global bin of the same place on the piece's parent, the global segment
    whose distance from the piece's farther endpoint is least.

    The distance to a segment is convex along a line, so every point of a
    piece lies within that endpoint distance of its parent; plus 1e-9 *
    ``scale`` for round-off, that is the piece's slack, and a point's tripod
    distance plus its piece's slack bounds its global distance from above.
    t on the piece is t0 + t*(t1 - t0), clipped to [0, 1], on the parent,
    where t0 and t1 project the piece's endpoints on it."""
    a, ab, denom = glob.params
    ends = tripod.segs.reshape(-1, 1, a.shape[1])
    t = np.clip(np.einsum("psd,sd->ps", ends - a, ab) / denom, 0.0, 1.0)
    gap = np.linalg.norm(ends - (a + t[..., None] * ab), axis=2).reshape(-1, 2, a.shape[0])
    worst = gap.max(axis=1)
    parent = worst.argmin(axis=1)
    k = np.arange(parent.size)
    t0, t1 = t.reshape(-1, 2, a.shape[0])[k, :, parent].T
    piece = np.repeat(k, tripod.counts)
    t_on = t0[piece] + (t1 - t0)[piece] * (np.arange(piece.size) - tripod.start) / tripod.last[piece]
    return (worst[k, parent] + 1e-9 * scale)[piece], glob.bin(parent[piece], np.clip(t_on, 0.0, 1.0))


def _global_hausdorff(cols: np.ndarray, scene: _ClippedScene, bound: np.ndarray,
                      bins: np.ndarray) -> float:
    """Hausdorff distance between the column points and a prepared scene,
    given an upper bound U(p) on each point's distance to the scene (+inf
    where none is known) and a bin for each bounded point, the index of a
    scene sample near it: any bins give the result, near ones sooner.

    Points are projected exactly (``_points_to_segments``), ``_BLOCK`` at
    a time, and a projected point's bound and bin are overwritten with its
    exact distance and the sample nearest its projection.  The first round
    projects the unbounded points and the point with the largest finite
    bound, whose distance is usually near the maximum; when no point is
    bounded it projects ``cols`` itself, each block's distances written
    straight into ``bound``.  Then the scene side is bounded
    (``_ClippedScene.bounds``), and the scene samples whose bounds beat
    every point's bound are scanned exactly first: their distances are part
    of the result too, and raise the maximum that a point's bound must beat
    to be projected.  Every point whose bound still exceeds the running
    maximum is projected, round by round, and the scene scans finish from
    there.  A point never projected is no farther than its bound, which is
    at most the result, and each scene bound is an exact point-to-sample
    distance, so the result equals the all-pairs Hausdorff distance bit for
    bit.  With every bound at +inf, as in ``hausdorff`` and each tripod
    distance, this is one projection, the scene bounds and one full scan.
    Besides ``cols``, ``bound`` and ``bins``, it holds scene-sized arrays
    and block-sized scratch only.
    On an amoeba that fits the scene to round-off, the tripod slack
    (``_tripod_table``) is above every exact point distance, and the scene
    samples scanned first are what spare projecting the whole cloud.
    """
    def project(todo: np.ndarray | None) -> float:
        """Project the points ``todo`` (every point if None) ``_BLOCK`` at a
        time; the largest distance found."""
        top = -math.inf
        for lo in range(0, cols.shape[1] if todo is None else todo.size, _BLOCK):
            if todo is None:
                key = slice(lo, lo + _BLOCK)
                d, s, ts = _points_to_segments(cols[:, key], scene.params, out=bound[key])
            else:
                key = todo[lo:lo + _BLOCK]
                d, s, ts = _points_to_segments(_take_columns(cols, key), scene.params)
                bound[key] = d
            bins[key] = scene.bin(s, ts)
            top = max(top, d.max())
        return top

    unbounded = bound == np.inf
    todo = None
    if not unbounded.all():
        bound[unbounded] = -np.inf  # the largest finite bound without a copy of the bounds
        todo = np.append(np.flatnonzero(unbounded), np.argmax(bound))
        bound[unbounded] = np.inf
    del unbounded
    lmax = project(todo)
    scene_bound = scene.bounds(cols, bins)
    lmax = scene.scan(cols, scene_bound, lmax, above=bound.max())
    todo = np.flatnonzero(bound > lmax)
    while todo.size:
        lmax = max(lmax, project(todo))
        todo = np.flatnonzero(bound > lmax)
    return scene.scan(cols, scene_bound, lmax)


def _experiment_distances(cols: np.ndarray, ends: np.ndarray, glob: _ClippedScene | None,
                          tripods: list, tables: list) -> tuple[float, list]:
    """The global distance of the convergence experiment's in-window cloud,
    whose region i is columns ends[i]:ends[i + 1], and each tripod distance
    (None for an empty region or a tripod clipped away).  A tripod distance
    leaves its points' exact distances and tripod bins in its slice of the
    global bounds and bins, which its ``_tripod_table`` turns into global
    bounds and bins, so only grid points, points of a region whose tripod is
    clipped away and points whose bound beats the running maximum are
    projected on the global scene.  The bins are kept in the smallest
    integer type that indexes every scene sample, and the tables are
    applied ``_BLOCK`` points at a time."""
    if cols.size == 0:
        raise EmptyAfterClippingError("point cloud is empty after clipping")
    if glob is None:
        raise EmptyAfterClippingError("scene is empty after clipping")
    n, most = cols.shape[1], max(s.cols.shape[1] for s in [glob, *tripods] if s is not None)
    bound, bins = np.full(n, np.inf), np.zeros(n, dtype=np.min_scalar_type(most - 1))
    per_tripod = [None] * len(tripods)
    for i, (tripod, table) in enumerate(zip(tripods, tables)):
        part = slice(ends[i], ends[i + 1])
        if part.start < part.stop and tripod is not None:
            per_tripod[i] = _global_hausdorff(cols[:, part], tripod, bound[part], bins[part])
            slack, parent_bin = table
            for lo in range(part.start, part.stop, _BLOCK):
                key = slice(lo, min(lo + _BLOCK, part.stop))
                at = bins[key].astype(np.intp)  # cast once for both lookups
                bound[key] += slack[at]
                bins[key] = parent_bin[at]
    return _global_hausdorff(cols, glob, bound, bins), per_tripod


def hausdorff(points, scene: Scene, window) -> float:
    """Symmetric Hausdorff distance between an (N, m) point array and a scene,
    after clipping both to the window.

    Cloud-to-scene distances are exact point-to-segment projections; the
    scene-to-cloud side is exact on the scene sampled at a spacing of the
    window diagonal / 2048 (see ``_global_hausdorff``, here with no point
    bounded).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InputError(f"points must be an (N, m) array, got shape {pts.shape}")
    win = _as_window(window, pts.shape[1])
    pts = pts[_in_window(pts.T, win)]
    if pts.size == 0:
        raise EmptyAfterClippingError("point cloud is empty after clipping")
    segs = clip_scene(scene, win)
    if not segs:
        raise EmptyAfterClippingError("scene is empty after clipping")
    cols = np.ascontiguousarray(pts.T)
    n = cols.shape[1]
    return _global_hausdorff(cols, _ClippedScene(np.array(segs), win), np.full(n, np.inf),
                             np.zeros(n, dtype=np.intp))
