"""Test-side geometric reference helpers.

Independent per-cell implementations of the segment and rectangle
intersection rules, used to cross-check the renderers bin by bin. The
arithmetic mirrors the library's bin-edge convention (min + k * size) so
closed-boundary hits evaluate identically on both sides. Also the
hypothesis strategy that probes every bin edge to within an ulp, and a
reference copy of the recursive nearest search over a built index's levels.
"""
from __future__ import annotations

import math
import sys

import numpy as np
from hypothesis import strategies as st

from hiergrid import (
    BinCoord,
    Extents,
    GridIndex,
    GridShape,
    Point2D,
    PointCollection,
    neighborhood,
    resolve_bin,
)


def t_interval(a0: float, d: float, lo: float, hi: float):
    """Parameter interval where a0 + t*d lies in [lo, hi], or None.

    d == 0 degenerates to all t when a0 is inside, empty otherwise.
    """
    if d == 0.0:
        return (0.0, 1.0) if lo <= a0 <= hi else None
    t0 = (lo - a0) / d
    t1 = (hi - a0) / d
    if t0 > t1:
        t0, t1 = t1, t0
    return t0, t1


def segment_hits_rect(a: Point2D, b: Point2D, rect: Extents) -> bool:
    """Closed intersection of segment [a, b] with rect (touching counts)."""
    ix = t_interval(a.x, b.x - a.x, rect.min.x, rect.max.x)
    if ix is None:
        return False
    iy = t_interval(a.y, b.y - a.y, rect.min.y, rect.max.y)
    if iy is None:
        return False
    return max(ix[0], iy[0], 0.0) <= min(ix[1], iy[1], 1.0)


def rects_overlap(a: Extents, b: Extents) -> bool:
    """Closed rectangle overlap (shared edges and corners count)."""
    return (
        a.min.x <= b.max.x
        and a.max.x >= b.min.x
        and a.min.y <= b.max.y
        and a.max.y >= b.min.y
    )


def segment_cells(a: Point2D, b: Point2D, shape: GridShape) -> set[BinCoord]:
    """Every bin whose rectangle the segment touches, by full enumeration."""
    out = set()
    for j in range(shape.divisions_y):
        for i in range(shape.divisions_x):
            c = BinCoord(i, j)
            if segment_hits_rect(a, b, shape.bin_rect(c)):
                out.add(c)
    return out


def rect_cells(rect: Extents, shape: GridShape) -> set[BinCoord]:
    """Every bin whose rectangle overlaps rect, by full enumeration."""
    out = set()
    for j in range(shape.divisions_y):
        for i in range(shape.divisions_x):
            c = BinCoord(i, j)
            if rects_overlap(rect, shape.bin_rect(c)):
                out.add(c)
    return out


def nearest_record(positions, q: Point2D) -> tuple[float, int]:
    """(squared distance, id) of the nearest position; ties to lowest id."""
    best_d2 = math.inf
    best_rid = -1
    for rid, (x, y) in enumerate(positions):
        dx = x - q.x
        dy = y - q.y
        d2 = dx * dx + dy * dy
        if d2 < best_d2:
            best_d2 = d2
            best_rid = rid
    return best_d2, best_rid


@st.composite
def grid_and_near_edge_probes(draw):
    """A flat index over extents 1e-6 to 1e6 wide, plus query points one
    ulp either side of (and exactly on) every bin edge, max included, on
    both axes."""
    x0 = draw(st.floats(-1e6, 1e6))
    y0 = draw(st.floats(-1e6, 1e6))
    w = 10.0 ** draw(st.floats(-6.0, 6.0))
    h = 10.0 ** draw(st.floats(-6.0, 6.0))
    dx = draw(st.integers(1, 16))
    dy = draw(st.integers(1, 16))
    idx = GridIndex(PointCollection([(x0, y0), (x0 + w, y0 + h)]), dx, dy)
    ext = idx.shape.extents
    fx, fy = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    inside_x = float(ext.min.x + fx * ext.width)
    inside_y = float(ext.min.y + fy * ext.height)
    probes = []
    for axis, n, lo, hi, size in (
        (0, dx, ext.min.x, ext.max.x, idx.shape.bin_width),
        (1, dy, ext.min.y, ext.max.y, idx.shape.bin_height),
    ):
        for k in range(n + 1):
            edge = hi if k == n else lo + k * size
            for v in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                v = float(v)
                probes.append(Point2D(v, inside_y) if axis == 0 else Point2D(inside_x, v))
    return idx, probes


class _RefBest:
    """A level's own running best: (d2, id) minimum and examined count."""

    def __init__(self) -> None:
        self.d2 = math.inf
        self.rid = sys.maxsize
        self.cost = 0

    def offer(self, d2: float, rid: int) -> None:
        if d2 < self.d2 or (d2 == self.d2 and rid < self.rid):
            self.d2 = d2
            self.rid = rid


def reference_nearest(index: GridIndex, q: Point2D) -> tuple[int, float, int, bool]:
    """(record, distance, records_examined, short_circuit) of q by the level
    search written recursively, one running best per level.

    Each delegation runs the child level with a fresh best and the bound
    min(parent's bound, parent's best), then offers the child's winner to
    its parent. A level's short circuit compares its own best after the
    home scan. An out-of-extents visit of a level with children (or of any
    child level) sorts its whole border ring stably by squared rectangle
    distance, row-major, and stops at the first bin farther than its bound
    or its best; a childless root scans every ring list. Bins come from
    resolve_bin, bin_rect and neighborhood; records are read from the
    positions array.
    """
    root = index.ensure_built()
    pos = root.positions.tolist()

    def scan(lst, best: _RefBest) -> None:
        best.cost += len(lst.ids)
        for rid in lst.ids:
            x, y = pos[rid]
            dx = x - q.x
            dy = y - q.y
            best.offer(dx * dx + dy * dy, rid)

    def visit(state, lst, best: _RefBest, bound: float) -> None:
        child = state.children.get(lst)
        if child is None:
            scan(lst, best)
        else:
            local = _RefBest()
            search(child, local, min(bound, best.d2))
            best.cost += local.cost
            best.offer(local.d2, local.rid)

    def border(state, best: _RefBest, bound: float) -> None:
        shape = state.shape
        nx, ny = shape.divisions_x, shape.divisions_y
        ring = [
            BinCoord(i, j)
            for j in range(ny)
            for i in range(nx)
            if i in (0, nx - 1) or j in (0, ny - 1)
        ]
        seen: list = []
        if state.depth == 0 and not state.children:
            for c in ring:
                lst = state.filled.at(c)
                if not any(lst is s for s in seen):
                    seen.append(lst)
                    scan(lst, best)
            return
        lo_x, lo_y = shape.extents.min.x, shape.extents.min.y

        def gap(v: float, lo: float, k: int, size: float) -> float:
            a, b = lo + k * size, lo + (k + 1) * size
            d = a - v if v < a else (v - b if v > b else 0.0)
            return d * d

        d2s = [
            gap(q.x, lo_x, c.i, shape.bin_width) + gap(q.y, lo_y, c.j, shape.bin_height)
            for c in ring
        ]
        for k in sorted(range(len(ring)), key=d2s.__getitem__):
            if d2s[k] > min(bound, best.d2):
                break
            lst = state.filled.at(ring[k])
            if not any(lst is s for s in seen):
                seen.append(lst)
                visit(state, lst, best, bound)

    def search(state, best: _RefBest, bound: float) -> bool:
        c = resolve_bin(q, state.shape)
        if c is None:
            border(state, best, bound)
            return False
        home = state.filled.at(c)
        if home in state.children:
            visit(state, home, best, bound)
            return False
        scan(home, best)
        r = state.shape.bin_rect(c)
        edge = min(q.x - r.min.x, r.max.x - q.x, q.y - r.min.y, r.max.y - q.y)
        if best.d2 < edge * edge:
            return True
        seen = [home]
        for n in neighborhood(c, state.shape):
            lst = state.filled.at(n)
            if not any(lst is s for s in seen):
                seen.append(lst)
                visit(state, lst, best, bound)
        return False

    best = _RefBest()
    sc = search(root, best, math.inf)
    distance = math.sqrt(best.d2)
    if distance == math.inf:
        x, y = pos[best.rid]
        distance = math.hypot(x - q.x, y - q.y)
    return best.rid, distance, best.cost, sc
