"""Test-side geometric reference helpers.

Independent per-cell implementations of the segment and rectangle
intersection rules, used to cross-check the renderers bin by bin. The
arithmetic mirrors the library's bin-edge convention (min + k * size) so
closed-boundary hits evaluate identically on both sides. Also the
hypothesis strategy that probes every bin edge to within an ulp.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from hiergrid import BinCoord, Extents, GridIndex, GridShape, Point2D, PointCollection


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
