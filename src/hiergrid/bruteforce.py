"""Brute-force reference implementations.

Ground truth for every correctness and cost claim the index makes: linear
nearest scan, closed-rectangle range filter, and a directly recursive
bucketing quad tree. These share the library's metric and tie-break rule
(squared Euclidean, lowest id wins) so "exact match" is well-defined
record-for-record, but none of the grid machinery: no rendering, no
registry, no gap fill, no proxies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    BinCoord,
    Extents,
    GridShape,
    Point2D,
    bounding_extents,
    default_smallest_dimension,
    resolve_bin,
)
from .sources import EmptySourceError, IndexableSource, RecordId


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one brute-force nearest scan."""

    record: RecordId
    distance: float
    comparisons: int
    distance_sq: float


class BruteForceIndex:
    """Linear-scan 'index' over a source's positions.

    Positions are pulled once through the fetch contract; queries are plain
    full scans. Intentionally unoptimized beyond vectorization.
    """

    def __init__(self, source: IndexableSource) -> None:
        n = source.record_count
        xs = np.empty(n, dtype=np.float64)
        ys = np.empty(n, dtype=np.float64)
        scratch = source.new_scratch()
        for rid in range(n):
            rec = source.fetch(rid, scratch)
            xs[rid] = rec.x
            ys[rid] = rec.y
        self._xs = xs
        self._ys = ys

    @property
    def record_count(self) -> int:
        return len(self._xs)

    def position(self, rid: RecordId) -> Point2D:
        return Point2D(float(self._xs[rid]), float(self._ys[rid]))

    def nearest(self, q: Point2D) -> OracleResult:
        if len(self._xs) == 0:
            raise EmptySourceError("nearest on an empty source")
        dx = self._xs - q.x
        dy = self._ys - q.y
        d2 = dx * dx + dy * dy
        m = d2.min()
        rid = int(np.flatnonzero(d2 == m)[0])  # ties: lowest id
        return OracleResult(rid, math.sqrt(m), len(self._xs), float(m))

    def range(self, rect: Extents) -> list[RecordId]:
        hit = (
            (self._xs >= rect.min.x)
            & (self._xs <= rect.max.x)
            & (self._ys >= rect.min.y)
            & (self._ys <= rect.max.y)
        )
        return [int(i) for i in np.flatnonzero(hit)]


def oracle_nearest(source: IndexableSource, q: Point2D) -> OracleResult:
    """Exact nearest record by linear scan; ties to the lowest id."""
    return BruteForceIndex(source).nearest(q)


def oracle_range(source: IndexableSource, rect: Extents) -> list[RecordId]:
    """Record ids whose positions lie in the closed rectangle, ascending."""
    return BruteForceIndex(source).range(rect)


class QuadLeaf(NamedTuple):
    """One leaf of the reference bucketing quad tree."""

    rect: Extents
    ids: tuple[int, ...]


def oracle_quadtree(
    points: Sequence[tuple[float, float]],
    bucket: int,
    smallest_bin_dimension: float | None = None,
) -> list[QuadLeaf]:
    """Reference bucketing quad tree, built by direct recursion.

    Decomposition definition: a node over a set of points spans the set's
    tight (degeneracy-inflated) bounding box; if the node holds more than
    `bucket` points and both half-dimensions of that box exceed the size
    floor, the box splits 2x2 at its center and the points recurse into
    quadrants; otherwise the node is a leaf. Quadrant membership follows
    resolve_bin (max boundary clamps inward), and each recursive level
    re-tightens to its own subset's box, mirroring how child grid
    levels recompute their extents. Leaves are (quadrant rectangle, ids) in
    deterministic row-major order; empty quadrants produce no leaf.
    """
    if len(points) == 0:
        raise ValueError("oracle_quadtree of no points")
    if bucket < 1:
        raise ValueError(f"bucket must be >= 1, got {bucket}")
    pts = [(float(x), float(y)) for x, y in points]
    floor = smallest_bin_dimension
    if floor is None:
        floor = default_smallest_dimension(bounding_extents(pts))
    if floor <= 0.0:
        raise ValueError("smallest_bin_dimension must be > 0")

    leaves: list[QuadLeaf] = []

    def build(ids: list[int]) -> None:
        ext = bounding_extents((pts[k] for k in ids))
        shape = GridShape(2, 2, ext)
        cells: dict[BinCoord, list[int]] = {}
        for k in ids:
            c = resolve_bin(Point2D(pts[k][0], pts[k][1]), shape)
            assert c is not None  # points are inside their own bounding box
            cells.setdefault(c, []).append(k)
        can_split = shape.bin_width > floor and shape.bin_height > floor
        for j in range(2):
            for i in range(2):
                sub = cells.get(BinCoord(i, j))
                if not sub:
                    continue
                if len(sub) > bucket and can_split:
                    build(sub)
                else:
                    leaves.append(QuadLeaf(shape.bin_rect(BinCoord(i, j)), tuple(sub)))

    build(list(range(len(pts))))
    return leaves
