"""Geometry and grid arithmetic shared by the whole library.

Pure functions over immutable values: points, extents, grid shapes, bin
resolution, Chebyshev neighborhoods and the distance helpers used by the
query engine. The metric is squared Euclidean everywhere internally; square
roots are taken only at API boundaries.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

# The coordinate domain: every |x| and |y| is at most this, so the span
# between any two coordinates, and so every box's width and height, is
# finite.
COORD_MAX = sys.float_info.max / 2

# Absolute inflation applied per extents axis narrower than it, so bin sizes
# are never zero (records identical, collinear or a subnormal distance apart).
DEGENERATE_AXIS_EPS = 1e-9
# Relative floor of that inflation: far from the origin eps is below one ulp
# and would round away, so the pad grows with the axis' magnitude. It equals
# eps up to |v| of about 1,100.
DEGENERATE_AXIS_REL = 2.0**-40


@dataclass(frozen=True)
class Point2D:
    """A finite point in world coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates: ({self.x}, {self.y})")


@dataclass(frozen=True)
class Extents:
    """Axis-aligned bounding rectangle, min <= max on both axes."""

    min: Point2D
    max: Point2D

    def __post_init__(self) -> None:
        if self.min.x > self.max.x or self.min.y > self.max.y:
            raise ValueError(f"inverted extents: {self.min} > {self.max}")

    @property
    def width(self) -> float:
        return self.max.x - self.min.x

    @property
    def height(self) -> float:
        return self.max.y - self.min.y

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> Point2D:
        return Point2D((self.min.x + self.max.x) / 2.0, (self.min.y + self.max.y) / 2.0)

    def contains(self, p: Point2D) -> bool:
        """Closed containment: boundary points are inside."""
        return self.min.x <= p.x <= self.max.x and self.min.y <= p.y <= self.max.y

    def scaled(self, factor: float) -> "Extents":
        """Scale about the center by `factor` (used for the 2x query sweep)."""
        cx, cy = (self.min.x + self.max.x) / 2.0, (self.min.y + self.max.y) / 2.0
        hw, hh = self.width * factor / 2.0, self.height * factor / 2.0
        return Extents(Point2D(cx - hw, cy - hh), Point2D(cx + hw, cy + hh))

    def inflated_if_degenerate(self) -> "Extents":
        """Inflate any axis narrower than DEGENERATE_AXIS_EPS by +-pad so grid
        bins are nonzero; pad is that eps or DEGENERATE_AXIS_REL of the axis'
        magnitude, whichever is larger."""
        eps = DEGENERATE_AXIS_EPS
        x0, x1, y0, y1 = self.min.x, self.max.x, self.min.y, self.max.y
        if x1 - x0 < eps:
            pad = max(eps, abs(x0) * DEGENERATE_AXIS_REL, abs(x1) * DEGENERATE_AXIS_REL)
            x0, x1 = x0 - pad, x1 + pad
        if y1 - y0 < eps:
            pad = max(eps, abs(y0) * DEGENERATE_AXIS_REL, abs(y1) * DEGENERATE_AXIS_REL)
            y0, y1 = y0 - pad, y1 + pad
        if (x0, y0) == (self.min.x, self.min.y):
            return self
        return Extents(Point2D(x0, y0), Point2D(x1, y1))


class BinCoord(NamedTuple):
    """Column/row index of one grid bin."""

    i: int
    j: int


@dataclass(frozen=True)
class GridShape:
    """A regular divisions_x by divisions_y grid laid over some extents."""

    divisions_x: int
    divisions_y: int
    extents: Extents

    def __post_init__(self) -> None:
        if self.divisions_x < 1 or self.divisions_y < 1:
            raise ValueError(
                f"divisions must be >= 1, got {self.divisions_x}x{self.divisions_y}"
            )
        if self.extents.width <= 0.0 or self.extents.height <= 0.0:
            # callers inflate degenerate extents before building a shape
            raise ValueError("grid extents must have positive width and height")

    # cached: resolve_bin reads both on every query and every rendered record
    @cached_property
    def bin_width(self) -> float:
        return self.extents.width / self.divisions_x

    @cached_property
    def bin_height(self) -> float:
        return self.extents.height / self.divisions_y

    def bin_rect(self, c: BinCoord) -> Extents:
        """World-coordinate rectangle of bin c: edges at min + k * bin_size,
        except that the last column and row close at the extents' max,
        which min + n * bin_size can fall an ulp short of."""
        bw, bh = self.bin_width, self.bin_height
        ext = self.extents
        x0, y0 = ext.min.x, ext.min.y
        x1 = ext.max.x if c.i == self.divisions_x - 1 else x0 + (c.i + 1) * bw
        y1 = ext.max.y if c.j == self.divisions_y - 1 else y0 + (c.j + 1) * bh
        return Extents(Point2D(x0 + c.i * bw, y0 + c.j * bh), Point2D(x1, y1))


def resolve_bin(p: Point2D, shape: GridShape) -> Optional[BinCoord]:
    """Bin containing p, or None when p is strictly outside the extents.

    Points on the max boundary clamp into the last bin so records at the
    extent corner stay indexable. The result's bin_rect always contains p.
    """
    ext = shape.extents
    if not (ext.min.x <= p.x <= ext.max.x and ext.min.y <= p.y <= ext.max.y):
        return None
    return BinCoord(
        _axis_bin(p.x, ext.min.x, shape.bin_width, shape.divisions_x),
        _axis_bin(p.y, ext.min.y, shape.bin_height, shape.divisions_y),
    )


def _axis_bin(v: float, lo: float, size: float, n: int) -> int:
    """Bin of v along one axis by division, moved one bin when v lies
    strictly outside the edges bin_rect computes (an ulp-scale miss)."""
    k = int((v - lo) / size)
    if k >= n:
        k = n - 1
    if v < lo + k * size:
        k -= 1
    elif k < n - 1 and v > lo + (k + 1) * size:
        k += 1
    return k


def axis_bins(v: np.ndarray, lo: float, size: float, n: int) -> np.ndarray:
    """_axis_bin over an array of in-extents coordinates, same arithmetic."""
    k = np.minimum(((v - lo) / size).astype(np.intp), n - 1)
    below = v < lo + k * size
    above = (k < n - 1) & (v > lo + (k + 1) * size)
    return k - below + above


def neighborhood(c: BinCoord, shape: GridShape) -> list[BinCoord]:
    """In-grid coordinates of the up to 8 bins around c (its Chebyshev ring
    1), as a fresh list in row-major order; c itself is excluded."""
    out: list[BinCoord] = []
    for j in range(c.j - 1, c.j + 2):
        if j < 0 or j >= shape.divisions_y:
            continue
        for i in range(c.i - 1, c.i + 2):
            if 0 <= i < shape.divisions_x and (i != c.i or j != c.j):
                out.append(BinCoord(i, j))
    return out


def dist_sq(a: Point2D, b: Point2D) -> float:
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def default_smallest_dimension(extents: Extents) -> float:
    """Default subdivision size floor for a dataset spanning `extents`.

    diagonal * 1e-6, clamped below by a few multiples of the degeneracy
    inflation epsilon: without the clamp, an all-duplicate dataset (extents
    = the inflated point) would yield a floor smaller than its own inflated
    bin sizes and recursive subdivision would never terminate.
    """
    return max(extents.diagonal * 1e-6, 8.0 * DEGENERATE_AXIS_EPS)


def tight_extents(pts: np.ndarray) -> Extents:
    """Tight bounding box of an (n, 2) array as Python floats, inflated on
    degenerate axes: the box every grid level takes over its own records.

    Raises ValueError for no points, for a box whose width or height is not
    finite (coordinates outside COORD_MAX) and, through Point2D, for a NaN
    or infinite coordinate.
    """
    if len(pts) == 0:
        raise ValueError("bounding box of no points")
    # Python floats: a level's query arithmetic reads these, and numpy
    # scalars would make every operation there a numpy call
    (x0, y0), (x1, y1) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    ext = Extents(Point2D(x0, y0), Point2D(x1, y1))
    if not (math.isfinite(ext.width) and math.isfinite(ext.height)):
        raise ValueError(f"the span of {ext} overflows: coordinates must be within +-COORD_MAX")
    return ext.inflated_if_degenerate()


def segment_extents(xs: np.ndarray, ys: np.ndarray, offsets: np.ndarray) -> list[Extents]:
    """tight_extents of every segment [offsets[k], offsets[k + 1]) of the
    points (xs, ys) at once; offsets ascend from 0 to len(xs) and no segment
    is empty. The segments lie within one box that tight_extents accepted.

    Of equal extremes tight_extents' row-by-row reduction keeps the last, so
    a box edge at zero takes the sign of its segment's last zero on that
    axis; np.minimum.reduceat does not always, so those edges are set from
    the last zero.
    """
    starts = offsets[:-1]
    if not len(starts):
        return []
    edges = []
    for v in (xs, ys):
        last_zero = np.maximum.reduceat(np.where(v == 0.0, np.arange(len(v)), -1), starts)
        for reduce in (np.minimum.reduceat, np.maximum.reduceat):
            edge = reduce(v, starts)
            at_zero = edge == 0.0
            edge[at_zero] = v[last_zero[at_zero]]
            edges.append(edge.tolist())
    x0s, x1s, y0s, y1s = edges
    return [
        Extents(Point2D(x0, y0), Point2D(x1, y1)).inflated_if_degenerate()
        for x0, y0, x1, y1 in zip(x0s, y0s, x1s, y1s)
    ]


def bounding_extents(points) -> Extents:
    """tight_extents of (x, y) pairs: the reference quad tree's node box."""
    return tight_extents(np.array(list(points), dtype=np.float64).reshape(-1, 2))
