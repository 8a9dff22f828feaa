"""Geometry and grid arithmetic shared by the whole library.

Pure functions over immutable values: points, extents, grid shapes, bin
resolution, Chebyshev neighborhoods and the distance helpers used by the
query engine. The metric is squared Euclidean everywhere internally; square
roots are taken only at API boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

# Absolute inflation applied per extents axis narrower than it, so bin sizes
# are never zero (records identical, collinear or a subnormal distance apart).
DEGENERATE_AXIS_EPS = 1e-9


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

    def inflated_if_degenerate(self, eps: float = DEGENERATE_AXIS_EPS) -> "Extents":
        """Inflate any axis narrower than eps by +-eps so grid bins are nonzero."""
        x0, x1, y0, y1 = self.min.x, self.max.x, self.min.y, self.max.y
        if x1 - x0 < eps:
            x0, x1 = x0 - eps, x1 + eps
        if y1 - y0 < eps:
            y0, y1 = y0 - eps, y1 + eps
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


def neighborhood(c: BinCoord, n: int, shape: GridShape) -> list[BinCoord]:
    """In-grid coordinates at Chebyshev distance exactly n from c.

    Diagonals count as connected; c itself is excluded; row-major order.
    """
    if n < 1:
        raise ValueError(f"neighborhood ring must be >= 1, got {n}")
    out: list[BinCoord] = []
    for dj in range(-n, n + 1):
        j = c.j + dj
        if j < 0 or j >= shape.divisions_y:
            continue
        for di in range(-n, n + 1):
            if max(abs(di), abs(dj)) != n:
                continue
            i = c.i + di
            if 0 <= i < shape.divisions_x:
                out.append(BinCoord(i, j))
    return out


def bin_center(c: BinCoord, shape: GridShape) -> Point2D:
    ext = shape.extents
    return Point2D(
        ext.min.x + (c.i + 0.5) * shape.bin_width,
        ext.min.y + (c.j + 0.5) * shape.bin_height,
    )


def dist_sq(a: Point2D, b: Point2D) -> float:
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def dist_to_bin_boundary(p: Point2D, c: BinCoord, shape: GridShape) -> float:
    """Minimum perpendicular distance from p to the four edges of bin c."""
    rect = shape.bin_rect(c)
    if not rect.contains(p):
        raise ValueError(f"point {p} is not inside bin {c}")
    return min(p.x - rect.min.x, rect.max.x - p.x, p.y - rect.min.y, rect.max.y - p.y)


def rect_dist_sq(p: Point2D, rect: Extents) -> float:
    """Squared distance from p to the closed rectangle (0 inside)."""
    dx = max(rect.min.x - p.x, 0.0, p.x - rect.max.x)
    dy = max(rect.min.y - p.y, 0.0, p.y - rect.max.y)
    return dx * dx + dy * dy


def default_smallest_dimension(extents: Extents) -> float:
    """Default subdivision size floor for a dataset spanning `extents`.

    diagonal * 1e-6, clamped below by a few multiples of the degeneracy
    inflation epsilon: without the clamp, an all-duplicate dataset (extents
    = the inflated point) would yield a floor smaller than its own inflated
    bin sizes and recursive subdivision would never terminate.
    """
    return max(extents.diagonal * 1e-6, 8.0 * DEGENERATE_AXIS_EPS)


def bounding_extents(points) -> Extents:
    """Tight bounding box of (x, y) pairs, inflated on degenerate axes.

    This is the shared definition of index extents: point collections, the
    proxy sub-source and the reference quad tree derive their rectangles
    from it, and child grid levels take the same min/max box.
    """
    it = iter(points)
    try:
        x, y = next(it)
    except StopIteration:
        raise ValueError("bounding_extents of no points") from None
    min_x = max_x = x
    min_y = max_y = y
    for x, y in it:
        if x < min_x:
            min_x = x
        elif x > max_x:
            max_x = x
        if y < min_y:
            min_y = y
        elif y > max_y:
            max_y = y
    return Extents(Point2D(min_x, min_y), Point2D(max_x, max_y)).inflated_if_degenerate()
