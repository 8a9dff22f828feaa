"""Search-cost sweeps: rasterize records_examined over a query lattice.

The lattice spans twice the data extents (same center), so the outer
three quarters of every sweep exercises the out-of-extents border scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bruteforce import BruteForceIndex
from .geometry import Extents, Point2D, dist_sq
from .gridindex import GridIndex

SWEEP_SCALE = 2.0


@dataclass(frozen=True)
class CostField:
    """records_examined sampled on a regular lattice.

    costs[j, i] is the cost at the i-th x and j-th y lattice position;
    row 0 is the minimum-y row. Lattice positions include both sweep
    extent edges (inclusive linspace).
    """

    costs: np.ndarray
    sweep_extents: Extents
    data_extents: Extents
    record_count: int
    spacing_x: float
    spacing_y: float

    @property
    def resolution(self) -> tuple[int, int]:
        return self.costs.shape[1], self.costs.shape[0]


@dataclass(frozen=True)
class SweepStats:
    """Cost summary of one field; interior = samples inside the data
    extents (closed), where the short circuit has a chance to fire."""

    cost_min: int
    cost_max: int
    cost_mean: float
    interior_max: int
    interior_mean: float


def sweep_cost(index: GridIndex, resolution_x: int = 256, resolution_y: int = 256) -> CostField:
    """Query the index at every lattice point and record the cost."""
    if resolution_x < 2 or resolution_y < 2:
        raise ValueError("sweep resolution must be at least 2x2")
    index.ensure_built()
    data_ext = index.shape.extents
    sweep_ext = data_ext.scaled(SWEEP_SCALE)
    xs = np.linspace(sweep_ext.min.x, sweep_ext.max.x, resolution_x)
    ys = np.linspace(sweep_ext.min.y, sweep_ext.max.y, resolution_y)
    costs = np.empty((resolution_y, resolution_x), dtype=np.int64)
    nearest = index.nearest
    for j, y in enumerate(ys):
        row = costs[j]
        for i, x in enumerate(xs):
            row[i] = nearest(Point2D(float(x), float(y))).records_examined
    return CostField(
        costs=costs,
        sweep_extents=sweep_ext,
        data_extents=data_ext,
        record_count=index.source.record_count,
        spacing_x=float(xs[1] - xs[0]),
        spacing_y=float(ys[1] - ys[0]),
    )


def summarize(field: CostField) -> SweepStats:
    """Whole-field and interior-only cost statistics.

    A field whose lattice has no sample inside the data extents reports
    interior_max 0 and interior_mean nan.
    """
    costs = field.costs
    ry, rx = costs.shape
    xs = np.linspace(field.sweep_extents.min.x, field.sweep_extents.max.x, rx)
    ys = np.linspace(field.sweep_extents.min.y, field.sweep_extents.max.y, ry)
    d = field.data_extents
    col_in = (xs >= d.min.x) & (xs <= d.max.x)
    row_in = (ys >= d.min.y) & (ys <= d.max.y)
    mask = row_in[:, None] & col_in[None, :]
    if mask.any():
        interior = costs[mask]
        interior_max = int(interior.max())
        interior_mean = float(interior.mean())
    else:
        interior_max = 0
        interior_mean = math.nan
    return SweepStats(
        cost_min=int(costs.min()),
        cost_max=int(costs.max()),
        cost_mean=float(costs.mean()),
        interior_max=interior_max,
        interior_mean=interior_mean,
    )


def colorize(field: CostField, mode: str = "relative", cap_fraction: float = 0.01) -> np.ndarray:
    """Map a cost field to 8-bit grayscale.

    relative: [field min, field max] -> [0, 255]; a constant field maps to
    all zeros. absolute: [0, cap_fraction * record_count] -> [0, 255],
    clamped above the cap, comparable across configurations.
    """
    costs = field.costs.astype(np.float64)
    if mode == "relative":
        lo = costs.min()
        hi = costs.max()
        if hi == lo:
            return np.zeros(field.costs.shape, dtype=np.uint8)
        scaled = (costs - lo) * (255.0 / (hi - lo))
    elif mode == "absolute":
        if not cap_fraction > 0:
            raise ValueError(f"cap_fraction must be positive, got {cap_fraction}")
        cap = cap_fraction * field.record_count
        scaled = np.minimum(costs, cap) * (255.0 / cap)
    else:
        raise ValueError(f"unknown color mode {mode!r}")
    return np.rint(scaled).astype(np.uint8)


@dataclass(frozen=True)
class MatchReport:
    """Randomized nearest-query battery vs the brute-force scan.

    total queries ran; matched counts results whose distance equals the
    true minimum exactly. sc_fired counts short-circuited results and
    sc_inexact how many of those were wrong (must stay 0: a short circuit
    claims exactness).
    """

    total: int
    matched: int
    sc_fired: int
    sc_inexact: int

    @property
    def match_rate(self) -> float:
        return self.matched / self.total


def match_battery(index: GridIndex, queries: int = 2048, seed: int = 0) -> MatchReport:
    """Query random points over twice the data extents, check against the
    exhaustive scan. Uses its own RNG stream, independent of the lattice."""
    if queries < 1:
        raise ValueError(f"queries must be >= 1, got {queries}")
    index.ensure_built()
    sweep_ext = index.shape.extents.scaled(SWEEP_SCALE)
    rng = np.random.default_rng(seed)
    qs = rng.uniform(
        (sweep_ext.min.x, sweep_ext.min.y), (sweep_ext.max.x, sweep_ext.max.y), size=(queries, 2)
    )
    brute = BruteForceIndex(index.source)
    matched = 0
    sc_fired = 0
    sc_inexact = 0
    for k in range(queries):
        q = Point2D(float(qs[k, 0]), float(qs[k, 1]))
        res = index.nearest(q)
        truth = brute.nearest(q)
        got_d2 = dist_sq(q, brute.position(res.record))
        ok = got_d2 == truth.distance_sq
        if ok:
            matched += 1
        if res.short_circuit:
            sc_fired += 1
            if not ok:
                sc_inexact += 1
    return MatchReport(total=queries, matched=matched, sc_fired=sc_fired, sc_inexact=sc_inexact)


def range_battery(index: GridIndex, count: int, rng: np.random.Generator) -> int:
    """Number of `count` range queries that disagree with the exhaustive
    scan. Each rectangle spans two corners drawn over twice the data
    extents from the caller's generator: two x draws, then two y draws."""
    ext = index.shape.extents.scaled(SWEEP_SCALE)
    brute = BruteForceIndex(index.source)
    bad = 0
    for _ in range(count):
        x0, x1 = sorted(rng.uniform(ext.min.x, ext.max.x, 2).tolist())
        y0, y1 = sorted(rng.uniform(ext.min.y, ext.max.y, 2).tolist())
        rect = Extents(Point2D(x0, y0), Point2D(x1, y1))
        bad += index.range_query(rect) != brute.range(rect)
    return bad
