"""Acceptance gate: one test per published criterion, at stated tolerance.

Each test prints one `ACCEPTANCE Cn ... PASS/FAIL` line with the measured
numbers (visible with -s or -rA; the -v test lines mirror the verdicts).
Criterion thresholds are hard: nothing here is loosened to fit measured
behavior. Where a published bound only holds under a stated condition, it
is checked on data that meets the condition, and the general case is
checked against the ceiling the documented query actually has:

- C1: the flat query scans its home bin and, when the short circuit
  misses, the 8 bins around it, so its true ceiling is the record count
  of the 3x3 window around the home bin. The bound 9n/(x*y) equals that
  ceiling only when every bin holds exactly n/(x*y) records; on random
  data some window always holds more (482 vs 450 at seed 42). C1 checks
  the window ceiling on random data and 9n/(x*y) on evenly occupied data.
- C3: the hierarchical half (finer layouts never beat 2x2 at
  max_bin_records=1) is an open reproduction question, not a bound
  loosened to fit, and it still fails; see that test's docstring.
"""
import math

import numpy as np
import pytest

from hiergrid import (
    Extents,
    GridIndex,
    GridShape,
    HierConfig,
    HierGridIndex,
    Point2D,
    PointCollection,
    RenderedGrid,
    match_battery,
    neighborhood,
    oracle_quadtree,
    range_battery,
    resolve_bin,
    summarize,
    sweep_cost,
    uniform_points,
    gaussian_points,
)
from hiergrid.cli import main

from brute import rect_cells, segment_cells

SEED = 42
N = 5000
DIVISIONS = 10
SWEEP_RES = 256
MEAN_IDEAL = N / (DIVISIONS * DIVISIONS)  # 50
EVEN_PER_BIN = 50
EVEN_CELL = 100.0


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def sweep(idx: GridIndex):
    return sweep_cost(idx, SWEEP_RES, SWEEP_RES)


def interior_samples(field):
    """(lattice point, cost) for every sample summarize() counts as interior."""
    ry, rx = field.costs.shape
    se, d = field.sweep_extents, field.data_extents
    xs = np.linspace(se.min.x, se.max.x, rx)
    ys = np.linspace(se.min.y, se.max.y, ry)
    for j, y in enumerate(ys):
        if not d.min.y <= y <= d.max.y:
            continue
        for i, x in enumerate(xs):
            if d.min.x <= x <= d.max.x:
                yield Point2D(float(x), float(y)), int(field.costs[j, i])


def window_records(idx: GridIndex, c) -> int:
    """Records in the 3x3 window of filled bins around c.

    Gap-filled bins share their lists with occupied ones, so lists are
    deduplicated by identity, as the flat query does before scanning.
    """
    window = [idx.filled.at(b) for b in [c, *neighborhood(c, 1, idx.shape)]]
    return sum(len(lst) for lst in {id(lst): lst for lst in window}.values())


def even_points() -> PointCollection:
    """EVEN_PER_BIN records in each cell of a DIVISIONS^2 lattice over
    [0, 1000]^2: one at each of the corners (0, 0) and (1000, 1000), so the
    index's bin edges fall on the lattice, and every other one strictly
    inside its cell. The corner records count toward their cells' share;
    an extra record there would make the windows touching them hold 451.
    """
    rng = np.random.default_rng(SEED)
    side = DIVISIONS * EVEN_CELL
    cells = np.array(
        [(i * EVEN_CELL, j * EVEN_CELL) for j in range(DIVISIONS) for i in range(DIVISIONS)]
    )
    offsets = rng.uniform(1.0, EVEN_CELL - 1.0, (len(cells), EVEN_PER_BIN, 2))
    pts = cells[:, None, :] + offsets
    pts[0, 0] = (0.0, 0.0)
    pts[-1, 0] = (side, side)
    return PointCollection(pts.reshape(-1, 2))


@pytest.fixture(scope="module")
def flat_run():
    idx = GridIndex(uniform_points(N, seed=SEED), DIVISIONS, DIVISIONS)
    return idx, sweep(idx)


@pytest.fixture(scope="module")
def flat_stats(flat_run):
    return summarize(flat_run[1])


class TestAcceptance:
    def test_c1_interior_max_within_even_occupancy_bound(self, flat_run, flat_stats):
        """The interior worst case stays within the query's neighborhood.

        Random data: every interior sample costs at most the records in its
        home bin's 3x3 window. Even occupancy (every bin holds n/(x*y)):
        the interior max is at most 9n/(x*y), the bound as published.
        """
        idx, field = flat_run
        ceilings = {}
        samples = at = over = 0
        for p, cost in interior_samples(field):
            c = resolve_bin(p, idx.shape)
            if c not in ceilings:
                ceilings[c] = window_records(idx, c)
            samples += 1
            at += cost == ceilings[c]
            over += cost > ceilings[c]
        largest_window = max(ceilings.values())

        even = GridIndex(even_points(), DIVISIONS, DIVISIONS)
        even_max = summarize(sweep(even)).interior_max
        bound = 9 * even.source.record_count // (DIVISIONS * DIVISIONS)

        ok = over == 0 and even_max <= bound
        report(
            "C1 interior max <= 3x3 window; even occupancy <= 9n/(x*y)",
            ok,
            f"flat {DIVISIONS}x{DIVISIONS}, uniform n={N}, seed={SEED}: measured "
            f"{flat_stats.interior_max}, largest 3x3 window {largest_window}; of "
            f"{samples} samples {at} at and {over} over their window; even occupancy "
            f"n={even.source.record_count}: measured {even_max}, bound {bound}",
        )
        assert over == 0, (
            f"{over} interior samples examined more records than their home "
            f"bin's 3x3 window holds; the flat query scans no further"
        )
        assert even_max <= bound, (
            f"interior max {even_max} exceeds 9n/(x*y) = {bound} on evenly "
            f"occupied data, where every 3x3 window holds at most that many"
        )

    def test_c2_interior_mean_within_factor_four_of_ideal(self, flat_stats):
        lo, hi = MEAN_IDEAL / 4, MEAN_IDEAL * 4
        ok = lo <= flat_stats.interior_mean <= hi
        report(
            "C2 interior mean within 4x of n/(x*y)",
            ok,
            f"measured {flat_stats.interior_mean:.2f}, window [{lo}, {hi}]",
        )
        assert ok

    def test_c3_finer_divisions_never_beat_coarsest_interior_max(self):
        """Finer divisions cost no more in the worst interior case.

        Flat: each finer grid's interior max is at most the next coarser
        grid's (5000 > 2881 > 749 > 203 at seed 42). Comparing with 2x2
        alone could not fail: its interior max is always n, since every
        query that misses the short circuit scans all four bins.

        Hierarchical, max_bin_records=1: no finer layout's interior max
        exceeds the 2x2 tree's. This still fails, and is left as it is
        while the question it asks is open. Every leaf holds one record; a
        2x2 layer consults at most 3 neighbor bins, a 4x4 or finer one up
        to 8, so the 2x2 quad tree's worst case (7 single-record scans, 9
        layers deep) undercuts 4x4 (10) and 8x8 (9). The outcome depends on
        the bucket size and on the statistic (at b=8 every finer layout
        wins on interior mean), and the paper names neither.
        """
        pts = uniform_points(N, seed=SEED)
        ladder = (2, 4, 8, 16)
        maxima = {}
        for mode in ("flat", "hier"):
            for d in ladder:
                src = PointCollection(pts.positions.copy())
                if mode == "hier":
                    idx = HierGridIndex(src, d, d, HierConfig(max_bin_records=1))
                else:
                    idx = GridIndex(src, d, d)
                maxima[mode, d] = summarize(sweep(idx)).interior_max
        flat_failures = [
            f"flat {d}x{d}: {maxima['flat', d]} > {c}x{c}'s {maxima['flat', c]}"
            for c, d in zip(ladder, ladder[1:])
            if maxima["flat", d] > maxima["flat", c]
        ]
        hier_failures = [
            f"hier {d}x{d}: {maxima['hier', d]} > 2x2's {maxima['hier', 2]}"
            for d in ladder[1:]
            if maxima["hier", d] > maxima["hier", 2]
        ]
        ok = not flat_failures and not hier_failures
        report(
            "C3 interior max: flat ladder monotone, hier never above 2x2",
            ok,
            "; ".join(
                [
                    mode + " " + ", ".join(f"{d}x{d} {maxima[mode, d]}" for d in ladder)
                    for mode in ("flat", "hier")
                ]
                + flat_failures
                + hier_failures
            ),
        )
        assert not flat_failures, (
            "a finer flat grid examined more records in the interior worst "
            "case than the next coarser one: " + "; ".join(flat_failures)
        )
        assert not hier_failures, (
            "open question, not a loosened bound: at max_bin_records=1 every "
            "leaf holds one record, and a 2x2 layer consults at most 3 "
            "neighbor bins while a 4x4 or finer layer consults up to 8, so the "
            "2x2 quad tree's interior worst case undercuts the finer layouts. "
            "The paper's 'more divisions per layer' claim names no bucket size "
            "or statistic, and changing either to pass would only hide the "
            "gap: " + "; ".join(hier_failures)
        )

    def test_c4_hierarchical_full_sweep_stays_cheap(self):
        idx = HierGridIndex(
            uniform_points(N, seed=SEED), DIVISIONS, DIVISIONS, HierConfig(max_bin_records=1)
        )
        stats = summarize(sweep_cost(idx, SWEEP_RES, SWEEP_RES))
        ok = stats.cost_max < 50
        report(
            "C4 hier max_bin_records=1 full-sweep max < 50",
            ok,
            f"measured {stats.cost_max} over the full {SWEEP_RES}x{SWEEP_RES} lattice",
        )
        assert ok

    def test_c5_query_battery_totality_and_short_circuit_exactness(self):
        per_config = 2600
        configs = []
        for make_pts, ds in ((uniform_points, "uniform"), (gaussian_points, "gaussian")):
            configs.append((GridIndex(make_pts(N, seed=SEED), 10, 10), f"flat/{ds}"))
            configs.append(
                (
                    HierGridIndex(
                        make_pts(N, seed=SEED), 10, 10, HierConfig(max_bin_records=1)
                    ),
                    f"hier/{ds}",
                )
            )
        total = 0
        sc_bad = 0
        rates = []
        for idx, name in configs:
            rep = match_battery(idx, queries=per_config, seed=SEED + 1)
            total += rep.total
            sc_bad += rep.sc_inexact
            rates.append(f"{name} rate={rep.match_rate:.4f} sc={rep.sc_fired}")
        ok = total >= 10000 and sc_bad == 0
        report(
            "C5 nearest battery: totality + short-circuit exactness",
            ok,
            f"{total} query pairs; inexact short circuits {sc_bad}; " + "; ".join(rates),
        )
        assert total >= 10000
        assert sc_bad == 0

    def test_c6_two_by_two_leaves_equal_reference_quadtree(self):
        rng = np.random.default_rng(4242)
        sets = 110
        bad = 0
        for _ in range(sets):
            n = int(rng.integers(1, 65))
            pts = rng.uniform(0, 100, (n, 2))
            bucket = int(rng.integers(1, 5))
            idx = HierGridIndex(
                PointCollection(pts), 2, 2, HierConfig(max_bin_records=bucket)
            )
            got = sorted(
                (r.min.x, r.min.y, r.max.x, r.max.y, ids)
                for r, ids in idx.leaf_occupancies()
            )
            want = sorted(
                (l.rect.min.x, l.rect.min.y, l.rect.max.x, l.rect.max.y, l.ids)
                for l in oracle_quadtree([tuple(p) for p in pts], bucket)
            )
            if got != want:
                bad += 1
        ok = bad == 0
        report(
            "C6 hier 2x2 leaves == reference quad tree",
            ok,
            f"{sets} point sets (<=64 records), mismatches {bad}",
        )
        assert ok

    def test_c7_range_queries_match_oracle(self):
        pts = uniform_points(N, seed=SEED)
        indexes = [
            GridIndex(pts, 10, 10),
            HierGridIndex(
                PointCollection(pts.positions.copy()), 10, 10, HierConfig(max_bin_records=1)
            ),
        ]
        rng = np.random.default_rng(SEED + 7)
        ran = 520 * len(indexes)
        bad = sum(range_battery(idx, 520, rng) for idx in indexes)
        ok = ran >= 1000 and bad == 0
        report("C7 range queries == oracle", ok, f"{ran} rectangles, mismatches {bad}")
        assert ran >= 1000
        assert bad == 0

    def test_c8_cli_outputs_are_byte_identical_across_runs(self, tmp_path):
        argsets = [
            ["generate", "--n", "200", "--seed", "5", "--out", "pts.csv"],
            [
                "sweep", "--n", "300", "--seed", "5", "--divisions", "6x6",
                "--sweep-resolution", "24x24", "--out", "sw",
            ],
            [
                "compare", "--n", "250", "--seed", "5", "--divisions", "2x2,4x4",
                "--sweep-resolution", "12x12", "--out", "cmp",
            ],
        ]
        snapshots = []
        for run in ("one", "two"):
            d = tmp_path / run
            d.mkdir()
            import os

            cwd = os.getcwd()
            os.chdir(d)
            try:
                for argv in argsets:
                    assert main(argv) == 0
            finally:
                os.chdir(cwd)
            snapshots.append(
                {p.name: p.read_bytes() for p in sorted(d.iterdir())}
            )
        ok = snapshots[0] == snapshots[1]
        names = sorted(snapshots[0])
        report(
            "C8 CLI determinism",
            ok,
            f"{len(names)} artifacts byte-compared: {', '.join(names)}",
        )
        assert sorted(snapshots[0]) == sorted(snapshots[1])
        assert ok

    def test_c9_render_primitives_match_per_cell_oracle(self):
        rng = np.random.default_rng(777)
        ext = Extents(Point2D(0.0, 0.0), Point2D(100.0, 100.0))
        segs = 520
        rects = 520
        bad = 0
        for k in range(segs + rects):
            shape = GridShape(int(rng.integers(1, 33)), int(rng.integers(1, 33)), ext)
            grid = RenderedGrid(shape)
            coords = rng.uniform(0, 100, 4)
            if k < segs:
                a = Point2D(float(coords[0]), float(coords[1]))
                b = Point2D(float(coords[2]), float(coords[3]))
                grid.render_line(0, a, b)
                want = segment_cells(a, b, shape)
            else:
                xs = sorted((float(coords[0]), float(coords[2])))
                ys = sorted((float(coords[1]), float(coords[3])))
                rect = Extents(Point2D(xs[0], ys[0]), Point2D(xs[1], ys[1]))
                grid.render_area(0, rect)
                want = rect_cells(rect, shape)
            if set(grid.registry.values()) != want:
                bad += 1
        ok = bad == 0
        report(
            "C9 line/area rendering == closed intersection oracle",
            ok,
            f"{segs} segments + {rects} rectangles on grids up to 32x32, mismatches {bad}",
        )
        assert ok
