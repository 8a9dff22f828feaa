"""Nearest and range query behavior of the flat index (the range tests also
cover the hierarchical index, which answers ranges from its root level)."""
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiergrid import (
    BinCoord,
    BruteForceIndex,
    Extents,
    GridIndex,
    HierConfig,
    HierGridIndex,
    Point2D,
    PointCollection,
    dist_to_bin_boundary,
    gaussian_points,
    oracle_range,
    resolve_bin,
    uniform_points,
)

from brute import grid_and_near_edge_probes


def pc(*pts) -> PointCollection:
    return PointCollection(list(pts))


class TestNearestBasics:
    def test_single_record_outside_extents_costs_one(self):
        idx = GridIndex(pc((5.0, 5.0)), 3, 3)
        res = idx.nearest(Point2D(50.0, 50.0))
        assert res.record == 0
        assert res.distance == pytest.approx(math.hypot(45.0, 45.0))
        assert res.records_examined == 1
        assert not res.short_circuit

    def test_exact_position_hit(self):
        idx = GridIndex(pc((10.0, 10.0), (90.0, 90.0), (50.0, 40.0)), 5, 5)
        res = idx.nearest(Point2D(50.0, 40.0))
        assert res.record == 2
        assert res.distance == 0.0

    def test_midpoint_tie_takes_lowest_id(self):
        idx = GridIndex(pc((40.0, 50.0), (60.0, 50.0), (10.0, 10.0), (90.0, 90.0)), 4, 4)
        res = idx.nearest(Point2D(50.0, 50.0))
        assert res.record == 0
        assert res.distance == 10.0

    def test_distance_equals_metric_to_returned_record(self):
        pts = uniform_points(800, seed=6)
        idx = GridIndex(pts, 9, 9)
        rng = np.random.default_rng(15)
        pos = pts.positions
        for _ in range(100):
            q = Point2D(*(float(v) for v in rng.uniform(-200, 1200, 2)))
            res = idx.nearest(q)
            want = math.hypot(pos[res.record, 0] - q.x, pos[res.record, 1] - q.y)
            assert res.distance == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "make, q",
        [
            (lambda: GridIndex(pc(*[(1e160, 1e160)] * 3), 2, 2), Point2D(5e159, 1e160)),
            (lambda: GridIndex(uniform_points(500, seed=1), 4, 4), Point2D(1e200, 0.0)),
            (
                lambda: HierGridIndex(uniform_points(500, seed=1), 4, 4, HierConfig(1)),
                Point2D(1e200, 0.0),
            ),
            (
                lambda: HierGridIndex(uniform_points(500, seed=1), 2, 2, HierConfig(1)),
                Point2D(-1e200, 1e200),
            ),
        ],
        ids=["flat-duplicates-1e160", "flat-1e200", "hier-4x4-1e200", "hier-2x2-1e200"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_squared_distances_still_return_a_record(self, make, q):
        # every squared distance overflows to inf; the first candidate must
        # still win, ties to the lowest id, at its true distance
        idx = make()
        res = idx.nearest(q)
        pos = idx.source.positions.tolist()
        dist = [math.hypot(x - q.x, y - q.y) for x, y in pos]
        assert res.record == 0
        assert res.distance == dist[0] == min(dist)
        assert math.isfinite(res.distance)

    def test_never_beats_the_oracle(self):
        pts = uniform_points(600, seed=10)
        idx = GridIndex(pts, 8, 8)
        brute = BruteForceIndex(pts)
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = Point2D(*(float(v) for v in rng.uniform(-300, 1300, 2)))
            assert idx.nearest(q).distance >= brute.nearest(q).distance - 1e-12


class TestShortCircuit:
    def test_fires_deep_inside_a_dense_bin(self):
        pts = uniform_points(3000, seed=2)
        idx = GridIndex(pts, 10, 10)
        idx.ensure_built()
        shape = idx.shape
        fired = 0
        for rid in range(200):
            q = Point2D(*(float(v) for v in pts.positions[rid]))
            c = resolve_bin(q, shape)
            res = idx.nearest(q)
            assert res.record == rid or res.distance == 0.0
            if res.short_circuit:
                fired += 1
                # flag implies the home scan alone decided the query
                home = idx.filled.at(c)
                assert res.records_examined == len(home)
                assert res.distance < dist_to_bin_boundary(q, c, shape)
        assert fired > 100  # querying at record positions mostly short-circuits

    def test_short_circuit_results_are_exact(self):
        pts = gaussian_points(2500, seed=5)
        idx = GridIndex(pts, 12, 12)
        brute = BruteForceIndex(pts)
        rng = np.random.default_rng(21)
        ext = idx.shape.extents
        fired = 0
        for _ in range(400):
            q = Point2D(
                float(rng.uniform(ext.min.x, ext.max.x)),
                float(rng.uniform(ext.min.y, ext.max.y)),
            )
            res = idx.nearest(q)
            if res.short_circuit:
                fired += 1
                truth = brute.nearest(q)
                assert res.distance == truth.distance
                assert res.record == truth.record
        assert fired > 0

    def test_query_on_bin_edge_never_short_circuits(self):
        # boundary distance 0 and the test is strict, so the flag stays off
        idx = GridIndex(uniform_points(2000, seed=3), 10, 10)
        idx.ensure_built()
        ext = idx.shape.extents
        x_edge = ext.min.x + 3 * idx.shape.bin_width
        res = idx.nearest(Point2D(x_edge, ext.center.y))
        assert not res.short_circuit


class TestCostAccounting:
    def test_full_scan_cost_is_home_plus_distinct_neighbors(self):
        idx = GridIndex(uniform_points(900, seed=8), 6, 6)
        idx.ensure_built()
        shape = idx.shape
        ext = shape.extents
        # bin-corner queries cannot short-circuit, forcing the 1-ring scan
        from hiergrid import neighborhood

        q = Point2D(ext.min.x + 2 * shape.bin_width, ext.min.y + 3 * shape.bin_height)
        c = resolve_bin(q, shape)
        home = idx.filled.at(c)
        seen = {id(home)}
        want = len(home)
        for nc in neighborhood(c, shape):
            lst = idx.filled.at(nc)
            if id(lst) not in seen:
                seen.add(id(lst))
                want += len(lst)
        res = idx.nearest(q)
        assert not res.short_circuit
        assert res.records_examined == want

    def test_border_scan_cost_counts_distinct_lists_once(self):
        idx = GridIndex(uniform_points(700, seed=9), 7, 7)
        idx.ensure_built()
        shape = idx.shape
        seen = set()
        want = 0
        for j in range(7):
            for i in range(7):
                if i in (0, 6) or j in (0, 6):
                    lst = idx.filled.at(BinCoord(i, j))
                    if id(lst) not in seen:
                        seen.add(id(lst))
                        want += len(lst)
        res = idx.nearest(Point2D(-500.0, -500.0))
        assert res.records_examined == want
        assert not res.short_circuit

    def test_aliased_border_dedup_shrinks_cost(self):
        # all records in the middle: every border bin aliases interior lists
        pts = PointCollection(np.random.default_rng(14).normal(50.0, 1.0, (60, 2)))
        idx = GridIndex(pts, 9, 9)
        res = idx.nearest(Point2D(-100.0, 50.0))
        assert res.records_examined <= 60  # identity dedup: each list once


class TestRangeQuery:
    def test_full_extents_return_everything(self):
        pts = uniform_points(300, seed=4)
        idx = GridIndex(pts, 6, 6)
        ext = idx.shape.extents
        assert idx.range_query(ext) == list(range(300))

    def test_rect_outside_extents_is_empty(self):
        idx = GridIndex(uniform_points(50, seed=4), 4, 4)
        got = idx.range_query(
            Extents(Point2D(-500.0, -500.0), Point2D(-400.0, -400.0))
        )
        assert got == []

    def test_boundary_points_included(self):
        idx = GridIndex(pc((10.0, 10.0), (20.0, 20.0), (30.0, 30.0)), 5, 5)
        got = idx.range_query(Extents(Point2D(10.0, 10.0), Point2D(20.0, 20.0)))
        assert got == [0, 1]

    def test_matches_oracle_on_random_rects(self):
        pts = gaussian_points(1200, seed=13)
        idx = GridIndex(pts, 9, 9)
        idx.ensure_built()
        ext = idx.shape.extents.scaled(2.0)
        rng = np.random.default_rng(17)
        for _ in range(150):
            xs = rng.uniform(ext.min.x, ext.max.x, 2)
            ys = rng.uniform(ext.min.y, ext.max.y, 2)
            rect = Extents(
                Point2D(float(xs.min()), float(ys.min())),
                Point2D(float(xs.max()), float(ys.max())),
            )
            assert idx.range_query(rect) == oracle_range(pts, rect)

    def test_returns_python_ints_strictly_ascending(self):
        pts = gaussian_points(1500, seed=21)
        rng = np.random.default_rng(22)
        for idx in (GridIndex(pts, 9, 9), HierGridIndex(pts, 9, 9, HierConfig(max_bin_records=4))):
            ext = idx.shape.extents
            rects = [ext]
            for _ in range(100):
                x0, x1 = sorted(rng.uniform(ext.min.x, ext.max.x, 2).tolist())
                y0, y1 = sorted(rng.uniform(ext.min.y, ext.max.y, 2).tolist())
                rects.append(Extents(Point2D(x0, y0), Point2D(x1, y1)))
            for rect in rects:
                got = idx.range_query(rect)
                assert all(type(rid) is int for rid in got)
                assert all(a < b for a, b in zip(got, got[1:]))
                assert json.loads(json.dumps(got)) == got
            assert len(idx.range_query(ext)) == 1500

    def test_sees_mutations(self):
        src = pc((10.0, 10.0), (90.0, 90.0))
        idx = GridIndex(src, 4, 4)
        rect = Extents(Point2D(40.0, 40.0), Point2D(60.0, 60.0))
        assert idx.range_query(rect) == []
        src.append(50.0, 50.0)
        assert idx.range_query(rect) == [2]


class TestConcurrentReads:
    def test_parallel_queries_stay_consistent(self):
        pts = uniform_points(1500, seed=19)
        idx = GridIndex(pts, 8, 8)
        brute = BruteForceIndex(pts)
        qs = np.random.default_rng(23).uniform(-200, 1200, (64, 2))
        errors = []

        def worker():
            try:
                for x, y in qs:
                    q = Point2D(float(x), float(y))
                    res = idx.nearest(q)
                    assert 0 <= res.record < 1500
                    assert res.distance >= brute.nearest(q).distance - 1e-12
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestNearEdgeProbes:
    @settings(max_examples=150, deadline=None)
    @given(grid_and_near_edge_probes())
    def test_nearest_never_raises_and_home_rect_holds_the_point(self, grid_probes):
        idx, probes = grid_probes
        shape = idx.shape
        for p in probes:
            idx.nearest(p)
            c = resolve_bin(p, shape)
            if c is not None:
                assert shape.bin_rect(c).contains(p), (p, c)


class TestRangeWindowEdges:
    @settings(max_examples=120, deadline=None)
    @given(grid_and_near_edge_probes(), st.data())
    def test_edges_on_bin_edges_records_and_outside_match_oracle(self, grid_probes, data):
        """Records sit on every bin edge and an ulp either side. Every such
        coordinate bounds rectangles from below, from above and on both
        sides, and random rectangles mix them with coordinates beyond the
        extents, so a window one bin short on either side drops a record."""
        idx, probes = grid_probes
        ext = idx.shape.extents
        corners = [(ext.min.x, ext.min.y), (ext.max.x, ext.max.y)]
        pts = pc(*corners, *((p.x, p.y) for p in probes if ext.contains(p)))
        dx, dy = idx.divisions_x, idx.divisions_y
        indexes = [GridIndex(pts, dx, dy)]
        if dx * dy >= 2:  # a hierarchical grid needs two bins per level
            indexes.append(HierGridIndex(pts, dx, dy, HierConfig(max_bin_records=2)))
        assert indexes[0].shape.extents == ext
        brute = BruteForceIndex(pts)
        out_x = (ext.min.x - ext.width, ext.max.x + ext.width)
        out_y = (ext.min.y - ext.height, ext.max.y + ext.height)
        xs = sorted({p.x for p in probes} | set(out_x))
        ys = sorted({p.y for p in probes} | set(out_y))
        rects = []
        for v in xs:
            rects += [(out_x[0], out_y[0], v, out_y[1]), (v, out_y[0], v, out_y[1])]
            rects.append((v, out_y[0], out_x[1], out_y[1]))
        for v in ys:
            rects += [(out_x[0], out_y[0], out_x[1], v), (out_x[0], v, out_x[1], v)]
            rects.append((out_x[0], v, out_x[1], out_y[1]))
        for _ in range(20):
            x0, x1 = sorted(data.draw(st.lists(st.sampled_from(xs), min_size=2, max_size=2)))
            y0, y1 = sorted(data.draw(st.lists(st.sampled_from(ys), min_size=2, max_size=2)))
            rects.append((x0, y0, x1, y1))
        for x0, y0, x1, y1 in rects:
            rect = Extents(Point2D(x0, y0), Point2D(x1, y1))
            want = brute.range(rect)
            for index in indexes:
                assert index.range_query(rect) == want, (rect, type(index).__name__)
