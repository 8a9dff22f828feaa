"""Nearest and range query behavior of the flat index (the range tests also
cover the hierarchical index, which answers ranges from its root level)."""
import gc
import inspect
import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiergrid import (
    BinCoord,
    DEFAULT_EXTENTS,
    BruteForceIndex,
    Extents,
    GridIndex,
    HierConfig,
    HierGridIndex,
    Point2D,
    PointCollection,
    QueryResult,
    gaussian_points,
    resolve_bin,
    uniform_points,
)

from brute import dist_to_bin_boundary, grid_and_near_edge_probes, reference_nearest


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


class TestQueryResult:
    def test_fields_in_order_with_short_circuit_defaulting_false(self):
        params = inspect.signature(QueryResult).parameters
        assert list(params) == ["record", "distance", "records_examined", "short_circuit"]
        assert [p.default for p in params.values()][1:] == [
            inspect.Parameter.empty, inspect.Parameter.empty, False
        ]
        assert QueryResult(4, 2.0, 9).short_circuit is False

    def test_repr_names_every_field(self):
        r = QueryResult(3, 1.5, 7, True)
        want = "QueryResult(record=3, distance=1.5, records_examined=7, short_circuit=True)"
        assert repr(r) == want

    def test_immutable(self):
        r = QueryResult(3, 1.5, 7)
        for name in ("record", "distance", "records_examined", "short_circuit"):
            with pytest.raises(AttributeError):
                setattr(r, name, 0)

    def test_equal_results_are_equal_and_hash_the_same(self):
        a, b = QueryResult(3, 1.5, 7, True), QueryResult(3, 1.5, 7, True)
        assert a == b and hash(a) == hash(b)
        assert a != QueryResult(3, 1.5, 7, False)
        idx = GridIndex(pc((0.0, 0.0), (4.0, 4.0), (1.0, 3.0)), 2, 2)
        q = Point2D(1.2, 2.9)
        assert idx.nearest(q) == idx.nearest(q)
        assert hash(idx.nearest(q)) == hash(idx.nearest(q))


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

    def test_flat_border_scan_reaches_a_list_behind_a_farther_ring_bin(self):
        # The flat root scans every distinct ring list. Ring bin (1, 2) is
        # empty and gap-filled with the list rendered at (1, 1), so its
        # rectangle (squared distance 146) bounds nothing about record 3
        # (121.002). A visit by ascending ring-bin distance would stop before
        # (1, 2), whose 146 exceeds record 0's 143.81, and return record 0.
        recs = [(0.9, 10.0), (0.0, 0.0), (3.0, 30.0), (1.0001, 15.0), (1.5, 19.99), (0.9, 30.0)]
        idx = GridIndex(pc(*recs), 3, 3)
        assert idx.rendered.at(BinCoord(1, 2)) is None
        assert idx.filled.at(BinCoord(1, 2)) is idx.rendered.at(BinCoord(1, 1))
        assert idx.filled.at(BinCoord(1, 2)).ids == [3, 4]
        q = Point2D(-10.0, 15.0)
        res = idx.nearest(q)
        want = BruteForceIndex(pc(*recs)).nearest(q)
        assert (res.record, res.distance) == (want.record, want.distance) == (3, 11.0001)
        assert res.records_examined == 6


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
        """Random rectangles over twice the extents, plus small ones inside
        them, against the oracle, on flat and hierarchical indexes. The
        sparse clustered data leaves most bins empty, so the windows include
        every case a window row can meet: windows of three or more rows,
        rows whose first and last bins are empty, and windows of empty bins
        only."""
        rng = np.random.default_rng(5)
        centers = rng.uniform(0.0, 1000.0, (6, 2))
        data = {
            "gaussian": gaussian_points(1200, seed=13),
            "clustered": PointCollection(
                np.vstack([c + rng.normal(0.0, 6.0, (40, 2)) for c in centers])
            ),
        }
        for name, pts in data.items():
            brute = BruteForceIndex(pts)
            for idx in (GridIndex(pts, 9, 9), HierGridIndex(pts, 9, 9, HierConfig(8))):
                case = (name, type(idx).__name__)
                tall, edged, empty = self._check_random_rects(idx, brute, case)
                assert tall and edged, case
                if name == "clustered":
                    assert empty, case

    @staticmethod
    def _check_random_rects(idx, brute, case) -> tuple[int, int, int]:
        """Check 300 rectangles against the oracle; count the windows of 3+
        rows, those with a row whose first and last bins are empty, and
        those of empty bins only."""
        shape = idx.shape
        ext = shape.extents
        wide = ext.scaled(2.0)
        rng = np.random.default_rng(17)
        corners = [
            (rng.uniform(wide.min.x, wide.max.x, 2), rng.uniform(wide.min.y, wide.max.y, 2))
            for _ in range(150)
        ]
        for _ in range(150):
            x, y = rng.uniform((ext.min.x, ext.min.y), (ext.max.x, ext.max.y))
            w, h = rng.uniform(0.0, 0.3, 2) * (ext.width, ext.height)
            corners.append((np.array([x, x + w]), np.array([y, y + h])))
        rendered = idx.rendered

        def empty_bin(i, j):
            return rendered.at(BinCoord(i, j)) is None

        tall = edged = empty = 0
        for xs, ys in corners:
            rect = Extents(
                Point2D(float(xs.min()), float(ys.min())),
                Point2D(float(xs.max()), float(ys.max())),
            )
            assert idx.range_query(rect) == brute.range(rect), (case, rect)
            lo = resolve_bin(
                Point2D(max(rect.min.x, ext.min.x), max(rect.min.y, ext.min.y)), shape
            )
            hi = resolve_bin(
                Point2D(min(rect.max.x, ext.max.x), min(rect.max.y, ext.max.y)), shape
            )
            if lo is None or hi is None:
                continue  # no window: the rectangle misses the extents
            rows = range(lo.j, hi.j + 1)
            tall += len(rows) >= 3
            edged += any(empty_bin(lo.i, j) and empty_bin(hi.i, j) for j in rows)
            empty += all(empty_bin(i, j) for j in rows for i in range(lo.i, hi.i + 1))
        return tall, edged, empty

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


class TestCollectionShare:
    def test_range_calls_take_no_more_than_their_share_of_gen0_collections(self):
        """CPython's young-generation collections fire in whichever call
        pushes the count of live container objects over the threshold.
        Results stay alive, so every call adds to the count; a call that
        also builds transient containers is more likely to cross it. Once
        nearest queries stopped building coordinate tuples and neighbor
        lists, a range query that still gathered its bins into Python lists
        caught over a third of the collections at a tenth of the calls, and
        the benchmark read that as range tail latency.

        The stream mirrors the flat benchmark's: 50k uniform points in a
        32x32 grid, 90% nearest queries (a quarter of them uniform over
        twice the extents) and 10% range squares of side 2% of the width,
        with each pass's latencies and answers kept.
        """
        pts = uniform_points(50_000, seed=42)
        idx = GridIndex(pts, 32, 32)
        idx.ensure_built()
        rng = np.random.default_rng([42, 1])
        m = 4000
        ext = DEFAULT_EXTENTS
        wide = pts.data_extents.scaled(2.0)
        is_range = (rng.random(m) < 0.1).tolist()
        qs = rng.uniform((ext.min.x, ext.min.y), (ext.max.x, ext.max.y), (m, 2))
        far = rng.uniform((wide.min.x, wide.min.y), (wide.max.x, wide.max.y), (m, 2))
        pick = rng.random(m) < 0.25
        qs[pick] = far[pick]
        half = 0.01 * ext.width
        centers = rng.uniform((ext.min.x, ext.min.y), (ext.max.x, ext.max.y), (m, 2)).tolist()
        ops = [
            (r, Extents(Point2D(x - half, y - half), Point2D(x + half, y + half)))
            if r
            else (r, Point2D(qx, qy))
            for r, (qx, qy), (x, y) in zip(is_range, qs.tolist(), centers)
        ]
        in_range = [False]
        collections = {False: 0, True: 0}

        def on_gc(phase, info):
            if phase == "start" and info["generation"] == 0:
                collections[in_range[0]] += 1

        kept = []
        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            for _ in range(10):
                lat, out = [], []
                for r, arg in ops:
                    in_range[0] = r
                    t0 = time.perf_counter()
                    res = idx.range_query(arg) if r else idx.nearest(arg)
                    lat.append(time.perf_counter() - t0)
                    in_range[0] = False
                    out.append(res)
                kept.append((lat, out))
        finally:
            gc.callbacks.remove(on_gc)
        total = collections[False] + collections[True]
        assert total >= 20  # enough collections for a share to mean something
        assert collections[True] / total <= sum(is_range) / m, collections


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


@st.composite
def _search_cases(draw):
    """A small point set (lattice with ties, collinear run or scattered
    floats, each with duplicates), a layout from 1x1 to 5x5 that is flat or
    hierarchical with b in {1, 2, 3}, and queries on records, on the root's
    bin edges, inside and outside its box."""
    kind = draw(st.sampled_from(["lattice", "collinear", "scattered"]))
    n = draw(st.integers(1, 30))
    if kind == "lattice":
        pts = [(float(x), float(y)) for x, y in draw(
            st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=n, max_size=n)
        )]
    elif kind == "collinear":
        x0, y0 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        sx, sy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]))
        ts = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        pts = [(float(x0 + t * sx), float(y0 + t * sy)) for t in ts]
    else:
        coord = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        pts += draw(st.lists(st.sampled_from(pts), max_size=5))  # duplicates
    dx, dy = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    b = draw(st.sampled_from([None, 1, 2, 3] if dx * dy >= 2 else [None]))
    src = PointCollection(pts)
    if b is None:
        index = GridIndex(src, dx, dy)
    else:
        index = HierGridIndex(src, dx, dy, HierConfig(max_bin_records=b))
    shape = index.shape
    ext = shape.extents
    w, h = max(ext.width, 1.0), max(ext.height, 1.0)
    xs = [ext.min.x + k * shape.bin_width for k in range(dx)] + [ext.max.x]
    ys = [ext.min.y + k * shape.bin_height for k in range(dy)] + [ext.max.y]
    xs += [ext.min.x - w, ext.max.x + w, ext.min.x - 0.25 * w, ext.max.x + 3.0]
    ys += [ext.min.y - h, ext.max.y + h, ext.min.y - 0.25 * h, ext.max.y + 3.0]
    queries = [Point2D(x, y) for x, y in draw(st.lists(st.sampled_from(pts), max_size=4))]
    for _ in range(draw(st.integers(8, 16))):
        queries.append(Point2D(draw(st.sampled_from(xs)), draw(st.sampled_from(ys))))
    frac = st.floats(-1.0, 2.0)
    for _ in range(draw(st.integers(0, 6))):
        queries.append(
            Point2D(ext.min.x + draw(frac) * ext.width, ext.min.y + draw(frac) * ext.height)
        )
    return index, queries


class TestSearchMatchesReference:
    @settings(max_examples=250, deadline=None)
    @given(_search_cases())
    def test_record_distance_cost_and_short_circuit_match(self, case):
        """The level search keeps one running best for the whole query;
        the reference keeps one per level and passes bounds down. Every
        answer, cost and short-circuit flag must agree."""
        index, queries = case
        for q in queries:
            got = index.nearest(q)
            want = reference_nearest(index, q)
            assert (got.record, got.distance, got.records_examined, got.short_circuit) == want, q
