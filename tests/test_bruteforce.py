"""The reference implementations themselves, checked against hand math.

Everything else in the suite trusts these oracles, so they get their own
direct tests: worked examples, tie rules, and one pinned regression value
on a large fixed-seed set.
"""
import numpy as np
import pytest

from hiergrid import (
    BruteForceIndex,
    EmptySourceError,
    Extents,
    Point2D,
    PointCollection,
    oracle_nearest,
    oracle_quadtree,
    oracle_range,
    uniform_points,
)

from brute import nearest_record


def pc(*pts) -> PointCollection:
    return PointCollection(list(pts))


class TestOracleNearest:
    def test_single_record(self):
        res = oracle_nearest(pc((3.0, 4.0)), Point2D(0.0, 0.0))
        assert res.record == 0
        assert res.distance == 5.0
        assert res.comparisons == 1

    def test_tie_breaks_to_lowest_id(self):
        res = oracle_nearest(pc((0.0, 0.0), (2.0, 0.0)), Point2D(1.0, 0.0))
        assert res.record == 0
        assert res.distance == 1.0

    def test_exact_hit_distance_zero(self):
        res = oracle_nearest(pc((1.0, 1.0), (5.0, 5.0)), Point2D(5.0, 5.0))
        assert res.record == 1
        assert res.distance == 0.0

    def test_empty_source_rejected(self):
        with pytest.raises(EmptySourceError):
            oracle_nearest(pc(), Point2D(0.0, 0.0))

    def test_pinned_large_set_regression(self):
        # frozen output of this oracle on a fixed-seed 5000-point set;
        # any drift in RNG stream, metric or tie rule shows up here
        pts = uniform_points(5000, seed=42)
        res = oracle_nearest(pts, pts.data_extents.center)
        assert res.record == 2380
        assert res.distance == pytest.approx(3.8899090098806894, abs=1e-12)
        assert res.comparisons == 5000

    def test_agrees_with_python_rescan(self):
        rng = np.random.default_rng(31)
        pts = PointCollection(rng.uniform(0, 10, (300, 2)))
        for _ in range(50):
            q = Point2D(*(float(v) for v in rng.uniform(-5, 15, 2)))
            want_d2, want_rid = nearest_record(pts.positions, q)
            got = oracle_nearest(pts, q)
            assert got.record == want_rid
            assert got.distance_sq == want_d2


class TestOracleRange:
    def test_boundaries_are_closed(self):
        src = pc((0.0, 0.0), (5.0, 5.0), (10.0, 10.0), (10.0001, 5.0))
        rect = Extents(Point2D(0.0, 0.0), Point2D(10.0, 10.0))
        assert oracle_range(src, rect) == [0, 1, 2]

    def test_result_ascending(self):
        rng = np.random.default_rng(8)
        src = PointCollection(rng.uniform(0, 100, (500, 2)))
        got = oracle_range(src, Extents(Point2D(20.0, 20.0), Point2D(70.0, 60.0)))
        assert got == sorted(got)
        pos = src.positions
        want = [
            rid
            for rid in range(500)
            if 20.0 <= pos[rid, 0] <= 70.0 and 20.0 <= pos[rid, 1] <= 60.0
        ]
        assert got == want

    def test_empty_region(self):
        src = pc((0.0, 0.0), (10.0, 10.0))
        assert oracle_range(src, Extents(Point2D(4.0, 4.0), Point2D(5.0, 5.0))) == []


class TestOracleQuadtree:
    def test_single_point_single_leaf(self):
        leaves = oracle_quadtree([(4.0, 4.0)], bucket=1)
        assert len(leaves) == 1
        assert leaves[0].ids == (0,)

    def test_four_spread_points_split_once(self):
        pts = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)]
        leaves = oracle_quadtree(pts, bucket=1)
        assert len(leaves) == 4
        assert sorted(l.ids for l in leaves) == [(0,), (1,), (2,), (3,)]
        for leaf in leaves:
            assert leaf.rect.width == 5.0 and leaf.rect.height == 5.0

    def test_four_points_fit_one_bucket(self):
        pts = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)]
        leaves = oracle_quadtree(pts, bucket=4)
        assert sorted(len(l.ids) for l in leaves) == [1, 1, 1, 1]

    def test_coincident_points_terminate(self):
        leaves = oracle_quadtree([(5.0, 5.0)] * 9, bucket=1)
        assert len(leaves) == 1
        assert leaves[0].ids == tuple(range(9))

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            oracle_quadtree([(0.0, 0.0)], bucket=0)
        with pytest.raises(ValueError):
            oracle_quadtree([], bucket=1)

    def test_leaves_partition_ids(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(1, 80))
            pts = [tuple(p) for p in rng.uniform(0, 100, (n, 2))]
            bucket = int(rng.integers(1, 5))
            leaves = oracle_quadtree(pts, bucket)
            ids = sorted(i for l in leaves for i in l.ids)
            assert ids == list(range(n))

    def test_overfull_leaves_only_at_size_floor(self):
        rng = np.random.default_rng(78)
        pts = [tuple(p) for p in rng.uniform(0, 100, (60, 2))]
        pts += [(50.0, 50.0)] * 10  # coincident cluster forces floor stops
        floor = 1e-4
        for leaf in oracle_quadtree(pts, bucket=2, smallest_bin_dimension=floor):
            assert (
                len(leaf.ids) <= 2
                or leaf.rect.width <= floor
                or leaf.rect.height <= floor
            )

    def test_ids_stay_in_their_leaf_rect(self):
        rng = np.random.default_rng(79)
        pts = [tuple(p) for p in rng.uniform(-50, 50, (64, 2))]
        for leaf in oracle_quadtree(pts, bucket=3):
            for rid in leaf.ids:
                assert leaf.rect.contains(Point2D(*pts[rid]))


class TestBruteForceIndex:
    def test_position_accessor(self):
        idx = BruteForceIndex(pc((1.0, 2.0), (3.0, 4.0)))
        assert idx.position(1) == Point2D(3.0, 4.0)
        assert idx.record_count == 2
