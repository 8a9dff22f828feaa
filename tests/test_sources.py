"""Source contract: point collections, proxies, the version handshake."""
import math

import numpy as np
import pytest

from hiergrid import (
    EmptySourceError,
    Extents,
    GridIndex,
    HierConfig,
    HierGridIndex,
    Point2D,
    PointCollection,
    Record,
    SubGridSource,
    load_points,
    save_points,
)
from hiergrid.geometry import COORD_MAX, tight_extents


def pc(*pts) -> PointCollection:
    return PointCollection(list(pts))


class TestPointCollection:
    def test_fetch_fills_scratch(self):
        src = pc((1.0, 2.0), (3.0, 4.0))
        scratch = src.new_scratch()
        rec = src.fetch(1, scratch)
        assert rec is scratch
        assert rec.position() == (3.0, 4.0)

    def test_fetch_reuses_one_scratch_across_records(self):
        src = pc((1.0, 2.0), (3.0, 4.0), (5.0, 6.0))
        scratch = src.new_scratch()
        seen = [src.fetch(rid, scratch).position() for rid in range(3)]
        assert seen == [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]

    def test_fetch_out_of_range(self):
        src = pc((1.0, 2.0))
        with pytest.raises(IndexError):
            src.fetch(1, src.new_scratch())
        with pytest.raises(IndexError):
            src.fetch(-1, src.new_scratch())

    def test_record_count(self):
        assert pc().record_count == 0
        assert pc((0.0, 0.0), (1.0, 1.0)).record_count == 2

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            PointCollection([(1.0, 2.0, 3.0)])
        with pytest.raises(ValueError):
            PointCollection([(float("nan"), 0.0)])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda src: src.move(1, math.nan, 0.0),
            lambda src: src.move(0, 2.0, -math.inf),
            lambda src: src.append(math.inf, 5.0),
            lambda src: src.append(1.0, math.nan),
        ],
        ids=["move-nan", "move-inf", "append-inf", "append-nan"],
    )
    def test_mutations_reject_non_finite_coordinates(self, mutate):
        """A non-finite coordinate is refused with the constructor's message
        and leaves the points and the version as they were, so indexes over
        the source keep answering."""
        src = pc((1.0, 1.0), (9.0, 9.0), (5.0, 2.0))
        idx = GridIndex(src, 2, 2)
        idx.nearest(Point2D(0.0, 0.0))
        before, version = src.positions.copy(), src.version
        with pytest.raises(ValueError, match="points must be finite"):
            mutate(src)
        assert np.array_equal(src.positions, before)
        assert src.version == version
        assert idx.nearest(Point2D(8.0, 8.0)).record == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_span_overflow_is_rejected_at_the_source(self):
        """|x|, |y| <= COORD_MAX (half the largest float), so no box's width
        or height overflows. This collection's width overflowed to inf:
        numpy warned in axis_bins, and the first nearest raised IndexError
        on flat 4x4 and on 2x2 b=1 indexes. Squared distances at the
        domain's edge still overflow, as over +-1e200."""
        with pytest.raises(ValueError, match="within"):
            PointCollection([(-1e308, 0.0), (1e308, 1.0), (0.0, 0.5)])
        edge = COORD_MAX
        src = pc((-edge, -edge), (edge, edge), (0.0, 0.5))
        for idx in (GridIndex(src, 4, 4), HierGridIndex(src, 2, 2, HierConfig(1))):
            assert idx.nearest(Point2D(0.0, 0.0)).record == 2
            assert idx.shape.extents.width == 2 * edge
        for mutate in (
            lambda: src.append(-1e308, 0.0),
            lambda: src.move(0, 0.0, math.nextafter(edge, math.inf)),
        ):
            with pytest.raises(ValueError, match="within"):
                mutate()
        assert src.record_count == 3 and src.positions[0].tolist() == [-edge, -edge]

    def test_source_whose_span_overflows_is_rejected_at_build(self):
        """A source other than PointCollection is checked where the index
        takes its box: tight_extents rejects a width or height that is not
        finite."""

        class Unchecked(PointCollection):
            def fetch(self, rid, scratch):
                super().fetch(rid, scratch)
                if rid == 0:
                    scratch.x = -1e308
                return scratch

        idx = GridIndex(Unchecked([(0.0, 0.0), (8e307, 1.0)]), 4, 4)
        with pytest.raises(ValueError, match="overflows"):
            idx.nearest(Point2D(0.0, 0.0))
        with pytest.raises(ValueError, match="overflows"):
            tight_extents(np.array([[-1e308, 0.0], [1e308, 1.0]]))

    def test_positions_view_is_read_only(self):
        src = pc((1.0, 2.0))
        with pytest.raises(ValueError):
            src.positions[0, 0] = 9.0

    def test_append_returns_new_id(self):
        src = pc((1.0, 1.0))
        rid = src.append(9.0, 9.0)
        assert rid == 1
        assert src.fetch(rid, src.new_scratch()).position() == (9.0, 9.0)

    def test_remove_shifts_ids_down(self):
        src = pc((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))
        src.remove_at(0)
        assert src.record_count == 2
        assert src.fetch(0, src.new_scratch()).position() == (2.0, 2.0)

    def test_extents_track_mutation(self):
        src = pc((0.0, 0.0), (10.0, 10.0))
        assert src.data_extents.max == Point2D(10.0, 10.0)
        src.append(50.0, -5.0)
        assert src.data_extents.max == Point2D(50.0, 10.0)
        assert src.data_extents.min == Point2D(0.0, -5.0)

    def test_moved_since_lists_the_moved_ids(self):
        src = pc((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))
        start = src.version
        assert src.moved_since(start).tolist() == []
        src.move(2, 5.0, 5.0)
        middle = src.version
        src.move(0, 2.0, 2.0)
        assert src.moved_since(start).tolist() == [0, 2]
        assert src.moved_since(middle).tolist() == [0]
        assert src.moved_since(src.version).tolist() == []

    @pytest.mark.parametrize("reshape", ["append", "remove_at"])
    def test_moved_since_is_unknown_across_an_append_or_remove(self, reshape):
        src = pc((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))
        start = src.version
        src.move(1, 5.0, 5.0)
        if reshape == "append":
            src.append(4.0, 4.0)
        else:
            src.remove_at(0)
        after = src.version
        assert src.moved_since(start) is None
        assert src.moved_since(after).tolist() == []
        src.move(1, 6.0, 6.0)
        assert src.moved_since(after).tolist() == [1]


class TestComputeExtents:
    """data_extents: the tight, degeneracy-inflated box an index grids over."""

    def test_tight_box(self):
        e = pc((1.0, 7.0), (5.0, 2.0), (3.0, 4.0)).data_extents
        assert e == Extents(Point2D(1.0, 2.0), Point2D(5.0, 7.0))

    def test_single_record_inflates(self):
        e = pc((4.0, 4.0)).data_extents
        assert e.width > 0 and e.height > 0
        assert e.center == Point2D(4.0, 4.0)

    def test_empty_source_rejected(self):
        with pytest.raises(EmptySourceError):
            _ = pc().data_extents

    def test_corners_are_python_floats(self):
        # the root level's query arithmetic reads them on every query
        e = PointCollection(np.array([[1.0, 7.0], [5.0, 2.0]])).data_extents
        assert all(type(v) is float for v in (e.min.x, e.min.y, e.max.x, e.max.y))


class TestSubGridSource:
    def test_fetch_remaps_through_ids(self):
        parent = pc((1.0, 1.0), (3.0, 3.0), (5.0, 6.0))
        sub = SubGridSource(parent, [2, 0])
        assert sub.record_count == 2
        assert sub.fetch(0, sub.new_scratch()).position() == (5.0, 6.0)
        assert sub.fetch(1, sub.new_scratch()).position() == (1.0, 1.0)

    def test_to_parent(self):
        parent = pc((1.0, 1.0), (2.0, 2.0))
        sub = SubGridSource(parent, [1])
        assert sub.ids[0] == 1
        assert sub.fetch(0, sub.new_scratch()).position() == (2.0, 2.0)
        assert sub.version == parent.version
        parent.move(1, 3.0, 3.0)
        assert sub.version == parent.version

    def test_fetch_out_of_range(self):
        sub = SubGridSource(pc((1.0, 1.0), (2.0, 2.0)), [0])
        with pytest.raises(IndexError):
            sub.fetch(1, sub.new_scratch())

    def test_proxy_transparency_exhaustive(self):
        rng = np.random.default_rng(9)
        parent = PointCollection(rng.uniform(0, 50, (200, 2)))
        ids = [int(r) for r in rng.choice(200, size=64, replace=False)]
        sub = SubGridSource(parent, ids)
        ps, pp = sub.new_scratch(), parent.new_scratch()
        for local, rid in enumerate(ids):
            assert sub.fetch(local, ps).position() == parent.fetch(rid, pp).position()

    def test_nested_proxies_compose(self):
        parent = pc((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0))
        mid = SubGridSource(parent, [3, 1, 0])
        leaf = SubGridSource(mid, [2, 0])
        assert leaf.fetch(0, leaf.new_scratch()).position() == (0.0, 0.0)
        assert leaf.fetch(1, leaf.new_scratch()).position() == (3.0, 3.0)
        assert mid.ids[leaf.ids[1]] == 3


class TestPointFiles:
    def test_round_trip(self, tmp_path):
        src = pc((1.25, -3.5), (0.1, 0.2), (1e-9, 1e9))
        path = tmp_path / "pts.csv"
        save_points(path, src, header="demo set\nsecond line")
        again = load_points(path)
        assert np.array_equal(again.positions, src.positions)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("# demo set\n# second line\n")

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# header\n\n1.0,2.0\n\n# mid\n3.0,4.0\n", encoding="utf-8")
        got = load_points(path)
        assert got.record_count == 2
        assert got.positions[1].tolist() == [3.0, 4.0]

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nnot points\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.csv:2"):
            load_points(path)

    def test_unparseable_number_reports_location(self, tmp_path):
        # a NaN or an infinity parses as a float, but is reported here with
        # its location, not later by PointCollection
        path = tmp_path / "bad.csv"
        for text, line in [
            ("1.0,zebra\n", 1),
            ("1.0,2.0\nnan,1.0\n", 2),
            ("# header\n1.0,inf\n", 2),
            ("1.0,2.0\n\n3.0,-Infinity\n", 3),
        ]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=rf"bad\.csv:{line}:"):
                load_points(path)

    def test_coordinate_outside_the_domain_reports_location(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1.0,2.0\n-1e308,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"big\.csv:2: coordinates must be within"):
            load_points(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_points(tmp_path / "nope.csv")


class TestRecord:
    def test_scratch_is_mutable_and_reusable(self):
        r = Record()
        r.x, r.y = 7.0, 8.0
        assert r.position() == (7.0, 8.0)
