"""Rebuild pipeline, renderers and gap fill of the flat grid index."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiergrid import (
    BinCoord,
    EmptySourceError,
    Extents,
    GridIndex,
    GridShape,
    OutsideExtentsError,
    Point2D,
    PointCollection,
    RenderedGrid,
    bin_center,
    resolve_bin,
    uniform_points,
)

from brute import nearest_record, rect_cells, segment_cells

UNIT = Extents(Point2D(0.0, 0.0), Point2D(100.0, 100.0))
SHAPE10 = GridShape(10, 10, UNIT)


def pc(*pts) -> PointCollection:
    return PointCollection(list(pts))


def grid_cells(rendered: RenderedGrid) -> set[BinCoord]:
    return set(rendered.registry.values())


class TestRebuild:
    def test_single_record_fills_everything(self):
        idx = GridIndex(pc((5.0, 5.0)), 3, 3)
        idx.ensure_built()
        assert len(idx.rendered.registry) == 1
        present = list(idx.rendered.present_coords())
        assert len(present) == 1
        only = idx.rendered.at(present[0])
        for j in range(3):
            for i in range(3):
                assert idx.filled.at(BinCoord(i, j)) is only

    def test_four_quadrant_records(self):
        idx = GridIndex(pc((10.0, 10.0), (90.0, 10.0), (10.0, 90.0), (90.0, 90.0)), 2, 2)
        idx.ensure_built()
        assert len(idx.rendered.registry) == 4
        assert idx.rendered.at(BinCoord(0, 0)).ids == [0]
        assert idx.rendered.at(BinCoord(1, 0)).ids == [1]
        assert idx.rendered.at(BinCoord(0, 1)).ids == [2]
        assert idx.rendered.at(BinCoord(1, 1)).ids == [3]
        for j in range(2):
            for i in range(2):
                assert idx.filled.at(BinCoord(i, j)) is idx.rendered.at(BinCoord(i, j))

    def test_empty_source_rejected(self):
        idx = GridIndex(pc(), 4, 4)
        with pytest.raises(EmptySourceError):
            idx.nearest(Point2D(0.0, 0.0))

    def test_divisions_validated(self):
        with pytest.raises(ValueError):
            GridIndex(pc((0.0, 0.0)), 0, 5)

    def test_grid_extents_match_data(self):
        idx = GridIndex(pc((10.0, 20.0), (60.0, 80.0)), 5, 5)
        ext = idx.shape.extents
        assert ext == Extents(Point2D(10.0, 20.0), Point2D(60.0, 80.0))

    def test_bin_counts_match_direct_assignment(self):
        pts = uniform_points(5000, seed=42)
        idx = GridIndex(pts, 10, 10)
        idx.ensure_built()
        shape = idx.shape
        counts = np.zeros((10, 10), dtype=int)
        for x, y in pts.positions:
            c = resolve_bin(Point2D(float(x), float(y)), shape)
            counts[c.j, c.i] += 1
        for j in range(10):
            for i in range(10):
                lst = idx.rendered.at(BinCoord(i, j))
                assert (0 if lst is None else len(lst)) == counts[j, i]
        assert counts.sum() == 5000

    def test_registry_is_bijective_with_present_bins(self):
        idx = GridIndex(uniform_points(500, seed=1), 8, 8)
        idx.ensure_built()
        present = list(idx.rendered.present_coords())
        assert sorted(idx.rendered.registry.values()) == sorted(present)
        assert len(set(map(id, idx.rendered.registry))) == len(present)

    def test_lazy_rebuild_on_mutation(self):
        src = pc((10.0, 10.0), (90.0, 90.0))
        idx = GridIndex(src, 4, 4)
        assert idx.nearest(Point2D(12.0, 12.0)).record == 0
        assert not src.changed
        src.append(14.0, 14.0)
        assert src.changed
        assert idx.nearest(Point2D(14.0, 14.0)).record == 2
        assert not src.changed

    def test_move_is_visible_after_requery(self):
        src = pc((10.0, 10.0), (90.0, 90.0))
        idx = GridIndex(src, 4, 4)
        idx.nearest(Point2D(50.0, 50.0))
        src.move(0, 55.0, 55.0)
        got = idx.nearest(Point2D(54.0, 54.0))
        assert got.record == 0
        assert got.distance == pytest.approx(math.sqrt(2.0))

    def test_mutation_during_rebuild_is_seen_by_next_query(self):
        class MovesDuringFetch(PointCollection):
            """Moves record 0 while the last record is being fetched."""

            armed = True

            def fetch(self, rid, scratch):
                if self.armed and rid == self.record_count - 1:
                    self.armed = False
                    self.move(0, 8.0, 8.0)
                return super().fetch(rid, scratch)

        src = MovesDuringFetch([(1.0, 1.0), (9.0, 9.0), (5.0, 5.0)])
        idx = GridIndex(src, 3, 3)
        idx.ensure_built()
        assert src.changed  # the move landed after record 0 was read
        res = idx.nearest(Point2D(8.0, 8.0))
        assert (res.record, res.distance) == (0, 0.0)
        assert not src.changed

    def test_hooks_run_in_pipeline_order(self):
        events = []

        class Recorder(GridIndex):
            def _render_records(self, state, ids):
                assert len(state.rendered.registry) == 0
                assert state.filled is None
                assert state.positions.shape == (2, 2)
                events.append("render")
                super()._render_records(state, ids)

            def _fill_gaps(self, state, bins):
                assert all(lst.ids_arr is not None for lst in state.rendered.registry)
                events.append("fill")
                super()._fill_gaps(state, bins)

            def _prepare_border(self, state):
                assert state.filled is not None
                events.append("border")
                super()._prepare_border(state)

            def _on_after_rebuilt(self, state):
                assert all(b is not None for b in state.filled.flat)
                assert state.border_ids is not None
                assert self.source.changed  # flag clears only after the hook
                events.append("after")

        src = pc((1.0, 1.0), (9.0, 9.0))
        Recorder(src, 3, 3).ensure_built()
        assert events == ["render", "fill", "border", "after"]
        assert not src.changed


class TestRenderPoint:
    def test_lands_in_its_bin(self):
        g = RenderedGrid(SHAPE10)
        g.render_point(7, Point2D(25.0, 35.0))
        assert g.at(BinCoord(2, 3)).ids == [7]

    def test_duplicate_ids_collapse(self):
        g = RenderedGrid(SHAPE10)
        g.render_point(7, Point2D(25.0, 35.0))
        g.render_point(7, Point2D(26.0, 36.0))
        assert g.at(BinCoord(2, 3)).ids == [7]

    def test_ids_stay_ascending(self):
        g = RenderedGrid(SHAPE10)
        g.render_point(3, Point2D(25.0, 35.0))
        g.render_point(9, Point2D(24.0, 34.0))
        assert g.at(BinCoord(2, 3)).ids == [3, 9]

    def test_max_corner_clamps(self):
        g = RenderedGrid(SHAPE10)
        g.render_point(0, Point2D(100.0, 100.0))
        assert g.at(BinCoord(9, 9)).ids == [0]

    def test_outside_rejected(self):
        g = RenderedGrid(SHAPE10)
        with pytest.raises(OutsideExtentsError):
            g.render_point(0, Point2D(100.1, 50.0))


class TestRenderLine:
    def test_horizontal_covers_one_row(self):
        g = RenderedGrid(SHAPE10)
        g.render_line(0, Point2D(5.0, 5.0), Point2D(95.0, 5.0))
        assert grid_cells(g) == {BinCoord(i, 0) for i in range(10)}

    def test_degenerate_segment_is_a_point(self):
        g = RenderedGrid(SHAPE10)
        g.render_line(0, Point2D(25.0, 35.0), Point2D(25.0, 35.0))
        assert grid_cells(g) == {BinCoord(2, 3)}

    def test_vertical_on_internal_edge_touches_both_columns(self):
        g = RenderedGrid(SHAPE10)
        g.render_line(0, Point2D(10.0, 5.0), Point2D(10.0, 25.0))
        want = segment_cells(Point2D(10.0, 5.0), Point2D(10.0, 25.0), SHAPE10)
        assert grid_cells(g) == want
        assert BinCoord(0, 0) in want and BinCoord(1, 0) in want

    def test_main_diagonal_corner_touches(self):
        # passes exactly through interior grid corners; the closed rule
        # includes all four bins meeting at each corner
        g = RenderedGrid(SHAPE10)
        a, b = Point2D(0.0, 0.0), Point2D(100.0, 100.0)
        g.render_line(0, a, b)
        want = segment_cells(a, b, SHAPE10)
        assert grid_cells(g) == want
        assert BinCoord(1, 0) in want and BinCoord(0, 1) in want

    def test_endpoint_outside_rejected(self):
        g = RenderedGrid(SHAPE10)
        with pytest.raises(OutsideExtentsError):
            g.render_line(0, Point2D(5.0, 5.0), Point2D(105.0, 5.0))

    @settings(max_examples=120, deadline=None)
    @given(
        dx=st.integers(1, 8),
        dy=st.integers(1, 8),
        fr=st.tuples(*(st.floats(0.0, 1.0) for _ in range(4))),
    )
    def test_matches_per_cell_oracle(self, dx, dy, fr):
        shape = GridShape(dx, dy, UNIT)
        a = Point2D(fr[0] * 100.0, fr[1] * 100.0)
        b = Point2D(fr[2] * 100.0, fr[3] * 100.0)
        g = RenderedGrid(shape)
        g.render_line(0, a, b)
        assert grid_cells(g) == segment_cells(a, b, shape)


class TestRenderArea:
    def test_full_extents_cover_all_bins(self):
        g = RenderedGrid(SHAPE10)
        g.render_area(0, UNIT)
        assert len(grid_cells(g)) == 100

    def test_boundary_aligned_rect_includes_touching_bins(self):
        # edges exactly on bin boundaries: the closed rule pulls in the
        # bins that merely touch, one ring beyond the rect's interior
        g = RenderedGrid(SHAPE10)
        g.render_area(0, Extents(Point2D(10.0, 20.0), Point2D(30.0, 40.0)))
        want = {BinCoord(i, j) for i in range(0, 4) for j in range(1, 5)}
        assert grid_cells(g) == want
        assert want == rect_cells(
            Extents(Point2D(10.0, 20.0), Point2D(30.0, 40.0)), SHAPE10
        )

    def test_zero_area_rect_is_a_point(self):
        g = RenderedGrid(SHAPE10)
        g.render_area(0, Extents(Point2D(25.0, 35.0), Point2D(25.0, 35.0)))
        assert grid_cells(g) == {BinCoord(2, 3)}

    def test_rect_outside_rejected(self):
        g = RenderedGrid(SHAPE10)
        with pytest.raises(OutsideExtentsError):
            g.render_area(0, Extents(Point2D(90.0, 90.0), Point2D(110.0, 95.0)))

    @settings(max_examples=120, deadline=None)
    @given(
        dx=st.integers(1, 8),
        dy=st.integers(1, 8),
        fr=st.tuples(*(st.floats(0.0, 1.0) for _ in range(4))),
    )
    def test_matches_per_cell_oracle(self, dx, dy, fr):
        shape = GridShape(dx, dy, UNIT)
        x0, x1 = sorted((fr[0] * 100.0, fr[2] * 100.0))
        y0, y1 = sorted((fr[1] * 100.0, fr[3] * 100.0))
        rect = Extents(Point2D(x0, y0), Point2D(x1, y1))
        g = RenderedGrid(shape)
        g.render_area(0, rect)
        assert grid_cells(g) == rect_cells(rect, shape)


class TestFillGaps:
    def test_every_bin_references_some_list(self):
        rng = np.random.default_rng(4)
        idx = GridIndex(PointCollection(rng.normal(50, 3, (40, 2))), 12, 12)
        idx.ensure_built()
        for j in range(12):
            for i in range(12):
                lst = idx.filled.at(BinCoord(i, j))
                assert lst is not None and len(lst) > 0

    def test_two_corner_partition(self):
        idx = GridIndex(pc((0.0, 0.0), (100.0, 100.0)), 4, 4)
        idx.ensure_built()
        lo = idx.rendered.at(BinCoord(0, 0))
        hi = idx.rendered.at(BinCoord(3, 3))
        for j in range(4):
            for i in range(4):
                center = Point2D((i + 0.5) * 25.0, (j + 0.5) * 25.0)
                d0 = (center.x - 0.0) ** 2 + (center.y - 0.0) ** 2
                d1 = (center.x - 100.0) ** 2 + (center.y - 100.0) ** 2
                want = lo if d0 <= d1 else hi  # ties go to the lower id
                assert idx.filled.at(BinCoord(i, j)) is want

    def test_equidistant_centers_take_lowest_id(self):
        # the middle bin's center is exactly 40 units from both records
        idx = GridIndex(pc((50.0, 10.0), (50.0, 90.0)), 1, 5)
        idx.ensure_built()
        assert idx.rendered.at(BinCoord(0, 2)) is None
        middle = idx.filled.at(BinCoord(0, 2))
        assert middle is idx.rendered.at(BinCoord(0, 0))
        assert middle.ids == [0]

    def test_winner_is_nearest_record_to_bin_center(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            gx = int(rng.integers(1, 8))
            gy = int(rng.integers(1, 8))
            pts = PointCollection(rng.uniform(0, 100, (n, 2)))
            idx = GridIndex(pts, gx, gy)
            idx.ensure_built()
            shape = idx.shape
            for j in range(gy):
                for i in range(gx):
                    c = BinCoord(i, j)
                    if idx.rendered.at(c) is not None:
                        continue
                    _, winner = nearest_record(pts.positions, bin_center(c, shape))
                    home = resolve_bin(
                        Point2D(*map(float, pts.positions[winner])), shape
                    )
                    assert idx.filled.at(c) is idx.rendered.at(home)

    def test_rendered_bins_keep_their_own_list(self):
        idx = GridIndex(uniform_points(200, seed=3), 6, 6)
        idx.ensure_built()
        for lst, coord in idx.rendered.registry.items():
            assert idx.filled.at(coord) is lst
