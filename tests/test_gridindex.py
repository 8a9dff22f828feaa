"""Rebuild pipeline, renderers and gap fill of the flat grid index."""
import gc
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiergrid import (
    BinCoord,
    BinList,
    BruteForceIndex,
    EmptySourceError,
    Extents,
    FilledGrid,
    GridIndex,
    GridShape,
    HierConfig,
    HierGridIndex,
    IndexableSource,
    OutsideExtentsError,
    Point2D,
    PointCollection,
    RenderedGrid,
    gaussian_points,
    resolve_bin,
    uniform_points,
)

from hiergrid.gridindex import _VECTOR_SCAN_MIN

from brute import (
    bin_center,
    grid_and_near_edge_probes,
    nearest_record,
    rect_cells,
    segment_cells,
)
from test_hierarchy import TREES, levels, tree

UNIT = Extents(Point2D(0.0, 0.0), Point2D(100.0, 100.0))
SHAPE10 = GridShape(10, 10, UNIT)


def pc(*pts) -> PointCollection:
    return PointCollection(list(pts))


def grid_cells(rendered: RenderedGrid) -> set[BinCoord]:
    return set(rendered.registry.values())


def reachable(root) -> list:
    """Every object reachable from root through gc referents, except the
    classes, modules and functions that every index shares."""
    shared = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, out, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


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
        src.append(14.0, 14.0)
        assert idx.nearest(Point2D(14.0, 14.0)).record == 2

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
            """Moves record 0 once the first read has copied it."""

            armed = True

            def fetch(self, first, out):
                super().fetch(first, out)
                if self.armed:
                    self.armed = False
                    self.move(0, 8.0, 8.0)
                return out

        src = MovesDuringFetch([(1.0, 1.0), (9.0, 9.0), (5.0, 5.0)])
        idx = GridIndex(src, 3, 3)
        built = idx.ensure_built()
        # the move landed after record 0 was read: the built state trails
        assert built.version < src.version
        res = idx.nearest(Point2D(8.0, 8.0))
        assert (res.record, res.distance) == (0, 0.0)
        assert idx.ensure_built().version == src.version

    def test_hooks_run_in_pipeline_order(self):
        events = []

        class Recorder(GridIndex):
            def _render_records(self, depth, ints):
                assert all(s.lists is None and s.bins is None for s in depth.levels)
                assert depth.levels[0].depth or depth.levels[0].positions.shape == (4, 2)
                events.append(("render", depth.levels[0].depth))
                super()._render_records(depth, ints)

            def _fill_gaps(self, depth):
                # each list keeps one member form: these short ones, tuples
                assert all(
                    lst.triples is not None and lst.xs is None for lst in depth.lists
                )
                events.append(("fill", depth.levels[0].depth))
                super()._fill_gaps(depth)

            def _on_after_rebuilt(self, depth):
                assert all(b is not None for s in depth.levels for b in s.bins)
                assert depth.levels[0].border_ids is None
                events.append(("after", depth.levels[0].depth))
                return super()._on_after_rebuilt(depth)

            def _prepare_border(self, state):
                assert state.bins is not None and state.depth == 0
                events.append(("border", 0))
                super()._prepare_border(state)

        src = pc((1.0, 1.0), (9.0, 9.0), (8.0, 8.0), (8.5, 8.0))
        root = Recorder(src, 3, 3).ensure_built()
        # the flat index renders its one depth as one segment
        assert [(lst.home, lst.ids) for lst in root.lists] == [(0, [0]), (8, [1, 2, 3])]
        assert root.border_ids is not None
        assert events == [("render", 0), ("fill", 0), ("after", 0), ("border", 0)]
        # each step runs once per depth; border prep once, on the root
        events.clear()
        hier = Recorder(src, 3, 3)
        hier._max_bin_records = 1
        root = hier.ensure_built()
        assert [s.depth for s in root.sub_indexes] == [1]
        depths = max(d for _, d in events) + 1
        assert events == [
            (step, d) for d in range(depths) for step in ("render", "fill", "after")
        ] + [("border", 0)]


class TestInspection:
    def test_flat_index_has_no_children_and_one_leaf_per_rendered_list(self):
        idx = GridIndex(uniform_points(500, seed=4), 5, 4)
        assert idx.sub_indexes == []
        for j in range(4):
            for i in range(5):
                assert idx.sub_at(BinCoord(i, j)) is None
        shape, registry = idx.shape, idx.rendered.registry
        assert idx.leaf_occupancies() == [
            (shape.bin_rect(c), tuple(lst.ids)) for lst, c in registry.items()
        ]
        # each list keeps one member form, and both forms occur here
        short = {lst for lst in registry if len(lst) < _VECTOR_SCAN_MIN}
        assert 0 < len(short) < len(registry)
        pos = idx.ensure_built().positions
        for lst in registry:
            if lst in short:
                assert lst.triples is not None
                assert lst.xs is None and lst.ys is None
            else:
                assert lst.triples is None
                assert lst.xs.tolist() == pos[lst.ids, 0].tolist()
                assert lst.ys.tolist() == pos[lst.ids, 1].tolist()

    @pytest.mark.parametrize(
        "c", [BinCoord(4, 0), BinCoord(-1, 0), BinCoord(0, 4), BinCoord(2, -1)]
    )
    def test_bin_lookups_reject_a_bin_outside_the_grid(self, c):
        # flat-index arithmetic alone would answer (4, 0) with bin (0, 1)'s
        # list and (-1, 0) with bin (3, 3)'s
        idx = HierGridIndex(uniform_points(400, seed=2), 4, 4, HierConfig(max_bin_records=8))
        for lookup in (idx.rendered.at, idx.filled.at, idx.sub_at, idx.shape.bin_rect):
            with pytest.raises(IndexError, match=rf"\({c.i}, {c.j}\) is outside the 4x4 grid"):
                lookup(c)

    def test_a_built_level_keeps_only_its_bins_and_lists(self):
        # the rendered grid, filled grid, registry and shape are views made
        # on access: a built index holds none of them, nor a dict by list,
        # and its box is numbers, not box objects
        views = (RenderedGrid, FilledGrid, BinCoord, GridShape, Extents, Point2D)
        for idx in (
            HierGridIndex(uniform_points(2000, seed=5), 2, 2, HierConfig(max_bin_records=1)),
            HierGridIndex(gaussian_points(5000, seed=5), 10, 10, HierConfig(max_bin_records=8)),
        ):
            assert len(idx.sub_indexes) > 1
            objs = reachable(idx)
            assert not [o for o in objs if isinstance(o, views)]
            assert not [
                o for o in objs if isinstance(o, dict) and any(isinstance(k, BinList) for k in o)
            ]


class TestSourceContract:
    """A source is record_count, version and fetch(first, out); the index
    derives its grid's box from the positions it fetches and reads nothing
    else."""

    class MinimalSource(IndexableSource):
        """Holds its records as (x, y) tuples and writes a run of them into
        the caller's array."""

        def __init__(self, pts):
            self._pts = [tuple(p) for p in pts.tolist()]

        @property
        def record_count(self):
            return len(self._pts)

        @property
        def version(self):
            return 0

        def fetch(self, first, out):
            if first < 0 or first + len(out) > len(self._pts):
                raise IndexError(first)
            out[:] = self._pts[first : first + len(out)]
            return out

    @staticmethod
    def queries(idx, rng):
        wide = idx.shape.extents.scaled(2.0)
        xy = rng.uniform((wide.min.x, wide.min.y), (wide.max.x, wide.max.y), (150, 2))
        rects = []
        for x0, y0, w, h in rng.uniform(0.0, 0.5, (40, 4)).tolist():
            x = wide.min.x + x0 * wide.width
            y = wide.min.y + y0 * wide.height
            rects.append(Extents(Point2D(x, y), Point2D(x + w * wide.width, y + h * wide.height)))
        return [Point2D(x, y) for x, y in xy.tolist()], rects

    @pytest.mark.parametrize("n", [_VECTOR_SCAN_MIN - 1, 400])
    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_minimal_source_answers_like_brute_force(self, n, hierarchical):
        rng = np.random.default_rng(n)
        pts = rng.normal(50.0, 15.0, (n, 2))
        src = self.MinimalSource(pts)
        idx = HierGridIndex(src, 5, 4, HierConfig(3)) if hierarchical else GridIndex(src, 5, 4)
        brute = BruteForceIndex(src)
        assert idx.shape.extents == PointCollection(pts).data_extents
        qs, rects = self.queries(idx, rng)
        for q in qs:
            got, want = idx.nearest(q), brute.nearest(q)
            assert got.distance >= want.distance
            if got.short_circuit:  # the short circuit claims exactness
                assert (got.record, got.distance) == (want.record, want.distance)
        for x, y in pts.tolist():
            assert idx.nearest(Point2D(x, y)).distance == 0.0
        for rect in rects:
            assert idx.range_query(rect) == brute.range(rect)

    @pytest.mark.parametrize("n", [_VECTOR_SCAN_MIN - 1, _VECTOR_SCAN_MIN + 6])
    @pytest.mark.parametrize("report", ["under", "over"])
    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_declared_extents_are_not_read(self, n, report, hierarchical):
        class Misreports(PointCollection):
            """Declares the box of every record but the last, or one ten
            times too large."""

            @property
            def data_extents(self):
                if report == "under":
                    return PointCollection(self.positions[:-1]).data_extents
                return PointCollection(self.positions).data_extents.scaled(10.0)

        rng = np.random.default_rng(n)
        pts = np.vstack([rng.uniform(0.0, 100.0, (n - 1, 2)), [[150.0, 50.0]]])

        def make(src):
            if hierarchical:
                return HierGridIndex(src, 4, 4, HierConfig(2))
            return GridIndex(src, 4, 4)

        plain, odd = make(PointCollection(pts)), make(Misreports(pts))
        assert odd.shape == plain.shape
        qs, rects = self.queries(plain, rng)
        for q in qs:
            assert odd.nearest(q) == plain.nearest(q)
        for rect in rects:
            assert odd.range_query(rect) == plain.range_query(rect)


class TestSharedSource:
    """Indexes over one source each rebuild on their own, from the source's
    version alone, and answer as the brute-force oracle does after every
    mutation."""

    class MovesDuringFetch(PointCollection):
        """Once armed, moves record 0 once the next read has copied it."""

        armed = False

        def fetch(self, first, out):
            super().fetch(first, out)
            if self.armed:
                self.armed = False
                self.move(0, 50.0, 50.0)
            return out

    @staticmethod
    def assert_fresh(indexes, src, rects):
        # a query at a record's own position has the oracle's answer (0.0,
        # lowest id), which a stale index misses for moved or shifted ids
        oracle = BruteForceIndex(src)
        for idx in indexes:
            for x, y in src.positions.tolist():
                q = Point2D(x, y)
                got, want = idx.nearest(q), oracle.nearest(q)
                assert (got.record, got.distance) == (want.record, want.distance)
            for rect in rects:
                assert idx.range_query(rect) == oracle.range(rect)
            assert idx.ensure_built().version == src.version

    def test_each_index_sees_every_mutation(self):
        rng = np.random.default_rng(5)
        src = self.MovesDuringFetch(rng.uniform(0.0, 100.0, (120, 2)))
        indexes = [GridIndex(src, 6, 6), HierGridIndex(src, 6, 6, HierConfig(4))]
        rects = []
        for x0, y0, w, h in rng.uniform(0.0, 60.0, (20, 4)).tolist():
            rects.append(Extents(Point2D(x0, y0), Point2D(x0 + w, y0 + h)))
        self.assert_fresh(indexes, src, rects)
        src.append(33.0, 66.0)
        self.assert_fresh(indexes, src, rects)
        src.move(7, 1.0, 99.0)
        self.assert_fresh(indexes, src, rects)
        src.remove_at(3)
        self.assert_fresh(indexes, src, rects)
        for first in indexes:
            src.append(*rng.uniform(0.0, 100.0, 2).tolist())
            src.armed = True
            built = first.ensure_built()
            assert not src.armed and built.version < src.version
            self.assert_fresh(indexes, src, rects)


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
        with pytest.raises(OutsideExtentsError, match=r"point .*100\.1.* outside grid extents"):
            g.render_point(0, Point2D(100.1, 50.0))


class TestRenderPoints:
    """A level of at least _VECTOR_SCAN_MIN records renders in one numpy
    pass; it must equal render_point called in id order."""

    @settings(max_examples=150, deadline=None)
    @given(grid_and_near_edge_probes(), st.randoms(use_true_random=False))
    def test_matches_render_point_loop(self, grid_probes, rnd):
        grid, probes = grid_probes
        shape = grid.shape
        # the probes inside the extents span them exactly, so an index
        # over them has the same shape; repeats put several ids in a bin
        inside = [p for p in probes if shape.extents.contains(p)]
        pts = inside * -(-_VECTOR_SCAN_MIN // len(inside))
        rnd.shuffle(pts)
        src = PointCollection([(p.x, p.y) for p in pts])
        idx = GridIndex(src, shape.divisions_x, shape.divisions_y)
        assert idx.shape == shape
        want = RenderedGrid(shape)
        for rid, p in enumerate(pts):
            want.render_point(rid, p)
        got = idx.rendered
        assert list(got.registry.values()) == list(want.registry.values())
        assert [lst.ids for lst in got.registry] == [lst.ids for lst in want.registry]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("n", [10, 50])
    def test_non_finite_fetched_position_rejected(self, n, hierarchical):
        class FetchesNaN(PointCollection):
            """Stores finite points but fetches the middle record as NaN."""

            def fetch(self, first, out):
                super().fetch(first, out)
                mid = self.record_count // 2 - first
                if 0 <= mid < len(out):
                    out[mid, 0] = math.nan
                return out

        src = FetchesNaN(np.random.default_rng(n).uniform(0.0, 100.0, (n, 2)))
        idx = HierGridIndex(src, 4, 4, HierConfig(4)) if hierarchical else GridIndex(src, 4, 4)
        with pytest.raises(ValueError, match="non-finite coordinates"):
            idx.ensure_built()


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

    def test_tie_goes_to_lowest_id_not_first_list(self):
        # bin A (column 0) holds records 0 and 2, bin B (column 2) holds
        # 1 and 3; the empty middle bin's center (15, 2.5) is sqrt(42.25)
        # from records 1 and 2 and farther from 0 and 3. Record 1 wins the
        # tie, although A comes first in the registry.
        idx = GridIndex(pc((0.0, 0.0), (21.0, 5.0), (9.0, 5.0), (30.0, 0.0)), 3, 1)
        a, b = idx.rendered.at(BinCoord(0, 0)), idx.rendered.at(BinCoord(2, 0))
        assert (a.ids, b.ids) == ([0, 2], [1, 3])
        assert list(idx.rendered.registry) == [a, b]
        assert idx.rendered.at(BinCoord(1, 0)) is None
        assert idx.filled.at(BinCoord(1, 0)) is b

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rendered_bins_keep_their_own_list(self):
        flat = GridIndex(uniform_points(200, seed=3), 6, 6)
        for idx in [flat, *(tree(name) for name in [*TREES, "floor-cluster"])]:
            for lst, coord in idx.rendered.registry.items():
                assert idx.filled.at(coord) is lst
            for state in levels(idx.ensure_built()):
                assert all(state.bins[lst.home] is lst for lst in state.lists)
            shape = idx.shape
            for j in range(shape.divisions_y):
                for i in range(shape.divisions_x):
                    c = BinCoord(i, j)
                    assert idx.sub_at(c) is idx.filled.at(c).child
