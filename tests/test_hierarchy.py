"""Subdivision policy, delegation and quad-tree equivalence."""
import hashlib

import numpy as np
import pytest

from hiergrid import (
    BinCoord,
    BruteForceIndex,
    Extents,
    GridIndex,
    HierConfig,
    HierGridIndex,
    Point2D,
    PointCollection,
    RenderedGrid,
    default_smallest_dimension,
    gaussian_points,
    match_battery,
    oracle_quadtree,
    resolve_bin,
    uniform_points,
)
from brute import bin_center


def pc(*pts) -> PointCollection:
    return PointCollection(list(pts))


def levels(state):
    """Every level of a built tree, root first."""
    out = [state]
    for child in state.sub_indexes:
        out.extend(levels(child))
    return out


def tree(name: str) -> HierGridIndex:
    """A hierarchical index with many levels. lattice: lattice-snapped
    records with duplicates, so many empty-bin centers sit at equal distance
    from several records. quadtree: a 2x2 b=1 tree, whose levels mostly hold
    a few records. quadtree-1e200: the same over points spread across
    +-1e200, where squared distances overflow to inf and tie. floor-cluster:
    a cluster with 30 duplicates in a box a million wide, whose child level
    the size floor stops, leaving it a list of more than 24 records."""
    rng = np.random.default_rng(5)
    if name == "lattice":
        return HierGridIndex(
            PointCollection(rng.integers(0, 12, (400, 2)) * 5.0), 5, 3, HierConfig(3)
        )
    if name == "floor-cluster":
        cluster = rng.uniform(500_000.0, 500_000.5, (40, 2))
        pts = np.vstack([[[0.0, 0.0], [1e6, 1e6]], cluster, [[500_000.25, 500_000.25]] * 30])
        return HierGridIndex(PointCollection(pts), 5, 5, HierConfig(1))
    scale = 1.0 if name == "quadtree" else 1e200
    return HierGridIndex(
        PointCollection(rng.uniform(-scale, scale, (500, 2))), 2, 2, HierConfig(1)
    )


TREES = ["lattice", "quadtree", "quadtree-1e200"]


def leaf_key(leaves):
    return sorted(
        (rect.min.x, rect.min.y, rect.max.x, rect.max.y, ids) for rect, ids in leaves
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HierConfig(max_bin_records=0)

    def test_single_bin_grid_rejected(self):
        with pytest.raises(ValueError):
            HierGridIndex(pc((0.0, 0.0)), 1, 1, HierConfig(max_bin_records=1))


class TestSubdivisionPolicy:
    def test_no_subdivision_below_threshold(self):
        idx = HierGridIndex(
            pc((10.0, 10.0), (90.0, 10.0), (10.0, 90.0), (90.0, 90.0)),
            2,
            2,
            HierConfig(max_bin_records=1),
        )
        assert idx.sub_indexes == []

    def test_overfull_bins_get_sub_indexes(self):
        pts = uniform_points(5000, seed=42)
        idx = HierGridIndex(pts, 10, 10, HierConfig(max_bin_records=1))
        idx.ensure_built()
        overfull = [
            coord for lst, coord in idx.rendered.registry.items() if len(lst) > 1
        ]
        assert len(idx.sub_indexes) == len(overfull)
        for coord in overfull:
            assert idx.sub_at(coord) is not None

    def test_aliased_bins_share_the_sub_index(self):
        # one crowded cluster plus a far record: most bins are gap-filled
        # aliases of the cluster's list and must reuse its sub-index
        rng = np.random.default_rng(2)
        pts = np.vstack([rng.normal(10.0, 0.5, (30, 2)), [[90.0, 90.0]]])
        idx = HierGridIndex(PointCollection(pts), 6, 6, HierConfig(max_bin_records=2))
        idx.ensure_built()
        cluster_list = None
        for lst, coord in idx.rendered.registry.items():
            if len(lst) > 2:
                cluster_list = lst
                home = coord
        assert cluster_list is not None
        home_sub = idx.sub_at(home)
        assert home_sub is not None
        aliases = 0
        for j in range(6):
            for i in range(6):
                c = BinCoord(i, j)
                if idx.rendered.at(c) is None and idx.filled.at(c) is cluster_list:
                    aliases += 1
                    assert idx.sub_at(c) is home_sub
        assert aliases > 0

    def test_size_floor_blocks_subdivision(self):
        # a cluster 0.5 wide inside a root 1e6 wide: the floor, a millionth
        # of the root's diagonal (about 1.41), lets the root subdivide but
        # stops the cluster's child level, whose bins are 0.1 wide
        rng = np.random.default_rng(1)
        cluster = rng.uniform(500_000.0, 500_000.5, (40, 2))
        pts = np.vstack([[[0.0, 0.0], [1e6, 1e6]], cluster])
        idx = HierGridIndex(PointCollection(pts), 5, 5, HierConfig(max_bin_records=1))
        root = idx.ensure_built()
        assert root.size_floor == default_smallest_dimension(root.shape.extents)
        (child,) = root.sub_indexes
        assert child.shape.bin_width < root.size_floor
        assert child.sub_indexes == []
        assert max(len(ids) for _, ids in idx.leaf_occupancies()) > 1

    def test_a_list_whose_box_equals_its_level_stops_while_its_depth_splits(self):
        # records on the line x = 1e12 get a level whose x axis is inflated
        # to +-0.9; all of them fall in its right column, so that one list's
        # box is its level's and it stops, while another level at the same
        # depth subdivides
        rng = np.random.default_rng(4)
        line = np.column_stack([np.full(10, 1e12), np.arange(10.0)])
        other = np.column_stack([1e12 + rng.uniform(60, 100, 40), rng.uniform(0, 9, 40)])
        pts = np.vstack([[[1e12 - 100, 5.0]], line, other])
        src = PointCollection(pts)
        idx = HierGridIndex(src, 2, 1, HierConfig(max_bin_records=1))
        all_levels = levels(idx.ensure_built())
        (stopped,) = [
            s
            for s in all_levels
            if any(len(lst) > 1 and lst.child is None for lst in s.lists)
        ]
        (lst,) = stopped.lists
        assert lst.ids == list(range(1, 11)) and stopped.sub_indexes == []
        assert any(s.sub_indexes for s in all_levels if s.depth == stopped.depth)
        leaves = sorted(rid for _, ids in idx.leaf_occupancies() for rid in ids)
        assert leaves == list(range(len(pts)))
        brute = BruteForceIndex(src)
        for x, y in pts.tolist():
            got, want = idx.nearest(Point2D(x, y)), brute.nearest(Point2D(x, y))
            assert got.distance == want.distance == 0.0

    def test_divisions_inherited_by_default(self):
        idx = HierGridIndex(uniform_points(600, seed=2), 4, 3, HierConfig(max_bin_records=3))
        subs = idx.sub_indexes
        assert subs
        for sub in subs:
            assert (sub.shape.divisions_x, sub.shape.divisions_y) == (4, 3)


class TestLevels:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_gap_fill_takes_lowest_id_nearest_record_on_every_level(self):
        for name in TREES:
            root = tree(name).ensure_built()
            all_levels = levels(root)
            assert len(all_levels) > 20
            for state in all_levels:
                shape = state.shape
                members = sorted(rid for lst in state.rendered.registry for rid in lst.ids)
                for flat, lst in enumerate(state.filled.flat):
                    c = BinCoord(flat % shape.divisions_x, flat // shape.divisions_x)
                    if state.rendered.at(c) is not None:
                        continue
                    center = bin_center(c, shape)
                    d2s = {}
                    for rid in members:
                        x, y = root.positions[rid].tolist()
                        dx = x - center.x
                        dy = y - center.y
                        d2s[rid] = dx * dx + dy * dy
                    low = min(d2s.values())
                    winner = min(rid for rid, d2 in d2s.items() if d2 == low)
                    assert winner in lst.ids, (name, state.depth, c)
                    assert lst in state.rendered.registry

    @pytest.mark.parametrize("name", [*TREES, "floor-cluster"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_every_level_renders_as_render_point_and_freezes_its_members(self, name):
        root = tree(name).ensure_built()
        long_lists = 0
        for state in levels(root):
            members = sorted(rid for lst in state.rendered.registry for rid in lst.ids)
            # registry order and ids equal a render_point loop in id order
            grid = RenderedGrid(state.shape)
            for rid in members:
                grid.render_point(rid, Point2D(*root.positions[rid].tolist()))
            assert [(c, lst.ids) for lst, c in state.rendered.registry.items()] == [
                (c, lst.ids) for lst, c in grid.registry.items()
            ]
            # only the root keeps its grouped records as arrays
            assert (state.ids is None) == (state.depth > 0)
            for lst in state.rendered.registry:
                forms = (lst.triples, lst.ids_arr, lst.xs, lst.ys)
                if lst.child is not None:  # queries delegate; no members kept
                    assert forms == (None,) * 4
                    continue
                # one member form: tuples below 24 records, arrays otherwise
                assert (lst.triples is None) != (lst.ids_arr is None), (name, state.depth)
                expected = [(rid, *root.positions[rid].tolist()) for rid in lst.ids]
                if lst.triples is None:
                    assert len(lst) >= 24
                    got = list(zip(lst.ids_arr.tolist(), lst.xs.tolist(), lst.ys.tolist()))
                    # the root's lists view its arrays; a child's own theirs
                    bases = {id(a.base) for a in (lst.ids_arr, lst.xs, lst.ys)}
                    if state.depth:
                        long_lists += 1
                        assert bases == {id(None)}
                    else:
                        assert bases == {id(root.ids), id(root.xs), id(root.ys)}
                else:
                    assert len(lst) < 24 and lst.xs is None and lst.ys is None
                    got = lst.triples
                assert got == expected, (name, state.depth)
        assert (long_lists > 0) == (name == "floor-cluster")

    def test_levels_share_the_border_ring_and_only_a_childless_root_has_arrays(self):
        idx = HierGridIndex(uniform_points(2000, seed=8), 6, 4, HierConfig(max_bin_records=4))
        root = idx.ensure_built()
        ring = [
            BinCoord(i, j)
            for j in range(4)
            for i in range(6)
            if i in (0, 5) or j in (0, 3)
        ]
        # one ring per index, in row-major order, walked on every level
        assert idx._ring_flat == [c.j * 6 + c.i for c in ring]
        # the root has children, so no level's border scan reads arrays
        assert len(levels(root)) > 100
        for state in levels(root):
            assert state.border_ids is None
            assert state.border_xs is None and state.border_ys is None
        unsplit = HierGridIndex(uniform_points(2000, seed=8), 6, 4, HierConfig(2000))
        flat_root = unsplit.ensure_built()
        assert flat_root.sub_indexes == []
        # a childless root's border arrays hold its ring's distinct lists,
        # each record once, at its own position
        ring_lists = {id(flat_root.filled.at(c)): flat_root.filled.at(c) for c in ring}
        ring_ids = sorted(rid for lst in ring_lists.values() for rid in lst.ids)
        assert len(ring_ids) > 0
        assert sorted(flat_root.border_ids.tolist()) == ring_ids
        # in strictly ascending id order: the scan's first minimum is the lowest id
        assert (np.diff(flat_root.border_ids) > 0).all()
        at = flat_root.positions[flat_root.border_ids]
        assert flat_root.border_xs.tolist() == at[:, 0].tolist()
        assert flat_root.border_ys.tolist() == at[:, 1].tolist()

    def test_child_lists_hold_the_parent_lists_id_objects(self):
        idx = HierGridIndex(gaussian_points(3000, seed=4), 10, 10, HierConfig(max_bin_records=8))
        for state in levels(idx.ensure_built()):
            for lst in state.lists:
                if lst.child is None:
                    continue
                parent_ids = {id(rid) for rid in lst.ids}
                assert all(id(rid) in parent_ids for sub in lst.child.lists for rid in sub.ids)


class TestTermination:
    def test_coincident_records(self):
        idx = HierGridIndex(
            PointCollection([[5.0, 5.0]] * 12), 2, 2, HierConfig(max_bin_records=1)
        )
        leaves = idx.leaf_occupancies()
        assert len(leaves) == 1
        assert leaves[0][1] == tuple(range(12))

    def test_cluster_with_outlier(self):
        pts = [[5.0, 5.0]] * 9 + [[100.0, 100.0]]
        idx = HierGridIndex(PointCollection(pts), 2, 2, HierConfig(max_bin_records=1))
        leaves = idx.leaf_occupancies()
        assert len(leaves) == 2
        assert sorted(len(ids) for _, ids in leaves) == [1, 9]

    def test_collinear_duplicates(self):
        pts = [[float(i % 3), 7.0] for i in range(30)]
        idx = HierGridIndex(PointCollection(pts), 3, 2, HierConfig(max_bin_records=2))
        leaves = idx.leaf_occupancies()
        assert sorted(i for _, ids in leaves for i in ids) == list(range(30))

    def test_cluster_a_subnormal_distance_wide(self):
        # an axis 5e-324 wide halves to a zero bin size unless inflated: the
        # flat index's root, and the hierarchical index's corner child level
        pts = [[0.0, 0.0], [5e-324, 0.0], [0.0, 5e-324], [1.0, 1.0]]
        for idx in (
            GridIndex(PointCollection([[0.0, 0.0], [5e-324, 1.0]]), 2, 2),
            HierGridIndex(PointCollection(pts), 2, 2, HierConfig(max_bin_records=2)),
        ):
            n = idx.source.record_count
            assert idx.range_query(idx.shape.extents) == list(range(n))
            assert idx.nearest(Point2D(0.0, 0.0)).distance == 0.0


    @pytest.mark.parametrize("magnitude", [0.0, 1e7, 1e12, -1e15])
    @pytest.mark.parametrize("layout", ["duplicate", "collinear"])
    @pytest.mark.parametrize("kind", ["flat", "hier"])
    def test_degenerate_data_at_any_magnitude(self, magnitude, layout, kind):
        # a flat axis must inflate by more than an ulp of its coordinates,
        # and a child level over its parent's own box must not be built
        m = magnitude
        if layout == "duplicate":
            pts = [[m, m]] * 3
        else:
            pts = [[m, m], [m, m + 1.0], [m, m + 1.0], [m, m + 2.0]]
        source = PointCollection(pts)
        if kind == "flat":
            idx = GridIndex(source, 2, 2)
        else:
            idx = HierGridIndex(source, 2, 2, HierConfig(1))
        brute = BruteForceIndex(source)
        ext = idx.shape.extents
        pad = 10.0 * max(ext.width, ext.height)
        queries = [Point2D(x, y) for x, y in pts] + [
            Point2D(ext.min.x - pad, ext.min.y - pad),
            Point2D(ext.max.x + pad, ext.min.y - pad),
            Point2D(ext.min.x - pad, ext.max.y + pad),
            Point2D(ext.max.x + pad, ext.max.y + pad),
        ]
        for q in queries:
            got, want = idx.nearest(q), brute.nearest(q)
            assert (got.record, got.distance) == (want.record, want.distance)
        for rect in (ext, Extents(Point2D(m, m), Point2D(m, m + 1.0))):
            assert idx.range_query(rect) == brute.range(rect)


class TestLeafOccupancies:
    def test_leaves_partition_all_records(self):
        idx = HierGridIndex(uniform_points(2000, seed=5), 6, 6, HierConfig(max_bin_records=3))
        leaves = idx.leaf_occupancies()
        ids = sorted(i for _, ids in leaves for i in ids)
        assert ids == list(range(2000))

    def test_leaves_respect_bucket_or_floor(self):
        idx = HierGridIndex(uniform_points(1500, seed=8), 5, 5, HierConfig(max_bin_records=4))
        floor = idx.ensure_built().size_floor
        for rect, ids in idx.leaf_occupancies():
            assert len(ids) <= 4 or rect.width <= floor or rect.height <= floor

    def test_matches_reference_quadtree(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            n = int(rng.integers(1, 65))
            pts = rng.uniform(0, 100, (n, 2))
            bucket = int(rng.integers(1, 5))
            idx = HierGridIndex(
                PointCollection(pts), 2, 2, HierConfig(max_bin_records=bucket)
            )
            got = leaf_key(idx.leaf_occupancies())
            want = leaf_key((l.rect, l.ids) for l in oracle_quadtree(
                [tuple(p) for p in pts], bucket
            ))
            assert got == want


class TestQueriesDelegate:
    def test_identical_to_flat_when_nothing_subdivides(self):
        pts_a = uniform_points(800, seed=3)
        pts_b = uniform_points(800, seed=3)
        flat = GridIndex(pts_a, 7, 5)
        hier = HierGridIndex(pts_b, 7, 5, HierConfig(max_bin_records=10**9))
        assert hier.sub_indexes == []
        rng = np.random.default_rng(5)
        for _ in range(300):
            q = Point2D(*(float(v) for v in rng.uniform(-500, 1500, 2)))
            a, b = flat.nearest(q), hier.nearest(q)
            assert (a.record, a.distance, a.records_examined, a.short_circuit) == (
                b.record,
                b.distance,
                b.records_examined,
                b.short_circuit,
            )

    def test_home_delegation_returns_sub_result(self):
        pts = uniform_points(5000, seed=42)
        idx = HierGridIndex(pts, 10, 10, HierConfig(max_bin_records=1))
        idx.ensure_built()
        shape = idx.shape
        rng = np.random.default_rng(6)
        pos = pts.positions
        delegated = 0
        for rid in rng.integers(0, 5000, 80):
            q = Point2D(float(pos[rid, 0]), float(pos[rid, 1]))
            c = resolve_bin(q, shape)
            if idx.sub_at(c) is None:
                continue
            delegated += 1
            res = idx.nearest(q)
            assert res.distance == 0.0
            assert res.record == rid or (pos[res.record] == pos[rid]).all()
            assert not res.short_circuit  # delegation never claims the flag
        assert delegated > 50

    def test_every_record_position_answers_at_distance_zero(self):
        # child levels span their records' tight box, so records sit on
        # level maxima, where min + n * bin_size can fall an ulp short
        rng = np.random.default_rng(7)
        pts = np.vstack([np.full((30, 2), 5.0), rng.uniform(0, 10, (20, 2))])
        idx = HierGridIndex(PointCollection(pts), 3, 3, HierConfig(max_bin_records=1))
        for x, y in pts.tolist():
            assert idx.nearest(Point2D(x, y)).distance == 0.0

    def test_single_record_reachable_through_nesting(self):
        pts = [[50.0, 50.0]] * 20 + [[50.2, 50.2]]
        idx = HierGridIndex(PointCollection(pts), 4, 4, HierConfig(max_bin_records=1))
        res = idx.nearest(Point2D(50.19, 50.19))
        assert res.record == 20

    def test_cost_never_exceeds_flat(self):
        pts_a = uniform_points(3000, seed=12)
        pts_b = uniform_points(3000, seed=12)
        flat = GridIndex(pts_a, 8, 8)
        hier = HierGridIndex(pts_b, 8, 8, HierConfig(max_bin_records=2))
        rng = np.random.default_rng(13)
        for _ in range(300):
            q = Point2D(*(float(v) for v in rng.uniform(-1000, 2000, 2)))
            assert hier.nearest(q).records_examined <= flat.nearest(q).records_examined

    def test_match_rate_high_and_short_circuits_exact(self):
        idx = HierGridIndex(uniform_points(4000, seed=20), 10, 10, HierConfig(max_bin_records=1))
        report = match_battery(idx, queries=600, seed=99)
        assert report.sc_inexact == 0
        assert report.match_rate > 0.9  # delegation approximates, mildly

    def test_range_query_unaffected_by_subdivision(self):
        pts = uniform_points(1000, seed=30)
        idx = HierGridIndex(pts, 6, 6, HierConfig(max_bin_records=1))
        brute = BruteForceIndex(pts)
        rng = np.random.default_rng(31)
        idx.ensure_built()
        ext = idx.shape.extents.scaled(2.0)
        for _ in range(60):
            xs = rng.uniform(ext.min.x, ext.max.x, 2)
            ys = rng.uniform(ext.min.y, ext.max.y, 2)
            rect = Extents(
                Point2D(float(xs.min()), float(ys.min())),
                Point2D(float(xs.max()), float(ys.max())),
            )
            assert idx.range_query(rect) == brute.range(rect)

    def test_outside_queries_stay_cheap_with_subdivision(self):
        idx = HierGridIndex(uniform_points(5000, seed=42), 10, 10, HierConfig(max_bin_records=1))
        rng = np.random.default_rng(40)
        worst = 0
        for _ in range(200):
            side = rng.integers(0, 4)
            along = float(rng.uniform(-500, 1500))
            away = float(rng.uniform(50, 500))
            if side == 0:
                q = Point2D(along, -away)
            elif side == 1:
                q = Point2D(along, 1000 + away)
            elif side == 2:
                q = Point2D(-away, along)
            else:
                q = Point2D(1000 + away, along)
            res = idx.nearest(q)
            worst = max(worst, res.records_examined)
            assert 0 <= res.record < 5000
        assert worst < 50  # pruned edge scan, not a 1000-record sweep


class TestBorderOrder:
    # sha256 of (record, records_examined) over every layout and query below
    PINNED = "946bda4b8321157425dfe20163dbc9495a4dd838b8d6cfbb4affbceeef647857"

    def test_ring_ties_visit_in_row_then_column_order(self):
        # On an integer lattice many border bins lie at equal distance from
        # an outside query, so the order in which tied bins are visited
        # decides which equally near record is found first and what the
        # pruned visit costs; ties go to the lower row, then the lower column.
        lattice = [(float(x), float(y)) for y in range(9) for x in range(9)]
        steps = [-1.0 + 0.5 * k for k in range(21)]
        queries = (
            [(v, -1.0) for v in steps]
            + [(v, 9.0) for v in steps]
            + [(-1.0, v) for v in steps]
            + [(9.0, v) for v in steps]
        )
        h = hashlib.sha256()
        for dx, dy, b in [(4, 4, 1), (3, 3, 2), (2, 2, 1), (5, 3, 1)]:
            idx = HierGridIndex(PointCollection(lattice), dx, dy, HierConfig(max_bin_records=b))
            for x, y in queries:
                r = idx.nearest(Point2D(x, y))
                h.update(f"{r.record} {r.records_examined}\n".encode())
        assert h.hexdigest() == self.PINNED


class TestLazyRebuild:
    def test_subdivision_tracks_mutations(self):
        src = pc((10.0, 10.0), (90.0, 90.0))
        idx = HierGridIndex(src, 2, 2, HierConfig(max_bin_records=1))
        assert idx.sub_indexes == []
        for _ in range(5):
            src.append(11.0, 11.0)
        assert len(idx.sub_indexes) == 1
        res = idx.nearest(Point2D(11.0, 11.0))
        assert res.distance == 0.0

    def test_indexes_sharing_a_source_all_see_a_move(self):
        src = pc((0.0, 0.0), (10.0, 10.0), (5.0, 5.0), (1.0, 9.0), (9.0, 1.0))
        flat = GridIndex(src, 4, 4)
        hier = HierGridIndex(src, 2, 2, HierConfig(max_bin_records=1))
        q = Point2D(9.9, 9.9)
        assert flat.nearest(q).record == 1
        assert hier.nearest(q).record == 1
        src.move(2, 9.9, 9.9)
        for idx in (flat, hier, flat, hier):
            res = idx.nearest(q)
            assert (res.record, res.distance) == (2, 0.0)
