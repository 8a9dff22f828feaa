"""A rebuild repairs the previous root and reuses every root child whose
records did not move, and the served build always equals a fresh build over
the same records.

The oracle is a fresh index over an equal PointCollection. Two builds are
compared level by level: box and size floor bits, every list's home bin,
ids and member values (as bytes or repr, so -0.0 differs from 0.0), every
bin's filled owner, the root's border arrays, and the child levels by bin;
then leaf boxes as float.hex, and nearest and range answers on a probe set.
"""
import weakref

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from hiergrid import (
    BinCoord,
    Extents,
    GridIndex,
    HierConfig,
    HierGridIndex,
    Point2D,
    PointCollection,
    gaussian_points,
)
from hiergrid.geometry import resolve_bin
from hiergrid.sources import IndexableSource


def new_index(source, dx, dy, bucket):
    if bucket is None:
        return GridIndex(source, dx, dy)
    return HierGridIndex(source, dx, dy, HierConfig(max_bin_records=bucket))


def fresh_like(index):
    """A fresh index of the same kind over a copy of its source's records."""
    bucket = index.config.max_bin_records if isinstance(index, HierGridIndex) else None
    source = index.source
    copy = PointCollection(source.fetch(0, np.empty((source.record_count, 2))))
    return new_index(copy, index.divisions_x, index.divisions_y, bucket)


def members(lst):
    """A list's member values as comparable bits: None once subdivided."""
    if lst.triples is not None:
        return repr(lst.triples)
    if lst.ids_arr is not None:
        return (lst.ids_arr.tobytes(), lst.xs.tobytes(), lst.ys.tobytes())
    return None


def arrays(*arrs):
    return tuple(None if a is None else a.tobytes() for a in arrs)


def level_key(state):
    """Everything a query reads from one level and its subtree, as values."""
    box = (state.min_x, state.min_y, state.max_x, state.max_y, state.size_floor)
    return (
        tuple(v.hex() for v in box),
        state.depth,
        [(lst.home, list(lst.ids), members(lst)) for lst in state.lists],
        [lst.home for lst in state.bins],
        arrays(state.ids, state.xs, state.ys, state.border_ids, state.border_xs, state.border_ys),
        state.starts,
        [(lst.home, level_key(lst.child)) for lst in state.lists if lst.child is not None],
    )


def leaf_boxes(index):
    return [
        (tuple(v.hex() for v in (r.min.x, r.min.y, r.max.x, r.max.y)), ids)
        for r, ids in index.leaf_occupancies()
    ]


def probes(ext: Extents):
    """A 7x7 lattice over 1.5 times the box, its corners and center, and
    range rectangles: the box, its quadrants, and thin strips on its edges."""
    wide = ext.scaled(1.5)
    xs = np.linspace(wide.min.x, wide.max.x, 7).tolist()
    ys = np.linspace(wide.min.y, wide.max.y, 7).tolist()
    points = [Point2D(x, y) for x in xs for y in ys]
    points += [ext.min, ext.max, ext.center]
    c, lo, hi = ext.center, ext.min, ext.max
    rects = [
        ext,
        Extents(lo, c),
        Extents(c, hi),
        Extents(Point2D(lo.x, c.y), Point2D(c.x, hi.y)),
        Extents(lo, Point2D(hi.x, lo.y)),
        Extents(Point2D(hi.x, lo.y), hi),
    ]
    return points, rects


def assert_same_as_fresh(index):
    served = index.ensure_built()
    fresh = fresh_like(index)
    assert level_key(served) == level_key(fresh.ensure_built())
    assert leaf_boxes(index) == leaf_boxes(fresh)
    points, rects = probes(served.shape.extents)
    for q in points:
        assert index.nearest(q) == fresh.nearest(q), q
    for r in rects:
        assert index.range_query(r) == fresh.range_query(r), r


def levels(state):
    """Every level of a built tree, root first."""
    out = [state]
    for child in state.sub_indexes:
        out.extend(levels(child))
    return out


def children_by_bin(state):
    """Each child level by its list's home bin."""
    return {
        BinCoord(lst.home % state.nx, lst.home // state.nx): lst.child
        for lst in state.lists
        if lst.child is not None
    }


def interior_record(source, ext):
    """The record nearest the center of the box ext."""
    c = np.array([ext.center.x, ext.center.y])
    return int(((source.positions - c) ** 2).sum(axis=1).argmin())


class MovesDuringFetch(PointCollection):
    """Once armed, moves record 0 onto record 1 inside the next fetch, after
    the run has been copied, then disarms."""

    armed = False

    def fetch(self, first, out):
        super().fetch(first, out)
        if self.armed:
            self.armed = False
            self.move(0, *self._pts[1].tolist())
        return out


class CountsFetches(PointCollection):
    """Keeps the (first, length) of every run it was asked to fetch."""

    def __init__(self, points):
        super().__init__(points)
        self.fetched = []

    def fetch(self, first, out):
        self.fetched.append((first, len(out)))
        return super().fetch(first, out)


# -- the differential state machine -------------------------------------------


def mutations(dx, dy, bucket, n_min, n_max):
    """A state machine of move, append and remove_at over one index of
    n_min to n_max records, checked after every step against a fresh index
    over the same records."""

    class Mutations(RuleBasedStateMachine):
        @initialize(seed=st.integers(0, 2**16), n=st.integers(n_min, n_max))
        def start(self, seed, n):
            # normal scatter, half snapped to a unit lattice: duplicates,
            # records on bin edges and zero coordinates, half of them -0.0
            rng = np.random.default_rng(seed)
            pts = rng.normal(0.0, 4.0, (n, 2))
            snap = rng.random(n) < 0.5
            pts[snap] = np.round(pts[snap])
            zero = pts == 0.0
            pts[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
            self.source = PointCollection(pts)
            self.index = new_index(self.source, dx, dy, bucket)

        def target(self, data, rid):
            """Another record's position, a root box extreme on either axis,
            the record's own position with the sign of a zero flipped, or a
            point near the box."""
            pos = self.source.positions
            # the box of the records now: the index's box once built, and
            # read without building, so moves can pile up between checks
            ext = self.source.data_extents
            x, y = pos[rid].tolist()
            kind = data.draw(st.sampled_from(["duplicate", "extreme", "zero", "near"]))
            if kind == "duplicate":
                return tuple(pos[data.draw(st.integers(0, len(pos) - 1))].tolist())
            if kind == "extreme":
                return (
                    data.draw(st.sampled_from([ext.min.x, ext.max.x, x])),
                    data.draw(st.sampled_from([ext.min.y, ext.max.y, y])),
                )
            if kind == "zero":
                return (
                    data.draw(st.sampled_from([0.0, -0.0])) if x == 0.0 else x,
                    data.draw(st.sampled_from([0.0, -0.0])) if y == 0.0 else y,
                )
            near = ext.scaled(1.2)
            return (
                data.draw(st.floats(near.min.x, near.max.x)),
                data.draw(st.floats(near.min.y, near.max.y)),
            )

        @rule(data=st.data())
        def move(self, data):
            rid = data.draw(st.integers(0, self.source.record_count - 1))
            self.source.move(rid, *self.target(data, rid))

        @rule(data=st.data())
        def move_many(self, data):
            """2 to 5 moves before the next check; a move may put its record
            back on the bits the index last read, or move a record that
            fills an empty root bin."""
            built = self.index.ensure_built()  # already current: no rebuild
            read = self.source.positions.copy()
            owners = built.owners[built.owners >= 0].tolist()
            for _ in range(data.draw(st.integers(2, 5))):
                kind = data.draw(st.sampled_from(["any", "back", "owner"]))
                if kind == "owner" and owners:
                    rid = data.draw(st.sampled_from(owners))
                else:
                    rid = data.draw(st.integers(0, self.source.record_count - 1))
                self.source.move(rid, *self.target(data, rid))
                if kind == "back":
                    self.source.move(rid, *read[rid].tolist())

        @rule(data=st.data())
        def append(self, data):
            rid = data.draw(st.integers(0, self.source.record_count - 1))
            self.source.append(*self.target(data, rid))

        @rule(data=st.data())
        def remove_at(self, data):
            if self.source.record_count > 1:
                self.source.remove_at(data.draw(st.integers(0, self.source.record_count - 1)))

        @invariant()
        def equals_a_fresh_build(self):
            assert_same_as_fresh(self.index)

    Mutations.TestCase.settings = settings(
        max_examples=15, stateful_step_count=12, deadline=None
    )
    return Mutations.TestCase


TestMutationsFlat3x3 = mutations(3, 3, None, 1, 60)
TestMutationsQuadTree = mutations(2, 2, 1, 1, 40)
TestMutations7x5b2 = mutations(7, 5, 2, 20, 120)
TestMutations10x10b8 = mutations(10, 10, 8, 200, 400)


# -- pinned cases ---------------------------------------------------------------


class TestReuse:
    def test_one_interior_move_rebuilds_at_most_the_root_and_two_root_children(self):
        src = gaussian_points(5000, seed=42)
        idx = HierGridIndex(src, 10, 10, HierConfig(max_bin_records=8))
        before = idx.ensure_built()
        assert idx.level_counts == (len(levels(before)), 0)  # a fresh build
        old = children_by_bin(before)
        # the record nearest the box center moves onto another interior record
        ext = before.shape.extents
        c = np.array([ext.center.x, ext.center.y])
        pos = src.positions
        rid, other = np.argsort(((pos - c) ** 2).sum(axis=1))[[0, 40]].tolist()
        old_bin = resolve_bin(Point2D(*pos[rid].tolist()), before.shape)
        src.move(rid, *pos[other].tolist())
        after = idx.ensure_built()
        assert after.shape.extents == ext
        new_bin = resolve_bin(Point2D(*pos[rid].tolist()), after.shape)
        touched = {old_bin, new_bin}
        new = children_by_bin(after)
        reused = 0
        for coord, child in new.items():
            if coord in touched:
                assert child is not old.get(coord)
            else:
                assert child is old[coord]
                reused += len(levels(child))
        built = len(levels(after)) - reused
        assert built <= 1 + sum(len(levels(new[c])) for c in touched if c in new)
        assert idx.level_counts == (built, reused)
        assert reused > 0.9 * len(levels(after))
        assert_same_as_fresh(idx)

    def test_reused_levels_keep_no_older_positions_array_alive(self):
        src = gaussian_points(2000, seed=3)
        idx = HierGridIndex(src, 6, 6, HierConfig(max_bin_records=8))
        previous = weakref.ref(idx.ensure_built().positions)
        src.move(5, *src.positions[6].tolist())
        root = idx.ensure_built()
        assert idx.level_counts[1] > 0
        assert previous() is None
        assert root.positions is not None
        assert all(state.positions is None for state in levels(root)[1:])

    def test_a_child_box_extreme_moving_from_zero_to_negative_zero_rebuilds(self):
        # the root's lower-left bin holds (-5, -5), (0.0, -6) and (-3, -8): its
        # child box's max x is 0.0, far inside the root box [-10, 30]^2
        pts = [(-5.0, -5.0), (0.0, -6.0), (-3.0, -8.0), (-10.0, -10.0), (30.0, 30.0)]
        src = PointCollection(pts)
        idx = HierGridIndex(src, 2, 2, HierConfig(max_bin_records=1))
        before = idx.ensure_built()
        child = idx.sub_at(resolve_bin(Point2D(0.0, -6.0), before.shape))
        assert child.max_x.hex() == "0x0.0p+0"
        src.move(1, -0.0, -6.0)
        after = idx.ensure_built()
        assert after.shape.extents == before.shape.extents
        rebuilt = idx.sub_at(resolve_bin(Point2D(0.0, -6.0), after.shape))
        assert rebuilt is not child
        assert rebuilt.max_x.hex() == "-0x0.0p+0"
        assert_same_as_fresh(idx)

    def test_mutation_during_a_reusing_rebuild_is_seen_by_next_query(self):
        # the repair's one read moves record 0 after copying every row
        src = MovesDuringFetch(gaussian_points(1000, seed=9).positions)
        idx = HierGridIndex(src, 6, 6, HierConfig(max_bin_records=8))
        idx.ensure_built()
        src.armed = True
        src.move(2, *src.positions[3].tolist())
        built = idx.ensure_built()
        assert not src.armed
        # the move of record 0 landed after its row was read: the build trails
        assert built.version < src.version
        assert idx.level_counts[1] > 0
        res = idx.nearest(Point2D(*src.positions[1].tolist()))
        assert res.distance == 0.0 and res.record in (0, 1)
        assert idx.ensure_built().version == src.version
        assert idx.level_counts[1] > 0
        assert_same_as_fresh(idx)

    def test_mutation_during_a_full_rebuild_is_seen_by_next_query(self):
        # an append changes the record count, so the whole tree is built
        # from the read that moves record 0
        src = MovesDuringFetch(gaussian_points(1000, seed=9).positions)
        idx = HierGridIndex(src, 6, 6, HierConfig(max_bin_records=8))
        idx.ensure_built()
        src.append(*src.positions[3].tolist())
        src.armed = True
        built = idx.ensure_built()
        assert not src.armed
        assert built.version < src.version
        res = idx.nearest(Point2D(*src.positions[1].tolist()))
        assert res.distance == 0.0 and res.record in (0, 1)
        assert idx.ensure_built().version == src.version
        assert idx.level_counts[1] > 0
        assert_same_as_fresh(idx)

    def test_a_repair_fills_again_a_bin_a_tie_or_an_emptied_bin_changes(self):
        # 4x4 bins of side 2 over [0, 8]^2: bin (1, 1) is empty and record 4,
        # 1.5 below its center (3, 3), fills it
        src = PointCollection([(0.0, 0.0), (8.0, 8.0), (0.0, 8.0), (8.0, 0.0), (3.0, 1.5)])
        idx = GridIndex(src, 4, 4)
        assert idx.filled.at(BinCoord(1, 1)).ids == [4]
        # record 2 moves 1.5 above the center: the tie goes to the lower id
        src.move(2, 3.0, 4.5)
        assert idx.filled.at(BinCoord(1, 1)).ids == [2]
        assert_same_as_fresh(idx)
        # record 4 leaves bin (1, 0), which is then empty and filled anew
        src.move(4, 7.0, 7.0)
        assert idx.filled.at(BinCoord(1, 0)).ids == [0]
        assert_same_as_fresh(idx)

    def test_every_rebuild_reads_the_source_in_one_call(self):
        src = CountsFetches(gaussian_points(5000, seed=42).positions)
        idx = HierGridIndex(src, 10, 10, HierConfig(max_bin_records=8))
        idx.ensure_built()
        assert src.fetched == [(0, 5000)]
        ext = idx.shape.extents
        rid = interior_record(src, ext)
        src.fetched = []
        src.move(rid, ext.center.x, ext.center.y)
        idx.ensure_built()
        assert src.fetched == [(0, 5000)]
        assert idx.level_counts[1] > 0  # a repair
        src.fetched = []
        src.append(ext.center.x, ext.center.y)
        idx.ensure_built()
        assert src.fetched == [(0, 5001)]
        assert idx.level_counts[1] == 0  # a full build
        assert_same_as_fresh(idx)

    @pytest.mark.parametrize("bucket", [None, 8])
    def test_the_index_owns_its_positions(self, bucket):
        # a view of the source's live array would change under a move, and
        # the repair's diff would then compare an array with itself
        src = gaussian_points(2000, seed=8)
        idx = new_index(src, 10, 10, bucket)
        before = idx.ensure_built()
        assert not np.shares_memory(before.positions, src.positions)
        bits = before.positions.tobytes()
        rid = interior_record(src, before.shape.extents)
        src.move(rid, *src.positions[rid + 1].tolist())
        assert before.positions.tobytes() == bits
        after = idx.ensure_built()
        assert not np.shares_memory(after.positions, src.positions)
        assert after.positions.tobytes() == src.positions.tobytes()
        assert_same_as_fresh(idx)

    @pytest.mark.parametrize("bucket", [None, 8])
    def test_a_repair_leaves_the_previous_root_as_it_was(self, bucket):
        src = gaussian_points(3000, seed=11)
        idx = new_index(src, 10, 10, bucket)
        before = idx.ensure_built()
        key = level_key(before)
        ext = before.shape.extents
        for rid in (interior_record(src, ext), 17):
            src.move(rid, *src.positions[rid + 1].tolist())
        assert idx.shape.extents == ext  # the box held: a repair
        assert level_key(before) == key
        assert_same_as_fresh(idx)

    @pytest.mark.parametrize("dims, bucket", [(8, None), (10, 8)])
    def test_a_repair_keeps_no_previous_root_array_alive(self, dims, bucket):
        src = gaussian_points(5000, seed=4)
        idx = new_index(src, dims, dims, bucket)
        before = idx.ensure_built()
        old = [weakref.ref(a) for a in (before.positions, before.ids, before.xs, before.ys)]
        ext = before.shape.extents
        rid = interior_record(src, ext)
        del before
        src.move(rid, *src.positions[rid + 1].tolist())
        assert idx.shape.extents == ext  # the box held: a repair
        assert [ref() for ref in old] == [None] * 4
        assert_same_as_fresh(idx)

    def test_any_source_reuses(self):
        class TupleSource(IndexableSource):
            """Records as a list of (x, y) tuples."""

            def __init__(self, pts):
                self.pts = [tuple(p) for p in pts]
                self._version = 0

            @property
            def record_count(self):
                return len(self.pts)

            @property
            def version(self):
                return self._version

            def fetch(self, first, out):
                out[:] = self.pts[first : first + len(out)]
                return out

            def move(self, rid, x, y):
                self.pts[rid] = (x, y)
                self._version += 1

        src = TupleSource(gaussian_points(1500, seed=2).positions.tolist())
        idx = HierGridIndex(src, 8, 8, HierConfig(max_bin_records=8))
        idx.ensure_built()
        for rid in (10, 20, 30):
            src.move(rid, *src.pts[rid + 1])
            assert_same_as_fresh(idx)
            assert idx.level_counts[1] > 0

    def test_a_changed_record_count_or_root_box_rebuilds_in_full(self):
        src = gaussian_points(1000, seed=5)
        idx = HierGridIndex(src, 6, 6, HierConfig(max_bin_records=8))
        idx.ensure_built()
        src.append(*src.positions[0].tolist())
        assert idx.level_counts[1] == 0
        src.remove_at(3)
        assert idx.level_counts[1] == 0
        ext = idx.shape.extents
        src.move(0, ext.max.x + 1.0, ext.center.y)
        assert idx.level_counts[1] == 0
        assert_same_as_fresh(idx)
