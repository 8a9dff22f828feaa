"""A rebuild reuses every root child whose records did not move, and the
served build always equals a fresh build over the same records.

The oracle is a fresh index over an equal PointCollection. Two builds are
compared level by level: box and size floor bits, every list's home bin,
ids and member values (as bytes or repr, so -0.0 differs from 0.0), every
bin's filled owner, the root's border arrays, and the child levels by bin;
then leaf boxes as float.hex, and nearest and range answers on a probe set.
"""
import weakref

import numpy as np
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
from hiergrid.sources import IndexableSource, Record


def new_index(source, dx, dy, bucket):
    if bucket is None:
        return GridIndex(source, dx, dy)
    return HierGridIndex(source, dx, dy, HierConfig(max_bin_records=bucket))


def fresh_like(index):
    """A fresh index of the same kind over a copy of its source's records."""
    bucket = index.config.max_bin_records if isinstance(index, HierGridIndex) else None
    source = index.source
    records = (source.fetch(rid, Record()) for rid in range(source.record_count))
    copy = PointCollection([(r.x, r.y) for r in records])
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
            ext = self.index.shape.extents
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
        class MovesDuringFetch(PointCollection):
            """Moves record 0 while the last record is being fetched, once armed."""

            armed = False

            def fetch(self, rid, scratch):
                if self.armed and rid == self.record_count - 1:
                    self.armed = False
                    self.move(0, *self._pts[1].tolist())
                return super().fetch(rid, scratch)

        src = MovesDuringFetch(gaussian_points(1000, seed=9).positions)
        idx = HierGridIndex(src, 6, 6, HierConfig(max_bin_records=8))
        idx.ensure_built()
        src.armed = True
        src.move(2, *src.positions[3].tolist())
        built = idx.ensure_built()
        # the move of record 0 landed after it was read: the build trails
        assert built.version < src.version
        assert idx.level_counts[1] > 0
        res = idx.nearest(Point2D(*src.positions[1].tolist()))
        assert res.distance == 0.0 and res.record in (0, 1)
        assert idx.ensure_built().version == src.version
        assert idx.level_counts[1] > 0
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

            def fetch(self, rid, scratch):
                scratch.x, scratch.y = self.pts[rid]
                return scratch

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
