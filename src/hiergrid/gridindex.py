"""The grid index: one builder for every level, one level search for both
flavours.

Records are rendered into a grid of id lists (the rendered grid, nulls where
empty), every empty bin is then redirected to the list holding the record
nearest its center (the filled grid), and nearest queries scan the query
point's bin plus, when the home-bin short circuit does not fire, its
1-neighborhood. A rebuild fetches every record once into two float lists,
writes them into one positions array a column at a time and builds the root
level from it. Every list of more than _max_bin_records records (unbounded
unless HierGridIndex sets it) gets a child level from the same builder, and
the search delegates to it wherever it would scan that list, so the flat
index is the case with no children.

Every level, root and child alike, is built from its own records alone: its
box is the tight box of their positions, and gap fill takes for each empty
bin the lowest-id record nearest its center, and that record's list from
the bin rendering put it in. Every level groups its records by bin
(row-major, ascending id within a bin), in one of two forms:

- An array level (the root, and every child of at least _VECTOR_SCAN_MIN
  records) is binned and grouped in one numpy pass and keeps the grouped
  records as id, x and y arrays.
- A list level (a child of fewer records) is built from its parent list's
  (id, x, y) triples in Python: _axis_bin bins and a stable sort groups.
  Below a few tens of records the numpy calls cost more than the work, and
  most levels of a deep tree are this small (a 2x2 b=1 tree over 5,000
  points has 2,888 levels, median 3 records).

A list keeps its members in one form: triples below _VECTOR_SCAN_MIN
records, else views of one slice of its level's arrays. Gap fill loops in
Python on a list level with few empty bins x records, and takes one numpy
argmin otherwise.

A nearest query keeps one running best across all levels. A level visit
works on the level's own slots: it finds the home bin with _axis_bin, the
boundary distance from bin_rect's edge arithmetic and the 1-neighborhood by
flat-index arithmetic over the filled list, so it builds no coordinate
objects. A range query reads the root's sorted arrays one window row at a
time, through the root's bin start offsets.
"""
from __future__ import annotations

import math
import sys
import threading
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import (
    BinCoord,
    Extents,
    GridShape,
    Point2D,
    _axis_bin,
    axis_bins,
    default_smallest_dimension,
    neighborhood,  # noqa: F401 - unused here; kept bound for tracers that wrap it
    resolve_bin,
    tight_extents,
    tight_extents_xy,
)
from .sources import EmptySourceError, IndexableSource, RecordId

# Below this list length a plain Python scan beats the numpy call overhead:
# shorter lists hold triples, and child levels with fewer records are list
# levels, which hold no arrays.
_VECTOR_SCAN_MIN = 24

# Most distances one gap-fill argmin holds at once (empty bins x records),
# which bounds its temporaries to a few tens of MB on any level.
_GAP_FILL_BLOCK = 1 << 20

# Most distances (empty bins x records) a list level's gap fill computes in
# a Python loop; above it one numpy argmin is cheaper. Timed per call, the
# loop costs about 2 us per empty bin plus 0.15 us per distance and numpy
# 15-35 us, so they cross between about 70 and 110 distances. The 2x2 list
# levels of a quad tree need at most 46 unless all records share an x or a
# y: a tight box leaves at most 2 of 4 bins empty, and a list level has at
# most 23 records. The 10x10 list levels of a b=8 tree over 20k gaussian
# points need 819-1,886, so those keep numpy.
_GAP_FILL_LOOP_MAX = 64


class OutsideExtentsError(ValueError):
    """A record geometry fell outside the extents of the grid rendering it."""


class BinList:
    """One bin's ordered list of record ids.

    Identity-based: the registry, the filled grid and the child-level map
    all share these objects by reference, and scan dedup compares identity,
    not content. Ids stay unique (a record enters a given bin once) and
    ascending, because rendering iterates record ids in order; a repeated
    id can therefore only be the last one.
    """

    __slots__ = ("ids", "ids_arr", "xs", "ys", "triples")

    def __init__(self) -> None:
        self.ids: list[RecordId] = []
        self.ids_arr: np.ndarray | None = None
        self.xs: np.ndarray | None = None
        self.ys: np.ndarray | None = None
        self.triples: list[tuple[int, float, float]] | None = None

    def append(self, rid: RecordId) -> None:
        ids = self.ids
        if not ids or ids[-1] != rid:
            ids.append(rid)

    def __len__(self) -> int:
        return len(self.ids)

    def freeze(self, rows, start: int, end: int) -> None:
        """Cache the members for the query scans from the slice [start, end)
        of `rows`, the level's records grouped by bin: its (ids, xs, ys)
        arrays, or on a list level its triples. A list keeps one form,
        triples below _VECTOR_SCAN_MIN records and array views otherwise."""
        if isinstance(rows, list):  # a list level: every list is short
            self.triples = rows[start:end]
            return
        ids, xs, ys = rows
        if end - start < _VECTOR_SCAN_MIN:
            self.triples = list(zip(self.ids, xs[start:end].tolist(), ys[start:end].tolist()))
        else:
            self.ids_arr, self.xs, self.ys = ids[start:end], xs[start:end], ys[start:end]


class RenderedGrid:
    """True occupancy: optional BinList per bin plus the unique-list registry."""

    def __init__(self, shape: GridShape) -> None:
        self.shape = shape
        self._bins: list[Optional[BinList]] = [None] * (shape.divisions_x * shape.divisions_y)
        self.registry: dict[BinList, BinCoord] = {}

    def at(self, c: BinCoord) -> Optional[BinList]:
        return self._bins[c.j * self.shape.divisions_x + c.i]

    def present_coords(self) -> Iterator[BinCoord]:
        nx = self.shape.divisions_x
        for flat, lst in enumerate(self._bins):
            if lst is not None:
                yield BinCoord(flat % nx, flat // nx)

    def _list_at(self, i: int, j: int) -> BinList:
        flat = j * self.shape.divisions_x + i
        lst = self._bins[flat]
        if lst is None:
            lst = BinList()
            self._bins[flat] = lst
            self.registry[lst] = BinCoord(i, j)
        return lst

    def render_point(self, rid: RecordId, p: Point2D) -> int:
        """Add rid to the bin holding p and return that bin's flat index."""
        c = resolve_bin(p, self.shape)
        if c is None:
            raise OutsideExtentsError(f"point {p} outside grid extents")
        self._list_at(c.i, c.j).append(rid)
        return c.j * self.shape.divisions_x + c.i

    def render_points(self, ids: Sequence[RecordId], pts: np.ndarray) -> np.ndarray:
        """render_point for every (ids[k], pts[k]) at once, into a grid with
        nothing rendered yet; ids ascend and are unique. Returns each
        record's flat bin index."""
        return self._render_sorted(ids, pts)[0]

    def _render_sorted(
        self, ids: Sequence[RecordId], pts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """render_points, also returning the stable sort of the records by
        bin that grouped them: row-major bins, ascending id within a bin.

        Bins are assigned in numpy, lists are created in first-seen id
        order, as the loop creates them, and each list holds the caller's
        own id objects.
        """
        shape = self.shape
        ext = shape.extents
        xs, ys = pts[:, 0], pts[:, 1]
        # written as a negated inside test so NaN, which fails every
        # comparison, counts as outside
        outside = ~((xs >= ext.min.x) & (xs <= ext.max.x) & (ys >= ext.min.y) & (ys <= ext.max.y))
        if outside.any():
            p = Point2D(*pts[int(outside.argmax())].tolist())
            raise OutsideExtentsError(f"point {p} outside grid extents")
        nx = shape.divisions_x
        flat = axis_bins(ys, ext.min.y, shape.bin_height, shape.divisions_y) * nx
        flat += axis_bins(xs, ext.min.x, shape.bin_width, nx)
        order = np.argsort(flat, kind="stable")
        grouped = flat[order]
        # cuts[r]:cuts[r + 1] is the r-th run of equal bins in sort order
        cuts = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), len(order)]
        run_bins = grouped[cuts[:-1]].tolist()
        firsts = order[cuts[:-1]].tolist()
        members = [ids[k] for k in order.tolist()]
        # a stable sort keeps each bin's positions ascending, so ordering the
        # runs by their first position gives first-seen order
        for r in sorted(range(len(firsts)), key=firsts.__getitem__):
            b = run_bins[r]
            self._list_at(b % nx, b // nx).ids.extend(members[cuts[r] : cuts[r + 1]])
        return flat, order

    def render_line(self, rid: RecordId, a: Point2D, b: Point2D) -> None:
        """Add rid to every bin the closed segment [a, b] touches.

        Walks the columns the segment crosses and tests candidate rows with
        closed parametric clipping, so corner- and edge-touched bins are
        never skipped.
        """
        shape = self.shape
        if resolve_bin(a, shape) is None or resolve_bin(b, shape) is None:
            raise OutsideExtentsError(f"segment ({a}, {b}) endpoint outside grid extents")
        # a == b needs no special case: the closed interval tests below
        # cover every bin the point touches, which for a point exactly on
        # a shared edge is all adjacent bins, not render_point's single one
        ext = shape.extents
        nx, ny = shape.divisions_x, shape.divisions_y
        bw, bh = shape.bin_width, shape.bin_height
        dx, dy = b.x - a.x, b.y - a.y

        i_lo = _clamp(math.floor((min(a.x, b.x) - ext.min.x) / bw) - 1, 0, nx - 1)
        i_hi = _clamp(math.floor((max(a.x, b.x) - ext.min.x) / bw) + 1, 0, nx - 1)
        for i in range(i_lo, i_hi + 1):
            x0 = ext.min.x + i * bw
            x1 = ext.min.x + (i + 1) * bw
            if dx == 0.0:
                if not (x0 <= a.x <= x1):
                    continue
                t_lo, t_hi = 0.0, 1.0
            else:
                t0 = (x0 - a.x) / dx
                t1 = (x1 - a.x) / dx
                t_lo, t_hi = (t0, t1) if t0 <= t1 else (t1, t0)
                t_lo = max(t_lo, 0.0)
                t_hi = min(t_hi, 1.0)
                if t_lo > t_hi:
                    continue
            ya = a.y + t_lo * dy
            yb = a.y + t_hi * dy
            ys0, ys1 = (ya, yb) if ya <= yb else (yb, ya)
            j_lo = _clamp(math.floor((ys0 - ext.min.y) / bh) - 1, 0, ny - 1)
            j_hi = _clamp(math.floor((ys1 - ext.min.y) / bh) + 1, 0, ny - 1)
            for j in range(j_lo, j_hi + 1):
                y0 = ext.min.y + j * bh
                y1 = ext.min.y + (j + 1) * bh
                if dy == 0.0:
                    hit = y0 <= a.y <= y1
                else:
                    u0 = (y0 - a.y) / dy
                    u1 = (y1 - a.y) / dy
                    u_lo, u_hi = (u0, u1) if u0 <= u1 else (u1, u0)
                    hit = max(t_lo, u_lo) <= min(t_hi, u_hi)
                if hit:
                    self._list_at(i, j).append(rid)

    def render_area(self, rid: RecordId, rect: Extents) -> None:
        """Add rid to every bin whose rectangle intersects rect (closed)."""
        shape = self.shape
        ext = shape.extents
        if not (ext.contains(rect.min) and ext.contains(rect.max)):
            raise OutsideExtentsError(f"rect {rect} outside grid extents")
        nx, ny = shape.divisions_x, shape.divisions_y
        bw, bh = shape.bin_width, shape.bin_height

        cols = []
        i_lo = _clamp(math.floor((rect.min.x - ext.min.x) / bw) - 1, 0, nx - 1)
        i_hi = _clamp(math.floor((rect.max.x - ext.min.x) / bw) + 1, 0, nx - 1)
        for i in range(i_lo, i_hi + 1):
            if ext.min.x + i * bw <= rect.max.x and ext.min.x + (i + 1) * bw >= rect.min.x:
                cols.append(i)
        rows = []
        j_lo = _clamp(math.floor((rect.min.y - ext.min.y) / bh) - 1, 0, ny - 1)
        j_hi = _clamp(math.floor((rect.max.y - ext.min.y) / bh) + 1, 0, ny - 1)
        for j in range(j_lo, j_hi + 1):
            if ext.min.y + j * bh <= rect.max.y and ext.min.y + (j + 1) * bh >= rect.min.y:
                rows.append(j)
        for j in rows:
            for i in cols:
                self._list_at(i, j).append(rid)


class FilledGrid:
    """Gap-filled view: every bin references a non-empty BinList."""

    def __init__(self, shape: GridShape, bins: list[BinList]) -> None:
        self.shape = shape
        self._bins = bins

    def at(self, c: BinCoord) -> BinList:
        return self._bins[c.j * self.shape.divisions_x + c.i]

    @property
    def flat(self) -> list[BinList]:
        return self._bins


class QueryResult(NamedTuple):
    """One nearest query's outcome, a named tuple: it also unpacks, indexes
    and compares as a plain tuple. records_examined counts distance
    evaluations (ids iterated, summed across every level of a hierarchical
    search). short_circuit is set only when this index's own home-bin scan
    proved the result exact.
    """

    record: RecordId
    distance: float
    records_examined: int
    short_circuit: bool = False


class _Best:
    """A query's running best, the (d2, id) minimum of the records every
    level examined, plus the examined-records counter.

    Before any candidate, rid is above every record id, so the first
    candidate wins even at d2 = inf (an overflowed square), and candidates
    tied at inf go to the lowest id."""

    __slots__ = ("d2", "rid", "cost")

    def __init__(self) -> None:
        self.d2 = math.inf
        self.rid = sys.maxsize
        self.cost = 0

    def offer(self, d2: float, rid: RecordId) -> None:
        if d2 < self.d2 or (d2 == self.d2 and rid < self.rid):
            self.d2 = d2
            self.rid = rid


class _BuiltState:
    """One grid level; the root level is swapped in atomically.

    Every level of a build shares the root's positions array and size floor
    and holds root record ids. children maps an overfull list to its child
    level. Only a root level without children holds the concatenated border
    arrays, which its flat border scan reads; every other level walks its
    index's border ring through filled.

    min_x .. ny are the shape's own float and int objects, so the level
    visit reads its box, bin sizes and divisions without a call. On an
    array level ids, xs and ys hold the level's records grouped by bin
    (row-major, ascending id within a bin), which its long lists view; a
    list level leaves them None. The root also keeps starts, each bin's
    offset into them (one more for the end), for range_query and border
    prep.
    """

    __slots__ = (
        "shape",
        "rendered",
        "filled",
        "positions",
        "depth",
        "version",
        "size_floor",
        "border_ids",
        "border_xs",
        "border_ys",
        "children",
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "bin_w",
        "bin_h",
        "nx",
        "ny",
        "ids",
        "xs",
        "ys",
        "starts",
    )

    def __init__(
        self,
        shape: GridShape,
        positions: np.ndarray,
        depth: int,
        size_floor: float,
    ) -> None:
        self.shape = shape
        self.rendered = RenderedGrid(shape)
        self.filled: FilledGrid | None = None
        self.positions = positions
        self.depth = depth
        self.version: int | None = None
        self.size_floor = size_floor
        self.border_ids: np.ndarray | None = None
        self.border_xs: np.ndarray | None = None
        self.border_ys: np.ndarray | None = None
        self.children: dict[BinList, _BuiltState] = {}
        ext = shape.extents
        self.min_x, self.min_y = ext.min.x, ext.min.y
        self.max_x, self.max_y = ext.max.x, ext.max.y
        self.bin_w, self.bin_h = shape.bin_width, shape.bin_height
        self.nx, self.ny = shape.divisions_x, shape.divisions_y
        self.ids: np.ndarray | None = None
        self.xs: np.ndarray | None = None
        self.ys: np.ndarray | None = None
        self.starts: list[int] | None = None

    @property
    def sub_indexes(self) -> list["_BuiltState"]:
        """Child levels, in rendered-registry order."""
        return list(self.children.values())


def _clamp(v: int, lo: int, hi: int) -> int:
    return lo if v < lo else hi if v > hi else v


def _gaps_sq(v: float, lo: float, size: float, n: int) -> list[float]:
    """Squared gap from coordinate v to each of n bins along one axis, the
    bin k spanning [lo + k * size, lo + (k + 1) * size]; 0 inside a bin."""
    out = []
    x0 = lo
    for k in range(1, n + 1):
        x1 = lo + k * size
        d = x0 - v if v < x0 else (v - x1 if v > x1 else 0.0)
        out.append(d * d)
        x0 = x1
    return out


def _scan_list(lst: BinList, qx: float, qy: float, best: _Best) -> float:
    """Linear scan of one list, its (d2, id) minimum offered to the query's
    best; every id counts as one distance evaluation. Returns the list's own
    smallest squared distance, which the home-bin short circuit reads."""
    best.cost += len(lst.ids)
    triples = lst.triples
    if triples is not None:
        m = math.inf
        mrid = triples[0][0]  # the lowest id, kept if every square overflows
        for rid, x, y in triples:  # ids ascend: the first minimum wins
            dx = x - qx
            dy = y - qy
            d2 = dx * dx + dy * dy
            if d2 < m:
                m = d2
                mrid = rid
    else:
        dx = lst.xs - qx
        dy = lst.ys - qy
        d2 = dx * dx + dy * dy
        k = int(d2.argmin())  # first minimum = lowest id (ids ascend)
        m = float(d2[k])
        mrid = int(lst.ids_arr[k])
    best.offer(m, mrid)
    return m


class GridIndex:
    """Fixed-divisions grid index over an IndexableSource of point records.

    Built lazily: any query first compares the source's version with the
    one the built state was read from, and rebuilds if they differ. A built
    index is immutable; concurrent queries are safe, and rebuilds swap the
    whole built state in one assignment.
    """

    # Lists holding more records than this get a child level; unbounded
    # here, and set from HierConfig by HierGridIndex.
    _max_bin_records = sys.maxsize

    def __init__(self, source: IndexableSource, divisions_x: int, divisions_y: int) -> None:
        if divisions_x < 1 or divisions_y < 1:
            raise ValueError(f"divisions must be >= 1, got {divisions_x}x{divisions_y}")
        self._source = source
        self.divisions_x = divisions_x
        self.divisions_y = divisions_y
        self._state: _BuiltState | None = None
        self._lock = threading.Lock()
        # every level has these divisions, so all levels share one border
        # ring: its flat bin indices in row-major order, and their columns
        # and rows for the ranked border visit
        self._ring_flat = [
            j * divisions_x + i
            for j in range(divisions_y)
            for i in range(divisions_x)
            if i in (0, divisions_x - 1) or j in (0, divisions_y - 1)
        ]
        self._ring_i = [f % divisions_x for f in self._ring_flat]
        self._ring_j = [f // divisions_x for f in self._ring_flat]

    # -- inspection --------------------------------------------------------

    @property
    def source(self) -> IndexableSource:
        return self._source

    @property
    def shape(self) -> GridShape:
        return self.ensure_built().shape

    @property
    def rendered(self) -> RenderedGrid:
        return self.ensure_built().rendered

    @property
    def filled(self) -> FilledGrid:
        return self.ensure_built().filled

    @property
    def sub_indexes(self) -> list[_BuiltState]:
        """The root's child levels."""
        return self.ensure_built().sub_indexes

    def sub_at(self, c: BinCoord) -> Optional[_BuiltState]:
        """The child level bin c delegates to, if any."""
        state = self.ensure_built()
        return state.children.get(state.filled.at(c))

    def leaf_occupancies(self) -> list[tuple[Extents, tuple[RecordId, ...]]]:
        """(bin rectangle, ascending root record ids) for every occupied
        leaf bin, i.e. every rendered bin that was not subdivided."""
        out: list[tuple[Extents, tuple[RecordId, ...]]] = []

        def collect(state: _BuiltState) -> None:
            for lst, coord in state.rendered.registry.items():
                child = state.children.get(lst)
                if child is None:
                    out.append((state.shape.bin_rect(coord), tuple(lst.ids)))
                else:
                    collect(child)

        collect(self.ensure_built())
        return out

    # -- rebuild pipeline ---------------------------------------------------

    def ensure_built(self) -> _BuiltState:
        state = self._state
        if state is not None and state.version == self._source.version:
            return state
        with self._lock:
            if self._state is None or self._state.version != self._source.version:
                self.rebuild()
            return self._state

    def rebuild(self) -> None:
        """Fetch every record once, build the root level and swap it in.

        The root level records the source version read before fetching, so
        a mutation that lands during the rebuild triggers the next one.
        """
        source = self._source
        version = source.version
        n = source.record_count
        if n < 1:
            raise EmptySourceError("cannot build an index over an empty source")
        scratch = source.new_scratch()
        fetch = source.fetch
        # one float list per axis, written into the array a column at a
        # time: a numpy write per value costs more than the fetch itself
        xs: list[float] = []
        ys: list[float] = []
        for rid in range(n):
            rec = fetch(rid, scratch)
            xs.append(rec.x)
            ys.append(rec.y)
        positions = np.empty((n, 2), dtype=np.float64)
        positions[:, 0] = xs
        positions[:, 1] = ys
        extents = tight_extents(positions)
        floor = default_smallest_dimension(extents)
        state = self._build_level(positions, range(n), np.arange(n), positions, extents, 0, floor)
        state.version = version
        self._state = state

    def _build_level(
        self,
        positions: np.ndarray,
        ids,
        ids_arr: np.ndarray | None,
        pts,
        extents: Extents,
        depth: int,
        size_floor: float,
    ) -> _BuiltState:
        """Build one grid level over the records `ids` (ascending root ids)
        within `extents`: render, group by bin, freeze, gap fill,
        subdivision, then border prep.

        On an array level `pts` is the records' (n, 2) positions and
        `ids_arr` their ids as an array. On a list level `pts` is its parent
        list's triples, `ids_arr` is not read, and numpy runs only for a gap
        fill too large for _fill_gaps' Python loop.
        """
        shape = GridShape(self.divisions_x, self.divisions_y, extents)
        state = _BuiltState(shape, positions, depth, size_floor)
        bin_of, order = self._render_records(state, ids, pts)
        # the records grouped by bin, in the order rendering sorted them
        if isinstance(pts, list):
            rows = [pts[k] for k in order]
        else:
            state.ids, state.xs, state.ys = ids_arr[order], pts[order, 0], pts[order, 1]
            rows = (state.ids, state.xs, state.ys)
        # every bin's records are one run of rows, bins in row-major order
        bins = state.rendered._bins
        starts = [0] * (len(bins) + 1)
        end = 0
        for f, lst in enumerate(bins, 1):
            if lst is not None:
                start, end = end, end + len(lst.ids)
                lst.freeze(rows, start, end)
            starts[f] = end
        if depth == 0:
            state.starts = starts
        filled_bins = list(bins)  # same identities
        self._fill_gaps(state, filled_bins, pts, bin_of)
        state.filled = FilledGrid(shape, filled_bins)
        self._on_after_rebuilt(state)
        self._prepare_border(state)
        return state

    def _on_after_rebuilt(self, state: _BuiltState) -> None:
        """Give every list of more than _max_bin_records records a child
        level on its records' tight box, unless the level's bins are not
        both larger than the size floor or that box equals the level's.

        A list of triples gets a list level over them; a longer one gets an
        array level over its records gathered from positions. The list then
        drops its members: queries delegate to the child instead.
        """
        floor = state.size_floor
        if not (state.bin_w > floor and state.bin_h > floor):
            return
        cap = self._max_bin_records
        positions = state.positions
        for lst in state.rendered.registry:
            if len(lst) <= cap:
                continue
            rows = lst.triples
            if rows is None:
                pts = positions[lst.ids_arr]
                extents = tight_extents(pts)
            else:
                _, xs, ys = zip(*rows)
                pts, extents = rows, tight_extents_xy(xs, ys)
            if extents == state.shape.extents:
                continue
            state.children[lst] = self._build_level(
                positions, lst.ids, lst.ids_arr, pts, extents, state.depth + 1, floor
            )
            lst.ids_arr = lst.xs = lst.ys = lst.triples = None

    def _render_records(self, state: _BuiltState, ids, pts):
        """Render each record of `ids` at its position in `pts`; returns each
        record's flat bin index and the stable sort of the records by it.

        An array level renders in one numpy pass. A list level loops over
        its (id, x, y) triples with render_point's arithmetic (_axis_bin on
        each axis), creating lists in first-seen order as render_point does,
        and sorts with Python's stable sort.
        """
        rendered = state.rendered
        if not isinstance(pts, list):
            return rendered._render_sorted(ids, pts)
        x0, y0, bw, bh, nx, ny = (
            state.min_x, state.min_y, state.bin_w, state.bin_h, state.nx, state.ny
        )
        bins = rendered._bins
        bin_of = []
        for rid, x, y in pts:
            i = _axis_bin(x, x0, bw, nx)
            j = _axis_bin(y, y0, bh, ny)
            f = j * nx + i
            lst = bins[f]
            if lst is None:
                lst = rendered._list_at(i, j)
            lst.ids.append(rid)  # ids ascend and are unique
            bin_of.append(f)
        return bin_of, sorted(range(len(bin_of)), key=bin_of.__getitem__)

    def _fill_gaps(self, state: _BuiltState, bins: list, pts, bin_of) -> None:
        """Point every empty bin at the list holding the record nearest its
        center, ties to the lowest id.

        The winner is the first minimum over the level's records `pts`, in
        ascending id order, so it is the lowest-id nearest record; its list
        is the one in its rendered bin, bin_of. A list level with at most
        _GAP_FILL_LOOP_MAX (empty bins x records) distances loops in Python;
        every other level takes one numpy argmin per block of empty bins.
        Centers and squared distances use the arithmetic of bin_center and
        _scan_list either way, so ties resolve as a query scan would.
        """
        empty = [flat for flat, lst in enumerate(bins) if lst is None]
        if not empty:
            return
        x0, y0, bw, bh, nx = state.min_x, state.min_y, state.bin_w, state.bin_h, state.nx
        if isinstance(pts, list):
            if len(empty) * len(pts) <= _GAP_FILL_LOOP_MAX:
                for f in empty:
                    cx = x0 + (f % nx + 0.5) * bw
                    cy = y0 + (f // nx + 0.5) * bh
                    d2 = [(x - cx) * (x - cx) + (y - cy) * (y - cy) for _, x, y in pts]
                    # index finds the first minimum, as argmin does
                    bins[f] = bins[bin_of[d2.index(min(d2))]]
                return
            pts = np.array(pts)[:, 1:]
        xs, ys = pts[:, 0], pts[:, 1]
        flat = np.array(empty)
        cxs = x0 + (flat % nx + 0.5) * bw
        cys = y0 + (flat // nx + 0.5) * bh
        owner_bins = np.asarray(bin_of)
        step = max(1, _GAP_FILL_BLOCK // len(xs))
        for lo in range(0, len(empty), step):
            dx = xs - cxs[lo : lo + step, None]
            dy = ys - cys[lo : lo + step, None]
            d2 = dx * dx + dy * dy
            owners = owner_bins[d2.argmin(axis=1)].tolist()
            for f, b in zip(empty[lo : lo + step], owners):
                bins[f] = bins[b]

    def _prepare_border(self, state: _BuiltState) -> None:
        """On a root level without children, concatenate the records of the
        border ring's distinct lists (row-major) for the flat border scan.

        A list's records are the run of the root's bin-sorted arrays at its
        rendered bin, which the registry names and starts bounds.
        """
        if state.depth or state.children:
            return
        registry, starts, nx = state.rendered.registry, state.starts, state.nx
        seen = set()
        runs = []
        for f in self._ring_flat:
            lst = state.filled.flat[f]
            if lst not in seen:
                seen.add(lst)
                c = registry[lst]
                b = c.j * nx + c.i
                runs.append(slice(starts[b], starts[b + 1]))
        state.border_ids = np.concatenate([state.ids[r] for r in runs])
        state.border_xs = np.concatenate([state.xs[r] for r in runs])
        state.border_ys = np.concatenate([state.ys[r] for r in runs])

    # -- queries ------------------------------------------------------------

    def nearest(self, q: Point2D) -> QueryResult:
        """Nearest indexed record to q; always returns one when non-empty."""
        state = self.ensure_built()
        best = _Best()
        sc = self._search(state, q, best)
        distance = math.sqrt(best.d2)
        if distance == math.inf:  # the squared distance overflowed
            x, y = state.positions[best.rid].tolist()
            distance = math.hypot(x - q.x, y - q.y)
        return QueryResult(best.rid, distance, best.cost, sc)

    def _search(self, state: _BuiltState, q: Point2D, best: _Best) -> bool:
        """Search one level into the query's running best: the border ring
        from outside the extents, else the home list's child level, else the
        home list and, unless its short circuit fires (returns True: the home
        list's own nearest record is closer than the home bin's nearest
        edge), its 1-neighborhood's lists.

        The home bin is _axis_bin's on each axis, the boundary distance uses
        bin_rect's edges, and the neighborhood is walked row-major by flat
        index, so nothing is built per visit but the set that keeps aliased
        lists from being consulted twice.
        """
        qx, qy = q.x, q.y
        x0, y0, x1, y1 = state.min_x, state.min_y, state.max_x, state.max_y
        if not (x0 <= qx <= x1 and y0 <= qy <= y1):
            self._border_search(state, q, best)
            return False
        nx, ny, bw, bh = state.nx, state.ny, state.bin_w, state.bin_h
        i = _axis_bin(qx, x0, bw, nx)
        j = _axis_bin(qy, y0, bh, ny)
        bins = state.filled._bins
        home = bins[j * nx + i]
        children = state.children
        if children:
            child = children.get(home)
            if child is not None:
                self._delegate(child, q, best)
                return False
        m = _scan_list(home, qx, qy, best)
        # the distance to the nearest edge of bin_rect((i, j))
        edge = qx - (x0 + i * bw)
        d = (x1 if i == nx - 1 else x0 + (i + 1) * bw) - qx
        if d < edge:
            edge = d
        d = qy - (y0 + j * bh)
        if d < edge:
            edge = d
        d = (y1 if j == ny - 1 else y0 + (j + 1) * bh) - qy
        if d < edge:
            edge = d
        if m < edge * edge:
            return True
        i_lo = i - 1 if i else 0
        i_hi = i + 1 if i + 1 < nx else i
        row_lo = (j - 1 if j else 0) * nx
        row_hi = (j + 1 if j + 1 < ny else j) * nx
        seen = {home}
        for row in range(row_lo, row_hi + 1, nx):
            for g in range(row + i_lo, row + i_hi + 1):
                lst = bins[g]
                if lst in seen:
                    continue
                seen.add(lst)
                child = children.get(lst) if children else None
                if child is None:
                    _scan_list(lst, qx, qy, best)
                else:
                    self._delegate(child, q, best)
        return False

    _delegate = _search  # a child level's search, under a name tracers count

    def _border_search(self, state: _BuiltState, q: Point2D, best: _Best) -> None:
        """Out-of-extents scan of the border ring, each distinct list once.

        A level with border arrays (a root without children) scans the ring's
        records of every distinct ring list in one vector pass. Every other
        level visits bins by ascending rectangle distance, ties by (row,
        column), and stops at the first bin farther than the running best.
        That stop is not exact: a gap-filled ring bin's list lies in another
        bin, so a closer record behind a farther ring bin can be missed. A
        bin's squared distance is its column's squared gap plus its row's,
        with bin edges at min + k * bin_size. The distances are sorted as
        plain floats, and only a bin the visit reaches is located in the
        row-major ring, by index.
        """
        if state.border_ids is not None:
            dx = state.border_xs - q.x
            dy = state.border_ys - q.y
            d2 = dx * dx + dy * dy
            best.cost += len(d2)
            m = float(d2.min())
            best.offer(m, int(state.border_ids[d2 == m].min()))  # ties: lowest id
            return
        qx, qy = q.x, q.y
        ddx = _gaps_sq(qx, state.min_x, state.bin_w, state.nx)
        ddy = _gaps_sq(qy, state.min_y, state.bin_h, state.ny)
        d2s = [ddx[i] + ddy[j] for i, j in zip(self._ring_i, self._ring_j)]
        bins = state.filled._bins
        children = state.children
        seen = set()
        k, prev = -1, -1.0
        for d2 in sorted(d2s):
            if d2 > best.d2:
                break
            # its first ring position, or the next after the last bin's on a tie
            k = d2s.index(d2, k + 1 if d2 == prev else 0)
            prev = d2
            lst = bins[self._ring_flat[k]]
            if lst in seen:
                continue
            seen.add(lst)
            child = children.get(lst) if children else None
            if child is None:
                _scan_list(lst, qx, qy, best)
            else:
                self._delegate(child, q, best)

    def range_query(self, rect: Extents) -> list[RecordId]:
        """Ids of records inside the closed rectangle, ascending.

        The window runs from the bin of the rectangle's min corner to the
        bin of its max corner, both clamped to the extents. Records are
        rendered by the same monotone _axis_bin, so the window holds them
        all. The root's records are grouped by bin in row-major order, so
        each window row is one slice of its arrays, read through the root's
        bin offsets. A window of several rows copies its slices into arrays
        sized once; the window is then masked in one numpy pass.
        """
        state = self.ensure_built()
        rx0, ry0, rx1, ry1 = rect.min.x, rect.min.y, rect.max.x, rect.max.y
        ex0, ey0, ex1, ey1 = state.min_x, state.min_y, state.max_x, state.max_y
        x0 = ex0 if ex0 > rx0 else rx0
        y0 = ey0 if ey0 > ry0 else ry0
        x1 = ex1 if ex1 < rx1 else rx1
        y1 = ey1 if ey1 < ry1 else ry1
        if x0 > x1 or y0 > y1:
            return []
        nx, ny, bw, bh = state.nx, state.ny, state.bin_w, state.bin_h
        i_lo = _axis_bin(x0, ex0, bw, nx)
        width = _axis_bin(x1, ex0, bw, nx) + 1 - i_lo
        j_lo = _axis_bin(y0, ey0, bh, ny)
        j_hi = _axis_bin(y1, ey0, bh, ny)
        starts, ids, xs, ys = state.starts, state.ids, state.xs, state.ys
        rows = range(j_lo * nx + i_lo, j_hi * nx + i_lo + 1, nx)  # each row's first bin
        if j_lo == j_hi:
            s, e = starts[rows[0]], starts[rows[0] + width]
            wxs, wys, wids = xs[s:e], ys[s:e], ids[s:e]
        else:
            # copy each row's slice into arrays sized once for the window
            n = 0
            for b in rows:
                n += starts[b + width] - starts[b]
            wxs, wys, wids = np.empty(n), np.empty(n), np.empty(n, dtype=ids.dtype)
            o = 0
            for b in rows:
                s, e = starts[b], starts[b + width]
                k = o + e - s
                wxs[o:k], wys[o:k], wids[o:k] = xs[s:e], ys[s:e], ids[s:e]
                o = k
        hit = (wxs >= rx0) & (wxs <= rx1) & (wys >= ry0) & (wys <= ry1)
        return np.sort(wids[hit]).tolist()
