"""The grid index: one builder for every level, one level search for both
flavours.

Records are rendered into id lists, one per occupied bin, each knowing its
home bin; every empty bin then points at the list holding the record nearest
its center, and nearest queries scan the query point's bin plus, when the
home-bin short circuit does not fire, its 1-neighborhood. Every list of more
than _max_bin_records records (unbounded unless HierGridIndex sets it) gets
a child level over its own records, and the search delegates to it wherever
it would scan that list, so the flat index is the case with no children.

Every rebuild reads all the records' positions in one fetch(0, positions)
call into an array it owns. A first build, or one after the record count
changed, builds the tree one depth at a time. A depth's input is the
records of all its levels (the root alone at depth 0), concatenated level
by level, ascending id within each level. One pass over it:

- bins every record on its own level with axis_bins, render_point's
  arithmetic;
- groups the records by (level, bin) with one stable sort: each run is one
  bin's list, ascending id within it, and each level keeps its lists in
  first-seen id order, as render_point registers them;
- freezes each list's members: triples below _VECTOR_SCAN_MIN records, else
  x and y arrays (views of the root's grouped arrays on the root, copies on
  a child level) beside the list's ids, its only id store;
- gap fills every empty bin of every level at once;
- picks with masks the lists that get a child level. Their records, in the
  same order, are the next depth's input, and their boxes come from one
  segmented reduction with tight_extents' bits.

A level is thus a function of its list's ids and their positions, the
divisions, the bucket size and the root's size floor. Any other rebuild,
when the root box and size floor keep the previous build's bits, repairs
the previous root rather than building one (otherwise it builds the whole
tree from the positions it read):

- a record moved when its row's bits changed, so 0.0 to -0.0 counts;
- the root's bin-sorted arrays drop the moved records and take them back in
  at their new bins, and only the bins they left or entered get new lists;
- every other list, child subtree and all, is the previous build's, save
  that a long leaf list is sliced anew from the new arrays;
- only the empty bins whose nearest record can have changed are filled
  again;
- the depth pass runs from depth 1 over the new lists' children alone.

The previous build is never mutated, and no level of the new one views its
arrays.

A nearest query keeps one running best across all levels. A level visit
works on the level's own slots: it finds the home bin with _axis_bin, the
boundary distance from bin_rect's edge arithmetic and the 1-neighborhood by
flat-index arithmetic over the filled list, so it builds no coordinate
objects. A root without children scans its 1-neighborhood in one vector
pass over the window's rows of its bin-sorted arrays (less the home run),
plus each gap-filled window bin's list rendered outside the window; every
other level walks the window's distinct lists.

A visit from outside a level's box skips the level, before ranking its
ring, when the query's squared distance to the box exceeds the running
best; the box's far edges are min + n * bin_size, where the ring's bin
edges put them. No ring bin is nearer than the box (the edges
min + k * bin_size do not decrease in k, and fl(a + b) is monotone), so the
ranked visit would stop at its first bin, and the skip changes no answer,
cost or visit order. A range query reads window rows of the root's sorted
arrays as the neighborhood pass does, through the root's bin offsets.
"""
from __future__ import annotations

import math
import struct
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
    segment_extents,
    tight_extents,
)
from .sources import EmptySourceError, IndexableSource, RecordId

# Below this list length a plain Python scan beats the numpy call overhead,
# so shorter lists hold triples.
_VECTOR_SCAN_MIN = 24

# Most (empty bin, record) distances one gap-fill block holds at once, which
# bounds its temporaries to a few tens of MB at any depth.
_GAP_FILL_BLOCK = 1 << 20


class OutsideExtentsError(ValueError):
    """A record geometry fell outside the extents of the grid rendering it."""


class BinList:
    """One bin's ordered list of record ids (its only id store), with its
    home (the flat index of the bin it was rendered in) and child level, or None.

    Identity-based: every bin the list fills holds this object by
    reference, and scan dedup compares identity, not content. Ids stay
    unique (a record enters a given bin once) and ascending, because
    rendering iterates record ids in order; a repeated id can therefore
    only be the last one.
    """

    __slots__ = ("ids", "home", "child", "xs", "ys", "triples")

    def __init__(self, ids: list[RecordId], home: int) -> None:
        self.ids = ids
        self.home = home
        self.child: _BuiltState | None = None
        self.xs = self.ys = None
        self.triples: list[tuple[int, float, float]] | None = None

    def append(self, rid: RecordId) -> None:
        ids = self.ids
        if not ids or ids[-1] != rid:
            ids.append(rid)

    def __len__(self) -> int:
        return len(self.ids)

    def freeze(self, rows, start: int, end: int, copy: bool) -> None:
        """Cache the members' positions for the query scans from the slice
        [start, end) of `rows`, a depth's records grouped by (level, bin):
        xs and ys as arrays, then as lists. A list below _VECTOR_SCAN_MIN
        records keeps (id, x, y) triples, a longer one the arrays' slices,
        copied when `copy` is set, on a child level, which keeps no arrays
        for them to view."""
        if end - start < _VECTOR_SCAN_MIN:
            self.triples = list(zip(self.ids, rows[2][start:end], rows[3][start:end]))
        else:
            xs, ys = rows[0][start:end], rows[1][start:end]
            self.xs, self.ys = (xs.copy(), ys.copy()) if copy else (xs, ys)


class RenderedGrid:
    """True occupancy: optional BinList per bin, each at its home, and the
    lists in creation order. The render_* canvas, and a level's view."""

    def __init__(self, shape: GridShape, lists: Sequence[BinList] = ()) -> None:
        self.shape = shape
        self._bins: list[Optional[BinList]] = [None] * (shape.divisions_x * shape.divisions_y)
        self.lists = list(lists)
        for lst in self.lists:
            self._bins[lst.home] = lst

    @property
    def registry(self) -> dict[BinList, BinCoord]:
        """Each list's home bin, in creation order."""
        nx = self.shape.divisions_x
        return {lst: BinCoord(lst.home % nx, lst.home // nx) for lst in self.lists}

    def at(self, c: BinCoord) -> Optional[BinList]:
        return self._bins[self.shape.flat_index(c)]

    def present_coords(self) -> Iterator[BinCoord]:
        nx = self.shape.divisions_x
        for flat, lst in enumerate(self._bins):
            if lst is not None:
                yield BinCoord(flat % nx, flat // nx)

    def _list_at(self, i: int, j: int) -> BinList:
        flat = j * self.shape.divisions_x + i
        lst = self._bins[flat]
        if lst is None:
            lst = BinList([], flat)
            self._bins[flat] = lst
            self.lists.append(lst)
        return lst

    def render_point(self, rid: RecordId, p: Point2D) -> None:
        """Add rid to the bin holding p."""
        c = resolve_bin(p, self.shape)
        if c is None:
            raise OutsideExtentsError(f"point {p} outside grid extents")
        self._list_at(c.i, c.j).append(rid)

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
    """Gap-filled view of a level's bins, flat and row-major: every bin
    references a non-empty BinList."""

    def __init__(self, shape: GridShape, bins: list[BinList]) -> None:
        self.shape = shape
        self.flat = bins

    def at(self, c: BinCoord) -> BinList:
        return self.flat[self.shape.flat_index(c)]


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

    bins holds the list filling each bin, row-major, and lists the level's
    lists in first-seen id order; rendered, filled, sub_indexes and shape
    are views made on access.

    Every level of a build shares the root's size floor and holds root
    record ids. Only the root keeps the positions array, so a child level
    that a later build reuses keeps no older build's array alive. On the
    root only, owners holds the record filling each empty bin (-1 where a
    bin is occupied), and reused lists the child levels this build took as
    they were from the previous one. Only a root level without
    children holds the border arrays, in ascending id order, which its flat
    border scan reads; every other level walks its index's border ring
    through bins.

    min_x .. ny hold the level's box, bin sizes (GridShape's arithmetic) and
    divisions as plain numbers, which the level visit reads. On the root
    only, ids, xs and ys hold the records grouped by bin (row-major,
    ascending id within a bin), which its long lists view, and starts holds
    each bin's offset into them (one more for the end), for range_query and
    border prep.
    """

    __slots__ = (
        "bins", "lists", "positions", "depth", "version", "size_floor",
        "border_ids", "border_xs", "border_ys", "reused", "min_x", "min_y", "max_x",
        "max_y", "bin_w", "bin_h", "nx", "ny", "ids", "xs", "ys", "starts", "owners",
    )

    def __init__(
        self, box: tuple[float, ...], nx: int, ny: int, depth: int, size_floor: float
    ) -> None:
        self.min_x, self.min_y, self.max_x, self.max_y = box
        self.bin_w, self.bin_h = (self.max_x - self.min_x) / nx, (self.max_y - self.min_y) / ny
        self.nx, self.ny = nx, ny
        self.bins: list[BinList] | None = None
        self.lists: list[BinList] | None = None
        self.positions: np.ndarray | None = None
        self.depth = depth
        self.version: int | None = None
        self.size_floor = size_floor
        self.border_ids = self.border_xs = self.border_ys = None
        self.reused: list[_BuiltState] | None = None
        self.ids = self.xs = self.ys = None
        self.starts: list[int] | None = None
        self.owners: np.ndarray | None = None

    @property
    def shape(self) -> GridShape:
        box = Extents(Point2D(self.min_x, self.min_y), Point2D(self.max_x, self.max_y))
        return GridShape(self.nx, self.ny, box)

    @property
    def rendered(self) -> RenderedGrid:
        """Inspection view: each list at its home bin, in first-seen order."""
        return RenderedGrid(self.shape, self.lists)

    @property
    def filled(self) -> FilledGrid:
        """Inspection view of bins."""
        return FilledGrid(self.shape, self.bins)

    @property
    def sub_indexes(self) -> list["_BuiltState"]:
        """Child levels, in first-seen list order."""
        return [lst.child for lst in self.lists if lst.child is not None]


class _Depth:
    """One depth of a build: its levels and their records, concatenated
    level by level (ascending root id within each); offsets[k] is level k's
    first record, with one more for the end.

    Rendering adds the per-level box arrays (min_x, min_y, bin_w, bin_h),
    each record's flat bin on its level, the records grouped by (level, bin)
    as rows (ids, xs, ys), and per run of one (level, bin): its start in
    rows (cuts, one more for the end), its key level * bins + bin, and its
    BinList. grid holds the lists by key, None where a bin is empty.
    """

    __slots__ = (
        "levels", "offsets", "ids", "xs", "ys", "box", "flat", "rows",
        "cuts", "keys", "lists", "grid",
    )

    def __init__(self, levels, offsets, ids, xs, ys) -> None:
        self.levels: list[_BuiltState] = levels
        self.offsets: np.ndarray = offsets
        self.ids, self.xs, self.ys = ids, xs, ys


def _clamp(v: int, lo: int, hi: int) -> int:
    return lo if v < lo else hi if v > hi else v


def _bits(root: _BuiltState) -> bytes:
    """A root's box and size floor as bytes, equal only when bit-identical."""
    return struct.pack("5d", root.min_x, root.min_y, root.max_x, root.max_y, root.size_floor)


def _flat_bins(state: _BuiltState, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The flat bin rendering puts each in-box point (xs, ys) in on level
    state."""
    flat = axis_bins(ys, state.min_y, state.bin_h, state.ny) * state.nx
    flat += axis_bins(xs, state.min_x, state.bin_w, state.nx)
    return flat


def _nearest(xs, ys, first, count, cxs, cys) -> np.ndarray:
    """For each center (cxs[k], cys[k]), the index of the first (so lowest
    id) nearest of the count[k] points (xs, ys) from first[k] on; first
    does not decrease.

    Centers with equal counts are stacked into one matrix, at most
    _GAP_FILL_BLOCK distances (or one row) at a time; squared distances use
    _scan_list's arithmetic, so ties resolve as a query scan would.
    """
    by_count = np.argsort(count, kind="stable")
    heads = np.flatnonzero(np.diff(count[by_count], prepend=-1)).tolist()
    owners = np.empty(len(count), dtype=np.intp)
    for lo, hi in zip(heads, [*heads[1:], len(count)]):
        c = int(count[by_count[lo]])
        step = max(1, _GAP_FILL_BLOCK // c)
        for k in range(lo, hi, step):
            rows = by_count[k : min(k + step, hi)]
            starts = first[rows]
            # rows of one count ascend by first, so equal first and last
            # starts mean one run: it broadcasts against every row, without
            # a gather
            if starts[0] == starts[-1]:
                rec = slice(starts[0], starts[0] + c)
            else:
                rec = starts[:, None] + np.arange(c)
            dx = xs[rec] - cxs[rows, None]
            dy = ys[rec] - cys[rows, None]
            d2 = dx * dx + dy * dy
            owners[rows] = starts + d2.argmin(axis=1)
    return owners


def _root_list(root: _BuiltState, home: int, ids: list[RecordId] | None = None) -> BinList:
    """The list at bin home of a repaired root, frozen from root's
    bin-sorted arrays; ids, when given, is its ids list."""
    s, e = root.starts[home], root.starts[home + 1]
    cut = (root.xs[s:e], root.ys[s:e])
    lst = BinList(root.ids[s:e].tolist() if ids is None else ids, home)
    # only a short list's triples take Python floats
    floats = (cut[0].tolist(), cut[1].tolist()) if e - s < _VECTOR_SCAN_MIN else ((), ())
    lst.freeze((*cut, *floats), 0, e - s, False)
    return lst


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
        mrid = lst.ids[k]
    best.offer(m, mrid)
    return m


def _gather(root: _BuiltState, first: int, last: int, width: int, cut: int = -1):
    """The root's bin-sorted xs, ys and ids over a window of bins: width
    bins from each of the row-major bins first, first + nx, .., last, less
    the run of bin cut where the window holds it. One row without the cut
    is one run, returned as views; otherwise the runs are copied into
    arrays sized once. No Python container is built."""
    starts, xs, ys, ids = root.starts, root.xs, root.ys, root.ids
    rows = range(first, last + 1, root.nx)
    if first == last and not first <= cut < first + width:
        s, e = starts[first], starts[first + width]
        return xs[s:e], ys[s:e], ids[s:e]
    n = 0
    for a in rows:
        n += starts[a + width] - starts[a]
        if a <= cut < a + width:
            n -= starts[cut + 1] - starts[cut]
    wxs, wys, wids = np.empty(n), np.empty(n), np.empty(n, dtype=ids.dtype)
    o = 0
    for a in rows:
        s, e = starts[a], starts[a + width]
        if a <= cut < a + width:  # copy the runs before and after the cut
            m = starts[cut]
            k = o + m - s
            wxs[o:k], wys[o:k], wids[o:k] = xs[s:m], ys[s:m], ids[s:m]
            o, s = k, starts[cut + 1]
        k = o + e - s
        wxs[o:k], wys[o:k], wids[o:k] = xs[s:e], ys[s:e], ids[s:e]
        o = k
    return wxs, wys, wids


def _scan_window(
    root: _BuiltState, home: BinList, i_lo: int, i_hi: int, row_lo: int, row_hi: int,
    qx: float, qy: float, best: _Best,
) -> None:
    """Scan the lists of a childless root's 1-neighborhood window, columns
    i_lo .. i_hi of the rows at flat offsets row_lo .. row_hi (row * nx),
    into best: each distinct list but home (already scanned) once, as the
    per-list walk does, so the cost is the same sum.

    Each window row is one run of the root's bin-sorted arrays, less the
    home list's run where it lies in the row; their records are gathered
    and scanned in one vector pass. They are bin-major, not ascending by
    id, so of equal minima the lowest id wins. A gap-filled window bin whose
    list's home lies outside the window is scanned with _scan_list, once.
    """
    nx, bins = root.nx, root.bins
    outside: list[BinList] = []
    if len(root.lists) < len(bins):  # some bin is gap-filled
        for row in range(row_lo, row_hi + 1, nx):
            for g in range(row + i_lo, row + i_hi + 1):
                lst = bins[g]
                f = lst.home
                if f != g and lst is not home and lst not in outside:
                    c = f % nx
                    if not (i_lo <= c <= i_hi and row_lo <= f - c <= row_hi):
                        outside.append(lst)
    xs, ys, ids = _gather(root, row_lo + i_lo, row_hi + i_lo, i_hi + 1 - i_lo, home.home)
    if len(ids):
        best.cost += len(ids)
        dx = xs - qx
        dy = ys - qy
        d2 = dx * dx + dy * dy
        k = int(d2.argmin())
        m = d2[k]
        rid = ids[k] if np.count_nonzero(d2 == m) == 1 else ids[d2 == m].min()
        best.offer(float(m), int(rid))
    for lst in outside:
        _scan_list(lst, qx, qy, best)


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
        return state.bins[state.shape.flat_index(c)].child

    @property
    def level_counts(self) -> tuple[int, int]:
        """(levels built, levels reused) by the rebuild that made the current
        build; the reused levels are the whole subtrees of the root children
        it took from the previous build."""
        state = self.ensure_built()

        def count(s: _BuiltState) -> int:
            return 1 + sum(count(c) for c in s.sub_indexes)

        reused = sum(count(child) for child in state.reused or ())
        return count(state) - reused, reused

    def leaf_occupancies(self) -> list[tuple[Extents, tuple[RecordId, ...]]]:
        """(bin rectangle, ascending root record ids) for every occupied
        leaf bin, i.e. every rendered bin that was not subdivided."""
        out: list[tuple[Extents, tuple[RecordId, ...]]] = []

        def collect(state: _BuiltState) -> None:
            shape, nx = state.shape, state.nx
            for lst in state.lists:  # first-seen order, as the registry's
                if lst.child is None:
                    rect = shape.bin_rect(BinCoord(lst.home % nx, lst.home // nx))
                    out.append((rect, tuple(lst.ids)))
                else:
                    collect(lst.child)

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
        """Read the records, build or repair the root, build the tree one
        depth at a time and swap its root in.

        Every record's position is read in one fetch(0, positions) call
        into an array this build owns. When this replaces a build over as
        many records and the root box and size floor keep that build's
        bits, it repairs that build's root (_repair), which finds the moved
        records by comparing bits. Otherwise it builds the whole tree from
        the positions it read.

        The root level records the source version read before fetching, so
        a mutation that lands during the rebuild triggers the next one.
        """
        source = self._source
        version = source.version
        n = source.record_count
        if n < 1:
            raise EmptySourceError("cannot build an index over an empty source")
        # the index owns this array: a view of the source's live one would
        # make the repair's diff compare an array with itself
        positions = np.empty((n, 2), dtype=np.float64)
        source.fetch(0, positions)
        old = self._state
        if old is not None and len(old.positions) != n:
            old = None
        extents = tight_extents(positions)
        box = (extents.min.x, extents.min.y, extents.max.x, extents.max.y)
        floor = default_smallest_dimension(extents)
        root = _BuiltState(box, self.divisions_x, self.divisions_y, 0, floor)
        root.positions = positions
        # a repair builds few lists, and a flat build's lists hold every
        # record once: only a fresh tree's lists share one int object per
        # record across depths
        ints = None
        if old is not None and _bits(root) == _bits(old):
            depth = self._on_after_rebuilt(self._repair(old, root))
        else:
            xs, ys = positions[:, 0], positions[:, 1]
            depth = _Depth([root], np.array([0, n]), np.arange(n), xs, ys)
            if self._max_bin_records < n:
                ints = np.arange(n).astype(object)
        while depth is not None:
            self._render_records(depth, ints)
            _, xs, ys = depth.rows
            cuts, copy = depth.cuts, depth.levels[0] is not root
            # the short lists' triples take Python floats, converted once
            short = np.diff(cuts).min() < _VECTOR_SCAN_MIN
            rows = (xs, ys, *((xs.tolist(), ys.tolist()) if short else ((), ())))
            for lst, start, end in zip(depth.lists, cuts, cuts[1:]):
                lst.freeze(rows, start, end, copy)
            self._fill_gaps(depth)
            depth = self._on_after_rebuilt(depth)
        self._prepare_border(root)
        root.version = version
        self._state = root

    def _repair(self, old: _BuiltState, root: _BuiltState) -> _Depth:
        """Fill root, whose positions, box and size floor are those of the
        previous root `old` but for the moved records (rows whose bits
        differ), from old without mutating it, and return subdivision's
        depth-0 input: the new lists of the bins a moved record left or
        entered, in bin order.

        The bin-sorted arrays drop the moved records and take them back in
        at their new bins, ascending id within each. Every other list is
        old's, child subtree and all, save that a long leaf list is sliced
        anew from root's arrays; the lists are sorted again by first id,
        which is first-seen order. An empty bin keeps old's owner unless it
        was not empty or a moved record, the owner included, now lies at
        least as close to its center as the owner does; those bins are
        filled again with _fill_gaps' arithmetic.
        """
        pos, before = root.positions, old.positions
        n, nx, nb = len(pos), old.nx, old.nx * old.ny
        ne = pos.view(np.uint64) != before.view(np.uint64)
        rows = np.flatnonzero(ne[:, 0] | ne[:, 1])
        was = _flat_bins(old, before[rows, 0], before[rows, 1])
        now = _flat_bins(old, pos[rows, 0], pos[rows, 1])
        # each record's key is bin * n + id, so key order is bin-sorted order
        key = np.repeat(np.arange(nb) * n, np.diff(old.starts)) + old.ids
        moved = np.zeros(n, dtype=bool)
        moved[rows] = True
        stay = ~moved[old.ids]
        key = np.concatenate((key[stay], now * n + rows))
        order = np.argsort(key, kind="stable")  # two sorted runs: one merge
        key = key[order]
        root.ids, root.xs, root.ys = (
            np.concatenate((a[stay], b))[order]
            for a, b in ((old.ids, rows), (old.xs, pos[rows, 0]), (old.ys, pos[rows, 1]))
        )
        starts = np.searchsorted(key, np.arange(nb + 1) * n)
        root.starts = starts.tolist()
        sizes = np.diff(starts)
        touched = set(was.tolist()) | set(now.tolist())
        homes = sorted(b for b in touched if sizes[b])
        new = [_root_list(root, b) for b in homes]
        kept = [
            _root_list(root, lst.home, lst.ids) if lst.xs is not None else lst
            for lst in old.lists
            if lst.home not in touched
        ]
        root.reused = [lst.child for lst in kept if lst.child is not None]
        root.lists = sorted(kept + new, key=lambda lst: lst.ids[0])
        bins = [None] * nb
        for lst in root.lists:
            bins[lst.home] = lst
        # gap fill: the owner of a bin empty before and after changes only if
        # a moved record is now at least as close, the owner itself included
        gaps = np.flatnonzero(sizes == 0)
        owners = old.owners[gaps]  # -1 where the bin was occupied
        cx = old.min_x + (gaps % nx + 0.5) * old.bin_w
        cy = old.min_y + (gaps // nx + 0.5) * old.bin_h
        dx, dy = pos[owners, 0] - cx, pos[owners, 1] - cy
        mx, my = pos[rows, 0] - cx[:, None], pos[rows, 1] - cy[:, None]
        closest = (mx * mx + my * my).min(axis=1, initial=math.inf)
        redo = (owners < 0) | (closest <= dx * dx + dy * dy)
        k = int(redo.sum())
        owners[redo] = _nearest(
            pos[:, 0], pos[:, 1], np.zeros(k, dtype=np.intp), np.full(k, n), cx[redo], cy[redo]
        )
        root.owners = np.full(nb, -1)
        root.owners[gaps] = owners
        fill = _flat_bins(root, pos[owners, 0], pos[owners, 1])
        for b, f in zip(gaps.tolist(), fill.tolist()):
            bins[b] = bins[f]
        root.bins = bins
        depth = _Depth([root], np.array([0, n]), None, None, None)
        depth.lists, depth.keys = new, np.array(homes, dtype=np.intp)
        depth.cuts = [0, *np.cumsum(sizes[homes]).tolist()]
        picked = np.zeros(nb, dtype=bool)
        picked[homes] = True
        picked = np.repeat(picked, sizes)
        depth.rows = (root.ids[picked], root.xs[picked], root.ys[picked])
        return depth

    def _render_records(self, depth: _Depth, ints: np.ndarray | None) -> None:
        """Render every record of the depth on its own level.

        Bins come from axis_bins on each level's box; one stable sort on
        (level, bin) groups the records, so every run is one bin's list,
        ascending id within it. Each list knows its home bin and holds the
        ids as the objects in `ints`, or as new ints when it is None; a
        level keeps its lists in the order of their first records, which is
        render_point's first-seen order. The root keeps the grouped arrays
        and each bin's offset into them.
        """
        levels = depth.levels
        nx, ny = self.divisions_x, self.divisions_y
        nb = nx * ny
        depth.box = list(np.array([(lv.min_x, lv.min_y, lv.bin_w, lv.bin_h) for lv in levels]).T)
        if len(levels) == 1:  # one box: scalars, not per-record gathers
            lv = levels[0]
            level_of, x0, y0, bw, bh = 0, lv.min_x, lv.min_y, lv.bin_w, lv.bin_h
        else:
            level_of = np.repeat(np.arange(len(levels)), np.diff(depth.offsets))
            x0, y0, bw, bh = (v[level_of] for v in depth.box)
        depth.flat = flat = axis_bins(depth.ys, y0, bh, ny) * nx
        flat += axis_bins(depth.xs, x0, bw, nx)
        grouped = level_of * nb + flat
        order = np.argsort(grouped, kind="stable")
        grouped = grouped[order]
        heads = np.flatnonzero(np.diff(grouped, prepend=-1))
        depth.cuts = cuts = [*heads.tolist(), len(order)]
        depth.keys = keys = grouped[heads]
        depth.rows = rows = (depth.ids[order], depth.xs[order], depth.ys[order])
        members = (rows[0] if ints is None else ints[rows[0]]).tolist()
        homes = (keys % nb).tolist()
        depth.lists = lists = [
            BinList(members[s:e], home) for s, e, home in zip(cuts, cuts[1:], homes)
        ]
        depth.grid = grid = np.empty(len(levels) * nb, dtype=object)
        grid[keys] = np.fromiter(lists, dtype=object, count=len(lists))
        # sorted by first record, the lists fall into level order, each
        # level's in first-seen order
        by_first = [lists[r] for r in np.argsort(order[heads]).tolist()]
        ends = np.cumsum(np.bincount(keys // nb, minlength=len(levels))).tolist()
        for level, start, end in zip(levels, [0, *ends], ends):
            level.lists = by_first[start:end]
        root = levels[0]
        if not root.depth:
            root.ids, root.xs, root.ys = rows
            root.starts = np.searchsorted(grouped, np.arange(nb + 1)).tolist()

    def _fill_gaps(self, depth: _Depth) -> None:
        """Point every empty bin of every level at the list holding the
        level's record nearest the bin's center, ties to the lowest id.

        Empty bins whose levels hold equally many records, c, are stacked
        into one matrix of their levels' records, at most _GAP_FILL_BLOCK
        distances (or one row of c) at a time, and each row's first minimum
        wins: a level's records ascend by id, so that is the lowest-id
        nearest record. Its list is the one in the bin rendering put it in.
        A center is min + (k + 0.5) * bin size on each axis, and squared
        distances use _scan_list's arithmetic, so ties resolve as a query
        scan would.
        """
        nx = self.divisions_x
        nb = nx * self.divisions_y
        grid = depth.grid
        occupied = np.zeros(len(grid), dtype=bool)
        occupied[depth.keys] = True
        empty = np.flatnonzero(~occupied)
        level, b = np.divmod(empty, nb)
        x0, y0, bw, bh = depth.box
        cxs = x0[level] + (b % nx + 0.5) * bw[level]
        cys = y0[level] + (b // nx + 0.5) * bh[level]
        first = depth.offsets[level]
        count = depth.offsets[level + 1] - first
        owners = _nearest(depth.xs, depth.ys, first, count, cxs, cys)
        filled = grid.copy()
        filled[empty] = grid[level * nb + depth.flat[owners]]
        for k, lv in enumerate(depth.levels):
            lv.bins = filled[k * nb : (k + 1) * nb].tolist()
        root = depth.levels[0]
        if not root.depth:  # the root's records are its ids, in order
            root.owners = np.full(nb, -1)
            root.owners[empty] = owners

    def _on_after_rebuilt(self, depth: _Depth) -> _Depth | None:
        """Give every list of more than _max_bin_records records a child
        level on its records' tight box, unless its level's bins are not
        both larger than the size floor or that box equals its level's, and
        return the next depth: those lists' records in grouped order, or
        None when no list got a new child.

        A list with a child drops its members: queries delegate to the
        child.
        """
        levels, lists, cuts = depth.levels, depth.lists, depth.cuts
        nb = self.divisions_x * self.divisions_y
        floor = levels[0].size_floor
        level_of = depth.keys // nb
        sizes = np.diff(cuts)
        fits = np.array([lv.bin_w > floor and lv.bin_h > floor for lv in levels])
        split = (sizes > self._max_bin_records) & fits[level_of]
        runs = np.flatnonzero(split)
        offsets = np.concatenate(([0], np.cumsum(sizes[runs])))
        ids, xs, ys = (a[np.repeat(split, sizes)] for a in depth.rows)
        boxes = segment_extents(xs, ys, offsets)
        new, children = [], []
        for r, k, box in zip(runs.tolist(), level_of[runs].tolist(), boxes):
            parent = levels[k]
            if box != (parent.min_x, parent.min_y, parent.max_x, parent.max_y):
                lst = lists[r]
                lst.child = _BuiltState(box, parent.nx, parent.ny, parent.depth + 1, floor)
                lst.xs = lst.ys = lst.triples = None
                new.append(r)
                children.append(lst.child)
        if not new:
            return None
        if len(new) < len(runs):  # a box equal to its level's stops its list
            keep = np.isin(runs, new)
            ids, xs, ys = (a[np.repeat(keep, np.diff(offsets))] for a in (ids, xs, ys))
            offsets = np.concatenate(([0], np.cumsum(sizes[runs[keep]])))
        return _Depth(children, offsets, ids, xs, ys)

    def _prepare_border(self, state: _BuiltState) -> None:
        """On a root level without children, gather the records of the
        border ring's distinct lists in ascending id order for the flat
        border scan.

        A list's ids are the run of the root's bin-sorted ids at its home
        bin, which starts bounds; their coordinates are gathered from the
        positions array.
        """
        if state.depth or state.sub_indexes:
            return
        bins, starts = state.bins, state.starts
        seen = set()
        runs = []
        for f in self._ring_flat:
            lst = bins[f]
            if lst not in seen:
                seen.add(lst)
                runs.append(slice(starts[lst.home], starts[lst.home + 1]))
        ids = np.sort(np.concatenate([state.ids[r] for r in runs]))
        state.border_ids, state.border_xs, state.border_ys = (
            ids, state.positions[ids, 0], state.positions[ids, 1]
        )

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

        The home bin is _axis_bin's on each axis and the boundary distance
        uses bin_rect's edges. A root without children (the level with
        border arrays) scans the neighborhood with _scan_window, one vector
        pass over its window rows. Any other level walks it row-major by
        flat index, with a set that keeps aliased lists from being
        consulted twice; both examine every distinct list once.
        """
        qx, qy = q.x, q.y
        x0, y0, x1, y1 = state.min_x, state.min_y, state.max_x, state.max_y
        if not (x0 <= qx <= x1 and y0 <= qy <= y1):
            self._border_search(state, q, best)
            return False
        nx, ny, bw, bh = state.nx, state.ny, state.bin_w, state.bin_h
        i = _axis_bin(qx, x0, bw, nx)
        j = _axis_bin(qy, y0, bh, ny)
        bins = state.bins
        home = bins[j * nx + i]
        child = home.child
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
        if state.border_ids is not None:  # a root without children
            _scan_window(state, home, i_lo, i_hi, row_lo, row_hi, qx, qy, best)
            return False
        seen = {home}
        for row in range(row_lo, row_hi + 1, nx):
            for g in range(row + i_lo, row + i_hi + 1):
                lst = bins[g]
                if lst in seen:
                    continue
                seen.add(lst)
                child = lst.child
                if child is None:
                    _scan_list(lst, qx, qy, best)
                else:
                    self._delegate(child, q, best)
        return False

    _delegate = _search  # a child level's search, under a name tracers count

    def _border_search(self, state: _BuiltState, q: Point2D, best: _Best) -> None:
        """Out-of-extents scan of the border ring, each distinct list once.

        A level with border arrays (a root without children) scans the ring's
        records of every distinct ring list in one vector pass; they ascend
        by id, so the first minimum is the lowest-id one. Every other
        level visits bins by ascending rectangle distance, ties by (row,
        column), and stops at the first bin farther than the running best.
        That stop is not exact: a gap-filled ring bin's list lies in another
        bin, so a closer record behind a farther ring bin can be missed. A
        bin's squared distance is its column's squared gap plus its row's,
        with bin edges at min + k * bin_size. The distances are sorted as
        plain floats, and only a bin the visit reaches is located in the
        row-major ring, by index.

        Before any gap, sum or sort, a level whose box is farther than the
        running best is skipped unvisited. The box's far edges are taken as
        min + n * bin_size, the ring's last bin edges, not max, which can
        differ from them by an ulp. The skip changes nothing:

        - each column's gap, and each row's, is at least the box's gap on
          that axis, because the edges min + k * bin_size do not decrease
          in k;
        - fl(a + b) is monotone, so no ring bin's sum is below the box's;
        - so whenever the skip fires, the visit would stop at its first bin.
        """
        if state.border_ids is not None:
            dx = state.border_xs - q.x
            dy = state.border_ys - q.y
            d2 = dx * dx + dy * dy
            best.cost += len(d2)
            k = int(d2.argmin())
            best.offer(float(d2[k]), int(state.border_ids[k]))
            return
        qx, qy = q.x, q.y
        x0, y0 = state.min_x, state.min_y
        bw, bh = state.bin_w, state.bin_h
        nx, ny = state.nx, state.ny
        x1, y1 = x0 + nx * bw, y0 + ny * bh
        dx = x0 - qx if qx < x0 else (qx - x1 if qx > x1 else 0.0)
        dy = y0 - qy if qy < y0 else (qy - y1 if qy > y1 else 0.0)
        if dx * dx + dy * dy > best.d2:
            return
        # squared gap to each column, then each row: bin k spans
        # [min + k * size, min + (k + 1) * size], 0 inside it
        ddx = []
        a = x0
        for k in range(1, nx + 1):
            b = x0 + k * bw
            d = a - qx if qx < a else (qx - b if qx > b else 0.0)
            ddx.append(d * d)
            a = b
        ddy = []
        a = y0
        for k in range(1, ny + 1):
            b = y0 + k * bh
            d = a - qy if qy < a else (qy - b if qy > b else 0.0)
            ddy.append(d * d)
            a = b
        d2s = [ddx[i] + ddy[j] for i, j in zip(self._ring_i, self._ring_j)]
        bins = state.bins
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
            child = lst.child
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
        bin offsets and gathered by _gather, which _scan_window shares; the
        window is then masked in one numpy pass.
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
        wxs, wys, wids = _gather(state, j_lo * nx + i_lo, j_hi * nx + i_lo, width)
        hit = (wxs >= rx0) & (wxs <= rx1) & (wys >= ry0) & (wys <= ry1)
        return np.sort(wids[hit]).tolist()
