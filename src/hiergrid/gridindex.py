"""Fixed grid spatial index and the one level search both flavours use.

Records are rendered into a grid of id lists (the rendered grid, nulls where
empty), every empty bin is then redirected to the list holding the record
nearest its center (the filled grid), and nearest queries scan the query
point's bin plus, when the home-bin short circuit does not fire, its
1-neighborhood. A rebuild fetches every record once into one positions
array and builds the root level from it. A list may own a child level (the
hierarchical index adds them); the search delegates to it wherever it would
scan that list, so the flat index is the case with no children.

A level is built in numpy: levels of at least _VECTOR_SCAN_MIN records are
binned and grouped in one pass (smaller ones loop over render_point), and
gap fill is one argmin over empty-bin centers x the level's records.
"""
from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .geometry import (
    BinCoord,
    Extents,
    GridShape,
    Point2D,
    _axis_bin,
    axis_bins,
    dist_to_bin_boundary,
    neighborhood,
    resolve_bin,
)
from .sources import EmptySourceError, IndexableSource, RecordId

# Below this list length a plain Python scan beats the numpy call overhead;
# levels with fewer records also render point by point.
_VECTOR_SCAN_MIN = 24

# Most distances one gap-fill argmin holds at once (empty bins x records),
# which bounds its temporaries to a few tens of MB on any level.
_GAP_FILL_BLOCK = 1 << 20


class OutsideExtentsError(ValueError):
    """A record geometry fell outside the extents its source declared."""


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

    def freeze(self, positions: np.ndarray) -> None:
        """Cache the member positions for the query scans."""
        idx = np.asarray(self.ids, dtype=np.intp)
        self.ids_arr = idx
        self.xs = positions[idx, 0].copy()
        self.ys = positions[idx, 1].copy()
        if len(idx) < _VECTOR_SCAN_MIN:
            self.triples = [
                (rid, float(self.xs[k]), float(self.ys[k]))
                for k, rid in enumerate(self.ids)
            ]
        else:
            self.triples = None


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

    def render_point(self, rid: RecordId, p: Point2D) -> None:
        c = resolve_bin(p, self.shape)
        if c is None:
            raise OutsideExtentsError(f"point {p} outside grid extents")
        self._list_at(c.i, c.j).append(rid)

    def render_points(self, ids: Sequence[RecordId], pts: np.ndarray) -> None:
        """render_point for every (ids[k], pts[k]) at once, into a grid with
        nothing rendered yet; ids ascend and are unique.

        Bins are assigned in numpy and grouped by a stable sort, lists are
        created in first-seen id order, as the loop creates them, and each
        list holds the caller's own id objects.
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
        groups = np.split(order, np.flatnonzero(np.diff(flat[order])) + 1)
        # a stable sort keeps each bin's positions ascending, so ordering the
        # groups by their first position gives first-seen order
        for members in sorted(groups, key=lambda g: int(g[0])):
            b = int(flat[members[0]])
            self._list_at(b % nx, b // nx).ids.extend([ids[k] for k in members.tolist()])

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


@dataclass(frozen=True)
class QueryResult:
    """One nearest query's outcome.

    records_examined counts distance evaluations (ids iterated, summed
    across every level of a hierarchical search). short_circuit is set only
    when this index's own home-bin scan proved the result exact.
    """

    record: RecordId
    distance: float
    records_examined: int
    short_circuit: bool = False


class _Best:
    """Running best candidate plus the examined-records counter.

    Before any candidate, rid is above every record id, so the first
    candidate wins the (d2, id) comparison even at d2 = inf (an overflowed
    square), and candidates tied at inf go to the lowest id.
    """

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

    Every level of a build shares the root's positions array and holds root
    record ids. children maps an overfull list to its child level. Only a
    root level holds the concatenated border arrays, which only the flat
    border scan of a root level without children reads; every other level
    walks its index's border ring through filled.
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
    )

    def __init__(
        self,
        shape: GridShape,
        positions: np.ndarray,
        depth: int = 0,
        size_floor: float | None = None,
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


def _scan_list(lst: BinList, qx: float, qy: float, best: _Best) -> None:
    """Linear scan of one list; every id counts as one distance evaluation."""
    n = len(lst.ids)
    best.cost += n
    triples = lst.triples
    if triples is not None:
        for rid, x, y in triples:
            dx = x - qx
            dy = y - qy
            d2 = dx * dx + dy * dy
            if d2 < best.d2 or (d2 == best.d2 and rid < best.rid):
                best.d2 = d2
                best.rid = rid
    else:
        dx = lst.xs - qx
        dy = lst.ys - qy
        d2 = dx * dx + dy * dy
        k = int(d2.argmin())  # first minimum = lowest id (ids ascend)
        m = float(d2[k])
        best.offer(m, int(lst.ids_arr[k]))


class GridIndex:
    """Fixed-divisions grid index over an IndexableSource of point records.

    Built lazily: any query first compares the source's version with the
    one the built state was read from, and rebuilds if they differ. A built
    index is immutable; concurrent queries are safe, and rebuilds swap the
    whole built state in one assignment.
    """

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
        extents = source.data_extents.inflated_if_degenerate()
        scratch = source.new_scratch()
        positions = np.empty((n, 2), dtype=np.float64)
        for rid in range(n):
            rec = source.fetch(rid, scratch)
            positions[rid, 0] = rec.x
            positions[rid, 1] = rec.y
        state = self._build_level(positions, range(n), extents)
        state.version = version
        self._state = state

    def _build_level(
        self,
        positions: np.ndarray,
        ids,
        extents: Extents,
        depth: int = 0,
        size_floor: float | None = None,
    ) -> _BuiltState:
        """Build one grid level over the records `ids` (ascending root ids)
        within `extents`: render, freeze, gap fill, border prep, then the
        after-rebuild hook."""
        shape = GridShape(self.divisions_x, self.divisions_y, extents)
        state = _BuiltState(shape, positions, depth, size_floor)
        self._render_records(state, ids)
        for lst in state.rendered.registry:
            lst.freeze(positions)
        filled_bins = list(state.rendered._bins)  # same identities
        self._fill_gaps(state, filled_bins)
        state.filled = FilledGrid(shape, filled_bins)
        self._prepare_border(state)
        self._on_after_rebuilt(state)
        return state

    def _on_after_rebuilt(self, state: _BuiltState) -> None:
        """Runs last for every level built; the hierarchical index
        subdivides here."""

    def _render_records(self, state: _BuiltState, ids) -> None:
        """Render each record of `ids` at its fetched position, in one numpy
        pass unless the level is too small to pay for it."""
        rendered = state.rendered
        pts = state.positions[ids]
        if len(ids) >= _VECTOR_SCAN_MIN:
            rendered.render_points(ids, pts)
            return
        # two flat float lists build faster than one (x, y) list per record
        xs, ys = pts.T.tolist()
        for rid, x, y in zip(ids, xs, ys):
            rendered.render_point(rid, Point2D(x, y))

    def _fill_gaps(self, state: _BuiltState, bins: list) -> None:
        """Point every empty bin at the list holding the record nearest its
        center, ties to the lowest id.

        One argmin per block of empty bins over the level's records sorted
        by ascending id, so its first minimum is the lowest-id nearest
        record. Centers and squared distances use the arithmetic of
        bin_center and _scan_list, so ties resolve as a query scan would.
        """
        empty = [flat for flat, lst in enumerate(bins) if lst is None]
        if not empty:
            return
        lists = list(state.rendered.registry)
        order = np.argsort(np.concatenate([lst.ids_arr for lst in lists]), kind="stable")
        xs = np.concatenate([lst.xs for lst in lists])[order]
        ys = np.concatenate([lst.ys for lst in lists])[order]
        owner = np.repeat(np.arange(len(lists)), [len(lst) for lst in lists])[order]
        shape = state.shape
        ext = shape.extents
        flat = np.array(empty)
        cxs = ext.min.x + (flat % shape.divisions_x + 0.5) * shape.bin_width
        cys = ext.min.y + (flat // shape.divisions_x + 0.5) * shape.bin_height
        step = max(1, _GAP_FILL_BLOCK // len(xs))
        for lo in range(0, len(empty), step):
            dx = xs - cxs[lo : lo + step, None]
            dy = ys - cys[lo : lo + step, None]
            d2 = dx * dx + dy * dy
            winners = owner[d2.argmin(axis=1)].tolist()
            for f, w in zip(empty[lo : lo + step], winners):
                bins[f] = lists[w]

    def _prepare_border(self, state: _BuiltState) -> None:
        """On a root level, concatenate the distinct lists of the border ring
        (row-major) for the flat border scan."""
        if state.depth:
            return
        bins = state.filled.flat
        seen: set[int] = set()
        lists = []
        for f in self._ring_flat:
            lst = bins[f]
            if id(lst) not in seen:
                seen.add(id(lst))
                lists.append(lst)
        state.border_ids = np.concatenate([lst.ids_arr for lst in lists])
        state.border_xs = np.concatenate([lst.xs for lst in lists])
        state.border_ys = np.concatenate([lst.ys for lst in lists])

    # -- queries ------------------------------------------------------------

    def nearest(self, q: Point2D) -> QueryResult:
        """Nearest indexed record to q; always returns one when non-empty."""
        state = self.ensure_built()
        best = _Best()
        sc = self._search(state, q, best, math.inf)
        distance = math.sqrt(best.d2)
        if distance == math.inf:  # the squared distance overflowed
            x, y = state.positions[best.rid].tolist()
            distance = math.hypot(x - q.x, y - q.y)
        return QueryResult(best.rid, distance, best.cost, sc)

    def _search(self, state: _BuiltState, q: Point2D, best: _Best, bound_d2: float) -> bool:
        """Search one level: the border ring from outside the extents, else
        the home list's child level, else the home list and, unless its
        short circuit fires (returns True), its 1-neighborhood's lists."""
        c = resolve_bin(q, state.shape)
        if c is None:
            self._border_search(state, q, best, bound_d2)
            return False
        filled = state.filled
        home = filled.at(c)
        if home in state.children:
            self._consult(state, home, q, best, bound_d2)
            return False
        _scan_list(home, q.x, q.y, best)
        boundary = dist_to_bin_boundary(q, c, state.shape)
        if best.d2 < boundary * boundary:
            return True
        seen = {home}
        for nc in neighborhood(c, state.shape):
            lst = filled.at(nc)
            if lst in seen:
                continue
            seen.add(lst)
            self._consult(state, lst, q, best, bound_d2)
        return False

    def _consult(
        self, state: _BuiltState, lst: BinList, q: Point2D, best: _Best, bound_d2: float
    ) -> None:
        """Scan lst, or delegate to its child level when it has one."""
        child = state.children.get(lst)
        if child is None:
            _scan_list(lst, q.x, q.y, best)
        else:
            self._delegate(child, q, best, bound_d2)

    def _delegate(self, child: _BuiltState, q: Point2D, best: _Best, bound_d2: float) -> None:
        """Run the query in a child level with its own running best, whose
        short circuit and border pruning see only the child's candidates,
        then offer the child's winner here (a child that pruned every bin
        offers _Best's initial state, which never wins)."""
        local = _Best()
        self._search(child, q, local, min(bound_d2, best.d2))
        best.cost += local.cost
        best.offer(local.d2, local.rid)

    def _border_search(self, state: _BuiltState, q: Point2D, best: _Best, bound_d2: float) -> None:
        """Out-of-extents scan of the border ring, each distinct list once.

        A root level with no children scans the ring's records in one vector
        pass. Other levels may hold subdivided border bins, so they visit bins
        by ascending rectangle distance until none can beat the running best.
        A bin's squared distance is its column's squared gap plus its row's,
        with bin edges at min + k * bin_size; a stable sort of the row-major
        ring breaks ties by (row, column).
        """
        if not state.depth and not state.children:
            dx = state.border_xs - q.x
            dy = state.border_ys - q.y
            d2 = dx * dx + dy * dy
            best.cost += len(d2)
            m = float(d2.min())
            rid = int(state.border_ids[d2 == m].min())  # ties: lowest id
            best.offer(m, rid)
            return
        shape = state.shape
        ext = shape.extents
        ddx = _gaps_sq(q.x, ext.min.x, shape.bin_width, shape.divisions_x)
        ddy = _gaps_sq(q.y, ext.min.y, shape.bin_height, shape.divisions_y)
        d2s = [ddx[i] + ddy[j] for i, j in zip(self._ring_i, self._ring_j)]
        ring_flat = self._ring_flat
        bins = state.filled.flat
        seen: set[int] = set()
        for k in sorted(range(len(d2s)), key=d2s.__getitem__):
            limit = bound_d2 if bound_d2 < best.d2 else best.d2
            if d2s[k] > limit:
                break
            lst = bins[ring_flat[k]]
            if id(lst) in seen:
                continue
            seen.add(id(lst))
            self._consult(state, lst, q, best, bound_d2)

    def range_query(self, rect: Extents) -> list[RecordId]:
        """Ids of records inside the closed rectangle, ascending: one mask
        over the rendered bins from the bin of the rectangle's min corner to
        the bin of its max corner, both clamped to the extents. Records are
        rendered by the same monotone _axis_bin, so the window holds them all."""
        state = self.ensure_built()
        shape = state.shape
        ext = shape.extents
        x0, x1 = max(rect.min.x, ext.min.x), min(rect.max.x, ext.max.x)
        y0, y1 = max(rect.min.y, ext.min.y), min(rect.max.y, ext.max.y)
        if x0 > x1 or y0 > y1:
            return []
        nx, ny = shape.divisions_x, shape.divisions_y
        i_lo = _axis_bin(x0, ext.min.x, shape.bin_width, nx)
        i_hi = _axis_bin(x1, ext.min.x, shape.bin_width, nx)
        j_lo = _axis_bin(y0, ext.min.y, shape.bin_height, ny)
        j_hi = _axis_bin(y1, ext.min.y, shape.bin_height, ny)
        bins = state.rendered._bins
        lists = [
            lst
            for j in range(j_lo, j_hi + 1)
            for lst in bins[j * nx + i_lo : j * nx + i_hi + 1]
            if lst is not None
        ]
        if not lists:
            return []
        xs = np.concatenate([lst.xs for lst in lists])
        ys = np.concatenate([lst.ys for lst in lists])
        ids = np.concatenate([lst.ids_arr for lst in lists])
        hit = (xs >= rect.min.x) & (xs <= rect.max.x) & (ys >= rect.min.y) & (ys <= rect.max.y)
        return np.sort(ids[hit]).tolist()
