"""Hierarchical grid index: overfull bins get their own child grid level.

After a level is built, every unique bin list holding more than
max_bin_records records gets a child level, built by the same level builder
over that list's root record ids on their tight bounding box, recursing
until lists are small enough or bins reach the minimum dimension. Queries
landing in a subdivided bin are delegated; neighborhood and border scans
consult child levels instead of scanning raw lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .geometry import (
    BinCoord,
    Extents,
    Point2D,
    default_smallest_dimension,
)
from .gridindex import BinList, GridIndex, _Best, _BuiltState, _scan_list
from .sources import IndexableSource, RecordId


@dataclass(frozen=True)
class HierConfig:
    """Subdivision policy; child levels use the root's divisions.

    max_bin_records: bins holding more than this subdivide.
    smallest_bin_dimension: bins this narrow or flat never subdivide; None
        resolves once, at the root rebuild, to a data-diagonal-scaled value.
    """

    max_bin_records: int
    smallest_bin_dimension: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_bin_records < 1:
            raise ValueError(f"max_bin_records must be >= 1, got {self.max_bin_records}")
        if self.smallest_bin_dimension is not None and not (self.smallest_bin_dimension > 0):
            raise ValueError("smallest_bin_dimension must be positive")


class HierGridIndex(GridIndex):
    """Grid index whose overfull bins recurse into child grid levels."""

    def __init__(
        self,
        source: IndexableSource,
        divisions_x: int,
        divisions_y: int,
        config: HierConfig,
    ) -> None:
        if divisions_x * divisions_y < 2:
            raise ValueError("a hierarchical grid needs at least 2 bins per level")
        super().__init__(source, divisions_x, divisions_y)
        self.config = config

    # -- subdivision ---------------------------------------------------------

    def _on_after_rebuilt(self, state: _BuiltState) -> None:
        cfg = self.config
        if state.size_floor is None:  # the root level
            state.size_floor = (
                cfg.smallest_bin_dimension
                if cfg.smallest_bin_dimension is not None
                else default_smallest_dimension(state.shape.extents)
            )
        floor = state.size_floor
        shape = state.shape
        if not (shape.bin_width > floor and shape.bin_height > floor):
            return
        positions = state.positions
        for lst in state.rendered.registry:
            if len(lst) <= cfg.max_bin_records:
                continue
            pts = positions[lst.ids_arr]
            lo, hi = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
            extents = Extents(Point2D(*lo), Point2D(*hi)).inflated_if_degenerate()
            state.children[lst] = self._build_level(
                positions, lst.ids, extents, state.depth + 1, floor
            )
        if state.children:
            state.child_table = [state.children.get(lst) for lst in state.filled.flat]

    # -- inspection ----------------------------------------------------------

    @property
    def sub_indexes(self) -> list[_BuiltState]:
        """The root's child levels."""
        return self.ensure_built().sub_indexes

    def sub_at(self, c: BinCoord) -> Optional[_BuiltState]:
        """The child level bin c delegates to, if any."""
        table = self.ensure_built().child_table
        return None if table is None else table[c.j * self.divisions_x + c.i]

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

    # -- queries -------------------------------------------------------------

    def _inside_search(
        self, state: _BuiltState, q: Point2D, c: BinCoord, best: _Best, bound_d2: float
    ) -> bool:
        table = state.child_table
        if table is not None:
            child = table[c.j * state.shape.divisions_x + c.i]
            if child is not None:
                self._delegate(child, q, best, bound_d2)
                return False
        return super()._inside_search(state, q, c, best, bound_d2)

    def _consult(
        self,
        state: _BuiltState,
        coord: BinCoord,
        lst: BinList,
        q: Point2D,
        best: _Best,
        bound_d2: float,
    ) -> None:
        child = state.children.get(lst)
        if child is None:
            _scan_list(lst, q.x, q.y, best)
        else:
            self._delegate(child, q, best, bound_d2)

    def _delegate(self, child: _BuiltState, q: Point2D, best: _Best, bound_d2: float) -> None:
        """Run the query in a child level with its own running best, whose
        short circuit and border pruning see only the child's candidates,
        then offer the child's winner here."""
        local = _Best()
        self._search(child, q, local, min(bound_d2, best.d2))
        best.cost += local.cost
        if local.rid >= 0:
            best.offer(local.d2, local.rid)

    def _border_search(self, state: _BuiltState, q: Point2D, best: _Best, bound_d2: float) -> None:
        """Out-of-extents scan in nearest-bin-first order with pruning.

        A child level cannot hand a whole concatenated border to one vector
        scan the way the flat index does, because consulted bins may
        themselves be subdivided; visiting bins by ascending rectangle
        distance and stopping once no unvisited bin can beat the running
        best keeps delegated edge scans cheap. A root level with no
        children keeps the flat scan, and with it the exact flat-index cost.
        """
        if state.depth == 0 and not state.children:
            super()._border_search(state, q, best, bound_d2)
            return
        shape = state.shape
        ext = shape.extents
        bw, bh = shape.bin_width, shape.bin_height
        qx, qy = q.x, q.y
        ranked = []
        for c in state.border_coords:
            x0 = ext.min.x + c.i * bw
            x1 = ext.min.x + (c.i + 1) * bw
            y0 = ext.min.y + c.j * bh
            y1 = ext.min.y + (c.j + 1) * bh
            dx = x0 - qx if qx < x0 else (qx - x1 if qx > x1 else 0.0)
            dy = y0 - qy if qy < y0 else (qy - y1 if qy > y1 else 0.0)
            ranked.append((dx * dx + dy * dy, c.j, c.i))
        ranked.sort()
        filled = state.filled
        seen: set[int] = set()
        for rd2, j, i in ranked:
            limit = bound_d2 if bound_d2 < best.d2 else best.d2
            if rd2 > limit:
                break
            lst = filled.at(BinCoord(i, j))
            if id(lst) in seen:
                continue
            seen.add(id(lst))
            self._consult(state, BinCoord(i, j), lst, q, best, bound_d2)
