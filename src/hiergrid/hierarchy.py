"""Hierarchical grid index: overfull bins get their own child grid level.

After a level is built, every unique bin list holding more than
max_bin_records records gets a child level, built by the same level builder
over that list's root record ids on their tight bounding box, recursing
until lists are small enough or bins reach the minimum dimension, or a
child's box would equal its level's. Queries run GridIndex's level search,
which delegates to a child level wherever it would scan a subdivided list.
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
from .gridindex import GridIndex, _BuiltState
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

    # The query engine is GridIndex's; these bindings only keep the names
    # that perfbench's tracer counts delegations and times border visits
    # under (ROADMAP item 1).
    _delegate = GridIndex._delegate
    _border_search = GridIndex._border_search

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
            if extents == shape.extents:
                continue  # a child over the same box would subdivide forever
            state.children[lst] = self._build_level(
                positions, lst.ids, extents, state.depth + 1, floor
            )

    # -- inspection ----------------------------------------------------------

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
