"""Hierarchical grid index: overfull bins get their own child grid level.

After a level is built, every unique bin list holding more than
max_bin_records records gets a child level, built by the same level builder
over that list's root record ids on their tight bounding box, recursing
until lists are small enough, bins reach the size floor (a fixed fraction
of the root box's diagonal), or a child's box would equal its level's. A
list short enough to keep (id, x, y) triples gets a list level built from
them, its box taken in Python; a longer one gets an array level over its
records gathered from the positions array.
Queries run GridIndex's level search, which delegates to a child level
wherever it would scan a subdivided list.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .geometry import (
    BinCoord,
    Extents,
    default_smallest_dimension,
    tight_extents,
    tight_extents_xy,
)
from .gridindex import GridIndex, _BuiltState
from .sources import IndexableSource, RecordId


@dataclass(frozen=True)
class HierConfig:
    """Subdivision policy; child levels use the root's divisions.

    max_bin_records: bins holding more than this subdivide.
    """

    max_bin_records: int

    def __post_init__(self) -> None:
        if self.max_bin_records < 1:
            raise ValueError(f"max_bin_records must be >= 1, got {self.max_bin_records}")


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
        if state.size_floor is None:  # the root level
            state.size_floor = default_smallest_dimension(state.shape.extents)
        floor = state.size_floor
        shape = state.shape
        if not (shape.bin_width > floor and shape.bin_height > floor):
            return
        positions = state.positions
        for lst in state.rendered.registry:
            if len(lst) <= self.config.max_bin_records:
                continue
            rows = lst.triples
            if rows is None:  # a long list: its child is an array level
                pts = positions[lst.ids_arr]
                extents = tight_extents(pts)
            else:  # a short one: its child is a list level over its triples
                _, xs, ys = zip(*rows)
                pts, extents = rows, tight_extents_xy(xs, ys)
            if extents == shape.extents:
                continue  # a child over the same box would subdivide forever
            state.children[lst] = self._build_level(
                positions, lst.ids, lst.ids_arr, pts, extents, state.depth + 1, floor
            )
            # queries delegate to the child and never scan this list
            lst.xs = lst.ys = lst.triples = None

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
