"""Hierarchical grid index: overfull bins get their own child grid level.

GridIndex builds and subdivides every level: each unique bin list holding
more than max_bin_records records gets a child level over its records'
tight box, recursing until lists are small enough, bins reach the size
floor (a fixed fraction of the root box's diagonal), or a child's box
would equal its level's. This module holds that policy, HierConfig, and the
index that sets it; queries run GridIndex's level search.
"""
from __future__ import annotations

from dataclasses import dataclass

from .gridindex import GridIndex
from .sources import IndexableSource


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
        self, source: IndexableSource, divisions_x: int, divisions_y: int, config: HierConfig
    ) -> None:
        if divisions_x * divisions_y < 2:
            raise ValueError("a hierarchical grid needs at least 2 bins per level")
        super().__init__(source, divisions_x, divisions_y)
        self.config = config
        self._max_bin_records = config.max_bin_records

    # The engine is GridIndex's; these bindings only keep the names that
    # perfbench's tracer times subdivision, counts delegations and times
    # border visits under.
    _on_after_rebuilt = GridIndex._on_after_rebuilt
    _delegate = GridIndex._delegate
    _border_search = GridIndex._border_search
