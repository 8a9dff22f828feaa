"""Indexable record sources: the collection contract, an in-memory point
collection, and a proxy sub-collection over a parent's id list.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from .geometry import COORD_MAX, Extents, tight_extents

RecordId = int


class EmptySourceError(ValueError):
    """Raised when an operation needs at least one record and has none."""


class IndexableSource(ABC):
    """What a collection must expose to be indexable: record_count, version
    and fetch.

    An index reads every record's position in one fetch(0, out) call into
    an array it owns, and derives everything else from those positions,
    its grid's box included; it finds the records a move changed by
    comparing their bits with the previous build's. A source that holds
    its records one at a time writes them into out itself. The version is
    the only contract between a source and its indexes: it increases with
    every mutation, an index records the version it read before fetching,
    and it rebuilds whenever the source's version differs from that one.
    The source keeps no state about its indexes, so any number of them can
    share it, each rebuilding on its own. Reads may be concurrent with each
    other but not with mutation.
    """

    @property
    @abstractmethod
    def record_count(self) -> int: ...

    @property
    @abstractmethod
    def version(self) -> int:
        """Monotonically increasing; changes whenever any record changes."""

    @abstractmethod
    def fetch(self, first: RecordId, out: np.ndarray) -> np.ndarray:
        """Copy the positions of records first .. first + len(out) - 1 into
        out, a (k, 2) float64 array the caller owns, and return it; raise
        IndexError for a run outside [0, record_count)."""


class PointCollection(IndexableSource):
    """In-memory 2D point records backed by a float64 array."""

    def __init__(self, points: Iterable[tuple[float, float]] = ()) -> None:
        pts = np.asarray(list(points), dtype=np.float64)
        if pts.size == 0:
            pts = np.empty((0, 2), dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be (x, y) pairs")
        _check_domain(pts)
        self._pts = pts
        self._version = 0
        self._extents: Extents | None = None

    @property
    def record_count(self) -> int:
        return len(self._pts)

    @property
    def positions(self) -> np.ndarray:
        """Read-only (n, 2) view of the stored points."""
        view = self._pts.view()
        view.flags.writeable = False
        return view

    @property
    def data_extents(self) -> Extents:
        """tight_extents of the stored points: the box an index over them grids."""
        if len(self._pts) == 0:
            raise EmptySourceError("extents of an empty collection")
        if self._extents is None:
            self._extents = tight_extents(self._pts)
        return self._extents

    @property
    def version(self) -> int:
        return self._version

    def fetch(self, first: RecordId, out: np.ndarray) -> np.ndarray:
        _check_run(first, len(out), len(self._pts))
        out[:] = self._pts[first : first + len(out)]
        return out

    def _mutated(self) -> None:
        self._version += 1
        self._extents = None

    def append(self, x: float, y: float) -> RecordId:
        self._pts = np.vstack([self._pts, _finite_row(x, y)])
        self._mutated()
        return len(self._pts) - 1

    def remove_at(self, rid: RecordId) -> None:
        if not 0 <= rid < len(self._pts):
            raise IndexError(f"record id {rid} out of range")
        self._pts = np.delete(self._pts, rid, axis=0)
        self._mutated()

    def move(self, rid: RecordId, x: float, y: float) -> None:
        if not 0 <= rid < len(self._pts):
            raise IndexError(f"record id {rid} out of range")
        self._pts[rid] = _finite_row(x, y)
        self._mutated()


def _check_run(first: RecordId, k: int, n: int) -> None:
    """Raise IndexError unless records first .. first + k - 1 lie in [0, n)."""
    if first < 0 or first + k > n:
        raise IndexError(f"records [{first}, {first + k}) out of range [0, {n})")


def _check_domain(pts: np.ndarray) -> None:
    """Reject a NaN or infinite coordinate, or one outside +-COORD_MAX."""
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if (np.abs(pts) > COORD_MAX).any():
        raise ValueError(f"coordinates must be within +-{COORD_MAX!r}")


def _finite_row(x: float, y: float) -> np.ndarray:
    """(x, y) as one float64 row, checked with the constructor's messages
    before anything is stored."""
    row = np.array([x, y], dtype=np.float64)
    _check_domain(row)
    return row


class SubGridSource(IndexableSource):
    """Proxy over a shared id list; stores no positions of its own.

    Local ids are 0..len(ids)-1 and remap through ids[k] into the parent:
    fetch reads the parent's positions and gathers its run's rows. The
    proxy reports its parent's version. No index uses it: every level
    is built over one positions array. The class stays only because
    perfbench's tracer looks it up by name when it installs.
    """

    def __init__(self, parent: IndexableSource, ids: Sequence[RecordId]) -> None:
        self._parent = parent
        self._ids = ids

    @property
    def parent(self) -> IndexableSource:
        return self._parent

    @property
    def ids(self) -> Sequence[RecordId]:
        return self._ids

    @property
    def record_count(self) -> int:
        return len(self._ids)

    @property
    def version(self) -> int:
        return self._parent.version

    def fetch(self, first: RecordId, out: np.ndarray) -> np.ndarray:
        _check_run(first, len(out), len(self._ids))
        rows = self._parent.fetch(0, np.empty((self._parent.record_count, 2)))
        out[:] = rows[np.asarray(self._ids[first : first + len(out)], dtype=np.intp)]
        return out


def load_points(path) -> PointCollection:
    """Read the x,y-per-line point file format.

    UTF-8 text; one record per line as two finite decimal literals within
    +-COORD_MAX separated by a comma; blank lines and lines starting with
    '#' are ignored. A malformed line, a NaN, an infinity or a coordinate
    outside the domain raises ValueError naming the file and line.
    """
    pts: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x,y', got {raw!r}")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'x,y', got {raw!r}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{lineno}: coordinates must be finite, got {raw!r}")
            if abs(x) > COORD_MAX or abs(y) > COORD_MAX:
                raise ValueError(
                    f"{path}:{lineno}: coordinates must be within +-COORD_MAX, got {raw!r}"
                )
            pts.append((x, y))
    return PointCollection(pts)


def save_points(path, collection: PointCollection, header: str | None = None) -> None:
    """Write the x,y-per-line point file format (shortest round-trip floats)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for x, y in collection.positions:
            fh.write(f"{float(x)!r},{float(y)!r}\n")
