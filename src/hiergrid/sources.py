"""Indexable record sources: the collection contract, an in-memory point
collection, and a proxy sub-collection over a parent's id list.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from .geometry import Extents, tight_extents

RecordId = int


class EmptySourceError(ValueError):
    """Raised when an operation needs at least one record and has none."""


class Record:
    """Mutable scratch record reused across fetch() calls.

    The base contract carries position only; richer sources may subclass and
    override the source's new_scratch() to carry payloads along.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float = 0.0, y: float = 0.0) -> None:
        self.x = x
        self.y = y

    def position(self) -> tuple[float, float]:
        return (self.x, self.y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Record({self.x}, {self.y})"


class IndexableSource(ABC):
    """What a collection must expose to be indexable: record_count, version
    and fetch, nothing else.

    An index reads every record through fetch and derives everything else,
    its grid's box included, from the positions it read. The version is the
    only contract between a source and its indexes: it increases with every
    mutation, an index records the version it read before fetching, and it
    rebuilds whenever the source's version differs from that one. The
    source keeps no state about its indexes, so any number of them can
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
    def fetch(self, rid: RecordId, scratch: Record) -> Record:
        """Overwrite scratch with record rid's data and return it."""

    def new_scratch(self) -> Record:
        """Scratch instance compatible with this source's fetch()."""
        return Record()


class PointCollection(IndexableSource):
    """In-memory 2D point records backed by a float64 array."""

    def __init__(self, points: Iterable[tuple[float, float]] = ()) -> None:
        pts = np.asarray(list(points), dtype=np.float64)
        if pts.size == 0:
            pts = np.empty((0, 2), dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be (x, y) pairs")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
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

    def fetch(self, rid: RecordId, scratch: Record) -> Record:
        if not 0 <= rid < len(self._pts):
            raise IndexError(f"record id {rid} out of range [0, {len(self._pts)})")
        row = self._pts[rid]
        scratch.x = float(row[0])
        scratch.y = float(row[1])
        return scratch

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


def _finite_row(x: float, y: float) -> np.ndarray:
    """(x, y) as one float64 row; a NaN or infinite coordinate is rejected
    with the constructor's message, before anything is stored."""
    row = np.array([x, y], dtype=np.float64)
    if not np.isfinite(row).all():
        raise ValueError("points must be finite")
    return row


class SubGridSource(IndexableSource):
    """Proxy over a shared id list; never copies record payloads.

    Local ids are 0..len(ids)-1 and remap through ids[k] into the parent;
    the proxy reports its parent's version. The hierarchical index builds
    child levels over one positions array and does not use this class.
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

    def fetch(self, rid: RecordId, scratch: Record) -> Record:
        if not 0 <= rid < len(self._ids):
            raise IndexError(f"record id {rid} out of range [0, {len(self._ids)})")
        return self._parent.fetch(self._ids[rid], scratch)

    def new_scratch(self) -> Record:
        return self._parent.new_scratch()


def load_points(path) -> PointCollection:
    """Read the x,y-per-line point file format.

    UTF-8 text; one record per line as two decimal literals separated by a
    comma; blank lines and lines starting with '#' are ignored.
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
                pts.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'x,y', got {raw!r}") from None
    return PointCollection(pts)


def save_points(path, collection: PointCollection, header: str | None = None) -> None:
    """Write the x,y-per-line point file format (shortest round-trip floats)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for x, y in collection.positions:
            fh.write(f"{float(x)!r},{float(y)!r}\n")
