"""Traced run: spans and counts recorded around hiergrid's layer entry points.

The tracer patches module and class attributes of the library from outside;
the library itself is not edited. Functions are patched under the name the
calling module bound (hiergrid.gridindex.resolve_bin, not the geometry
original), so every call the index makes goes through the wrapper.

Spans (name, start, end, parent span, operation id) are kept in memory as
packed arrays, a few tens of bytes each, and written out when the run ends.
Hot geometry helpers and record fetches are counted instead, split by
whether a rebuild is in progress.
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from .measure import median

REBUILD = "gridindex.rebuild"
# Rebuild steps reported by self time per root rebuild, keyed by span name.
REBUILD_STEPS = {
    "gridindex.render": "gridindex.render_s",
    "gridindex.freeze": "gridindex.freeze_s",
    "gridindex.fill_gaps": "gridindex.fill_gaps_s",
    "gridindex.border_prep": "gridindex.border_prep_s",
    "hierarchy.subdivide": "hierarchy.subdivide_s",
}
SWEEP_STEPS = {
    "sweep.sweep_cost": "sweep.sweep_cost_s",
    "sweep.summarize": "sweep.summarize_s",
    "sweep.colorize": "sweep.colorize_s",
    "sweep.match_battery": "sweep.match_battery_s",
    "pgm.bytes": "pgm.bytes_s",
}


def _plan(hg):
    """(owner, attribute, kind, name) for every entry point the tracer wraps.

    The step-10 hook exists on the flat index too, as an empty method; a flat
    index therefore reports the cost of calling it as its subdivision time.
    """
    gi, hi, so = hg.gridindex, hg.hierarchy, hg.sources
    return [
        (gi.GridIndex, "rebuild", "rebuild", REBUILD),
        (gi.GridIndex, "_render_records", "span", "gridindex.render"),
        (gi.BinList, "freeze", "span", "gridindex.freeze"),
        (gi.GridIndex, "_fill_gaps", "span", "gridindex.fill_gaps"),
        (gi.GridIndex, "_prepare_border", "span", "gridindex.border_prep"),
        (gi.GridIndex, "_on_after_rebuilt", "span", "hierarchy.subdivide"),
        (hi.HierGridIndex, "_on_after_rebuilt", "span", "hierarchy.subdivide"),
        (gi.GridIndex, "nearest", "span", "gridindex.nearest"),
        (gi.GridIndex, "range_query", "span", "gridindex.range"),
        (hi.HierGridIndex, "_border_search", "span", "hierarchy.border_search"),
        (hi.HierGridIndex, "_delegate", "count", "hierarchy.delegate"),
        (gi, "resolve_bin", "count", "geometry.resolve_bin"),
        (gi, "neighborhood", "count", "geometry.neighborhood"),
        (so.PointCollection, "fetch", "fetch", "sources.fetch"),
        (so.SubGridSource, "fetch", "fetch", "sources.fetch"),
        (so.PointCollection, "move", "span", "sources.move"),
        (hg.sweep, "sweep_cost", "span", "sweep.sweep_cost"),
        (hg.sweep, "summarize", "span", "sweep.summarize"),
        (hg.sweep, "colorize", "span", "sweep.colorize"),
        (hg.sweep, "match_battery", "span", "sweep.match_battery"),
        (hg.pgm, "pgm_bytes", "span", "pgm.bytes"),
        (hg.bruteforce.BruteForceIndex, "__init__", "span", "bruteforce.build"),
        (hg.bruteforce.BruteForceIndex, "nearest", "span", "bruteforce.nearest"),
        (hg.bruteforce.BruteForceIndex, "range", "span", "bruteforce.range"),
    ]


class Tracer:
    """Records spans and counts while installed; install() patches the
    library, uninstall() restores it.

    `op` is set by the workload before each operation it issues, so spans
    carry the id of the operation that caused them.
    """

    def __init__(self, hg) -> None:
        self.op = -1
        self.names: list[str] = []  # span name by code
        self.name_of = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_of = array("q")
        self.counts: dict[tuple[str, bool], int] = {}
        self.fetch_s = [0.0, 0.0]  # outside / inside a rebuild
        self.rebuild_depth = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._fetching = False
        self._patches: list[tuple[object, str, object]] = []
        self._plan = _plan(hg)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, rebuild):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        stack, pc = self._stack, time.perf_counter
        name_of, start, end, parent, op_of = (
            self.name_of, self.start, self.end, self.parent, self.op_of,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(code)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0.0)
            stack.append(sid)
            if rebuild:
                self.rebuild_depth += 1
            start.append(pc())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = pc()
                stack.pop()
                if rebuild:
                    self.rebuild_depth -= 1

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self.rebuild_depth > 0)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _fetch(self, name, fn):
        """Count every fetch; time only the outermost one, because a proxy's
        fetch calls its parent's."""
        counts, pc = self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(source, rid, scratch):
            inside = self.rebuild_depth > 0
            key = (name, inside)
            counts[key] = counts.get(key, 0) + 1
            if self._fetching:
                return fn(source, rid, scratch)
            self._fetching = True
            t0 = pc()
            try:
                return fn(source, rid, scratch)
            finally:
                self.fetch_s[inside] += pc() - t0
                self._fetching = False

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for owner, attr, kind, name in self._plan:
            original = vars(owner).get(attr)
            if original is None:
                # A refactor removed this entry point: its metrics are
                # reported absent rather than zero.
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            if kind == "count":
                wrapped = self._count(name, original)
            elif kind == "fetch":
                wrapped = self._fetch(name, original)
            else:
                wrapped = self._span(name, original, kind == "rebuild")
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, name: str, in_rebuild: bool) -> int:
        return self.counts.get((name, in_rebuild), 0)

    def write_spans(self, path) -> None:
        """Spans as a numpy .npz: name codes, names, start, end, parent, op."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.uint8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_of, dtype=np.int64),
        )


class SpanTable:
    """Durations, self times and ancestry of a finished tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = tracer.names
        self.name = tracer.name_of.tolist()
        self.parent = tracer.parent.tolist()
        self.op = tracer.op_of.tolist()
        self.dur = (np.frombuffer(tracer.end) - np.frombuffer(tracer.start)).tolist()
        n = len(self.dur)
        child = [0.0] * n
        self.root_rebuild = [-1] * n
        rebuild = self._code(REBUILD)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.dur[i]
                self.root_rebuild[i] = self.root_rebuild[parent]
            if self.name[i] == rebuild and self.root_rebuild[i] < 0:
                self.root_rebuild[i] = i
        self.self_t = [d - c for d, c in zip(self.dur, child)]

    def _code(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def root_rebuilds(self) -> list[int]:
        return [i for i, r in enumerate(self.root_rebuild) if r == i]

    def within(self, names: set[str]) -> list[bool]:
        """Per span: it or one of its ancestors has one of `names`."""
        codes = {self._code(n) for n in names}
        flags = [False] * len(self.dur)
        for i, parent in enumerate(self.parent):
            flags[i] = self.name[i] in codes or (parent >= 0 and flags[parent])
        return flags

    def outermost(self, names: set[str]) -> list[int]:
        """Spans with one of `names` and no ancestor with one of them."""
        codes = {self._code(n) for n in names}
        flags = self.within(names)
        return [
            i
            for i, parent in enumerate(self.parent)
            if self.name[i] in codes and (parent < 0 or not flags[parent])
        ]

    def named(self, name: str) -> list[int]:
        code = self._code(name)
        return [i for i, c in enumerate(self.name) if c == code]


def layer_metrics(tracer: Tracer, table: SpanTable, sweeps: int) -> dict:
    """Per-layer metrics that come from spans and counts alone.

    Values are (value, unit, samples); None marks a metric whose entry point
    was absent or never ran in this workload.
    """
    out: dict[str, tuple | None] = {}
    roots = table.root_rebuilds()
    nr = len(roots)

    def per_rebuild(value, unit):
        return (value / nr, unit, nr) if nr else None

    out["sources.fetch_calls_per_rebuild"] = per_rebuild(
        tracer.count("sources.fetch", True), "count"
    )
    out["sources.fetch_s_per_rebuild"] = per_rebuild(tracer.fetch_s[True], "s")
    out["geometry.neighborhood_calls_per_rebuild"] = per_rebuild(
        tracer.count("geometry.neighborhood", True), "count"
    )
    out["gridindex.rebuild_s"] = per_rebuild(sum(table.dur[i] for i in roots), "s")
    for span_name, metric_name in REBUILD_STEPS.items():
        ids = [i for i in table.named(span_name) if table.root_rebuild[i] >= 0]
        out[metric_name] = per_rebuild(sum(table.self_t[i] for i in ids), "s") if ids else None

    nearest = table.named("gridindex.nearest")
    if nearest:
        q = len(nearest)
        out["geometry.resolve_bin_calls_per_query"] = (
            tracer.count("geometry.resolve_bin", False) / q,
            "count",
            q,
        )
        out["hierarchy.delegations_per_query"] = (
            tracer.count("hierarchy.delegate", False) / q,
            "count",
            q,
        )
    border = [i for i in table.outermost({"hierarchy.border_search"}) if table.root_rebuild[i] < 0]
    out["hierarchy.border_search_us"] = (
        (median([table.dur[i] * 1e6 for i in border]), "us", len(border)) if border else None
    )
    oracle = table.named("bruteforce.nearest")
    out["bruteforce.nearest_us"] = (
        (median([table.dur[i] * 1e6 for i in oracle]), "us", len(oracle)) if oracle else None
    )
    moves = [i for i in table.named("sources.move") if table.op[i] >= 0]
    out["sources.move_us"] = (
        (median([table.dur[i] * 1e6 for i in moves]), "us", len(moves)) if moves else None
    )

    # The sweep path: self time per sweep sequence, and the brute-force work
    # the match battery does inside it.
    for span_name, metric_name in SWEEP_STEPS.items():
        ids = table.named(span_name)
        out[metric_name] = (
            (sum(table.self_t[i] for i in ids) / sweeps, "s", sweeps) if ids and sweeps else None
        )
    oracle = {"bruteforce.build", "bruteforce.nearest", "bruteforce.range"}
    in_battery = table.within({"sweep.match_battery"})
    oracle_in_sweep = [i for i in table.outermost(oracle) if in_battery[i]]
    out["bruteforce.oracle_s"] = (
        (sum(table.dur[i] for i in oracle_in_sweep) / sweeps, "s", sweeps)
        if oracle_in_sweep and sweeps
        else None
    )
    return out
