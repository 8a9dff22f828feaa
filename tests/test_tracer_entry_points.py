"""perfbench's tracer finds every entry point it wraps in the library.

A traced benchmark run reports a wrapped method that a refactor removed as
absent, but a count whose entry point vanished reads 0, not absent, in the
per-layer metrics (for example hierarchy.delegations_per_query when
HierGridIndex._delegate is gone). These tests hold the library to the
tracer's names without editing the benchmark.
"""
import sys
from pathlib import Path

import hiergrid
from hiergrid import HierConfig, HierGridIndex, Point2D, gaussian_points

# perfbench is a package at the repository root, beside src/
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracing import Tracer  # noqa: E402


def test_every_entry_point_is_present_and_delegations_are_counted():
    tracer = Tracer(hiergrid)
    tracer.install()
    try:
        assert tracer.absent == []
        idx = HierGridIndex(gaussian_points(2000, seed=3), 6, 6, HierConfig(max_bin_records=8))
        root = idx.ensure_built()
        assert root.sub_indexes
        # a record of a subdivided list: its home bin delegates
        lst = next(lst for lst in root.lists if lst.child is not None)
        x, y = root.positions[lst.ids[0]].tolist()
        idx.nearest(Point2D(x, y))
        assert tracer.count("hierarchy.delegate", False) > 0
    finally:
        tracer.uninstall()
