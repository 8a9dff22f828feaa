"""Self-test of the benchmark on tiny sizes: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

from perfbench import run as bench
from perfbench import workloads
from perfbench.measure import index_bytes

SPEC = bench.benchmark_spec(bench.ROOT)
SECONDS = 0.2
TIME_UNITS = {"s", "ms", "us"}


@pytest.fixture(scope="module")
def hg():
    return bench.load_hiergrid(bench.ROOT)


def smoke(hg, name, trace, seed=1):
    return workloads.run_workload(hg, workloads.config(name, smoke=True), seed, SECONDS, trace)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_workload_reports_every_metric(hg, name, trace):
    run = smoke(hg, name, trace)
    line = bench.result_line(run.res, SPEC)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in wanted] == list(line["metrics"])
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if m["unit"] in TIME_UNITS or "bound" in m:
            assert got["value"] > 0, m["name"]


def test_spec_matches_workload_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_deterministic_metrics_repeat_for_a_seed(hg):
    name = "mutate-gaussian-hier"
    a, b = smoke(hg, name, True), smoke(hg, name, True)
    c = smoke(hg, name, False, seed=2)
    assert a.res.digests == b.res.digests
    for key in ("hierarchy.nodes", "hierarchy.depth_max", "hierarchy.leaf_size_mean"):
        assert a.res.layers[key]["value"] == b.res.layers[key]["value"]
    d = smoke(hg, name, False)
    e = smoke(hg, name, False)
    for key in ("examined_mean", "match_rate", "index_mb"):
        assert d.res.e2e[key]["value"] == e.res.e2e[key]["value"]
    assert d.res.digests == a.res.digests
    assert c.res.digests["cycles"] != d.res.digests["cycles"]


def test_corrupted_range_answer_is_a_failed_operation(hg, monkeypatch):
    original = hg.gridindex.GridIndex.range_query
    corrupted = []

    def drop_one_id(self, rect):
        ids = original(self, rect)
        if ids and not corrupted:
            corrupted.append(ids.pop())
        return ids

    monkeypatch.setattr(hg.gridindex.GridIndex, "range_query", drop_one_id)
    run = smoke(hg, "query-uniform-flat", False)
    assert corrupted
    assert run.res.failed >= 1
    assert not bench.result_line(run.res, SPEC)["correct"]


def test_inexact_short_circuit_is_a_failed_operation(hg, monkeypatch):
    original = hg.gridindex.GridIndex.nearest
    victim = []

    def wrong_record(self, q):
        """Answer the first query point wrongly, every time it is asked."""
        res = original(self, q)
        if not victim:
            victim.append(q)
        if q == victim[0]:
            other = (res.record + 1) % self.source.record_count
            return type(res)(other, res.distance, res.records_examined, True)
        return res

    monkeypatch.setattr(hg.gridindex.GridIndex, "nearest", wrong_record)
    run = smoke(hg, "sweep-quadtree", False)
    assert run.res.failed >= 1
    assert any("short-circuited" in e for e in run.res.errors)


def test_operation_raising_on_every_pass_fails_once(hg, monkeypatch):
    original = hg.gridindex.GridIndex.nearest
    victim = []

    def raise_for_one(self, q):
        """Raise for the first query point, every time it is asked."""
        if not victim:
            victim.append(q)
        if q == victim[0]:
            raise ValueError("deliberate")
        return original(self, q)

    monkeypatch.setattr(hg.gridindex.GridIndex, "nearest", raise_for_one)
    run = smoke(hg, "query-uniform-flat", False)
    assert run.passes >= 2
    assert run.res.failed == 1
    assert any("raised ValueError" in e for e in run.res.errors)


def test_removed_entry_points_are_absent_not_zero(hg):
    class Refactored(hg.gridindex.GridIndex):
        """Inherits every method, so none is found on the class itself."""

    gridindex = SimpleNamespace(**vars(hg.gridindex))
    gridindex.GridIndex = Refactored
    fake = SimpleNamespace(**{k: v for k, v in vars(hg).items() if not k.startswith("__")})
    fake.gridindex = gridindex
    run = smoke(fake, "query-uniform-flat", True)
    assert run.res.failed == 0
    assert "Refactored._fill_gaps" in run.res.extra["absent_entry_points"]
    assert run.res.layers["gridindex.fill_gaps_s"] is None
    assert "gridindex.fill_gaps_s" not in bench.result_line(run.res, SPEC)["metrics"]


def test_index_bytes_agrees_with_tracemalloc(hg):
    points = hg.datasets.gaussian_points(1500, seed=3)
    index = hg.hierarchy.HierGridIndex(points, 10, 10, hg.hierarchy.HierConfig(8))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index.ensure_built()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert index_bytes(index, points) == pytest.approx(traced, rel=0.15)


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cmd = [sys.executable, "perfbench/run.py", "--workload", "query-uniform-flat",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_command_line_prints_result_last():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep-quadtree", "--seed", "3",
           "--seconds", "0.2", "--trace", "0", "--smoke"]
    out = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"]
