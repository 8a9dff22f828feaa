"""The four benchmark workloads, their timed phases and correctness gate.

Every workload is one process, one thread and one closed-loop client: the
next operation is issued only after the last one returned. Data and the
operation stream come from the seed through separate RNG streams, so a seed
fixes every input. Answers are checked against the brute-force oracles after
the timed phase, outside any timing.

Query points: 3 of 4 follow the data distribution, 1 of 4 is uniform over
the data extents scaled by the library's SWEEP_SCALE (2x), which exercises
the out-of-extents border path. Range rectangles are squares of side 2% of
the width of the extents the data is drawn for (datasets.DEFAULT_EXTENTS),
centred on points drawn from the data distribution. The gaussian data's
own extents follow its outliers (at n=20,000 their width ranges over
1,250-1,420 across seeds 1-20), so a side taken from them would change each
square's area, and its hits, by up to a quarter from seed to seed.

The timed phase repeats a fixed set of operations for a fixed number of
passes, set by --seconds and the workload's nominal pass time, never by how
fast the machine runs: a faster program finishes sooner, it does not
measure more. Shared virtual machines drift in speed by up to 1.8x within
seconds, so each figure is taken at the machine's floor speed: p50 from
each operation's fastest pass, p99 from that and each pass's own tail shape
(measure.floor_latency), throughput from each operation's fastest pass or from the fastest cycle or
sweep sequence.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .measure import Digest, floor_latency, index_bytes, median, metric, pct, sha256
from .tracing import SpanTable, Tracer, layer_metrics

RANGE_SHARE = 0.1
RANGE_SIDE = 0.02
UNIFORM_QUERY_SHARE = 0.25
MAX_ERRORS_KEPT = 5

# Operation ids that tag spans: ordinary operations count up from 0; the
# tracing-overhead probe and sweep sequences get their own ranges.
PROBE_OP = 1_000_000_000
SWEEP_OP = 2_000_000_000


@dataclass(frozen=True)
class Config:
    """One workload: data, index and the operations issued against it.

    pass_s: nominal seconds of one pass (a stream pass, a mutate cycle, a
        sweep sequence); a run makes round(--seconds / pass_s) passes, and
        at least min_passes.
    stream: mixed operations, all issued once per pass (mix).
    watch/per_cycle: fixed query points and range rectangles, per_cycle of
        each issued after every move in round robin, so one pass over the
        watch set takes watch / per_cycle cycles (mutate).
    lattice/battery: sweep lattice points per axis and match-battery size;
        `watch` range rectangles are timed before each sequence (sweep).
    probe: nearest queries timed with and without tracing.
    """

    name: str
    kind: str  # "mix", "mutate" or "sweep"
    dist: str  # "uniform" or "gaussian"
    n: int
    divisions: tuple[int, int]
    max_bin_records: int | None  # None: flat GridIndex
    pass_s: float = 1.0
    min_passes: int = 2
    builds: int = 12  # fresh builds timed for setup_s, spread over the run
    stream: int = 0
    watch: int = 0
    per_cycle: int = 0
    lattice: int = 0
    battery: int = 0
    probe: int = 1000


WORKLOADS = {
    c.name: c
    for c in (
        # Flat query paths only; hierarchy and rebuild changes must not move it.
        Config(
            "query-uniform-flat", "mix", "uniform", 50_000, (32, 32), None,
            pass_s=0.2, stream=4000,
        ),
        # Delegation and border ranking in queries; the heaviest build.
        Config(
            "query-gaussian-hier", "mix", "gaussian", 20_000, (10, 10), 8,
            pass_s=0.6, stream=8000, builds=3,
        ),
        # Every move forces a full lazy rebuild: render, gap fill, subdivide.
        # At least 100 cycles, so update_p90_ms has 10 samples beyond it.
        Config(
            "mutate-gaussian-hier", "mutate", "gaussian", 5000, (10, 10), 8,
            pass_s=0.25, min_passes=100, watch=1000, per_cycle=200,
        ),
        # The paper's sweep path; the only workload running sweep, bruteforce, pgm.
        Config(
            "sweep-quadtree", "sweep", "uniform", 5000, (2, 2), 1,
            pass_s=0.95, lattice=64, battery=2048, watch=2000, builds=8,
        ),
    )
}

# Tiny sizes for the self-test: every workload end to end in about a second.
SMOKE = {
    "query-uniform-flat": dict(n=3000, divisions=(8, 8), stream=300, probe=100),
    "query-gaussian-hier": dict(n=3000, stream=300, probe=100),
    "mutate-gaussian-hier": dict(n=400, min_passes=4, watch=20, per_cycle=10, probe=100),
    "sweep-quadtree": dict(n=200, lattice=12, battery=64, watch=50, probe=100),
}


def config(name: str, smoke: bool = False) -> Config:
    cfg = WORKLOADS[name]
    return replace(cfg, **SMOKE[name]) if smoke else cfg


@dataclass
class Result:
    """Everything one run measured; `e2e` and `layers` hold metric dicts."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(why)


class _NoTrace:
    """Stands in for the tracer in untraced runs; only carries `op`."""

    op = -1


def same_answer(a, b) -> bool:
    """Whether two answers to one operation agree. Exceptions themselves
    compare by identity; here one matches any of the same type and message."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


class Repeated:
    """A fixed list of operations, timed one call at a time on every pass.

    The first pass's answers are the reference, which the oracle checks; on
    an index that does not change, every later pass must return the same
    answers. An operation that raises the same exception on every pass is
    the oracle check's single failure, not one per pass.
    """

    def __init__(self, run: "Run", fn, args: list, first_op: int = 0) -> None:
        self.run = run
        self.fn = fn
        self.args = args
        self.first_op = first_op
        self.passes: list[list[float]] = []  # per pass, each call's seconds
        self.first: list | None = None

    def once(self) -> None:
        lat, out = self.run.timed_calls(self.fn, self.args, self.first_op)
        self.passes.append(lat)
        self.run.res.attempted += len(self.args)
        if self.first is None:
            self.first = out
            return
        differing = sum(not same_answer(a, b) for a, b in zip(out, self.first))
        if differing:
            self.run.res.fail(differing, f"{differing} repeated operations changed answer")

    def latencies(self, mask=None) -> np.ndarray:
        """Pass x operation latencies in seconds, optionally some columns."""
        lat = np.array(self.passes)
        return lat if mask is None else lat[:, mask]


def floor_rate(*repeated: Repeated) -> dict:
    """Operations per second at floor speed: the operations of the Repeated
    lists over the sum of each one's fastest pass."""
    lats = [np.array(r.passes) for r in repeated]
    ops = sum(lat.shape[1] for lat in lats)
    rate = ops / sum(float(lat.min(axis=0).sum()) for lat in lats)
    return {**metric(rate, "1/s", sum(lat.size for lat in lats)), "passes": len(lats[0])}


class Run:
    """State shared by the phases of one workload run."""

    def __init__(self, hg, cfg: Config, seed: int, seconds: float, trace: bool) -> None:
        self.hg = hg
        self.cfg = cfg
        self.passes = max(cfg.min_passes, round(seconds / cfg.pass_s))
        self.res = Result(cfg.name, seed, trace)
        self.tracer = Tracer(hg) if trace else _NoTrace()
        make = hg.datasets.uniform_points if cfg.dist == "uniform" else hg.datasets.gaussian_points
        self.points = make(cfg.n, seed=seed)
        self.extents = self.points.data_extents
        self.sweep_extents = self.extents.scaled(hg.sweep.SWEEP_SCALE)
        self.ops_rng = np.random.default_rng([seed, 1])
        self.probe_rng = np.random.default_rng([seed, 2])
        # trace mode: op id -> (path, records_examined) of checked nearest ops
        self.paths: dict[int, tuple[str, int]] = {}
        self.range_hits: list[int] = []
        self.build_s: list[float] = []

    # -- inputs -------------------------------------------------------------

    def like_data(self, rng, k: int) -> np.ndarray:
        """k points from the data distribution (mirrors hiergrid.datasets)."""
        ext = self.hg.datasets.DEFAULT_EXTENTS
        if self.cfg.dist == "uniform":
            return rng.uniform((ext.min.x, ext.min.y), (ext.max.x, ext.max.y), size=(k, 2))
        c = ext.center
        return rng.normal((c.x, c.y), (ext.width / 6.0, ext.height / 6.0), size=(k, 2))

    def queries(self, rng, k: int) -> list:
        pts = self.like_data(rng, k)
        wide = self.sweep_extents
        uni = rng.uniform((wide.min.x, wide.min.y), (wide.max.x, wide.max.y), size=(k, 2))
        pick = rng.random(k) < UNIFORM_QUERY_SHARE
        pts[pick] = uni[pick]
        P = self.hg.geometry.Point2D
        return [P(float(x), float(y)) for x, y in pts]

    def rects(self, rng, k: int) -> list:
        g = self.hg.geometry
        half = RANGE_SIDE * self.hg.datasets.DEFAULT_EXTENTS.width / 2.0
        return [
            g.Extents(g.Point2D(x - half, y - half), g.Point2D(x + half, y + half))
            for x, y in self.like_data(rng, k).tolist()
        ]

    # -- phases shared by every workload -------------------------------------

    def new_index(self):
        cfg, hg = self.cfg, self.hg
        dx, dy = cfg.divisions
        if cfg.max_bin_records is None:
            return hg.gridindex.GridIndex(self.points, dx, dy)
        return hg.hierarchy.HierGridIndex(
            self.points, dx, dy, hg.hierarchy.HierConfig(max_bin_records=cfg.max_bin_records)
        )

    def time_build(self):
        """Time the first ensure_built() of a fresh index and return it.
        setup_s is the fastest such build, as for every timing."""
        index = self.new_index()
        gc.collect()
        t0 = time.perf_counter()
        index.ensure_built()
        self.build_s.append(time.perf_counter() - t0)
        self.res.e2e["setup_s"] = metric(min(self.build_s), "s", len(self.build_s))
        return index

    def setup(self):
        """Build the index that serves the run."""
        index = self.time_build()
        if not self.res.trace:
            mb = index_bytes(index, self.points) / 1e6
            self.res.e2e["index_mb"] = metric(mb, "MB", 1)
        return index

    def after_pass(self, p: int) -> None:
        """Time the remaining builds - 1 fresh builds evenly over the passes,
        so setup_s samples the machine's speed across the whole run.
        Untraced runs only; the source must be unchanged since the served
        index last rebuilt, as a build clears the source's changed flag."""
        more = self.cfg.builds - 1
        due = (p + 1) * more // self.passes - p * more // self.passes
        for _ in range(0 if self.res.trace else due):
            self.time_build()

    def timed_calls(self, fn, args, first_op: int):
        """Time fn(arg) one call at a time; exceptions become results."""
        tr, pc = self.tracer, time.perf_counter
        lat, out = [], []
        for k, arg in enumerate(args):
            tr.op = first_op + k
            t0 = pc()
            try:
                res = fn(arg)
            except Exception as exc:  # counted as a failed operation
                res = exc
            lat.append(pc() - t0)
            out.append(res)
        return lat, out

    def latency_e2e(self, kind: str, passes: np.ndarray, chunk: int = 0) -> None:
        """<kind>_p50_us and _p99_us of operations timed on every pass."""
        for q, value in zip((50, 99), floor_latency(passes, chunk)):
            self.res.e2e[f"{kind}_p{q}_us"] = {
                **metric(value, "us", passes.size),
                "passes": len(passes),
            }

    def check_nearest(self, oracle, q, res, op: int, extents=None) -> bool:
        """Gate one nearest answer; returns whether it is exact.

        A raised exception or an inexact short-circuited answer fails the
        operation. Inexact answers without a short circuit are the index's
        designed approximation and only lower match_rate.
        """
        if isinstance(res, Exception):
            self.res.fail(1, f"nearest{(q.x, q.y)} raised {type(res).__name__}: {res}")
            return False
        truth = oracle.nearest(q)
        exact = self.hg.geometry.dist_sq(q, oracle.position(res.record)) == truth.distance_sq
        if res.short_circuit and not exact:
            self.res.fail(
                1, f"nearest{(q.x, q.y)} short-circuited to {res.record}, truth {truth.record}"
            )
        if self.res.trace and extents is not None:
            # the query's path, told from outside the index
            if not extents.contains(q):
                path = "border"
            else:
                path = "sc" if res.short_circuit else "neigh"
            self.paths[op] = (path, res.records_examined)
        return exact

    def check_range(self, oracle, rect, res) -> None:
        if isinstance(res, Exception):
            self.res.fail(1, f"range_query raised {type(res).__name__}: {res}")
            return
        self.range_hits.append(len(res))
        if res != oracle.range(rect):
            self.res.fail(1, f"range_query({rect}) differs from the oracle")

    def probe(self, index, oracle) -> None:
        """Tracing overhead: the same nearest queries untraced, then traced."""
        qs = self.queries(self.probe_rng, self.cfg.probe)
        self.tracer.uninstall()
        plain, plain_out = self.timed_calls(index.nearest, qs, PROBE_OP)
        self.tracer.install()
        traced, traced_out = self.timed_calls(index.nearest, qs, PROBE_OP)
        for k, q in enumerate(qs):
            self.check_nearest(oracle, q, plain_out[k], PROBE_OP + k)
            if traced_out[k] != plain_out[k]:
                self.res.fail(1, f"traced nearest{(q.x, q.y)} differs from untraced")
        self.res.attempted += 2 * len(qs)
        ratio = median(traced) / median(plain)
        self.res.layers["trace.overhead_ratio"] = metric(ratio, "ratio", len(qs))
        self.res.extra["probe_nearest_p50_us"] = {
            "untraced": median(plain) * 1e6,
            "traced": median(traced) * 1e6,
            "samples": len(qs),
        }

    # -- trace-mode per-layer metrics -----------------------------------------

    def finish_layers(self, index_shape: dict, sweeps: int = 0) -> None:
        tracer = self.tracer
        tracer.uninstall()
        table = SpanTable(tracer)
        for name, val in layer_metrics(tracer, table, sweeps).items():
            self.res.layers[name] = None if val is None else metric(*val)
        self.res.layers.update(index_shape)
        by_op = {}
        for i in table.named("gridindex.nearest"):
            op = table.op[i]
            if op in self.paths:
                by_op[op] = table.dur[i]
        total = len(self.paths)
        for path in ("sc", "neigh", "border"):
            ops = [op for op, (p, _) in self.paths.items() if p == path]
            key = f"gridindex.nearest.{path}"
            share = len(ops) / total if total else 0.0
            self.res.layers[f"{key}.share"] = metric(share, "ratio", total)
            lat = [by_op[op] * 1e6 for op in ops if op in by_op]
            self.res.layers[f"{key}.p50_us"] = metric(median(lat), "us", len(lat)) if lat else None
            self.res.layers[f"{key}.examined_mean"] = (
                metric(sum(self.paths[op][1] for op in ops) / len(ops), "count", len(ops))
                if ops
                else None
            )
        hits = self.range_hits
        self.res.layers["gridindex.range.hits_mean"] = metric(
            sum(hits) / len(hits) if hits else 0.0, "count", len(hits)
        )
        self.res.extra["absent_entry_points"] = list(tracer.absent)


def shape_metrics(index) -> dict:
    """Tree shape from the public API: grids, depth, leaf sizes, empty bins."""
    grids = [(index, 0)]
    k = 0
    while k < len(grids):
        grid, depth = grids[k]
        grids.extend((sub, depth + 1) for sub in getattr(grid, "sub_indexes", ()))
        k += 1
    bins = empty = 0
    for grid, _ in grids:
        shape = grid.shape
        total = shape.divisions_x * shape.divisions_y
        bins += total
        empty += total - sum(1 for _ in grid.rendered.present_coords())
    if hasattr(index, "leaf_occupancies"):
        sizes = [len(ids) for _, ids in index.leaf_occupancies()]
    else:
        rendered = index.rendered
        sizes = [len(rendered.at(c)) for c in rendered.present_coords()]
    return {
        "hierarchy.nodes": metric(len(grids), "count", 1),
        "hierarchy.depth_max": metric(max(d for _, d in grids), "count", 1),
        "hierarchy.leaf_size_mean": metric(sum(sizes) / len(sizes), "count", len(sizes)),
        "gridindex.empty_bin_frac": metric(empty / bins, "ratio", bins),
    }


# -- the three workload kinds ------------------------------------------------


def run_mix(run: Run) -> None:
    """Closed loop over a fixed stream of nearest (90%) and range (10%) ops,
    repeated for the run's passes.

    The first pass gives the reference answers, which the oracle checks;
    every later answer must equal the reference.
    """
    cfg, res = run.cfg, run.res
    index = run.setup()
    oracle = run.hg.bruteforce.BruteForceIndex(run.points)
    if res.trace:
        shape = shape_metrics(index)
        run.probe(index, oracle)
    is_range = run.ops_rng.random(cfg.stream) < RANGE_SHARE
    qs = run.queries(run.ops_rng, cfg.stream)
    rects = run.rects(run.ops_rng, cfg.stream)
    ops = [(bool(r), rect if r else q) for r, q, rect in zip(is_range, qs, rects)]
    nearest, range_query = index.nearest, index.range_query

    def issue(op):
        return range_query(op[1]) if op[0] else nearest(op[1])

    stream = Repeated(run, issue, ops)
    gc.collect()
    for p in range(run.passes):
        stream.once()
        run.after_pass(p)

    extents = index.shape.extents
    digest = Digest()
    matched = examined = nearest_ops = 0
    for k, ((rng_op, arg), out) in enumerate(zip(ops, stream.first)):
        if rng_op:
            run.check_range(oracle, arg, out)
        else:
            nearest_ops += 1
            matched += run.check_nearest(oracle, arg, out, k, extents)
            if not isinstance(out, Exception):
                examined += out.records_examined
        if isinstance(out, Exception):
            digest.error(out)
        elif rng_op:
            digest.range(out)
        else:
            digest.nearest(out)
    res.digests["ops"] = digest.hexdigest()
    run.latency_e2e("nearest", stream.latencies(~is_range))
    run.latency_e2e("range", stream.latencies(is_range))
    res.e2e["ops_per_s"] = floor_rate(stream)
    res.e2e["examined_mean"] = metric(examined / nearest_ops, "count", nearest_ops)
    res.e2e["match_rate"] = metric(matched / nearest_ops, "ratio", nearest_ops)
    if res.trace:
        run.finish_layers(shape)


def run_mutate(run: Run) -> None:
    """Cycles of one move, one nearest query, then per_cycle watch queries
    and per_cycle watch range rectangles.

    The move marks the source changed, so the first query after it pays a
    full lazy rebuild: that pair is the update latency. The watch points and
    rectangles are fixed and issued in round robin, so every watch / per_cycle
    cycles make one pass over the watch set. The run's passes are cycles.
    Answers are checked against an oracle over a snapshot of the positions
    taken after each cycle's move.
    """
    cfg, res, tr, hg = run.cfg, run.res, run.tracer, run.hg
    index = run.setup()
    initial = np.array(run.points.positions)
    if res.trace:
        shape = shape_metrics(index)
        run.probe(index, hg.bruteforce.BruteForceIndex(run.points))
    watch_q = run.queries(run.ops_rng, cfg.watch)
    watch_r = run.rects(run.ops_rng, cfg.watch)
    W, C = cfg.watch, cfg.per_cycle
    cycle_ops = 2 + 2 * C  # move, first query, watch queries, watch rectangles

    move, nearest, range_query = run.points.move, index.nearest, index.range_query
    done = []  # per cycle: (rid, x, y, stored row, q0, answers, extents)
    update_lat, cycle_s, near_lat, range_lat = [], [], [], []
    pc = time.perf_counter
    gc.collect()
    for c in range(run.passes):
        t_cycle = pc()
        op = c * cycle_ops
        rid = int(run.ops_rng.integers(cfg.n))
        x, y = run.like_data(run.ops_rng, 1)[0].tolist()
        q0 = run.queries(run.ops_rng, 1)[0]
        answers = []
        tr.op = op
        t0 = pc()
        try:
            move(rid, x, y)
        except Exception as exc:  # counted as a failed operation
            answers.append(exc)
        tr.op = op + 1
        try:
            out = nearest(q0)
        except Exception as exc:
            out = exc
        update_lat.append(pc() - t0)
        answers.append(out)
        for j in range(C):
            i = (c * C + j) % W
            tr.op = op + 2 + j
            t0 = pc()
            try:
                out = nearest(watch_q[i])
            except Exception as exc:
                out = exc
            near_lat.append(pc() - t0)
            answers.append(out)
        for j in range(C):
            i = (c * C + j) % W
            tr.op = op + 2 + C + j
            t0 = pc()
            try:
                out = range_query(watch_r[i])
            except Exception as exc:
                out = exc
            range_lat.append(pc() - t0)
            answers.append(out)
        # snapshot: the row the source now holds for the moved record
        row = tuple(run.points.positions[rid].tolist())
        cycle_s.append(pc() - t_cycle)
        done.append((rid, x, y, row, q0, answers, index.shape.extents))
        run.after_pass(c)  # the served index has rebuilt for this move
    res.attempted += len(done) * cycle_ops
    tr.op = -1  # the oracle's own moves below are not workload operations

    mirror = hg.sources.PointCollection(initial)
    digest = Digest()
    matched = examined = counted = 0
    for c, (rid, x, y, row, q0, answers, extents) in enumerate(done):
        if len(answers) > cycle_ops - 1:
            exc = answers.pop(0)
            res.fail(1, f"move({rid}) raised {type(exc).__name__}: {exc}")
        elif row != (x, y):
            res.fail(1, f"move({rid}, {x}, {y}) stored {row}")
        mirror.move(rid, *row)
        oracle = hg.bruteforce.BruteForceIndex(mirror)
        idx = [(c * C + j) % W for j in range(C)]
        # the first query pays the rebuild: it stays out of per-path latencies
        queries = [(q0, None)] + [(watch_q[i], c * cycle_ops + 2 + j) for j, i in enumerate(idx)]
        for (q, op), out in zip(queries, answers):
            counted += 1
            matched += run.check_nearest(oracle, q, out, op, extents if op is not None else None)
            if isinstance(out, Exception):
                digest.error(out)
            else:
                examined += out.records_examined
                digest.nearest(out)
        for i, out in zip(idx, answers[1 + C:]):
            run.check_range(oracle, watch_r[i], out)
            digest.error(out) if isinstance(out, Exception) else digest.range(out)
    res.digests["cycles"] = digest.hexdigest()

    # watch query k went to watch index k % W: rows are passes over the set
    # and a cycle's calls are one chunk, short enough to run at one speed
    whole = len(near_lat) // W * W
    run.latency_e2e("nearest", np.reshape(near_lat[:whole], (-1, W)), C)
    run.latency_e2e("range", np.reshape(range_lat[:whole], (-1, W)), C)
    ops = len(cycle_s) * cycle_ops
    res.e2e["ops_per_s"] = {**metric(ops / sum(cycle_s), "1/s", ops), "passes": len(cycle_s)}
    res.e2e["examined_mean"] = metric(examined / counted, "count", counted)
    res.e2e["match_rate"] = metric(matched / counted, "ratio", counted)
    ms = [t * 1e3 for t in update_lat]
    res.extra["update_p50_ms"] = metric(pct(ms, 50), "ms", len(ms))
    res.extra["update_p90_ms"] = metric(pct(ms, 90), "ms", len(ms))
    if res.trace:
        run.finish_layers(shape)


def run_sweep(run: Run) -> None:
    """The `hiergrid sweep` sequence, repeated for the run's passes.

    sweep_cost -> summarize -> colorize -> pgm_bytes -> match_battery, as the
    CLI runs it. Before each sequence,
    every lattice point is queried one call at a time (nearest latency,
    oracle check) and `watch` range rectangles are queried. Each sequence's
    cost field must equal the lattice answers' costs, and its artifacts the
    first sequence's.
    """
    cfg, res, tr, hg = run.cfg, run.res, run.tracer, run.hg
    sweep, pgm = hg.sweep, hg.pgm
    index = run.setup()
    oracle = hg.bruteforce.BruteForceIndex(run.points)
    if res.trace:
        shape = shape_metrics(index)
        run.probe(index, oracle)

    # same lattice as sweep_cost: inclusive linspace over the scaled extents
    extents = index.shape.extents
    wide = extents.scaled(sweep.SWEEP_SCALE)
    xs = np.linspace(wide.min.x, wide.max.x, cfg.lattice)
    ys = np.linspace(wide.min.y, wide.max.y, cfg.lattice)
    P = hg.geometry.Point2D
    lattice = Repeated(run, index.nearest, [P(float(x), float(y)) for y in ys for x in xs])
    ranges = Repeated(run, index.range_query, run.rects(run.ops_rng, cfg.watch), len(lattice.args))

    battery_seed = run.res.seed + 1  # the CLI's BATTERY_SEED_OFFSET
    per_sequence = cfg.lattice * cfg.lattice + cfg.battery
    times = []
    first = None
    pc = time.perf_counter
    gc.collect()
    for p in range(run.passes):
        lattice.once()
        ranges.once()
        run.after_pass(p)
        tr.op = SWEEP_OP + len(times)
        t0 = pc()
        try:
            fld = sweep.sweep_cost(index, cfg.lattice, cfg.lattice)
            stats = sweep.summarize(fld)
            image = pgm.pgm_bytes(sweep.colorize(fld, "relative"))
            report = sweep.match_battery(index, cfg.battery, battery_seed)
        except Exception as exc:  # counted as failed operations
            times.append(pc() - t0)
            res.fail(per_sequence, f"sweep sequence raised {type(exc).__name__}: {exc}")
            continue
        times.append(pc() - t0)
        # the stats row as text: an interior mean of nan must still compare equal
        row = ",".join(
            repr(v)
            for v in (
                stats.cost_min, stats.cost_max, float(stats.cost_mean), stats.interior_max,
                float(stats.interior_mean), report.total, report.matched, report.sc_fired,
                report.sc_inexact,
            )
        )
        artifacts = (fld, image, row)
        if first is None:
            first = artifacts
            if report.sc_inexact:
                res.fail(
                    report.sc_inexact, f"{report.sc_inexact} inexact short circuits in the battery"
                )
            res.e2e["match_rate"] = metric(report.match_rate, "ratio", report.total)
        elif artifacts[1:] != first[1:] or not np.array_equal(fld.costs, first[0].costs):
            res.fail(per_sequence, "a repeated sweep sequence produced different artifacts")
    res.attempted += len(times) * per_sequence

    digest = Digest()
    costs = []
    for k, (q, out) in enumerate(zip(lattice.args, lattice.first)):
        run.check_nearest(oracle, q, out, k, extents)
        if isinstance(out, Exception):
            digest.error(out)
            costs.append(-1)
        else:
            digest.nearest(out)
            costs.append(out.records_examined)
    res.digests["lattice"] = digest.hexdigest()
    range_digest = Digest()
    for rect, out in zip(ranges.args, ranges.first):
        run.check_range(oracle, rect, out)
        range_digest.error(out) if isinstance(out, Exception) else range_digest.range(out)
    res.digests["range"] = range_digest.hexdigest()
    if first is not None:
        fld, image, row = first
        expected = np.array(costs, dtype=np.int64).reshape(cfg.lattice, cfg.lattice)
        differing = int((fld.costs != expected).sum())
        if differing:
            res.fail(differing, f"{differing} sweep costs differ from the lattice answers")
        res.digests["pgm"] = sha256(image)
        res.digests["stats"] = sha256(row.encode())
        res.extra["stats_row"] = row

    run.latency_e2e("nearest", lattice.latencies())
    run.latency_e2e("range", ranges.latencies())
    res.e2e["ops_per_s"] = floor_rate(lattice, ranges)
    res.e2e["examined_mean"] = metric(float(np.mean(costs)), "count", len(costs))
    res.extra["sweep_s"] = metric(median(times), "s", len(times))
    if res.trace:
        run.finish_layers(shape, sweeps=len(times))


RUNNERS = {"mix": run_mix, "mutate": run_mutate, "sweep": run_sweep}


def run_workload(hg, cfg: Config, seed: int, seconds: float, trace: bool) -> Run:
    """Run one workload; tracing, when on, stays installed throughout."""
    run = Run(hg, cfg, seed, seconds, trace)
    if trace:
        run.tracer.install()
    try:
        RUNNERS[cfg.kind](run)
    finally:
        if trace:
            run.tracer.uninstall()
    return run
