"""hiergrid benchmark: time the library's workloads end to end and by layer.

Usage, from the root of a hiergrid source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload all --smoke    # tiny sizes, seconds

The library is imported from ./src, never from an installed copy; without
it the run exits non-zero before measuring anything. Each run prints a
report (every metric with its unit and sample count, the failed-operation
share and the answer digests), writes the same as JSON under .perfbench/
(with the spans of the latest traced run), and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. The metrics are the
end_to_end list of BENCHMARK.json with --trace 0 and its per_layer list with
--trace 1; a per-layer metric whose entry point no longer exists is left
out, never reported as zero.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 42  # the hiergrid CLI's default dataset seed
OUT_DIR = ROOT / ".perfbench"


def load_hiergrid(root: Path):
    """Import hiergrid from root/src, refusing any other copy."""
    pkg = root / "src" / "hiergrid"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hiergrid sources at {pkg}")
    sys.path.insert(0, str(root / "src"))
    import hiergrid

    if Path(hiergrid.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported hiergrid from {hiergrid.__file__}, not {pkg}")
    return hiergrid


def benchmark_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(res, spec: dict) -> dict:
    """The last stdout line: the metrics BENCHMARK.json lists for this mode."""
    measured = res.layers if res.trace else res.e2e
    wanted = spec["per_layer"] if res.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is not None:
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }


def _rows(metrics: dict) -> list[str]:
    out = []
    for name, m in metrics.items():
        if m is None:
            out.append(f"  {name:<40} absent")
        else:
            how = ""
            if "passes" in m:
                at = "fastest" if m["unit"] == "1/s" else "floor speed"
                how = f" ({at} over {m['passes']} passes)"
            out.append(f"  {name:<40} {m['value']:>16.6g} {m['unit']:<6} n={m['samples']}{how}")
    return out


def report_lines(res, seconds: float) -> list[str]:
    share = res.failed / res.attempted if res.attempted else 0.0
    lines = [
        f"workload {res.workload}  seed {res.seed}  seconds {seconds:g}  trace {int(res.trace)}",
        *_rows(res.layers if res.trace else res.e2e),
        *_rows({k: v for k, v in res.extra.items() if isinstance(v, dict) and "unit" in v}),
        f"  failed {res.failed} of {res.attempted} operations (share {share:.6g})",
    ]
    lines += [f"  error: {e}" for e in res.errors]
    lines += [f"  digest {k} {v}" for k, v in res.digests.items()]
    return lines


def save(run) -> Path:
    res = run.res
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{res.workload}-seed{res.seed}-trace{int(res.trace)}"
    doc = {
        "workload": res.workload,
        "seed": res.seed,
        "trace": res.trace,
        "attempted": res.attempted,
        "failed": res.failed,
        "errors": res.errors,
        "metrics": res.layers if res.trace else res.e2e,
        "extra": res.extra,
        "digests": res.digests,
    }
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if res.trace:
        # spans run to tens of megabytes: keep only the latest traced run's
        run.tracer.write_spans(OUT_DIR / f"{res.workload}-spans.npz")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds"
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = p.parse_args(argv)

    hg = load_hiergrid(ROOT)
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            known = ", ".join(workloads.WORKLOADS)
            p.error(f"unknown workload {name!r}; choose from {known} or all")
    spec = benchmark_spec(ROOT)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    lines = {}
    for name in names:
        cfg = workloads.config(name, args.smoke)
        run = workloads.run_workload(hg, cfg, args.seed, seconds, bool(args.trace))
        print("\n".join(report_lines(run.res, seconds)))
        print(f"  report {save(run).relative_to(ROOT)}", flush=True)
        lines[name] = result_line(run.res, spec)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
