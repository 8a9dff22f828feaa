"""Command line benchmark driver.

Subcommands: generate (write a point set), sweep (cost heatmap + stats for
one configuration), compare (stats and heatmaps across divisions, flat vs
hierarchical), verify (randomized oracle batteries, nonzero exit on a hard
failure). All outputs are deterministic for a given argument list: fixed
RNG streams, no timestamps, stable file names.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .datasets import gaussian_points, uniform_points
from .gridindex import GridIndex
from .hierarchy import HierConfig, HierGridIndex
from .pgm import write_pgm
from .sources import PointCollection, load_points
from .sweep import colorize, match_battery, range_battery, summarize, sweep_cost

STATS_HEADER = (
    "config,n,div_x,div_y,hier,max_bin_records,"
    "cost_min,cost_max,cost_mean,interior_max,interior_mean,oracle_match_rate"
)
# Battery RNG stream is derived from, but distinct from, the dataset seed.
BATTERY_SEED_OFFSET = 1


def _int_at_least(lowest: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _parse_divisions(text: str) -> tuple[int, int]:
    try:
        xs, ys = text.lower().split("x")
        dx, dy = int(xs), int(ys)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH, e.g. 10x10, got {text!r}")
    if dx < 1 or dy < 1:
        raise argparse.ArgumentTypeError(f"divisions must be >= 1, got {text!r}")
    return dx, dy


def _parse_sweep_resolution(text: str) -> tuple[int, int]:
    rx, ry = _parse_divisions(text)
    if rx < 2 or ry < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2x2, got {text!r}")
    return rx, ry


def _parse_divisions_list(text: str) -> list[tuple[int, int]]:
    out = [_parse_divisions(part) for part in text.split(",") if part]
    if not out:
        raise argparse.ArgumentTypeError(f"expected WxH[,WxH...], got {text!r}")
    return out


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--dataset",
        choices=("uniform", "gaussian", "file"),
        default="uniform",
        help="point set to index (default: uniform)",
    )
    p.add_argument("--file", help="points file for --dataset file (x,y per line)")
    p.add_argument(
        "--n", type=_positive_int, default=5000, help="generated record count (default: 5000)"
    )
    p.add_argument(
        "--seed", type=_non_negative_int, default=42, help="dataset RNG seed (default: 42)"
    )


def _add_index_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--divisions",
        type=_parse_divisions,
        default=(10, 10),
        metavar="WxH",
        help="grid divisions (default: 10x10)",
    )
    p.add_argument(
        "--hierarchical",
        choices=("true", "false"),
        default="false",
        help="subdivide overfull bins (default: false)",
    )
    _add_hier_args(p)


def _add_hier_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-bin-records",
        type=_positive_int,
        default=1,
        help="bins holding more than this subdivide (default: 1)",
    )


def _add_sweep_args(p: argparse.ArgumentParser, default_color: str) -> None:
    p.add_argument(
        "--sweep-resolution",
        type=_parse_sweep_resolution,
        default=(256, 256),
        metavar="WxH",
        help="query lattice resolution (default: 256x256)",
    )
    p.add_argument(
        "--color",
        choices=("relative", "absolute"),
        default=default_color,
        help=f"grayscale mapping (default: {default_color})",
    )
    p.add_argument(
        "--cap-fraction",
        type=_positive_float,
        default=0.01,
        help="absolute-mode white point as a fraction of n (default: 0.01)",
    )


def _load_dataset(args: argparse.Namespace) -> tuple[PointCollection, str]:
    if args.dataset == "file":
        if not args.file:
            raise SystemExit("--dataset file requires --file")
        points = load_points(args.file)
        return points, f"file-{Path(args.file).stem}"
    if args.dataset == "uniform":
        return uniform_points(args.n, seed=args.seed), f"uniform-n{args.n}-seed{args.seed}"
    return gaussian_points(args.n, seed=args.seed), f"gaussian-n{args.n}-seed{args.seed}"


def _build_index(
    points: PointCollection,
    divisions: tuple[int, int],
    hierarchical: bool,
    max_bin_records: int,
) -> GridIndex:
    dx, dy = divisions
    if hierarchical:
        return HierGridIndex(points, dx, dy, HierConfig(max_bin_records=max_bin_records))
    return GridIndex(points, dx, dy)


def _config_label(ds_label: str, divisions: tuple[int, int], hierarchical: bool, mbr: int) -> str:
    dx, dy = divisions
    mode = f"hier-b{mbr}" if hierarchical else "flat"
    return f"{ds_label}-{dx}x{dy}-{mode}"


def _sweep_config(points, ds_label, args, divisions, hierarchical):
    """Sweep, battery-check and heatmap one configuration: (label, stats,
    match report, stats CSV row, heatmap path)."""
    label = _config_label(ds_label, divisions, hierarchical, args.max_bin_records)
    index = _build_index(points, divisions, hierarchical, args.max_bin_records)
    field = sweep_cost(index, *args.sweep_resolution)
    stats = summarize(field)
    report = match_battery(index, seed=args.seed + BATTERY_SEED_OFFSET)
    pgm_path = f"{args.out}_{label}_{args.color}.pgm"
    write_pgm(pgm_path, colorize(field, args.color, args.cap_fraction))
    row = ",".join(
        (
            label,
            str(points.record_count),
            str(divisions[0]),
            str(divisions[1]),
            "true" if hierarchical else "false",
            str(args.max_bin_records if hierarchical else 0),
            str(stats.cost_min),
            str(stats.cost_max),
            repr(float(stats.cost_mean)),
            str(stats.interior_max),
            repr(float(stats.interior_mean)),
            repr(float(report.match_rate)),
        )
    )
    return label, stats, report, row, pgm_path


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "file":
        raise SystemExit("generate writes synthetic sets; --dataset must be uniform or gaussian")
    points, label = _load_dataset(args)
    from .sources import save_points

    save_points(args.out, points, header=f"dataset {label}")
    print(f"wrote {points.record_count} points to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    points, ds_label = _load_dataset(args)
    label, stats, report, row, pgm_path = _sweep_config(
        points, ds_label, args, args.divisions, args.hierarchical == "true"
    )
    csv_path = f"{args.out}_stats.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(STATS_HEADER + "\n" + row + "\n")
    print(f"{label}: interior max {stats.interior_max}, interior mean "
          f"{stats.interior_mean:.2f}, sweep max {stats.cost_max}, "
          f"match rate {report.match_rate:.4f}")
    print(f"wrote {pgm_path}")
    print(f"wrote {csv_path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    points, ds_label = _load_dataset(args)
    if args.hierarchical == "both":
        modes = (False, True)
    else:
        modes = (args.hierarchical == "true",)
    rows = []
    print(f"{'config':<42} {'int.max':>8} {'int.mean':>9} {'max':>6} {'match':>7}")
    for divisions in args.divisions:
        for hierarchical in modes:
            label, stats, report, row, _ = _sweep_config(
                points, ds_label, args, divisions, hierarchical
            )
            rows.append(row)
            print(
                f"{label:<42} {stats.interior_max:>8} {stats.interior_mean:>9.2f} "
                f"{stats.cost_max:>6} {report.match_rate:>7.4f}"
            )
    csv_path = f"{args.out}_stats.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(STATS_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"wrote {csv_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import numpy as np

    points, ds_label = _load_dataset(args)
    hierarchical = args.hierarchical == "true"
    label = _config_label(ds_label, args.divisions, hierarchical, args.max_bin_records)
    index = _build_index(points, args.divisions, hierarchical, args.max_bin_records)
    failures = []

    try:
        report = match_battery(index, queries=args.queries, seed=args.seed + BATTERY_SEED_OFFSET)
    except Exception as exc:  # totality: every query must produce a record
        print(f"nearest battery : FAILED ({exc})")
        print(f"verify {label}: FAIL")
        return 1
    sc_note = f"short-circuit {report.sc_fired}/{report.total}"
    if report.sc_inexact:
        failures.append(f"{report.sc_inexact} short-circuited results were not exact")
        sc_note += f", {report.sc_inexact} INEXACT"
    else:
        sc_note += ", all exact"
    print(
        f"nearest battery : {report.total} queries, match rate "
        f"{report.match_rate:.4f}, {sc_note}"
    )

    rng = np.random.default_rng(args.seed + BATTERY_SEED_OFFSET + 1)
    bad_ranges = range_battery(index, args.ranges, rng)
    if bad_ranges:
        failures.append(f"{bad_ranges} range queries disagreed with the oracle")
        print(f"range battery   : {args.ranges} rectangles, {bad_ranges} MISMATCHED")
    else:
        print(f"range battery   : {args.ranges} rectangles, all exact")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        print(f"verify {label}: FAIL")
        return 1
    print(f"verify {label}: PASS")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiergrid",
        description="Grid spatial index benchmarks: cost heatmaps, stats, oracle checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic point set to a file")
    _add_dataset_args(p)
    p.add_argument("--out", default="points.csv", help="output path (default: points.csv)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sweep", help="cost heatmap and stats for one configuration")
    _add_dataset_args(p)
    _add_index_args(p)
    _add_sweep_args(p, default_color="relative")
    p.add_argument("--out", default="sweep", help="output file prefix (default: sweep)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="stats across divisions, flat vs hierarchical")
    _add_dataset_args(p)
    p.add_argument(
        "--divisions",
        type=_parse_divisions_list,
        default=[(2, 2), (4, 4), (8, 8), (16, 16)],
        metavar="WxH[,WxH...]",
        help="division list (default: 2x2,4x4,8x8,16x16)",
    )
    p.add_argument(
        "--hierarchical",
        choices=("true", "false", "both"),
        default="both",
        help="index modes to run (default: both)",
    )
    _add_hier_args(p)
    _add_sweep_args(p, default_color="absolute")
    p.add_argument("--out", default="compare", help="output file prefix (default: compare)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="randomized oracle batteries; exit 1 on hard failure")
    _add_dataset_args(p)
    _add_index_args(p)
    p.add_argument(
        "--queries", type=_positive_int, default=4096, help="nearest queries (default: 4096)"
    )
    p.add_argument(
        "--ranges", type=_positive_int, default=256, help="range queries (default: 256)"
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def _check_hierarchical_layouts(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Exit 2 before any output when a hierarchical mode would run on a 1x1
    layout, which HierGridIndex rejects."""
    if getattr(args, "hierarchical", "false") == "false":
        return
    layouts = args.divisions if args.command == "compare" else [args.divisions]
    for dx, dy in layouts:
        if dx * dy < 2:
            parser.error(
                f"--hierarchical {args.hierarchical} needs at least 2 bins per level, "
                f"got --divisions {dx}x{dy}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_hierarchical_layouts(parser, args)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
