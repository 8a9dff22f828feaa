"""The benchmark CLI: artifacts, exit codes, determinism."""
import numpy as np
import pytest

from hiergrid.cli import main
from hiergrid.sources import load_points

STATS_HEADER = (
    "config,n,div_x,div_y,hier,max_bin_records,"
    "cost_min,cost_max,cost_mean,interior_max,interior_mean,oracle_match_rate"
)

FAST_SWEEP = ["--n", "300", "--sweep-resolution", "16x16", "--divisions", "5x5"]


class TestGenerate:
    def test_writes_loadable_points(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        assert main(["generate", "--n", "40", "--seed", "7", "--out", str(out)]) == 0
        assert "wrote 40 points" in capsys.readouterr().out
        pts = load_points(out)
        assert pts.record_count == 40

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--n", "25", "--seed", "3", "--out", str(a)])
        main(["generate", "--n", "25", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gaussian_differs_from_uniform(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--n", "25", "--seed", "3", "--out", str(a)])
        main(["generate", "--dataset", "gaussian", "--n", "25", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_rejects_file_dataset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "file", "--out", str(tmp_path / "x.csv")])


class TestSweep:
    def test_produces_pgm_and_stats(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["sweep", *FAST_SWEEP, "--out", str(out)])
        assert code == 0
        pgms = list(tmp_path.glob("run_*.pgm"))
        assert len(pgms) == 1
        assert "relative" in pgms[0].name  # sweep defaults to relative color
        csv = (tmp_path / "run_stats.csv").read_text(encoding="utf-8")
        lines = csv.strip().split("\n")
        assert lines[0] == STATS_HEADER
        assert len(lines) == 2
        row = lines[1].split(",")
        assert len(row) == 12
        assert row[1:6] == ["300", "5", "5", "false", "0"]
        assert "interior max" in capsys.readouterr().out

    def test_hierarchical_row_reports_bucket(self, tmp_path):
        out = tmp_path / "run"
        main(
            [
                "sweep",
                *FAST_SWEEP,
                "--hierarchical",
                "true",
                "--max-bin-records",
                "3",
                "--out",
                str(out),
            ]
        )
        row = (tmp_path / "run_stats.csv").read_text(encoding="utf-8").strip().split("\n")[1]
        assert row.split(",")[4:6] == ["true", "3"]

    def test_match_rate_is_last_column_in_unit_range(self, tmp_path):
        out = tmp_path / "run"
        main(["sweep", *FAST_SWEEP, "--out", str(out)])
        row = (tmp_path / "run_stats.csv").read_text(encoding="utf-8").strip().split("\n")[1]
        rate = float(row.split(",")[-1])
        assert 0.0 <= rate <= 1.0

    def test_file_dataset(self, tmp_path):
        pts = tmp_path / "pts.csv"
        main(["generate", "--n", "60", "--seed", "2", "--out", str(pts)])
        code = main(
            [
                "sweep",
                "--dataset",
                "file",
                "--file",
                str(pts),
                "--sweep-resolution",
                "8x8",
                "--divisions",
                "3x3",
                "--out",
                str(tmp_path / "fs"),
            ]
        )
        assert code == 0
        assert (tmp_path / "fs_stats.csv").exists()

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "--dataset", "file", "--file", str(tmp_path / "nope.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_divisions_exit_code_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--divisions", "0x5"])
        assert exc.value.code == 2

    def test_unknown_flag_exit_code_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--n", "0"], "--n: must be >= 1, got '0'"),
            (["generate", "--n", "-3"], "--n: must be >= 1, got '-3'"),
            (["verify", "--queries", "0"], "--queries: must be >= 1, got '0'"),
            (["verify", "--ranges", "-5"], "--ranges: must be >= 1, got '-5'"),
            (["verify", "--ranges", "many"], "--ranges: expected an integer, got 'many'"),
        ],
    )
    def test_non_positive_counts_exit_code_two(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-bin-records", "0"], "--max-bin-records: must be >= 1, got '0'"),
            (
                ["--hierarchical", "true", "--max-bin-records", "0"],
                "--max-bin-records: must be >= 1, got '0'",
            ),
            (["--seed", "-1"], "--seed: must be >= 0, got '-1'"),
            (["--cap-fraction", "0"], "--cap-fraction: must be a finite number > 0, got '0'"),
            (
                ["--cap-fraction", "-0.5", "--color", "absolute"],
                "--cap-fraction: must be a finite number > 0, got '-0.5'",
            ),
        ],
    )
    def test_bad_numeric_flags_exit_code_two(self, flags, message, tmp_path, capsys):
        # each is rejected while parsing, before any index is built
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *FAST_SWEEP, *flags, "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCompare:
    def test_runs_both_modes_across_divisions(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(
            [
                "compare",
                "--n",
                "250",
                "--divisions",
                "2x2,3x3",
                "--sweep-resolution",
                "8x8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (tmp_path / "cmp_stats.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == STATS_HEADER
        assert len(lines) == 5  # 2 division schemes x flat + hierarchical
        flags = [ln.split(",")[4] for ln in lines[1:]]
        assert flags == ["false", "true", "false", "true"]
        assert len(list(tmp_path.glob("cmp_*.pgm"))) == 4
        assert "absolute" in list(tmp_path.glob("cmp_*.pgm"))[0].name

    @pytest.mark.parametrize("divisions", ["", ","])
    def test_empty_division_list_exit_code_two(self, divisions, tmp_path, capsys):
        # rejected while parsing: no header-only CSV is written
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--n", "200", "--divisions", divisions, "--out", str(tmp_path / "c")])
        assert exc.value.code == 2
        assert "--divisions: expected WxH[,WxH...]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_single_mode(self, tmp_path):
        out = tmp_path / "cmp"
        main(
            [
                "compare",
                "--n",
                "200",
                "--divisions",
                "3x3",
                "--hierarchical",
                "false",
                "--sweep-resolution",
                "8x8",
                "--out",
                str(out),
            ]
        )
        lines = (tmp_path / "cmp_stats.csv").read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 2


class TestVerify:
    def test_flat_configuration_passes(self, capsys):
        code = main(["verify", "--n", "400", "--queries", "300", "--ranges", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "match rate" in out

    def test_hierarchical_configuration_passes(self, capsys):
        code = main(
            [
                "verify",
                "--n",
                "400",
                "--queries",
                "300",
                "--ranges",
                "40",
                "--hierarchical",
                "true",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out
