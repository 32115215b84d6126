"""Command line interface and report files: schema, determinism, errors."""

import csv
import io
import json
import subprocess
import sys

import pytest

from lgcport.cli import main
from lgcport.panel import ReturnPanel, write_panel
from lgcport.report import (
    PERFORMANCE_HEADER,
    REPORT_SCHEMA_VERSION,
    STRATEGY_STATS_HEADER,
    WEALTH_HEADER,
)
from lgcport.synth import synth_panel


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def panel_file(tmp_path):
    path = tmp_path / "panel.csv"
    code = run_cli(
        "synth", "--out", str(path), "--months", "48", "--assets", "3", "--seed", "7"
    )
    assert code == 0
    return path


def read_lines(path):
    return path.read_text().splitlines()


class TestSynthCommand:
    def test_writes_readable_panel(self, panel_file):
        lines = read_lines(panel_file)
        assert lines[0] == "date,STK1,STK2,BND1"
        assert len(lines) == 49

    def test_seeded_output_is_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("synth", "--out", str(a), "--months", "24", "--seed", "3")
        run_cli("synth", "--out", str(b), "--months", "24", "--seed", "3")
        assert a.read_bytes() == b.read_bytes()


class TestRunCommand:
    def test_file_set_and_schema(self, panel_file, tmp_path):
        out = tmp_path / "reports"
        code = run_cli(
            "run",
            "--input", str(panel_file),
            "--out", str(out),
            "--windows", "24",
            "--strategies", "EW,MVSC,MINC-L",
            "--tcost", "0,5",
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == REPORT_SCHEMA_VERSION
        assert manifest["input"]["n_months"] == 48
        assert manifest["input"]["n_assets"] == 3
        want_files = {
            "table_assets_w24.csv",
            "table_strategy_stats_w24.csv",
            "table_rebalancing_w24.csv",
            "table_performance_w24.csv",
            "wealth_EW_w24.csv",
            "wealth_MVSC_w24.csv",
            "wealth_MINC-L_w24.csv",
        }
        assert set(manifest["files"]) == want_files
        assert manifest["files"] == sorted(manifest["files"])
        for name in want_files:
            assert (out / name).exists()

        stats = read_lines(out / "table_strategy_stats_w24.csv")
        assert stats[0] == ",".join(STRATEGY_STATS_HEADER)
        assert len(stats) == 4

        perf = read_lines(out / "table_performance_w24.csv")
        assert perf[0] == ",".join(PERFORMANCE_HEADER)
        panels = {line.split(",")[0] for line in perf[1:]}
        assert panels == {"ex_costs", "tcost_5bp"}

        rebal = read_lines(out / "table_rebalancing_w24.csv")
        assert rebal[0].endswith("terminal_wealth_gross,terminal_wealth_5bp")

        wealth = read_lines(out / "wealth_EW_w24.csv")
        assert wealth[0] == ",".join(WEALTH_HEADER)
        # Inception row plus 24 out-of-sample months.
        assert len(wealth) == 26
        first = wealth[1].split(",")
        assert float(first[1]) == 1.0 and float(first[3]) == 1.0

    def test_rerun_is_byte_identical(self, panel_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = [
            "run",
            "--input", str(panel_file),
            "--windows", "24",
            "--strategies", "EW,MVS,MIN-L",
            "--tcost", "0,1",
        ]
        assert run_cli(*argv, "--out", str(out_a)) == 0
        assert run_cli(*argv, "--out", str(out_b)) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes()
            if name == "manifest.json":
                # The manifest embeds the differing output paths.
                ja, jb = json.loads(a), json.loads(b)
                ja["config"].pop("output_dir")
                jb["config"].pop("output_dir")
                assert ja == jb
            else:
                assert a == b, name

    def test_asset_table_built_once_per_run(self, panel_file, tmp_path, monkeypatch):
        import lgcport.report

        calls = []
        original = lgcport.report.asset_table

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lgcport.report, "asset_table", counted)
        out = tmp_path / "o"
        code = run_cli(
            "run", "--input", str(panel_file), "--out", str(out),
            "--windows", "20,24", "--strategies", "EW,MIN-L",
        )
        assert code == 0
        assert len(calls) == 1
        a = (out / "table_assets_w20.csv").read_bytes()
        assert a == (out / "table_assets_w24.csv").read_bytes()

    def test_backtest_called_through_its_module(self, panel_file, tmp_path, monkeypatch):
        import lgcport.backtest

        windows = []
        original = lgcport.backtest.run_backtest

        def counted(panel, config):
            windows.append(config.window)
            return original(panel, config)

        monkeypatch.setattr(lgcport.backtest, "run_backtest", counted)
        code = run_cli(
            "run", "--input", str(panel_file), "--out", str(tmp_path / "o"),
            "--windows", "20,24", "--strategies", "EW,MIN",
        )
        assert code == 0
        assert windows == [20, 24]

    def test_manifest_hash_matches_input(self, panel_file, tmp_path):
        import hashlib

        out = tmp_path / "reports"
        run_cli(
            "run",
            "--input", str(panel_file),
            "--out", str(out),
            "--windows", "24",
            "--strategies", "EW",
            "--tcost", "0",
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input"]["sha256"] == hashlib.sha256(panel_file.read_bytes()).hexdigest()


class TestDescribeCommand:
    def test_stdout_table(self, panel_file, capsys):
        code = run_cli("describe", "--input", str(panel_file), "--grid-quantile", "0.1")
        assert code == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert lines[0] == "section,row,STK1,STK2,BND1"
        sections = {line.split(",")[0] for line in lines[1:]}
        assert sections == {"statistic", "global_correlation", "local_correlation_q0.1"}

    def test_out_file(self, panel_file, tmp_path):
        target = tmp_path / "describe.csv"
        code = run_cli("describe", "--input", str(panel_file), "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("section,row,")

    def test_names_with_commas_and_quotes_round_trip(self, tmp_path, capsys):
        names = ["Stocks, large", 'Bonds "10y"', "Cash"]
        path = tmp_path / "panel.csv"
        panel = synth_panel(months=48, n_assets=3, seed=7)
        write_panel(ReturnPanel(names, panel.dates, panel.returns), path)
        assert run_cli("describe", "--input", str(path)) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["section", "row"] + names
        assert all(len(row) == len(rows[0]) for row in rows)


class TestErrorHandling:
    def test_missing_input_reports_json(self, tmp_path, capsys):
        code = run_cli("run", "--input", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o"))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "message" in err and "error" in err

    def test_malformed_panel_reports_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,A\n2020-01,1\n2020-02,oops\n")
        code = run_cli("describe", "--input", str(bad))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PanelParseError"
        assert "row 3" in err["message"]

    def test_unknown_strategy_label(self, panel_file, tmp_path, capsys):
        code = run_cli(
            "run",
            "--input", str(panel_file),
            "--out", str(tmp_path / "o"),
            "--strategies", "EW,BOGUS",
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "BOGUS" in err["message"]

    def test_window_longer_than_panel(self, panel_file, tmp_path, capsys):
        code = run_cli(
            "run",
            "--input", str(panel_file),
            "--out", str(tmp_path / "o"),
            "--windows", "120",
            "--strategies", "EW",
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_short_percentile_window_fails_before_loading(self, tmp_path, capsys):
        code = run_cli(
            "run",
            "--input", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "o"),
            "--grid", "percentile",
            "--windows", "10",
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "window too short for grid quantile 0.05"}

    @pytest.mark.parametrize("option", ["--windows", "--tcost"])
    def test_non_numeric_list_reports_json(self, panel_file, tmp_path, capsys, option):
        code = run_cli(
            "run", "--input", str(panel_file), "--out", str(tmp_path / "o"), option, "24,abc"
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert option in err["message"] and "abc" in err["message"]

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("run", "--grid-lookback", "0"),
            ("run", "--bandwidth-scale", "0"),
            ("run", "--tcost", "nan"),
            ("run", "--tcost", "inf"),
            ("describe", "--bandwidth-scale", "-1"),
            ("describe", "--grid-quantile", "0"),
        ],
    )
    def test_out_of_range_setting_reports_json(
        self, panel_file, tmp_path, capsys, command, option, value
    ):
        out = tmp_path / "o"
        argv = [command, "--input", str(panel_file), option, value]
        if command == "run":
            argv += ["--out", str(out), "--windows", "24"]
        assert run_cli(*argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"
        # The run was refused before it wrote anything.
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--months", "1"], "at least 2 months"),
            (["--assets", "0"], "1 asset"),
            (["--model", "gaussian", "--rho", "2"], "rho"),
            (["--model", "clayton", "--theta", "0"], "theta"),
        ],
    )
    def test_bad_synth_setting_reports_json(self, tmp_path, capsys, argv, message):
        out = tmp_path / "s.csv"
        assert run_cli("synth", "--out", str(out), *argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert message in err["message"]
        assert not out.exists()


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "lgcport.cli", "synth", "--out", str(out), "--months", "12"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "12 months" in proc.stdout
        assert out.exists()

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lgcport.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "synth" in proc.stdout
