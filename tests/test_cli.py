"""Command line interface and report files: schema, determinism, errors."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgcport.backtest
import lgcport.cli
from lgcport.cli import main
from lgcport.errors import ConfigError
from lgcport.panel import ReturnPanel, load_panel, write_panel
from lgcport.report import (
    ALL_STRATEGY_LABELS,
    PERFORMANCE_HEADER,
    REPORT_SCHEMA_VERSION,
    STRATEGY_STATS_HEADER,
    WEALTH_HEADER,
    RunConfig,
    asset_table,
    describe_text,
    execute_run,
    performance_table,
    rebalancing_table,
    strategy_stats_table,
    wealth_table,
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


class TestCellTypes:
    """A table holds only Python str, int and float cells, so the csv module
    writes each float as its repr: a numpy scalar would be written as numpy's
    str, and a bool as True or False."""

    def test_every_cell_is_a_python_value(self, panel_file):
        panel = load_panel(panel_file)
        config = RunConfig("in.csv", "out", windows=[24], strategies=["EW", "MIN", "MIN-L"])
        result = lgcport.backtest.run_backtest(panel, config.backtest_config(24))
        tables = [
            asset_table(panel),
            asset_table(panel, quantile=0.1),  # describe --grid-quantile 0.1
            strategy_stats_table(result),
            rebalancing_table(result, config.tcosts_bp),
            performance_table(result, config.tcosts_bp, config.gamma, config.var_alpha),
        ] + [wealth_table(result, label) for label in result.strategies]
        for header, rows in tables:
            for row in [header] + rows:
                assert all(type(v) in (str, int, float) for v in row), row

    def test_written_numbers_are_reprs(self, panel_file, tmp_path):
        out = tmp_path / "rep"
        config = RunConfig(
            str(panel_file), str(out), windows=[24], strategies=["EW", "MIN", "MIN-L"]
        )
        execute_run(config)
        texts = [p.read_text(encoding="utf-8") for p in sorted(out.glob("*.csv"))]
        texts.append(describe_text(load_panel(panel_file)))
        assert len(texts) == 8
        floats = 0
        for text in texts:
            for row in list(csv.reader(io.StringIO(text)))[1:]:
                for cell in row:
                    if cell.isdigit():  # an observation count
                        continue
                    try:
                        value = float(cell)
                    except ValueError:  # a label or a date
                        continue
                    assert repr(value) == cell
                    floats += 1
        assert floats > 400


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


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--input", "p.csv", "--out", "o", "--gamma", "abc"], "--gamma"),
            (["synth", "--out", "s.csv", "--months", "1.5"], "--months"),
            (["run", "--out", "o"], "--input"),
            (["describe", "--input", "p.csv", "--bogus"], "--bogus"),
            ([], "command"),
        ],
    )
    def test_usage_error_reports_json(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert message in err["message"]
        assert "usage" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("quantile", ["1e-320", "5e-324", "1e-300"])
    def test_subnormal_grid_quantile_reports_json(self, panel_file, capsys, quantile):
        assert run_cli("describe", "--input", str(panel_file), "--grid-quantile", quantile) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert len(lines[0]) < 200
        assert json.loads(lines[0])["error"] == "InsufficientDataError"
        assert captured.out == ""

class TestDefaultsComeFromTheLibrary:
    """Options have no defaults of their own: an option left out takes the
    default of the call it feeds."""

    def test_synth_without_options(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path / "cli.csv")) == 0
        write_panel(synth_panel(), tmp_path / "lib.csv")
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_describe_without_options(self, panel_file, capsys):
        assert run_cli("describe", "--input", str(panel_file)) == 0
        assert capsys.readouterr().out == describe_text(load_panel(panel_file))

    def test_run_without_options(self, tmp_path):
        panel = tmp_path / "p.csv"
        write_panel(synth_panel(), panel)
        out = tmp_path / "o"
        assert run_cli("run", "--input", str(panel), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == asdict(RunConfig(str(panel), str(out)))

    @pytest.mark.parametrize(
        "option, value, name, want",
        [
            ("--input", "other.csv", "input_path", "other.csv"),
            ("--out", "elsewhere", "output_dir", "elsewhere"),
            ("--mode", "prices", "mode", "prices"),
            ("--windows", "60,90", "windows", [60, 90]),
            ("--strategies", "EW,MINC-L", "strategies", ["EW", "MINC-L"]),
            ("--tcost", "0,2.5", "tcosts_bp", [0.0, 2.5]),
            ("--grid", "percentile", "grid_method", "percentile"),
            ("--grid-lookback", "5", "grid_lookback", 5),
            ("--grid-quantile", "0.1", "grid_quantile", 0.1),
            ("--bandwidth-scale", "1.3", "bandwidth_scale", 1.3),
            ("--gamma", "2.5", "gamma", 2.5),
            ("--var-alpha", "0.9", "var_alpha", 0.9),
            ("--charge-initial", None, "charge_initial_allocation", True),
        ],
    )
    def test_run_option_sets_its_field(self, monkeypatch, option, value, name, want):
        configs = []

        def record(config):
            configs.append(config)
            return {"files": []}

        monkeypatch.setattr(lgcport.cli, "execute_run", record)
        given = {"--input": "in.csv", "--out": "out", option: value}
        argv = [part for pair in given.items() for part in pair if part is not None]
        assert run_cli("run", *argv) == 0
        default = asdict(RunConfig("in.csv", "out"))
        assert default[name] != want
        assert asdict(configs[0]) == {**default, name: want}


class TestFailedRun:
    @pytest.fixture()
    def short_panel(self, tmp_path):
        # Window 147 of 150 months leaves 3 out-of-sample months, fewer than
        # the strategy statistics need; window 120 runs through.
        path = tmp_path / "p150.csv"
        assert run_cli("synth", "--out", str(path), "--months", "150") == 0
        return path

    def _assert_one_json_line(self, capsys):
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        return json.loads(lines[0])

    def test_second_window_failure_writes_nothing(self, short_panel, tmp_path, capsys):
        out = tmp_path / "rep"
        argv = ["run", "--input", str(short_panel), "--out", str(out), "--windows", "120,147"]
        assert run_cli(*argv) == 1
        assert "message" in self._assert_one_json_line(capsys)
        assert not out.exists()

    def test_existing_directory_left_untouched(self, short_panel, tmp_path, capsys):
        out = tmp_path / "rep"
        out.mkdir()
        old = {"manifest.json": b'{"old": true}\n', "table_assets_w120.csv": b"old,table\r\n"}
        for name, content in old.items():
            (out / name).write_bytes(content)
        argv = ["run", "--input", str(short_panel), "--out", str(out), "--windows", "120,147"]
        assert run_cli(*argv) == 1
        self._assert_one_json_line(capsys)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old

    def test_repeated_window_refused(self, panel_file, tmp_path, capsys):
        out = tmp_path / "rep"
        argv = ["run", "--input", str(panel_file), "--out", str(out)]
        assert run_cli(*argv, "--windows", "24,20,24", "--strategies", "EW,MIN") == 1
        err = self._assert_one_json_line(capsys)
        assert err["error"] == "ConfigError" and "24" in err["message"]
        assert not out.exists()
        with pytest.raises(ConfigError, match="120"):
            RunConfig("in.csv", "out", windows=[120, 240, 120])

    def test_stale_files_of_an_earlier_run_refused(self, tmp_path, capsys):
        # The second run would leave the first's window-240 tables beside a
        # manifest that does not list them: it is refused, and nothing of
        # the first run is changed or deleted.
        panel = tmp_path / "p.csv"
        assert run_cli("synth", "--out", str(panel)) == 0
        out = tmp_path / "rep"
        argv = ["run", "--input", str(panel), "--out", str(out), "--strategies", "EW,MIN"]
        assert run_cli(*argv, "--windows", "120,240") == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "table_assets_w240.csv" in first
        capsys.readouterr()
        assert run_cli(*argv, "--windows", "120") == 1
        err = self._assert_one_json_line(capsys)
        assert err["error"] == "ConfigError"
        assert "table_assets_w240.csv" in err["message"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first
        # The same run again is allowed.
        assert run_cli(*argv, "--windows", "120,240") == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    # Each cost names its own columns and panel, by its %g tag: two costs
    # with one tag are refused, as two equal windows are.
    @pytest.mark.parametrize("costs, tag", [("0,1,1", "1bp"), ("0.5,0.50000000001", "0.5bp")])
    def test_repeated_cost_refused(self, panel_file, tmp_path, capsys, costs, tag):
        out = tmp_path / "rep"
        argv = ["run", "--input", str(panel_file), "--out", str(out), "--tcost", costs]
        assert run_cli(*argv, "--windows", "24", "--strategies", "EW") == 1
        err = self._assert_one_json_line(capsys)
        assert err == {"error": "ConfigError", "message": "transaction cost %s is repeated" % tag}
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_bad_gamma_refused_before_loading(self, tmp_path, capsys, value):
        missing = tmp_path / "missing.csv"
        argv = ["run", "--input", str(missing), "--out", str(tmp_path / "o"), "--gamma", value]
        assert run_cli(*argv) == 1
        err = self._assert_one_json_line(capsys)
        assert err["error"] == "ConfigError" and "gamma" in err["message"]


class TestHugeFiniteColumn:
    """A column near 1e120 is finite, though the cube of its spread is not."""

    @pytest.fixture()
    def huge_panel(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            _panel_text(["%r,%r" % (0.5 * (t % 7) - 1.0, 1e120 * (1 + t % 5)) for t in range(30)])
        )
        return path

    def test_describe_reports_finite_moment_ratios(self, huge_panel, capsys):
        assert run_cli("describe", "--input", str(huge_panel)) == 0
        rows = csv.reader(io.StringIO(capsys.readouterr().out))
        stats = {row[1]: float(row[3]) for row in rows if row[0] == "statistic"}
        skew, kurt = stats["skewness"], stats["excess_kurtosis"]
        # The column is 1e120 times 1..5 in turn: a symmetric uniform
        # distribution on five points, of excess kurtosis -1.3.
        assert abs(skew) <= 1e-14 and kurt == pytest.approx(-1.3, rel=1e-14)

    def test_run_ends_in_a_report_or_one_json_line(self, huge_panel, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("run", "--input", str(huge_panel), "--out", str(out), "--windows", "12")
        err = capsys.readouterr().err
        if code == 1:
            assert len(err.splitlines()) == 1 and "message" in json.loads(err)
        else:
            assert code == 0 and err == ""


# One row per month from 2020-01, with header `date,A,B`.
def _panel_text(cells):
    rows = ["%d-%02d,%s" % (2020 + t // 12, t % 12 + 1, row) for t, row in enumerate(cells)]
    return "\n".join(["date,A,B"] + rows) + "\n"


MALFORMED = {
    "duplicate_names": (b"date,A,A\n2020-01,1,2\n2020-02,3,4\n2020-03,5,6\n", "returns"),
    "two_price_rows": (_panel_text(["100,50", "110,55"]).encode(), "prices"),
    "not_utf8": (_panel_text(["1,2", "3,\xff"]).encode("latin-1"), "returns"),
    "nan_cell": (_panel_text(["1,2", "nan,4", "5,6"]).encode(), "returns"),
    "inf_price": (_panel_text(["100,50", "inf,55", "120,60"]).encode(), "prices"),
    "decreasing_dates": (b"date,A,B\n2020-02,1,2\n2020-01,3,4\n2020-03,5,6\n", "returns"),
    "one_data_row": (_panel_text(["1,2"]).encode(), "returns"),
    "column_of_1e200": (
        _panel_text(["%r,%de200" % (0.5 * (t % 7) - 1.0, 1 + t % 5) for t in range(24)]).encode(),
        "returns",
    ),
}


class TestMalformedInput:
    @pytest.mark.parametrize("command", ["run", "describe"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_json_line_and_exit_1(self, tmp_path, capsys, recwarn, command, case):
        content, mode = MALFORMED[case]
        path = tmp_path / "panel.csv"
        path.write_bytes(content)
        argv = [command, "--input", str(path), "--mode", mode]
        if command == "run":
            argv += ["--out", str(tmp_path / "o"), "--windows", "12"]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        err = json.loads(lines[0])
        want = "DegenerateSampleError" if case == "column_of_1e200" else "PanelParseError"
        assert err["error"] == want
        assert captured.out == ""
        # Nothing would print between the command and its one line either.
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@st.composite
def contract_runs(draw):
    """A small valid panel and the argv of a `run` on it.

    The panel has 1-5 assets and 20-89 months. Each column is scaled by 10^k
    for k in -8..3, one in some panels by a further 1e-150, and some are
    copies of another column, hold a flat stretch or lose 99.999 % in a
    month.
    """
    n_assets = draw(st.integers(1, 5))
    months = draw(st.integers(20, 89))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 0.5 + 4.0 * rng.standard_normal((months, n_assets))
    # A 1e-150 column stalls its pairs' local fits for their 200 iterations
    # (their convergence test carries units), so at most one column has it.
    tiny = draw(st.integers(0, 4 * n_assets))
    for j in range(n_assets):
        x[:, j] *= 10.0 ** draw(st.integers(-8, 3)) * (1e-150 if j == tiny else 1.0)
        if j and draw(st.integers(0, 4)) == 0:
            x[:, j] = x[:, draw(st.integers(0, j - 1))]
        if draw(st.integers(0, 4)) == 0:
            first = draw(st.integers(0, months - 1))
            x[first : first + draw(st.integers(1, months)), j] = x[first, j]
        if draw(st.integers(0, 4)) == 0:
            x[draw(st.integers(0, months - 1)), j] = -99.999
    # The statistics need 20 out-of-sample months, the percentile grid a
    # window of 20 and the moving grid one of 3: half the windows are drawn
    # where all hold, if any do, and at least half the panel long, which
    # keeps the local fits few. The others sit at the edges of those rules.
    longest = max(2, months - 20)
    edges = [w for w in (2, 19, 20, months - 20, months - 19, months - 1, months) if w >= 2]
    window = st.integers(min(max(20, months // 2), longest), longest) | st.sampled_from(edges)
    windows = draw(st.lists(window, min_size=1, max_size=2, unique=True))
    labels = draw(
        st.lists(st.sampled_from(ALL_STRATEGY_LABELS), min_size=1, max_size=3, unique=True)
    )
    costs = draw(
        st.lists(st.sampled_from(["0", "1", "2.5", "10"]), min_size=1, max_size=2, unique=True)
    )
    argv = [
        "--windows", ",".join(map(str, windows)),
        "--strategies", ",".join(labels),
        "--tcost", ",".join(costs),
        "--grid", draw(st.sampled_from(["moving", "percentile"])),
        "--gamma", repr(draw(st.sampled_from([1.0, 2.0]) | st.floats(0.1, 50.0))),
    ]
    dates = synth_panel(months=months, n_assets=1, seed=0).dates
    return ReturnPanel(["A%d" % j for j in range(n_assets)], dates, x), argv


def run_quietly(argv):
    """cli.main(argv) in process with warnings as errors: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCliContract:
    """Any valid panel and options end in one of two ways: exit 0 with exactly
    the files the manifest lists, which a rerun writes again byte for byte,
    or exit 1 with one JSON line on stderr and nothing written."""

    # 25 examples take 2-10 s. An example can take 2 s: on a column scaled
    # far from 1 the local fits, the asset table's included, can run all
    # their 200 Newton iterations.
    @settings(max_examples=25, deadline=None)
    @given(contract_runs())
    def test_exit_0_with_the_manifest_files_or_exit_1_with_one_json_line(self, case):
        panel, options = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.csv")
            write_panel(panel, path)
            first, second = (os.path.join(tmp, name) for name in ("rep", "again"))
            code, _, err = run_quietly(["run", "--input", path, "--out", first] + options)
            if code == 1:
                lines = err.splitlines()
                assert len(lines) == 1, err
                assert set(json.loads(lines[0])) == {"error", "message"}
                assert not os.path.exists(first) or not os.listdir(first)
                return
            assert (code, err) == (0, "")
            with open(os.path.join(first, "manifest.json"), encoding="utf-8") as fh:
                files = json.load(fh)["files"]
            assert sorted(os.listdir(first)) == sorted(files + ["manifest.json"])
            assert run_quietly(["run", "--input", path, "--out", second] + options)[0] == 0
            for name in files:
                with open(os.path.join(first, name), "rb") as fh:
                    written = fh.read()
                with open(os.path.join(second, name), "rb") as fh:
                    assert fh.read() == written, name


class TestNonUtf8Locale:
    """Every file and stdout is UTF-8 whatever the locale: under the C locale,
    a panel with non-ASCII asset names, read from and reported into
    directories with non-ASCII names, gives the bytes of a UTF-8 locale."""

    NAMES = ["Äpfel", "Bär"]

    @staticmethod
    def _python(cwd, lc_all, *argv):
        src = os.path.dirname(os.path.dirname(lgcport.cli.__file__))
        env = dict(os.environ, LC_ALL=lc_all, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        env.pop("PYTHONIOENCODING", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True)

    def test_c_locale_writes_the_bytes_of_a_utf8_locale(self, tmp_path):
        probe = (
            "import codecs, locale\n"
            "assert codecs.lookup(locale.getpreferredencoding(False)).name == 'ascii'"
        )
        if self._python(tmp_path, "C", "-c", probe).returncode != 0:
            pytest.skip("this platform gives the C locale a non-ASCII preferred encoding")
        panel = synth_panel(months=60, n_assets=2, seed=5)
        panel = ReturnPanel(self.NAMES, panel.dates, panel.returns)
        write_panel(panel, tmp_path / "p.csv")
        (tmp_path / "Äpfel").mkdir()
        write_panel(panel, tmp_path / "Äpfel" / "p.csv")
        cli = ["-m", "lgcport.cli"]
        commands = {
            "run": cli + ["run", "--input", "../p.csv", "--out", "rep"]
            + ["--windows", "30", "--strategies", "EW,MIN"],
            "run, non-ASCII paths": cli + ["run", "--input", "../Äpfel/p.csv", "--out", "Bär"]
            + ["--windows", "30", "--strategies", "EW,MIN"],
            "describe --out": cli + ["describe", "--input", "../p.csv", "--out", "d.csv"],
            "describe": cli + ["describe", "--input", "../p.csv"],
            "write_panel": [
                "-c",
                "import sys\n"
                "from lgcport.panel import load_panel, write_panel\n"
                "write_panel(load_panel(sys.argv[1]), sys.argv[2])",
                "../p.csv",
                "q.csv",
            ],
        }
        outputs = {}
        for lc_all in ("C", "C.UTF-8"):
            cwd = tmp_path / lc_all
            cwd.mkdir()
            seen = outputs[lc_all] = {}
            for name, argv in commands.items():
                proc = self._python(cwd, lc_all, *argv)
                assert (proc.returncode, proc.stderr) == (0, b""), (lc_all, name)
                seen[name] = proc.stdout
            seen.update({str(p.relative_to(cwd)): p.read_bytes() for p in cwd.rglob("*.*")})
        assert outputs["C"] == outputs["C.UTF-8"]
        # stdouts, two runs' files, d.csv and q.csv
        assert len(outputs["C"]) == 5 + 2 * 7 + 2
        config = json.loads(outputs["C"][os.path.join("Bär", "manifest.json")])["config"]
        assert (config["input_path"], config["output_dir"]) == ("../Äpfel/p.csv", "Bär")
        assert outputs["C"]["describe"] == outputs["C"]["d.csv"]
        assert outputs["C"]["describe"].startswith("section,row,Äpfel,Bär\n".encode("utf-8"))
        back = load_panel(tmp_path / "C" / "q.csv")
        assert (back.asset_names, back.dates) == (panel.asset_names, panel.dates)
        assert back.returns.tobytes() == panel.returns.tobytes()


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
