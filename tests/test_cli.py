"""Command line interface and report files: schema, determinism, errors."""

import csv
import io
import json
import subprocess
import sys
from dataclasses import asdict

import pytest

import lgcport.cli
from lgcport.cli import main
from lgcport.errors import ConfigError
from lgcport.panel import ReturnPanel, load_panel, write_panel
from lgcport.report import (
    PERFORMANCE_HEADER,
    REPORT_SCHEMA_VERSION,
    STRATEGY_STATS_HEADER,
    WEALTH_HEADER,
    RunConfig,
    describe_text,
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
