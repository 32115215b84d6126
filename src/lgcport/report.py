"""Delimited report files, wealth paths and the machine-readable run manifest.

A run is built whole before anything is written: execute_run loads the
panel, backtests every window and builds every table into one map of file
name -> (header, rows), with the manifest beside it. Only then does it
create the output directory and write the map and the manifest, so a run
that fails on any window writes no file. A directory whose earlier
manifest.json lists a file there that this run would not rewrite is
refused, before anything is written, so no report file of the earlier run
is left beside a manifest that does not list it.

Column names and order are part of the package contract: bump
REPORT_SCHEMA_VERSION when they change. Numbers are written with repr so
files round-trip exactly and reruns diff clean.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence

from . import __version__, backtest
from .backtest import (
    BacktestConfig,
    BacktestResult,
    StrategyResult,
    apply_transaction_costs,
    max_adjustments,
    wealth_path,
    weight_dispersion,
)
from .errors import ConfigError
from .lgc import BANDWIDTH_SCALE
from .localcov import global_covariance, pairwise_local_covariance, percentile_grid
from .metrics import (
    VAR_ALPHA,
    descriptive_stats,
    drawdowns,
    max_drawdown,
    performance_report,
    sharpe,
)
from .optimizer import COVARIANCE_SOURCES, STRATEGY_KINDS, StrategySpec
from .panel import PANEL_MODES, ReturnPanel, load_panel

REPORT_SCHEMA_VERSION = "1"

# Every kind on the global covariance, then every optimized kind on the local one.
ALL_STRATEGY_LABELS = tuple(
    dict.fromkeys(StrategySpec(k, s).label for s in COVARIANCE_SOURCES for k in STRATEGY_KINDS)
)

ASSET_STAT_ROWS = (
    "observations",
    "mean",
    "std_dev",
    "variance",
    "skewness",
    "excess_kurtosis",
    "jarque_bera",
    "sharpe",
    "max_drawdown",
    "minimum",
    "q1",
    "median",
    "q3",
    "maximum",
)

STRATEGY_STATS_HEADER = (
    "strategy",
    "mean",
    "std_dev",
    "skewness",
    "excess_kurtosis",
    "minimum",
    "maximum",
    "max_drawdown",
)

PERFORMANCE_HEADER = (
    "panel",
    "strategy",
    "sharpe",
    "var_sharpe",
    "es_sharpe",
    "ann_sharpe",
    "ceq",
    "sortino",
    "omega",
)

WEALTH_HEADER = (
    "date",
    "wealth_gross",
    "drawdown_gross_pct",
    "wealth_net",
    "drawdown_net_pct",
)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int,)) and not isinstance(v, bool):
        return str(v)
    return repr(float(v))


def _bp_tag(bp: float) -> str:
    return ("%g" % bp) + "bp"


def _cells(header: Sequence[str], record, **named) -> list:
    """One row in `header` order: each name's value from `named`, else the
    attribute of `record` of that name."""
    return [named[name] if name in named else getattr(record, name) for name in header]


def _write_rows(fh, header: Sequence[str], rows, lineterminator: str) -> None:
    writer = csv.writer(fh, lineterminator=lineterminator)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def asset_table(panel: ReturnPanel, quantile: float = 0.05, bandwidth_scale=BANDWIDTH_SCALE):
    """Rows of the asset overview table: stats plus both correlation matrices,
    the local ones at each asset's `quantile` (a run's table keeps 0.05)."""
    if not 0.0 < quantile < 1.0:
        raise ConfigError("grid quantile must lie in (0, 1), got %g" % quantile)
    if not 0.0 < bandwidth_scale < math.inf:
        raise ConfigError("bandwidth scale must be positive and finite, got %g" % bandwidth_scale)
    header = ["section", "row"] + list(panel.asset_names)
    rows: List[list] = []
    stats = [descriptive_stats(panel.returns[:, i]) for i in range(panel.n_assets)]
    extra = {
        "observations": [s.n for s in stats],
        "sharpe": [sharpe(panel.returns[:, i]) for i in range(panel.n_assets)],
        "max_drawdown": [max_drawdown(panel.returns[:, i]) for i in range(panel.n_assets)],
    }
    for name in ASSET_STAT_ROWS:
        if name in extra:
            rows.append(["statistic", name] + extra[name])
        else:
            rows.append(["statistic", name] + [getattr(s, name) for s in stats])

    gcorr = global_covariance(panel).correlations
    for i, name in enumerate(panel.asset_names):
        rows.append(["global_correlation", name] + list(gcorr[i]))

    grid = percentile_grid(panel.returns, quantile)
    lcorr = pairwise_local_covariance(panel.returns, grid, bandwidth_scale).correlations
    section = "local_correlation_q%g" % quantile
    for i, name in enumerate(panel.asset_names):
        rows.append([section, name] + list(lcorr[i]))
    return header, rows


def strategy_stats_table(result: BacktestResult):
    rows = []
    for label, sr in result.strategies.items():
        stats = descriptive_stats(sr.gross_returns)
        drawdown = max_drawdown(sr.gross_returns)
        rows.append(_cells(STRATEGY_STATS_HEADER, stats, strategy=label, max_drawdown=drawdown))
    return list(STRATEGY_STATS_HEADER), rows


def _net_returns(sr: StrategyResult, bp: float):
    return apply_transaction_costs(sr.gross_returns, sr.turnover, bp)


def rebalancing_table(result: BacktestResult, tcosts_bp: Sequence[float]):
    nonzero = [bp for bp in tcosts_bp if bp > 0.0]
    header = [
        "strategy",
        "weight_dispersion_pct",
        "max_pos_adjustment_pct",
        "max_neg_adjustment_pct",
        "avg_turnover",
        "terminal_wealth_gross",
    ] + ["terminal_wealth_%s" % _bp_tag(bp) for bp in nonzero]
    rows = []
    for label, sr in result.strategies.items():
        pos, neg = max_adjustments(sr.target_weights, sr.drifted_weights)
        row = [
            label,
            weight_dispersion(sr.target_weights),
            pos,
            neg,
            float(sr.turnover.mean()),
            float(sr.wealth_gross[-1]),
        ]
        for bp in nonzero:
            row.append(float(wealth_path(_net_returns(sr, bp))[-1]))
        rows.append(row)
    return header, rows


def performance_table(
    result: BacktestResult, tcosts_bp: Sequence[float], gamma: float, alpha: float
):
    rows = []
    panels = [("ex_costs", 0.0)] + [
        ("tcost_%s" % _bp_tag(bp), bp) for bp in tcosts_bp if bp > 0.0
    ]
    for panel_name, bp in panels:
        for label, sr in result.strategies.items():
            r = sr.gross_returns if bp == 0.0 else _net_returns(sr, bp)
            p = performance_report(r, gamma=gamma, alpha=alpha)
            rows.append(_cells(PERFORMANCE_HEADER, p, panel=panel_name, strategy=label))
    return list(PERFORMANCE_HEADER), rows


def wealth_table(result: BacktestResult, label: str):
    sr = result.strategies[label]
    dates = [result.inception_date] + list(result.dates)
    dd_g = drawdowns(sr.gross_returns)
    dd_n = drawdowns(sr.net_returns)
    rows = [list(row) for row in zip(dates, sr.wealth_gross, dd_g, sr.wealth_net, dd_n)]
    return list(WEALTH_HEADER), rows


@dataclass
class RunConfig:
    """Everything the `run` command needs; echoed verbatim into the manifest."""

    input_path: str
    output_dir: str
    mode: str = "returns"
    windows: List[int] = field(default_factory=lambda: [120, 240])
    strategies: List[str] = field(default_factory=lambda: list(ALL_STRATEGY_LABELS))
    tcosts_bp: List[float] = field(default_factory=lambda: [0.0, 1.0])
    grid_method: str = BacktestConfig.grid_method
    grid_lookback: int = BacktestConfig.grid_lookback
    grid_quantile: float = BacktestConfig.grid_quantile
    bandwidth_scale: float = BacktestConfig.bandwidth_scale
    charge_initial_allocation: bool = BacktestConfig.charge_initial_allocation
    gamma: float = StrategySpec.gamma
    var_alpha: float = VAR_ALPHA

    def __post_init__(self):
        if self.mode not in PANEL_MODES:
            raise ConfigError("mode must be 'returns' or 'prices'")
        if not self.windows:
            raise ConfigError("need at least one window length")
        repeated = [m for i, m in enumerate(self.windows) if m in self.windows[:i]]
        if repeated:
            raise ConfigError("window length %d is repeated" % repeated[0])
        if not self.tcosts_bp or any(not 0.0 <= bp < math.inf for bp in self.tcosts_bp):
            raise ConfigError("transaction costs must be nonnegative and finite")
        if not 0.0 < self.var_alpha < 1.0:
            raise ConfigError("var_alpha must lie in (0, 1)")
        for m in self.windows:
            self.backtest_config(m)

    def backtest_config(self, window: int) -> BacktestConfig:
        """The backtest of one window; costs are charged at the largest nonzero rate."""
        try:
            strategies = [StrategySpec.from_label(s, gamma=self.gamma) for s in self.strategies]
        except ValueError as err:
            raise ConfigError(str(err)) from err
        return BacktestConfig(
            window=window,
            strategies=strategies,
            tcost_bp=max((bp for bp in self.tcosts_bp if bp > 0.0), default=0.0),
            grid_method=self.grid_method,
            grid_lookback=self.grid_lookback,
            grid_quantile=self.grid_quantile,
            bandwidth_scale=self.bandwidth_scale,
            charge_initial_allocation=self.charge_initial_allocation,
        )


def execute_run(config: RunConfig) -> dict:
    """Load the panel, run every window, then write all report files.

    Returns the manifest dict (also written to manifest.json). Nothing is
    written until every window's tables are built. Output is a pure function
    of the config and the input file bytes: reruns produce byte-identical
    files.
    """
    panel = load_panel(config.input_path, config.mode)

    tables: Dict[str, tuple] = {}
    window_meta: Dict[str, dict] = {}
    assets = asset_table(panel, bandwidth_scale=config.bandwidth_scale)
    for m in config.windows:
        # Looked up on the module, so wrappers installed there see every call.
        result = backtest.run_backtest(panel, config.backtest_config(m))

        tag = "w%d" % m
        tables["table_assets_%s.csv" % tag] = assets
        tables["table_strategy_stats_%s.csv" % tag] = strategy_stats_table(result)
        tables["table_rebalancing_%s.csv" % tag] = rebalancing_table(result, config.tcosts_bp)
        tables["table_performance_%s.csv" % tag] = performance_table(
            result, config.tcosts_bp, config.gamma, config.var_alpha
        )
        for label in result.strategies:
            tables["wealth_%s_%s.csv" % (label, tag)] = wealth_table(result, label)

        window_meta[str(m)] = {
            "out_of_sample_months": len(result.dates),
            "first_date": result.dates[0],
            "last_date": result.dates[-1],
            "date_diagnostics": result.date_diagnostics,
            "strategy_fallbacks": {
                label: sr.fallbacks for label, sr in result.strategies.items()
            },
        }

    with open(config.input_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "package": "lgcport",
        "version": __version__,
        "config": asdict(config),
        "input": {
            "sha256": digest,
            "n_months": panel.n_months,
            "n_assets": panel.n_assets,
            "assets": list(panel.asset_names),
            "first_date": panel.dates[0],
            "last_date": panel.dates[-1],
        },
        "windows": window_meta,
        "files": sorted(tables),
    }

    _refuse_stale_files(config.output_dir, tables)
    os.makedirs(config.output_dir, exist_ok=True)
    for name, (header, rows) in tables.items():
        with open(os.path.join(config.output_dir, name), "w", newline="") as fh:
            _write_rows(fh, header, rows, "\r\n")
    with open(os.path.join(config.output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _refuse_stale_files(output_dir: str, names) -> None:
    """Raise ConfigError if the manifest.json of an earlier run in
    `output_dir` lists a file that is there and that this run, writing
    `names`, would leave in place: the directory would then hold report
    files its new manifest does not list. Nothing is deleted. A manifest
    that does not parse, or lists no files, lists nothing."""
    try:
        with open(os.path.join(output_dir, "manifest.json")) as fh:
            listed = json.load(fh)["files"]
    except (OSError, ValueError, KeyError, TypeError):
        return
    for name in listed if isinstance(listed, list) else ():
        if name not in names and os.path.isfile(os.path.join(output_dir, str(name))):
            raise ConfigError(
                "output directory %s holds %s from an earlier run, which this run "
                "would not replace" % (output_dir, name)
            )


def describe_text(panel: ReturnPanel, **options) -> str:
    """The asset overview table as CSV text (the `describe` command body);
    `options` (quantile, bandwidth_scale) are asset_table's."""
    text = io.StringIO()
    _write_rows(text, *asset_table(panel, **options), lineterminator="\n")
    return text.getvalue()
