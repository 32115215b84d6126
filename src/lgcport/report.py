"""Delimited report files, wealth paths and the machine-readable run manifest.

Column names and order are part of the package contract: bump
REPORT_SCHEMA_VERSION when they change. Numbers are written with repr so
files round-trip exactly and reruns diff clean.
"""

from __future__ import annotations

import csv
import hashlib
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
from .localcov import global_covariance, pairwise_local_covariance, percentile_grid
from .metrics import descriptive_stats, drawdowns, max_drawdown, performance_report, sharpe
from .optimizer import StrategySpec
from .panel import ReturnPanel, load_panel

REPORT_SCHEMA_VERSION = "1"

# Grid quantile of the local correlations in a run's asset table.
ASSET_TABLE_QUANTILE = 0.05

ALL_STRATEGY_LABELS = (
    "EW",
    "MVS",
    "MVSC",
    "MIN",
    "MINC",
    "MVS-L",
    "MVSC-L",
    "MIN-L",
    "MINC-L",
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


def _write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def asset_table(panel: ReturnPanel, quantile: float, bandwidth_scale: float):
    """Rows of the asset overview table: stats plus both correlation matrices."""
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
        d = descriptive_stats(sr.gross_returns)
        rows.append(
            [
                label,
                d.mean,
                d.std_dev,
                d.skewness,
                d.excess_kurtosis,
                d.minimum,
                d.maximum,
                max_drawdown(sr.gross_returns),
            ]
        )
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
            rows.append(
                [
                    panel_name,
                    label,
                    p.sharpe,
                    p.var_sharpe,
                    p.es_sharpe,
                    p.ann_sharpe,
                    p.ceq,
                    p.sortino,
                    p.omega,
                ]
            )
    return list(PERFORMANCE_HEADER), rows


def wealth_table(result: BacktestResult, label: str):
    sr = result.strategies[label]
    dates = [result.inception_date] + list(result.dates)
    dd_g = drawdowns(sr.gross_returns)
    dd_n = drawdowns(sr.net_returns)
    rows = [
        [dates[i], sr.wealth_gross[i], dd_g[i], sr.wealth_net[i], dd_n[i]]
        for i in range(len(dates))
    ]
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
    grid_method: str = "moving"
    grid_lookback: int = 3
    grid_quantile: float = 0.05
    bandwidth_scale: float = 1.1
    charge_initial_allocation: bool = False
    gamma: float = 1.0
    var_alpha: float = 0.95

    def __post_init__(self):
        if self.mode not in ("returns", "prices"):
            raise ConfigError("mode must be 'returns' or 'prices'")
        if not self.windows:
            raise ConfigError("need at least one window length")
        if not self.strategies:
            raise ConfigError("strategy list is empty")
        if not self.tcosts_bp or any(not 0.0 <= bp < math.inf for bp in self.tcosts_bp):
            raise ConfigError("transaction costs must be nonnegative and finite")
        for label in self.strategies:
            try:
                StrategySpec.from_label(label, self.gamma)
            except ValueError as err:
                raise ConfigError(str(err)) from err
        if not 0.0 < self.var_alpha < 1.0:
            raise ConfigError("var_alpha must lie in (0, 1)")
        for m in self.windows:
            self.backtest_config(m)

    def backtest_config(self, window: int) -> BacktestConfig:
        """The backtest of one window; costs are charged at the largest nonzero rate."""
        return BacktestConfig(
            window=window,
            strategies=[StrategySpec.from_label(s, self.gamma) for s in self.strategies],
            tcost_bp=max((bp for bp in self.tcosts_bp if bp > 0.0), default=0.0),
            grid_method=self.grid_method,
            grid_lookback=self.grid_lookback,
            grid_quantile=self.grid_quantile,
            bandwidth_scale=self.bandwidth_scale,
            charge_initial_allocation=self.charge_initial_allocation,
        )


def execute_run(config: RunConfig) -> dict:
    """Load the panel, run every window, write all report files.

    Returns the manifest dict (also written to manifest.json). Output is a
    pure function of the config and the input file bytes: reruns produce
    byte-identical files.
    """
    panel = load_panel(config.input_path, config.mode)
    os.makedirs(config.output_dir, exist_ok=True)

    files: List[str] = []
    window_meta: Dict[str, dict] = {}
    assets = asset_table(panel, ASSET_TABLE_QUANTILE, config.bandwidth_scale)
    for m in config.windows:
        # Looked up on the module, so wrappers installed there see every call.
        result = backtest.run_backtest(panel, config.backtest_config(m))

        tag = "w%d" % m
        out = config.output_dir
        _write_file(out, "table_assets_%s.csv" % tag, *assets, files)
        header, rows = strategy_stats_table(result)
        _write_file(out, "table_strategy_stats_%s.csv" % tag, header, rows, files)
        header, rows = rebalancing_table(result, config.tcosts_bp)
        _write_file(out, "table_rebalancing_%s.csv" % tag, header, rows, files)
        header, rows = performance_table(result, config.tcosts_bp, config.gamma, config.var_alpha)
        _write_file(out, "table_performance_%s.csv" % tag, header, rows, files)
        for label in result.strategies:
            header, rows = wealth_table(result, label)
            _write_file(out, "wealth_%s_%s.csv" % (label, tag), header, rows, files)

        window_meta[str(m)] = {
            "out_of_sample_months": len(result.dates),
            "first_date": result.dates[0],
            "last_date": result.dates[-1],
            "date_diagnostics": result.date_diagnostics,
            "strategy_fallbacks": {
                label: sr.fallbacks for label, sr in result.strategies.items()
            },
        }

    manifest = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "package": "lgcport",
        "version": __version__,
        "config": asdict(config),
        "input": {
            "sha256": _sha256(config.input_path),
            "n_months": panel.n_months,
            "n_assets": panel.n_assets,
            "assets": list(panel.asset_names),
            "first_date": panel.dates[0],
            "last_date": panel.dates[-1],
        },
        "windows": window_meta,
        "files": sorted(files),
    }
    with open(os.path.join(config.output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _write_file(outdir, name, header, rows, files: List[str]) -> None:
    _write_csv(os.path.join(outdir, name), header, rows)
    files.append(name)


def describe_text(panel: ReturnPanel, quantile: float, bandwidth_scale: float) -> str:
    """The asset overview table as CSV text (the `describe` command body)."""
    header, rows = asset_table(panel, quantile, bandwidth_scale)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"
