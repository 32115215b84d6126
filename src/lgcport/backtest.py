"""Rolling-window backtest of covariance-driven portfolio strategies.

For every out-of-sample month the covariance matrix (global or local) and
the mean vector are estimated from the trailing window only, weights are
solved, and realized returns, weight drift, turnover, costs and wealth are
accumulated. Month t weights never see month t returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, LgcportError, PortfolioWipeoutError
# pairwise_local_covariance is unused here but stays importable from this
# module: external code (e.g. the span tracer in perfbench/) looks it up here.
from .localcov import (  # noqa: F401
    global_covariance,
    local_covariance_stack,
    moving_grid,
    pairwise_local_covariance,
    percentile_grid,
)
# solve_mv and solve_minvar are unused here but stay importable from this
# module: external code (e.g. the span tracer in perfbench/) looks them up here.
from .optimizer import (  # noqa: F401
    StrategySpec,
    equal_weights,
    solve_batch,
    solve_minvar,
    solve_mv,
)
from .panel import ReturnPanel

GRID_METHODS = ("moving", "percentile")


@dataclass
class BacktestConfig:
    """Settings for one rolling backtest."""

    window: int
    strategies: List[StrategySpec]
    tcost_bp: float = 1.0
    grid_method: str = "moving"
    grid_lookback: int = 3
    grid_quantile: float = 0.05
    bandwidth_scale: float = 1.1
    charge_initial_allocation: bool = False

    def __post_init__(self):
        if self.window < 2:
            raise ConfigError("window must be at least 2, got %d" % self.window)
        if not self.strategies:
            raise ConfigError("strategy list is empty")
        labels = [s.label for s in self.strategies]
        if len(set(labels)) != len(labels):
            raise ConfigError("duplicate strategy labels: %r" % (labels,))
        if not 0.0 <= self.tcost_bp < math.inf:
            raise ConfigError("transaction cost must be nonnegative and finite")
        if self.grid_method not in GRID_METHODS:
            raise ConfigError(
                "grid_method must be one of %r, got %r" % (GRID_METHODS, self.grid_method)
            )
        if self.grid_lookback < 1:
            raise ConfigError("grid lookback must be at least 1, got %d" % self.grid_lookback)
        if self.grid_method == "moving" and self.grid_lookback > self.window:
            raise ConfigError("grid lookback exceeds the estimation window")
        if not 0.0 < self.grid_quantile < 1.0:
            raise ConfigError("grid quantile must lie in (0, 1)")
        if not 0.0 < self.bandwidth_scale < math.inf:
            raise ConfigError("bandwidth scale must be positive and finite")


@dataclass
class StrategyResult:
    """Per-strategy paths over the out-of-sample months."""

    spec: StrategySpec
    target_weights: np.ndarray
    drifted_weights: np.ndarray
    gross_returns: np.ndarray
    net_returns: np.ndarray
    turnover: np.ndarray
    wealth_gross: np.ndarray
    wealth_net: np.ndarray
    fallbacks: List[Tuple[str, str]] = field(default_factory=list)


@dataclass
class BacktestResult:
    window: int
    tcost_bp: float
    asset_names: List[str]
    dates: List[str]
    inception_date: str
    strategies: Dict[str, StrategyResult]
    date_diagnostics: List[dict]


def drifted_weights(previous: np.ndarray, realized_pct: np.ndarray) -> np.ndarray:
    """Weights after one month of price drift, renormalized to sum to one."""
    w = np.asarray(previous, dtype=float)
    growth = 1.0 + np.asarray(realized_pct, dtype=float) / 100.0
    value = w * growth
    total = float(value.sum())
    if total <= 0.0:
        raise PortfolioWipeoutError("portfolio value dropped to %g" % total)
    return value / total


def turnover(target: np.ndarray, drifted: np.ndarray) -> float:
    """Sum of absolute weight changes traded at a rebalance."""
    return float(np.abs(np.asarray(target) - np.asarray(drifted)).sum())


def apply_transaction_costs(gross_pct, turnover_path, tcost_bp: float) -> np.ndarray:
    """Net percent returns: gross minus turnover * tcost_bp basis points."""
    if tcost_bp < 0.0:
        raise ValueError("transaction cost must be nonnegative")
    g = np.asarray(gross_pct, dtype=float)
    t = np.asarray(turnover_path, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("turnover cannot be negative")
    return g - t * tcost_bp * 0.01


def weight_dispersion(weight_path: np.ndarray) -> float:
    """Average cross-sectional standard deviation of weights, in percent."""
    w = np.asarray(weight_path, dtype=float)
    return float(w.std(axis=1, ddof=0).mean() * 100.0)


def max_adjustments(target_path, drifted_path) -> Tuple[float, float]:
    """Largest positive and negative single-asset trades, in percent."""
    diff = np.asarray(target_path, dtype=float) - np.asarray(drifted_path, dtype=float)
    return float(diff.max() * 100.0), float(diff.min() * 100.0)


def wealth_path(returns_pct) -> np.ndarray:
    """Cumulative wealth from percent returns, starting at 1."""
    r = np.asarray(returns_pct, dtype=float)
    out = np.empty(r.shape[0] + 1)
    out[0] = 1.0
    for i, ret in enumerate(r):
        out[i + 1] = out[i] * (1.0 + ret / 100.0)
        if out[i + 1] <= 0.0:
            raise PortfolioWipeoutError("wealth hit %g at step %d" % (out[i + 1], i))
    return out


def _estimate(x, dates, config: BacktestConfig, need_global: bool, need_local: bool):
    """Per date: the mean vector and each needed covariance, in decimal units.

    Returns (means, covariances, errors, date_diagnostics): `covariances`
    maps each needed source ("global", "local") to an (n_dates, N, N) stack,
    and `errors` maps it to {date index: the LgcportError its estimation
    raised}; the error is also recorded in the date's diagnostics. The local
    covariances of all dates come from one local_covariance_stack call: every
    pair fit starts from the pair's global Gaussian MLE, so no date depends on
    another and the fits run in blocked batches.
    """
    n, n_assets = x.shape
    m = config.window
    means = np.empty((n - m, n_assets))
    needed = [s for s, need in (("global", need_global), ("local", need_local)) if need]
    covariances = {s: np.zeros((n - m, n_assets, n_assets)) for s in needed}
    errors: Dict[str, Dict[int, LgcportError]] = {"global": {}, "local": {}}
    date_diagnostics: List[dict] = []
    grids = np.empty((n - m, n_assets))

    for step in range(n - m):
        t = m + step
        window = x[t - m : t]
        means[step] = window.mean(axis=0) / 100.0
        diag_entry = {"date": dates[step]}

        if need_global:
            try:
                sigma_global = global_covariance(window)
            except LgcportError as err:
                errors["global"][step] = err
                diag_entry["global_error"] = str(err)
            else:
                covariances["global"][step] = sigma_global.matrix / 1e4
                diag_entry["global_pd_repaired"] = sigma_global.pd_repaired

        if need_local:
            if config.grid_method == "moving":
                grids[step] = moving_grid(x, t, config.grid_lookback)
            else:
                grids[step] = percentile_grid(window, config.grid_quantile)
        date_diagnostics.append(diag_entry)

    if need_local:
        # windows[step] is x[t - m : t], as a view.
        windows = sliding_window_view(x, m, axis=0)[: n - m].transpose(0, 2, 1)
        local = local_covariance_stack(windows, grids, config.bandwidth_scale)
        covariances["local"] = local.matrices / 1e4
        errors["local"] = local.errors
        for step, diag_entry in enumerate(date_diagnostics):
            if step in local.errors:
                diag_entry["local_error"] = str(local.errors[step])
            else:
                diag_entry["local_pd_repaired"] = bool(local.pd_repaired[step])
                diag_entry["pair_fallbacks"] = int(local.n_fallbacks[step])
    return means, covariances, errors, date_diagnostics


def _solve_targets(spec: StrategySpec, means, covariances, errors):
    """Target weights of every date from one batched solve.

    Returns (targets, failures): targets is (n_dates, N), and failures maps
    each date without a target to its error, estimation errors included.
    """
    ok = np.array([step for step in range(len(means)) if step not in errors], dtype=int)
    targets = np.full(means.shape, np.nan)
    failures = dict(errors)
    if ok.size:
        try:
            weights, failed = solve_batch(
                spec, covariances[ok] if errors else covariances, means[ok]
            )
        except LgcportError as err:
            weights, failed = targets[ok], dict.fromkeys(range(ok.size), err)
        targets[ok] = weights
        failures.update((int(ok[row]), err) for row, err in failed.items())
    return targets, failures


def run_backtest(panel: ReturnPanel, config: BacktestConfig) -> BacktestResult:
    """Run every configured strategy over the rolling window.

    Three passes: estimate the mean and covariances of every date, solve each
    strategy's weights for all dates in one batched call (targets depend only
    on the date's estimates), then account drift, turnover and costs month by
    month. Strategies are independent: adding or removing one never changes
    the numbers of another. Local-covariance strategies share one local matrix
    per date; every date's pair fits start from the pairs' global Gaussian
    MLEs, so the dates are fitted together in blocked batches.

    A date whose covariance or solve fails keeps the previous month's target
    for the strategies concerned, recorded in their `fallbacks`; a failure at
    inception raises.
    """
    x = panel.returns
    n, n_assets = x.shape
    m = config.window
    if n < m + 2:
        raise ConfigError(
            "panel has %d months; window %d needs at least %d" % (n, m, m + 2)
        )
    if config.grid_method == "percentile" and m * min(
        config.grid_quantile, 1.0 - config.grid_quantile
    ) < 1.0:
        raise ConfigError("window too short for grid quantile %g" % config.grid_quantile)

    specs = list(config.strategies)
    need_global = any(
        s.kind != "EW" and s.covariance_source == "global" for s in specs
    )
    need_local = any(
        s.kind != "EW" and s.covariance_source == "local" for s in specs
    )

    n_oos = n - m
    dates = [panel.dates[t] for t in range(m, n)]
    means, covariances, errors, date_diagnostics = _estimate(
        x, dates, config, need_global, need_local
    )

    solved = {
        s.label: _solve_targets(
            s, means, covariances[s.covariance_source], errors[s.covariance_source]
        )
        for s in specs
        if s.kind != "EW"
    }
    for label, (_, failures) in solved.items():
        if 0 in failures:
            err = failures[0]
            raise type(err)("%s at inception %s for %s" % (err, dates[0], label)) from err

    held = {s.label: np.zeros((n_oos, n_assets)) for s in specs}
    drifted = {s.label: np.zeros((n_oos, n_assets)) for s in specs}
    gross = {s.label: np.zeros(n_oos) for s in specs}
    turn = {s.label: np.zeros(n_oos) for s in specs}
    fallbacks: Dict[str, List[Tuple[str, str]]] = {s.label: [] for s in specs}
    for spec in specs:
        label = spec.label
        for step in range(n_oos):
            t = m + step
            if step == 0:
                prior = None
            else:
                prior = drifted_weights(held[label][step - 1], x[t - 1])

            if spec.kind == "EW":
                target = equal_weights(n_assets) if step == 0 else prior
            else:
                targets, failures = solved[label]
                if step in failures:
                    fallbacks[label].append((dates[step], str(failures[step])))
                    target = held[label][step - 1]
                else:
                    target = targets[step]

            if prior is None:
                pre_trade = np.zeros(n_assets) if config.charge_initial_allocation else target
            else:
                pre_trade = prior
            held[label][step] = target
            drifted[label][step] = pre_trade
            turn[label][step] = turnover(target, pre_trade)
            gross[label][step] = float(target @ x[t])

    strategies: Dict[str, StrategyResult] = {}
    for spec in specs:
        label = spec.label
        net = apply_transaction_costs(gross[label], turn[label], config.tcost_bp)
        strategies[label] = StrategyResult(
            spec=spec,
            target_weights=held[label],
            drifted_weights=drifted[label],
            gross_returns=gross[label],
            net_returns=net,
            turnover=turn[label],
            wealth_gross=wealth_path(gross[label]),
            wealth_net=wealth_path(net),
            fallbacks=fallbacks[label],
        )

    return BacktestResult(
        window=m,
        tcost_bp=config.tcost_bp,
        asset_names=list(panel.asset_names),
        dates=dates,
        inception_date=panel.dates[m - 1],
        strategies=strategies,
        date_diagnostics=date_diagnostics,
    )
