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

from .errors import ConfigError, PortfolioWipeoutError
from .lgc import BANDWIDTH_SCALE
# global_covariance and pairwise_local_covariance are unused here but stay
# importable from this module: external code (e.g. the span tracer in
# perfbench/) looks them up here.
from .localcov import (  # noqa: F401
    _ok_dates,
    global_covariance,
    global_covariance_stack,
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
    solve_minvar,
    solve_mv,
    solve_strategies,
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
    bandwidth_scale: float = BANDWIDTH_SCALE
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
        if self.grid_method == "percentile" and self.window * min(
            self.grid_quantile, 1.0 - self.grid_quantile
        ) < 1.0:
            raise ConfigError("window too short for grid quantile %g" % self.grid_quantile)
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
    """Weights after one month of price drift, renormalized to sum to one.

    Works on the last axis: each row of a (T, N) stack drifts on its own,
    and a wipeout reports the first row whose value is not positive.
    """
    w = np.asarray(previous, dtype=float)
    growth = 1.0 + np.asarray(realized_pct, dtype=float) / 100.0
    value = w * growth
    total = value.sum(axis=-1, keepdims=True)
    wiped = total[total <= 0.0]
    if wiped.size:
        raise PortfolioWipeoutError("portfolio value dropped to %g" % wiped[0])
    return value / total


def turnover(target: np.ndarray, drifted: np.ndarray):
    """Sum of absolute weight changes traded at a rebalance, over the last
    axis: a float for one rebalance, an array for a stack of them."""
    return np.abs(np.asarray(target) - np.asarray(drifted)).sum(axis=-1)


def apply_transaction_costs(gross_pct, turnover_path, tcost_bp: float) -> np.ndarray:
    """Net percent returns: gross minus turnover * tcost_bp basis points."""
    if not 0.0 <= tcost_bp < math.inf:
        raise ValueError("transaction cost must be nonnegative and finite")
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
    out = np.concatenate([[1.0], np.cumprod(1.0 + r / 100.0)])
    wiped = np.flatnonzero(out <= 0.0)
    if wiped.size:
        raise PortfolioWipeoutError("wealth hit %g at step %d" % (out[wiped[0]], wiped[0] - 1))
    return out


def _estimate(x, config: BacktestConfig, sources):
    """(means, covariances, diagnostics) of every date, in decimal units.

    means is (n_dates, N). `covariances` maps each source in `sources`
    ("global", "local") to its (n_dates, N, N) matrices and its errors: the
    LgcportError of each date whose estimate failed. `diagnostics` holds
    _add_diagnostics's entries of each date. Each CovStack is reduced to
    these as soon as it is estimated, so nothing else of it is kept, its
    pair correlations included, while the next is estimated. No date's
    estimate depends on another's."""
    n = x.shape[0]
    m = config.window
    # windows[step] is x[t - m : t] with t = m + step, as a view.
    windows = sliding_window_view(x, m, axis=0)[: n - m].transpose(0, 2, 1)
    covariances = {}
    diagnostics = [{} for _ in range(n - m)]

    def keep(source, stack):
        stack.matrices /= 1e4
        covariances[source] = stack.matrices, stack.errors
        _add_diagnostics(diagnostics, source, stack)

    if "global" in sources:
        keep("global", global_covariance_stack(windows))
    if "local" in sources:
        if config.grid_method == "moving":
            grids = moving_grid(x, np.arange(m, n), config.grid_lookback)
        else:
            grids = percentile_grid(windows, config.grid_quantile)
        keep("local", local_covariance_stack(windows, grids, config.bandwidth_scale))
    return windows.mean(axis=1) / 100.0, covariances, diagnostics


def _add_diagnostics(diagnostics: List[dict], source: str, stack) -> None:
    """Add to each date's entry the source's error, or whether its matrix was
    PD-repaired (and, for the local source, how many pairs fell back)."""
    per_date = zip(diagnostics, stack.repair.repaired.tolist(), stack.n_fallbacks.tolist())
    for step, (entry, repaired, fallbacks) in enumerate(per_date):
        if step in stack.errors:
            entry[source + "_error"] = str(stack.errors[step])
        else:
            entry[source + "_pd_repaired"] = repaired
            if source == "local":
                entry["pair_fallbacks"] = fallbacks


def _solve_targets(specs, means, matrices, errors):
    """Target weights of every date for each of `specs`, from one solve over
    the covariances of the dates without an estimation error.

    Returns one (targets, failures) per spec: targets is (n_dates, N), and
    failures maps each date without a target to its error, estimation
    errors included.
    """
    ok = _ok_dates(len(means), errors)
    sigma = matrices[ok] if errors else matrices
    out = []
    for weights, failed in solve_strategies(specs, sigma, means[ok]):
        targets = np.full(means.shape, np.nan)
        targets[ok] = weights
        failures = dict(errors)
        failures.update((int(ok[row]), err) for row, err in failed.items())
        out.append((targets, failures))
    return out


def run_backtest(panel: ReturnPanel, config: BacktestConfig) -> BacktestResult:
    """Run every configured strategy over the rolling window.

    Three passes: estimate the mean and covariances of every date (one stack
    per covariance source, shared by its strategies), then solve the weights
    of every date for all the strategies of a stack in one call (targets
    depend only on the date's estimates), and per strategy account drift,
    turnover and costs over the whole window at once. Strategies are
    independent: adding or removing one never changes the numbers of
    another.

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

    dates = [panel.dates[t] for t in range(m, n)]
    sources = {s.covariance_source for s in config.strategies if s.kind != "EW"}
    means, covariances, diagnostics = _estimate(x, config, sources)
    solved = {}
    for source, (matrices, errors) in covariances.items():
        specs = [s for s in config.strategies if s.kind != "EW" and s.covariance_source == source]
        solved.update(zip(specs, _solve_targets(specs, means, matrices, errors)))
    strategies: Dict[str, StrategyResult] = {}
    for spec in config.strategies:
        failures = {}
        if spec.kind == "EW":
            # EW has no targets: it buys equal weights and then holds, so each
            # month's target is the previous month's weights after drift.
            held = np.empty((n - m, n_assets))
            held[0] = equal_weights(n_assets)
            for step in range(1, n - m):
                held[step] = drifted_weights(held[step - 1], x[m + step - 1])
        else:
            held, failures = solved[spec]
        if 0 in failures:
            err = failures[0]
            raise type(err)("%s at inception %s for %s" % (err, dates[0], spec.label)) from err
        for step in sorted(failures):
            held[step] = held[step - 1]
        drifted = np.empty_like(held)
        drifted[0] = 0.0 if config.charge_initial_allocation else held[0]
        drifted[1:] = drifted_weights(held[:-1], x[m : n - 1])
        turn = turnover(held, drifted)
        # A stacked matmul makes the same dot call per row as `held[step] @ x[t]`.
        gross = (held[:, None, :] @ x[m:n, :, None])[:, 0, 0]

        fallbacks = [(dates[step], str(failures[step])) for step in sorted(failures)]
        net = apply_transaction_costs(gross, turn, config.tcost_bp)
        strategies[spec.label] = StrategyResult(
            spec=spec,
            target_weights=held,
            drifted_weights=drifted,
            gross_returns=gross,
            net_returns=net,
            turnover=turn,
            wealth_gross=wealth_path(gross),
            wealth_net=wealth_path(net),
            fallbacks=fallbacks,
        )

    return BacktestResult(
        window=m,
        tcost_bp=config.tcost_bp,
        asset_names=list(panel.asset_names),
        dates=dates,
        inception_date=panel.dates[m - 1],
        strategies=strategies,
        date_diagnostics=[{"date": d, **entry} for d, entry in zip(dates, diagnostics)],
    )
