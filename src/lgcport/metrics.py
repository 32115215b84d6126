"""Descriptive statistics and performance ratios for monthly percent returns.

Conventions, used consistently everywhere: standard deviation with the n-1
denominator, skewness and kurtosis as bias-uncorrected moment ratios with
kurtosis in excess form, quantiles with linear interpolation, and ratios
left as monthly numbers unless annualized explicitly. Undefined ratios
(no losses, no downside, nonpositive VaR) come back as NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError

VAR_ALPHA = 0.95
PERIODS_PER_YEAR = 12


@dataclass
class DescriptiveStats:
    n: int
    mean: float
    std_dev: float
    variance: float
    skewness: float
    excess_kurtosis: float
    jarque_bera: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


@dataclass
class PerformanceReport:
    sharpe: float
    var_sharpe: float
    es_sharpe: float
    ann_sharpe: float
    ceq: float
    sortino: float
    omega: float
    max_drawdown: float


def _as_series(returns, min_n: int = 1) -> np.ndarray:
    r = np.asarray(returns, dtype=float).reshape(-1)
    if r.shape[0] < min_n:
        raise InsufficientDataError(
            "need at least %d observations, got %d" % (min_n, r.shape[0])
        )
    if not np.all(np.isfinite(r)):
        raise ValueError("returns contain non-finite values")
    return r


def jarque_bera(skewness: float, excess_kurtosis: float, n: int) -> float:
    """Jarque-Bera statistic from precomputed moment ratios."""
    if n < 1:
        raise ValueError("n must be positive")
    return n / 6.0 * (skewness**2 + excess_kurtosis**2 / 4.0)


def descriptive_stats(returns) -> DescriptiveStats:
    """Moments, quartiles and the Jarque-Bera statistic of a return series."""
    r = _as_series(returns, min_n=4)
    n = r.shape[0]
    mean = float(r.mean())
    dev = r - mean
    m2 = float(np.mean(dev**2))
    if m2 <= 0.0:
        raise InsufficientDataError("constant series has no distribution shape")
    # Standardized first, so that a finite column has finite moment ratios.
    z = dev / math.sqrt(m2)
    skew = float(np.mean(z**3))
    exkurt = float(np.mean(z**4)) - 3.0
    q1, med, q3 = (float(q) for q in np.quantile(r, [0.25, 0.5, 0.75]))
    return DescriptiveStats(
        n=n,
        mean=mean,
        std_dev=float(r.std(ddof=1)),
        variance=float(r.var(ddof=1)),
        skewness=skew,
        excess_kurtosis=exkurt,
        jarque_bera=jarque_bera(skew, exkurt, n),
        minimum=float(r.min()),
        q1=q1,
        median=med,
        q3=q3,
        maximum=float(r.max()),
    )


def sharpe(returns, risk_free: float = 0.0) -> float:
    """Monthly Sharpe ratio: mean excess return over standard deviation."""
    r = _as_series(returns, min_n=2)
    sd = float(r.std(ddof=1))
    if sd <= 0.0:
        return math.nan
    return (float(r.mean()) - risk_free) / sd


def ann_sharpe(returns, risk_free: float = 0.0) -> float:
    """Annualized Sharpe: sqrt(12) times the monthly ratio."""
    return math.sqrt(PERIODS_PER_YEAR) * sharpe(returns, risk_free)


def historical_var(returns, alpha: float = VAR_ALPHA) -> float:
    """Historical value-at-risk: loss magnitude at the (1-alpha) quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    r = _as_series(returns, min_n=max(2, math.ceil(1.0 / (1.0 - alpha))))
    return -float(np.quantile(r, 1.0 - alpha))


def historical_es(returns, alpha: float = VAR_ALPHA) -> float:
    """Expected shortfall: mean loss at or beyond the VaR quantile."""
    r = _as_series(returns, min_n=max(2, math.ceil(1.0 / (1.0 - alpha))))
    cut = np.quantile(r, 1.0 - alpha)
    tail = r[r <= cut]
    return -float(tail.mean())


def var_sharpe(returns, alpha: float = VAR_ALPHA, risk_free: float = 0.0) -> float:
    """Mean excess return over historical VaR; NaN when VaR is nonpositive."""
    v = historical_var(returns, alpha)
    if v <= 0.0:
        return math.nan
    r = _as_series(returns)
    return (float(r.mean()) - risk_free) / v


def es_sharpe(returns, alpha: float = VAR_ALPHA, risk_free: float = 0.0) -> float:
    """Mean excess return over expected shortfall; NaN when ES is nonpositive."""
    e = historical_es(returns, alpha)
    if e <= 0.0:
        return math.nan
    r = _as_series(returns)
    return (float(r.mean()) - risk_free) / e


def ceq(returns, gamma: float = 1.0) -> float:
    """Certainty-equivalent return for mean-variance utility, in percent.

    Computed on decimal returns (percent / 100) and scaled back, so the
    quadratic penalty carries the same units as the optimizer objective.
    """
    r = _as_series(returns, min_n=2)
    return ceq_from_moments(float(r.mean()), float(r.std(ddof=1)), gamma)


def ceq_from_moments(mean_pct: float, sd_pct: float, gamma: float = 1.0) -> float:
    """CEQ in percent from a percent mean and standard deviation."""
    mean_dec = mean_pct / 100.0
    sd_dec = sd_pct / 100.0
    return (mean_dec - gamma / 2.0 * sd_dec**2) * 100.0


def sortino(returns, target: float = 0.0, denominator: str = "full") -> float:
    """Mean excess over target divided by downside deviation.

    `denominator="full"` averages squared shortfalls over all n observations;
    `"below"` averages over below-target months only. NaN when nothing falls
    below the target.
    """
    if denominator not in ("full", "below"):
        raise ValueError("denominator must be 'full' or 'below'")
    r = _as_series(returns, min_n=2)
    short = np.clip(target - r, 0.0, None)
    count = int((short > 0.0).sum())
    if count == 0:
        return math.nan
    div = r.shape[0] if denominator == "full" else count
    downside = math.sqrt(float((short**2).sum()) / div)
    return (float(r.mean()) - target) / downside


def omega(returns, threshold: float = 0.0) -> float:
    """Ratio of total gains above the threshold to total losses below it."""
    r = _as_series(returns)
    gains = float(np.clip(r - threshold, 0.0, None).sum())
    losses = float(np.clip(threshold - r, 0.0, None).sum())
    if losses <= 0.0:
        return math.nan
    return gains / losses


def drawdowns(returns) -> np.ndarray:
    """Drawdown of the wealth path, in percent: n + 1 entries, the first for
    the initial level.

    Wealth compounds from 1, and the initial level counts as a peak, so a
    first-month loss is already a drawdown.
    """
    r = _as_series(returns)
    wealth = np.concatenate([[1.0], np.cumprod(1.0 + r / 100.0)])
    return (1.0 - wealth / np.maximum.accumulate(wealth)) * 100.0


def max_drawdown(returns) -> float:
    """Largest peak-to-trough wealth loss, in percent: the max of drawdowns."""
    return float(drawdowns(returns).max())


def performance_report(
    returns,
    gamma: float = 1.0,
    alpha: float = VAR_ALPHA,
    risk_free: float = 0.0,
    sortino_target: float = 0.0,
) -> PerformanceReport:
    """All performance ratios of one return series in a single record."""
    return PerformanceReport(
        sharpe=sharpe(returns, risk_free),
        var_sharpe=var_sharpe(returns, alpha, risk_free),
        es_sharpe=es_sharpe(returns, alpha, risk_free),
        ann_sharpe=ann_sharpe(returns, risk_free),
        ceq=ceq(returns, gamma),
        sortino=sortino(returns, sortino_target),
        omega=omega(returns),
        max_drawdown=max_drawdown(returns),
    )
