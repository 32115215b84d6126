"""Seeded synthetic return panels for demos, smoke tests and benchmarks."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .localcov import nearest_pd
from .panel import ReturnPanel, _month_ordinal, month_label

SYNTH_MODELS = ("gaussian", "bear", "clayton")

# Monthly percent scale for a stock/bond/commodity mix.
DEFAULT_NAMES = ("STK1", "STK2", "BND1", "BND2", "CMDT", "GOLD")
DEFAULT_MEANS = (0.6, 0.7, 0.75, 0.55, 0.1, 0.2)
DEFAULT_SDS = (4.5, 4.4, 2.4, 2.4, 3.5, 5.0)

# Correlation regimes: calm, and a bear month where equity-type assets
# move together much more tightly.
_CALM_BLOCKS = {
    ("STK", "STK"): 0.55,
    ("STK", "BND"): 0.05,
    ("BND", "BND"): 0.55,
    ("STK", "CMD"): 0.25,
    ("BND", "CMD"): 0.0,
    ("STK", "GLD"): 0.0,
    ("BND", "GLD"): 0.1,
    ("CMD", "GLD"): 0.35,
    ("CMD", "CMD"): 0.5,
    ("GLD", "GLD"): 0.7,
}
_BEAR_BLOCKS = {
    ("STK", "STK"): 0.9,
    ("STK", "BND"): -0.1,
    ("BND", "BND"): 0.7,
    ("STK", "CMD"): 0.55,
    ("BND", "CMD"): -0.05,
    ("STK", "GLD"): -0.2,
    ("BND", "GLD"): 0.15,
    ("CMD", "GLD"): 0.45,
    ("CMD", "CMD"): 0.75,
    ("GLD", "GLD"): 0.8,
}


def _asset_class(index: int) -> str:
    return ("STK", "STK", "BND", "BND", "CMD", "GLD")[index % 6]


def _regime_correlation(n_assets: int, blocks) -> np.ndarray:
    table = {tuple(sorted(k)): v for k, v in blocks.items()}
    corr = np.eye(n_assets)
    for i in range(n_assets):
        for j in range(i + 1, n_assets):
            key = tuple(sorted((_asset_class(i), _asset_class(j))))
            corr[i, j] = corr[j, i] = table[key]
    return nearest_pd(corr)[0]


def sample_clayton_uniforms(rng, n: int, dim: int, theta: float) -> np.ndarray:
    """Exchangeable Clayton copula draws via the Marshall-Olkin construction."""
    if theta <= 0.0:
        raise ValueError("theta must be positive, got %g" % theta)
    g = rng.gamma(1.0 / theta, 1.0, size=(n, 1))
    e = rng.exponential(1.0, size=(n, dim))
    return (1.0 + e / g) ** (-1.0 / theta)


def clayton_normal_sample(rng, n: int, dim: int, theta: float) -> np.ndarray:
    """Clayton dependence with standard normal marginals."""
    from scipy.special import ndtri

    return ndtri(sample_clayton_uniforms(rng, n, dim, theta))


def synth_panel(
    months: int = 463,
    n_assets: int = 6,
    model: str = "bear",
    seed: int = 0,
    rho: float = 0.5,
    clayton_theta: float = 2.0,
    bear_prob: float = 0.18,
    start: str = "1980-02",
    means: Optional[Sequence[float]] = None,
    sds: Optional[Sequence[float]] = None,
    names: Optional[Sequence[str]] = None,
) -> ReturnPanel:
    """Generate a monthly percent-return panel with a chosen dependence shape.

    Models: "gaussian" draws a constant-correlation Gaussian; "bear" mixes a
    calm regime with a high-correlation, down-shifted, higher-vol regime;
    "clayton" gives lower-tail dependence via an exchangeable Clayton copula.
    All draws come from one seeded generator, so equal configs give equal
    panels byte for byte.
    """
    if model not in SYNTH_MODELS:
        raise ValueError("model must be one of %r, got %r" % (SYNTH_MODELS, model))
    if months < 2 or n_assets < 1:
        raise ValueError("need at least 2 months and 1 asset")
    if names is None:
        names = [
            DEFAULT_NAMES[i] if n_assets <= 6 else "A%02d" % (i + 1)
            for i in range(n_assets)
        ]
    mu = np.array(
        [DEFAULT_MEANS[i % 6] for i in range(n_assets)] if means is None else means,
        dtype=float,
    )
    sd = np.array(
        [DEFAULT_SDS[i % 6] for i in range(n_assets)] if sds is None else sds,
        dtype=float,
    )
    if mu.shape != (n_assets,) or sd.shape != (n_assets,) or np.any(sd <= 0.0):
        raise ValueError("means/sds must match n_assets, sds positive")

    rng = np.random.default_rng(seed)
    if model == "clayton":
        z = clayton_normal_sample(rng, months, n_assets, clayton_theta)
        data = mu + sd * z
    elif model == "gaussian":
        if not -1.0 < rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        corr = np.full((n_assets, n_assets), rho)
        np.fill_diagonal(corr, 1.0)
        z = rng.standard_normal((months, n_assets)) @ np.linalg.cholesky(nearest_pd(corr)[0]).T
        data = mu + sd * z
    else:
        calm = np.linalg.cholesky(_regime_correlation(n_assets, _CALM_BLOCKS))
        bear = np.linalg.cholesky(_regime_correlation(n_assets, _BEAR_BLOCKS))
        in_bear = rng.random(months) < bear_prob
        z = rng.standard_normal((months, n_assets))
        data = np.empty((months, n_assets))
        calm_rows = z[~in_bear] @ calm.T
        bear_rows = z[in_bear] @ bear.T
        data[~in_bear] = mu + sd * calm_rows
        data[in_bear] = (mu - 1.2 * sd) + 1.5 * sd * bear_rows

    first = _month_ordinal(start, 0)
    dates = [month_label(first + i) for i in range(months)]
    return ReturnPanel(asset_names=list(names), dates=dates, returns=data)
