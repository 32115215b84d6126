"""Seeded synthetic return panels for demos, smoke tests and benchmarks."""

from __future__ import annotations

import math

import numpy as np

from .localcov import nearest_pd
from .panel import ReturnPanel, _month_ordinal, month_label

SYNTH_MODELS = ("gaussian", "bear", "clayton")

# Monthly percent scale for a stock/bond/commodity mix.
DEFAULT_NAMES = ("STK1", "STK2", "BND1", "BND2", "CMDT", "GOLD")
DEFAULT_MEANS = (0.6, 0.7, 0.75, 0.55, 0.1, 0.2)
DEFAULT_SDS = (4.5, 4.4, 2.4, 2.4, 3.5, 5.0)
# Share of bear months in the "bear" model.
BEAR_PROB = 0.18

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


# Cephes ndtri (S. L. Moshier): a rational approximation in y - 1/2 on the
# centre, and in 1/sqrt(-2 log y) on each tail, split at y = exp(-32).
_EXP_M2 = 0.13533528323661269189  # exp(-2), where the centre ends
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x, coef):
    """Horner's rule over `coef`, leading coefficient first. A leading 1.0
    gives Cephes' p1evl bit for bit, since 1.0 * x is exact."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log(values: np.ndarray) -> np.ndarray:
    # The C library's log, one value at a time: np.log may differ in the last bit.
    return np.array([math.log(v) for v in values.tolist()])


def ndtri(u) -> np.ndarray:
    """Standard normal quantile of each entry of `u`, as Cephes computes it.

    The same operations in the same order as Cephes `ndtri`, so the result is
    bit-identical to scipy.special.ndtri. 0 and 1 map to -inf and +inf, and
    anything outside [0, 1] to NaN.
    """
    u = np.asarray(u, dtype=float)
    out = np.full(u.shape, np.nan)
    out[u == 0.0] = -np.inf
    out[u == 1.0] = np.inf
    inside = (u > 0.0) & (u < 1.0)
    upper = u[inside] > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u[inside], u[inside])
    centre = y > _EXP_M2
    x = np.empty(y.shape)

    h = y[centre] - 0.5
    h2 = h * h
    x[centre] = (h + h * (h2 * _polevl(h2, _P0) / _polevl(h2, _Q0))) * _S2PI

    t = np.sqrt(-2.0 * _log(y[~centre]))
    z = 1.0 / t
    near = z * _polevl(z, _P1) / _polevl(z, _Q1)
    far = z * _polevl(z, _P2) / _polevl(z, _Q2)
    tail = (t - _log(t) / t) - np.where(t < 8.0, near, far)
    x[~centre] = np.where(upper[~centre], tail, -tail)
    out[inside] = x
    return out


def clayton_normal_sample(rng, n: int, dim: int, theta: float) -> np.ndarray:
    """Clayton dependence with standard normal marginals."""
    return ndtri(sample_clayton_uniforms(rng, n, dim, theta))


def synth_panel(
    months: int = 463,
    n_assets: int = 6,
    model: str = "bear",
    seed: int = 0,
    rho: float = 0.5,
    clayton_theta: float = 2.0,
    start: str = "1980-02",
) -> ReturnPanel:
    """Generate a monthly percent-return panel with a chosen dependence shape.

    Models: "gaussian" draws a constant-correlation Gaussian; "bear" mixes a
    calm regime with a high-correlation, down-shifted, higher-vol regime in
    a BEAR_PROB share of the months; "clayton" gives lower-tail dependence
    via an exchangeable Clayton copula. Asset i has mean DEFAULT_MEANS[i % 6]
    and sd DEFAULT_SDS[i % 6], and is named DEFAULT_NAMES[i] in panels of at
    most six assets and A01, A02, ... in wider ones. All draws come from one
    seeded generator, so equal configs give equal panels byte for byte.
    """
    if model not in SYNTH_MODELS:
        raise ValueError("model must be one of %r, got %r" % (SYNTH_MODELS, model))
    if months < 2 or n_assets < 1:
        raise ValueError("need at least 2 months and 1 asset")
    names = [
        DEFAULT_NAMES[i] if n_assets <= 6 else "A%02d" % (i + 1) for i in range(n_assets)
    ]
    mu = np.array([DEFAULT_MEANS[i % 6] for i in range(n_assets)])
    sd = np.array([DEFAULT_SDS[i % 6] for i in range(n_assets)])

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
        in_bear = rng.random(months) < BEAR_PROB
        z = rng.standard_normal((months, n_assets))
        data = np.empty((months, n_assets))
        calm_rows = z[~in_bear] @ calm.T
        bear_rows = z[in_bear] @ bear.T
        data[~in_bear] = mu + sd * calm_rows
        data[in_bear] = (mu - 1.2 * sd) + 1.5 * sd * bear_rows

    first = _month_ordinal(start)
    dates = [month_label(first + i) for i in range(months)]
    return ReturnPanel(asset_names=names, dates=dates, returns=data)
