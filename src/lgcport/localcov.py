"""Asset covariance matrices assembled from pairwise local Gaussian fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import DegenerateSampleError, InsufficientDataError, NonSymmetricError
# estimate_local_params is unused here but stays importable from this module:
# external code (e.g. the span tracer in perfbench/) looks it up here.
from .lgc import (  # noqa: F401
    FitDiagnostics,
    LocalParams,
    estimate_local_params,
    fit_local_batch,
    global_gaussian_mle,
    plugin_bandwidth,
)
from .panel import ReturnPanel

# Relative eigenvalue floor below which a matrix counts as not positive definite.
PD_TOL = 1e-10


@dataclass
class LocalCovMatrix:
    """A covariance matrix plus the bookkeeping of how it was built."""

    matrix: np.ndarray
    pd_repaired: bool
    pair_diagnostics: Dict[Tuple[int, int], FitDiagnostics] = field(default_factory=dict)
    diag_source: str = "sample"
    correlations: Optional[np.ndarray] = None
    local_sd: Optional[np.ndarray] = None
    pair_params: Dict[Tuple[int, int], LocalParams] = field(default_factory=dict)

    @property
    def n_fallbacks(self) -> int:
        return sum(1 for d in self.pair_diagnostics.values() if d.fallback)


def _as_matrix(panel) -> np.ndarray:
    if isinstance(panel, ReturnPanel):
        return panel.returns
    m = np.asarray(panel, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a panel or (n, N) matrix, got shape %r" % (m.shape,))
    return m


def nearest_correlation(
    corr: np.ndarray, change_tol: float = 1e-9, max_iterations: int = 100
) -> np.ndarray:
    """Nearest correlation matrix by alternating projections (Higham 2002).

    Projects onto the PSD cone and the unit-diagonal subspace in turn, with
    Dykstra's correction on the cone step, until the Frobenius change of the
    iterate drops below `change_tol`.
    """
    y = np.array(corr, dtype=float)
    n = y.shape[0]
    ds = np.zeros_like(y)
    for _ in range(max_iterations):
        r = y - ds
        vals, vecs = np.linalg.eigh((r + r.T) / 2.0)
        x = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        ds = x - r
        y_next = x.copy()
        y_next[np.diag_indices(n)] = 1.0
        if np.linalg.norm(y_next - y, "fro") < change_tol:
            y = y_next
            break
        y = y_next
    return (y + y.T) / 2.0


def nearest_pd(matrix, tol: float = PD_TOL) -> Tuple[np.ndarray, bool]:
    """Repair a symmetric matrix to positive definiteness, if needed.

    A matrix whose smallest eigenvalue is at least `tol` times its largest
    is returned unchanged. Otherwise the matrix is rescaled to correlation
    form, pushed to the nearest correlation matrix by alternating
    projections, rescaled back, and its spectrum floored at `tol` times the
    largest eigenvalue. Returns (matrix, repaired_flag).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square, got shape %r" % (m.shape,))
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(scale, 1.0)):
        raise NonSymmetricError("matrix is not symmetric")
    m = (m + m.T) / 2.0

    vals = np.linalg.eigvalsh(m)
    top = float(vals[-1])
    if top > 0.0 and float(vals[0]) >= tol * top:
        return m, False

    d = np.sqrt(np.diag(m))
    if np.all(d > 0.0):
        corr = m / np.outer(d, d)
        corr = nearest_correlation(corr)
        out = corr * np.outer(d, d)
    else:
        # No correlation form exists; fall back to flooring the spectrum.
        out = m

    vals, vecs = np.linalg.eigh(out)
    top = max(float(vals[-1]), 0.0)
    floor = tol * top if top > 0.0 else tol
    out = (vecs * np.clip(vals, floor, None)) @ vecs.T
    return (out + out.T) / 2.0, True


def global_covariance(panel) -> LocalCovMatrix:
    """Ordinary sample covariance (n-1 denominator), PD-repaired if needed."""
    x = _as_matrix(panel)
    if x.shape[0] < 2:
        raise InsufficientDataError("covariance needs at least 2 observations")
    cov = np.cov(x, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    if np.any(np.diag(cov) <= 0.0):
        raise DegenerateSampleError("a column has zero variance")
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    repaired_cov, repaired = nearest_pd(cov)
    return LocalCovMatrix(
        matrix=repaired_cov,
        pd_repaired=repaired,
        diag_source="sample variance",
        correlations=corr,
        local_sd=sd,
    )


def pairwise_local_covariance(
    panel,
    grid,
    bandwidth_scale: float = 1.1,
    *,
    ddof: int = 1,
    diag_method: str = "mean",
    init_params: Optional[Dict[Tuple[int, int], LocalParams]] = None,
) -> LocalCovMatrix:
    """Assemble an N x N covariance from bivariate local fits at a grid point.

    Each pair (i, j) is fitted at (grid[i], grid[j]) with its own plug-in
    bandwidth; the off-diagonal entry is rho * sigma_i * sigma_j from that
    pair's fit, and the diagonal for asset i aggregates its sigma estimates
    across the N-1 pairs containing i. The result is scaled by n/(n - ddof)
    so the wide-bandwidth limit matches the n-1 sample covariance, then
    repaired to positive definiteness. All pairs are fitted together by one
    fit_local_batch call.

    Pairs that fail to fit (no local mass, or no convergence) fall back to
    the pair's global Gaussian MLE and are flagged in pair_diagnostics.

    `init_params` maps pair indices to warm starts, e.g. the previous
    month's `pair_params`; other pairs start from their global Gaussian MLE.
    """
    x = _as_matrix(panel)
    n, n_assets = x.shape
    g = np.asarray(grid, dtype=float).reshape(-1)
    if g.shape != (n_assets,) or not np.all(np.isfinite(g)):
        raise ValueError("grid must hold one finite coordinate per asset")
    if n <= ddof:
        raise InsufficientDataError("need more than ddof=%d observations" % ddof)
    if diag_method not in ("mean", "median"):
        raise ValueError("diag_method must be 'mean' or 'median', got %r" % diag_method)
    if n_assets == 1:
        return global_covariance(x)

    bandwidth = np.array(plugin_bandwidth(x, bandwidth_scale))
    first, second = np.triu_indices(n_assets, 1)
    pairs = list(zip(first.tolist(), second.tolist()))
    inits = init_params or {}
    start = [
        inits[p] if p in inits else global_gaussian_mle(x[:, list(p)]) for p in pairs
    ]
    fit = fit_local_batch(
        x[:, first].T,
        x[:, second].T,
        np.column_stack([g[first], g[second]]),
        np.column_stack([bandwidth[first], bandwidth[second]]),
        np.array([theta.as_array() for theta in start]),
    )

    rho = np.eye(n_assets)
    cov = np.zeros((n_assets, n_assets))
    sigma_lists = [[] for _ in range(n_assets)]
    diagnostics: Dict[Tuple[int, int], FitDiagnostics] = {}
    params: Dict[Tuple[int, int], LocalParams] = {}
    for k, (i, j) in enumerate(pairs):
        diag = fit.diagnostics(k)
        if diag.converged:
            theta = LocalParams.from_array(fit.params[k])
        else:
            theta = global_gaussian_mle(x[:, [i, j]])
            diag.fallback = True
        cov[i, j] = cov[j, i] = theta.rho * theta.sigma1 * theta.sigma2
        rho[i, j] = rho[j, i] = theta.rho
        sigma_lists[i].append(theta.sigma1)
        sigma_lists[j].append(theta.sigma2)
        diagnostics[(i, j)] = diag
        params[(i, j)] = theta

    agg = np.mean if diag_method == "mean" else np.median
    sd = np.array([agg(s) for s in sigma_lists])
    cov[np.diag_indices(n_assets)] = sd * sd
    cov *= n / (n - ddof)

    repaired_cov, repaired = nearest_pd(cov)
    return LocalCovMatrix(
        matrix=repaired_cov,
        pd_repaired=repaired,
        pair_diagnostics=diagnostics,
        diag_source="%s of pairwise local sigmas" % diag_method,
        correlations=rho,
        local_sd=sd,
        pair_params=params,
    )


def moving_grid(panel, t: int, lookback: int = 3) -> np.ndarray:
    """Grid point for month index t: per-asset mean of the `lookback` prior months."""
    x = _as_matrix(panel)
    if lookback < 1:
        raise ValueError("lookback must be at least 1")
    if t < lookback or t > x.shape[0]:
        raise IndexError(
            "month index %d outside [%d, %d]" % (t, lookback, x.shape[0])
        )
    return x[t - lookback : t].mean(axis=0)


def percentile_grid(panel, q: float) -> np.ndarray:
    """Per-asset empirical quantile grid (linear interpolation)."""
    x = _as_matrix(panel)
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie in (0, 1), got %g" % q)
    tail = min(q, 1.0 - q)
    if x.shape[0] * tail < 1.0:
        raise InsufficientDataError(
            "need at least %d observations for quantile %g" % (math.ceil(1.0 / tail), q)
        )
    return np.quantile(x, q, axis=0)
