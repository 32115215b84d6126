"""Asset covariance matrices assembled from pairwise local Gaussian fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .errors import (
    DegenerateSampleError,
    InsufficientDataError,
    LgcportError,
    NonSymmetricError,
)
# estimate_local_params is unused here but stays importable from this module:
# external code (e.g. the span tracer in perfbench/) looks it up here.
from .lgc import (  # noqa: F401
    FitDiagnostics,
    estimate_local_params,
    fit_local_batch,
    gaussian_mle_batch,
    plugin_bandwidth,
)
from .panel import ReturnPanel

# Relative eigenvalue floor below which a matrix counts as not positive definite.
PD_TOL = 1e-10

# Pair-observations (pairs x window length) per fit_local_batch call of
# local_covariance_stack. It bounds the working memory of a block, about
# 1 MB here: a few (pairs, window) arrays of 192 kB each, plus the Newton
# step's per-pair Hessian terms. At 2**15 the peak RSS of the paper's run was
# 5.2 % above that of fitting one date per call; at this bound it is 3.5 %.
_BLOCK_PAIR_OBS = 3 * 2**13


@dataclass
class LocalCovMatrix:
    """A covariance matrix plus the bookkeeping of how it was built."""

    matrix: np.ndarray
    pd_repaired: bool
    correlations: np.ndarray  # before repair
    pair_diagnostics: Dict[Tuple[int, int], FitDiagnostics] = field(default_factory=dict)

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

    diag = np.diag(m)
    if np.all(diag > 0.0):
        d = np.sqrt(diag)
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
    return LocalCovMatrix(matrix=repaired_cov, pd_repaired=repaired, correlations=corr)


@dataclass
class LocalCovStack:
    """Local covariances of a stack of dates, each field with a leading (D,) axis.

    The per-pair fields are (D, P), pairs in np.triu_indices order within a
    date. A date in `errors` has no estimate: its matrices are zero and its
    flags and pair diagnostics False or 0.
    """

    matrices: np.ndarray  # (D, N, N), repaired to positive definite
    correlations: np.ndarray  # (D, N, N) pairwise local correlations, before repair
    pd_repaired: np.ndarray  # (D,) bool
    fallback: np.ndarray  # (D, P) the pair fell back to its global Gaussian MLE
    converged: np.ndarray  # (D, P)
    iterations: np.ndarray  # (D, P) Newton steps
    gradient_norm: np.ndarray  # (D, P)
    effective_weight: np.ndarray  # (D, P)
    errors: Dict[int, LgcportError]

    @property
    def n_fallbacks(self) -> np.ndarray:
        """(D,) number of pairs of each date that fell back."""
        return self.fallback.sum(axis=1)

    def pair_diagnostics(self, d: int) -> Dict[Tuple[int, int], FitDiagnostics]:
        """The fit of each pair (i, j) of date d."""
        first, second = np.triu_indices(self.matrices.shape[1], 1)
        return {
            (int(i), int(j)): FitDiagnostics(
                converged=bool(self.converged[d, k]),
                iterations=int(self.iterations[d, k]),
                gradient_norm=float(self.gradient_norm[d, k]),
                effective_weight=float(self.effective_weight[d, k]),
                fallback=bool(self.fallback[d, k]),
            )
            for k, (i, j) in enumerate(zip(first, second))
        }


def local_covariance_stack(windows, grids, bandwidth_scale: float = 1.1) -> LocalCovStack:
    """Assemble an N x N covariance per date from bivariate local fits.

    `windows` is (D, n, N) and `grids` is (D, N): date d is estimated from
    `windows[d]` at `grids[d]`. Each pair (i, j) is fitted at
    (grid[i], grid[j]) with its own plug-in bandwidth, starting from the
    pair's global Gaussian MLE; the off-diagonal entry is
    rho * sigma_i * sigma_j from that pair's fit, and the diagonal for asset
    i is the mean of its sigma estimates across the N-1 pairs containing i.
    The result is scaled by n/(n - 1) so the wide-bandwidth limit matches the
    n-1 sample covariance, then repaired to positive definiteness. A single
    asset gets its sample variance. Pairs that fail to fit (no local mass, or
    no convergence) fall back to the pair's global Gaussian MLE and are
    flagged in `fallback`.

    Each date is checked on its own, so a date whose window has no estimate
    (a column with zero variance, say) gets its LgcportError in `errors` and
    leaves the other dates untouched. The remaining dates are fitted in
    blocks of consecutive dates, one fit_local_batch call per block; a block
    holds at most 24,576 pair-observations (pairs x n), or one date if a date
    alone holds more. A date's result does not depend on the block it lands
    in.
    """
    w = np.asarray(windows, dtype=float)
    if w.ndim != 3:
        raise ValueError("windows must have shape (dates, n, N), got %r" % (w.shape,))
    n_dates, n, n_assets = w.shape
    g = np.asarray(grids, dtype=float)
    if g.shape != (n_dates, n_assets) or not np.all(np.isfinite(g)):
        raise ValueError("grids must hold one finite coordinate per date and asset")
    n_pairs = n_assets * (n_assets - 1) // 2
    out = LocalCovStack(
        matrices=np.zeros((n_dates, n_assets, n_assets)),
        correlations=np.zeros((n_dates, n_assets, n_assets)),
        pd_repaired=np.zeros(n_dates, dtype=bool),
        fallback=np.zeros((n_dates, n_pairs), dtype=bool),
        converged=np.zeros((n_dates, n_pairs), dtype=bool),
        iterations=np.zeros((n_dates, n_pairs), dtype=int),
        gradient_norm=np.zeros((n_dates, n_pairs)),
        effective_weight=np.zeros((n_dates, n_pairs)),
        errors={},
    )
    if n < 2:
        err = InsufficientDataError("local covariance needs at least 2 observations")
        out.errors = dict.fromkeys(range(n_dates), err)
        return out

    bandwidths = np.zeros((n_dates, n_assets))
    for d in range(n_dates):
        try:
            if n_assets == 1:
                single = global_covariance(w[d])
                out.matrices[d], out.correlations[d] = single.matrix, single.correlations
                out.pd_repaired[d] = single.pd_repaired
            else:
                bandwidths[d] = plugin_bandwidth(w[d], bandwidth_scale)
        except LgcportError as err:
            out.errors[d] = err
    if n_assets == 1:
        return out

    ok = np.array([d for d in range(n_dates) if d not in out.errors], dtype=int)
    per_block = max(1, _BLOCK_PAIR_OBS // (n_pairs * n))
    for lo in range(0, ok.size, per_block):
        _fit_block(out, ok[lo : lo + per_block], w, g, bandwidths)
    return out


def _fit_block(out: LocalCovStack, idx, windows, grids, bandwidths) -> None:
    """Fit every pair of the dates `idx` in one fit_local_batch call and
    write the dates' estimates into `out` (see local_covariance_stack)."""
    windows, grids, bandwidths = windows[idx], grids[idx], bandwidths[idx]
    n_dates, n, n_assets = windows.shape
    first, second = np.triu_indices(n_assets, 1)
    columns = windows.transpose(0, 2, 1)
    xs = columns[:, first].reshape(-1, n)
    ys = columns[:, second].reshape(-1, n)
    mle = gaussian_mle_batch(xs, ys)

    def by_pair(a):
        return np.stack([a[:, first], a[:, second]], axis=2).reshape(-1, 2)

    fit = fit_local_batch(xs, ys, by_pair(grids), by_pair(bandwidths), mle)
    fallback = ~fit.converged
    params = np.where(fallback[:, None], mle, fit.params).reshape(n_dates, -1, 5)
    sigma1, sigma2, rho = params[..., 2], params[..., 3], params[..., 4]

    shape = (n_dates, n_assets, n_assets)
    assets = np.arange(n_assets)
    corr = np.zeros(shape)
    corr[:, first, second] = corr[:, second, first] = rho
    corr[:, assets, assets] = 1.0
    # sigmas[:, i, j] is asset i's sigma from the fit of pair {i, j}; row i
    # without its diagonal lists them in the order of the pairs containing i.
    sigmas = np.zeros(shape)
    sigmas[:, first, second] = sigma1
    sigmas[:, second, first] = sigma2
    per_asset = sigmas[:, ~np.eye(n_assets, dtype=bool)].reshape(n_dates, n_assets, -1)
    sd = per_asset.mean(axis=2)
    cov = np.zeros(shape)
    cov[:, first, second] = cov[:, second, first] = rho * sigma1 * sigma2
    cov[:, assets, assets] = sd * sd
    cov *= n / (n - 1)

    for d, c in zip(idx, cov):
        out.matrices[d], out.pd_repaired[d] = nearest_pd(c)
    out.correlations[idx] = corr
    out.fallback[idx] = fallback.reshape(n_dates, -1)
    for name in ("converged", "iterations", "gradient_norm", "effective_weight"):
        getattr(out, name)[idx] = getattr(fit, name).reshape(n_dates, -1)


def pairwise_local_covariance(panel, grid, bandwidth_scale: float = 1.1) -> LocalCovMatrix:
    """The local covariance of one (n, N) window at one grid point.

    This is the one-date case of local_covariance_stack: an error the stack
    would record for the date is raised, and each pair's fit is reported in
    `pair_diagnostics`.
    """
    x = _as_matrix(panel)
    stack = local_covariance_stack(
        x[None], np.asarray(grid, dtype=float).reshape(1, -1), bandwidth_scale
    )
    if stack.errors:
        raise stack.errors[0]
    return LocalCovMatrix(
        matrix=stack.matrices[0],
        pd_repaired=bool(stack.pd_repaired[0]),
        pair_diagnostics=stack.pair_diagnostics(0),
        correlations=stack.correlations[0],
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
