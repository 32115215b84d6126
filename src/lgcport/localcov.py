"""Asset covariance matrices assembled from pairwise local Gaussian fits.

Both covariance stacks read their windows through one loop, _window_slices:
a slice of dates at a time, checked for non-finite values, reduced by
lgc._window_stats, and split into the dates with a flat column, which get
that reader's DegenerateSampleError, and the others. The global stack
scales the others' cross-products to sample covariances; the local stack
takes their bandwidths and global Gaussian MLEs from the same statistics and
fits every pair, from its kernel-deconvolved moments where they make a
better start (lgc._local_starts). Both stacks end in the same blocked PD
repair: the nearest correlation matrix by Anderson-accelerated alternating
projections, run until its unit-diagonal residual is at most 1e-12, and a
spectrum floored at PD_TOL. Each stack records its repairs in a
RepairRecord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    InsufficientDataError,
    LgcportError,
    NonSymmetricError,
)
# estimate_local_params is unused here but stays importable from this module:
# external code (e.g. the span tracer in perfbench/) looks it up here.
from .lgc import (  # noqa: F401
    BANDWIDTH_SCALE,
    FitDiagnostics,
    _local_starts,
    _mle_starts,
    _window_stats,
    estimate_local_params,
    fit_local_moments,
    local_moments_stack,
)
from .panel import ReturnPanel

# Relative eigenvalue floor below which a matrix counts as not positive definite.
PD_TOL = 1e-10

# The projections of the PD repair stop once a matrix's unit-diagonal
# residual ||1 - diag(P_S(R))||_2 is at most _RESIDUAL_TOL, or after
# _PROJECTION_ITERATIONS; their Anderson acceleration keeps the last
# _HISTORY steps (see _nearest_correlations).
_RESIDUAL_TOL = 1e-12
_PROJECTION_ITERATIONS = 100
_HISTORY = 5

# Asset-observations (window length x assets per date) that the stacks read
# at a time, in whole dates (or one date if a date alone holds more): 192 kB
# per (dates, n, N) copy. A slice of local_covariance_stack holds four such
# copies while it reduces its windows to moments.
_BLOCK_PAIR_OBS = 3 * 2**13

# Pairs per Newton pass of local_covariance_stack, in whole dates (or one date
# if a date alone holds more). A pass keeps 12 moments, 5 parameters and
# 15 Hessian entries per pair, however long the window; this bound keeps its
# working memory near that of one moment slice while a pass is long enough
# that numpy's per-call overhead does not dominate.
_BLOCK_PAIRS = 2048

# Matrix elements (dates x N x N) that the PD repair of a covariance stack
# takes at a time: 512 kB per (dates, N, N) copy, or 1,820 dates at N = 6,
# 113 at N = 24 and 28 at N = 48, whatever the blocks of the estimate.
_BLOCK_REPAIR = 2**16

@dataclass
class RepairRecord:
    """How the PD repair of each date of a stack went, as (D,) arrays (see
    _repair): whether its matrix was repaired, the projections its
    correlation stage took (0 if it had none), and whether it finished
    inside _PROJECTION_ITERATIONS. A date with an error keeps False and 0."""

    repaired: bool
    iterations: int
    converged: bool

    @classmethod
    def zeros(cls, n_dates: int) -> "RepairRecord":
        """A record of n_dates dates, every value False or 0."""
        return cls(*(np.zeros(n_dates, f.type) for f in fields(cls)))


@dataclass
class LocalCovMatrix:
    """The covariance of one date of a CovStack (see CovStack.date)."""

    matrix: np.ndarray
    pd_repaired: bool
    correlations: np.ndarray  # before repair
    pair_diagnostics: Dict[Tuple[int, int], FitDiagnostics]

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


def _nearest_correlations(corr: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest correlation matrix of each matrix of a (k, N, N) stack, with
    the (k,) projections each took and (k,) flags of those that met the
    tolerance.

    Alternating projections with Dykstra's correction (Higham 2002), onto
    the PSD cone (P_S) and the unit-diagonal matrices (P_U), are one
    fixed-point map in R = Y - dS: R -> R + P_U(P_S(R)) - P_S(R). Its
    residual P_U(P_S(R)) - P_S(R) is diagonal, f = 1 - diag(P_S(R)), and it
    vanishes where P_S(R) is the nearest correlation matrix. The map runs
    with type-II Anderson acceleration over the last _HISTORY steps (Higham
    & Strabic, Numer. Algorithms 72, 2016): gamma fits f by the changes of f
    those steps made, least squares by the pseudo-inverse of their Gram
    matrix (so a singular or empty history takes no step from it), and the
    step is diag(f) less gamma times those steps' own changes of R and f.
    The history restarts where ||f|| grows. A matrix stops once
    ||f||_2 <= _RESIDUAL_TOL, or after _PROJECTION_ITERATIONS, and returns
    P_U(P_S(R)) of its last projection. The matrices run in lockstep, one
    stacked eigh per iteration over those still moving; a matrix's result
    does not depend on its stack.
    """
    r = np.array(corr, dtype=float)
    k, n = r.shape[:2]
    ii = np.arange(n)
    out = np.empty_like(r)
    iterations = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    # Over the matrices still moving, `live`: a ring of their last steps of
    # R and the changes of f those steps made, and their last f and ||f||.
    live = np.arange(k)
    d_r = np.zeros((k, _HISTORY, n, n))
    d_f = np.zeros((k, _HISTORY, n))
    f_last, norm_last = np.zeros((k, n)), np.full(k, np.inf)
    for it in range(_PROJECTION_ITERATIONS):
        vals, vecs = np.linalg.eigh((r + r.transpose(0, 2, 1)) / 2.0)
        x = (vecs * np.clip(vals, 0.0, None)[:, None, :]) @ vecs.transpose(0, 2, 1)
        f = 1.0 - x[:, ii, ii]
        x[:, ii, ii] = 1.0
        out[live] = x
        iterations[live] = it + 1
        norm = np.sqrt((f[:, None, :] @ f[:, :, None])[:, 0, 0])
        done = norm <= _RESIDUAL_TOL
        converged[live[done]] = True
        if done.any():
            go = ~done
            live, r, f, norm, d_r, d_f, f_last, norm_last = (
                a[go] for a in (live, r, f, norm, d_r, d_f, f_last, norm_last)
            )
        if not live.size or it == _PROJECTION_ITERATIONS - 1:
            break
        if it:
            d_f[:, (it - 1) % _HISTORY] = f - f_last
        grew = norm > norm_last
        d_r[grew], d_f[grew] = 0.0, 0.0
        f_last, norm_last = f, norm
        # gamma = G^+ d_f f for the Gram matrix G = d_f d_f', from its
        # eigenvalues: those at most _HISTORY eps times the largest count as 0.
        vals, vecs = np.linalg.eigh(d_f @ d_f.transpose(0, 2, 1))
        coef = (d_f @ f[:, :, None]).transpose(0, 2, 1) @ vecs
        kept = vals > _HISTORY * np.finfo(float).eps * vals[:, -1:]
        coef = np.where(kept, coef[:, 0, :] / np.where(kept, vals, 1.0), 0.0)
        gamma = coef[:, None, :] @ vecs.transpose(0, 2, 1)
        step = -(gamma @ d_r.reshape(len(r), _HISTORY, -1)).reshape(r.shape)
        step[:, ii, ii] += f - (gamma @ d_f)[:, 0, :]
        d_r[:, it % _HISTORY] = step
        r += step
    return (out + out.transpose(0, 2, 1)) / 2.0, iterations, converged


def nearest_correlation(corr: np.ndarray) -> np.ndarray:
    """Nearest correlation matrix by Anderson-accelerated alternating
    projections: the one-matrix case of the stacked projection (see
    _nearest_correlations)."""
    return _nearest_correlations(np.asarray(corr, dtype=float)[None])[0][0]


def _repair(cov: np.ndarray) -> Tuple[np.ndarray, RepairRecord]:
    """Symmetrize each matrix of a (k, N, N) stack and repair it to positive
    definiteness, if needed. Returns the (k, N, N) matrices and the
    RepairRecord of the stack.

    A matrix whose smallest eigenvalue is at least PD_TOL times its largest,
    less a rounding margin of N * eps times its largest, is kept as it is.
    The others are rescaled to correlation form where their diagonal is
    positive, pushed to the nearest correlation matrix, and rescaled back;
    then their spectrum is floored at PD_TOL times the largest eigenvalue.
    Rebuilding a matrix from the floored spectrum moves its smallest
    eigenvalue by less than the margin, so a repaired matrix passes the test
    as it is. A matrix's result does not depend on its stack.

    The stack is first tried by one stacked Cholesky of A - sI per matrix,
    with s = 2 PD_TOL t and t = trace(A), if every t > 0. If it succeeds,
    every matrix is kept and no eigenvalue is computed; otherwise the
    eigenvalues decide for the whole stack, as above. Success implies the
    eigenvalue test (u = eps/2, g = (N+1)u / (1 - (N+1)u)):
    - B = fl(A - sI) = A - sI + E with E diagonal. B_ii > 0 needs A_ii > s,
      so |E_ii| <= u A_ii <= u t; and s >= 2 PD_TOL t (1 - (N+2)u) after
      the rounding of the trace and of the product.
    - The computed factor R has R'R = B + dB with |dB| <= g |R'||R| (Higham
      2002, Thm 10.3). By Cauchy-Schwarz |R'||R| <= d d' with d_i^2 =
      (R'R)_ii <= B_ii / (1 - g), so ||dB||_2 <= g trace(B) / (1 - g) <=
      2(N+1)u t. R'R is positive definite, so lambda_min(B) > -2(N+1)u t.
    - Hence lambda_min(A) > s - 2(N+1)u t - u t >= (2 PD_TOL - (2N+5)u) t.
      Where that is positive, A is positive definite and t >= lambda_max(A).
    So lambda_min(A) exceeds PD_TOL lambda_max(A) by (PD_TOL - (2N+5)u)
    lambda_max(A), nearly PD_TOL lambda_max(A) for N well below 4.5e5. The
    exact test holds, and eigvalsh, being backward stable, moves each
    eigenvalue by O(N u lambda_max(A)) only, so its test keeps the matrix
    too. The trace bounds lambda_max at no cost; a matrix whose lambda_min
    lies below 2 PD_TOL t (at most 2N PD_TOL lambda_max) fails the Cholesky
    and is judged by its eigenvalues.
    """
    # Halved in place: one (k, N, N) temporary, not two.
    cov = cov + cov.transpose(0, 2, 1)
    cov /= 2.0
    record = RepairRecord.zeros(len(cov))
    record.converged[:] = True
    ii = np.arange(cov.shape[-1])
    trace = np.trace(cov, axis1=1, axis2=2)
    if np.all(trace > 0.0):
        shifted = cov.copy()
        shifted[:, ii, ii] -= 2.0 * PD_TOL * trace[:, None]
        try:
            np.linalg.cholesky(shifted)
            return cov, record
        except np.linalg.LinAlgError:
            pass
    vals = np.linalg.eigvalsh(cov)
    top = vals[:, -1]
    least = (PD_TOL - cov.shape[-1] * np.finfo(float).eps) * top
    record.repaired = ~((top > 0.0) & (vals[:, 0] >= least))
    bad = np.flatnonzero(record.repaired)
    if not bad.size:
        return cov, record
    m = cov[bad]
    diag = np.diagonal(m, axis1=1, axis2=2)
    # A matrix with a non-positive variance has no correlation form; only its
    # spectrum is floored.
    scalable = np.all(diag > 0.0, axis=1)
    d = np.sqrt(diag[scalable])
    outer = d[:, :, None] * d[:, None, :]
    corr, iterations, converged = _nearest_correlations(m[scalable] / outer)
    m[scalable] = corr * outer
    record.iterations[bad[scalable]] = iterations
    record.converged[bad[scalable]] = converged
    vals, vecs = np.linalg.eigh(m)
    top = vals[:, -1]
    floor = np.where(top > 0.0, PD_TOL * top, PD_TOL)
    m = (vecs * np.clip(vals, floor[:, None], None)[:, None, :]) @ vecs.transpose(0, 2, 1)
    out = cov.copy()
    out[bad] = (m + m.transpose(0, 2, 1)) / 2.0
    return out, record


def nearest_pd(matrix) -> Tuple[np.ndarray, bool]:
    """Repair a symmetric matrix to positive definiteness, if needed: the
    one-matrix case of _repair. Returns (matrix, repaired_flag)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square, got shape %r" % (m.shape,))
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite values")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(scale, 1.0)):
        raise NonSymmetricError("matrix is not symmetric")
    out, record = _repair(m[None])
    return out[0], bool(record.repaired[0])


@dataclass
class CovStack:
    """Covariances of a stack of dates, each field with a leading (D,) axis.

    `correlations` are the sample correlations, or the pairwise local ones,
    before repair. `repair` records each date's PD repair. `fits` holds
    (D, P) arrays of each pair's local fit, pairs in np.triu_indices order
    within a date; the sample covariance fits no pair, so its P is 0. A date
    in `errors` has no estimate: its matrices are zero and its records False
    or 0.
    """

    matrices: np.ndarray  # (D, N, N), repaired to positive definite
    correlations: np.ndarray  # (D, N, N), before repair
    repair: RepairRecord
    errors: Dict[int, LgcportError]
    fits: FitDiagnostics

    @classmethod
    def empty(cls, n_dates: int, n_assets: int, n_pairs: int) -> "CovStack":
        """A stack with no estimate written yet."""
        shape = (n_dates, n_assets, n_assets)
        fits = FitDiagnostics.zeros((n_dates, n_pairs))
        return cls(np.zeros(shape), np.zeros(shape), RepairRecord.zeros(n_dates), {}, fits)

    @property
    def n_fallbacks(self) -> np.ndarray:
        """(D,) number of pairs of each date that fell back."""
        return self.fits.fallback.sum(axis=1)

    def date(self, d: int) -> LocalCovMatrix:
        """The estimate of date d, with the fit of each of its pairs (i, j);
        raises the date's error if it has one."""
        if d in self.errors:
            raise self.errors[d]
        n_pairs = self.fits.fallback.shape[1]
        first, second = (k[:n_pairs].tolist() for k in np.triu_indices(self.matrices.shape[1], 1))
        fits = {pair: self.fits[d, k] for k, pair in enumerate(zip(first, second))}
        repaired = bool(self.repair.repaired[d])
        return LocalCovMatrix(self.matrices[d], repaired, self.correlations[d], fits)


def _as_windows(windows) -> np.ndarray:
    w = np.asarray(windows, dtype=float)
    if w.ndim != 3:
        raise ValueError("windows must have shape (dates, n, N), got %r" % (w.shape,))
    return w


def _ok_dates(n_dates: int, errors) -> np.ndarray:
    """The dates of range(n_dates) without an error in `errors`."""
    return np.flatnonzero(~np.isin(np.arange(n_dates), list(errors)))


def _repair_dates(out: CovStack) -> None:
    """Repair the assembled covariances of the dates of `out` without an
    error in place, in blocks of at most _BLOCK_REPAIR matrix elements (see
    _repair)."""
    ok = _ok_dates(len(out.matrices), out.errors)
    per_block = max(1, _BLOCK_REPAIR // out.matrices.shape[1] ** 2)
    for lo in range(0, ok.size, per_block):
        idx = ok[lo : lo + per_block]
        out.matrices[idx], record = _repair(out.matrices[idx])
        for name, value in vars(record).items():
            getattr(out.repair, name)[idx] = value


def _window_slices(windows, dates: range, errors: dict):
    """Read the windows of the range `dates` of a (D, n, N) stack, n >= 2, a
    slice of at most _BLOCK_PAIR_OBS asset-observations (n x N per date) at
    a time, or one date if a date alone holds more.

    A slice with a non-finite value raises ValueError. Otherwise its
    windows' _window_stats are taken, the error of each date with a flat
    column goes into `errors`, and the slice yields the other dates, their
    windows and their (mean, cross, sd), each with a leading axis of those
    dates.
    """
    n, n_assets = windows.shape[1:]
    per_slice = max(1, _BLOCK_PAIR_OBS // (n * n_assets))
    for lo in range(dates.start, dates.stop, per_slice):
        block = windows[lo : min(lo + per_slice, dates.stop)]
        if not np.all(np.isfinite(block)):
            raise ValueError("sample contains non-finite values")
        mean, cross, sd, failed = _window_stats(block)
        ok = np.arange(len(block))
        if failed:
            errors.update((lo + d, err) for d, err in failed.items())
            ok = np.setdiff1d(ok, list(failed))
            block, mean, cross, sd = block[ok], mean[ok], cross[ok], sd[ok]
        yield lo + ok, block, mean, cross, sd


def global_covariance_stack(windows) -> CovStack:
    """Sample covariance (n-1 denominator) of each (n, N) window of the
    (D, n, N) stack, PD-repaired if needed.

    A date with a flat column (see lgc._window_stats: no spread beyond
    rounding, or a variance that overflows) gets a DegenerateSampleError in
    `errors`, and n < 2 fails every date; a non-finite window raises
    ValueError for the whole stack. The covariances are assembled in slices
    of at most 24,576 observations (n x N per date), or of one date, and
    then repaired in blocks of at most 65,536 matrix elements (N x N per
    date); a date's result does not depend on its slices or blocks.
    """
    w = _as_windows(windows)
    n_dates, n, n_assets = w.shape
    out = CovStack.empty(n_dates, n_assets, 0)
    if n < 2:
        err = InsufficientDataError("covariance needs at least 2 observations")
        out.errors = dict.fromkeys(range(n_dates), err)
        return out
    for idx, _, _, cov, sd in _window_slices(w, range(n_dates), out.errors):
        cov *= 1.0 / (n - 1)
        out.correlations[idx] = cov / (sd[:, :, None] * sd[:, None, :])
        out.matrices[idx] = cov
    _repair_dates(out)
    return out


def global_covariance(panel) -> LocalCovMatrix:
    """Ordinary sample covariance (n-1 denominator), PD-repaired if needed:
    the one-date case of global_covariance_stack, raising the date's error."""
    return global_covariance_stack(_as_matrix(panel)[None]).date(0)


def local_covariance_stack(windows, grids, bandwidth_scale=BANDWIDTH_SCALE) -> CovStack:
    """Assemble an N x N covariance per date from bivariate local fits.

    `windows` is (D, n, N) and `grids` is (D, N): date d is estimated from
    `windows[d]` at `grids[d]`. Each pair (i, j) is fitted at
    (grid[i], grid[j]) with its own plug-in bandwidth, starting from the
    pair's kernel-deconvolved moments, or from its global Gaussian MLE where
    those are no better (lgc._local_starts); the off-diagonal entry is
    rho * sigma_i * sigma_j from that pair's fit, and the diagonal for asset
    i is the mean of its sigma estimates across the N-1 pairs containing i.
    The result is scaled by n/(n - 1) so the wide-bandwidth limit matches the
    n-1 sample covariance, then repaired to positive definiteness. A single
    asset, or a window shorter than 2, gets global_covariance_stack's stack,
    which fits no pair.
    A pair that fit_local_moments marks as a fallback (no local mass, a
    collinear sample, or no convergence) takes its global Gaussian MLE; each
    pair's FitDiagnostics is in `fits`.

    Each date is checked on its own, so a date whose window has no estimate
    (a column with zero variance, say) gets its LgcportError in `errors` and
    leaves the other dates untouched. The dates are fitted in blocks of
    consecutive dates, one Newton pass per block of at most 2,048 pairs (or
    one date if a date alone holds more). A block's windows are read a slice
    of at most 24,576 asset-observations (n x N per date) at a time: one
    centred cross-product per date gives its bandwidths, its errors and the
    pairs' starts, and one set of kernel products its moments (see
    lgc.local_moments_stack). Once every date is assembled, the dates are
    repaired in blocks of their own, of at most 65,536 matrix elements
    (N x N per date). A date's result does not depend on the block, slice or
    repair block it lands in.
    """
    w = _as_windows(windows)
    n_dates, n, n_assets = w.shape
    g = np.asarray(grids, dtype=float)
    if g.shape != (n_dates, n_assets) or not np.all(np.isfinite(g)):
        raise ValueError("grids must hold one finite coordinate per date and asset")
    if not 0.0 < bandwidth_scale < math.inf:
        raise ValueError("scale must be positive and finite, got %g" % bandwidth_scale)
    if n < 2 or n_assets == 1:
        return global_covariance_stack(w)

    n_pairs = n_assets * (n_assets - 1) // 2
    out = CovStack.empty(n_dates, n_assets, n_pairs)
    per_block = max(1, _BLOCK_PAIRS // n_pairs)
    for lo in range(0, n_dates, per_block):
        _fit_block(out, range(lo, min(lo + per_block, n_dates)), w, g, bandwidth_scale)
    _repair_dates(out)
    return out


def _block_moments(dates: range, windows, grids, scale: float, errors: dict):
    """The dates of the range `dates` with an estimate, and the (12, P)
    local moments and (P, 5) global-MLE starts of their pairs, pairs in
    np.triu_indices order within a date; the other dates' errors go into
    `errors`.

    Pair k is pair k % n_pairs of the k // n_pairs-th returned date. The
    windows are read by _window_slices, and only their moments and starts
    are kept.
    """
    n = windows.shape[1]
    kept, moments, starts = [], [], []
    for idx, block, mean, cross, sd in _window_slices(windows, dates, errors):
        kept.append(idx)
        starts.append(_mle_starts(mean, cross, n).reshape(-1, 5))
        moments.append(local_moments_stack(block, grids[idx], scale * sd).reshape(12, -1))
    return np.concatenate(kept), np.concatenate(moments, axis=1), np.concatenate(starts)


def _fit_block(out: CovStack, dates: range, windows, grids, scale: float) -> None:
    """Fit every pair of the dates `dates` in one Newton pass and write the
    dates' estimates, or their errors, into `out`, the covariances before
    repair (see local_covariance_stack)."""
    idx, moments, mle = _block_moments(dates, windows, grids, scale, out.errors)
    if not idx.size:
        return
    n_dates, n, n_assets = len(idx), windows.shape[1], windows.shape[2]
    first, second = np.triu_indices(n_assets, 1)
    params, fits = fit_local_moments(moments, _local_starts(moments, mle))
    params = np.where(fits.fallback[:, None], mle, params).reshape(n_dates, -1, 5)
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

    out.matrices[idx] = cov
    out.correlations[idx] = corr
    for name, value in vars(fits).items():
        getattr(out.fits, name)[idx] = value.reshape(n_dates, -1)


def pairwise_local_covariance(panel, grid, bandwidth_scale=BANDWIDTH_SCALE) -> LocalCovMatrix:
    """The local covariance of one (n, N) window at one grid point.

    This is the one-date case of local_covariance_stack: an error the stack
    would record for the date is raised, and each pair's fit is reported in
    `pair_diagnostics`.
    """
    grids = np.asarray(grid, dtype=float).reshape(1, -1)
    return local_covariance_stack(_as_matrix(panel)[None], grids, bandwidth_scale).date(0)


def moving_grid(panel, t, lookback: int = 3) -> np.ndarray:
    """Grid point for month index t: per-asset mean of the `lookback` prior
    months. `t` may be an array of month indices, one grid row each."""
    x = _as_matrix(panel)
    if lookback < 1:
        raise ValueError("lookback must be at least 1")
    t = np.asarray(t)
    outside = t[(t < lookback) | (t > x.shape[0])]
    if outside.size:
        raise IndexError("month index %d outside [%d, %d]" % (outside[0], lookback, x.shape[0]))
    return sliding_window_view(x, lookback, axis=0)[t - lookback].mean(axis=-1)


def percentile_grid(panel, q: float) -> np.ndarray:
    """Per-asset empirical quantile grid (linear interpolation) of an (n, N)
    panel, or of each window of a (D, n, N) stack."""
    x = _as_windows(panel) if np.ndim(panel) == 3 else _as_matrix(panel)
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie in (0, 1), got %g" % q)
    # The tail is counted in observations: 1 / q overflows for a subnormal q.
    tail = x.shape[-2] * min(q, 1.0 - q)
    if tail < 1.0:
        raise InsufficientDataError(
            "%d observations put %g in the tail of quantile %g, need at least 1"
            % (x.shape[-2], tail, q)
        )
    return np.quantile(x, q, axis=-2)
