"""Local bivariate Gaussian fits via kernel-weighted log-likelihood.

A five-parameter Gaussian family is fitted at a grid point r by maximizing

    L(theta) = n^-1 sum_i K_b(R_i - r) log psi(R_i; theta) - int K_b(v - r) psi(v; theta) dv

where K_b is a product Gaussian kernel and psi the bivariate normal density.
The integral term has a closed form (Gaussian convolution), and the data term
depends on the sample only through its kernel-weighted mean and covariance.
So each pair's objective is a pair of 2 x 2 Gaussian forms in its five
parameters, whose value, gradient and Hessian are written out elementwise
over (P,) arrays of pairs; a Hessian is kept as its 15 distinct entries.

Every statistic of a whole window comes from one reader, _window_stats: the
column means, the centred cross-product X_c' X_c, the sample sds and the
verdict on flat columns. The sample covariance, plugin_bandwidth and
global_gaussian_mle (the start of every local fit) are read from it.

Many pairs are fitted at once in two stages. local_moments_stack reduces
each window of assets to the moments of all its pairs: the kernel weight of
pair (i, j) is the product of one factor per asset, so every kernel-weighted
sum over the window is an entry of a few matrix products per date. Then
fit_local_moments runs a damped Newton iteration on the moments alone. Its
step comes from a vectorized 5 x 5 LDL' factorization, with an
eigenvalue-modified step (a Gill-Murray-style modified Newton method) as the
fallback where the Hessian is indefinite or nearly singular.
estimate_local_params is the one-pair case: a two-asset window.

How each fit went is one FitDiagnostics record, of one pair or of arrays
over pairs, and fit_local_moments alone decides which pairs fall back to
their global Gaussian MLE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DegenerateSampleError,
    InsufficientLocalDataError,
    NonConvergenceError,
)

_LOG_2PI = math.log(2.0 * math.pi)

# The method's one tuning parameter: plug-in bandwidths are this multiple of each sd.
BANDWIDTH_SCALE = 1.1

# Convergence contract for estimate_local_params.
GRADIENT_TOL = 1e-6
MAX_ITERATIONS = 200
WEIGHT_FLOOR = 1e-8

# Reparameterization clips: |atanh(rho)| <= 18 keeps 1 - rho^2 representable,
# |log sigma| <= 100 keeps every likelihood term finite.
_ATANH_CLIP = 18.0
_LOG_SIGMA_CLIP = 100.0

# Correlation cap for degenerate (perfectly dependent) samples.
_RHO_CAP = 1.0 - 1e-9


@dataclass(frozen=True)
class LocalParams:
    """Parameters (mu1, mu2, sigma1, sigma2, rho) of a local Gaussian fit."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        vals = (self.mu1, self.mu2, self.sigma1, self.sigma2, self.rho)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("local parameters must be finite, got %r" % (vals,))
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise ValueError(
                "standard deviations must be positive, got (%g, %g)"
                % (self.sigma1, self.sigma2)
            )
        if abs(self.rho) >= 1.0:
            raise ValueError("correlation must lie strictly in (-1, 1), got %g" % self.rho)

    def as_array(self) -> np.ndarray:
        return np.array([self.mu1, self.mu2, self.sigma1, self.sigma2, self.rho])

    @classmethod
    def from_array(cls, arr) -> "LocalParams":
        a = np.asarray(arr, dtype=float)
        if a.shape != (5,):
            raise ValueError("expected 5 parameters, got shape %r" % (a.shape,))
        return cls(*(float(v) for v in a))


@dataclass
class FitDiagnostics:
    """How the local fit of one pair went, or arrays of it over pairs: (P,)
    from fit_local_moments, (D, P) in a LocalCovStack. Indexing an array
    record at one pair gives that pair's record, with Python scalars."""

    converged: bool
    iterations: int  # Newton steps
    gradient_norm: float
    effective_weight: float
    fallback: bool = False

    @classmethod
    def zeros(cls, shape) -> "FitDiagnostics":
        """A record of arrays of `shape`, every value False or 0."""
        return cls(*(np.zeros(shape, f.type) for f in fields(cls)))

    def __getitem__(self, index) -> "FitDiagnostics":
        return FitDiagnostics(**{name: value[index].item() for name, value in vars(self).items()})


def _as_sample(sample) -> np.ndarray:
    """Validate and return the sample as an (n, 2) float array."""
    s = np.asarray(sample, dtype=float)
    if s.ndim != 2 or s.shape[1] != 2:
        raise ValueError("sample must have shape (n, 2), got %r" % (s.shape,))
    if s.shape[0] < 1:
        raise ValueError("sample must be nonempty")
    if not np.all(np.isfinite(s)):
        raise ValueError("sample contains non-finite values")
    return s


def _check_point(r) -> Tuple[float, float]:
    p = np.asarray(r, dtype=float).reshape(-1)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise ValueError("grid point must be a finite pair, got %r" % (r,))
    return float(p[0]), float(p[1])


def _check_bandwidth(b) -> Tuple[float, float]:
    p = np.asarray(b, dtype=float).reshape(-1)
    if p.shape != (2,) or not np.all(np.isfinite(p)) or p[0] <= 0.0 or p[1] <= 0.0:
        raise ValueError("bandwidth must be a pair of positive reals, got %r" % (b,))
    return float(p[0]), float(p[1])


def gaussian_kernel_weight(obs, r, b):
    """Product Gaussian kernel (b1 b2)^-1 phi((o1-r1)/b1) phi((o2-r2)/b2).

    `obs` may be a single pair or an (n, 2) array; the return value is a
    float or an (n,) vector accordingly.
    """
    b1, b2 = _check_bandwidth(b)
    r1, r2 = _check_point(r)
    o = np.asarray(obs, dtype=float)
    scalar = o.ndim == 1
    o = np.atleast_2d(o)
    z1 = (o[:, 0] - r1) / b1
    z2 = (o[:, 1] - r2) / b2
    val = np.exp(-0.5 * (z1 * z1 + z2 * z2)) / (2.0 * np.pi * b1 * b2)
    return float(val[0]) if scalar else val


def _log_density(x, y, theta: LocalParams):
    """Log of the bivariate normal density, vectorized over observations."""
    q = 1.0 - theta.rho * theta.rho
    z1 = (x - theta.mu1) / theta.sigma1
    z2 = (y - theta.mu2) / theta.sigma2
    quad = z1 * z1 - 2.0 * theta.rho * z1 * z2 + z2 * z2
    return (
        -_LOG_2PI
        - math.log(theta.sigma1)
        - math.log(theta.sigma2)
        - 0.5 * math.log(q)
        - 0.5 * quad / q
    )


def bivariate_normal_density(v, theta: LocalParams):
    """Density psi(v; theta) for a single pair or an (n, 2) array."""
    o = np.asarray(v, dtype=float)
    scalar = o.ndim == 1
    o = np.atleast_2d(o)
    out = np.exp(_log_density(o[:, 0], o[:, 1], theta))
    return float(out[0]) if scalar else out


def _penalty_terms(r, b, theta: LocalParams):
    """V = Sigma_theta + diag(b^2) as (v11, v22, v12, det), d = r - mu, and the penalty."""
    b1, b2 = _check_bandwidth(b)
    r1, r2 = _check_point(r)
    s1, s2, rho = theta.sigma1, theta.sigma2, theta.rho
    v11 = s1 * s1 + b1 * b1
    v22 = s2 * s2 + b2 * b2
    v12 = rho * s1 * s2
    det = v11 * v22 - v12 * v12
    d1 = r1 - theta.mu1
    d2 = r2 - theta.mu2
    quad = (v22 * d1 * d1 - 2.0 * v12 * d1 * d2 + v11 * d2 * d2) / det
    p = math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))
    return v11, v22, v12, det, d1, d2, p


def penalty_integral(r, b, theta: LocalParams) -> float:
    """Closed form of int K_b(v - r) psi(v; theta) dv.

    The kernel is itself a Gaussian density in v centered at r with
    covariance diag(b1^2, b2^2), so the integral is the convolution value:
    a bivariate normal with covariance Sigma_theta + diag(b^2) evaluated at r.
    """
    return _penalty_terms(r, b, theta)[-1]


def _penalty_gradient(r, b, theta: LocalParams) -> np.ndarray:
    """Gradient of penalty_integral with respect to (mu1, mu2, s1, s2, rho)."""
    s1, s2, rho = theta.sigma1, theta.sigma2, theta.rho
    v11, v22, v12, det, d1, d2, p = _penalty_terms(r, b, theta)

    # Precision matrix entries.
    i11 = v22 / det
    i22 = v11 / det
    i12 = -v12 / det
    # e = S^-1 d, with d = r - mu.
    e1 = i11 * d1 + i12 * d2
    e2 = i12 * d1 + i22 * d2

    grad = np.empty(5)
    grad[0] = p * e1
    grad[1] = p * e2

    # d log p / d param = 0.5 * (e' dS e - tr(S^-1 dS)) for covariance params.
    def _quad_term(a11, a12, a22):
        quad = e1 * e1 * a11 + 2.0 * e1 * e2 * a12 + e2 * e2 * a22
        trace = i11 * a11 + 2.0 * i12 * a12 + i22 * a22
        return 0.5 * p * (quad - trace)

    grad[2] = _quad_term(2.0 * s1, rho * s2, 0.0)
    grad[3] = _quad_term(0.0, rho * s1, 2.0 * s2)
    grad[4] = _quad_term(0.0, s1 * s2, 0.0)
    return grad


def local_loglik(sample, r, b, theta: LocalParams) -> float:
    """Kernel-weighted local log-likelihood at grid point r."""
    s = _as_sample(sample)
    w = gaussian_kernel_weight(s, r, b)
    logpsi = _log_density(s[:, 0], s[:, 1], theta)
    return float(w @ logpsi / s.shape[0] - penalty_integral(r, b, theta))


def local_score(sample, r, b, theta: LocalParams) -> np.ndarray:
    """Analytic gradient of local_loglik with respect to theta."""
    s = _as_sample(sample)
    n = s.shape[0]
    w = gaussian_kernel_weight(s, r, b)
    s1, s2, rho = theta.sigma1, theta.sigma2, theta.rho
    q = 1.0 - rho * rho
    z1 = (s[:, 0] - theta.mu1) / s1
    z2 = (s[:, 1] - theta.mu2) / s2

    u1 = (z1 - rho * z2) / (s1 * q)
    u2 = (z2 - rho * z1) / (s2 * q)
    u3 = (z1 * (z1 - rho * z2) / q - 1.0) / s1
    u4 = (z2 * (z2 - rho * z1) / q - 1.0) / s2
    quad = z1 * z1 - 2.0 * rho * z1 * z2 + z2 * z2
    u5 = rho / q + (z1 * z2 * q - rho * quad) / (q * q)

    data = np.array([w @ u1, w @ u2, w @ u3, w @ u4, w @ u5]) / n
    return data - _penalty_gradient(r, b, theta)


def plugin_bandwidth(sample, scale: float = BANDWIDTH_SCALE) -> Tuple[float, ...]:
    """Plug-in bandwidth: `scale` times each column's sample sd (n-1 denominator).

    `sample` is (n, 2) for one pair, giving (b1, b2), or (n, k) for k assets
    at once, giving one bandwidth per asset: the bandwidths that
    local_covariance_stack gives a window's assets. A flat column (see
    _window_stats) raises its DegenerateSampleError.
    """
    s = np.asarray(sample, dtype=float)
    if s.ndim != 2 or s.shape[1] < 1:
        raise ValueError("sample must have shape (n, k), got %r" % (s.shape,))
    if s.shape[0] < 2:
        raise ValueError("bandwidth needs at least 2 observations")
    if not np.all(np.isfinite(s)):
        raise ValueError("sample contains non-finite values")
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite, got %g" % scale)
    _, _, sd, errors = _window_stats(s[None])
    if errors:
        raise errors[0]
    return tuple(float(v) for v in scale * sd[0])


def _flat_columns(sd, mean, n: int) -> np.ndarray:
    """Where a column of n observations has no usable spread: its computed
    standard deviation `sd` is not finite, or at most n * eps * |mean|.

    A constant column's mean is rarely exact, so its computed sd is rounding
    of order eps * |mean|, not zero: by _window_stats, as by np.std, at most
    0.31 * n * eps * |mean| in 6,000 random draws with n <= 600 and |mean|
    log-uniform in [1e-6, 1e6] (0.23 with |mean| uniform there).
    """
    return ~(np.isfinite(sd) & (sd > n * np.finfo(float).eps * np.abs(mean)))


def _window_stats(windows: np.ndarray):
    """The statistics of each (n, N) window of a finite (D, n, N) stack,
    n >= 2, that the sample covariance, the plug-in bandwidths and the
    Gaussian MLEs are read from.

    Returns the (D, N) column means, the (D, N, N) centred cross-products
    X_c' X_c, the (D, N) sample sds (n-1 denominator) and
    {d: DegenerateSampleError} for the windows with a flat column (see
    _flat_columns), one message for a zero variance and one for a variance
    that is not finite. cross * (1 / (n - 1)) is the sample covariance,
    rounded as np.cov rounds it.
    """
    n = windows.shape[1]
    mean = windows.mean(axis=1)
    centred = windows - mean[:, None, :]
    cross = centred.transpose(0, 2, 1) @ centred
    sd = np.sqrt(np.diagonal(cross, axis1=1, axis2=2) * (1.0 / (n - 1)))
    errors = {}
    for d in np.flatnonzero(np.any(_flat_columns(sd, mean, n), axis=1)):
        finite = np.all(np.isfinite(sd[d]))
        errors[int(d)] = DegenerateSampleError(
            "a column has zero variance" if finite else "a column's variance is not finite"
        )
    return mean, cross, sd, errors


def _mle_starts(mean, cross, n: int) -> np.ndarray:
    """Unweighted Gaussian MLEs of every pair of each window of a stack of
    windows of n >= 2 observations, from their _window_stats, correlation
    capped below 1.

    Returns (D, P, 5) parameters (mu1, mu2, sigma1, sigma2, rho), pairs in
    np.triu_indices order; a constant column gives a sigma of rounding size
    (see _flat_columns) and a meaningless rho.
    """
    first, second = np.triu_indices(mean.shape[1], 1)
    var = np.diagonal(cross, axis1=1, axis2=2) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = cross[:, first, second] / n / np.sqrt(var[:, first] * var[:, second])
    rho = np.clip(rho, -_RHO_CAP, _RHO_CAP)
    sd = np.sqrt(var)
    return np.stack([mean[:, first], mean[:, second], sd[:, first], sd[:, second], rho], axis=-1)


def global_gaussian_mle(sample) -> LocalParams:
    """Unweighted Gaussian MLE of a bivariate sample, correlation capped below 1:
    the start that local_covariance_stack gives the pair. A flat column (see
    _window_stats) raises its DegenerateSampleError.
    """
    s = _as_sample(sample)
    if s.shape[0] < 2:
        raise ValueError("MLE needs at least 2 observations")
    mean, cross, _, errors = _window_stats(s[None])
    if errors:
        raise errors[0]
    return LocalParams.from_array(_mle_starts(mean, cross, s.shape[0])[0, 0])


# Newton solver settings: Armijo sufficient-decrease constant, step halvings
# before a line search gives up, and the relative floor on the magnitudes of
# Hessian eigenvalues in the modified Newton step.
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 40
_EIGEN_FLOOR = 1e-8

# Upper clip of |eta| per coordinate of (mu1, mu2, log s1, log s2, atanh rho).
_ETA_CLIP = np.array([np.inf, np.inf, _LOG_SIGMA_CLIP, _LOG_SIGMA_CLIP, _ATANH_CLIP])

# A symmetric 5 x 5 matrix per pair is stored as its 15 distinct entries, one
# (P,) row each, in np.triu_indices(5) order; entry (i, j) is row _PACKED[i][j].
_ROW, _COL = np.triu_indices(5)
_PACKED = np.zeros((5, 5), dtype=int)
_PACKED[_ROW, _COL] = _PACKED[_COL, _ROW] = np.arange(15)
_PACKED = _PACKED.tolist()


def _to_eta(theta: np.ndarray) -> np.ndarray:
    """(P, 5) parameters (mu1, mu2, s1, s2, rho) to clipped search coordinates."""
    eta = np.array(theta, dtype=float)
    eta[:, 2:4] = np.log(eta[:, 2:4])
    eta[:, 4] = np.arctanh(eta[:, 4])
    return np.clip(eta, -_ETA_CLIP, _ETA_CLIP)


def _from_eta(eta: np.ndarray) -> np.ndarray:
    """(P, 5) search coordinates, clipped, back to (mu1, mu2, s1, s2, rho)."""
    eta = np.clip(eta, -_ETA_CLIP, _ETA_CLIP)
    theta = eta.copy()
    theta[:, 2:4] = np.exp(eta[:, 2:4])
    theta[:, 4] = np.tanh(eta[:, 4])
    return theta


def _full_hessian(packed: np.ndarray) -> np.ndarray:
    """(15, P) packed rows to the (P, 5, 5) matrices."""
    return np.moveaxis(packed[np.array(_PACKED)], -1, 0)


def _pair_moments(windows, grids, bandwidths, centres=None):
    """Kernel mass, weighted means and weighted covariances of every pair of
    each window: six (D, P) arrays (mass, c1, c2, s11, s22, s12), pairs in
    np.triu_indices order.

    The kernel factor of asset i is k_i = exp(-z^2 / 2), z = (x_i - r_i) / b_i,
    for the (D, N) `grids` r and `bandwidths` b; pair (i, j) weighs its
    observations by k_i k_j, and its mass is their sum. With X~ = X - m for
    the (D, N) `centres` m (the grid points if None) and K the (n, N)
    factors of a window, each sum is an entry of K'K, (K o X~)'K,
    (K o X~^2)'K or (K o X~)'(K o X~): pair (i, j) reads entries [i, j] and
    [j, i]. The covariance is the second moment about m less the outer
    product of c - m, so it carries a rounding error of about eps |c - m|^2.
    """
    first, second = np.triu_indices(windows.shape[2], 1)
    shifted = windows - grids[:, None, :]
    # K, K o X~ and K o X~^2, so that one broadcast product takes the sums.
    factors = np.empty((3,) + shifted.shape)
    k, kx = factors[0], factors[1]
    np.divide(shifted, bandwidths[:, None, :], out=k)
    k *= k
    k *= -0.5
    np.exp(k, out=k)
    if centres is None:
        centres = grids
    else:
        shifted = windows - centres[:, None, :]
    np.multiply(k, shifted, out=kx)
    np.multiply(kx, shifted, out=factors[2])
    del shifted
    mass, lin, sq = factors.transpose(0, 1, 3, 2) @ k
    mass = mass[:, first, second]
    # A pair without local mass has no moments: they are not finite.
    with np.errstate(divide="ignore", invalid="ignore"):
        mean1 = lin[:, first, second] / mass
        mean2 = lin[:, second, first] / mass
        s11 = sq[:, first, second] / mass - mean1 * mean1
        s22 = sq[:, second, first] / mass - mean2 * mean2
        s12 = (kx.transpose(0, 2, 1) @ kx)[:, first, second] / mass - mean1 * mean2
    return mass, mean1 + centres[:, first], mean2 + centres[:, second], s11, s22, s12


# A pair whose local variance is below 1 / _RESUM_RATIO of its squared
# distance from the grid point to the local mean is summed again (see
# local_moments_stack). Over every fit of c11, tail_wide and a 48-asset
# panel that ratio is at most 3.3.
_RESUM_RATIO = 1e3


def local_moments_stack(windows: np.ndarray, grids: np.ndarray, bandwidths: np.ndarray):
    """Kernel-weighted moments of every pair of each window: the sample
    statistics of their local fits.

    `windows` is a validated (D, n, N) stack, `grids` and `bandwidths` (D, N)
    grid points and positive bandwidths, one per asset. Returns a (12, D, P)
    array, pairs (i, j) in np.triu_indices order, whose rows are
        0-1  kernel-weighted mean (c1, c2)
        2-4  kernel-weighted covariance (s11, s22, s12)
        5-6  grid point (r1, r2)
        7-8  squared bandwidths (b1^2, b2^2)
        9    mean kernel weight wbar
        10   effective weight, the sum of the kernel values
        11   scale-free local mass, the mean kernel value without its
             normalizing constant
    The local likelihood depends on the sample only through rows 0-9, so
    every objective evaluation costs O(1) per pair instead of O(n).

    The moments are summed about the grid point, for all pairs at once (see
    _pair_moments). Where the local variance of a pair with local mass (row
    11 at least WEIGHT_FLOOR) is small beside |c - r|^2, that subtraction
    has lost digits, and the pair is summed again, as a two-asset window,
    about its observation of largest kernel weight: so a window whose mass
    sits on one observation has its variance to rounding, as a two-pass sum
    would. A variance that still rounds below 0 is 0. Each pair's moments
    depend only on its own window.
    """
    n, n_assets = windows.shape[1:]
    first, second = np.triu_indices(n_assets, 1)
    r, b = grids, bandwidths
    mass, c1, c2, s11, s22, s12 = _pair_moments(windows, r, b)
    shift1, shift2 = c1 - r[:, first], c2 - r[:, second]
    d, p = np.nonzero(
        (mass / n >= WEIGHT_FLOOR)
        & ((_RESUM_RATIO * s11 < shift1 * shift1) | (_RESUM_RATIO * s22 < shift2 * shift2))
    )
    if d.size:
        i, j = first[p], second[p]
        pairs = np.stack([windows[d, :, i], windows[d, :, j]], axis=2)
        pair_r, pair_b = np.column_stack([r[d, i], r[d, j]]), np.column_stack([b[d, i], b[d, j]])
        # The observation of largest kernel weight, an exact centre near c.
        z = (pairs - pair_r[:, None, :]) / pair_b[:, None, :]
        top = np.argmin((z * z).sum(axis=2), axis=1)
        again = _pair_moments(pairs, pair_r, pair_b, pairs[np.arange(d.size), top])
        for moment, value in zip((c1, c2, s11, s22, s12), again[1:]):
            moment[d, p] = value[:, 0]
    norm = 2.0 * np.pi * b[:, first] * b[:, second]
    effective_weight = mass / norm
    return np.array([
        c1, c2, np.maximum(s11, 0.0), np.maximum(s22, 0.0), s12,
        r[:, first], r[:, second], b[:, first] ** 2, b[:, second] ** 2,
        effective_weight / n, effective_weight, mass / n,
    ])


def _gaussian_form(va, vb, vc, d1, d2, s=None, hessian: bool = False):
    """T = 0.5 log det V + 0.5 d' V^-1 d + 0.5 tr(V^-1 S) per pair, and for
    `hessian` its gradient (5, P) and packed Hessian (15, P) over
    x = (mu1, mu2, va, vb, vc).

    V = [[va, vc], [vc, vb]], d = c - mu for a constant c, and S = (s11, s22,
    s12) is a constant symmetric matrix, zero if None. With
    U = V^-1 = [[p11, p12], [p12, p22]], e = U d, Q = U (d d' + S) U and V_k
    the derivative of V in va, vb or vc:
        dT/dmu = -e,   dT/dV_k = 0.5 tr(U V_k) - 0.5 tr(Q V_k),
        d2T/dmu dmu' = U,   d2T/dmu dV_k = U V_k e,
        d2T/dV_k dV_l = -0.5 tr(U V_k U V_l) + tr(U V_k Q V_l)  (symmetrized).
    """
    det = va * vb - vc * vc
    p11, p22, p12 = vb / det, va / det, -vc / det
    e1 = p11 * d1 + p12 * d2
    e2 = p12 * d1 + p22 * d2
    value = 0.5 * np.log(det) + 0.5 * (d1 * e1 + d2 * e2)
    if s is not None:
        s11, s22, s12 = s
        value += 0.5 * (p11 * s11 + p22 * s22 + 2.0 * p12 * s12)
    if not hessian:
        return value
    q11, q22, q12 = e1 * e1, e2 * e2, e1 * e2
    if s is not None:
        # (U S)_11, (U S)_12, (U S)_21, (U S)_22, then Q += (U S) U.
        a11, a12 = p11 * s11 + p12 * s12, p11 * s12 + p12 * s22
        a21, a22 = p12 * s11 + p22 * s12, p12 * s12 + p22 * s22
        q11 += a11 * p11 + a12 * p12
        q22 += a21 * p12 + a22 * p22
        q12 += a11 * p12 + a12 * p22
    # The outputs are filled a row at a time, so at most a few (P,)
    # temporaries live beside them.
    grad = np.empty((5,) + e1.shape)
    grad[0], grad[1] = -e1, -e2
    grad[2], grad[3], grad[4] = 0.5 * (p11 - q11), 0.5 * (p22 - q22), p12 - q12
    hess = np.empty((15,) + e1.shape)
    hess[0], hess[1], hess[5] = p11, p12, p22
    hess[2], hess[3], hess[4] = p11 * e1, p12 * e2, p11 * e2 + p12 * e1
    hess[6], hess[7], hess[8] = p12 * e1, p22 * e2, p12 * e2 + p22 * e1
    hess[9] = p11 * (q11 - 0.5 * p11)
    hess[10] = p12 * (q12 - 0.5 * p12)
    hess[11] = p12 * q11 + p11 * q12 - p11 * p12
    hess[12] = p22 * (q22 - 0.5 * p22)
    hess[13] = p12 * q22 + p22 * q12 - p22 * p12
    hess[14] = 2.0 * p12 * q12 + p22 * q11 + p11 * q22 - p12 * p12 - p11 * p22
    return value, grad, hess


def _chain(grad, hess, va, vb, vc, dvc, rho):
    """Gradient and packed Hessian over x = (mu1, mu2, va, vb, vc) to eta.

    va = exp(2 l1), vb = exp(2 l2) and vc = tanh(a) exp(l1 + l2) in
    eta = (mu1, mu2, l1, l2, a), with dvc = d vc / d a. The Jacobian columns
    of (va, vb, vc) over (l1, l2, a) are (2 va, 0, vc), (0, 2 vb, vc) and
    (0, 0, dvc); their second derivatives add the gradient terms.
    """
    g1, g2, ga, gb, gc = grad
    h = [[hess[_PACKED[i][j]] for j in range(5)] for i in range(5)]

    def hj(k):
        """Row k of H J, over (l1, l2, a)."""
        return 2.0 * va * h[k][2] + vc * h[k][4], 2.0 * vb * h[k][3] + vc * h[k][4], dvc * h[k][4]

    vc_gc, dvc_gc = vc * gc, dvc * gc
    out_grad = np.empty_like(grad)
    out_grad[0], out_grad[1], out_grad[4] = g1, g2, dvc_gc
    out_grad[2], out_grad[3] = 2.0 * va * ga + vc_gc, 2.0 * vb * gb + vc_gc
    out = np.empty_like(hess)
    out[0], out[1], out[5] = h[0][0], h[0][1], h[1][1]
    out[2], out[3], out[4] = hj(0)
    out[6], out[7], out[8] = hj(1)
    ua, ub, uc = hj(2), hj(3), hj(4)
    out[9] = 2.0 * va * ua[0] + vc * uc[0] + 4.0 * va * ga + vc_gc
    out[10] = 2.0 * va * ua[1] + vc * uc[1] + vc_gc
    out[11] = 2.0 * va * ua[2] + vc * uc[2] + dvc_gc
    out[12] = 2.0 * vb * ub[1] + vc * uc[1] + 4.0 * vb * gb + vc_gc
    out[13] = 2.0 * vb * ub[2] + vc * uc[2] + dvc_gc
    out[14] = dvc * uc[2] - 2.0 * rho * dvc_gc
    return out_grad, out


def _objective(mom: np.ndarray, eta: np.ndarray, hessian: bool = False):
    """F(eta) = -local_loglik / wbar per pair, and for `hessian` its gradient
    (5, P) and packed Hessian (15, P).

    `mom` holds local_moments_stack rows (at least rows 0-9), one column per
    pair, and `eta` is (5, P).
    With Sigma = [[va, vc], [vc, vb]] and B = diag(b1^2, b2^2),
        F = log(2 pi) + T(Sigma, c - mu, S) + exp(-log(2 pi) - T(Sigma + B, r - mu)) / wbar
    where T is _gaussian_form: the first part is the weighted Gaussian
    log-likelihood at the local moments, the second the closed-form penalty.
    """
    c1, c2, s11, s22, s12, r1, r2, k11, k22, wbar = mom[:10]
    mu1, mu2, l1, l2, a = eta
    s1, s2, rho = np.exp(l1), np.exp(l2), np.tanh(a)
    va, vb, vc = s1 * s1, s2 * s2, rho * s1 * s2
    data = _gaussian_form(va, vb, vc, c1 - mu1, c2 - mu2, (s11, s22, s12), hessian)
    pen = _gaussian_form(va + k11, vb + k22, vc, r1 - mu1, r2 - mu2, None, hessian)
    if not hessian:
        return _LOG_2PI + data + np.exp(-_LOG_2PI - pen) / wbar
    (value, grad, hess), (pen_value, pen_grad, pen_hess) = data, pen
    # The penalty's Hessian rows are freed before the chain rule allocates
    # the output's.
    del data, pen
    penalty = np.exp(-_LOG_2PI - pen_value) / wbar
    value = _LOG_2PI + value + penalty
    grad -= penalty * pen_grad
    # hess + penalty (g g' - H) for the penalty's gradient g and Hessian H.
    for k, (i, j) in enumerate(zip(_ROW, _COL)):
        pen_hess[k] -= pen_grad[i] * pen_grad[j]
    pen_hess *= penalty
    hess -= pen_hess
    del pen_hess
    return (value,) + _chain(grad, hess, va, vb, vc, s1 * s2 / np.cosh(a) ** 2, rho)


def _freeze_clipped(eta, grad, hess):
    """Zero the gradient and decouple the Hessian in coordinates at their clip."""
    at_clip = np.abs(eta) >= _ETA_CLIP[:, None]
    if not at_clip.any():
        return grad, hess
    grad = np.where(at_clip, 0.0, grad)
    diagonal = (_ROW == _COL)[:, None].astype(float)
    hess = np.where(at_clip[_ROW] | at_clip[_COL], diagonal, hess)
    return grad, hess


def _eigen_direction(grad, hess):
    """Modified Newton step -H'^-1 g for (P, 5) gradients and (P, 5, 5)
    Hessians, with each eigenvalue l of H replaced by
    max(|l|, _EIGEN_FLOOR * max|l|), so the step descends where H is indefinite."""
    lam, vec = np.linalg.eigh(hess)
    mag = np.abs(lam)
    mag = np.maximum(mag, _EIGEN_FLOOR * mag.max(axis=1, keepdims=True))
    coef = np.einsum("pji,pj->pi", vec, grad) / mag
    return -np.einsum("pij,pj->pi", vec, coef)


def _newton_direction(grad, hess):
    """The modified Newton step of _eigen_direction for a (5, P) gradient and
    a (15, P) packed Hessian, returned as (5, P).

    A 5 x 5 LDL' factorization runs on the packed rows. Where every pivot is
    positive and tr(H) tr(H^-1) <= 1 / _EIGEN_FLOOR (so every eigenvalue is
    at least _EIGEN_FLOOR times the largest, and the modification would
    leave H as it is), the step is the plain Newton step -H^-1 g from the
    factors. The other pairs, indefinite or nearly singular, go through
    _eigen_direction.
    """
    h = [[hess[_PACKED[i][j]] for j in range(5)] for i in range(5)]
    low = [[None] * 5 for _ in range(5)]
    pivots = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(5):
            scaled = [low[j][k] * pivots[k] for k in range(j)]
            pivots.append(h[j][j] - sum(low[j][k] * scaled[k] for k in range(j)))
            for i in range(j + 1, 5):
                low[i][j] = (h[i][j] - sum(low[i][k] * scaled[k] for k in range(j))) / pivots[j]
        # tr(H^-1) = sum_k |row k of L^-1|^2 / d_k, with L^-1 unit lower triangular.
        inv = [[None] * 5 for _ in range(5)]
        inv_trace = 1.0 / pivots[0]
        for i in range(1, 5):
            for j in range(i):
                inv[i][j] = -low[i][j] - sum(low[i][k] * inv[k][j] for k in range(j + 1, i))
            inv_trace = inv_trace + (1.0 + sum(v * v for v in inv[i][:i])) / pivots[i]
        del inv
        trace = h[0][0] + h[1][1] + h[2][2] + h[3][3] + h[4][4]
        plain = np.all(np.array(pivots) > 0.0, axis=0) & (trace * inv_trace * _EIGEN_FLOOR <= 1.0)
        # Forward substitution, the pivots, back substitution.
        step = np.empty_like(grad)
        for i in range(5):
            step[i] = -grad[i] - sum(low[i][k] * step[k] for k in range(i))
        for i in reversed(range(5)):
            step[i] = step[i] / pivots[i] - sum(low[k][i] * step[k] for k in range(i + 1, 5))
    bad = np.flatnonzero(~plain)
    if bad.size:
        step[:, bad] = _eigen_direction(grad[:, bad].T, _full_hessian(hess[:, bad])).T
    return step


def _line_search(mom, eta, value, grad, step):
    """Backtracking (Armijo) search along `step` from clipped trial points.

    `eta`, `grad` and `step` are (5, P). Returns the new points and a mask of
    the pairs whose search succeeded; a non-finite trial objective counts as
    a rejected step.
    """
    clip = _ETA_CLIP[:, None]
    slope = (grad * step).sum(axis=0)
    t = np.ones(eta.shape[1])
    new = eta.copy()
    accepted = np.zeros(eta.shape[1], dtype=bool)
    todo = np.arange(eta.shape[1])
    for _ in range(_MAX_BACKTRACKS):
        trial = np.clip(eta[:, todo] + t[todo] * step[:, todo], -clip, clip)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f = _objective(mom[:, todo], trial)
        ok = np.isfinite(f) & (f <= value[todo] + _ARMIJO_C * t[todo] * slope[todo])
        new[:, todo[ok]] = trial[:, ok]
        accepted[todo[ok]] = True
        todo = todo[~ok]
        if not todo.size:
            break
        t[todo] *= 0.5
    return new, accepted


def fit_local_moments(moments: np.ndarray, theta0: np.ndarray) -> Tuple[np.ndarray, FitDiagnostics]:
    """Maximize the local log-likelihood of P pairs given their (12, P)
    local_moments_stack rows, from (P, 5) starting parameters `theta0`;
    returns the (P, 5) parameters and the pairs' FitDiagnostics.

    Pairs whose scale-free local mass is below WEIGHT_FLOOR, and pairs
    whose kernel-weighted sample correlation reaches the cap +-(1 - 1e-9)
    or is not a number, are not fitted (iterations 0, gradient norm inf,
    their start as parameters). The others run a modified Newton iteration
    with an analytic Hessian and an Armijo line search in (mu1, mu2, log
    sigma1, log sigma2, atanh rho), and converge once the max-norm of the
    wbar-normalized gradient is at most GRADIENT_TOL. A pair whose gradient
    is not finite, whose line search fails, or that reaches MAX_ITERATIONS
    stops. Every pair that does not converge falls back to its global
    Gaussian MLE (`fallback`). Each pair's result depends only on its own
    moments and start.
    """
    mass = moments[11]
    params = np.array(theta0, dtype=float)
    fits = FitDiagnostics(
        converged=np.zeros(len(mass), dtype=bool),
        iterations=np.zeros(len(mass), dtype=int),
        gradient_norm=np.full(len(mass), np.inf),
        effective_weight=moments[10],
        fallback=np.ones(len(mass), dtype=bool),
    )
    # At a kernel-weighted sample correlation of +-1 (up to the cap) the
    # likelihood keeps rising as |rho| -> 1, so there is no finite optimum:
    # such a pair is not fitted, like a pair without local mass. A
    # correlation that is not a number (variances that vanish or underflow)
    # counts as collinear too.
    s11, s22, s12 = moments[2:5]
    with np.errstate(divide="ignore", invalid="ignore"):
        collinear = ~(np.abs(s12 / np.sqrt(s11 * s22)) < _RHO_CAP)
    fitted = np.flatnonzero((mass >= WEIGHT_FLOOR) & ~collinear)
    if not fitted.size:
        return params, fits
    eta = np.ascontiguousarray(_to_eta(params[fitted]).T)
    # `live` indexes the pairs of `fitted` still iterating, and `mom` holds
    # their moments, one column each.
    live = np.arange(len(fitted))
    mom = moments[:10, fitted]
    for it in range(MAX_ITERATIONS + 1):
        point = eta[:, live]
        value, grad, hess = _objective(mom, point, hessian=True)
        grad, hess = _freeze_clipped(point, grad, hess)
        gnorm = np.abs(grad).max(axis=0)
        fits.gradient_norm[fitted[live]] = gnorm
        done = gnorm <= GRADIENT_TOL
        settled = fitted[live[done]]
        fits.converged[settled] = True
        fits.fallback[settled] = False
        go = ~done & np.isfinite(gnorm)
        if it == MAX_ITERATIONS or not go.any():
            break
        live, mom, point, value, grad = live[go], mom[:, go], point[:, go], value[go], grad[:, go]
        step = _newton_direction(grad, hess[:, go])
        del hess
        new, moved = _line_search(mom, point, value, grad, step)
        eta[:, live] = new
        live, mom = live[moved], mom[:, moved]
        fits.iterations[fitted[live]] += 1
        if not live.size:
            break
    params[fitted] = _from_eta(eta.T)
    return params, fits


def estimate_local_params(
    sample,
    r,
    b,
    init: Optional[LocalParams] = None,
) -> Tuple[LocalParams, FitDiagnostics]:
    """Maximize the local log-likelihood at grid point r.

    Parameters
    ----------
    sample : (n, 2) array
        Bivariate observations, n >= 2.
    r, b : pairs of floats
        Grid point and positive bandwidths.
    init : LocalParams, optional
        Starting point of the Newton iteration; defaults to the global
        Gaussian MLE of `sample`, the start every fit of a backtest uses.

    Returns
    -------
    (LocalParams, FitDiagnostics)

    Raises
    ------
    InsufficientLocalDataError
        The scale-free kernel mass at r is below WEIGHT_FLOOR: there is no
        local information.
    NonConvergenceError, DegenerateSampleError

    Notes
    -----
    This is the single-pair case of local_moments_stack and
    fit_local_moments: a damped Newton iteration in (mu1, mu2, log sigma1,
    log sigma2, atanh rho) with an analytic Hessian, eigenvalue-modified
    where it is not positive definite, and an Armijo line search. The objective is normalized by the
    mean kernel weight so the 1e-6 gradient tolerance means the same thing at
    every grid point and bandwidth. `iterations` counts Newton steps.
    """
    s = _as_sample(sample)
    if s.shape[0] < 2:
        raise ValueError("estimation needs at least 2 observations")
    b1, b2 = _check_bandwidth(b)
    r1, r2 = _check_point(r)
    theta0 = init if init is not None else global_gaussian_mle(s)

    moments = local_moments_stack(s[None], np.array([[r1, r2]]), np.array([[b1, b2]]))[:, 0]
    params, fits = fit_local_moments(moments, theta0.as_array()[None])
    diag = fits[0]
    if moments[11, 0] < WEIGHT_FLOOR:
        raise InsufficientLocalDataError(
            "no effective observations near grid point (%g, %g): local mass %.3e"
            % (r1, r2, moments[11, 0]),
            effective_weight=diag.effective_weight,
        )
    theta = LocalParams.from_array(params[0])
    if not diag.converged:
        raise NonConvergenceError(
            "local fit at (%g, %g) stopped after %d iterations with gradient %.3e"
            % (r1, r2, diag.iterations, diag.gradient_norm),
            params=theta,
            diagnostics=diag,
        )
    return theta, diag
