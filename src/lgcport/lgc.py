"""Local bivariate Gaussian fits via kernel-weighted log-likelihood.

A five-parameter Gaussian family is fitted at a grid point r by maximizing

    L(theta) = n^-1 sum_i K_b(R_i - r) log psi(R_i; theta) - int K_b(v - r) psi(v; theta) dv

where K_b is a product Gaussian kernel and psi the bivariate normal density.
The integral term has a closed form (Gaussian convolution), so the objective,
its gradient and its Hessian are exact. fit_local_batch maximizes it for many
pairs at once by damped Newton; estimate_local_params is its one-pair case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateSampleError,
    InsufficientLocalDataError,
    NonConvergenceError,
)

_LOG_2PI = math.log(2.0 * math.pi)

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
    """Bookkeeping returned alongside a local fit."""

    converged: bool
    iterations: int
    gradient_norm: float
    effective_weight: float
    fallback: bool = False


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


def plugin_bandwidth(sample, scale: float = 1.1) -> Tuple[float, ...]:
    """Plug-in bandwidth: `scale` times each column's sample sd (n-1 denominator).

    `sample` is (n, 2) for one pair, giving (b1, b2), or (n, k) for k assets
    at once, giving one bandwidth per asset.
    """
    s = np.asarray(sample, dtype=float)
    if s.ndim != 2 or s.shape[1] < 1:
        raise ValueError("sample must have shape (n, k), got %r" % (s.shape,))
    if s.shape[0] < 2:
        raise ValueError("bandwidth needs at least 2 observations")
    if not np.all(np.isfinite(s)):
        raise ValueError("sample contains non-finite values")
    if scale <= 0.0:
        raise ValueError("scale must be positive, got %g" % scale)
    sd = s.std(axis=0, ddof=1)
    if np.any(sd <= 0.0):
        raise DegenerateSampleError(
            "sample standard deviation is zero in a coordinate, sd=%r" % (sd,)
        )
    return tuple(float(scale * v) for v in sd)


def gaussian_mle_batch(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Unweighted Gaussian MLEs of P bivariate samples at once, correlation capped below 1.

    `xs`, `ys` are validated (P, n) samples with n >= 2. Returns (P, 5)
    parameters (mu1, mu2, sigma1, sigma2, rho); a constant column gives sigma
    0 and rho nan. Each row depends only on its own sample.
    """
    n = xs.shape[1]
    mu1 = xs.mean(axis=1)
    mu2 = ys.mean(axis=1)
    dx = xs - mu1[:, None]
    dy = ys - mu2[:, None]
    v1 = (dx * dx).sum(axis=1) / n
    v2 = (dy * dy).sum(axis=1) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = (dx * dy).sum(axis=1) / n / np.sqrt(v1 * v2)
    rho = np.clip(rho, -_RHO_CAP, _RHO_CAP)
    return np.column_stack([mu1, mu2, np.sqrt(v1), np.sqrt(v2), rho])


def global_gaussian_mle(sample) -> LocalParams:
    """Unweighted Gaussian MLE of a bivariate sample, correlation capped below 1.

    The one-pair case of gaussian_mle_batch.
    """
    s = _as_sample(sample)
    if s.shape[0] < 2:
        raise ValueError("MLE needs at least 2 observations")
    columns = np.ascontiguousarray(s.T)
    theta = gaussian_mle_batch(columns[:1], columns[1:])[0]
    if theta[2] <= 0.0 or theta[3] <= 0.0:
        raise DegenerateSampleError("constant column, Gaussian MLE undefined")
    return LocalParams.from_array(theta)


# Newton solver settings: Armijo sufficient-decrease constant, step halvings
# before a line search gives up, and the relative floor on the magnitudes of
# Hessian eigenvalues in the modified Newton step.
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 40
_EIGEN_FLOOR = 1e-8

# Upper clip of |eta| per coordinate of (mu1, mu2, log s1, log s2, atanh rho).
_ETA_CLIP = np.array([np.inf, np.inf, _LOG_SIGMA_CLIP, _LOG_SIGMA_CLIP, _ATANH_CLIP])


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


class _LocalMoments(NamedTuple):
    """Per-pair constants of the objective, each with a leading (P,) axis.

    The data term of the local likelihood depends on the sample only through
    the kernel-weighted mean and covariance, so those are computed once per
    fit and every objective evaluation costs O(1) per pair instead of O(n).
    """

    center: np.ndarray  # (P, 2) kernel-weighted mean
    root: np.ndarray  # (P, 2, 2) square root of the kernel-weighted covariance
    r: np.ndarray  # (P, 2) grid point
    kernel_cov: np.ndarray  # (P, 2, 2) diag(b1^2, b2^2)
    wbar: np.ndarray  # (P,) mean kernel weight

    def take(self, idx) -> "_LocalMoments":
        return _LocalMoments(*(a[idx] for a in self))


def _local_moments(xs, ys, p, r, b, wbar) -> _LocalMoments:
    """Moments of (P, n) samples under kernel weights `p` normalized to sum to one."""
    dev = np.stack([xs, ys], axis=2)
    center = np.einsum("pi,pic->pc", p, dev)
    dev -= center[:, None, :]
    lam, vec = np.linalg.eigh(np.einsum("pi,pic,pid->pcd", p, dev, dev))
    root = vec * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]
    kernel_cov = b[:, :, None] ** 2 * np.eye(2)
    return _LocalMoments(center, root, r, kernel_cov, wbar)


def _sigma_derivatives(eta: np.ndarray, hessian: bool):
    """Sigma(eta) with, for `hessian`, its first and second derivatives over eta.

    Shapes (P, 2, 2), (P, 5, 2, 2) and (P, 5, 5, 2, 2); without `hessian`
    the derivatives are None. With v11 = exp(2 l1), v22 = exp(2 l2) and
    v12 = tanh(a) exp(l1 + l2), only the coordinates l1, l2, a (indices 2, 3,
    4) move Sigma.
    """
    n = len(eta)
    s1 = np.exp(eta[:, 2])
    s2 = np.exp(eta[:, 3])
    rho = np.tanh(eta[:, 4])
    v11, v22, v12 = s1 * s1, s2 * s2, rho * s1 * s2

    sigma = np.empty((n, 2, 2))
    sigma[:, 0, 0], sigma[:, 1, 1] = v11, v22
    sigma[:, 0, 1] = sigma[:, 1, 0] = v12
    if not hessian:
        return sigma, None, None
    dv12_da = s1 * s2 / np.cosh(eta[:, 4]) ** 2

    d1 = np.zeros((n, 5, 2, 2))
    d1[:, 2, 0, 0] = 2.0 * v11
    d1[:, 3, 1, 1] = 2.0 * v22
    off = d1[:, :, 0, 1]
    off[:, 2] = off[:, 3] = v12
    off[:, 4] = dv12_da
    d1[:, :, 1, 0] = off

    d2 = np.zeros((n, 5, 5, 2, 2))
    d2[:, 2, 2, 0, 0] = 4.0 * v11
    d2[:, 3, 3, 1, 1] = 4.0 * v22
    off = d2[:, :, :, 0, 1]
    off[:, 2:4, 2:4] = v12[:, None, None]
    off[:, 2:4, 4] = off[:, 4, 2:4] = dv12_da[:, None]
    off[:, 4, 4] = -2.0 * rho * dv12_da
    d2[:, :, :, 1, 0] = off
    return sigma, d1, d2


def _mean_shift(m: int) -> np.ndarray:
    """d D / d eta for a (2, m) deviation matrix whose first column is c - mu."""
    out = np.zeros((5, 2, m))
    out[0, 0, 0] = out[1, 1, 0] = -1.0
    return out


_DATA_SHIFT = _mean_shift(3)
_PENALTY_SHIFT = _mean_shift(1)


def _gaussian_form(v, dv, d2v, dev, shift, hessian: bool):
    """T = 0.5 log det V + 0.5 tr(D' V^-1 D), and for `hessian` its eta derivatives.

    V is (P, 2, 2) with derivatives dv, d2v; D is (P, 2, m) and affine in eta
    with constant derivative `shift` (5, 2, m). With E = V^-1 D and
    G_k = D_k - V_k E:
        dT/dk    = 0.5 tr(V^-1 V_k) + tr(D_k' E) - 0.5 tr(E' V_k E)
        d2T/dkdl = 0.5 tr(V^-1 V_kl) - 0.5 tr(V^-1 V_k V^-1 V_l)
                   + tr(G_k' V^-1 G_l) - 0.5 tr(E' V_kl E)
    """
    det = v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0]
    inv = np.empty_like(v)
    inv[:, 0, 0], inv[:, 1, 1] = v[:, 1, 1], v[:, 0, 0]
    inv[:, 0, 1], inv[:, 1, 0] = -v[:, 0, 1], -v[:, 1, 0]
    inv /= det[:, None, None]
    e = inv @ dev
    value = 0.5 * np.log(det) + 0.5 * np.einsum("pim,pim->p", dev, e)
    if not hessian:
        return value
    inv_dv = inv[:, None] @ dv
    dv_e = dv @ e[:, None]
    grad = (
        0.5 * np.einsum("pkii->pk", inv_dv)
        + np.einsum("kim,pim->pk", shift, e)
        - 0.5 * np.einsum("pim,pkim->pk", e, dv_e)
    )
    g = shift - dv_e
    # Each trace is a dot product of flattened matrices, so every term is one
    # stacked matmul; V, V_k and V_kl are symmetric.
    p, m = len(v), dev.shape[2]
    curvature = (inv - e @ e.transpose(0, 2, 1)).reshape(p, 4, 1)
    inv_dv_t = inv_dv.transpose(0, 1, 3, 2).reshape(p, 5, 4)
    inv_g = inv[:, None] @ g
    hess = (
        0.5 * (d2v.reshape(p, 25, 4) @ curvature).reshape(p, 5, 5)
        - 0.5 * inv_dv.reshape(p, 5, 4) @ inv_dv_t.transpose(0, 2, 1)
        + g.reshape(p, 5, 2 * m) @ inv_g.reshape(p, 5, 2 * m).transpose(0, 2, 1)
    )
    return value, grad, hess


def _objective(mom: _LocalMoments, eta: np.ndarray, hessian: bool = False):
    """F(eta) = -local_loglik / wbar per pair, and for `hessian` its derivatives.

    F = log(2 pi) + T(Sigma, [c - mu, root]) + exp(-log(2 pi) - T(Sigma + B, [r - mu])) / wbar
    where T is _gaussian_form: the first part is the weighted Gaussian
    log-likelihood at the local moments, the second the closed-form penalty.
    """
    sigma, d1, d2 = _sigma_derivatives(eta, hessian)
    mu = eta[:, :2]
    data_dev = np.concatenate([(mom.center - mu)[:, :, None], mom.root], axis=2)
    pen_dev = (mom.r - mu)[:, :, None]
    data = _gaussian_form(sigma, d1, d2, data_dev, _DATA_SHIFT, hessian)
    pen = _gaussian_form(sigma + mom.kernel_cov, d1, d2, pen_dev, _PENALTY_SHIFT, hessian)
    if not hessian:
        return _LOG_2PI + data + np.exp(-_LOG_2PI - pen) / mom.wbar
    penalty = np.exp(-_LOG_2PI - pen[0]) / mom.wbar
    value = _LOG_2PI + data[0] + penalty
    grad = data[1] - penalty[:, None] * pen[1]
    outer = pen[1][:, :, None] * pen[1][:, None, :]
    hess = data[2] + penalty[:, None, None] * (outer - pen[2])
    return value, grad, hess


def _freeze_clipped(eta, grad, hess):
    """Zero the gradient and decouple the Hessian in coordinates at their clip."""
    at_clip = np.abs(eta) >= _ETA_CLIP
    if not at_clip.any():
        return grad, hess
    free = ~at_clip
    grad = np.where(free, grad, 0.0)
    hess = np.where(free[:, :, None] & free[:, None, :], hess, 0.0)
    hess = hess + np.eye(5) * at_clip[:, None, :]
    return grad, hess


def _newton_direction(grad, hess):
    """Modified Newton step -H'^-1 g, with each eigenvalue l of H replaced by
    max(|l|, _EIGEN_FLOOR * max|l|), so the step descends where H is indefinite."""
    lam, vec = np.linalg.eigh(hess)
    mag = np.abs(lam)
    mag = np.maximum(mag, _EIGEN_FLOOR * mag.max(axis=1, keepdims=True))
    coef = np.einsum("pji,pj->pi", vec, grad) / mag
    return -np.einsum("pij,pj->pi", vec, coef)


def _line_search(mom: _LocalMoments, eta, value, grad, step):
    """Backtracking (Armijo) search along `step` from clipped trial points.

    Returns the new points and a mask of the pairs whose search succeeded; a
    non-finite trial objective counts as a rejected step.
    """
    slope = np.einsum("pi,pi->p", grad, step)
    t = np.ones(len(eta))
    new = eta.copy()
    accepted = np.zeros(len(eta), dtype=bool)
    todo = np.arange(len(eta))
    for _ in range(_MAX_BACKTRACKS):
        trial = np.clip(eta[todo] + t[todo, None] * step[todo], -_ETA_CLIP, _ETA_CLIP)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f = _objective(mom.take(todo), trial)
        ok = np.isfinite(f) & (f <= value[todo] + _ARMIJO_C * t[todo] * slope[todo])
        new[todo[ok]] = trial[ok]
        accepted[todo[ok]] = True
        todo = todo[~ok]
        if not todo.size:
            break
        t[todo] *= 0.5
    return new, accepted


@dataclass
class BatchFit:
    """Per-pair results of fit_local_batch, each with a leading (P,) axis."""

    params: np.ndarray  # (P, 5) mu1, mu2, sigma1, sigma2, rho
    converged: np.ndarray
    iterations: np.ndarray
    gradient_norm: np.ndarray
    effective_weight: np.ndarray
    local_mass: np.ndarray

    def diagnostics(self, i: int) -> FitDiagnostics:
        return FitDiagnostics(
            converged=bool(self.converged[i]),
            iterations=int(self.iterations[i]),
            gradient_norm=float(self.gradient_norm[i]),
            effective_weight=float(self.effective_weight[i]),
        )


def fit_local_batch(
    xs: np.ndarray,
    ys: np.ndarray,
    r: np.ndarray,
    b: np.ndarray,
    theta0: np.ndarray,
    *,
    weight_floor: float = WEIGHT_FLOOR,
    gradient_tol: float = GRADIENT_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> BatchFit:
    """Maximize the local log-likelihood of P pairs at once by damped Newton.

    `xs`, `ys` are (P, n) samples, `r` and `b` (P, 2) grid points and
    bandwidths, `theta0` (P, 5) starting parameters. Inputs must already be
    validated: finite samples, positive bandwidths, valid starts.

    Pairs whose scale-free local mass is below `weight_floor`, and pairs
    whose kernel-weighted sample correlation reaches the cap +-(1 - 1e-9),
    are not fitted (iterations 0, gradient norm inf, unconverged). The
    others run a modified Newton iteration with an analytic Hessian and an
    Armijo line search in (mu1, mu2, log sigma1, log sigma2, atanh rho), and
    leave the active set once the max-norm of the wbar-normalized gradient is
    at most `gradient_tol`. A pair whose gradient is not finite, whose line
    search fails, or that reaches `max_iterations` stops unconverged.
    """
    n = xs.shape[1]
    norm = 2.0 * np.pi * b[:, 0] * b[:, 1]
    # Kernel weights exp(-0.5 (z1^2 + z2^2)) / norm, built in place: the
    # (P, n) arrays are the solver's working memory.
    w = (xs - r[:, :1]) / b[:, :1]
    z2 = (ys - r[:, 1:]) / b[:, 1:]
    w *= w
    z2 *= z2
    w += z2
    del z2
    w *= -0.5
    np.exp(w, out=w)
    w /= norm[:, None]
    effective_weight = w.sum(axis=1)
    # Scale-invariant local mass: kernel values with the normalizing
    # constant removed, so the floor does not depend on b or data units.
    mass = effective_weight * norm / n
    fit = BatchFit(
        params=np.array(theta0, dtype=float),
        converged=np.zeros(len(xs), dtype=bool),
        iterations=np.zeros(len(xs), dtype=int),
        gradient_norm=np.full(len(xs), np.inf),
        effective_weight=effective_weight,
        local_mass=mass,
    )
    fitted = np.flatnonzero(mass >= weight_floor)
    if not fitted.size:
        return fit
    # Views rather than copies of the (P, n) arrays when every pair is fitted,
    # and the weights normalized in place.
    rows = fitted if fitted.size < len(xs) else slice(None)
    w[rows] /= effective_weight[rows, None]
    mom = _local_moments(xs[rows], ys[rows], w[rows], r[rows], b[rows], effective_weight[rows] / n)
    del w  # the Newton iterations allocate (P, 5, 5, 2, 2) arrays
    # At a kernel-weighted sample correlation of +-1 (up to the cap) the
    # likelihood keeps rising as |rho| -> 1, so there is no finite optimum:
    # such a pair is not fitted, like a pair without local mass.
    cov = mom.root @ mom.root.transpose(0, 2, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        collinear = np.abs(cov[:, 0, 1] / np.sqrt(cov[:, 0, 0] * cov[:, 1, 1])) >= _RHO_CAP
    fitted, mom = fitted[~collinear], mom.take(~collinear)
    if not fitted.size:
        return fit
    eta = _to_eta(fit.params[fitted])

    live = np.arange(len(fitted))
    for it in range(max_iterations + 1):
        value, grad, hess = _objective(mom.take(live), eta[live], hessian=True)
        grad, hess = _freeze_clipped(eta[live], grad, hess)
        gnorm = np.abs(grad).max(axis=1)
        fit.gradient_norm[fitted[live]] = gnorm
        done = gnorm <= gradient_tol
        fit.converged[fitted[live[done]]] = True
        go = ~done & np.isfinite(gnorm)
        if it == max_iterations or not go.any():
            break
        live = live[go]
        step = _newton_direction(grad[go], hess[go])
        new, moved = _line_search(mom.take(live), eta[live], value[go], grad[go], step)
        eta[live] = new
        live = live[moved]
        fit.iterations[fitted[live]] += 1
        if not live.size:
            break
    fit.params[fitted] = _from_eta(eta)
    return fit


def estimate_local_params(
    sample,
    r,
    b,
    init: Optional[LocalParams] = None,
    *,
    weight_floor: float = WEIGHT_FLOOR,
    gradient_tol: float = GRADIENT_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> Tuple[LocalParams, FitDiagnostics]:
    """Maximize the local log-likelihood at grid point r.

    Parameters
    ----------
    sample : (n, 2) array
        Bivariate observations, n >= 2.
    r, b : pairs of floats
        Grid point and positive bandwidths.
    init : LocalParams, optional
        Starting point; defaults to the global Gaussian MLE. Passing the
        previous month's fit warm-starts rolling estimation.
    weight_floor : float
        Minimum mean unnormalized kernel mass at r. Below it there is no
        local information and InsufficientLocalDataError is raised.

    Returns
    -------
    (LocalParams, FitDiagnostics)

    Raises
    ------
    InsufficientLocalDataError, NonConvergenceError, DegenerateSampleError

    Notes
    -----
    This is the single-pair case of fit_local_batch: a damped Newton
    iteration in (mu1, mu2, log sigma1, log sigma2, atanh rho) with an
    analytic Hessian, eigenvalue-modified where it is not positive definite,
    and an Armijo line search. The objective is normalized by the mean kernel
    weight so the 1e-6 gradient tolerance means the same thing at every grid
    point and bandwidth. `iterations` counts Newton steps.
    """
    s = _as_sample(sample)
    if s.shape[0] < 2:
        raise ValueError("estimation needs at least 2 observations")
    b1, b2 = _check_bandwidth(b)
    r1, r2 = _check_point(r)
    theta0 = init if init is not None else global_gaussian_mle(s)

    fit = fit_local_batch(
        s[None, :, 0],
        s[None, :, 1],
        np.array([[r1, r2]]),
        np.array([[b1, b2]]),
        theta0.as_array()[None],
        weight_floor=weight_floor,
        gradient_tol=gradient_tol,
        max_iterations=max_iterations,
    )
    if fit.local_mass[0] < weight_floor:
        raise InsufficientLocalDataError(
            "no effective observations near grid point (%g, %g): local mass %.3e"
            % (r1, r2, fit.local_mass[0]),
            effective_weight=float(fit.effective_weight[0]),
        )
    theta = LocalParams.from_array(fit.params[0])
    diag = fit.diagnostics(0)
    if not diag.converged:
        raise NonConvergenceError(
            "local fit at (%g, %g) stopped after %d iterations with gradient %.3e"
            % (r1, r2, diag.iterations, diag.gradient_norm),
            params=theta,
            diagnostics=diag,
        )
    return theta, diag
