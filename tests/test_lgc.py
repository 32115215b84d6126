"""Local Gaussian fit machinery: kernel, likelihood, score and estimator."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.stats import multivariate_normal, norm

from lgcport.errors import (
    DegenerateSampleError,
    InsufficientLocalDataError,
    NonConvergenceError,
)
from lgcport.lgc import (
    FitDiagnostics,
    LocalParams,
    bivariate_normal_density,
    estimate_local_params,
    gaussian_kernel_weight,
    global_gaussian_mle,
    local_loglik,
    local_score,
    penalty_integral,
    plugin_bandwidth,
)
import lgcport.lgc as lgc
from lgcport.lgc import (
    _ETA_CLIP,
    _freeze_clipped,
    WEIGHT_FLOOR,
    _full_hessian,
    _newton_direction,
    _objective,
    _penalty_gradient,
    _mle_starts,
    _window_stats,
    local_moments_stack,
)
from lgcport.localcov import local_covariance_stack
from lgcport.synth import synth_panel

from conftest import eta_score, gauss_pair, pair_moments, tensor_gauss_legendre


def penalty_box(r, b, theta):
    """A box holding the penalty integrand's mass: 10 bandwidths around r
    and 10 sds around mu on each side."""
    lo1 = min(r[0] - 10 * b[0], theta.mu1 - 10 * theta.sigma1)
    hi1 = max(r[0] + 10 * b[0], theta.mu1 + 10 * theta.sigma1)
    lo2 = min(r[1] - 10 * b[1], theta.mu2 - 10 * theta.sigma2)
    hi2 = max(r[1] + 10 * b[1], theta.mu2 + 10 * theta.sigma2)
    return lo1, hi1, lo2, hi2


def quad_penalty(r, b, theta):
    """Tensor Gauss-Legendre oracle for the penalty integral: 1,000 nodes a
    side on penalty_box. Over 300 random configs it was within 1.4e-15 of
    the closed form; test_against_quadrature checks it against dblquad."""

    def f(x, y):
        x, y = np.broadcast_arrays(x, y)
        v = np.column_stack([x.ravel(), y.ravel()])
        dens = gaussian_kernel_weight(v, r, b) * bivariate_normal_density(v, theta)
        return dens.reshape(x.shape)

    return tensor_gauss_legendre(f, *penalty_box(r, b, theta), panels=100)


def dblquad_penalty(r, b, theta):
    """Adaptive 2-d quadrature of the same integrand, one point at a time."""

    def f(y, x):
        return gaussian_kernel_weight((x, y), r, b) * bivariate_normal_density((x, y), theta)

    lo1, hi1, lo2, hi2 = penalty_box(r, b, theta)
    val, _ = dblquad(f, lo1, hi1, lo2, hi2, epsabs=1e-11, epsrel=1e-11)
    return val


def fd_score(sample, r, b, theta, h=1e-5):
    """Central finite differences of local_loglik."""
    arr = theta.as_array()
    out = np.empty(5)
    for j in range(5):
        up, dn = arr.copy(), arr.copy()
        up[j] += h
        dn[j] -= h
        out[j] = (
            local_loglik(sample, r, b, LocalParams.from_array(up))
            - local_loglik(sample, r, b, LocalParams.from_array(dn))
        ) / (2 * h)
    return out


def random_config(rng):
    theta = LocalParams(
        rng.uniform(-2, 2),
        rng.uniform(-2, 2),
        rng.uniform(0.3, 3.0),
        rng.uniform(0.3, 3.0),
        rng.uniform(-0.9, 0.9),
    )
    r = (rng.uniform(-3, 3), rng.uniform(-3, 3))
    b = (rng.uniform(0.2, 2.5), rng.uniform(0.2, 2.5))
    return theta, r, b


class TestLocalParams:
    def test_roundtrip(self):
        theta = LocalParams(0.1, -0.2, 1.5, 0.7, 0.3)
        assert LocalParams.from_array(theta.as_array()) == theta

    @pytest.mark.parametrize(
        "bad",
        [
            (0, 0, 0.0, 1, 0),
            (0, 0, 1, -1.0, 0),
            (0, 0, 1, 1, 1.0),
            (0, 0, 1, 1, -1.5),
            (math.nan, 0, 1, 1, 0),
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            LocalParams(*bad)


class TestKernel:
    def test_peak_value(self):
        # At obs == r the exponent vanishes.
        assert gaussian_kernel_weight((0.3, -1.0), (0.3, -1.0), (0.5, 2.0)) == pytest.approx(
            1.0 / (2 * math.pi * 0.5 * 2.0), rel=1e-15
        )

    def test_symmetric_in_obs_and_grid(self, rng):
        for _ in range(20):
            o, r = rng.normal(size=2), rng.normal(size=2)
            b = rng.uniform(0.1, 3.0, size=2)
            assert gaussian_kernel_weight(o, r, b) == gaussian_kernel_weight(r, o, b)

    def test_matches_normal_pdf_product(self):
        got = gaussian_kernel_weight((0.3, -0.7), (0.1, 0.2), (0.5, 2.0))
        want = norm.pdf(0.3, 0.1, 0.5) * norm.pdf(-0.7, 0.2, 2.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            gaussian_kernel_weight((0, 0), (0, 0), (0.0, 1.0))
        with pytest.raises(ValueError):
            gaussian_kernel_weight((0, 0), (0, 0), (1.0, -2.0))


class TestDensity:
    def test_matches_scipy(self):
        theta = LocalParams(0.0, 0.0, 1.0, 1.0, 0.5)
        want = multivariate_normal(mean=[0, 0], cov=[[1, 0.5], [0.5, 1]]).pdf([1, 1])
        assert bivariate_normal_density((1.0, 1.0), theta) == pytest.approx(want, rel=1e-12)

    def test_integrates_to_one(self):
        theta = LocalParams(0.4, -0.3, 1.2, 0.8, -0.6)
        total, _ = dblquad(
            lambda y, x: bivariate_normal_density((x, y), theta),
            0.4 - 9 * 1.2,
            0.4 + 9 * 1.2,
            -0.3 - 9 * 0.8,
            -0.3 + 9 * 0.8,
            epsabs=1e-9,
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestPenaltyIntegral:
    def test_standard_case_closed_value(self):
        # mu = r and Sigma + diag(b^2) = 2I: density at its mean is 1/(4 pi).
        theta = LocalParams(0.0, 0.0, 1.0, 1.0, 0.0)
        assert penalty_integral((0.0, 0.0), (1.0, 1.0), theta) == pytest.approx(
            1.0 / (4 * math.pi), rel=1e-14
        )

    def test_against_quadrature(self, rng):
        for case in range(12):
            theta, r, b = random_config(rng)
            want = quad_penalty(r, b, theta)
            if case < 2:
                # The fixed rule agrees with adaptive quadrature.
                assert want == pytest.approx(dblquad_penalty(r, b, theta), abs=1e-11)
            assert penalty_integral(r, b, theta) == pytest.approx(want, abs=1e-10)

    def test_positive_and_bounded(self, rng):
        for _ in range(50):
            theta, r, b = random_config(rng)
            v = penalty_integral(r, b, theta)
            assert 0.0 < v < 1.0 / (2 * math.pi * b[0] * b[1])


class TestLocalLoglik:
    def test_single_observation_closed_form(self):
        # One observation at the grid point, unit bandwidths, standard theta.
        theta = LocalParams(0.5, -0.5, 1.0, 1.0, 0.0)
        val = local_loglik([[0.5, -0.5]], (0.5, -0.5), (1.0, 1.0), theta)
        want = (1.0 / (2 * math.pi)) * math.log(1.0 / (2 * math.pi)) - 1.0 / (4 * math.pi)
        assert val == pytest.approx(want, rel=1e-14)

    def test_loop_oracle(self, rng):
        sample = gauss_pair(rng, 25, 0.4)
        theta, r, b = random_config(rng)
        total = 0.0
        for row in sample:
            total += gaussian_kernel_weight(row, r, b) * math.log(
                bivariate_normal_density(row, theta)
            )
        want = total / len(sample) - quad_penalty(r, b, theta)
        assert local_loglik(sample, r, b, theta) == pytest.approx(want, abs=1e-10)

    def test_rejects_empty_sample(self):
        theta = LocalParams(0, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            local_loglik(np.empty((0, 2)), (0, 0), (1, 1), theta)


class TestLocalScore:
    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            theta, r, b = random_config(rng)
            sample = gauss_pair(
                rng, 40, theta.rho, (theta.mu1, theta.mu2), (theta.sigma1, theta.sigma2)
            )
            got = local_score(sample, r, b, theta)
            assert np.max(np.abs(got - fd_score(sample, r, b, theta))) < 1e-6

    def test_coordinate_swap_symmetry(self, rng):
        theta, r, b = random_config(rng)
        sample = gauss_pair(rng, 30, 0.2)
        swapped = LocalParams(theta.mu2, theta.mu1, theta.sigma2, theta.sigma1, theta.rho)
        g = local_score(sample, r, b, theta)
        gs = local_score(
            sample[:, ::-1], (r[1], r[0]), (b[1], b[0]), swapped
        )
        assert np.allclose(g[[0, 1, 2, 3, 4]], gs[[1, 0, 3, 2, 4]], atol=1e-12)

    def test_small_at_returned_maximizer(self, rng):
        sample = gauss_pair(rng, 800, 0.5)
        b = plugin_bandwidth(sample)
        theta, _ = estimate_local_params(sample, (0.0, 0.0), b)
        assert np.max(np.abs(local_score(sample, (0.0, 0.0), b, theta))) < 1e-6


    def test_penalty_gradient_bits_match_reference_formula(self):
        # The reference recomputes the penalty value with penalty_integral
        # instead of reusing the convolution terms; on C07's draws the two
        # agree bit for bit, so local_score is unchanged.
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            rng.standard_normal((n, 2)) * rng.uniform(0.5, 2.0)  # C07's sample draw
            r = rng.uniform(-1.5, 1.5, size=2)
            b = (float(rng.uniform(0.6, 2.0)), float(rng.uniform(0.6, 2.0)))
            theta = LocalParams(
                rng.uniform(-1, 1),
                rng.uniform(-1, 1),
                rng.uniform(0.6, 2.0),
                rng.uniform(0.6, 2.0),
                rng.uniform(-0.8, 0.8),
            )
            assert np.array_equal(
                _penalty_gradient(r, b, theta), reference_penalty_gradient(r, b, theta)
            )


def reference_penalty_gradient(r, b, theta):
    """Gradient of penalty_integral over (mu1, mu2, s1, s2, rho), from its value."""
    s1, s2, rho = theta.sigma1, theta.sigma2, theta.rho
    v11 = s1 * s1 + b[0] * b[0]
    v22 = s2 * s2 + b[1] * b[1]
    v12 = rho * s1 * s2
    det = v11 * v22 - v12 * v12
    p = penalty_integral(r, b, theta)
    i11, i22, i12 = v22 / det, v11 / det, -v12 / det
    d1, d2 = r[0] - theta.mu1, r[1] - theta.mu2
    e1 = i11 * d1 + i12 * d2
    e2 = i12 * d1 + i22 * d2

    def quad_term(a11, a12, a22):
        quad = e1 * e1 * a11 + 2.0 * e1 * e2 * a12 + e2 * e2 * a22
        trace = i11 * a11 + 2.0 * i12 * a12 + i22 * a22
        return 0.5 * p * (quad - trace)

    return np.array(
        [
            p * e1,
            p * e2,
            quad_term(2.0 * s1, rho * s2, 0.0),
            quad_term(0.0, rho * s1, 2.0 * s2),
            quad_term(0.0, s1 * s2, 0.0),
        ]
    )


class TestGlobalGaussianMle:
    def test_matches_biased_sample_moments(self, rng):
        sample = gauss_pair(rng, 300, -0.4, means=(1.0, -2.0), sds=(3.0, 0.5))
        theta = global_gaussian_mle(sample)
        cov = np.cov(sample, rowvar=False, ddof=0)
        assert np.allclose([theta.mu1, theta.mu2], sample.mean(axis=0), rtol=0, atol=1e-12)
        assert theta.sigma1 == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)
        assert theta.sigma2 == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-12)
        assert theta.rho == pytest.approx(cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]), rel=1e-12)

    def test_batch_rows_are_the_one_pair_fits(self, rng):
        samples = [gauss_pair(rng, 90, rho) for rho in (-0.9, 0.0, 0.5, 0.99)]
        mean, cross, _, errors = _window_stats(np.stack(samples))
        assert not errors
        batch = _mle_starts(mean, cross, 90)[:, 0]
        for row, sample in zip(batch, samples):
            assert np.array_equal(row, global_gaussian_mle(sample).as_array())

    def test_identical_columns_capped_below_one(self, rng):
        x = rng.standard_normal(50)
        assert global_gaussian_mle(np.column_stack([x, x])).rho == 1.0 - 1e-9

    def test_constant_column_raises(self):
        with pytest.raises(DegenerateSampleError):
            global_gaussian_mle(np.column_stack([np.ones(10), np.arange(10.0)]))


# The objective as the package computed it before the closed-form kernel:
# generic (P, 2, 2) matrix forms whose second derivatives are (P, 5, 5, 2, 2)
# arrays, on moments that keep a square root of the weighted covariance. It
# is the reference the elementwise objective must reproduce.


class RefMoments(NamedTuple):
    center: np.ndarray  # (P, 2) kernel-weighted mean
    root: np.ndarray  # (P, 2, 2) square root of the kernel-weighted covariance
    r: np.ndarray  # (P, 2) grid point
    kernel_cov: np.ndarray  # (P, 2, 2) diag(b1^2, b2^2)
    wbar: np.ndarray  # (P,) mean kernel weight


def ref_weighted_moments(xs, ys, r, b):
    """Kernel weights (P, n), weighted means (P, 2) and weighted covariances
    (P, 2, 2) of (P, n) samples, pair by pair and in two passes."""
    w = np.array([gaussian_kernel_weight(np.column_stack(s), rr, bb) for *s, rr, bb in zip(xs, ys, r, b)])
    p = w / w.sum(axis=1, keepdims=True)
    dev = np.stack([xs, ys], axis=2)
    center = np.einsum("pi,pic->pc", p, dev)
    dev -= center[:, None, :]
    # The corrected two-pass formula (Chan, Golub & LeVeque 1983): the
    # deviations' own weighted mean, which the rounding of `center` leaves
    # nonzero, is taken out of the second moment.
    drift = np.einsum("pi,pic->pc", p, dev)
    cov = np.einsum("pi,pic,pid->pcd", p, dev, dev) - drift[:, :, None] * drift[:, None, :]
    return w, center, cov


def ref_moments(xs, ys, r, b):
    """RefMoments of (P, n) samples at grid points r with bandwidths b."""
    w, center, cov = ref_weighted_moments(xs, ys, r, b)
    lam, vec = np.linalg.eigh(cov)
    root = vec * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]
    return RefMoments(center, root, r, b[:, :, None] ** 2 * np.eye(2), w.mean(axis=1))


def ref_sigma_derivatives(eta):
    """Sigma(eta) (P, 2, 2) with its first (P, 5, 2, 2) and second (P, 5, 5, 2, 2) derivatives."""
    n = len(eta)
    s1, s2, rho = np.exp(eta[:, 2]), np.exp(eta[:, 3]), np.tanh(eta[:, 4])
    v11, v22, v12 = s1 * s1, s2 * s2, rho * s1 * s2
    sigma = np.empty((n, 2, 2))
    sigma[:, 0, 0], sigma[:, 1, 1] = v11, v22
    sigma[:, 0, 1] = sigma[:, 1, 0] = v12
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


def ref_mean_shift(m):
    """d D / d eta for a (2, m) deviation matrix whose first column is c - mu."""
    out = np.zeros((5, 2, m))
    out[0, 0, 0] = out[1, 1, 0] = -1.0
    return out


def ref_gaussian_form(v, dv, d2v, dev, shift):
    """T = 0.5 log det V + 0.5 tr(D' V^-1 D) with its eta gradient and Hessian."""
    det = v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0]
    inv = np.empty_like(v)
    inv[:, 0, 0], inv[:, 1, 1] = v[:, 1, 1], v[:, 0, 0]
    inv[:, 0, 1], inv[:, 1, 0] = -v[:, 0, 1], -v[:, 1, 0]
    inv /= det[:, None, None]
    e = inv @ dev
    value = 0.5 * np.log(det) + 0.5 * np.einsum("pim,pim->p", dev, e)
    inv_dv = inv[:, None] @ dv
    dv_e = dv @ e[:, None]
    grad = (
        0.5 * np.einsum("pkii->pk", inv_dv)
        + np.einsum("kim,pim->pk", shift, e)
        - 0.5 * np.einsum("pim,pkim->pk", e, dv_e)
    )
    g = shift - dv_e
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


def ref_objective(mom, eta):
    """F(eta) = -local_loglik / wbar for (P, 5) eta: value, (P, 5) gradient, (P, 5, 5) Hessian."""
    sigma, d1, d2 = ref_sigma_derivatives(eta)
    mu = eta[:, :2]
    data_dev = np.concatenate([(mom.center - mu)[:, :, None], mom.root], axis=2)
    pen_dev = (mom.r - mu)[:, :, None]
    data = ref_gaussian_form(sigma, d1, d2, data_dev, ref_mean_shift(3))
    pen = ref_gaussian_form(sigma + mom.kernel_cov, d1, d2, pen_dev, ref_mean_shift(1))
    penalty = np.exp(-math.log(2.0 * math.pi) - pen[0]) / mom.wbar
    value = math.log(2.0 * math.pi) + data[0] + penalty
    grad = data[1] - penalty[:, None] * pen[1]
    outer = pen[1][:, :, None] * pen[1][:, None, :]
    return value, grad, data[2] + penalty[:, None, None] * (outer - pen[2])


def ref_freeze_clipped(eta, grad, hess):
    """Zero the gradient and decouple the Hessian in coordinates at their clip."""
    free = np.abs(eta) < _ETA_CLIP
    grad = np.where(free, grad, 0.0)
    hess = np.where(free[:, :, None] & free[:, None, :], hess, 0.0)
    return grad, hess + np.eye(5) * ~free[:, None, :]


def packed(hess):
    """(P, 5, 5) symmetric matrices as the solver's (15, P) rows."""
    rows, cols = np.triu_indices(5)
    return np.ascontiguousarray(hess[:, rows, cols].T)


def objective_draws(rng, kind, size=200):
    """Samples, grid points, bandwidths and search points eta (P, 5) of one kind:
    "typical"; "near_one" (|rho| from 0.987 to 1 - 3e-8); "scale" (one sigma
    between exp(-100) and exp(-20) or exp(20) and exp(100)); "clip" (one of
    log sigma1, log sigma2 and atanh rho at its clip)."""
    n = 30
    xs = rng.standard_normal((size, n)) * rng.uniform(0.3, 3.0, (size, 1))
    ys = rng.uniform(-0.9, 0.9, (size, 1)) * xs + rng.standard_normal((size, n))
    r = rng.uniform(-1.5, 1.5, (size, 2))
    b = rng.uniform(0.3, 2.5, (size, 2))
    eta = np.column_stack([
        rng.uniform(-1, 1, size),
        rng.uniform(-1, 1, size),
        np.log(rng.uniform(0.3, 3.0, size)),
        np.log(rng.uniform(0.3, 3.0, size)),
        np.arctanh(rng.uniform(-0.95, 0.95, size)),
    ])
    sign = rng.choice([-1.0, 1.0], size)
    which = rng.integers(2, 5, size)
    rows = np.arange(size)
    if kind == "near_one":
        eta[:, 4] = sign * rng.uniform(2.5, 9.0, size)
    elif kind == "scale":
        eta[rows, which % 2 + 2] = sign * rng.uniform(20.0, 100.0, size)
    elif kind == "clip":
        eta[rows, which] = sign * _ETA_CLIP[which]
    return xs, ys, r, b, eta


class TestNewtonObjective:
    def test_hessian_matches_finite_differences_of_score(self):
        # Same draws and tolerance as acceptance criterion C07, in the
        # (mu1, mu2, log sigma1, log sigma2, atanh rho) search coordinates.
        rng = np.random.default_rng(11)
        h, worst = 1e-5, 0.0
        for _ in range(100):
            n = int(rng.integers(1, 50))
            sample = rng.standard_normal((n, 2)) * rng.uniform(0.5, 2.0)
            r = rng.uniform(-1.5, 1.5, size=2)
            b = np.array([rng.uniform(0.6, 2.0), rng.uniform(0.6, 2.0)])
            eta = np.array(
                [
                    rng.uniform(-1, 1),
                    rng.uniform(-1, 1),
                    math.log(rng.uniform(0.6, 2.0)),
                    math.log(rng.uniform(0.6, 2.0)),
                    math.atanh(rng.uniform(-0.8, 0.8)),
                ]
            )
            moments = local_moments_stack(sample[None], r[None], b[None])[:, 0]
            value, grad, hess = _objective(moments, eta[:, None], hessian=True)

            theta = LocalParams(
                eta[0], eta[1], math.exp(eta[2]), math.exp(eta[3]), math.tanh(eta[4])
            )
            wbar = gaussian_kernel_weight(sample, r, b).mean()
            assert value[0] == pytest.approx(-local_loglik(sample, r, b, theta) / wbar, abs=1e-10)
            assert np.max(np.abs(grad[:, 0] - eta_score(sample, r, b, eta))) < 1e-10
            fd = np.empty((5, 5))
            for k in range(5):
                up, dn = eta.copy(), eta.copy()
                up[k] += h
                dn[k] -= h
                fd[:, k] = (eta_score(sample, r, b, up) - eta_score(sample, r, b, dn)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(_full_hessian(hess)[0] - fd))))
        assert worst <= 1e-6

    @pytest.mark.parametrize("kind", ["typical", "near_one", "scale", "clip"])
    def test_matches_the_matrix_form_reference(self, kind):
        # Errors are relative to the largest entry of the reference. Both
        # evaluations round differently, and the rounding is amplified by
        # kappa = 1 / (1 - rho^2) in the gradient and by kappa^2 in the
        # Hessian, the conditioning of Sigma: at |rho| = 0.9999 the
        # reference's own Hessian is off by 7e-10 from a 60-digit evaluation.
        # So the 1e-12 bound is scaled by kappa and kappa^2; for |rho| <= 0.95
        # it is at most 1e-11 for the gradient and 1e-10 for the Hessian.
        rng = np.random.default_rng(["typical", "near_one", "scale", "clip"].index(kind))
        xs, ys, r, b, eta = objective_draws(rng, kind)
        ref = ref_objective(ref_moments(xs.copy(), ys.copy(), r, b), eta)
        ref_grad, ref_hess = ref_freeze_clipped(eta, *ref[1:])
        moments = pair_moments(xs, ys, r, b)
        value, grad, hess = _objective(moments, eta.T.copy(), hessian=True)
        grad, hess = _freeze_clipped(eta.T, grad, hess)
        kappa = np.cosh(eta[:, 4]) ** 2
        assert np.all(np.isfinite(ref[0])) and np.all(np.isfinite(value))
        assert np.max(np.abs(value - ref[0]) / np.abs(ref[0])) <= 1e-12
        scale = np.max(np.abs(ref_grad), axis=1)
        assert np.all(np.abs(grad.T - ref_grad).max(axis=1) <= 1e-12 * kappa * scale)
        scale = np.max(np.abs(ref_hess), axis=(1, 2))
        assert np.all(np.abs(_full_hessian(hess) - ref_hess).max(axis=(1, 2)) <= 1e-12 * kappa**2 * scale)
        if kind == "clip":
            # A coordinate at its clip is frozen: zero gradient, unit Hessian row.
            at_clip = np.abs(eta) >= _ETA_CLIP
            assert np.all(grad.T[at_clip] == 0.0)
            assert np.array_equal(_full_hessian(hess)[at_clip], np.eye(5)[np.nonzero(at_clip)[1]])

    def test_values_without_the_hessian_are_the_same(self):
        rng = np.random.default_rng(7)
        xs, ys, r, b, eta = objective_draws(rng, "typical", 50)
        moments = pair_moments(xs, ys, r, b)
        value = _objective(moments, eta.T.copy())
        assert np.array_equal(value, _objective(moments, eta.T.copy(), hessian=True)[0])


def stack_pairs(windows, grids, bandwidths):
    """Every pair (i < j) of every window of a (D, n, N) stack as the (P, n)
    samples and (P, 2) grid points and bandwidths of a per-pair call, in
    local_moments_stack's order."""
    first, second = np.triu_indices(windows.shape[2], 1)
    n = windows.shape[1]
    xs = windows[:, :, first].transpose(0, 2, 1).reshape(-1, n)
    ys = windows[:, :, second].transpose(0, 2, 1).reshape(-1, n)
    r = np.stack([grids[:, first], grids[:, second]], axis=2).reshape(-1, 2)
    b = np.stack([bandwidths[:, first], bandwidths[:, second]], axis=2).reshape(-1, 2)
    return xs, ys, r, b


def oracle_draw(rng, n_assets, n, kind, log_scale, beyond):
    """Two (n, N) windows of correlated, shifted normals with their grid
    points and bandwidths (10**log_scale plug-in bandwidths): at the 5 % or
    95 % quantile, `beyond` bandwidths below the minimum or above the
    maximum, or, for "spike", within a bandwidth of one observation whose
    neighbours all sit 3 to 8 bandwidths away in every coordinate, so that
    it holds all but 1e-8 to 1e-28 of every pair's kernel mass."""
    windows = rng.standard_normal((2, n, n_assets)) @ rng.standard_normal((n_assets, n_assets))
    windows += rng.uniform(-3.0, 3.0, n_assets)
    b = 1.1 * 10.0**log_scale * windows.std(axis=1, ddof=1)
    if kind == "lower":
        return windows, np.quantile(windows, 0.05, axis=1), b
    if kind == "upper":
        return windows, np.quantile(windows, 0.95, axis=1), b
    if kind == "below":
        return windows, windows.min(axis=1) - beyond * b, b
    if kind == "above":
        return windows, windows.max(axis=1) + beyond * b, b
    dates = np.arange(2)
    grids = windows[dates, rng.integers(n, size=2)]
    far = rng.uniform(3.0, 8.0, windows.shape) * rng.choice([-1.0, 1.0], windows.shape)
    windows = grids[:, None, :] + far * b[:, None, :]
    windows[dates, rng.integers(n, size=2)] = grids + rng.uniform(-1.0, 1.0, grids.shape) * b
    return windows, grids, b


class TestLocalMomentsOracle:
    """local_moments_stack against the per-pair, two-pass ref_weighted_moments."""

    @settings(max_examples=200, deadline=None)
    @given(
        n_assets=st.integers(2, 8),
        n=st.integers(2, 300),
        kind=st.sampled_from(["lower", "upper", "below", "above", "spike"]),
        log_scale=st.floats(-3.0, 3.0),
        beyond=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # One pair's kernel weight sits on one observation (plus 3e-320 on
    # another): the stack's s11 is 1.9e-320 and its s22 and s12 are 0, so its
    # correlation is NaN, while the reference's subnormal variances give inf.
    @example(n_assets=3, n=97, kind="below", log_scale=-1.9541779826179855, beyond=2.75, seed=42619)
    # Two observations, nearly all the kernel mass on one (bandwidths a
    # thousandth of the plug-in ones): the variances are of order 1e-17 to
    # 1e-25, and a reference that leaves the rounding of its centre in them
    # is off by 1.5e-10, 7.6e-10 and 2.6e-9 of them, and at seed 74 calls no
    # pair collinear where every two-point pair is.
    @example(n_assets=2, n=2, kind="spike", log_scale=-3.0, beyond=0.0, seed=10)
    @example(n_assets=8, n=2, kind="spike", log_scale=-3.0, beyond=0.0, seed=10)
    @example(n_assets=8, n=2, kind="spike", log_scale=-3.0, beyond=0.0, seed=74)
    def test_matches_the_per_pair_reference(self, n_assets, n, kind, log_scale, beyond, seed):
        # Summed about the grid point, a covariance carries a rounding error
        # of about eps |c - r|^2, up to 1e3 times its size before its pair is
        # summed again (lgc._RESUM_RATIO): 1e3 * 300 * eps = 7e-11 at worst
        # over 300 terms. The largest error over 6,000 random draws was
        # 1.4e-11 of the variance.
        rng = np.random.default_rng(seed)
        windows, grids, bandwidths = oracle_draw(rng, n_assets, n, kind, log_scale, beyond)
        got = local_moments_stack(windows, grids, bandwidths).reshape(12, -1)
        xs, ys, r, b = stack_pairs(windows, grids, bandwidths)
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            w, center, cov = ref_weighted_moments(xs, ys, r, b)
        mass = w.mean(axis=1) * 2.0 * np.pi * b[:, 0] * b[:, 1]
        assert np.array_equal(got[5:7].T, r) and np.array_equal(got[7:9].T, b**2)
        variances = got[2:4][:, np.isfinite(got[2:4]).all(axis=0)]
        assert np.all(variances >= 0.0)
        # The same pairs are fitted, for the same reason: no local mass, or
        # a weighted correlation at the cap or not a number.
        has_mass = mass >= WEIGHT_FLOOR
        assert np.array_equal(got[11] >= WEIGHT_FLOOR, has_mass)
        with np.errstate(divide="ignore", invalid="ignore"):
            got_corr = got[4] / np.sqrt(got[2] * got[3])
            ref_corr = cov[:, 0, 1] / np.sqrt(cov[:, 0, 0] * cov[:, 1, 1])
        cap = 1.0 - 1e-9
        collinear = ~(np.abs(got_corr) < cap)
        assert np.array_equal(collinear[has_mass], ~(np.abs(ref_corr) < cap)[has_mass])
        if not has_mass.any():
            return
        got, w, center, cov = got[:, has_mass], w[has_mass], center[has_mass], cov[has_mass]
        mass = mass[has_mass]
        assert np.all(np.abs(got[11] - mass) <= 1e-13 * mass)
        assert np.all(np.abs(got[10] - w.sum(axis=1)) <= 1e-13 * w.sum(axis=1))
        sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
        assert np.all(np.abs(got[:2].T - center) <= 1e-12 * (np.abs(center) + sd))
        # Variances of subnormal size keep only a few digits, in both.
        tiny = 1e-290
        assert np.all(np.abs(got[2] - cov[:, 0, 0]) <= 1e-10 * cov[:, 0, 0] + tiny)
        assert np.all(np.abs(got[3] - cov[:, 1, 1]) <= 1e-10 * cov[:, 1, 1] + tiny)
        assert np.all(np.abs(got[4] - cov[:, 0, 1]) <= 1e-10 * sd[:, 0] * sd[:, 1] + tiny)

    def test_pair_with_nan_correlation_is_not_fitted(self):
        # The input recorded on the per-pair reference above: one pair has
        # local mass and a NaN correlation. It is not fitted, like a pair at
        # the cap: no iteration, its start as parameters, and a fallback.
        rng = np.random.default_rng(42619)
        windows, grids, bandwidths = oracle_draw(rng, 3, 97, "below", -1.9541779826179855, 2.75)
        moments = local_moments_stack(windows, grids, bandwidths).reshape(12, -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = moments[4] / np.sqrt(moments[2] * moments[3])
        nan = np.isnan(corr) & (moments[11] >= WEIGHT_FLOOR)
        assert nan.sum() == 1
        theta0 = np.tile([0.0, 0.0, 1.0, 1.0, 0.0], (moments.shape[1], 1))
        params, fits = lgc.fit_local_moments(moments, theta0)
        assert fits.iterations[nan].tolist() == [0] and fits.fallback[nan].all()
        assert np.array_equal(params[nan], theta0[nan])

    @settings(max_examples=100, deadline=None)
    @given(n_assets=st.integers(2, 8), n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
    def test_starts_match_a_two_pass_per_pair_mle(self, n_assets, n, seed):
        rng = np.random.default_rng(seed)
        windows, grids, bandwidths = oracle_draw(rng, n_assets, n, "lower", 0.0, 0.0)
        xs, ys, _, _ = stack_pairs(windows, grids, bandwidths)
        stack = _mle_starts(*_window_stats(windows)[:2], n).reshape(-1, 5)
        alone = np.array([global_gaussian_mle(np.column_stack(xy)).as_array() for xy in zip(xs, ys)])
        for got in (stack, alone):
            for k, (x, y) in enumerate(zip(xs, ys)):
                dx, dy = x - x.mean(), y - y.mean()
                v1, v2 = np.mean(dx * dx), np.mean(dy * dy)
                sd1, sd2 = math.sqrt(v1), math.sqrt(v2)
                rho = min(max(np.mean(dx * dy) / math.sqrt(v1 * v2), -1.0 + 1e-9), 1.0 - 1e-9)
                assert abs(got[k, 0] - x.mean()) <= 1e-13 * (abs(x.mean()) + sd1)
                assert abs(got[k, 1] - y.mean()) <= 1e-13 * (abs(y.mean()) + sd2)
                assert got[k, 2:4] == pytest.approx([sd1, sd2], rel=1e-13)
                assert abs(got[k, 4] - rho) <= 1e-13


def gaussian_local_moments(rng, size):
    """(theta, moments): the (size, 5) parameters (mu1, mu2, sigma1, sigma2,
    rho) of `size` bivariate Gaussians N(mu, Sigma), and their (12, size)
    local_moments_stack rows in the population, at grid points r
    within two sds of mu and bandwidths b from 0.3 to 3 sds. Under the
    kernel N(x; r, B), B = diag(b^2), the Gaussian's weighted covariance is
    S = (Sigma^-1 + B^-1)^-1, its weighted mean S (Sigma^-1 mu + B^-1 r),
    and its mean kernel weight the density of N(mu, Sigma + B) at r."""
    mu = rng.uniform(-2.0, 2.0, (size, 2))
    sd = np.exp(rng.uniform(-1.0, 1.0, (size, 2)))
    rho = rng.uniform(-0.95, 0.95, size)
    b = sd * np.exp(rng.uniform(math.log(0.3), math.log(3.0), (size, 2)))
    r = mu + sd * rng.uniform(-2.0, 2.0, (size, 2))
    corr = np.ones((size, 2, 2))
    corr[:, 0, 1] = corr[:, 1, 0] = rho
    sigma = corr * sd[:, :, None] * sd[:, None, :]
    kernel = b[:, :, None] ** 2 * np.eye(2)
    cov = np.linalg.inv(np.linalg.inv(sigma) + np.linalg.inv(kernel))
    shift = np.linalg.solve(sigma, mu[:, :, None]) + np.linalg.solve(kernel, r[:, :, None])
    centre = (cov @ shift)[:, :, 0]
    wbar = np.array([multivariate_normal.pdf(r[k], mu[k], sigma[k] + kernel[k]) for k in range(size)])
    n = 100
    moments = np.array([
        centre[:, 0], centre[:, 1], cov[:, 0, 0], cov[:, 1, 1], cov[:, 0, 1],
        r[:, 0], r[:, 1], b[:, 0] ** 2, b[:, 1] ** 2,
        wbar, n * wbar, wbar * 2.0 * np.pi * b[:, 0] * b[:, 1],
    ])
    return np.column_stack([mu, sd, rho]), moments


class TestLocalStarts:
    """lgc._local_starts against the Gaussian whose local moments it reads."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gaussian_moments_give_the_gaussian(self, seed):
        # The largest errors over 6,000 pairs: 1.7e-14 (mu, relative to
        # |mu| + sd), 4.7e-15 (sd, relative) and 2.9e-15 (rho); the
        # objective's gradient there is at most 1.1e-12, so the start is
        # the local fit of these moments.
        rng = np.random.default_rng(seed)
        truth, moments = gaussian_local_moments(rng, 20)
        sign = rng.choice([-1.0, 1.0], truth.shape)
        mle = truth + sign * rng.uniform(0.05, 0.2, truth.shape) * [1.0, 1.0, 1.0, 1.0, 0.2]
        got = lgc._local_starts(moments, mle)
        mu, sd = truth[:, :2], truth[:, 2:4]
        assert np.all(np.abs(got[:, :2] - mu) <= 1e-12 * (np.abs(mu) + sd))
        assert np.all(np.abs(got[:, 2:4] - sd) <= 1e-12 * sd)
        assert np.all(np.abs(got[:, 4] - truth[:, 4]) <= 1e-12)
        grad = _objective(moments, lgc._to_eta(got).T, hessian=True)[1]
        assert np.abs(grad).max() <= 1e-10

    def test_moments_of_no_gaussian_keep_the_mle(self):
        # A weighted variance above the squared bandwidth deconvolves to no
        # positive definite Sigma0, and a weighted correlation of 1 - 1e-10
        # to one of 1 - 3.3e-11, beyond the cap: those pairs start from
        # their MLE, the third from the deconvolution.
        rng = np.random.default_rng(5)
        truth, moments = gaussian_local_moments(rng, 3)
        mle = truth * [1.0, 1.0, 1.2, 0.8, 0.5] + [0.1, -0.1, 0.0, 0.0, 0.0]
        moments[2, 0] = 1.5 * moments[7, 0]
        moments[4, 1] = (1.0 - 1e-10) * np.sqrt(moments[2, 1] * moments[3, 1])
        got = lgc._local_starts(moments, mle)
        assert np.array_equal(got[:2], mle[:2])
        assert np.max(np.abs(got[2] - truth[2])) <= 1e-12 * np.abs(truth[2]).max()


def eigen_modified_step(g, h, floor=1e-8):
    """-H'^-1 g with each eigenvalue l of H replaced by max(|l|, floor * max|l|)."""
    lam, vec = np.linalg.eigh(h)
    mag = np.abs(lam)
    mag = np.maximum(mag, floor * mag.max())
    return -vec @ ((vec.T @ g) / mag)


def random_symmetric(rng, size, low, high):
    """(size, 5, 5) symmetric matrices with eigenvalues of magnitude in [low, high]."""
    q = np.linalg.qr(rng.standard_normal((size, 5, 5)))[0]
    lam = np.exp(rng.uniform(np.log(low), np.log(high), (size, 5)))
    h = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
    return (h + h.transpose(0, 2, 1)) / 2.0, q, lam


class TestNewtonDirection:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 40),
        log_scale=st.floats(-12.0, 6.0),
        spread=st.floats(0.0, 4.0),
    )
    def test_positive_definite_hessians_take_the_newton_step(self, seed, size, log_scale, spread):
        # Condition numbers up to 1e4; the eigenvalue scale covers 1e-12..1e6.
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        h, _, _ = random_symmetric(rng, size, scale, scale * 10.0**spread)
        g = rng.standard_normal((size, 5))
        step = _newton_direction(np.ascontiguousarray(g.T), packed(h))
        want = np.linalg.solve(h, -g[:, :, None])[:, :, 0]
        err = np.abs(step.T - want).max(axis=1)
        assert np.all(err <= 1e-10 * np.abs(want).max(axis=1))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40))
    def test_indefinite_hessians_take_the_eigen_modified_step(self, seed, size):
        # Every other member gets a negative eigenvalue, or one below the
        # 1e-8 relative floor; those take the fallback, the others the
        # factorization, and each gets the step of the eigen-modified Newton
        # method.
        rng = np.random.default_rng(seed)
        h, q, lam = random_symmetric(rng, size, 0.1, 10.0)
        bent = np.arange(size) % 2 == 1
        lam[bent, rng.integers(0, 5)] *= rng.choice([-1.0, 1e-10], bent.sum())
        h = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
        h = (h + h.transpose(0, 2, 1)) / 2.0
        g = rng.standard_normal((size, 5))
        seen = []
        real = lgc._eigen_direction

        def spy(grad, hess):
            seen.append(len(grad))
            return real(grad, hess)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lgc, "_eigen_direction", spy)
            step = _newton_direction(np.ascontiguousarray(g.T), packed(h))
        assert sum(seen) == bent.sum()
        for k in range(size):
            want = eigen_modified_step(g[k], h[k])
            assert np.max(np.abs(step[:, k] - want)) <= 1e-10 * np.max(np.abs(want))


class TestPluginBandwidth:
    def test_two_point_closed_form(self):
        sample = [[-1.0, -2.0], [1.0, 2.0]]
        b1, b2 = plugin_bandwidth(sample)
        assert b1 == pytest.approx(1.1 * math.sqrt(2.0), rel=1e-14)
        assert b2 == pytest.approx(2.2 * math.sqrt(2.0), rel=1e-14)

    def test_tracks_population_sd(self, rng):
        sample = gauss_pair(rng, 10_000, 0.0, sds=(2.0, 0.5))
        b1, b2 = plugin_bandwidth(sample)
        assert b1 == pytest.approx(2.2, rel=0.05)
        assert b2 == pytest.approx(0.55, rel=0.05)

    def test_scale_parameter(self, rng):
        sample = gauss_pair(rng, 50, 0.3)
        b_default = plugin_bandwidth(sample)
        b_wide = plugin_bandwidth(sample, scale=2.2)
        assert b_wide[0] == pytest.approx(2 * b_default[0], rel=1e-14)

    def test_constant_coordinate_raises(self):
        sample = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(DegenerateSampleError):
            plugin_bandwidth(sample)

    def test_many_columns_match_pairs(self, rng):
        x = rng.standard_normal((60, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
        wide = plugin_bandwidth(x)
        assert len(wide) == 4
        assert wide[1:3] == pytest.approx(plugin_bandwidth(x[:, 1:3]), rel=1e-14)

    def test_stack_is_per_window_bandwidths(self):
        x = synth_panel(months=200, n_assets=5, model="clayton", seed=1).returns
        windows = np.stack([x[t - 120 : t] for t in range(120, 200)])
        windows[7][:, 3] = 0.25
        _, _, sd, errors = _window_stats(windows)
        assert list(errors) == [7]
        with pytest.raises(DegenerateSampleError) as alone:
            plugin_bandwidth(windows[7], 1.3)
        assert str(errors[7]) == str(alone.value) == "a column has zero variance"
        for d in range(len(windows)):
            if d != 7:
                assert tuple(1.3 * sd[d]) == plugin_bandwidth(windows[d], 1.3)

    def test_stack_rejects_non_finite_windows_and_bad_scale(self, rng):
        windows = rng.standard_normal((4, 30, 3))
        grids = windows.mean(axis=1)
        for scale in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="scale must be positive"):
                plugin_bandwidth(windows[0], scale)
            # A stack with no pair to fit (one asset, or one observation)
            # refuses the scale too.
            for w, g in ((windows, grids), (windows[..., :1], grids[:, :1])):
                with pytest.raises(ValueError, match="scale must be positive"):
                    local_covariance_stack(w, g, scale)
            with pytest.raises(ValueError, match="scale must be positive"):
                local_covariance_stack(windows[:, :1], grids, scale)
        windows[2, 5, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            plugin_bandwidth(windows[2])
        with pytest.raises(ValueError, match="non-finite"):
            local_covariance_stack(windows, grids)


class TestEstimateLocalParams:
    def test_recovers_gaussian_rho_at_origin(self, rng):
        sample = gauss_pair(rng, 2000, 0.5)
        theta, diag = estimate_local_params(sample, (0.0, 0.0), plugin_bandwidth(sample))
        assert abs(theta.rho - 0.5) < 0.08
        assert diag.converged and diag.gradient_norm < 1e-6

    def test_wide_bandwidth_reaches_global_mle(self, rng):
        # Perturbed start, so agreement is earned rather than inherited:
        # estimate_local_params's fit, started away from the global MLE.
        sample = gauss_pair(rng, 500, -0.3)
        start = LocalParams(0.5, -0.5, 2.0, 0.4, 0.2)
        moments = local_moments_stack(sample[None], np.array([[0.3, 0.1]]), np.full((1, 2), 1e6))
        params, fits = lgc.fit_local_moments(moments[:, 0], start.as_array()[None])
        assert fits[0].converged
        mle = global_gaussian_mle(sample)
        assert np.max(np.abs(params[0] - mle.as_array())) < 1e-3

    def test_far_grid_point_raises(self, rng):
        sample = gauss_pair(rng, 300, 0.0)
        b = plugin_bandwidth(sample)
        with pytest.raises(InsufficientLocalDataError):
            estimate_local_params(sample, (50.0, 50.0), b)

    def test_nonconvergence_carries_diagnostics(self, rng, monkeypatch):
        # One Newton step from the pair's start (its deconvolved moments)
        # leaves a gradient of 6.3e-5.
        sample = gauss_pair(rng, 400, 0.6)
        monkeypatch.setattr(lgc, "MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergenceError) as err:
            estimate_local_params(sample, (0.0, 0.0), plugin_bandwidth(sample))
        assert isinstance(err.value.diagnostics, FitDiagnostics)
        assert not err.value.diagnostics.converged
        assert err.value.diagnostics.fallback

    def test_deterministic(self, rng):
        sample = gauss_pair(rng, 600, 0.2)
        b = plugin_bandwidth(sample)
        t1, _ = estimate_local_params(sample, (0.1, -0.2), b)
        t2, _ = estimate_local_params(sample, (0.1, -0.2), b)
        assert t1 == t2

    def test_shift_equivariance(self, rng):
        sample = gauss_pair(rng, 500, 0.4)
        b = plugin_bandwidth(sample)
        base, _ = estimate_local_params(sample, (0.2, -0.1), b)
        shift = np.array([2.0, -4.5])
        moved, _ = estimate_local_params(sample + shift, (0.2 + 2.0, -0.1 - 4.5), b)
        assert moved.mu1 - 2.0 == pytest.approx(base.mu1, abs=1e-7)
        assert moved.mu2 + 4.5 == pytest.approx(base.mu2, abs=1e-7)
        assert moved.sigma1 == pytest.approx(base.sigma1, abs=1e-7)
        assert moved.sigma2 == pytest.approx(base.sigma2, abs=1e-7)
        assert moved.rho == pytest.approx(base.rho, abs=1e-7)

    def test_sign_flip_negates_rho(self, rng):
        sample = gauss_pair(rng, 500, 0.4)
        b = plugin_bandwidth(sample)
        flipped = sample * np.array([1.0, -1.0])
        base, _ = estimate_local_params(sample, (0.2, 0.3), b)
        mirror, _ = estimate_local_params(flipped, (0.2, -0.3), b)
        assert mirror.rho == pytest.approx(-base.rho, abs=1e-10)
        assert mirror.mu2 == pytest.approx(-base.mu2, abs=1e-10)
        assert mirror.sigma2 == pytest.approx(base.sigma2, abs=1e-10)

    @pytest.mark.slow
    def test_gaussian_consistency_improves_with_n(self):
        rng = np.random.default_rng(7)
        med_err = []
        for n in (500, 2000, 8000):
            errs = []
            for _ in range(20):
                sample = gauss_pair(rng, n, 0.4)
                b = plugin_bandwidth(sample)
                for q in (0.25, 0.5):
                    point = np.quantile(sample, q, axis=0)
                    theta, _ = estimate_local_params(sample, point, b)
                    errs.append(abs(theta.rho - 0.4))
            med_err.append(float(np.median(errs)))
        assert med_err[0] > med_err[1] > med_err[2]
