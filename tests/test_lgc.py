"""Local Gaussian fit machinery: kernel, likelihood, score and estimator."""

import math

import numpy as np
import pytest
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
    gaussian_mle_batch,
    global_gaussian_mle,
    local_loglik,
    local_score,
    penalty_integral,
    plugin_bandwidth,
)
from lgcport.lgc import _local_moments, _objective, _penalty_gradient

from conftest import gauss_pair, eta_score


def quad_penalty(r, b, theta):
    """Adaptive 2-d quadrature oracle for the penalty integral."""
    lo1 = min(r[0] - 10 * b[0], theta.mu1 - 10 * theta.sigma1)
    hi1 = max(r[0] + 10 * b[0], theta.mu1 + 10 * theta.sigma1)
    lo2 = min(r[1] - 10 * b[1], theta.mu2 - 10 * theta.sigma2)
    hi2 = max(r[1] + 10 * b[1], theta.mu2 + 10 * theta.sigma2)

    def f(y, x):
        return gaussian_kernel_weight((x, y), r, b) * bivariate_normal_density((x, y), theta)

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
        for _ in range(12):
            theta, r, b = random_config(rng)
            got = penalty_integral(r, b, theta)
            assert got == pytest.approx(quad_penalty(r, b, theta), abs=1e-10)

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
        xs = np.array([s[:, 0] for s in samples])
        ys = np.array([s[:, 1] for s in samples])
        batch = gaussian_mle_batch(xs, ys)
        for row, sample in zip(batch, samples):
            assert np.array_equal(row, global_gaussian_mle(sample).as_array())

    def test_identical_columns_capped_below_one(self, rng):
        x = rng.standard_normal(50)
        assert global_gaussian_mle(np.column_stack([x, x])).rho == 1.0 - 1e-9

    def test_constant_column_raises(self):
        with pytest.raises(DegenerateSampleError):
            global_gaussian_mle(np.column_stack([np.ones(10), np.arange(10.0)]))


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
            w = gaussian_kernel_weight(sample, r, b)
            moments = _local_moments(
                sample[None, :, 0],
                sample[None, :, 1],
                (w / w.sum())[None],
                r[None],
                b[None],
                np.array([w.mean()]),
            )
            value, grad, hess = _objective(moments, eta[None], hessian=True)

            theta = LocalParams(
                eta[0], eta[1], math.exp(eta[2]), math.exp(eta[3]), math.tanh(eta[4])
            )
            wbar = w.mean()
            assert value[0] == pytest.approx(-local_loglik(sample, r, b, theta) / wbar, abs=1e-10)
            assert np.max(np.abs(grad[0] - eta_score(sample, r, b, eta))) < 1e-10
            fd = np.empty((5, 5))
            for k in range(5):
                up, dn = eta.copy(), eta.copy()
                up[k] += h
                dn[k] -= h
                fd[:, k] = (eta_score(sample, r, b, up) - eta_score(sample, r, b, dn)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(hess[0] - fd))))
        assert worst <= 1e-6


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


class TestEstimateLocalParams:
    def test_recovers_gaussian_rho_at_origin(self, rng):
        sample = gauss_pair(rng, 2000, 0.5)
        theta, diag = estimate_local_params(sample, (0.0, 0.0), plugin_bandwidth(sample))
        assert abs(theta.rho - 0.5) < 0.08
        assert diag.converged and diag.gradient_norm < 1e-6

    def test_wide_bandwidth_reaches_global_mle(self, rng):
        # Perturbed start, so agreement is earned rather than inherited.
        sample = gauss_pair(rng, 500, -0.3)
        start = LocalParams(0.5, -0.5, 2.0, 0.4, 0.2)
        theta, _ = estimate_local_params(sample, (0.3, 0.1), (1e6, 1e6), start)
        mle = global_gaussian_mle(sample)
        assert np.max(np.abs(theta.as_array() - mle.as_array())) < 1e-3

    def test_far_grid_point_raises(self, rng):
        sample = gauss_pair(rng, 300, 0.0)
        b = plugin_bandwidth(sample)
        with pytest.raises(InsufficientLocalDataError):
            estimate_local_params(sample, (50.0, 50.0), b)

    def test_nonconvergence_carries_diagnostics(self, rng):
        sample = gauss_pair(rng, 400, 0.6)
        start = LocalParams(3.0, -3.0, 0.1, 9.0, -0.8)
        with pytest.raises(NonConvergenceError) as err:
            estimate_local_params(
                sample, (0.0, 0.0), plugin_bandwidth(sample), start, max_iterations=1
            )
        assert isinstance(err.value.diagnostics, FitDiagnostics)
        assert not err.value.diagnostics.converged

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

    def test_warm_start_agrees_with_cold(self, rng):
        sample = gauss_pair(rng, 800, 0.3)
        b = plugin_bandwidth(sample)
        cold, _ = estimate_local_params(sample, (0.0, 0.0), b)
        warm, _ = estimate_local_params(sample, (0.0, 0.0), b, init=cold)
        assert np.max(np.abs(cold.as_array() - warm.as_array())) < 1e-4

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
