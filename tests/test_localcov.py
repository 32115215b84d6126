"""Covariance assembly, grids and positive-definiteness repair."""

import itertools
import math
import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from lgcport.errors import (
    DegenerateSampleError,
    InsufficientDataError,
    InsufficientLocalDataError,
    NonConvergenceError,
    NonSymmetricError,
)
import lgcport.lgc as lgc
from lgcport.lgc import (
    GRADIENT_TOL,
    LocalParams,
    _full_hessian,
    _local_starts,
    _objective,
    _to_eta,
    estimate_local_params,
    fit_local_moments,
    gaussian_kernel_weight,
    global_gaussian_mle,
    local_loglik,
    local_moments_stack,
    plugin_bandwidth,
)
import lgcport.localcov as localcov
from lgcport.localcov import (
    global_covariance,
    global_covariance_stack,
    local_covariance_stack,
    moving_grid,
    nearest_correlation,
    nearest_pd,
    pairwise_local_covariance,
    percentile_grid,
)
from lgcport.synth import clayton_normal_sample, synth_panel

from conftest import eta_score, gauss_pair, pair_moments


def clip_renormalized(corr):
    """Naive repair oracle: clip eigenvalues at zero, rescale to unit diagonal."""
    vals, vecs = np.linalg.eigh(corr)
    x = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    d = np.sqrt(np.diag(x))
    return x / np.outer(d, d)


def random_indefinite_correlation(rng, n):
    while True:
        c = np.eye(n)
        off = rng.uniform(-1.0, 1.0, size=(n, n))
        c = np.triu(off, 1) + np.triu(off, 1).T + np.eye(n)
        if np.linalg.eigvalsh(c)[0] < -1e-6:
            return c


class TestNearestPd:
    def test_pd_input_returned_unchanged(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        out, repaired = nearest_pd(m)
        assert not repaired
        assert np.array_equal(out, m)

    def test_singular_two_asset_case(self):
        # Perfect anticorrelation: eigenvalues (4, 0), needs the repair path.
        m = np.array([[2.0, -2.0], [-2.0, 2.0]])
        out, repaired = nearest_pd(m)
        assert repaired
        vals = np.linalg.eigvalsh(out)
        assert vals[0] > 0.0
        assert vals[0] >= 1e-10 * vals[-1] * (1 - 1e-9)
        assert np.allclose(out, m, atol=1e-6)

    def test_indefinite_three_asset_case(self):
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        out, repaired = nearest_pd(m)
        assert repaired
        assert np.linalg.eigvalsh(out)[0] > 0.0
        assert np.allclose(np.diag(out), 1.0, atol=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricError):
            nearest_pd(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            nearest_pd(np.array([[1.0, 0.5], [0.5, bad]]))

    def test_correlation_stage_beats_clipping(self, rng):
        for n in (3, 5, 8):
            for _ in range(10):
                c = random_indefinite_correlation(rng, n)
                fixed = nearest_correlation(c)
                assert np.linalg.eigvalsh(fixed)[0] >= -1e-8
                assert np.allclose(np.diag(fixed), 1.0, atol=1e-9)
                d_higham = np.linalg.norm(c - fixed, "fro")
                d_clip = np.linalg.norm(c - clip_renormalized(c), "fro")
                assert d_higham <= d_clip + 1e-7


class TestGlobalCovariance:
    def test_matches_numpy_cov(self, rng):
        x = rng.standard_normal((200, 4)) @ rng.standard_normal((4, 4))
        out = global_covariance(x)
        assert not out.pd_repaired
        assert np.allclose(out.matrix, np.cov(x, rowvar=False, ddof=1), atol=0)

    def test_two_point_hand_case_repaired(self):
        x = np.array([[1.0, -1.0], [-1.0, 1.0]])
        out = global_covariance(x)
        assert out.pd_repaired
        assert np.linalg.eigvalsh(out.matrix)[0] > 0.0
        assert np.allclose(out.matrix, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-6)

    def test_independent_columns_near_diagonal(self, rng):
        x = rng.standard_normal((20_000, 3))
        out = global_covariance(x)
        off = out.matrix[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.05

    def test_zero_variance_column_raises(self):
        x = np.column_stack([np.ones(30), np.arange(30.0)])
        with pytest.raises(DegenerateSampleError):
            global_covariance(x)


class TestMovingGrid:
    def test_three_month_mean(self):
        x = np.array([[10.0], [1.0], [2.0], [3.0]])
        assert moving_grid(x, 4) == pytest.approx([2.0])

    def test_loop_oracle(self, rng):
        x = rng.standard_normal((30, 4))
        for t in (3, 10, 30):
            grid = moving_grid(x, t)
            want = [sum(x[t - k][i] for k in (1, 2, 3)) / 3.0 for i in range(4)]
            assert np.allclose(grid, want, atol=1e-12)

    def test_translation_equivariance(self):
        x = np.arange(24.0).reshape(8, 3)
        assert np.array_equal(moving_grid(x + 5.0, 6), moving_grid(x, 6) + 5.0)

    def test_out_of_range_raises(self):
        x = np.zeros((10, 2))
        with pytest.raises(IndexError):
            moving_grid(x, 2)
        with pytest.raises(IndexError):
            moving_grid(x, 11)

    def test_lookback_parameter(self):
        x = np.array([[1.0], [3.0], [100.0]])
        assert moving_grid(x, 2, lookback=2) == pytest.approx([2.0])

    @pytest.mark.parametrize("lookback", [1, 3, 5, 12])
    def test_index_array_matches_per_date_means(self, lookback):
        for x in (synth_panel().returns, synth_panel(140, 12, model="clayton", seed=5).returns):
            ts = np.arange(lookback, len(x) + 1)
            want = np.stack([x[t - lookback : t].mean(axis=0) for t in ts])
            assert moving_grid(x, ts, lookback).tobytes() == want.tobytes()

    def test_index_array_out_of_range_raises(self):
        with pytest.raises(IndexError, match="month index 11"):
            moving_grid(np.zeros((10, 2)), np.array([3, 11, 1]))


class TestPercentileGrid:
    def test_median_of_odd_sample(self):
        x = np.array([[3.0], [1.0], [2.0]] * 7)
        assert percentile_grid(x, 0.5) == pytest.approx([2.0])

    def test_normal_tail_quantile(self, rng):
        x = rng.standard_normal((100_000, 2))
        grid = percentile_grid(x, 0.05)
        assert np.allclose(grid, -1.645, atol=0.05)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_quantile_outside_open_interval(self, q):
        with pytest.raises(ValueError):
            percentile_grid(np.zeros((50, 2)), q)

    def test_too_few_tail_observations(self):
        with pytest.raises(InsufficientDataError):
            percentile_grid(np.random.default_rng(0).standard_normal((10, 2)), 0.05)
        with pytest.raises(InsufficientDataError):
            percentile_grid(np.zeros((3, 10, 2)), 0.05)

    @pytest.mark.parametrize("q", [1e-320, 5e-324, 1e-300])
    def test_subnormal_quantile_leaves_too_few_tail_observations(self, q):
        # 1 / q is inf or a 301-digit count: the message states the tail instead.
        with pytest.raises(InsufficientDataError, match="tail of quantile") as info:
            percentile_grid(np.zeros((120, 2)), q)
        assert len(str(info.value)) < 100

    @pytest.mark.parametrize("window", [24, 120])
    @pytest.mark.parametrize("q", [0.05, 0.1, 0.5, 0.95])
    def test_stack_matches_per_date_quantiles(self, window, q):
        x = synth_panel(140, 12, model="clayton", seed=5).returns
        windows = np.stack([x[t - window : t] for t in range(window, len(x))])
        want = np.stack([np.quantile(w, q, axis=0) for w in windows])
        assert percentile_grid(windows, q).tobytes() == want.tobytes()


class TestPairwiseLocalCovariance:
    def test_gaussian_center_matches_global(self, rng):
        sample = gauss_pair(rng, 4000, 0.5, sds=(2.0, 1.5))
        out = pairwise_local_covariance(sample, sample.mean(axis=0))
        ref = np.cov(sample, rowvar=False, ddof=1)
        assert np.allclose(out.matrix, ref, rtol=0.15)
        assert abs(out.correlations[0, 1] - 0.5) < 0.1

    def test_identical_columns_capped_below_one(self, rng):
        x = rng.standard_normal(200)
        sample = np.column_stack([x, x])
        out = pairwise_local_covariance(sample, (0.0, 0.0))
        assert out.correlations[0, 1] < 1.0
        assert np.linalg.eigvalsh(out.matrix)[0] > 0.0
        # No finite local optimum exists at correlation 1: the pair is not
        # fitted and falls back to its (capped) global Gaussian MLE.
        diag = out.pair_diagnostics[(0, 1)]
        assert diag.fallback and not diag.converged
        assert diag.iterations == 0
        mle = global_gaussian_mle(sample)
        off = mle.rho * mle.sigma1 * mle.sigma2
        want = np.array([[mle.sigma1**2, off], [off, mle.sigma2**2]]) * (200 / 199)
        assert np.array_equal(out.matrix, nearest_pd(want)[0])

    def test_clayton_tails_are_asymmetric(self):
        rng = np.random.default_rng(42)
        x = clayton_normal_sample(rng, 3000, 6, 2.0)
        lower = pairwise_local_covariance(x, percentile_grid(x, 0.05))
        upper = pairwise_local_covariance(x, percentile_grid(x, 0.95))
        mask = ~np.eye(6, dtype=bool)
        assert lower.correlations[mask].mean() > upper.correlations[mask].mean()

    def test_permutation_equivariance(self, rng):
        x = rng.standard_normal((300, 4)) @ rng.standard_normal((4, 4))
        x += rng.standard_normal(4)
        grid = x.mean(axis=0)
        perm = np.array([2, 0, 3, 1])
        base = pairwise_local_covariance(x, grid)
        permuted = pairwise_local_covariance(x[:, perm], grid[perm])
        assert np.allclose(permuted.matrix, base.matrix[np.ix_(perm, perm)], atol=1e-10)

    def test_wide_bandwidth_converges_to_global(self, rng):
        x = rng.standard_normal((150, 3)) @ rng.standard_normal((3, 3)) + 1.0
        out = pairwise_local_covariance(x, x.mean(axis=0), bandwidth_scale=1e6)
        ref = global_covariance(x)
        assert np.allclose(out.matrix, ref.matrix, rtol=1e-4)

    def test_pair_diagnostics(self, rng):
        x = rng.standard_normal((120, 3))
        out = pairwise_local_covariance(x, np.zeros(3))
        assert set(out.pair_diagnostics) == {(0, 1), (0, 2), (1, 2)}
        assert all(d.converged and not d.fallback for d in out.pair_diagnostics.values())

    def test_batched_fits_match_single_pair_fits(self):
        # One batched solve against one single-pair fit per pair, cold (by
        # estimate_local_params, from the pairs' _local_starts) and then
        # warm-started (by fit_from), at a lower-tail grid where pairs need
        # different numbers of Newton steps.
        rng = np.random.default_rng(4)
        x = clayton_normal_sample(rng, 160, 5, 2.0) * np.array([1.0, 2.0, 0.5, 3.0, 1.5])
        first, second = np.triu_indices(5, 1)
        warm = None
        for window in (x[:150], x[10:]):
            grid = percentile_grid(window, 0.1)
            b = np.array(plugin_bandwidth(window))
            moments = pair_moments(
                window.T[first],
                window.T[second],
                np.column_stack([grid[first], grid[second]]),
                np.column_stack([b[first], b[second]]),
            )
            mle = np.array(
                [global_gaussian_mle(window[:, [i, j]]).as_array() for i, j in zip(first, second)]
            )
            cold = _local_starts(moments, mle)
            params, fits = fit_local_moments(moments, cold if warm is None else warm)
            steps = set()
            for k, (i, j) in enumerate(zip(first, second)):
                pair, r = window[:, [i, j]], grid[[i, j]]
                if warm is None:
                    single, diag = estimate_local_params(pair, r, plugin_bandwidth(pair))
                else:
                    start = LocalParams.from_array(warm[k])
                    single, diag = fit_from(pair, r, plugin_bandwidth(pair), start)
                assert np.max(np.abs(single.as_array() - params[k])) <= 1e-9
                assert fits.iterations[k] == diag.iterations
                steps.add(diag.iterations)
            assert len(steps) > 1
            if warm is None:
                # The one-date API runs the same cold batch.
                out = pairwise_local_covariance(window, grid)
                assert np.max(np.abs(out.correlations[first, second] - params[:, 4])) <= 1e-9
                iterations = [out.pair_diagnostics[p].iterations for p in zip(first, second)]
                assert iterations == fits.iterations.tolist()
            warm = params

    def test_grid_length_mismatch_raises(self, rng):
        x = rng.standard_normal((50, 3))
        with pytest.raises(ValueError):
            pairwise_local_covariance(x, np.zeros(2))


def bfgs_refit(sample, r, b):
    """Tight-tolerance scipy BFGS maximizer of the local likelihood, from the global MLE."""
    wbar = gaussian_kernel_weight(sample, r, b).mean()

    def fun(eta):
        theta = LocalParams(eta[0], eta[1], math.exp(eta[2]), math.exp(eta[3]), math.tanh(eta[4]))
        return -local_loglik(sample, r, b, theta) / wbar, eta_score(sample, r, b, eta)

    start = _to_eta(global_gaussian_mle(sample).as_array()[None])[0]
    res = minimize(fun, start, jac=True, method="BFGS", options={"gtol": 1e-10, "maxiter": 1000})
    e = res.x
    return np.array([e[0], e[1], math.exp(e[2]), math.exp(e[3]), math.tanh(e[4])])


PAPER_PAIRS = list(itertools.combinations(range(6), 2))


def fit_from(pair, r, b, start):
    """(LocalParams, FitDiagnostics) of estimate_local_params's Newton fit of
    one (n, 2) pair at grid point r, started from the LocalParams `start`
    in place of the pair's global MLE. A fit that does not converge fails."""
    moments = local_moments_stack(pair[None], np.asarray(r)[None], np.asarray(b)[None])[:, 0]
    params, fits = fit_local_moments(moments, start.as_array()[None])
    assert fits[0].converged
    return LocalParams.from_array(params[0]), fits[0]


def warm_chain(months, window=120):
    """Per month index t of the paper's run: (t, {pair: (LocalParams, FitDiagnostics)}).

    Every pair is fitted on its own (fit_from), warm-started from its fit at
    the month before (the first month from its global MLE). A fit that does
    not converge fails. The dict is updated in place.
    """
    x = synth_panel().returns
    fits = {}
    for t in months:
        w, grid = x[t - window : t], moving_grid(x, t)
        for i, j in PAPER_PAIRS:
            pair = w[:, [i, j]]
            start = fits[i, j][0] if (i, j) in fits else global_gaussian_mle(pair)
            fits[i, j] = fit_from(pair, grid[[i, j]], plugin_bandwidth(pair), start)
        yield t, fits


class TestNewtonOnPaperPanel:
    """Warm-started single-pair fits along the paper's run (synth_panel(), window 120)."""

    def test_agrees_with_tight_bfgs_refit(self):
        # Both solvers reach the same optimum; the Newton fits stop at gradient
        # 1e-6, and the largest difference measured over this slice is 7.8e-6
        # (in mu2), so the bound leaves a factor of 2.5.
        x = synth_panel().returns
        worst = 0.0
        for t, fits in warm_chain(range(120, 130)):
            window, grid = x[t - 120 : t], moving_grid(x, t)
            for (i, j), (theta, _) in fits.items():
                pair = window[:, [i, j]]
                ref = bfgs_refit(pair, grid[[i, j]], plugin_bandwidth(pair))
                worst = max(worst, float(np.max(np.abs(ref - theta.as_array()))))
        assert worst <= 2e-5

    def test_indefinite_warm_start_converges(self, monkeypatch):
        # At month index 224 the warm start of pair (1, 4) has an indefinite
        # Hessian: the only such start in the window-120 run, where a plain
        # gradient-step fallback stalled. Its first step comes from the
        # eigen-modified fallback of the LDL' step, and it converges, as do
        # the other pairs of the chain.
        x = synth_panel().returns
        for _, fits in warm_chain(range(120, 224)):
            pass
        t = 224
        window, grid = x[t - 120 : t], moving_grid(x, t)
        pair, r = window[:, [1, 4]], grid[[1, 4]]
        b = np.array(plugin_bandwidth(pair))
        moments = local_moments_stack(pair[None], r[None], b[None])[:, 0]
        start = _to_eta(fits[1, 4][0].as_array()[None])
        hess = _full_hessian(_objective(moments, start.T, hessian=True)[2])[0]
        assert np.linalg.eigvalsh(hess)[0] < 0.0
        fallbacks = []
        real = lgc._eigen_direction

        def spy(grad, hess):
            fallbacks.append(hess.copy())
            return real(grad, hess)

        monkeypatch.setattr(lgc, "_eigen_direction", spy)
        _, diag = fit_from(pair, r, b, fits[1, 4][0])
        assert diag.converged
        assert diag.gradient_norm <= GRADIENT_TOL
        assert np.array_equal(fallbacks[0], hess[None])


def c11_windows(window, n_dates):
    """Windows and moving grids of the first `n_dates` dates of the paper's run."""
    x = synth_panel().returns
    ts = range(window, window + n_dates)
    return np.stack([x[t - window : t] for t in ts]), np.stack([moving_grid(x, t) for t in ts])


class TestLocalCovarianceStack:
    @staticmethod
    def counted_stages(monkeypatch):
        """Count the slices (one local_moments_stack call each) and Newton
        passes of local_covariance_stack."""
        calls = {"moments": 0, "newton": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            localcov, "local_moments_stack", counting("moments", localcov.local_moments_stack)
        )
        monkeypatch.setattr(
            localcov, "fit_local_moments", counting("newton", localcov.fit_local_moments)
        )
        return calls

    def test_a_date_does_not_depend_on_its_block(self, monkeypatch):
        # 30 dates of 6 assets x 120 months (15 pairs each), in one Newton
        # pass; the slices hold 1, 7 or 30 dates.
        windows, grids = c11_windows(120, 30)
        calls = self.counted_stages(monkeypatch)
        runs = []
        for dates_per_slice, n_slices in ((1, 30), (7, 5), (30, 1)):
            monkeypatch.setattr(localcov, "_BLOCK_PAIR_OBS", dates_per_slice * 120 * 6)
            calls.update(moments=0, newton=0)
            runs.append(local_covariance_stack(windows, grids))
            assert calls == {"moments": n_slices, "newton": 1}
        for run in runs[1:]:
            for name in ("matrices", "correlations", "n_fallbacks"):
                assert np.array_equal(getattr(run, name), getattr(runs[0], name))
            for record in ("fits", "repair"):
                for name, value in vars(getattr(run, record)).items():
                    assert np.array_equal(value, getattr(getattr(runs[0], record), name))
        for d in (0, 13, 29):
            alone = local_covariance_stack(windows[d : d + 1], grids[d : d + 1])
            assert np.array_equal(alone.matrices[0], runs[0].matrices[d])
            assert alone.date(0).pair_diagnostics == runs[0].date(d).pair_diagnostics

    def test_a_date_does_not_depend_on_its_newton_pass(self, monkeypatch):
        # The same 30 dates in Newton passes of 1, 7 or all 30 dates, each
        # pass read in slices of 4 dates (its last slice holds the rest).
        windows, grids = c11_windows(120, 30)
        calls = self.counted_stages(monkeypatch)
        monkeypatch.setattr(localcov, "_BLOCK_PAIR_OBS", 4 * 120 * 6)
        runs = []
        for dates_per_pass, n_passes, n_slices in ((1, 30, 30), (7, 5, 9), (30, 1, 8)):
            monkeypatch.setattr(localcov, "_BLOCK_PAIRS", dates_per_pass * 15)
            calls.update(moments=0, newton=0)
            runs.append(local_covariance_stack(windows, grids))
            assert calls == {"moments": n_slices, "newton": n_passes}
        for run in runs[1:]:
            for name in ("matrices", "correlations"):
                assert np.array_equal(getattr(run, name), getattr(runs[0], name))
            for name, value in vars(run.repair).items():
                assert np.array_equal(value, getattr(runs[0].repair, name))
            for name in ("iterations", "fallback"):
                assert np.array_equal(getattr(run.fits, name), getattr(runs[0].fits, name))

    def test_a_date_does_not_depend_on_its_repair_block(self, monkeypatch):
        # 30 dates of the paper's run, two of them (104 and 105) repaired,
        # one date per Newton pass; the repair blocks hold 1, 7 or 30 dates.
        windows, grids = c11_windows(120, 120)
        windows, grids = windows[90:], grids[90:]
        monkeypatch.setattr(localcov, "_BLOCK_PAIRS", 15)
        sizes = []
        real_repair = localcov._repair

        def repair(cov):
            sizes.append(len(cov))
            return real_repair(cov)

        monkeypatch.setattr(localcov, "_repair", repair)
        runs = []
        for dates_per_block, blocks in ((1, [1] * 30), (7, [7] * 4 + [2]), (30, [30])):
            monkeypatch.setattr(localcov, "_BLOCK_REPAIR", dates_per_block * 36)
            sizes.clear()
            runs.append(local_covariance_stack(windows, grids))
            assert sizes == blocks
        assert np.flatnonzero(runs[0].repair.repaired).tolist() == [14, 15]
        for run in runs[1:]:
            for name in ("matrices", "correlations"):
                assert np.array_equal(getattr(run, name), getattr(runs[0], name))
            for name, value in vars(run.repair).items():
                assert np.array_equal(value, getattr(runs[0].repair, name))

    def test_one_date_api_is_its_one_date_case(self):
        windows, grids = c11_windows(240, 4)
        stack = local_covariance_stack(windows, grids)
        for d in range(4):
            one = pairwise_local_covariance(windows[d], grids[d])
            assert np.array_equal(one.matrix, stack.matrices[d])
            assert np.array_equal(one.correlations, stack.correlations[d])
            assert one.pd_repaired == stack.repair.repaired[d]
            assert one.n_fallbacks == stack.n_fallbacks[d]
            assert one.pair_diagnostics == stack.date(d).pair_diagnostics

    def test_agrees_with_the_warm_started_chain(self):
        # Cold and warm starts reach the same optimum up to the 1e-6 gradient
        # tolerance; the largest |d rho| measured over this slice is 3.6e-6.
        windows, grids = c11_windows(120, 60)
        stack = local_covariance_stack(windows, grids)
        worst = 0.0
        for d, (_, fits) in enumerate(warm_chain(range(120, 180))):
            for (i, j), (theta, _) in fits.items():
                worst = max(worst, abs(theta.rho - stack.correlations[d][i, j]))
        assert worst <= 2e-5

    @pytest.mark.parametrize("case", ["paper", "clayton_tail"])
    def test_working_memory_is_bounded(self, case):
        # Traced peaks of the pass, stack result included: 2.4 MB (paper,
        # 343 dates of 15 pairs) and 2.6 MB (clayton_tail, 40 dates of 276
        # pairs x 240 months). One solve per 24,576 pair-observations, with
        # the samples kept through the Newton iterations, peaked at 1.5 and
        # 3.4 MB; one Newton pass over all the dates peaks at 5.6 and
        # 11.8 MB. A bound of twice the former catches a block that grows
        # with the number of dates or with the window.
        if case == "paper":
            windows, grids = c11_windows(120, 343)
            bound = 3.0
        else:
            x = synth_panel(months=280, n_assets=24, model="clayton", seed=0).returns
            windows = np.stack([x[t - 240 : t] for t in range(240, 280)])
            grids = np.stack([percentile_grid(w, 0.05) for w in windows])
            bound = 6.8
        tracemalloc.start()
        try:
            local_covariance_stack(windows, grids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20

    @pytest.mark.parametrize("case", ["paper", "clayton_tail"])
    def test_every_date_is_a_valid_covariance(self, case):
        if case == "paper":
            windows, grids = c11_windows(120, 60)
        else:
            x = synth_panel(months=140, n_assets=12, model="clayton", seed=0).returns
            windows = np.stack([x[t - 120 : t] for t in range(120, 140)])
            grids = np.stack([percentile_grid(w, 0.05) for w in windows])
        stack = local_covariance_stack(windows, grids)
        assert not stack.errors
        if case == "clayton_tail":
            assert stack.repair.repaired.all()
        for m, corr in zip(stack.matrices, stack.correlations):
            assert np.array_equal(m, m.T)
            assert np.linalg.eigvalsh(m)[0] > 0.0
            assert np.max(np.abs(corr)) <= 1.0
            d = np.sqrt(np.diag(m))
            assert np.max(np.abs(m / np.outer(d, d))) <= 1.0 + 1e-12

    def test_zero_variance_date_fails_alone(self):
        windows, grids = c11_windows(120, 6)
        windows[2][:, 1] = 0.5
        stack = local_covariance_stack(windows, grids)
        assert list(stack.errors) == [2]
        assert isinstance(stack.errors[2], DegenerateSampleError)
        assert str(stack.errors[2]) == "a column has zero variance"
        assert not stack.matrices[2].any() and stack.n_fallbacks[2] == 0
        rest = [0, 1, 3, 4, 5]
        clean = local_covariance_stack(windows[rest], grids[rest])
        assert np.array_equal(stack.matrices[rest], clean.matrices)

    def test_collinear_pair_falls_back_to_its_global_mle(self, rng):
        x = rng.standard_normal((60, 3))
        x[:, 2] = x[:, 0]
        windows = np.stack([x[:50], x[10:]])
        stack = local_covariance_stack(windows, np.zeros((2, 3)))
        assert stack.n_fallbacks.tolist() == [1, 1]
        for d in range(2):
            mle = global_gaussian_mle(windows[d][:, [0, 2]])
            assert stack.correlations[d][0, 2] == mle.rho

    def test_unfitted_and_unconverged_pairs_fall_back_to_their_global_mle(self, rng, monkeypatch):
        # One pair per date: date 0's grid point lies far in asset 1's tail,
        # where the pair has no local mass; date 1's is a lower-tail point,
        # where the Newton iteration is cut after one step.
        x = gauss_pair(rng, 80, 0.4)
        windows = np.stack([x, x])
        grids = np.array([[0.0, 40.0], percentile_grid(x, 0.1)])
        assert local_covariance_stack(windows, grids).date(1).pair_diagnostics[(0, 1)].converged
        monkeypatch.setattr(lgc, "MAX_ITERATIONS", 1)
        stack = local_covariance_stack(windows, grids)
        mle = global_gaussian_mle(x)
        off = mle.rho * mle.sigma1 * mle.sigma2
        want = nearest_pd(np.array([[mle.sigma1**2, off], [off, mle.sigma2**2]]) * (80 / 79))[0]
        for d, iterations in ((0, 0), (1, 1)):
            diag = stack.date(d).pair_diagnostics[(0, 1)]
            assert diag.fallback and not diag.converged
            assert diag.iterations == iterations
            assert np.array_equal(stack.matrices[d], want)
            assert stack.correlations[d][0, 1] == mle.rho
        assert stack.n_fallbacks.tolist() == [1, 1]
        # The one-pair API raises for each, with the same record.
        b = plugin_bandwidth(x)
        with pytest.raises(InsufficientLocalDataError):
            estimate_local_params(x, grids[0], b)
        with pytest.raises(NonConvergenceError) as err:
            estimate_local_params(x, grids[1], b)
        assert err.value.diagnostics == stack.date(1).pair_diagnostics[(0, 1)]

    def test_single_asset_dates_use_the_sample_variance(self, rng):
        x = rng.standard_normal((30, 1))
        windows = np.stack([x[:20], x[10:]])
        stack = local_covariance_stack(windows, np.zeros((2, 1)))
        for d in range(2):
            assert np.array_equal(stack.matrices[d], global_covariance(windows[d]).matrix)

    def test_window_shorter_than_two_fails_every_date(self, rng):
        windows = rng.standard_normal((3, 1, 2))
        stack = local_covariance_stack(windows, np.zeros((3, 2)))
        assert sorted(stack.errors) == [0, 1, 2]
        assert all(isinstance(e, InsufficientDataError) for e in stack.errors.values())
        with pytest.raises(InsufficientDataError):
            pairwise_local_covariance(windows[0], np.zeros(2))

    def test_rejects_malformed_input(self, rng):
        windows = rng.standard_normal((3, 20, 2))
        with pytest.raises(ValueError):
            local_covariance_stack(windows[0], np.zeros(2))
        with pytest.raises(ValueError):
            local_covariance_stack(windows, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            local_covariance_stack(windows, np.full((3, 2), np.nan))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_fails_every_estimate(bad, rng, monkeypatch):
    # The bad value is in the last of 3 dates, in the second block of
    # windows that each stack checks.
    windows = rng.standard_normal((3, 20, 2))
    windows[2, 5, 1] = bad
    monkeypatch.setattr(localcov, "_BLOCK_PAIR_OBS", 2 * 20 * 2)
    estimates = (
        lambda: global_covariance_stack(windows),
        lambda: local_covariance_stack(windows, np.zeros((3, 2))),
        lambda: global_covariance(windows[2]),
        lambda: pairwise_local_covariance(windows[2], np.zeros(2)),
    )
    for estimate in estimates:
        with pytest.raises(ValueError, match="sample contains non-finite values"):
            estimate()


def clayton_windows(window):
    """Windows of a 463x24 Clayton panel whose asset 23 equals asset 0 in the
    first 250 months, so the dates whose window ends by then are singular."""
    x = synth_panel(months=463, n_assets=24, model="clayton", seed=0).returns
    x[:250, 23] = x[:250, 0]
    return np.stack([x[t - window : t] for t in range(window, len(x))])


class TestGlobalCovarianceStack:
    @pytest.mark.parametrize("window", [120, 240])
    def test_equals_per_date_sample_covariance_and_repair(self, window):
        windows = clayton_windows(window)
        stack = global_covariance_stack(windows)
        assert not stack.errors
        assert stack.repair.repaired.any() and not stack.repair.repaired.all()
        for d, w in enumerate(windows):
            cov = np.cov(w, rowvar=False, ddof=1)
            want, repaired = nearest_pd(cov)
            assert np.array_equal(stack.matrices[d], want)
            assert stack.repair.repaired[d] == repaired
            sd = np.sqrt(np.diag(cov))
            assert np.array_equal(stack.correlations[d], cov / np.outer(sd, sd))

    def test_a_date_does_not_depend_on_its_block(self, monkeypatch):
        # The first 11 of these 30 dates are singular and repaired. The
        # assembly blocks and the repair blocks hold 1, 7 or 30 dates.
        windows = clayton_windows(240)[:30]
        runs = []
        for dates_per_block, dates_per_repair in ((1, 30), (7, 7), (30, 1)):
            monkeypatch.setattr(localcov, "_BLOCK_PAIR_OBS", dates_per_block * 240 * 24)
            monkeypatch.setattr(localcov, "_BLOCK_REPAIR", dates_per_repair * 24 * 24)
            runs.append(global_covariance_stack(windows))
        assert runs[0].repair.repaired.any() and not runs[0].repair.repaired.all()
        for run in runs[1:]:
            for name in ("matrices", "correlations"):
                assert np.array_equal(getattr(run, name), getattr(runs[0], name))
            for name, value in vars(run.repair).items():
                assert np.array_equal(value, getattr(runs[0].repair, name))
        for d in (0, 13, 29):
            alone = global_covariance_stack(windows[d : d + 1])
            assert np.array_equal(alone.matrices[0], runs[0].matrices[d])
            assert alone.repair.repaired[0] == runs[0].repair.repaired[d]

    def test_zero_variance_date_fails_alone(self, monkeypatch):
        windows, _ = c11_windows(120, 6)
        windows[4][:, 1] = 0.5
        monkeypatch.setattr(localcov, "_BLOCK_PAIR_OBS", 3 * 120 * 6)
        stack = global_covariance_stack(windows)
        assert list(stack.errors) == [4]
        assert isinstance(stack.errors[4], DegenerateSampleError)
        assert str(stack.errors[4]) == "a column has zero variance"
        assert not stack.matrices[4].any() and not stack.repair.repaired[4]
        with pytest.raises(DegenerateSampleError, match="zero variance"):
            stack.date(4)
        # The sample covariance fits no pair.
        assert stack.fits.fallback.shape == (6, 0) and stack.date(3).pair_diagnostics == {}
        rest = [0, 1, 2, 3, 5]
        clean = global_covariance_stack(windows[rest])
        assert np.array_equal(stack.matrices[rest], clean.matrices)

    def test_window_shorter_than_two_fails_every_date(self, rng):
        stack = global_covariance_stack(rng.standard_normal((3, 1, 2)))
        assert sorted(stack.errors) == [0, 1, 2]
        assert all(isinstance(e, InsufficientDataError) for e in stack.errors.values())
        with pytest.raises(InsufficientDataError):
            global_covariance(rng.standard_normal((1, 2)))

    def test_rejects_malformed_input(self, rng):
        with pytest.raises(ValueError):
            global_covariance_stack(rng.standard_normal((20, 2)))
        with pytest.raises(ValueError):
            global_covariance(rng.standard_normal((2, 20, 2)))

    def test_one_date_api_is_its_one_date_case(self):
        windows = clayton_windows(120)[[0, 200]]
        stack = global_covariance_stack(windows)
        assert stack.repair.repaired.tolist() == [True, False]
        for d in range(2):
            one = global_covariance(windows[d])
            assert np.array_equal(one.matrix, stack.matrices[d])
            assert np.array_equal(one.correlations, stack.correlations[d])
            assert one.pd_repaired == stack.repair.repaired[d]


class TestFlatColumns:
    """One reader (lgc._window_stats) gives both stacks, plugin_bandwidth and
    the Gaussian MLE the same flat-column verdict and the same message."""

    @staticmethod
    def verdicts(windows, grids):
        """{date: message} of each entry point over a (D, n, N) stack.

        global_gaussian_mle takes two columns: a window is flagged when the
        fit of a pair of consecutive columns, the last with the first,
        raises.
        """
        n_assets = windows.shape[2]
        out = {
            "global": global_covariance_stack(windows).errors,
            "local": local_covariance_stack(windows, grids).errors,
            "plugin": {},
            "mle": {},
        }
        for d, window in enumerate(windows):
            try:
                plugin_bandwidth(window)
            except DegenerateSampleError as err:
                out["plugin"][d] = err
            for j in range(n_assets):
                try:
                    global_gaussian_mle(window[:, [j, (j + 1) % n_assets]])
                except DegenerateSampleError as err:
                    out["mle"][d] = err
                    break
        return {name: {d: str(err) for d, err in errors.items()} for name, errors in out.items()}

    @settings(max_examples=150, deadline=None)
    @given(
        c=st.floats(1e-6, 1e6),
        sign=st.sampled_from([-1.0, 1.0]),
        n=st.integers(2, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_constant_column_is_flat_in_both_stacks(self, c, sign, n, seed):
        windows = np.random.default_rng(seed).standard_normal((1, n, 3))
        windows[0, :, 2] = sign * c
        found = self.verdicts(windows, windows.mean(axis=1))
        want = {0: "a column has zero variance"}
        assert found == dict.fromkeys(found, want)

    @pytest.mark.parametrize("c", [0.1, 0.5, 2.3, -1e6, 1e-6])
    def test_one_entry_moved_by_1e_9_relative_is_not_flat(self, c, rng):
        windows = rng.standard_normal((1, 120, 3))
        windows[0, :, 2] = c
        windows[0, 7, 2] = c * (1.0 + 1e-9)
        found = self.verdicts(windows, windows.mean(axis=1))
        assert found == dict.fromkeys(found, {})

    def test_overflowing_variance_is_an_error_of_its_date(self):
        windows, grids = c11_windows(120, 4)
        windows[1][:, 2] = 1e200 * (1.0 + np.arange(120) % 5)
        rest = [0, 2, 3]
        with np.errstate(over="ignore"):
            glob = global_covariance_stack(windows)
            local = local_covariance_stack(windows, grids)
            found = self.verdicts(windows, grids)
        want = {1: "a column's variance is not finite"}
        assert found == dict.fromkeys(found, want)
        assert np.array_equal(glob.matrices[rest], global_covariance_stack(windows[rest]).matrices)
        clean = local_covariance_stack(windows[rest], grids[rest])
        assert np.array_equal(local.matrices[rest], clean.matrices)

    @pytest.mark.parametrize("layout", ["views", "copies"])
    def test_entry_points_flag_the_same_windows(self, layout, monkeypatch):
        # Asset 1 is constant over months 20..89 and asset 3 holds huge
        # returns in months 110 and 112, so the windows x[t - 40 : t] are
        # flat for t in 60..90 (dates 20..50) and overflow for t in 111..152
        # (dates 71..112). The windows are the backtest's sliding views, or
        # copies of them, read in slices of seven dates.
        x = synth_panel(months=160, n_assets=4, model="clayton", seed=3).returns
        x[20:90, 1] = 0.5
        x[[110, 112], 3] = 1e200
        windows = sliding_window_view(x, 40, axis=0)[:120].transpose(0, 2, 1)
        if layout == "copies":
            windows = np.ascontiguousarray(windows)
        grids = moving_grid(x, np.arange(40, 160))
        monkeypatch.setattr(localcov, "_BLOCK_PAIR_OBS", 7 * 40 * 4)
        bandwidths = {}
        real = localcov.local_moments_stack

        def spy(block, block_grids, block_bandwidths):
            for window, b in zip(block, block_bandwidths):
                (d,) = [d for d in range(len(windows)) if np.array_equal(window, windows[d])]
                bandwidths[d] = b
            return real(block, block_grids, block_bandwidths)

        monkeypatch.setattr(localcov, "local_moments_stack", spy)
        with np.errstate(over="ignore"):
            found = self.verdicts(windows, grids)
        want = {d: "a column has zero variance" for d in range(20, 51)}
        want.update((d, "a column's variance is not finite") for d in range(71, 113))
        assert found == dict.fromkeys(found, want)
        # The local stack gives every other window plugin_bandwidth's
        # bandwidths, bit for bit.
        assert sorted(bandwidths) == sorted(set(range(120)) - set(want))
        for d, b in bandwidths.items():
            assert b.tolist() == list(plugin_bandwidth(windows[d]))
