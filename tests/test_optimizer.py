"""Mean-variance weight solver: analytic cases, brute-force oracles, invariants."""

import math

import numpy as np
import pytest

from lgcport.errors import InfeasibleError
from lgcport.optimizer import (
    DEFAULT_LOWER_BOUND,
    StrategySpec,
    equal_weights,
    solve_minvar,
    solve_mv,
)


def mv_spec(gamma=1.0, lb=None):
    return StrategySpec("MVS", "global", gamma=gamma, lower_bound=lb)


def minvar_spec(lb=None):
    return StrategySpec("MIN", "global", lower_bound=lb)


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def mv_objective(w, sigma, mu, gamma):
    return 0.5 * gamma * w @ sigma @ w - mu @ w


def project_to_simplex_with_floor(v, lb):
    """Euclidean projection onto {w : sum w = 1, w >= lb} via the shifted simplex."""
    u = v - lb
    total = 1.0 - lb * v.size
    # Sort-based projection onto the scaled simplex {u >= 0, sum u = total}.
    s = np.sort(u)[::-1]
    css = np.cumsum(s) - total
    idx = np.arange(1, v.size + 1)
    valid = s - css / idx > 0
    rho = idx[valid][-1]
    theta = css[rho - 1] / rho
    return np.clip(u - theta, 0.0, None) + lb


def projected_gradient_solve(sigma, mu, gamma, lb, iters=200_000):
    n = sigma.shape[0]
    q = gamma * sigma
    step = 1.0 / np.linalg.eigvalsh(q)[-1]
    w = np.full(n, 1.0 / n)
    for _ in range(iters):
        grad = q @ w - mu
        w_new = project_to_simplex_with_floor(w - step * grad, lb)
        if np.max(np.abs(w_new - w)) < 1e-14:
            return w_new
        w = w_new
    return w


class TestEqualWeights:
    def test_values(self):
        assert np.array_equal(equal_weights(4), np.full(4, 0.25))

    def test_rejects_zero_assets(self):
        with pytest.raises(ValueError):
            equal_weights(0)


class TestAnalyticCases:
    def test_interior_solution(self):
        # Unconstrained optimum is interior, so the budget-only solution applies:
        # w = S^-1 (mu + lam 1) / gamma with lam chosen for 1'w = 1.
        sigma = np.eye(3)
        mu = np.array([0.1, 0.2, 0.3])
        w = solve_mv(mu, sigma, mv_spec(lb=-0.5))
        inv = np.linalg.inv(sigma)
        lam = (1.0 - np.sum(inv @ mu)) / np.sum(inv)
        want = inv @ (mu + lam)
        assert np.allclose(w, want, atol=1e-9)
        assert np.allclose(w, [0.2333333333, 0.3333333333, 0.4333333333], atol=1e-9)

    def test_floor_binds(self):
        sigma = np.eye(3)
        mu = np.array([-5.0, 0.2, 0.3])
        w = solve_mv(mu, sigma, mv_spec(lb=-0.5))
        assert w[0] == pytest.approx(-0.5, abs=1e-9)
        # Remaining assets split the residual budget per the two-asset optimum.
        assert np.allclose(w[1:], [0.7, 0.8], atol=1e-9)

    def test_minvar_two_asset(self):
        sigma = np.diag([1.0, 4.0])
        w = solve_minvar(sigma, minvar_spec(lb=0.0))
        assert np.allclose(w, [0.8, 0.2], atol=1e-9)

    def test_minvar_equal_variances_uncorrelated(self):
        w = solve_minvar(np.eye(5), minvar_spec(lb=0.0))
        assert np.allclose(w, 0.2, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 3, 24])
    def test_minvar_zero_covariance_gets_equal_weights(self, n):
        # A zero Sigma has no scale for Q's relative ridge, so its ridge is
        # I, and every portfolio has the same zero variance.
        for kind in ("MIN", "MINC"):
            w = solve_minvar(np.zeros((n, n)), StrategySpec(kind))
            assert np.array_equal(w, equal_weights(n))


class TestBruteForceOracles:
    def test_random_qps_beat_projected_gradient(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            sigma = random_spd(rng, n, scale=float(rng.uniform(0.2, 3.0)))
            mu = rng.standard_normal(n)
            gamma = float(rng.uniform(0.5, 4.0))
            lb = float(rng.choice([0.0, -0.5, -0.1]))
            w = solve_mv(mu, sigma, mv_spec(gamma=gamma, lb=lb))
            ref = projected_gradient_solve(sigma, mu, gamma, lb)
            got = mv_objective(w, sigma, mu, gamma)
            want = mv_objective(ref, sigma, mu, gamma)
            assert got <= want + 1e-9
            assert np.allclose(w, ref, atol=1e-5)

    def test_random_feasible_points_never_beat_solver(self, rng):
        sigma = random_spd(rng, 6)
        mu = rng.standard_normal(6)
        w = solve_mv(mu, sigma, mv_spec(gamma=2.0, lb=0.0))
        best = mv_objective(w, sigma, mu, 2.0)
        draws = rng.dirichlet(np.ones(6), size=5000)
        vals = 0.5 * 2.0 * np.einsum("ij,jk,ik->i", draws, sigma, draws) - draws @ mu
        assert best <= vals.min() + 1e-12

    def test_minvar_matches_mv_with_zero_mean(self, rng):
        sigma = random_spd(rng, 5)
        a = solve_minvar(sigma, minvar_spec(lb=0.0))
        b = solve_mv(np.zeros(5), sigma, mv_spec(gamma=2.0, lb=0.0))
        assert np.allclose(a, b, atol=1e-9)


class TestInvariants:
    def test_budget_and_floor_feasibility(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            sigma = random_spd(rng, n)
            mu = rng.standard_normal(n) * 0.5
            lb = float(rng.choice([0.0, -0.5]))
            w = solve_mv(mu, sigma, mv_spec(lb=lb))
            assert abs(w.sum() - 1.0) < 1e-9
            assert np.all(w >= lb - 1e-9)

    def test_minvar_scale_invariance(self, rng):
        sigma = random_spd(rng, 4)
        a = solve_minvar(sigma, minvar_spec(lb=0.0))
        b = solve_minvar(sigma * 37.5, minvar_spec(lb=0.0))
        assert np.allclose(a, b, atol=1e-8)

    def test_long_only_no_better_than_short_allowed(self, rng):
        for _ in range(20):
            sigma = random_spd(rng, 5)
            mu = rng.standard_normal(5)
            wl = solve_mv(mu, sigma, mv_spec(lb=0.0))
            ws = solve_mv(mu, sigma, mv_spec(lb=-0.5))
            assert mv_objective(ws, sigma, mu, 1.0) <= mv_objective(wl, sigma, mu, 1.0) + 1e-12

    def test_deterministic_rerun_bitwise(self, rng):
        sigma = random_spd(rng, 6)
        mu = rng.standard_normal(6)
        a = solve_mv(mu, sigma, mv_spec(gamma=1.5, lb=0.0))
        b = solve_mv(mu.copy(), sigma.copy(), mv_spec(gamma=1.5, lb=0.0))
        assert np.array_equal(a, b)

    def test_infeasible_floor_raises(self):
        with pytest.raises(InfeasibleError):
            solve_minvar(np.eye(3), minvar_spec(lb=0.4))

    def test_mv_rejects_minvar_spec(self):
        with pytest.raises(ValueError):
            solve_mv(np.zeros(3), np.eye(3), minvar_spec())


class TestStrategySpec:
    def test_default_floors(self):
        assert StrategySpec("MVS", "global").lower_bound == DEFAULT_LOWER_BOUND["MVS"]
        assert StrategySpec("MVSC", "global").lower_bound == 0.0
        assert StrategySpec("MIN", "local").lower_bound == -0.5

    def test_labels(self):
        assert StrategySpec("MVS", "global").label == "MVS"
        assert StrategySpec("MVS", "local").label == "MVS-L"
        assert StrategySpec("EW", "global").label == "EW"

    def test_from_label_roundtrip(self):
        for label in ("EW", "MVS", "MVSC", "MIN", "MINC", "MVS-L", "MVSC-L", "MIN-L", "MINC-L"):
            spec = StrategySpec.from_label(label)
            assert spec.label == label

    def test_from_label_rejects_unknown(self):
        with pytest.raises(ValueError):
            StrategySpec.from_label("MAXVAR")
        with pytest.raises(ValueError):
            StrategySpec.from_label("EW-L")

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            StrategySpec("MVS", "global", gamma=0.0)

    @pytest.mark.parametrize("gamma", [-1.0, math.inf, math.nan])
    def test_rejects_gamma_not_positive_and_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            StrategySpec("MVS", "global", gamma=gamma)

    @pytest.mark.parametrize("bound", [math.nan, -math.inf, math.inf])
    def test_rejects_lower_bound_not_finite(self, bound):
        with pytest.raises(ValueError, match="lower bound"):
            StrategySpec("MINC", "global", lower_bound=bound)

    def test_from_label_passes_options_on(self):
        spec = StrategySpec.from_label("MVSC-L", gamma=3.0, lower_bound=0.1)
        assert (spec.gamma, spec.lower_bound, spec.label) == (3.0, 0.1, "MVSC-L")
