"""Release acceptance suite.

Each test prints one `[acceptance] C## name: PASS/FAIL` line (written outside
pytest's capture so the gate summary is always visible) and enforces the gate
with an assert. Reference values are pinned; oracles are independent
re-implementations (quadrature, finite differences, brute-force grids) rather
than calls back into the library.
"""

import time

import numpy as np
import pytest
from scipy import integrate

from lgcport.backtest import BacktestConfig, run_backtest
from lgcport.lgc import (
    LocalParams,
    estimate_local_params,
    local_loglik,
    local_score,
    penalty_integral,
    plugin_bandwidth,
)
from lgcport.localcov import nearest_correlation
from lgcport.metrics import ceq_from_moments, jarque_bera, sharpe
from lgcport.optimizer import StrategySpec, solve_minvar, solve_mv
from lgcport.panel import ReturnPanel, write_panel
from lgcport.report import ALL_STRATEGY_LABELS, RunConfig, execute_run
from lgcport.synth import clayton_normal_sample, synth_panel

from conftest import tensor_gauss_legendre


_CAPSYS = None


@pytest.fixture(autouse=True)
def _gate_reporter(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(num, name, ok, detail=""):
    note = " (%s)" % detail if detail else ""
    line = "[acceptance] C%02d %s: %s%s" % (num, name, "PASS" if ok else "FAIL", note)
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print("\n" + line)
    else:
        print(line)
    assert ok, "C%02d %s%s" % (num, name, note)


# Pinned reference statistics for a 463-month, six-asset monthly panel:
# per-asset (mean %, sd %, Sharpe), plus the equal-weight portfolio's
# (mean, sd, Sharpe, CEQ) and one optimized portfolio's (mean, sd, CEQ)
# at a 120-month window.
ASSET_MEAN_SD_SHARPE = (
    (0.628, 4.588, 0.137),
    (0.704, 4.406, 0.160),
    (0.769, 2.376, 0.324),
    (0.583, 2.417, 0.241),
    (0.079, 3.511, 0.023),
    (0.177, 5.211, 0.034),
)
EW_MEAN_SD_SHARPE_CEQ = (0.423, 1.999, 0.212, 0.403)
MV_MEAN_SD_CEQ = (0.455, 1.492, 0.444)
JB_SKEW_EXKURT_N_REF = (-1.300, 6.288, 463, 903.903)


def two_point(mean, sd):
    """Two observations with exactly this sample mean and (n-1) deviation."""
    d = sd / np.sqrt(2.0)
    return np.array([mean - d, mean + d])


def test_c01_ceq_convention():
    t0 = time.perf_counter()
    cases = [
        (EW_MEAN_SD_SHARPE_CEQ[0], EW_MEAN_SD_SHARPE_CEQ[1], EW_MEAN_SD_SHARPE_CEQ[3]),
        (MV_MEAN_SD_CEQ[0], MV_MEAN_SD_CEQ[1], MV_MEAN_SD_CEQ[2]),
    ]
    errs = [abs(ceq_from_moments(m, s) - want) for m, s, want in cases]
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 1e-3 and elapsed < 1.0
    _verdict(1, "ceq-convention", ok, "max err %.2e, %.3fs" % (max(errs), elapsed))


def test_c02_sharpe_reproduction():
    errs = []
    for mean, sd, want in ASSET_MEAN_SD_SHARPE:
        errs.append(abs(sharpe(two_point(mean, sd)) - want))
    m, s, want_sharpe, _ = EW_MEAN_SD_SHARPE_CEQ
    errs.append(abs(sharpe(two_point(m, s)) - want_sharpe))
    ok = max(errs) <= 1e-3
    _verdict(2, "sharpe-reproduction", ok, "max err %.2e over %d series" % (max(errs), len(errs)))


def test_c03_jarque_bera_convention():
    skew, exkurt, n, ref = JB_SKEW_EXKURT_N_REF
    got = jarque_bera(skew, exkurt, n)
    rel = abs(got - ref) / ref
    ok = rel <= 0.02
    _verdict(3, "jarque-bera-convention", ok, "got %.2f vs %.3f, rel %.3f%%" % (got, ref, 100 * rel))


def test_c04_gaussian_self_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250816)
    n, reps, tol = 2000, 50, 0.08
    results = {}
    for rho in (-0.5, 0.0, 0.5, 0.8):
        chol = np.array([[1.0, 0.0], [rho, np.sqrt(1.0 - rho**2)]])
        hits = 0
        for _ in range(reps):
            x = rng.standard_normal((n, 2)) @ chol.T
            b = plugin_bandwidth(x)
            good = True
            for qx in (0.25, 0.5, 0.75):
                for qy in (0.25, 0.5, 0.75):
                    r = (np.quantile(x[:, 0], qx), np.quantile(x[:, 1], qy))
                    try:
                        params, _ = estimate_local_params(x, r, b)
                    except Exception:
                        good = False
                        break
                    if abs(params.rho - rho) > tol:
                        good = False
                        break
                if not good:
                    break
            hits += good
        results[rho] = hits
    elapsed = time.perf_counter() - t0
    ok = all(h >= 45 for h in results.values()) and elapsed < 60.0
    detail = ", ".join("rho %+.1f: %d/50" % (r, h) for r, h in results.items())
    _verdict(4, "gaussian-self-consistency", ok, detail + ", %.1fs" % elapsed)


def test_c05_asymmetry_detection():
    rng = np.random.default_rng(42)
    n, reps, theta = 2000, 50, 2.0
    hits = 0
    for _ in range(reps):
        x = clayton_normal_sample(rng, n, 2, theta)
        b = plugin_bandwidth(x)
        lo = (np.quantile(x[:, 0], 0.05), np.quantile(x[:, 1], 0.05))
        hi = (np.quantile(x[:, 0], 0.95), np.quantile(x[:, 1], 0.95))
        rho_lo = estimate_local_params(x, lo, b)[0].rho
        rho_hi = estimate_local_params(x, hi, b)[0].rho
        hits += (rho_lo - rho_hi) >= 0.1
    ok = hits >= 45
    _verdict(5, "tail-asymmetry-detection", ok, "%d/50 replicates" % hits)


def test_c06_penalty_quadrature_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(100):
        params = LocalParams(
            mu1=float(rng.uniform(-2, 2)),
            mu2=float(rng.uniform(-2, 2)),
            sigma1=float(rng.uniform(0.5, 2.5)),
            sigma2=float(rng.uniform(0.5, 2.5)),
            rho=float(rng.uniform(-0.9, 0.9)),
        )
        r = rng.uniform(-2, 2, size=2)
        b = (float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 2.5)))
        closed = penalty_integral(r, b, params)

        def integrand(v2, v1):
            w = np.exp(
                -0.5 * ((v1 - r[0]) ** 2 / b[0] ** 2 + (v2 - r[1]) ** 2 / b[1] ** 2)
            ) / (2.0 * np.pi * b[0] * b[1])
            z1 = (v1 - params.mu1) / params.sigma1
            z2 = (v2 - params.mu2) / params.sigma2
            q = 1.0 - params.rho**2
            dens = np.exp(
                -(z1**2 - 2.0 * params.rho * z1 * z2 + z2**2) / (2.0 * q)
            ) / (2.0 * np.pi * params.sigma1 * params.sigma2 * np.sqrt(q))
            return w * dens

        half1 = 8.0 * max(params.sigma1, b[0])
        half2 = 8.0 * max(params.sigma2, b[1])
        lo1, hi1 = min(params.mu1, r[0]) - half1, max(params.mu1, r[0]) + half1
        lo2, hi2 = min(params.mu2, r[1]) - half2, max(params.mu2, r[1]) + half2
        # A fixed tensor Gauss-Legendre rule, 400 nodes a side (within
        # 1.6e-16 of the closed form on these 100 cases), checked against
        # adaptive quadrature on the first two.
        quad = tensor_gauss_legendre(lambda v1, v2: integrand(v2, v1), lo1, hi1, lo2, hi2, 40)
        if case < 2:
            adaptive, _ = integrate.dblquad(
                integrand, lo1, hi1, lo2, hi2, epsabs=1e-11, epsrel=1e-9
            )
            assert abs(quad - adaptive) <= 1e-10
        worst = max(worst, abs(closed - quad))
    ok = worst <= 1e-8
    _verdict(6, "penalty-quadrature-oracle", ok, "max |closed - quad| %.2e" % worst)


def test_c07_gradient_check():
    rng = np.random.default_rng(11)
    h, worst = 1e-5, 0.0
    for _ in range(100):
        n = int(rng.integers(1, 50))
        sample = rng.standard_normal((n, 2)) * rng.uniform(0.5, 2.0)
        r = rng.uniform(-1.5, 1.5, size=2)
        b = (float(rng.uniform(0.6, 2.0)), float(rng.uniform(0.6, 2.0)))
        theta = np.array(
            [
                rng.uniform(-1, 1),
                rng.uniform(-1, 1),
                rng.uniform(0.6, 2.0),
                rng.uniform(0.6, 2.0),
                rng.uniform(-0.8, 0.8),
            ]
        )
        params = LocalParams.from_array(theta)
        grad = local_score(sample, r, b, params)
        for k in range(5):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd = (
                local_loglik(sample, r, b, LocalParams.from_array(up))
                - local_loglik(sample, r, b, LocalParams.from_array(dn))
            ) / (2.0 * h)
            worst = max(worst, abs(grad[k] - fd))
    ok = worst <= 1e-6
    _verdict(7, "analytic-gradient-check", ok, "max |analytic - fd| %.2e" % worst)


def _simplex_grid_products(lb, res=1e-3):
    axis = np.arange(lb, 1.0 - 2.0 * lb + res / 2.0, res)
    w1, w2 = np.meshgrid(axis, axis, indexing="ij")
    w1, w2 = w1.ravel(), w2.ravel()
    w3 = 1.0 - w1 - w2
    keep = w3 >= lb - 1e-12
    w1, w2, w3 = w1[keep], w2[keep], w3[keep]
    prods = {
        (0, 0): w1 * w1, (1, 1): w2 * w2, (2, 2): w3 * w3,
        (0, 1): w1 * w2, (0, 2): w1 * w3, (1, 2): w2 * w3,
    }
    return (w1, w2, w3), prods


def _grid_minimum(q, mu, weights, prods):
    w1, w2, w3 = weights
    obj = 0.5 * (
        q[0, 0] * prods[(0, 0)] + q[1, 1] * prods[(1, 1)] + q[2, 2] * prods[(2, 2)]
        + 2.0 * (q[0, 1] * prods[(0, 1)] + q[0, 2] * prods[(0, 2)] + q[1, 2] * prods[(1, 2)])
    ) - (mu[0] * w1 + mu[1] * w2 + mu[2] * w3)
    k = int(np.argmin(obj))
    return np.array([w1[k], w2[k], w3[k]]), float(obj[k])


def _kkt_residual(w, q, c, lb):
    g = q @ w + c
    free = w > lb + 1e-7
    lam = -float(g[free].mean())
    stat = float(np.max(np.abs(g[free] + lam)))
    comp = 0.0 if free.all() else max(0.0, float(np.max(-(g[~free] + lam))))
    budget = abs(float(w.sum()) - 1.0)
    bounds = max(0.0, float(np.max(lb - w)))
    return max(stat, comp, budget, bounds)


def test_c08_qp_correctness():
    rng = np.random.default_rng(13)
    failures = []
    kkt_worst = 0.0

    # Interior cases against the closed-form budget-only solution.
    interior_err = 0.0
    interior_done = 0
    while interior_done < 5:
        if interior_done == 0:
            sigma, mu = np.eye(3), np.array([0.1, 0.2, 0.3])
        else:
            a = rng.standard_normal((3, 3))
            sigma = a @ a.T + 3.0 * np.eye(3)
            mu = rng.standard_normal(3) * 0.3
        inv = np.linalg.inv(sigma)
        nu = (np.sum(inv @ mu) - 1.0) / np.sum(inv)
        analytic = inv @ (mu - nu)
        if analytic.min() <= -0.45:
            continue
        spec = StrategySpec("MVS", "global", lower_bound=-0.5)
        w = solve_mv(mu, sigma, spec)
        interior_err = max(interior_err, float(np.max(np.abs(w - analytic))))
        kkt_worst = max(kkt_worst, _kkt_residual(w, sigma, -mu, -0.5))
        interior_done += 1
    if interior_err > 1e-8:
        failures.append("interior err %.2e" % interior_err)

    # Boundary-active cases against a brute-force simplex grid (resolution 1e-3).
    grids = {lb: _simplex_grid_products(lb) for lb in (0.0, -0.5)}
    weight_err = 0.0
    boundary_done = 0
    while boundary_done < 20:
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 0.5 * np.eye(3)
        mu = rng.standard_normal(3)
        lb = float(rng.choice([0.0, -0.5]))
        use_minvar = boundary_done % 3 == 2
        if use_minvar:
            spec = StrategySpec("MIN" if lb < 0 else "MINC", "global", lower_bound=lb)
            w = solve_minvar(sigma, spec)
            q, c = 2.0 * sigma, np.zeros(3)
        else:
            spec = StrategySpec("MVS" if lb < 0 else "MVSC", "global", lower_bound=lb)
            w = solve_mv(mu, sigma, spec)
            q, c = sigma, -mu
        if w.min() > lb + 1e-6:
            continue
        weights, prods = grids[lb]
        w_grid, f_grid = _grid_minimum(q, -c, weights, prods)
        weight_err = max(weight_err, float(np.max(np.abs(w - w_grid))))
        f_solver = 0.5 * w @ q @ w + c @ w
        if f_solver > f_grid + 1e-10:
            failures.append("grid beat solver by %.2e" % (f_solver - f_grid))
        kkt_worst = max(kkt_worst, _kkt_residual(w, q, c, lb))
        boundary_done += 1
    if weight_err > 2e-3:
        failures.append("boundary weight err %.2e" % weight_err)
    if kkt_worst > 1e-8:
        failures.append("kkt residual %.2e" % kkt_worst)

    ok = not failures
    detail = "; ".join(failures) if failures else (
        "interior err %.1e, boundary err %.1e, kkt %.1e"
        % (interior_err, weight_err, kkt_worst)
    )
    _verdict(8, "qp-correctness", ok, detail)


def test_c09_nearest_correlation():
    rng = np.random.default_rng(17)
    worst_eig, worst_diag, margin = 0.0, 0.0, np.inf
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 11))
        c = np.eye(n)
        iu = np.triu_indices(n, 1)
        c[iu] = rng.uniform(-1.0, 1.0, size=len(iu[0]))
        c = np.triu(c) + np.triu(c, 1).T
        if np.linalg.eigvalsh(c)[0] > -1e-3:
            continue
        fixed = nearest_correlation(c)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(fixed)[0]))
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(fixed) - 1.0))))
        vals, vecs = np.linalg.eigh(c)
        clipped = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        d = np.sqrt(np.diag(clipped))
        clipped = clipped / np.outer(d, d)
        margin = min(
            margin,
            float(np.linalg.norm(c - clipped, "fro") - np.linalg.norm(c - fixed, "fro")),
        )
        checked += 1
    ok = worst_eig >= -1e-8 and worst_diag <= 1e-8 and margin >= -1e-7
    _verdict(
        9,
        "nearest-correlation",
        ok,
        "min eig %.1e, diag err %.1e, clip margin %.2e" % (worst_eig, worst_diag, margin),
    )


def test_c10_backtest_integrity():
    problems = []
    for seed in range(10):
        model = ("gaussian", "bear", "clayton")[seed % 3]
        panel = synth_panel(months=44, n_assets=3, model=model, seed=seed)
        strategies = [
            StrategySpec.from_label("EW"),
            StrategySpec.from_label("MVSC"),
            StrategySpec.from_label("MINC-L"),
        ]
        cfg = BacktestConfig(window=20, strategies=strategies, tcost_bp=0.0)
        res = run_backtest(panel, cfg)

        cut = ReturnPanel(
            asset_names=list(panel.asset_names),
            dates=list(panel.dates[:36]),
            returns=panel.returns[:36].copy(),
        )
        res_cut = run_backtest(cut, BacktestConfig(window=20, strategies=strategies, tcost_bp=0.0))
        for label, sr in res.strategies.items():
            sc = res_cut.strategies[label]
            if not np.array_equal(sr.target_weights[:16], sc.target_weights):
                problems.append("seed %d %s look-ahead in weights" % (seed, label))
            if not np.array_equal(sr.gross_returns[:16], sc.gross_returns):
                problems.append("seed %d %s look-ahead in returns" % (seed, label))

            level = 1.0
            for i, ret in enumerate(sr.gross_returns):
                level = level * (1.0 + ret / 100.0)
                if sr.wealth_gross[i + 1] != level:
                    problems.append("seed %d %s wealth recursion" % (seed, label))
                    break
            if not np.array_equal(sr.net_returns, sr.gross_returns):
                problems.append("seed %d %s zero-cost mismatch" % (seed, label))

        ew = res.strategies["EW"]
        if np.any(ew.turnover != 0.0):
            problems.append("seed %d EW turnover nonzero" % seed)
    ok = not problems
    _verdict(10, "backtest-integrity", ok, "; ".join(problems) if problems else "10 panels clean")


def test_c11_end_to_end(tmp_path):
    panel = synth_panel()  # 463 months x 6 assets
    panel_file = tmp_path / "panel.csv"
    write_panel(panel, panel_file)
    out = tmp_path / "reports"
    cfg = dict(
        input_path=str(panel_file),
        output_dir=str(out),
        windows=[120, 240],
        strategies=list(ALL_STRATEGY_LABELS),
        tcosts_bp=[0.0, 1.0],
    )
    t0 = time.perf_counter()
    manifest = execute_run(RunConfig(**cfg))
    elapsed = time.perf_counter() - t0

    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    execute_run(RunConfig(**cfg))
    identical = all(p.read_bytes() == snapshot[p.name] for p in out.iterdir())

    strategies = [StrategySpec.from_label("MVS"), StrategySpec.from_label("MVS-L")]
    res = run_backtest(panel, BacktestConfig(window=120, strategies=strategies))
    gap = float(
        np.max(
            np.abs(
                res.strategies["MVS-L"].target_weights
                - res.strategies["MVS"].target_weights
            )
        )
    )
    n_files = len(manifest["files"]) + 1  # tables and wealth paths plus manifest
    ok = elapsed < 600.0 and identical and gap > 0.05 and n_files == 27
    _verdict(
        11,
        "end-to-end-run",
        ok,
        "%.1fs, rerun identical: %s, max local-global weight gap %.3f, %d files"
        % (elapsed, identical, gap, n_files),
    )
