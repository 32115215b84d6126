"""Rolling backtest accounting: drift, turnover, costs, wealth, no look-ahead."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lgcport.backtest import (
    BacktestConfig,
    apply_transaction_costs,
    drifted_weights,
    max_adjustments,
    run_backtest,
    turnover,
    wealth_path,
    weight_dispersion,
)
from lgcport.errors import (
    ConfigError,
    DegenerateSampleError,
    PortfolioWipeoutError,
    SolverError,
)
from lgcport.localcov import nearest_pd
from lgcport.optimizer import StrategySpec, solve_strategies
from lgcport.panel import ReturnPanel
from lgcport.report import ALL_STRATEGY_LABELS
from lgcport.synth import synth_panel

import lgcport.backtest as backtest_mod
import lgcport.localcov as localcov_mod


def specs(*labels):
    return [StrategySpec.from_label(lb) for lb in labels]


def small_panel(months=40, n_assets=3, seed=7, model="gaussian"):
    return synth_panel(months=months, n_assets=n_assets, model=model, seed=seed)


def finite_vectors(lo, hi, min_size=1, max_size=12):
    """1-d float arrays with entries in [lo, hi], subnormals included."""
    return st.integers(min_size, max_size).flatmap(
        lambda n: arrays(np.float64, n, elements=st.floats(lo, hi))
    )


@st.composite
def weights_and_returns(draw):
    """Weights summing to one, shorts allowed, and percent returns of the month."""
    raw = draw(finite_vectors(-0.2, 1.0))
    assume(raw.sum() >= 0.5)
    returns = draw(arrays(np.float64, raw.size, elements=st.floats(-99.0, 500.0)))
    return raw / raw.sum(), returns


def ref_drifted_weights(previous, realized_pct):
    """One month's drift of one weight vector."""
    value = previous * (1.0 + realized_pct / 100.0)
    total = float(value.sum())
    if total <= 0.0:
        raise PortfolioWipeoutError("portfolio value dropped to %g" % total)
    return value / total


def ref_wealth_path(returns_pct):
    """Wealth from 1, compounded one month at a time."""
    out = np.empty(len(returns_pct) + 1)
    out[0] = 1.0
    for i, ret in enumerate(returns_pct):
        out[i + 1] = out[i] * (1.0 + ret / 100.0)
        if out[i + 1] <= 0.0:
            raise PortfolioWipeoutError("wealth hit %g at step %d" % (out[i + 1], i))
    return out


def ref_account(x, m, targets, failures, tcost_bp, charge_initial=False):
    """One strategy's accounting, month by month: (target_weights,
    drifted_weights, turnover, gross, net, wealth_gross, wealth_net).
    `targets` is None for EW, which buys equal weights and then holds; a date
    in `failures` keeps the previous month's target."""
    n, n_assets = x.shape
    held, drifted = np.zeros((n - m, n_assets)), np.zeros((n - m, n_assets))
    gross, turn = np.zeros(n - m), np.zeros(n - m)
    for step, t in enumerate(range(m, n)):
        if step == 0:
            target = np.full(n_assets, 1.0 / n_assets) if targets is None else targets[0]
            drifted[0] = 0.0 if charge_initial else target
        else:
            drifted[step] = ref_drifted_weights(held[step - 1], x[t - 1])
            if targets is None:
                target = drifted[step]
            else:
                target = held[step - 1] if step in failures else targets[step]
        held[step] = target
        turn[step] = float(np.abs(target - drifted[step]).sum())
        gross[step] = float(target @ x[t])
    net = gross - turn * tcost_bp * 0.01
    return held, drifted, turn, gross, net, ref_wealth_path(gross), ref_wealth_path(net)


def record_targets(monkeypatch):
    """Record each strategy's solved (targets, failures) as run_backtest sees
    them, before the account pass fills in the failed dates."""
    solved = {}
    real = backtest_mod._solve_targets

    def recording(specs, means, matrices, errors):
        out = real(specs, means, matrices, errors)
        for spec, (targets, failures) in zip(specs, out):
            solved[spec.label] = (targets.copy(), dict(failures))
        return out

    monkeypatch.setattr(backtest_mod, "_solve_targets", recording)
    return solved


def fail_rows(monkeypatch, rows):
    """Make every batched solve fail at the dates `rows`."""
    real = backtest_mod.solve_strategies

    def flaky(specs, sigma, mu):
        out = real(specs, sigma, mu)
        for weights, failures in out:
            for row in rows:
                weights[row] = np.nan
                failures[row] = SolverError("synthetic failure")
        return out

    monkeypatch.setattr(backtest_mod, "solve_strategies", flaky)


class TestDriftedWeights:
    def test_hand_case(self):
        out = drifted_weights(np.array([0.5, 0.5]), np.array([10.0, 0.0]))
        assert np.allclose(out, [0.55 / 1.05, 0.5 / 1.05], atol=1e-15)

    @given(weights_and_returns())
    def test_sums_to_one_randomized(self, case):
        w, r = case
        value = [wi * (1.0 + ri / 100.0) for wi, ri in zip(w, r)]
        total = math.fsum(value)
        assume(total > 1e-3)
        out = drifted_weights(w, r)
        tol = 1e-12 * math.fsum(abs(v) for v in out)
        assert abs(out.sum() - 1.0) <= tol
        assert np.allclose(out, np.array(value) / total, rtol=1e-12, atol=tol)

    def test_zero_returns_identity(self):
        w = np.array([0.2, 0.3, 0.5])
        assert np.allclose(drifted_weights(w, np.zeros(3)), w, atol=1e-15)

    def test_wipeout_raises(self):
        with pytest.raises(PortfolioWipeoutError):
            drifted_weights(np.array([1.0]), np.array([-100.0]))

    def test_rows_match_one_row_calls(self, rng):
        w = rng.dirichlet(np.ones(7), size=30)
        r = rng.uniform(-30.0, 30.0, size=(30, 7))
        got = drifted_weights(w, r)
        want = np.stack([drifted_weights(a, b) for a, b in zip(w, r)])
        assert got.tobytes() == want.tobytes()

    def test_stack_wipeout_reports_first_row(self):
        w = np.full((4, 2), 0.5)
        r = np.array([[1.0, 2.0], [-150.0, -150.0], [0.0, 0.0], [-300.0, -300.0]])
        with pytest.raises(PortfolioWipeoutError, match=r"dropped to -0\.5$"):
            drifted_weights(w, r)


class TestTurnoverAndCosts:
    def test_turnover_hand_case(self):
        assert turnover(np.array([0.6, 0.4]), np.array([0.5, 0.5])) == pytest.approx(0.2)

    @given(st.data())
    def test_turnover_loop_oracle(self, data):
        a = data.draw(finite_vectors(-2.0, 2.0))
        b = data.draw(arrays(np.float64, a.size, elements=st.floats(-2.0, 2.0)))
        want = math.fsum(abs(a[i] - b[i]) for i in range(a.size))
        assert turnover(a, b) == pytest.approx(want, rel=1e-13, abs=1e-300)
        assert turnover(a, b) == turnover(b, a)
        assert turnover(a, a) == 0.0

    def test_rows_match_one_row_calls(self, rng):
        a = rng.dirichlet(np.ones(9), size=25)
        b = rng.dirichlet(np.ones(9), size=25)
        got = turnover(a, b)
        want = np.array([turnover(x, y) for x, y in zip(a, b)])
        assert got.tobytes() == want.tobytes()

    def test_cost_hand_case(self):
        # 10 bp on turnover 0.5: 0.5 * 10 * 0.01 = 0.05 percent.
        net = apply_transaction_costs([1.0], [0.5], 10.0)
        assert net[0] == pytest.approx(0.95, abs=1e-15)

    @given(st.data())
    def test_zero_cost_is_exact_identity(self, data):
        g = data.draw(finite_vectors(-1e6, 1e6, max_size=50))
        t = data.draw(arrays(np.float64, g.size, elements=st.floats(0.0, 2.0)))
        assert apply_transaction_costs(g, t, 0.0).tobytes() == g.tobytes()

    def test_negative_turnover_rejected(self):
        with pytest.raises(ValueError):
            apply_transaction_costs([1.0], [-0.1], 1.0)

    @pytest.mark.parametrize("tcost_bp", [-1.0, math.nan, math.inf])
    def test_cost_outside_nonnegative_reals_rejected(self, tcost_bp):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            apply_transaction_costs([1.0], [0.5], tcost_bp)


class TestPathStatistics:
    def test_dispersion_loop_oracle(self, rng):
        w = rng.dirichlet(np.ones(4), size=12)
        rows = []
        for row in w:
            m = sum(row) / 4.0
            rows.append((sum((v - m) ** 2 for v in row) / 4.0) ** 0.5)
        want = 100.0 * sum(rows) / len(rows)
        assert weight_dispersion(w) == pytest.approx(want, abs=1e-12)

    def test_dispersion_equal_weights_zero(self):
        assert weight_dispersion(np.full((10, 5), 0.2)) == 0.0

    def test_max_adjustments_hand_case(self):
        target = np.array([[0.7, 0.3], [0.4, 0.6]])
        drifted = np.array([[0.5, 0.5], [0.5, 0.5]])
        hi, lo = max_adjustments(target, drifted)
        assert hi == pytest.approx(20.0)
        assert lo == pytest.approx(-20.0)

    @given(finite_vectors(-99.0, 100.0, min_size=0, max_size=60))
    def test_wealth_recursion_loop_oracle(self, r):
        path = wealth_path(r)
        assert path[0] == 1.0 and len(path) == len(r) + 1
        level = 1.0
        for i, ret in enumerate(r):
            level *= 1.0 + ret / 100.0
            assert path[i + 1] == pytest.approx(level, rel=1e-14)
        assert path[-1] == pytest.approx(math.prod(1.0 + v / 100.0 for v in r), rel=1e-13)

    def test_wealth_wipeout_raises(self):
        with pytest.raises(PortfolioWipeoutError):
            wealth_path([10.0, -100.0, 5.0])


class TestConfigValidation:
    def test_window_too_small(self):
        with pytest.raises(ConfigError):
            BacktestConfig(window=1, strategies=specs("EW"))

    def test_empty_strategies(self):
        with pytest.raises(ConfigError):
            BacktestConfig(window=12, strategies=[])

    def test_duplicate_labels(self):
        with pytest.raises(ConfigError):
            BacktestConfig(window=12, strategies=specs("EW", "EW"))

    def test_negative_cost(self):
        with pytest.raises(ConfigError):
            BacktestConfig(window=12, strategies=specs("EW"), tcost_bp=-1.0)

    def test_unknown_grid_method(self):
        with pytest.raises(ConfigError):
            BacktestConfig(window=12, strategies=specs("EW"), grid_method="fixed")

    def test_lookback_exceeds_window(self):
        with pytest.raises(ConfigError):
            BacktestConfig(window=4, strategies=specs("EW"), grid_lookback=5)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_quantile_bounds(self, q):
        with pytest.raises(ConfigError):
            BacktestConfig(window=12, strategies=specs("EW"), grid_quantile=q)

    def test_bandwidth_positive(self):
        with pytest.raises(ConfigError):
            BacktestConfig(window=12, strategies=specs("EW"), bandwidth_scale=0.0)

    def test_panel_shorter_than_window_plus_two(self):
        panel = small_panel(months=13)
        with pytest.raises(ConfigError):
            run_backtest(panel, BacktestConfig(window=12, strategies=specs("EW")))


class TestEqualWeightPath:
    def test_turnover_identically_zero(self):
        panel = small_panel()
        res = run_backtest(panel, BacktestConfig(window=20, strategies=specs("EW")))
        ew = res.strategies["EW"]
        assert np.array_equal(ew.turnover, np.zeros_like(ew.turnover))
        assert np.array_equal(ew.net_returns, ew.gross_returns)

    def test_matches_buy_and_hold_accumulation(self):
        panel = small_panel(months=30, n_assets=4, seed=3)
        m = 20
        res = run_backtest(panel, BacktestConfig(window=m, strategies=specs("EW")))
        ew = res.strategies["EW"]
        # Independent oracle: track per-asset dollar values from 1/N each.
        values = np.full(4, 0.25)
        for step in range(panel.n_months - m):
            before = values.sum()
            values = values * (1.0 + panel.returns[m + step] / 100.0)
            got = ew.gross_returns[step]
            want = 100.0 * (values.sum() / before - 1.0)
            assert got == pytest.approx(want, rel=1e-12)

    def test_weights_drift_away_from_equal(self):
        panel = small_panel(months=40, n_assets=3, seed=11)
        res = run_backtest(panel, BacktestConfig(window=20, strategies=specs("EW")))
        ew = res.strategies["EW"]
        assert np.allclose(ew.target_weights[0], 1.0 / 3.0, atol=1e-15)
        assert not np.allclose(ew.target_weights[-1], 1.0 / 3.0, atol=1e-4)


class TestBacktestMechanics:
    def test_dates_and_inception(self):
        panel = small_panel(months=30)
        res = run_backtest(panel, BacktestConfig(window=20, strategies=specs("EW")))
        assert res.inception_date == panel.dates[19]
        assert res.dates == panel.dates[20:]
        assert len(res.strategies["EW"].gross_returns) == 10

    def test_no_look_ahead_truncation_equivalence(self):
        full = small_panel(months=40, n_assets=3, seed=5)
        cut = ReturnPanel(
            asset_names=list(full.asset_names),
            dates=list(full.dates[:30]),
            returns=full.returns[:30].copy(),
        )
        cfg = lambda: BacktestConfig(window=20, strategies=specs("MVS", "MIN-L"))
        res_full = run_backtest(full, cfg())
        res_cut = run_backtest(cut, cfg())
        for label in ("MVS", "MIN-L"):
            a = res_full.strategies[label].target_weights[:10]
            b = res_cut.strategies[label].target_weights
            assert np.array_equal(a, b)
            assert np.array_equal(
                res_full.strategies[label].gross_returns[:10],
                res_cut.strategies[label].gross_returns,
            )

    def test_strategy_set_independence(self):
        panel = small_panel(months=35, n_assets=3, seed=9)
        cfg_pair = BacktestConfig(window=24, strategies=specs("MVSC", "MINC-L"))
        cfg_solo = BacktestConfig(window=24, strategies=specs("MINC-L"))
        pair = run_backtest(panel, cfg_pair).strategies["MINC-L"]
        solo = run_backtest(panel, cfg_solo).strategies["MINC-L"]
        assert np.array_equal(pair.target_weights, solo.target_weights)
        assert np.array_equal(pair.wealth_net, solo.wealth_net)

    def test_single_asset_tracks_the_asset(self):
        months = 30
        rng = np.random.default_rng(123)
        panel = synth_panel(months=months, n_assets=1, model="gaussian", seed=2)
        res = run_backtest(
            panel, BacktestConfig(window=12, strategies=specs("EW", "MINC"), tcost_bp=0.0)
        )
        for label in ("EW", "MINC"):
            s = res.strategies[label]
            assert np.allclose(s.target_weights, 1.0, atol=1e-12)
            assert np.allclose(s.gross_returns, panel.returns[12:, 0], atol=1e-10)

    def test_wide_bandwidth_local_matches_global(self):
        panel = small_panel(months=30, n_assets=3, seed=21)
        cfg = BacktestConfig(
            window=24, strategies=specs("MVS", "MVS-L"), bandwidth_scale=1e6
        )
        res = run_backtest(panel, cfg)
        diff = np.abs(
            res.strategies["MVS"].target_weights - res.strategies["MVS-L"].target_weights
        )
        assert diff.max() < 1e-3

    def test_charge_initial_allocation(self):
        panel = small_panel(months=28)
        base = BacktestConfig(window=20, strategies=specs("EW"), tcost_bp=50.0)
        charged = BacktestConfig(
            window=20,
            strategies=specs("EW"),
            tcost_bp=50.0,
            charge_initial_allocation=True,
        )
        free = run_backtest(panel, base).strategies["EW"]
        paid = run_backtest(panel, charged).strategies["EW"]
        assert free.turnover[0] == 0.0
        assert paid.turnover[0] == pytest.approx(1.0, abs=1e-12)
        assert paid.net_returns[0] == pytest.approx(
            paid.gross_returns[0] - 1.0 * 50.0 * 0.01, abs=1e-12
        )
        # Only the inception month differs.
        assert np.array_equal(free.turnover[1:], paid.turnover[1:])

    def test_net_wealth_never_above_gross_for_long_only(self):
        panel = small_panel(months=45, n_assets=4, seed=17)
        cfg = BacktestConfig(window=30, strategies=specs("MVSC", "MINC"), tcost_bp=20.0)
        res = run_backtest(panel, cfg)
        for s in res.strategies.values():
            assert np.all(s.wealth_net <= s.wealth_gross + 1e-12)

    def test_percentile_grid_backtest_runs(self):
        panel = small_panel(months=40, n_assets=3, seed=31)
        cfg = BacktestConfig(
            window=24,
            strategies=specs("MINC-L"),
            grid_method="percentile",
            grid_quantile=0.10,
        )
        res = run_backtest(panel, cfg)
        assert len(res.strategies["MINC-L"].gross_returns) == 16

    def test_percentile_window_too_short(self):
        with pytest.raises(ConfigError, match="window too short"):
            BacktestConfig(
                window=8,
                strategies=specs("MINC-L"),
                grid_method="percentile",
                grid_quantile=0.05,
            )


ACCOUNT_CASES = {
    "base": dict(tcost_bp=0.0),
    "cost": dict(tcost_bp=25.0),
    "charge_initial": dict(tcost_bp=25.0, charge_initial_allocation=True),
    "two_failures": dict(tcost_bp=10.0),
}


class TestAccountReference:
    @pytest.mark.parametrize("case", sorted(ACCOUNT_CASES))
    def test_matches_month_by_month_reference(self, monkeypatch, case):
        panel = small_panel(months=44, n_assets=4, seed=19)
        m = 24
        solved = record_targets(monkeypatch)
        if case == "two_failures":
            fail_rows(monkeypatch, [5, 6])
        cfg = BacktestConfig(
            window=m, strategies=specs("EW", "MVSC", "MINC-L"), **ACCOUNT_CASES[case]
        )
        res = run_backtest(panel, cfg)
        for label, sr in res.strategies.items():
            targets, failures = solved.get(label, (None, {}))
            if case == "two_failures" and label != "EW":
                assert sorted(failures) == [5, 6]
            want = ref_account(
                panel.returns, m, targets, failures, cfg.tcost_bp, cfg.charge_initial_allocation
            )
            got = (
                sr.target_weights,
                sr.drifted_weights,
                sr.turnover,
                sr.gross_returns,
                sr.net_returns,
                sr.wealth_gross,
                sr.wealth_net,
            )
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), label

    def test_wipeout_raises_the_reference_message(self, monkeypatch):
        panel = small_panel(months=44, n_assets=4, seed=19)
        m = 24
        panel.returns[m + 5] = -150.0
        panel.returns[m + 8] = -300.0
        solved = record_targets(monkeypatch)
        with pytest.raises(PortfolioWipeoutError) as got:
            run_backtest(panel, BacktestConfig(window=m, strategies=specs("MVSC")))
        targets, failures = solved["MVSC"]
        with pytest.raises(PortfolioWipeoutError) as want:
            ref_account(panel.returns, m, targets, failures, 1.0)
        assert str(got.value) == str(want.value)


class TestLocalEstimate:
    def test_one_fit_call_per_block_and_one_repair_per_date(self, monkeypatch):
        # 36 dates of 4 assets x 24 months (6 pairs each): Newton passes of
        # 10 dates (4 passes), each read in slices of 5 dates (8 slices, one
        # local_moments_stack call each), and then one repair block of all
        # 36 dates.
        calls = {"moments": 0, "newton": 0, "repair": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        real_moments = localcov_mod.local_moments_stack
        monkeypatch.setattr(localcov_mod, "local_moments_stack", counting("moments", real_moments))
        monkeypatch.setattr(
            localcov_mod, "fit_local_moments", counting("newton", localcov_mod.fit_local_moments)
        )
        panel = small_panel(months=60, n_assets=4, seed=3)
        flags = []
        real_repair = localcov_mod._repair

        def repair(cov):
            calls["repair"] += 1
            matrices, record = real_repair(cov)
            flags.extend(record.repaired.tolist())
            return matrices, record

        monkeypatch.setattr(localcov_mod, "_repair", repair)
        monkeypatch.setattr(localcov_mod, "_BLOCK_PAIR_OBS", 5 * 24 * 4)
        monkeypatch.setattr(localcov_mod, "_BLOCK_PAIRS", 10 * 6)
        res = run_backtest(panel, BacktestConfig(window=24, strategies=specs("MINC-L")))
        # One stacked repair, whatever the Newton passes, sees every date
        # once, and repairs only the dates that fail its PD check.
        repaired = [diag["local_pd_repaired"] for diag in res.date_diagnostics]
        assert 0 < sum(repaired) < 36
        assert calls == {"moments": 8, "newton": 4, "repair": 1}
        assert flags == repaired
        for diag in res.date_diagnostics:
            assert set(diag) == {"date", "local_pd_repaired", "pair_fallbacks"}
            assert diag["pair_fallbacks"] == 0


class TestGlobalEstimate:
    @pytest.mark.parametrize("window", [24, 40])
    def test_targets_match_a_per_date_oracle(self, window):
        # Asset 4 repeats asset 0 in the first 50 months, so the early
        # windows are singular and go through nearest_pd.
        panel = synth_panel(months=90, n_assets=5, model="clayton", seed=2)
        panel.returns[:50, 4] = panel.returns[:50, 0]
        labels = ("MVS", "MVSC", "MIN", "MINC")
        res = run_backtest(panel, BacktestConfig(window=window, strategies=specs(*labels)))
        x = panel.returns
        windows = [x[t - window : t] for t in range(window, len(x))]
        covs, repaired = zip(*(nearest_pd(np.cov(w, rowvar=False, ddof=1)) for w in windows))
        assert any(repaired) and not all(repaired)
        assert [d["global_pd_repaired"] for d in res.date_diagnostics] == list(repaired)
        sigma = np.stack(covs) / 1e4
        mu = np.stack([w.mean(axis=0) / 100.0 for w in windows])
        for spec in specs(*labels):
            want, failures = solve_strategies([spec], sigma, mu)[0]
            assert not failures
            assert np.array_equal(res.strategies[spec.label].target_weights, want)


class TestRelabelling:
    @pytest.mark.parametrize("perm", [[3, 0, 5, 1, 4, 2], [5, 4, 3, 2, 1, 0]])
    def test_permuted_columns_give_the_same_portfolios(self, perm):
        # The paper's run with its assets relabelled: once the columns are put
        # back in order, every target weight agrees to within 3e-13 (2.7e-14
        # and 1.8e-14 measured), and the fallbacks and the date diagnostics
        # are the same. Bit identity is not asserted: under another labelling
        # the matrix products, repairs and solves add in another order.
        panel = synth_panel()
        names = [panel.asset_names[i] for i in perm]
        permuted = ReturnPanel(names, list(panel.dates), panel.returns[:, perm])
        back = np.argsort(perm)
        for window in (120, 240):
            config = BacktestConfig(window=window, strategies=specs(*ALL_STRATEGY_LABELS))
            base = run_backtest(panel, config)
            moved = run_backtest(permuted, config)
            assert moved.date_diagnostics == base.date_diagnostics
            for label, want in base.strategies.items():
                got = moved.strategies[label]
                gap = np.max(np.abs(got.target_weights[:, back] - want.target_weights))
                assert gap <= 3e-13, (window, label, gap)
                assert got.fallbacks == want.fallbacks


class TestMemory:
    def test_no_correlations_are_held_during_the_solves(self, monkeypatch):
        # Nothing after the estimate reads a stack's pre-repair
        # correlations, so none may be alive when the first solve starts,
        # and the global stack's are gone before the local stack is
        # estimated.
        held = []

        def recording(estimate, alive):
            def wrapped(*args):
                assert [ref() is not None for ref in held] == alive
                stack = estimate(*args)
                held.append(weakref.ref(stack.pair_correlations))
                return stack

            return wrapped

        for name, alive in (("global_covariance_stack", []), ("local_covariance_stack", [False])):
            monkeypatch.setattr(backtest_mod, name, recording(getattr(backtest_mod, name), alive))
        real_solve = backtest_mod.solve_strategies
        solves = []

        def solve(specs, sigma, mu):
            assert [ref() for ref in held] == [None, None]
            solves.append(len(specs))
            return real_solve(specs, sigma, mu)

        monkeypatch.setattr(backtest_mod, "solve_strategies", solve)
        config = BacktestConfig(window=24, strategies=specs("EW", "MIN", "MVSC", "MINC-L"))
        run_backtest(small_panel(months=40, n_assets=3), config)
        assert solves == [2, 1]


class TestStrategyIndependence:
    def test_adding_or_removing_a_strategy_changes_no_other(self):
        # The strategies of a covariance stack are solved in one call, which
        # shares their Q, budget-only solves and curvature guards and runs
        # them in one lockstep: dropping any one strategy from the run leaves
        # every number of every other strategy as it was, bit for bit.
        panel = synth_panel(months=70, n_assets=5, model="clayton", seed=4)
        labels = ("EW", "MVS", "MVSC", "MIN", "MINC", "MVSC-L", "MIN-L")
        full = run_backtest(panel, BacktestConfig(window=40, strategies=specs(*labels)))
        fields = (
            "target_weights",
            "drifted_weights",
            "gross_returns",
            "net_returns",
            "turnover",
            "wealth_gross",
            "wealth_net",
        )
        for dropped in labels:
            rest = [label for label in labels if label != dropped]
            res = run_backtest(panel, BacktestConfig(window=40, strategies=specs(*rest)))
            assert list(res.strategies) == rest
            for label in rest:
                got, want = res.strategies[label], full.strategies[label]
                for name in fields:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (
                        dropped, label, name
                    )
                assert got.fallbacks == want.fallbacks


class TestSolverFallback:
    def test_midstream_failure_reuses_previous_target(self, monkeypatch):
        panel = small_panel(months=30, n_assets=3, seed=13)
        fail_rows(monkeypatch, [3])
        res = run_backtest(panel, BacktestConfig(window=20, strategies=specs("MVSC")))
        s = res.strategies["MVSC"]
        assert len(s.fallbacks) == 1
        date, message = s.fallbacks[0]
        assert date == res.dates[3]
        assert "synthetic failure" in message
        assert np.array_equal(s.target_weights[3], s.target_weights[2])

    def test_inception_failure_raises_with_context(self, monkeypatch):
        panel = small_panel(months=30, n_assets=3, seed=13)

        def broken(specs, sigma, mu):
            weights = np.full((len(sigma), sigma.shape[1]), np.nan)
            failures = {i: SolverError("no solution") for i in range(len(sigma))}
            return [(weights, failures)] * len(specs)

        monkeypatch.setattr(backtest_mod, "solve_strategies", broken)
        with pytest.raises(SolverError, match="inception"):
            run_backtest(panel, BacktestConfig(window=20, strategies=specs("MVSC")))


def flat_panel(months, flat, n_assets=3, seed=13):
    """A panel whose asset 1 returns a constant 0.5 % in the months `flat`."""
    panel = small_panel(months=months, n_assets=n_assets, seed=seed)
    panel.returns[flat, 1] = 0.5
    return panel


class TestDegenerateWindows:
    def test_flat_window_falls_back_per_date(self):
        # 35 flat months (20..54): the windows x[t - 24 : t] with t = 44..55,
        # i.e. dates 20..31, have a zero-variance column, so no covariance
        # exists on those 12 dates.
        panel = flat_panel(70, slice(20, 55))
        cfg = BacktestConfig(window=24, strategies=specs("EW", "MINC", "MINC-L"))
        res = run_backtest(panel, cfg)
        steps = list(range(20, 32))
        flat_dates = [res.dates[s] for s in steps]
        for label in ("MINC", "MINC-L"):
            s = res.strategies[label]
            assert [d for d, _ in s.fallbacks] == flat_dates
            for step in steps:
                assert np.array_equal(s.target_weights[step], s.target_weights[step - 1])
            assert np.all(np.isfinite(s.wealth_net))
        for label in ("MINC", "MINC-L"):
            assert res.strategies[label].fallbacks[0][1] == "a column has zero variance"
        assert res.strategies["EW"].fallbacks == []
        for step, diag in enumerate(res.date_diagnostics):
            flat = step in steps
            assert ("global_error" in diag) == flat
            assert ("local_error" in diag) == flat
            assert ("pair_fallbacks" in diag) != flat

    def test_date_diagnostics_are_each_stacks_date_records(self, monkeypatch):
        # Asset 2 repeats asset 0 in months 0..39, so the windows that end by
        # then (dates 0..16) have a singular sample covariance and a
        # collinear pair that falls back; asset 1 is flat in months 50..79,
        # so dates 50..56 have no estimate.
        panel = flat_panel(100, slice(50, 80))
        panel.returns[:40, 2] = panel.returns[:40, 0]
        stacks = {}

        def recording(source, estimate):
            def wrapped(*args):
                stacks[source] = estimate(*args)
                return stacks[source]

            return wrapped

        for source in ("global", "local"):
            name = source + "_covariance_stack"
            monkeypatch.setattr(backtest_mod, name, recording(source, getattr(backtest_mod, name)))
        res = run_backtest(panel, BacktestConfig(window=24, strategies=specs("MINC", "MINC-L")))
        diagnostics = res.date_diagnostics
        fell_back = [step for step, diag in enumerate(diagnostics) if diag.get("pair_fallbacks")]
        assert fell_back == list(range(17))
        assert [diag.get("global_pd_repaired") for diag in diagnostics[:17]] == [True] * 17
        for source, stack in stacks.items():
            assert list(stack.errors) == list(range(50, 57))
            for step, diag in enumerate(diagnostics):
                if step in stack.errors:
                    assert diag[source + "_error"] == str(stack.errors[step])
                    continue
                one = stack.date(step)
                repaired = diag[source + "_pd_repaired"]
                assert type(repaired) is bool and repaired == one.pd_repaired
                if source == "local":
                    fallbacks = diag["pair_fallbacks"]
                    assert type(fallbacks) is int and fallbacks == one.n_fallbacks

    @pytest.mark.parametrize("value", [0.5, 0.1])
    @pytest.mark.parametrize("label", ["MIN", "MIN-L"])
    def test_constant_column_raises_at_inception(self, value, label):
        # The computed sd of a constant 0.1 is rounding (about 1e-17), not 0;
        # it is as flat as a constant 0.5, whose sd is exactly 0.
        panel = synth_panel(months=200, n_assets=3, model="bear", seed=1)
        panel.returns[:, 2] = value
        with pytest.raises(DegenerateSampleError, match="at inception .* for %s$" % label):
            run_backtest(panel, BacktestConfig(window=120, strategies=specs(label)))

    def test_flat_window_at_inception_raises(self):
        panel = flat_panel(40, slice(0, 24))
        with pytest.raises(DegenerateSampleError, match="at inception .* for MINC"):
            run_backtest(panel, BacktestConfig(window=24, strategies=specs("MINC")))
