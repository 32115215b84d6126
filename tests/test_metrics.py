"""Return statistics and performance ratios against hand-computed oracles."""

import math

import numpy as np
import pytest

from lgcport.errors import InsufficientDataError
from lgcport.metrics import (
    ann_sharpe,
    ceq,
    ceq_from_moments,
    descriptive_stats,
    drawdowns,
    es_sharpe,
    historical_es,
    historical_var,
    jarque_bera,
    max_drawdown,
    omega,
    performance_report,
    sharpe,
    sortino,
    var_sharpe,
)


def two_point_series(mean, sd):
    """A 2-point series with exact sample mean and sample (n-1) deviation."""
    d = sd / math.sqrt(2.0)
    return np.array([mean - d, mean + d])


class TestDescriptiveStats:
    def test_loop_oracle(self, rng):
        r = rng.standard_normal(200) * 3.0 + 0.5
        s = descriptive_stats(r)
        n = len(r)
        mean = sum(r) / n
        m2 = sum((v - mean) ** 2 for v in r) / n
        m3 = sum((v - mean) ** 3 for v in r) / n
        m4 = sum((v - mean) ** 4 for v in r) / n
        assert s.n == n
        assert s.mean == pytest.approx(mean, rel=1e-12)
        assert s.variance == pytest.approx(sum((v - mean) ** 2 for v in r) / (n - 1), rel=1e-12)
        assert s.std_dev == pytest.approx(math.sqrt(s.variance), rel=1e-12)
        assert s.skewness == pytest.approx(m3 / m2**1.5, rel=1e-10)
        assert s.excess_kurtosis == pytest.approx(m4 / m2**2 - 3.0, rel=1e-10)
        assert s.minimum == r.min() and s.maximum == r.max()
        assert s.median == pytest.approx(np.median(r), rel=1e-12)

    def test_symmetric_series_zero_skew(self):
        s = descriptive_stats([-2.0, -1.0, 1.0, 2.0])
        assert s.skewness == pytest.approx(0.0, abs=1e-14)

    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            descriptive_stats([1.0, 2.0, 3.0])

    def test_constant_series_raises(self):
        with pytest.raises(InsufficientDataError):
            descriptive_stats([2.0, 2.0, 2.0, 2.0])

    def test_location_shift_moves_only_location(self, rng):
        r = rng.standard_normal(100)
        a, b = descriptive_stats(r), descriptive_stats(r + 10.0)
        assert b.mean == pytest.approx(a.mean + 10.0, abs=1e-10)
        assert b.std_dev == pytest.approx(a.std_dev, rel=1e-12)
        assert b.skewness == pytest.approx(a.skewness, abs=1e-10)
        assert b.excess_kurtosis == pytest.approx(a.excess_kurtosis, abs=1e-10)


class TestJarqueBera:
    def test_closed_form(self):
        # n/6 * (S^2 + K^2/4) at S=-1.3, K=6.288, n=463.
        want = 463.0 / 6.0 * ((-1.3) ** 2 + 6.288**2 / 4.0)
        assert jarque_bera(-1.3, 6.288, 463) == pytest.approx(want, rel=1e-14)
        assert jarque_bera(-1.3, 6.288, 463) == pytest.approx(893.18, abs=0.01)

    def test_gaussian_sample_stays_small(self):
        rng = np.random.default_rng(77)
        r = rng.standard_normal(5000)
        s = descriptive_stats(r)
        # 99.9th percentile of chi-square(2) is about 13.8.
        assert s.jarque_bera < 13.8

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            jarque_bera(0.0, 0.0, 0)


class TestSharpeFamily:
    def test_two_point_inversion(self):
        r = two_point_series(0.5, 2.0)
        assert sharpe(r) == pytest.approx(0.25, rel=1e-12)

    def test_risk_free_offset(self):
        r = two_point_series(0.5, 2.0)
        assert sharpe(r, risk_free=0.1) == pytest.approx(0.2, rel=1e-12)

    def test_annualization_factor(self, rng):
        r = rng.standard_normal(60) + 0.3
        assert ann_sharpe(r) == pytest.approx(math.sqrt(12.0) * sharpe(r), rel=1e-14)

    def test_scale_invariance(self, rng):
        r = rng.standard_normal(50) + 0.2
        assert sharpe(r * 7.0) == pytest.approx(sharpe(r), rel=1e-12)

    def test_constant_series_nan(self):
        assert math.isnan(sharpe([1.0, 1.0, 1.0]))


class TestTailMeasures:
    # 21 points: quantile(0.05) with linear interpolation sits at the
    # second-smallest value exactly (index 0.05 * 20 = 1).
    POINTS = np.concatenate([[-9.0, -5.0], np.linspace(-1.0, 17.0, 19)])

    def test_var_hand_case(self):
        assert historical_var(self.POINTS) == pytest.approx(5.0, abs=1e-12)

    def test_es_hand_case(self):
        assert historical_es(self.POINTS) == pytest.approx(7.0, abs=1e-12)

    def test_es_at_least_var(self, rng):
        for _ in range(20):
            r = rng.standard_normal(300)
            assert historical_es(r) >= historical_var(r) - 1e-12

    def test_var_sharpe_hand_case(self):
        mean = self.POINTS.mean()
        assert var_sharpe(self.POINTS) == pytest.approx(mean / 5.0, rel=1e-12)

    def test_var_sharpe_nan_when_no_tail_loss(self):
        r = np.linspace(1.0, 5.0, 40)
        assert math.isnan(var_sharpe(r))

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            historical_var(np.arange(10.0))

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            historical_var(np.arange(30.0), alpha=1.0)


class TestCeq:
    def test_moment_form_hand_cases(self):
        # mean 0.423%, sd 1.999%: 0.00423 - 0.5 * 0.01999^2 = 0.0040302 -> 0.403%.
        assert ceq_from_moments(0.423, 1.999) == pytest.approx(0.403, abs=5e-4)
        assert ceq_from_moments(0.455, 1.492) == pytest.approx(0.4439, abs=5e-4)

    def test_series_form_matches_moment_form(self, rng):
        r = rng.standard_normal(80) * 2.0 + 0.4
        want = ceq_from_moments(float(r.mean()), float(r.std(ddof=1)), gamma=3.0)
        assert ceq(r, gamma=3.0) == pytest.approx(want, rel=1e-12)

    def test_gamma_zero_is_the_mean(self):
        r = two_point_series(0.7, 1.5)
        assert ceq_from_moments(0.7, 1.5, gamma=0.0) == pytest.approx(0.7, rel=1e-14)
        assert ceq(r, gamma=0.0) == pytest.approx(0.7, rel=1e-12)

    def test_penalty_increases_with_gamma(self):
        assert ceq_from_moments(0.5, 2.0, gamma=5.0) < ceq_from_moments(0.5, 2.0, gamma=1.0)


class TestSortinoOmega:
    def test_sortino_loop_oracle(self, rng):
        r = rng.standard_normal(60)
        short = [max(0.0, -v) for v in r]
        want_full = (sum(r) / len(r)) / math.sqrt(sum(s**2 for s in short) / len(r))
        got = sortino(r)
        assert got == pytest.approx(want_full, rel=1e-12)

    def test_sortino_below_denominator(self, rng):
        r = rng.standard_normal(60)
        short = [max(0.0, -v) for v in r]
        cnt = sum(1 for s in short if s > 0)
        want = (sum(r) / len(r)) / math.sqrt(sum(s**2 for s in short) / cnt)
        assert sortino(r, denominator="below") == pytest.approx(want, rel=1e-12)

    def test_sortino_nan_without_downside(self):
        assert math.isnan(sortino([1.0, 2.0, 3.0]))

    def test_sortino_rejects_unknown_denominator(self):
        with pytest.raises(ValueError):
            sortino([1.0, -1.0], denominator="half")

    def test_omega_hand_case(self):
        # Gains 3 + 1 = 4, losses 2: omega = 2.
        assert omega([3.0, 1.0, -2.0]) == pytest.approx(2.0, rel=1e-14)

    def test_omega_threshold_shift(self):
        r = [3.0, 1.0, -2.0]
        # Threshold 1: gains 2, losses 0 + 3 = 3.
        assert omega(r, threshold=1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_omega_nan_without_losses(self):
        assert math.isnan(omega([0.5, 1.0, 2.0]))


class TestMaxDrawdown:
    def test_hand_case(self):
        # Wealth: 1.10, 0.99, 1.0395. Peak 1.10, trough 0.99 -> 10%.
        assert max_drawdown([10.0, -10.0, 5.0]) == pytest.approx(10.0, rel=1e-12)

    def test_initial_level_counts_as_peak(self):
        assert max_drawdown([-5.0, 2.0]) == pytest.approx(5.0, rel=1e-12)

    def test_monotone_growth_zero(self):
        assert max_drawdown([1.0, 2.0, 0.5]) == 0.0

    def test_loop_oracle(self, rng):
        r = rng.uniform(-8.0, 8.0, size=100)
        wealth, peak, worst = 1.0, 1.0, 0.0
        for v in r:
            wealth *= 1.0 + v / 100.0
            peak = max(peak, wealth)
            worst = max(worst, 1.0 - wealth / peak)
        assert max_drawdown(r) == pytest.approx(worst * 100.0, rel=1e-12)


def ref_drawdowns(returns):
    """Drawdown per row of the wealth path, the initial level first."""
    wealth, peak, out = 1.0, 1.0, [0.0]
    for v in returns:
        wealth *= 1.0 + v / 100.0
        peak = max(peak, wealth)
        out.append(100.0 * (1.0 - wealth / peak))
    return out


class TestDrawdowns:
    def test_hand_case(self):
        # Wealth: 1, 0.95, 0.969; the initial level is the peak.
        assert drawdowns([-5.0, 2.0]) == pytest.approx([0.0, 5.0, 3.1], rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_loop_oracle_and_max(self, seed):
        r = np.random.default_rng(seed).uniform(-8.0, 8.0, size=150)
        got = drawdowns(r)
        assert got.tolist() == ref_drawdowns(r)
        assert max_drawdown(r) == got.max()


class TestPerformanceReport:
    def test_fields_match_components(self, rng):
        r = rng.standard_normal(120) * 2.0 + 0.3
        rep = performance_report(r, gamma=2.0)
        assert rep.sharpe == sharpe(r)
        assert rep.var_sharpe == var_sharpe(r)
        assert rep.es_sharpe == es_sharpe(r)
        assert rep.ann_sharpe == ann_sharpe(r)
        assert rep.ceq == ceq(r, gamma=2.0)
        assert rep.sortino == sortino(r)
        assert rep.omega == omega(r)
        assert rep.max_drawdown == max_drawdown(r)
