"""Synthetic panel generators: determinism, dependence shape, validation."""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats

import lgcport
from lgcport.synth import (
    DEFAULT_NAMES,
    clayton_normal_sample,
    ndtri,
    sample_clayton_uniforms,
    synth_panel,
)


class TestDeterminism:
    @pytest.mark.parametrize("model", ["gaussian", "bear", "clayton"])
    def test_same_seed_same_bytes(self, model):
        a = synth_panel(months=60, model=model, seed=11)
        b = synth_panel(months=60, model=model, seed=11)
        assert a.dates == b.dates
        assert a.asset_names == b.asset_names
        assert np.array_equal(a.returns, b.returns)

    def test_different_seed_differs(self):
        a = synth_panel(months=60, seed=1)
        b = synth_panel(months=60, seed=2)
        assert not np.array_equal(a.returns, b.returns)


class TestShapeAndLabels:
    def test_default_dimensions(self):
        p = synth_panel()
        assert p.n_months == 463
        assert p.n_assets == 6
        assert p.asset_names == list(DEFAULT_NAMES)
        assert p.dates[0] == "1980-02"
        assert p.dates[-1] == "2018-08"

    def test_custom_start_and_length(self):
        p = synth_panel(months=14, n_assets=2, start="1999-11", seed=0)
        assert p.dates[0] == "1999-11"
        assert p.dates[2] == "2000-01"
        assert len(p.dates) == 14

    def test_many_assets_get_generated_names(self):
        p = synth_panel(months=10, n_assets=8, model="gaussian", seed=0)
        assert p.asset_names[0] == "A01"
        assert p.asset_names[7] == "A08"
        assert len(set(p.asset_names)) == 8

    def test_custom_names_and_moments(self):
        p = synth_panel(
            months=2000,
            n_assets=2,
            model="gaussian",
            seed=4,
            means=(1.0, -1.0),
            sds=(2.0, 6.0),
            names=("X", "Y"),
        )
        assert p.asset_names == ["X", "Y"]
        assert p.returns[:, 0].mean() == pytest.approx(1.0, abs=0.15)
        assert p.returns[:, 1].std(ddof=1) == pytest.approx(6.0, rel=0.1)


class TestGaussianModel:
    def test_correlation_matches_rho(self):
        p = synth_panel(months=20000, n_assets=3, model="gaussian", seed=8, rho=0.6)
        c = np.corrcoef(p.returns, rowvar=False)
        off = c[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.6, atol=0.03)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            synth_panel(months=10, model="gaussian", rho=1.0)


class TestBearModel:
    def test_lower_tail_correlation_exceeds_upper(self):
        p = synth_panel(months=30000, seed=3, model="bear")
        z = (p.returns - p.returns.mean(axis=0)) / p.returns.std(axis=0)
        x, y = z[:, 0], z[:, 1]
        lo = x < np.quantile(x, 0.2)
        hi = x > np.quantile(x, 0.8)
        assert np.corrcoef(x[lo], y[lo])[0, 1] > np.corrcoef(x[hi], y[hi])[0, 1] + 0.1

    def test_negative_skew_for_equities(self):
        p = synth_panel(months=50000, seed=5, model="bear")
        r = p.returns[:, 0]
        dev = r - r.mean()
        skew = np.mean(dev**3) / np.mean(dev**2) ** 1.5
        assert skew < -0.2

    def test_default_panel_bytes_unchanged(self):
        # SHA-256 of synth_panel().returns, the input of the paper's run (C11),
        # recorded before same-class CMD/GLD entries were added to the blocks.
        p = synth_panel()
        digest = hashlib.sha256(p.returns.tobytes()).hexdigest()
        assert digest == "a41a5700f30c6002aab2b2886bc5d2aa80f1d9b090f82abd01646147103f7a37"

    @pytest.mark.parametrize(
        "months, n_assets, want",
        [
            (140, 12, "8e879322dc7f62d2f06e701e2e7a8e0e1d30d8ced551e396c2a742c4e6645ba0"),
            (463, 24, "d3a3fda2edb48fe1c8c8934f00fb67697ef3bc3880aa044054c133c3a1a85cd3"),
        ],
    )
    def test_clayton_panel_bytes_unchanged(self, months, n_assets, want):
        # SHA-256 of the benchmark's Clayton panels at seed 0, recorded while
        # the normal quantiles came from scipy.stats.norm.ppf (now ndtri).
        p = synth_panel(months=months, n_assets=n_assets, model="clayton", seed=0)
        assert hashlib.sha256(p.returns.tobytes()).hexdigest() == want

    @pytest.mark.parametrize("n_assets", [11, 12])
    def test_repeated_asset_classes(self, n_assets):
        # Assets 4 and 10 are both commodities, 5 and 11 both gold.
        p = synth_panel(months=20000, n_assets=n_assets, seed=8, model="bear")
        assert p.returns.shape == (20000, n_assets)
        assert np.all(np.isfinite(p.returns))
        corr = np.corrcoef(p.returns, rowvar=False)
        assert corr[4, 10] > 0.4
        if n_assets == 12:
            assert corr[5, 11] > 0.4

    def test_bear_prob_zero_is_calm_only(self):
        p = synth_panel(months=50000, seed=6, model="bear", bear_prob=0.0)
        r = p.returns[:, 0]
        assert r.mean() == pytest.approx(0.6, abs=0.1)
        dev = r - r.mean()
        skew = np.mean(dev**3) / np.mean(dev**2) ** 1.5
        assert abs(skew) < 0.1


class TestClaytonModel:
    def test_uniform_marginals(self):
        rng = np.random.default_rng(9)
        u = sample_clayton_uniforms(rng, 20000, 3, 2.0)
        assert u.min() > 0.0 and u.max() < 1.0
        for j in range(3):
            ks = stats.kstest(u[:, j], "uniform")
            assert ks.pvalue > 1e-4

    def test_kendall_tau_matches_theta(self):
        # Exchangeable Clayton has tau = theta / (theta + 2).
        rng = np.random.default_rng(10)
        u = sample_clayton_uniforms(rng, 4000, 2, 2.0)
        tau = stats.kendalltau(u[:, 0], u[:, 1]).statistic
        assert tau == pytest.approx(0.5, abs=0.03)

    def test_normal_marginals_after_transform(self):
        rng = np.random.default_rng(11)
        z = clayton_normal_sample(rng, 20000, 2, 1.5)
        ks = stats.kstest(z[:, 0], "norm")
        assert ks.pvalue > 1e-4

    def test_lower_tail_clusters_more_than_upper(self):
        rng = np.random.default_rng(12)
        u = sample_clayton_uniforms(rng, 50000, 2, 2.0)
        both_low = np.mean((u[:, 0] < 0.05) & (u[:, 1] < 0.05))
        both_high = np.mean((u[:, 0] > 0.95) & (u[:, 1] > 0.95))
        assert both_low > 2.0 * both_high

    def test_theta_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_clayton_uniforms(rng, 10, 2, 0.0)

    def test_ndtri_matches_scipy_bit_for_bit(self):
        # The branch points exp(-2), 1 - exp(-2) and exp(-32) with their
        # neighbours, both tails down to the smallest subnormal, the ends 0
        # and 1, and uniform draws.
        edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 0.5]
        near = [np.nextafter(v, d) for v in edges for d in (0.0, 1.0)]
        u = np.concatenate([
            edges, near, [0.0, 1.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53],
            np.logspace(-323, -0.3, 4001),
            1.0 - np.logspace(-16, -0.3, 2001),
            np.linspace(0.0, 1.0, 10_001),
            np.random.default_rng(13).random(200_000),
        ])
        got, want = ndtri(u), special.ndtri(u)
        assert got.shape == u.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
        assert np.all(np.isnan(ndtri(np.array([-0.1, 1.1, np.nan]))))

    def test_clayton_panel_leaves_scipy_unimported(self):
        code = (
            "import sys; from lgcport.synth import synth_panel; "
            "synth_panel(months=30, n_assets=3, model='clayton', seed=1); "
            "print('scipy' in sys.modules, 'scipy.special' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(lgcport.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]


class TestValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            synth_panel(months=10, model="cauchy")

    def test_too_short(self):
        with pytest.raises(ValueError):
            synth_panel(months=1)

    def test_moment_length_mismatch(self):
        with pytest.raises(ValueError):
            synth_panel(months=10, n_assets=3, means=(0.1, 0.2))

    def test_nonpositive_sd(self):
        with pytest.raises(ValueError):
            synth_panel(months=10, n_assets=2, sds=(1.0, 0.0))
