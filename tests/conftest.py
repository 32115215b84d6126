"""Shared helpers for the test suite."""

import math

import numpy as np
import pytest

from lgcport.lgc import LocalParams, gaussian_kernel_weight, local_moments_stack, local_score


def gauss_pair(rng, n, rho, means=(0.0, 0.0), sds=(1.0, 1.0)):
    """Bivariate normal sample with the requested correlation."""
    z = rng.standard_normal((n, 2))
    y = rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1]
    out = np.column_stack([z[:, 0], y])
    return np.asarray(means) + np.asarray(sds) * out


def pair_moments(xs, ys, r, b):
    """The (12, P) local_moments_stack rows of P pairs, each its own
    two-asset window: (P, n) samples `xs`, `ys` and (P, 2) grid points `r`
    and bandwidths `b`."""
    return local_moments_stack(np.stack([xs, ys], axis=2), r, b)[:, :, 0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def eta_score(sample, r, b, eta):
    """Gradient of -local_loglik / wbar in (mu1, mu2, log s1, log s2, atanh rho).

    Built from the per-observation analytic score and the chain rule, so it is
    independent of the moment-based objective the Newton solver uses.
    """
    theta = LocalParams(eta[0], eta[1], math.exp(eta[2]), math.exp(eta[3]), math.tanh(eta[4]))
    chain = np.array([1.0, 1.0, theta.sigma1, theta.sigma2, 1.0 - theta.rho**2])
    wbar = gaussian_kernel_weight(sample, r, b).mean()
    return -local_score(sample, r, b, theta) * chain / wbar


def tensor_gauss_legendre(f, lo1, hi1, lo2, hi2, panels, nodes=10):
    """Integral of f over the box [lo1, hi1] x [lo2, hi2] by a fixed tensor
    rule: each side is cut into `panels` equal panels of `nodes`
    Gauss-Legendre nodes.

    f(x, y) takes a column of x and a row of y and broadcasts; it is
    evaluated one panel of x at a time, so its arrays stay small.
    """
    z, w = np.polynomial.legendre.leggauss(nodes)

    def axis(lo, hi):
        half = (hi - lo) / (2 * panels)
        mid = lo + half * (2 * np.arange(panels) + 1)
        return (mid[:, None] + half * z).ravel(), np.tile(half * w, panels)

    (x, wx), (y, wy) = axis(lo1, hi1), axis(lo2, hi2)
    return float(
        sum(
            wx[i : i + nodes] @ f(x[i : i + nodes, None], y[None, :]) @ wy
            for i in range(0, x.size, nodes)
        )
    )
