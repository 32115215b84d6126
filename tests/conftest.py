"""Shared helpers for the test suite."""

import math

import numpy as np
import pytest

from lgcport.lgc import LocalParams, gaussian_kernel_weight, local_score


def gauss_pair(rng, n, rho, means=(0.0, 0.0), sds=(1.0, 1.0)):
    """Bivariate normal sample with the requested correlation."""
    z = rng.standard_normal((n, 2))
    y = rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1]
    out = np.column_stack([z[:, 0], y])
    return np.asarray(means) + np.asarray(sds) * out


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
