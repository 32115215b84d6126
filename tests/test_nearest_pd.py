"""Properties of nearest_pd on random symmetric matrices (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcport.localcov import PD_TOL, nearest_pd


@st.composite
def symmetric_matrices(draw, kind=None):
    """Exactly symmetric matrices of one of four shapes, at scales 1e-8..1e8.

    "pd": well-conditioned positive definite; "low_rank": PSD and singular;
    "correlation": unit diagonal, off-diagonals uniform in (-1, 1), rescaled by
    positive variances (usually indefinite); "any": uniform entries, so the
    diagonal may be negative and no correlation form exists.
    """
    n = draw(st.integers(1, 8))
    kind = kind or draw(st.sampled_from(["pd", "low_rank", "correlation", "any"]))
    scale = 10.0 ** draw(st.integers(-8, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "pd":
        a = rng.standard_normal((n, n))
        m = a @ a.T + n * np.eye(n)
    elif kind == "low_rank":
        a = rng.standard_normal((n, draw(st.integers(1, n))))
        m = a @ a.T
    else:
        off = rng.uniform(-1.0, 1.0, size=(n, n))
        m = np.triu(off, 1) + np.triu(off, 1).T
        if kind == "correlation":
            sd = rng.uniform(0.1, 10.0, size=n)
            m = (m + np.eye(n)) * np.outer(sd, sd)
        else:
            m += np.diag(rng.uniform(-1.0, 1.0, size=n))
    m = (m + m.T) / 2.0
    return m * scale


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_output_is_symmetric_positive_definite(m):
    out, repaired = nearest_pd(m)
    if not repaired:
        assert np.array_equal(out, m)
    assert np.array_equal(out, out.T)
    vals = np.linalg.eigvalsh(out)
    assert vals[0] > 0.0
    # The spectrum is floored at PD_TOL times the largest eigenvalue; the
    # rebuilt matrix keeps that ratio up to rounding.
    assert vals[0] >= PD_TOL * vals[-1] * (1.0 - 1e-3)


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices(kind="pd"))
def test_positive_definite_input_is_returned_bit_for_bit(m):
    vals = np.linalg.eigvalsh(m)
    assert vals[0] >= PD_TOL * vals[-1]
    out, repaired = nearest_pd(m)
    assert not repaired
    assert np.array_equal(out, m)


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_idempotent_up_to_rounding(m):
    # A repaired matrix sits exactly at the PD_TOL floor, so rounding in the
    # rebuild can put its smallest eigenvalue a few ulps below the threshold
    # and a second call then repairs it again; that second repair must move
    # no entry by more than rounding.
    once, _ = nearest_pd(m)
    twice, _ = nearest_pd(once)
    assert np.max(np.abs(twice - once)) <= 1e-13 * np.max(np.abs(once))
    assert np.linalg.eigvalsh(twice)[0] > 0.0
