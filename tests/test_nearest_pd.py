"""The PD repair: properties of nearest_pd on random symmetric matrices
(hypothesis), and the stacked repair against a one-matrix reference run to
convergence."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lgcport.localcov as localcov
from lgcport.localcov import PD_TOL, _repair, nearest_correlation, nearest_pd


def ref_nearest_correlation(corr, change_tol=1e-13, max_iterations=20_000):
    """One matrix at a time, by plain alternating projections (Higham 2002)
    with Dykstra's correction, run until an iterate moves less than
    `change_tol` (Frobenius norm). A reference that reaches the cap fails."""
    y = np.array(corr, dtype=float)
    n = y.shape[0]
    ds = np.zeros_like(y)
    for _ in range(max_iterations):
        r = y - ds
        vals, vecs = np.linalg.eigh((r + r.T) / 2.0)
        x = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        ds = x - r
        y_next = x.copy()
        y_next[np.diag_indices(n)] = 1.0
        if np.linalg.norm(y_next - y, "fro") < change_tol:
            return (y_next + y_next.T) / 2.0
        y = y_next
    raise AssertionError("the reference did not converge in %d iterations" % max_iterations)


def ref_nearest_pd(m, tol=PD_TOL):
    """One symmetric matrix: (matrix, repaired)."""
    vals = np.linalg.eigvalsh(m)
    top = float(vals[-1])
    # Accepted with a rounding margin of n * eps * top below the floor.
    if top > 0.0 and float(vals[0]) >= (tol - len(m) * np.finfo(float).eps) * top:
        return m, False
    diag = np.diag(m)
    if np.all(diag > 0.0):
        d = np.sqrt(diag)
        out = ref_nearest_correlation(m / np.outer(d, d)) * np.outer(d, d)
    else:
        out = m
    vals, vecs = np.linalg.eigh(out)
    top = max(float(vals[-1]), 0.0)
    floor = tol * top if top > 0.0 else tol
    out = (vecs * np.clip(vals, floor, None)) @ vecs.T
    return (out + out.T) / 2.0, True


def assert_is_the_reference(out, repaired, m):
    """`out` and `repaired` are ref_nearest_pd's for the matrix m: the flag
    and an unrepaired matrix bit for bit, a repaired one within 1e-10 of the
    largest entry. The projections stop on a residual of 1e-12, and over
    every repaired matrix of c11, tail_wide (seeds 0-15) and a 48-asset panel
    they lie within 5.8e-13 of the converged reference."""
    want, flag = ref_nearest_pd(m)
    assert repaired == flag
    if not flag:
        assert np.array_equal(out, want)
    else:
        assert np.max(np.abs(out - want)) <= 1e-10 * np.max(np.abs(want))


def low_rank_correlation(seed, n, rank, noise=0.05):
    """A rank-`rank` correlation matrix with uniform noise on the
    off-diagonals: indefinite, and slow for the alternating projections."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, rank))
    c = f @ f.T
    d = np.sqrt(np.diag(c))
    c = c / np.outer(d, d)
    e = rng.uniform(-noise, noise, (n, n))
    c = np.clip(c + np.triu(e, 1) + np.triu(e, 1).T, -1.0, 1.0)
    np.fill_diagonal(c, 1.0)
    return c


@st.composite
def symmetric_matrices(draw, kind=None, n=None):
    """Exactly symmetric matrices of one of four shapes, at scales 1e-8..1e8.

    "pd": well-conditioned positive definite; "low_rank": PSD and singular;
    "correlation": unit diagonal, off-diagonals uniform in (-1, 1), rescaled by
    positive variances (usually indefinite); "any": uniform entries, so the
    diagonal may be negative and no correlation form exists.
    """
    n = n or draw(st.integers(1, 8))
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
def test_idempotent(m):
    # A repaired matrix sits at the PD_TOL floor, up to the rounding of its
    # rebuild, which the acceptance margin covers: a second call keeps it.
    once, _ = nearest_pd(m)
    twice, repaired = nearest_pd(once)
    assert not repaired
    assert np.array_equal(twice, once)


def mixed_stack():
    """16 x 16 covariances: a PD date, repaired dates whose correlation stage
    stops after different numbers of iterations, and one with a negative
    variance (no correlation form, so only its spectrum is floored)."""
    rng = np.random.default_rng(3)
    n = 16
    a = rng.standard_normal((n, n))
    dates = [a @ a.T + n * np.eye(n)]
    for seed in (0, 2, 4, 9):
        sd = rng.uniform(0.1, 10.0, size=n)
        dates.append(low_rank_correlation(seed, n, rank=1) * np.outer(sd, sd))
    off = rng.uniform(-1.0, 1.0, size=(n, n))
    dates.append(np.triu(off, 1) + np.triu(off, 1).T + np.diag(rng.uniform(-1.0, 1.0, size=n)))
    dates[-1][0, 0] = -0.5
    return np.stack([(m + m.T) / 2.0 for m in dates])


def test_stacked_repair_matches_the_one_matrix_reference():
    stack = mixed_stack()
    assert np.diag(stack[-1]).min() < 0.0
    out, record = _repair(stack)
    assert record.repaired.tolist() == [False, True, True, True, True, True]
    # The four correlation stages stop at four different lockstep
    # iterations; the other dates take none.
    iterations = record.iterations.tolist()
    assert iterations[0] == iterations[-1] == 0 and len(set(iterations[1:5])) == 4
    assert record.converged.all()
    for d, m in enumerate(stack):
        assert_is_the_reference(out[d], record.repaired[d], m)
        alone, one = _repair(stack[d : d + 1])
        assert np.array_equal(alone[0], out[d])
        for name, value in vars(one).items():
            assert value[0] == getattr(record, name)[d]
    # Reversed, the dates share their lockstep iterations with other dates.
    backwards, _ = _repair(stack[::-1].copy())
    assert np.array_equal(backwards[::-1], out)


def test_projections_stopped_at_the_cap_are_recorded(monkeypatch):
    monkeypatch.setattr(localcov, "_PROJECTION_ITERATIONS", 2)
    _, record = _repair(mixed_stack())
    assert record.repaired.tolist() == [False, True, True, True, True, True]
    assert record.iterations.tolist() == [0, 2, 2, 2, 2, 0]
    assert record.converged.tolist() == [True, False, False, False, False, True]


@st.composite
def symmetric_stacks(draw):
    n = draw(st.integers(1, 8))
    return np.stack(draw(st.lists(symmetric_matrices(n=n), min_size=1, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(symmetric_stacks())
def test_stacked_repair_is_per_matrix_reference_on_random_stacks(stack):
    out, record = _repair(stack)
    for d, m in enumerate(stack):
        assert_is_the_reference(out[d], record.repaired[d], m)
        assert np.array_equal(nearest_pd(m)[0], out[d])


@st.composite
def slow_matrices(draw):
    """Covariances of up to 30 assets on which the projections work hardest:
    a low-rank correlation with noise, rescaled by positive variances, or
    uniform entries ("any", whose diagonal may be negative)."""
    n = draw(st.integers(2, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return draw(symmetric_matrices(kind="any", n=n))
    sd = np.random.default_rng(seed).uniform(0.1, 10.0, size=n)
    return low_rank_correlation(seed, n, draw(st.integers(1, n))) * np.outer(sd, sd)


@settings(max_examples=60, deadline=None)
@given(st.lists(slow_matrices(), min_size=1, max_size=3))
def test_repair_of_slow_matrices_is_the_converged_reference(matrices):
    for m in matrices:
        out, record = _repair(m[None])
        assert record.converged[0]
        assert_is_the_reference(out[0], record.repaired[0], m)


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices(kind="correlation"))
def test_nearest_correlation_is_the_reference(m):
    d = np.sqrt(np.diag(m))
    corr = m / np.outer(d, d)
    want = ref_nearest_correlation(corr)
    assert np.max(np.abs(nearest_correlation(corr) - want)) <= 1e-10


def spectrum_matrix(rng, n, ratio, scale):
    """A symmetric matrix with eigenvalues log-uniform in [ratio, 1] * scale,
    the two ends included, in a random orthonormal basis."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.exp(rng.uniform(np.log(ratio), 0.0, size=n))
    vals[0], vals[-1] = ratio, 1.0
    m = (basis * (scale * vals)) @ basis.T
    return (m + m.T) / 2.0


@st.composite
def pre_test_stacks(draw):
    """Stacks that probe the Cholesky pre-test of _repair: matrices whose
    smallest-to-largest eigenvalue ratio lies in [1e-12, 1e-8], around
    PD_TOL, beside well-conditioned, indefinite, zero-trace and
    negative-diagonal ones."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(
        st.lists(
            st.sampled_from(["near", "near", "near", "pd", "indefinite", "zero_trace", "negative_diagonal"]),
            min_size=1,
            max_size=5,
        )
    )
    stack = []
    for kind in kinds:
        scale = 10.0 ** draw(st.integers(-8, 8))
        if kind == "near":
            ratio = 10.0 ** draw(st.floats(-12.0, -8.0))
            m = spectrum_matrix(rng, n, ratio, scale)
        elif kind == "pd":
            m = spectrum_matrix(rng, n, 0.1, scale)
        elif kind == "indefinite":
            # v'Mv <= scale, less 1.5 * scale along v = M's first row.
            m = spectrum_matrix(rng, n, 0.5, scale)
            m -= 1.5 * scale * np.outer(m[0], m[0]) / (m[0] @ m[0])
        elif kind == "zero_trace":
            # Diagonal +-scale in turn (0 last if n is odd): the trace is 0.
            m = spectrum_matrix(rng, n, 0.5, scale)
            m[np.diag_indices(n)] = scale * np.resize([1.0, -1.0], n)
            if n % 2:
                m[n - 1, n - 1] = 0.0
        else:
            m = spectrum_matrix(rng, n, 0.5, scale)
            m[n - 1, n - 1] = -m[n - 1, n - 1]
        stack.append((m + m.T) / 2.0)
    return np.stack(stack)


@settings(max_examples=300, deadline=None)
@given(pre_test_stacks())
def test_pre_test_keeps_the_eigenvalue_reference(stack):
    # Whether or not the stacked Cholesky accepts the stack, every flag and
    # unrepaired matrix is the eigvalsh-only reference's, bit for bit.
    out, record = _repair(stack)
    for d, m in enumerate(stack):
        assert_is_the_reference(out[d], record.repaired[d], m)


def test_pre_test_takes_no_eigenvalues_of_a_positive_definite_stack(monkeypatch):
    # Ratios from 1e-8 down to 1e-9 at N = 24: each smallest eigenvalue lies
    # above 2 * PD_TOL * trace, so the stacked Cholesky accepts the stack.
    rng = np.random.default_rng(11)
    stack = np.stack([spectrum_matrix(rng, 24, 10.0 ** -e, 1e-3) for e in np.linspace(8, 9, 12)])
    refs = [ref_nearest_pd(m) for m in stack]
    assert not any(flag for _, flag in refs)

    def no_eigenvalues(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
    out, record = _repair(stack)
    assert not record.repaired.any()
    assert np.array_equal(out, stack)
    # One matrix below the floor sends the whole stack to the eigenvalues.
    low = np.concatenate([stack, spectrum_matrix(rng, 24, 1e-12, 1e-3)[None]])
    try:
        _repair(low)
    except AssertionError as err:
        assert str(err) == "eigvalsh called"
    else:
        raise AssertionError("the stacked Cholesky accepted a matrix below the floor")
