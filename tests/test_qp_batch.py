"""Batched active-set QP against the one-problem-at-a-time method it replaced.

`reference_active_set_qp` is the sequential solver the package used before
the batched one, kept as the oracle (it also returns its final active set,
and its ratio test is split out): the batched solver must follow each
problem's exact iterate path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcport.backtest import BacktestConfig, run_backtest
from lgcport.errors import InfeasibleError, SolverError
import lgcport.optimizer as optimizer
from lgcport.optimizer import StrategySpec, _active_set_qp, _ratio_test, solve_batch
from lgcport.synth import synth_panel


def reference_ratio_test(w, step, free, lb):
    """Step length and blocking asset: the first bound hit, ties to the lowest index."""
    alpha = 1.0
    block = -1
    for i in np.nonzero(free & (step < 0.0))[0]:
        ratio = (lb - w[i]) / step[i]
        if ratio < alpha - 1e-15:
            alpha = max(ratio, 0.0)
            block = int(i)
    return alpha, block


def reference_active_set_qp(q, c, lb):
    """Minimize 0.5 w'Qw + c'w subject to sum(w) = 1 and w >= lb, one problem."""
    n = len(c)
    w = np.full(n, 1.0 / n)
    active = np.zeros(n, dtype=bool)
    lam = 0.0

    for _ in range(60 * (n + 1)):
        free = ~active
        k = int(free.sum())
        if k == 0:
            grad = q @ w + c
            lam = float(grad.min())
            pi = grad - lam
        else:
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = q[np.ix_(free, free)]
            kkt[:k, k] = -1.0
            kkt[k, :k] = 1.0
            rhs = np.empty(k + 1)
            rhs[:k] = -c[free] - q[np.ix_(free, active)] @ w[active]
            rhs[k] = 1.0 - lb * float(active.sum())
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                raise SolverError("singular KKT system")
            target = w.copy()
            target[free] = sol[:k]
            lam = float(sol[k])
            step = target - w

            if float(np.max(np.abs(step))) > 1e-13:
                alpha, block = reference_ratio_test(w, step, free, lb)
                w = w + alpha * step
                if block >= 0:
                    w[block] = lb
                    active[block] = True
                continue

            grad = q @ w + c
            pi = np.zeros(n)
            pi[active] = grad[active] - lam

        if active.any():
            worst = int(np.argmin(np.where(active, pi, np.inf)))
            if pi[worst] < -1e-11:
                active[worst] = False
                continue
        pi = np.clip(pi, 0.0, None)
        pi[free] = 0.0
        return w, lam, pi, active

    raise SolverError("active-set iteration limit reached")


@st.composite
def qp_stacks(draw):
    """A stack of P strategy problems on n assets: (spec, sigma, mu)."""
    n = draw(st.integers(1, 8))
    p = draw(st.integers(1, 6))
    floor = draw(st.sampled_from(["short", "long", "random"]))
    if floor == "random":
        lb = draw(st.floats(-1.0, 1.0 / n, allow_nan=False))
    else:
        lb = -0.5 if floor == "short" else 0.0
    kind = draw(st.sampled_from(["MVS", "MVSC", "MIN", "MINC"]))
    rank = draw(st.integers(1, n))  # below n: singular, ridge-only covariances
    # Small scales bring multipliers near the -1e-11 drop threshold.
    scale = 10.0 ** draw(st.integers(-10, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((p, n, rank))
    sigma = scale * (a @ a.transpose(0, 2, 1)) / rank
    mu = rng.standard_normal((p, n)) * np.sqrt(scale) * draw(st.floats(0.0, 1.0))
    # Copies of asset 0, a few ulps apart, bring ratio-test ties and near-ties.
    copies = draw(st.integers(0, n - 1))
    if copies:
        ulps = 1.0 + np.finfo(float).eps * rng.integers(-4, 5, size=(p, copies))
        sigma[:, 1 : copies + 1, :] = sigma[:, :1, :]
        sigma[:, :, 1 : copies + 1] = sigma[:, :, :1]
        sigma[:, 1 : copies + 1, 1 : copies + 1] = sigma[:, :1, :1]
        mu[:, 1 : copies + 1] = mu[:, :1] * ulps
    spec = StrategySpec(kind, "global", gamma=draw(st.floats(0.5, 4.0)), lower_bound=lb)
    return spec, sigma, mu


def objective_terms(spec, sigma, mu):
    """The (q, c) of the stack, built as solve_batch builds them."""
    n = sigma.shape[1]
    if spec.kind in ("MVS", "MVSC"):
        return spec.gamma * sigma + 1e-12 * np.eye(n), -mu
    return 2.0 * sigma + 1e-12 * np.eye(n), np.zeros(mu.shape)


@settings(max_examples=150, deadline=None)
@given(qp_stacks())
def test_batch_follows_reference_path(problem):
    spec, sigma, mu = problem
    q, c = objective_terms(spec, sigma, mu)
    w, _, pi, active, failures = _active_set_qp(q, c, spec.lower_bound)
    for i in range(len(q)):
        try:
            w_ref, _, pi_ref, active_ref = reference_active_set_qp(q[i], c[i], spec.lower_bound)
        except SolverError as err:
            assert str(failures[i]) == str(err)
            continue
        assert i not in failures
        assert np.max(np.abs(w[i] - w_ref)) <= 1e-12
        assert np.array_equal(active[i], active_ref)
        assert np.max(np.abs(pi[i] - pi_ref)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(qp_stacks())
def test_batch_of_p_equals_p_batches_of_one(problem):
    spec, sigma, mu = problem
    w, failures = solve_batch(spec, sigma, mu)
    for i in range(len(sigma)):
        w_one, failed_one = solve_batch(spec, sigma[i : i + 1], mu[i : i + 1])
        assert np.array_equal(w[i], w_one[0], equal_nan=True)
        assert {k: str(e) for k, e in failed_one.items()} == (
            {0: str(failures[i])} if i in failures else {}
        )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 5),
    n=st.integers(1, 8),
    lb=st.sampled_from([-0.5, 0.0]),
)
def test_ratio_test_matches_scalar_scan(seed, rows, n, lb):
    # Ratios a few ulps apart, weights at or just below the floor, and rising
    # or pinned assets exercise the 1e-15 tie rule and the clamp at 0.
    rng = np.random.default_rng(seed)
    ulps = rng.integers(-8, 9, (rows, n))
    ratio = rng.uniform(0.05, 1.5) * (1.0 + np.finfo(float).eps * ulps)
    w = lb + rng.choice([0.0, -1e-17, 0.3], size=(rows, n)) * rng.uniform(0.5, 1.0, (rows, n))
    step = np.where(w > lb, (lb - w) / ratio, -rng.uniform(0.1, 1.0, (rows, n)))
    step *= rng.choice([1.0, 1.0, -1.0], size=(rows, n))
    free = rng.random((rows, n)) < 0.8
    alpha, block = _ratio_test(w, step, free, lb)
    for r in range(rows):
        want_alpha, want_block = reference_ratio_test(w[r], step[r], free[r], lb)
        assert block[r] == want_block
        assert np.array_equal(alpha[r], want_alpha)


@pytest.mark.parametrize("kind, lb", [("MVS", -0.5), ("MVSC", 0.0), ("MINC", 0.0)])
def test_tiny_scale_paths_match_reference(kind, lb):
    # At covariance scale 1e-10 the bound multipliers are O(1e-10), so the
    # paths that release a bound test the -1e-11 drop rule from both sides.
    rng = np.random.default_rng(5)
    p, n = 400, 8
    a = rng.standard_normal((p, n, n))
    sigma = 1e-10 * (a @ a.transpose(0, 2, 1)) / n
    mu = 1e-10 * rng.standard_normal((p, n))
    q, c = objective_terms(StrategySpec(kind, lower_bound=lb), sigma, mu)
    w, _, _, active, failures = _active_set_qp(q, c, lb)
    assert not failures
    for i in range(p):
        w_ref, _, _, active_ref = reference_active_set_qp(q[i], c[i], lb)
        assert np.array_equal(w[i], w_ref)
        assert np.array_equal(active[i], active_ref)


def test_batch_across_chunks_matches_single_solves(rng, monkeypatch):
    p, n = 2 * optimizer._CHUNK + 5, 5
    a = rng.standard_normal((p, n, n))
    sigma = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(n)
    mu = 0.3 * rng.standard_normal((p, n))
    spec = StrategySpec("MVSC")
    singles = np.concatenate(
        [solve_batch(spec, sigma[i : i + 1], mu[i : i + 1])[0] for i in range(p)]
    )
    w, failures = solve_batch(spec, sigma, mu)
    assert not failures
    assert np.array_equal(w, singles)

    # A failure keeps the index of its problem in the whole batch.
    verify = optimizer._verify_kkt

    def strict(w, lam, pi, q, c, lb, failures):
        verify(w, lam, pi, q, c, lb, failures)
        for i in np.flatnonzero(w[:, 0] > 0.3):
            failures.setdefault(int(i), SolverError("rejected"))

    monkeypatch.setattr(optimizer, "_verify_kkt", strict)
    w, failures = solve_batch(spec, sigma, mu)
    rejected = singles[:, 0] > 0.3
    assert 0 < rejected.sum() < p
    assert sorted(failures) == np.flatnonzero(rejected).tolist()
    assert np.all(np.isnan(w[rejected]))
    assert np.array_equal(w[~rejected], singles[~rejected])


@settings(max_examples=100, deadline=None)
@given(qp_stacks())
def test_solutions_satisfy_kkt(problem):
    spec, sigma, mu = problem
    q, c = objective_terms(spec, sigma, mu)
    lb = spec.lower_bound
    w, failures = solve_batch(spec, sigma, mu)
    scale = 1.0 + np.max(np.abs(q), axis=(1, 2)) + np.max(np.abs(c), axis=1)
    for i in range(len(q)):
        if i in failures:
            continue
        # Multipliers recovered from the weights alone: lam from the free
        # assets, and every bound multiplier grad - lam must be nonnegative.
        grad = q[i] @ w[i] + c[i]
        tol = 1e-7 * scale[i]
        assert abs(w[i].sum() - 1.0) <= 1e-9
        assert np.all(w[i] >= lb - 1e-12)
        free = w[i] > lb
        if free.any():
            lam = grad[free].mean()
            assert np.max(np.abs(grad[free] - lam)) <= tol
            assert np.all(grad[~free] - lam >= -tol)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_assets=st.integers(2, 4),
    label=st.sampled_from(["MVS", "MVSC-L", "MIN", "MINC-L"]),
    excess=st.floats(1e-6, 0.5),
)
def test_infeasible_floor_raises_at_inception(seed, n_assets, label, excess):
    panel = synth_panel(months=26, n_assets=n_assets, model="gaussian", seed=seed)
    base = StrategySpec.from_label(label)
    lb = min(1.0, 1.0 / n_assets + excess)
    spec = StrategySpec(base.kind, base.covariance_source, lower_bound=lb)
    config = BacktestConfig(window=20, strategies=[StrategySpec.from_label("EW"), spec])
    with pytest.raises(InfeasibleError, match="at inception %s for %s" % (
        panel.dates[20], label
    )):
        run_backtest(panel, config)
