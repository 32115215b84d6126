"""Batched active-set QP against the one-problem-at-a-time method it replaced.

`reference_active_set_qp` is the sequential solver the package used before
the batched one, kept as the oracle (it also returns its final active set,
and its ratio test is split out). By default it starts from its own
sequential clamped solve, and the batched solver must follow that exact
iterate path. With clamp=False it starts at equal weights, the path the
package took before every problem started clamped: Q's relative ridge makes
the optimum independent of the path, so on the well-posed and PD-repaired
stacks below both starts return the same weights. `enumerated_optimum` is
an oracle that shares no code with either.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgcport.backtest import BacktestConfig, _estimate, run_backtest
from lgcport.errors import InfeasibleError, SolverError
import lgcport.optimizer as optimizer
from lgcport.optimizer import (
    KKT_TOL,
    StrategySpec,
    _active_set_qp,
    _ratio_test,
    _start,
    solve_minvar,
    solve_strategies,
)
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


def reference_active_set_qp(q, c, lb, clamp=True):
    """Minimize 0.5 w'Qw + c'w subject to sum(w) = 1 and w >= lb, one problem.

    With `clamp`, each solution pins every bound it breaks by more than
    1e-15 and is solved again, until one is feasible; the search goes on
    from there. Without it, the search starts at equal weights.
    """
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

            if clamp:
                broken = free & (target < lb - 1e-15)
                w = np.where(broken, lb, target)
                active |= broken
                clamp = bool(broken.any())
                if clamp:
                    continue
            elif float(np.max(np.abs(step))) > 1e-13:
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


def lockstep(q, c, lb):
    """`_active_set_qp` on P problems, each with its own Q and c, all with
    lower bound lb, from the start `_start` gives them."""
    p = len(c)
    start = _start(q[None], [c], [(0, 0)])
    return _active_set_qp(q, np.arange(p), c, np.full(p, float(lb)), start)


def objective_terms(spec, sigma, mu):
    """The (q, c) of the stack, built as solve_strategies builds them: a
    ridge of 1e-9 times the mean diagonal of scale*Sigma, or 1 where that
    mean is not positive."""
    n = sigma.shape[1]
    mv = spec.kind in ("MVS", "MVSC")
    q = (spec.gamma if mv else 2.0) * sigma
    mean = np.trace(q, axis1=1, axis2=2) / n
    q = q + np.where(mean > 0.0, 1e-9 * mean, 1.0)[:, None, None] * np.eye(n)
    return q, -mu if mv else np.zeros(mu.shape)


@settings(max_examples=150, deadline=None)
@given(qp_stacks())
# n * lb = 1, so (0.5, 0.5) is the only feasible point. Clamping asset 1 left
# asset 0's solution 6e-17 below its bound, which must count as a tie, as in
# the ratio test, for the reference's active set.
@example(
    (
        StrategySpec("MVS", gamma=1.0, lower_bound=0.5),
        np.array(
            [[[2.4856229956794524, 1.7370054886957351], [1.7370054886957351, 3.4961044107573476]]]
        ),
        np.array([[0.0, -0.0]]),
    )
)
def test_batch_follows_reference_path(problem):
    spec, sigma, mu = problem
    q, c = objective_terms(spec, sigma, mu)
    w, _, pi, active, failures = lockstep(q, c, spec.lower_bound)
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


@st.composite
def strategy_stacks(draw):
    """Several strategies on one stack of P problems: (specs, sigma, mu).

    Kinds, bounds and gamma are mixed. Gamma 2 gives MVS and MVSC the Q of
    MIN and MINC, and a bound above 1/n is infeasible.
    """
    _, sigma, mu = draw(qp_stacks())
    n = sigma.shape[1]
    spec = st.builds(
        StrategySpec,
        kind=st.sampled_from(["MVS", "MVSC", "MIN", "MINC"]),
        gamma=st.sampled_from([1.0, 2.0]) | st.floats(0.5, 4.0),
        lower_bound=st.sampled_from([-0.5, 0.0]) | st.floats(-1.0, min(1.0, 1.5 / n)),
    )
    return draw(st.lists(spec, min_size=1, max_size=6)), sigma, mu


def failure_messages(failures):
    return {i: (type(err), str(err)) for i, err in failures.items()}


@settings(max_examples=100, deadline=None)
@given(strategy_stacks(), st.sampled_from([None, 1, 3, 40]))
def test_strategies_solved_together_as_alone(problem, block):
    # One call over several strategies shares Q and the budget-only solves,
    # and runs whole strategies in one lockstep; each strategy gets the
    # weights and failure map of solving it alone, bit for bit. A block of
    # `block` KKT systems (None: the package's) splits the dates into blocks
    # and the strategies into locksteps.
    specs, sigma, mu = problem
    n = sigma.shape[1]
    size = optimizer._BLOCK_KKT if block is None else block * (n + 1) ** 2
    with mock.patch.object(optimizer, "_BLOCK_KKT", size):
        together = solve_strategies(specs, sigma, mu)
    assert len(together) == len(specs)
    for spec, (w, failures) in zip(specs, together):
        w_one, failed_one = solve_strategies([spec], sigma, mu)[0]
        assert np.array_equal(w, w_one, equal_nan=True)
        assert failure_messages(failures) == failure_messages(failed_one)
        if n * spec.lower_bound > 1.0 + 1e-12:
            assert sorted(failures) == list(range(len(sigma)))
            assert all(isinstance(err, InfeasibleError) for err in failures.values())


@settings(max_examples=100, deadline=None)
@given(qp_stacks())
def test_batch_of_p_equals_p_batches_of_one(problem):
    spec, sigma, mu = problem
    w, failures = solve_strategies([spec], sigma, mu)[0]
    for i in range(len(sigma)):
        w_one, failed_one = solve_strategies([spec], sigma[i : i + 1], mu[i : i + 1])[0]
        assert np.array_equal(w[i], w_one[0], equal_nan=True)
        assert {k: str(e) for k, e in failed_one.items()} == (
            {0: str(failures[i])} if i in failures else {}
        )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 8),
    n=st.integers(1, 8),
    lb=st.sampled_from([-0.5, 0.0]),
)
def test_ratio_test_matches_scalar_scan(seed, rows, n, lb):
    # Ratios a few ulps apart, weights at or just below the floor, and rising
    # or pinned assets exercise the 1e-15 tie rule and the clamp at 0: rows
    # with near-ties or negative ratios take the scan. Rows whose ratios are
    # spread out take the argmin, and one call mixes both kinds.
    rng = np.random.default_rng(seed)
    ulps = rng.integers(-8, 9, (rows, n))
    ratio = rng.uniform(0.05, 1.5, (rows, 1)) * (1.0 + np.finfo(float).eps * ulps)
    spread = rng.random(rows) < 0.5
    ratio[spread] = rng.uniform(0.05, 1.5, (spread.sum(), n))
    w = lb + rng.choice([0.0, -1e-17, 0.3], size=(rows, n)) * rng.uniform(0.5, 1.0, (rows, n))
    step = np.where(w > lb, (lb - w) / ratio, -rng.uniform(0.1, 1.0, (rows, n)))
    step *= rng.choice([1.0, 1.0, -1.0], size=(rows, n))
    free = rng.random((rows, n)) < 0.8
    alpha, block = _ratio_test(w, step, free, lb)
    for r in range(rows):
        want_alpha, want_block = reference_ratio_test(w[r], step[r], free[r], lb)
        assert block[r] == want_block
        assert np.array_equal(alpha[r], want_alpha)


def test_ratio_test_scans_rows_where_argmin_differs():
    # With lb = 0 and step = -1 every falling asset's ratio is its weight.
    # Rows 1-3 are those where the first argmin is not the scan's answer: a
    # negative minimum, a ratio 5e-16 above the minimum ahead of it, and an
    # exact tie. The others take the argmin: a plain minimum, a minimum above
    # 1 - 1e-15, no falling asset, and a negative ratio on a pinned asset.
    w = np.array([
        [0.5, 0.3, 0.7],
        [-2e-3, -1e-3, 0.5],
        [0.3 + 5e-16, 0.3, 0.9],
        [0.4, 0.4, 0.1],
        [1.5, 1.0 - 1e-16, 2.0],
        [0.2, 0.1, 0.3],
        [-0.2, 0.6, 0.4],
    ])
    step = np.full(w.shape, -1.0)
    step[5] = 1.0
    free = np.ones(w.shape, dtype=bool)
    free[3, 2] = free[6, 0] = False
    alpha, block = _ratio_test(w, step, free, 0.0)
    assert block.tolist() == [1, 1, 0, 0, -1, -1, 2]
    assert alpha.tolist() == [0.3, 0.0, 0.3 + 5e-16, 0.4, 1.0, 1.0, 0.4]
    first = np.argmin(np.where(free & (step < 0.0), w, np.inf), axis=1)
    assert first[1:3].tolist() == [0, 1]
    for r in range(len(w)):
        want_alpha, want_block = reference_ratio_test(w[r], step[r], free[r], 0.0)
        assert block[r] == want_block
        assert np.array_equal(alpha[r], want_alpha)


@pytest.mark.parametrize(
    "pattern", ["none", "one", "two_adjacent", "two_apart", "dense", "all", "random"]
)
def test_solve_gives_each_system_what_it_gets_alone(rng, pattern):
    # Singular systems make the stacked solve raise, and the systems are then
    # solved one at a time: each result and flag is that of a call on the
    # system alone, and a singular system's row is NaN.
    p, n = 1000, 4
    a = rng.standard_normal((p, n, n))
    kkt = a @ a.transpose(0, 2, 1) + n * np.eye(n)
    bad = {
        "none": [],
        "one": [617],
        "two_adjacent": [300, 301],
        "two_apart": [3, 998],
        "dense": list(range(100, 400)),
        "all": list(range(p)),
        "random": np.flatnonzero(rng.random(p) < 0.02).tolist(),
    }[pattern]
    kkt[bad] = 0.0
    rhs = rng.standard_normal((p, n, 1))
    out, failed = optimizer._solve(kkt, rhs)
    assert out.shape == rhs.shape
    assert np.flatnonzero(failed).tolist() == sorted(bad)
    for i in range(p):
        if failed[i]:
            assert np.isnan(out[i]).all()
        else:
            assert np.array_equal(out[i], np.linalg.solve(kkt[i], rhs[i]))


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
    w, _, _, active, failures = lockstep(q, c, lb)
    assert not failures
    for i in range(p):
        w_ref, _, _, active_ref = reference_active_set_qp(q[i], c[i], lb)
        assert np.array_equal(w[i], w_ref)
        assert np.array_equal(active[i], active_ref)


def test_batch_across_chunks_matches_single_solves(rng, monkeypatch):
    # A budget of 32 problems (and a remainder) of (n + 1)^2 elements: the
    # batch runs as three locksteps, the last of them one problem.
    p, n = 65, 5
    monkeypatch.setattr(optimizer, "_BLOCK_KKT", 32 * (n + 1) ** 2 + 35)
    runs = []
    run = optimizer._active_set_qp

    def recorded(q, qi, c, lb, start):
        runs.append(len(c))
        return run(q, qi, c, lb, start)

    monkeypatch.setattr(optimizer, "_active_set_qp", recorded)
    a = rng.standard_normal((p, n, n))
    sigma = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(n)
    mu = 0.3 * rng.standard_normal((p, n))
    spec = StrategySpec("MVSC")
    singles = np.concatenate(
        [solve_strategies([spec], sigma[i : i + 1], mu[i : i + 1])[0][0] for i in range(p)]
    )
    runs.clear()
    w, failures = solve_strategies([spec], sigma, mu)[0]
    assert runs == [32, 32, 1]
    assert not failures
    assert np.array_equal(w, singles)

    # A failure keeps the index of its problem in the whole batch.
    verify = optimizer._verify_kkt

    def strict(w, lam, pi, q, c, lb, failures):
        verify(w, lam, pi, q, c, lb, failures)
        for i in np.flatnonzero(w[:, 0] > 0.3):
            failures.setdefault(int(i), SolverError("rejected"))

    monkeypatch.setattr(optimizer, "_verify_kkt", strict)
    w, failures = solve_strategies([spec], sigma, mu)[0]
    rejected = singles[:, 0] > 0.3
    assert 0 < rejected.sum() < p
    assert sorted(failures) == np.flatnonzero(rejected).tolist()
    assert np.all(np.isnan(w[rejected]))
    assert np.array_equal(w[~rejected], singles[~rejected])


def wide_window(n_dates=343, n=24):
    """(sigma, mu) of a strategy-window of the global_wide benchmark: 343
    dates of 24 Clayton assets, window 120, in decimal returns."""
    x = synth_panel(months=n_dates + 120, n_assets=n, model="clayton", seed=3).returns
    windows = np.lib.stride_tricks.sliding_window_view(x, 120, axis=0)[:n_dates]
    windows = windows.transpose(0, 2, 1)
    centred = windows - windows.mean(axis=1, keepdims=True)
    sigma = (centred.transpose(0, 2, 1) @ centred) / 119.0 / 1e4
    return sigma, windows.mean(axis=1) / 100.0


@pytest.mark.parametrize("kind", ["MVSC", "MIN"])
def test_window_of_wide_problems_matches_reference(kind):
    # A strategy-window of the global_wide benchmark: 343 dates of 24 Clayton
    # assets, window 120, solved as one lockstep. MVSC's budget-only optimum
    # breaks bounds on every date, and MIN's on none. Both follow the
    # reference's clamped path bit for bit, and reach the active set and,
    # within 1e-14, the weights of the path from equal weights.
    sigma, mu = wide_window()
    n_dates, n = mu.shape
    assert optimizer._BLOCK_KKT // (n + 1) ** 2 >= n_dates
    spec = StrategySpec(kind)
    w, failures = solve_strategies([spec], sigma, mu)[0]
    assert not failures
    q, c = objective_terms(spec, sigma, mu)
    broken = (budget_only_optimum(q, c) < spec.lower_bound).any(axis=1)
    assert broken.all() if kind == "MVSC" else not broken.any()
    active = lockstep(q, c, spec.lower_bound)[3]
    for i in range(n_dates):
        w_ref, _, _, active_ref = reference_active_set_qp(q[i], c[i], spec.lower_bound)
        assert np.array_equal(active[i], active_ref)
        assert np.array_equal(w[i], w_ref)
        w_ew, _, _, active_ew = reference_active_set_qp(q[i], c[i], spec.lower_bound, clamp=False)
        assert np.array_equal(active[i], active_ew)
        assert np.max(np.abs(w[i] - w_ew)) <= 1e-14


@pytest.mark.parametrize("kinds", ["MVS", "MVSC", "MIN", "MINC", "MVS,MVSC,MIN,MINC"])
def test_no_kkt_system_is_solved_twice(kinds, monkeypatch):
    # After a full step the free set and w_A are unchanged, so the next
    # iteration's system would be the one just solved: the problem settles
    # in the same iteration instead. On the wide window no (free set, w_A)
    # of a problem, hence no KKT system, is solved twice, and strategies
    # with the same (Q, c) share their budget-only solve.
    sigma, mu = wide_window()
    specs = [StrategySpec(kind) for kind in kinds.split(",")]
    solved = []
    solve = optimizer._solve

    def recorded(kkt, rhs):
        solved.extend(a.tobytes() + b.tobytes() for a, b in zip(kkt, rhs))
        return solve(kkt, rhs)

    monkeypatch.setattr(optimizer, "_solve", recorded)
    for w, failures in solve_strategies(specs, sigma, mu):
        assert not failures
    assert len(solved) >= len(mu)
    assert len(set(solved)) == len(solved)


def enumerated_optimum(q, c, lb):
    """Every (w, active set) whose KKT point is feasible with multipliers >= 0.

    Each active set A pins w_A at lb; the free weights and the budget
    multiplier solve the equality-constrained KKT system on the rest. Where Q
    is positive definite the optimum is unique, so every point kept is it (a
    degenerate optimum, a weight at lb with a zero multiplier, is kept under
    more than one set).
    """
    n = len(c)
    kept = []
    for n_active in range(n):
        for pinned in itertools.combinations(range(n), n_active):
            active = np.zeros(n, dtype=bool)
            active[list(pinned)] = True
            free = ~active
            k = int(free.sum())
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = q[np.ix_(free, free)]
            kkt[:k, k] = -1.0
            kkt[k, :k] = 1.0
            rhs = np.append(-c[free] - lb * q[np.ix_(free, active)].sum(axis=1), 1.0 - lb * n_active)
            sol = np.linalg.solve(kkt, rhs)
            w = np.full(n, lb)
            w[free] = sol[:k]
            mult = (q @ w + c - sol[k])[active]
            if np.all(w[free] >= lb - 1e-12) and np.all(mult >= -1e-12):
                kept.append((w, active))
    return kept


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 7),
    p=st.integers(1, 4),
    floor=st.sampled_from(["short", "long", "random"]),
    kind=st.sampled_from(["MVS", "MVSC", "MIN", "MINC"]),
    data=st.data(),
)
def test_matches_active_set_enumeration(n, p, floor, kind, data):
    # Well-conditioned problems only (smallest eigenvalue of Q far above
    # KKT_TOL), where the optimum and, away from degeneracy, its active set
    # are unique. Means up to 10x the covariance's scale push the budget-only
    # optimum across many bounds, and the clamped start pins many of them.
    if floor == "random":
        lb = data.draw(st.floats(-1.0, 1.0 / n, allow_nan=False, exclude_max=True))
    else:
        lb = -0.5 if floor == "short" else 0.0
    scale = 10.0 ** data.draw(st.integers(-4, 2))
    ridge = data.draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # Factors of unequal size make minimum-variance weights go short.
    a = rng.standard_normal((p, n, n)) * 10.0 ** rng.uniform(-1.0, 1.0, (p, 1, n))
    sigma = scale * ((a @ a.transpose(0, 2, 1)) / n + ridge * np.eye(n))
    mu = scale * rng.standard_normal((p, n)) * data.draw(st.floats(0.0, 10.0))
    spec = StrategySpec(kind, gamma=data.draw(st.floats(0.5, 4.0)), lower_bound=lb)
    q, c = objective_terms(spec, sigma, mu)
    assert np.all(np.linalg.eigvalsh(q)[:, 0] >= KKT_TOL)
    w, failures = solve_strategies([spec], sigma, mu)[0]
    assert not failures
    active = lockstep(q, c, lb)[3]
    for i in range(p):
        kept = enumerated_optimum(q[i], c[i], lb)
        assert kept
        assert np.max(np.abs(w[i] - kept[0][0])) <= 1e-10
        assert any(np.array_equal(active[i], want) for _, want in kept)


def budget_only_optimum(q, c):
    """Each problem's minimizer under the budget constraint alone."""
    p, n = c.shape
    kkt = np.zeros((p, n + 1, n + 1))
    kkt[:, :n, :n] = q
    kkt[:, :n, n] = -1.0
    kkt[:, n, :n] = 1.0
    rhs = np.append(-c, np.ones((p, 1)), axis=1)
    return np.linalg.solve(kkt, rhs[:, :, None])[:, :n, 0]


@pytest.mark.parametrize(
    "kind, v",
    [
        # Two copies of one asset: the budget-only optimum breaks 1 of 3
        # bounds.
        ("MVS", [2.37e-5, 2.37e-5, 4.48e-5]),
        # This one breaks 2 of 4. The vertex (1, 0, 0, 0) also passes
        # KKT_TOL, and differs from the optimum in the ridge term alone, so
        # a start that stopped there would move the weights by 0.5.
        ("MVSC", [1e-6, 1e-6, 1.156e-5, 1.681e-5]),
    ],
)
def test_rank_one_covariance_is_path_independent(kind, v):
    # Sigma = v v' exactly (v is the square root of its diagonal), so the
    # smallest eigenvalue of Q is the ridge, far below KKT_TOL. The clamped
    # start and the path from equal weights return the same weights.
    root = np.sqrt(np.array(v))
    sigma = np.outer(root, root)[None]
    mu = np.zeros((1, len(v)))
    spec = StrategySpec(kind, gamma=1.0)
    q, c = objective_terms(spec, sigma, mu)
    assert np.linalg.eigvalsh(q[0])[0] < KKT_TOL
    broken = (budget_only_optimum(q, c) < spec.lower_bound).sum()
    assert broken == (1 if kind == "MVS" else 2)
    w, failures = solve_strategies([spec], sigma, mu)[0]
    assert not failures
    assert np.array_equal(w[0], reference_active_set_qp(q[0], c[0], spec.lower_bound)[0])
    w_ew = reference_active_set_qp(q[0], c[0], spec.lower_bound, clamp=False)[0]
    assert np.max(np.abs(w[0] - w_ew)) <= 1e-14


def tail_wide_local_stack(seed, labels):
    """(specs, sigma, means) of the local stack of the tail_wide benchmark at
    panel seed `seed`: 12 Clayton assets, window 120, a 5% percentile grid,
    every date PD-repaired to a smallest eigenvalue near 1e-12."""
    panel = synth_panel(months=140, n_assets=12, model="clayton", seed=seed)
    specs = [StrategySpec.from_label(label) for label in labels]
    config = BacktestConfig(window=120, strategies=specs, grid_method="percentile")
    means, covariances, diagnostics = _estimate(panel.returns, config, {"local"})
    sigma, errors = covariances["local"]
    assert not errors and all(d["local_pd_repaired"] for d in diagnostics)
    return specs, sigma, means


def test_repaired_tail_stack_follows_reference_path():
    # Solved alone or with the other strategies, each problem of a repaired
    # stack follows the reference's clamped path bit for bit.
    specs, sigma, means = tail_wide_local_stack(5, ("MIN-L", "MVS-L"))
    together = solve_strategies(specs, sigma, means)
    for spec, (w_all, failed_all) in zip(specs, together):
        w, failures = solve_strategies([spec], sigma, means)[0]
        assert not failures and not failed_all
        assert np.array_equal(w, w_all)
        q, c = objective_terms(spec, sigma, means)
        for i in range(len(sigma)):
            assert np.array_equal(w[i], reference_active_set_qp(q[i], c[i], spec.lower_bound)[0])


@pytest.mark.parametrize("seed", [2, 5])
def test_repaired_tail_stack_is_path_independent(seed):
    # On the benchmark's repaired stacks, the clamped start returns the
    # weights of the path from equal weights to 1e-14. With an absolute
    # 1e-12 ridge in Q, seed 2's MIN-L weights differed between the two
    # paths by 0.47.
    specs, sigma, means = tail_wide_local_stack(seed, ("MVS-L", "MVSC-L", "MIN-L", "MINC-L"))
    for spec, (w, failures) in zip(specs, solve_strategies(specs, sigma, means)):
        assert not failures
        q, c = objective_terms(spec, sigma, means)
        for i in range(len(sigma)):
            w_ew = reference_active_set_qp(q[i], c[i], spec.lower_bound, clamp=False)[0]
            assert np.max(np.abs(w[i] - w_ew)) <= 1e-14


def test_mixed_stack_solves_each_problem_as_alone(rng):
    # Long-only mean-variance problems whose budget-only optimum breaks most
    # bounds: a full-rank half, and a rank-two half whose smallest eigenvalue
    # is the ridge. Each problem gets its weights alone, follows the
    # reference's clamped path bit for bit, and reaches the active set and,
    # within 1e-14, the weights of the path from equal weights.
    p, n = 12, 8
    full = np.arange(p) % 2 == 0
    a = rng.standard_normal((p, n, n))
    a[~full, :, 2:] = 0.0
    sigma = 1e-3 * (a @ a.transpose(0, 2, 1)) / n
    sigma[full] += 1e-4 * np.eye(n)
    mu = 3e-3 * rng.standard_normal((p, n))
    spec = StrategySpec("MVSC")
    q, c = objective_terms(spec, sigma, mu)
    assert np.all(np.linalg.eigvalsh(q[~full])[:, 0] < KKT_TOL)
    assert np.all(3 * (budget_only_optimum(q, c) < 0.0).sum(axis=1) > n)
    w, failures = solve_strategies([spec], sigma, mu)[0]
    assert not failures
    active = lockstep(q, c, 0.0)[3]
    for i in range(p):
        w_one = solve_strategies([spec], sigma[i : i + 1], mu[i : i + 1])[0][0]
        assert np.array_equal(w[i], w_one[0])
        w_ref, _, _, active_ref = reference_active_set_qp(q[i], c[i], 0.0)
        assert np.array_equal(w[i], w_ref)
        assert np.array_equal(active[i], active_ref)
        w_ew, _, _, active_ew = reference_active_set_qp(q[i], c[i], 0.0, clamp=False)
        assert np.array_equal(active[i], active_ew)
        assert np.max(np.abs(w[i] - w_ew)) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(qp_stacks())
def test_solutions_satisfy_kkt(problem):
    spec, sigma, mu = problem
    q, c = objective_terms(spec, sigma, mu)
    lb = spec.lower_bound
    w, failures = solve_strategies([spec], sigma, mu)[0]
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


def test_nan_kkt_residual_fails_the_problem():
    # The input is finite, but 2 * Sigma overflows, so the stationarity
    # residual is NaN; only the well-scaled problem beside it is solved.
    sigma = np.array([[[1.0, 1.7e308], [1.7e308, 1e308]], [[2.0, 0.5], [0.5, 1.0]]])
    with np.errstate(over="ignore", invalid="ignore"):
        w, failures = solve_strategies([StrategySpec("MIN")], sigma, None)[0]
    assert list(failures) == [0] and isinstance(failures[0], SolverError)
    assert "nan" in str(failures[0])
    assert np.isnan(w[0]).all()
    w_one = solve_strategies([StrategySpec("MIN")], sigma[1:], None)[0][0]
    assert np.array_equal(w[1], w_one[0])


def test_singular_date_fails_only_its_problems(rng):
    # Date 2 is Sigma = -0.5 I. At scale 2 the mean diagonal of 2 Sigma is
    # not positive, so the ridge is I and Q = 0 exactly: every KKT system of
    # that date is singular. At scale 1, Q = 0.5 I is well posed.
    p, n = 5, 3
    a = rng.standard_normal((p, n, n))
    sigma = a @ a.transpose(0, 2, 1) + n * np.eye(n)
    sigma[2] = -0.5 * np.eye(n)
    mu = rng.standard_normal((p, n))
    specs = [
        StrategySpec("MIN"),
        StrategySpec("MINC"),
        StrategySpec("MVS", gamma=2.0),
        StrategySpec("MVSC"),
        StrategySpec("MVS", gamma=1.0),
    ]
    failed = {2: (SolverError, "singular KKT system")}
    for j, (spec, (w, failures)) in enumerate(zip(specs, solve_strategies(specs, sigma, mu))):
        singular = j < 3
        assert failure_messages(failures) == (failed if singular else {})
        assert np.isnan(w[2]).all() == singular
        for d in range(p):
            alone = solve_strategies([spec], sigma[d : d + 1], mu[d : d + 1])[0]
            assert failure_messages(alone[1]) == ({0: failed[2]} if singular and d == 2 else {})
            assert np.array_equal(w[d], alone[0][0], equal_nan=True)
    with pytest.raises(SolverError, match="singular KKT system"):
        solve_minvar(-0.5 * np.eye(n), StrategySpec("MIN"))


@pytest.mark.filterwarnings("error")
def test_zero_assets_are_rejected():
    specs = [StrategySpec("MIN"), StrategySpec("MVSC")]
    with pytest.raises(ValueError, match="at least one asset"):
        solve_strategies(specs, np.zeros((2, 0, 0)), np.zeros((2, 0)))
    with pytest.raises(ValueError, match="at least one asset"):
        solve_minvar(np.zeros((0, 0)), StrategySpec("MIN"))


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
