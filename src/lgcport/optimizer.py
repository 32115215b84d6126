"""Portfolio weight solvers: mean-variance and minimum-variance with bounds.

Both problems are convex QPs over the budget constraint sum(w) = 1 with a
common lower bound per asset. They are solved by a primal active-set
method on the (ridge-regularized) KKT system and the result is verified
against the KKT conditions before it is returned. `solve_batch` solves a
stack of problems in lockstep; `solve_mv` and `solve_minvar` are its
one-problem case, and a batch of P gives bit for bit P single solves.

Every problem starts at equal weights with all assets free. A problem whose
budget-only optimum breaks more than n/3 of the bounds, and whose Q has its
smallest eigenvalue at or above KKT_TOL, then restarts at its best vertex
(every weight at lb but one), which is close to an optimum where most bounds
bind. Below that curvature two different points can both pass the KKT_TOL
check, so the start could change which one is returned; those problems keep
the path from equal weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleError, SolverError

STRATEGY_KINDS = ("EW", "MVS", "MVSC", "MIN", "MINC")
COVARIANCE_SOURCES = ("global", "local")

# Short-sale floor for unconstrained kinds, long-only floor otherwise.
DEFAULT_LOWER_BOUND = {"MVS": -0.5, "MIN": -0.5, "MVSC": 0.0, "MINC": 0.0, "EW": 0.0}

KKT_TOL = 1e-8
_RIDGE = 1e-12
# Elements per working array of one lockstep run of solve_batch, at
# (n + 1)^2 per problem (one KKT system): the run's few (problems, n + 1,
# n + 1) arrays stay near 2 MB each, however many dates a window has. A
# window of 343 dates is one lockstep up to n = 26.
_BLOCK_KKT = 2**18
# Elements per stacked Cholesky of the vertex-start guard, at n^2 per
# problem: its shifted copies of Q stay near 128 kB (28 problems at n = 24).
_BLOCK_GUARD = 2**14


@dataclass(frozen=True)
class StrategySpec:
    """One portfolio rule: optimizer kind, covariance source, and bounds."""

    kind: str
    covariance_source: str = "global"
    gamma: float = 1.0
    lower_bound: Optional[float] = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError("kind must be one of %r, got %r" % (STRATEGY_KINDS, self.kind))
        if self.covariance_source not in COVARIANCE_SOURCES:
            raise ValueError(
                "covariance_source must be one of %r, got %r"
                % (COVARIANCE_SOURCES, self.covariance_source)
            )
        if not 0.0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite, got %r" % (self.gamma,))
        if self.lower_bound is None:
            object.__setattr__(self, "lower_bound", DEFAULT_LOWER_BOUND[self.kind])
        if not np.isfinite(self.lower_bound):
            raise ValueError("lower bound must be finite, got %r" % (self.lower_bound,))
        if self.lower_bound > 1.0:
            raise ValueError("lower bound above 1 is infeasible")

    @property
    def label(self) -> str:
        if self.kind == "EW" or self.covariance_source == "global":
            return self.kind
        return self.kind + "-L"

    @classmethod
    def from_label(cls, label: str, **options) -> "StrategySpec":
        """Parse labels like 'MVS' (global covariance) or 'MINC-L' (local)."""
        name = label.strip().upper()
        local = name.endswith("-L")
        kind = name[:-2] if local else name
        if kind not in STRATEGY_KINDS or (local and kind == "EW"):
            raise ValueError("unknown strategy label %r" % label)
        return cls(kind=kind, covariance_source="local" if local else "global", **options)


def equal_weights(n_assets: int) -> np.ndarray:
    if n_assets < 1:
        raise ValueError("need at least one asset")
    return np.full(n_assets, 1.0 / n_assets)


def _check_inputs(sigma, mu, lower_bound):
    """Validate a (P, n, n) covariance stack and, if given, a (P, n) mean stack."""
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ValueError("covariance stack must have shape (P, n, n), got %r" % (s.shape,))
    n = s.shape[2]
    if not np.all(np.isfinite(s)):
        raise ValueError("covariance contains non-finite values")
    if mu is not None:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != s.shape[:2] or not np.all(np.isfinite(mu)):
            raise ValueError("mean vectors must be finite with shape %r" % (s.shape[:2],))
    if n * lower_bound > 1.0 + 1e-12:
        raise InfeasibleError(
            "lower bound %g infeasible for %d assets" % (lower_bound, n)
        )
    return s, mu, n


def _stacked(lapack, *stacks):
    """`lapack` (np.linalg.solve, say) over stacks of problems, and the (P,)
    flags of the problems it fails on.

    If the stacked call raises LinAlgError, it is repeated one problem at a
    time: a failed problem is flagged and its result is NaN, in an array of
    the last stack's shape.
    """
    failed = np.zeros(len(stacks[0]), dtype=bool)
    try:
        return lapack(*stacks), failed
    except np.linalg.LinAlgError:
        out = np.full(stacks[-1].shape, np.nan)
        for i, problem in enumerate(zip(*stacks)):
            try:
                out[i] = lapack(*problem)
            except np.linalg.LinAlgError:
                failed[i] = True
        return out, failed


def _ratio_test(w, step, free, lb):
    """Per row, the step length in [0, 1] and the first bound that blocks (or -1).

    The rule is a scan in index order in which a later asset blocks only when
    its ratio is below the current step by more than 1e-15, so ties go to the
    lowest index. Where the smallest ratio is nonnegative and no other lies
    within 1e-15 of it, the scan ends at the first argmin, so only the other
    rows are scanned.
    """
    falling = free & (step < 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(falling, (lb - w) / step, np.inf)
    block = np.argmin(ratio, axis=1)
    least = ratio[np.arange(len(w)), block]
    hit = least < 1.0 - 1e-15
    alpha = np.where(hit, least, 1.0)
    block[~hit] = -1
    near = (falling & (ratio - 1e-15 <= least[:, None])).sum(axis=1)
    rows = np.flatnonzero(~(least >= 0.0) | (near > 1))
    if rows.size:
        scanned, a, b = ratio[rows], np.ones(rows.size), np.full(rows.size, -1)
        # Assets that do not fall have ratio inf and never block.
        for i in range(ratio.shape[1]):
            r = scanned[:, i]
            take = r < a - 1e-15
            a = np.where(take, np.where(r < 0.0, 0.0, r), a)
            b[take] = i
        alpha[rows], block[rows] = a, b
    return alpha, block


def _curved(q, rows):
    """The `rows` of the stack `q` whose smallest eigenvalue is at least KKT_TOL.

    The test is a Cholesky of Q - KKT_TOL*I, stacked over blocks of
    _BLOCK_GUARD elements (see _stacked).
    """
    n = q.shape[1]
    shift = KKT_TOL * np.eye(n)
    per_block = max(1, _BLOCK_GUARD // (n * n))
    keep = np.ones(rows.size, dtype=bool)
    for lo in range(0, rows.size, per_block):
        _, failed = _stacked(np.linalg.cholesky, q[rows[lo : lo + per_block]] - shift)
        keep[lo : lo + per_block] = ~failed
    return rows[keep]


def _vertex_starts(q, c, lb, w0):
    """The problems that restart at their best vertex, and that vertex's free asset.

    `w0` is each problem's budget-only optimum. A problem restarts when w0
    breaks more than n/3 of the bounds and the smallest eigenvalue of Q is at
    least KKT_TOL. Its best vertex puts every weight at lb except one asset
    j, which takes 1 - (n - 1)*lb = lb + t with t = 1 - n*lb. Up to a
    constant, the objective there is lb*t*(Q1)_j + t^2/2*Q_jj + t*c_j, and j
    is its argmin (ties to the lowest index).
    """
    n = q.shape[1]
    rows = _curved(q, np.flatnonzero(3 * (w0 < lb).sum(axis=1) > n))
    t = 1.0 - n * lb
    diag = np.diagonal(q, axis1=1, axis2=2)[rows]
    cost = lb * t * q.sum(axis=2)[rows] + 0.5 * t * t * diag + t * c[rows]
    return rows, np.argmin(cost, axis=1)


def _active_set_qp(q, c, lb):
    """Minimize 0.5 w'Qw + c'w subject to sum(w) = 1 and w >= lb, P times.

    `q` is a (P, n, n) stack of symmetric positive definite matrices (the
    caller adds a tiny ridge so ties resolve to the minimum-norm point) and
    `c` is (P, n). Every problem runs the primal active-set method from
    w = 1/n, in lockstep: each iteration groups the live problems by free-set
    size k and solves their (k+1) x (k+1) reduced KKT systems in one stacked
    call, so each problem takes the same iterate path and the same LAPACK call
    it would take alone. Deterministic: ties break at the lowest index.

    The first iteration's all-free solve gives each problem's budget-only
    optimum w0. A problem restarts at its best vertex (`_vertex_starts`)
    when w0 breaks more than n/3 of the bounds and the smallest eigenvalue of
    Q is at least KKT_TOL. Where most bounds bind at the optimum, that start
    is a few releases from it, in place of one iteration per bound from the
    centre. The guard uses KKT_TOL because below that curvature the optimum
    is flat to within the tolerance `_verify_kkt` applies: two points with
    different active sets can both pass it, and the start would pick between
    them. Every other problem keeps the path from w = 1/n bit for bit.

    Returns (w, budget multipliers, bound multipliers, active sets, failures);
    `failures` maps the index of each problem that failed to its SolverError.
    """
    p, n = c.shape
    w = np.full((p, n), 1.0 / n)
    active = np.zeros((p, n), dtype=bool)
    lam = np.zeros(p)
    pi = np.zeros((p, n))
    failures = {}
    live = np.arange(p)

    for it in range(60 * (n + 1)):
        if not live.size:
            break
        free = ~active[live]
        k = free.sum(axis=1)
        step = np.zeros((live.size, n))
        singular = np.zeros(live.size, dtype=bool)
        for size in np.unique(k[k > 0]):
            # Stationarity rows solve Q_FF w_F - lam = -c_F - Q_FA w_A, so the
            # recovered lam satisfies grad = lam + pi directly.
            rows = np.flatnonzero(k == size)
            idx = live[rows]
            fi = np.nonzero(free[rows])[1].reshape(rows.size, size)
            ai = np.nonzero(~free[rows])[1].reshape(rows.size, n - size)
            kkt = np.zeros((rows.size, size + 1, size + 1))
            kkt[:, :size, :size] = q[idx[:, None, None], fi[:, :, None], fi[:, None, :]]
            kkt[:, :size, size] = -1.0
            kkt[:, size, :size] = 1.0
            q_fa = q[idx[:, None, None], fi[:, :, None], ai[:, None, :]]
            rhs = np.empty((rows.size, size + 1, 1))
            rhs[:, :size, 0] = -c[idx[:, None], fi] - (q_fa @ w[idx[:, None], ai, None])[:, :, 0]
            rhs[:, size, 0] = 1.0 - lb * float(n - size)
            sol, singular[rows] = _stacked(np.linalg.solve, kkt, rhs)
            step[rows[:, None], fi] = sol[:, :size, 0] - w[idx[:, None], fi]
            lam[idx] = sol[:, size, 0]
        for i in live[singular]:
            failures[int(i)] = SolverError("singular KKT system")
        if it == 0:
            # Every problem is live and all-free here, so w + step is its
            # budget-only optimum (NaN, never below lb, where singular). A
            # restarted problem sits at its vertex with step 0, and lam is
            # the one free asset's gradient, as its 1-free KKT solve would
            # give: it goes straight to the release rule below.
            rows, j = _vertex_starts(q, c, lb, w + step)
            w[rows] = lb
            w[rows, j] = 1.0 - lb * float(n - 1)
            active[rows] = True
            active[rows, j] = False
            step[rows] = 0.0
            lam[rows] = np.einsum("pi,pi->p", q[rows, j], w[rows]) + c[rows, j]

        moving = ~singular & (np.max(np.abs(step), axis=1) > 1e-13)
        if moving.any():
            # Walk toward the equality-constrained optimum, stopping at the
            # first bound that blocks.
            idx = live[moving]
            alpha, block = _ratio_test(w[idx], step[moving], free[moving], lb)
            w[idx] = w[idx] + alpha[:, None] * step[moving]
            hit = block >= 0
            w[idx[hit], block[hit]] = lb
            active[idx[hit], block[hit]] = True

        settled = np.flatnonzero(~singular & ~moving)
        finished = np.zeros(live.size, dtype=bool)
        if settled.size:
            idx = live[settled]
            grad = (q[idx] @ w[idx, :, None])[:, :, 0] + c[idx]
            # Everything pinned: only feasible when n*lb == 1.
            pinned = k[settled] == 0
            lam[idx[pinned]] = grad[pinned].min(axis=1)
            act = active[idx]
            mult = np.where(act, grad - lam[idx, None], 0.0)
            worst = np.argmin(np.where(act, mult, np.inf), axis=1)
            release = act.any(axis=1) & (mult[np.arange(idx.size), worst] < -1e-11)
            active[idx[release], worst[release]] = False
            done = ~release
            pi[idx[done]] = np.where(act[done], np.clip(mult[done], 0.0, None), 0.0)
            finished[settled[done]] = True
        live = live[~(finished | singular)]

    for i in live:
        failures[int(i)] = SolverError("active-set iteration limit reached")
    return w, lam, pi, active, failures


def _verify_kkt(w, lam, pi, q, c, lb, failures):
    """Record a SolverError in `failures` for each KKT residual that is not
    at most KKT_TOL, NaN included."""
    station = (q @ w[:, :, None])[:, :, 0] + c - lam[:, None] - pi
    terms = (
        np.max(np.abs(station), axis=1),
        np.abs(w.sum(axis=1) - 1.0),
        np.max(lb - w, axis=1, initial=0.0),
        np.max(np.abs(pi * (w - lb)), axis=1, initial=0.0),
    )
    residual = terms[0]
    for term in terms[1:]:
        # The running maximum of Python's max(): a NaN first term stays NaN.
        residual = np.where(term > residual, term, residual)
    for i in np.flatnonzero(~(residual <= KKT_TOL)):
        failures.setdefault(
            int(i), SolverError("KKT residual %.3e exceeds %.0e" % (residual[i], KKT_TOL))
        )


def solve_batch(spec: StrategySpec, sigma, mu=None):
    """Solve one strategy's weight problem for a stack of P inputs at once.

    `sigma` is a (P, n, n) covariance stack and `mu` a (P, n) stack of mean
    vectors, required for MVS/MVSC and unused by MIN/MINC. Each problem gets
    exactly the weights it would get alone: a batch of P is bit-for-bit P
    batches of one.

    Returns (weights, failures): weights is (P, n) with NaN rows for failed
    problems, and failures maps each failed problem's index to its
    SolverError. Malformed input raises ValueError and an infeasible lower
    bound raises InfeasibleError, for the whole batch.
    """
    if spec.kind in ("MVS", "MVSC"):
        if mu is None:
            raise ValueError("%s weights need mean vectors" % spec.kind)
        s, mu, n = _check_inputs(sigma, mu, spec.lower_bound)
        scale, c = spec.gamma, -mu
    elif spec.kind in ("MIN", "MINC"):
        s, _, n = _check_inputs(sigma, None, spec.lower_bound)
        scale, c = 2.0, np.zeros(s.shape[:2])
    else:
        raise ValueError("solve_batch expects an optimized strategy, got %r" % spec.kind)
    w = np.empty(c.shape)
    failures = {}
    ridge = _RIDGE * np.eye(n)
    per_run = max(1, _BLOCK_KKT // (n + 1) ** 2)
    for lo in range(0, len(s), per_run):
        part = slice(lo, lo + per_run)
        q = scale * s[part]
        q += ridge
        w[part], lam, pi, _, failed = _active_set_qp(q, c[part], spec.lower_bound)
        _verify_kkt(w[part], lam, pi, q, c[part], spec.lower_bound, failed)
        failures.update((lo + i, err) for i, err in failed.items())
    w[list(failures)] = np.nan
    return w, failures


def _solve_one(spec: StrategySpec, sigma, mu) -> np.ndarray:
    s = np.asarray(getattr(sigma, "matrix", sigma), dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("covariance must be square, got shape %r" % (s.shape,))
    mus = None if mu is None else np.reshape(np.asarray(mu, dtype=float), (1, -1))
    w, failures = solve_batch(spec, s[None], mus)
    if failures:
        raise failures[0]
    return w[0]


def solve_mv(mu, sigma, spec: StrategySpec) -> np.ndarray:
    """Maximize w'mu - (gamma/2) w'Sigma w over the bounded budget set.

    `mu` and `sigma` must share units (decimal returns in the backtest).
    `sigma` may be a LocalCovMatrix or a plain array.
    """
    if spec.kind not in ("MVS", "MVSC"):
        raise ValueError("solve_mv expects an MVS or MVSC spec, got %r" % spec.kind)
    return _solve_one(spec, sigma, mu)


def solve_minvar(sigma, spec: StrategySpec) -> np.ndarray:
    """Minimize w'Sigma w over the bounded budget set."""
    if spec.kind not in ("MIN", "MINC"):
        raise ValueError("solve_minvar expects a MIN or MINC spec, got %r" % spec.kind)
    return _solve_one(spec, sigma, None)
