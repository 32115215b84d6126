"""Portfolio weight solvers: mean-variance and minimum-variance with bounds.

Both problems are convex QPs over the budget constraint sum(w) = 1 with a
common lower bound per asset. They are solved by a primal active-set
method on the (ridge-regularized) KKT system and the result is verified
against the KKT conditions before it is returned. `solve_batch` solves a
stack of problems in lockstep; `solve_mv` and `solve_minvar` are its
one-problem case.
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
# Most problems solve_batch hands to one lockstep run: bounds its working
# memory to a few (_CHUNK, n + 1, n + 1) arrays, however many dates a
# window has.
_CHUNK = 64


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
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive, got %r" % (self.gamma,))
        if self.lower_bound is None:
            object.__setattr__(self, "lower_bound", DEFAULT_LOWER_BOUND[self.kind])
        if self.lower_bound > 1.0:
            raise ValueError("lower bound above 1 is infeasible")

    @property
    def label(self) -> str:
        if self.kind == "EW" or self.covariance_source == "global":
            return self.kind
        return self.kind + "-L"

    @classmethod
    def from_label(cls, label: str, gamma: float = 1.0) -> "StrategySpec":
        """Parse labels like 'MVS' (global covariance) or 'MINC-L' (local)."""
        name = label.strip().upper()
        local = name.endswith("-L")
        kind = name[:-2] if local else name
        if kind not in STRATEGY_KINDS or (local and kind == "EW"):
            raise ValueError("unknown strategy label %r" % label)
        return cls(kind=kind, covariance_source="local" if local else "global", gamma=gamma)


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


def _solve_stack(kkt, rhs):
    """np.linalg.solve over a stack; singular members come back as NaN, flagged."""
    try:
        return np.linalg.solve(kkt, rhs), np.zeros(len(kkt), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        singular = np.zeros(len(kkt), dtype=bool)
        for i in range(len(kkt)):
            try:
                out[i] = np.linalg.solve(kkt[i], rhs[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return out, singular


def _ratio_test(w, step, free, lb):
    """Per row, the step length in [0, 1] and the first bound that blocks (or -1).

    Assets are scanned in index order and a later asset blocks only when its
    ratio is below the current step by more than 1e-15, so ties go to the
    lowest index.
    """
    alpha = np.ones(len(w))
    block = np.full(len(w), -1)
    falling = free & (step < 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (lb - w) / step
    for i in np.flatnonzero(falling.any(axis=0)):
        r = ratio[:, i]
        take = falling[:, i] & (r < alpha - 1e-15)
        alpha = np.where(take, np.where(r < 0.0, 0.0, r), alpha)
        block[take] = i
    return alpha, block


def _active_set_qp(q, c, lb):
    """Minimize 0.5 w'Qw + c'w subject to sum(w) = 1 and w >= lb, P times.

    `q` is a (P, n, n) stack of symmetric positive definite matrices (the
    caller adds a tiny ridge so ties resolve to the minimum-norm point) and
    `c` is (P, n). Every problem runs the primal active-set method from
    w = 1/n, in lockstep: each iteration groups the live problems by free-set
    size k and solves their (k+1) x (k+1) reduced KKT systems in one stacked
    call, so each problem takes the same iterate path and the same LAPACK call
    it would take alone. Deterministic: ties break at the lowest index.

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

    for _ in range(60 * (n + 1)):
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
            sol, singular[rows] = _solve_stack(kkt, rhs)
            step[rows[:, None], fi] = sol[:, :size, 0] - w[idx[:, None], fi]
            lam[idx] = sol[:, size, 0]
        for i in live[singular]:
            failures[int(i)] = SolverError("singular KKT system")

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
    """Record a SolverError in `failures` for each KKT residual above KKT_TOL."""
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
    for i in np.flatnonzero(residual > KKT_TOL):
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
    for lo in range(0, len(s), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        q = scale * s[part] + ridge
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
