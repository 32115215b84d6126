"""Portfolio weight solvers: mean-variance and minimum-variance with bounds.

Both problems are convex QPs over the budget constraint sum(w) = 1 with a
common lower bound per asset. They are solved by a primal active-set
method on the (ridge-regularized) KKT system and the result is verified
against the KKT conditions before it is returned. `solve_strategies`
solves the problems of several strategies over one covariance stack:
strategies with the same scale share Q, strategies with the same (Q, c)
share the budget-only solve, and as many whole strategies as fit one
block run as one lockstep. `solve_mv` and `solve_minvar` (one problem) are
its special cases, and every problem gets bit for bit the weights it would
get alone.

Q carries a ridge of 1e-9 times its mean diagonal, so even a PD-repaired
Q, flat to within KKT_TOL, has one optimum that the path to it does not
change. Every problem starts from the clamped solve: its budget-only
optimum with every broken bound pinned, re-solved until feasible. Where
most bounds bind, that is a few releases from the optimum.
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
# Q's ridge, relative to the mean diagonal of scale*Sigma. Where that is not
# positive, as for a zero Sigma, the ridge is I: MIN then gets equal weights.
_RIDGE = 1e-9
# Elements per working array of one lockstep run of solve_strategies, at
# (n + 1)^2 per problem (one KKT system): the run's few (problems, n + 1,
# n + 1) arrays stay near 2 MB each, however many dates a window has. A
# window of 343 dates is one lockstep up to n = 26, and a lockstep takes as
# many whole strategies as fit: four of 343 dates up to n = 12.
_BLOCK_KKT = 2**18


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


def _check_inputs(sigma, mu):
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
    return s, mu, n


def _attempt(lapack, stacks):
    """`lapack` over the stacks, or None if it raises LinAlgError."""
    try:
        return lapack(*stacks)
    except np.linalg.LinAlgError:
        return None


def _stacked(lapack, *stacks):
    """`lapack` (np.linalg.solve, say) over stacks of problems, and the (P,)
    flags of the problems it fails on.

    A failed problem's result is NaN, in an array of the last stack's shape.
    If the stacked call raises LinAlgError, the failures are found by halves
    (see _split). A problem's result does not depend on its stack, so every
    result and flag is the one a call on that problem alone would give.
    """
    out = _attempt(lapack, stacks)
    if out is None:
        return _split(lapack, stacks)
    return out, np.zeros(len(stacks[0]), dtype=bool)


def _split(lapack, stacks):
    """_stacked's results and flags for stacks on which `lapack` raised.

    Each half is tried. A half that raises while the other does not is split
    the same way, down to one problem, which is the failure. Where both
    halves raise, failures are dense, and the stacks go one problem at a
    time. One failure among P problems costs 2 log2(P) calls after the first,
    and no pattern costs more than P + 2 log2(P).
    """
    p = len(stacks[0])
    if p == 1:
        return np.full(stacks[-1].shape, np.nan), np.ones(1, dtype=bool)
    halves = ([s[: p // 2] for s in stacks], [s[p // 2 :] for s in stacks])
    outs = [_attempt(lapack, half) for half in halves]
    if outs[0] is None and outs[1] is None:
        parts = [_stacked(lapack, *(s[i : i + 1] for s in stacks)) for i in range(p)]
    else:
        parts = [
            _split(lapack, half) if out is None else (out, np.zeros(len(half[0]), dtype=bool))
            for out, half in zip(outs, halves)
        ]
    return np.concatenate([part[0] for part in parts]), np.concatenate([part[1] for part in parts])


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


def _kkt_systems(count, size):
    """`count` KKT systems on `size` free assets: (count, size + 1, size + 1)
    matrices, zero but for the budget row and column, and right-hand sides
    to fill."""
    kkt = np.zeros((count, size + 1, size + 1))
    kkt[:, :size, size] = -1.0
    kkt[:, size, :size] = 1.0
    return kkt, np.empty((count, size + 1, 1))


def _start(q, cs, strategies):
    """Each strategy's budget-only optimum, where its active-set run starts.

    `q` is an (S, d, n, n) stack: q[i, t] is date t's Q at the i-th scale.
    Strategy (i, k) has the Q of q[i] and the c of cs[k], a (d, n) stack.
    The budget row of the all-free KKT system is 1 whatever the lower bound,
    so its solution depends on (Q, c) alone: strategies with the same (i, k)
    share one stacked solve.

    Returns (w0, lam0, singular) over the strategies' problems in turn,
    problem j*d + t being date t of strategy j: the budget-only optimum and
    its multiplier (NaN where singular), and whether that system is singular.
    """
    n = q.shape[-1]
    solved = {}
    for i, k in strategies:
        if (i, k) not in solved:
            kkt, rhs = _kkt_systems(q.shape[1], n)
            kkt[:, :n, :n] = q[i]
            rhs[:, :n, 0] = -cs[k]
            rhs[:, n, 0] = 1.0
            solved[i, k] = _stacked(np.linalg.solve, kkt, rhs)
    sols = [solved[key] for key in strategies]
    return (
        np.concatenate([sol[:, :n, 0] for sol, _ in sols]),
        np.concatenate([sol[:, n, 0] for sol, _ in sols]),
        np.concatenate([failed for _, failed in sols]),
    )


def _active_set_qp(q, qi, c, lb, start):
    """Minimize 0.5 w'Qw + c'w subject to sum(w) = 1 and w >= lb, P times.

    Problem i has Q = q[qi[i]], a symmetric positive definite matrix (the
    caller's ridge makes it so), c[i] and lower bound lb[i]; `start` is
    `_start`'s (w0, lam0, singular) for the P problems. Every problem runs
    the primal active-set method in lockstep: each iteration groups the live
    problems by free-set size k and solves their (k+1) x (k+1) reduced KKT
    systems in one stacked call, so each problem takes the same iterate path
    and the same LAPACK call it would take alone. Deterministic: ties break
    at the lowest index.

    A problem starts from the clamped solve: it takes its budget-only
    optimum w0, which `_start` solved, with every bound w0 breaks pinned at
    lb, and re-solves on the free set left, pinning every bound each
    solution breaks (by more than the ratio test's 1e-15 tie), until a
    solution is feasible. A w0 that breaks no bound is that solution at
    once. That point is the optimum of its working set, the classical
    feasible initial working set of a convex QP (Nocedal & Wright,
    Numerical Optimization, 2006, 16.5), so it goes to the release rule
    below, as a problem does after its last bound addition. Where most
    bounds bind at the optimum, it is a few releases away, in place of one
    iteration per bound from equal weights.

    Each KKT system is solved once. After a full step (no bound blocks) the
    free set and w_A are unchanged, so the next iteration would solve the
    same system again and get the same solution, `target`: its step would be
    target - w. Where that is within 1e-13, the problem goes to the release
    rule in the same iteration, with the multiplier just solved for, as it
    would one iteration later.

    Returns (w, budget multipliers, bound multipliers, active sets, failures);
    `failures` maps the index of each problem that failed to its SolverError.
    """
    w, lam, singular = (np.array(x) for x in start)
    p, n = c.shape
    clamping = ~singular
    active = np.zeros((p, n), dtype=bool)
    pi = np.zeros((p, n))
    failures = {int(i): SolverError("singular KKT system") for i in np.flatnonzero(singular)}
    live = np.flatnonzero(~singular)
    flat_q = np.ascontiguousarray(q).reshape(-1)
    offset = qi * (n * n)

    for it in range(60 * (n + 1)):
        if not live.size:
            break
        free = ~active[live]
        k = free.sum(axis=1)
        # Each problem's equality-constrained optimum on its free set, with
        # its bound weights as they are. In the first iteration every
        # problem is all-free, and w is the solution `_start` found.
        target = w[live]
        singular = np.zeros(live.size, dtype=bool)
        for size in np.unique(k[k > 0]) if it else ():
            # Stationarity rows solve Q_FF w_F - lam = -c_F - Q_FA w_A, so the
            # recovered lam satisfies grad = lam + pi directly.
            rows = np.flatnonzero(k == size)
            idx = live[rows]
            kkt, rhs = _kkt_systems(rows.size, size)
            rhs[:, size, 0] = 1.0 - lb[idx] * float(n - size)
            fi = np.nonzero(free[rows])[1].reshape(rows.size, size)
            ai = np.nonzero(~free[rows])[1].reshape(rows.size, n - size)
            # Rows F of each Q, as offsets into the flat stack: one gather
            # each for Q_FF and Q_FA.
            row_f = offset[idx][:, None, None] + (fi * n)[:, :, None]
            kkt[:, :size, :size] = flat_q[row_f + fi[:, None, :]]
            q_fa = flat_q[row_f + ai[:, None, :]]
            rhs[:, :size, 0] = -c[idx[:, None], fi] - (q_fa @ w[idx[:, None], ai, None])[:, :, 0]
            sol, singular[rows] = _stacked(np.linalg.solve, kkt, rhs)
            target[rows[:, None], fi] = sol[:, :size, 0]
            lam[idx] = sol[:, size, 0]
        step = target - w[live]
        for i in live[singular]:
            failures[int(i)] = SolverError("singular KKT system")

        moving = ~singular & (np.max(np.abs(step), axis=1) > 1e-13)
        settled = ~singular & ~moving
        rows = np.flatnonzero(clamping[live] & ~singular)
        if rows.size:
            # A clamped problem takes its solution, with every bound that
            # solution breaks pinned at lb; one that breaks none is the
            # optimum of its working set and goes to the release rule. As in
            # the ratio test, a bound broken by 1e-15 or less is a tie.
            idx = live[rows]
            broken = free[rows] & (target[rows] < lb[idx, None] - 1e-15)
            w[idx] = np.where(broken, lb[idx, None], target[rows])
            active[idx] |= broken
            feasible = ~broken.any(axis=1)
            clamping[idx[feasible]] = False
            moving[rows] = False
            settled[rows] = feasible
        if moving.any():
            # Walk toward the equality-constrained optimum, stopping at the
            # first bound that blocks.
            idx = live[moving]
            alpha, block = _ratio_test(w[idx], step[moving], free[moving], lb[idx, None])
            w[idx] = w[idx] + alpha[:, None] * step[moving]
            hit = block >= 0
            w[idx[hit], block[hit]] = lb[idx[hit]]
            active[idx[hit], block[hit]] = True
            # A full step leaves the free set and w_A as they were, so the
            # next iteration would solve this same system and step by
            # target - w: where that is within 1e-13, settle now.
            full = np.flatnonzero(moving)[~hit]
            settled[full] = np.max(np.abs(target[full] - w[idx[~hit]]), axis=1) <= 1e-13

        settled = np.flatnonzero(settled)
        finished = np.zeros(live.size, dtype=bool)
        if settled.size:
            idx = live[settled]
            grad = (q[qi[idx]] @ w[idx, :, None])[:, :, 0] + c[idx]
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
    at most KKT_TOL, NaN included. `lb` holds each problem's lower bound."""
    lb = lb[:, None]
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


def _solve_pass(s, mu, strategies, together):
    """Weights and failures of `strategies` over one block of d dates.

    `s` is the block's (d, n, n) covariance stack and `mu` its (d, n) means
    (None when no strategy reads them). Strategy (scale, needs_mean, lb) has
    Q = scale*Sigma + _RIDGE*(trace(scale*Sigma)/n)*I, c = -mu or 0, and
    lower bound lb; Q is built once per distinct scale, and `together`
    strategies run as one lockstep. Returns one ((d, n) weights, failures)
    per strategy.
    """
    d, n = s.shape[:2]
    scales = list(dict.fromkeys(x for x, _, _ in strategies))
    q = np.empty((len(scales), d, n, n))
    for i, x in enumerate(scales):
        q[i] = x * s
        diagonal = q[i].reshape(d, n * n)[:, :: n + 1]
        mean = diagonal.sum(axis=1) / n
        diagonal += np.where(mean > 0.0, _RIDGE * mean, 1.0)[:, None]
    cs = [np.zeros((d, n)), None if mu is None else -mu]
    which = [scales.index(x) for x, _, _ in strategies]
    start = _start(q, cs, [(i, k) for i, (_, k, _) in zip(which, strategies)])
    # Every problem of the block, strategy by strategy: problem t*d + i is
    # date i of strategy t, and its Q is row qi of flat.
    flat = q.reshape(-1, n, n)
    qi = np.concatenate([i * d + np.arange(d) for i in which])
    c = np.concatenate([cs[k] for _, k, _ in strategies])
    lb = np.repeat([lb for _, _, lb in strategies], d).astype(float)
    out = []
    for g in range(0, len(strategies), together):
        run = slice(g * d, (g + together) * d)
        w, lam, pi, _, failed = _active_set_qp(
            flat, qi[run], c[run], lb[run], [x[run] for x in start]
        )
        for t in range(len(strategies[g : g + together])):
            # Strategy g + t is `part` of the run and `whole` of the block.
            part = slice(t * d, (t + 1) * d)
            whole = slice((g + t) * d, (g + t + 1) * d)
            mine = {i - t * d: err for i, err in failed.items() if t * d <= i < (t + 1) * d}
            _verify_kkt(w[part], lam[part], pi[part], q[which[g + t]], c[whole], lb[whole], mine)
            out.append((w[part], mine))
    return out


def solve_strategies(specs, sigma, mu):
    """Solve the weight problems of several strategies over one stack of P inputs.

    `sigma` is a (P, n, n) covariance stack and `mu` a (P, n) stack of mean
    vectors, or None when no spec is MVS or MVSC (MIN and MINC do not read
    it). The stack is validated once. Q = scale*Sigma plus a ridge of
    _RIDGE times its mean diagonal is built once per distinct scale (gamma
    for MVS and MVSC, 2 for MIN and MINC), and `_start` solves each
    distinct budget-only system once. As many whole strategies as fit in
    _BLOCK_KKT elements run as one lockstep (`_active_set_qp`); a strategy
    that does not fit alone runs in blocks of dates. Each problem gets
    exactly the weights it would get alone: a strategy gets what solving it
    alone gives, and a batch of P is bit for bit P batches of one.

    Returns one (weights, failures) per spec: weights is (P, n) with NaN
    rows for failed problems, and failures maps each failed problem's index
    to its SolverError, or every index to an InfeasibleError where the
    spec's lower bound is infeasible for n assets. Malformed input raises
    ValueError for the whole call.
    """
    mv = [spec.kind in ("MVS", "MVSC") for spec in specs]
    for spec, needs_mean in zip(specs, mv):
        if spec.kind == "EW":
            raise ValueError("the weight solvers expect an optimized strategy, got 'EW'")
        if needs_mean and mu is None:
            raise ValueError("%s weights need mean vectors" % spec.kind)
    s, mu, n = _check_inputs(sigma, mu if any(mv) else None)
    p = len(s)
    out = [(np.full((p, n), np.nan), {}) for _ in specs]
    todo = []
    for j, spec in enumerate(specs):
        if n * spec.lower_bound > 1.0 + 1e-12:
            err = InfeasibleError(
                "lower bound %g infeasible for %d assets" % (spec.lower_bound, n)
            )
            out[j][1].update(dict.fromkeys(range(p), err))
        else:
            todo.append(j)
    strategies = {j: (specs[j].gamma if mv[j] else 2.0, mv[j], specs[j].lower_bound) for j in todo}
    per_run = max(1, _BLOCK_KKT // (n + 1) ** 2)
    m = max(1, min(p, per_run))  # dates per block
    together = max(1, per_run // m)  # strategies per lockstep
    # Where a lockstep holds one strategy, the strategies of one scale are
    # solved before the next scale's Q is built, so one Q stack is held at a
    # time. Where it holds more, every scale's Q is held at once, each at
    # most half a block.
    passes = [todo]
    if together == 1:
        scales = dict.fromkeys(strategies[j][0] for j in todo)
        passes = [[j for j in todo if strategies[j][0] == x] for x in scales]
    for lo in range(0, p if todo else 0, m):
        for group in passes:
            solved = _solve_pass(
                s[lo : lo + m],
                None if mu is None else mu[lo : lo + m],
                [strategies[j] for j in group],
                together,
            )
            for j, (w, failed) in zip(group, solved):
                out[j][0][lo : lo + m] = w
                out[j][1].update((lo + i, err) for i, err in failed.items())
    for weights, failures in out:
        weights[list(failures)] = np.nan
    return out


def _solve_one(spec: StrategySpec, sigma, mu) -> np.ndarray:
    s = np.asarray(getattr(sigma, "matrix", sigma), dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("covariance must be square, got shape %r" % (s.shape,))
    mus = None if mu is None else np.reshape(np.asarray(mu, dtype=float), (1, -1))
    w, failures = solve_strategies([spec], s[None], mus)[0]
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
