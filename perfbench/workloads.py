"""The benchmark's three workloads: inputs, the timed public call, and checks.

Every call goes through a module attribute (``lgcport.report.execute_run``,
``lgcport.backtest.run_backtest``, ``lgcport.panel.load_panel``) so the
tracer's patches see it. See README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import lgcport.backtest
import lgcport.panel
import lgcport.report
import lgcport.synth
from lgcport.optimizer import StrategySpec

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# The wide workloads draw their panel from seed % PANEL_SEEDS, and
# reference.json holds the terminal wealths of every member of that family,
# so every seed the benchmark is given has a recorded reference.
PANEL_SEEDS = 16

# Weight identities for the global strategies (budget and lower bound).
WEIGHT_ATOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    panel: dict  # keyword arguments of synth_panel, besides seed
    seeded: bool  # False: the fixed synth_panel() input of the paper's run
    call: str  # "execute_run" or "run_backtest"
    windows: tuple
    strategies: tuple
    # Terminal wealth must lie within a relative `wealth_rtol` of reference.json.
    # The tolerances come from measurements at the recording commit (README.md,
    # "Choosing the wealth tolerance"): a fit that reaches the same GRADIENT_TOL
    # optimum by another path (every pair refitted from a cold start) passes with
    # a margin of 5x or more, and a fit that is off by a little (every rho
    # shifted by 1e-3, or BFGS stopped at gradient 1e-3) fails. On global_wide,
    # which fits nothing, a 1e-8 relative perturbation of every covariance
    # passes and a 1e-6 one fails.
    wealth_rtol: float
    grid_method: str = "moving"
    files: int = 0  # report files execute_run must write, manifest included

    def panel_seed(self, seed: int) -> int:
        return seed % PANEL_SEEDS if self.seeded else 0

    def make_panel(self, seed: int):
        return lgcport.synth.synth_panel(seed=self.panel_seed(seed), **self.panel)

    def planned_ops(self, n_months: int, n_assets: int) -> Dict[str, int]:
        """Operations one call attempts: pair fits, strategy solves, the run."""
        specs = [StrategySpec.from_label(s) for s in self.strategies]
        solved = sum(s.kind != "EW" for s in specs)
        local = any(s.kind != "EW" and s.covariance_source == "local" for s in specs)
        dates = sum(n_months - w for w in self.windows)
        pairs = n_assets * (n_assets - 1) // 2
        return {"fits": dates * pairs if local else 0, "solves": dates * solved, "runs": 1}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="c11",
            panel={},
            seeded=False,
            call="execute_run",
            windows=(120, 240),
            strategies=lgcport.report.ALL_STRATEGY_LABELS,
            files=27,
            wealth_rtol=1e-4,
        ),
        Workload(
            name="global_wide",
            panel={"months": 463, "n_assets": 24, "model": "clayton"},
            seeded=True,
            call="run_backtest",
            windows=(120, 240),
            strategies=("EW", "MVS", "MVSC", "MIN", "MINC"),
            wealth_rtol=1e-5,
        ),
        Workload(
            name="tail_wide",
            panel={"months": 140, "n_assets": 12, "model": "clayton"},
            seeded=True,
            call="execute_run",
            windows=(120,),
            strategies=("MVS-L", "MVSC-L", "MIN-L", "MINC-L"),
            grid_method="percentile",
            files=9,
            wealth_rtol=1e-3,
        ),
    )
}

# Transaction costs in basis points, as in the paper's run: execute_run
# reports terminal wealth at 0 ("gross") and 1 bp; run_backtest charges 1 bp.
TCOSTS_BP = (0.0, 1.0)


def call_workload(wl: Workload, panel_path: str, out_dir: str):
    """The timed public call. Returns what the call returned."""
    if wl.call == "execute_run":
        config = lgcport.report.RunConfig(
            input_path=panel_path,
            output_dir=out_dir,
            windows=list(wl.windows),
            strategies=list(wl.strategies),
            tcosts_bp=list(TCOSTS_BP),
            grid_method=wl.grid_method,
        )
        return lgcport.report.execute_run(config)
    panel = lgcport.panel.load_panel(panel_path)
    specs = [StrategySpec.from_label(s) for s in wl.strategies]
    return [
        lgcport.backtest.run_backtest(
            panel,
            lgcport.backtest.BacktestConfig(
                window=w, strategies=specs, tcost_bp=TCOSTS_BP[-1], grid_method=wl.grid_method
            ),
        )
        for w in wl.windows
    ]


@dataclass
class Outcome:
    """What one call did, read after its timed region ends."""

    seconds: float
    traced: bool
    planned: Dict[str, int]
    root: Optional[int] = None  # span of a traced call
    error: Optional[str] = None
    fit_fallbacks: int = 0
    solve_fallbacks: int = 0
    wealth: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    files: int = 0
    bytes: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(self.planned.values())

    @property
    def failed(self) -> int:
        """Fallbacks count as failed operations; a failed call fails them all."""
        if self.error or self.problems:
            return self.attempted
        return self.fit_fallbacks + self.solve_fallbacks


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _count_ops(outcome: Outcome, windows: Dict[str, dict], wl: Workload, n_assets: int):
    """Fallback counts from per-date diagnostics, checked against the plan."""
    pairs = n_assets * (n_assets - 1) // 2
    fits = solves = 0
    for meta in windows.values():
        diags = meta["date_diagnostics"]
        fits += pairs * sum("pair_fallbacks" in d for d in diags)
        outcome.fit_fallbacks += sum(d.get("pair_fallbacks", 0) for d in diags)
        solved = sum(1 for label in meta["strategy_fallbacks"] if label != "EW")
        solves += len(diags) * solved
        outcome.solve_fallbacks += sum(len(v) for v in meta["strategy_fallbacks"].values())
    if (fits, solves) != (outcome.planned["fits"], outcome.planned["solves"]):
        outcome.problems.append(
            "diagnostics cover %d fits and %d solves, planned %d and %d"
            % (fits, solves, outcome.planned["fits"], outcome.planned["solves"])
        )


def _read_report(outcome: Outcome, wl: Workload, manifest: dict, out_dir: str):
    names = sorted(os.listdir(out_dir))
    outcome.files = len(names)
    outcome.bytes = sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)
    if outcome.files != wl.files:
        outcome.problems.append("wrote %d files, expected %d" % (outcome.files, wl.files))
    outcome.digests = {
        n: sha256(os.path.join(out_dir, n)) for n in names if n.endswith(".csv")
    }
    for m in wl.windows:
        path = os.path.join(out_dir, "table_rebalancing_w%d.csv" % m)
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                outcome.wealth["w%d/%s/gross" % (m, row["strategy"])] = float(
                    row["terminal_wealth_gross"]
                )
                outcome.wealth["w%d/%s/1bp" % (m, row["strategy"])] = float(
                    row["terminal_wealth_1bp"]
                )
    _count_ops(outcome, manifest["windows"], wl, manifest["input"]["n_assets"])


def _read_backtests(outcome: Outcome, wl: Workload, results):
    windows = {}
    for res in results:
        windows[str(res.window)] = {
            "date_diagnostics": res.date_diagnostics,
            "strategy_fallbacks": {k: sr.fallbacks for k, sr in res.strategies.items()},
        }
        for label, sr in res.strategies.items():
            outcome.wealth["w%d/%s/gross" % (res.window, label)] = float(sr.wealth_gross[-1])
            outcome.wealth["w%d/%s/1bp" % (res.window, label)] = float(sr.wealth_net[-1])
            w = sr.target_weights
            if np.max(np.abs(w.sum(axis=1) - 1.0)) > WEIGHT_ATOL:
                outcome.problems.append("w%d %s: weights do not sum to 1" % (res.window, label))
            if np.min(w) < sr.spec.lower_bound - WEIGHT_ATOL:
                outcome.problems.append("w%d %s: weight below its bound" % (res.window, label))
    _count_ops(outcome, windows, wl, len(results[0].asset_names))


def evaluate(outcome: Outcome, wl: Workload, returned, out_dir: str, reference):
    """Fill in counts, outputs and problems of a call that returned normally.

    With `reference` None (while recording it) terminal wealth is not compared.
    """
    if wl.call == "execute_run":
        _read_report(outcome, wl, returned, out_dir)
    else:
        _read_backtests(outcome, wl, returned)
    if reference is None:
        return
    ref = reference["terminal_wealth"]
    if set(ref) != set(outcome.wealth):
        outcome.problems.append("terminal wealth keys differ from the reference")
        return
    for key, want in sorted(ref.items()):
        got = outcome.wealth[key]
        if not abs(got - want) <= wl.wealth_rtol * abs(want):
            outcome.problems.append(
                "terminal wealth %s = %r, reference %r (rtol %g)"
                % (key, got, want, wl.wealth_rtol)
            )


def csv_identical(outcome: Outcome, reference: dict) -> int:
    """Report CSVs byte-identical to the recorded ones (c11 only)."""
    ref = reference.get("csv_sha256", {})
    return sum(1 for n, d in outcome.digests.items() if ref.get(n) == d)


def check_local_matrix(cov) -> Optional[str]:
    """Why a LocalCovMatrix is not a valid covariance, or None."""
    m = cov.matrix
    if not np.array_equal(m, m.T):
        return "local matrix not symmetric"
    if np.linalg.eigvalsh(m)[0] <= 0.0:
        return "local matrix not positive definite"
    d = np.sqrt(np.diag(m))
    for corr in (cov.correlations, m / np.outer(d, d)):
        if np.max(np.abs(corr)) > 1.0 + 1e-12:
            return "local correlation outside [-1, 1]"
    return None


def load_reference(wl: Workload, seed: int) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[wl.name][str(wl.panel_seed(seed))]
