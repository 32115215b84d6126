"""Per-layer metrics from the spans of traced calls (see README.md for the map
from each metric to the end-to-end metric and workload it should move)."""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from spans import NAME, PARENT
from workloads import check_local_matrix, csv_identical


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _call_metrics(tracer, outcome, reference):
    """Metrics of one traced call; appends failed checks to outcome.problems."""
    children = defaultdict(list)
    by_name = defaultdict(list)
    for i in tracer.descendants(outcome.root):
        children[tracer.spans[i][PARENT]].append(i)
        by_name[tracer.spans[i][NAME]].append(i)

    def durations(name):
        return [tracer.duration(i) for i in by_name[name]]

    def self_s(name):
        return sum(tracer.self_time(i, children) for i in by_name[name])

    covs = [tracer.results[i] for i in by_name["localcov.local_cov"]]
    for cov in covs:
        problem = check_local_matrix(cov)
        if problem:
            outcome.problems.append(problem)
            break
    iterations = [d.iterations for c in covs for d in c.pair_diagnostics.values()]
    repaired = [tracer.results[i] for i in by_name["localcov.repair"]]
    fits = durations("lgc.fit")
    local = durations("localcov.local_cov")
    solves = durations("optimizer.solve")
    return {
        "lgc.fit_calls": len(fits),
        "lgc.fit_s": sum(fits),
        "lgc.fit_ms_p50": 1e3 * _pct(fits, 50),
        "lgc.fit_ms_p90": 1e3 * _pct(fits, 90),
        "lgc.iterations_mean": float(np.mean(iterations)) if iterations else 0.0,
        "lgc.iterations_p90": _pct(iterations, 90),
        "lgc.fallbacks": sum(c.n_fallbacks for c in covs),
        "localcov.local_cov_calls": len(local),
        "localcov.local_cov_ms_p50": 1e3 * _pct(local, 50),
        "localcov.local_cov_ms_p90": 1e3 * _pct(local, 90),
        "localcov.local_cov_self_s": self_s("localcov.local_cov"),
        "localcov.repair_calls": len(repaired),
        "localcov.repair_rate": sum(repaired) / len(repaired) if repaired else 0.0,
        "localcov.repair_s": sum(durations("localcov.repair")),
        "localcov.grid_s": sum(durations("localcov.grid")),
        "localcov.global_cov_calls": len(by_name["localcov.global_cov"]),
        "localcov.global_cov_s": sum(durations("localcov.global_cov")),
        "optimizer.solve_calls": len(solves),
        "optimizer.solve_s": sum(solves),
        "optimizer.solve_ms_p50": 1e3 * _pct(solves, 50),
        "optimizer.solve_ms_p90": 1e3 * _pct(solves, 90),
        "optimizer.solve_fallbacks": outcome.solve_fallbacks,
        "backtest.self_s": self_s("backtest.run"),
        "metrics.calls": len(by_name["metrics"]),
        "metrics.s": sum(durations("metrics")),
        "report.asset_table_s": sum(durations("report.asset_table")),
        "report.self_s": self_s("report.execute_run"),
        "report.files": outcome.files,
        "report.bytes": outcome.bytes,
        "panel.load_s": sum(durations("panel.load")),
        "check.c11_csv_identical": csv_identical(outcome, reference),
    }


def layer_metrics(tracer, outcomes, reference):
    """Median over traced calls of each per-call metric, plus run-wide ones.

    `outcomes` alternates untraced and traced calls. Each traced call must
    write the same report bytes as the untraced call before it; a mismatch is
    recorded as a problem of the traced call.
    """
    per_call = []
    for plain, traced in zip(outcomes[::2], outcomes[1::2]):
        if traced.error:
            continue
        if traced.digests != plain.digests:
            traced.problems.append("traced report files differ from untraced ones")
        per_call.append(_call_metrics(tracer, traced, reference))
    out = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]} if per_call else {}

    plain_s = statistics.median(o.seconds for o in outcomes if not o.traced)
    traced_s = statistics.median(o.seconds for o in outcomes if o.traced)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    out["panel.write_s"] = sum(
        tracer.duration(i)
        for i, s in enumerate(tracer.spans)
        if s[NAME] == "panel.write" and s[PARENT] == -1
    )
    out["trace.run_s"] = traced_s
    out["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    out["ops.attempted"] = attempted
    out["ops.failed"] = failed
    out["fail_rate"] = failed / attempted
    return out
