"""In-memory span tracer that wraps lgcport's public functions from outside.

Nothing in the package is edited: each public function is replaced, for the
duration of a traced call, by a wrapper installed on the module attribute
its caller looks it up through, and the original is put back afterwards.
Spans are kept as plain lists (name, start, end, parent) and written out
once the benchmark ends.

Functions inside the fit objective (local_loglik, local_score,
penalty_integral) are deliberately not wrapped: scipy calls them ~10^5
times per run, and a span each would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

# (module whose attribute is patched, attribute, span name). The module is
# the caller's namespace: e.g. run_backtest finds pairwise_local_covariance
# in lgcport.backtest, and report.run_window imports run_backtest from
# lgcport.backtest at call time.
PATCH_POINTS = (
    ("lgcport.panel", "load_panel", "panel.load"),
    ("lgcport.panel", "write_panel", "panel.write"),
    ("lgcport.report", "load_panel", "panel.load"),
    ("lgcport.report", "execute_run", "report.execute_run"),
    ("lgcport.report", "asset_table", "report.asset_table"),
    ("lgcport.report", "global_covariance", "localcov.global_cov"),
    ("lgcport.report", "pairwise_local_covariance", "localcov.local_cov"),
    ("lgcport.report", "percentile_grid", "localcov.grid"),
    ("lgcport.report", "descriptive_stats", "metrics"),
    ("lgcport.report", "max_drawdown", "metrics"),
    ("lgcport.report", "performance_report", "metrics"),
    ("lgcport.report", "sharpe", "metrics"),
    ("lgcport.backtest", "run_backtest", "backtest.run"),
    ("lgcport.backtest", "global_covariance", "localcov.global_cov"),
    ("lgcport.backtest", "pairwise_local_covariance", "localcov.local_cov"),
    ("lgcport.backtest", "moving_grid", "localcov.grid"),
    ("lgcport.backtest", "percentile_grid", "localcov.grid"),
    ("lgcport.backtest", "solve_mv", "optimizer.solve"),
    ("lgcport.backtest", "solve_minvar", "optimizer.solve"),
    ("lgcport.localcov", "estimate_local_params", "lgc.fit"),
    ("lgcport.localcov", "nearest_pd", "localcov.repair"),
)

NAME, START, END, PARENT = range(4)


class Tracer:
    """Spans of one process, single-threaded.

    `spans[i]` is [name, start, end, parent index or -1]. For span names in
    `keep`, `results[i]` holds `keep[name](value returned)`, so checks and
    counts can read it after the timed call has ended.
    """

    def __init__(self, keep=None):
        self.spans = []
        self.results = {}
        self._keep = dict(keep or {})
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][START] = time.perf_counter()
        try:
            yield index
        finally:
            self.spans[index][END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        extract = self._keep.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if extract is not None:
                self.results[index] = extract(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every PATCH_POINTS attribute for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def descendants(self, root):
        """Indices of every span below `root`, in start order."""
        inside = {root}
        out = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][PARENT] in inside:
                inside.add(i)
                out.append(i)
        return out

    def duration(self, i):
        return self.spans[i][END] - self.spans[i][START]

    def self_time(self, i, children):
        """Span duration minus the time its direct children cover."""
        return self.duration(i) - sum(self.duration(c) for c in children.get(i, ()))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh
            )
