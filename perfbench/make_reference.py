"""Record reference.json: terminal wealths, and c11's report digests.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a source checkout. Re-record only when a workload's
definition changes, never to make a changed program pass: the reference
is what the benchmark's output checks compare against.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import BLAS_THREAD_VARS  # noqa: E402

# Same environment as a benchmark run, set before numpy is imported.
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
os.environ.pop("LGCPORT_THREADS", None)

import lgcport.panel  # noqa: E402
from workloads import (  # noqa: E402
    PANEL_SEEDS,
    REFERENCE_PATH,
    WORKLOADS,
    Outcome,
    call_workload,
    evaluate,
)


def record(wl, panel_seed, workdir):
    panel = wl.make_panel(panel_seed)
    path = os.path.join(workdir, "panel.csv")
    out_dir = os.path.join(workdir, "out")
    lgcport.panel.write_panel(panel, path)
    outcome = Outcome(0.0, False, wl.planned_ops(panel.n_months, panel.n_assets))
    evaluate(outcome, wl, call_workload(wl, path, out_dir), out_dir, None)
    shutil.rmtree(out_dir, ignore_errors=True)
    if outcome.problems or outcome.failed:
        raise SystemExit("%s seed %d: %s, %d failed operations"
                         % (wl.name, panel_seed, outcome.problems, outcome.failed))
    entry = {"terminal_wealth": outcome.wealth}
    if wl.name == "c11":
        entry["csv_sha256"] = outcome.digests
    return entry


def main(names):
    reference = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        seeds = range(PANEL_SEEDS) if wl.seeded else [0]
        workdir = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_ref-")
        try:
            reference[name] = {str(s): record(wl, s, workdir) for s in seeds}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("recorded %s (%d panels)" % (name, len(reference[name])), flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
