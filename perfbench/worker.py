"""One benchmark process: set up, run the workload in a closed loop, report.

Started by run.py in a fresh interpreter with BLAS pinned to one thread and
LGCPORT_THREADS unset. Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload c11 --seed 0 --seconds 25 \
        --trace 0 --workdir DIR --tag main [--setup-only] [--spans FILE]
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from run import BLAS_THREAD_VARS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# What a traced call keeps of each span's return value, for checks and counts.
KEEP = {
    "localcov.local_cov": lambda cov: cov,
    "localcov.repair": lambda result: bool(result[1]),  # (matrix, repaired)
}


def _setup(args):
    """Import, generate the panel and write it: the measured set-up."""
    t0 = time.perf_counter()
    import lgcport  # noqa: F401  (numpy, scipy and every lgcport module)

    import_s = time.perf_counter() - t0
    expected = os.path.join(ROOT, "src", "lgcport")
    if os.path.dirname(os.path.abspath(lgcport.__file__)) != expected:
        sys.exit("lgcport imported from %s, not %s" % (lgcport.__file__, expected))

    import lgcport.panel
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = Tracer(keep=KEEP) if args.trace else None
    path = os.path.join(args.workdir, args.tag + ".csv")
    t1 = time.perf_counter()
    panel = wl.make_panel(args.seed)
    if tracer:
        with tracer.installed():
            lgcport.panel.write_panel(panel, path)
    else:
        lgcport.panel.write_panel(panel, path)
    return wl, panel, path, tracer, import_s + time.perf_counter() - t1


def _run_once(wl, panel, path, out_dir, tracer, reference):
    from workloads import Outcome, call_workload, evaluate

    outcome = Outcome(seconds=0.0, traced=tracer is not None,
                      planned=wl.planned_ops(panel.n_months, panel.n_assets))
    t0 = time.perf_counter()
    try:
        if tracer is None:
            returned = call_workload(wl, path, out_dir)
        else:
            with tracer.installed(), tracer.span("bench.call") as outcome.root:
                returned = call_workload(wl, path, out_dir)
    except Exception:  # a failed call fails every operation in it
        outcome.seconds = time.perf_counter() - t0
        outcome.error = traceback.format_exc()
        print(outcome.error, file=sys.stderr)
        return outcome
    outcome.seconds = time.perf_counter() - t0
    try:
        evaluate(outcome, wl, returned, out_dir, reference)
    except (OSError, KeyError, ValueError) as err:  # missing or malformed outputs
        outcome.problems.append("outputs unreadable: %r" % (err,))
    return outcome


def _machine(args, wl):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "lgcport_threads": os.environ.get("LGCPORT_THREADS"),
        "seed": args.seed,
        "panel_seed": wl.panel_seed(args.seed),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    wl, panel, path, tracer, setup_s = _setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from layers import layer_metrics
    from workloads import load_reference

    reference = load_reference(wl, args.seed)
    # Closed loop, one caller: the next call starts when the previous ends,
    # and a call starts only if it should end within --seconds. At least one
    # call always runs. A traced run alternates untraced and traced calls.
    # A call that raises ends the loop: the run is already incorrect.
    modes = (None, tracer) if tracer else (None,)
    outcomes = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for mode in modes:
            out_dir = os.path.join(args.workdir, "%s-out%d" % (args.tag, len(outcomes)))
            outcomes.append(_run_once(wl, panel, path, out_dir, mode, reference))
            shutil.rmtree(out_dir, ignore_errors=True)
        last = time.perf_counter() - t_round
        if outcomes[-1].error or time.perf_counter() - start + last > args.seconds:
            break

    layers = layer_metrics(tracer, outcomes, reference) if tracer else None
    result = {
        "setup_s": setup_s,
        "run_s": statistics.median(o.seconds for o in outcomes if not o.traced),
        "call_seconds": [o.seconds for o in outcomes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "fit_fallbacks": sum(o.fit_fallbacks for o in outcomes),
        "solve_fallbacks": sum(o.solve_fallbacks for o in outcomes),
        "problems": sorted(
            {p for o in outcomes for p in o.problems} | {"call raised" for o in outcomes if o.error}
        ),
        "machine": _machine(args, wl),
    }
    if tracer:
        result["layers"] = layers
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
