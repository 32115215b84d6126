"""lgcport benchmark: one workload, one fresh child process, one JSON line.

    python3 perfbench/run.py --workload c11 --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. With --trace 0 the last stdout line
carries the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. Each run appends a record with the machine facts to
.perfbench_out/results.jsonl; a traced run also writes its spans there.
Workloads, metrics and checks are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

# Set-up is measured in this many fresh processes and reported as the median.
SETUP_SAMPLES = 3
# A run must end within 180 s; leave room to print and clean up.
DEADLINE_S = 172.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ChildError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env.pop("LGCPORT_THREADS", None)
    env.update({k: "1" for k in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _run_child(argv, deadline):
    """Run worker.py to completion (killed at the deadline); its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError("no time left for %s" % " ".join(argv))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + argv,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=remaining,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError("worker exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def _metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "lgcport", "__init__.py")):
        print("no lgcport source under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    specs = _metric_specs(args.trace)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    try:
        setup_s = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                argv_k = common + ["--tag", "setup%d" % k, "--setup-only"]
                setup_s.append(_run_child(argv_k, deadline)["setup_s"])
        spans = os.path.join(OUT, tag + "-spans.json")
        result = _run_child(common + ["--tag", "main", "--spans", spans], deadline)
    except (ChildError, subprocess.TimeoutExpired, ValueError) as err:
        print("benchmark failed: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s.append(result["setup_s"])

    values = result["layers"] if args.trace else {
        "run_s": result["run_s"],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    # A traced run whose every call failed has no per-call metrics; it still
    # reports, as incorrect, with those metrics at 0.
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing and not result["problems"]:
        print("benchmark does not measure %s" % ", ".join(missing), file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in specs
    }
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }

    record = dict(line, workload=args.workload, trace=args.trace, setup_samples=setup_s,
                  **{k: result[k] for k in ("machine", "call_seconds", "fit_fallbacks",
                                            "solve_fallbacks", "problems")})
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print("machine: %s" % json.dumps(result["machine"], sort_keys=True))
    print("calls: %d, seconds %s" % (len(result["call_seconds"]),
                                     ", ".join("%.3f" % s for s in result["call_seconds"])))
    print("operations: attempted %d, failed %d (pair-fit fallbacks %d, solve fallbacks %d)"
          % (result["attempted"], result["failed"], result["fit_fallbacks"],
             result["solve_fallbacks"]))
    for problem in result["problems"]:
        print("check failed: %s" % problem)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
