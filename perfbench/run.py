"""Benchmark for unionfit: three workloads, end-to-end metrics untraced,
per-layer metrics from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload oracle_certify --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``oracle_certify`` (one certified experiment
trial), ``sketch_heuristic`` (one reduce_solve_lift solved by AM in the
sketch) and ``full_solve`` (one full-space solve_best_model).

With ``--trace 0`` the run starts one discarded warm-up process and
SETUP_PROCESSES fresh processes that only import the library and build
the inputs (``setup_s`` is their median), then one measuring process that
runs the workload's fixed probe and times calls for ``--seconds``
seconds.  With ``--trace 1`` only the measuring process runs; it follows
every untraced call with the same call traced, for ``--seconds`` seconds
in all, and reports per-layer metrics (tracing.py) per traced call.

Every workload process is a single thread: BLAS is held to one thread
(BLAS_ENV).  On the shared 2-core host the benchmark was written on, a
second BLAS thread made a full_solve call about 30% slower, not faster.
The thread count is recorded with the rest of the environment.

The bounded call time is ``call_rel_p50``: the median call time divided
by the median time of a fixed reference kernel (worker.reference_kernel,
no unionfit code) timed before every call of the same run.  On that host
the speed changed in phases lasting minutes: across ten 35 s runs of
oracle_certify, whose calls all do the same work, even the 10th
percentile of the call times spread by 50% (distance between quartiles
over the median).  The raw median, the tail percentile, calls per second
and the kernel's own median are printed with the call count but carry no
bound.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result if the library or a workload
process cannot run.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("oracle_certify", "sketch_heuristic", "full_solve")
SETUP_PROCESSES = 5
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every process must end well inside the 180 s a run may take.
SETUP_TIMEOUT_S = 30
MEASURE_SLACK_S = 90


class WorkerFailed(Exception):
    pass


def run_worker(workload, seed, role, seconds=0.0, trace=0):
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--role", role, "--seconds", str(seconds), "--trace", str(trace)]
    timeout = SETUP_TIMEOUT_S if role == "setup" else seconds + MEASURE_SLACK_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, env={**os.environ, **BLAS_ENV})
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{role} process timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{role} process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(durations):
    """The highest percentile with at least ten calls beyond it, but never
    below the median: (value, percentile).  Up to 20 calls no percentile
    above the median has ten calls beyond it, so the median is reported."""
    n = len(durations)
    if n <= 20:
        return statistics.median(durations), 50.0
    return sorted(durations)[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed, seconds):
    run_worker(workload, seed, "setup")  # warm-up: file cache, lazy loading
    setups = [run_worker(workload, seed, "setup")["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    report = run_worker(workload, seed, "measure", seconds, 0)
    durations = report["durations"]
    tail_s, tail_pct = tail(durations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "call_rel_p50": (statistics.median(durations)
                         / statistics.median(report["reference"]), "x_ref"),
        "model_error_mean": (statistics.fmean(report["probe_errors"]), "sq_dist"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    # Printed but not bounded; see the module docstring.
    extra = {
        "call_s_p50": (statistics.median(durations), "s"),
        "call_s_tail": (tail_s, "s"),
        "calls_per_s": (len(durations) / sum(durations), "1/s"),
        "reference_s_p50": (statistics.median(report["reference"]), "s"),
        "fail_ratio": (report["failed"] / report["attempted"], "ratio"),
        "timed_error_mean": (statistics.fmean(report["timed_errors"])
                             if report["timed_errors"] else math.nan, "sq_dist"),
    }
    if report["bound_held"]:
        extra["bound_hold_ratio"] = (statistics.fmean(report["bound_held"]), "ratio")
    detail = {
        "calls": len(durations),
        "tail_percentile": tail_pct,
        "setup_samples": setups,
        "probe_errors": report["probe_errors"],
    }
    return report, metrics, extra, detail


def traced(workload, seed, seconds):
    report = run_worker(workload, seed, "measure", seconds, 1)
    layers = report["layers"]
    metrics = {name: (layers[name], unit) for name, unit in tracing.LAYER_METRICS.items()}
    detail = {"calls": len(report["durations"]), "span_calls": report["span_calls"]}
    return report, metrics, {}, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "unionfit").is_dir():
        print(f"no unionfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = traced if opts.trace else end_to_end
    try:
        report, metrics, extra, detail = run(opts.workload, opts.seed, opts.seconds)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 2

    print(f"workload {opts.workload}  seed {opts.seed}  seconds {opts.seconds:g}  "
          f"trace {opts.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    detail.update(attempted=report["attempted"], failed=report["failed"],
                  environment=report["environment"])
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
