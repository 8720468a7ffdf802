"""One workload process of the benchmark; started by run.py, never by hand.

    worker.py --workload W --seed S --role setup
        import the library, build the inputs, print {"setup_s": ...}
    worker.py --workload W --seed S --role measure --seconds T --trace 0|1
        also run the probe, then time calls for T seconds, print a report

The clock for ``setup_s`` starts before numpy and unionfit are imported,
so it covers the library import and building the inputs.  Only the
standard library is imported before that point.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"


def blas_threads():
    """Thread count of the OpenBLAS numpy links, or None if not found."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD commit read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "unionfit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def reference_kernel(small, tall):
    """Seconds taken by a fixed piece of work that runs no unionfit code.

    It mixes the two kinds of work the workloads do: many tiny SVDs with
    Python bookkeeping around them (as in the oracle's fits), then tall
    200x250 SVDs (as in a full-space fit).  The shared host this benchmark
    was written on changed speed in phases lasting minutes: an
    oracle_certify call took 0.9 s in one and 1.8 s in another.  Timed
    next to the calls, the kernel slowed with them; over ten runs in one
    window the median oracle_certify call time spread by 17% (distance
    between quartiles over the median), its ratio to the kernel's median
    time by 7%.
    """
    import numpy as np

    start = time.perf_counter()
    for _ in range(600):
        np.linalg.svd(small, full_matrices=False)
        sorted({j: j * j for j in range(30)}.values())
    for _ in range(3):
        np.linalg.svd(tall, full_matrices=False)
    return time.perf_counter() - start


def run_call(wl, state, index, problems, recorder=None):
    """Time one call and check it outside the timer (and outside the trace).

    Returns (seconds, outcome, inputs); outcome is None when the call raised.
    """
    args = wl.inputs(state, index)
    if recorder is not None:
        recorder.active = True
    start = time.perf_counter()
    try:
        result = wl.call(state, args)
    except Exception as exc:  # a failed call is counted, the run goes on
        problems.append(f"call {index} raised {exc!r}")
        return time.perf_counter() - start, None, args
    finally:
        if recorder is not None:
            recorder.active = False
    seconds = time.perf_counter() - start
    try:
        outcome = wl.check(state, args, result)
    except Exception as exc:  # output too malformed to check
        problems.append(f"call {index}: checking its output raised {exc!r}")
        return seconds, None, args
    problems.extend(f"call {index}: {p}" for p in outcome.problems)
    return seconds, outcome, args


def measure(wl, state, seconds, trace, workdir):
    import numpy as np
    import tracing
    import workloads

    problems: list[str] = []
    tally = {"attempted": 0, "failed": 0}

    def account(outcome, extra=()):
        tally["attempted"] += 1
        tally["failed"] += outcome is None or bool(outcome.problems) or bool(extra)

    # Probe: fixed inputs, run first so it also warms the process up.
    probe_state = wl.setup(workloads.PROBE_SEED, workdir)
    probe_errors = []
    for i in range(wl.probe_calls):
        _, outcome, args = run_call(wl, probe_state, i, problems)
        extra = wl.check_probe(probe_state, i, args) if outcome is not None else []
        problems.extend(f"probe {i}: {p}" for p in extra)
        account(outcome, extra)
        probe_errors.append(outcome.error if outcome else float("nan"))

    # Fixed inputs of the reference kernel, timed before every untraced call.
    rng = np.random.default_rng(0)
    small, tall = rng.standard_normal((20, 6)), rng.standard_normal((200, 250))

    # A traced run repeats every call with the wrappers installed, right
    # after the untraced one; the ratio of the paired times is the tracing
    # overhead.  The wrappers are removed again before the next untraced call.
    recorder = tracing.Recorder() if trace else None
    durations, reference, traced, errors, bound_held = [], [], [], [], []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        index = len(durations)
        if recorder is None:
            reference.append(reference_kernel(small, tall))
        dt, outcome, _ = run_call(wl, state, index, problems)
        account(outcome)
        durations.append(dt)
        if outcome is not None:
            errors.append(outcome.error)
            if outcome.bound_held is not None:
                bound_held.append(outcome.bound_held)
        if recorder is not None:
            with tracing.installed(recorder):
                dt, outcome, _ = run_call(wl, state, index, problems, recorder)
            account(outcome)
            traced.append(dt)
    report = {
        "durations": durations,
        "reference": reference,
        "timed_errors": errors,
        "bound_held": bound_held,
        "probe_errors": probe_errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        layers = recorder.layer_metrics(len(traced))
        layers["trace.overhead_ratio"] = sum(traced) / sum(durations) - 1.0
        report["layers"] = layers
        report["span_calls"] = dict(recorder.calls)
    report.update(tally, problems=problems[:20])
    return report


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[opts.workload]
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        state = wl.setup(opts.seed, Path(tmp))
        setup_s = time.perf_counter() - T0
        out = {"setup_s": setup_s}
        if opts.role == "measure":
            out.update(measure(wl, state, opts.seconds, opts.trace, Path(tmp)))
            out["environment"] = environment()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
