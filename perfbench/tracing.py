"""Spans around calls into unionfit's public functions, recorded from outside.

Wrappers are installed only around traced calls and removed afterwards.  A
wrapped function is replaced at its defining module and at every
``unionfit`` module that bound it with ``from ... import``, so no call
site escapes the trace.  Spans are aggregated as they close: per span
name a count, the total time of outermost spans (a span nested in a span
of the same name is not counted twice), the self time (duration minus the
time covered by child spans), and the total time per (name, parent name)
pair, which separates, for example, the full-space ``e0`` oracle (parent
``experiment``) from the reduced-space oracle (parent ``pipeline``).

Span names follow the stage names of the project roadmap, so an
in-program tracer can later replace these wrappers without renaming any
metric.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _fit_counts(counters, args, kwargs, result):
    counters["fit.points"] += _arg(args, kwargs, 0, "data").count


def _assign_counts(counters, args, kwargs, result):
    counters["assign.points"] += _arg(args, kwargs, 0, "data").count
    counters["assign.ties"] += int(result[1].tie_flags.sum())


def _oracle_counts(counters, args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    counters["oracle.labelings"] += _arg(args, kwargs, 1, "n_subspaces") ** data.count


def _am_counts(counters, args, kwargs, result):
    counters["am.iterations"] += result.iterations[0]


def _solve_counts(counters, args, kwargs, result):
    counters["solve.restarts_requested"] += _arg(args, kwargs, 3, "restarts")
    counters["solve.restarts_used"] += result.restarts_used


def _pipeline_counts(counters, args, kwargs, result):
    counters["pipeline.certified"] += int(result.reduced_certified_optimal)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> (defining module, public function, counter hook or None)
FUNCTIONS = {
    "sketch": ("unionfit.projection", "sample_matrix", None),
    "error": ("unionfit.metrics", "bundle_error", None),
    "fit": ("unionfit.fitting", "bundle_from_partition", _fit_counts),
    "assign": ("unionfit.fitting", "partition_from_bundle", _assign_counts),
    "oracle": ("unionfit.solver", "brute_force_oracle", _oracle_counts),
    "am": ("unionfit.solver", "alternate_minimize", _am_counts),
    "solve": ("unionfit.solver", "solve_best_model", _solve_counts),
    "pipeline": ("unionfit.pipeline", "reduce_solve_lift", _pipeline_counts),
    "synthetic": ("unionfit.synthetic", "generate_synthetic", None),
    "experiment": ("unionfit.experiment", "run_experiment", None),
    "report": ("unionfit.experiment", "write_rows_csv", None),
}

# span name -> (defining module, class); the span covers construction.
CONSTRUCTORS = {
    "dataset": ("unionfit.model", "DataSet"),
    "partition": ("unionfit.model", "Partition"),
}

# The experiment writes its summary with json.dump; that call is part of
# the "report" stage.  The module's ``json`` binding is swapped for a copy
# whose ``dump`` is wrapped, which leaves every other json user untouched.
JSON_DUMP_SITE = ("unionfit.experiment", "json")

# Per-layer metric -> unit, in the order they are reported.  Every count
# and time is per workload call.
LAYER_METRICS = {
    "sketch.calls": "count/call",
    "sketch.s": "s/call",
    "dataset.calls": "count/call",
    "dataset.s": "s/call",
    "partition.calls": "count/call",
    "partition.s": "s/call",
    "error.calls": "count/call",
    "error.s": "s/call",
    "fit.calls": "count/call",
    "fit.s": "s/call",
    "fit.points": "count/call",
    "assign.calls": "count/call",
    "assign.s": "s/call",
    "assign.points": "count/call",
    "assign.ties": "count/call",
    "oracle.calls": "count/call",
    "oracle.s": "s/call",
    "oracle.self_s": "s/call",
    "oracle.labelings": "count/call",
    "oracle.us_per_labeling": "us",
    "am.calls": "count/call",
    "am.s": "s/call",
    "am.self_s": "s/call",
    "am.iterations": "count/call",
    "am.iters_per_restart": "count",
    "am.restarts_used_ratio": "ratio",
    "reduced_solve.s": "s/call",
    "reduced_solve.certified_ratio": "ratio",
    "lift.s": "s/call",
    "pipeline.self_s": "s/call",
    "e0_oracle.s": "s/call",
    "synthetic.s": "s/call",
    "report.s": "s/call",
    "experiment.self_s": "s/call",
    "trace.overhead_ratio": "ratio",
}


class Recorder:
    """Aggregates spans while ``active``; wrappers pass straight through
    otherwise, so checks run between calls are not traced."""

    def __init__(self):
        self.active = False
        self.stack: list[list] = []  # [name, child seconds]
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.by_parent: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, perf_counter() - start)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def _close(self, frame, duration):
        stack = self.stack
        stack.pop()
        name = frame[0]
        self.self_seconds[name] += duration - frame[1]
        parent = stack[-1][0] if stack else None
        self.by_parent[name, parent] += duration
        if stack:
            stack[-1][1] += duration
        if all(f[0] != name for f in stack):
            self.calls[name] += 1
            self.seconds[name] += duration

    def layer_metrics(self, n_calls: int) -> dict[str, float]:
        """Per-call layer metrics over ``n_calls`` traced workload calls."""
        c, s, own, bp, k = (self.calls, self.seconds, self.self_seconds,
                            self.by_parent, self.counters)
        n = max(n_calls, 1)
        out = {}
        for layer in ("sketch", "dataset", "partition", "error", "fit",
                      "assign", "oracle", "am"):
            out[f"{layer}.calls"] = c[layer] / n
            out[f"{layer}.s"] = s[layer] / n
        out["fit.points"] = k["fit.points"] / n
        out["assign.points"] = k["assign.points"] / n
        out["assign.ties"] = k["assign.ties"] / n
        out["oracle.self_s"] = own["oracle"] / n
        out["oracle.labelings"] = k["oracle.labelings"] / n
        out["oracle.us_per_labeling"] = (
            1e6 * s["oracle"] / k["oracle.labelings"] if k["oracle.labelings"] else 0.0
        )
        out["am.self_s"] = own["am"] / n
        out["am.iterations"] = k["am.iterations"] / n
        out["am.iters_per_restart"] = k["am.iterations"] / c["am"] if c["am"] else 0.0
        requested = k["solve.restarts_requested"]
        out["am.restarts_used_ratio"] = (
            k["solve.restarts_used"] / requested if requested else 0.0
        )
        out["reduced_solve.s"] = (bp["oracle", "pipeline"] + bp["solve", "pipeline"]) / n
        out["reduced_solve.certified_ratio"] = (
            k["pipeline.certified"] / c["pipeline"] if c["pipeline"] else 0.0
        )
        out["lift.s"] = (bp["fit", "pipeline"] + bp["error", "pipeline"]) / n
        out["pipeline.self_s"] = own["pipeline"] / n
        out["e0_oracle.s"] = bp["oracle", "experiment"] / n
        out["synthetic.s"] = s["synthetic"] / n
        out["report.s"] = s["report"] / n
        out["experiment.self_s"] = own["experiment"] / n
        return out


def _unionfit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "unionfit" or name.startswith("unionfit."))]


@contextmanager
def installed(recorder: Recorder):
    """Install every wrapper for the duration of the block.

    Yields the list of patched ``(module name, attribute)`` sites.  Raises
    AttributeError if a mapped name no longer resolves, so a rename fails
    loudly instead of reporting zero time.
    """
    patches = []  # (owner, attribute, original)
    try:
        modules = _unionfit_modules()
        for name, (modname, attr, hook) in FUNCTIONS.items():
            original = getattr(importlib.import_module(modname), attr)
            wrapped = recorder.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for name, (modname, cls_name) in CONSTRUCTORS.items():
            cls = getattr(importlib.import_module(modname), cls_name)
            init = cls.__dict__["__init__"]
            patches.append((cls, "__init__", init))
            setattr(cls, "__init__", recorder.wrap(name, init))
            # Alternate constructors (Partition.from_labels) build through
            # cls(...); their whole body counts as construction.
            for attr, desc in list(vars(cls).items()):
                if isinstance(desc, classmethod):
                    patches.append((cls, attr, desc))
                    setattr(cls, attr, classmethod(recorder.wrap(name, desc.__func__)))
        modname, attr = JSON_DUMP_SITE
        mod = importlib.import_module(modname)
        original = getattr(mod, attr)
        if original is not json:
            raise AttributeError(f"{modname}.{attr} is not the json module")
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dump = recorder.wrap("report", json.dump)
        patches.append((mod, attr, original))
        setattr(mod, attr, proxy)
        yield [(getattr(owner, "__name__", owner), key) for owner, key, _ in patches]
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
