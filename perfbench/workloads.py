"""The three benchmark workloads: inputs, the timed call, and its checks.

Every input is derived from the workload seed given on the command line;
the program only sees the generated inputs.  Functions of unionfit are
looked up through their module at call time (``solver.solve_best_model``,
never a name bound at import), so the tracing wrappers see every call.

A workload also has a fixed *probe*: a few calls on inputs built from
``PROBE_SEED`` instead of the workload seed.  The probe runs before the
timed calls (it doubles as the warm-up) and gives ``model_error_mean``:
on one commit the probe returns the same models on every run, so the
metric moves only when a change makes the program return different
models, which per-seed inputs would hide under their own spread.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from unionfit import experiment, metrics, pipeline, solver, synthetic
from unionfit.pipeline import SolverConfig
from unionfit.projection import RandomSpec

PROBE_SEED = 1008_2804
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Tolerance between a reported error and bundle_error recomputed from the
# returned bundle; the same slack the experiment runner uses.
RECOMPUTE_TOL = 1e-10

ROW_FIELDS = ["trial", "r", "epsilon", "e0", "reduced_error", "lifted_error",
              "bound_value", "bound_satisfied"]


def call_seed(seed: int, index: int, stream: int = 0) -> int:
    """64-bit seed of input ``stream`` of call ``index`` under workload seed
    ``seed``."""
    state = np.random.SeedSequence([seed, index, stream]).generate_state(1, np.uint64)
    return int(state[0])


@dataclass
class Outcome:
    """What one call returned, as the benchmark reports it."""

    error: float
    problems: list[str]
    bound_held: bool | None = None


def _check_partition(partition, count: int, n_groups: int) -> list[str]:
    covered = sorted(j for group in partition.groups for j in group)
    problems = []
    if len(partition.groups) != n_groups:
        problems.append(f"partition has {len(partition.groups)} groups, not {n_groups}")
    if partition.count != count or covered != list(range(count)):
        problems.append("partition does not cover every point exactly once")
    return problems


def _check_error(data, bundle, reported: float) -> list[str]:
    if not math.isfinite(reported):
        return [f"non-finite error {reported!r}"]
    recomputed = metrics.bundle_error(data, bundle)
    if abs(recomputed - reported) > RECOMPUTE_TOL:
        return [f"reported error {reported!r} != recomputed {recomputed!r}"]
    return []


class Workload:
    name: str
    probe_calls: int

    def check_probe(self, state, index: int, args) -> list[str]:
        """Extra checks on probe call ``index``; none by default."""
        return []


class OracleCertify(Workload):
    """One trial of the certified experiment: N=20, l=2, k=1, m=12,
    sigma=0.05, gaussian r=4, eps=0.5, default oracle budget, with rows
    and summary written through the experiment's own output path."""

    name = "oracle_certify"
    probe_calls = 2
    RAW_CONFIG = {
        "dataset": {"synthetic": {"ambient_dim": 20, "n_subspaces": 2, "max_dim": 1,
                                  "n_points": 12, "noise_sigma": 0.05}},
        "reduction": {"distribution": "gaussian", "r": 4, "epsilon": 0.5},
        "trials": 1,
    }

    def setup(self, seed: int, workdir: Path):
        cfg = experiment.config_from_dict(self.RAW_CONFIG)
        return {"cfg": cfg, "seed": seed, "workdir": workdir}

    def inputs(self, state, index: int):
        out = state["workdir"]
        return replace(state["cfg"], master_seed=call_seed(state["seed"], index),
                       rows_path=str(out / "rows.csv"),
                       summary_path=str(out / "summary.json"))

    def call(self, state, cfg):
        return experiment.run_experiment(cfg)

    def check(self, state, cfg, result) -> Outcome:
        problems = []
        if result.exit_code != 0 or result.summary["violations"]["hard"]:
            problems.append(f"exit code {result.exit_code}, hard violations "
                            f"{result.summary['violations']['hard_detail']}")
        with open(cfg.rows_path, newline="") as fh:
            table = list(csv.reader(fh))
        if table[0] != ROW_FIELDS or len(table) != 2 or len(result.rows) != 1:
            return Outcome(math.nan, problems + [f"unexpected rows CSV {table!r}"])
        cells = dict(zip(ROW_FIELDS, table[1]))
        row = result.rows[0]
        lifted, e0 = float(cells["lifted_error"]), float(cells["e0"])
        if lifted != row["lifted_error"] or e0 != row["e0"]:
            problems.append("rows CSV disagrees with the returned rows")
        if not (math.isfinite(lifted) and math.isfinite(e0)):
            problems.append("non-finite error in rows CSV")
        elif lifted < e0:
            problems.append(f"lifted error {lifted!r} below the optimum {e0!r}")
        held = cells["bound_satisfied"] == "true"
        return Outcome(lifted, problems, bound_held=held)

    def check_probe(self, state, index: int, cfg) -> list[str]:
        """The probe's rows CSV must match, byte for byte, the reference
        recorded when the benchmark was introduced."""
        reference = REFERENCE_DIR / f"{self.name}_probe_{index}.csv"
        if Path(cfg.rows_path).read_bytes() != reference.read_bytes():
            return [f"rows CSV differs from {reference.name}"]
        return []


class SketchHeuristic(Workload):
    """One reduce_solve_lift on a fixed N=200, m=2000, l=4, k=3, sigma=0.01
    dataset; gaussian r=24, 5 restarts, sketch and solver seeds per call.
    l^m exceeds the oracle budget, so the reduced space is solved by AM."""

    name = "sketch_heuristic"
    probe_calls = 3

    def setup(self, seed: int, workdir: Path):
        spec = synthetic.SyntheticSpec(ambient_dim=200, n_subspaces=4, max_dim=3,
                                       n_points=2000, noise_sigma=0.01, seed=seed)
        data, _ = synthetic.generate_synthetic(spec)
        return {"data": data, "seed": seed}

    def inputs(self, state, index: int):
        seed = state["seed"]
        spec = RandomSpec("gaussian", reduced_dim=24, ambient_dim=200,
                          seed=call_seed(seed, index, 0))
        return spec, SolverConfig(restarts=5, seed=call_seed(seed, index, 1))

    def call(self, state, args):
        spec, cfg = args
        return pipeline.reduce_solve_lift(state["data"], spec, 4, 3, cfg)

    def check(self, state, args, report) -> Outcome:
        data = state["data"]
        problems = _check_error(data, report.lifted_bundle, report.lifted_error)
        problems += _check_partition(report.reduced_partition, data.count, 4)
        if report.reduced_certified_optimal:
            problems.append("reduced space was solved by the oracle, not by AM")
        return Outcome(report.lifted_error, problems)


class FullSolve(Workload):
    """One solve_best_model(restarts=4) in full space on N=200, m=1000,
    l=4, k=3, sigma=0.01 data, solver seed per call.

    Set-up draws a pool of DATASETS datasets and call ``i`` solves dataset
    ``i mod DATASETS``.  How many AM iterations a solve takes depends on
    its dataset (47 per call on average on one, 71 on another), so runs
    on a single dataset differed by their input more than by the code;
    a run over the pool averages that out."""

    name = "full_solve"
    probe_calls = 1
    DATASETS = 8

    def setup(self, seed: int, workdir: Path):
        pool = []
        for i in range(self.DATASETS):
            spec = synthetic.SyntheticSpec(ambient_dim=200, n_subspaces=4, max_dim=3,
                                           n_points=1000, noise_sigma=0.01,
                                           seed=call_seed(seed, i, 1))
            pool.append(synthetic.generate_synthetic(spec)[0])
        return {"pool": pool, "seed": seed}

    def inputs(self, state, index: int):
        pool = state["pool"]
        return pool[index % len(pool)], call_seed(state["seed"], index)

    def call(self, state, args):
        data, seed = args
        return solver.solve_best_model(data, 4, 3, restarts=4, seed=seed)

    def check(self, state, args, report) -> Outcome:
        data, _ = args
        problems = _check_error(data, report.bundle, report.error)
        problems += _check_partition(report.partition, data.count, 4)
        if report.restarts_used != 4:
            problems.append(f"{report.restarts_used} restarts used, expected 4")
        return Outcome(report.error, problems)


WORKLOADS = {w.name: w for w in (OracleCertify(), SketchHeuristic(), FullSolve())}

# Layers each workload must exercise (non-zero traced calls) and layers it
# must leave alone (zero calls), by span name.
EXPECTED_LAYERS = {
    "oracle_certify": (
        {"sketch", "dataset", "partition", "error", "fit", "assign", "oracle",
         "pipeline", "synthetic", "experiment", "report"},
        {"am", "solve"},
    ),
    "sketch_heuristic": (
        {"sketch", "dataset", "partition", "error", "fit", "assign", "am", "solve",
         "pipeline"},
        {"oracle", "synthetic", "experiment", "report"},
    ),
    "full_solve": (
        {"partition", "fit", "assign", "am", "solve"},
        {"sketch", "oracle", "pipeline", "dataset", "error", "synthetic",
         "experiment", "report"},
    ),
}
