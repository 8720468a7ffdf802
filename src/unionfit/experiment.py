"""Config-driven Monte Carlo runner producing reproducible CSV/JSON reports.

Every number in the per-trial CSV is a deterministic function of the
config and the master seed: trial-level randomness is derived from
(master_seed, trial, purpose) key material, and wall-clock timings are
reported only in the JSON summary, which is not covered by the
byte-identical rerun guarantee.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    InvalidSpec,
    check_model_dims,
    require_choice,
    require_instance,
    require_int,
    require_unit_interval,
)
from .io import load_dataset
from .metrics import bundle_error
from .model import SEED_MASK, DataSet, normalize_dataset
from .pipeline import (
    BOUND_SLACK,
    LiftReport,
    SolverConfig,
    eta_admissibility_epsilon,
    lift,
    min_reduced_dim,
    reduce_solve_lift,
)
from .projection import DISTRIBUTIONS, RandomSpec
from .synthetic import SyntheticSpec, generate_synthetic

ROW_FIELDS = (
    "trial",
    "r",
    "epsilon",
    "e0",
    "reduced_error",
    "lifted_error",
    "bound_value",
    "bound_satisfied",
)


@dataclass(frozen=True)
class ReductionConfig:
    """Sketch settings: either a fixed r, or (eta, delta) to derive both
    r and the bound epsilon from the closed-form minimum.  In (eta, delta)
    mode epsilon is derived, so giving one is an error."""

    distribution: str = "gaussian"
    r: int | None = None
    eta: float | None = None
    delta: float | None = None
    epsilon: float | None = None  # bound epsilon when r is fixed

    def __post_init__(self):
        require_choice("distribution", self.distribution, DISTRIBUTIONS)
        for name in ("epsilon", "eta", "delta"):
            if getattr(self, name) is not None:
                require_unit_interval(name, getattr(self, name), InvalidSpec)
        fixed = self.r is not None
        auto = self.eta is not None or self.delta is not None
        if fixed and auto:
            raise InvalidSpec("give either r or (eta, delta), not both")
        if fixed:
            require_int("r", self.r, minimum=1)
        elif self.eta is None or self.delta is None:
            raise InvalidSpec("auto mode needs both eta and delta")
        elif self.epsilon is not None:
            raise InvalidSpec("epsilon is derived from eta in (eta, delta) mode; "
                              "remove it")


def run_trial(
    data: DataSet,
    n_subspaces: int,
    max_dim: int,
    reduction: ReductionConfig,
    solver_cfg: SolverConfig,
    sketch_seed: int,
    certify=None,
) -> LiftReport:
    """One sketch/solve/lift trial on unit-Frobenius ``data``.

    r and the bound epsilon come from ``reduction`` (fixed r, or the
    closed-form minimum for (eta, delta)) before any solve, and e0 from
    ``solver_cfg.certify`` (None past the oracle budget), or from
    ``certify``, called the same way, when one is given.  A derived r of
    at least N would sketch by the identity, so the full-space report
    (certified, else one ``solver_cfg.solve``) is lifted as the reduced
    one, and r reads N.
    """
    if reduction.r is not None:
        r, epsilon = reduction.r, reduction.epsilon
    else:
        d = max(data.numerical_rank, max_dim)  # rank below k: fits as at d = k
        r = min_reduced_dim(
            reduction.eta, reduction.delta, n_subspaces, d, max_dim, data.count
        )
        epsilon = eta_admissibility_epsilon(reduction.eta, n_subspaces, d, max_dim)

    certified = (certify or solver_cfg.certify)(data, n_subspaces, max_dim)
    e0 = None if certified is None else certified.error
    if reduction.r is None and r >= data.ambient_dim:
        report = certified or solver_cfg.solve(data, n_subspaces, max_dim)
        return lift(data, report, n_subspaces, max_dim, data.ambient_dim, epsilon, e0)
    spec = RandomSpec(reduction.distribution, r, data.ambient_dim, seed=sketch_seed)
    return reduce_solve_lift(
        data, spec, n_subspaces, max_dim, solver_cfg, epsilon=epsilon, e0=e0
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see :func:`config_from_dict`."""

    n_subspaces: int
    max_dim: int
    reduction: ReductionConfig
    trials: int
    master_seed: int
    synthetic: SyntheticSpec | None = None
    dataset_file: str | None = None
    file_header: bool = False
    solver: SolverConfig = field(default_factory=SolverConfig)
    rows_path: str | None = None
    summary_path: str | None = None

    def __post_init__(self):
        if (self.synthetic is None) == (self.dataset_file is None):
            raise InvalidSpec("exactly one dataset source (synthetic or file) "
                              "must be configured")
        require_int("trials", self.trials, minimum=0)
        require_int("master_seed", self.master_seed)
        if self.synthetic is not None:
            _check_dims(self, self.synthetic.n_points, self.synthetic.ambient_dim)
        else:
            require_int("n_subspaces", self.n_subspaces, minimum=1)
            require_int("max_dim", self.max_dim, minimum=0)
        for name in ("dataset_file", "rows_path", "summary_path"):
            if getattr(self, name) is not None:
                require_instance(name, getattr(self, name), (str, Path))
        require_instance("file_header", self.file_header, (bool,))


def _check_dims(cfg: ExperimentConfig, count: int, ambient_dim: int) -> None:
    """The solvers' model rule for the data and, with a fixed r, its sketch."""
    for dim in (ambient_dim, cfg.reduction.r):
        if dim is not None:
            check_model_dims(cfg.n_subspaces, cfg.max_dim, count, dim, InvalidSpec)


@dataclass
class ExperimentResult:
    rows: list[dict]
    summary: dict
    exit_code: int


def derive_seed(master_seed: int, *path: int) -> int:
    """64-bit seed derived deterministically from (master, *path)."""
    entropy = [master_seed & SEED_MASK, *[p & SEED_MASK for p in path]]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _check_keys(section: dict, known, where: str) -> None:
    unknown = set(section) - set(known)
    if unknown:
        raise InvalidSpec(f"unknown keys in {where}: {sorted(unknown)}")


def _section(raw: dict, key: str, known=None) -> dict:
    """``raw[key]`` as a JSON object with no key outside ``known`` (a
    dataclass checks its own keys) and no seed; missing or null is empty."""
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise InvalidSpec(f"config section {key!r} must be a JSON object")
    if known is not None:
        _check_keys(value, known, repr(key))
    if "seed" in value:
        raise InvalidSpec(f"{key} seed is derived from master_seed; "
                          "remove it from the config")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from a plain dict (parsed JSON)."""
    if not isinstance(raw, dict):
        raise InvalidSpec("config must be a JSON object")
    _check_keys(raw, ("dataset", "model", "reduction", "solver", "trials",
                      "master_seed", "output"), "config")

    dataset = raw.get("dataset")
    if not isinstance(dataset, dict) or len(dataset) != 1:
        raise InvalidSpec('config needs a dataset: {"synthetic": {...}} or '
                          '{"file": "path"}')
    synthetic = None
    dataset_file = None
    file_header = False
    if "synthetic" in dataset:
        try:
            synthetic = SyntheticSpec(**_section(dataset, "synthetic"))
        except TypeError as exc:
            raise InvalidSpec(f"bad synthetic spec: {exc}") from exc
    elif "file" in dataset:
        entry = dataset["file"]
        entry = entry if isinstance(entry, dict) else {"path": entry}
        _check_keys(entry, ("path", "header"), "'file'")
        if "path" not in entry:
            raise InvalidSpec('a file dataset object needs a "path"')
        dataset_file, file_header = entry["path"], entry.get("header", False)
    else:
        raise InvalidSpec(f"unknown dataset source {sorted(dataset)}")

    model = _section(raw, "model", ("n_subspaces", "max_dim"))
    n_subspaces = model.get("n_subspaces", synthetic.n_subspaces if synthetic else None)
    max_dim = model.get("max_dim", synthetic.max_dim if synthetic else None)
    if n_subspaces is None or max_dim is None:
        raise InvalidSpec("file datasets need an explicit model section")

    try:
        reduction = ReductionConfig(**_section(raw, "reduction"))
        solver = SolverConfig(**_section(raw, "solver"))
    except TypeError as exc:
        raise InvalidSpec(f"bad reduction/solver section: {exc}") from exc

    output = _section(raw, "output", ("rows", "summary"))
    return ExperimentConfig(
        n_subspaces=n_subspaces,
        max_dim=max_dim,
        reduction=reduction,
        trials=raw.get("trials", 0),
        master_seed=raw.get("master_seed", 0),
        synthetic=synthetic,
        dataset_file=dataset_file,
        file_header=file_header,
        solver=solver,
        rows_path=output.get("rows"),
        summary_path=output.get("summary"),
    )


def load_config(path) -> ExperimentConfig:
    with Path(path).open() as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(raw)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _trial_dataset(cfg: ExperimentConfig, trial: int, file_data) -> DataSet:
    if cfg.synthetic is not None:
        spec = replace(cfg.synthetic, seed=derive_seed(cfg.master_seed, trial, 0))
        return generate_synthetic(spec)[0]
    return file_data


def _certify_once(solver_cfg: SolverConfig):
    """``solver_cfg.certify`` run on its first call only, whose report every
    later call returns: every trial of a file experiment certifies the same
    data, and the oracle reads no seed."""
    reports = []

    def certify(data: DataSet, n_subspaces: int, max_dim: int):
        if not reports:
            reports.append(solver_cfg.certify(data, n_subspaces, max_dim))
        return reports[0]

    return certify


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured trials; returns rows, summary, and an exit code.

    A file dataset is certified (its ``e0``) once, for every trial.
    The exit code is 1 only when a hard internal invariant failed
    (non-finite or inconsistent errors, or a lifted error below e0 or
    above ||F||_F^2, the error of any bundle at 0), never for a violated
    probabilistic bound; those are merely counted.  An output path in a
    missing directory raises ``InvalidSpec`` before any trial runs.
    """
    for path in (cfg.rows_path, cfg.summary_path):
        if path is not None and not Path(path).parent.is_dir():
            raise InvalidSpec(f"output directory {Path(path).parent} does not exist")
    t_start = time.perf_counter()
    file_data = None
    if cfg.dataset_file is not None:
        file_data = normalize_dataset(
            load_dataset(cfg.dataset_file, header=cfg.file_header)
        )
        _check_dims(cfg, file_data.count, file_data.ambient_dim)
    certify = None if file_data is None else _certify_once(cfg.solver)

    rows: list[dict] = []
    per_trial_seconds: list[float] = []
    bound_checked = 0
    bound_informative = 0
    bound_violations = 0
    hard_failures: list[str] = []

    for trial in range(cfg.trials):
        t_trial = time.perf_counter()
        data = _trial_dataset(cfg, trial, file_data)
        report = run_trial(
            data,
            cfg.n_subspaces,
            cfg.max_dim,
            cfg.reduction,
            replace(cfg.solver, seed=derive_seed(cfg.master_seed, trial, 2)),
            sketch_seed=derive_seed(cfg.master_seed, trial, 1),
            certify=certify,
        )

        recomputed = bundle_error(data, report.lifted_bundle)
        if not np.isfinite([report.lifted_error, report.reduced_error]).all():
            hard_failures.append(f"trial {trial}: non-finite error")
        elif abs(recomputed - report.lifted_error) > 1e-10:
            hard_failures.append(f"trial {trial}: inconsistent lifted error")
        elif report.e0 is not None and report.lifted_error < report.e0 - 1e-9:
            hard_failures.append(f"trial {trial}: lifted error below the optimum")
        elif report.lifted_error > data.frobenius_norm**2 + BOUND_SLACK:
            hard_failures.append(f"trial {trial}: lifted error above ||F||_F^2")
        if report.bound_satisfied is not None:
            bound_checked += 1
            bound_informative += report.bound_informative
            if not report.bound_satisfied:
                bound_violations += 1

        rows.append(
            {"trial": trial, **{f: getattr(report, f) for f in ROW_FIELDS[1:]}}
        )
        per_trial_seconds.append(time.perf_counter() - t_trial)

    summary = {
        "config_echo": asdict(cfg),
        "totals": {
            "trials": cfg.trials,
            "bound_checked": bound_checked,
            "bound_informative": bound_informative,
        },
        "violations": {
            "bound": bound_violations,
            "hard": len(hard_failures),
            "hard_detail": hard_failures,
        },
        "elapsed_seconds": time.perf_counter() - t_start,
        "per_trial_seconds": per_trial_seconds,
    }
    result = ExperimentResult(
        rows=rows, summary=summary, exit_code=1 if hard_failures else 0
    )
    if cfg.rows_path is not None:
        write_rows_csv(rows, cfg.rows_path)
    if cfg.summary_path is not None:
        # Paths given as pathlib.Path are echoed as strings.
        text = json.dumps(summary, indent=2, default=os.fspath)
        Path(cfg.summary_path).write_text(text + "\n")
    return result


def rows_to_csv_text(rows: list[dict]) -> str:
    lines = [",".join(ROW_FIELDS)]
    for row in rows:
        lines.append(",".join(_format_cell(row[name]) for name in ROW_FIELDS))
    return "\n".join(lines) + "\n"


def write_rows_csv(rows: list[dict], path) -> None:
    Path(path).write_text(rows_to_csv_text(rows))
