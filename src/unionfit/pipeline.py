"""The reduce / solve / lift procedure and its closed-form error bounds.

A unit-Frobenius dataset is sketched to dimension r, the best partition
is found there (by ``SolverConfig``'s one rule: the certified oracle when
l^m fits its budget, else seeded restarts), and the partition is refit
against the original points.  The lifted error is
compared against the closed-form budget (1+eps) e0 + eps sqrt(l (d-k)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotNormalized,
    OutOfRange,
    check_bound_shape,
    require_acts_on,
    require_budget,
    require_finite,
    require_int,
    require_unit_interval,
)
from .fitting import bundle_from_partition
from .metrics import as_columns, bundle_error, ek_min_error
from .model import Bundle, DataSet, Partition
from .projection import RandomSpec, sample_matrix
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_ORACLE_BUDGET,
    DEFAULT_TOL,
    SolveReport,
    brute_force_oracle,
    solve_best_model,
    within_budget,
)

# How far from 1 the Frobenius norm may sit before the pipeline refuses.
NORMALIZATION_TOL = 1e-9

# Absolute slack used when comparing an observed error against a bound.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for every solve, validated on construction: the reduced-space
    solve, and the full-space ones of CLI ``solve``, the trial's
    identity-sketch fallback and its ``e0`` oracle."""

    restarts: int = 50
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    oracle_budget: int = DEFAULT_ORACLE_BUDGET
    seed: int = 0
    stop_below: float | None = None

    def __post_init__(self):
        for name in ("restarts", "max_iter"):
            require_int(name, getattr(self, name), minimum=1)
        require_budget("oracle_budget", self.oracle_budget)
        require_int("seed", self.seed)
        require_finite("tol", self.tol, minimum=0)
        if self.stop_below is not None:
            require_finite("stop_below", self.stop_below)

    def solve(self, data: DataSet, n_subspaces: int, max_dim: int) -> SolveReport:
        """``solve_best_model`` with these settings."""
        return solve_best_model(
            data, n_subspaces, max_dim, restarts=self.restarts, seed=self.seed,
            tol=self.tol, max_iter=self.max_iter, stop_below=self.stop_below,
        )

    def certify(
        self, data: DataSet, n_subspaces: int, max_dim: int
    ) -> SolveReport | None:
        """The oracle's certified optimum when l^m fits ``oracle_budget``,
        else None: the one rule for when a space is solved exactly."""
        if not within_budget(n_subspaces, data.count, self.oracle_budget):
            return None
        return brute_force_oracle(data, n_subspaces, max_dim, budget=self.oracle_budget)


@dataclass(frozen=True)
class LiftReport:
    """Outcome of one reduce/solve/lift run.

    ``e0`` and ``epsilon`` echo the caller's arguments;
    ``bound_value``/``bound_satisfied``/``bound_informative`` are filled
    only when both are given.  A bound is informative when it lies below
    ``||F||_F^2``, the error of any bundle at 0, which no lift exceeds; a
    bound at or above it is satisfied by arithmetic alone.
    When the reduced instance exceeded the oracle budget the partition is
    only best-found, flagged by ``reduced_certified_optimal``.
    """

    reduced_partition: Partition
    lifted_bundle: Bundle
    lifted_error: float
    reduced_error: float
    epsilon: float | None
    e0: float | None
    r: int
    bound_value: float | None
    bound_satisfied: bool | None
    bound_informative: bool | None
    reduced_certified_optimal: bool


def theorem_bound(e0: float, epsilon: float, n_subspaces: int, d: int, k: int) -> float:
    """Lifted-error budget (1+eps) e0 + eps sqrt(l (d-k)); raises OutOfRange
    when it exceeds the float range."""
    require_unit_interval("epsilon", epsilon)
    check_bound_shape(n_subspaces, d, k)
    require_finite("e0", e0, minimum=0, error=OutOfRange)
    bound = (1.0 + epsilon) * e0 + epsilon * math.sqrt(n_subspaces * (d - k))
    require_finite("theorem_bound", bound, error=OutOfRange)
    return bound


def break_even_epsilon(e0: float, n_subspaces: int, d: int, k: int) -> float | None:
    """The epsilon at which theorem_bound reaches ||F||_F^2 = 1, the error of
    any bundle on unit-Frobenius data: (1 - e0) / (e0 + sqrt(l (d-k))).  The
    bound says something about the sketch only for epsilon below it.  None
    when no epsilon > 0 does (e0 >= 1); the largest float when every one
    does, as when d = k and e0 = 0."""
    check_bound_shape(n_subspaces, d, k)
    require_finite("e0", e0, minimum=0, error=OutOfRange)
    if e0 >= 1.0:
        return None
    denominator = e0 + math.sqrt(n_subspaces * (d - k))
    if denominator == 0.0:
        return sys.float_info.max
    return min((1.0 - e0) / denominator, sys.float_info.max)


def eta_admissibility_epsilon(eta: float, n_subspaces: int, d: int, k: int) -> float:
    """The concentration eps that turns the lifted-error budget into e0 + eta."""
    require_unit_interval("eta", eta)
    check_bound_shape(n_subspaces, d, k)
    return eta / (1.0 + math.sqrt(n_subspaces * (d - k)))


def min_reduced_dim(
    eta: float, delta: float, n_subspaces: int, d: int, k: int, count: int
) -> int:
    """Smallest sketch dimension guaranteeing error e0 + eta with
    probability 1 - delta (for the gaussian / two-point families); raises
    OutOfRange when that dimension exceeds the float range."""
    require_unit_interval("eta", eta)
    require_unit_interval("delta", delta)
    check_bound_shape(n_subspaces, d, k, count)
    try:
        coeff = 12.0 * (1.0 + math.sqrt(n_subspaces * (d - k))) ** 2 / (eta * eta)
        r = coeff * math.log((2.0 * count * count + 4.0 * count) / delta)
    except (OverflowError, ZeroDivisionError):  # past the float range
        r = math.inf
    require_finite("min_reduced_dim", r, error=OutOfRange)
    return max(1, math.ceil(r))


def gram_distortion(data, matrix) -> float:
    """Frobenius norm of M^T M - M^T A^T A M (how much the sketch bends
    the Gram matrix)."""
    pts = as_columns(data)
    sketched = require_acts_on(matrix, pts.shape[0]) @ pts
    return float(np.linalg.norm(pts.T @ pts - sketched.T @ sketched))


def ek_perturbation_check(
    slice_, matrix, k: int, d: int
) -> tuple[float, float, bool]:
    """Stability of the minimal rank-k error under sketching.

    Returns (lhs, rhs, ok) for
    |E_k(S) - E_k(AS)| <= sqrt(d - k) * ||S^T S - S^T A^T A S||, where d
    is the rank of the dataset the slice came from.
    """
    check_bound_shape(1, d, k)
    pts = as_columns(slice_)
    a = require_acts_on(matrix, pts.shape[0])
    lhs = abs(ek_min_error(pts, k) - ek_min_error(a @ pts, k))
    rhs = math.sqrt(d - k) * gram_distortion(pts, a)
    return lhs, rhs, lhs <= rhs + BOUND_SLACK


def _require_normalized(data: DataSet) -> None:
    """The pipeline's precondition: ``data`` has unit Frobenius norm."""
    if abs(data.frobenius_norm - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(
            f"dataset has Frobenius norm {data.frobenius_norm!r}; "
            "normalize it before reducing"
        )


def reduce_solve_lift(
    data: DataSet,
    spec: RandomSpec,
    n_subspaces: int,
    max_dim: int,
    solver_cfg: SolverConfig | None = None,
    *,
    epsilon: float | None = None,
    e0: float | None = None,
    matrix: np.ndarray | None = None,
) -> LiftReport:
    """Sketch the data, solve for the best partition there, refit in full space.

    ``data`` must have unit Frobenius norm, checked before anything else.
    The reduced instance is solved by ``certify`` when l^m fits the
    configured budget, otherwise by seeded multi-restart alternation
    (``solve``); :func:`lift` then refits the partition.  Passing
    ``matrix`` bypasses sampling: tests inject lossless embeddings.
    """
    _require_normalized(data)
    cfg = solver_cfg if solver_cfg is not None else SolverConfig()
    a = sample_matrix(spec) if matrix is None else np.asarray(matrix, dtype=float)
    shape = (spec.reduced_dim, spec.ambient_dim)
    if a.shape != shape or spec.ambient_dim != data.ambient_dim:
        raise DimensionMismatch(f"a sketch of shape {a.shape} (spec {shape}) cannot "
                                f"act on points of dimension {data.ambient_dim}")

    reduced = DataSet(a @ data.points)
    report = cfg.certify(reduced, n_subspaces, max_dim)
    if report is None:
        report = cfg.solve(reduced, n_subspaces, max_dim)
    return lift(data, report, n_subspaces, max_dim, spec.reduced_dim, epsilon, e0)


def lift(data: DataSet, report: SolveReport, n_subspaces: int, max_dim: int,
         r: int, epsilon: float | None, e0: float | None) -> LiftReport:
    """Refit against unit-Frobenius ``data`` the partition that ``report``
    solved in an r-dim sketch of it; the bound is checked when both ``e0``
    and ``epsilon`` are given."""
    _require_normalized(data)
    lifted = bundle_from_partition(data, report.partition, max_dim)
    lifted_error = bundle_error(data, lifted)
    bound = satisfied = informative = None
    if e0 is not None and epsilon is not None:
        # Data of rank below k fits every group exactly: d = k, a zero term.
        d = max(data.numerical_rank, max_dim)
        bound = theorem_bound(e0, epsilon, n_subspaces, d, max_dim)
        satisfied = bool(lifted_error <= bound + BOUND_SLACK)
        informative = bool(bound < data.frobenius_norm**2)
    return LiftReport(
        reduced_partition=report.partition,
        lifted_bundle=lifted,
        lifted_error=lifted_error,
        reduced_error=report.error,
        epsilon=epsilon,
        e0=e0,
        r=r,
        bound_value=bound,
        bound_satisfied=satisfied,
        bound_informative=informative,
        reduced_certified_optimal=report.certified_optimal,
    )
