"""Search for the best union-of-subspaces model: multi-restart alternating
minimization plus an exhaustive oracle that certifies the optimum on small
instances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvalidInit, OutOfRange
from .fitting import (
    best_subspace_residuals,
    bundle_from_partition,
    partition_from_bundle,
)
from .metrics import bundle_error
from .model import SEED_MASK, Bundle, DataSet, Partition

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100
DEFAULT_ORACLE_BUDGET = 10_000_000

# The oracle scores labelings in batches of at most this many floats per
# stacked array: a batch of c labelings stacks c * l slices, bases and
# residual tables of N x m.  Batches amortize the per-call cost of the
# stacked SVDs and matmuls; the cap keeps peak memory flat for tall data.
# At N = 20, m = 12, l = 2 a batch holds 136 labelings.
ORACLE_BATCH_FLOATS = 1 << 16


@dataclass(frozen=True)
class SolveReport:
    """Solver output; ``error`` always equals the bundle error of ``bundle``.

    ``certified_optimal`` is True only for reports produced by the
    exhaustive oracle.  ``iterations`` and ``error_traces`` hold one entry
    per restart (empty for the oracle); ``winner`` indexes the restart the
    returned model came from.  ``seed`` is meaningful only for reports
    produced by :func:`solve_best_model`.
    """

    bundle: Bundle
    partition: Partition
    error: float
    restarts_used: int
    iterations: tuple[int, ...]
    seed: int
    certified_optimal: bool
    error_traces: tuple[tuple[float, ...], ...]
    winner: int


def _check_model_dims(data: DataSet, n_subspaces: int, max_dim: int) -> None:
    if not 1 <= n_subspaces < data.count:
        raise OutOfRange(
            f"need 1 <= n_subspaces < m, got n_subspaces={n_subspaces} "
            f"for {data.count} points"
        )
    if not 0 <= max_dim < data.ambient_dim:
        raise OutOfRange(
            f"need 0 <= max_dim < ambient dimension, got max_dim={max_dim} "
            f"in dimension {data.ambient_dim}"
        )


def _reseed_empty_groups(partition: Partition, dist2: np.ndarray) -> Partition:
    """Move the worst-fit point into each empty group.

    Points are taken in descending residual order and never drained from a
    group that would become empty itself; ties break toward the lowest
    point index so the repair is deterministic.
    """
    sizes = [len(g) for g in partition.groups]
    empties = [i for i, size in enumerate(sizes) if size == 0]
    if not empties:
        return partition
    labels = partition.labels()
    order = np.argsort(-dist2, kind="stable")
    moved: set[int] = set()
    for target in empties:
        for j in order:
            j = int(j)
            if j in moved or sizes[labels[j]] <= 1:
                continue
            sizes[labels[j]] -= 1
            labels[j] = target
            sizes[target] = 1
            moved.add(j)
            break
    return Partition.from_labels(labels, len(partition.groups))


def alternate_minimize(
    data: DataSet,
    n_subspaces: int,
    max_dim: int,
    init: Partition,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Alternate group-wise fitting and nearest-subspace assignment.

    Each iteration fits a bundle to the current partition and reassigns
    points to their nearest subspace, so the error sequence never
    increases.  The loop stops at a stable partition, when the relative
    improvement drops below ``tol``, or after ``max_iter`` iterations.
    If a reassignment empties a group, the group is reseeded with the
    single worst-fit point before the next round.
    """
    _check_model_dims(data, n_subspaces, max_dim)
    if max_iter < 1:
        raise OutOfRange("max_iter must be at least 1")
    if not isinstance(init, Partition):
        raise InvalidInit("init must be a Partition")
    if init.count != data.count or len(init.groups) != n_subspaces:
        raise InvalidInit(
            f"init covers {init.count} points in {len(init.groups)} groups, "
            f"expected {data.count} points in {n_subspaces} groups"
        )

    current = init
    errors: list[float] = []
    bundle = None
    partition = init
    for _ in range(max_iter):
        bundle = bundle_from_partition(data, current, max_dim)
        partition, trace = partition_from_bundle(data, bundle)
        err = float(np.sum(trace.dist2))
        errors.append(err)
        if partition == current:
            # Exact fixpoint: the bundle is generated by the returned
            # partition and vice versa.
            break
        if len(errors) >= 2 and errors[-2] - err <= tol * max(errors[-2], 1e-300):
            break
        current = _reseed_empty_groups(partition, trace.dist2)

    return SolveReport(
        bundle=bundle,
        partition=partition,
        error=errors[-1],
        restarts_used=1,
        iterations=(len(errors),),
        seed=0,
        certified_optimal=False,
        error_traces=(tuple(errors),),
        winner=0,
    )


def random_partition(
    count: int, n_groups: int, seed: int, restart: int = 0
) -> Partition:
    """Uniformly random labeling of points, keyed by (seed, restart)."""
    rng = np.random.default_rng([seed & SEED_MASK, restart])
    return Partition.from_labels(rng.integers(0, n_groups, size=count), n_groups)


def solve_best_model(
    data: DataSet,
    n_subspaces: int,
    max_dim: int,
    restarts: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    stop_below: float | None = None,
) -> SolveReport:
    """Best alternating-minimization result over seeded random restarts.

    Restart r starts from a uniformly random labeling drawn from
    (seed, r), so results are reproducible and independent of scheduling.
    With ``stop_below`` set, remaining restarts are skipped as soon as a
    model at or below that error is found (the result is still
    deterministic); by default all restarts run.
    """
    if restarts < 1:
        raise OutOfRange("restarts must be at least 1")
    _check_model_dims(data, n_subspaces, max_dim)
    best: SolveReport | None = None
    best_index = 0
    iterations: list[int] = []
    traces: list[tuple[float, ...]] = []
    used = 0
    for r in range(restarts):
        init = random_partition(data.count, n_subspaces, seed, r)
        report = alternate_minimize(
            data, n_subspaces, max_dim, init, tol=tol, max_iter=max_iter
        )
        used += 1
        iterations.append(report.iterations[0])
        traces.append(report.error_traces[0])
        if best is None or report.error < best.error:
            best = report
            best_index = r
        if stop_below is not None and best.error <= stop_below:
            break
    return SolveReport(
        bundle=best.bundle,
        partition=best.partition,
        error=best.error,
        restarts_used=used,
        iterations=tuple(iterations),
        seed=seed,
        certified_optimal=False,
        error_traces=tuple(traces),
        winner=best_index,
    )


def within_budget(n_subspaces: int, count: int, budget: int) -> bool:
    """True when the oracle's l^m labelings fit the enumeration budget."""
    return n_subspaces**count <= budget


def _canonical_labelings(count: int, n_groups: int, batch: int):
    """Restricted-growth strings in lexicographic order, ``batch`` at a time.

    A labeling is canonical when each label first appears after every
    smaller label (Knuth, TAOCP 4A, 7.2.1.5).  It is the lexicographically
    first labeling of its class under permutations of the group labels,
    and each class has exactly one.  Yields int arrays of shape
    (<= batch, count); the enumeration is iterative, so any ``count``
    works.
    """
    labels = [0] * count
    top = [0] * count  # top[j] = max(labels[: j + 1])
    block = []
    while True:
        block.append(labels.copy())
        if len(block) == batch:
            yield np.array(block)
            block = []
        # The rightmost position that may still grow, given its prefix.
        j = count - 1
        while j > 0 and labels[j] == min(n_groups - 1, top[j - 1] + 1):
            j -= 1
        if j == 0:
            break
        labels[j] += 1
        top[j] = max(top[j - 1], labels[j])
        labels[j + 1 :] = [0] * (count - j - 1)
        top[j + 1 :] = [top[j]] * (count - j - 1)
    if block:
        yield np.array(block)


def brute_force_oracle(
    data: DataSet,
    n_subspaces: int,
    max_dim: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> SolveReport:
    """Certified optimum by enumerating every labeling of points into groups.

    Every labeling is fitted and evaluated with the reassigned bundle
    error, so the returned value is the true minimum over all bundles.
    Relabeling the groups permutes the fitted subspaces and the rows of
    the distance table, which leaves the error bit-identical, so only one
    canonical labeling per permutation class is scored: sum over j <= l of
    S(m, j), about l^m / l!.  The first strict minimum in lexicographic
    order is canonical, so the result equals that of all l^m labelings.
    The budget still counts l^m.  The returned partition is the
    nearest-subspace assignment under the optimal bundle, which also
    generates that bundle (up to numerical error).
    """
    _check_model_dims(data, n_subspaces, max_dim)
    if budget < 1:
        raise OutOfRange("budget must be positive")
    if not within_budget(n_subspaces, data.count, budget):
        raise BudgetExceeded(n_subspaces**data.count, budget)

    best_error = np.inf
    best_labels = None
    groups = np.arange(n_subspaces)[:, None]
    batch = max(1, ORACLE_BATCH_FLOATS // (n_subspaces * data.points.size))
    for labels in _canonical_labelings(data.count, n_subspaces, batch):
        members = (labels[:, None, :] == groups).reshape(-1, data.count)
        table = best_subspace_residuals(data.points, members, max_dim)
        table = table.reshape(len(labels), n_subspaces, data.count)
        errors = np.sum(np.min(table, axis=1), axis=1)
        i = int(np.argmin(errors))
        if errors[i] < best_error:
            best_error = errors[i]
            best_labels = labels[i]

    best = Partition.from_labels(best_labels, n_subspaces)
    best_bundle = bundle_from_partition(data, best, max_dim)
    partition, _ = partition_from_bundle(data, best_bundle)
    return SolveReport(
        bundle=best_bundle,
        partition=partition,
        error=bundle_error(data, best_bundle),
        restarts_used=0,
        iterations=(),
        seed=0,
        certified_optimal=True,
        error_traces=(),
        winner=0,
    )
