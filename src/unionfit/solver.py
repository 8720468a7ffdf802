"""Search for the best union-of-subspaces model: multi-restart alternating
minimization plus an exhaustive oracle that certifies the optimum on small
instances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    InvalidInit,
    OutOfRange,
    check_model_dims,
    require_instance,
    require_int,
)
from .fitting import (
    best_subspace_residuals,
    bundle_from_partition,
    gram_basis,
    partition_from_bundle,
)
from .model import SEED_MASK, Bundle, DataSet, Partition, Subspace

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100
DEFAULT_ORACLE_BUDGET = 10_000_000

# The oracle scores labelings in batches of at most this many floats per
# stacked array: a batch of c labelings stacks c * l slices, bases and
# residual tables of N x m.  Batches amortize the per-call cost of the
# stacked SVDs and matmuls; the cap keeps peak memory flat for tall data.
# At N = 20, m = 12, l = 2 a batch holds 136 labelings.
ORACLE_BATCH_FLOATS = 1 << 16

# solve_best_model refits a restart with the SVD only when its Gram-fit
# error is within REFIT_REL * best + REFIT_ABS * ||X||_F^2 of the best
# restart's.  The returned model equals that of refitting every restart
# whenever a labeling's Gram-fit and SVD-fit errors agree within half of
# this slack.
REFIT_REL = 1e-9
REFIT_ABS = 1e-12


@dataclass(frozen=True)
class SolveReport:
    """Solver output; ``error`` equals the bundle error of ``bundle``
    (up to rounding for ``alternate_minimize(refit=False)``).

    ``certified_optimal`` is True only for reports produced by the
    exhaustive oracle.  ``iterations`` and ``error_traces`` hold one entry
    per restart (empty for the oracle); ``winner`` indexes the restart the
    returned model came from.  A trace lists the error after each
    iteration; its last entry is the SVD-refit error of the restart when
    that restart was refitted, else its last Gram-fit error.  ``seed`` is
    meaningful only for reports produced by :func:`solve_best_model`.
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


def _reseed_empty_groups(
    labels: np.ndarray, dist2: np.ndarray, n_groups: int
) -> np.ndarray:
    """Move the worst-fit point into each empty group of a label array.

    Points are taken in descending residual order and never drained from a
    group that would become empty itself; ties break toward the lowest
    point index so the repair is deterministic.
    """
    sizes = np.bincount(labels, minlength=n_groups)
    empties = np.flatnonzero(sizes == 0)
    if empties.size == 0:
        return labels
    labels = labels.copy()
    order = np.argsort(-dist2, kind="stable")
    for target in empties:
        # A moved point sits alone in its new group, so it is never moved
        # twice.
        j = next(j for j in order if sizes[labels[j]] > 1)
        sizes[labels[j]] -= 1
        labels[j] = target
        sizes[target] = 1
    return labels


def _svd_refit(
    data: DataSet, partition: Partition, max_dim: int
) -> tuple[Bundle, Partition, float]:
    """SVD fit of every group, then one nearest-subspace assignment."""
    bundle = bundle_from_partition(data, partition, max_dim)
    assigned, trace = partition_from_bundle(data, bundle)
    return bundle, assigned, float(np.sum(trace.dist2))


def alternate_minimize(
    data: DataSet,
    n_subspaces: int,
    max_dim: int,
    init: Partition,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    refit: bool = True,
) -> SolveReport:
    """Alternate group-wise fitting and nearest-subspace assignment.

    Each iteration fits a subspace to every group of the current labels
    and reassigns points to their nearest subspace, so the error sequence
    never increases (Tseng 2000; Aldroubi, Cabrelli and Molter 2008).  The
    loop stops at a stable labeling with no empty group, when the relative
    improvement drops below ``tol``, or after ``max_iter`` iterations.  If
    ``init`` or a reassignment leaves a group empty, the group is reseeded
    with the single worst-fit point before the next round.

    Inside the loop a group is fitted from its Gram matrix
    (``fitting.gram_basis``), and a group whose members did not change
    keeps its basis and its row of the distance table.  The labels fitted
    by the last iteration are then refitted once with the SVD
    (``bundle_from_partition``) and assigned once
    (``partition_from_bundle``), so the returned bundle, partition and
    error, which replaces the last trace entry, are those of the SVD path.

    With ``refit=False`` that closing pass is skipped: the report holds the
    last Gram fits as ``bundle``, the labels they were fitted from as
    ``partition`` and the loop's last error as ``error``.
    ``solve_best_model`` uses this to refit only restarts that can win.
    """
    check_model_dims(n_subspaces, max_dim, data.count, data.ambient_dim)
    require_int("max_iter", max_iter, minimum=1, error=OutOfRange)
    require_instance("init", init, (Partition,), InvalidInit)
    if init.count != data.count or init.n_groups != n_subspaces:
        raise InvalidInit(
            f"init covers {init.count} points in {init.n_groups} groups, "
            f"expected {data.count} points in {n_subspaces} groups"
        )

    points = data.points
    table = np.empty((n_subspaces, data.count))
    resid = np.empty_like(points)
    sq_norms = np.sum(points * points, axis=0)
    fitted_members: list[np.ndarray | None] = [None] * n_subspaces
    bases: list[np.ndarray | None] = [None] * n_subspaces
    labels = init.labels
    errors: list[float] = []
    for _ in range(max_iter):
        fitted = labels
        for g in range(n_subspaces):
            members = labels == g
            if fitted_members[g] is not None and np.array_equal(
                members, fitted_members[g]
            ):
                continue
            fitted_members[g] = members
            q = bases[g] = gram_basis(points[:, members], max_dim)
            if q.shape[1] == 0:
                table[g] = sq_norms
                continue
            np.matmul(q, q.T @ points, out=resid)
            np.subtract(points, resid, out=resid)
            np.multiply(resid, resid, out=resid)
            np.sum(resid, axis=0, out=table[g])
        labels = np.argmin(table, axis=0)
        dist2 = table[labels, np.arange(data.count)]
        err = float(np.sum(dist2))
        errors.append(err)
        # Only ``init`` can leave a group empty at a stable labeling; that
        # group is reseeded below instead of returned empty.
        if np.array_equal(labels, fitted) and np.all(
            np.bincount(labels, minlength=n_subspaces)
        ):
            break
        if len(errors) >= 2 and errors[-2] - err <= tol * max(errors[-2], 1e-300):
            break
        labels = _reseed_empty_groups(labels, dist2, n_subspaces)

    # The SVD pass below makes its own N x m temporaries; release the
    # buffer first so peak memory stays that of the SVD pass alone.
    del resid
    partition = Partition(fitted, n_subspaces)
    if refit:
        bundle, partition, errors[-1] = _svd_refit(data, partition, max_dim)
    else:
        bundle = Bundle(tuple(Subspace(q) for q in bases), cap_dim=max_dim)
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
    return Partition(rng.integers(0, n_groups, size=count), n_groups)


def _relabeling_key(labels: np.ndarray) -> bytes:
    """Labels renumbered in order of first appearance: two labelings get
    the same key iff one is a relabeling of the other."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse].tobytes()


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

    Restarts run with ``refit=False``.  Only restarts that can win are
    refitted with the SVD: those whose Gram-fit error lies within
    ``REFIT_REL * best + REFIT_ABS * ||X||_F^2`` of the best one, except a
    relabeling of an earlier such restart, whose fits and errors would be
    bit-identical.  Under ``stop_below`` a restart within that slack of
    the threshold is refitted too, to decide the stop.  The result is the
    first strict minimum of the refitted errors: the model that refitting
    every restart would pick whenever each labeling's Gram-fit and
    SVD-fit errors agree within half the slack.
    """
    require_int("restarts", restarts, minimum=1, error=OutOfRange)
    check_model_dims(n_subspaces, max_dim, data.count, data.ambient_dim)
    floor = REFIT_ABS * data.frobenius_norm**2

    def near(error: float, target: float) -> bool:
        return error <= target + REFIT_REL * abs(target) + floor

    runs: list[SolveReport] = []
    refits: dict[int, tuple[Bundle, Partition, float]] = {}
    for r in range(restarts):
        init = random_partition(data.count, n_subspaces, seed, r)
        run = alternate_minimize(
            data, n_subspaces, max_dim, init, tol=tol, max_iter=max_iter,
            refit=False,
        )
        runs.append(run)
        if stop_below is not None and near(run.error, stop_below):
            refits[r] = _svd_refit(data, run.partition, max_dim)
            if refits[r][2] <= stop_below:
                break

    best = min(run.error for run in runs)
    seen: set[bytes] = set()
    for r, run in enumerate(runs):
        if not near(run.error, best):
            continue
        key = _relabeling_key(run.partition.labels)
        if key not in seen and r not in refits:
            refits[r] = _svd_refit(data, run.partition, max_dim)
        seen.add(key)
    winner = min(sorted(refits), key=lambda r: refits[r][2])
    bundle, partition, error = refits[winner]
    traces = tuple(
        run.error_traces[0][:-1] + (refits[r][2],) if r in refits
        else run.error_traces[0]
        for r, run in enumerate(runs)
    )
    return SolveReport(
        bundle=bundle,
        partition=partition,
        error=error,
        restarts_used=len(runs),
        iterations=tuple(run.iterations[0] for run in runs),
        seed=seed,
        certified_optimal=False,
        error_traces=traces,
        winner=winner,
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
    The budget still counts l^m.  The winner is refitted by ``_svd_refit``:
    the returned partition is the nearest-subspace assignment under the
    optimal bundle, which also generates that bundle (up to numerical
    error), and the error sums that assignment's distances, which is
    ``bundle_error`` of the bundle bit for bit.
    """
    check_model_dims(n_subspaces, max_dim, data.count, data.ambient_dim)
    require_int("budget", budget, minimum=1, error=OutOfRange)
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

    bundle, partition, error = _svd_refit(
        data, Partition(best_labels, n_subspaces), max_dim
    )
    return SolveReport(
        bundle=bundle,
        partition=partition,
        error=error,
        restarts_used=0,
        iterations=(),
        seed=0,
        certified_optimal=True,
        error_traces=(),
        winner=0,
    )
