"""Search for the best union-of-subspaces model: multi-restart alternating
minimization plus an exhaustive oracle that certifies the optimum on small
instances."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    InvalidInit,
    OutOfRange,
    check_data_scale,
    check_model_dims,
    require_budget,
    require_finite,
    require_instance,
    require_int,
)
from .fitting import (
    best_subspace_residuals,
    bundle_from_partition,
    gram_screen,
    partition_from_bundle,
    squared_norms,
)
from .metrics import nearest
from .model import SEED_MASK, Bundle, DataSet, Partition

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100
DEFAULT_ORACLE_BUDGET = 10_000_000

# The oracle sizes its stacked arrays to at most this many floats per
# thread.  A labeling's Gram screen stacks its groups' Gram matrices: where
# ``_reads_gram`` holds, their w x w blocks of F^T F, which hold
# sum_g w_g^2 <= m^2 floats, else l matrices X X^T of N^2 floats; and l
# rows of (k + 1) m floats (each point's coordinates on the top k
# eigenvectors, and its screened residual).  So a screened block holds at
# most ORACLE_BATCH_FLOATS // (m^2 + l (k + 1) m) labelings where the rule
# holds, a number that does not fall as N grows past m / l, else
# ORACLE_BATCH_FLOATS // (l (N^2 + (k + 1) m)).
# Each thread takes an equal share of the ranks of the canonical labelings,
# cut into as few blocks as that cap allows, and decodes a block's labels
# (m ints a labeling) itself; labelings within one thread's share of the
# cap (the cap over the thread count) stay one block and start no
# thread.  The labelings that pass the screen are scored exactly in chunks
# of ORACLE_BATCH_FLOATS // (l N m), since the exact path stacks l slices,
# bases and residual tables of N x m per labeling.  Blocks amortize the
# per-call cost of the stacked eigensolves, SVDs and matmuls; the cap keeps
# peak memory flat for tall data: the tracemalloc peak of a one-thread
# oracle stays within 2 * 8 * ORACLE_BATCH_FLOATS bytes, 4 MB, at N = 4,
# 8, 20 and 1000 (tests/test_solver.py).
# At N = 20, m = 12, l = 2, k = 1 the cap allows 1365 labelings a block,
# so the 2048 canonical labelings take 2 blocks of 1024, on one thread or
# on two, and a chunk holds 546; at N = 4 (X X^T) they take 2 blocks of
# 1024 on two threads.  A sweep over 2^16 .. 2^19 (BENCH_15.json) picked
# 2^18.
ORACLE_BATCH_FLOATS = 1 << 18

# solve_best_model runs restarts on threads only for data of at least this
# many points-matrix entries (N * m).  A short restart is mostly Python that
# holds the interpreter lock: in a sweep on a 2-core host (BENCH_8.json) a
# second thread lost time at 2^15 entries, on tall (N = 200) and on short
# (N = 24) data, and saved at least 30% on both from 2^17 up.
PARALLEL_MIN_FLOATS = 1 << 17

# The variables that pin BLAS's own thread count, in the order they are read.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class SolveReport:
    """Solver output; ``error`` equals the bundle error of ``bundle``, which
    is None only from ``alternate_minimize(refit=False)``.

    ``certified_optimal`` is True only for reports produced by the
    exhaustive oracle.  ``error_traces`` holds one trace per restart
    (none for the oracle), so ``restarts_used`` counts the traces and
    ``iterations`` their lengths; ``winner`` indexes the restart the
    returned model came from.  A trace lists the Gram-fit error after each
    iteration, but its last entry is the SVD-refit error of the restart
    when that restart was refitted.  ``seed`` is meaningful only for
    reports produced by :func:`solve_best_model`.  ``slack`` bounds the
    distance of a Gram-fit ``error`` from the SVD-refit error of the same
    labels; it is 0 on every report that carries a bundle.
    """

    bundle: Bundle | None
    partition: Partition
    error: float
    certified_optimal: bool = False
    seed: int = 0
    error_traces: tuple[tuple[float, ...], ...] = ()
    winner: int = 0
    slack: float = 0.0

    @property
    def restarts_used(self) -> int:
        return len(self.error_traces)

    @property
    def iterations(self) -> tuple[int, ...]:
        return tuple(map(len, self.error_traces))


def _reseed_empty_groups(
    labels: np.ndarray, dist2: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Move the worst-fit point into each empty group of a label array
    whose group sizes are ``sizes`` (``np.bincount(labels, minlength=l)``).

    Points are taken in descending residual order and never drained from a
    group that would become empty itself; ties break toward the lowest
    point index so the repair is deterministic.
    """
    empties = np.flatnonzero(sizes == 0)
    if empties.size == 0:
        return labels
    labels, sizes = labels.copy(), sizes.copy()
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

    Inside the loop the groups whose members changed get their rows of
    the distance table, their Gram fits, from one ``fitting.gram_screen``
    call: from ``data.gram`` where ``_reads_gram`` holds, else from each
    group's X X^T.  What depends only on the data, the points' squared
    norms and their sum (``fitting.squared_norms``), is computed once per
    call, and each iteration counts the group sizes once, for its stop
    check and its reseed.  A row the screen does not trust is recomputed by the
    SVD path, ``best_subspace_residuals``.  The labels fitted by the last
    iteration are then refitted once with the SVD
    (``bundle_from_partition``) and assigned once
    (``partition_from_bundle``), so the returned bundle, partition and
    error, which replaces the last trace entry, are those of the SVD path.

    With ``refit=False`` that closing pass is skipped: the report holds no
    bundle, the labels the last iteration fitted and the loop's last
    Gram-fit error, with the screen's slacks over the rows that error was
    read from summed as ``slack`` (a row from the SVD path adds 0): a
    point's least entry moves by at most its column's summed row errors,
    so ``slack`` bounds |error - SVD-refit error|.  ``solve_best_model``
    uses this to refit only restarts that can win.
    """
    check_model_dims(n_subspaces, max_dim, data.count, data.ambient_dim)
    check_data_scale(data.frobenius_norm)
    require_int("max_iter", max_iter, minimum=1, error=OutOfRange)
    require_finite("tol", tol, minimum=0, error=OutOfRange)
    require_instance("init", init, (Partition,), InvalidInit)
    if init.count != data.count or init.n_groups != n_subspaces:
        raise InvalidInit(
            f"init covers {init.count} points in {init.n_groups} groups, "
            f"expected {data.count} points in {n_subspaces} groups"
        )

    points = data.points
    gram = _fit_gram(data, n_subspaces)
    norms = squared_norms(points, gram)
    groups = np.arange(n_subspaces)[:, None]
    table = np.empty((n_subspaces, data.count))
    slack = np.zeros(n_subspaces)  # the screen's slack on each row of table
    members = init.labels != groups  # unlike every group's first members
    labels = init.labels
    errors: list[float] = []
    for _ in range(max_iter):
        fitted, fitted_members = labels, members
        members = labels == groups
        changed = np.any(members != fitted_members, axis=1)
        if changed.any():  # none when a reseed restores the last labels
            table[changed], slack[changed] = _group_rows(
                points, gram, members[changed], max_dim, norms
            )
        labels, dist2 = nearest(table)
        err = float(np.sum(dist2))
        errors.append(err)
        sizes = np.bincount(labels, minlength=n_subspaces)
        # Only ``init`` can leave a group empty at a stable labeling; that
        # group is reseeded below instead of returned empty.
        if sizes.all() and np.array_equal(labels, fitted):
            break
        if len(errors) >= 2 and errors[-2] - err <= tol * max(errors[-2], 1e-300):
            break
        labels = _reseed_empty_groups(labels, dist2, sizes)

    partition = Partition(fitted, n_subspaces)
    bundle = None
    if refit:  # the SVD path's own error, with no slack
        bundle, partition, errors[-1] = _svd_refit(data, partition, max_dim)
        slack[:] = 0.0
    return SolveReport(bundle, partition, errors[-1],
                       error_traces=(tuple(errors),), slack=float(np.sum(slack)))


def _reads_gram(count: int, ambient_dim: int, n_groups: int) -> bool:
    """The one Gram rule of both searches: a group's fit reads its block of
    F^T F when the l groups average at most N points (m <= l N), so that
    the block is mostly no larger than the group's X X^T; else X X^T."""
    return count <= n_groups * ambient_dim


def _fit_gram(data: DataSet, n_subspaces: int) -> np.ndarray | None:
    """``data.gram`` (F^T F) where ``_reads_gram`` holds, else None."""
    return data.gram if _reads_gram(data.count, data.ambient_dim, n_subspaces) else None


def _group_rows(points, gram, members, k, norms):
    """Rows of alternating minimization's distance table for the groups
    ``members`` (B x m) selects, and their slacks: ``gram_screen``'s from
    ``gram``, or from each group's X X^T when ``gram`` is None, and the
    SVD path's, with slack 0, where the screen's slack is infinite.
    ``norms`` is ``squared_norms(points, gram)``."""
    if gram is None:
        n_rows = len(points)
        gram = np.empty((len(members), n_rows, n_rows))
        for g, out in zip(members, gram):
            x = points[:, g]
            np.matmul(x, x.T, out=out)
    rows, slack = gram_screen(points, gram, members, k, norms)
    untrusted = np.isinf(slack)
    if untrusted.any():
        rows[untrusted] = best_subspace_residuals(points, members[untrusted], k)
        slack[untrusted] = 0.0
    return rows, slack


def random_partition(
    count: int, n_groups: int, seed: int, restart: int = 0
) -> Partition:
    """Uniformly random labeling of points, keyed by (seed, restart)."""
    require_int("count", count, minimum=0, error=OutOfRange)
    require_int("n_groups", n_groups, minimum=1, error=OutOfRange)
    require_int("seed", seed, error=OutOfRange)
    require_int("restart", restart, minimum=0, error=OutOfRange)
    rng = np.random.default_rng([seed & SEED_MASK, restart])
    return Partition(rng.integers(0, n_groups, size=count), n_groups)


def _line_seeds(data: DataSet, n_groups: int, seed: int, restart: int) -> Partition:
    """Greedy D^2 seeding of l lines, keyed by (seed, restart), and each
    point labeled by its nearest line (k-means++, Arthur & Vassilvitskii
    2007, in its greedy form, carried over to k-plane clustering).

    The first line goes through a point drawn with weight ||f||^2.  Each
    further line takes, out of 2 + floor(ln l) points drawn with weight
    their residual to the nearest line so far, ||f||^2 - (f^T g)^2 / ||g||^2,
    the one that lowers the summed residual most, the first drawn on a tie.
    The rows f^T g are read from ``data.gram`` where ``_reads_gram`` holds,
    else from one product with the points per candidate.  Once every
    residual is 0 the remaining lines repeat the last one, and their groups
    stay empty for alternating minimization to reseed; all-zero data gets
    the labels 0, 1, ..., l - 1, 0, 1, ...
    """
    points = data.points
    gram = _fit_gram(data, n_groups)
    norms, total = squared_norms(points, gram)
    if not total > 0:
        return Partition(np.arange(data.count) % n_groups, n_groups)
    rng = np.random.default_rng([seed & SEED_MASK, restart])

    def draw(weights: np.ndarray, size=None):
        """Points drawn with probability proportional to ``weights`` (>= 0,
        not all 0); one of weight 0 is never drawn, as u < 1 = cdf[-1].
        ``Generator.choice(p=...)`` draws the same way, but its checks of
        ``p`` made a 200-restart solve at m = 12 about 7% slower."""
        cdf = np.cumsum(weights)
        return np.searchsorted(cdf / cdf[-1], rng.random(size), side="right")

    def residuals_to(j: int) -> np.ndarray:
        """Each point's squared distance to the line through point j."""
        row = gram[j] if gram is not None else points[:, j] @ points
        proj = row / np.sqrt(norms[j])  # |proj| <= ||f||, so no overflow
        return np.maximum(norms - proj * proj, 0.0)

    lines = [residuals_to(draw(norms))]
    dist = lines[0]
    draws = 2 + int(np.log(n_groups))
    for _ in range(1, n_groups):
        if not dist.any():  # every point lies on a line drawn so far
            lines.append(lines[-1])
            continue
        rows = [residuals_to(j) for j in draw(dist, draws)]
        sums = [np.minimum(dist, row).sum() for row in rows]
        lines.append(rows[int(np.argmin(sums))])
        dist = np.minimum(dist, lines[-1])
    return Partition(nearest(np.array(lines))[0], n_groups)


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
    """Best alternating-minimization result over seeded restarts.

    Restart r starts from the labels of l greedy D^2 line seeds drawn from
    (seed, r) (``_line_seeds``), so results are reproducible and
    independent of scheduling.
    With ``stop_below`` set, remaining restarts are skipped as soon as a
    model at or below that error is found (the result is still
    deterministic); by default all restarts run.

    Restarts run with ``refit=False``, and only restarts that can win are
    refitted with the SVD, by the oracle's rule: a restart's SVD-refit
    error lies within its ``slack`` of its Gram-fit ``error``, so every
    restart with ``error - slack <= min(error + slack)`` is refitted,
    except a relabeling of an earlier such restart, whose fits and errors
    would be bit-identical.  Under ``stop_below`` a restart with ``error -
    slack <= stop_below`` is refitted too, to decide the stop.  The result
    is the first strict minimum of the refitted errors, which is the
    model that refitting every restart would pick.

    Restarts run by ``_run_threaded`` on ``cores // blas_threads``
    threads, at most one per restart, when the data has at least
    ``PARALLEL_MIN_FLOATS`` entries (``N * m``), else on the calling thread
    alone.  ``cores`` is the number of CPUs the process may run on;
    ``blas_threads`` is the first positive integer among
    ``BLAS_THREAD_VARS``, or ``cores`` when none is set, so threads start
    only when BLAS is pinned.  Restarts past the first one that stops the
    solve under ``stop_below`` are dropped, so every field of the report
    is bit-identical to the one-thread run's.  An exception raised in a
    restart propagates to the caller.
    """
    require_int("restarts", restarts, minimum=1, error=OutOfRange)
    check_model_dims(n_subspaces, max_dim, data.count, data.ambient_dim)
    check_data_scale(data.frobenius_norm)
    require_int("seed", seed, error=OutOfRange)
    require_finite("tol", tol, minimum=0, error=OutOfRange)
    if stop_below is not None:
        require_finite("stop_below", stop_below, error=OutOfRange)

    runs: list[SolveReport | None] = [None] * restarts
    refits: dict[int, tuple[Bundle, Partition, float]] = {}

    def run_restart(r: int) -> bool:
        """Run restart r; True when it ends the solve under stop_below."""
        init = _line_seeds(data, n_subspaces, seed, r)
        run = runs[r] = alternate_minimize(
            data, n_subspaces, max_dim, init, tol=tol, max_iter=max_iter,
            refit=False,
        )
        if stop_below is None or run.error - run.slack > stop_below:
            return False
        refits[r] = _svd_refit(data, run.partition, max_dim)
        return refits[r][2] <= stop_below

    _fit_gram(data, n_subspaces)  # formed once, not raced for by threads
    workers = _restart_workers(data.points.size, restarts)
    used = _run_threaded(run_restart, restarts, workers)
    # Threads may have run restarts past the one that stopped the solve;
    # drop them, and their refits, as the sequential loop never ran them.
    runs = runs[:used]
    refits = {r: refit for r, refit in refits.items() if r < used}

    cut = min(run.error + run.slack for run in runs)
    seen: set[bytes] = set()
    for r, run in enumerate(runs):
        if run.error - run.slack > cut:
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
        bundle, partition, error, seed=seed, error_traces=traces, winner=winner
    )


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _blas_threads(cores: int) -> int:
    """BLAS's thread count: the first positive integer among
    ``BLAS_THREAD_VARS``, else one thread per core."""
    for name in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cores


def _workers(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks: the cores BLAS leaves idle,
    at most one per task."""
    cores = _cores()
    return max(1, min(tasks, cores // _blas_threads(cores)))


def _restart_workers(n_floats: int, restarts: int) -> int:
    """Threads ``solve_best_model`` runs ``restarts`` restarts on, for data
    of ``n_floats`` entries: one below ``PARALLEL_MIN_FLOATS``."""
    return 1 if n_floats < PARALLEL_MIN_FLOATS else _workers(restarts)


def _completions(count: int, n_groups: int) -> np.ndarray:
    """The count table of the canonical labelings of ``count`` points into
    at most ``n_groups`` groups: ``table[i, j]`` (int64) counts the
    completions of the last i positions after a prefix whose top label is
    j.  A next label repeats one of the j + 1 used ones or opens j + 1, so
    table[i, j] = (j + 1) table[i - 1, j] + table[i - 1, j + 1], with
    table[i, l] = 0; ``table[m - 1, 0]`` is their number S.  The budget,
    l^m <= 2^63 - 1, keeps every entry within int64."""
    table = np.zeros((count, n_groups + 1), dtype=np.int64)
    if n_groups == 1:  # all zeros, the one completion; any m is in budget
        table[:, 0] = 1
        return table
    table[0, :-1] = 1
    repeats = np.arange(1, n_groups + 1)
    for i in range(1, count):
        table[i, :-1] = repeats * table[i - 1, :-1] + table[i - 1, 1:]
    return table


def _oracle_plan(
    count: int, ambient_dim: int, n_groups: int, max_dim: int
) -> tuple[int, int, int]:
    """Labelings per screened block and per exactly scored chunk of
    ``brute_force_oracle``, and its thread count, by the rule of
    ``ORACLE_BATCH_FLOATS``: a screened labeling holds its groups' blocks
    of F^T F where ``_reads_gram`` holds, at most m^2 floats, else l
    N x N Gram matrices, each thread takes an equal share of
    the canonical labelings, cut into as few blocks as the cap allows, and
    labelings within one thread's share of the cap stay one block on the
    calling thread."""
    rows = n_groups * (max_dim + 1) * count
    if _reads_gram(count, ambient_dim, n_groups):
        screened = count**2 + rows
    else:
        screened = n_groups * ambient_dim**2 + rows
    exact = n_groups * ambient_dim * count
    per_block = max(1, ORACLE_BATCH_FLOATS // screened)
    labelings = int(_completions(count, n_groups)[-1, 0])
    threads = _workers(labelings)
    if labelings * threads <= per_block:
        threads = 1
    share = -(-labelings // threads)
    size = -(-share // -(-share // per_block))
    workers = min(threads, -(-labelings // size))
    return size, max(1, ORACLE_BATCH_FLOATS // exact), workers


def _run_threaded(run, count: int, workers: int) -> int:
    """Call ``run(i)`` for i = 0 ... ``count`` - 1 on ``workers`` threads,
    the calling thread among them (alone, starting no thread, when
    ``workers == 1``), until the indices run out or a call returns True.
    Each thread draws the next index under a lock.  Returns the count of
    calls the sequential loop makes: one past the lowest index whose call
    returned True, else ``count``.  An exception raised in any call
    propagates to the caller once every thread has finished its call."""
    lock = threading.Lock()
    handed = 0
    stop = count  # no index at or past this one is handed out

    def work() -> None:
        nonlocal handed, stop
        try:
            while True:
                with lock:
                    if handed >= stop:
                        return
                    i = handed
                    handed += 1
                if run(i):
                    with lock:
                        stop = min(stop, i + 1)
        except BaseException:
            with lock:
                stop = 0  # the other threads finish their call and quit
            raise

    if workers == 1:  # no pool, nor concurrent.futures' import of logging
        work()
        return stop
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        work()
        for helper in helpers:
            helper.result()
    return stop


def within_budget(n_subspaces: int, count: int, budget: int) -> bool:
    """True when the oracle's l^m labelings fit the enumeration budget."""
    return n_subspaces**count <= budget


def _canonical_labelings(table: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The canonical labelings of ranks ``start`` ... ``stop`` - 1, as an
    int array of shape (stop - start, m), decoded with ``_completions``'s
    table.  A labeling is canonical when no label is more than one above
    the largest label before it (a restricted-growth string, Knuth, TAOCP
    4A, 7.2.1.5): the lexicographically first of its class under
    permutations of the group labels.  Ranked in lexicographic order, the
    completions of a prefix whose top label is ``top`` are one range: each
    next label up to ``top`` takes ``each = table[rest, top]`` ranks, with
    ``rest`` positions after it, and ``top + 1`` the rest.  Once every rank
    is 0, the remaining labels are 0."""
    count = len(table)
    rank = np.arange(start, stop, dtype=np.int64)
    labels = np.zeros((rank.size, count), dtype=int)
    top = np.zeros_like(rank)
    for position in range(1, count):
        if not rank.any():
            break
        each = table[count - 1 - position, top]
        label = np.minimum(rank // each, top + 1)
        rank -= label * each
        labels[:, position] = label
        np.maximum(top, label, out=top)
    return labels


def brute_force_oracle(
    data: DataSet,
    n_subspaces: int,
    max_dim: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> SolveReport:
    """Certified optimum by enumerating every labeling of points into groups.

    Every labeling is fitted and evaluated with the reassigned bundle
    error, so the returned value is the true minimum over all bundles.
    Relabeling the groups permutes the fitted subspaces and the rows of the
    distance table, which leaves the error bit-identical, so only one
    canonical labeling per permutation class is scored: sum over j <= l of
    S(m, j), about l^m / l!, ranked 0 ... S - 1 in lexicographic order
    (``_canonical_labelings``).  The first strict minimum in that order is
    canonical, so the result equals that of all l^m labelings.  The budget
    still counts l^m, and is at most 2^63 - 1.  The winner is refitted by
    ``_svd_refit``: the returned partition is the nearest-subspace
    assignment under the optimal bundle, which also generates that bundle
    (up to numerical error), and the error sums that assignment's
    distances, which is ``bundle_error`` of the bundle bit for bit.

    Each block is first screened on the Gram matrix: ``fitting.gram_screen``
    gives every labeling an approximate error and a slack that bounds its
    distance to the exact one.  The least ``approx + slack`` seen so far
    is a running cut above the optimum, and only labelings with
    ``approx - slack <= cut`` are scored exactly by
    ``best_subspace_residuals``, the SVD path, in chunks taken in order.
    The cut only falls, so every labeling whose exact error can reach the
    minimum, ties included, is scored exactly, and the winner is the one
    the exact path alone would pick.  Which labelings pass depends on the
    order the blocks are screened in; the winner does not.  Blocks and
    chunks are sized by ``ORACLE_BATCH_FLOATS``, a chunk by what the SVD
    path stacks and a block by what the screen stacks.  The screen reads
    blocks of ``data.gram`` (F^T F) exactly where alternating minimization
    does, where ``_reads_gram`` holds, so a block does not shrink as N
    grows past m / l; else each group's X X^T.  A block is a range of
    ranks, of one size but the last (``_oracle_plan``).

    Blocks are scored by ``_run_threaded`` on ``cores // blas_threads``
    threads, at most one per block, so one block starts no thread.  The
    thread that draws block b decodes its ranks itself, under the lock the
    threads share.  They share the running cut and the least (exact error,
    rank) scored so far, the first strict minimum in lexicographic order
    whatever the schedule, so every field of the report is bit-identical
    to the one-thread run's.  The winner is decoded from its rank.  An
    exception in a block propagates to the caller.
    """
    check_model_dims(n_subspaces, max_dim, data.count, data.ambient_dim)
    check_data_scale(data.frobenius_norm)
    require_budget("budget", budget, error=OutOfRange)
    if not within_budget(n_subspaces, data.count, budget):
        raise BudgetExceeded(n_subspaces, data.count, budget)

    points = data.points
    gram = _fit_gram(data, n_subspaces)
    norms = squared_norms(points, gram)
    # Without F^T F, the outer products x_j x_j^T, whose masked sums are
    # the slices' X X^T.
    outer = None if gram is not None else (
        points.T[:, :, None] * points.T[:, None, :]).reshape(data.count, -1)
    groups = np.arange(n_subspaces)[:, None]
    size, chunk, workers = _oracle_plan(
        data.count, data.ambient_dim, n_subspaces, max_dim
    )
    table = _completions(data.count, n_subspaces)
    total = int(table[-1, 0])
    # What the threads share, under ``lock``: ``cut``, the least screened
    # upper bound so far, and ``best``, the least (exact error, rank).
    cut = np.inf
    best = (np.inf, 0)
    lock = threading.Lock()

    def score(block: int) -> bool:
        nonlocal cut, best
        start = block * size
        with lock:  # decoding beside another thread's Python ran 2-4% slower
            labels = _canonical_labelings(table, start, min(total, start + size))
        shape = len(labels), n_subspaces, data.count
        members = (labels[:, None, :] == groups).reshape(-1, data.count)
        grams = gram if outer is None else (
            members.astype(float) @ outer).reshape(len(members), data.ambient_dim, -1)
        rows, slack = gram_screen(points, grams, members, max_dim, norms)
        approx = np.sum(np.min(rows.reshape(shape), axis=1), axis=1)
        slack = np.sum(slack.reshape(shape[:2]), axis=1)
        with lock:
            cut = min(cut, np.min(approx + slack))
            near = np.flatnonzero(approx - slack <= cut)
        members = members.reshape(shape)
        for first in range(0, near.size, chunk):
            window = near[first : first + chunk]
            exact = best_subspace_residuals(
                points, members[window].reshape(-1, data.count), max_dim
            )
            exact = exact.reshape(window.size, n_subspaces, data.count)
            errors = np.sum(np.min(exact, axis=1), axis=1)
            j = int(np.argmin(errors))
            with lock:
                best = min(best, (errors[j], start + int(window[j])))
        return False

    _run_threaded(score, -(-total // size), workers)
    labels = _canonical_labelings(table, best[1], best[1] + 1)[0]
    bundle, partition, error = _svd_refit(data, Partition(labels, n_subspaces), max_dim)
    return SolveReport(bundle, partition, error, certified_optimal=True)
