import functools
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unionfit import (
    BudgetExceeded,
    Bundle,
    DataSet,
    InvalidInit,
    OutOfRange,
    Partition,
    Subspace,
    alternate_minimize,
    brute_force_oracle,
    bundle_error,
    bundle_from_partition,
    dist2_to_subspace,
    ek_min_error,
    group_error,
    partition_from_bundle,
    random_partition,
    solve_best_model,
)
from unionfit import fitting, solver
from unionfit.synthetic import SyntheticSpec, generate_synthetic


def naive_enumeration(points: np.ndarray, n_groups: int, k: int):
    """Straightforward re-implementation of the exhaustive search: try every
    labeling, fit each group with an SVD, score with reassigned distances."""
    n, m = points.shape
    best = np.inf
    best_labels = None
    for labels in itertools.product(range(n_groups), repeat=m):
        rows = []
        for g in range(n_groups):
            idx = [j for j in range(m) if labels[j] == g]
            cols = points[:, idx]
            t = 0
            if cols.shape[1] > 0 and k > 0:
                u, s, _ = np.linalg.svd(cols, full_matrices=False)
                rank = int(np.count_nonzero(s > s[0] * max(cols.shape) * 1e-12))
                t = min(k, rank)
            if t == 0:
                rows.append(np.sum(points * points, axis=0))
            else:
                q = np.array(u[:, :t])  # materialized, like any stored basis
                resid = points - q @ (q.T @ points)
                rows.append(np.sum(resid * resid, axis=0))
        err = float(np.sum(np.min(np.stack(rows), axis=0)))
        if err < best:
            best = err
            best_labels = labels
    return best, best_labels


def reference_oracle(data: DataSet, n_groups: int, k: int):
    """The oracle's original loop, kept as its reference: fit and score all
    l^m labelings and keep the first strict minimum in product order."""
    best_error = np.inf
    best_bundle = None
    for labels in itertools.product(range(n_groups), repeat=data.count):
        candidate = Partition(np.array(labels), n_groups)
        fitted = bundle_from_partition(data, candidate, k)
        err = bundle_error(data, fitted)
        if err < best_error:
            best_error = err
            best_bundle = fitted
    partition, _ = partition_from_bundle(data, best_bundle)
    return best_error, best_bundle, partition


def assert_oracle_matches_reference(data: DataSet, n_groups: int, k: int):
    report = brute_force_oracle(data, n_groups, k)
    error, bundle, partition = reference_oracle(data, n_groups, k)
    assert report.error == error
    assert report.partition.groups == partition.groups
    assert len(report.bundle) == len(bundle)
    for ours, theirs in zip(report.bundle, bundle):
        assert np.array_equal(ours.basis, theirs.basis)
    return report


def reference_canonical_labelings(count: int, n_groups: int, batch: int):
    """The oracle's original enumeration, kept as its reference: a successor
    loop over restricted-growth strings, one step per labeling."""
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


def reference_reseed(partition: Partition, dist2: np.ndarray) -> Partition:
    """The original Partition-based reseed of empty groups."""
    sizes = [len(g) for g in partition.groups]
    empties = [i for i, size in enumerate(sizes) if size == 0]
    if not empties:
        return partition
    labels = partition.labels.copy()
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
    return Partition(labels, partition.n_groups)


def reference_alternate_minimize(data, n_groups, k, init, tol=1e-10, max_iter=100):
    """The original alternating-minimization loop, kept as its reference:
    an SVD fit of every group and a Partition per iteration.  Also returns
    which exit the loop took."""
    current = init
    errors = []
    exit = "max_iter"
    for _ in range(max_iter):
        bundle = bundle_from_partition(data, current, k)
        partition, trace = partition_from_bundle(data, bundle)
        err = float(np.sum(trace.dist2))
        errors.append(err)
        if partition == current and all(partition.groups):
            exit = "fixpoint"
            break
        if len(errors) >= 2 and errors[-2] - err <= tol * max(errors[-2], 1e-300):
            exit = "tol"
            break
        current = reference_reseed(partition, trace.dist2)
    return bundle, partition, errors, exit


def assert_am_matches_reference(data, n_groups, k, init, **kwargs):
    """Run both loops, assert identical results, return the reference exit."""
    report = alternate_minimize(data, n_groups, k, init, **kwargs)
    bundle, partition, errors, exit = reference_alternate_minimize(
        data, n_groups, k, init, **kwargs
    )
    assert report.error == errors[-1]
    assert report.error_traces[0][-1] == errors[-1]
    assert report.iterations == (len(errors),)
    assert report.partition.groups == partition.groups
    for ours, theirs in zip(report.bundle, bundle, strict=True):
        assert np.array_equal(ours.basis, theirs.basis)
    return exit


def exactness_inputs():
    """(name, data, l, k, init, kwargs, expected exit) for the loop comparison.

    Together they take every path of the Gram kernel (blocks of F^T F on
    tall data and wherever m <= l N, each group's own X X^T elsewhere, and
    on both the SVD fallback for rows it does not trust, as for k >= rank
    and rank-1 groups; from N = BLOCK_MIN_ORDER on, X X^T by the certified
    block iteration, and by eigh where it certifies nothing, as on pure
    noise), start from empty groups, reseed a group emptied mid-run, and
    leave through each exit.
    """
    rng = np.random.default_rng(191)
    noisy = SyntheticSpec(ambient_dim=20, n_subspaces=3, max_dim=2, n_points=150,
                          noise_sigma=0.01, seed=5)
    clean = SyntheticSpec(ambient_dim=10, n_subspaces=2, max_dim=2, n_points=30,
                          seed=6)
    clean_tall = SyntheticSpec(ambient_dim=40, n_subspaces=2, max_dim=2,
                               n_points=30, seed=8)
    wide, _ = generate_synthetic(noisy)
    exact, truth = generate_synthetic(clean)
    exact_tall, _ = generate_synthetic(clean_tall)
    narrow = DataSet(rng.normal(size=(30, 24)))
    generic = DataSet(rng.normal(size=(8, 24)))
    line = rng.normal(size=(6, 20))
    line[:, :6] = np.outer(rng.normal(size=6), np.arange(1.0, 7.0))  # rank 1
    line = DataSet(line)
    tall_rng = np.random.default_rng(192)
    tall_line = tall_rng.normal(size=(24, 20))
    tall_line[:, :6] = np.outer(tall_rng.normal(size=24), np.arange(1.0, 7.0))
    tall_line = DataSet(tall_line)
    small = DataSet(rng.normal(size=(4, 8)))
    three = DataSet(rng.normal(size=(5, 12)))
    emptied = DataSet(np.random.default_rng(3).normal(size=(5, 10)))
    emptied_twice = DataSet(np.random.default_rng(146).normal(size=(5, 10)))
    two_points = np.full(24, 2)
    two_points[:2] = 0  # a group of 2 points under k = 3
    deep = SyntheticSpec(ambient_dim=80, n_subspaces=4, max_dim=3, n_points=600,
                         noise_sigma=0.01, seed=23)
    deep, _ = generate_synthetic(deep)
    deep_noise = DataSet(np.random.default_rng(230).normal(size=(80, 600)))
    return [
        ("wide", wide, 3, 2, random_partition(150, 3, 1), {}, "fixpoint"),
        ("wide-tol", wide, 3, 2, random_partition(150, 3, 2), {"tol": 1e-2},
         "tol"),
        ("wide-k0", wide, 3, 0, random_partition(150, 3, 3), {}, "tol"),
        ("noiseless-from-truth", exact, 2, 2, truth.partition, {}, "fixpoint"),
        ("noiseless", exact, 2, 2, random_partition(30, 2, 4), {}, "fixpoint"),
        ("narrow", narrow, 3, 2, random_partition(24, 3, 5), {}, "fixpoint"),
        ("narrow-max-iter-1", narrow, 3, 2, random_partition(24, 3, 6),
         {"max_iter": 1}, "max_iter"),
        ("narrow-max-iter-2", narrow, 3, 2, random_partition(24, 3, 7),
         {"max_iter": 2}, "max_iter"),
        ("k-above-group-size", generic, 3, 3, Partition(two_points, 3),
         {}, "fixpoint"),
        ("rank-1-group", line, 2, 2,
         Partition(np.repeat([0, 1], [6, 14]), 2), {}, "fixpoint"),
        ("tall-noiseless", exact_tall, 2, 2, random_partition(30, 2, 3), {},
         "fixpoint"),
        ("tall-rank-1-group", tall_line, 2, 2,
         Partition(np.repeat([0, 1], [6, 14]), 2), {}, "fixpoint"),
        ("one-empty-group", small, 2, 1,
         Partition(np.zeros(8, dtype=int), 2), {}, "fixpoint"),
        ("two-empty-groups", three, 3, 1,
         Partition(np.ones(12, dtype=int), 3), {}, "fixpoint"),
        ("group-emptied-mid-run", emptied, 4, 2, random_partition(10, 4, 3), {},
         "fixpoint"),
        ("two-groups-emptied-at-once", emptied_twice, 4, 2,
         random_partition(10, 4, 146), {}, "fixpoint"),
        ("noisy-above-block-floor", deep, 4, 3, random_partition(600, 4, 9), {},
         "fixpoint"),
        ("pure-noise-above-block-floor", deep_noise, 4, 3,
         random_partition(600, 4, 9), {}, "fixpoint"),
    ]


@pytest.mark.parametrize("case", exactness_inputs(), ids=lambda case: case[0])
def test_alternate_minimize_matches_reference_loop(case):
    _, data, n_groups, k, init, kwargs, expected = case
    assert assert_am_matches_reference(data, n_groups, k, init, **kwargs) == expected


def test_exactness_inputs_take_every_path(monkeypatch, ritz_rows):
    """The comparison above is only as good as its inputs: every path of
    the Gram kernel, the reuse of unchanged groups and the reseed must
    occur."""
    seen = dict.fromkeys(("F^T F on tall data", "F^T F on short data",
                          "X X^T", "F^T F fallback", "X X^T fallback",
                          "X X^T by the block iteration",
                          "X X^T by eigh above the block floor", "reseed"), 0)
    screen, fallback = solver.gram_screen, solver.best_subspace_residuals
    reseed = solver._reseed_empty_groups
    rows = 0
    read = ""  # the Gram data of the last screen call

    def traced_screen(points, gram, members, k, norms):
        nonlocal rows, read
        rows += len(members)
        read = "F^T F" if gram.ndim == 2 else "X X^T"
        if gram.ndim == 2:
            tall = points.shape[0] >= points.shape[1]
            seen["F^T F on tall data" if tall else "F^T F on short data"] += 1
        else:
            seen["X X^T"] += 1
        return screen(points, gram, members, k, norms)

    def traced_fallback(points, members, k):
        seen[read + " fallback"] += 1
        return fallback(points, members, k)

    def traced_reseed(labels, dist2, n_groups):
        out = reseed(labels, dist2, n_groups)
        seen["reseed"] += out is not labels
        return out

    monkeypatch.setattr(solver, "gram_screen", traced_screen)
    monkeypatch.setattr(solver, "best_subspace_residuals", traced_fallback)
    monkeypatch.setattr(solver, "_reseed_empty_groups", traced_reseed)
    group_rounds = 0
    for _, data, n_groups, k, init, kwargs, _ in exactness_inputs():
        report = alternate_minimize(data, n_groups, k, init, **kwargs)
        group_rounds += report.iterations[0] * n_groups
    seen["X X^T by the block iteration"] = ritz_rows[0]
    seen["X X^T by eigh above the block floor"] = ritz_rows[1]
    assert all(seen.values()), seen
    assert rows < group_rounds  # unchanged groups were not refitted


def test_solve_best_model_matches_reference_loop():
    rng = np.random.default_rng(193)
    spec = SyntheticSpec(ambient_dim=20, n_subspaces=3, max_dim=2, n_points=150,
                         noise_sigma=0.01, seed=7)
    cases = [
        (generate_synthetic(spec)[0], 3, 2),  # wide groups
        (DataSet(rng.normal(size=(30, 24))), 3, 2),  # narrow groups
        (DataSet(rng.normal(size=(5, 10))), 4, 2),  # small groups, reseeds
    ]
    for data, n_groups, k in cases:
        report = solve_best_model(data, n_groups, k, restarts=4, seed=11)
        best = None
        iterations = []
        for r in range(4):
            init = random_partition(data.count, n_groups, 11, r)
            bundle, partition, errors, _ = reference_alternate_minimize(
                data, n_groups, k, init
            )
            iterations.append(len(errors))
            if best is None or errors[-1] < best[0]:
                best = (errors[-1], bundle, partition, r)
        error, bundle, partition, winner = best
        assert report.error == error
        assert report.iterations == tuple(iterations)
        assert report.winner == winner
        assert report.partition.groups == partition.groups
        for ours, theirs in zip(report.bundle, bundle, strict=True):
            assert np.array_equal(ours.basis, theirs.basis)


def count_refits(monkeypatch):
    """Count the SVD refits made through the solver module."""
    calls = []
    fit = solver.bundle_from_partition

    def counted(data, partition, k):
        calls.append(partition.labels.copy())
        return fit(data, partition, k)

    monkeypatch.setattr(solver, "bundle_from_partition", counted)
    return calls


def refitted_loop(data, n_groups, k, init):
    """This solver's own loop, refitted, in the form of the reference loop.
    Where errors sit at rounding level the reference loop's SVD fits and
    this loop's Gram fits can pick different labels and part ways."""
    report = alternate_minimize(data, n_groups, k, init)
    return report.bundle, report.partition, report.error_traces[0], None


def assert_solve_matches_refit_of_every_restart(
    data, n_groups, k, restarts, seed, stop_below=None,
    loop=reference_alternate_minimize,
):
    """Compare solve_best_model with ``loop``, by default the reference
    loop, refitted after every restart, which keeps the first strict
    minimum of the refitted errors and stops once it is at or below
    ``stop_below``."""
    report = solve_best_model(data, n_groups, k, restarts=restarts, seed=seed,
                              stop_below=stop_below)
    best = None
    for r in range(restarts):
        init = random_partition(data.count, n_groups, seed, r)
        bundle, partition, errors, _ = loop(data, n_groups, k, init)
        if best is None or errors[-1] < best[0]:
            best = (errors[-1], bundle, partition, r)
        if stop_below is not None and best[0] <= stop_below:
            break
    error, bundle, partition, winner = best
    assert report.restarts_used == r + 1
    assert report.error == error
    assert report.error_traces[report.winner][-1] == error
    assert report.winner == winner
    assert report.partition == partition
    for ours, theirs in zip(report.bundle, bundle, strict=True):
        assert np.array_equal(ours.basis, theirs.basis)
    return report


def test_solve_best_model_refits_only_the_winner(monkeypatch):
    data = DataSet(np.random.default_rng(211).normal(size=(6, 20)))
    runs = [alternate_minimize(data, 3, 2, random_partition(20, 3, 4, r),
                               refit=False) for r in range(6)]
    refits = count_refits(monkeypatch)
    report = solve_best_model(data, 3, 2, restarts=6, seed=4)
    assert len(refits) == 1
    assert np.array_equal(refits[0], runs[report.winner].partition.labels)
    assert report.iterations == tuple(run.iterations[0] for run in runs)
    # Restarts that were not refitted keep their last Gram-fit error.
    for r, run in enumerate(runs):
        if r != report.winner:
            assert report.error_traces[r] == run.error_traces[0]
    assert_solve_matches_refit_of_every_restart(data, 3, 2, 6, 4)


def test_solve_best_model_relabelings_refit_once_first_wins(monkeypatch):
    # Restarts 1 and 5 stop at two labelings of one partition, the best
    # one; restarts 0 and 2 stop 3e-5 relatively above it.
    data = DataSet(np.random.default_rng(6).normal(size=(5, 12)))
    runs = [alternate_minimize(data, 2, 1, random_partition(12, 2, 6, r),
                               refit=False) for r in range(6)]
    assert runs[1].error == runs[5].error
    assert not np.array_equal(runs[1].partition.labels, runs[5].partition.labels)
    assert np.array_equal(runs[1].partition.labels, 1 - runs[5].partition.labels)
    refits = count_refits(monkeypatch)
    report = solve_best_model(data, 2, 1, restarts=6, seed=6)
    assert len(refits) == 1
    assert np.array_equal(refits[0], runs[1].partition.labels)
    assert report.winner == 1
    assert_solve_matches_refit_of_every_restart(data, 2, 1, 6, 6)


def test_solve_best_model_exact_ties_keep_the_first_restart(monkeypatch):
    # With k = 0 every labeling scores the summed squared norms exactly;
    # after one iteration each restart still holds its random labels, so
    # several distinct labelings are refitted and tie exactly.
    data = DataSet(np.random.default_rng(5).normal(size=(3, 8)))
    refits = count_refits(monkeypatch)
    report = solve_best_model(data, 2, 0, restarts=5, seed=1, max_iter=1)
    assert len({solver._relabeling_key(labels) for labels in refits}) >= 2
    assert report.error == float(np.sum(np.sum(data.points**2, axis=0)))
    assert report.winner == 0


def test_solve_best_model_rounding_level_ties_match_refit_of_every_restart(
    monkeypatch,
):
    # Noiseless lines plus zero points: a zero point fits every group
    # exactly, so restarts stop at several distinct exact partitions whose
    # errors differ only by rounding, and each of them is refitted.
    spec = SyntheticSpec(ambient_dim=6, n_subspaces=3, max_dim=1, n_points=12,
                         seed=12)
    pts = np.concatenate([generate_synthetic(spec)[0].points, np.zeros((6, 3))],
                         axis=1)
    data = DataSet(pts)
    refits = count_refits(monkeypatch)
    report = assert_solve_matches_refit_of_every_restart(data, 3, 1, 12, 2)
    distinct = {solver._relabeling_key(labels) for labels in refits}
    assert len(distinct) == len(refits) >= 2
    assert report.error <= 1e-25
    # Restart 0's Gram-fit error lies above its SVD-fit error.  With that
    # SVD error as stop_below, restart 0 must be refitted and end the solve.
    first = random_partition(15, 3, 2, 0)
    threshold = alternate_minimize(data, 3, 1, first).error
    assert alternate_minimize(data, 3, 1, first, refit=False).error > threshold
    report = assert_solve_matches_refit_of_every_restart(
        data, 3, 1, 12, 2, stop_below=threshold
    )
    assert report.restarts_used == 1


@st.composite
def slack_instances(draw):
    """Gaussian data of a drawn rank, l, k and an init, laid out for each
    path of the Gram kernel: blocks of F^T F on tall data (N >= m) and on
    short data with m <= l N, or the X X^T stack (m > l N).  Rank-deficient
    groups and k >= rank take the SVD fallback, k = 0 reads the squared
    norms, and an init that leaves groups empty forces reseeds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_groups = draw(st.integers(1, 3))
    layout = draw(st.sampled_from(["tall", "short F^T F", "X X^T"]))
    n = draw(st.integers(2, 8))
    low, high = {"tall": (2, n),
                 "short F^T F": (n + 1, n_groups * n),
                 "X X^T": (n_groups * n + 1, n_groups * n + 4)}[layout]
    low = max(low, n_groups + 1)  # l < m
    m = draw(st.integers(low, max(low, high)))
    k = draw(st.integers(0, n - 1))
    # Full rank, or below k: then a group of more than rank points has no
    # k-th Gram eigenvalue above the noise, and takes the SVD fallback.
    rank = draw(st.one_of(st.just(n), st.integers(1, max(1, k - 1))))
    pts = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m))
    empty = draw(st.integers(0, n_groups - 1))  # groups the init leaves empty
    init = Partition(rng.integers(0, n_groups - empty, size=m), n_groups)
    return DataSet(pts), n_groups, k, init


@settings(max_examples=200)
@given(slack_instances(), st.integers(0, 2**16), st.data())
def test_gram_fit_error_lies_within_its_slack(instance, seed, drawn):
    """``slack`` bounds |Gram-fit error - SVD-refit error|, so refitting by
    the slack rule picks the model that refitting every restart picks, with
    or without ``stop_below`` at one restart's SVD-refit error."""
    data, n_groups, k, init = instance
    gram = alternate_minimize(data, n_groups, k, init, refit=False)
    svd = alternate_minimize(data, n_groups, k, init)
    assert gram.bundle is None and svd.slack == 0.0
    assert abs(gram.error - svd.error) <= gram.slack
    # The same loop: the refit=False labels refit to the refit=True model.
    assert gram.error_traces[0][:-1] == svd.error_traces[0][:-1]
    _, partition, error = solver._svd_refit(data, gram.partition, k)
    assert (partition, error) == (svd.partition, svd.error)
    # Generic data (full rank, and more than l k points, so every labeling
    # leaves a group that no k-dimensional subspace fits) follows the
    # reference loop; elsewhere the solve is held to its own loop.
    generic = bool(np.linalg.matrix_rank(data.points) == data.ambient_dim
                   and data.count > n_groups * k)
    loops = [refitted_loop] + [reference_alternate_minimize] * generic
    stop_at = drawn.draw(st.integers(0, 3))
    threshold = alternate_minimize(
        data, n_groups, k, random_partition(data.count, n_groups, seed, stop_at)
    ).error
    for loop in loops:
        report = assert_solve_matches_refit_of_every_restart(
            data, n_groups, k, 4, seed, loop=loop)
        assert report.slack == 0.0
        report = assert_solve_matches_refit_of_every_restart(
            data, n_groups, k, 4, seed, stop_below=threshold, loop=loop)
        assert report.restarts_used <= stop_at + 1
    if n_groups**data.count <= 4096:
        assert brute_force_oracle(data, n_groups, k).slack == 0.0


def refused_as_underflowing(data):
    """True for data whose ||F||_F^2 is positive but below the normal float
    range, once every solver has refused it.  Entries drawn from
    ``st.floats(-4, 4)`` reach 1e-300, so the property tests below draw
    such data; for it the property is the refusal."""
    norm = data.frobenius_norm
    if norm == 0.0 or norm * norm >= sys.float_info.min:
        return False
    init = Partition(np.zeros(data.count, dtype=np.int64), 1)
    for call in (lambda: alternate_minimize(data, 1, 0, init),
                 lambda: solve_best_model(data, 1, 0, restarts=1, seed=0),
                 lambda: brute_force_oracle(data, 1, 0)):
        with pytest.raises(OutOfRange, match="below the normal.*--normalize"):
            call()
    return True


@st.composite
def small_am_instances(draw):
    """Small random data, optionally rank-deficient, with duplicated and
    zero columns, plus a random initial labeling."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(3, 9))
    n_groups = draw(st.integers(1, min(3, m - 1)))
    k = draw(st.integers(0, n - 1))
    rank = draw(st.integers(1, n))
    left = draw(arrays(np.float64, (n, rank), elements=st.floats(-4, 4)))
    right = draw(arrays(np.float64, (rank, m), elements=st.floats(-4, 4)))
    pts = left @ right
    for src, dst in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                            st.integers(0, m - 1)), max_size=2)):
        pts[:, dst] = pts[:, src]
    for j in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        pts[:, j] = 0.0
    labels = draw(arrays(np.int64, m, elements=st.integers(0, n_groups - 1)))
    return DataSet(pts), n_groups, k, Partition(labels, n_groups)


@given(small_am_instances())
def test_alternate_minimize_invariants(instance):
    data, n_groups, k, init = instance
    if refused_as_underflowing(data):
        return
    report = alternate_minimize(data, n_groups, k, init)
    trace = report.error_traces[0]
    assert all(late <= early + 1e-12 for early, late in zip(trace, trace[1:]))
    assert report.error == trace[-1] == bundle_error(data, report.bundle)
    assert sorted(j for g in report.partition.groups for j in g) == list(
        range(data.count)
    )
    nearest, _ = partition_from_bundle(data, report.bundle)
    assert report.partition == nearest
    if n_groups**data.count <= 512:
        assert brute_force_oracle(data, n_groups, k).error <= report.error + 1e-9


@st.composite
def gaussian_instances(draw, tie_free=False):
    """Gaussian points from a drawn seed, l in {2, 3}, 1 <= k < N.

    With ``tie_free`` there are more than l * k points, so every labeling
    has a group that no k-dimensional subspace fits exactly, and distinct
    labelings do not tie at rounding level.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 6))
    n_groups = draw(st.integers(2, 3))
    k = draw(st.integers(1, min(2, n - 1) if tie_free else n - 1))
    low = n_groups * k + 1 if tie_free else 4
    m = draw(st.integers(low, low + 3 if tie_free else 10))
    return DataSet(np.random.default_rng(seed).normal(size=(n, m))), n_groups, k


@given(gaussian_instances(), st.data())
def test_alternate_minimize_invariant_under_label_permutation(instance, drawn):
    data, n_groups, k = instance
    labels = drawn.draw(arrays(np.int64, data.count,
                               elements=st.integers(0, n_groups - 1)))
    perm = np.array(drawn.draw(st.permutations(range(n_groups))))
    report = alternate_minimize(data, n_groups, k, Partition(labels, n_groups))
    permuted = alternate_minimize(data, n_groups, k,
                                  Partition(perm[labels], n_groups))
    assert permuted.error == report.error
    assert permuted.iterations == report.iterations
    assert set(permuted.partition.groups) == set(report.partition.groups)


@given(gaussian_instances(), st.integers(-8, 8), st.integers(0, 2**16))
def test_solve_best_model_scales_exactly_with_the_data(instance, j, seed):
    data, n_groups, k = instance
    c = 2.0**j
    report = solve_best_model(data, n_groups, k, restarts=3, seed=seed)
    scaled = solve_best_model(DataSet(c * data.points), n_groups, k, restarts=3,
                              seed=seed)
    assert scaled.error == c * c * report.error
    assert scaled.partition == report.partition
    assert scaled.winner == report.winner


@given(gaussian_instances(tie_free=True), st.integers(0, 2**32 - 1))
def test_oracle_invariant_under_rotation(instance, rotation_seed):
    data, n_groups, k = instance
    q, _ = np.linalg.qr(
        np.random.default_rng(rotation_seed).normal(size=(data.ambient_dim,) * 2)
    )
    report = brute_force_oracle(data, n_groups, k)
    rotated = brute_force_oracle(DataSet(q @ data.points), n_groups, k)
    assert rotated.partition == report.partition
    assert rotated.error == pytest.approx(report.error, rel=1e-9)


def test_alternate_minimize_ground_truth_init_converges_immediately():
    spec = SyntheticSpec(ambient_dim=8, n_subspaces=2, max_dim=1, n_points=8, seed=4)
    data, truth = generate_synthetic(spec)
    report = alternate_minimize(data, 2, 1, truth.partition)
    assert report.error <= 1e-10
    assert report.iterations == (1,)
    assert report.partition == truth.partition


def test_alternate_minimize_single_group_is_plain_fit():
    rng = np.random.default_rng(31)
    data = DataSet(rng.normal(size=(5, 7)))
    init = Partition(np.zeros(7, dtype=int), 1)
    report = alternate_minimize(data, 1, 2, init)
    assert report.iterations == (1,)
    assert report.error == pytest.approx(ek_min_error(data.points, 2), abs=1e-9)


def test_alternate_minimize_respects_oracle_floor():
    rng = np.random.default_rng(47)
    for trial in range(10):
        data = DataSet(rng.normal(size=(4, 6)))
        floor = brute_force_oracle(data, 2, 1).error
        init = Partition(rng.integers(0, 2, size=6), 2)
        report = alternate_minimize(data, 2, 1, init)
        assert report.error >= floor - 1e-9


def test_alternate_minimize_validates_inputs():
    data = DataSet(np.eye(4))
    good = Partition([0, 1, 0, 1], 2)
    with pytest.raises(InvalidInit):
        alternate_minimize(data, 2, 1, "not a partition")
    with pytest.raises(InvalidInit):
        alternate_minimize(data, 3, 1, good)  # group count mismatch
    with pytest.raises(InvalidInit):
        alternate_minimize(DataSet(np.eye(3)), 2, 1, good)
    with pytest.raises(OutOfRange):
        alternate_minimize(data, 4, 1, good)  # needs l < m
    with pytest.raises(OutOfRange):
        alternate_minimize(data, 2, 4, good)  # needs k < N


# Each public solver entry point and the values it takes that SolverConfig
# also validates (and, for random_partition, its other arguments), with the
# values they refuse.
ENTRY_POINTS = {
    "solve_best_model": (lambda data, **bad: solve_best_model(
        data, 2, 1, restarts=3, **{"seed": 1, **bad}), ("seed", "tol", "stop_below")),
    "alternate_minimize": (lambda data, **bad: alternate_minimize(
        data, 2, 1, random_partition(12, 2, 1), **bad), ("tol",)),
    "random_partition": (lambda data, **bad: random_partition(
        **{"count": 12, "n_groups": 2, "seed": 1, **bad}),
        ("seed", "count", "n_groups", "restart")),
}
BAD_VALUES = {
    "seed": [1.5, np.float64(1.0), None, True, "1"],
    "tol": [None, math.nan, math.inf, -1e-3, True, "1e-10"],
    "stop_below": ["a", math.nan, math.inf, -math.inf, True],
    "count": [-1, 1.5, None, True],
    "n_groups": [0, -1, 1.5, True],
    "restart": [-1, 1.5, None, True],
}


@pytest.mark.parametrize(
    "entry, name, value",
    [(entry, name, value) for entry, (_, names) in ENTRY_POINTS.items()
     for name in names for value in BAD_VALUES[name]],
)
def test_solver_entry_points_refuse_bad_values(entry, name, value):
    """The rules ``SolverConfig`` applies hold at the entry points too, as
    OutOfRange before any restart runs."""
    data = DataSet(np.random.default_rng(0).normal(size=(5, 12)))
    with pytest.raises(OutOfRange, match=f"{name} must be"):
        ENTRY_POINTS[entry][0](data, **{name: value})


def test_random_partition_takes_the_least_values_it_allows():
    """No points, one group and restart 0 draw a valid labeling."""
    assert random_partition(0, 1, 1, 0) == Partition(np.zeros(0, dtype=int), 1)
    assert random_partition(5, 1, 1).labels.tolist() == [0] * 5


def test_alternate_minimize_repairs_empty_groups():
    rng = np.random.default_rng(61)
    data = DataSet(rng.normal(size=(4, 8)))
    # start with everything in one group; the other must be reseeded
    init = Partition(np.zeros(8, dtype=int), 2)
    report = alternate_minimize(data, 2, 1, init)
    trace = report.error_traces[0]
    assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))
    assert sum(len(g) for g in report.partition.groups) == 8
    assert all(report.partition.groups)
    assert report.iterations[0] > 1
    assert report.error == pytest.approx(bundle_error(data, report.bundle), abs=1e-12)
    assert report.error == pytest.approx(brute_force_oracle(data, 2, 1).error)


def test_monotone_descent_within_runs():
    rng = np.random.default_rng(67)
    for _ in range(10):
        data = DataSet(rng.normal(size=(5, 9)))
        report = solve_best_model(data, 3, 1, restarts=8, seed=int(rng.integers(1 << 30)))
        for trace in report.error_traces:
            for early, late in zip(trace, trace[1:]):
                assert late <= early + 1e-12


def test_solve_best_model_recovers_exact_union():
    spec = SyntheticSpec(ambient_dim=12, n_subspaces=3, max_dim=2, n_points=18, seed=9)
    data, _ = generate_synthetic(spec)
    report = solve_best_model(data, 3, 2, restarts=40, seed=1)
    assert report.error <= 1e-10


def test_solve_best_model_deterministic():
    rng = np.random.default_rng(83)
    data = DataSet(rng.normal(size=(6, 10)))
    first = solve_best_model(data, 2, 2, restarts=12, seed=321)
    second = solve_best_model(data, 2, 2, restarts=12, seed=321)
    assert first.error == second.error  # bit identical
    assert first.partition == second.partition
    assert first.winner == second.winner
    assert first.iterations == second.iterations


def test_solve_best_model_tracks_restart_metadata():
    rng = np.random.default_rng(15)
    data = DataSet(rng.normal(size=(4, 7)))
    report = solve_best_model(data, 2, 1, restarts=6, seed=5)
    assert report.restarts_used == 6
    assert len(report.iterations) == 6
    assert len(report.error_traces) == 6
    assert 0 <= report.winner < 6
    assert report.seed == 5
    assert not report.certified_optimal
    assert report.error == pytest.approx(bundle_error(data, report.bundle), abs=1e-10)


def test_solve_best_model_stop_below_shortcut():
    spec = SyntheticSpec(ambient_dim=10, n_subspaces=2, max_dim=1, n_points=10, seed=2)
    data, _ = generate_synthetic(spec)
    report = solve_best_model(data, 2, 1, restarts=100, seed=3, stop_below=1e-12)
    assert report.error <= 1e-12
    assert report.restarts_used <= 100
    rerun = solve_best_model(data, 2, 1, restarts=100, seed=3, stop_below=1e-12)
    assert rerun.restarts_used == report.restarts_used
    assert rerun.error == report.error


def pin_blas(monkeypatch, threads="1", cores=2):
    """Make ``cores`` CPUs available and pin BLAS through
    OPENBLAS_NUM_THREADS alone (unset when ``threads`` is None)."""
    monkeypatch.setattr(solver, "_cores", lambda: cores)
    for name in solver.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    if threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)


def assert_reports_equal(ours, theirs):
    """Every field of two solve reports, bit for bit."""
    assert ours.error == theirs.error
    assert ours.partition == theirs.partition
    assert len(ours.bundle) == len(theirs.bundle)
    for a, b in zip(ours.bundle, theirs.bundle, strict=True):
        assert a.basis.tobytes() == b.basis.tobytes()
        assert a.basis.shape == b.basis.shape
    assert ours.iterations == theirs.iterations
    assert ours.winner == theirs.winner
    assert ours.error_traces == theirs.error_traces
    assert ours.restarts_used == theirs.restarts_used
    assert ours.seed == theirs.seed
    assert ours.certified_optimal == theirs.certified_optimal


def solve_sequential_and_threaded(monkeypatch, data, *args, **kwargs):
    """solve_best_model on one thread, then forced onto two threads, on a
    copy of ``data`` that shares no memoized fit with the first run;
    returns both reports."""
    pin_blas(monkeypatch)
    monkeypatch.setattr(solver, "PARALLEL_MIN_FLOATS", data.points.size + 1)
    sequential = solve_best_model(data, *args, **kwargs)
    threaded_runs = []
    run_threaded = solver._run_threaded

    def counted(run_restart, restarts, workers):
        threaded_runs.append(workers)
        return run_threaded(run_restart, restarts, workers)

    monkeypatch.setattr(solver, "_run_threaded", counted)
    monkeypatch.setattr(solver, "PARALLEL_MIN_FLOATS", data.points.size)
    threaded = solve_best_model(DataSet(data.points), *args, **kwargs)
    assert threaded_runs == [2]
    return sequential, threaded


@pytest.mark.parametrize(
    "data, n_groups, k",
    [
        (generate_synthetic(SyntheticSpec(ambient_dim=20, n_subspaces=3,
                                          max_dim=2, n_points=150,
                                          noise_sigma=0.01, seed=7))[0], 3, 2),
        (DataSet(np.random.default_rng(193).normal(size=(30, 24))), 3, 2),
        (DataSet(np.random.default_rng(194).normal(size=(5, 10))), 4, 2),
    ],
    ids=["wide", "narrow", "reseeds"],
)
def test_threaded_restarts_equal_the_sequential_loop(monkeypatch, data, n_groups, k):
    sequential, threaded = solve_sequential_and_threaded(
        monkeypatch, data, n_groups, k, restarts=6, seed=11
    )
    assert_reports_equal(threaded, sequential)


def count_gram_forms(monkeypatch):
    """Record the shape of the points each time a DataSet forms its F^T F."""
    forms = []
    form = DataSet.gram.func

    def counted(data):
        forms.append(data.points.shape)
        return form(data)

    gram = functools.cached_property(counted)
    gram.__set_name__(DataSet, "gram")
    monkeypatch.setattr(DataSet, "gram", gram)
    return forms


def test_gram_is_formed_once_per_solve_and_only_where_groups_fit_in_n(
    monkeypatch,
):
    """F^T F is m x m, 32 MB at m = 2000.  Both searches form it by one
    rule, only when the l groups average at most N points (m <= l N): so
    not at the full-space benchmark's shape (m = 1000 > 4 * 200), nor for
    an oracle at N = 4, m = 12, l = 2, but for one at N = 8, where m > N.
    A solve forms it once, before the restarts' threads start."""
    forms = count_gram_forms(monkeypatch)
    spec = SyntheticSpec(ambient_dim=200, n_subspaces=4, max_dim=3,
                         n_points=1000, noise_sigma=0.01, seed=3)
    solve_best_model(generate_synthetic(spec)[0], 4, 3, restarts=2, seed=1,
                     max_iter=2)
    brute_force_oracle(DataSet(np.random.default_rng(4).normal(size=(4, 12))), 2, 1)
    assert forms == []
    brute_force_oracle(DataSet(np.random.default_rng(4).normal(size=(8, 12))), 2, 1)
    assert forms == [(8, 12)]
    forms.clear()
    solve_best_model(DataSet(np.random.default_rng(6).normal(size=(30, 40))), 2,
                     1, restarts=3, seed=1)
    assert forms == [(30, 40)]
    forms.clear()
    pin_blas(monkeypatch)
    threaded = []
    run_threaded = solver._run_threaded

    def counted(run, count, workers):
        threaded.append(workers)
        return run_threaded(run, count, workers)

    monkeypatch.setattr(solver, "_run_threaded", counted)
    tall = DataSet(np.random.default_rng(5).normal(size=(600, 240)))
    assert tall.points.size >= solver.PARALLEL_MIN_FLOATS
    report = solve_best_model(tall, 3, 2, restarts=4, seed=2, max_iter=3)
    assert threaded == [2]
    assert forms == [(600, 240)]
    assert report.error == alternate_minimize(
        DataSet(tall.points), 3, 2, random_partition(240, 3, 2, report.winner),
        max_iter=3).error


@pytest.mark.parametrize("stop_at", [1, 2])
def test_threaded_restarts_stop_where_the_sequential_loop_stops(monkeypatch, stop_at):
    # The SVD-fit errors of restarts 0, 1 and 2 strictly decrease, so the
    # SVD-fit error of restart ``stop_at`` stops the solve there; restart 5
    # sits lower still, so a thread that ran past the stop must be dropped.
    data = DataSet(np.random.default_rng(2).normal(size=(6, 30)))
    errors = [alternate_minimize(data, 3, 1, random_partition(30, 3, 9, r)).error
              for r in range(6)]
    assert errors[0] > errors[1] > errors[2] > errors[5]
    sequential, threaded = solve_sequential_and_threaded(
        monkeypatch, data, 3, 1, restarts=6, seed=9, stop_below=errors[stop_at]
    )
    assert sequential.restarts_used == stop_at + 1
    assert sequential.error == errors[stop_at]
    assert_reports_equal(threaded, sequential)


def test_threaded_restarts_hand_out_each_index_once(monkeypatch):
    """More threads than cores and a short switch interval: a lost update
    of the shared counter would run a restart twice or skip one."""
    data = DataSet(np.random.default_rng(17).normal(size=(4, 12)))
    pin_blas(monkeypatch, cores=8)
    monkeypatch.setattr(solver, "PARALLEL_MIN_FLOATS", 0)
    handed = []
    draw = solver.random_partition

    def recorded(count, n_groups, seed, restart=0):
        handed.append(restart)
        return draw(count, n_groups, seed, restart)

    monkeypatch.setattr(solver, "random_partition", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(5):
            handed.clear()
            report = solve_best_model(data, 2, 1, restarts=24, seed=seed)
            assert sorted(handed) == list(range(24))
            assert report.restarts_used == 24
    finally:
        sys.setswitchinterval(interval)


def test_exception_in_a_helper_thread_reaches_the_caller(monkeypatch):
    # The calling thread's first restart waits until a helper thread has
    # raised, so the error must come from a helper; after it, no thread
    # starts another restart.
    data = DataSet(np.random.default_rng(5).normal(size=(4, 12)))
    pin_blas(monkeypatch)
    monkeypatch.setattr(solver, "PARALLEL_MIN_FLOATS", 0)
    raised = threading.Event()
    am = solver.alternate_minimize
    calls = []

    def failing(*args, **kwargs):
        calls.append(threading.current_thread())
        if threading.current_thread() is not threading.main_thread():
            raised.set()
            raise RuntimeError("restart failed in a helper")
        assert raised.wait(timeout=30)
        return am(*args, **kwargs)

    monkeypatch.setattr(solver, "alternate_minimize", failing)
    with pytest.raises(RuntimeError, match="restart failed in a helper"):
        solve_best_model(data, 2, 1, restarts=6, seed=1)
    assert raised.is_set()
    assert len(calls) <= 2


def refuse_thread_starts(monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)


def test_unpinned_blas_starts_no_thread(monkeypatch):
    data = DataSet(np.random.default_rng(5).normal(size=(4, 12)))
    pin_blas(monkeypatch, threads=None)
    monkeypatch.setattr(solver, "PARALLEL_MIN_FLOATS", 0)
    refuse_thread_starts(monkeypatch)
    report = solve_best_model(data, 2, 1, restarts=6, seed=1)
    assert report.restarts_used == 6


@pytest.mark.parametrize("stop_at, used", [(None, 5), (0, 1), (2, 3), (4, 5)])
def test_one_worker_runs_the_sequential_loop_on_the_calling_thread(
    monkeypatch, stop_at, used
):
    """One worker draws the indices in order on the calling thread, starts
    no thread, and returns the count the sequential loop runs: one past
    the index whose call returns True."""
    refuse_thread_starts(monkeypatch)
    caller = threading.current_thread()
    calls = []

    def run(i):
        calls.append((i, threading.current_thread()))
        return i == stop_at

    assert solver._run_threaded(run, 5, 1) == used
    assert calls == [(i, caller) for i in range(used)]


def test_one_worker_raises_in_the_caller_and_runs_no_further_task(monkeypatch):
    refuse_thread_starts(monkeypatch)
    calls = []

    def run(i):
        calls.append(i)
        if i == 1:
            raise RuntimeError("task 1 failed")
        return False

    with pytest.raises(RuntimeError, match="task 1 failed"):
        solver._run_threaded(run, 5, 1)
    assert calls == [0, 1]


def test_one_thread_solvers_import_no_thread_pool():
    """concurrent.futures, and the logging it imports, load only when a
    pool starts: a solve and an oracle on one thread never import them."""
    code = (
        "import sys, numpy as np\n"
        "from unionfit import DataSet, brute_force_oracle, solve_best_model\n"
        "data = DataSet(np.random.default_rng(0).normal(size=(5, 12)))\n"
        "solve_best_model(data, 2, 1, restarts=3, seed=1)\n"
        "brute_force_oracle(data, 2, 1)\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    env = {name: value for name, value in os.environ.items()
           if name not in solver.BLAS_THREAD_VARS}  # unpinned: one thread
    subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                   check=True)


def test_data_at_the_floor_equals_the_sequential_loop(monkeypatch):
    """Data of exactly PARALLEL_MIN_FLOATS entries, with the environment as
    it is: with BLAS pinned to one thread on a multi-core host this takes
    the threaded branch without any patching."""
    points = np.random.default_rng(29).normal(size=(64, solver.PARALLEL_MIN_FLOATS // 64))
    data = DataSet(points)
    assert data.points.size == solver.PARALLEL_MIN_FLOATS
    report = solve_best_model(data, 2, 1, restarts=4, seed=3)
    monkeypatch.setattr(solver, "PARALLEL_MIN_FLOATS", data.points.size + 1)
    assert_reports_equal(report, solve_best_model(data, 2, 1, restarts=4, seed=3))


FLOOR = solver.PARALLEL_MIN_FLOATS


@pytest.mark.parametrize(
    "env, cores, n_floats, restarts, workers",
    [
        ({}, 2, FLOOR, 4, 1),  # unset: BLAS takes every core
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, FLOOR, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, FLOOR, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 2, FLOOR, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 2, FLOOR, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, FLOOR, 4, 4),  # one per restart
        ({"OPENBLAS_NUM_THREADS": "2"}, 8, FLOOR, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "3"}, 8, FLOOR, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, FLOOR, 4, 1),
        # precedence: OPENBLAS, then MKL, then OMP; the first positive wins
        ({"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "1"}, 2, FLOOR, 4, 1),
        ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, FLOOR, 4, 2),
        ({"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, FLOOR, 4, 1),
        ({"OMP_NUM_THREADS": "1"}, 2, FLOOR, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, FLOOR, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "abc", "MKL_NUM_THREADS": "1"}, 2, FLOOR, 4, 2),
        # the data floor and a single restart
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, FLOOR - 1, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 200 * 1000, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 24 * 2000, 5, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, FLOOR, 1, 1),
    ],
)
def test_restart_thread_count_rule(monkeypatch, env, cores, n_floats, restarts,
                                   workers):
    for name in solver.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    assert solver._restart_workers(n_floats, restarts) == workers


def test_core_count_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert solver._cores() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert solver._cores() == 1


def oracle_blocks(count, n_groups, size):
    """The oracle's blocks of ``size`` canonical labelings: block b holds
    the ranks b size ... min(S, (b + 1) size) - 1, decoded by
    ``_canonical_labelings``."""
    table = solver._completions(count, n_groups)
    total = int(table[-1, 0])
    return [solver._canonical_labelings(table, start, min(total, start + size))
            for start in range(0, total, size)]


def assert_labelings_match_the_successor_loop(count, n_groups, size):
    ours = oracle_blocks(count, n_groups, size)
    every = np.concatenate(list(reference_canonical_labelings(count, n_groups, 64)))
    theirs = [every[start : start + size] for start in range(0, len(every), size)]
    assert len(ours) == len(theirs), (count, n_groups)
    for a, b in zip(ours, theirs):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), (count, n_groups)


@pytest.mark.parametrize("size", [1, 7, 136, 10**6])
def test_canonical_labelings_match_the_successor_loop(size):
    """The labelings of the loop the enumeration replaced, in the same
    order, cut into the oracle's blocks of ``size`` labelings, the last
    one possibly shorter (one block of all at ``size = 10**6``), for m up
    to 11 at l <= 4 and up to 10 at l = 5.  Blocks of one labeling are
    decoded one rank at a time, so they stop at m = 8."""
    for n_groups in range(1, 6):
        for count in range(1, min(9 if size == 1 else 12, 16 - n_groups)):
            assert_labelings_match_the_successor_loop(count, n_groups, size)


@pytest.mark.parametrize("n_groups", [1, 2, 3, 4, 5])
def test_canonical_labelings_decode_single_ranks(n_groups):
    """Random access: rank r alone, ``(r, r + 1)``, decodes to row r of
    the successor loop, and ``table[m - 1, 0]`` counts its rows.  At
    l = 1 every m, here 10^5, has one labeling, all zeros."""
    for count in range(1, 11):
        table = solver._completions(count, n_groups)
        every = np.concatenate(list(reference_canonical_labelings(count, n_groups, 64)))
        assert table.dtype == np.int64 and table[-1, 0] == len(every)
        ranks = np.unique(np.linspace(0, len(every) - 1, 50).astype(int))
        for r in ranks:
            one = solver._canonical_labelings(table, r, r + 1)
            assert one.shape == (1, count) and np.array_equal(one[0], every[r])
    table = solver._completions(10**5, 1)
    assert table[-1, 0] == 1
    assert not solver._canonical_labelings(table, 0, 1).any()


def oracle_one_and_two_threads(monkeypatch, data, n_groups, k, per_block=4,
                               before_threads=lambda: None):
    """brute_force_oracle on one thread at the default block size, then,
    after ``before_threads()``, on two threads at a cap of ``per_block``
    labelings a screened block, on a copy of ``data`` that shares no
    memoized fit with the first run; returns both reports.  The cap is the
    least ``ORACLE_BATCH_FLOATS`` that gives ``per_block``
    (``set_block_cap``).  The enumeration must hold more than ``per_block``
    canonical labelings."""
    pin_blas(monkeypatch, cores=1)
    sequential = brute_force_oracle(data, n_groups, k)
    before_threads()
    pin_blas(monkeypatch, cores=2)
    set_block_cap(monkeypatch, data.count, data.ambient_dim, n_groups, k, per_block)
    size, chunk, _ = solver._oracle_plan(data.count, data.ambient_dim, n_groups, k)
    workers, screened, scored = [], [], []
    run_threaded = solver._run_threaded
    screen = solver.gram_screen
    score = solver.best_subspace_residuals

    def counted(run, count, n_workers):
        workers.append(n_workers)
        return run_threaded(run, count, n_workers)

    def screen_sized(points, gram, members, k, norms):
        screened.append(len(members))
        return screen(points, gram, members, k, norms)

    def score_sized(points, members, k):
        scored.append(len(members))
        return score(points, members, k)

    monkeypatch.setattr(solver, "_run_threaded", counted)
    monkeypatch.setattr(solver, "gram_screen", screen_sized)
    monkeypatch.setattr(solver, "best_subspace_residuals", score_sized)
    threaded = brute_force_oracle(DataSet(data.points), n_groups, k)
    assert workers == [2]
    # The floats in flight: blocks of ``size`` labelings within the cap,
    # the last one possibly shorter, at least one per thread, and the exact
    # scores see no more than one chunk.
    total = canonical_count(data.count, n_groups)
    assert len(screened) >= 2 and sum(screened) == n_groups * total
    *full, last = sorted(screened, reverse=True)
    assert full == [n_groups * size] * len(full) and last <= n_groups * size
    assert size <= per_block and size <= -(-total // 2)
    assert max(scored) <= n_groups * chunk
    return sequential, threaded


def canonical_count(count, n_groups):
    return sum(map(len, reference_canonical_labelings(count, n_groups, 64)))


def set_block_cap(monkeypatch, count, ambient_dim, n_groups, k, per_block):
    """Set ``ORACLE_BATCH_FLOATS`` to the least value that allows
    ``per_block`` labelings a screened block: ``per_block`` times the
    floats one labeling's screen stacks, by the cap's rule: its groups'
    blocks of F^T F, at most m^2 floats, where the solver's Gram rule reads
    F^T F, else l Gram matrices of order N."""
    rows = n_groups * (k + 1) * count
    if solver._reads_gram(count, ambient_dim, n_groups):
        screened = count**2 + rows
    else:
        screened = n_groups * ambient_dim**2 + rows
    monkeypatch.setattr(solver, "ORACLE_BATCH_FLOATS", per_block * screened)


@st.composite
def threaded_oracle_instances(draw):
    n_groups = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, 5))
    m = draw(st.integers(n_groups + 2, 7))
    k = draw(st.sampled_from([0, 1]))
    pts = draw(arrays(np.float64, (n, m), elements=st.floats(-4, 4)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                            st.integers(0, m - 1)), max_size=2)):
        pts[:, dst] = pts[:, src]
    # Below the canonical count, so the enumeration takes more than one
    # block and starts threads.
    per_block = draw(st.integers(2, min(9, canonical_count(m, n_groups) - 1)))
    return DataSet(pts), n_groups, k, per_block


@settings(max_examples=40)
@given(threaded_oracle_instances())
def test_threaded_oracle_equals_the_one_thread_run(instance):
    data, n_groups, k, per_block = instance
    if refused_as_underflowing(data):
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        sequential, threaded = oracle_one_and_two_threads(
            monkeypatch, data, n_groups, k, per_block
        )
    assert_reports_equal(threaded, sequential)


def test_threaded_oracle_keeps_the_lowest_block_of_a_tie(monkeypatch):
    """Points on one axis score exactly 0.0 under every labeling, and the
    all-zeros labeling of block 0 leaves the second subspace empty.  The
    thread that draws block 0 scores it only after the other thread has
    recorded a later block, which ties it; block 0 must still win."""
    data = DataSet(np.vstack([np.arange(1.0, 9.0), np.zeros((2, 8))]))
    later_scored = threading.Event()
    score = solver.best_subspace_residuals
    later_calls = []

    def ordered(points, members, k):
        if members[0].all():  # block 0: its first labeling is all zeros
            assert later_scored.wait(timeout=30)
        else:
            later_calls.append(None)
            if len(later_calls) == 2:  # the first later block is recorded
                later_scored.set()
        return score(points, members, k)

    sequential, threaded = oracle_one_and_two_threads(
        monkeypatch, data, 2, 1,
        before_threads=lambda: monkeypatch.setattr(
            solver, "best_subspace_residuals", ordered),
    )
    assert later_scored.is_set()
    assert threaded.error == 0.0
    assert [v.dim for v in threaded.bundle] == [1, 0]
    assert_reports_equal(threaded, sequential)
    error, bundle, partition = reference_oracle(data, 2, 1)
    assert (threaded.error, threaded.partition.groups) == (error, partition.groups)
    assert [v.dim for v in bundle] == [1, 0]


@pytest.mark.parametrize("on_axis", [True, False], ids=["tied", "random"])
def test_oracle_on_more_threads_than_cores_keeps_the_one_thread_winner(
    monkeypatch, on_axis
):
    """Eight threads, more than the cores they run on, switching every
    microsecond, over 32 blocks of 16 labelings that each record their own
    winner: the report equals the one-thread run's, also when every
    labeling scores exactly 0.0 and block 0's first labeling must win the
    tie."""
    rng = np.random.default_rng(16)
    points = (np.vstack([np.arange(1.0, 11.0), np.zeros((2, 10))]) if on_axis
              else rng.normal(size=(3, 10)))
    data = DataSet(points)
    pin_blas(monkeypatch, cores=1)
    sequential = brute_force_oracle(data, 2, 1)
    pin_blas(monkeypatch, cores=8)
    set_block_cap(monkeypatch, data.count, data.ambient_dim, 2, 1, 16)
    assert solver._oracle_plan(data.count, data.ambient_dim, 2, 1)[::2] == (16, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = brute_force_oracle(data, 2, 1)
    finally:
        sys.setswitchinterval(interval)
    assert_reports_equal(threaded, sequential)
    if on_axis:
        assert threaded.error == 0.0


def test_exception_in_an_oracle_helper_reaches_the_caller(monkeypatch):
    # The calling thread's first block waits until a helper has raised;
    # the threads then stop drawing blocks, long before the last one.
    # Every block is screened, while the exact path sees only the blocks
    # whose labelings pass the screen, so the screen is where a helper
    # fails.
    data = DataSet(np.random.default_rng(6).normal(size=(3, 9)))
    pin_blas(monkeypatch)
    monkeypatch.setattr(solver, "ORACLE_BATCH_FLOATS", 4 * 2 * data.points.size)
    size, _, _ = solver._oracle_plan(data.count, data.ambient_dim, 2, 1)
    blocks = -(-canonical_count(data.count, 2) // size)
    raised = threading.Event()
    screen = solver.gram_screen
    calls = []

    def failing(points, gram, members, k, norms):
        calls.append(threading.current_thread())
        if threading.current_thread() is not threading.main_thread():
            raised.set()
            raise RuntimeError("block failed in a helper")
        assert raised.wait(timeout=30)
        return screen(points, gram, members, k, norms)

    monkeypatch.setattr(solver, "gram_screen", failing)
    with pytest.raises(RuntimeError, match="block failed in a helper"):
        brute_force_oracle(data, 2, 1)
    assert raised.is_set()
    assert len(calls) < blocks


@pytest.mark.parametrize("threads, floats", [("1", None), (None, 1)])
def test_oracle_starts_no_thread_for_one_block_or_unpinned_blas(
    monkeypatch, threads, floats
):
    """With BLAS pinned, an enumeration within one thread's share of a
    block stays on the calling thread, as do criterion 2's largest
    instances (m = 8, N = 2 and 5); with BLAS unpinned, so does one of
    hundreds of blocks."""
    rng = np.random.default_rng(8)
    datasets = [DataSet(rng.normal(size=shape)) for shape in ((3, 9), (2, 8), (5, 8))]
    pin_blas(monkeypatch, threads=threads)
    if floats is not None:
        monkeypatch.setattr(solver, "ORACLE_BATCH_FLOATS", floats)
    references = [brute_force_oracle(data, 2, 1) for data in datasets]
    refuse_thread_starts(monkeypatch)
    for data, reference in zip(datasets, references):
        assert_reports_equal(brute_force_oracle(data, 2, 1), reference)


def plan_at_cap(monkeypatch, count, n_groups, per_block, ambient_dim=3, k=1):
    """``_oracle_plan`` at a cap of ``per_block`` labelings a block."""
    set_block_cap(monkeypatch, count, ambient_dim, n_groups, k, per_block)
    return solver._oracle_plan(count, ambient_dim, n_groups, k)


@pytest.mark.parametrize(
    "count, n_groups, per_block, workers",
    [
        # 41 canonical labelings of 5 points in <= 3 groups: on two threads
        # they stay one block up to a cap of 82, twice their count
        (5, 3, 82, 1),
        (5, 3, 81, 2),
        (5, 3, 40, 2),
        (5, 2, 32, 1),  # l = 2: 16 canonical labelings
        (5, 2, 15, 2),
        (200, 1, 1, 1),  # one labeling
        (12, 2, 1, 2),  # at most one thread per core
    ],
)
def test_oracle_thread_count_rule(monkeypatch, count, n_groups, per_block, workers):
    """``per_block`` is the cap on labelings a block; BLAS pinned on two
    cores, then unpinned."""
    pin_blas(monkeypatch)
    assert plan_at_cap(monkeypatch, count, n_groups, per_block)[2] == workers
    pin_blas(monkeypatch, threads=None)
    assert plan_at_cap(monkeypatch, count, n_groups, per_block)[2] == 1


@given(st.integers(1, 9), st.integers(1, 4), st.integers(1, 5000),
       st.integers(1, 8))
def test_oracle_block_plan(count, n_groups, per_block, cores):
    """Each of t threads takes an equal share of the S canonical
    labelings, cut into as few blocks as a cap of ``per_block`` allows:
    blocks of one size within the cap, the last one possibly shorter, and
    no larger than ceil(S / t), so that every thread has a block once
    S > t (t - 1).  Labelings within one thread's share of the cap stay
    one block and start no thread."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        pin_blas(monkeypatch, cores=cores)
        size, _, workers = plan_at_cap(monkeypatch, count, n_groups, per_block)
        sizes = [len(block) for block in oracle_blocks(count, n_groups, size)]
    total = canonical_count(count, n_groups)
    threads = min(cores, total)
    assert sum(sizes) == total
    assert sizes[:-1] == [size] * (len(sizes) - 1) and sizes[-1] <= size
    assert size <= per_block
    if total * threads > per_block:
        share = -(-total // threads)
        assert size <= share
        assert -(-share // size) == -(-share // per_block)  # fewest blocks
        assert workers == min(threads, len(sizes))
        assert len(sizes) >= threads or total <= threads * (threads - 1)
    else:
        assert (sizes, workers) == ([total], 1)


def test_oracle_block_plan_at_the_benchmark_shape(monkeypatch):
    """N = 20, m = 12, l = 2, k = 1: 2 blocks of 1024 on one thread and on
    two, since a labeling's blocks of F^T F hold at most m^2 floats; at
    N = 4, from X X^T, 2 blocks of 1024 on two."""
    plans = {}
    for threads, n in ((None, 20), ("1", 20), ("1", 4)):
        pin_blas(monkeypatch, threads=threads)
        size, _, workers = solver._oracle_plan(12, n, 2, 1)
        sizes = [len(block) for block in oracle_blocks(12, 2, size)]
        plans[threads, n] = sizes, workers
    assert plans[None, 20] == ([1024] * 2, 1)
    assert plans["1", 20] == ([1024] * 2, 2)
    assert plans["1", 4] == ([1024] * 2, 2)


def test_oracle_axis_instance():
    data = DataSet(np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 3.0]]))
    report = brute_force_oracle(data, 2, 1)
    assert report.error <= 1e-12
    assert report.partition.groups == ((0, 1), (2, 3))
    assert report.certified_optimal


def test_oracle_single_group_equals_ek():
    rng = np.random.default_rng(7)
    data = DataSet(rng.normal(size=(4, 6)))
    report = brute_force_oracle(data, 1, 2)
    assert report.error == pytest.approx(ek_min_error(data.points, 2), abs=1e-9)


def test_oracle_matches_naive_enumeration_exactly():
    rng = np.random.default_rng(111)
    for trial in range(8):
        pts = rng.normal(size=(3, 6))
        pts[:, 3:] += rng.normal(scale=0.1, size=(3, 3))  # mildly clustered noise
        data = DataSet(pts)
        report = brute_force_oracle(data, 2, 1)
        naive, _ = naive_enumeration(pts, 2, 1)
        assert report.error == naive
        assert_oracle_matches_reference(data, 2, 1)
    # Degenerate inputs in R^3, where groups of 4 or more points are wider
    # than the ambient space.
    for n_groups in (1, 2, 3):
        for k in (0, 1, 2):
            noisy = rng.normal(size=(3, 6))
            noisy[:, 1] = noisy[:, 0]  # duplicated column
            noisy[:, 4] = 0.0  # zero column
            rank_one = np.outer(rng.normal(size=3), rng.normal(size=6))
            rank_two = rng.normal(size=(3, 2)) @ rng.normal(size=(2, 6))
            for pts in (noisy, rank_one, rank_two):
                assert_oracle_matches_reference(DataSet(pts), n_groups, k)
    # Tall data splits the enumeration into several batches.  Every
    # labeling ties at k = 0, and at exactly 0.0 for points on one axis,
    # where the winner decides whether a group is empty: the first
    # labeling must win across batches.
    tall = rng.normal(size=(600, 7))
    on_axis = np.zeros((600, 7))
    on_axis[0] = np.arange(1.0, 8.0)
    for pts, k in ((tall, 0), (tall, 1), (on_axis, 1)):
        assert_oracle_matches_reference(DataSet(pts), 2, k)
    # l = 1 admits any m within the budget: its one labeling is all zeros,
    # whatever the length.
    data = DataSet(rng.normal(size=(3, 200)))
    report = assert_oracle_matches_reference(data, 1, 1)
    assert report.error == pytest.approx(ek_min_error(data.points, 1), rel=1e-9)


@st.composite
def small_oracle_instances(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(2, 8))
    n_groups = draw(st.integers(1, min(3, m - 1)))
    k = draw(st.integers(0, n - 1))
    pts = draw(arrays(np.float64, (n, m), elements=st.floats(-4, 4)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                            st.integers(0, m - 1)), max_size=2)):
        pts[:, dst] = pts[:, src]
    for j in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        pts[:, j] = 0.0
    return DataSet(pts), n_groups, k


@given(small_oracle_instances())
def test_oracle_property_exact_and_below_heuristic(instance):
    data, n_groups, k = instance
    if refused_as_underflowing(data):
        return
    report = assert_oracle_matches_reference(data, n_groups, k)
    heuristic = solve_best_model(data, n_groups, k, restarts=3, seed=0)
    assert report.error <= heuristic.error + 1e-9


def screen_grams(points, members):
    """The Gram data gram_screen reads, in each form the solvers build it:
    F^T F, and when N < m also the slices' own X X^T, both as the oracle's
    masked sums of outer products and as alternating minimization's
    products of each slice with itself."""
    n_rows, count = points.shape
    with np.errstate(all="ignore"):  # past the float range no row is trusted
        gram = DataSet(points).gram
        if n_rows >= count:
            return [gram]
        outer = (points.T[:, :, None] * points.T[:, None, :]).reshape(count, -1)
        masked = (members.astype(float) @ outer).reshape(-1, n_rows, n_rows)
        own = np.stack([x @ x.T for x in (points[:, g] for g in members)])
    return [gram, masked, own]


def assert_screen_within_slack(data, n_groups, k, labels=None):
    """The oracle's window rests on this: over every canonical labeling,
    or the rows of ``labels`` where given, each screened row lies within
    its slack of the exact row (summed over the points), so each
    labeling's screened error lies within the sum of its groups' slacks
    of its exact error.  Alternating minimization's rows rest on it too:
    it takes the screened row wherever the slack is finite.  Returns the
    slacks of the last form of the Gram data."""
    points = data.points
    if labels is None:
        labels = np.concatenate(
            list(reference_canonical_labelings(data.count, n_groups, 64)))
    members = (labels[:, None, :] == np.arange(n_groups)[:, None]).reshape(
        -1, data.count)
    exact = fitting.best_subspace_residuals(points, members, k)
    for gram in screen_grams(points, members):
        norms = fitting.squared_norms(points, gram if gram.ndim == 2 else None)
        rows, slack = fitting.gram_screen(points, gram, members, k, norms)
        assert np.all(rows >= 0)
        assert np.all(np.sum(np.abs(rows - exact), axis=1) <= slack)
        shape = len(labels), n_groups, data.count
        screened = np.sum(np.min(rows.reshape(shape), axis=1), axis=1)
        scores = np.sum(np.min(exact.reshape(shape), axis=1), axis=1)
        assert np.all(np.abs(screened - scores)
                      <= np.sum(slack.reshape(shape[:2]), axis=1))
    return slack


@given(small_oracle_instances())
def test_screen_lies_within_its_slack(instance):
    assert_screen_within_slack(*instance)


@settings(max_examples=40)
@given(threaded_oracle_instances())
def test_screen_lies_within_its_slack_on_threaded_instances(instance):
    data, n_groups, k, _ = instance
    assert_screen_within_slack(data, n_groups, k)


def test_screen_lies_within_its_slack_on_tall_and_tied_data():
    """The tall cases of the naive-enumeration test, and points on one axis,
    where every labeling scores exactly 0.0.  On tall random data every
    fitted row is trusted, so the window is narrow there."""
    rng = np.random.default_rng(111)
    tall = rng.normal(size=(600, 7))
    on_axis = np.zeros((600, 7))
    on_axis[0] = np.arange(1.0, 8.0)
    for pts, k in ((tall, 0), (tall, 1), (on_axis, 1)):
        slack = assert_screen_within_slack(DataSet(pts), 2, k)
        assert np.all(np.isfinite(slack))
    tie = np.vstack([np.arange(1.0, 9.0), np.zeros((2, 8))])
    assert_screen_within_slack(DataSet(tie), 2, 1)
    # Groups far smaller in norm than the data: a screen that took the
    # eigenvectors of the masked m x m Gram matrix instead of the group's
    # own block leaks rounding onto the other points' Gram entries, and
    # misses its slack here by a factor of hundreds.
    mixed = rng.normal(size=(20, 8))
    mixed[:, ::2] *= 1e-6
    for n_groups, k in ((2, 1), (3, 2)):
        assert_screen_within_slack(DataSet(mixed), n_groups, k)
    # Gram entries that underflow, and squares past the float range, where
    # the exact errors are inf and the screen must trust no row.
    rotated = np.linalg.qr(rng.normal(size=(3, 3)))[0] @ tie
    assert_screen_within_slack(DataSet(1e-160 * rotated), 2, 1)
    with np.errstate(over="ignore"):
        slack = assert_screen_within_slack(DataSet(1e160 * rotated), 2, 1)
    assert np.all(np.isinf(slack))


def test_screen_lies_within_its_slack_above_the_block_floor(monkeypatch, ritz_rows):
    """At N = BLOCK_MIN_ORDER < m, where every slice's X X^T, as the
    oracle and alternating minimization form it, goes through the block
    iteration: two planes with duplicated and zero columns, points on one
    axis, k at or above the groups' rank, and the planes rescaled by
    1e-160 (Gram entries that underflow) and 1e160 (squares past the float
    range, where no row is trusted).  The labelings are the planes' own
    and random ones, whose groups mix both planes."""
    rng = np.random.default_rng(231)
    n, m = fitting.BLOCK_MIN_ORDER, 80
    truth = np.repeat([0, 1], m // 2)
    planes = np.hstack([np.linalg.qr(rng.normal(size=(n, 2)))[0]
                        @ rng.normal(size=(2, m // 2)) for _ in range(2)])
    clean = planes.copy()
    planes += 1e-3 * rng.normal(size=(n, m))
    for pts in (planes, clean):
        pts[:, 1] = pts[:, 0]  # duplicated column
        pts[:, [2, 47]] = 0.0  # zero columns
    on_axis = np.zeros((n, m))
    on_axis[0] = np.arange(1.0, m + 1.0)
    labels = np.vstack([truth, rng.integers(0, 2, size=(7, m))])
    # Clean planes at k = 3 leave the planes' own groups untrusted (k
    # above their rank); the mixed groups are fitted.
    for pts, k in ((planes, 1), (planes, 2), (planes, 3), (clean, 3), (on_axis, 1)):
        ritz_rows[0] = 0
        assert_screen_within_slack(DataSet(pts), 2, k, labels)
        assert ritz_rows[0] > 0
    # k above every group's rank: no row is trusted.
    slack = assert_screen_within_slack(DataSet(on_axis), 2, 2, labels)
    assert np.all(np.isinf(slack))
    assert_screen_within_slack(DataSet(1e-160 * planes), 2, 2, labels)
    with np.errstate(over="ignore"):
        slack = assert_screen_within_slack(DataSet(1e160 * planes), 2, 2, labels)
    assert np.all(np.isinf(slack))
    # Stopped after three steps, with a loose tolerance, the Ritz rows of
    # noisier planes are off by far more than rounding: the slack must
    # cover the iteration's residual.
    monkeypatch.setattr(fitting, "BLOCK_STEPS", 3)
    monkeypatch.setattr(fitting, "BLOCK_SIN_TOL", 1e-3)
    noisy = clean + 3e-2 * rng.normal(size=(n, m))
    for k in (1, 2):
        ritz_rows[0] = 0
        assert_screen_within_slack(DataSet(noisy), 2, k, labels)
        assert ritz_rows[0] > 0


def screened_block_sizes(monkeypatch, data, n_groups, k):
    """The sizes of the blocks brute_force_oracle hands the Gram screen,
    in order, on one thread."""
    pin_blas(monkeypatch, threads=None)
    sizes = []
    screen = solver.gram_screen

    def recorded(points, gram, members, k, norms):
        sizes.append(len(members) // n_groups)
        return screen(points, gram, members, k, norms)

    monkeypatch.setattr(solver, "gram_screen", recorded)
    brute_force_oracle(data, n_groups, k)
    monkeypatch.setattr(solver, "gram_screen", screen)
    return sizes


@pytest.mark.parametrize("n_groups, k", [(2, 1), (3, 2)])
def test_oracle_blocks_do_not_shrink_as_the_data_grows_tall(
    monkeypatch, n_groups, k
):
    """The screen stacks Gram matrices of at most m x m whatever N is, so
    the oracle screens the same blocks at N = 20 and at N = 2000; only
    the exact chunks shrink."""
    rng = np.random.default_rng(14)
    m = 12 if n_groups == 2 else 9
    short = screened_block_sizes(
        monkeypatch, DataSet(rng.normal(size=(20, m))), n_groups, k)
    tall = screened_block_sizes(
        monkeypatch, DataSet(rng.normal(size=(2000, m))), n_groups, k)
    assert len(short) > 1
    assert tall == short
    assert sum(short) == canonical_count(m, n_groups)
    assert (solver._oracle_plan(m, 2000, n_groups, k)[1]
            < solver._oracle_plan(m, 20, n_groups, k)[1])


@pytest.mark.parametrize("n, m", [(4, 12), (8, 12), (20, 12), (1000, 14)])
def test_oracle_memory_stays_within_its_cap(monkeypatch, n, m):
    """The tracemalloc peak of a one-thread oracle, its blocks screened and
    scored one at a time, stays within the multiple of
    ``8 * ORACLE_BATCH_FLOATS`` bytes that the cap's comment states: at
    N = 4 every labeling fits in one block, at N = 8 the screen reads
    blocks of F^T F though m > N, at N = 20 they take two, and at
    N = 1000 the exact chunks hold 9 labelings of 1000 x 14 slices."""
    data = DataSet(np.random.default_rng(15).normal(size=(n, m)))
    pin_blas(monkeypatch, threads=None)
    tracemalloc.start()
    try:
        brute_force_oracle(data, 2, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * solver.ORACLE_BATCH_FLOATS


@pytest.mark.parametrize("floats", [None, 19200])
def test_oracle_scores_a_window_of_every_labeling_in_chunks(monkeypatch, floats):
    """Points on one axis score exactly 0.0 under every labeling, so every
    labeling passes the screen.  The exact path still sees at most one
    chunk at a time, and the first labeling wins, as in the reference:
    in one block at the default cap, and in two blocks on two threads,
    with chunks of two labelings, at 19200 floats."""
    on_axis = np.zeros((600, 8))
    on_axis[0] = np.arange(1.0, 9.0)
    data = DataSet(on_axis)
    pin_blas(monkeypatch)
    if floats is not None:
        monkeypatch.setattr(solver, "ORACLE_BATCH_FLOATS", floats)
    _, chunk, workers = solver._oracle_plan(data.count, data.ambient_dim, 2, 1)
    assert 1 < chunk < canonical_count(data.count, 2)
    assert workers == (1 if floats is None else 2)
    scored = []
    score = solver.best_subspace_residuals

    def score_sized(points, members, k):
        scored.append(len(members) // 2)
        return score(points, members, k)

    monkeypatch.setattr(solver, "best_subspace_residuals", score_sized)
    report = assert_oracle_matches_reference(data, 2, 1)
    assert report.error == 0.0
    assert sum(scored) == canonical_count(data.count, 2)
    assert max(scored) == chunk


@st.composite
def tall_oracle_instances(draw):
    m = draw(st.integers(3, 7))
    n = draw(st.integers(m, 60))
    n_groups = draw(st.integers(1, min(3, m - 1)))
    k = draw(st.integers(0, 2))
    pts = draw(arrays(np.float64, (n, m), elements=st.floats(-4, 4)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                            st.integers(0, m - 1)), max_size=2)):
        pts[:, dst] = pts[:, src]
    # From one-labeling blocks and chunks up to the default cap.
    floats = draw(st.sampled_from([1, 64, 512, solver.ORACLE_BATCH_FLOATS]))
    return DataSet(pts), n_groups, k, floats


@settings(max_examples=60)
@given(tall_oracle_instances())
def test_tall_oracle_matches_the_reference(instance):
    data, n_groups, k, floats = instance
    if refused_as_underflowing(data):
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(solver, "ORACLE_BATCH_FLOATS", floats)
        assert_oracle_matches_reference(data, n_groups, k)


def test_solvers_refuse_data_whose_squared_norm_overflows():
    """Every model error of such data would overflow, and the oracle would
    find no labeling below inf."""
    data = DataSet(np.full((2, 3), 1e200))
    init = Partition(np.array([0, 0, 1]), 2)
    for call in (lambda: alternate_minimize(data, 2, 1, init),
                 lambda: solve_best_model(data, 2, 1, restarts=2, seed=0),
                 lambda: brute_force_oracle(data, 2, 1)):
        with pytest.raises(OutOfRange, match="--normalize"):
            call()


@pytest.mark.parametrize("shift", [560, 520])
def test_solvers_refuse_data_whose_squared_norm_underflows(shift):
    """4 x 8 normal points scaled by 2^-560 have ||F||_F^2 of 0.0 as a
    float, and the oracle certified an error of 0.0 on them; at 2^-520 it
    is subnormal, and so was the oracle's error.  Like overflow, a
    squared norm below the normal range is refused, naming --normalize."""
    points = np.random.default_rng(0).normal(size=(4, 8))
    assert refused_as_underflowing(DataSet(np.ldexp(points, -shift)))


@pytest.mark.parametrize("n_rows", [24, 200])
def test_group_rows_stack_each_groups_x_xt(n_rows):
    """Where the groups' fits read X X^T, ``_group_rows`` writes each
    group's product into one preallocated stack: the screen's rows and
    slacks are those from ``np.stack`` of the products, bit for bit."""
    rng = np.random.default_rng(n_rows)
    points = rng.normal(size=(n_rows, 1000))
    members = rng.integers(0, 4, 1000) == np.arange(4)[:, None]
    assert not solver._reads_gram(1000, n_rows, 4)
    norms = fitting.squared_norms(points)
    rows, slack = solver._group_rows(points, None, members, 3, norms)
    stack = np.stack([x @ x.T for x in (points[:, g] for g in members)])
    expected = fitting.gram_screen(points, stack, members, 3, norms)
    assert np.all(np.isfinite(slack))
    assert np.array_equal(rows, expected[0]) and np.array_equal(slack, expected[1])


def test_oracle_budget():
    data = DataSet(np.random.default_rng(1).normal(size=(3, 12)))
    with pytest.raises(BudgetExceeded) as info:
        brute_force_oracle(data, 2, 1, budget=1000)
    assert info.value.required == 2**12
    assert info.value.budget == 1000
    with pytest.raises(OutOfRange):
        brute_force_oracle(data, 2, 1, budget=0)


def test_oracle_budget_fits_the_int64_digits():
    """Labelings are int64 digits, so a budget past 2^63 - 1 is refused."""
    data = DataSet(np.random.default_rng(1).normal(size=(3, 6)))
    with pytest.raises(OutOfRange, match="at most 2"):
        brute_force_oracle(data, 2, 1, budget=2**63)
    assert brute_force_oracle(data, 2, 1, budget=2**63 - 1).certified_optimal


def test_report_counts_come_from_the_traces():
    rng = np.random.default_rng(21)
    data = DataSet(rng.normal(size=(4, 9)))
    init = random_partition(data.count, 2, seed=1)
    reports = [
        alternate_minimize(data, 2, 1, init),
        alternate_minimize(data, 2, 1, init, refit=False),
        solve_best_model(data, 2, 1, restarts=5, seed=4),
        solve_best_model(data, 2, 1, restarts=5, seed=4, stop_below=1e300),
        brute_force_oracle(data, 2, 1),
    ]
    for report in reports:
        assert report.restarts_used == len(report.error_traces)
        assert report.iterations == tuple(map(len, report.error_traces))
    am, _, full, stopped, oracle = reports
    assert am.restarts_used == 1 and am.iterations[0] >= 1
    assert full.restarts_used == 5 and stopped.restarts_used == 1
    assert (oracle.restarts_used, oracle.iterations, oracle.winner) == (0, (), 0)


def test_oracle_dominates_heuristic():
    rng = np.random.default_rng(131)
    for _ in range(10):
        data = DataSet(rng.normal(size=(4, 7)))
        floor = brute_force_oracle(data, 2, 1).error
        found = solve_best_model(data, 2, 1, restarts=30, seed=9).error
        assert found >= floor - 1e-9


def test_oracle_pair_mutually_generated():
    rng = np.random.default_rng(149)
    for _ in range(10):
        data = DataSet(rng.normal(size=(3, 6)))
        report = brute_force_oracle(data, 2, 1)
        # partition is generated by the bundle: assigned distance == min distance
        for gi, group in enumerate(report.partition.groups):
            for j in group:
                dists = [dist2_to_subspace(data.column(j), v) for v in report.bundle]
                assert dists[gi] <= min(dists) + 1e-9
        # bundle is generated by the partition: group fits are optimal
        fit_sum = sum(
            group_error(data.take(g), v)
            for g, v in zip(report.partition.groups, report.bundle)
        )
        best_sum = sum(ek_min_error(data.take(g), 1) for g in report.partition.groups)
        assert fit_sum <= best_sum + 1e-9


def test_label_permutation_symmetry():
    rng = np.random.default_rng(163)
    data = DataSet(rng.normal(size=(5, 8)))
    subs = tuple(
        Subspace(np.linalg.qr(rng.normal(size=(5, 1)))[0]) for _ in range(3)
    )
    bundle = Bundle(subs, cap_dim=1)
    base = bundle_error(data, bundle)
    for perm in itertools.permutations(range(3)):
        permuted = Bundle(tuple(subs[i] for i in perm), cap_dim=1)
        assert bundle_error(data, permuted) == base
        part, _ = partition_from_bundle(data, bundle)
        ppart, _ = partition_from_bundle(data, permuted)
        assert tuple(sorted(part.groups)) == tuple(sorted(ppart.groups))


def test_refit_of_returned_partition_matches_returned_bundle():
    # the solver's partition regenerates (up to tolerance) the solver's bundle
    rng = np.random.default_rng(177)
    data = DataSet(rng.normal(size=(5, 9)))
    report = solve_best_model(data, 2, 2, restarts=10, seed=13)
    refit = bundle_from_partition(data, report.partition, 2)
    assert bundle_error(data, refit) <= report.error + 1e-9


@pytest.mark.parametrize("k", [0, 1])
@given(
    arrays(np.float64, st.tuples(st.integers(2, 5), st.integers(3, 7)),
           elements=st.floats(-4, 4)),
    st.integers(0, 2**16),
)
def test_memory_layout_never_changes_a_result(k, points, seed):
    """A DataSet stores its points in C order, so a Fortran-ordered copy of
    the same points gives == results from every solver and the error."""
    row_major = DataSet(points)
    col_major = DataSet(np.asfortranarray(points))
    assert col_major.points.flags.c_contiguous
    if refused_as_underflowing(row_major):
        assert refused_as_underflowing(col_major)
        return
    for solve in (
        lambda data: brute_force_oracle(data, 2, k),
        lambda data: solve_best_model(data, 2, k, restarts=3, seed=seed),
    ):
        a, b = solve(row_major), solve(col_major)
        assert (a.error, a.partition, a.error_traces) == (
            b.error, b.partition, b.error_traces)
        assert bundle_error(row_major, a.bundle) == bundle_error(col_major, a.bundle)
