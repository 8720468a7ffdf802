import itertools

import numpy as np
import pytest
from hypothesis import given
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

    Together they take every fitting path of the Gram loop (groups at
    least as wide as N, narrower groups, the SVD fallback for k >= rank
    and rank-1 groups), start from empty groups, reseed a group emptied
    mid-run, and leave through each exit.
    """
    rng = np.random.default_rng(191)
    noisy = SyntheticSpec(ambient_dim=20, n_subspaces=3, max_dim=2, n_points=150,
                          noise_sigma=0.01, seed=5)
    clean = SyntheticSpec(ambient_dim=10, n_subspaces=2, max_dim=2, n_points=30,
                          seed=6)
    wide, _ = generate_synthetic(noisy)
    exact, truth = generate_synthetic(clean)
    narrow = DataSet(rng.normal(size=(30, 24)))
    generic = DataSet(rng.normal(size=(8, 24)))
    line = rng.normal(size=(6, 20))
    line[:, :6] = np.outer(rng.normal(size=6), np.arange(1.0, 7.0))  # rank 1
    line = DataSet(line)
    small = DataSet(rng.normal(size=(4, 8)))
    three = DataSet(rng.normal(size=(5, 12)))
    emptied = DataSet(np.random.default_rng(3).normal(size=(5, 10)))
    emptied_twice = DataSet(np.random.default_rng(146).normal(size=(5, 10)))
    two_points = np.full(24, 2)
    two_points[:2] = 0  # a group of 2 points under k = 3
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
        ("one-empty-group", small, 2, 1,
         Partition(np.zeros(8, dtype=int), 2), {}, "fixpoint"),
        ("two-empty-groups", three, 3, 1,
         Partition(np.ones(12, dtype=int), 3), {}, "fixpoint"),
        ("group-emptied-mid-run", emptied, 4, 2, random_partition(10, 4, 3), {},
         "fixpoint"),
        ("two-groups-emptied-at-once", emptied_twice, 4, 2,
         random_partition(10, 4, 146), {}, "fixpoint"),
    ]


@pytest.mark.parametrize("case", exactness_inputs(), ids=lambda case: case[0])
def test_alternate_minimize_matches_reference_loop(case):
    _, data, n_groups, k, init, kwargs, expected = case
    assert assert_am_matches_reference(data, n_groups, k, init, **kwargs) == expected


def test_exactness_inputs_take_every_path(monkeypatch):
    """The comparison above is only as good as its inputs: every fitting
    path, the reuse of unchanged groups and the reseed must occur."""
    seen = dict.fromkeys(("wide", "narrow", "fallback", "reseed"), 0)
    gram_basis, best_subspace = solver.gram_basis, fitting.best_subspace
    reseed = solver._reseed_empty_groups
    in_gram = False
    fits = 0

    def traced_best(points, k):
        seen["fallback"] += in_gram
        return best_subspace(points, k)

    def traced_gram(points, k):
        nonlocal in_gram, fits
        fits += 1
        before = seen["fallback"]
        in_gram = True
        try:
            q = gram_basis(points, k)
        finally:
            in_gram = False
        n_rows, n_cols = points.shape
        if n_cols and k and seen["fallback"] == before:
            seen["wide" if n_cols >= n_rows else "narrow"] += 1
        return q

    def traced_reseed(labels, dist2, n_groups):
        out = reseed(labels, dist2, n_groups)
        seen["reseed"] += out is not labels
        return out

    monkeypatch.setattr(fitting, "best_subspace", traced_best)
    monkeypatch.setattr(solver, "gram_basis", traced_gram)
    monkeypatch.setattr(solver, "_reseed_empty_groups", traced_reseed)
    group_rounds = 0
    for _, data, n_groups, k, init, kwargs, _ in exactness_inputs():
        report = alternate_minimize(data, n_groups, k, init, **kwargs)
        group_rounds += report.iterations[0] * n_groups
    assert all(seen.values()), seen
    assert fits < group_rounds  # unchanged groups were not refitted


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


def assert_solve_matches_refit_of_every_restart(
    data, n_groups, k, restarts, seed, stop_below=None
):
    """Compare solve_best_model with the reference loop refitted after
    every restart, which keeps the first strict minimum of the refitted
    errors and stops once it is at or below ``stop_below``."""
    report = solve_best_model(data, n_groups, k, restarts=restarts, seed=seed,
                              stop_below=stop_below)
    best = None
    for r in range(restarts):
        init = random_partition(data.count, n_groups, seed, r)
        bundle, partition, errors, _ = reference_alternate_minimize(
            data, n_groups, k, init
        )
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
    # l = 1 admits any m within the budget: enumeration must not recurse
    # or pack labels into a machine word.
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
    report = assert_oracle_matches_reference(data, n_groups, k)
    heuristic = solve_best_model(data, n_groups, k, restarts=3, seed=0)
    assert report.error <= heuristic.error + 1e-9


def test_oracle_budget():
    data = DataSet(np.random.default_rng(1).normal(size=(3, 12)))
    with pytest.raises(BudgetExceeded) as info:
        brute_force_oracle(data, 2, 1, budget=1000)
    assert info.value.required == 2**12
    assert info.value.budget == 1000
    with pytest.raises(OutOfRange):
        brute_force_oracle(data, 2, 1, budget=0)


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
