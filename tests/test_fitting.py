import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unionfit import (
    Bundle,
    DataSet,
    DimensionMismatch,
    InvalidPartition,
    Partition,
    Subspace,
    best_subspace,
    brute_force_oracle,
    bundle_error,
    bundle_from_partition,
    dist2_to_subspace,
    ek_min_error,
    group_error,
    partition_from_bundle,
)
from unionfit import OutOfRange, fitting, model, solver
from unionfit.fitting import best_subspace_residuals, gram_screen, squared_norms
from unionfit.metrics import residuals


def projector_distance(a: Subspace, b: Subspace) -> float:
    """Subspaces are compared through their projectors Q Q^T: a basis is
    unique only up to rotation and sign."""
    return float(np.linalg.norm(a.basis @ a.basis.T - b.basis @ b.basis.T))


def test_best_subspace_rank_one_data():
    m = np.array([[1.0, 2.0], [0.0, 0.0]])  # e1 and 2 e1
    fit = best_subspace(m, 1)
    assert fit.dim == 1
    assert projector_distance(fit, Subspace(np.array([[1.0], [0.0]]))) <= 1e-12
    assert group_error(m, fit) <= 1e-12


def test_best_subspace_empty_slice():
    assert best_subspace(np.zeros((4, 0)), 2).dim == 0
    assert best_subspace(np.zeros((4, 0)), 0).dim == 0
    # k = 0, no columns and all zeros fit the zero subspace, and the error
    # to it is the squared norm.
    for matrix, k in [(np.arange(12.0).reshape(4, 3), 0), (np.zeros((4, 0)), 2),
                      (np.zeros((4, 3)), 2)]:
        fit = best_subspace(matrix, k)
        assert fit.basis.shape == (4, 0) and fit.basis.dtype == float
        assert group_error(matrix, fit) == float(np.sum(matrix * matrix))


def test_best_subspace_residuals_match_unbatched_fits():
    rng = np.random.default_rng(29)
    pts = rng.normal(size=(3, 7))
    pts[:, 1] = pts[:, 0]  # duplicate column
    pts[:, 2] = 0.0  # zero column
    members = np.array([
        [False] * 7,  # empty group
        [False, False, True, False, False, False, False],  # zero slice: rank 0
        [True, True, False, False, False, False, False],  # rank-1 slice
        [True, False, False, True, True, False, False],
        [True] * 7,  # wider than N
    ])
    for k in range(3):
        rows = best_subspace_residuals(pts, members, k)
        for row, member in zip(rows, members):
            expected = residuals(pts, best_subspace(pts[:, member], k).basis)
            assert np.array_equal(row, expected)


def screen_instance(form):
    """Points with duplicated and zero columns, slices that are empty
    (flat), rank 0 and rank 1 (untrusted at k >= 1 and k = 2), generic
    and wider than N, and the Gram data of ``form``: F^T F, or the
    slices' stacked X X^T as alternating minimization forms it, also with
    the points rotated into BLOCK_MIN_ORDER dimensions, where the block
    iteration fits the slices."""
    rng = np.random.default_rng(43)
    pts = rng.normal(size=(5, 10))
    pts[:, 1] = pts[:, 0]  # duplicated column
    pts[:, [2, 7]] = 0.0  # zero columns
    members = np.zeros((6, 10), dtype=bool)
    members[1, [2, 7]] = True  # zero slice
    members[2, [0, 1]] = True  # duplicated slice, rank 1
    members[3, [3, 4, 5, 6]] = True
    members[4, [3, 5, 8, 9]] = True
    members[5] = True  # wider than N
    if form == "F^T F":
        return pts, DataSet(pts).gram, members
    if form == "X X^T above the floor":
        pts = np.linalg.qr(rng.normal(size=(fitting.BLOCK_MIN_ORDER, 5)))[0] @ pts
    stack = np.empty((len(members), len(pts), len(pts)))
    for g, out in zip(members, stack):
        x = pts[:, g]
        np.matmul(x, x.T, out=out)
    return pts, stack, members


@pytest.mark.parametrize("form", ["F^T F", "X X^T"])
def test_gram_screen_reads_the_squared_norms_of_its_gram_data(form):
    """``squared_norms``, computed once per search, gives the diagonal of
    F^T F, or the points' summed squares, and their sum; the screen's
    flat row is those norms, with a finite slack, and some slices are
    untrusted."""
    pts, gram, members = screen_instance(form)
    norms = squared_norms(pts, gram if gram.ndim == 2 else None)
    own_norms = np.diagonal(gram) if gram.ndim == 2 else np.sum(pts * pts, axis=0)
    assert np.array_equal(norms[0], own_norms)
    assert norms[1] == np.sum(own_norms)
    untrusted = 0
    for k in range(4):  # k = 0: every slice is flat
        rows, slack = gram_screen(pts, gram, members, k, norms)
        untrusted += np.count_nonzero(np.isinf(slack))
        assert np.array_equal(rows[0], norms[0]) and np.isfinite(slack[0])
    assert untrusted


@pytest.mark.parametrize("form", ["F^T F", "X X^T", "X X^T above the floor"])
@pytest.mark.parametrize("k", [1, 2])
def test_gram_screen_rows_do_not_depend_on_their_block(form, k):
    """A block of trusted slices only, whose arrays the screen returns
    with no masked copy, gives the rows that the same slices get in a
    block with flat and untrusted ones.  (Their slacks may differ in the
    last bits: each slice's trace is a row of one matrix-vector product
    over the block.)  Above the block iteration's floor, where the
    trusted rows are certified Ritz rows, they are also the same in a
    second run and on another thread."""
    pts, gram, members = screen_instance(form)
    norms = squared_norms(pts, gram if gram.ndim == 2 else None)
    rows, slack = gram_screen(pts, gram, members, k, norms)
    trusted = np.isfinite(slack) & members.any(axis=1)
    assert np.isinf(slack).any() and not trusted[0] and trusted.sum() >= 2

    def alone():
        return gram_screen(pts, gram if gram.ndim == 2 else gram[trusted],
                           members[trusted], k, norms)

    runs = [alone()]
    if form == "X X^T above the floor":
        t = np.minimum(k, np.count_nonzero(members, axis=1))
        assert set(np.flatnonzero(trusted)) <= set(fitting._ritz_pairs(gram, t)[0])
        runs.append(alone())
        thread = threading.Thread(target=lambda: runs.append(alone()))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and len(runs) == 3
    for run in runs:
        assert np.array_equal(run[0], rows[trusted])
        assert np.all(np.isfinite(run[1]))


def test_ritz_certificate_holds_when_the_iteration_stops_early(monkeypatch):
    """With three steps and a loose tolerance the block iteration stops
    well before it converges, so its certificate is what keeps a matrix:
    for every matrix it keeps, theta_t <= lambda_t, lambda_{t+1} <= ub,
    and the top-t Ritz vectors' projector lies within ||R_t||_F / (theta_t
    - ub) of the top-t eigenprojector, to rounding.  It keeps no matrix
    whose t-th eigenvalue is tied with the next, nor one of pure noise,
    nor one whose t-th eigenvector the iteration cannot see."""
    monkeypatch.setattr(fitting, "BLOCK_STEPS", 3)
    monkeypatch.setattr(fitting, "BLOCK_SIN_TOL", 1e-3)
    rng = np.random.default_rng(233)
    n = fitting.BLOCK_MIN_ORDER
    spectra = [np.concatenate([[1.0, 0.7, 0.5], tail * rng.uniform(size=n - 3)])
               for tail in (1e-3, 3e-3, 1e-2, 2e-2, 3e-2)]
    spectra.append(np.concatenate([[1.0, 0.5, 0.5], 1e-3 * rng.uniform(size=n - 3)]))
    spectra.append(rng.uniform(size=n))  # no gap anywhere to speak of
    stack = []
    for lam in spectra:
        basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
        stack.append((basis * lam) @ basis.T)
    # An eigenvector orthogonal to the start block never enters it: its
    # eigenvalue, 0.6, is the third, which only the trace term of ub sees.
    start = np.random.default_rng(fitting.BLOCK_SEED).standard_normal(
        (n, fitting.BLOCK))
    basis = np.linalg.qr(np.hstack([start, rng.normal(size=(n, n - fitting.BLOCK))]))[0]
    lam = np.zeros(n)
    lam[: fitting.BLOCK] = np.concatenate([[1.0, 0.7, 0.5], 1e-3 * rng.uniform(
        size=fitting.BLOCK - 3)])
    lam[fitting.BLOCK] = 0.6
    stack.append((basis * lam) @ basis.T)
    gram = np.array(stack)
    val, vec = np.linalg.eigh(gram)
    val, vec = val[:, ::-1], vec[:, :, ::-1]
    kept = 0
    for t in (1, 2, 3):
        out = fitting._ritz_pairs(gram, np.full(len(gram), t))
        which, theta, basis, ub, resid = out if out is not None else ([],) * 5
        for b, th, u, bound, r in zip(which, theta, basis, ub, resid):
            assert th[t - 1] <= val[b, t - 1] + 1e-14
            assert val[b, t] <= bound + 1e-14
            ritz = u[:, :t] @ u[:, :t].T
            exact = vec[b, :, :t] @ vec[b, :, :t].T
            assert np.linalg.norm(ritz - exact, 2) <= r / (th[t - 1] - bound) + 1e-12
        assert len(spectra) - 1 not in set(which)
        assert t != 2 or len(spectra) - 2 not in set(which)
        assert t != 3 or len(spectra) not in set(which)
        kept += len(which)
    assert kept >= 8


@pytest.mark.parametrize("form", ["short", "tall", "above the floor"])
def test_am_rows_match_svd_fit(ritz_rows, form):
    """Alternating minimization's rows, from the Gram kernel and its SVD
    fallback, agree with the SVD path's rows to rounding, on short data
    (each slice's own X X^T), rotated into 24 dimensions, on tall data
    (blocks of F^T F), and rotated into BLOCK_MIN_ORDER dimensions, on
    X X^T fitted by the block iteration, whose slack covers its residual."""
    rng = np.random.default_rng(37)
    n = 5
    probe = rng.normal(size=(n, 9))  # points the residuals are measured on
    dup = rng.normal(size=(n, 4))
    dup[:, 2:] = dup[:, :2]
    on_axis = np.zeros((n, 6))
    on_axis[0] = np.arange(1.0, 7.0)
    slices = {
        "zero": np.zeros((n, 3)),
        "empty": np.zeros((n, 0)),
        "rank-1": np.outer(rng.normal(size=n), rng.normal(size=8)),
        "duplicated": dup,
        "narrow": rng.normal(size=(n, 3)),
        "wide": rng.normal(size=(n, 12)),
        "wide, rank 2": rng.normal(size=(n, 2)) @ rng.normal(size=(2, 12)),
        "on an axis": on_axis,
    }
    lift = np.linalg.qr(rng.normal(size=(24, n)))[0]
    deep = np.linalg.qr(rng.normal(size=(fitting.BLOCK_MIN_ORDER, n)))[0]
    for name, x in slices.items():
        points = np.hstack([x, probe])
        if form != "short":
            points = (lift if form == "tall" else deep) @ points
        members = (np.arange(points.shape[1]) < x.shape[1])[None, :]
        gram = DataSet(points).gram if form == "tall" else None
        scale = np.sum(points * points, axis=0)
        norms = squared_norms(points, gram)
        for k in range(4):
            ours, slack = solver._group_rows(points, gram, members, k, norms)
            theirs = best_subspace_residuals(points, members, k)
            assert np.all(ours >= 0), (name, k)
            assert np.all(np.abs(ours - theirs) <= 1e-12 * scale), (name, k)
            assert np.all(np.isfinite(slack)), (name, k)
            assert np.all(np.sum(np.abs(ours - theirs), axis=1) <= slack), (name, k)
    assert (ritz_rows[0] > 0) == (form == "above the floor")


def test_best_subspace_svd_oracle():
    # oracle: top left singular vector of [[2,0],[0,1]] is e1, residual 1
    m = np.array([[2.0, 0.0], [0.0, 1.0]])
    u, s, _ = np.linalg.svd(m)
    oracle = Subspace(u[:, :1])
    fit = best_subspace(m, 1)
    assert projector_distance(fit, oracle) <= 1e-12
    assert projector_distance(fit, Subspace(np.array([[1.0], [0.0]]))) <= 1e-12
    assert group_error(m, fit) == pytest.approx(1.0, abs=1e-12)


def test_best_subspace_dimension_never_exceeds_rank():
    rng = np.random.default_rng(17)
    flat = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 5))  # rank 2
    fit = best_subspace(flat, 4)
    assert fit.dim == 2
    assert group_error(flat, fit) <= 1e-12


def test_best_subspace_always_orthonormal():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n, m = rng.integers(1, 8, size=2)
        k = int(rng.integers(0, n + 1))
        fit = best_subspace(rng.normal(size=(n, m)), k)
        if fit.dim:
            gram = fit.basis.T @ fit.basis
            assert np.max(np.abs(gram - np.eye(fit.dim))) <= 1e-10


def test_bundle_from_partition_axis_data():
    data = DataSet(np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 3.0]]))
    part = Partition([0, 0, 1, 1], 2)
    bundle = bundle_from_partition(data, part, 1)
    assert projector_distance(bundle.subspaces[0], Subspace(np.array([[1.0], [0.0]]))) <= 1e-12
    assert projector_distance(bundle.subspaces[1], Subspace(np.array([[0.0], [1.0]]))) <= 1e-12
    assert bundle_error(data, bundle) <= 1e-12


def test_bundle_from_partition_empty_group_is_zero_subspace():
    data = DataSet(np.eye(2))
    part = Partition([0, 0], 2)
    bundle = bundle_from_partition(data, part, 1)
    assert bundle.subspaces[1].dim == 0


def test_bundle_from_partition_rejects_wrong_count():
    data = DataSet(np.eye(3))
    with pytest.raises(InvalidPartition):
        bundle_from_partition(data, Partition([0, 0], 1), 1)


def test_bundle_from_partition_matches_per_group_svd():
    rng = np.random.default_rng(41)
    q1 = np.linalg.qr(rng.normal(size=(6, 1)))[0]
    q2 = np.linalg.qr(rng.normal(size=(6, 1)))[0]
    pts = np.column_stack(
        [q1 @ rng.normal(size=(1, 5)), q2 @ rng.normal(size=(1, 4))]
    ) + rng.normal(scale=0.05, size=(6, 9))
    data = DataSet(pts)
    part = Partition(np.repeat([0, 1], [5, 4]), 2)
    bundle = bundle_from_partition(data, part, 1)
    total = 0.0
    for group, fitted in zip(part.groups, bundle):
        cols = pts[:, list(group)]
        u = np.linalg.svd(cols)[0][:, :1]  # independent per-group fit
        assert projector_distance(fitted, Subspace(u)) <= 1e-9
        expected = ek_min_error(cols, 1)
        assert group_error(cols, fitted) == pytest.approx(expected, abs=1e-9)
        total += expected
    fit_error = sum(
        group_error(pts[:, list(g)], v) for g, v in zip(part.groups, bundle)
    )
    assert fit_error == pytest.approx(total, abs=1e-9)


def bases(bundle):
    return [(v.basis.shape, v.basis.tobytes()) for v in bundle]


@st.composite
def memo_instance(draw):
    """Integer-valued points, so low-rank groups and k >= rank are common;
    columns drawn with repeats duplicate points; a labeling in which any
    group may be empty, and a relabeling of it."""
    n, m, l = draw(st.integers(1, 5)), draw(st.integers(1, 9)), draw(st.integers(1, 4))
    base = draw(arrays(float, (n, m), elements=st.integers(-3, 3).map(float)))
    cols = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    labels = np.array(draw(st.lists(st.integers(0, l - 1), min_size=m, max_size=m)))
    perm = np.array(draw(st.permutations(range(l))))
    return base[:, cols], labels, perm, draw(st.integers(0, n + 1))


@given(memo_instance())
def test_memoized_fits_equal_a_fresh_datasets_bit_for_bit(instance):
    """A DataSet that has fitted a partition, and then a relabeling of it,
    returns the bases a fresh DataSet fits, byte for byte; the relabeled
    bundle holds the very Subspaces of the first one."""
    points, labels, perm, k = instance
    l = len(perm)
    warm = DataSet(points)
    first = bundle_from_partition(warm, Partition(labels, l), k)
    relabeled = Partition(perm[labels], l)
    again = bundle_from_partition(warm, relabeled, k)
    assert all(again.subspaces[perm[g]] is first.subspaces[g] for g in range(l))
    assert bases(again) == bases(bundle_from_partition(DataSet(points), relabeled, k))
    assert bases(first) == bases(bundle_from_partition(DataSet(points), Partition(labels, l), k))


def count_svds(monkeypatch):
    """Record the shape of every fitting.svd_basis call."""
    shapes = []
    real = fitting.svd_basis

    def counted(a, k):
        shapes.append(a.shape)
        return real(a, k)

    monkeypatch.setattr(fitting, "svd_basis", counted)
    return shapes


def test_a_relabeled_partition_runs_no_svd(monkeypatch):
    rng = np.random.default_rng(3)
    data = DataSet(rng.normal(size=(5, 12)))
    labels = rng.integers(0, 3, size=12)
    first = bundle_from_partition(data, Partition(labels, 3), 2)
    svds = count_svds(monkeypatch)
    perm = np.array([2, 0, 1])
    again = bundle_from_partition(data, Partition(perm[labels], 3), 2)
    assert svds == []
    assert all(again.subspaces[perm[g]] is first.subspaces[g] for g in range(3))
    bundle_from_partition(data, Partition(labels, 3), 1)  # k is part of the key
    assert len(svds) == 3
    with pytest.raises(OutOfRange):  # a float k raises, though 2.0 == 2 in a key
        bundle_from_partition(data, Partition(labels, 3), 2.0)


def test_the_fit_memo_stays_within_its_float_bound(monkeypatch):
    """A stream of distinct groups fills the memo to its bound and no
    further, dropping the least recently used fits; a fit larger than the
    bound is returned but not kept."""
    monkeypatch.setattr(model, "FIT_MEMO_FLOATS", 60)
    data = DataSet(np.random.default_rng(4).normal(size=(4, 40)))
    assert data.fits.limit == 60
    for j in range(40):  # groups {j} and all but j: 4 + 1 and 8 + 1 floats
        part = Partition((np.arange(40) == j).astype(int), 2)
        bundle_from_partition(data, part, 2)
        assert data.fits.held == 14 * min(j + 1, 4) <= 60
    svds = count_svds(monkeypatch)
    bundle_from_partition(data, part, 2)  # the latest fits are kept
    assert svds == []
    small = DataSet(data.points)
    monkeypatch.setattr(model, "FIT_MEMO_FLOATS", 5)
    tight = DataSet(data.points)
    assert bases(bundle_from_partition(tight, part, 2)) == bases(
        bundle_from_partition(small, part, 2))
    assert tight.fits.held == 5  # only the 4 + 1 float fit


@pytest.mark.parametrize("duplicate", [pickle.loads, copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_dataset_arrives_with_an_empty_memo(monkeypatch, duplicate):
    """A warm DataSet survives pickle and deepcopy: the copy's memo is
    empty and its own, and it fits the same bases, by SVD, as the
    original."""
    rng = np.random.default_rng(8)
    data = DataSet(rng.normal(size=(6, 30)))
    part = Partition(rng.integers(0, 3, size=30), 3)
    first = bundle_from_partition(data, part, 2)
    copied = duplicate(pickle.dumps(data) if duplicate is pickle.loads else data)
    assert copied.fits.held == 0
    assert copied.fits is not data.fits
    svds = count_svds(monkeypatch)
    assert bases(bundle_from_partition(copied, part, 2)) == bases(first)
    assert len(svds) == 3


@pytest.mark.parametrize("limit", [model.FIT_MEMO_FLOATS, 300], ids=["roomy", "evicting"])
def test_threads_sharing_a_dataset_get_identical_bundles(monkeypatch, limit):
    """Eight threads fit partitions and relabelings of them on one DataSet,
    the interpreter switching threads every microsecond: each gets the
    bundles fresh DataSets fit, nothing raises, and the memo holds what
    it charged for: every distinct group once when it has room, and at
    most 3 fits of 94 floats when it evicts on almost every miss."""
    rng = np.random.default_rng(6)
    points = rng.normal(size=(30, 200))
    monkeypatch.setattr(model, "FIT_MEMO_FLOATS", limit)
    data = DataSet(points)
    partitions = []
    for _ in range(4):
        labels = rng.integers(0, 4, size=200)
        partitions += [Partition(labels, 4), Partition((labels + 1) % 4, 4)]
    expected = [bases(bundle_from_partition(DataSet(points), p, 3)) for p in partitions]
    failures = []

    def work(offset):
        try:
            for i in range(16 * len(partitions)):
                j = (i + offset) % len(partitions)
                if bases(bundle_from_partition(data, partitions[j], 3)) != expected[j]:
                    failures.append(j)
        except Exception as exc:  # reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    # Each fit is a 90-float basis and a 25-byte key; relabelings add none.
    assert data.fits.held == 94 * (16 if limit > 16 * 94 else 3) <= limit


def test_partition_from_bundle_axis_data():
    data = DataSet(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]))
    bundle = Bundle(
        (Subspace(np.array([[1.0], [0.0]])), Subspace(np.array([[0.0], [1.0]]))),
        cap_dim=1,
    )
    part, trace = partition_from_bundle(data, bundle)
    assert part.groups == ((0, 2), (1,))
    assert not trace.tie_flags.any()
    assert np.allclose(trace.dist2, 0.0, atol=1e-12)


def test_partition_from_bundle_tie_goes_to_lowest_index():
    data = DataSet(np.array([[1.0], [1.0]]))  # equidistant from both axes
    bundle = Bundle(
        (Subspace(np.array([[1.0], [0.0]])), Subspace(np.array([[0.0], [1.0]]))),
        cap_dim=1,
    )
    part, trace = partition_from_bundle(data, bundle)
    assert part.groups == ((0,), ())
    assert part.labels[0] == 0
    assert bool(trace.tie_flags[0])


def test_partition_from_bundle_matches_bruteforce_table():
    rng = np.random.default_rng(59)
    data = DataSet(rng.normal(size=(4, 6)))
    bundle = Bundle(
        (
            Subspace(np.linalg.qr(rng.normal(size=(4, 2)))[0]),
            Subspace(np.linalg.qr(rng.normal(size=(4, 1)))[0]),
        ),
        cap_dim=2,
    )
    part, trace = partition_from_bundle(data, bundle)
    # brute force: explicit per-point distance comparison
    for j in range(data.count):
        dists = [dist2_to_subspace(data.column(j), v) for v in bundle]
        expected = int(np.argmin(dists))
        assert part.labels[j] == expected
        assert trace.dist2[j] == pytest.approx(min(dists), rel=1e-12)
        assert j in part.groups[expected]
    assert bundle_error(data, bundle) == pytest.approx(
        float(np.sum(trace.dist2)), rel=1e-12
    )


def test_partition_from_bundle_dimension_mismatch():
    data = DataSet(np.eye(3))
    bundle = Bundle((Subspace(np.array([[1.0], [0.0]])),), cap_dim=1)
    with pytest.raises(DimensionMismatch):
        partition_from_bundle(data, bundle)


def test_one_alternation_step_never_increases_error():
    rng = np.random.default_rng(73)
    for _ in range(25):
        data = DataSet(rng.normal(size=(5, 8)))
        bundle = Bundle(
            (
                Subspace(np.linalg.qr(rng.normal(size=(5, 1)))[0]),
                Subspace(np.linalg.qr(rng.normal(size=(5, 2)))[0]),
            ),
            cap_dim=2,
        )
        before = bundle_error(data, bundle)
        part, _ = partition_from_bundle(data, bundle)
        refit = bundle_from_partition(data, part, 2)
        after = bundle_error(data, refit)
        assert after <= before + 1e-10


def test_round_trip_fixpoint_at_optimum():
    rng = np.random.default_rng(97)
    checked = 0
    for _ in range(10):
        data = DataSet(rng.normal(size=(3, 6)))
        report = brute_force_oracle(data, 2, 1)
        part, trace = partition_from_bundle(data, report.bundle)
        if trace.tie_flags.any():
            continue  # the fixpoint statement needs unique assignments
        refit = bundle_from_partition(data, part, 1)
        assert bundle_error(data, refit) <= report.error + 1e-9
        assert bundle_error(data, refit) >= report.error - 1e-9
        checked += 1
    assert checked >= 5
