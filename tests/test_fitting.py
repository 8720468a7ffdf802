import numpy as np
import pytest

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
from unionfit import solver
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
    slices' stacked X X^T as alternating minimization forms it."""
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
    stack = np.empty((len(members), 5, 5))
    for g, out in zip(members, stack):
        x = pts[:, g]
        np.matmul(x, x.T, out=out)
    return pts, stack, members


@pytest.mark.parametrize("form", ["F^T F", "X X^T"])
def test_gram_screen_given_its_norms_returns_its_own_arrays(form):
    """The squared norms and their sum, computed once per search, give the
    arrays the screen computes from the same Gram data itself, on flat,
    untrusted and trusted slices."""
    pts, gram, members = screen_instance(form)
    norms = squared_norms(pts, gram if gram.ndim == 2 else None)
    own_norms = np.diagonal(gram) if gram.ndim == 2 else np.sum(pts * pts, axis=0)
    assert np.array_equal(norms[0], own_norms)
    assert norms[1] == np.sum(own_norms)
    untrusted = 0
    for k in range(4):  # k = 0: every slice is flat
        own = gram_screen(pts, gram, members, k)
        given = gram_screen(pts, gram, members, k, norms)
        assert all(np.array_equal(a, b) for a, b in zip(own, given)), k
        untrusted += np.count_nonzero(np.isinf(own[1]))
        assert np.array_equal(own[0][0], norms[0]) and np.isfinite(own[1][0])
    assert untrusted


@pytest.mark.parametrize("form", ["F^T F", "X X^T"])
@pytest.mark.parametrize("k", [1, 2])
def test_gram_screen_rows_do_not_depend_on_their_block(form, k):
    """A block of trusted slices only, whose arrays the screen returns
    with no masked copy, gives the rows that the same slices get in a
    block with flat and untrusted ones.  (Their slacks may differ in the
    last bits: each slice's trace is a row of one matrix-vector product
    over the block.)"""
    pts, gram, members = screen_instance(form)
    norms = squared_norms(pts, gram if gram.ndim == 2 else None)
    rows, slack = gram_screen(pts, gram, members, k, norms)
    trusted = np.isfinite(slack) & members.any(axis=1)
    assert np.isinf(slack).any() and not trusted[0] and trusted.sum() >= 2
    alone = gram_screen(pts, gram if gram.ndim == 2 else gram[trusted],
                        members[trusted], k, norms)
    assert np.array_equal(alone[0], rows[trusted])
    assert np.all(np.isfinite(alone[1]))


@pytest.mark.parametrize("tall", [False, True], ids=["short", "tall"])
def test_am_rows_match_svd_fit(tall):
    """Alternating minimization's rows, from the Gram kernel and its SVD
    fallback, agree with the SVD path's rows to rounding, on short data
    (each slice's own X X^T) and, rotated into 24 dimensions, on tall data
    (blocks of F^T F)."""
    rng = np.random.default_rng(37)
    n = 5
    probe = rng.normal(size=(n, 9))  # points the residuals are measured on
    dup = rng.normal(size=(n, 4))
    dup[:, 2:] = dup[:, :2]
    slices = {
        "zero": np.zeros((n, 3)),
        "empty": np.zeros((n, 0)),
        "rank-1": np.outer(rng.normal(size=n), rng.normal(size=8)),
        "duplicated": dup,
        "narrow": rng.normal(size=(n, 3)),
        "wide": rng.normal(size=(n, 12)),
        "wide, rank 2": rng.normal(size=(n, 2)) @ rng.normal(size=(2, 12)),
    }
    lift = np.linalg.qr(rng.normal(size=(24, n)))[0]
    for name, x in slices.items():
        points = np.hstack([x, probe])
        if tall:
            points = lift @ points
        members = (np.arange(points.shape[1]) < x.shape[1])[None, :]
        gram = DataSet(points).gram if tall else None
        scale = np.sum(points * points, axis=0)
        norms = squared_norms(points, gram)
        for k in range(4):
            ours, slack = solver._group_rows(points, gram, members, k, norms)
            theirs = best_subspace_residuals(points, members, k)
            assert np.all(ours >= 0), (name, k)
            assert np.all(np.abs(ours - theirs) <= 1e-12 * scale), (name, k)
            assert np.all(np.isfinite(slack)), (name, k)
            assert np.all(np.sum(np.abs(ours - theirs), axis=1) <= slack), (name, k)


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
