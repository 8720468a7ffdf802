import numpy as np
import pytest

from unionfit import (
    Bundle,
    DataSet,
    DimensionMismatch,
    OutOfRange,
    Partition,
    Subspace,
    best_subspace,
    brute_force_oracle,
    bundle_error,
    dist2_to_subspace,
    ek_min_error,
    group_error,
    partition_from_bundle,
)
from unionfit.metrics import as_columns, nearest, residuals


def axes_bundle():
    e1 = Subspace(np.array([[1.0], [0.0]]))
    e2 = Subspace(np.array([[0.0], [1.0]]))
    return Bundle((e1, e2), cap_dim=1)


def test_dist2_orthogonal_split():
    v = Subspace(np.array([[1.0], [0.0], [0.0]]))
    assert dist2_to_subspace(np.array([1.0, 1.0, 0.0]), v) == pytest.approx(1.0)


def test_dist2_inside_subspace_is_zero():
    rng = np.random.default_rng(2)
    q = np.linalg.qr(rng.normal(size=(6, 2)))[0]
    v = Subspace(q)
    f = q @ np.array([2.5, -1.0])
    assert dist2_to_subspace(f, v) <= 1e-12


def test_dist2_diagonal_line():
    # oracle: explicit projector u u^T applied to f = (3, 4)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    f = np.array([3.0, 4.0])
    resid = f - np.outer(u, u) @ f
    expected = float(resid @ resid)
    assert expected == pytest.approx(0.5, abs=1e-12)
    got = dist2_to_subspace(f, Subspace(u[:, None]))
    assert got == pytest.approx(expected, abs=1e-12)


def test_dist2_equals_norm_difference_identity():
    # the residual form agrees with ||f||^2 - ||Q^T f||^2
    rng = np.random.default_rng(27)
    for _ in range(20):
        q = np.linalg.qr(rng.normal(size=(7, 3)))[0]
        f = rng.normal(size=7) * rng.uniform(0.1, 10)
        v = Subspace(q)
        alt = float(f @ f) - float(np.sum((q.T @ f) ** 2))
        assert dist2_to_subspace(f, v) == pytest.approx(alt, abs=1e-10)


def test_dist2_dimension_mismatch():
    v = Subspace(np.array([[1.0], [0.0]]))
    with pytest.raises(DimensionMismatch):
        dist2_to_subspace(np.array([1.0, 0.0, 0.0]), v)
    for slice_ in (np.ones((3, 2)), np.ones(3), np.zeros((3, 0))):
        with pytest.raises(DimensionMismatch):
            group_error(slice_, v)


def test_bundle_error_on_exact_union_is_zero():
    rng = np.random.default_rng(5)
    q1 = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    q2 = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    pts = np.column_stack([q1 @ rng.normal(size=(2, 4)), q2 @ rng.normal(size=(2, 3))])
    bundle = Bundle((Subspace(q1), Subspace(q2)), cap_dim=2)
    assert bundle_error(DataSet(pts), bundle) <= 1e-10


def test_bundle_error_zero_subspace_gives_norm_squared():
    data = DataSet(np.array([[3.0, 0.0], [4.0, 1.0]]))
    bundle = Bundle((Subspace(np.zeros((2, 0))),), cap_dim=1)
    assert bundle_error(data, bundle) == pytest.approx(data.frobenius_norm**2)


def test_bundle_error_three_points_two_axes():
    # distances: (1,0)->0 ; (0,1)->0 ; (1,1)-> min(1, 1) = 1
    data = DataSet(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    assert bundle_error(data, axes_bundle()) == pytest.approx(1.0, abs=1e-12)


def test_group_error_examples():
    e1 = Subspace(np.array([[1.0], [0.0]]))
    e2 = Subspace(np.array([[0.0], [1.0]]))
    inside = np.array([[1.0, -2.0], [0.0, 0.0]])
    assert group_error(inside, e1) <= 1e-12
    assert group_error(np.eye(2), e1) == pytest.approx(1.0)
    # per-point residuals against span{e2}: (2,0) -> 4, (1,1) -> 1
    m = np.array([[2.0, 1.0], [0.0, 1.0]])
    per_point = sum(dist2_to_subspace(m[:, j], e2) for j in range(2))
    assert per_point == pytest.approx(5.0, abs=1e-12)
    assert group_error(m, e2) == pytest.approx(per_point, abs=1e-12)


def test_group_error_additive_over_slices():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(4, 7))
    v = Subspace(np.linalg.qr(rng.normal(size=(4, 2)))[0])
    total = group_error(m, v)
    split = group_error(m[:, :3], v) + group_error(m[:, 3:], v)
    assert total == pytest.approx(split, rel=1e-12)
    assert group_error(np.zeros((4, 0)), v) == 0.0


def test_ek_min_error_examples():
    assert ek_min_error(np.eye(2), 1) == pytest.approx(1.0, abs=1e-12)
    # k at or above the rank leaves nothing to discard
    rng = np.random.default_rng(13)
    m = rng.normal(size=(5, 1)) @ rng.normal(size=(1, 4))  # rank 1
    assert ek_min_error(m, 1) == 0.0
    assert ek_min_error(m, 3) == 0.0
    # Gram matrix diag(4, 1): discard the top eigenvalue
    m2 = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert ek_min_error(m2, 1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(OutOfRange):
        ek_min_error(m2, -1)


def test_ek_min_error_matches_svd_tail():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n, m = rng.integers(1, 9, size=2)
        a = rng.normal(size=(n, m))
        sigma = np.linalg.svd(a, compute_uv=False)
        for k in range(0, min(n, m) + 1):
            tail = float(np.sum(sigma[k:] ** 2))
            assert ek_min_error(a, k) == pytest.approx(tail, abs=1e-9)


def test_eckart_young_lower_bound_and_attainment():
    rng = np.random.default_rng(34)
    for _ in range(50):
        n, m = rng.integers(2, 9, size=2)
        a = rng.normal(size=(n, m))
        k = int(rng.integers(1, n + 1))
        floor = ek_min_error(a, k)
        for _ in range(100):
            t = int(rng.integers(1, k + 1))
            v = Subspace(np.linalg.qr(rng.normal(size=(n, t)))[0])
            assert group_error(a, v) >= floor - 1e-9
        fit = best_subspace(a, k)
        assert group_error(a, fit) <= floor + 1e-9


def test_bundle_error_additivity_and_generated_equality():
    rng = np.random.default_rng(55)
    data = DataSet(rng.normal(size=(4, 8)))
    basis = np.linalg.qr(rng.normal(size=(4, 2)))[0]
    bundle = Bundle((Subspace(basis[:, :1]), Subspace(basis[:, 1:])), cap_dim=1)
    # any partition-aligned assignment dominates the reassigned error
    for labels in ([0, 0, 1, 1, 0, 1, 0, 1], [1, 1, 1, 0, 0, 0, 0, 0]):
        part = Partition(labels, 2)
        aligned = sum(
            group_error(data.take(g), v) for g, v in zip(part.groups, bundle)
        )
        assert bundle_error(data, bundle) <= aligned + 1e-12
    # equality when the partition is the one generated by the bundle
    generated, _ = partition_from_bundle(data, bundle)
    aligned = sum(
        group_error(data.take(g), v) for g, v in zip(generated.groups, bundle)
    )
    assert bundle_error(data, bundle) == pytest.approx(aligned, rel=1e-12)


def test_bundle_error_scaling_covariance():
    rng = np.random.default_rng(89)
    data = DataSet(rng.normal(size=(5, 7)))
    plane = Subspace(np.linalg.qr(rng.normal(size=(5, 2)))[0])
    bundle = Bundle((plane, Subspace(np.zeros((5, 0)))), cap_dim=2)
    base = bundle_error(data, bundle)
    for alpha in (0.1, 2.0, 31.0):
        scaled = bundle_error(DataSet(alpha * data.points), bundle)
        assert abs(scaled - alpha**2 * base) <= 1e-10 * alpha**2 * base


def test_sparsity_witness_check():
    rng = np.random.default_rng(3)
    q1 = np.linalg.qr(rng.normal(size=(4, 1)))[0]
    q2 = np.linalg.qr(rng.normal(size=(4, 1)))[0]
    pts = np.column_stack([q1 @ rng.normal(size=(1, 3)), q2 @ rng.normal(size=(1, 3))])
    data = DataSet(pts)
    generating = Bundle((Subspace(q1), Subspace(q2)), cap_dim=1)
    assert bundle_error(data, generating) <= 0.0 + 1e-10
    wrong = Bundle(
        (
            Subspace(np.array([[1.0], [0.0], [0.0], [0.0]])),
            Subspace(np.array([[0.0], [1.0], [0.0], [0.0]])),
        ),
        cap_dim=1,
    )
    assert not bundle_error(data, wrong) <= 0.0 + 1e-10


def test_witness_at_certified_optimum():
    rng = np.random.default_rng(91)
    data = DataSet(rng.normal(size=(3, 6)))
    report = brute_force_oracle(data, 2, 1)
    assert bundle_error(data, report.bundle) <= report.error + 1e-10


def test_spectral_tail_sum_perturbation():
    # |sum_{j=k+1}^d (lambda_j(A) - lambda_j(B))| <= sqrt(d-k) ||A - B||_F
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        b = (b + b.T) / 2
        la = np.linalg.eigvalsh(a)[::-1]
        lb = np.linalg.eigvalsh(b)[::-1]
        diff_norm = np.linalg.norm(a - b)
        for d in range(0, n + 1):
            for k in range(0, d + 1):
                lhs = abs(np.sum(la[k:d] - lb[k:d]))
                assert lhs <= np.sqrt(d - k) * diff_norm + 1e-9


def test_spectral_tail_sum_bound_is_sharp():
    # diagonal pair with d = 3, k = 1: both sides equal 2
    d, k, m = 3, 1, 4
    a = np.diag([2.0, 2.0, 2.0, 0.0])
    b = np.diag([2.0, 1.0, 1.0, 0.0])
    la = np.linalg.eigvalsh(a)[::-1]
    lb = np.linalg.eigvalsh(b)[::-1]
    lhs = abs(np.sum(la[k:d] - lb[k:d]))
    rhs = np.sqrt(d - k) * np.linalg.norm(a - b)
    assert abs(lhs - 2.0) <= 1e-12
    assert abs(rhs - 2.0) <= 1e-12
    assert abs(lhs - rhs) <= 1e-12
    assert la.shape == (m,)


def test_noisy_witness_with_oracle_bundle():
    rng = np.random.default_rng(44)
    q1 = np.linalg.qr(rng.normal(size=(4, 1)))[0]
    q2 = np.linalg.qr(rng.normal(size=(4, 1)))[0]
    pts = np.column_stack([q1 @ rng.normal(size=(1, 3)), q2 @ rng.normal(size=(1, 3))])
    pts += rng.normal(scale=0.05, size=pts.shape)
    data = DataSet(pts)
    report = brute_force_oracle(data, 2, 1)
    assert report.error > 0
    assert bundle_error(data, report.bundle) <= report.error + 1e-10
    assert not bundle_error(data, report.bundle) <= report.error / 2 + 1e-10


def test_residuals_of_a_stack_equal_per_basis_calls_bit_for_bit():
    rng = np.random.default_rng(31)
    points = rng.normal(size=(6, 40))
    for t in (0, 1, 3):
        stack = np.ascontiguousarray(
            [np.linalg.qr(rng.normal(size=(6, 6)))[0][:, :t] for _ in range(4)]
        )
        rows = residuals(points, stack)
        assert rows.shape == (4, 40)
        for row, basis in zip(rows, stack):
            assert np.array_equal(row, residuals(points, basis))


def test_residuals_to_an_empty_basis_are_the_squared_norms():
    points = np.random.default_rng(37).normal(size=(12, 30))
    norms = np.sum(points * points, axis=0)
    assert np.array_equal(residuals(points, np.zeros((12, 0))), norms)
    assert np.array_equal(residuals(points, np.zeros((3, 12, 0))), [norms] * 3)
    # Column-major points give the same floats: every row of the residual
    # is summed in the same order whatever the layout of the points.
    assert np.array_equal(
        residuals(np.asfortranarray(points), np.zeros((12, 0))), norms
    )


def test_nearest_breaks_exact_ties_to_the_lowest_index():
    table = np.array([
        [2.0, 1.0, 3.0, 0.5],
        [1.0, 1.0, 3.0, 0.5],
        [1.0, 2.0, 3.0, 0.7],
    ])
    labels, dist2 = nearest(table)
    assert labels.tolist() == [1, 0, 0, 0]
    assert dist2.tolist() == [1.0, 1.0, 3.0, 0.5]


def test_nearest_returns_the_entry_at_its_label_bit_for_bit():
    """The distance is the column's least entry, not a gather at the
    label, yet the same float: on random tables, on tables whose rows tie
    exactly, and on zeros, subnormals and inf."""
    rng = np.random.default_rng(53)
    tables = [rng.random((n_rows, 40)) for n_rows in (1, 2, 4)]
    tied = rng.random((4, 40))
    tied[1, ::2] = tied[0, ::2]
    tied[3] = tied[2]
    tied[:, ::5] = 0.25
    tables.append(tied)
    tables.append(np.array([
        [0.0, 5e-324, np.inf, 1.0, 3.0],
        [0.0, 0.0, np.inf, 1.0, np.inf],
        [1.0, 5e-324, 2.0, 0.5, 3.0],
    ]))
    for table in tables:
        labels, dist2 = nearest(table)
        assert np.array_equal(labels, np.argmin(table, axis=0))
        expected = table[labels, np.arange(table.shape[1])]
        assert dist2.tobytes() == expected.tobytes()


def test_column_inputs_are_refused_or_passed_through():
    """A DataSet's own points pass through ``as_columns``; an array of
    more than two axes, a matrix where ``dist2_to_subspace`` takes one
    vector, and a basis that is not 2-d or spans no dimension are
    refused; no columns have no error."""
    data = DataSet(np.arange(6.0).reshape(3, 2))
    assert as_columns(data) is data.points
    with pytest.raises(DimensionMismatch, match="matrix of columns"):
        as_columns(np.zeros((2, 2, 2)))
    v = Subspace(np.array([[1.0], [0.0], [0.0]]))
    with pytest.raises(DimensionMismatch, match="expected a vector"):
        dist2_to_subspace(np.ones((3, 1)), v)
    assert ek_min_error(np.empty((3, 0)), 1) == 0.0
    with pytest.raises(DimensionMismatch, match="basis must be 2-d"):
        Subspace(np.ones(3))
    for basis in (np.empty((0, 0)), np.empty((0, 1))):
        with pytest.raises(DimensionMismatch, match="at least 1"):
            Subspace(basis)
