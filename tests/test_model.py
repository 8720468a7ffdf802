import json
import math

import numpy as np
import pytest

from unionfit import (
    Bundle,
    DataSet,
    DimensionMismatch,
    EmptyBundle,
    InvalidPartition,
    OutOfRange,
    Partition,
    Subspace,
    ZeroData,
    bundle_error,
    brute_force_oracle,
    normalize_dataset,
)


def test_dataset_caches_norm_and_rank():
    pts = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 2.0]])
    data = DataSet(pts)
    assert data.ambient_dim == 3
    assert data.count == 2
    # norm squared must equal the entrywise sum of squares
    assert abs(data.frobenius_norm**2 - np.sum(pts * pts)) <= 1e-12 * np.sum(pts * pts)
    assert data.numerical_rank == 2


def test_dataset_rank_is_computed_lazily_once(monkeypatch):
    import unionfit.model

    calls = []
    real = unionfit.model.matrix_rank

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(unionfit.model, "matrix_rank", counting)
    data = DataSet(np.eye(3)[:, :2])
    assert calls == []
    assert data.numerical_rank == 2
    assert data.numerical_rank == 2
    assert calls == [(3, 2)]


def test_dataset_rank_matches_singular_value_count():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m = rng.integers(1, 9, size=2)
        r = int(rng.integers(0, min(n, m) + 1))
        a = rng.normal(size=(n, r)) @ rng.normal(size=(r, m)) if r else np.zeros((n, m))
        data = DataSet(a)
        sigma = np.linalg.svd(a, compute_uv=False)
        expected = int(np.sum(sigma > sigma[0] * max(n, m) * 1e-12)) if sigma.size else 0
        assert data.numerical_rank == expected == r


def test_dataset_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        DataSet(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        DataSet(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        DataSet(np.array([[np.nan]]))


def test_dataset_is_immutable():
    data = DataSet(np.eye(2))
    with pytest.raises(ValueError):
        data.points[0, 0] = 5.0


def test_normalize_single_column():
    data = normalize_dataset(DataSet(np.array([[3.0], [4.0]])))
    assert np.allclose(data.points[:, 0], [0.6, 0.8], atol=1e-15)
    assert abs(data.frobenius_norm - 1.0) <= 1e-12


def test_normalize_unit_data_unchanged():
    pts = np.array([[0.6], [0.8]])
    data = normalize_dataset(DataSet(pts))
    assert np.max(np.abs(data.points - pts)) <= 1e-12


def test_normalize_identity_columns():
    # ||I_2|| = sqrt(2), so each column scales by 1/sqrt(2)
    data = normalize_dataset(DataSet(np.eye(2)))
    assert np.allclose(data.points, np.eye(2) / np.sqrt(2), atol=1e-15)
    assert abs(data.frobenius_norm - 1.0) <= 1e-12


def test_normalize_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(10):
        data = DataSet(rng.normal(size=(5, 6)) * rng.uniform(0.01, 100))
        once = normalize_dataset(data)
        twice = normalize_dataset(once)
        assert np.max(np.abs(twice.points - once.points)) <= 1e-12


def test_normalize_zero_data_raises():
    with pytest.raises(ZeroData):
        normalize_dataset(DataSet(np.zeros((3, 2))))


def test_normalize_rejects_a_norm_past_the_float_range():
    data = DataSet(np.full((2, 3), 1e308))
    assert data.frobenius_norm == np.inf  # and no overflow warning
    with pytest.raises(OutOfRange):
        normalize_dataset(data)


@pytest.mark.parametrize("exponent", [520, 530, 1000])
def test_normalize_rescales_data_whose_squared_norm_overflows(exponent):
    """||F||_F^2 overflows from about 1e154 on, ||F||_F only near 1e308:
    such data has a finite norm, and normalizes to the same bits as the
    same points scaled by any power of two."""
    points = np.random.default_rng(4).normal(size=(3, 5))
    points /= np.max(np.abs(points))
    data = DataSet(np.ldexp(points, exponent))
    assert data.frobenius_norm == np.ldexp(DataSet(points).frobenius_norm, exponent)
    assert np.array_equal(normalize_dataset(data).points,
                          normalize_dataset(DataSet(points)).points)
    assert DataSet(np.full((2, 3), 1e160)).frobenius_norm == pytest.approx(
        math.sqrt(6) * 1e160, rel=1e-15)


def test_normalize_undoes_power_of_two_scales_where_squares_underflow():
    """Squares leave the normal range from entries of about 1e-154 down and
    vanish from about 1e-162: ||F||_F is still taken exactly, so the points
    scaled by any power of two down to 2^-1000 normalize to the same bits
    as the unscaled points."""
    points = np.random.default_rng(9).normal(size=(3, 5))
    norm = DataSet(points).frobenius_norm
    reference = normalize_dataset(DataSet(points)).points
    for shift in range(0, 1001, 5):
        data = DataSet(np.ldexp(points, -shift))
        assert data.frobenius_norm == np.ldexp(norm, -shift)
        assert normalize_dataset(data).points.tobytes() == reference.tobytes()
    assert DataSet(np.full((3, 4), 1e-170)).frobenius_norm == pytest.approx(
        math.sqrt(12) * 1e-170, rel=1e-15)


def test_normalize_preserves_rank_and_angles():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(6, 4)) * 37.0
    data = DataSet(pts)
    normed = normalize_dataset(data)
    assert normed.numerical_rank == data.numerical_rank
    gram = pts.T @ pts
    cos_before = gram / np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
    ngram = normed.points.T @ normed.points
    cos_after = ngram / np.sqrt(np.outer(np.diag(ngram), np.diag(ngram)))
    assert np.max(np.abs(cos_before - cos_after)) <= 1e-12


def test_partition_constructor_enforces_invariants():
    part = Partition([1, 0, 1], 2)
    assert part.count == 3 and part.n_groups == 2
    assert not part.labels.flags.writeable
    for labels, n_groups in [
        (np.zeros((2, 2), dtype=int), 2),  # not 1-d
        ([0, -1], 2),  # negative label
        ([0, 2], 2),  # label outside 0..n_groups-1
        ([0, 0], 0),  # no groups
        ([], 0),
        ([0.0, 1.0], 2),  # not integers
    ]:
        with pytest.raises(InvalidPartition):
            Partition(labels, n_groups)


def test_partition_labels_are_copied():
    labels = np.array([0, 1, 0])
    part = Partition(labels, 2)
    labels[0] = 1
    assert part.labels.tolist() == [0, 1, 0]
    assert labels.flags.writeable


def test_partition_labels_round_trip():
    labels = np.array([1, 0, 2, 1, 0])
    part = Partition(labels, 3)
    assert part.groups == ((1, 4), (0, 3), (2,))
    assert all(type(j) is int for g in part.groups for j in g)
    json.dumps(part.groups)
    rebuilt = np.empty(part.count, dtype=int)
    for g, group in enumerate(part.groups):
        rebuilt[list(group)] = g
    assert np.array_equal(rebuilt, labels)
    # trailing empty groups are kept, and no points is a valid partition
    assert Partition([0, 0], 3).groups == ((0, 1), (), ())
    empty = Partition(np.zeros(0, dtype=int), 2)
    assert empty.count == 0 and empty.groups == ((), ())
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(1, 30))
        labels = rng.integers(0, 4, size=m)
        groups = Partition(labels, 4).groups
        assert sorted(j for g in groups for j in g) == list(range(m))
        for g, group in enumerate(groups):
            assert list(group) == sorted(group)
            assert all(labels[j] == g for j in group)


def test_partition_equality():
    part = Partition([0, 1, 1], 2)
    assert part == Partition(np.array([0, 1, 1], dtype=np.int32), 2)
    assert part != Partition([0, 1, 1], 3)  # same labels, one more group
    assert part != Partition([1, 0, 0], 2)  # relabeled groups differ
    assert part != Partition([0, 1], 2)
    assert part != [0, 1, 1]
    with pytest.raises(TypeError):
        hash(part)


def test_subspace_validation():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))  # not orthonormal
    with pytest.raises(DimensionMismatch):
        Subspace(np.ones((1, 2)))  # more vectors than dimensions
    zero = Subspace(np.zeros((4, 0)))
    assert zero.dim == 0 and zero.ambient_dim == 4


def test_subspace_from_span_truncates_to_rank():
    v = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])  # rank 1
    sub = Subspace.from_span(v)
    assert sub.dim == 1
    expected = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
    projector = sub.basis @ sub.basis.T
    assert np.allclose(projector, np.outer(expected, expected), atol=1e-12)
    for vectors in (np.zeros((3, 0)), np.zeros((3, 2)), np.zeros(3)):
        sub = Subspace.from_span(vectors)
        assert sub.basis.shape == (3, 0) and sub.basis.dtype == float
    line = Subspace.from_span(np.array([3.0, 0.0, 4.0]))  # a 1-d vector
    assert line.basis.shape == (3, 1)
    assert np.allclose(np.abs(line.basis[:, 0]), [0.6, 0.0, 0.8], atol=1e-15)


def test_dataset_take_slices_columns_and_may_take_none():
    data = DataSet(np.arange(6.0).reshape(2, 3))
    empty = data.take([])
    assert empty.shape == (2, 0) and empty.dtype == float
    assert np.array_equal(data.take([2, 0]), [[2.0, 0.0], [5.0, 3.0]])
    assert np.array_equal(data.take(range(3)), data.points)


def test_bundle_validation():
    e1 = Subspace(np.array([[1.0], [0.0]]))
    plane = Subspace(np.eye(2))
    with pytest.raises(EmptyBundle):
        Bundle((), cap_dim=1)
    with pytest.raises(OutOfRange):
        Bundle((plane,), cap_dim=1)  # dim 2 over cap 1
    with pytest.raises(DimensionMismatch):
        Bundle((e1, Subspace(np.zeros((3, 0)))), cap_dim=1)
    bundle = Bundle((e1, Subspace(np.zeros((2, 0)))), cap_dim=1)
    assert len(bundle) == 2 and bundle.ambient_dim == 2


def test_error_scales_with_alpha_squared():
    rng = np.random.default_rng(19)
    for _ in range(10):
        data = DataSet(rng.normal(size=(4, 6)))
        basis = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        bundle = Bundle((Subspace(basis[:, :1]), Subspace(basis[:, 1:])), cap_dim=1)
        base = bundle_error(data, bundle)
        for alpha in (0.25, 3.0, 17.5):
            scaled = bundle_error(DataSet(alpha * data.points), bundle)
            assert abs(scaled - alpha**2 * base) <= 1e-10 * max(1.0, alpha**2 * base)


def test_optimal_partition_is_scale_invariant():
    # same argmin partition for F and alpha*F on instances without ties
    rng = np.random.default_rng(23)
    found = 0
    for trial in range(8):
        data = DataSet(rng.normal(size=(3, 6)))
        report = brute_force_oracle(data, 2, 1)
        scaled = brute_force_oracle(DataSet(7.5 * data.points), 2, 1)
        assert scaled.partition == report.partition
        assert abs(scaled.error - 7.5**2 * report.error) <= 1e-8 * max(
            1.0, scaled.error
        )
        found += 1
    assert found == 8


def _public_dataclass(name):
    """A fresh instance of the public dataclass ``name``: two calls build
    distinct objects from equal points, so array fields hold distinct but
    equal arrays."""
    import unionfit as uf

    points = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8], [0.0, 0.0, 0.0]])
    data = DataSet(points)
    line = Subspace(np.eye(3)[:, :1])
    bundle = Bundle((line, Subspace(np.eye(3)[:, 1:2])), 1)
    spec = uf.SyntheticSpec(ambient_dim=4, n_subspaces=2, max_dim=1, n_points=5, seed=1)
    raw = {"dataset": {"synthetic": {"ambient_dim": 4, "n_subspaces": 2, "max_dim": 1,
                                     "n_points": 5}},
           "reduction": {"r": 3, "epsilon": 0.5}, "trials": 1}
    unit = normalize_dataset(data)
    return {
        "AssignmentTrace": lambda: uf.partition_from_bundle(data, bundle)[1],
        "Bundle": lambda: bundle,
        "ConcentrationReport": lambda: uf.ConcentrationReport(0.5, 10, 1, 0.1, 0.2),
        "DataSet": lambda: data,
        "ExperimentConfig": lambda: uf.config_from_dict(raw),
        "ExperimentResult": lambda: uf.ExperimentResult([{"e0": 0.5}], {}, 0),
        "GroundTruth": lambda: uf.generate_synthetic(spec)[1],
        "LiftReport": lambda: uf.run_trial(unit, 2, 1, uf.ReductionConfig(r=2),
                                           uf.SolverConfig(), sketch_seed=1),
        "Partition": lambda: Partition([0, 1, 1], 2),
        "RandomSpec": lambda: uf.RandomSpec("gaussian", 2, 3),
        "ReductionConfig": lambda: uf.ReductionConfig(r=2),
        "SolveReport": lambda: brute_force_oracle(data, 2, 1),
        "SolverConfig": lambda: uf.SolverConfig(),
        "Subspace": lambda: line,
        "SyntheticSpec": lambda: spec,
    }[name]()


def test_equality_of_every_public_dataclass_is_a_bool():
    """``==`` never raises on the library's types, whose array fields would
    make a field-by-field comparison ambiguous: it is identity for
    DataSet, Subspace and AssignmentTrace, value comparison of the labels
    for Partition, and field by field for the rest."""
    import dataclasses

    import unionfit as uf

    names = [n for n in uf.__all__ if dataclasses.is_dataclass(getattr(uf, n))]
    assert "AssignmentTrace" in names and "LiftReport" in names
    for name in names:
        one, two = _public_dataclass(name), _public_dataclass(name)
        assert type(one) is getattr(uf, name)
        assert one == one and one in [one], name
        assert type(one == two) is bool, name
        assert type(one != two) is bool, name
        assert isinstance(one in [two], bool), name
