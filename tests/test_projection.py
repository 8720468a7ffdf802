import math

import numpy as np
import pytest

from unionfit import (
    Bundle,
    DataSet,
    DimensionMismatch,
    OutOfRange,
    RandomSpec,
    Subspace,
    brute_force_oracle,
    bundle_error,
    c0,
    check_rank_preservation,
    empirical_concentration,
    gram_distortion,
    sample_matrix,
)
from unionfit.synthetic import SyntheticSpec, generate_synthetic


def test_random_spec_validation():
    with pytest.raises(OutOfRange):
        RandomSpec("uniform", 2, 4)
    with pytest.raises(OutOfRange):
        RandomSpec("gaussian", 0, 4)
    with pytest.raises(OutOfRange):
        RandomSpec("gaussian", 2, 0)
    # types are checked when the spec is built, not when a matrix is drawn
    for args in (("gaussian", 2.5, 6), ("gaussian", 2, 6.0), ("gaussian", True, 6),
                 ("gaussian", 2, 6, 1.5)):
        with pytest.raises(OutOfRange):
            RandomSpec(*args)


def test_bernoulli_entries_are_exactly_two_valued():
    spec = RandomSpec("bernoulli", reduced_dim=16, ambient_dim=40, seed=5)
    a = sample_matrix(spec)
    scale = 1.0 / math.sqrt(16)
    values = set(np.unique(a).tolist())
    assert values == {-scale, scale}


def test_sample_matrix_deterministic():
    spec = RandomSpec("gaussian", reduced_dim=6, ambient_dim=9, seed=123)
    assert np.array_equal(sample_matrix(spec), sample_matrix(spec))
    assert not np.array_equal(sample_matrix(spec), sample_matrix(spec, stream=1))
    other = RandomSpec("gaussian", reduced_dim=6, ambient_dim=9, seed=124)
    assert not np.array_equal(sample_matrix(spec), sample_matrix(other))


def test_gaussian_entry_variance():
    # 10^4 entries across two draws; sample variance within 10% of 1/r
    spec = RandomSpec("gaussian", reduced_dim=50, ambient_dim=100, seed=77)
    entries = np.concatenate(
        [sample_matrix(spec, stream=s).ravel() for s in range(2)]
    )
    assert entries.size == 10_000
    assert abs(entries.var() - 1.0 / 50) <= 0.1 / 50
    assert abs(entries.mean()) <= 3.0 / math.sqrt(50 * entries.size)


def test_c0_value_and_range():
    assert abs(c0(0.5) - 1.0 / 24.0) <= 1e-12
    for eps in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(OutOfRange):
            c0(eps)


def test_c0_shrinks_toward_zero():
    values = [c0(eps) for eps in np.linspace(0.5, 1e-6, 60)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-12
    assert all(v > 0 for v in values)


def test_c0_quadratic_floor():
    for eps in np.linspace(0.01, 0.99, 99):
        assert c0(eps) >= eps * eps / 12.0


def test_concentration_at_large_r_never_fails():
    spec = RandomSpec("gaussian", reduced_dim=5000, ambient_dim=8, seed=3)
    rng = np.random.default_rng(0)
    vectors = [v / np.linalg.norm(v) for v in rng.normal(size=(4, 8))]
    report = empirical_concentration(spec, 0.5, vectors, trials=50)
    assert report.trials == 200
    # bound + 3 sigma binomial slack is below one count at this r
    allowed = report.trials * report.theoretical_bound + 3 * math.sqrt(
        report.trials * report.theoretical_bound
    )
    assert allowed < 1
    assert report.failures == 0
    assert report.empirical_rate == 0.0


def test_concentration_degenerate_regime_is_well_formed():
    spec = RandomSpec("bernoulli", reduced_dim=1, ambient_dim=5, seed=11)
    rng = np.random.default_rng(1)
    v = rng.normal(size=5)
    report = empirical_concentration(spec, 0.99, [v], trials=200)
    assert report.trials == 200
    assert 0 <= report.failures <= 200
    assert report.empirical_rate == report.failures / 200
    assert report.theoretical_bound == pytest.approx(
        2.0 * math.exp(-c0(0.99)), rel=1e-12
    )


def test_concentration_scale_invariant_counts():
    spec = RandomSpec("gaussian", reduced_dim=3, ambient_dim=6, seed=21)
    rng = np.random.default_rng(2)
    vectors = [rng.normal(size=6) for _ in range(3)]
    scaled = [2.0 * v for v in vectors]
    base = empirical_concentration(spec, 0.3, vectors, trials=400)
    double = empirical_concentration(spec, 0.3, scaled, trials=400)
    assert base.failures == double.failures


def test_concentration_input_validation():
    spec = RandomSpec("gaussian", 2, 4)
    with pytest.raises(OutOfRange):
        empirical_concentration(spec, 1.2, [np.ones(4)], 10)
    with pytest.raises(OutOfRange):
        empirical_concentration(spec, 0.5, [np.ones(4)], 0)
    with pytest.raises(OutOfRange):
        empirical_concentration(spec, 0.5, [], 10)
    with pytest.raises(OutOfRange):
        empirical_concentration(spec, 0.5, [np.zeros(4)], 10)
    with pytest.raises(DimensionMismatch):
        empirical_concentration(spec, 0.5, [np.ones(5)], 10)


def test_rank_preservation_zero_matrix():
    v = Subspace(np.linalg.qr(np.random.default_rng(3).normal(size=(6, 3)))[0])
    assert not check_rank_preservation(np.zeros((4, 6)), v, 2)


def test_rank_preservation_coordinate_selector():
    # A keeps the first r coordinates; span{e_1..e_t} keeps rank t
    r, n, t = 4, 7, 3
    selector = np.eye(r, n)
    v = Subspace(np.eye(n)[:, :t])
    assert check_rank_preservation(selector, v, t - 1)
    assert not check_rank_preservation(selector, v, t)


def test_rank_preservation_random_monte_carlo():
    hits = 0
    trials = 1000
    for trial in range(trials):
        rng = np.random.default_rng((1009, trial))
        n = int(rng.integers(6, 12))
        k = int(rng.integers(1, 4))
        r = int(rng.integers(k + 1, 7))
        t = int(rng.integers(k + 1, min(n, 6) + 1))
        v = Subspace(np.linalg.qr(rng.normal(size=(n, t)))[0])
        a = rng.normal(size=(r, n)) / math.sqrt(r)
        if check_rank_preservation(a, v, k):
            hits += 1
    assert hits == trials


def test_rank_preservation_dimension_mismatch():
    v = Subspace(np.eye(4)[:, :2])
    with pytest.raises(DimensionMismatch):
        check_rank_preservation(np.zeros((3, 5)), v, 1)


def test_inner_product_distortion_lemma():
    # |<u,v> - <Au,Av>| <= eps ||u|| ||v||, tested at r = 2000, eps = 0.5
    r, eps, trials = 2000, 0.5, 1000
    spec = RandomSpec("gaussian", reduced_dim=r, ambient_dim=10, seed=2024)
    rng = np.random.default_rng(5)
    u = rng.normal(size=10)
    v = rng.normal(size=10)
    failures = 0
    for t in range(trials):
        a = sample_matrix(spec, stream=t)
        lhs = abs(float(u @ v) - float((a @ u) @ (a @ v)))
        if lhs > eps * np.linalg.norm(u) * np.linalg.norm(v):
            failures += 1
    predicted = 4.0 * math.exp(-r * c0(eps))
    allowed = trials * predicted + 3.0 * math.sqrt(trials * predicted)
    assert failures <= allowed
    assert failures == 0  # the allowance is below one count at this r


def test_gram_distortion_proposition():
    # ||M^T M - M^T A^T A M|| <= eps ||M||^2 in every trial at r = 2000
    r, eps, trials = 2000, 0.5, 200
    rng = np.random.default_rng(6)
    m = rng.normal(size=(12, 5))
    norm2 = np.linalg.norm(m) ** 2
    spec = RandomSpec("bernoulli", reduced_dim=r, ambient_dim=12, seed=77)
    for t in range(trials):
        a = sample_matrix(spec, stream=t)
        assert gram_distortion(m, a) <= eps * norm2


def test_sparsity_preserved_under_sketching():
    # a witness bundle for error rho projects to a witness for (1+eps) rho
    r, eps, trials = 2000, 0.5, 200
    spec_data = SyntheticSpec(
        ambient_dim=16, n_subspaces=2, max_dim=2, n_points=10,
        noise_sigma=0.05, seed=8,
    )
    data, truth = generate_synthetic(spec_data)
    rho = bundle_error(data, truth.bundle)
    assert rho > 0
    spec = RandomSpec("gaussian", reduced_dim=r, ambient_dim=16, seed=99)
    for t in range(trials):
        a = sample_matrix(spec, stream=t)
        reduced = DataSet(a @ data.points)
        projected = Bundle(
            tuple(Subspace.from_span(a @ v.basis) for v in truth.bundle),
            cap_dim=truth.bundle.cap_dim,
        )
        assert bundle_error(reduced, projected) <= (1.0 + eps) * rho + 1e-12


def test_optimal_error_inflation_under_sketching():
    # e0 of the sketched data stays within (1+eps) of the original e0
    r, eps, trials = 2000, 0.5, 100
    rng = np.random.default_rng(9)
    data = DataSet(rng.normal(size=(8, 6)))
    e0 = brute_force_oracle(data, 2, 1).error
    spec = RandomSpec("gaussian", reduced_dim=r, ambient_dim=8, seed=101)
    for t in range(trials):
        a = sample_matrix(spec, stream=t)
        reduced = DataSet(a @ data.points)
        e0_reduced = brute_force_oracle(reduced, 2, 1).error
        assert e0_reduced <= (1.0 + eps) * e0 + 1e-9
