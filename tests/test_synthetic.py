import numpy as np
import pytest

from unionfit import (
    InvalidSpec,
    alternate_minimize,
    bundle_error,
    solve_best_model,
)
from unionfit.synthetic import SyntheticSpec, generate_synthetic


def test_noiseless_data_lies_on_its_bundle():
    spec = SyntheticSpec(ambient_dim=15, n_subspaces=3, max_dim=2, n_points=24,
                         seed=5)
    data, truth = generate_synthetic(spec)
    assert bundle_error(data, truth.bundle) <= 1e-10
    assert abs(data.frobenius_norm - 1.0) <= 1e-12


def test_generation_is_deterministic():
    spec = SyntheticSpec(ambient_dim=9, n_subspaces=2, max_dim=1, n_points=7,
                         noise_sigma=0.1, seed=42)
    first, truth_a = generate_synthetic(spec)
    second, truth_b = generate_synthetic(spec)
    assert np.array_equal(first.points, second.points)
    assert truth_a.partition == truth_b.partition
    for va, vb in zip(truth_a.bundle, truth_b.bundle):
        assert np.array_equal(va.basis, vb.basis)
    third, _ = generate_synthetic(
        SyntheticSpec(ambient_dim=9, n_subspaces=2, max_dim=1, n_points=7,
                      noise_sigma=0.1, seed=43)
    )
    assert not np.array_equal(first.points, third.points)


def test_default_balance_is_near_equal():
    spec = SyntheticSpec(ambient_dim=6, n_subspaces=3, max_dim=1, n_points=8,
                         seed=0)
    assert spec.counts == (3, 3, 2)
    _, truth = generate_synthetic(spec)
    assert tuple(len(g) for g in truth.partition.groups) == (3, 3, 2)


def test_explicit_balance_is_respected():
    spec = SyntheticSpec(ambient_dim=6, n_subspaces=2, max_dim=1, n_points=9,
                         seed=1, balance=(7, 2))
    _, truth = generate_synthetic(spec)
    assert tuple(len(g) for g in truth.partition.groups) == (7, 2)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        SyntheticSpec(ambient_dim=4, n_subspaces=2, max_dim=4, n_points=6)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(ambient_dim=4, n_subspaces=0, max_dim=1, n_points=6)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(ambient_dim=4, n_subspaces=2, max_dim=1, n_points=6,
                      noise_sigma=-0.1)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(ambient_dim=4, n_subspaces=2, max_dim=1, n_points=6,
                      balance=(3, 2))
    with pytest.raises(InvalidSpec):
        SyntheticSpec(ambient_dim=4, n_subspaces=2, max_dim=1, n_points=6,
                      balance=(3, 2, 1))
    fields = {"ambient_dim": 8, "n_subspaces": 2, "max_dim": 1, "n_points": 6}
    for bad in ({"n_points": 6.5}, {"ambient_dim": 8.0}, {"n_subspaces": True},
                {"max_dim": "1"}, {"seed": 0.5}, {"noise_sigma": np.nan},
                {"noise_sigma": np.inf}, {"noise_sigma": "0.1"},
                {"n_points": 8, "balance": (4.9, 4.9)}, {"balance": 6},
                {"balance": "33"}):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(**{**fields, **bad})
    # integer balance entries of any integer type are kept as Python ints
    spec = SyntheticSpec(**fields, balance=[np.int64(4), 2])
    assert spec.balance == (4, 2) and type(spec.balance[0]) is int


def test_ground_truth_is_feasible_witness_for_solvers():
    spec = SyntheticSpec(ambient_dim=10, n_subspaces=2, max_dim=1, n_points=60,
                         noise_sigma=0.01, seed=77)
    data, truth = generate_synthetic(spec)
    witness = bundle_error(data, truth.bundle)
    assert witness > 0
    # descending from the ground-truth partition can only improve on it
    from_truth = alternate_minimize(data, 2, 1, truth.partition)
    assert from_truth.error <= witness + 1e-12
    # and the restarted solver's best model beats the witness as well
    solved = solve_best_model(data, 2, 1, restarts=20, seed=3)
    assert solved.error <= witness + 1e-12


def test_noise_raises_error_level():
    quiet, truth = generate_synthetic(
        SyntheticSpec(ambient_dim=8, n_subspaces=2, max_dim=1, n_points=12,
                      noise_sigma=0.0, seed=11)
    )
    noisy, ntruth = generate_synthetic(
        SyntheticSpec(ambient_dim=8, n_subspaces=2, max_dim=1, n_points=12,
                      noise_sigma=0.2, seed=11)
    )
    assert bundle_error(quiet, truth.bundle) <= 1e-10
    assert bundle_error(noisy, ntruth.bundle) > 1e-4
