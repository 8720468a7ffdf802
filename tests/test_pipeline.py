import math
import threading
from dataclasses import fields

import numpy as np
import pytest

from unionfit import (
    DataSet,
    DimensionMismatch,
    NotNormalized,
    OutOfRange,
    RandomSpec,
    SolverConfig,
    brute_force_oracle,
    bundle_error,
    ek_perturbation_check,
    eta_admissibility_epsilon,
    gram_distortion,
    min_reduced_dim,
    normalize_dataset,
    reduce_solve_lift,
    sample_matrix,
    solve_best_model,
    theorem_bound,
)
from unionfit import fitting, pipeline, solver
from unionfit.synthetic import SyntheticSpec, generate_synthetic


def test_theorem_bound_examples():
    # d = k collapses the additive term
    assert theorem_bound(0.3, 0.25, 4, 2, 2) == pytest.approx(1.25 * 0.3, rel=1e-12)
    # e0 = 0, eps = 0.5, l = 2, d = 3, k = 1: 0.5 * sqrt(4) = 1
    assert theorem_bound(0.0, 0.5, 2, 3, 1) == pytest.approx(1.0, abs=1e-12)
    values = [theorem_bound(0.2, eps, 2, 5, 1) for eps in (0.1, 0.3, 0.5, 0.9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_theorem_bound_rejects_bad_params():
    with pytest.raises(OutOfRange):
        theorem_bound(0.1, 0.0, 2, 3, 1)
    with pytest.raises(OutOfRange):
        theorem_bound(0.1, 1.0, 2, 3, 1)
    with pytest.raises(OutOfRange):
        theorem_bound(0.1, 0.5, 2, 1, 3)  # d < k
    with pytest.raises(OutOfRange):
        theorem_bound(-0.1, 0.5, 2, 3, 1)


def test_min_reduced_dim_reference_value():
    # 12 (1 + sqrt(2*2))^2 / 0.25 = 432 ; ln((800 + 80)/0.1) = ln(8800)
    assert min_reduced_dim(0.5, 0.1, 2, 3, 1, 20) == 3924
    assert math.ceil(432.0 * math.log(8800.0)) == 3924


def test_min_reduced_dim_collapse_at_full_rank_cap():
    eta, delta, m = 0.3, 0.2, 11
    got = min_reduced_dim(eta, delta, 5, 4, 4, m)
    expected = math.ceil(12.0 / eta**2 * math.log((2 * m * m + 4 * m) / delta))
    assert got == expected


def test_min_reduced_dim_quadruples_when_eta_halves():
    for eta in (0.8, 0.5, 0.2):
        full = min_reduced_dim(eta, 0.1, 2, 6, 2, 30)
        half = min_reduced_dim(eta / 2, 0.1, 2, 6, 2, 30)
        assert half >= 4 * full - 3  # equality up to ceiling slack


def test_min_reduced_dim_rejects_bad_params():
    for bad in (0.0, 1.0):
        with pytest.raises(OutOfRange):
            min_reduced_dim(bad, 0.1, 2, 3, 1, 5)
        with pytest.raises(OutOfRange):
            min_reduced_dim(0.5, bad, 2, 3, 1, 5)
    with pytest.raises(OutOfRange):
        min_reduced_dim(0.5, 0.1, 2, 1, 3, 5)


@pytest.mark.parametrize("bound, args", [
    (min_reduced_dim, (1e-300, 0.5, 2, 5, 1, 10)),  # eta * eta underflows to 0
    (min_reduced_dim, (1e-160, 0.5, 2, 5, 1, 10)),  # r overflows to inf
    (min_reduced_dim, (0.5, 0.5, 2, 5, 1, 10**400)),
    (theorem_bound, (1.7e308, 0.9, 2, 5, 1)),
    (theorem_bound, (0.1, 0.5, 2, 10**400, 1)),
    (eta_admissibility_epsilon, (0.5, 2, 10**400, 1)),
], ids=["eta-underflow", "r-overflow", "huge-m", "huge-e0", "huge-d", "eta-huge-d"])
def test_bounds_past_the_float_range_raise_out_of_range(bound, args):
    with pytest.raises(OutOfRange):
        bound(*args)


def test_eta_admissibility_epsilon():
    assert eta_admissibility_epsilon(0.37, 3, 2, 2) == pytest.approx(0.37, rel=1e-12)
    assert eta_admissibility_epsilon(0.5, 2, 3, 1) == pytest.approx(1.0 / 6.0, rel=1e-12)
    rng = np.random.default_rng(12)
    for _ in range(100):
        eta = float(rng.uniform(0.01, 0.99))
        l = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        d = int(rng.integers(k, k + 6))
        eps = eta_admissibility_epsilon(eta, l, d, k)
        assert 0 < eps < 1
        # plugging into the bound at e0 <= 1 leaves exactly eta of headroom
        assert theorem_bound(1.0, eps, l, d, k) - 1.0 <= eta + 1e-12


def test_gram_distortion_orthonormal_columns_give_zero():
    rng = np.random.default_rng(14)
    m = rng.normal(size=(5, 4))
    a = np.linalg.qr(rng.normal(size=(9, 5)))[0]  # 9x5, A^T A = I_5
    assert gram_distortion(m, a) <= 1e-12
    assert gram_distortion(m, np.eye(5)) <= 1e-15


def test_gram_distortion_scaled_embedding():
    # single unit column, A = 2 * identity embedding: |1 - 4| = 3
    m = np.array([[1.0], [0.0], [0.0]])
    a = 2.0 * np.eye(5, 3)
    assert gram_distortion(m, a) == pytest.approx(3.0, abs=1e-12)


def test_gram_distortion_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        gram_distortion(np.eye(3), np.zeros((2, 4)))


def test_ek_perturbation_lossless_matrix():
    rng = np.random.default_rng(16)
    s = rng.normal(size=(4, 6))
    a = np.linalg.qr(rng.normal(size=(7, 4)))[0]
    lhs, rhs, ok = ek_perturbation_check(s, a, k=2, d=4)
    assert lhs <= 1e-9
    assert ok


def test_ek_perturbation_trivial_when_rank_below_k():
    rng = np.random.default_rng(18)
    s = rng.normal(size=(5, 1)) @ rng.normal(size=(1, 4))  # rank 1
    a = rng.normal(size=(3, 5))
    lhs, rhs, ok = ek_perturbation_check(s, a, k=2, d=4)
    assert lhs == 0.0
    assert ok


def test_ek_perturbation_monte_carlo():
    for trial in range(200):
        rng = np.random.default_rng((2027, trial))
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 9))
        r = int(rng.integers(1, 7))
        parent = rng.normal(size=(n, m + 2))
        d = DataSet(parent).numerical_rank
        cols = rng.choice(m + 2, size=m, replace=False)
        s = parent[:, np.sort(cols)]
        k = int(rng.integers(0, d + 1))
        a = rng.normal(size=(r, n)) * rng.uniform(0.1, 3.0)
        lhs, rhs, ok = ek_perturbation_check(s, a, k=k, d=d)
        assert ok, (lhs, rhs)


def test_ek_perturbation_validates_k_and_d():
    with pytest.raises(OutOfRange):
        ek_perturbation_check(np.eye(3), np.eye(3), k=2, d=1)
    with pytest.raises(OutOfRange):
        ek_perturbation_check(np.eye(3), np.eye(3), k=-1, d=1)


def test_reduce_solve_lift_exact_union_recovers_zero_error():
    spec_data = SyntheticSpec(ambient_dim=30, n_subspaces=2, max_dim=2,
                              n_points=8, seed=21)
    data, _ = generate_synthetic(spec_data)
    spec = RandomSpec("gaussian", reduced_dim=5, ambient_dim=30, seed=31)
    report = reduce_solve_lift(data, spec, 2, 2)
    assert report.reduced_certified_optimal
    assert report.reduced_error <= 1e-18
    assert report.lifted_error <= 1e-9
    assert report.bound_value is None and report.bound_satisfied is None
    assert report.bound_informative is None


def test_reduce_solve_lift_identity_embedding_is_lossless():
    spec_data = SyntheticSpec(ambient_dim=6, n_subspaces=2, max_dim=1,
                              n_points=8, noise_sigma=0.02, seed=33)
    data, _ = generate_synthetic(spec_data)
    cfg = SolverConfig(restarts=10, seed=5, oracle_budget=1)  # force the heuristic
    spec = RandomSpec("gaussian", reduced_dim=6, ambient_dim=6, seed=0)
    lift = reduce_solve_lift(data, spec, 2, 1, cfg, matrix=np.eye(6))
    full = solve_best_model(data, 2, 1, restarts=10, seed=5)
    assert lift.reduced_error == full.error  # bit identical
    assert lift.lifted_error == full.error
    assert lift.reduced_partition == full.partition
    assert not lift.reduced_certified_optimal


def test_reduce_solve_lift_requires_normalized_data():
    data = DataSet(np.random.default_rng(2).normal(size=(5, 6)))
    spec = RandomSpec("gaussian", reduced_dim=3, ambient_dim=5, seed=1)
    with pytest.raises(NotNormalized):
        reduce_solve_lift(data, spec, 2, 1)


def test_normalization_is_checked_before_any_solve(monkeypatch):
    """Unnormalized data is refused before the sketch is solved: the
    reduce_solve_lift check runs first, and lift runs the same one."""
    def no_solve(*args):
        raise AssertionError("a solve ran before the normalization check")

    monkeypatch.setattr(SolverConfig, "solve", no_solve)
    monkeypatch.setattr(SolverConfig, "certify", no_solve)
    data = DataSet(np.random.default_rng(2).normal(size=(5, 6)))
    spec = RandomSpec("gaussian", reduced_dim=3, ambient_dim=5, seed=1)
    with pytest.raises(NotNormalized):
        reduce_solve_lift(data, spec, 2, 1, SolverConfig(oracle_budget=1))
    report = solve_best_model(normalize_dataset(data), 2, 1, restarts=2, seed=0)
    with pytest.raises(NotNormalized):
        pipeline.lift(data, report, 2, 1, 5, None, None)


def test_reduce_solve_lift_shape_checks():
    data = normalize_dataset(DataSet(np.random.default_rng(3).normal(size=(5, 6))))
    with pytest.raises(DimensionMismatch):
        reduce_solve_lift(data, RandomSpec("gaussian", 3, 4, seed=1), 2, 1)
    spec = RandomSpec("gaussian", 3, 5, seed=1)
    with pytest.raises(DimensionMismatch):
        reduce_solve_lift(data, spec, 2, 1, matrix=np.eye(5))


def test_reduce_solve_lift_bound_holds_with_oracle_optimum():
    eps = 0.5
    for trial in range(10):
        spec_data = SyntheticSpec(
            ambient_dim=20, n_subspaces=2, max_dim=1, n_points=8,
            noise_sigma=0.05, seed=1000 + trial,
        )
        data, _ = generate_synthetic(spec_data)
        e0 = brute_force_oracle(data, 2, 1).error
        spec = RandomSpec("gaussian", reduced_dim=4, ambient_dim=20,
                          seed=2000 + trial)
        report = reduce_solve_lift(data, spec, 2, 1, epsilon=eps, e0=e0)
        assert report.reduced_certified_optimal
        assert report.bound_value == pytest.approx(
            theorem_bound(e0, eps, 2, data.numerical_rank, 1), rel=1e-12
        )
        assert report.bound_satisfied
        assert report.lifted_error >= e0 - 1e-9
        assert report.lifted_error == pytest.approx(
            bundle_error(data, report.lifted_bundle), abs=1e-12
        )


def test_eta_admissible_sketch_stays_within_eta_of_optimum():
    # with eps from the eta formula and r at the closed-form minimum, the
    # lifted model lands within eta of the certified optimum every time
    eta, delta = 0.9, 0.5
    for trial in range(5):
        spec_data = SyntheticSpec(
            ambient_dim=5, n_subspaces=2, max_dim=1, n_points=4,
            noise_sigma=0.1, seed=3000 + trial,
        )
        data, _ = generate_synthetic(spec_data)
        d = data.numerical_rank
        r = min_reduced_dim(eta, delta, 2, d, 1, data.count)
        eps = eta_admissibility_epsilon(eta, 2, d, 1)
        e0 = brute_force_oracle(data, 2, 1).error
        spec = RandomSpec("gaussian", reduced_dim=r, ambient_dim=5,
                          seed=4000 + trial)
        report = reduce_solve_lift(data, spec, 2, 1, epsilon=eps, e0=e0)
        assert report.r == r
        assert report.lifted_error <= e0 + eta + 1e-9
        assert report.bound_satisfied


def test_lift_report_echoes_e0():
    rng = np.random.default_rng(41)
    data = normalize_dataset(DataSet(rng.normal(size=(10, 7))))
    spec = RandomSpec("gaussian", reduced_dim=4, ambient_dim=10, seed=9)
    e0 = brute_force_oracle(data, 2, 1).error
    assert reduce_solve_lift(data, spec, 2, 1, e0=e0).e0 == e0
    assert reduce_solve_lift(data, spec, 2, 1).e0 is None


def test_lifted_error_never_below_certified_optimum():
    rng = np.random.default_rng(40)
    data = normalize_dataset(DataSet(rng.normal(size=(10, 7))))
    e0 = brute_force_oracle(data, 2, 1).error
    spec = RandomSpec("bernoulli", reduced_dim=4, ambient_dim=10, seed=8)
    report = reduce_solve_lift(data, spec, 2, 1, epsilon=0.5, e0=e0)
    assert report.lifted_error >= e0 - 1e-9


def test_sampled_matrix_matches_spec_shape():
    spec = RandomSpec("gaussian", reduced_dim=4, ambient_dim=20, seed=5)
    assert sample_matrix(spec).shape == (4, 20)


# 128 x 2048 points hold 2 * PARALLEL_MIN_FLOATS entries, enough for a
# solve of the full data to run its restarts on threads on two cores; the
# sketch to r = 16 stays below the floor, so its 5 restarts run on one.
# reduce_solve_lift must still sketch, solve and lift on the calling thread.
LIFT_DATA = SyntheticSpec(ambient_dim=128, n_subspaces=3, max_dim=2,
                          n_points=2048, noise_sigma=0.05, seed=5)
LIFT_R, LIFT_RESTARTS = 16, 5


def lift_sketch(seed, r=LIFT_R):
    return RandomSpec("gaussian", reduced_dim=r, ambient_dim=128, seed=seed)


def use_cores(monkeypatch, cores):
    """Give the process ``cores`` CPUs, with BLAS pinned to one thread."""
    monkeypatch.setattr(solver, "_cores", lambda: cores)
    for name in solver.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def count_lifts(monkeypatch):
    """Count pipeline.lift calls; returns the running count in a list."""
    calls = [0]
    real = pipeline.lift

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(pipeline, "lift", counted)
    return calls


def assert_lift_reports_equal(ours, theirs):
    """Every field of two lift reports, bit for bit."""
    for f in fields(ours):
        a, b = getattr(ours, f.name), getattr(theirs, f.name)
        if f.name == "lifted_bundle":
            assert a.cap_dim == b.cap_dim and len(a) == len(b)
            for u, v in zip(a, b, strict=True):
                assert u.basis.shape == v.basis.shape
                assert u.basis.tobytes() == v.basis.tobytes()
        elif f.name == "reduced_partition":
            assert a == b and a.labels.tobytes() == b.labels.tobytes()
        else:
            assert a == b, f.name


def both_paths(monkeypatch, data, spec, *args, **kwargs):
    """reduce_solve_lift on one core, then on two, each on its own copy of
    ``data``, so that neither reads group fits the other memoized; returns
    the one-core report, the two-core one and the two-core call's count of
    lifts."""
    use_cores(monkeypatch, 1)
    one = reduce_solve_lift(DataSet(data.points), spec, *args, **kwargs)
    use_cores(monkeypatch, 2)
    lifts = count_lifts(monkeypatch)
    two = reduce_solve_lift(DataSet(data.points), spec, *args, **kwargs)
    return one, two, lifts[0]


# Under stop_below 0.15 restart 2 (error 0.118) stops the solve at r = 16.
# At r = 64 the sketch holds PARALLEL_MIN_FLOATS entries, so on two cores
# its restarts, and their refits under stop_below, run on two threads.
@pytest.mark.parametrize("seed, stop_below, r", [
    (2, None, LIFT_R), (1, None, LIFT_R), (1, 0.15, LIFT_R), (1, None, 64), (1, 0.15, 64),
])
def test_one_and_two_cores_lift_alike(monkeypatch, seed, stop_below, r):
    data, _ = generate_synthetic(LIFT_DATA)
    assert data.points.size == 2 * solver.PARALLEL_MIN_FLOATS
    cfg = SolverConfig(restarts=LIFT_RESTARTS, seed=seed, stop_below=stop_below)
    one, two, lifts = both_paths(
        monkeypatch, data, lift_sketch(seed, r), 3, 2, cfg, epsilon=0.5, e0=0.01)
    assert_lift_reports_equal(two, one)
    assert lifts == 1
    assert one.bound_value is not None


def test_reduce_solve_lift_runs_on_the_calling_thread(monkeypatch):
    """On two cores, with data large enough to thread a full-space solve,
    reduce_solve_lift starts no thread: it solves the sketch once, with
    the configured restarts, then lifts once, both on the calling thread."""
    data, _ = generate_synthetic(LIFT_DATA)
    use_cores(monkeypatch, 2)
    threads = threading.active_count()
    calls = []
    real_solve, real_lift = SolverConfig.solve, pipeline.lift

    def solve(self, *args):
        calls.append(("solve", self.restarts, threading.current_thread(),
                      threading.active_count()))
        return real_solve(self, *args)

    def lift(*args):
        calls.append(("lift", None, threading.current_thread(),
                      threading.active_count()))
        return real_lift(*args)

    monkeypatch.setattr(SolverConfig, "solve", solve)
    monkeypatch.setattr(pipeline, "lift", lift)
    reduce_solve_lift(data, lift_sketch(2), 3, 2, SolverConfig(restarts=LIFT_RESTARTS, seed=2))
    caller = threading.current_thread()
    assert calls == [("solve", LIFT_RESTARTS, caller, threads),
                     ("lift", None, caller, threads)]
    assert threading.active_count() == threads


@pytest.mark.parametrize("cores, seed", [(2, 2), (2, 1), (1, 1)])
def test_a_warm_dataset_lifts_as_a_fresh_one(monkeypatch, cores, seed):
    """A second reduce_solve_lift on one DataSet reads every full-space
    group fit from the memo the first call filled.  Both reports equal
    the one-core report of a fresh DataSet field for field."""
    data, _ = generate_synthetic(LIFT_DATA)
    spec = lift_sketch(seed)
    cfg = SolverConfig(restarts=LIFT_RESTARTS, seed=seed)
    use_cores(monkeypatch, 1)
    fresh = reduce_solve_lift(DataSet(data.points), spec, 3, 2, cfg, epsilon=0.5, e0=0.01)
    use_cores(monkeypatch, cores)
    used = count_lifts(monkeypatch)
    cold = reduce_solve_lift(data, spec, 3, 2, cfg, epsilon=0.5, e0=0.01)
    assert used[0] == 1
    svd_shapes = []
    real = fitting.svd_basis
    monkeypatch.setattr(fitting, "svd_basis",
                        lambda a, k: svd_shapes.append(a.shape) or real(a, k))
    warm = reduce_solve_lift(data, spec, 3, 2, cfg, epsilon=0.5, e0=0.01)
    assert used[0] == 2
    assert_lift_reports_equal(cold, fresh)
    assert_lift_reports_equal(warm, fresh)
    assert [s for s in svd_shapes if s[-2] == LIFT_DATA.ambient_dim] == []
