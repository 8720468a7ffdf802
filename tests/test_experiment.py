import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unionfit import (
    DataSet,
    InvalidSpec,
    RandomSpec,
    ReductionConfig,
    SolverConfig,
    config_from_dict,
    load_config,
    load_dataset,
    normalize_dataset,
    run_experiment,
    min_reduced_dim,
    reduce_solve_lift,
    save_dataset,
)
from unionfit.experiment import ROW_FIELDS, derive_seed, rows_to_csv_text, run_trial
from unionfit.synthetic import SyntheticSpec, generate_synthetic


def small_config(trials=3, **overrides):
    raw = {
        "dataset": {
            "synthetic": {
                "ambient_dim": 8,
                "n_subspaces": 2,
                "max_dim": 1,
                "n_points": 6,
                "noise_sigma": 0.05,
            }
        },
        "reduction": {"distribution": "gaussian", "r": 3, "epsilon": 0.5},
        "solver": {"restarts": 10, "oracle_budget": 100000},
        "trials": trials,
        "master_seed": 99,
    }
    raw.update(overrides)
    return config_from_dict(raw)


def test_zero_trial_config_yields_empty_rows_and_valid_summary():
    result = run_experiment(small_config(trials=0))
    assert result.rows == []
    assert result.exit_code == 0
    assert result.summary["totals"] == {
        "trials": 0, "bound_checked": 0, "bound_informative": 0,
    }
    assert result.summary["violations"]["bound"] == 0
    assert result.summary["violations"]["hard"] == 0


def test_small_run_produces_consistent_rows():
    result = run_experiment(small_config(trials=4))
    assert len(result.rows) == 4
    assert result.exit_code == 0
    for i, row in enumerate(result.rows):
        assert row["trial"] == i
        assert row["r"] == 3
        assert row["epsilon"] == 0.5
        assert row["e0"] is not None and row["e0"] >= 0  # oracle ran (2^6 labelings)
        assert row["lifted_error"] >= row["e0"] - 1e-9
        assert row["bound_value"] is not None
        assert isinstance(row["bound_satisfied"], bool)
    assert result.summary["totals"]["bound_checked"] == 4


ORACLE_CERTIFY_SHAPE = {"ambient_dim": 20, "n_subspaces": 2, "max_dim": 1,
                        "n_points": 12, "noise_sigma": 0.05}


@pytest.mark.parametrize("r, epsilon, informative", [(4, 0.5, False), (18, 0.01, True)])
def test_summary_counts_informative_bounds(r, epsilon, informative):
    """On unit-norm data no lift exceeds ||F||_F^2 = 1.  The benchmark's
    certified trial (r = 4, eps = 0.5) has a bound of about 2.4, true by
    arithmetic; eps = 0.01 at r = 18 gives one below 1."""
    cfg = config_from_dict({
        "dataset": {"synthetic": ORACLE_CERTIFY_SHAPE},
        "reduction": {"distribution": "gaussian", "r": r, "epsilon": epsilon},
        "trials": 3,
        "master_seed": 5,
    })
    result = run_experiment(cfg)
    assert result.exit_code == 0
    totals = result.summary["totals"]
    assert totals["bound_checked"] == 3
    assert totals["bound_informative"] == (3 if informative else 0)
    for row in result.rows:
        assert (row["bound_value"] < 1.0) is informative
        assert row["bound_satisfied"] is True
    assert "bound_informative" not in result.rows[0]


def test_rerun_is_byte_identical():
    first = run_experiment(small_config(trials=3))
    second = run_experiment(small_config(trials=3))
    assert rows_to_csv_text(first.rows) == rows_to_csv_text(second.rows)


def test_report_files_are_written(tmp_path):
    rows_path = tmp_path / "rows.csv"
    summary_path = tmp_path / "summary.json"
    cfg = small_config(
        trials=2, output={"rows": str(rows_path), "summary": str(summary_path)}
    )
    result = run_experiment(cfg)
    text = rows_path.read_text()
    assert text.splitlines()[0] == ",".join(ROW_FIELDS)
    assert len(text.splitlines()) == 3
    summary = json.loads(summary_path.read_text())
    assert summary["totals"]["trials"] == 2
    assert len(summary["per_trial_seconds"]) == 2
    assert summary["config_echo"]["master_seed"] == 99
    # the CSV is reproducible byte for byte; timings live only in the summary
    rerun = run_experiment(cfg)
    assert rows_path.read_text() == text
    assert rerun.summary["violations"] == summary["violations"]


def test_file_dataset_round_trip(tmp_path):
    data, _ = generate_synthetic(
        SyntheticSpec(ambient_dim=5, n_subspaces=2, max_dim=1, n_points=6, seed=3)
    )
    path = tmp_path / "points.csv"
    save_dataset(data, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.points, data.points)  # repr round-trips exactly


def test_file_dataset_config(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "data.csv"
    save_dataset(DataSet(rng.normal(size=(6, 7))), path)
    cfg = config_from_dict(
        {
            "dataset": {"file": str(path)},
            "model": {"n_subspaces": 2, "max_dim": 1},
            "reduction": {"distribution": "bernoulli", "r": 3, "epsilon": 0.4},
            "solver": {"restarts": 5, "oracle_budget": 1000},
            "trials": 2,
            "master_seed": 1,
        }
    )
    result = run_experiment(cfg)
    assert result.exit_code == 0
    assert len(result.rows) == 2
    # same file each trial, so e0 is constant across rows
    assert result.rows[0]["e0"] == result.rows[1]["e0"]


def test_file_experiment_certifies_its_data_once(tmp_path, monkeypatch):
    """Every trial of a file experiment certifies the same data, so the
    full-space oracle runs once for all three trials, and the rows are
    those of three run_trial calls that each certify it."""
    import unionfit.pipeline as pipe

    real = pipe.brute_force_oracle
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[0].ambient_dim)
        return real(*args, **kwargs)

    path = tmp_path / "data.csv"
    save_dataset(DataSet(np.random.default_rng(5).normal(size=(6, 7))), path)
    cfg = replace(small_config(trials=3), synthetic=None, dataset_file=str(path))
    expected = []
    data = normalize_dataset(load_dataset(path))
    for trial in range(3):
        report = run_trial(data, 2, 1, cfg.reduction,
                           replace(cfg.solver, seed=derive_seed(99, trial, 2)),
                           sketch_seed=derive_seed(99, trial, 1))
        expected.append({"trial": trial, **{f: getattr(report, f) for f in ROW_FIELDS[1:]}})
    monkeypatch.setattr(pipe, "brute_force_oracle", counted)
    result = run_experiment(cfg)
    assert runs.count(6) == 1 and runs.count(3) == 3  # full space once, sketches each
    assert rows_to_csv_text(result.rows) == rows_to_csv_text(expected)


def test_trials_on_one_dataset_certify_it_once(monkeypatch):
    """run_trial certifies through SolverConfig.certify, which keeps e0 on
    the DataSet: three trials on one dataset, each with its own seeds, run
    the full-space oracle once, and each sketch's oracle once per trial."""
    import unionfit.pipeline as pipe

    real = pipe.brute_force_oracle
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[0].ambient_dim)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipe, "brute_force_oracle", counted)
    cfg = small_config()
    data = normalize_dataset(DataSet(np.random.default_rng(6).normal(size=(6, 7))))
    reports = [run_trial(data, 2, 1, cfg.reduction, replace(cfg.solver, seed=trial),
                         sketch_seed=trial) for trial in range(3)]
    assert runs.count(6) == 1 and runs.count(3) == 3
    assert len({report.e0 for report in reports}) == 1


def test_path_config_writes_the_summary_of_its_str_twin(tmp_path):
    """pathlib.Path values for the dataset and the outputs are echoed as
    strings, and the summary is that of the same paths given as str,
    timings aside."""
    path = tmp_path / "data.csv"
    save_dataset(DataSet(np.random.default_rng(5).normal(size=(6, 7))), path)
    cfg = replace(small_config(trials=1), synthetic=None, dataset_file=path)
    summaries = []
    for kind in (str, lambda p: p):
        out = tmp_path / ("str" if kind is str else "path")
        out.mkdir()
        run_experiment(replace(cfg, dataset_file=kind(path),
                               rows_path=kind(out / "rows.csv"),
                               summary_path=kind(out / "summary.json")))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config_echo"]["summary_path"] == str(out / "summary.json")
        for timing in ("elapsed_seconds", "per_trial_seconds"):
            summary.pop(timing)
        summary["config_echo"].pop("rows_path")
        summary["config_echo"].pop("summary_path")
        summaries.append(summary)
    assert summaries[0] == summaries[1]
    assert summaries[0]["config_echo"]["dataset_file"] == str(path)
    assert (tmp_path / "str" / "rows.csv").read_bytes() == (
        tmp_path / "path" / "rows.csv").read_bytes()


def test_eta_mode_derives_r_and_epsilon(tmp_path):
    cfg = config_from_dict(
        {
            "dataset": {
                "synthetic": {
                    "ambient_dim": 5,
                    "n_subspaces": 2,
                    "max_dim": 1,
                    "n_points": 4,
                }
            },
            "reduction": {"distribution": "gaussian", "eta": 0.9, "delta": 0.5},
            "solver": {"restarts": 4, "oracle_budget": 100},
            "trials": 1,
            "master_seed": 4,
        }
    )
    result = run_experiment(cfg)
    row = result.rows[0]
    assert row["r"] == 5  # the derived r is past N = 5: the identity sketch
    assert 0 < row["epsilon"] < 1
    assert result.exit_code == 0
    # noiseless data: certified zero optimum and a satisfied bound
    assert row["e0"] <= 1e-10
    assert row["bound_satisfied"] is True


def test_config_validation_errors():
    with pytest.raises(InvalidSpec):
        config_from_dict({"trials": 1})  # no dataset
    with pytest.raises(InvalidSpec):
        config_from_dict(
            {
                "dataset": {"file": "x.csv", "synthetic": {}},
                "trials": 1,
            }
        )
    with pytest.raises(InvalidSpec):
        config_from_dict(
            {
                "dataset": {"file": "x.csv"},
                "reduction": {"r": 3},
                "trials": 1,
            }
        )  # file source needs a model section
    with pytest.raises(InvalidSpec):
        config_from_dict(
            {
                "dataset": {
                    "synthetic": {
                        "ambient_dim": 5,
                        "n_subspaces": 2,
                        "max_dim": 1,
                        "n_points": 4,
                        "seed": 1,
                    }
                },
                "trials": 1,
            }
        )  # synthetic seed must come from master_seed
    with pytest.raises(InvalidSpec):
        small_config(reduction={"distribution": "gaussian"})  # no r, no eta/delta
    with pytest.raises(InvalidSpec):
        small_config(reduction={"distribution": "gaussian", "r": 3, "eta": 0.5,
                                "delta": 0.1})
    with pytest.raises(InvalidSpec):  # epsilon is derived in (eta, delta) mode
        small_config(reduction={"eta": 0.9, "delta": 0.5, "epsilon": 0.3})
    with pytest.raises(InvalidSpec):
        small_config(unknown_section=1)
    # sketch parameters outside (0, 1) are rejected before any trial runs
    for bad in ({"r": 3, "epsilon": 1.5}, {"r": 3, "epsilon": 0.0},
                {"eta": 1.0, "delta": 0.1}, {"eta": 0.5, "delta": -0.1}):
        with pytest.raises(InvalidSpec):
            small_config(trials=0, reduction=bad)
    with pytest.raises(InvalidSpec):
        small_config(dataset={"file": {"header": True}})  # no path
    with pytest.raises(InvalidSpec):
        small_config(model=[1])
    with pytest.raises(InvalidSpec):
        small_config(output="x")


def test_experiment_config_needs_exactly_one_dataset_source():
    """config_from_dict takes one source from its one-key dataset object;
    a direct ExperimentConfig checks it itself."""
    cfg = small_config(trials=0)
    with pytest.raises(InvalidSpec, match="exactly one dataset source"):
        replace(cfg, synthetic=None)  # neither
    with pytest.raises(InvalidSpec, match="exactly one dataset source"):
        replace(cfg, dataset_file="x.csv")  # both


@pytest.mark.parametrize(
    "reduction",
    [
        {"distribution": "gaussian", "r": 3, "epsilon": 0.5},
        {"distribution": "bernoulli", "eta": 0.9, "delta": 0.5},
    ],
)
def test_run_trial_reproduces_experiment_rows(reduction):
    cfg = small_config(trials=3, reduction=reduction)
    rows = run_experiment(cfg).rows
    for t, row in enumerate(rows):
        spec = replace(cfg.synthetic, seed=derive_seed(cfg.master_seed, t, 0))
        data, _ = generate_synthetic(spec)
        solver_cfg = replace(cfg.solver, seed=derive_seed(cfg.master_seed, t, 2))
        report = run_trial(data, cfg.n_subspaces, cfg.max_dim, cfg.reduction,
                           solver_cfg, sketch_seed=derive_seed(cfg.master_seed, t, 1))
        # exact float equality: both paths run the very same computation
        assert {f: getattr(report, f) for f in ROW_FIELDS[1:]} == {
            f: row[f] for f in ROW_FIELDS[1:]
        }


@st.composite
def tiny_trials(draw):
    """Unit-norm data with N <= 6 and m <= 8, optionally rank-deficient,
    with duplicated and zero columns, plus a sketch seed."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(3, 8))
    rank = draw(st.integers(1, n))
    left = draw(arrays(np.float64, (n, rank), elements=st.floats(-4, 4)))
    right = draw(arrays(np.float64, (rank, m), elements=st.floats(-4, 4)))
    pts = left @ right
    for src, dst in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                            st.integers(0, m - 1)), max_size=2)):
        pts[:, dst] = pts[:, src]
    for j in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        pts[:, j] = 0.0
    data = DataSet(pts)
    assume(data.frobenius_norm > 0.0)
    k = draw(st.integers(0, 1))
    return normalize_dataset(data), k, draw(st.integers(0, 2**32))


@given(tiny_trials())
def test_lifted_error_never_below_full_space_optimum(trial):
    """The lifted partition is one of the labelings the full-space oracle
    scores, so its error can never beat the certified optimum e0."""
    data, k, sketch_seed = trial
    reduction = ReductionConfig(r=3)
    report = run_trial(data, 2, k, reduction, SolverConfig(), sketch_seed)
    assert report.e0 is not None and report.reduced_certified_optimal
    assert report.lifted_error >= report.e0


@pytest.mark.parametrize("ambient_dim", [136, 137, 150])
def test_derived_r_at_or_past_n_sketches_by_the_identity(ambient_dim):
    """Auto mode derives r = 137 here: below N = 150 the sketch is drawn as
    before; at N = 137 and N = 136 it is the N x N identity, and the row's
    r reads N."""
    rng = np.random.default_rng(8)
    data = normalize_dataset(DataSet(rng.normal(size=(ambient_dim, 2))))
    reduction = ReductionConfig(eta=0.99, delta=0.99)
    cfg = SolverConfig(seed=4)
    derived = min_reduced_dim(0.99, 0.99, 1, data.numerical_rank, 1, data.count)
    assert derived == 137
    report = run_trial(data, 1, 1, reduction, cfg, sketch_seed=6)
    r = min(derived, ambient_dim)
    spec = RandomSpec("gaussian", r, ambient_dim, seed=6)
    matrix = np.eye(ambient_dim) if derived >= ambient_dim else None
    expected = reduce_solve_lift(data, spec, 1, 1, cfg, epsilon=report.epsilon,
                                 e0=report.e0, matrix=matrix)
    assert report.r == r
    assert report.reduced_error == expected.reduced_error
    assert report.lifted_error == expected.lifted_error
    if matrix is not None:  # the identity loses nothing
        assert report.reduced_error == report.lifted_error == report.e0


def test_hard_invariant_failure_sets_exit_code(monkeypatch):
    import unionfit.experiment as exp

    real = exp.reduce_solve_lift

    def corrupted(*args, **kwargs):
        report = real(*args, **kwargs)
        object.__setattr__(report, "lifted_error", report.lifted_error + 1.0)
        return report

    monkeypatch.setattr(exp, "reduce_solve_lift", corrupted)
    result = run_experiment(small_config(trials=1))
    assert result.exit_code == 1
    assert result.summary["violations"]["hard"] == 1
    assert "inconsistent lifted error" in result.summary["violations"]["hard_detail"][0]


@pytest.mark.parametrize("output", ["rows_path", "summary_path"])
def test_output_in_a_missing_directory_is_refused_before_any_trial(
    tmp_path, monkeypatch, output
):
    import unionfit.experiment as exp

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(exp, "run_trial", no_trial)
    cfg = replace(small_config(trials=2), **{output: tmp_path / "missing" / "out"})
    with pytest.raises(InvalidSpec, match="missing does not exist"):
        run_experiment(cfg)


@pytest.mark.parametrize("excess, failed", [(0.0, False), (1e-6, True)])
def test_lifted_error_above_the_data_norm_is_a_hard_failure(monkeypatch, excess,
                                                            failed):
    """0 lies in every subspace, so no bundle errs by more than ||F||_F^2.
    A lifted error past it, that its recomputation agrees with, is the only
    hard failure; one at ||F||_F^2 is none."""
    import unionfit.experiment as exp

    real = exp.reduce_solve_lift
    inflated = {}

    def past_the_norm(data, *args, **kwargs):
        report = real(data, *args, **kwargs)
        inflated["error"] = data.frobenius_norm**2 + excess
        object.__setattr__(report, "lifted_error", inflated["error"])
        return report

    monkeypatch.setattr(exp, "reduce_solve_lift", past_the_norm)
    monkeypatch.setattr(exp, "bundle_error", lambda data, bundle: inflated["error"])
    result = run_experiment(small_config(trials=1))
    assert result.exit_code == int(failed)
    assert result.summary["violations"]["hard_detail"] == (
        ["trial 0: lifted error above ||F||_F^2"] if failed else [])


@pytest.mark.parametrize("reduction, oracle_runs", [
    (ReductionConfig(r=3, epsilon=0.5), 2),
    (ReductionConfig(eta=0.9, delta=0.5), 1),
], ids=["fixed-r", "identity-sketch"])
@pytest.mark.parametrize("below", [0, 1], ids=["l^m", "l^m-1"])
def test_oracle_budget_decides_both_solves(monkeypatch, reduction, oracle_runs,
                                           below):
    """SolverConfig.certify is the one rule: with a budget of l^m the oracle
    certifies e0 and the reduced solve, once each with a fixed r and once in
    all for the identity sketch, which reuses the full-space report; one
    labeling short of l^m, neither is certified and the oracle never runs."""
    import unionfit.pipeline as pipe

    real = pipe.brute_force_oracle
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[0].ambient_dim)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipe, "brute_force_oracle", counted)
    data = normalize_dataset(DataSet(np.random.default_rng(12).normal(size=(6, 8))))
    cfg = SolverConfig(restarts=4, seed=3, oracle_budget=2**8 - below)
    report = run_trial(data, 2, 1, reduction, cfg, sketch_seed=5)
    assert report.r == (reduction.r or data.ambient_dim)
    if below:
        assert report.e0 is None and not report.reduced_certified_optimal
        assert runs == []
    else:
        assert report.e0 is not None and report.reduced_certified_optimal
        assert len(runs) == oracle_runs
    if reduction.r is None:
        assert report.reduced_error == report.lifted_error
        assert report.e0 in (None, report.reduced_error)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(InvalidSpec):
        load_config(path)


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(7, 0, 1)
    assert a == derive_seed(7, 0, 1)
    assert a != derive_seed(7, 0, 2)
    assert a != derive_seed(8, 0, 1)
    assert 0 <= a < 2**64


def test_csv_cells_format():
    rows = [
        {
            "trial": 0,
            "r": 3,
            "epsilon": 0.5,
            "e0": None,
            "reduced_error": 0.125,
            "lifted_error": 1e-17,
            "bound_value": None,
            "bound_satisfied": None,
        }
    ]
    text = rows_to_csv_text(rows)
    header, line = text.strip().splitlines()
    assert header == "trial,r,epsilon,e0,reduced_error,lifted_error,bound_value,bound_satisfied"
    assert line == "0,3,0.5,,0.125,1e-17,,"
