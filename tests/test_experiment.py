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
    ReductionConfig,
    SolverConfig,
    config_from_dict,
    load_config,
    load_dataset,
    normalize_dataset,
    run_experiment,
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
    assert result.summary["totals"] == {"trials": 0, "bound_checked": 0}
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
    assert row["r"] >= 1
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
