import json
import subprocess
import sys

import numpy as np
import pytest

from unionfit import Bundle, Partition, Subspace, bundle_error, load_dataset
from unionfit.cli import main
from unionfit.pipeline import min_reduced_dim, theorem_bound
from unionfit.projection import c0


def run_cli(*args):
    return main([str(a) for a in args])


def generate_dataset(tmp_path, noise="0.0", points=8, seed=7):
    out = tmp_path / "data.csv"
    code = run_cli(
        "generate",
        "--ambient-dim", 6,
        "--subspaces", 2,
        "--max-dim", 1,
        "--points", points,
        "--noise-sigma", noise,
        "--seed", seed,
        "--out", out,
    )
    assert code == 0
    return out


def test_generate_writes_dataset_and_truth(tmp_path, capsys):
    out = generate_dataset(tmp_path)
    truth_path = tmp_path / "data.csv.truth.json"
    assert out.exists() and truth_path.exists()
    data = load_dataset(out)
    assert data.count == 8 and data.ambient_dim == 6
    truth = json.loads(truth_path.read_text())
    bundle = Bundle(
        tuple(Subspace(np.array(b)) for b in truth["bases"]),
        cap_dim=truth["cap_dim"],
    )
    labels = np.empty(truth["count"], dtype=int)
    for g, group in enumerate(truth["groups"]):
        labels[group] = g
    partition = Partition(labels, len(truth["groups"]))
    assert partition.count == 8
    assert partition.groups == tuple(tuple(g) for g in truth["groups"])
    assert bundle_error(data, bundle) <= 1e-10  # noiseless ground truth fits


def test_solve_command(tmp_path, capsys):
    out = generate_dataset(tmp_path)
    report_path = tmp_path / "report.json"
    code = run_cli(
        "solve", "--data", out, "--subspaces", 2, "--max-dim", 1,
        "--restarts", 10, "--seed", 3, "--out", report_path,
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["error"] <= 1e-10
    assert report["certified_optimal"] is False
    assert len(report["groups"]) == 2


def test_oracle_command_and_budget_exit_code(tmp_path):
    out = generate_dataset(tmp_path)
    report_path = tmp_path / "oracle.json"
    assert run_cli(
        "oracle", "--data", out, "--subspaces", 2, "--max-dim", 1,
        "--out", report_path,
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["certified_optimal"] is True
    assert report["error"] <= 1e-10
    # exit code 3 when the enumeration budget is too small
    assert run_cli(
        "oracle", "--data", out, "--subspaces", 2, "--max-dim", 1,
        "--budget", 4,
    ) == 3


def test_reduce_solve_command(tmp_path):
    out = generate_dataset(tmp_path, noise="0.05")
    report_path = tmp_path / "lift.json"
    code = run_cli(
        "reduce-solve", "--data", out, "--subspaces", 2, "--max-dim", 1,
        "--dist", "gaussian", "--r", 3, "--epsilon", "0.5",
        "--seed", 11, "--out", report_path,
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["r"] == 3
    assert report["reduced_certified_optimal"] is True
    assert report["bound_satisfied"] is True
    assert report["lifted_error"] >= report["e0"] - 1e-9


def test_reduce_solve_eta_mode(tmp_path):
    out = generate_dataset(tmp_path, points=5)
    report_path = tmp_path / "lift.json"
    code = run_cli(
        "reduce-solve", "--data", out, "--subspaces", 2, "--max-dim", 1,
        "--eta", "0.9", "--delta", "0.5", "--seed", 2, "--out", report_path,
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["r"] >= 1
    assert 0 < report["epsilon"] < 1


def test_reduce_solve_rejects_conflicting_sketch_flags(tmp_path):
    out = generate_dataset(tmp_path, points=5)
    common = ("reduce-solve", "--data", out, "--subspaces", 2, "--max-dim", 1)
    # a fixed r together with (eta, delta) is ambiguous
    assert run_cli(*common, "--r", 3, "--eta", "0.5", "--delta", "0.1") == 2
    assert run_cli(*common, "--r", 3, "--epsilon", "1.5") == 2
    assert run_cli(*common, "--eta", "0.5") == 2


def test_bounds_command(tmp_path):
    out = tmp_path / "bounds.json"
    code = run_cli(
        "bounds", "--epsilon", "0.5", "--e0", "0.25", "--eta", "0.5",
        "--delta", "0.1", "--subspaces", 2, "--rank", 3, "--max-dim", 1,
        "--points", 20, "--out", out,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["c0"] == pytest.approx(c0(0.5), rel=1e-15)
    assert payload["theorem_bound"] == pytest.approx(
        theorem_bound(0.25, 0.5, 2, 3, 1), rel=1e-15
    )
    assert payload["min_reduced_dim"] == min_reduced_dim(0.5, 0.1, 2, 3, 1, 20)
    assert payload["eta_epsilon"] == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_bounds_command_needs_parameters(capsys):
    assert run_cli("bounds") == 2


def test_check_concentration_command(tmp_path):
    out = tmp_path / "conc.json"
    code = run_cli(
        "check-concentration", "--dist", "bernoulli", "--r", 300,
        "--ambient-dim", 10, "--epsilon", "0.5", "--trials", 40,
        "--vectors", 5, "--seed", 3, "--out", out,
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pairs"] == 200
    assert report["failures"] == 0
    assert report["empirical_rate"] == 0.0


def test_experiment_command(tmp_path):
    cfg = {
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
        "solver": {"restarts": 8, "oracle_budget": 10000},
        "trials": 2,
        "master_seed": 12,
        "output": {
            "rows": str(tmp_path / "rows.csv"),
            "summary": str(tmp_path / "summary.json"),
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("experiment", "--config", cfg_path) == 0
    assert (tmp_path / "rows.csv").exists()
    assert (tmp_path / "summary.json").exists()


def test_experiment_command_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 1}))
    assert run_cli("experiment", "--config", cfg_path) == 2
    assert run_cli("experiment", "--config", tmp_path / "missing.json") == 2
    synthetic = {"synthetic": {"ambient_dim": 8, "n_subspaces": 2, "max_dim": 1,
                               "n_points": 6}}
    for bad in (
        {"dataset": {"file": {"header": True}}, "model": {"n_subspaces": 2,
                                                          "max_dim": 1}},
        {"dataset": synthetic, "model": [1]},
        {"dataset": synthetic, "output": "x"},
        # a bad epsilon is reported even when no trial would run
        {"dataset": synthetic, "reduction": {"r": 3, "epsilon": 1.5}, "trials": 0},
    ):
        cfg_path.write_text(json.dumps(bad))
        assert run_cli("experiment", "--config", cfg_path) == 2


def test_invalid_dataset_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nnot,a,number\n")
    assert run_cli("solve", "--data", bad, "--subspaces", 2, "--max-dim", 1) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "unionfit.cli", "bounds", "--epsilon", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["c0"] == pytest.approx(1 / 24, abs=1e-12)
