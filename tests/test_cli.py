import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from unionfit import (
    Bundle,
    DataSet,
    Partition,
    SolverConfig,
    Subspace,
    bundle_error,
    load_dataset,
    save_dataset,
)
from unionfit.cli import build_parser, main
import unionfit.experiment
import unionfit.pipeline
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
    # 2^8 labelings fit the oracle budget, but solve runs the restarts
    assert report["certified_optimal"] is False
    assert report["restarts_used"] == 10
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


@pytest.mark.parametrize("n_subspaces", [2, 4])
def test_an_oracle_far_past_its_budget_exits_3_with_one_short_line(
    tmp_path, capsys, n_subspaces
):
    """l^m is named, not written out: 4^8000 has more digits than Python
    converts to a string, and 2^8000 has 2,409."""
    data = tmp_path / "long.csv"
    save_dataset(DataSet(np.random.default_rng(3).normal(size=(3, 8000))), data)
    assert run_cli("oracle", "--data", data, "-l", n_subspaces, "-k", 1) == 3
    err = capsys.readouterr().err
    budget = SolverConfig().oracle_budget
    assert err == (f"error: enumeration needs {n_subspaces}^8000 assignments, "
                   f"budget is {budget}\n")
    assert len(err) < 200


def test_reduce_solve_refuses_a_sketch_too_small_for_k_before_any_oracle(
    tmp_path, capsys, monkeypatch
):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(unionfit.pipeline, "brute_force_oracle", oracle)
    data = tmp_path / "data.csv"
    assert run_cli("generate", "--ambient-dim", 50, "-m", 18, "-l", 2, "-k", 3,
                   "--out", data) == 0
    capsys.readouterr()
    assert_refused(capsys, 2, "need 0 <= max_dim < N, got 3 for N=3",
                   "reduce-solve", "--data", data, "--r", 3, "-l", 2, "-k", 3)


@pytest.mark.parametrize("argv", [
    ("oracle", "--data", "DATA", "-l", 2, "-k", 1, "--budget", 2**63),
    ("reduce-solve", "--data", "DATA", "-l", 2, "-k", 1, "--r", 3,
     "--oracle-budget", 2**63),
], ids=["oracle", "reduce-solve"])
def test_budget_past_int64_exits_2(tmp_path, capsys, argv):
    data = str(generate_dataset(tmp_path))
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = [data if a == "DATA" else a for a in argv]
    assert run_cli(*argv, "--out", out) == 2
    assert "budget must be at most 2^63 - 1" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(*argv[:-1], 2**63 - 1, "--out", out) == 0


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
    # 0.5 * sqrt(2 (d - 1)) >= 1 on noisy 6-dim data: a vacuous bound
    assert report["bound_value"] >= 1.0 and report["bound_informative"] is False
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
    assert report["r"] == 6  # the derived r is past N = 6: the identity sketch
    assert 0 < report["epsilon"] < 1


@pytest.mark.parametrize("mode", [("--r", 3, "--epsilon", 0.5),
                                  ("--eta", 0.5, "--delta", 0.1)],
                         ids=["fixed-r", "eta-delta"])
def test_a_trial_on_data_of_rank_below_k_checks_its_bound_at_d_equal_k(
    tmp_path, capsys, mode
):
    """Eight points of rank 1 in R^5 with l = k = 2: every group fits
    exactly, so a trial takes d = k, where the bound's sqrt(l (d - k))
    term is 0, and e0 is 0 up to rounding.  ``unionfit bounds``, whose d
    is an input, still refuses d < k."""
    rng = np.random.default_rng(0)
    data = tmp_path / "rank1.csv"
    save_dataset(DataSet(np.outer(rng.normal(size=5), rng.normal(size=8))), data)
    assert run_cli("reduce-solve", "--data", data, "-l", 2, "-k", 2, *mode) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["e0"] < 1e-30 and report["lifted_error"] < 1e-30
    assert report["bound_value"] == (1 + report["epsilon"]) * report["e0"]
    assert report["bound_satisfied"] is True
    assert run_cli("bounds", "--e0", 0.1, "--epsilon", 0.5, "-l", 2, "-d", 1,
                   "-k", 2) == 2
    assert capsys.readouterr().err == "error: rank d=1 must be at least k=2\n"


def test_readme_small_recipe_solves_the_identity_sketch_once(tmp_path, capsys):
    """README's small.csv with (eta, delta) derives r past N = 10: the
    reduced problem is the full one, so it is solved once and its error is
    e0 exactly."""
    data = tmp_path / "small.csv"
    assert run_cli("generate", "--ambient-dim", 10, "-l", 2, "-k", 1, "-m", 12,
                   "--seed", 7, "--out", data) == 0
    capsys.readouterr()
    assert run_cli("reduce-solve", "--data", data, "-l", 2, "-k", 1,
                   "--eta", "0.5", "--delta", "0.1") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["r"] == 10
    assert report["reduced_error"] == report["e0"]
    assert report["reduced_certified_optimal"] is True


def test_out_of_memory_exits_2_without_a_traceback(tmp_path, capsys, monkeypatch):
    """A sketch too large to allocate is bad input: numpy's MemoryError is
    reported in one line.  The allocation is simulated, never made."""
    out = generate_dataset(tmp_path, points=5)
    capsys.readouterr()

    def unallocatable(spec, stream=0):
        raise MemoryError("Unable to allocate 43.7 TiB for an array")

    monkeypatch.setattr(unionfit.pipeline, "sample_matrix", unallocatable)
    assert run_cli("reduce-solve", "--data", out, "-l", 2, "-k", 1,
                   "--r", 3) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: Unable to allocate 43.7 TiB for an array\n"
    assert captured.out == ""


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


def bounds_payload(capsys, *argv):
    capsys.readouterr()
    assert run_cli("bounds", *argv) == 0
    return strict_json(capsys.readouterr().out)


def test_bounds_prints_the_break_even_epsilon(capsys):
    """Below eps* = (1 - e0) / (e0 + sqrt(l (d-k))) the bound is under
    ||F||_F^2 = 1; at eps* it equals 1.  No --epsilon is needed."""
    payload = bounds_payload(capsys, "--e0", "0.2", "-l", 2, "-d", 3, "-k", 1)
    assert payload == {"break_even_epsilon": pytest.approx(0.8 / 2.2, rel=1e-15)}
    eps = payload["break_even_epsilon"]
    assert theorem_bound(0.2, eps, 2, 3, 1) == pytest.approx(1.0, rel=1e-12)
    assert theorem_bound(0.2, 0.99 * eps, 2, 3, 1) < 1.0


def test_bounds_break_even_is_null_when_no_epsilon_is_informative(capsys):
    for e0 in ("1", "1.5"):
        payload = bounds_payload(capsys, "--e0", e0, "-l", 2, "-d", 3, "-k", 1)
        assert payload == {"break_even_epsilon": None}


def test_bounds_break_even_is_the_largest_float_when_every_epsilon_is(capsys):
    """With d = k the bound is (1 + eps) e0: 0 for e0 = 0, and a ratio past
    the float range for a subnormal e0; JSON has no Infinity."""
    for e0 in ("0", "5e-324"):
        payload = bounds_payload(capsys, "--e0", e0, "-l", 2, "-d", 1, "-k", 1)
        assert payload == {"break_even_epsilon": sys.float_info.max}


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


@pytest.mark.parametrize("bad", [
    {"trials": [1]},
    {"trials": 1.5},
    {"master_seed": [3]},
    {"master_seed": 1.5},
    {"model": {"n_subspaces": [2], "max_dim": 1}},
    {"model": {"n_subspaces": 2, "max_dim": "1"}},
    {"reduction": {"r": 2.5}},
    {"reduction": {"r": True}},
    {"solver": {"restarts": "x"}},
    {"solver": {"restarts": 0, "oracle_budget": 1}},
    {"solver": {"max_iter": True}},
    {"solver": {"seed": 0.5}},
    {"solver": {"tol": -1e-3}},
    {"solver": {"stop_below": "inf"}},
], ids=repr)
def test_experiment_rejects_bad_numbers_before_any_trial(tmp_path, capsys, bad):
    # Every config here runs its first trial through the e0 oracle
    # (2^6 labelings) unless rejected first.
    rows = tmp_path / "rows.csv"
    cfg = {
        "dataset": {"synthetic": {"ambient_dim": 8, "n_subspaces": 2,
                                  "max_dim": 1, "n_points": 6}},
        "reduction": {"r": 3},
        "trials": 1,
        "output": {"rows": str(rows)},
        **bad,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("experiment", "--config", cfg_path) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not rows.exists()


def test_experiment_non_integer_trials_exits_2_without_traceback(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"synthetic": {"ambient_dim": 8, "n_subspaces": 2,
                                  "max_dim": 1, "n_points": 6}},
        "reduction": {"r": 3},
        "trials": [1],
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "unionfit.cli", "experiment", "--config",
         str(cfg_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "trials must be an integer" in proc.stderr


def test_invalid_dataset_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nnot,a,number\n")
    assert run_cli("solve", "--data", bad, "--subspaces", 2, "--max-dim", 1) == 2


def assert_refused(capsys, code, message, *argv):
    """The CLI exits ``code`` with one ``error:`` line that names
    ``message``, and no traceback."""
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err and "Traceback" not in err


def test_dataset_files_skip_their_header_row_and_blank_lines(tmp_path, capsys):
    """``--header`` skips a real header row, and blank lines are skipped
    anywhere: the solve equals the one of the plain file."""
    plain = generate_dataset(tmp_path, noise="0.05")
    capsys.readouterr()
    rows = plain.read_text().splitlines()
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("x0,x1,x2,x3,x4,x5\n\n" + "\n\n".join(rows) + "\n\n")
    solves = []
    for data, flags in ((plain, ()), (spaced, ("--header",))):
        assert run_cli("solve", "--data", data, "-l", 2, "-k", 1, *flags) == 0
        solves.append(capsys.readouterr().out)
    assert solves[0] == solves[1]


@pytest.mark.parametrize("text, flags, message", [
    ("", (), "no data rows"),
    ("\n\n", (), "no data rows"),
    ("x0,x1\n", ("--header",), "no data rows"),
    ("1.0,2.0\n3.0\n", (), "rows have inconsistent column counts"),
], ids=["empty", "blank", "header-only", "ragged"])
def test_dataset_files_without_rows_or_with_ragged_rows_exit_2(
    tmp_path, capsys, text, flags, message
):
    data = tmp_path / "bad.csv"
    data.write_text(text)
    assert_refused(capsys, 2, message, "solve", "--data", data, "-l", 2, "-k", 1,
                   *flags)


@pytest.mark.parametrize("config, message", [
    ([], "config must be a JSON object"),
    ({"dataset": {"url": "x.csv"}}, "unknown dataset source ['url']"),
    ({"reduction": {"r": 3, "rr": 4}}, "bad reduction/solver section"),
    ({"solver": {"restarts": 2, "restart": 4}}, "bad reduction/solver section"),
], ids=["not-an-object", "unknown-source", "reduction-key", "solver-key"])
def test_configs_that_config_from_dict_refuses_exit_2(
    tmp_path, capsys, config, message
):
    path = _experiment_config(tmp_path)
    if isinstance(config, dict):
        config = {**json.loads(path.read_text()), **config}
    path.write_text(json.dumps(config))
    assert_refused(capsys, 2, message, "experiment", "--config", path)
    assert not (tmp_path / "rows.csv").exists()


def corrupt_lifts(monkeypatch, **fields):
    """Every lift of an experiment reports ``fields`` in place of its own;
    a callable value maps the report to the field's value."""
    real = unionfit.experiment.reduce_solve_lift

    def corrupted(*args, **kwargs):
        report = real(*args, **kwargs)
        for name, value in fields.items():
            value = value(report) if callable(value) else value
            object.__setattr__(report, name, value)
        return report

    monkeypatch.setattr(unionfit.experiment, "reduce_solve_lift", corrupted)


@pytest.mark.parametrize("fields, detail", [
    ({"reduced_error": math.nan}, "non-finite error"),
    ({"e0": lambda report: report.lifted_error + 1.0},
     "lifted error below the optimum"),
], ids=["non-finite", "below-e0"])
def test_experiment_hard_failures_exit_1(tmp_path, capsys, monkeypatch, fields,
                                         detail):
    corrupt_lifts(monkeypatch, **fields)
    summary = tmp_path / "summary.json"
    config = _experiment_config(
        tmp_path, reduction={"r": 3, "epsilon": 0.5}, trials=2,
        output={"rows": str(tmp_path / "rows.csv"), "summary": str(summary)})
    assert run_cli("experiment", "--config", config) == 1
    assert "hard failures 2" in capsys.readouterr().out
    violations = json.loads(summary.read_text())["violations"]
    assert violations["hard_detail"] == [f"trial {t}: {detail}" for t in (0, 1)]


def test_experiment_counts_bound_violations_and_exits_0(tmp_path, capsys,
                                                        monkeypatch):
    """A violated probabilistic bound is counted, never a hard failure."""
    corrupt_lifts(monkeypatch, bound_satisfied=False)
    config = _experiment_config(tmp_path, reduction={"r": 3, "epsilon": 0.5},
                                trials=2)
    assert run_cli("experiment", "--config", config) == 0
    out = capsys.readouterr().out
    assert "bound checked on 2" in out and "bound violations 2" in out
    assert "hard failures 0" in out


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_data_whose_squared_norm_overflows_exits_2(tmp_path, command):
    """Every model error of 1e200 entries overflows: the solvers refuse the
    data with one line that names --normalize, and no warning or
    traceback (warnings are errors in the child process)."""
    data = tmp_path / "huge.csv"
    data.write_text("1e200,1e200\n" * 3)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "unionfit.cli", command,
         "--data", str(data), "-l", "2", "-k", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: the squared Frobenius norm")
    assert "--normalize" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_oracle_normalizes_data_whose_squared_norm_overflows(tmp_path, capsys):
    """Points scaled by 2^530 have a finite ||F||_F though ||F||_F^2
    overflows; --normalize rescales them to the bits of the unscaled
    points, so the oracle prints the same JSON."""
    plain = generate_dataset(tmp_path, noise="0.05")
    scaled = tmp_path / "scaled.csv"
    save_dataset(DataSet(np.ldexp(load_dataset(plain).points, 530)), scaled)
    outputs = []
    for path in (plain, scaled):
        capsys.readouterr()
        assert run_cli("oracle", "--data", path, "-l", 2, "-k", 1,
                       "--normalize") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["certified_optimal"] is True


@pytest.mark.parametrize("command", [
    ("oracle", "-l", 2, "-k", 1, "--normalize"),
    ("reduce-solve", "-l", 2, "-k", 1, "--r", 4, "--epsilon", "0.5", "--seed", 3),
], ids=lambda command: command[0])
def test_data_whose_squares_underflow_runs_as_its_unscaled_twin(tmp_path, capsys,
                                                                command):
    """Points scaled by 2^-565 have squares below the float range, yet a
    finite, exact ||F||_F: normalizing them gives the bits of the unscaled
    points, so both commands print the unscaled file's JSON."""
    plain = generate_dataset(tmp_path, noise="0.05")
    scaled = tmp_path / "scaled.csv"
    save_dataset(DataSet(np.ldexp(load_dataset(plain).points, -565)), scaled)
    outputs = []
    for path in (plain, scaled):
        capsys.readouterr()
        assert run_cli(command[0], "--data", path, *command[1:]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["oracle", "solve"])
@pytest.mark.parametrize("shift", [560, 520])
def test_data_whose_squared_norm_underflows_exits_2(tmp_path, capsys, command,
                                                    shift):
    """4 x 8 points scaled by 2^-560 (||F||_F^2 is 0.0 as a float) or
    2^-520 (subnormal): both commands refuse them with exit 2 and one line
    that names --normalize, and with --normalize they print the unscaled
    file's JSON."""
    points = np.random.default_rng(0).normal(size=(4, 8))
    plain, scaled = tmp_path / "plain.csv", tmp_path / "scaled.csv"
    save_dataset(DataSet(points), plain)
    save_dataset(DataSet(np.ldexp(points, -shift)), scaled)
    args = ("--data", scaled, "-l", 2, "-k", 1)
    capsys.readouterr()
    assert run_cli(command, *args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the squared Frobenius norm")
    assert "below the normal float range" in captured.err
    assert "--normalize" in captured.err and captured.err.count("\n") == 1
    outputs = []
    for path in (plain, scaled):
        assert run_cli(command, "--data", path, "-l", 2, "-k", 1, "--normalize") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["error"] > 0.0


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "unionfit.cli", "bounds", "--epsilon", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["c0"] == pytest.approx(1 / 24, abs=1e-12)


SUBCOMMAND_DESTS = {
    "generate": {"seed", "out", "subspaces", "max_dim", "ambient_dim", "points",
                 "noise_sigma", "balance", "truth"},
    "solve": {"seed", "out", "data", "header", "subspaces", "max_dim", "restarts",
              "max_iter", "tol", "normalize"},
    "oracle": {"out", "data", "header", "subspaces", "max_dim", "budget",
               "normalize"},
    "reduce-solve": {"seed", "out", "data", "header", "subspaces", "max_dim",
                     "restarts", "max_iter", "tol", "dist", "r", "eta", "delta",
                     "epsilon", "oracle_budget"},
    "bounds": {"out", "epsilon", "e0", "eta", "delta", "subspaces", "rank",
               "max_dim", "points"},
    "experiment": {"config", "rows", "summary"},
    "check-concentration": {"seed", "out", "dist", "r", "ambient_dim", "epsilon",
                            "trials", "vectors"},
}


def test_each_subcommand_accepts_exactly_the_options_it_reads():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(SUBCOMMAND_DESTS)
    for name, sub in subparsers.choices.items():
        dests = {a.dest for a in sub._actions} - {"help"}
        assert dests == SUBCOMMAND_DESTS[name], name


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """Every ``unionfit`` command in README's ``sh`` blocks, without the
    program name, continuation lines joined and comments dropped."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("unionfit "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    """A flag removed or renamed in the parser must fail here, not rot in
    the README.  Parsing only: nothing runs."""
    commands = readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: unionfit {shlex.join(argv)}")


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Every README command runs, in README order, in an empty directory
    holding the README's experiment config, and exits 0."""
    (config,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.json").write_text(config)
    for argv in readme_commands():
        assert main(argv) == 0, f"unionfit {shlex.join(argv)}"
    capsys.readouterr()
    assert (tmp_path / "rows.csv").exists() and (tmp_path / "summary.json").exists()


def test_solver_flag_defaults_come_from_solver_config():
    parse = build_parser().parse_args
    args = parse(["solve", "--data", "x.csv", "-l", "2", "-k", "1"])
    defaults = SolverConfig()
    assert (args.restarts, args.max_iter, args.tol) == (
        defaults.restarts, defaults.max_iter, defaults.tol)
    args = parse(["reduce-solve", "--data", "x.csv", "-l", "2", "-k", "1"])
    assert (args.restarts, args.max_iter, args.tol, args.oracle_budget) == (
        defaults.restarts, defaults.max_iter, defaults.tol, defaults.oracle_budget)


def _experiment_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"synthetic": {"ambient_dim": 8, "n_subspaces": 2,
                                  "max_dim": 1, "n_points": 6}},
        "reduction": {"r": 3},
        "trials": 1,
        "output": {"rows": str(tmp_path / "rows.csv")},
        **overrides,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("argv", [
    ("generate", "--ambient-dim", 6, "-l", 2, "-k", 1, "-m", 8, "--tol", "1e-3"),
    ("oracle", "--data", "DATA", "-l", 2, "-k", 1, "--seed", 1),
    ("oracle", "--data", "DATA", "-l", 2, "-k", 1, "--tol", "1e-3"),
    ("bounds", "--epsilon", "0.5", "--seed", 1),
    ("bounds", "--epsilon", "0.5", "--tol", "1e-3"),
    ("experiment", "--config", "CONFIG", "--seed", 5),
    ("experiment", "--config", "CONFIG", "--out", "OUT"),
    ("experiment", "--config", "CONFIG", "--tol", "1e-3"),
    ("check-concentration", "--r", 4, "--ambient-dim", 6, "--epsilon", "0.5",
     "--trials", 2, "--tol", "1e-3"),
    # generate without --out fails in argparse, before any draw
    ("generate", "--ambient-dim", 6, "-l", 2, "-k", 1, "-m", 8),
], ids=lambda argv: " ".join(map(str, argv)))
def test_unread_flags_are_rejected(tmp_path, capsys, argv):
    data = generate_dataset(tmp_path)
    config = _experiment_config(tmp_path)
    names = {"DATA": data, "CONFIG": config, "OUT": tmp_path / "out.json"}
    before = set(tmp_path.iterdir())
    with pytest.raises(SystemExit) as info:
        run_cli(*(names.get(a, a) for a in argv))
    assert info.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_solve_rejects_a_bad_tolerance_like_reduce_solve(tmp_path, capsys, tol):
    data = generate_dataset(tmp_path)
    out = tmp_path / "report.json"
    for command in ("solve", "reduce-solve"):
        extra = ("--r", 3) if command == "reduce-solve" else ()
        assert run_cli(command, "--data", data, "-l", 2, "-k", 1, "--tol", tol,
                       "--out", out, *extra) == 2
        assert "tol must be a finite number" in capsys.readouterr().err
        assert not out.exists()


def test_reduce_solve_rejects_epsilon_in_eta_mode(tmp_path, capsys):
    data = generate_dataset(tmp_path, points=5)
    out = tmp_path / "lift.json"
    assert run_cli("reduce-solve", "--data", data, "-l", 2, "-k", 1,
                   "--eta", "0.9", "--delta", "0.5", "--epsilon", "0.3",
                   "--out", out) == 2
    assert "epsilon is derived from eta" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_rejects_a_non_finite_optimum(capsys):
    assert run_cli("bounds", "--epsilon", "0.5", "--e0", "nan", "-l", 2, "-d", 3,
                   "-k", 1) == 2
    assert "e0 must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (("bounds", "--eta", "1e-300", "--delta", "0.5", "-l", 2, "-d", 5, "-k", 1,
      "-m", 10), "min_reduced_dim"),
    (("bounds", "--epsilon", "0.9", "--e0", "1.7e308", "-l", 2, "-d", 5, "-k", 1),
     "theorem_bound"),
    (("reduce-solve", "--data", "DATA", "-l", 2, "-k", 1, "--eta", "1e-160",
      "--delta", "0.5"), "min_reduced_dim"),
], ids=["bounds-eta", "bounds-e0", "reduce-solve-eta"])
def test_results_past_the_float_range_exit_2(tmp_path, capsys, argv, name):
    data = str(generate_dataset(tmp_path, points=5))
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = [data if a == "DATA" else a for a in argv]
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err == f"error: {name} must be a finite number, got inf\n"
    assert not out.exists()


def test_experiment_with_an_eta_past_the_float_range_exits_2(tmp_path, capsys):
    config = _experiment_config(tmp_path, reduction={"eta": 1e-300, "delta": 0.5})
    assert run_cli("experiment", "--config", config) == 2
    err = capsys.readouterr().err
    assert err == "error: min_reduced_dim must be a finite number, got inf\n"
    assert not (tmp_path / "rows.csv").exists()


SYNTHETIC = {"ambient_dim": 8, "n_subspaces": 2, "max_dim": 1, "n_points": 6}


@pytest.mark.parametrize("bad", [
    {"dataset": {"synthetic": {**SYNTHETIC, "n_points": 6.5}}},
    {"dataset": {"synthetic": {**SYNTHETIC, "n_points": 8, "balance": [4.9, 4.9]}}},
    {"solver": {"seed": 5}},
    {"solver": {"oracle_budget": 2**63}},
    {"reduction": {"eta": 0.9, "delta": 0.5, "epsilon": 0.3}},
    {"reduction": {"r": 3, "seed": 1}},
    {"model": {"n_subspaces": 2, "max_dim": 1, "n_subspace": 3}},
    {"output": {"row": "rows.csv"}},
    {"output": {"rows": 5}},
    # model dimensions the solver would reject in trial 0
    {"dataset": {"synthetic": {**SYNTHETIC, "n_subspaces": 6}}, "trials": 0},
    {"model": {"n_subspaces": 6, "max_dim": 1}, "trials": 0},
    {"model": {"n_subspaces": 2, "max_dim": 8}, "trials": 0},
    # the sketch has dimension r = 3, so it cannot hold a 3-dim subspace
    {"model": {"n_subspaces": 2, "max_dim": 3}, "trials": 0},
], ids=repr)
def test_experiment_rejects_settings_before_any_trial(tmp_path, capsys, bad):
    config = _experiment_config(tmp_path, **bad)
    assert run_cli("experiment", "--config", config) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("flag", ["--rows", "--summary"])
def test_experiment_output_in_a_missing_directory_exits_2_before_any_trial(
    tmp_path, capsys, monkeypatch, flag
):
    """An output path given by the config or by the CLI's override, in a
    directory that does not exist, is a config error: exit 2 before the
    first trial, and nothing is written."""
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(unionfit.experiment, "run_trial", no_trial)
    missing = tmp_path / "missing" / "out"
    config = _experiment_config(tmp_path, output={"rows": str(missing)})
    assert run_cli("experiment", "--config", config) == 2
    config = _experiment_config(tmp_path)
    assert run_cli("experiment", "--config", config, flag, missing) == 2
    err = capsys.readouterr().err
    assert "does not exist" in err and "Traceback" not in err
    assert not (tmp_path / "rows.csv").exists()
    assert not missing.parent.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("work began before the output path was checked")


@pytest.mark.parametrize("argv", [
    ("solve", "--data", "DATA", "-l", 2, "-k", 1, "--out", "MISSING"),
    ("solve", "--data", "DATA", "-l", 2, "-k", 1, "--out", "DIR"),
    ("oracle", "--data", "DATA", "-l", 2, "-k", 1, "--out", "MISSING"),
    ("oracle", "--data", "DATA", "-l", 2, "-k", 1, "--out", "DIR"),
    ("reduce-solve", "--data", "DATA", "-l", 2, "-k", 1, "--r", 3, "--out", "DIR"),
    ("bounds", "--epsilon", "0.5", "--out", "DIR"),
    ("check-concentration", "--r", 4, "--ambient-dim", 6, "--epsilon", "0.5",
     "--trials", 2, "--out", "MISSING"),
    ("generate", "--ambient-dim", 6, "-l", 2, "-k", 1, "-m", 8, "--out", "DIR"),
    ("generate", "--ambient-dim", 6, "-l", 2, "-k", 1, "-m", 8, "--out", "NEW",
     "--truth", "MISSING"),
    ("experiment", "--config", "CONFIG", "--summary", "DIR"),
    ("experiment", "--config", "CONFIG", "--rows", "DIR"),
], ids=lambda argv: " ".join(map(str, argv)))
def test_a_bad_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                   argv):
    """An output path whose directory is missing, or that is a directory,
    exits 2 with one error line before any data is loaded, drawn or
    solved, and nothing is written."""
    paths = {"DATA": generate_dataset(tmp_path), "CONFIG": _experiment_config(tmp_path),
             "DIR": tmp_path / "dir", "MISSING": tmp_path / "missing" / "x.json",
             "NEW": tmp_path / "new.csv"}
    paths["DIR"].mkdir()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    for name in ("load_dataset", "brute_force_oracle", "generate_synthetic",
                 "empirical_concentration"):
        monkeypatch.setattr(unionfit.cli, name, _no_work)
    monkeypatch.setattr(unionfit.experiment, "run_trial", _no_work)
    assert run_cli(*(paths.get(arg, arg) for arg in argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("rows, n_groups, k", [
    (["0,0,0"] * 5, 2, 1),  # all-zero data
    (["1,0", "2,0", "3,0", "0,1"], 3, 1),  # fewer distinct lines than l
], ids=["zero", "two-lines"])
def test_solve_seeds_degenerate_data(tmp_path, capsys, rows, n_groups, k):
    """Data with no l distinct lines to seed from still runs every restart."""
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n")
    assert run_cli("solve", "--data", data, "-l", n_groups, "-k", k,
                   "--restarts", 3) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["restarts_used"] == 3 and report["error"] == 0.0


@pytest.mark.parametrize("dataset", [
    {"file": {"path": "DATA", "header": "no"}},
    {"file": {"path": "DATA", "hedaer": True}},
    {"file": 5},
], ids=repr)
def test_experiment_rejects_bad_file_entries(tmp_path, dataset):
    data = str(generate_dataset(tmp_path))
    entry = dataset["file"]
    if isinstance(entry, dict):
        dataset = {"file": {k: data if v == "DATA" else v for k, v in entry.items()}}
    config = _experiment_config(tmp_path, dataset=dataset,
                                model={"n_subspaces": 2, "max_dim": 1})
    assert run_cli("experiment", "--config", config) == 2
    assert not (tmp_path / "rows.csv").exists()


def test_file_dataset_dimensions_are_checked_when_loaded(tmp_path, capsys):
    data = generate_dataset(tmp_path, points=5)
    config = _experiment_config(tmp_path, dataset={"file": str(data)},
                                model={"n_subspaces": 5, "max_dim": 1}, trials=0)
    assert run_cli("experiment", "--config", config) == 2
    assert "n_subspaces" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


# Where a fuzzed config may differ from a valid one, and what may go there.
# Numbers stay small and eta/delta stay at 0.25 or more, so that a config
# that passes validation runs in milliseconds: a small eta or a large size
# is valid and would only make the example slow.
FUZZ_PATHS = [
    ("dataset",), ("dataset", "synthetic"), ("dataset", "file"),
    ("dataset", "synthetic", "ambient_dim"), ("dataset", "synthetic", "n_subspaces"),
    ("dataset", "synthetic", "max_dim"), ("dataset", "synthetic", "n_points"),
    ("dataset", "synthetic", "noise_sigma"), ("dataset", "synthetic", "balance"),
    ("dataset", "synthetic", "seed"), ("model",), ("model", "n_subspaces"),
    ("model", "max_dim"), ("reduction",), ("reduction", "distribution"),
    ("reduction", "r"), ("reduction", "eta"), ("reduction", "delta"),
    ("reduction", "epsilon"), ("solver",), ("solver", "restarts"),
    ("solver", "tol"), ("solver", "max_iter"), ("solver", "oracle_budget"),
    ("solver", "stop_below"), ("solver", "seed"), ("trials",), ("master_seed",),
    ("output",), ("output", "rows"), ("output", "summary"), ("unknown",),
]
FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 7),
    st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.9, 1.0, 2.0, 2.5,
                     math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "x", "gaussian", "bernoulli", "data.csv"]),
    st.lists(st.integers(-1, 5), max_size=3),
    st.dictionaries(st.sampled_from(["path", "header", "x"]),
                    st.sampled_from([True, "data.csv", 1]), max_size=2),
)
DELETE = object()


@st.composite
def fuzzed_configs(draw):
    cfg = {
        "dataset": {"synthetic": {"ambient_dim": 6, "n_subspaces": 2, "max_dim": 1,
                                  "n_points": 5, "noise_sigma": 0.05}},
        "reduction": {"distribution": "gaussian", "r": 3, "epsilon": 0.5},
        "solver": {"restarts": 3, "oracle_budget": 1000},
        "trials": 1,
        "master_seed": 3,
        "output": {"rows": "rows.csv", "summary": "summary.json"},
    }
    edits = draw(st.lists(st.tuples(st.sampled_from(FUZZ_PATHS),
                                    st.one_of(st.just(DELETE), FUZZ_VALUES)),
                          min_size=1, max_size=2))
    for path, value in edits:
        parent = cfg
        for key in path[:-1]:
            parent = parent.setdefault(key, {}) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if value is DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return cfg


@given(fuzzed_configs())
def test_fuzzed_experiment_configs_exit_cleanly(cfg):
    """Any config exits 0, 2 or 3 with no exception escaping main, and a
    rejected one (exit 2) writes no rows file."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            save_dataset(DataSet(np.arange(1.0, 31.0).reshape(6, 5) ** 0.5),
                         "data.csv")
            with open("cfg.json", "w") as fh:
                json.dump(cfg, fh)
            code = main(["experiment", "--config", "cfg.json"])
            written = set(os.listdir(".")) - {"data.csv", "cfg.json"}
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3)
    if code == 2:
        assert not written, written


# Every fuzzed command starts from valid flags, drawn over their whole valid
# range, and then has up to two flags replaced by anything of their type:
# floats over the whole range (subnormals, +-inf, nan, 1.7e308) and, for the
# closed-form bounds, integers past the float range.  Sizes that get data
# drawn stay small.
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([5e-324, 1e-300, 1e-160, 1.7e308, math.inf, -math.inf,
                     math.nan]),
)
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
NONNEGATIVE = st.floats(0.0, sys.float_info.max)
SMALL = st.integers(-2, 8)


@st.composite
def fuzzed_flags(draw, valid: dict, wild: dict, optional=False):
    """``--flag=value`` arguments: ``valid`` values with up to two replaced
    by a ``wild`` one and, when ``optional``, some flags left out."""
    values = draw(st.fixed_dictionaries(valid))
    for flag in draw(st.lists(st.sampled_from(sorted(wild)), max_size=2)):
        values[flag] = draw(wild[flag])
    if optional:
        for flag in draw(st.sets(st.sampled_from(sorted(values)))):
            del values[flag]
    return [f"{flag}={value}" for flag, value in values.items()]


def run_main(argv):
    """Exit code and standard output of ``main``; argparse's SystemExit(2)
    is the only exception that may escape it, and reads as exit code 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = 2
    assert code in (0, 2, 3)
    return code, out.getvalue()


def strict_json(text):
    """Parse JSON, refusing NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise AssertionError(f"{constant} in JSON output")
    return json.loads(text, parse_constant=refuse)


BOUNDS_FLAGS = fuzzed_flags(
    valid={"--epsilon": UNIT, "--e0": NONNEGATIVE, "--eta": UNIT, "--delta": UNIT,
           "--subspaces": st.integers(1, 4), "--rank": st.integers(3, 9),
           "--max-dim": st.integers(0, 3), "--points": st.integers(1, 50)},
    wild={"--epsilon": FLOATS, "--e0": FLOATS, "--eta": FLOATS, "--delta": FLOATS,
          **dict.fromkeys(["--subspaces", "--rank", "--max-dim", "--points"],
                          st.integers() | st.just(10**400))},
    optional=True,
)


@given(BOUNDS_FLAGS)
@example(["--eta=1e-300", "--delta=0.5", "-l=2", "-d=5", "-k=1", "-m=10"])
@example(["--epsilon=0.9", "--e0=1.7e308", "-l=2", "-d=5", "-k=1"])
def test_fuzzed_bounds_exit_cleanly(argv):
    code, out = run_main(["bounds", *argv])
    if code == 0:
        assert strict_json(out)


@given(fuzzed_flags(
    valid={"--ambient-dim": st.integers(3, 6), "-l": st.integers(1, 3),
           "-k": st.integers(1, 2), "--points": st.integers(3, 12),
           "--noise-sigma": NONNEGATIVE, "--seed": st.integers()},
    wild={"--ambient-dim": SMALL, "-l": SMALL, "-k": SMALL, "--points": SMALL,
          "--noise-sigma": FLOATS,
          "--balance": st.lists(SMALL, max_size=3).map(lambda c: ",".join(map(str, c)))},
))
def test_fuzzed_generate_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.csv")
        code, _ = run_main(["generate", *argv, f"--out={data}"])
        if code == 0:
            points = load_dataset(data)
            assert abs(points.frobenius_norm - 1.0) <= 1e-9
            with open(data + ".truth.json") as fh:
                assert strict_json(fh.read())["count"] == points.count


@given(fuzzed_flags(
    valid={"--dist": st.sampled_from(["gaussian", "bernoulli"]),
           "--r": st.integers(1, 8), "--ambient-dim": st.integers(1, 6),
           "--epsilon": UNIT, "--trials": st.integers(1, 4),
           "--vectors": st.integers(1, 4), "--seed": st.integers()},
    wild={"--r": SMALL, "--ambient-dim": SMALL, "--epsilon": FLOATS,
          "--trials": SMALL, "--vectors": SMALL},
))
def test_fuzzed_check_concentration_exits_cleanly(argv):
    code, out = run_main(["check-concentration", *argv])
    if code == 0:
        report = strict_json(out)
        assert report["failures"] <= report["pairs"]
