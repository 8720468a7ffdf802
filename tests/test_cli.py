import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given
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


SYNTHETIC = {"ambient_dim": 8, "n_subspaces": 2, "max_dim": 1, "n_points": 6}


@pytest.mark.parametrize("bad", [
    {"dataset": {"synthetic": {**SYNTHETIC, "n_points": 6.5}}},
    {"dataset": {"synthetic": {**SYNTHETIC, "n_points": 8, "balance": [4.9, 4.9]}}},
    {"solver": {"seed": 5}},
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
