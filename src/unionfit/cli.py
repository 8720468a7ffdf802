"""Command-line interface.

Subcommands: generate, solve, oracle, reduce-solve, bounds, experiment,
check-concentration.  Exit codes: 0 success, 1 invariant violation,
2 invalid input or config, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .errors import BudgetExceeded, UnionFitError
from .experiment import (
    ROW_FIELDS,
    ReductionConfig,
    load_config,
    run_experiment,
    run_trial,
)
from .io import ground_truth_to_dict, load_dataset, save_dataset
from .model import SEED_MASK, normalize_dataset
from .pipeline import (
    SolverConfig,
    eta_admissibility_epsilon,
    min_reduced_dim,
    theorem_bound,
)
from .projection import DISTRIBUTIONS, GAUSSIAN, RandomSpec, c0, empirical_concentration
from .solver import brute_force_oracle
from .synthetic import SyntheticSpec, generate_synthetic


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _solve_payload(report) -> dict:
    return {
        "error": report.error,
        "groups": [list(g) for g in report.partition.groups],
        "restarts_used": report.restarts_used,
        "iterations": list(report.iterations),
        "seed": report.seed,
        "winner": report.winner,
        "certified_optimal": report.certified_optimal,
    }


def cmd_generate(args) -> int:
    balance = [int(c) for c in args.balance.split(",")] if args.balance else None
    spec = SyntheticSpec(
        ambient_dim=args.ambient_dim,
        n_subspaces=args.subspaces,
        max_dim=args.max_dim,
        n_points=args.points,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        balance=balance,
    )
    data, truth = generate_synthetic(spec)
    save_dataset(data, args.out)
    truth_path = args.truth or f"{args.out}.truth.json"
    with open(truth_path, "w") as fh:
        json.dump(ground_truth_to_dict(truth.bundle, truth.partition), fh)
        fh.write("\n")
    print(f"wrote {data.count} points in dimension {data.ambient_dim} "
          f"to {args.out} (ground truth: {truth_path})")
    return 0


def _solver_config(args, **extra) -> SolverConfig:
    return SolverConfig(restarts=args.restarts, tol=args.tol,
                        max_iter=args.max_iter, seed=args.seed, **extra)


def cmd_solve(args) -> int:
    cfg = _solver_config(args)
    data = load_dataset(args.data, header=args.header)
    if args.normalize:
        data = normalize_dataset(data)
    report = cfg.solve(data, args.subspaces, args.max_dim)
    _emit(_solve_payload(report), args.out)
    return 0


def cmd_oracle(args) -> int:
    data = load_dataset(args.data, header=args.header)
    if args.normalize:
        data = normalize_dataset(data)
    report = brute_force_oracle(data, args.subspaces, args.max_dim, budget=args.budget)
    _emit(_solve_payload(report), args.out)
    return 0


def cmd_reduce_solve(args) -> int:
    reduction = ReductionConfig(
        distribution=args.dist, r=args.r, eta=args.eta, delta=args.delta,
        epsilon=args.epsilon,
    )
    cfg = _solver_config(args, oracle_budget=args.oracle_budget)
    data = normalize_dataset(load_dataset(args.data, header=args.header))
    report = run_trial(data, args.subspaces, args.max_dim, reduction, cfg,
                       sketch_seed=args.seed)
    payload = {f: getattr(report, f) for f in ROW_FIELDS[1:]}
    payload["reduced_certified_optimal"] = report.reduced_certified_optimal
    payload["groups"] = [list(g) for g in report.reduced_partition.groups]
    _emit(payload, args.out)
    return 0


def cmd_bounds(args) -> int:
    payload: dict = {}
    shape = (args.subspaces, args.rank, args.max_dim)
    if args.epsilon is not None:
        payload["c0"] = c0(args.epsilon)
    if None not in (args.epsilon, args.e0, *shape):
        payload["theorem_bound"] = theorem_bound(args.e0, args.epsilon, *shape)
    if None not in (args.eta, *shape):
        payload["eta_epsilon"] = eta_admissibility_epsilon(args.eta, *shape)
        if None not in (args.delta, args.points):
            payload["min_reduced_dim"] = min_reduced_dim(
                args.eta, args.delta, *shape, args.points
            )
    if not payload:
        raise UnionFitError(
            "nothing to compute; pass --epsilon (c0), --epsilon --e0 "
            "--subspaces --rank --max-dim (theorem bound) or --eta --delta "
            "--subspaces --rank --max-dim --points (minimal r)"
        )
    _emit(payload, args.out)
    return 0


def cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    cfg = replace(cfg, rows_path=args.rows or cfg.rows_path,
                  summary_path=args.summary or cfg.summary_path)
    result = run_experiment(cfg)
    totals = result.summary["totals"]
    violations = result.summary["violations"]
    print(
        f"{totals['trials']} trials, bound checked on "
        f"{totals['bound_checked']}, bound violations "
        f"{violations['bound']}, hard failures {violations['hard']}"
    )
    return result.exit_code


def cmd_check_concentration(args) -> int:
    spec = RandomSpec(args.dist, args.r, args.ambient_dim, seed=args.seed)
    rng = np.random.default_rng([args.seed & SEED_MASK, 0xC0C0])
    vectors = []
    for _ in range(args.vectors):
        v = rng.normal(size=args.ambient_dim)
        vectors.append(v / np.linalg.norm(v))
    report = empirical_concentration(spec, args.epsilon, vectors, args.trials)
    _emit(
        {
            "epsilon": report.epsilon,
            "pairs": report.trials,
            "failures": report.failures,
            "empirical_rate": report.empirical_rate,
            "theoretical_bound": report.theoretical_bound,
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    seed_opt = argparse.ArgumentParser(add_help=False)
    seed_opt.add_argument("--seed", type=int, default=0, help="master seed")

    out_opt = argparse.ArgumentParser(add_help=False)
    out_opt.add_argument("--out", default=None,
                         help="output path (default: standard output)")

    data_opts = argparse.ArgumentParser(add_help=False)
    data_opts.add_argument("--data", required=True, help="dataset CSV, one point per row")
    data_opts.add_argument("--header", action="store_true",
                           help="skip one header row in the dataset file")

    model_opts = argparse.ArgumentParser(add_help=False)
    model_opts.add_argument("-l", "--subspaces", type=int, required=True,
                            help="number of subspaces in the model")
    model_opts.add_argument("-k", "--max-dim", type=int, required=True,
                            help="dimension cap per subspace")

    solver = SolverConfig()
    solver_opts = argparse.ArgumentParser(add_help=False)
    solver_opts.add_argument("--restarts", type=int, default=solver.restarts)
    solver_opts.add_argument("--max-iter", type=int, default=solver.max_iter)
    solver_opts.add_argument("--tol", type=float, default=solver.tol,
                             help="solver convergence tolerance")

    parser = argparse.ArgumentParser(
        prog="unionfit",
        description="Fit unions of low-dimensional subspaces, with optional "
                    "random-projection acceleration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[seed_opt, model_opts],
                       help="write a synthetic dataset plus ground-truth sidecar")
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.add_argument("--ambient-dim", type=int, required=True)
    p.add_argument("-m", "--points", type=int, required=True)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--balance", default=None,
                   help="comma-separated points per subspace")
    p.add_argument("--truth", default=None,
                   help="ground-truth JSON path (default: OUT.truth.json)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve",
                       parents=[seed_opt, out_opt, data_opts, model_opts, solver_opts],
                       help="multi-restart alternating solve in full dimension")
    p.add_argument("--normalize", action="store_true",
                   help="scale the data to unit Frobenius norm first")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", parents=[out_opt, data_opts, model_opts],
                       help="certified optimum by exhaustive enumeration")
    p.add_argument("--budget", type=int, default=solver.oracle_budget,
                   help="maximum l^m; one labeling per label permutation "
                        "class (about l^m/l!) is actually scored")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce-solve",
                       parents=[seed_opt, out_opt, data_opts, model_opts, solver_opts],
                       help="sketch, solve in low dimension, lift the partition")
    p.add_argument("--dist", choices=DISTRIBUTIONS, default=GAUSSIAN)
    p.add_argument("--r", type=int, default=None, help="sketch dimension")
    p.add_argument("--eta", type=float, default=None,
                   help="target excess error (auto r)")
    p.add_argument("--delta", type=float, default=None,
                   help="failure probability for auto r")
    p.add_argument("--epsilon", type=float, default=None,
                   help="concentration epsilon for the bound column (fixed r)")
    p.add_argument("--oracle-budget", type=int, default=solver.oracle_budget)
    p.set_defaults(func=cmd_reduce_solve)

    p = sub.add_parser("bounds", parents=[out_opt],
                       help="print c0, the error bound, and the minimal sketch "
                            "dimension for given parameters")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--e0", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("-l", "--subspaces", type=int, default=None)
    p.add_argument("-d", "--rank", type=int, default=None)
    p.add_argument("-k", "--max-dim", type=int, default=None)
    p.add_argument("-m", "--points", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("experiment",
                       help="run a config-driven trial batch with CSV/JSON reports")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--rows", default=None, help="override rows CSV path")
    p.add_argument("--summary", default=None, help="override summary JSON path")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("check-concentration", parents=[seed_opt, out_opt],
                       help="empirical failure rate of the norm-concentration window")
    p.add_argument("--dist", choices=DISTRIBUTIONS, default=GAUSSIAN)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ambient-dim", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, required=True,
                   help="draws per vector")
    p.add_argument("--vectors", type=int, default=10,
                   help="number of random unit vectors")
    p.set_defaults(func=cmd_check_concentration)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnionFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
