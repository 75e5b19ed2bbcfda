"""Command-line front end.

Subcommands: gen-data, train, audit, bounds, hardness-demo, validate-metric.
Exit codes: 0 success, 1 usage error, 2 runtime error. Every stochastic
command requires --seed (or the PACF_SEED environment variable); identical
inputs and seed reproduce byte-identical reports when --no-timestamp is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .audit import DatasetSampler, audit_predictor
from .core import MetricFairError, default_matching, validate_metric
from .datagen import SyntheticSpec, generate_dataset_with_meta
from .hardness import run_hardness_experiment
from .learners import (
    KernelLearner,
    LinearLearner,
    TrainConfig,
    train_fair_kernel,
    train_fair_linear,
)
from .serde import (
    load_dataset_csv,
    load_metric,
    load_predictor_json,
    predictor_to_dict,
    save_dataset_csv,
    save_hardness_handle,
    save_predictor_json,
    write_report,
)
from .solver import InverseSqrt, SolverConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("PACF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"PACF_SEED must be an integer, got {env!r}") from None
    raise UsageError("a --seed is required (or set PACF_SEED)")


def _add_report_flags(p):
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field (reproducibility checks)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="metricfair")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p.add_argument("--generator", required=True,
                   choices=["unit-ball", "separable", "hardness-pairs"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--margin", type=float, default=0.5)
    p.add_argument("--noise-rate", type=float, default=0.0)
    p.add_argument("--mode", choices=["u", "v"], default="u")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--handle-out", help="for hardness-pairs: save the metric handle here")

    p = sub.add_parser("train", help="train a fairness-constrained predictor")
    p.add_argument("--data", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--config", help="JSON file with training parameters; flags override")
    p.add_argument("--learner", choices=["linear", "kernel"], default=None)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--eps-alpha", type=float)
    p.add_argument("--eps-gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--gamma-star", type=float)
    p.add_argument("--theory-mode", choices=["empirical", "theoretical"], default=None)
    p.add_argument("--kernel-b", type=float, help="explicit squared-RKHS-norm bound")
    p.add_argument("--kernel-l", type=float, help="derive B from this Lipschitz cap")
    p.add_argument("--b-max", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--step-c0", type=float)
    p.add_argument("--feas-tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--predictor-out", required=True)
    _add_report_flags(p)

    p = sub.add_parser("audit", help="fairness-audit a saved predictor on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--predictor", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--alpha2-grid", default="0.05,0.1,0.2,0.5,1.0")
    p.add_argument("--population-pairs", type=int, default=10000)
    p.add_argument("--seed", type=int)
    _add_report_flags(p)

    p = sub.add_parser("bounds", help="evaluate bound and sample-complexity formulas")
    p.add_argument("--formula", action="append", required=True,
                   choices=["delta-m", "delta-m-kernel", "b-star",
                            "lin-accuracy", "sigmoid-accuracy", "inf-fpac"])
    p.add_argument("--g", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--rhat", type=float)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--sup-m", dest="sup_m", type=float, default=1.0)
    p.add_argument("--l", type=float)
    p.add_argument("--eps-star", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--eps-alpha", type=float)
    p.add_argument("--eps-gamma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--m-pac", type=int, default=1)
    p.add_argument("--rademacher-coeff", type=float,
                   help="inf-fpac: use R(k) = coeff / sqrt(k)")
    p.add_argument("--rademacher-const", type=float,
                   help="inf-fpac: use a constant R")
    p.add_argument("--branch", choices=["max", "utility", "fairness"], default="max",
                   help="for lin-accuracy/sigmoid-accuracy: report one branch")
    _add_report_flags(p)

    p = sub.add_parser("hardness-demo", help="run the perfect-fairness hardness experiment")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--pairs", type=int, default=500)
    p.add_argument("--mode", choices=["u", "v", "both"], default="both")
    p.add_argument("--seed", type=int)
    p.add_argument("--learner", choices=["linear", "kernel"], default="kernel")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--audit-pairs", type=int, default=10000)
    p.add_argument("--max-iters", type=int, default=400)
    p.add_argument("--skip-training", action="store_true")
    _add_report_flags(p)

    p = sub.add_parser("validate-metric", help="audit metric axioms on sampled triples")
    p.add_argument("--data", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--triples", type=int, default=10000)
    p.add_argument("--seed", type=int)
    _add_report_flags(p)

    return parser


def _cmd_gen_data(args) -> int:
    seed = _resolve_seed(args)
    spec = SyntheticSpec(
        generator=args.generator, n=args.n, m=args.m, seed=seed,
        margin=args.margin, noise_rate=args.noise_rate, mode=args.mode.upper(),
    )
    dataset, meta = generate_dataset_with_meta(spec)
    save_dataset_csv(dataset, args.out)
    if args.generator == "hardness-pairs" and args.handle_out:
        save_hardness_handle(meta["handle"], args.handle_out)
    print(f"wrote {len(dataset)} x {dataset.dimension} dataset to {args.out}")
    return 0


_TRAIN_DEFAULTS = {
    "learner": "linear", "eps": 0.1, "eps_alpha": 0.1, "eps_gamma": 0.1,
    "delta": 0.05, "gamma_star": 0.05, "theory_mode": "empirical",
    "kernel_b": None, "kernel_l": None, "b_max": 1e4,
    "max_iters": 3000, "step_c0": 0.5, "feas_tol": 1e-6,
}


def _train_config(args, seed: int) -> TrainConfig:
    """Resolve training parameters: explicit flags override the optional
    --config JSON file, which overrides the built-in defaults."""
    file_cfg = {}
    if args.config:
        file_cfg = json.loads(Path(args.config).read_text())
        unknown = set(file_cfg) - set(_TRAIN_DEFAULTS) - {"alpha", "gamma"}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")

    def pick(name):
        value = getattr(args, name)
        if value is not None:
            return value
        if name in file_cfg:
            return file_cfg[name]
        if name in _TRAIN_DEFAULTS:
            return _TRAIN_DEFAULTS[name]
        raise UsageError(f"missing required parameter --{name.replace('_', '-')}")

    learner_kind = pick("learner")
    if learner_kind == "kernel":
        if pick("kernel_b") is None and pick("kernel_l") is None:
            raise UsageError("kernel learner needs --kernel-b or --kernel-l")
        learner = KernelLearner(L=pick("kernel_l"), B=pick("kernel_b"), b_max=pick("b_max"))
    else:
        learner = LinearLearner()
    solver = SolverConfig(
        max_iters=int(pick("max_iters")),
        step_schedule=InverseSqrt(pick("step_c0")),
        feasibility_tolerance=pick("feas_tol"),
        seed=seed,
    )
    return TrainConfig(
        alpha=pick("alpha"), gamma=pick("gamma"), eps=pick("eps"),
        eps_alpha=pick("eps_alpha"), eps_gamma=pick("eps_gamma"),
        delta=pick("delta"), gamma_star=pick("gamma_star"),
        learner=learner, solver=solver, mode=pick("theory_mode"),
    )


def _cmd_train(args) -> int:
    seed = _resolve_seed(args)
    dataset = load_dataset_csv(args.data)
    metric = load_metric(args.metric, dataset)
    config = _train_config(args, seed)
    if isinstance(config.learner, KernelLearner):
        learner_kind = "kernel"
        predictor, report = train_fair_kernel(dataset, metric, config)
    else:
        learner_kind = "linear"
        predictor, report = train_fair_linear(dataset, metric, config)
    config_dict = {
        "alpha": config.alpha, "gamma": config.gamma, "eps": config.eps,
        "eps_alpha": config.eps_alpha, "eps_gamma": config.eps_gamma,
        "delta": config.delta, "gamma_star": config.gamma_star,
        "learner": learner_kind, "mode": config.mode, "seed": seed,
    }
    save_predictor_json(predictor, args.predictor_out,
                        training_config=config_dict, report=report.to_dict())
    payload = {"command": "train", "params": config_dict, "results": report.to_dict()}
    text = write_report(payload, args.out, args.no_timestamp)
    print(text, end="")
    return 0


def _cmd_audit(args) -> int:
    seed = _resolve_seed(args)
    dataset = load_dataset_csv(args.data)
    metric = load_metric(args.metric, dataset)
    predictor = load_predictor_json(args.predictor)
    matching = default_matching(dataset, seed)
    grid = [float(v) for v in args.alpha2_grid.split(",") if v]
    report = audit_predictor(
        predictor, dataset, matching, metric, args.gamma,
        alpha2_grid=grid,
        population_sampler=DatasetSampler(dataset),
        population_pairs=args.population_pairs,
        seed=seed,
    )
    payload = {
        "command": "audit",
        "params": {"gamma": args.gamma, "seed": seed, "metric": args.metric,
                   "predictor": predictor_to_dict(predictor)["variant"]},
        "results": report.to_dict(),
    }
    text = write_report(payload, args.out, args.no_timestamp)
    print(text, end="")
    return 0


def _require(args, names: list[str], formula: str):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise UsageError(f"formula {formula} needs --" + ", --".join(missing))


def _cmd_bounds(args) -> int:
    results = {}
    for formula in args.formula:
        if formula == "delta-m":
            _require(args, ["g", "delta", "m", "rhat"], formula)
            value = bounds_mod.mf_generalization_delta(args.g, args.delta, args.m, args.rhat)
        elif formula == "delta-m-kernel":
            _require(args, ["g", "delta", "m"], formula)
            value = bounds_mod.mf_generalization_delta_kernel(
                args.g, args.delta, args.m, args.c, args.sup_m)
        elif formula == "b-star":
            _require(args, ["l", "eps-star"], formula)
            value = bounds_mod.kernel_norm_bound_B(args.l, args.eps_star)
        elif formula == "lin-accuracy":
            _require(args, ["epsilon", "eps-alpha", "eps-gamma", "alpha", "delta"], formula)
            sc = bounds_mod.sample_complexity_linear(
                args.epsilon, args.eps_alpha, args.eps_gamma, args.alpha, args.delta)
            value = sc.m if args.branch == "max" else sc.branches[f"{args.branch}_m"]
        elif formula == "sigmoid-accuracy":
            _require(args, ["epsilon", "eps-alpha", "eps-gamma", "alpha", "delta"], formula)
            params = {"epsilon": args.epsilon, "eps_alpha": args.eps_alpha,
                      "eps_gamma": args.eps_gamma, "alpha": args.alpha,
                      "delta": args.delta, "B": args.b, "L": args.l}
            sc = bounds_mod.pacf_sample_complexity("sigmoid-accuracy", params)
            value = sc.m if args.branch == "max" else sc.branches[f"{args.branch}_m"]
        else:  # inf-fpac
            _require(args, ["eps-alpha", "eps-gamma", "delta"], formula)
            if args.rademacher_coeff is not None:
                coeff = args.rademacher_coeff
                rad = lambda k: coeff / math.sqrt(k)
            elif args.rademacher_const is not None:
                rad = args.rademacher_const
            else:
                raise UsageError("inf-fpac needs --rademacher-coeff or --rademacher-const")
            value = bounds_mod.sample_complexity_inf_fpac(
                args.eps_alpha, args.eps_gamma, args.delta, args.m_pac, rad).m
        results[formula] = value
        print(f"{formula} {value:.10g}")
    delta_val = next((results[f] for f in ("delta-m", "delta-m-kernel") if f in results), None)
    complexities = {f: v for f, v in results.items()
                    if f in ("lin-accuracy", "sigmoid-accuracy", "inf-fpac")}
    report = bounds_mod.BoundReport(
        delta_m=delta_val,
        inputs={k: getattr(args, k) for k in
                ("g", "delta", "m", "rhat", "c", "sup_m", "l", "eps_star",
                 "epsilon", "eps_alpha", "eps_gamma", "alpha", "b")
                if getattr(args, k) is not None},
        sample_complexities=complexities,
        kernel_norm_bound=results.get("b-star"),
    )
    payload = {"command": "bounds", "params": {"formulas": args.formula},
               "results": {"formulas": results, **report.to_dict()}}
    if args.out:
        write_report(payload, args.out, args.no_timestamp)
    return 0


def _cmd_hardness(args) -> int:
    seed = _resolve_seed(args)
    modes = {"u": ("U",), "v": ("V",), "both": ("U", "V")}[args.mode]
    learner = KernelLearner(B=1e4) if args.learner == "kernel" else LinearLearner()
    trainer = TrainConfig(
        alpha=args.alpha, gamma=args.gamma, learner=learner,
        solver=SolverConfig(max_iters=args.max_iters, seed=seed),
    )
    report = run_hardness_experiment(
        n=args.n, k_pairs=args.pairs, seed=seed, trainer=trainer, modes=modes,
        n_audit_pairs=args.audit_pairs,
        train_learners=() if args.skip_training else ("linear", "kernel"),
    )
    payload = {"command": "hardness-demo", "params": {"mode": args.mode, "seed": seed},
               "results": report.to_dict()}
    text = write_report(payload, args.out, args.no_timestamp)
    print(text, end="")
    return 0


def _cmd_validate_metric(args) -> int:
    seed = _resolve_seed(args)
    dataset = load_dataset_csv(args.data)
    metric = load_metric(args.metric, dataset)
    report = validate_metric(metric, dataset, args.triples, seed)
    payload = {
        "command": "validate-metric",
        "params": {"metric": args.metric, "triples": args.triples, "seed": seed},
        "results": report.to_dict(),
    }
    text = write_report(payload, args.out, args.no_timestamp)
    print(text, end="")
    return 0 if report.ok else 2


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "audit": _cmd_audit,
    "bounds": _cmd_bounds,
    "hardness-demo": _cmd_hardness,
    "validate-metric": _cmd_validate_metric,
}


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (MetricFairError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
