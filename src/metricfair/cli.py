"""Command-line front end.

Subcommands: gen-data, train, audit, bounds, hardness-demo, validate-metric.
Exit codes: 0 success, 1 usage error, 2 runtime error. Every stochastic
command requires --seed (or the PACF_SEED environment variable); identical
inputs and seed reproduce byte-identical reports when --no-timestamp is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import bounds as bounds_mod
from .audit import audit_predictor
from .core import MetricFairError, default_matching, validate_metric
from .datagen import SyntheticSpec, generate_dataset_with_meta
from .hardness import DEMO_TRAINER, run_hardness_experiment
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
from .solver import SolverConfig


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


def _finite_grid(text: str) -> list[float]:
    """A comma-separated list of finite numbers; empty entries are skipped."""
    grid = []
    for entry in filter(None, text.split(",")):
        try:
            value = float(entry)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"grid entries must be finite numbers, got {entry!r}")
        grid.append(value)
    return grid


# the values of the choice flags of `train`, which its --config keys share
_CHOICES = {"learner": ("linear", "kernel"), "theory_mode": ("empirical", "theoretical")}


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
    p.add_argument("--learner", choices=_CHOICES["learner"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--eps-alpha", type=float)
    p.add_argument("--eps-gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--gamma-star", type=float)
    p.add_argument("--theory-mode", choices=_CHOICES["theory_mode"])
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
    p.add_argument("--alpha2-grid", type=_finite_grid, default="0.05,0.1,0.2,0.5,1.0")
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
    p.add_argument("--learner", choices=_CHOICES["learner"])
    p.add_argument("--alpha", type=float, default=DEMO_TRAINER.alpha)
    p.add_argument("--gamma", type=float, default=DEMO_TRAINER.gamma)
    p.add_argument("--audit-pairs", type=int, default=10000)
    p.add_argument("--max-iters", type=int, default=DEMO_TRAINER.solver.max_iters)
    p.add_argument("--skip-training", action="store_true")
    _add_report_flags(p)

    p = sub.add_parser("validate-metric", help="audit metric axioms on sampled triples")
    p.add_argument("--data", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--triples", type=int, default=10000)
    p.add_argument("--seed", type=int)
    _add_report_flags(p)

    return parser


def _emit_report(args, params: dict, results) -> None:
    """Print the command's JSON report, also writing it to --out if given."""
    payload = {"command": args.command, "params": params, "results": results}
    print(write_report(payload, args.out, args.no_timestamp), end="")


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


# The parameters that `train` flags and --config keys may set. Each unset one
# takes the default of its TrainConfig, SolverConfig or KernelLearner field.
_TRAIN_KEYS = (
    "learner", "alpha", "gamma", "eps", "eps_alpha", "eps_gamma", "delta",
    "gamma_star", "theory_mode", "kernel_b", "kernel_l", "b_max",
    "max_iters", "step_c0", "feas_tol",
)
# keys whose dataclass field has another name
_FIELD_NAMES = {"theory_mode": "mode", "kernel_b": "B", "kernel_l": "L",
                "feas_tol": "feasibility_tolerance"}


def _read_train_config(path) -> dict:
    """Load a --config file and give its values the checks their flags get."""
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("--config must hold a JSON object")
    unknown = set(cfg) - set(_TRAIN_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for name, value in cfg.items():
        if name in _CHOICES:
            ok = value in _CHOICES[name]
        else:
            number = int if name == "max_iters" else (int, float)
            ok = isinstance(value, number) and not isinstance(value, bool)
        if not ok:
            raise UsageError(f"invalid config value for {name}: {value!r}")
    return cfg


def _fields_of(cls, given: dict) -> dict:
    """The entries of `given` that set a field of dataclass `cls`, keyed by
    field name."""
    names = {f.name for f in dataclasses.fields(cls)}
    renamed = {_FIELD_NAMES.get(k, k): v for k, v in given.items()}
    return {k: v for k, v in renamed.items() if k in names}


def _train_config(args, seed: int) -> TrainConfig:
    """Resolve training parameters: explicit flags override the optional
    --config JSON file, whose values override the dataclass defaults."""
    file_cfg = _read_train_config(args.config) if args.config else {}
    given = {}
    for name in _TRAIN_KEYS:
        value = getattr(args, name)
        if value is None:
            value = file_cfg.get(name)
        if value is not None:
            given[name] = value
    if given.pop("learner", None) == "kernel":
        if "kernel_b" not in given and "kernel_l" not in given:
            raise UsageError("kernel learner needs --kernel-b or --kernel-l")
        given["learner"] = KernelLearner(**_fields_of(KernelLearner, given))
    given["solver"] = SolverConfig(seed=seed, **_fields_of(SolverConfig, given))
    for f in dataclasses.fields(TrainConfig):
        if f.name not in given and f.default is f.default_factory is dataclasses.MISSING:
            raise UsageError(f"missing required parameter --{f.name.replace('_', '-')}")
    return TrainConfig(**_fields_of(TrainConfig, given))


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
    params = {f.name: getattr(config, f.name) for f in dataclasses.fields(TrainConfig)
              if f.name not in ("learner", "solver")}
    params.update(learner=learner_kind, seed=seed)
    save_predictor_json(predictor, args.predictor_out, training_config=params, report=report)
    _emit_report(args, params, report)
    return 0


def _cmd_audit(args) -> int:
    seed = _resolve_seed(args)
    dataset = load_dataset_csv(args.data)
    metric = load_metric(args.metric, dataset)
    predictor = load_predictor_json(args.predictor)
    matching = default_matching(dataset, seed)
    report = audit_predictor(
        predictor, dataset, matching, metric, args.gamma,
        alpha2_grid=args.alpha2_grid,
        population_pairs=args.population_pairs,
        seed=seed,
    )
    params = {"gamma": args.gamma, "seed": seed, "metric": args.metric,
              "predictor": predictor_to_dict(predictor)["variant"]}
    _emit_report(args, params, report)
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
            B = args.b
            if B is None:
                if args.l is None:
                    raise UsageError("formula sigmoid-accuracy needs --b or --l")
                eps_star = min(args.epsilon, args.eps_alpha, args.eps_gamma / 2.0)
                B = bounds_mod.kernel_norm_bound_B(args.l, eps_star)
            sc = bounds_mod.sample_complexity_kernel(
                args.epsilon, args.eps_alpha, args.eps_gamma, args.alpha, args.delta, B)
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
    if args.out:
        write_report({"command": args.command, "params": {"formulas": args.formula},
                      "results": {"formulas": results, **dataclasses.asdict(report)}},
                     args.out, args.no_timestamp)
    return 0


def _cmd_hardness(args) -> int:
    seed = _resolve_seed(args)
    modes = {"u": ("U",), "v": ("V",), "both": ("U", "V")}[args.mode]
    trainer = dataclasses.replace(
        DEMO_TRAINER, alpha=args.alpha, gamma=args.gamma,
        learner=LinearLearner() if args.learner == "linear" else DEMO_TRAINER.learner,
        solver=dataclasses.replace(DEMO_TRAINER.solver, max_iters=args.max_iters, seed=seed),
    )
    report = run_hardness_experiment(
        n=args.n, k_pairs=args.pairs, seed=seed, trainer=trainer, modes=modes,
        n_audit_pairs=args.audit_pairs,
        train_learners=() if args.skip_training else ("linear", "kernel"),
    )
    _emit_report(args, {"mode": args.mode, "seed": seed}, report)
    return 0


def _cmd_validate_metric(args) -> int:
    seed = _resolve_seed(args)
    dataset = load_dataset_csv(args.data)
    metric = load_metric(args.metric, dataset)
    report = validate_metric(metric, dataset, args.triples, seed)
    # the JSON of a validation is a summary of its violations, not its fields
    _emit_report(args, {"metric": args.metric, "triples": args.triples, "seed": seed},
                 report.to_dict())
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
