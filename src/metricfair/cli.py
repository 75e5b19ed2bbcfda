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
from .audit import ALPHA2_GRID, audit_predictor
from .core import MetricFairError, default_matching, validate_metric
from .datagen import GENERATORS, SyntheticSpec, generate_dataset_with_meta
from .hardness import AUDIT_PAIRS, DEMO_TRAINER, run_hardness_experiment
from .learners import KernelLearner, TrainConfig, train_fair_kernel, train_fair_linear
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
    """The --seed flag, else PACF_SEED; numpy's generators need it >= 0."""
    if getattr(args, "seed", None) is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("PACF_SEED")
        if env is None:
            raise UsageError("a --seed is required (or set PACF_SEED)")
        try:
            seed, source = int(env), "PACF_SEED"
        except ValueError:
            raise UsageError(f"PACF_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise UsageError(f"{source} must be non-negative, got {seed}")
    return seed


def _add_report_flags(p):
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field (reproducibility checks)")


def _alpha2_grid(text: str) -> list[float]:
    """A comma-separated list of alpha2 values in [0, 1]; empty entries are
    skipped."""
    grid = []
    for entry in filter(None, text.split(",")):
        try:
            value = float(entry)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"grid entries must be finite numbers, got {entry!r}")
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(f"grid entries must be in [0, 1], got {entry!r}")
        grid.append(value)
    return grid


# Every `train` parameter: its --config key, whose flag is the key with dashes,
# maps to the dataclass and field it sets and to its type or tuple of choices.
_TRAIN_PARAMS = {
    "learner": (TrainConfig, "learner", ("linear", "kernel")),
    "alpha": (TrainConfig, "alpha", float),
    "gamma": (TrainConfig, "gamma", float),
    "eps": (TrainConfig, "eps", float),
    "eps_alpha": (TrainConfig, "eps_alpha", float),
    "eps_gamma": (TrainConfig, "eps_gamma", float),
    "delta": (TrainConfig, "delta", float),
    "theory_mode": (TrainConfig, "theory_mode", ("empirical", "theoretical")),
    "kernel_b": (KernelLearner, "B", float),
    "max_iters": (SolverConfig, "max_iters", int),
    "step_c0": (SolverConfig, "step_c0", float),
    "feas_tol": (SolverConfig, "feasibility_tolerance", float),
}
_TRAIN_HELP = {"kernel_b": "squared-RKHS-norm bound B of the kernel ball"}
# the `train` parameters that only the kernel learner reads (its slack eps*, its solver)
_KERNEL_ONLY = ("kernel_b", "eps", "step_c0")


def _build_parser() -> _Parser:
    parser = _Parser(prog="metricfair")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p.add_argument("--generator", required=True, choices=GENERATORS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--margin", type=float)
    p.add_argument("--noise-rate", type=float)
    p.add_argument("--mode", choices=["u", "v"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--handle-out", help="for hardness-pairs: save the metric handle here")

    p = sub.add_parser("train", help="train a fairness-constrained predictor")
    p.add_argument("--data", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--config", help="JSON file with training parameters; flags override")
    for key, (_, _, kind) in _TRAIN_PARAMS.items():
        convert = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        p.add_argument("--" + key.replace("_", "-"), help=_TRAIN_HELP.get(key), **convert)
    p.add_argument("--seed", type=int)
    p.add_argument("--predictor-out", required=True)
    _add_report_flags(p)

    p = sub.add_parser("audit", help="fairness-audit a saved predictor on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--predictor", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--alpha2-grid", type=_alpha2_grid, default=ALPHA2_GRID)
    p.add_argument("--population-pairs", type=int, default=10000)
    p.add_argument("--seed", type=int)
    _add_report_flags(p)

    p = sub.add_parser("bounds", help="evaluate bound and sample-complexity formulas")
    p.add_argument("--formula", action="append", required=True, choices=list(_FORMULAS))
    p.add_argument("--g", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--rhat", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--sup-m", dest="sup_m", type=float)
    p.add_argument("--l", type=float)
    p.add_argument("--eps-star", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--eps-alpha", type=float)
    p.add_argument("--eps-gamma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--m-pac", type=int)
    p.add_argument("--rademacher-coeff", type=float,
                   help="inf-fpac: use R(k) = coeff / sqrt(k)")
    p.add_argument("--rademacher-const", type=float,
                   help="inf-fpac: use a constant R")
    p.add_argument("--branch", choices=["max", "utility", "fairness"],
                   help="for lin-accuracy/sigmoid-accuracy: report one branch")
    _add_report_flags(p)

    p = sub.add_parser("hardness-demo", help="run the perfect-fairness hardness experiment")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--pairs", type=int, default=500)
    p.add_argument("--mode", choices=["u", "v", "both"], default="both")
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--audit-pairs", type=int)
    p.add_argument("--max-iters", type=int)
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
    given = {k: getattr(args, k) for k in ("margin", "noise_rate") if getattr(args, k) is not None}
    if args.mode:
        given["mode"] = args.mode.upper()
    spec = SyntheticSpec(generator=args.generator, n=args.n, m=args.m, seed=seed, **given)
    dataset, meta = generate_dataset_with_meta(spec)
    save_dataset_csv(dataset, args.out)
    if args.handle_out is not None:
        save_hardness_handle(meta["handle"], args.handle_out)
    print(f"wrote {len(dataset)} x {dataset.dimension} dataset to {args.out}")
    return 0


def _read_train_config(path) -> dict:
    """Load a --config file, checking and converting each value as its flag's."""
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("--config must hold a JSON object")
    unknown = set(cfg) - set(_TRAIN_PARAMS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for name, value in cfg.items():
        kind = _TRAIN_PARAMS[name][2]
        if isinstance(kind, tuple):
            ok = value in kind
        else:  # a JSON integer is a valid float, as "100" is for a float flag
            ok = isinstance(value, (int, float) if kind is float else kind)
        if not ok or isinstance(value, bool):
            raise UsageError(f"invalid config value for {name}: {value!r}")
        cfg[name] = value if isinstance(kind, tuple) else kind(value)
    return cfg


def _train_config(args, seed: int) -> TrainConfig:
    """Resolve training parameters: explicit flags override the optional
    --config JSON file, whose values override the dataclass defaults."""
    file_cfg = _read_train_config(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in _TRAIN_PARAMS if getattr(args, key) is not None}
    merged = {**file_cfg, **flags}
    stray = ["--" + k.replace("_", "-") if k in flags else k for k in _KERNEL_ONLY if k in merged]
    if stray and merged.get("learner") != "kernel":
        raise UsageError("kernel-only options on a linear run: " + ", ".join(stray))
    fields = {TrainConfig: {}, KernelLearner: {}, SolverConfig: {"seed": seed}}
    for key, value in merged.items():
        cls, name, _ = _TRAIN_PARAMS[key]
        fields[cls][name] = value
    given = fields[TrainConfig]
    if given.pop("learner", None) == "kernel":
        if "B" not in fields[KernelLearner]:
            raise UsageError("kernel learner needs --kernel-b")
        given["learner"] = KernelLearner(**fields[KernelLearner])
    given["solver"] = SolverConfig(**fields[SolverConfig])
    for f in dataclasses.fields(TrainConfig):
        if f.name not in given and f.default is f.default_factory is dataclasses.MISSING:
            raise UsageError(f"missing required parameter --{f.name.replace('_', '-')}")
    return TrainConfig(**given)


def _train_record(config: TrainConfig) -> dict:
    """Every `train` parameter that `config`'s learner reads, under its
    --config key: as a --config file, with the seed given apart, the record
    rebuilds `config`. The _KERNEL_ONLY keys appear for a kernel learner only."""
    owners = {TrainConfig: config, SolverConfig: config.solver, KernelLearner: config.learner}
    record = {key: getattr(owners[cls], name) for key, (cls, name, _) in _TRAIN_PARAMS.items()
              if config.learner is not None or key not in _KERNEL_ONLY}
    record["learner"] = "linear" if config.learner is None else "kernel"
    return record


def _cmd_train(args) -> int:
    seed = _resolve_seed(args)
    dataset = load_dataset_csv(args.data)
    metric = load_metric(args.metric, dataset)
    config = _train_config(args, seed)
    if isinstance(config.learner, KernelLearner):
        predictor, report = train_fair_kernel(dataset, metric, config)
    else:
        predictor, report = train_fair_linear(dataset, metric, config)
    params = {**_train_record(config), "seed": seed}
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
              "predictor": predictor_to_dict(predictor)["variant"],
              "population_pairs": args.population_pairs}
    _emit_report(args, params, report)
    return 0


def _branch(args, sc) -> int:
    """The sample size that --branch selects from an accuracy formula."""
    return sc.m if args.branch == "max" else sc.branches[f"{args.branch}_m"]


def _sigmoid_accuracy(a) -> int:
    B = a.b
    if B is None:
        B = bounds_mod.kernel_norm_bound_B(
            a.l, bounds_mod.kernel_slack(a.epsilon, a.eps_alpha, a.eps_gamma))
    return _branch(a, bounds_mod.sample_complexity_kernel(
        a.epsilon, a.eps_alpha, a.eps_gamma, a.alpha, a.delta, B))


def _inf_fpac(a) -> int:
    coeff = a.rademacher_coeff
    rad = a.rademacher_const if coeff is None else (lambda k: coeff / math.sqrt(k))
    return bounds_mod.sample_complexity_inf_fpac(
        a.eps_alpha, a.eps_gamma, a.delta, a.m_pac, rad).m


_ACCURACY = ("epsilon", "eps_alpha", "eps_gamma", "alpha", "delta", "branch")

# Each `bounds` formula: the flags it reads, needing each without a default in
# _SOME_RUNS and exactly one of --b and --l for "b|l", and its value.
_FORMULAS = {
    "delta-m": (("g", "delta", "m", "rhat"), lambda a: bounds_mod.mf_generalization_delta(
        a.g, a.delta, a.m, a.rhat)),
    "delta-m-kernel": (("g", "delta", "m", "c", "sup_m"), lambda a: (
        bounds_mod.mf_generalization_delta_kernel(a.g, a.delta, a.m, a.c, a.sup_m))),
    "b-star": (("l", "eps_star"), lambda a: bounds_mod.kernel_norm_bound_B(a.l, a.eps_star)),
    "lin-accuracy": (_ACCURACY, lambda a: _branch(a, bounds_mod.sample_complexity_linear(
        a.epsilon, a.eps_alpha, a.eps_gamma, a.alpha, a.delta))),
    "sigmoid-accuracy": ((*_ACCURACY, "b|l"), _sigmoid_accuracy),
    "inf-fpac": (("eps_alpha", "eps_gamma", "delta", "m_pac", "rademacher_coeff|rademacher_const"),
                 _inf_fpac),
}

_TRAINS = "a run without --skip-training"
# The options that only some runs read, by command: a function of the parsed
# arguments names the run, and each name maps to the options that its runs read,
# with the default an omitted one takes there (None: none, or the library's).
_SOME_RUNS = {
    "gen-data": (lambda a: {"--generator " + a.generator}, {
        "--generator separable": {"margin": None, "noise_rate": None},
        "--generator hardness-pairs": {"mode": None, "handle_out": None}}),
    "hardness-demo": (lambda a: {"--mode " + a.mode} | (set() if a.skip_training else {_TRAINS}), {
        _TRAINS: {"alpha": DEMO_TRAINER.alpha, "gamma": DEMO_TRAINER.gamma,
                  "max_iters": DEMO_TRAINER.solver.max_iters},
        **dict.fromkeys(("--mode v", "--mode both"), {"audit_pairs": AUDIT_PAIRS})}),
    "bounds": (lambda a: {"--formula " + f for f in a.formula}, {
        "--formula " + f: {k: {"c": 1.0, "sup_m": 1.0, "m_pac": 1, "branch": "max"}.get(k)
                           for need in needs for k in need.split("|")}
        for f, (needs, _) in _FORMULAS.items()}),
}


def _check_reads(args) -> None:
    """Exit 1 naming each given option its run does not read; default omitted ones it reads."""
    names, runs = _SOME_RUNS[args.command]
    read = {k: v for name in names(args) & runs.keys() for k, v in runs[name].items()}
    stray = [f"--{k.replace('_', '-')} needs " + " or ".join(n for n in runs if k in runs[n])
             for k in dict.fromkeys(k for options in runs.values() for k in options)
             if k not in read and getattr(args, k) is not None]
    if stray:
        raise UsageError("; ".join(stray))
    vars(args).update({k: v for k, v in read.items() if getattr(args, k) is None})


def _check_needs(args, formula: str, needs) -> None:
    """Raise a UsageError naming a choice of flags that `formula` needs and
    whose flags are both set, or each flag, or choice of flags, that it needs
    and that is unset."""
    unset = []
    for need in needs:
        names = need.split("|")
        flags = " or ".join("--" + name.replace("_", "-") for name in names)
        given = sum(getattr(args, name) is not None for name in names)
        if given > 1:
            raise UsageError(f"formula {formula} takes {flags}, not both")
        if not given:
            unset.append(flags)
    if unset:
        raise UsageError(f"formula {formula} needs " + ", ".join(unset))


def _cmd_bounds(args) -> int:
    """Print each requested formula's value; a bad input prints none."""
    for formula in args.formula:
        _check_needs(args, formula, _FORMULAS[formula][0])
    results = {formula: _FORMULAS[formula][1](args) for formula in args.formula}
    for formula in args.formula:
        print(f"{formula} {results[formula]:.10g}")
    # the values the formulas read, defaults included, so that a rerun gives the same values
    inputs = {k: v for k, v in vars(args).items()
              if v is not None and k not in ("command", "formula", "out", "no_timestamp")}
    if args.out:
        write_report({"command": args.command, "params": {"formulas": args.formula},
                      "results": {"formulas": results, "inputs": inputs}},
                     args.out, args.no_timestamp)
    return 0


def _cmd_hardness(args) -> int:
    seed = _resolve_seed(args)
    modes = {"u": ("U",), "v": ("V",), "both": ("U", "V")}[args.mode]
    params, trainer = {"mode": args.mode, "seed": seed}, DEMO_TRAINER
    if not args.skip_training:
        solver = dataclasses.replace(trainer.solver, max_iters=args.max_iters, seed=seed)
        trainer = dataclasses.replace(trainer, alpha=args.alpha, gamma=args.gamma, solver=solver)
        params["trainer"] = _train_record(trainer)
    report = run_hardness_experiment(
        n=args.n, k_pairs=args.pairs, seed=seed, trainer=trainer, modes=modes,
        n_audit_pairs=args.audit_pairs if "V" in modes else 0, train=not args.skip_training,
    )
    _emit_report(args, params, report)
    return 0


def _cmd_validate_metric(args) -> int:
    seed = _resolve_seed(args)
    dataset = load_dataset_csv(args.data)
    metric = load_metric(args.metric, dataset)
    report = validate_metric(metric, dataset, args.triples, seed)
    _emit_report(args, {"metric": args.metric, "triples": args.triples, "seed": seed}, report)
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
        if args.command in _SOME_RUNS:
            _check_reads(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (MetricFairError, OSError, ValueError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation it could not make; a bare MemoryError is blank
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
