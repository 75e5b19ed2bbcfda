"""The benchmark's workloads and the checks on every command's output.

A workload is one ``gen-data`` call, run during set-up, followed by the CLI
commands that are timed. Argument tokens hold ``{placeholders}``: ``{work}``
is the run's scratch directory and every other name is a key of the
workload's ``sizes``, so tests can run the same commands at tiny sizes with
``dataclasses.replace(workload, sizes=...)``. Every command also gets
``--seed <workload seed>``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen_data: tuple[str, ...]
    commands: tuple[tuple[str, ...], ...]
    sizes: dict

    def _format(self, tokens, work: Path, seed: int) -> list[str]:
        return [t.format(work=work, **self.sizes) for t in tokens] + ["--seed", str(seed)]

    def setup_argv(self, work: Path, seed: int) -> list[str]:
        return self._format(self.gen_data, work, seed)

    def command_argvs(self, work: Path, seed: int) -> list[list[str]]:
        return [self._format(c, work, seed) for c in self.commands]


def _train_audit(learner_flags: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    return (
        ("train", "--data", "{work}/data.csv", "--metric", "euclidean:0.8",
         *learner_flags, "--max-iters", "{max_iters}", "--alpha", "0.2", "--gamma", "0.3",
         "--predictor-out", "{work}/predictor.json", "--out", "{work}/train.json"),
        ("audit", "--data", "{work}/data.csv", "--metric", "euclidean:0.8",
         "--predictor", "{work}/predictor.json", "--gamma", "0.3",
         "--population-pairs", "{population_pairs}", "--out", "{work}/audit.json"),
    )


LINEAR_AUDIT = Workload(
    name="linear-audit",
    why=("many cheap O(m n) linear solver iterations and a dense m x m audit profile; "
         "no Gram matrix, PSD check or hardness code"),
    gen_data=("gen-data", "--generator", "separable", "--n", "{n}", "--m", "{m}",
              "--margin", "0.1", "--noise-rate", "0.1", "--out", "{work}/data.csv"),
    # 3000 iterations per annealing stage is the CLI default, pinned here
    commands=_train_audit(("--learner", "linear")),
    sizes={"n": 10, "m": 4001, "max_iters": 3000, "population_pairs": 1_000_000},
)

KERNEL_TRAIN = Workload(
    name="kernel-train",
    why=("few solver iterations bound by O(m^2) kernel matvecs, plus the Gram build, "
         "check_psd and the ridge warm start"),
    gen_data=("gen-data", "--generator", "unit-ball", "--n", "{n}", "--m", "{m}",
              "--out", "{work}/data.csv"),
    commands=_train_audit(("--learner", "kernel", "--kernel-b", "100")),
    sizes={"n": 10, "m": 2001, "max_iters": 300, "population_pairs": 10_000},
)

HARDNESS = Workload(
    name="hardness",
    why=("scalar per-pair hardness metric: SHAKE-128 expand_seed, the perfect-fairness "
         "loop and training on a {0,1} metric, at acceptance criterion 10's sizes"),
    gen_data=("gen-data", "--generator", "hardness-pairs", "--n", "{n}", "--m", "{m}",
              "--mode", "u", "--out", "{work}/data.csv", "--handle-out", "{work}/handle.json"),
    commands=(
        ("hardness-demo", "--n", "{n}", "--pairs", "{pairs}", "--mode", "both",
         "--audit-pairs", "{audit_pairs}", "--out", "{work}/demo.json"),
        ("validate-metric", "--data", "{work}/data.csv", "--metric", "hardness:{work}/handle.json",
         "--triples", "{triples}", "--out", "{work}/validate.json"),
    ),
    sizes={"n": 32, "m": 1000, "pairs": 500, "audit_pairs": 10_000, "triples": 10_000},
)

WORKLOADS = {w.name: w for w in (LINEAR_AUDIT, KERNEL_TRAIN, HARDNESS)}


# ---------------------------------------------------------------------------
# Output checks: each returns None when the output is right, else the reason.
# ---------------------------------------------------------------------------


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _results(argv: list[str]) -> dict:
    return json.loads(Path(_flag(argv, "--out")).read_text())["results"]


def _check_train(r: dict, argv, previous) -> str | None:
    tol = r["derived_params"]["feasibility_tolerance"]
    if not r["converged"]:
        return "solver did not converge"
    if not r["final_constraint_slack"] <= tol:
        return f"constraint slack {r['final_constraint_slack']} above tolerance {tol}"
    if not r["empirical_mf_loss"] <= r["mf_loss_bound"]:
        return f"empirical_mf_loss {r['empirical_mf_loss']} above bound {r['mf_loss_bound']}"
    return None


def _check_audit(r: dict, argv, previous) -> str | None:
    train = previous.get("train")
    if train is None:
        return "no passing train report to compare against"
    # the audit runs at gamma >= the train report's gamma_tilde on the same
    # seeded matching, so it can only charge fewer edges
    if not r["empirical_mf_loss"] <= train["empirical_mf_loss"]:
        return f"empirical_mf_loss {r['empirical_mf_loss']} above train's {train['empirical_mf_loss']}"
    limit = train["derived_params"]["tau"] + train["derived_params"]["feasibility_tolerance"]
    if not r["empirical_l1_loss"] <= limit:
        return f"empirical_l1_loss {r['empirical_l1_loss']} above tau + tol = {limit}"
    return None


def _check_hardness_demo(r: dict, argv, previous) -> str | None:
    if not abs(r["averaged_fair_error_u"] - 0.5) <= 1e-12:
        return f"averaged-fair error {r['averaged_fair_error_u']} is not 1/2"
    if r["reference_error"]["V"] != 0.0:
        return f"mode-V reference error {r['reference_error']['V']} is not 0"
    audit = r["perfect_fairness_audit"]["V"]
    if audit["n_violations"] != 0 or audit["n_pairs_audited"] != int(_flag(argv, "--audit-pairs")):
        return f"mode-V perfect-fairness audit failed: {audit}"
    if not (r["accuracy_gap"] is not None and r["accuracy_gap"] > 0.3):
        return f"accuracy gap {r['accuracy_gap']} not above 0.3"
    return None


def _check_validate_metric(r: dict, argv, previous) -> str | None:
    return None if r["ok"] else "metric axioms violated"


CHECKS = {
    "train": _check_train,
    "audit": _check_audit,
    "hardness-demo": _check_hardness_demo,
    "validate-metric": _check_validate_metric,
}


def check_command(argv: list[str], exit_code: int, previous: dict) -> tuple[dict | None, str | None]:
    """Check one command's exit code and report.

    `previous` maps command names to the passing results earlier in the same
    repetition. Returns (results, None) on success, (None, reason) otherwise.
    """
    if exit_code != 0:
        return None, f"exit code {exit_code}"
    try:
        results = _results(argv)
        reason = CHECKS[argv[0]](results, argv, previous)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable report: {exc!r}"
    return (None, reason) if reason else (results, None)


def check_dataset(path: Path, workload: Workload) -> str | None:
    """Check the gen-data CSV: header x1..xn,y, m rows, finite features in
    the unit ball and labels in {-1, 1}."""
    lines = path.read_text().splitlines()
    n, m = workload.sizes["n"], workload.sizes["m"]
    if lines[0] != ",".join([f"x{i + 1}" for i in range(n)] + ["y"]):
        return f"bad header {lines[0][:80]!r}"
    if len(lines) != m + 1:
        return f"{len(lines) - 1} rows, expected {m}"
    for line in lines[1:]:
        *feats, label = line.split(",")
        values = [float(v) for v in feats]
        if label not in ("-1", "1") or not all(math.isfinite(v) for v in values):
            return f"bad row {line[:80]!r}"
        if math.fsum(v * v for v in values) > 1.0 + 1e-9:
            return f"row outside the unit ball {line[:80]!r}"
    return None
