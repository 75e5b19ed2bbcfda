"""The benchmark's metrics: what each one means, its unit, and which
end-to-end metric and workload a change in it should move.

``BENCHMARK.json`` lists the same names, units and directions; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tracing import LAYERS, Tracer


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    about: str


# Emitted by every untraced run (--trace 0). A command that exits non-zero or
# fails its output check counts in `failed` and its repetition gives no
# pipeline_s or pipeline_rel sample.
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "fresh interpreter to inputs on disk: importing metricfair plus gen-data; "
           "median over the set-up repetitions"),
    Metric("pipeline_rel", "ratio", "lower",
           "all of the workload's commands after set-up, median over repetitions, "
           "divided by the median time of the workload's reference loop "
           "(reference.py) timed between the commands of the same run"),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of a fresh interpreter that runs the workload's commands once"),
)

# Per-command medians printed next to the end-to-end metrics. They are not
# in BENCHMARK.json, because every metric there must be non-zero on every
# workload and each workload runs only some of the commands.
COMMAND_METRICS = {
    "train": "train_s",
    "audit": "audit_s",
    "hardness-demo": "hardness_demo_s",
    "validate-metric": "validate_metric_s",
}

_TRAIN = "train_s on linear-audit and kernel-train"
_DEMO = "validate_metric_s and hardness_demo_s on hardness"
_SETUP = "setup_s and pipeline_rel on linear-audit"

# Emitted by every traced run (--trace 1): medians over the traced
# repetitions. `_s` metrics are self time (span duration minus child spans)
# unless `about` says inclusive. A layer a workload never enters reads 0.
PER_LAYER = (
    Metric("solver.iterations", "count", "lower", f"{_TRAIN}; train_objective must not worsen"),
    Metric("solver.feasible_fraction", "ratio", "higher",
           f"feasible iterations / iterations; {_TRAIN}"),
    Metric("solver.self_s", "s", "lower", "train_s on linear-audit; little on kernel-train"),
    Metric("solver.s_per_iteration", "s", "lower",
           "inclusive solver time / iterations; train_s on linear-audit"),
    Metric("solver.objective_s", "s", "lower", "train_s on kernel-train; little on linear-audit"),
    Metric("solver.objective_calls", "count", "lower", "train_s on kernel-train"),
    Metric("solver.constraint_s", "s", "lower",
           "train_s on kernel-train (K @ z runs on feasible iterations too)"),
    Metric("solver.constraint_calls", "count", "lower", "train_s on kernel-train"),
    Metric("solver.project_s", "s", "lower", "train_s on kernel-train"),
    Metric("solver.project_calls", "count", "lower", "train_s on kernel-train"),
    Metric("core.check_psd_s", "s", "lower",
           "train_s on kernel-train; smaller on hardness; none on linear-audit"),
    Metric("learners.gram_s", "s", "lower", "train_s on kernel-train"),
    Metric("learners.warm_start_s", "s", "lower",
           "train self time outside child spans (ridge warm start); train_s on kernel-train"),
    Metric("audit.profile_s", "s", "lower",
           "audit_s and peak_rss_mb on linear-audit; less on kernel-train"),
    Metric("audit.profile_pairs", "count", "lower", "audit_s on linear-audit"),
    Metric("audit.population_s", "s", "lower", "audit_s on linear-audit"),
    Metric("audit.population_pairs", "count", "lower", "audit_s on linear-audit"),
    Metric("audit.matching_loss_s", "s", "lower", "hardness_demo_s on hardness"),
    Metric("audit.perfect_fairness_s", "s", "lower", "hardness_demo_s on hardness"),
    Metric("audit.perfect_fairness_pairs", "count", "lower", "hardness_demo_s on hardness"),
    Metric("core.metric_s", "s", "lower", f"{_DEMO}; no change on the Euclidean workloads"),
    Metric("core.metric_calls", "count", "lower", _DEMO),
    Metric("core.metric_pairs", "count", "lower", _DEMO),
    Metric("core.validate_metric_s", "s", "lower", "validate_metric_s on hardness"),
    Metric("core.predict_s", "s", "lower", "audit_s on linear-audit"),
    Metric("core.predict_rows", "count", "lower", "audit_s on linear-audit"),
    Metric("hardness.expand_seed_s", "s", "lower", _DEMO),
    Metric("hardness.expand_seed_calls", "count", "lower", _DEMO),
    Metric("hardness.sample_s", "s", "lower", f"{_DEMO}; setup_s on hardness"),
    Metric("hardness.averaged_error_s", "s", "lower", "hardness_demo_s on hardness"),
    Metric("hardness.train_s", "s", "lower",
           "inclusive time of the demo's training calls; hardness_demo_s on hardness"),
    Metric("datagen.generate_s", "s", "lower", _SETUP),
    Metric("serde.load_dataset_s", "s", "lower", _SETUP),
    Metric("serde.save_dataset_s", "s", "lower", _SETUP),
    Metric("serde.predictor_io_s", "s", "lower", "pipeline_rel on linear-audit and kernel-train"),
    Metric("serde.write_report_s", "s", "lower", "pipeline_rel on every workload"),
    Metric("bounds.s", "s", "lower", "residual, expected near 0"),
    Metric("cli.self_s", "s", "lower",
           "residual, expected near 0; grows when work moves into argument parsing or JSON"),
    *(Metric(f"cli.{cmd.replace('-', '_')}_s", "s", "lower", f"inclusive; {cmd} command")
      for cmd in ("gen-data", *COMMAND_METRICS)),
    *(Metric(f"layer.{layer}_s", "s", "lower", f"self time of all {layer} spans")
      for layer in LAYERS),
    Metric("trace.spans", "count", "lower", "spans recorded per repetition"),
    Metric("trace.pipeline_s", "s", "lower", "pipeline_s with tracing on"),
    Metric("trace.overhead_s", "s", "lower",
           "traced minus untraced pipeline_s, medians of the same run"),
)

COUNT_METRICS = tuple(m.name for m in PER_LAYER if m.unit == "count")


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced repetition (trace.* filled in by the caller)."""
    own, total, calls, counts = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts
    iterations = counts["solver.iterations"]
    values = {
        "solver.iterations": iterations,
        "solver.feasible_fraction": counts["solver.feasible"] / iterations if iterations else 0.0,
        "solver.self_s": own["solver.solve"],
        "solver.s_per_iteration": total["solver.solve"] / iterations if iterations else 0.0,
        "core.check_psd_s": own["core.check_psd"],
        "learners.gram_s": own["learners.gram"],
        "learners.warm_start_s": own["learners.train"],
        "audit.profile_s": own["audit.profile"],
        "audit.profile_pairs": counts["audit.profile_pairs"],
        "audit.population_s": own["audit.population"],
        "audit.population_pairs": counts["audit.population_pairs"],
        "audit.matching_loss_s": own["audit.matching_loss"],
        "audit.perfect_fairness_s": own["audit.perfect_fairness"],
        "audit.perfect_fairness_pairs": counts["audit.perfect_fairness_pairs"],
        "core.metric_s": own["core.metric"],
        "core.metric_calls": calls["core.metric"],
        "core.metric_pairs": counts["core.metric_pairs"],
        "core.validate_metric_s": own["core.validate_metric"],
        "core.predict_s": own["core.predict"],
        "core.predict_rows": counts["core.predict_rows"],
        "hardness.expand_seed_s": own["hardness.expand_seed"],
        "hardness.expand_seed_calls": calls["hardness.expand_seed"],
        "hardness.sample_s": own["hardness.sample"],
        "hardness.averaged_error_s": own["hardness.averaged_error"],
        "hardness.train_s": total["hardness.train"],
        "datagen.generate_s": own["datagen.generate"],
        "serde.load_dataset_s": own["serde.load_dataset"],
        "serde.save_dataset_s": own["serde.save_dataset"],
        "serde.predictor_io_s": own["serde.predictor_io"],
        "serde.write_report_s": own["serde.write_report"],
        "trace.spans": sum(calls.values()),
    }
    for part in ("objective", "constraint", "project"):
        values[f"solver.{part}_s"] = own[f"solver.{part}"]
        values[f"solver.{part}_calls"] = calls[f"solver.{part}"]
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in own.items():
        by_layer[name.split(".")[0]] += seconds
    for layer, seconds in by_layer.items():
        values[f"layer.{layer}_s"] = seconds
    values["bounds.s"] = by_layer["bounds"]
    values["cli.self_s"] = by_layer["cli"]
    for cmd in ("gen-data", *COMMAND_METRICS):
        values[f"cli.{cmd.replace('-', '_')}_s"] = total[f"cli.{cmd}"]
    return values
