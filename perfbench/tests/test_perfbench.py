"""Tests of the benchmark itself, on the real workloads at tiny sizes."""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import bench
from perfbench.metrics import COUNT_METRICS, END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

TINY = {
    "linear-audit": {"n": 3, "m": 41, "max_iters": 60, "population_pairs": 500},
    "kernel-train": {"n": 3, "m": 41, "max_iters": 40, "population_pairs": 500},
    "hardness": {"n": 8, "m": 40, "pairs": 20, "audit_pairs": 200, "triples": 300},
}
BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def run_tiny(name, trace, seed=3):
    workload = replace(WORKLOADS[name], sizes=TINY[name])
    return bench.run_workload(workload, seed, seconds=0, trace=trace, setup_runs=1)


@pytest.fixture(scope="module")
def traced_twice():
    return {name: (run_tiny(name, True).summary(), run_tiny(name, True).summary())
            for name in WORKLOADS}


def test_benchmark_json_lists_the_benchmarks_workloads_and_metrics():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]] == [
            (m.name, m.unit, m.better) for m in table]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric_with_its_unit(name):
    summary = run_tiny(name, False).summary()
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in summary["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_with_its_unit(traced_twice):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for first, _ in traced_twice.values():
        assert first["correct"] and first["failed"] == 0
        assert {k: v["unit"] for k, v in first["metrics"].items()} == declared


def test_count_metrics_repeat_exactly_between_traced_runs(traced_twice):
    for first, second in traced_twice.values():
        for name in COUNT_METRICS:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_traced_runs_attribute_time_to_the_layers_each_workload_uses(traced_twice):
    values = {name: {k: v["value"] for k, v in first["metrics"].items()}
              for name, (first, _) in traced_twice.items()}
    kernel = values["kernel-train"]
    parts = ["core.check_psd_s", "solver.self_s", "solver.objective_s",
             "solver.constraint_s", "solver.project_s"]
    assert all(kernel[p] > 0 for p in parts)
    assert sum(kernel[p] for p in parts) < kernel["cli.train_s"]
    linear = values["linear-audit"]
    assert linear["core.check_psd_s"] == 0 and linear["audit.profile_pairs"] == 41 ** 2
    for name in ("linear-audit", "kernel-train"):
        assert values[name]["hardness.expand_seed_calls"] == 0
    assert values["hardness"]["hardness.expand_seed_calls"] > 0
    assert values["hardness"]["audit.perfect_fairness_pairs"] == TINY["hardness"]["audit_pairs"]


def test_failed_output_check_is_counted_and_not_timed(monkeypatch):
    from metricfair import cli

    real_train = cli.train_fair_linear

    def train_with_slack(*args, **kwargs):
        predictor, report = real_train(*args, **kwargs)
        return predictor, replace(report, final_constraint_slack=1e-3, converged=False)

    monkeypatch.setattr(cli, "train_fair_linear", train_with_slack)
    result = run_tiny("linear-audit", False)
    summary = result.summary()
    # the train check fails, and the audit has no passing train report to meet
    assert summary["failed"] == 2 * len(result.reps)
    assert not summary["correct"]
    assert "pipeline_rel" not in summary["metrics"]
    assert all(not rep.times for rep in result.reps)
    assert any(line.startswith("failed_ops") and f"{summary['failed']} of" in line
               for line in result.report_lines())


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "hardness",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
