"""tools/workload_outputs.py: every workload's outputs, and the outputs of
the runs at another metric or size, free of run paths."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "workload_outputs.py"
TINY = {
    "linear-audit": {"n": 3, "m": 41, "max_iters": 60, "population_pairs": 500},
    "kernel-train": {"n": 3, "m": 41, "max_iters": 40, "population_pairs": 500},
    "hardness": {"n": 8, "m": 40, "pairs": 20, "audit_pairs": 200, "triples": 300},
}
# enough triples that more than 20 break the triangle inequality
TINY["hardness-n4"] = {**TINY["hardness"], "n": 4, "triples": 10_000}


def _load_tool():
    spec = importlib.util.spec_from_file_location("workload_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_runs_write_the_same_bytes_and_no_run_directory(tmp_path):
    tool = _load_tool()
    workloads = [replace(w, sizes=TINY.get(w.name) or TINY[w.name.rsplit("-", 1)[0]])
                 for w in tool.OUTPUT_WORKLOADS]
    for run in ("a", "b"):
        tool.write_outputs(3, tmp_path / run, workloads)
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert first == second
    assert {"linear-audit/audit.json", "kernel-train/predictor.json", "hardness/demo.json",
            "hardness/validate.json", "hardness/commands.txt",
            "linear-audit-binding/predictor.json", "linear-audit-binding/audit.json",
            "kernel-train-binding/predictor.json", "kernel-train-binding/audit.json",
            "linear-audit-constant/predictor.json",
            "linear-audit-constant/audit.json", "hardness-n4/demo.json",
            "hardness-n4/validate.json"} <= set(first)
    assert all(str(tmp_path).encode() not in body for body in first.values())
    for workload in workloads:
        commands = first[f"{workload.name}/commands.txt"].decode().splitlines()
        assert len(commands) == 1 + len(workload.commands)
        exits = {line.split()[1]: line.split()[0] for line in commands}
        # at n = 4 the hardness metric breaks the triangle inequality
        broken = {"validate-metric"} if workload.name == "hardness-n4" else set()
        assert exits == {command: "2" if command in broken else "0" for command in exits}
        assert all(line.endswith("--no-timestamp") for line in commands[1:])
        if workload.name.endswith("-binding"):
            assert all("--metric euclidean:0.1 " in line for line in commands[1:])
        if workload.name.endswith("-constant"):
            assert all("--metric constant:0.2 " in line for line in commands[1:])
    results = json.loads(first["hardness-n4/validate.json"])["results"]
    assert not results["ok"] and results["n_triangle_violations"] > 20
    assert len(results["triangle_violations"]) == 20


def test_the_binding_runs_are_the_benchmarks_commands_at_a_short_metric_scale():
    tool = _load_tool()
    assert [w.name for w in tool.OUTPUT_WORKLOADS] == [
        *tool.WORKLOADS, "linear-audit-binding", "kernel-train-binding", "linear-audit-constant",
        "hardness-n4"]
    by_name = {w.name: w for w in tool.OUTPUT_WORKLOADS}
    hardness, small = tool.WORKLOADS["hardness"], by_name["hardness-n4"]
    assert (small.gen_data, small.commands) == (hardness.gen_data, hardness.commands)
    assert small.sizes == {**hardness.sizes, "n": 4}
    for name, metric in (("linear-audit-binding", "euclidean:0.1"),
                         ("kernel-train-binding", "euclidean:0.1"),
                         ("linear-audit-constant", "constant:0.2")):
        workload, rebound = tool.WORKLOADS[name.rsplit("-", 1)[0]], by_name[name]
        assert (rebound.gen_data, rebound.sizes) == (workload.gen_data, workload.sizes)
        for command, changed in zip(workload.commands, rebound.commands, strict=True):
            assert [t for t in command if t.startswith("euclidean:")] == ["euclidean:0.8"]
            assert changed == tuple(t.replace("euclidean:0.8", metric) for t in command)


def test_wrong_arguments_print_the_usage(capsys):
    assert _load_tool().main(["1"]) == 1
    assert capsys.readouterr().err == "usage: workload_outputs.py SEED DIR\n"
