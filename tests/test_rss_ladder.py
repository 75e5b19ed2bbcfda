"""tools/rss_ladder.py: the peak RSS and wall time after each step of a workload."""

import importlib.util
from dataclasses import replace
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "rss_ladder.py"
TINY = {"n": 3, "m": 41, "max_iters": 40, "population_pairs": 500}


def _load_tool():
    spec = importlib.util.spec_from_file_location("rss_ladder", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_step_in_order(tmp_path):
    tool = _load_tool()
    workload = replace(tool.WORKLOADS["kernel-train"], sizes=TINY)
    rungs = tool.ladder(3, tmp_path, workload)
    assert [step for step, _, _ in rungs] == [
        "train: load", "train: gram", "train: certificate", "train: rebuild", "train: ridge",
        "train: solver", "train: report", "audit: load", "audit: profile", "audit: population",
        "audit: audit"]
    assert all(mb > 0 for _, mb, _ in rungs)
    seconds = [s for _, _, s in rungs]
    assert 0 <= seconds[0] and all(a <= b for a, b in zip(seconds, seconds[1:]))
    assert (tmp_path / "audit.json").is_file()


def test_linear_audit_leaves_out_the_steps_it_never_reaches(tmp_path):
    tool = _load_tool()
    workload = replace(tool.WORKLOADS["linear-audit"], sizes={**TINY, "max_iters": 100})
    rungs = tool.ladder(3, tmp_path, workload)
    assert [step for step, _, _ in rungs] == [
        "train: load", "train: solver", "train: report", "audit: load", "audit: profile",
        "audit: population", "audit: audit"]


def test_wrong_arguments_print_the_usage(capsys):
    for argv in ([], ["1", "no-such-workload"], ["1", "kernel-train", "2"]):
        assert _load_tool().main(argv) == 1
        assert capsys.readouterr().err == (
            "usage: rss_ladder.py SEED [linear-audit|kernel-train|hardness]\n")
