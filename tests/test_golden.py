"""Golden outputs: the CLI's `--no-timestamp` files at tiny sizes, byte for byte.

Each command in COMMANDS runs from an empty working directory with relative
paths, so no output names a directory. The test compares every file the
commands write with its copy under tests/golden/. A change that moves a
learner's output on purpose regenerates the copies with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden/ shows which fields moved. The predictor and
report floats come from numpy's linear algebra, so the bytes are those of
one numpy build; another BLAS may round a last digit differently.
"""

import contextlib
import difflib
import io
import os
import sys
from pathlib import Path

from metricfair.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

REPORT = ("--no-timestamp",)
COMMANDS = (
    ("gen-data", "--generator", "unit-ball", "--n", "3", "--m", "41", "--seed", "1",
     "--out", "data.csv"),
    ("gen-data", "--generator", "separable", "--n", "3", "--m", "41", "--margin", "0.1",
     "--noise-rate", "0.1", "--seed", "1", "--out", "separable.csv"),
    # margin 0.9 caps the orthogonal part of most rows at sqrt(1 - 0.81)
    ("gen-data", "--generator", "separable", "--n", "10", "--m", "41", "--margin", "0.9",
     "--noise-rate", "0.3", "--seed", "1", "--out", "separable-cap.csv"),
    ("train", "--data", "data.csv", "--metric", "euclidean:0.8", "--alpha", "0.2",
     "--gamma", "0.3", "--max-iters", "300", "--seed", "1",
     "--predictor-out", "linear.json", "--out", "train-linear.json", *REPORT),
    ("train", "--data", "data.csv", "--metric", "euclidean:0.8", "--alpha", "0.2",
     "--gamma", "0.3", "--learner", "kernel", "--kernel-b", "100", "--max-iters", "300",
     "--seed", "1", "--predictor-out", "kernel.json", "--out", "train-kernel.json", *REPORT),
    ("audit", "--data", "data.csv", "--metric", "euclidean:0.2", "--predictor", "linear.json",
     "--gamma", "0.05", "--population-pairs", "2000", "--seed", "1",
     "--out", "audit-linear.json", *REPORT),
    ("audit", "--data", "data.csv", "--metric", "euclidean:0.8", "--predictor", "kernel.json",
     "--gamma", "0.3", "--population-pairs", "2000", "--seed", "1",
     "--out", "audit-kernel.json", *REPORT),
    # 401 rows make three row blocks of the profile (163 rows of 65,536
    # entries) and 150,000 pairs three pair blocks of the population estimate
    ("gen-data", "--generator", "unit-ball", "--n", "3", "--m", "401", "--seed", "2",
     "--out", "blocks.csv"),
    ("audit", "--data", "blocks.csv", "--metric", "euclidean:0.2", "--predictor", "linear.json",
     "--gamma", "0.05", "--population-pairs", "150000", "--seed", "1",
     "--out", "audit-blocks.json", *REPORT),
    # a metric without a Gram form: the profile's generic blocks, three of them
    ("audit", "--data", "blocks.csv", "--metric", "constant:0.2", "--predictor", "linear.json",
     "--gamma", "0.05", "--population-pairs", "2000", "--seed", "1",
     "--out", "audit-constant.json", *REPORT),
    ("hardness-demo", "--n", "8", "--pairs", "20", "--mode", "both", "--seed", "1",
     "--out", "hardness.json", *REPORT),
    ("gen-data", "--generator", "hardness-pairs", "--n", "8", "--m", "40", "--seed", "1",
     "--out", "hard.csv", "--handle-out", "handle.json"),
    ("gen-data", "--generator", "hardness-pairs", "--mode", "v", "--n", "8", "--m", "40",
     "--seed", "1", "--out", "hard-v.csv", "--handle-out", "handle-v.json"),
    ("validate-metric", "--data", "hard.csv", "--metric", "hardness:handle.json",
     "--triples", "2000", "--seed", "1", "--out", "validate.json", *REPORT),
    ("bounds", "--formula", "delta-m", "--formula", "lin-accuracy", "--formula", "inf-fpac",
     "--g", "10", "--delta", "0.05", "--m", "1001", "--rhat", "0.01", "--epsilon", "0.1",
     "--eps-alpha", "0.1", "--eps-gamma", "0.1", "--alpha", "0.1",
     "--rademacher-const", "0.001", "--out", "bounds.json", *REPORT),
    ("bounds", "--formula", "delta-m-kernel", "--formula", "sigmoid-accuracy", "--g", "10",
     "--delta", "0.05", "--m", "1001", "--c", "2", "--sup-m", "0.5", "--epsilon", "0.1",
     "--eps-alpha", "0.1", "--eps-gamma", "0.1", "--alpha", "0.1", "--b", "100",
     "--branch", "fairness", "--out", "bounds-kernel.json", *REPORT),
    ("bounds", "--formula", "b-star", "--l", "3", "--eps-star", "0.05",
     "--out", "bounds-b-star.json", *REPORT),
    ("hardness-demo", "--n", "8", "--pairs", "10", "--mode", "u", "--seed", "1",
     "--skip-training", "--out", "hardness-skip.json", *REPORT),
)


def run_commands(cwd: Path) -> dict[str, bytes]:
    """Run COMMANDS in `cwd`; return the files they wrote, by name."""
    previous = Path.cwd()
    os.chdir(cwd)
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(list(argv))
            if code != 0:
                raise AssertionError(f"{' '.join(argv)} exited {code}")
    finally:
        os.chdir(previous)
    return {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}


def golden_diff(name: str, expected: bytes, got: bytes) -> str:
    """A unified diff of a file against its golden copy, a few lines of
    context around each change."""
    lines = difflib.unified_diff(
        expected.decode(errors="replace").splitlines(),
        got.decode(errors="replace").splitlines(),
        f"tests/golden/{name}", name, n=3, lineterm="")
    return "\n".join(lines)


def test_outputs_match_the_golden_files(tmp_path):
    got = run_commands(tmp_path)
    expected = {p.name: p.read_bytes() for p in sorted(GOLDEN.iterdir())}
    assert sorted(got) == sorted(expected)
    for name, body in got.items():
        assert body == expected[name], golden_diff(name, expected[name], body)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        outputs = run_commands(Path(work))
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    for name, body in outputs.items():
        (GOLDEN / name).write_bytes(body)
    print(f"wrote {len(outputs)} files to {GOLDEN}", file=sys.stderr)
