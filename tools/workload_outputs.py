"""Write every output of the benchmark's workloads for one seed, so that two
versions of metricfair can be compared file by file.

    PYTHONPATH=src python tools/workload_outputs.py SEED DIR

For each workload of ``perfbench.workloads.WORKLOADS``, at the benchmark's
sizes, the script runs the ``gen-data`` set-up and then every timed command
with ``--no-timestamp``, from inside ``DIR/<workload>/`` and with relative
paths, so that no output records where it ran. The benchmark trains at
``euclidean:0.8``, where neither learner's fairness constraint binds, so
linear-audit and kernel-train also run with every ``--metric`` at
``euclidean:0.1``, where it does, inside ``DIR/<workload>-binding/``. No
workload audits with a metric other than the Euclidean one, so linear-audit
also runs at ``constant:0.2``, inside ``DIR/linear-audit-constant/``. The
hardness metric keeps the triangle inequality at the benchmark's n = 32, so
the hardness workload also runs at n = 4, where it breaks it, inside
``DIR/hardness-n4/``. Next to the files the commands write,
``NN-<command>.out`` holds each command's stdout and stderr, and
``commands.txt`` lists each command with its exit code (validate-metric
exits 2 on a metric that breaks an axiom, which is an output like any
other). metricfair is imported from PYTHONPATH, so the script runs against
another checkout's ``src`` as well; ``perfbench`` is read from this
checkout:

    PYTHONPATH=/path/to/parent/src python tools/workload_outputs.py 1 before
    PYTHONPATH=src python tools/workload_outputs.py 1 after
    diff -r before after
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import WORKLOADS, Workload  # noqa: E402


def rebound(workload: Workload, metric: str, suffix: str) -> Workload:
    """`workload` with every --metric at `metric`, named <name>-<suffix>."""
    def rebind(command):
        return tuple(metric if flag == "--metric" else token
                     for flag, token in zip(("", *command), command))

    return replace(workload, name=f"{workload.name}-{suffix}",
                   commands=tuple(rebind(command) for command in workload.commands))


OUTPUT_WORKLOADS = (
    *WORKLOADS.values(),
    rebound(WORKLOADS["linear-audit"], "euclidean:0.1", "binding"),
    rebound(WORKLOADS["kernel-train"], "euclidean:0.1", "binding"),
    rebound(WORKLOADS["linear-audit"], "constant:0.2", "constant"),
    replace(WORKLOADS["hardness"], name="hardness-n4",
            sizes={**WORKLOADS["hardness"].sizes, "n": 4}),
)


def write_outputs(seed: int, directory, workloads=OUTPUT_WORKLOADS) -> None:
    """Run each workload's commands at `seed` inside `directory`/<name>/."""
    from metricfair.cli import run_cli

    here = Path.cwd()
    for workload in workloads:
        work = Path(directory, workload.name).resolve()
        work.mkdir(parents=True, exist_ok=True)
        argvs = [workload.setup_argv(Path("."), seed)]
        argvs += [[*argv, "--no-timestamp"] for argv in workload.command_argvs(Path("."), seed)]
        lines = []
        os.chdir(work)
        try:
            for k, argv in enumerate(argvs):
                with open(f"{k:02d}-{argv[0]}.out", "w") as out, \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = run_cli(argv)
                lines.append(f"{code} {' '.join(argv)}\n")
        finally:
            os.chdir(here)
        (work / "commands.txt").write_text("".join(lines))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: workload_outputs.py SEED DIR", file=sys.stderr)
        return 1
    write_outputs(int(argv[0]), argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
