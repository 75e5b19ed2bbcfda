"""Run one benchmark workload of the metricfair CLI and print its metrics.

    python3 perfbench/run.py --workload linear-audit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. The lines before it give every metric with its unit and sample
count, the environment and every failed command. ``--workload all`` runs each
workload in its own process, one after another.

Exit code 0 when a result line was printed (its ``correct`` field says
whether every output passed its check), 2 when nothing could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("linear-audit", "kernel-train", "hardness")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def limit_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use. Must run
    before numpy is imported; child processes inherit the settings."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget of the measured repetitions")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Run every workload in its own process and print one combined line,
    with metric names prefixed by the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    nproc = limit_threads()
    src = ROOT / "src"
    if not (src / "metricfair" / "__init__.py").is_file():
        print(f"error: no metricfair sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import metricfair
    import numpy

    if Path(metricfair.__file__).resolve().parent != src / "metricfair":
        print(f"error: imported metricfair from {metricfair.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench.bench import SetupError, run_workload
    from perfbench.workloads import WORKLOADS

    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "threads": {var: int(os.environ[var]) for var in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
    }
    print("environment " + json.dumps(environment), flush=True)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(result.report_lines()))
    print(json.dumps(result.summary()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
