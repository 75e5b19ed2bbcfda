"""Print the peak RSS and the wall time after each step of one of the
benchmark's workloads, so that its memory and time can be read step by step.

    PYTHONPATH=src python tools/rss_ladder.py SEED [WORKLOAD]

WORKLOAD names a workload of ``perfbench.workloads.WORKLOADS`` and is
kernel-train unless given. The script runs the workload's ``gen-data``
set-up in a child process, and then its timed commands at the benchmark's
sizes, in a temporary directory. It prints the process's peak resident set
so far (VmHWM, which is ``ru_maxrss`` without the pages of the process that
started it) as each step returns: loading the data, the gram, its PSD
certificate, the gram's rebuild over the factored array, the ridge warm
start's solve, the solver, the train report, the audit's all-pairs
profile and its population estimate, and the whole audit. The
certificate's line less the gram's is its own peak over the gram. A step
the workload never reaches is left out: linear-audit's ``train`` has no
gram, so its ladder reads load, solver, report, and then the audit's load,
profile, population and audit. The peak never falls, so each line is the
peak up to that step, and the script has to run as a fresh interpreter of
its own. Beside it
stands the wall time from the start of the first command to the step's
return, so a step's own time is the difference of two lines. The steps are
marked by wrapping metricfair's module functions from outside, so
metricfair is imported from PYTHONPATH and another checkout's ``src`` can
be measured as well (a step whose function that checkout lacks is left
out); the ``gen-data`` child imports the same metricfair. ``perfbench`` is
read from this checkout.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import WORKLOADS  # noqa: E402

#: (metricfair module, function, step on the call, step on the return): a
#: step's line is printed when the function is called or returns
STEPS = (
    ("cli", "load_dataset_csv", None, "load"),
    ("learners", "check_psd", "gram", "certificate"),
    ("learners", "gram_matrix", None, "rebuild"),
    ("learners", "_ridge_fit", None, "ridge"),
    ("learners", "solve_annealed", None, "solver"),
    ("learners", "solve_pdhg", None, "solver"),
    ("learners", "_finalize_report", None, "report"),
    ("audit", "group_fairness_profile", None, "profile"),
    ("audit", "population_mf_estimate", None, "population"),
    ("cli", "audit_predictor", None, "audit"),
)


SETUP = "import sys; from metricfair.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))"


def peak_mb() -> float:
    """The process's peak RSS so far, in MB: VmHWM, which Linux gives in KiB."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024.0


def ladder(seed: int, directory,
           workload=WORKLOADS["kernel-train"]) -> list[tuple[str, float, float]]:
    """Run `workload`'s set-up in a child process and then its commands at
    `seed` inside `directory`; return ("<command>: <step>", peak MB, seconds
    since the first command started) as each step returns."""
    import metricfair
    from metricfair.cli import run_cli

    rungs = []
    command = [""]

    def rung(step):
        rungs.append((f"{command[0]}: {step}", peak_mb(), time.perf_counter() - start))

    def marked(fn, called, returned):
        def wrapper(*args, **kwargs):
            if called is not None:
                rung(called)
            out = fn(*args, **kwargs)
            rung(returned)
            return out
        return wrapper

    work = Path(directory)
    # the child imports the metricfair this process runs, whatever put it on the path
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(metricfair.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, "-c", SETUP, *workload.setup_argv(work, seed)],
                   check=True, stdout=subprocess.DEVNULL, env=env)
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        for name, attr, called, returned in STEPS:
            module = importlib.import_module(f"metricfair.{name}")
            if hasattr(module, attr):
                stack.enter_context(mock.patch.object(
                    module, attr, marked(getattr(module, attr), called, returned)))
        for argv in workload.command_argvs(work, seed):
            command[0] = argv[0]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return rungs


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2 or argv[1:] and argv[1] not in WORKLOADS:
        print(f"usage: rss_ladder.py SEED [{'|'.join(WORKLOADS)}]", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as directory:
        rungs = ladder(int(argv[0]), directory, WORKLOADS[argv[1] if argv[1:] else "kernel-train"])
    print(f"{'step':<28}{'peak RSS (MB)':>14}{'time (s)':>10}")
    for step, mb, seconds in rungs:
        print(f"{step:<28}{mb:>14.1f}{seconds:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
