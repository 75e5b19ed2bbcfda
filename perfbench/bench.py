"""Set-up, timed repetitions and output checks for one workload.

Set-up runs the workload's ``gen-data`` in fresh interpreters, several
times, so that ``setup_s`` covers interpreter start, importing metricfair and
generating the inputs. The timed part calls ``metricfair.cli.run_cli`` in
this process, one repetition of the workload's commands after another, until
the next repetition would run past the time budget. A traced run alternates
untraced and traced repetitions, so that both pipeline times come from the
same process and the tracing overhead is their difference.

An untraced repetition also times the workload's reference loop before its
first command and after each command (see ``reference.py``). ``pipeline_rel``
is the median pipeline time over the median reference time of the same run:
the pipeline in units of the host's speed, during the run, at that kind of
work.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from .metrics import COMMAND_METRICS, END_TO_END, PER_LAYER, layer_values
from .reference import time_reference
from .tracing import Tracer, instrument
from .workloads import Workload, check_command, check_dataset

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_RUNS = 7
MIN_REPS = 3

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from metricfair.cli import run_cli; sys.exit(run_cli(sys.argv[2:]))"
)

_PEAK_CODE = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from metricfair.cli import run_cli
for argv in json.loads(sys.argv[2]):
    try:
        run_cli(argv)
    except Exception:
        pass  # the timed repetitions check and count every command
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class SetupError(Exception):
    """gen-data failed or gave wrong inputs, so nothing can be measured."""


@dataclass
class Rep:
    """One repetition of a workload's commands."""

    traced: bool
    times: dict[str, float] = field(default_factory=dict)
    references: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    train_objective: float | None = None
    layers: dict[str, float] | None = None

    @property
    def pipeline_s(self) -> float | None:
        """Time of all commands, or None when any of them failed."""
        return None if self.failures else sum(self.times.values())


@dataclass
class Result:
    trace: bool
    setup_times: list[float]
    reps: list[Rep]
    peak_rss_mb: float

    @property
    def attempted(self) -> int:
        return len(self.setup_times) + sum(r.attempted for r in self.reps)

    @property
    def failures(self) -> list[str]:
        return [f for r in self.reps for f in r.failures]

    def pipelines(self, traced: bool) -> list[float]:
        return [r.pipeline_s for r in self.reps if r.traced == traced and r.pipeline_s is not None]

    @property
    def references(self) -> list[float]:
        return [t for r in self.reps for t in r.references]

    def metric_values(self) -> dict[str, float]:
        """Every metric of this run's kind that has at least one sample."""
        values = {}
        untraced = self.pipelines(False)
        if not self.trace:
            if self.setup_times:
                values["setup_s"] = statistics.median(self.setup_times)
            if untraced:
                values["pipeline_rel"] = statistics.median(untraced) / statistics.median(
                    self.references)
            values["peak_rss_mb"] = self.peak_rss_mb
            return values
        layers = [r.layers for r in self.reps if r.traced and r.pipeline_s is not None]
        if layers:
            for name in layers[0]:
                values[name] = statistics.median(v[name] for v in layers)
            values["trace.pipeline_s"] = statistics.median(self.pipelines(True))
            if untraced:
                values["trace.overhead_s"] = values["trace.pipeline_s"] - statistics.median(untraced)
        return values

    def summary(self) -> dict:
        """The result line: {correct, attempted, failed, metrics}."""
        table = PER_LAYER if self.trace else END_TO_END
        values = self.metric_values()
        failed = len(self.failures)
        return {
            "correct": failed == 0 and all(m.name in values for m in table),
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                        for m in table if m.name in values},
        }

    def report_lines(self) -> list[str]:
        """Human-readable lines: each metric with unit, sample count and, for
        a traced run, what it should move."""
        lines = []
        if self.trace:
            values = self.metric_values()
            for m in PER_LAYER:
                if m.name in values:
                    lines.append(f"{m.name:30s} {values[m.name]:<14.6g} {m.unit:6s} {m.about}")
            lines.append(f"traced repetitions: {len(self.pipelines(True))}, "
                         f"untraced: {len(self.pipelines(False))}")
        else:
            lines.append(_timing_line("setup_s", self.setup_times))
            untraced = [r for r in self.reps if not r.traced]
            for command, name in COMMAND_METRICS.items():
                samples = [r.times[command] for r in untraced if command in r.times]
                if samples:
                    lines.append(_timing_line(name, samples))
            lines.append(_timing_line("pipeline_s", self.pipelines(False)))
            lines.append(_timing_line("reference_s", self.references))
            values = self.metric_values()
            if "pipeline_rel" in values:
                lines.append(f"{'pipeline_rel':20s} {values['pipeline_rel']:.6f} ratio  "
                             "median pipeline_s / median reference_s")
            lines.append(f"{'peak_rss_mb':20s} {self.peak_rss_mb:.1f} MB")
            objectives = {r.train_objective for r in untraced if r.train_objective is not None}
            if objectives:
                shown = ", ".join(repr(v) for v in sorted(objectives))
                lines.append(f"{'train_objective':20s} {shown} loss (deterministic per seed)")
        failures = self.failures
        lines.append(f"{'failed_ops':20s} {len(failures) / max(self.attempted, 1):.6g} ratio "
                     f"({len(failures)} of {self.attempted} commands)")
        lines.extend(f"FAILED {f}" for f in failures)
        return lines


def _timing_line(name: str, samples: list[float]) -> str:
    if not samples:
        return f"{name:20s} no passing sample"
    return (f"{name:20s} {statistics.median(samples):.6f} s  median of {len(samples)} "
            f"(min {min(samples):.6f}, max {max(samples):.6f})")


def _call_cli(argv: list[str], tracer: Tracer | None) -> tuple[int, float, str]:
    """Run one CLI command in this process; return (exit code, seconds, stderr)."""
    from metricfair.cli import run_cli

    call = run_cli if tracer is None else tracer.wrap(f"cli.{argv[0]}", run_cli)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = call(argv)
        except Exception:  # a crash is one failed command, not the end of the run
            traceback.print_exc()
            code = -1
        elapsed = perf_counter() - start
    return code, elapsed, err.getvalue()


def _failure(command: str, reason: str, stderr: str) -> str:
    tail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
    return f"{command}: {reason}" + (f" [{tail[0]}]" if tail else "")


def _clear(work: Path) -> None:
    for path in work.iterdir():
        path.unlink()


def set_up(workload: Workload, work: Path, seed: int, runs: int) -> list[float]:
    """Run gen-data `runs` times, each in a fresh interpreter, check each
    output and return the set-up times. The inputs stay in `work`."""
    argv = workload.setup_argv(work, seed)
    data = work / "data.csv"
    times, first = [], None
    for _ in range(runs):
        _clear(work)
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), *argv],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=170)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(_failure("gen-data", f"exit code {proc.returncode}", proc.stderr))
        content = data.read_bytes()
        if first is None:
            first = content
            reason = check_dataset(data, workload)
        else:
            reason = None if content == first else "output differs between runs with one seed"
        if reason:
            raise SetupError(_failure("gen-data", reason, ""))
    return times


def peak_rss_mb(workload: Workload, work: Path, seed: int) -> float:
    """Peak RSS of one repetition of the workload's commands in a fresh
    interpreter. Not the benchmark's own process: repetitions in one process
    leave the allocator's heap in different states, which moves its peak by
    several MB from run to run."""
    argvs = json.dumps(workload.command_argvs(work, seed))
    proc = subprocess.run([sys.executable, "-c", _PEAK_CODE, str(SRC), argvs],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise SetupError(f"peak RSS run exited with code {proc.returncode}")
    return int(proc.stdout.split()[-1]) / 1024.0


def run_rep(workload: Workload, work: Path, seed: int, tracer: Tracer | None = None) -> Rep:
    """Run the workload's commands once and check every output. A traced
    repetition first replays gen-data in-process, for the datagen and serde
    spans; its time is not part of pipeline_s."""
    rep = Rep(traced=tracer is not None)
    commands = workload.command_argvs(work, seed)
    if tracer is not None:
        commands.insert(0, workload.setup_argv(work, seed))
    previous: dict[str, dict] = {}
    if tracer is None:
        rep.references.append(time_reference(workload.name))
    for argv in commands:
        command = argv[0]
        code, elapsed, stderr = _call_cli(argv, tracer)
        rep.attempted += 1
        if tracer is None:
            rep.references.append(time_reference(workload.name))
        if command == "gen-data":
            if code != 0:
                rep.failures.append(_failure(command, f"exit code {code}", stderr))
            continue
        results, reason = check_command(argv, code, previous)
        if reason:
            rep.failures.append(_failure(command, reason, stderr))
        else:
            rep.times[command] = elapsed
            previous[command] = results
    if "train" in previous:
        rep.train_objective = previous["train"]["final_objective"]
    return rep


def _traced_rep(workload: Workload, work: Path, seed: int, tracer: Tracer) -> Rep:
    tracer.reset()
    with instrument(tracer):
        rep = run_rep(workload, work, seed, tracer)
    rep.layers = layer_values(tracer)
    return rep


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 setup_runs: int = SETUP_RUNS) -> Result:
    """Set up, then repeat the workload until the next repetition would end
    after `seconds`. There are at least three repetitions, so that a median
    is never one reading or the mean of two; a traced run alternates untraced
    and traced ones."""
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        setup_times = set_up(workload, work, seed, setup_runs)
        peak = peak_rss_mb(workload, work, seed)
        time_reference(workload.name)  # first touch of its arrays is not timed
        reps: list[Rep] = []
        start = perf_counter()
        longest = 0.0
        while True:
            begun = perf_counter()
            if trace and len(reps) % 2 == 1:
                reps.append(_traced_rep(workload, work, seed, tracer))
            else:
                reps.append(run_rep(workload, work, seed))
            now = perf_counter()
            longest = max(longest, now - begun)
            if len(reps) >= MIN_REPS and now - start + longest > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return Result(trace, setup_times, reps, peak)
