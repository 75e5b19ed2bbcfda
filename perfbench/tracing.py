"""Spans around the calls into metricfair's layers, recorded from outside the
package.

Nothing under ``src/`` is edited: `instrument` rebinds module attributes
(for example ``metricfair.learners.check_psd``) to timed wrappers for the
duration of a ``with`` block and restores them afterwards, and wraps the
metric and predictor objects and solver closures that are handed to the
library. Attributes are rebound in the module that looks them up, since the
CLI and the learners import their callees by name.

Every span is named ``<layer>.<operation>``, where the layer is a module of
``metricfair``. Spans are aggregated in memory as they close, since the
hardness workload opens about 600k of them per repetition: per name, the
self time (duration minus the time covered by child spans), the inclusive
time and the call count, plus named counters (pairs, iterations).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "serde", "datagen", "core", "learners", "solver", "audit", "hardness", "bounds")


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # one [child_seconds, name] frame per open span
        self._stack: list[list] = []

    def reset(self) -> None:
        for table in (self.self_s, self.total_s, self.calls, self.counts):
            table.clear()
        self._stack.clear()

    def wrap(self, name: str, fn, count=None, also_total: str | None = None):
        """Return `fn` timed as span `name`.

        `count(counts, args, kwargs, result)` adds to the named counters;
        `also_total` adds the inclusive time under a second name as well.
        """
        if name.split(".")[0] not in LAYERS:
            raise ValueError(f"span {name!r} does not name a layer")
        self_s, total_s, calls, stack, counts = (
            self.self_s, self.total_s, self.calls, self._stack, self.counts)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                total_s[name] += elapsed
                if also_total is not None:
                    total_s[also_total] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def _wrap_method(self, obj, method: str, name: str, count):
        """Rebind obj.method on the instance; calls the object makes to itself
        from inside the span (a default pair_distances looping over distance)
        stay inside that span instead of opening nested ones."""
        inner = getattr(obj, method)
        traced = self.wrap(name, inner, count)
        stack = self._stack

        def guarded(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return inner(*args, **kwargs)
            return traced(*args, **kwargs)

        # object.__setattr__ also works on frozen dataclass instances
        object.__setattr__(obj, method, guarded)

    def instrument_metric(self, metric):
        for method, pairs in (
            ("distance", lambda a: 1),
            ("pair_distances", _rows),
            ("pairwise_matrix", lambda a: _rows(a) ** 2),
        ):
            self._wrap_method(metric, method, "core.metric", _counter("core.metric_pairs", pairs))
        return metric

    def instrument_predictor(self, predictor):
        self._wrap_method(predictor, "predict", "core.predict",
                          _counter("core.predict_rows", lambda a: 1))
        self._wrap_method(predictor, "predict_batch", "core.predict",
                          _counter("core.predict_rows", _rows))
        return predictor


def _count_solve(counts, args, kwargs, result):
    report = result[1]
    counts["solver.iterations"] += report.iterations
    counts["solver.feasible"] += report.extras["n_feasible_iterates"]


def _counter(key, size):
    """A span counter adding size(args) under `key`."""
    def count(counts, args, kwargs, result):
        counts[key] += size(args)
    return count


def _rows(args) -> int:
    return np.shape(np.atleast_2d(args[0]))[0]


@contextmanager
def instrument(tracer: Tracer):
    """Rebind metricfair's layer entry points to spans of `tracer`."""
    from metricfair import audit, cli, datagen, hardness, learners, solver

    def solve_constrained(objective, constraint, project, config, initial_point):
        return original_solve(
            tracer.wrap("solver.objective", objective),
            tracer.wrap("solver.constraint", constraint),
            tracer.wrap("solver.project", project),
            config, initial_point,
        )

    original_solve = solver.solve_constrained
    load_metric = cli.load_metric
    load_predictor = cli.load_predictor_json
    hardness_metric = hardness.HardnessMetric
    # the demo's training is learners work, also summed as hardness.train
    demo_training = {"also_total": "hardness.train"}

    patches = [
        (cli, "generate_dataset_with_meta", "datagen.generate", {}),
        (cli, "load_dataset_csv", "serde.load_dataset", {}),
        (cli, "save_dataset_csv", "serde.save_dataset", {}),
        (cli, "save_hardness_handle", "serde.save_handle", {}),
        (cli, "load_metric", "serde.load_metric", {},
         lambda *a, **k: tracer.instrument_metric(load_metric(*a, **k))),
        (cli, "load_predictor_json", "serde.predictor_io", {},
         lambda *a, **k: tracer.instrument_predictor(load_predictor(*a, **k))),
        (cli, "save_predictor_json", "serde.predictor_io", {}),
        (cli, "predictor_to_dict", "serde.predictor_io", {}),
        (cli, "write_report", "serde.write_report", {}),
        (cli, "train_fair_linear", "learners.train", {}),
        (cli, "train_fair_kernel", "learners.train", {}),
        (cli, "audit_predictor", "audit.run", {}),
        (cli, "validate_metric", "core.validate_metric", {}),
        (cli, "run_hardness_experiment", "hardness.experiment", {}),
        (learners, "gram_matrix", "learners.gram", {}),
        (learners, "check_psd", "core.check_psd", {}),
        (learners, "empirical_mf_loss", "audit.matching_loss", {}),
        (learners, "uniform_convergence_rho", "bounds.formula", {}),
        (learners, "kernel_norm_bound_B", "bounds.formula", {}),
        (solver, "solve_constrained", "solver.solve", {"count": _count_solve}, solve_constrained),
        (audit, "empirical_mf_loss", "audit.matching_loss", {}),
        (audit, "empirical_l1_loss", "audit.matching_loss", {}),
        (audit, "group_fairness_profile", "audit.profile",
         {"count": _counter("audit.profile_pairs", lambda a: len(a[1]) ** 2)}),
        (audit, "population_mf_estimate", "audit.population",
         {"count": _counter("audit.population_pairs", lambda a: a[4])}),
        (hardness, "is_perfectly_fair", "audit.perfect_fairness",
         {"count": _counter("audit.perfect_fairness_pairs", lambda a: len(a[1]))}),
        (hardness, "expand_seed", "hardness.expand_seed", {}),
        (hardness, "sample_hardness_distribution", "hardness.sample", {}),
        (datagen, "sample_hardness_distribution", "hardness.sample", {}),
        (hardness, "averaged_fair_paired_error", "hardness.averaged_error", {}),
        (hardness, "train_fair_linear", "learners.train", demo_training),
        (hardness, "train_fair_kernel", "learners.train", demo_training),
    ]
    saved = []
    try:
        for module, attr, name, options, *replacement in patches:
            fn = replacement[0] if replacement else getattr(module, attr)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(name, fn, **options))
        saved.append((hardness, "HardnessMetric", hardness_metric))
        hardness.HardnessMetric = lambda handle: tracer.instrument_metric(hardness_metric(handle))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
