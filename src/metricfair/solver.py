"""Alternating projected-subgradient solver for min f(w) s.t. g(w) <= 0.

f and g must be convex on a convex domain given by an exact projection. Each
iteration takes an objective subgradient step when the iterate satisfies the
constraint within tolerance and otherwise a constraint step whose length
aims the constraint's linearisation at a target value.
The returned point is the better of the best feasible iterate and a tail
average of feasible iterates (their average is feasible because the tolerance
set is convex). Deterministic: no randomness is consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import MetricFairError, ValidationError


class InfeasibleError(MetricFairError):
    """No feasible iterate found within the iteration budget."""

    def __init__(self, message: str, best_slack_point: np.ndarray, best_slack: float):
        super().__init__(message)
        self.best_slack_point = best_slack_point
        self.best_slack = best_slack


# solve_annealed runs this many stages, dividing the step constant by
# ANNEAL_SHRINK from one stage to the next
ANNEAL_STAGES = 3
ANNEAL_SHRINK = 5.0


@dataclass(frozen=True)
class SolverConfig:
    """Objective steps have length step_c0 / sqrt(t + 1).

    `constraint_target` is the value constraint steps aim for. It must be
    attainable (some domain point with g at or below it); values strictly
    inside the feasible region give these steps linear convergence instead
    of tangential zigzag at the boundary. Callers that know a strictly
    feasible point (the learners know g(0) = -tau) set it accordingly."""

    max_iters: int = 3000
    step_c0: float = 0.5
    feasibility_tolerance: float = 1e-6
    seed: int = 0
    constraint_target: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not (self.step_c0 > 0 and math.isfinite(self.step_c0)):
            raise ValidationError("step_c0 must be positive and finite")
        if not (self.feasibility_tolerance > 0 and math.isfinite(self.feasibility_tolerance)):
            raise ValidationError("feasibility_tolerance must be positive and finite")


@dataclass(frozen=True)
class TrainingReport:
    final_objective: float
    final_constraint_slack: float
    iterations: int
    converged: bool
    empirical_mf_loss: float | None = None
    mf_loss_bound: float | None = None
    derived_params: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.converged and self.final_constraint_slack > self.derived_params.get(
            "feasibility_tolerance", math.inf
        ):
            raise MetricFairError("converged report with constraint slack above tolerance")


def solve_constrained(
    objective,
    constraint,
    project,
    config: SolverConfig,
    initial_point,
):
    """Minimize f over {g <= 0} intersected with the projection's domain.

    `objective(w)` returns (value, subgradient) and `constraint(w)` returns
    (value, a zero-argument callable that returns the subgradient);
    `project(w)` maps onto the domain. Returns (point, TrainingReport).
    Raises InfeasibleError when no iterate ever meets the feasibility
    tolerance, attaching the point of smallest constraint value seen.

    The constraint's subgradient is needed only on infeasible iterates: the
    solver calls the callable right after `constraint(w)` on each infeasible
    iterate and never on a feasible one, so a constraint whose subgradient is
    costly pays for it only when a step uses it.
    """
    tol = config.feasibility_tolerance
    w = project(np.array(initial_point, dtype=np.float64))

    best_w = None
    best_obj = math.inf
    best_slack_w = w.copy()
    best_slack = math.inf

    # Tail averaging over feasible iterates: windows [2^k, 2^(k+1)) of the
    # feasible subsequence; the previous full window is kept as a candidate.
    window_sum = np.zeros_like(w)
    window_count = 0
    window_cap = 8
    prev_window_avg = None
    n_feasible = 0

    iterations = 0
    for t in range(config.max_iters):
        iterations = t + 1
        g_val, g_sub = constraint(w)
        if g_val < best_slack:
            best_slack = g_val
            best_slack_w = w.copy()
        if g_val <= tol:
            n_feasible += 1
            f_val, f_sub = objective(w)
            if f_val < best_obj:
                best_obj = f_val
                best_w = w.copy()
            window_sum += w
            window_count += 1
            if window_count >= window_cap:
                prev_window_avg = window_sum / window_count
                window_sum = np.zeros_like(w)
                window_count = 0
                window_cap *= 2
            sub_norm_sq = float(np.dot(f_sub, f_sub))
            if sub_norm_sq == 0.0:
                break  # 0 is a subgradient: w minimizes f
            step = config.step_c0 / math.sqrt(t + 1.0)
            w = project(w - step * f_sub)
        else:
            g_sub = g_sub()
            sub_norm_sq = float(np.dot(g_sub, g_sub))
            if sub_norm_sq == 0.0:
                # flat violated constraint: nothing to move along
                break
            target = min(config.constraint_target, 0.5 * tol)
            step = (g_val - target) / sub_norm_sq
            w = project(w - step * g_sub)

    if n_feasible == 0:
        raise InfeasibleError(
            "infeasible or budget exhausted", best_slack_w, max(best_slack, 0.0)
        )

    candidates = [(best_obj, best_w)]
    for cand in (prev_window_avg, window_sum / window_count if window_count else None):
        if cand is None:
            continue
        g_val, _ = constraint(cand)
        if g_val <= tol:
            f_val, _ = objective(cand)
            candidates.append((f_val, cand))
    final_obj, final_w = min(candidates, key=lambda c: c[0])
    final_slack = max(float(constraint(final_w)[0]), 0.0)
    report = TrainingReport(
        final_objective=float(final_obj),
        final_constraint_slack=final_slack,
        iterations=iterations,
        converged=final_slack <= tol,
        derived_params={"feasibility_tolerance": tol},
        extras={"n_feasible_iterates": n_feasible, "best_objective": float(best_obj)},
    )
    return final_w, report


def solve_annealed(objective, constraint, project, config: SolverConfig, initial_point):
    """Run solve_constrained in a deterministic annealing ladder.

    Each of the ANNEAL_STAGES stages warm-starts from the previous stage's
    point with the step constant divided by ANNEAL_SHRINK; the best feasible
    result across stages wins. This is a plain accuracy booster for the
    O(1/sqrt(T)) subgradient rate.
    """
    point = np.array(initial_point, dtype=np.float64)
    best = None
    total_iters = 0
    for stage in range(ANNEAL_STAGES):
        stage_cfg = replace(config, step_c0=config.step_c0 / (ANNEAL_SHRINK**stage))
        w, report = solve_constrained(objective, constraint, project, stage_cfg, point)
        total_iters += report.iterations
        point = w
        if best is None or report.final_objective < best[1].final_objective:
            best = (w, report)
    w, report = best
    return w, replace(report, iterations=total_iters)
