"""Solvers for the fairness-constrained training programs.

`solve_pdhg` trains the linear learner: a Chambolle-Pock primal-dual
iteration for min over ||x|| <= R of mean|Ax - b| subject to
mean(max(|Hx| - d, 0)) <= tau. Every iteration yields a lower bound on the
optimum from weak duality and a feasible point by scaling the iterate towards
0, so it stops once the gap between the two is certified below
GAP_TOLERANCE.

`solve_constrained` is an alternating projected-subgradient solver for
min f(w) s.t. g(w) <= 0, with f and g convex on a convex domain given by an
exact projection, which is handed each step as (point, step length,
direction). Each iteration takes an objective subgradient step when the
iterate satisfies the constraint within tolerance and otherwise a constraint
step whose length aims the constraint's linearisation at a target value.
It returns its best feasible iterate. `solve_annealed` runs it in stages.
The kernel learner uses them. Both solvers are deterministic: no randomness
is consumed.
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

# solve_pdhg's primal step over its dual step, t / sigma; binding instances
# reach small gaps within a few hundred iterations for ratios of 3 to 10 and
# stall below 0.1
STEP_RATIO = 10.0
# solve_pdhg stops once the certified gap is at most this
GAP_TOLERANCE = 1e-6
# t * sigma * ||[A; H]||^2 = STEP_SAFETY^2 < 1, as the iteration needs
STEP_SAFETY = 0.99
# a restored point is scaled by this much more than the exact feasible scale,
# so that rounding in a fresh evaluation of the constraint cannot push it over
RESTORE_MARGIN = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """`max_iters` caps solve_pdhg's iterations and the length of each of
    solve_annealed's stages. A converged report has constraint slack at most
    `feasibility_tolerance`, and `seed` seeds the learners' default matching.

    `step_c0` and `constraint_target` set only solve_constrained: objective
    steps have length step_c0 / sqrt(t + 1), and constraint steps aim for
    `constraint_target`. It must be attainable (some domain point with g at
    or below it); values strictly inside the feasible region give these
    steps linear convergence instead of tangential zigzag at the boundary.
    Callers that know a strictly feasible point (the kernel learner knows
    g(0) = -tau) set it accordingly."""

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
    `project(w, step, direction)` returns the projection of
    w - step * direction onto the domain. Every step goes through it with
    the current iterate w and the subgradient it steps along, and the initial
    point with step 0 and a zero direction, so a closure that keeps a linear
    image of the iterate can move it along the step instead of recomputing
    it. Returns (point, TrainingReport), where
    the point is the feasible iterate of least objective (the first of them
    on a tie). Raises InfeasibleError when no iterate ever meets the feasibility
    tolerance, attaching the point of smallest constraint value seen.

    The constraint's subgradient is needed only on infeasible iterates: the
    solver calls the callable right after `constraint(w)` on each infeasible
    iterate and never on a feasible one, so a constraint whose subgradient is
    costly pays for it only when a step uses it.
    """
    tol = config.feasibility_tolerance
    w = np.array(initial_point, dtype=np.float64)
    w = project(w, 0.0, np.zeros_like(w))

    best_w = None
    best_obj = math.inf
    best_slack_w = w.copy()
    best_slack = math.inf
    n_feasible = 0

    for iterations in range(1, config.max_iters + 1):
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
            sub_norm_sq = float(np.dot(f_sub, f_sub))
            if sub_norm_sq == 0.0:
                break  # 0 is a subgradient: w minimizes f
            step = config.step_c0 / math.sqrt(iterations)
            w = project(w, step, f_sub)
        else:
            g_sub = g_sub()
            sub_norm_sq = float(np.dot(g_sub, g_sub))
            if sub_norm_sq == 0.0:
                # flat violated constraint: nothing to move along
                break
            target = min(config.constraint_target, 0.5 * tol)
            step = (g_val - target) / sub_norm_sq
            w = project(w, step, g_sub)

    if n_feasible == 0:
        raise InfeasibleError(
            "infeasible or budget exhausted", best_slack_w, max(best_slack, 0.0)
        )

    final_slack = max(float(constraint(best_w)[0]), 0.0)
    report = TrainingReport(
        final_objective=float(best_obj),
        final_constraint_slack=final_slack,
        iterations=iterations,
        converged=final_slack <= tol,
        derived_params={"feasibility_tolerance": tol},
        extras={"n_feasible_iterates": n_feasible},
    )
    return best_w, report


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


def project_excess_budget(v: np.ndarray, d: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection of v onto {z : sum(max(|z_e| - d_e, 0)) <= budget}.

    Each coordinate's excess over d_e is soft-thresholded by one theta, the
    sort-and-threshold rule of the l1-ball projection (Duchi et al. 2008)
    applied to the excesses. No sort runs when v already fits the budget.
    """
    excess = np.maximum(np.abs(v) - d, 0.0)
    if float(np.sum(excess)) <= budget:
        return v.copy()
    u = np.sort(excess[excess > 0])[::-1]
    cumulative = np.cumsum(u)
    # the condition holds on a prefix of u; at budget 0 on none, and then
    # theta = max excess clears every excess
    rank = max(int(np.count_nonzero(u * np.arange(1, len(u) + 1) > cumulative - budget)), 1)
    theta = (cumulative[rank - 1] - budget) / rank
    return np.sign(v) * np.minimum(np.abs(v), d + np.maximum(excess - theta, 0.0))


def pdhg_dual_bound(grad, p, q, b, d, budget: float, radius: float) -> float:
    """Weak-duality lower bound D(p, q) on the program's optimum, valid for
    every q and every p with |p_i| <= 1/m; grad = A'p + H'q. The support
    function of the excess budget set contributes sum |q_e| d_e + budget
    max |q_e|."""
    q_abs = np.abs(q)
    return float(-radius * np.linalg.norm(grad) - p @ b - q_abs @ d - budget * q_abs.max())


def feasible_scale(gaps: np.ndarray, d: np.ndarray, tau: float) -> float:
    """The largest c in [0, 1] with mean(max(c |gaps_e| - d_e, 0)) <= tau,
    shrunk by RESTORE_MARGIN when below 1.

    The mean is convex, piecewise linear and nondecreasing in c, and 0 at
    c = 0, so c solves one linear piece, found by sorting the breakpoints
    d_e / |gaps_e|.
    """
    a = np.abs(gaps)
    if float(np.mean(np.maximum(a - d, 0.0))) <= tau:
        return 1.0
    budget = len(d) * tau
    # only edges over their distance at c = 1 have a breakpoint below 1
    on = a > d
    a, d = a[on], d[on]
    breaks = d / a
    order = np.argsort(breaks)
    a, d, breaks = a[order], d[order], breaks[order]
    slope = np.cumsum(a)
    offset = np.cumsum(d)
    # the excess sum at each breakpoint (the first fits, up to rounding); the
    # crossing lies on the piece after the last breakpoint that fits
    k = max(int(np.count_nonzero(breaks * slope - offset <= budget)), 1) - 1
    scale = min((budget + offset[k]) / slope[k], 1.0)
    return scale * (1.0 - RESTORE_MARGIN)


def solve_pdhg(A, b, H, d, tau: float, radius: float, config: SolverConfig):
    """Minimize mean|Ax - b| over ||x|| <= radius subject to
    mean(max(|Hx| - d, 0)) <= tau, for tau >= 0. Returns (x, TrainingReport).

    Chambolle-Pock iteration on the saddle problem with dual variables p for
    the residuals (|p_i| <= 1/m) and q for the edge gaps, one product with
    [A; H] and one with its transpose per iteration. Each primal iterate is
    scaled towards 0, where the constraint is -tau, until it is feasible; the
    best such point is kept. The run stops once that point's objective minus
    the best dual bound is at most GAP_TOLERANCE, or after config.max_iters
    iterations; the report's `extras` carry the bound and the gap.
    """
    if len(d) == 0:
        raise ValidationError("the fairness constraint needs at least one edge")
    if not tau >= 0:
        raise ValidationError(f"the fairness budget must be >= 0, got {tau}")
    m, n = A.shape
    budget = len(d) * tau
    norm_sq = float(np.linalg.eigvalsh(A.T @ A + H.T @ H)[-1])
    root = math.sqrt(max(norm_sq, np.finfo(float).tiny) * STEP_RATIO)
    primal_step = STEP_SAFETY * STEP_RATIO / root
    dual_step = STEP_SAFETY / root

    x = np.zeros(n)
    p = np.zeros(m)
    q = np.zeros(len(d))
    Ax, Hx = np.zeros(m), np.zeros(len(d))
    Ax_bar, Hx_bar = Ax, Hx
    # x = 0 is feasible: its constraint value is -tau
    best_x, best_objective = x, float(np.mean(np.abs(b)))
    dual_bound = -math.inf
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        p = np.clip(p + dual_step * (Ax_bar - b), -1.0 / m, 1.0 / m)
        v = q + dual_step * Hx_bar
        q = v - dual_step * project_excess_budget(v / dual_step, d, budget)
        grad = A.T @ p + H.T @ q
        dual_bound = max(dual_bound, pdhg_dual_bound(grad, p, q, b, d, budget, radius))

        x_new = x - primal_step * grad
        norm = float(np.linalg.norm(x_new))
        if norm > radius:
            x_new *= radius / norm
        Ax_new, Hx_new = A @ x_new, H @ x_new
        # [A; H] x_bar from the two products, by linearity
        Ax_bar, Hx_bar = 2.0 * Ax_new - Ax, 2.0 * Hx_new - Hx
        x, Ax, Hx = x_new, Ax_new, Hx_new

        scale = feasible_scale(Hx, d, tau)
        objective = float(np.mean(np.abs(scale * Ax - b)))
        if objective < best_objective:
            best_x, best_objective = scale * x, objective
        if best_objective - dual_bound <= GAP_TOLERANCE:
            break

    final_objective = float(np.mean(np.abs(A @ best_x - b)))
    slack = float(np.mean(np.maximum(np.abs(H @ best_x) - d, 0.0))) - tau
    tol = config.feasibility_tolerance
    report = TrainingReport(
        final_objective=final_objective,
        final_constraint_slack=max(slack, 0.0),
        iterations=iterations,
        converged=slack <= tol,
        derived_params={"feasibility_tolerance": tol},
        extras={"dual_bound": dual_bound, "certified_gap": final_objective - dual_bound},
    )
    return best_x, report
