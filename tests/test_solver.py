"""The primal-dual solver of the linear learner and the alternating
projected-subgradient solver of the kernel learner."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from metricfair import (
    InfeasibleError,
    ScaledEuclideanMetric,
    SolverConfig,
    TrainConfig,
    ValidationError,
    solve_annealed,
    solve_constrained,
    solve_pdhg,
    train_fair_linear,
)
from metricfair.solver import (
    GAP_TOLERANCE,
    feasible_scale,
    pdhg_dual_bound,
    project_excess_budget,
)


def disk_projection(w, step, direction):
    x = w - step * direction
    norm = float(np.linalg.norm(x))
    return x if norm <= 1.0 else x / norm


def l1_objective(w0):
    def objective(w):
        r = w - w0
        return float(np.sum(np.abs(r))), np.sign(r)

    return objective


def no_constraint(w):
    return -1.0, lambda: np.zeros_like(w)


def half_plane(a, b):
    def constraint(w):
        return float(a @ w - b), lambda: a

    return constraint


def disk_constraint(w):
    return float(np.linalg.norm(w)) - 0.5, lambda: w / np.linalg.norm(w)


# (objective, constraint, projection, start) of the toy programs below
TOY_PROGRAMS = {
    "unconstrained": (l1_objective(np.array([0.3, -0.2])), no_constraint, disk_projection,
                      np.zeros(2)),
    "linear, box": (lambda w: (float(-w[0]), np.array([-1.0])),
                    half_plane(np.array([1.0]), 0.3),
                    lambda w, step, direction: np.clip(w - step * direction, -1, 1),
                    np.zeros(1)),
    "half-plane": (l1_objective(np.array([0.7, 0.5])), half_plane(np.array([1.0, 2.0]), 0.6),
                   disk_projection, np.array([0.7, 0.5])),
    "disk": (l1_objective(np.array([0.7, 0.5])), disk_constraint, disk_projection,
             np.array([0.7, 0.5])),
}


class TestSolveConstrained:
    @pytest.mark.parametrize("name", sorted(TOY_PROGRAMS))
    def test_returns_the_feasible_iterate_of_least_objective(self, name):
        objective, constraint, project, start = TOY_PROGRAMS[name]
        cfg = SolverConfig(max_iters=300, step_c0=0.3)
        # the solver evaluates the objective on feasible iterates only
        feasible = []

        def recording(w):
            value, sub = objective(w)
            feasible.append((value, w.copy()))
            return value, sub

        w, report = solve_constrained(recording, constraint, project, cfg, start)
        assert len(feasible) == report.extras["n_feasible_iterates"] > 1
        assert all(constraint(x)[0] <= cfg.feasibility_tolerance for _, x in feasible)
        best_value, best_w = min(feasible, key=lambda f: f[0])
        assert np.array_equal(w, best_w)
        assert report.final_objective == best_value

    def test_unconstrained_minimum_interior(self):
        w0 = np.array([0.3, -0.2])
        cfg = SolverConfig(max_iters=1500, step_c0=0.3)
        w, report = solve_annealed(l1_objective(w0), no_constraint, disk_projection, cfg, np.zeros(2))
        assert np.allclose(w, w0, atol=1e-2)
        assert report.final_objective <= 1e-2
        assert report.converged

    def test_active_constraint_at_boundary(self):
        objective, constraint, project, start = TOY_PROGRAMS["linear, box"]
        cfg = SolverConfig(max_iters=1500, step_c0=0.3)
        w, report = solve_annealed(objective, constraint, project, cfg, start)
        assert w[0] == pytest.approx(0.3, abs=1e-2)
        assert report.final_constraint_slack <= cfg.feasibility_tolerance

    def test_random_piecewise_linear_vs_grid_oracle(self, rng):
        # min of a random max-of-affines with one affine constraint on the disk
        for trial in range(10):
            planes = rng.standard_normal((5, 2)) * 0.5
            offsets = rng.uniform(-0.2, 0.4, size=5)
            a = rng.standard_normal(2) * 0.5
            b = float(rng.uniform(0.05, 0.4))

            def objective(w):
                vals = planes @ w + offsets
                k = int(np.argmax(vals))
                return float(vals[k]), planes[k]

            def constraint(w):
                return float(a @ w - b), lambda: a

            cfg = SolverConfig(max_iters=2000, step_c0=0.4, seed=trial)
            w, report = solve_annealed(objective, constraint, disk_projection, cfg, np.zeros(2))

            axis = np.arange(-100, 101) / 100.0
            g1, g2 = np.meshgrid(axis, axis, indexing="ij")
            W = np.column_stack([g1.ravel(), g2.ravel()])
            W = W[np.linalg.norm(W, axis=1) <= 1.0]
            vals = np.max(planes @ W.T + offsets[:, None], axis=0)
            feasible = (W @ a) - b <= 0
            oracle = float(np.min(vals[feasible]))
            assert report.final_objective <= oracle + 0.02
            assert report.final_constraint_slack <= cfg.feasibility_tolerance

    def test_infeasible_reports_best_slack_point(self):
        def objective(w):
            return float(np.sum(w**2)), 2 * w

        def constraint(w):
            # infeasible everywhere on the domain: g >= 0.5
            return float(np.abs(w[0]) + 0.5), lambda: np.array([np.sign(w[0]), 0.0])

        cfg = SolverConfig(max_iters=50)
        with pytest.raises(InfeasibleError) as err:
            solve_constrained(objective, constraint, disk_projection, cfg, np.array([0.4, 0.0]))
        assert err.value.best_slack >= 0.5
        assert err.value.best_slack_point.shape == (2,)

    def test_determinism(self):
        w0 = np.array([0.1, 0.2])
        cfg = SolverConfig(max_iters=500, step_c0=0.3, seed=9)
        a, ra = solve_annealed(l1_objective(w0), no_constraint, disk_projection, cfg, np.zeros(2))
        b, rb = solve_annealed(l1_objective(w0), no_constraint, disk_projection, cfg, np.zeros(2))
        assert np.array_equal(a, b)
        assert ra.final_objective == rb.final_objective

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValidationError):
            SolverConfig(feasibility_tolerance=0.0)

    @pytest.mark.parametrize("c0", [0.0, -1.0, math.nan, math.inf])
    def test_step_constant_must_be_positive_and_finite(self, c0):
        with pytest.raises(ValidationError, match="step_c0 must be positive and finite"):
            SolverConfig(step_c0=c0)

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
    def test_feasibility_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValidationError, match="feasibility_tolerance"):
            SolverConfig(feasibility_tolerance=tol)

    def test_annealing_is_three_chained_stages_with_shrinking_steps(self):
        # the l1 minimum w0 lies outside the half-plane a.w <= b, so every
        # stage moves and the stages end at different objectives
        objective, constraint, _, w0 = TOY_PROGRAMS["half-plane"]
        cfg = SolverConfig(max_iters=300, step_c0=0.3)
        point, stages = w0, []
        for c0 in (0.3, 0.3 / 5, 0.3 / 25):
            point, report = solve_constrained(
                objective, constraint, disk_projection, replace(cfg, step_c0=c0), point)
            stages.append((point, report))
        best_w, best_report = min(stages, key=lambda s: s[1].final_objective)
        iterations = sum(r.iterations for _, r in stages)

        w, report = solve_annealed(objective, constraint, disk_projection, cfg, w0)
        assert np.array_equal(w, best_w)
        assert report == replace(best_report, iterations=iterations)


class TestLazyConstraintSubgradient:
    """A constraint returns its subgradient as a zero-argument callable."""

    @staticmethod
    def run(solve, lazy):
        # the l1 minimum w0 lies outside the disk ||w|| <= r, so the iterates
        # keep crossing the boundary and many steps are infeasible. The lazy
        # subgradient reads the iterate of the latest constraint call, so it
        # matches the array computed eagerly only if the solver calls it
        # before it evaluates the constraint again.
        r = 0.5
        seen = []
        calls = []

        def constraint(w):
            seen.append(w.copy())
            value = float(np.linalg.norm(w)) - r
            if not lazy:
                sub = w / np.linalg.norm(w)
                return value, lambda: sub

            def subgradient():
                calls.append(1)
                return seen[-1] / np.linalg.norm(seen[-1])

            return value, subgradient

        cfg = SolverConfig(max_iters=300, step_c0=0.3)
        w0 = np.array([0.7, 0.5])
        w, report = solve(l1_objective(w0), constraint, disk_projection, cfg, w0)
        return w, report, seen, len(calls)

    @pytest.mark.parametrize("solve", [solve_constrained, solve_annealed])
    def test_same_iterates_and_report_as_an_array(self, solve):
        w_eager, r_eager, seen_eager, _ = self.run(solve, lazy=False)
        w_lazy, r_lazy, seen_lazy, _ = self.run(solve, lazy=True)
        assert np.array_equal(w_lazy, w_eager)
        assert r_lazy == r_eager
        assert len(seen_lazy) == len(seen_eager)
        assert all(np.array_equal(x, y) for x, y in zip(seen_lazy, seen_eager))

    def test_called_once_per_infeasible_iterate(self):
        _, report, _, calls = self.run(solve_constrained, lazy=True)
        assert 0 < calls == report.iterations - report.extras["n_feasible_iterates"]


def excess_sum(z, d):
    return float(np.sum(np.maximum(np.abs(z) - d, 0.0)))


def random_budget_instance(seed, E, fraction):
    """v, d and a budget of `fraction` times v's total excess; some d are 0."""
    rng = np.random.default_rng(seed)
    v = 2.0 * rng.standard_normal(E)
    d = np.where(rng.random(E) < 0.2, 0.0, rng.uniform(0.0, 1.0, E))
    return v, d, fraction * excess_sum(v, d)


def bisection_projection(v, d, budget):
    """Soft-threshold the excesses by the theta that bisection finds."""
    excess = np.maximum(np.abs(v) - d, 0.0)
    if excess.sum() <= budget:
        return v.copy()
    lo, hi = 0.0, float(excess.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(excess - mid, 0.0).sum() > budget:
            lo = mid
        else:
            hi = mid
    return np.sign(v) * np.minimum(np.abs(v), d + np.maximum(excess - hi, 0.0))


class TestExcessBudgetProjection:
    """P_C projects onto C = {z : sum(max(|z_e| - d_e, 0)) <= budget}."""

    @given(seed=st.integers(0, 2**16), E=st.integers(1, 30), fraction=st.floats(0.0, 1.5))
    def test_matches_bisection_and_is_a_projection(self, seed, E, fraction):
        v, d, budget = random_budget_instance(seed, E, fraction)
        z = project_excess_budget(v, d, budget)
        assert np.allclose(z, bisection_projection(v, d, budget), rtol=0.0, atol=1e-9)
        assert excess_sum(z, d) <= budget + 1e-9
        assert np.allclose(project_excess_budget(z, d, budget), z, rtol=0.0, atol=1e-9)
        # v - P_C(v) makes an obtuse angle with every direction into C
        rng = np.random.default_rng(seed + 1)
        for _ in range(20):
            inside = project_excess_budget(3.0 * rng.standard_normal(E), d, budget)
            assert float((v - z) @ (inside - z)) <= 1e-9

    @given(seed=st.integers(0, 2**16), E=st.integers(1, 30))
    def test_feasible_input_is_returned_unchanged(self, seed, E):
        v, d, budget = random_budget_instance(seed, E, 1.0)
        assert np.array_equal(project_excess_budget(v, d, budget), v)

    def test_zero_budget_clips_every_coordinate_to_its_distance(self):
        v, d = np.array([2.0, -0.5, 0.1]), np.array([1.0, 0.2, 0.3])
        assert np.array_equal(project_excess_budget(v, d, 0.0), [1.0, -0.2, 0.1])


def random_program(seed, m=12, n=3, E=6):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    H = rng.standard_normal((E, n))
    d = np.where(rng.random(E) < 0.3, 0.0, rng.uniform(0.0, 1.0, E))
    tau = float(rng.uniform(0.0, 0.5))
    return rng, A, b, H, d, tau


def slack_of(x, H, d, tau):
    return float(np.mean(np.maximum(np.abs(H @ x) - d, 0.0))) - tau


class TestFeasibleScale:
    @given(seed=st.integers(0, 2**16), spread=st.floats(0.1, 10.0))
    def test_restored_point_is_feasible_and_the_scale_is_the_largest(self, seed, spread):
        rng, _, _, H, d, tau = random_program(seed)
        x = spread * rng.standard_normal(H.shape[1])
        scale = feasible_scale(H @ x, d, tau)
        assert 0.0 <= scale <= 1.0
        assert slack_of(scale * x, H, d, tau) <= 0.0
        if scale < 1.0:
            # a slightly longer step leaves the budget
            assert slack_of(scale * (1.0 + 1e-9) * x, H, d, tau) > 0.0
        else:
            assert slack_of(x, H, d, tau) <= 0.0


class TestDualBound:
    @given(seed=st.integers(0, 2**16), q_scale=st.floats(0.0, 10.0))
    def test_never_exceeds_a_feasible_objective(self, seed, q_scale):
        rng, A, b, H, d, tau = random_program(seed)
        m = len(b)
        p = rng.uniform(-1.0 / m, 1.0 / m, m)
        q = q_scale * rng.standard_normal(len(d))
        bound = pdhg_dual_bound(A.T @ p + H.T @ q, p, q, b, d, len(d) * tau, 1.0)
        for _ in range(20):
            x = rng.standard_normal(A.shape[1])
            x *= rng.random() / float(np.linalg.norm(x))
            x *= feasible_scale(H @ x, d, tau)
            assert bound <= float(np.mean(np.abs(A @ x - b))) + 1e-12


class TestSolvePdhg:
    # some draws need a few thousand iterations
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_certifies_small_programs(self, seed):
        _, A, b, H, d, tau = random_program(seed)
        x, report = solve_pdhg(A, b, H, d, tau, 1.0, SolverConfig(max_iters=20000))
        assert float(np.linalg.norm(x)) <= 1.0 + 1e-12
        assert slack_of(x, H, d, tau) <= 0.0 and report.final_constraint_slack == 0.0
        assert report.converged
        assert report.final_objective == float(np.mean(np.abs(A @ x - b)))
        assert report.extras["certified_gap"] <= GAP_TOLERANCE
        assert report.iterations < 20000

    def binding_run(self, max_iters):
        ds = random_dataset(np.random.default_rng(4), 60, 3)
        cfg = TrainConfig(alpha=0.3, gamma=0.4, eps_alpha=0.2, eps_gamma=0.2,
                          solver=SolverConfig(max_iters=max_iters, seed=0))
        return train_fair_linear(ds, ScaledEuclideanMetric(0.05), cfg, tau=0.005)

    def test_capped_binding_run_is_feasible_and_reports_its_gap(self):
        _, full = self.binding_run(3000)
        _, capped = self.binding_run(5)
        assert full.extras["certified_gap"] <= GAP_TOLERANCE < capped.extras["certified_gap"]
        assert capped.iterations == 5 and capped.converged
        assert capped.final_constraint_slack == 0.0
        assert capped.extras["certified_gap"] == (
            capped.final_objective - capped.extras["dual_bound"])
        # both bounds hold across the runs
        assert capped.extras["dual_bound"] <= full.final_objective
        assert full.extras["dual_bound"] <= capped.final_objective

    def test_deterministic(self):
        (a, ra), (b, rb) = self.binding_run(200), self.binding_run(200)
        assert np.array_equal(a.weights, b.weights) and ra == rb

    def test_needs_an_edge(self):
        with pytest.raises(ValidationError, match="at least one edge"):
            solve_pdhg(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0), 0.1, 1.0,
                       SolverConfig())
