"""The alternating projected-subgradient solver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from metricfair import (
    InfeasibleError,
    SolverConfig,
    ValidationError,
    solve_annealed,
    solve_constrained,
)


def disk_projection(w):
    norm = float(np.linalg.norm(w))
    return w if norm <= 1.0 else w / norm


def l1_objective(w0):
    def objective(w):
        r = w - w0
        return float(np.sum(np.abs(r))), np.sign(r)

    return objective


def no_constraint(w):
    return -1.0, np.zeros_like(w)


class TestSolveConstrained:
    def test_unconstrained_minimum_interior(self):
        w0 = np.array([0.3, -0.2])
        cfg = SolverConfig(max_iters=1500, step_c0=0.3)
        w, report = solve_annealed(l1_objective(w0), no_constraint, disk_projection, cfg, np.zeros(2))
        assert np.allclose(w, w0, atol=1e-2)
        assert report.final_objective <= 1e-2
        assert report.converged

    def test_active_constraint_at_boundary(self):
        def objective(w):
            return float(-w[0]), np.array([-1.0])

        def constraint(w):
            return float(w[0] - 0.3), np.array([1.0])

        cfg = SolverConfig(max_iters=1500, step_c0=0.3)
        w, report = solve_annealed(
            objective, constraint, lambda w: np.clip(w, -1, 1), cfg, np.zeros(1)
        )
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
                return float(a @ w - b), a

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
            return float(np.abs(w[0]) + 0.5), np.array([np.sign(w[0]), 0.0])

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
        a, b = np.array([1.0, 2.0]), 0.6
        w0 = np.array([0.7, 0.5])
        objective = l1_objective(w0)

        def constraint(w):
            return float(a @ w - b), a

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
    """A constraint may return its subgradient as a zero-argument callable."""

    @staticmethod
    def run(solve, lazy):
        # the l1 minimum w0 lies outside the half-plane a.w <= b, so the
        # iterates keep crossing the boundary and many steps are infeasible
        a, b = np.array([1.0, 2.0]), 0.6
        seen = []
        calls = []

        def constraint(w):
            seen.append(w.copy())
            value, sub = float(a @ w - b), a.copy()
            if not lazy:
                return value, sub

            def subgradient():
                calls.append(1)
                return sub

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
