"""Fairness-constrained linear and kernelized training."""

from unittest import mock

import numpy as np
import pytest

from conftest import random_dataset, random_metric
from metricfair import solver
from metricfair import (
    ConstantMetric,
    Consecutive,
    KernelLearner,
    LabeledDataset,
    LinearPredictor,
    SampleTooSmallError,
    ScaledEuclideanMetric,
    SolverConfig,
    TrainConfig,
    ValidationError,
    VovkHalfKernel,
    brute_force_oracle_2d,
    build_matching,
    default_matching,
    derive_solver_params,
    empirical_l1_loss,
    empirical_mf_loss,
    gram_matrix,
    resolve_kernel_B,
    train_fair_kernel,
    train_fair_linear,
)


def linear_config(**kw):
    defaults = dict(alpha=0.3, gamma=0.4, eps_alpha=0.2, eps_gamma=0.2,
                    solver=SolverConfig(max_iters=1200, seed=0))
    defaults.update(kw)
    return TrainConfig(**defaults)


def separable_1d():
    return LabeledDataset(np.array([[1.0], [-1.0]]), np.array([1, -1]))


class TestDeriveParams:
    def test_theoretical_mode_rejects_dominating_rho(self):
        cfg = TrainConfig(alpha=0.2, gamma=0.3, eps_alpha=0.1, eps_gamma=0.1,
                          delta=0.05, mode="theoretical")
        with pytest.raises(SampleTooSmallError, match="sample too small"):
            derive_solver_params(cfg, 10**6 + 1)

    def test_empirical_mode_budgets(self):
        cfg = TrainConfig(alpha=0.2, gamma=0.3, eps_alpha=0.1, eps_gamma=0.1, delta=0.05)
        params = derive_solver_params(cfg, 10**6 + 1)
        assert params.G == pytest.approx(20.0)
        assert params.gamma_tilde == pytest.approx(0.25)
        assert params.alpha_tilde == pytest.approx(0.05)
        assert params.tau == pytest.approx(0.05)
        assert params.rho == pytest.approx(1.80974, abs=1e-5)

    def test_gamma_tilde_monotone_in_eps_gamma(self):
        # 1/G = min(eps_alpha, eps_gamma/2), so a larger eps_gamma can only
        # grow the subtracted slack: gamma_tilde is nonincreasing
        tildes = []
        for eg in (0.1, 0.2, 0.4, 0.8):
            cfg = TrainConfig(alpha=0.2, gamma=0.4, eps_alpha=0.3, eps_gamma=eg)
            tildes.append(derive_solver_params(cfg, 101).gamma_tilde)
        assert all(a >= b for a, b in zip(tildes, tildes[1:]))
        # and it is exactly flat once eps_alpha dominates the min
        cfg_a = TrainConfig(alpha=0.2, gamma=0.4, eps_alpha=0.05, eps_gamma=0.4)
        cfg_b = TrainConfig(alpha=0.2, gamma=0.4, eps_alpha=0.05, eps_gamma=0.8)
        assert derive_solver_params(cfg_a, 101).gamma_tilde == derive_solver_params(
            cfg_b, 101
        ).gamma_tilde

    def test_gamma_below_slack_rejected(self):
        cfg = TrainConfig(alpha=0.2, gamma=0.05, eps_alpha=0.1, eps_gamma=0.1)
        with pytest.raises(SampleTooSmallError):
            derive_solver_params(cfg, 101)

    def test_kernel_uses_eps_in_slope(self):
        cfg = TrainConfig(alpha=0.2, gamma=0.3, eps=0.02, eps_alpha=0.1, eps_gamma=0.1,
                          learner=KernelLearner(B=10.0))
        assert derive_solver_params(cfg, 101, B=10.0).G == pytest.approx(50.0)

    def test_theoretical_mode_succeeds_at_astronomical_m(self):
        # the conservative constants demand enormous samples; at m = 10^9 the
        # margin finally fits inside alpha and the derived budget is positive
        cfg = TrainConfig(alpha=0.9, gamma=0.3, eps_alpha=0.2, eps_gamma=0.2,
                          delta=0.05, mode="theoretical")
        params = derive_solver_params(cfg, 10**9 + 1)
        assert params.rho < cfg.alpha
        assert params.alpha_tilde == pytest.approx((0.9 - params.rho) * params.gamma_tilde)
        assert 0.0 < params.tau < 1.0


class TestTrainLinear:
    def test_vacuous_constraint_matches_unconstrained_fit(self):
        pred, report = train_fair_linear(separable_1d(), ConstantMetric(1.0), linear_config())
        assert pred.weights[0] > 0.9
        assert report.final_objective < 0.05

    def test_zero_budget_forces_constant(self):
        pred, report = train_fair_linear(
            separable_1d(), ConstantMetric(0.0), linear_config(), tau=0.0
        )
        assert abs(pred.weights[0]) < 1e-5
        assert report.final_objective == pytest.approx(0.5, abs=1e-5)
        assert report.final_constraint_slack <= 1e-6

    def test_fairness_postcondition(self, rng):
        for trial in range(10):
            ds = random_dataset(rng, 16, 3)
            d = random_metric(rng)
            cfg = linear_config(solver=SolverConfig(max_iters=800, seed=trial))
            pred, report = train_fair_linear(ds, d, cfg)
            params = derive_solver_params(cfg, len(ds))
            M = default_matching(ds, trial)
            mf = empirical_mf_loss(pred, ds, M, d, params.gamma_tilde)
            tol = cfg.solver.feasibility_tolerance
            assert mf <= params.tau / params.gamma_tilde + tol / params.gamma_tilde + 1e-12
            assert report.empirical_mf_loss == mf

    def test_determinism_bitwise(self, rng):
        ds = random_dataset(rng, 12, 3)
        cfg = linear_config()
        a, _ = train_fair_linear(ds, ScaledEuclideanMetric(0.5), cfg)
        b, _ = train_fair_linear(ds, ScaledEuclideanMetric(0.5), cfg)
        assert np.array_equal(a.weights, b.weights)

    def test_relaxed_competitiveness_against_l0_fair_predictors(self, rng):
        # random competitors that are (tau - sigma, sigma)-fair on the sample
        # lie inside the solver's feasible set, so the trained objective must
        # not lose to them by more than the optimization tolerance
        ds = random_dataset(rng, 20, 2)
        d = ConstantMetric(0.1)
        cfg = linear_config(alpha=0.5, gamma=0.5, gamma_star=0.02,
                            solver=SolverConfig(max_iters=2000, seed=3))
        pred, report = train_fair_linear(ds, d, cfg)
        params = derive_solver_params(cfg, len(ds))
        M = default_matching(ds, 3)
        y01 = ds.targets01
        sigma = cfg.gamma_star
        found = 0
        for _ in range(400):
            w = rng.standard_normal(2)
            w *= rng.random() / max(np.linalg.norm(w), 1e-12)
            competitor = LinearPredictor(w)
            if empirical_mf_loss(competitor, ds, M, d, sigma) <= params.tau - sigma:
                found += 1
                comp_obj = float(np.mean(np.abs(competitor.predict_batch(ds.features) - y01)))
                assert report.final_objective <= comp_obj + 0.02
        assert found > 0


class TestOracle:
    def test_separable_instance(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.9, 0.1], [-0.9, -0.1]])
        ds = LabeledDataset(X, np.array([1, -1, 1, -1]))
        w, obj = brute_force_oracle_2d(ds, ConstantMetric(1.0), linear_config(), 0.01)
        assert w[0] > 0.9
        assert obj < 0.06

    def test_refinement_never_hurts(self, rng):
        ds = random_dataset(rng, 10, 2)
        d = ConstantMetric(0.15)
        cfg = linear_config()
        _, coarse = brute_force_oracle_2d(ds, d, cfg, 0.08)
        _, fine = brute_force_oracle_2d(ds, d, cfg, 0.04)
        assert fine <= coarse + 1e-12

    def test_oracle_vs_solver_both_directions(self, rng):
        for trial in range(8):
            ds = random_dataset(rng, int(rng.integers(8, 17)), 2)
            d = random_metric(rng)
            cfg = linear_config(solver=SolverConfig(max_iters=1200, seed=trial))
            pred, report = train_fair_linear(ds, d, cfg)
            _, oracle_obj = brute_force_oracle_2d(ds, d, cfg, 0.01)
            assert report.final_objective <= oracle_obj + 0.02
            assert oracle_obj <= report.final_objective + 0.02

    def test_rejects_wrong_dimension(self, rng):
        ds = random_dataset(rng, 8, 3)
        with pytest.raises(ValidationError):
            brute_force_oracle_2d(ds, ConstantMetric(0.5), linear_config(), 0.05)


class TestConvexity:
    def test_midpoint_feasibility_and_objective(self, rng):
        for _ in range(60):
            ds = random_dataset(rng, 12, 3)
            d = random_metric(rng)
            M = default_matching(ds, 1)
            y01 = ds.targets01

            def l1_of(w):
                return empirical_l1_loss(LinearPredictor(w), ds, M, d)

            def obj_of(w):
                return float(np.mean(np.abs(LinearPredictor(w).predict_batch(ds.features) - y01)))

            w1 = rng.standard_normal(3)
            w1 *= rng.random() / max(np.linalg.norm(w1), 1e-12)
            w2 = rng.standard_normal(3)
            w2 *= rng.random() / max(np.linalg.norm(w2), 1e-12)
            tau = max(l1_of(w1), l1_of(w2))
            mid = 0.5 * (w1 + w2)
            assert l1_of(mid) <= tau + 1e-9
            assert obj_of(mid) <= 0.5 * (obj_of(w1) + obj_of(w2)) + 1e-9


class TestGram:
    def test_zero_points_give_all_ones(self):
        ds = LabeledDataset(np.zeros((4, 2)), np.array([1, -1, 1, -1]))
        assert np.allclose(gram_matrix(ds, VovkHalfKernel()), np.ones((4, 4)))

    def test_antipodal_unit_vectors(self):
        ds = LabeledDataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]))
        K = gram_matrix(ds, VovkHalfKernel())
        assert np.allclose(np.diag(K), 2.0)
        assert K[0, 1] == pytest.approx(2.0 / 3.0)

    def test_random_sample_psd(self, rng):
        ds = random_dataset(rng, 30, 3)
        K = gram_matrix(ds, VovkHalfKernel())
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-8 * eigs.max()


class TestTrainKernel:
    def kernel_config(self, **kw):
        defaults = dict(alpha=0.3, gamma=0.4, eps_alpha=0.2, eps_gamma=0.2,
                        learner=KernelLearner(B=1e4),
                        solver=SolverConfig(max_iters=1000, seed=0))
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_representer_consistency(self, rng):
        ds = random_dataset(rng, 12, 2)
        pred, _ = train_fair_kernel(ds, ConstantMetric(1.0), self.kernel_config())
        K = gram_matrix(ds, VovkHalfKernel())
        assert np.max(np.abs(K @ pred.beta - pred.raw_batch(ds.features))) <= 1e-9

    def test_zero_budget_equalizes_matched_pair(self):
        X = np.array([[0.6, 0.1], [-0.5, 0.3]])
        ds = LabeledDataset(X, np.array([1, -1]))
        cfg = self.kernel_config(solver=SolverConfig(max_iters=1500, seed=0,
                                                     feasibility_tolerance=1e-6))
        pred, report = train_fair_kernel(
            ds, ConstantMetric(0.0), cfg, matching=build_matching(ds, Consecutive()), tau=0.0
        )
        raw = pred.raw_batch(ds.features)
        assert abs(raw[0] - raw[1]) <= 1e-6
        assert np.std(pred.predict_batch(ds.features)) <= 1e-6

    def test_norm_ball_respected(self, rng):
        ds = random_dataset(rng, 10, 2)
        cfg = self.kernel_config(learner=KernelLearner(B=2.0))
        pred, _ = train_fair_kernel(ds, ConstantMetric(0.2), cfg)
        K = gram_matrix(ds, VovkHalfKernel())
        assert pred.beta @ K @ pred.beta <= 2.0 + 1e-9

    def test_determinism_bitwise(self, rng):
        ds = random_dataset(rng, 10, 2)
        cfg = self.kernel_config()
        a, _ = train_fair_kernel(ds, ConstantMetric(0.3), cfg)
        b, _ = train_fair_kernel(ds, ConstantMetric(0.3), cfg)
        assert np.array_equal(a.beta, b.beta)

    def test_B_derivation_is_capped(self):
        learner = KernelLearner(L=3.0, b_max=1e4)
        b_raw, b_used = resolve_kernel_B(learner, 0.5)
        assert b_raw > 1e30
        assert b_used == 1e4

    def test_requires_kernel_learner(self, rng):
        ds = random_dataset(rng, 8, 2)
        with pytest.raises(ValidationError):
            train_fair_kernel(ds, ConstantMetric(0.5), linear_config())

    def test_learner_spec_needs_B_or_L(self):
        with pytest.raises(ValidationError):
            KernelLearner()


class TestLazyConstraintSubgradient:
    """Both learners return the constraint subgradient as a callable, which
    the solver evaluates once per infeasible iterate and never otherwise,
    and which returns the gradient of the piecewise-linear constraint."""

    @pytest.mark.parametrize("train, learner", [
        (train_fair_linear, None),
        (train_fair_kernel, KernelLearner(B=1e4)),
        (train_fair_kernel, KernelLearner(B=1e4, init="zeros")),
    ])
    def test_exact_and_evaluated_once_per_infeasible_iterate(self, rng, train, learner):
        solve = solver.solve_constrained
        tallies = []
        slopes = []
        directions = np.random.default_rng(0)

        def counting_solve(objective, constraint, project, config, initial_point):
            calls = []

            def counted(w):
                value, sub = constraint(w)
                assert callable(sub)

                def subgradient():
                    calls.append(1)
                    grad = sub()
                    v = directions.standard_normal(w.shape)
                    v *= 1e-6 * max(1.0, float(np.linalg.norm(w))) / float(np.linalg.norm(v))
                    for step in (v, -v):
                        slopes.append((constraint(w + step)[0] - value, float(grad @ step)))
                    return grad

                return value, subgradient

            w, report = solve(objective, counted, project, config, initial_point)
            infeasible = report.iterations - report.extras["n_feasible_iterates"]
            tallies.append((len(calls), infeasible))
            return w, report

        extra = {} if learner is None else {"learner": learner}
        cfg = linear_config(solver=SolverConfig(max_iters=400, seed=0), **extra)
        with mock.patch.object(solver, "solve_constrained", counting_solve):
            train(random_dataset(rng, 16, 3), ScaledEuclideanMetric(0.2), cfg, tau=0.01)
        assert len(tallies) == 3
        assert all(calls == infeasible for calls, infeasible in tallies)
        assert sum(calls for calls, _ in tallies) > 0
        # for a subgradient grad of the convex constraint c,
        # c(w + step) >= c(w) + grad . step at step = +v and -v; c is
        # piecewise linear, so where no kink lies within v both hold with
        # equality, and only the true gradient satisfies both
        for change, predicted in slopes:
            assert change >= predicted - 1e-5 * abs(predicted) - 1e-15
