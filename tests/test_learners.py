"""Fairness-constrained linear and kernelized training."""

from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import scalar_reference as scalar
from conftest import random_dataset, random_metric, unit_ball_points
from grid_oracle import brute_force_oracle_2d
from metricfair import core, learners, solver
from metricfair import (
    ConstantMetric,
    Consecutive,
    KernelLearner,
    LabeledDataset,
    LinearPredictor,
    Matching,
    SampleTooSmallError,
    ScaledEuclideanMetric,
    SolverConfig,
    TrainConfig,
    ValidationError,
    VovkHalfKernel,
    build_matching,
    default_matching,
    derive_solver_params,
    empirical_l1_loss,
    empirical_mf_loss,
    gram_matrix,
    matching_edges,
    train_fair_kernel,
    train_fair_linear,
    uniform_convergence_rho,
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
                          delta=0.05, theory_mode="theoretical")
        with pytest.raises(SampleTooSmallError, match="sample too small"):
            derive_solver_params(cfg, 10**6 + 1)

    def test_empirical_mode_budgets(self):
        cfg = TrainConfig(alpha=0.2, gamma=0.3, eps_alpha=0.1, eps_gamma=0.1, delta=0.05)
        params = derive_solver_params(cfg, 10**6 + 1)
        assert params.G == pytest.approx(20.0)
        assert params.gamma_tilde == pytest.approx(0.25)
        assert params.tau == pytest.approx(0.05)
        assert params.tau_theoretical == pytest.approx((0.2 - params.rho) * 0.25)
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
        assert derive_solver_params(cfg, 101).G == pytest.approx(50.0)

    def test_kernel_margin_reads_the_learners_B(self):
        cfg = TrainConfig(alpha=0.2, gamma=0.3, learner=KernelLearner(B=10.0))
        params = derive_solver_params(cfg, 101)
        assert params.rho == uniform_convergence_rho(params.G, cfg.delta, 101, B=10.0)
        wider = replace(cfg, learner=KernelLearner(B=1e4))
        assert derive_solver_params(wider, 101).rho > params.rho

    def test_theoretical_mode_succeeds_at_astronomical_m(self):
        # the conservative constants demand enormous samples; at m = 10^9 the
        # margin finally fits inside alpha and the derived budget is positive
        cfg = TrainConfig(alpha=0.9, gamma=0.3, eps_alpha=0.2, eps_gamma=0.2,
                          delta=0.05, theory_mode="theoretical")
        params = derive_solver_params(cfg, 10**9 + 1)
        assert params.rho < cfg.alpha
        assert params.tau == params.tau_theoretical
        assert params.tau == pytest.approx((0.9 - params.rho) * params.gamma_tilde)
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
        # not lose to them by more than the optimization tolerance; sigma is
        # the competitors' slack
        ds = random_dataset(rng, 20, 2)
        d = ConstantMetric(0.1)
        cfg = linear_config(alpha=0.5, gamma=0.5, solver=SolverConfig(max_iters=2000, seed=3))
        pred, report = train_fair_linear(ds, d, cfg)
        params = derive_solver_params(cfg, len(ds))
        M = default_matching(ds, 3)
        y01 = ds.targets01
        sigma = 0.02
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


class TestMatchingEdges:
    """Every consumer of a matching rejects one with no edges, or one built
    for a sample of another size, before it builds a Gram matrix or calls a
    solver."""

    CONSUMERS = {
        "linear": lambda S, d, M: train_fair_linear(S, d, linear_config(), matching=M),
        "kernel": lambda S, d, M: train_fair_kernel(
            S, d, linear_config(learner=KernelLearner(B=10.0)), matching=M),
        "oracle": lambda S, d, M: brute_force_oracle_2d(S, d, linear_config(), 0.05, matching=M),
    }

    @pytest.mark.parametrize("matching, message", [
        (Matching([], [], 10), "matching has no edges"),
        (Matching([0, 2], [1, 3], 12), "matching does not belong to this dataset"),
    ], ids=["empty", "foreign"])
    @pytest.mark.parametrize("consumer", sorted(CONSUMERS))
    def test_rejected_before_training(self, rng, consumer, matching, message):
        S = random_dataset(rng, 10, 2)
        with mock.patch.object(learners, "gram_matrix") as gram, \
                mock.patch.object(learners, "solve_pdhg") as pdhg, \
                mock.patch.object(learners, "solve_annealed") as annealed:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                self.CONSUMERS[consumer](S, ConstantMetric(0.5), matching)
        assert not (gram.called or pdhg.called or annealed.called)


@pytest.mark.parametrize("tau", [-0.1, float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize("learner", [None, KernelLearner(B=10.0)], ids=["linear", "kernel"])
def test_negative_or_nan_budget_override_rejected_before_training(rng, learner, tau):
    # under ConstantMetric(1.0) no edge can be unfair, so nothing but the
    # check stands between a bad tau and the solvers
    S = random_dataset(rng, 20, 2)
    config = linear_config() if learner is None else linear_config(learner=learner)
    train = train_fair_linear if learner is None else train_fair_kernel
    with mock.patch.object(learners, "gram_matrix") as gram, \
            mock.patch.object(learners, "solve_pdhg") as pdhg, \
            mock.patch.object(learners, "solve_annealed") as annealed:
        with pytest.raises(ValidationError, match=f"^the fairness budget must be >= 0, got {tau}$"):
            train(S, ConstantMetric(1.0), config, tau=tau)
    assert not (gram.called or pdhg.called or annealed.called)


@pytest.mark.parametrize("learner", [None, KernelLearner(B=10.0)], ids=["linear", "kernel"])
def test_a_training_measures_its_matching_once(rng, learner):
    # the report's loss reads the edge distances the program already holds,
    # and equals the loss measured afresh
    S = random_dataset(rng, 40, 3)
    d = ScaledEuclideanMetric(0.2)
    config = linear_config(solver=SolverConfig(max_iters=200, seed=0))
    if learner is not None:
        config = linear_config(learner=learner, solver=SolverConfig(max_iters=200, seed=0))
    train = train_fair_linear if learner is None else train_fair_kernel
    with mock.patch.object(ScaledEuclideanMetric, "pair_distances", autospec=True,
                           side_effect=ScaledEuclideanMetric.pair_distances) as measured:
        predictor, report = train(S, d, config)
    assert measured.call_count == 1
    M = default_matching(S, config.solver.seed)
    gamma = report.derived_params["gamma_tilde"]
    assert report.empirical_mf_loss == empirical_mf_loss(predictor, S, M, d, gamma)


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(1, 300), n=st.integers(1, 300),
           rows=st.sampled_from(["random", "duplicated", "near-identical", "norm 1 + tolerance"]))
    def test_vovk_gram_is_psd_within_its_rounding_bound(self, seed, m, n, rows):
        # the exact gram sum_k (<x, y>/2)^k is PSD (Schur product theorem);
        # each computed entry errs by at most about 2(n + 2)u relative and
        # lies in [2/3, 2], so lambda_min >= -6(n + 2)u lambda_max, far
        # inside PSD_TOLERANCE. Duplicated and near-identical rows make K
        # singular or nearly so; rows of norm 1 + NORM_TOLERANCE (less a
        # rounding margin) put its entries at the sup value
        rng = np.random.default_rng(seed)
        X = unit_ball_points(rng, m, n)
        if rows in ("duplicated", "near-identical"):
            X = X[rng.integers(0, max(1, m // 3), m)]
            if rows == "near-identical":
                X += 1e-12 * rng.standard_normal((m, n))
        elif rows == "norm 1 + tolerance":
            X *= (1.0 + core.NORM_TOLERANCE - 1e-13) / np.linalg.norm(X, axis=1, keepdims=True)
        K = gram_matrix(LabeledDataset(X, np.ones(m)), VovkHalfKernel())
        bound = 6 * (n + 2) * np.finfo(np.float64).eps / 2
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -bound * eigs.max()
        assert bound <= core.PSD_TOLERANCE
        core.check_psd(K)

    @pytest.mark.parametrize("m", [30, 300])
    def test_certified_in_place_and_built_again_in_the_same_storage(self, rng, m):
        # m = 300 spans three Cholesky panels
        ds = random_dataset(rng, m, 5)
        factored = []
        factor = core._cholesky_lower

        def recording_factor(a):
            factored.append(a)
            return factor(a)

        with mock.patch.object(core, "_cholesky_lower", recording_factor):
            K = gram_matrix(ds, VovkHalfKernel())
        assert np.array_equal(K, VovkHalfKernel().cross(ds.features, ds.features))
        assert len(factored) == 1 and factored[0] is K


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

    def test_report_reads_the_learners_own_raw_scores(self, rng):
        # the gram is built twice (certified in place, then afresh in the
        # same storage); the report's predictions on S are the clipped K beta
        # the learner computes for its objective, not a third build through
        # the predictor, and bit for bit what the predictor gives
        ds = random_dataset(rng, 60, 3)
        d = ScaledEuclideanMetric(0.2)
        cfg = self.kernel_config(solver=SolverConfig(max_iters=200, seed=0))
        cross, loss = VovkHalfKernel.cross, learners.empirical_mf_loss
        crossed, predictions = [], []

        def counting_cross(kernel, xs, ys, out=None):
            crossed.append(len(xs))
            return cross(kernel, xs, ys, out)

        def recording_loss(*args, values=None, **kwargs):
            predictions.append(values)
            return loss(*args, values=values, **kwargs)

        with mock.patch.object(VovkHalfKernel, "cross", counting_cross), \
                mock.patch.object(learners, "empirical_mf_loss", recording_loss):
            pred, report = train_fair_kernel(ds, d, cfg)
        assert crossed == [60, 60]
        (values,) = predictions
        assert np.array_equal(values, pred.predict_batch(ds.features))
        M = default_matching(ds, cfg.solver.seed)
        expected = empirical_mf_loss(pred, ds, M, d, report.derived_params["gamma_tilde"])
        assert report.empirical_mf_loss == expected > 0

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

    def test_requires_kernel_learner(self, rng):
        ds = random_dataset(rng, 8, 2)
        with pytest.raises(ValidationError):
            train_fair_kernel(ds, ConstantMetric(0.5), linear_config())

    def test_learner_spec_needs_B(self):
        assert [f.name for f in fields(KernelLearner)] == ["B"]
        with pytest.raises(TypeError):
            KernelLearner()

    @pytest.mark.parametrize("B, message", [
        (float("nan"), "B must not be NaN"),
        (-1.0, "B must be positive, got -1.0"),
        (0.0, "B must be positive, got 0.0"),
        (float("-inf"), "B must be positive, got -inf"),
    ])
    def test_learner_spec_rejects_nan_and_non_positive_cap(self, B, message):
        with pytest.raises(ValidationError, match=message):
            KernelLearner(B=B)


class TestLazyConstraintSubgradient:
    """The kernel learner returns the constraint subgradient as a callable,
    which the solver evaluates once per infeasible iterate and never
    otherwise, and which returns the gradient of the piecewise-linear
    constraint. (The linear learner trains with solve_pdhg, whose pieces are
    tested in test_solver.py.)"""

    def test_exact_and_evaluated_once_per_infeasible_iterate(self, rng):
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

        cfg = linear_config(solver=SolverConfig(max_iters=400, seed=0),
                            learner=KernelLearner(B=1e4))
        with mock.patch.object(solver, "solve_constrained", counting_solve):
            train_fair_kernel(random_dataset(rng, 16, 3), ScaledEuclideanMetric(0.2), cfg,
                              tau=0.01)
        assert len(tallies) == 3
        assert all(calls == infeasible for calls, infeasible in tallies)
        assert sum(calls for calls, _ in tallies) > 0
        # for a subgradient grad of the convex constraint c,
        # c(w + step) >= c(w) + grad . step at step = +v and -v; c is
        # piecewise linear, so where no kink lies within v both hold with
        # equality, and only the true gradient satisfies both
        for change, predicted in slopes:
            assert change >= predicted - 1e-5 * abs(predicted) - 1e-15


class TestKernelWarmStart:
    """The kernel learner's solver starts from the ridge fit scaled by the
    largest factor in [0, 1] whose mean excess over the matching's distances
    is at most tau/2, the constraint target."""

    @staticmethod
    def lapack_ridge_fit(K, y):
        """(K + RIDGE_LAMBDA m I)^-1 y by np.linalg.solve."""
        return np.linalg.solve(K + learners.RIDGE_LAMBDA * len(y) * np.eye(len(y)), y)

    @staticmethod
    def counted_ridge_fit(K, y):
        """_ridge_fit(K, y) and the number of products with K it made."""
        products = []

        class CountingGram(np.ndarray):
            def __matmul__(self, other):
                products.append(None)
                return np.asarray(self) @ other

        return learners._ridge_fit(K.view(CountingGram), y), len(products)

    @pytest.mark.parametrize("metric, tau, pulled_in", [
        (ConstantMetric(1.0), 0.3, False),
        (ScaledEuclideanMetric(0.2), 0.01, True),
        (ScaledEuclideanMetric(0.2), 0.0, True),
    ])
    def test_largest_scale_of_the_ridge_fit_within_half_the_budget(self, metric, tau,
                                                                    pulled_in):
        ds = random_dataset(np.random.default_rng(5), 16, 3)
        cfg = linear_config(solver=SolverConfig(max_iters=20, seed=0),
                            learner=KernelLearner(B=1e4))
        solve = solver.solve_constrained
        starts = []

        def capturing_solve(objective, constraint, project, config, initial_point):
            starts.append(np.array(initial_point))
            return solve(objective, constraint, project, config, initial_point)

        with mock.patch.object(solver, "solve_constrained", capturing_solve):
            train_fair_kernel(ds, metric, cfg, tau=tau)

        K = gram_matrix(ds, VovkHalfKernel())
        fit = self.lapack_ridge_fit(K, ds.targets01)
        left, right, dists = matching_edges(ds, default_matching(ds, 0), metric)

        def mean_excess(beta):
            raw = K @ beta
            return float(np.mean(np.maximum(np.abs(raw[left] - raw[right]) - dists, 0.0)))

        start = starts[0]
        assert mean_excess(start) <= 0.5 * tau
        if pulled_in:
            assert mean_excess((1.0 + 1e-9) * start) > 0.5 * tau
        else:
            assert np.max(np.abs(start - fit)) <= 1e-12 * np.max(np.abs(fit))

    @pytest.mark.parametrize("panel", [8, core._CHOLESKY_PANEL])
    def test_ridge_fit_is_solved_in_panels_and_the_solver_gets_a_fresh_gram(self, panel):
        # the gram is certified in its own storage, a panel at a time, and
        # built afresh there: at m = 2 panels + 3 no LU solve is as large as
        # the system. The ridge fit and the solver both run on that array
        m = 2 * panel + 3
        ds = random_dataset(np.random.default_rng(5), m, 3)
        cfg = linear_config(solver=SolverConfig(max_iters=20, seed=0),
                            learner=KernelLearner(B=1e4))
        builds, fits, lu_orders, first_objectives = [], [], [], []
        build, ridge_fit = VovkHalfKernel.cross, learners._ridge_fit
        solve, annealed = np.linalg.solve, learners.solve_annealed

        def recording_build(kernel, xs, ys, out=None):
            builds.append(build(kernel, xs, ys, out))
            return builds[-1]

        def recording_ridge_fit(K, y):
            fresh = build(VovkHalfKernel(), ds.features, ds.features)
            fits.append((K is builds[-1], np.array_equal(K, fresh), ridge_fit(K, y)))
            return fits[-1][-1].copy()  # the learner scales its start in place

        def sizing_solve(a, b):
            lu_orders.append(np.shape(a)[0])
            return solve(a, b)

        def probing_annealed(objective, constraint, project, config, initial_point):
            first_objectives.append((initial_point.copy(), objective(initial_point)))
            return annealed(objective, constraint, project, config, initial_point)

        with mock.patch.object(core, "_CHOLESKY_PANEL", panel), \
                mock.patch.object(VovkHalfKernel, "cross", recording_build), \
                mock.patch.object(learners, "_ridge_fit", recording_ridge_fit), \
                mock.patch.object(np.linalg, "solve", sizing_solve), \
                mock.patch.object(learners, "solve_annealed", probing_annealed):
            train_fair_kernel(ds, ScaledEuclideanMetric(0.2), cfg, tau=0.01)

        K = VovkHalfKernel().cross(ds.features, ds.features)
        expected = self.lapack_ridge_fit(K, ds.targets01)
        (same_array, fresh, fit), = fits
        assert same_array and fresh
        assert np.max(np.abs(fit - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert 0 < max(lu_orders) <= panel
        # two builds in one array: certified in place, then the ridge fit's
        # and the solver's, whose values are those of a fresh gram bit for bit
        assert len(builds) == 2 and builds[1] is builds[0]
        assert np.array_equal(builds[0], K)
        (start, (value, subgradient)), = first_objectives
        residual = K @ start - ds.targets01
        assert value == float(np.mean(np.abs(residual)))
        assert np.array_equal(subgradient, K @ np.sign(residual) / m)

    @pytest.mark.parametrize("m", [7, 8, 9, 19, 127, 128, 129, 259])
    def test_ridge_fit_matches_lapack_on_vovk_grams(self, rng, m):
        # Cholesky panel sizes and their neighbours, 0/1 targets
        K = gram_matrix(random_dataset(rng, m, 10), VovkHalfKernel())
        targets = rng.integers(0, 2, m).astype(np.float64)
        expected = self.lapack_ridge_fit(K, targets)
        got, products = self.counted_ridge_fit(K, targets)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert 0 < products < learners.RIDGE_MAX_ITERATIONS

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(1, 300), n=st.integers(1, 300),
           rows=st.sampled_from(["random", "duplicated", "near-identical", "norm 1 + tolerance"]),
           labels=st.sampled_from(["random", "all -1", "all +1"]))
    def test_ridge_fit_matches_lapack_and_stops_by_its_residual(self, seed, m, n, rows, labels):
        # duplicated and near-identical rows repeat a third as many points,
        # which makes K singular or nearly so; rows of norm 1 + NORM_TOLERANCE
        # (less a rounding margin) put K's entries at its sup value. The error
        # is normwise: all-one targets put the fit along K's top eigenvector,
        # and in its largest entry rounding amplified by the condition number
        # reaches 2e-12 at m = 300, where np.linalg.solve errs by up to 6e-13
        rng = np.random.default_rng(seed)
        X = unit_ball_points(rng, m, n)
        if rows in ("duplicated", "near-identical"):
            X = X[rng.integers(0, max(1, m // 3), m)]
            if rows == "near-identical":
                X += 1e-12 * rng.standard_normal((m, n))
        elif rows == "norm 1 + tolerance":
            X *= (1.0 + core.NORM_TOLERANCE - 1e-13) / np.linalg.norm(X, axis=1, keepdims=True)
        y = {"random": rng.choice([-1, 1], m), "all -1": -np.ones(m), "all +1": np.ones(m)}
        ds = LabeledDataset(X, y[labels])
        K = gram_matrix(ds, VovkHalfKernel())
        expected = self.lapack_ridge_fit(K, ds.targets01)
        got, products = self.counted_ridge_fit(K, ds.targets01)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        # the residual rule stops it below the cap; zero targets need no product
        assert products < learners.RIDGE_MAX_ITERATIONS
        if labels == "all -1":
            assert products == 0 and not np.any(got)


class TestMemoisedSubgradientProducts:
    """The kernel learner computes each distinct product K v once while it
    stays among the PRODUCT_MEMO_SIZE most recently used, and moves its raw
    scores along each step with the memoised K v of the step's direction. It
    returns what the closures of scalar_reference, which compute every
    product afresh, return: bit for bit in the cases below where the
    constraint never binds, and to rounding where it does."""

    @staticmethod
    def instance(m, n, B, step_c0, seed=1):
        ds = random_dataset(np.random.default_rng(seed), m, n)
        cfg = TrainConfig(alpha=0.2, gamma=0.3, learner=KernelLearner(B=B),
                          solver=SolverConfig(max_iters=300, seed=0, step_c0=step_c0))
        return ds, cfg

    @pytest.mark.parametrize("m, n, B, step_c0, metric, tau, kind", [
        (100, 10, 100.0, 5.0, ScaledEuclideanMetric(0.8), None, "never binds"),
        (16, 3, 1e4, 0.5, ScaledEuclideanMetric(0.2), 0.01, "binds"),
        (100, 10, 100.0, 0.5, ScaledEuclideanMetric(0.8), None, "evicts"),
    ])
    def test_same_result_as_the_closures_with_fresh_products(self, m, n, B, step_c0, metric,
                                                             tau, kind):
        ds, cfg = self.instance(m, n, B, step_c0)
        predictor, report = train_fair_kernel(ds, metric, cfg, tau=tau)

        K = gram_matrix(ds, VovkHalfKernel())
        left, right, dists = matching_edges(ds, default_matching(ds, 0), metric)
        products = []
        closures = scalar.kernel_closures(K, ds.targets01, left, right, dists,
                                          report.derived_params["tau"],
                                          B, products)

        def oracle_solve(objective, constraint, project, config, initial_point):
            return solver.solve_annealed(*closures, config, initial_point)

        with mock.patch.object(learners, "solve_annealed", oracle_solve):
            expected, expected_report = train_fair_kernel(ds, metric, cfg, tau=tau)

        lazy = [v for product, v in products if product == "z"]
        signs = {v for product, v in products if product == "signs"}
        if kind != "binds":
            assert predictor.beta.tobytes() == expected.beta.tobytes()
            assert report == expected_report
        if kind == "never binds":
            assert not lazy
        elif kind == "binds":
            assert lazy
            assert report.extras["n_feasible_iterates"] < cfg.solver.max_iters
            # the moved raw scores round differently, which moves the lengths
            # of the constraint steps and so beta, by up to about 6e-15 over
            # data seeds 1-5
            assert report.iterations == expected_report.iterations
            assert (report.extras["n_feasible_iterates"]
                    == expected_report.extras["n_feasible_iterates"])
            assert report.final_objective == pytest.approx(expected_report.final_objective,
                                                           rel=0.0, abs=1e-12)
            scale = max(1.0, float(np.linalg.norm(expected.beta)))
            assert np.max(np.abs(predictor.beta - expected.beta)) <= 1e-12 * scale
        else:
            assert len(signs) > learners.PRODUCT_MEMO_SIZE

    def test_each_distinct_product_is_computed_once(self):
        # the steps overshoot, so the residual signs oscillate between a few
        # vectors; each step needs K @ signs for its direction K signs / m and
        # K @ (K signs / m) to move the raw scores along it
        ds, cfg = self.instance(100, 10, 100.0, 5.0)
        operands, results = [], []

        class CountingGram(np.ndarray):
            def __matmul__(self, other):
                out = np.asarray(self) @ other
                if self.shape == (len(ds), len(ds)):  # the whole K, not a panel of a factor
                    operands.append(np.array(other))
                    results.append(out)
                return out

        # every build counts, so the count reaches the K rebuilt for the solver
        build = VovkHalfKernel.cross

        def counting_build(kernel, xs, ys, out=None):
            return build(kernel, xs, ys, out).view(CountingGram)

        # count from the solver's start: the ridge fit's products come before
        annealed, solver_start = learners.solve_annealed, []

        def marking_annealed(*args):
            solver_start.append(len(operands))
            return annealed(*args)

        with mock.patch.object(VovkHalfKernel, "cross", counting_build), \
                mock.patch.object(learners, "solve_annealed", marking_annealed):
            _, report = train_fair_kernel(ds, ScaledEuclideanMetric(0.8), cfg)
        del operands[:solver_start[0]], results[:solver_start[0]]

        # the constraint never binds, so every subgradient product is K @ signs
        of_signs = [bool(np.all(np.isin(v, (-1.0, 0.0, 1.0)))) for v in operands]
        distinct = len({v.tobytes() for v, sign in zip(operands, of_signs) if sign})
        assert 0 < distinct <= learners.PRODUCT_MEMO_SIZE
        assert sum(of_signs) == distinct
        # K @ beta only at each stage's start (a later stage starts where the
        # previous stage's final constraint check left it), the last stage's
        # final check and the report's fresh values; none per iteration
        assert len(operands) <= 2 * distinct + solver.ANNEAL_STAGES + 3
        assert report.iterations == 3 * cfg.solver.max_iters
        # the memo holds each sign pattern's direction K signs / m and its
        # product with K, read-only; the product K @ signs is transient
        directions = {(out / len(ds)).tobytes() for out, sign in zip(results, of_signs) if sign}
        along = [out for v, out in zip(operands, results) if v.tobytes() in directions]
        assert along
        for out in along:
            with pytest.raises(ValueError):
                out[0] = 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(4, 60), n=st.integers(2, 10),
           B=st.sampled_from([1.0, 100.0, 1e4]), step_c0=st.sampled_from([0.5, 5.0]),
           scale=st.floats(0.05, 0.8), tau=st.sampled_from([None, 0.0, 0.01]))
    def test_same_result_as_the_closures_keyed_by_bytes(self, seed, m, n, B, step_c0, scale,
                                                        tau):
        # the raw scores held by identity and the memo keyed by sign pattern
        # change only time: the closures that looked both up by the bytes of
        # each vector return the same beta and report, bit for bit, whether
        # the constraint binds (short scales, the tau override) or not
        ds, cfg = self.instance(m, n, B, step_c0, seed)
        metric = ScaledEuclideanMetric(scale)
        predictor, report = train_fair_kernel(ds, metric, cfg, tau=tau)

        K = gram_matrix(ds, VovkHalfKernel())
        left, right, dists = matching_edges(ds, default_matching(ds, 0), metric)
        closures = scalar.bytes_memoised_kernel_closures(
            K, ds.targets01, left, right, dists, report.derived_params["tau"], B)

        def oracle_solve(objective, constraint, project, config, initial_point):
            return solver.solve_annealed(*closures, config, initial_point)

        with mock.patch.object(learners, "solve_annealed", oracle_solve):
            expected, expected_report = train_fair_kernel(ds, metric, cfg, tau=tau)
        assert predictor.beta.tobytes() == expected.beta.tobytes()
        assert report == expected_report

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(4, 30), B=st.sampled_from([1.0, 100.0]),
           tau=st.sampled_from([0.0, 0.01, 0.1]),
           walk=st.lists(st.tuples(st.sampled_from(["objective", "constraint", "copy", "restart",
                                                    "zero", "below", "nan"]),
                                   st.floats(0.0, 2.0)), min_size=1, max_size=30))
    @example(seed=1, m=4, B=100.0, tau=0.01,
             walk=[("objective", 1.0), ("copy", 0.0), ("objective", 1.0), ("constraint", 1.0),
                   ("copy", 0.0), ("constraint", 1.0), ("restart", 0.0), ("objective", 0.0),
                   ("zero", 0.0), ("objective", 0.0), ("below", 0.0), ("objective", 0.0),
                   ("nan", 0.0), ("objective", 0.0), ("constraint", 0.0)])
    def test_a_walk_reads_what_the_closures_keyed_by_bytes_read(self, seed, m, B, tau, walk):
        # the solver's calls and more: copies of an iterate (same bytes, a new
        # array), stage starts, and points whose residuals are 0 (beta = 0,
        # for labels -1), all negative or NaN, which only the objective's two
        # masks together tell apart; every value, subgradient and iterate is
        # that of the closures keyed by bytes, bit for bit
        ds, cfg = self.instance(m, 3, B, 0.5, seed)
        metric = ScaledEuclideanMetric(0.2)
        handed = []

        def capture(*args):
            handed.extend(args)
            raise InterruptedError

        with mock.patch.object(learners, "solve_annealed", capture), \
                pytest.raises(InterruptedError):
            train_fair_kernel(ds, metric, cfg, tau=tau)
        K = gram_matrix(ds, VovkHalfKernel())
        left, right, dists = matching_edges(ds, default_matching(ds, 0), metric)
        both = (handed[:3], scalar.bytes_memoised_kernel_closures(K, ds.targets01, left, right,
                                                                  dists, tau, B))
        points = [handed[4], handed[4].copy()]

        def same(outputs):
            assert outputs[0].tobytes() == outputs[1].tobytes()

        for op, step in walk:
            if op in ("objective", "constraint"):
                values, subs = [], []
                for (objective, constraint, _), w in zip(both, points):
                    value, sub = (objective if op == "objective" else constraint)(w)
                    values.append(np.float64(value))
                    subs.append(sub if op == "objective" else sub())
                same(values)
                same(subs)
                points = [project(w, step, sub)
                          for (*_, project), w, sub in zip(both, points, subs)]
            elif op == "copy":
                points = [w.copy() for w in points]
            elif op == "restart":
                points = [project(w.copy(), 0.0, np.zeros(m))
                          for (*_, project), w in zip(both, points)]
            else:
                points = [np.full(m, {"zero": 0.0, "below": -1e-3, "nan": np.nan}[op])] * 2
            same(points)


class TestRawScoresAlongTheSteps:
    """The kernel learner's raw scores K beta are moved along each step, not
    recomputed; its values stay within rounding of a fresh product."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(4, 40), binding=st.booleans(),
           step_c0=st.sampled_from([0.5, 5.0]))
    def test_values_match_a_fresh_product(self, seed, m, binding, step_c0):
        ds = random_dataset(np.random.default_rng(seed), m, 3)
        # binding: a tight budget at a short metric scale, and a ball far
        # larger than the ridge fit; otherwise the ball binds and tau does not
        cfg = TrainConfig(alpha=0.2, gamma=0.3, learner=KernelLearner(B=1e4 if binding else 1.0),
                          solver=SolverConfig(max_iters=300, seed=0, step_c0=step_c0))
        metric = ScaledEuclideanMetric(0.2 if binding else 0.8)
        visited = []
        solve = solver.solve_constrained

        def recording_solve(objective, constraint, project, config, initial_point):
            def recorded_objective(beta):
                value, sub = objective(beta)
                visited.append(("objective", beta.copy(), value))
                return value, sub

            def recorded_constraint(beta):
                value, sub = constraint(beta)
                visited.append(("constraint", beta.copy(), value))
                return value, sub

            return solve(recorded_objective, recorded_constraint, project, config,
                         initial_point)

        with mock.patch.object(solver, "solve_constrained", recording_solve):
            predictor, report = train_fair_kernel(ds, metric, cfg,
                                                  tau=0.01 if binding else None)

        K = gram_matrix(ds, VovkHalfKernel())
        left, right, dists = matching_edges(ds, default_matching(ds, 0), metric)
        tau = report.derived_params["tau"]

        def fresh(kind, beta):
            raw = K @ beta
            if kind == "objective":
                return float(np.mean(np.abs(raw - ds.targets01)))
            return float(np.mean(np.maximum(np.abs(raw[left] - raw[right]) - dists, 0.0))) - tau

        tol = cfg.solver.feasibility_tolerance
        # a binding draw whose budget is never violated (a tiny matching) says
        # nothing about the constraint steps
        assume(binding == any(kind == "constraint" and value > tol
                              for kind, _, value in visited))
        for kind, beta, value in visited:
            assert value == pytest.approx(fresh(kind, beta), rel=0.0, abs=1e-12)
        assert report.final_objective == pytest.approx(
            fresh("objective", predictor.beta), rel=0.0, abs=1e-12)
        assert report.final_constraint_slack == pytest.approx(
            max(fresh("constraint", predictor.beta), 0.0), rel=0.0, abs=1e-12)
