"""Rademacher estimator and closed-form bound calculators."""

import itertools
import math
import re

import numpy as np
import pytest

from conftest import NOT_SQUARE, NOT_SQUARE_IDS
from metricfair import (
    MetricFairError,
    RademacherDominatesError,
    ValidationError,
    empirical_rademacher_kernel_ball,
    kernel_norm_bound_B,
    mf_generalization_delta,
    mf_generalization_delta_kernel,
    sample_complexity_inf_fpac,
    sample_complexity_kernel,
    sample_complexity_linear,
    uniform_convergence_rho,
)


class TestRademacherEstimator:
    def test_identity_gram_is_exact(self):
        est = empirical_rademacher_kernel_ball(np.eye(16), C=1.0, n_draws=200, seed=0)
        assert est.value == 0.25
        assert est.mc_half_width == 0.0

    def test_all_ones_gram_matches_enumeration(self):
        # oracle: enumerate all sign vectors for m = 2
        gram = np.ones((2, 2))
        exact = np.mean([
            0.5 * math.sqrt(np.array(s) @ gram @ np.array(s))
            for s in itertools.product((-1, 1), repeat=2)
        ])
        assert exact == 0.5
        est = empirical_rademacher_kernel_ball(gram, C=1.0, n_draws=10_000, seed=1)
        assert est.value == pytest.approx(exact, abs=0.01)

    def test_ball_bound_on_random_grams(self, rng):
        for _ in range(20):
            m = int(rng.integers(4, 40))
            A = rng.standard_normal((m, m))
            gram = A @ A.T
            C = float(rng.uniform(0.05, 1.0))
            est = empirical_rademacher_kernel_ball(gram, C, n_draws=2000, seed=int(rng.integers(1e6)))
            M = float(np.max(np.diag(gram)))
            assert est.value <= math.sqrt(C * M / m) + est.mc_half_width

    def test_rejects_indefinite_gram(self):
        with pytest.raises(ValidationError):
            empirical_rademacher_kernel_ball(np.array([[1.0, 3.0], [3.0, 1.0]]), 1.0, 10, 0)

    @pytest.mark.parametrize("gram", NOT_SQUARE, ids=NOT_SQUARE_IDS)
    def test_rejects_shapes_other_than_square(self, gram):
        shape = re.escape(str(np.shape(gram)))
        with pytest.raises(ValidationError,
                           match=f"must be square and non-empty, got shape {shape}"):
            empirical_rademacher_kernel_ball(gram, 1.0, 10, 0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_gram(self, bad):
        # an infinite diagonal entry used to pass the PSD check and give value=inf
        gram = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="gram matrix has non-finite entries"):
            empirical_rademacher_kernel_ball(gram, 1.0, 10, 0)


class TestDeltaFormulas:
    def test_worked_value(self):
        # 2*10*(4*0.001 + (4 + 17*sqrt(ln 80)) / 1000)
        expected = 2 * 10 * (4 * 0.001 + (4 + 17 * math.sqrt(math.log(80))) / math.sqrt(1e6))
        got = mf_generalization_delta(10, 0.05, 10**6 + 1, 0.001)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.87173, abs=1e-5)

    def test_linear_in_G_at_zero_rademacher(self):
        d1 = mf_generalization_delta(5, 0.1, 1001, 0.0)
        d2 = mf_generalization_delta(10, 0.1, 1001, 0.0)
        assert d2 == pytest.approx(2 * d1, rel=1e-12)

    def test_kernel_closed_form(self):
        expected = 2 * (4 + 4 * math.sqrt(2) + 17 * math.sqrt(math.log(80))) / math.sqrt(400)
        got = mf_generalization_delta_kernel(1, 0.05, 401, 1, 1)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(4.52434, abs=1e-5)

    def test_rho_variants(self):
        linear = uniform_convergence_rho(20, 0.05, 10**6 + 1)
        expected = 2 * 20 * (4 + 4 * math.sqrt(2) + 17 * math.sqrt(math.log(80))) / 1000.0
        assert linear == pytest.approx(expected, rel=1e-12)
        assert linear == pytest.approx(1.80975, abs=2e-5)
        with_B = uniform_convergence_rho(20, 0.05, 10**6 + 1, B=4.0)
        assert with_B > linear  # 8*sqrt(4) = 16 > 4*sqrt(2)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            mf_generalization_delta(10, 1.5, 100, 0.0)
        with pytest.raises(ValidationError):
            mf_generalization_delta(0.5, 0.05, 100, 0.0)


class TestKernelNormBound:
    def test_worked_value(self):
        expected = 6 * 3**4 + math.exp(27 * math.log(24) + 5)
        got = kernel_norm_bound_B(3.0, 0.5)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.74e39, rel=5e-3)

    def test_polynomial_term_alone(self):
        assert 6 * 3.0**4 == 486.0

    def test_decreasing_in_eps_star(self):
        values = [kernel_norm_bound_B(3.0, e) for e in (0.1, 0.3, 0.5, 0.9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_overflow_returns_inf_with_warning(self):
        with pytest.warns(RuntimeWarning):
            assert kernel_norm_bound_B(30.0, 0.01) == math.inf

    def test_domain(self):
        with pytest.raises(ValidationError):
            kernel_norm_bound_B(2.0, 0.5)


class TestSampleComplexities:
    def test_linear_utility_branch(self):
        sc = sample_complexity_linear(0.1, 0.1, 0.1, 0.1, 0.05)
        b1 = ((math.sqrt(2) + math.sqrt(math.log(160))) / (math.sqrt(2) * 0.1)) ** 2
        assert sc.branches["utility"] == pytest.approx(b1, rel=1e-12)
        assert sc.branches["utility_m"] == 673

    def test_linear_fairness_branch(self):
        sc = sample_complexity_linear(0.1, 0.1, 0.1, 0.1, 0.05)
        num = 4 * (4 + 4 * math.sqrt(2) + 17 * math.sqrt(math.log(80)))
        b2 = (num / (0.9 * 0.1 * 0.05)) ** 2
        assert sc.branches["fairness"] == pytest.approx(b2, rel=1e-12)
        assert sc.branches["dominant"] == "fairness"
        assert sc.m == sc.branches["fairness_m"]

    def test_inverse_square_scaling(self):
        m1 = sample_complexity_linear(0.2, 0.1, 0.1, 0.1, 0.05).branches["utility"]
        m2 = sample_complexity_linear(0.1, 0.1, 0.1, 0.1, 0.05).branches["utility"]
        assert m2 / m1 == pytest.approx(4.0, rel=0.02)

    def test_outputs_are_odd(self):
        for eps in (0.05, 0.11, 0.21):
            m = sample_complexity_linear(eps, 0.3, 0.3, 0.2, 0.1).m
            assert m % 2 == 1

    def test_kernel_formula(self):
        sc = sample_complexity_kernel(0.1, 0.1, 0.1, 0.1, 0.05, B=100.0)
        b1 = 2 * 100 * (2 + 9 * math.sqrt(math.log(160))) / 0.01
        num = 4 * (4 + 8 * 10 + 17 * math.sqrt(math.log(80)))
        b2 = (num / (0.9 * 0.1 * 0.05)) ** 2 + 1
        assert sc.branches["utility"] == pytest.approx(b1, rel=1e-12)
        assert sc.branches["fairness"] == pytest.approx(b2, rel=1e-12)

    def test_kernel_rejects_infinite_B(self):
        with pytest.raises(MetricFairError):
            sample_complexity_kernel(0.1, 0.1, 0.1, 0.1, 0.05, B=math.inf)

    def test_inf_fpac_fixed_point_with_constant_r(self):
        sc = sample_complexity_inf_fpac(0.2, 0.2, 0.05, m_pac=101, rademacher_at=0.001)
        denom = 0.04 - 0.008
        expected = ((8 + 34 * math.sqrt(math.log(80))) / denom) ** 2 + 1
        assert sc.m % 2 == 1
        assert sc.m >= expected
        assert sc.m - expected <= 2.0

    def test_inf_fpac_fixed_point_with_shrinking_r(self):
        sc = sample_complexity_inf_fpac(
            0.3, 0.3, 0.05, m_pac=3, rademacher_at=lambda k: 0.01 / math.sqrt(k))
        # self-consistency: plugging the answer back reproduces it
        k = (sc.m - 1) // 2
        denom = 0.09 - 8 * 0.01 / math.sqrt(k)
        target = ((8 + 34 * math.sqrt(math.log(80))) / denom) ** 2 + 1
        assert sc.m >= target and sc.m - target <= 2.0

    def test_inf_fpac_dominating_rademacher_errors(self):
        with pytest.raises(RademacherDominatesError, match="Rademacher term dominates"):
            sample_complexity_inf_fpac(0.1, 0.1, 0.05, m_pac=3, rademacher_at=0.5)


class TestNegativeRademacher:
    """A Rademacher complexity is non-negative; a negative value would shrink
    the inf-fpac sample size below the one at R = 0."""

    @pytest.mark.parametrize("rademacher_at, k", [
        (-1.0, 1), (-1e-12, 1), (lambda k: -1.0 / math.sqrt(k), 1),
        # R = 0 at the start gives m = 62683941, whose matching size is checked next
        (lambda k: 0.0 if k == 1 else -0.001, 31341970),
    ])
    def test_rejected_with_matching_size_and_value(self, rademacher_at, k):
        with pytest.raises(ValidationError,
                           match=rf"Rademacher value at matching size {k} is negative, got -"):
            sample_complexity_inf_fpac(0.1, 0.1, 0.05, 1, rademacher_at)

    def test_zero_is_accepted(self):
        assert sample_complexity_inf_fpac(0.1, 0.1, 0.05, 1, 0.0).m == 62683941


class TestNaNInputs:
    """Every formula names a NaN input instead of returning a number."""

    @pytest.mark.parametrize("call, name", [
        (lambda: mf_generalization_delta(math.nan, 0.05, 100, 0.0), "G"),
        (lambda: mf_generalization_delta(10, 0.05, 100, math.nan), "r_hat"),
        (lambda: mf_generalization_delta_kernel(math.nan, 0.05, 100, 1.0, 1.0), "G"),
        (lambda: mf_generalization_delta_kernel(10, 0.05, 100, math.nan, 1.0), "C"),
        (lambda: mf_generalization_delta_kernel(10, 0.05, 100, 1.0, math.nan), "M"),
        (lambda: uniform_convergence_rho(math.nan, 0.05, 100), "G"),
        (lambda: uniform_convergence_rho(10, 0.05, 100, B=math.nan), "B"),
        (lambda: kernel_norm_bound_B(math.nan, 0.5), "L"),
        (lambda: sample_complexity_kernel(0.1, 0.1, 0.1, 0.1, 0.05, math.nan), "B"),
        (lambda: sample_complexity_inf_fpac(0.1, 0.1, 0.05, 1, math.nan), "Rademacher"),
        (lambda: sample_complexity_inf_fpac(0.1, 0.1, 0.05, 1, lambda k: math.nan), "Rademacher"),
        (lambda: empirical_rademacher_kernel_ball(np.eye(4), math.nan, 10, 0), "C"),
    ])
    def test_nan_is_rejected_by_name(self, call, name):
        with pytest.raises(ValidationError, match=rf"\b{name}\b.*(nan|NaN)"):
            call()

