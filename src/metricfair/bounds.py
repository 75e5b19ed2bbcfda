"""Rademacher complexity estimation and closed-form bound calculators.

The uniform-convergence margin for the empirical fairness loss of a class
with empirical Rademacher complexity R at matching size (m-1)/2 is

    delta_m = 2G * (4R + (4 + 17*sqrt(ln(4/delta))) / sqrt(m-1)),

and for a kernel ball class with norm bound C and kernel sup M the closed
form replaces 4R by 4*sqrt(2)*sqrt(C*M)/sqrt(m-1). Sample-complexity
calculators invert these margins for the PACF learning guarantees; all "log"
terms are natural logarithms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import MetricFairError, ValidationError, check_open_unit, check_psd


class RademacherDominatesError(MetricFairError):
    """The Rademacher term exceeds the requested accuracy budget."""


@dataclass(frozen=True)
class RademacherEstimate:
    """Monte-Carlo estimate of an empirical Rademacher complexity."""

    value: float
    n_draws: int
    mc_half_width: float

    def __post_init__(self):
        if self.value < 0:
            raise MetricFairError("Rademacher complexity cannot be negative")


def empirical_rademacher_kernel_ball(
    gram: np.ndarray,
    C: float,
    n_draws: int,
    seed: int,
) -> RademacherEstimate:
    """Empirical Rademacher complexity of the kernel ball {x -> <v, psi(x)>,
    ||v|| <= C} on the sample behind `gram`.

    For a fixed sign vector s the supremum has the closed form
    (C/m) * sqrt(s' K s); the estimate averages it over uniform sign draws.
    """
    if not C > 0:
        raise ValidationError(f"norm bound C must be positive, got {C}")
    if n_draws < 1:
        raise ValidationError("need at least one sign draw")
    gram = np.asarray(gram, dtype=np.float64)
    check_psd(gram)
    m = gram.shape[0]
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_draws, m)) * 2.0 - 1.0
    quad = np.einsum("ij,jk,ik->i", signs, gram, signs)
    draws = (C / m) * np.sqrt(np.maximum(quad, 0.0))
    value = float(np.mean(draws))
    if n_draws > 1:
        half = 1.96 * float(np.std(draws, ddof=1)) / math.sqrt(n_draws)
    else:
        half = float("inf")
    return RademacherEstimate(value=value, n_draws=n_draws, mc_half_width=half)


# Domain checks are written as `not <valid>` so that a NaN input fails them.


def _check_margin_args(G: float, delta: float, m: int) -> None:
    """The checks shared by the uniform-convergence margins."""
    check_open_unit(delta=delta)
    if not G >= 1.0:
        raise ValidationError(f"G must be >= 1, got {G}")
    if m < 2:
        raise ValidationError("need m >= 2")


def mf_generalization_delta(G: float, delta: float, m: int, r_hat: float) -> float:
    """Two-sided uniform-convergence margin for the empirical fairness loss.

    `r_hat` is the empirical Rademacher complexity of the hypothesis class at
    matching size (m-1)/2.
    """
    _check_margin_args(G, delta, m)
    if not r_hat >= 0:
        raise ValidationError(f"r_hat must be non-negative, got {r_hat}")
    tail = (4.0 + 17.0 * math.sqrt(math.log(4.0 / delta))) / math.sqrt(m - 1)
    return 2.0 * G * (4.0 * r_hat + tail)


def mf_generalization_delta_kernel(
    G: float, delta: float, m: int, C: float, M: float
) -> float:
    """Closed-form margin for the kernel ball class with norm bound C and
    kernel sup M: 2G * (4 + 4*sqrt(2)*sqrt(C*M) + 17*sqrt(ln(4/delta))) / sqrt(m-1)."""
    _check_margin_args(G, delta, m)
    for name, v in (("C", C), ("M", M)):
        if not v >= 0:
            raise ValidationError(f"{name} must be non-negative, got {v}")
    num = 4.0 + 4.0 * math.sqrt(2.0) * math.sqrt(C * M) + 17.0 * math.sqrt(math.log(4.0 / delta))
    return 2.0 * G * num / math.sqrt(m - 1)


def uniform_convergence_rho(G: float, delta: float, m: int, B: float | None = None) -> float:
    """The containment margin rho between empirical and population fairness
    level sets: the kernel closed form at C = M = 1, or with 8*sqrt(B)
    replacing 4*sqrt(2) when a squared-norm bound B is supplied."""
    _check_margin_args(G, delta, m)
    if B is None:
        mid = 4.0 * math.sqrt(2.0)
    else:
        if not B > 0:
            raise ValidationError(f"B must be positive, got {B}")
        mid = 8.0 * math.sqrt(B)
    num = 4.0 + mid + 17.0 * math.sqrt(math.log(4.0 / delta))
    return 2.0 * G * num / math.sqrt(m - 1)


def linear_slack(eps_alpha: float, eps_gamma: float) -> float:
    """The linear learner's slack eps' = min(eps_alpha, eps_gamma / 2)."""
    return min(eps_alpha, eps_gamma / 2.0)


def kernel_slack(epsilon: float, eps_alpha: float, eps_gamma: float) -> float:
    """The kernel learner's slack eps* = min(epsilon, eps_alpha, eps_gamma / 2)."""
    return min(epsilon, linear_slack(eps_alpha, eps_gamma))


def _ceil_to_odd(x: float) -> int:
    m = int(math.ceil(x))
    if m % 2 == 0:
        m += 1
    return max(m, 1)


@dataclass(frozen=True)
class SampleComplexity:
    """Result of a sample-complexity formula, with per-branch values."""

    m: int
    branches: dict = field(default_factory=dict)


def _accuracy_complexity(utility: float, fairness: float) -> SampleComplexity:
    """An accuracy guarantee's sample size: the larger of its utility and
    fairness branches, each also reported and rounded up to an odd size."""
    return SampleComplexity(
        m=_ceil_to_odd(max(utility, fairness)),
        branches={"utility": utility, "fairness": fairness,
                  "utility_m": _ceil_to_odd(utility), "fairness_m": _ceil_to_odd(fairness),
                  "dominant": "utility" if utility >= fairness else "fairness"},
    )


def sample_complexity_linear(
    epsilon: float,
    eps_alpha: float,
    eps_gamma: float,
    alpha: float,
    delta: float,
) -> SampleComplexity:
    """Sample size for the fairness-constrained linear learner's accuracy
    guarantee: the max of a utility-convergence branch and a fairness-margin
    branch, rounded up to the next odd integer."""
    check_open_unit(epsilon=epsilon, eps_alpha=eps_alpha, eps_gamma=eps_gamma,
                    alpha=alpha, delta=delta)
    b1 = ((math.sqrt(2.0) + math.sqrt(math.log(8.0 / delta))) / (math.sqrt(2.0) * epsilon)) ** 2
    num = 4.0 * (4.0 + 4.0 * math.sqrt(2.0) + 17.0 * math.sqrt(math.log(4.0 / delta)))
    slack = linear_slack(eps_alpha, eps_gamma)
    b2 = (num / ((1.0 - alpha) * eps_alpha * slack)) ** 2
    return _accuracy_complexity(b1, b2)


def sample_complexity_kernel(
    epsilon: float,
    eps_alpha: float,
    eps_gamma: float,
    alpha: float,
    delta: float,
    B: float,
) -> SampleComplexity:
    """Sample size for the kernelized learner's accuracy guarantee, driven by
    the squared-RKHS-norm bound B."""
    check_open_unit(epsilon=epsilon, eps_alpha=eps_alpha, eps_gamma=eps_gamma,
                    alpha=alpha, delta=delta)
    if not B > 0:
        raise ValidationError(f"B must be positive, got {B}")
    if math.isinf(B):
        raise MetricFairError("B is infinite; the sample complexity is unbounded")
    b1 = 2.0 * B * (2.0 + 9.0 * math.sqrt(math.log(8.0 / delta))) / epsilon**2
    num = 4.0 * (4.0 + 8.0 * math.sqrt(B) + 17.0 * math.sqrt(math.log(4.0 / delta)))
    slack = kernel_slack(epsilon, eps_alpha, eps_gamma)
    b2 = (num / ((1.0 - alpha) * eps_alpha * slack)) ** 2 + 1.0
    return _accuracy_complexity(b1, b2)


# the most fixed-point rounds sample_complexity_inf_fpac takes
FIXED_POINT_ROUNDS = 100


def sample_complexity_inf_fpac(
    eps_alpha: float,
    eps_gamma: float,
    delta: float,
    m_pac: int,
    rademacher_at,
    m_start: int = 3,
) -> SampleComplexity:
    """Information-theoretic PACF sample size.

    m = max(m_pac, ((8 + 34*sqrt(ln(4/delta))) / (eps_alpha*eps_gamma - 8*R))^2 + 1)
    with R the empirical Rademacher complexity at matching size (m-1)/2; since
    m appears on both sides, the formula is resolved by fixed-point iteration.
    `rademacher_at` is either a constant or a callable mapping the matching
    size to R.
    """
    check_open_unit(eps_alpha=eps_alpha, eps_gamma=eps_gamma, delta=delta)
    if m_pac < 1:
        raise ValidationError("m_pac must be >= 1")
    r_of = rademacher_at if callable(rademacher_at) else (lambda k: float(rademacher_at))
    numerator = 8.0 + 34.0 * math.sqrt(math.log(4.0 / delta))
    m = _ceil_to_odd(max(m_start, m_pac, 3))
    for _ in range(FIXED_POINT_ROUNDS):
        k = max((m - 1) // 2, 1)
        r = float(r_of(k))
        if math.isnan(r):
            raise ValidationError(f"Rademacher value at matching size {k} is NaN")
        if r < 0.0:
            raise ValidationError(f"Rademacher value at matching size {k} is negative, got {r}")
        denom = eps_alpha * eps_gamma - 8.0 * r
        if denom <= 0:
            raise RademacherDominatesError("Rademacher term dominates; increase m or relax eps")
        m_fair = (numerator / denom) ** 2 + 1.0
        m_new = _ceil_to_odd(max(m_pac, m_fair))
        if m_new == m:
            return SampleComplexity(m=m, branches={"m_pac": float(m_pac), "fairness": m_fair,
                                                   "rademacher": r})
        m = m_new
    raise MetricFairError(
        f"fixed-point iteration did not converge after {FIXED_POINT_ROUNDS} rounds")


def kernel_norm_bound_B(L: float, eps_star: float) -> float:
    """Squared-RKHS-norm bound sufficient for the kernel class to cover
    sigmoidal predictors of Lipschitz constant up to L:

        B = 6*L^4 + exp(9*L*ln(4*L/eps_star) + 5).

    Returns +inf (with a warning) when the exponential overflows; the value is
    astronomically large for realistic L.
    """
    if not L >= 3.0:
        raise ValidationError(f"L must be >= 3, got {L}")
    check_open_unit(eps_star=eps_star)
    exponent = 9.0 * L * math.log(4.0 * L / eps_star) + 5.0
    try:
        tail = math.exp(exponent)
    except OverflowError:
        tail = math.inf
    if math.isinf(tail):
        warnings.warn("kernel norm bound overflowed to +inf", RuntimeWarning, stacklevel=2)
        return math.inf
    return 6.0 * L**4 + tail
