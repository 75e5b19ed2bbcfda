"""Fairness-constrained training of linear and kernelized predictors.

Both learners minimize the mean absolute utility loss |h(x_i) - y01_i| (with
y01 = (1+y)/2) subject to a per-edge-average l1 fairness budget tau over a
matching, which is a convex program. The linear learner optimizes w on the
unit disk with h = (1 + <w, x>)/2, so fairness gaps are raw gaps halved; the
kernelized learner optimizes representer coefficients beta with raw scores
K beta inside the RKHS ball beta' K beta <= B, constraining unclamped raw
gaps (clamping to [0, 1] happens only at prediction time, which can only
shrink gaps). The linear learner trains with `solve_pdhg`, which certifies
how far its result is from the optimum; the kernel learner trains with
`solve_annealed`, and its path keeps four invariants. One m x m array: the
gram's PSD certificate factors it in place, and it is then rebuilt in the
same storage (O(m^2 n), against O(m^3) for a factorisation). A CG warm start:
conjugate gradients on that gram solve the ridge fit with m-vectors only.
Memoised products: the overshooting subgradient steps revisit a handful of
sign patterns, each fixing a subgradient; the PRODUCT_MEMO_SIZE most recently
used are memoised by their bit-packed masks with the subgradient and its K
product, and `project` moves the last iterate's raw scores, held with it by
identity, along each step, K (w - t v) = K w - t K v, which rounds differently
from a fresh product in the last bits. The report reads the learner's K beta,
computed afresh only where the cache misses (a stage's start, the solver's
final check of its best iterate) and once for the report's objective, slack
and predictions on S, the predictor's support.

By the l1/l0 sandwich, a trained predictor with l1 loss <= tau has empirical
0/1 fairness loss at slack gamma_tilde at most tau / gamma_tilde.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .audit import empirical_mf_loss
# kernel_norm_bound_B is unused here, but perfbench/tracing.py rebinds it on this module
from .bounds import kernel_norm_bound_B, kernel_slack, linear_slack, uniform_convergence_rho
from .core import (
    KernelPredictor,
    LabeledDataset,
    LinearPredictor,
    Matching,
    MetricFairError,
    SimilarityMetric,
    ValidationError,
    VovkHalfKernel,
    check_open_unit,
    check_psd,
    default_matching,
    matching_edges,
)
from .solver import SolverConfig, TrainingReport, feasible_scale, solve_annealed, solve_pdhg


# the kernel learner's ridge warm start solves (K + RIDGE_LAMBDA * m I) beta = y01
RIDGE_LAMBDA = 1e-3
# by conjugate gradients, to a residual of RIDGE_TOLERANCE ||y01|| (see _ridge_fit)
RIDGE_TOLERANCE = 1e-15
RIDGE_MAX_ITERATIONS = math.ceil(0.5 * math.sqrt(1.0 + VovkHalfKernel.sup_value / RIDGE_LAMBDA)
                                 * math.log(2.0 / RIDGE_TOLERANCE))
# the kernel learner's memo holds the subgradients of this many sign
# patterns, with their products with K, the least recently used going first
PRODUCT_MEMO_SIZE = 8


class SampleTooSmallError(MetricFairError):
    """The derived fairness budget is non-positive at this sample size."""


@dataclass(frozen=True)
class KernelLearner:
    """Train representer coefficients in a Vovk-kernel ball of squared norm
    B, as given. Training starts from the ridge fit."""

    B: float

    def __post_init__(self):
        if math.isnan(self.B):
            raise ValidationError("B must not be NaN")
        if not self.B > 0:
            raise ValidationError(f"B must be positive, got {self.B}")


@dataclass(frozen=True)
class TrainConfig:
    """Target fairness (alpha, gamma), error parameters, and solver knobs;
    `learner` is a KernelLearner, or None for the linear learner."""

    alpha: float
    gamma: float
    eps: float = 0.1
    eps_alpha: float = 0.1
    eps_gamma: float = 0.1
    delta: float = 0.05
    learner: KernelLearner | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    theory_mode: str = "empirical"

    def __post_init__(self):
        check_open_unit(alpha=self.alpha, gamma=self.gamma, eps=self.eps,
                        eps_alpha=self.eps_alpha, eps_gamma=self.eps_gamma, delta=self.delta)
        if self.theory_mode not in ("empirical", "theoretical"):
            raise ValidationError("theory_mode must be 'empirical' or 'theoretical', "
                                  f"got {self.theory_mode!r}")


@dataclass(frozen=True)
class SolverDerivedParams:
    """Budgets derived from a TrainConfig at a given sample size.

    G is the surrogate ramp slope, rho the uniform-convergence margin,
    gamma_tilde = gamma - 1/G the training slack, and tau the per-edge l1
    budget: alpha * gamma_tilde in empirical mode, and in theoretical mode
    tau_theoretical = (alpha - rho) * gamma_tilde, an error when that is
    non-positive (usual at desk-scale samples). Both modes report tau_theoretical.
    """

    G: float
    rho: float
    gamma_tilde: float
    tau: float
    tau_theoretical: float


def derive_solver_params(config: TrainConfig, m: int) -> SolverDerivedParams:
    """Derive the budgets for a sample of size m. A kernel learner's margin
    rho reads B, the squared-norm bound it trains with."""
    if isinstance(config.learner, KernelLearner):
        G = 1.0 / kernel_slack(config.eps, config.eps_alpha, config.eps_gamma)
        B = config.learner.B
    else:
        G = 1.0 / linear_slack(config.eps_alpha, config.eps_gamma)
        B = None
    gamma_tilde = config.gamma - 1.0 / G
    rho = uniform_convergence_rho(G, config.delta, m, B=B)
    tau_theoretical = (config.alpha - rho) * gamma_tilde
    tau = tau_theoretical if config.theory_mode == "theoretical" else config.alpha * gamma_tilde
    # with alpha < rho, tau_theoretical is positive when gamma_tilde is negative
    if gamma_tilde <= 0 or tau <= 0:
        raise SampleTooSmallError("sample too small for requested fairness/error parameters")
    if not 0.0 <= tau <= 1.0:
        raise ValidationError(f"derived budget tau = {tau} outside [0, 1]")
    return SolverDerivedParams(G=G, rho=rho, gamma_tilde=gamma_tilde, tau=tau,
                               tau_theoretical=tau_theoretical)


def _program(S: LabeledDataset, d: SimilarityMetric, config: TrainConfig,
             matching: Matching | None, tau: float | None):
    """A learner's program: the matching (the seeded default unless given), its
    edges and distances, and the budgets at len(S) with a `tau` >= 0 override."""
    M = matching if matching is not None else default_matching(S, config.solver.seed)
    left, right, dists = matching_edges(S, M, d)
    params = derive_solver_params(config, len(S))
    if tau is not None:
        tau = float(tau)
        if not tau >= 0:
            raise ValidationError(f"the fairness budget must be >= 0, got {tau}")
        params = replace(params, tau=tau)
    return M, left, right, dists, params


def _finalize_report(report: TrainingReport, predictor, S, M, d, dists, params, extras,
                     values=None) -> TrainingReport:
    """The report with its loss on the matching, whose edge distances
    `dists` the program already holds, and the derived budgets."""
    return replace(
        report,
        empirical_mf_loss=empirical_mf_loss(predictor, S, M, d, params.gamma_tilde,
                                            values=values, dists=dists),
        mf_loss_bound=params.tau / params.gamma_tilde if params.gamma_tilde > 0 else None,
        derived_params={**report.derived_params, **asdict(params)},
        extras={**report.extras, **extras},
    )


def train_fair_linear(
    S: LabeledDataset,
    d: SimilarityMetric,
    config: TrainConfig,
    matching: Matching | None = None,
    tau: float | None = None,
):
    """Fairness-constrained least-absolute-deviation fit of a linear predictor.

    Returns (LinearPredictor, TrainingReport). w = 0 is always feasible, so
    the solver cannot fail for tau >= 0; it returns a feasible point together
    with a certified lower bound on the optimum.
    """
    M, left, right, dists, params = _program(S, d, config, matching, tau)
    X = S.features
    # h(x) - y01 = <w, x>/2 - (y01 - 1/2), and a pair's gap is its raw gap halved
    w, report = solve_pdhg(0.5 * X, S.targets01 - 0.5, 0.5 * (X[left] - X[right]), dists,
                           params.tau, 1.0, config.solver)
    predictor = LinearPredictor(w)
    report = _finalize_report(report, predictor, S, M, d, dists, params,
                              extras={"learner": "linear"})
    return predictor, report


def gram_matrix(S: LabeledDataset, kernel: VovkHalfKernel) -> np.ndarray:
    """Gram matrix K[i, j] = K(x_i, x_j); validated finite, symmetric and PSD.
    The certificate factors K in place, and K is then built again in the
    same storage, bit for bit."""
    K = kernel.cross(S.features, S.features)

    def rebuild():
        return kernel.cross(S.features, S.features, out=K)

    check_psd(K, rebuild=rebuild)
    return rebuild()


def _ridge_fit(K: np.ndarray, y: np.ndarray) -> np.ndarray:
    """beta with (K + RIDGE_LAMBDA m I) beta = y for the certified gram K, by
    conjugate gradients (Hestenes & Stiefel, 1952) on m-vectors. K's entries
    are in (0, sup_value], so its top eigenvalue is at most sup_value * m and,
    by check_psd, its lowest at least -PSD_TOLERANCE times that: the shift
    bounds the condition number by kappa = 1 + sup_value / RIDGE_LAMBDA
    whatever m is, and the error falls by 2 ((sqrt(kappa) - 1) / (sqrt(kappa)
    + 1))^k in k steps, within RIDGE_TOLERANCE by RIDGE_MAX_ITERATIONS."""
    beta, r = np.zeros(len(y)), np.array(y, dtype=np.float64)
    p, rr = r.copy(), float(r @ r)
    stop = RIDGE_TOLERANCE ** 2 * rr
    for _ in range(RIDGE_MAX_ITERATIONS):
        if rr <= stop:
            break
        q = K @ p + (RIDGE_LAMBDA * len(y)) * p
        step = rr / float(p @ q)
        beta += step * p
        r -= step * q
        rr, previous = float(r @ r), rr
        p = r + (rr / previous) * p
    return beta


def train_fair_kernel(
    S: LabeledDataset,
    d: SimilarityMetric,
    config: TrainConfig,
    matching: Matching | None = None,
    tau: float | None = None,
):
    """Fairness-constrained kernel regression via representer coefficients.

    Returns (KernelPredictor, TrainingReport). Fairness gaps are unclamped
    raw-score gaps; predictions clamp to [0, 1].
    """
    if not isinstance(config.learner, KernelLearner):
        raise ValidationError("config.learner must be a KernelLearner")
    m = len(S)
    B = config.learner.B
    M, left, right, dists, params = _program(S, d, config, matching, tau)
    K = gram_matrix(S, VovkHalfKernel())
    y01 = S.targets01
    init = _ridge_fit(K, y01)
    n_edges = len(M)
    budget = params.tau

    # the last iterate and its raw scores K beta; the solver never changes an
    # iterate in place, so an iterate that is it or has its bytes has them
    held_beta = held_raw = np.empty(0)

    def raw_of(beta: np.ndarray) -> np.ndarray:
        nonlocal held_beta, held_raw
        if beta is not held_beta and beta.tobytes() != held_beta.tobytes():
            held_beta, held_raw = beta, K @ beta
        return held_raw

    # a sign pattern fixes a subgradient; the memo holds [subgradient, K times
    # it once a step moves along it], read-only, for the PRODUCT_MEMO_SIZE most
    # recently used patterns, and `handed` is the entry handed out last
    memo: dict[tuple, list] = {}
    handed = [None, None]

    def memoised(pattern: tuple, subgradient) -> np.ndarray:
        nonlocal handed
        handed = memo.pop(pattern, None)
        if handed is None:
            handed = [subgradient(), None]
            handed[0].flags.writeable = False
            if len(memo) == PRODUCT_MEMO_SIZE:
                del memo[next(iter(memo))]
        memo[pattern] = handed
        return handed[0]

    def objective(beta):
        residual = raw_of(beta) - y01
        # the masks tell np.sign's 1, -1, 0 and NaN apart
        key = ("objective", np.packbits([residual >= 0, residual <= 0]).tobytes())
        return float(np.mean(np.abs(residual))), memoised(key, lambda: K @ np.sign(residual) / m)

    def constraint(beta):
        raw = raw_of(beta)
        gaps = raw[left] - raw[right]
        excess = np.abs(gaps) - dists
        active = excess > 0
        value = float(np.sum(excess[active])) / n_edges - budget

        def product():
            coef = np.where(active, np.sign(gaps), 0.0) / n_edges
            z = np.zeros(m)
            np.add.at(z, left, coef)
            np.add.at(z, right, -coef)
            return K @ z

        def subgradient():
            key = ("constraint", np.packbits([active & (gaps > 0), active & (gaps < 0)]).tobytes())
            return memoised(key, product)

        return value, subgradient

    def project(w, step, direction):
        # K (w - step v) = K w - step K v: w's raw scores are held, and K v of the
        # subgradient handed out last is memoised with it (else a fresh product)
        nonlocal held_beta, held_raw
        raw = raw_of(w)
        beta = w
        if step:
            beta = w - step * direction
            if direction is handed[0] and handed[1] is None:
                handed[1] = K @ direction
                handed[1].flags.writeable = False
            raw = raw - step * (handed[1] if direction is handed[0] else K @ direction)
        q = float(beta @ raw)
        if q > B:
            scale = math.sqrt(B / q)
            beta, raw = beta * scale, raw * scale
        held_beta, held_raw = beta, raw
        return beta

    # raw scores scale linearly in beta, so the warm start is pulled in to
    # the solver's constraint target (mean excess tau/2) in closed form
    # instead of burning solver iterations on a feasibility march
    raw0 = K @ init
    init *= feasible_scale(raw0[left] - raw0[right], dists, 0.5 * budget)

    solver_cfg = replace(config.solver, constraint_target=-0.5 * budget)
    beta, report = solve_annealed(objective, constraint, project, solver_cfg, init)
    # the report states the returned beta's values, and its predictions on S
    # (the support), from a fresh K @ beta, not the raw scores moved by steps
    held_beta = np.empty(0)
    slack = max(constraint(beta)[0], 0.0)
    raw = raw_of(beta)
    report = replace(report, final_objective=float(np.mean(np.abs(raw - y01))),
                     final_constraint_slack=slack,
                     converged=slack <= config.solver.feasibility_tolerance)
    predictor = KernelPredictor(S.features, beta)
    report = _finalize_report(
        report, predictor, S, M, d, dists, params,
        extras={"learner": "kernel"},
        values=np.clip(raw, 0.0, 1.0),
    )
    return predictor, report

