"""Fairness-constrained training of linear and kernelized predictors.

Both learners minimize the mean absolute utility loss |h(x_i) - y01_i| (with
y01 = (1+y)/2) subject to a per-edge-average l1 fairness budget tau over a
matching, which is a convex program. The linear learner optimizes w on the
unit disk with h = (1 + <w, x>)/2, so fairness gaps are raw gaps halved; the
kernelized learner optimizes representer coefficients beta with raw scores
K beta inside the RKHS ball beta' K beta <= B, constraining unclamped raw
gaps (clamping to [0, 1] happens only at prediction time, which can only
shrink gaps).

By the l1/l0 sandwich, a trained predictor with l1 loss <= tau has empirical
0/1 fairness loss at slack gamma_tilde at most tau / gamma_tilde.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .audit import empirical_mf_loss
from .bounds import kernel_norm_bound_B, uniform_convergence_rho
from .core import (
    KernelPredictor,
    KernelSpec,
    LabeledDataset,
    LinearPredictor,
    Matching,
    MetricFairError,
    SimilarityMetric,
    ValidationError,
    VovkHalfKernel,
    check_psd,
    default_matching,
)
from .solver import SolverConfig, TrainingReport, solve_annealed


# the kernel learner's ridge warm start solves (K + RIDGE_LAMBDA * m I) beta = y01
RIDGE_LAMBDA = 1e-3


class SampleTooSmallError(MetricFairError):
    """The derived fairness budget is non-positive at this sample size."""


@dataclass(frozen=True)
class LinearLearner:
    """Train h(x) = (1 + <w, x>)/2 over the unit disk."""


@dataclass(frozen=True)
class KernelLearner:
    """Train representer coefficients in a Vovk-kernel ball of squared norm B.

    B may be given explicitly or derived from the sigmoid Lipschitz cap L
    (the derivation assumes the Vovk kernel); the derived value is
    astronomically large, so it is capped at `b_max` (both values are
    reported). Training starts from the ridge fit.
    """

    L: float | None = None
    B: float | None = None
    b_max: float = 1e4

    def __post_init__(self):
        if self.B is None and self.L is None:
            raise ValidationError("kernel learner needs an explicit B or a Lipschitz cap L")
        for name in ("L", "B"):
            value = getattr(self, name)
            if value is not None and math.isnan(value):
                raise ValidationError(f"{name} must not be NaN")
        if not self.b_max > 0:
            raise ValidationError(f"b_max must be positive, got {self.b_max}")


@dataclass(frozen=True)
class TrainConfig:
    """Target fairness (alpha, gamma), error parameters, and solver knobs."""

    alpha: float
    gamma: float
    eps: float = 0.1
    eps_alpha: float = 0.1
    eps_gamma: float = 0.1
    delta: float = 0.05
    gamma_star: float = 0.05
    learner: LinearLearner | KernelLearner = field(default_factory=LinearLearner)
    solver: SolverConfig = field(default_factory=SolverConfig)
    mode: str = "empirical"

    def __post_init__(self):
        for name in ("alpha", "gamma", "eps", "eps_alpha", "eps_gamma", "delta", "gamma_star"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValidationError(f"{name} must be in (0, 1), got {v}")
        if self.mode not in ("empirical", "theoretical"):
            raise ValidationError(f"mode must be 'empirical' or 'theoretical', got {self.mode!r}")


@dataclass(frozen=True)
class SolverDerivedParams:
    """Budgets derived from a TrainConfig at a given sample size.

    G is the surrogate ramp slope, rho the uniform-convergence margin,
    gamma_tilde = gamma - 1/G the training slack, and tau the per-edge l1
    budget. In empirical mode tau = alpha * gamma_tilde and rho is reported
    only; theoretical mode uses tau = (alpha - rho) * gamma_tilde and errors
    when that is non-positive.
    """

    G: float
    rho: float
    alpha_tilde: float
    gamma_tilde: float
    tau: float


def resolve_kernel_B(learner: KernelLearner, eps_star: float) -> tuple[float, float]:
    """Return (derived_or_given_B, capped_B_used_for_training)."""
    if learner.B is not None:
        raw = float(learner.B)
    else:
        raw = kernel_norm_bound_B(learner.L, eps_star)
    return raw, min(raw, learner.b_max)


def derive_solver_params(config: TrainConfig, m: int, B: float | None = None) -> SolverDerivedParams:
    """Derive (G, rho, alpha_tilde, gamma_tilde, tau) for a sample of size m."""
    if m < 2:
        raise ValidationError("need m >= 2")
    kernelized = isinstance(config.learner, KernelLearner)
    if kernelized:
        eps_min = min(config.eps, config.eps_alpha, config.eps_gamma / 2.0)
        if B is None:
            eps_star = eps_min
            _, B = resolve_kernel_B(config.learner, eps_star)
    else:
        eps_min = min(config.eps_alpha, config.eps_gamma / 2.0)
        B = None
    G = 1.0 / eps_min
    gamma_tilde = config.gamma - 1.0 / G
    rho = uniform_convergence_rho(G, config.delta, m, B=B)
    if gamma_tilde <= 0:
        raise SampleTooSmallError("sample too small for requested fairness/error parameters")
    if config.mode == "theoretical":
        alpha_tilde = (config.alpha - rho) * gamma_tilde
        if alpha_tilde <= 0:
            raise SampleTooSmallError("sample too small for requested fairness/error parameters")
    else:
        alpha_tilde = config.alpha * gamma_tilde
    tau = alpha_tilde
    if not 0.0 <= tau <= 1.0:
        raise ValidationError(f"derived budget tau = {tau} outside [0, 1]")
    return SolverDerivedParams(G=G, rho=rho, alpha_tilde=alpha_tilde,
                               gamma_tilde=gamma_tilde, tau=tau)


def _edge_arrays(S: LabeledDataset, M: Matching, d: SimilarityMetric):
    left, right = M.left, M.right
    dists = np.asarray(d.pair_distances(S.features[left], S.features[right]), dtype=np.float64)
    return left, right, dists


def _finalize_report(report: TrainingReport, predictor, S, M, d, params, config, extras) -> TrainingReport:
    mf = empirical_mf_loss(predictor, S, M, d, params.gamma_tilde)
    # achieved (empirical-mode) budget next to the theoretical-mode value,
    # which is usually non-positive at desk-scale samples
    tau_theoretical = (config.alpha - params.rho) * params.gamma_tilde
    return replace(
        report,
        empirical_mf_loss=mf,
        mf_loss_bound=params.tau / params.gamma_tilde if params.gamma_tilde > 0 else None,
        derived_params={**report.derived_params, **asdict(params),
                        "tau_theoretical": tau_theoretical},
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
    the solver cannot fail for tau >= 0.
    """
    m = len(S)
    M = matching if matching is not None else default_matching(S, config.solver.seed)
    params = derive_solver_params(config, m)
    if tau is not None:
        params = replace(params, tau=float(tau), alpha_tilde=float(tau))
    left, right, dists = _edge_arrays(S, M, d)
    X = S.features
    y01 = S.targets01
    halfdiff = 0.5 * (X[left] - X[right])
    n_edges = len(M)
    budget = params.tau

    def objective(w):
        residual = 0.5 * (1.0 + X @ w) - y01
        signs = np.sign(residual)
        return float(np.mean(np.abs(residual))), (0.5 / m) * (X.T @ signs)

    def constraint(w):
        gaps = halfdiff @ w
        excess = np.abs(gaps) - dists
        active = excess > 0
        value = float(np.sum(excess[active])) / n_edges - budget

        def subgradient():
            coef = np.where(active, np.sign(gaps), 0.0)
            return (halfdiff.T @ coef) / n_edges

        return value, subgradient

    def project(w):
        norm = float(np.linalg.norm(w))
        return w if norm <= 1.0 else w / norm

    # w = 0 has constraint value -budget, so aiming constraint steps halfway
    # into the interior is always attainable
    solver_cfg = replace(config.solver, constraint_target=-0.5 * budget)
    w, report = solve_annealed(
        objective, constraint, project, solver_cfg, np.zeros(S.dimension)
    )
    predictor = LinearPredictor(w)
    report = _finalize_report(report, predictor, S, M, d, params, config,
                              extras={"learner": "linear"})
    return predictor, report


def gram_matrix(S: LabeledDataset, kernel: KernelSpec) -> np.ndarray:
    """Gram matrix K[i, j] = K(x_i, x_j); validated finite, symmetric and PSD."""
    K = kernel.gram(S.features)
    if K.shape != (len(S), len(S)):
        raise ValidationError("gram matrix shape does not match the sample")
    check_psd(K)
    return K


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
    learner = config.learner
    m = len(S)
    M = matching if matching is not None else default_matching(S, config.solver.seed)
    eps_star = min(config.eps, config.eps_alpha, config.eps_gamma / 2.0)
    b_raw, b_used = resolve_kernel_B(learner, eps_star)
    params = derive_solver_params(config, m, B=b_used)
    if tau is not None:
        params = replace(params, tau=float(tau), alpha_tilde=float(tau))
    left, right, dists = _edge_arrays(S, M, d)
    kernel = VovkHalfKernel()
    K = gram_matrix(S, kernel)
    y01 = S.targets01
    n_edges = len(M)
    budget = params.tau

    raw_cache: dict[bytes, np.ndarray] = {}

    def raw_of(beta: np.ndarray) -> np.ndarray:
        key = beta.tobytes()
        out = raw_cache.get(key)
        if out is None:
            out = K @ beta
            raw_cache.clear()
            raw_cache[key] = out
        return out

    def objective(beta):
        residual = raw_of(beta) - y01
        signs = np.sign(residual)
        return float(np.mean(np.abs(residual))), (K @ signs) / m

    def constraint(beta):
        raw = raw_of(beta)
        gaps = raw[left] - raw[right]
        excess = np.abs(gaps) - dists
        active = excess > 0
        value = float(np.sum(excess[active])) / n_edges - budget

        def subgradient():
            coef = np.where(active, np.sign(gaps), 0.0) / n_edges
            z = np.zeros(m)
            np.add.at(z, left, coef)
            np.add.at(z, right, -coef)
            return K @ z

        return value, subgradient

    def project(beta):
        raw = raw_of(beta)
        q = float(beta @ raw)
        if q <= b_used or q <= 0:
            return beta
        scale = math.sqrt(b_used / q)
        scaled = beta * scale
        raw_cache.clear()
        raw_cache[scaled.tobytes()] = raw * scale
        return scaled

    ridge = K.copy()
    ridge[np.diag_indices(m)] += RIDGE_LAMBDA * m
    init = np.linalg.solve(ridge, y01)
    del ridge  # an m x m copy; free it before the solver runs
    # raw scores scale linearly in beta, so the warm start can be pulled
    # into the feasible region in closed form instead of burning solver
    # iterations on a feasibility march
    raw0 = K @ init
    gaps0 = np.abs(raw0[left] - raw0[right])

    def slack_at(c: float) -> float:
        return float(np.mean(np.maximum(c * gaps0 - dists, 0.0))) - budget

    if slack_at(1.0) > -0.5 * budget:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if slack_at(mid) <= -0.5 * budget:
                lo = mid
            else:
                hi = mid
        init = init * lo

    solver_cfg = replace(config.solver, constraint_target=-0.5 * budget)
    beta, report = solve_annealed(objective, constraint, project, solver_cfg, init)
    predictor = KernelPredictor(S.features, beta, kernel)
    report = _finalize_report(
        report, predictor, S, M, d, params, config,
        extras={"learner": "kernel", "B_derived": b_raw, "B_used": b_used},
    )
    return predictor, report


def brute_force_oracle_2d(
    S: LabeledDataset,
    d: SimilarityMetric,
    config: TrainConfig,
    grid_resolution: float,
    matching: Matching | None = None,
    tau: float | None = None,
):
    """Exhaustive grid scan of the unit disk for the 2-d linear program.

    Returns (best_w, best_objective) over grid points (integer multiples of
    the resolution) that satisfy the exact l1 fairness budget. w = 0 is on
    every grid and feasible, so a feasible point always exists.
    """
    if S.dimension != 2:
        raise ValidationError("the brute-force oracle only supports dimension 2")
    if grid_resolution <= 0:
        raise ValidationError("grid resolution must be positive")
    M = matching if matching is not None else default_matching(S, config.solver.seed)
    if tau is None:
        tau = derive_solver_params(config, len(S)).tau
    left, right, dists = _edge_arrays(S, M, d)
    X = S.features
    y01 = S.targets01
    halfdiff = 0.5 * (X[left] - X[right])

    steps = int(math.floor(1.0 / grid_resolution + 1e-12))
    axis = np.arange(-steps, steps + 1) * grid_resolution
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    W = np.column_stack([g1.ravel(), g2.ravel()])
    W = W[np.linalg.norm(W, axis=1) <= 1.0 + 1e-12]

    objectives = np.mean(np.abs(0.5 * (1.0 + X @ W.T) - y01[:, None]), axis=0)
    l1 = np.mean(np.maximum(np.abs(halfdiff @ W.T) - dists[:, None], 0.0), axis=0)
    feasible = l1 <= tau + 1e-12
    if not np.any(feasible):
        raise MetricFairError("no feasible grid point")
    idx = int(np.argmin(np.where(feasible, objectives, np.inf)))
    return W[idx].copy(), float(objectives[idx])
