"""Fairness losses and audits.

The 0/1 metric-fairness loss charges a pair (x, x') when the prediction gap
|h(x) - h(x')| strictly exceeds d(x, x') + gamma. The l1 loss charges the
clamped magnitude max(0, |h(x) - h(x')| - d(x, x')) instead, which is convex
in the predictor and sandwiches the 0/1 loss. Empirical variants average
over the edges of a matching so that per-edge losses are independent draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Example,
    LabeledDataset,
    Matching,
    MetricFairError,
    Predictor,
    SimilarityMetric,
    ValidationError,
)


def _stacked_gaps_and_distances(h, points: np.ndarray, d: SimilarityMetric):
    """For the pairs (points[t], points[k + t]) of a (2k, n) stack: the gaps
    |h(x) - h(x')| from one predict_batch call on the whole stack, and
    d(x, x') from one pair_distances call."""
    k = points.shape[0] // 2
    values = h.predict_batch(points)
    return np.abs(values[:k] - values[k:]), d.pair_distances(points[:k], points[k:])


def pair_mf_loss(h: Predictor, x: Example, x2: Example, d: SimilarityMetric, gamma: float) -> int:
    """0/1 fairness loss on a pair: 1 iff |h(x) - h(x')| > d(x, x') + gamma."""
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0, 1), got {gamma}")
    gaps, dists = _stacked_gaps_and_distances(h, np.stack([x.features, x2.features]), d)
    return int(gaps[0] > dists[0] + gamma)


def pair_l1_loss(h: Predictor, x: Example, x2: Example, d: SimilarityMetric) -> float:
    """l1 fairness loss on a pair: max(0, |h(x) - h(x')| - d(x, x'))."""
    gaps, dists = _stacked_gaps_and_distances(h, np.stack([x.features, x2.features]), d)
    return float(max(0.0, gaps[0] - dists[0]))


def _edge_gaps_and_distances(h, S: LabeledDataset, M: Matching, d: SimilarityMetric):
    if len(M) == 0:
        raise ValidationError("matching has no edges")
    if M.m != len(S):
        raise ValidationError("matching does not belong to this dataset")
    values = h.predict_batch(S.features)
    left, right = M.left, M.right
    gaps = np.abs(values[left] - values[right])
    dists = d.pair_distances(S.features[left], S.features[right])
    return gaps, dists


def empirical_mf_loss(h, S: LabeledDataset, M: Matching, d: SimilarityMetric, gamma: float) -> float:
    """Average 0/1 fairness loss over the matching's edges."""
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0, 1), got {gamma}")
    gaps, dists = _edge_gaps_and_distances(h, S, M, d)
    return float(np.mean(gaps > dists + gamma))


def empirical_l1_loss(h, S: LabeledDataset, M: Matching, d: SimilarityMetric) -> float:
    """Average l1 fairness loss over the matching's edges."""
    gaps, dists = _edge_gaps_and_distances(h, S, M, d)
    return float(np.mean(np.maximum(0.0, gaps - dists)))


def surrogate_ramp(u, gamma: float, G: float):
    """Piecewise-linear G-Lipschitz ramp: 0 below gamma, 1 above gamma + 1/G."""
    if G < 1.0:
        raise ValidationError(f"ramp slope G must be >= 1, got {G}")
    u = np.asarray(u, dtype=np.float64)
    return np.clip(G * (u - gamma), 0.0, 1.0)


def surrogate_loss(h, x: Example, x2: Example, d: SimilarityMetric, gamma: float, G: float) -> float:
    """Surrogate fairness loss: the ramp applied to |h(x)-h(x')| - d(x, x')."""
    gaps, dists = _stacked_gaps_and_distances(h, np.stack([x.features, x2.features]), d)
    return float(surrogate_ramp(gaps[0] - dists[0], gamma, G))


# ---------------------------------------------------------------------------
# Population estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationEstimate:
    estimate: float
    half_width: float
    n_pairs: int


def hoeffding_half_width(n_pairs: int, confidence: float = 0.95) -> float:
    """Two-sided Hoeffding half-width for a [0,1] mean at the given confidence."""
    if n_pairs < 1:
        raise ValidationError("need at least one pair")
    return float(np.sqrt(np.log(2.0 / (1.0 - confidence)) / (2.0 * n_pairs)))


def population_mf_estimate(
    h,
    S: LabeledDataset,
    d: SimilarityMetric,
    gamma: float,
    n_pairs: int,
    seed: int,
) -> PopulationEstimate:
    """Monte-Carlo estimate of the population 0/1 fairness loss.

    Pairs of rows of S are drawn i.i.d. with replacement, all first rows
    before all second rows; the half-width is the 95% two-sided Hoeffding
    bound, so it is distribution-free.
    """
    if n_pairs < 1:
        raise ValidationError("need at least one pair")
    rng = np.random.default_rng(seed)
    xs = S.features[rng.integers(0, len(S), size=n_pairs)]
    ys = S.features[rng.integers(0, len(S), size=n_pairs)]
    gaps = np.abs(h.predict_batch(xs) - h.predict_batch(ys))
    dists = d.pair_distances(xs, ys)
    est = float(np.mean(gaps > dists + gamma))
    return PopulationEstimate(est, hoeffding_half_width(n_pairs), n_pairs)


# ---------------------------------------------------------------------------
# Group profiles and perfect fairness
# ---------------------------------------------------------------------------


def _per_individual_rates(h, S: LabeledDataset, d: SimilarityMetric, gamma: float) -> np.ndarray:
    """For each x in S, the fraction of x' in S (self included) violating the
    fairness condition at slack gamma. O(m^2)."""
    values = h.predict_batch(S.features)
    gaps = np.abs(values[:, None] - values[None, :])
    dists = d.pairwise_matrix(S.features)
    return np.mean(gaps > dists + gamma, axis=1)


def all_pairs_mf_loss(h, S: LabeledDataset, d: SimilarityMetric, gamma: float) -> float:
    """0/1 fairness loss averaged over all ordered pairs within S."""
    return float(np.mean(_per_individual_rates(h, S, d, gamma)))


def group_fairness_profile(
    h,
    S: LabeledDataset,
    d: SimilarityMetric,
    gamma: float,
    alpha2_grid,
) -> list[tuple[float, float]]:
    """For each alpha2, the fraction of individuals whose violation rate
    strictly exceeds alpha2. A rate cannot exceed 1, so alpha2 = 1 maps to 0."""
    rates = _per_individual_rates(h, S, d, gamma)
    return [(float(a2), float(np.mean(rates > a2))) for a2 in alpha2_grid]


def is_perfectly_fair(h, xs, ys, d: SimilarityMetric, tolerance: float = 0.0):
    """Check |h(x) - h(x')| <= d(x, x') + tolerance on the pairs (xs[t], ys[t])
    of two (k, n) row arrays.

    Returns (ok, violating_pairs) where each violation records the pair and
    its gap/distance.
    """
    if len(xs) != len(ys):
        raise ValidationError("xs and ys must have the same number of rows")
    if len(xs) == 0:
        return True, []
    points = np.concatenate([xs, ys])
    gaps, dists = _stacked_gaps_and_distances(h, points, d)
    violations = [(xs[t], ys[t], float(gaps[t]), float(dists[t]))
                  for t in np.flatnonzero(gaps > dists + tolerance).tolist()]
    return (len(violations) == 0), violations


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FairnessReport:
    empirical_mf_loss: float
    empirical_l1_loss: float
    population_estimate: float | None
    population_ci: float | None
    group_profile: tuple[tuple[float, float], ...]
    gamma: float
    n_edges: int

    def __post_init__(self):
        for name in ("empirical_mf_loss", "empirical_l1_loss"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise MetricFairError(f"{name} = {v} outside [0, 1]")


def audit_predictor(
    h,
    S: LabeledDataset,
    M: Matching,
    d: SimilarityMetric,
    gamma: float,
    alpha2_grid=(0.05, 0.1, 0.2, 0.5, 1.0),
    population_pairs: int = 0,
    seed: int = 0,
) -> FairnessReport:
    """Run the full audit: matching-based losses, the all-pairs group profile,
    and (optionally) a Monte-Carlo population estimate over pairs of rows of
    S; `population_pairs` of 0 skips the estimate."""
    if population_pairs < 0:
        raise ValidationError(f"population_pairs must be >= 0, got {population_pairs}")
    mf = empirical_mf_loss(h, S, M, d, gamma)
    l1 = empirical_l1_loss(h, S, M, d)
    profile = group_fairness_profile(h, S, d, gamma, alpha2_grid)
    pop_est = pop_ci = None
    if population_pairs > 0:
        pop = population_mf_estimate(h, S, d, gamma, population_pairs, seed)
        pop_est, pop_ci = pop.estimate, pop.half_width
    return FairnessReport(
        empirical_mf_loss=mf,
        empirical_l1_loss=l1,
        population_estimate=pop_est,
        population_ci=pop_ci,
        group_profile=tuple(profile),
        gamma=gamma,
        n_edges=len(M),
    )
