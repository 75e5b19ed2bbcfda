"""Fairness losses and audits.

The 0/1 metric-fairness loss charges a pair (x, x') when the prediction gap
|h(x) - h(x')| strictly exceeds d(x, x') + gamma. The l1 loss charges the
clamped magnitude max(0, |h(x) - h(x')| - d(x, x')) instead, which is convex
in the predictor and sandwiches the 0/1 loss. Empirical variants average
over the edges of a matching so that per-edge losses are independent draws;
a single pair's loss is the empirical loss over a one-edge `Matching`.

Since d >= 0, a pair whose prediction gap is at most gamma cannot violate,
so the all-pairs profile and the population estimate evaluate the metric
only on pairs whose gap exceeds gamma, and the profile evaluates each
unordered pair once. `audit_predictor` predicts the sample once and takes
the matching's distances once, and passes them down through the `values`
and `dists` keywords of each loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    LabeledDataset,
    Matching,
    MetricFairError,
    SimilarityMetric,
    ValidationError,
    matching_edges,
)


def _check_gamma(gamma: float) -> None:
    """Raise unless gamma is in [0, 1); NaN is rejected."""
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0, 1), got {gamma}")


def _predictions(h, S: LabeledDataset, values) -> np.ndarray:
    """h on the rows of S: `values` when the caller has predicted them."""
    return h.predict_batch(S.features) if values is None else values


def _edge_gaps_and_distances(h, S: LabeledDataset, M: Matching, d: SimilarityMetric, values,
                             dists=None):
    """The edges' prediction gaps and distances: `dists` when the caller has
    taken them from matching_edges."""
    if dists is None:
        _, _, dists = matching_edges(S, M, d)
    values = _predictions(h, S, values)
    return np.abs(values[M.left] - values[M.right]), dists


def empirical_mf_loss(h, S: LabeledDataset, M: Matching, d: SimilarityMetric, gamma: float,
                      *, values=None, dists=None) -> float:
    """Average 0/1 fairness loss over the matching's edges; `dists`, when
    given, are their distances as matching_edges(S, M, d) returns them."""
    _check_gamma(gamma)
    gaps, dists = _edge_gaps_and_distances(h, S, M, d, values, dists)
    return float(np.mean(gaps > dists + gamma))


def empirical_l1_loss(h, S: LabeledDataset, M: Matching, d: SimilarityMetric,
                      *, values=None, dists=None) -> float:
    """Average l1 fairness loss over the matching's edges; `dists` as in
    empirical_mf_loss."""
    gaps, dists = _edge_gaps_and_distances(h, S, M, d, values, dists)
    return float(np.mean(np.maximum(0.0, gaps - dists)))


def surrogate_ramp(u, gamma: float, G: float):
    """Piecewise-linear G-Lipschitz ramp: 0 below gamma, 1 above gamma + 1/G."""
    _check_gamma(gamma)
    if not G >= 1.0:
        raise ValidationError(f"ramp slope G must be >= 1, got {G}")
    u = np.asarray(u, dtype=np.float64)
    return np.clip(G * (u - gamma), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Population estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationEstimate:
    estimate: float
    half_width: float
    n_pairs: int


#: the level of the population estimate's two-sided Hoeffding interval
CONFIDENCE = 0.95


def hoeffding_half_width(n_pairs: int) -> float:
    """Two-sided Hoeffding half-width for a [0,1] mean at CONFIDENCE."""
    if n_pairs < 1:
        raise ValidationError("need at least one pair")
    return float(np.sqrt(np.log(2.0 / (1.0 - CONFIDENCE)) / (2.0 * n_pairs)))


def population_mf_estimate(
    h,
    S: LabeledDataset,
    d: SimilarityMetric,
    gamma: float,
    n_pairs: int,
    seed: int,
    *,
    values=None,
) -> PopulationEstimate:
    """Monte-Carlo estimate of S's own 0/1 fairness loss over all ordered
    pairs of its rows, a row with itself included.

    Pairs of rows of S are drawn i.i.d. with replacement from the seed's
    stream, all n_pairs first rows before all second rows; the half-width
    is the 95% two-sided Hoeffding bound on the Monte-Carlo error around
    that S-value, so it is distribution-free. It does not cover S's own
    sampling error, so it is no interval for the population rate: on 30
    fresh samples of 4,001 unit-ball points it missed that rate in 13 (see
    ROADMAP.md's measurements). Each
    row of S is predicted once, and the pairs are drawn and compared in
    blocks of core._PAIR_BLOCK pairs, so memory does not grow with n_pairs.
    Two generators seeded alike draw the two sides in step. The second
    reaches the second rows by drawing the n_pairs first rows and dropping
    them: a bounded draw rejects some of the stream's numbers, so how far to
    jump is known only by drawing. A draw made a block at a time continues
    the stream, so the pairs do not depend on the block size. Distances are
    evaluated only for the pairs whose gap exceeds gamma: each block picks
    them once as one index array, gathers their rows, gaps and indices by
    it, and makes one pair_distances call, an empty one if none is near.
    """
    _check_gamma(gamma)
    half_width = hoeffding_half_width(n_pairs)
    values = _predictions(h, S, values)
    m, block = len(S), core._PAIR_BLOCK
    starts = range(0, n_pairs, block)
    first, second = np.random.default_rng(seed), np.random.default_rng(seed)
    for start in starts:
        second.integers(0, m, size=min(block, n_pairs - start))
    violations = 0
    for start in starts:
        size = min(block, n_pairs - start)
        a, b = first.integers(0, m, size=size), second.integers(0, m, size=size)
        gaps = values.take(a)
        gaps -= values.take(b)
        np.abs(gaps, out=gaps)
        near = np.flatnonzero(gaps > gamma)
        a, b = a.take(near), b.take(near)
        dists = d.pair_distances(S.features.take(a, axis=0), S.features.take(b, axis=0))
        violations += int(np.count_nonzero(gaps.take(near) > dists + gamma))
    return PopulationEstimate(violations / n_pairs, half_width, n_pairs)


# ---------------------------------------------------------------------------
# Group profiles and perfect fairness
# ---------------------------------------------------------------------------


def _per_individual_rates(h, S: LabeledDataset, d: SimilarityMetric, gamma: float,
                          *, values=None) -> np.ndarray:
    """For each x in S, the fraction of x' in S (self included) violating the
    fairness condition at slack gamma.

    The rows are ranked by prediction, so the rows whose gap to a row
    exceeds gamma are a suffix of the ranking after it and a prefix before
    it. Each unordered pair is evaluated once, from its earlier-ranked row,
    and only when its gap exceeds gamma; a violation counts for both rows.
    The ranking is walked in blocks of rows of about core._PAIR_BLOCK
    entries, so memory grows with m, not m^2. The metric's block function
    gives each block's distances: one pair_distances call on the block's
    near pairs, or for ScaledEuclideanMetric itself, though not for a
    subclass, the Gram form from one rank-ordered copy of the rows and their
    squared norms, within rounding of its pair_distances.
    """
    _check_gamma(gamma)
    values = _predictions(h, S, values)
    m = len(S)
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    block = d._ranked_blocks(S.features, order)
    counts = np.zeros(m, dtype=np.intp)
    rows = max(1, core._PAIR_BLOCK // m)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        # the first rank whose gap to the block's first row exceeds gamma;
        # for the later rows of the block that rank comes no earlier
        first = start + 1 + int(np.count_nonzero(ranked[start + 1:] - ranked[start] <= gamma))
        gaps = ranked[None, first:] - ranked[start:stop, None]
        near = gaps > gamma
        if not near.any():
            continue
        dists = block(start, stop, first, near)
        violated = gaps > dists + gamma
        counts[order[start:stop]] += np.count_nonzero(violated, axis=1)
        counts[order[first:]] += np.count_nonzero(violated, axis=0)
    return counts / m


def all_pairs_mf_loss(h, S: LabeledDataset, d: SimilarityMetric, gamma: float) -> float:
    """0/1 fairness loss averaged over all ordered pairs within S."""
    return float(np.mean(_per_individual_rates(h, S, d, gamma)))


def group_fairness_profile(
    h,
    S: LabeledDataset,
    d: SimilarityMetric,
    gamma: float,
    alpha2_grid,
    *,
    values=None,
) -> list[tuple[float, float]]:
    """For each alpha2, the fraction of individuals whose violation rate
    strictly exceeds alpha2. A rate cannot exceed 1, so alpha2 = 1 maps to 0;
    every alpha2 must be in [0, 1]."""
    grid = [float(a2) for a2 in alpha2_grid]
    for a2 in grid:
        if not 0.0 <= a2 <= 1.0:
            raise ValidationError(f"alpha2 must be in [0, 1], got {a2}")
    rates = _per_individual_rates(h, S, d, gamma, values=values)
    return [(a2, float(np.mean(rates > a2))) for a2 in grid]


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
    # one predict_batch call on the (2k, n) stack: a matrix product may round
    # a row's last bits differently in another batch shape
    values = h.predict_batch(np.concatenate([xs, ys]))
    k = len(xs)
    gaps = np.abs(values[:k] - values[k:])
    dists = d.pair_distances(xs, ys)
    violations = [(xs[t], ys[t], float(gaps[t]), float(dists[t]))
                  for t in np.flatnonzero(gaps > dists + tolerance).tolist()]
    return (len(violations) == 0), violations


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FairnessReport:
    """An audit's losses. `population_estimate` is population_mf_estimate's
    Monte-Carlo estimate of S's all-ordered-pairs loss, and `population_ci`
    its half-width, which bounds only the Monte-Carlo error around that
    S-value, not the distance to the population rate (None when no pairs
    were drawn). That S-value is all_pairs_mf_loss: the mean of the
    per-individual rates behind `group_profile`, which the audit computes
    exactly."""

    empirical_mf_loss: float
    empirical_l1_loss: float
    population_estimate: float | None
    population_ci: float | None
    group_profile: tuple[tuple[float, float], ...]
    n_edges: int

    def __post_init__(self):
        for name in ("empirical_mf_loss", "empirical_l1_loss"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise MetricFairError(f"{name} = {v} outside [0, 1]")


#: the alpha2 values of a group profile unless the caller names others
ALPHA2_GRID = (0.05, 0.1, 0.2, 0.5, 1.0)


def audit_predictor(
    h,
    S: LabeledDataset,
    M: Matching,
    d: SimilarityMetric,
    gamma: float,
    alpha2_grid=ALPHA2_GRID,
    population_pairs: int = 0,
    seed: int = 0,
) -> FairnessReport:
    """Run the full audit: matching-based losses, the all-pairs group profile,
    and (optionally) a Monte-Carlo population estimate over pairs of rows of
    S; `population_pairs` of 0 skips the estimate. S is predicted once, and
    the matching's distances are taken once for both matching losses."""
    if population_pairs < 0:
        raise ValidationError(f"population_pairs must be >= 0, got {population_pairs}")
    _check_gamma(gamma)
    values = h.predict_batch(S.features)
    _, _, dists = matching_edges(S, M, d)
    mf = empirical_mf_loss(h, S, M, d, gamma, values=values, dists=dists)
    l1 = empirical_l1_loss(h, S, M, d, values=values, dists=dists)
    profile = group_fairness_profile(h, S, d, gamma, alpha2_grid, values=values)
    pop_est = pop_ci = None
    if population_pairs > 0:
        pop = population_mf_estimate(h, S, d, gamma, population_pairs, seed, values=values)
        pop_est, pop_ci = pop.estimate, pop.half_width
    return FairnessReport(
        empirical_mf_loss=mf,
        empirical_l1_loss=l1,
        population_estimate=pop_est,
        population_ci=pop_ci,
        group_profile=tuple(profile),
        n_edges=len(M),
    )
