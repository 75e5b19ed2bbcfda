"""The exhaustive grid oracle of the 2-d linear learner's program, against
which acceptance criterion 5 and the learner tests measure `train_fair_linear`.
"""

import math

import numpy as np

from metricfair import MetricFairError, SimilarityMetric, TrainConfig, ValidationError
from metricfair.core import LabeledDataset, Matching, default_matching, matching_edges
from metricfair.learners import derive_solver_params


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
    left, right, dists = matching_edges(S, M, d)
    if tau is None:
        tau = derive_solver_params(config, len(S)).tau
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
