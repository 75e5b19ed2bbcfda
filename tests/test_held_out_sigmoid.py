"""The kernel learner competes with a known fair sigmoid on held-out data.

PAPER.md claims PACF learning for logistic predictors, and the kernel
learner is how the package meets it: the Vovk-kernel ball holds close
approximations of Lipschitz sigmoids. Labels here are +1 with probability
h*(x) = 1 / (1 + exp(-4 <w*, x>)), so the competitor h* is 1-Lipschitz and
perfectly fair for `euclidean:1.0`. The theoretical B is astronomically
large (`kernel_norm_bound_B` needs L >= 3), so the learner trains at an
explicit B = 100, and the check is empirical.

EPSILON, GAMMA and LINEAR_MARGIN come from runs on seeds 10-39, which the
tests below do not use (m = 201 and 801, a 4,001-point held-out sample):
- kernel minus h* held-out error: -0.0211 to +0.0192 (at most +0.0076 at
  m = 801);
- linear minus h*: +0.0512 to +0.0640; a linear predictor is at most
  1/2-Lipschitz, so it cannot follow h*;
- the kernel predictor's held-out all-pairs fairness loss at GAMMA: 0.00001
  to 0.0037, non-zero in every run; at the training gamma of 0.3 it was
  below 0.00002, and 0 in 56 of the 60 runs.
Until the audit reports the exact distinct-pairs U-statistic, the held-out
fairness loss is `all_pairs_mf_loss`.
"""

import numpy as np
import pytest

import metricfair as mf
from metricfair.core import unit_ball_points

N, ALPHA, TRAIN_GAMMA = 5, 0.2, 0.3
EPSILON = 0.03
GAMMA = 0.01
LINEAR_MARGIN = 0.04
METRIC = mf.ScaledEuclideanMetric(1.0)


def _sample(rng, w_star, m):
    X = unit_ball_points(rng, m, N)
    p = mf.sigmoid_transfer(X @ w_star, 1.0)
    return mf.LabeledDataset(X, np.where(rng.random(m) < p, 1, -1))


@pytest.mark.parametrize("seed", [1, 2])
def test_kernel_learner_competes_with_a_fair_sigmoid_on_held_out_data(seed):
    rng = np.random.default_rng(seed)
    w_star = rng.standard_normal(N)
    w_star /= np.linalg.norm(w_star)
    h_star = mf.LogisticPredictor(w_star, 1.0)
    held_out = _sample(rng, w_star, 4001)
    star_error = mf.absolute_error(h_star, held_out)
    for m in (201, 801):
        S = _sample(rng, w_star, m)
        kernel, _ = mf.train_fair_kernel(S, METRIC, mf.TrainConfig(
            ALPHA, TRAIN_GAMMA, learner=mf.KernelLearner(B=100.0),
            solver=mf.SolverConfig(max_iters=300, seed=seed)))
        linear, _ = mf.train_fair_linear(S, METRIC, mf.TrainConfig(
            ALPHA, TRAIN_GAMMA, solver=mf.SolverConfig(max_iters=3000, seed=seed)))
        assert mf.absolute_error(kernel, held_out) <= star_error + EPSILON, m
        assert mf.all_pairs_mf_loss(kernel, held_out, METRIC, GAMMA) <= ALPHA, m
        assert mf.absolute_error(linear, held_out) >= star_error + LINEAR_MARGIN, m
