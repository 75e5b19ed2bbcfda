"""A linear predictor trained where its fairness constraint binds stays fair
on held-out data.

PAPER.md's central claim is that approximate metric-fairness generalizes.
Acceptance criterion 7 checks that for fixed random predictors; here the
predictor is one the linear learner chose from the data. Labels follow a
fixed halfspace with 10% of them flipped, and at `euclidean:0.1` and `0.2`
the learner's l1 budget tau binds: the trained predictor spends it.

On seeds 10-39, which the test does not use (m = 201 and 801, a 4,001-point
held-out sample, 120 trainings):
- the trained predictor's l1 loss on its matching was within 4.4e-4 of tau
  relative to tau, and the fit at a budget of 10 had an l1 loss above tau
  (0.0407 at least, tau = 0.04) in every training;
- the held-out all-pairs fairness loss at GAMMA was 0.00001 to 0.0244,
  against ALPHA = 0.2.
Until the audit reports an interval for the population rate (ROADMAP item
6), the held-out fairness loss is `all_pairs_mf_loss`.
"""

import numpy as np
import pytest

import metricfair as mf
from metricfair.core import unit_ball_points

N, ALPHA, GAMMA, EPS = 5, 0.2, 0.3, 0.2


def _sample(rng, w_star, m):
    X = unit_ball_points(rng, m, N)
    y = np.where(X @ w_star >= 0, 1, -1)
    y[rng.random(m) < 0.1] *= -1
    return mf.LabeledDataset(X, y)


@pytest.mark.parametrize("seed", [1, 2])
def test_linear_learner_stays_fair_on_held_out_data_where_its_budget_binds(seed):
    rng = np.random.default_rng(seed)
    w_star = rng.standard_normal(N)
    w_star /= np.linalg.norm(w_star)
    held_out = _sample(rng, w_star, 4001)
    config = mf.TrainConfig(ALPHA, GAMMA, eps_alpha=EPS, eps_gamma=EPS,
                            solver=mf.SolverConfig(seed=seed))
    for scale in (0.1, 0.2):
        metric = mf.ScaledEuclideanMetric(scale)
        for m in (201, 801):
            S = _sample(rng, w_star, m)
            h, report = mf.train_fair_linear(S, metric, config)
            tau = report.derived_params["tau"]
            l1 = mf.empirical_l1_loss(h, S, mf.default_matching(S, seed), metric)
            assert l1 == pytest.approx(tau, rel=1e-3), (scale, m)
            assert mf.all_pairs_mf_loss(h, held_out, metric, GAMMA) <= ALPHA, (scale, m)
