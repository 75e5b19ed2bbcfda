"""The linear learner against an exact LP oracle.

Apart from the unit ball, the linear training program is an LP over w, the
residual bounds t_i >= |h(x_i) - y01_i| and the edge excesses
s_e >= |gap_e| - d_e, s >= 0, with mean(s) <= tau. HiGHS solves it; the ball
enters as Kelley cuts w . w_hat <= 1 at the normalised LP solution. Each LP
relaxes the program, so its value is a lower bound on the optimum, and its
solution scaled into the ball is feasible (scaling towards w = 0 keeps the
fairness budget), so that point's objective is an upper bound.
"""

import numpy as np
import pytest

from metricfair import SolverConfig, TrainConfig, default_matching, train_fair_linear
from metricfair.datagen import SyntheticSpec, generate_dataset_with_meta
from metricfair.serde import load_metric
from metricfair.solver import GAP_TOLERANCE

optimize = pytest.importorskip("scipy.optimize")

# HiGHS solves to these feasibility tolerances; its optimum is trusted to
# LP_SLACK
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
LP_SLACK = 1e-9
KELLEY_ROUNDS = 100


def lp_bracket(X, y01, left, right, dists, tau):
    """(lower, upper) bounds on the linear program's optimum, or the exact
    optimum twice when the ball is inactive at the LP solution."""
    m, n = X.shape
    E = len(dists)
    A, b, H = 0.5 * X, y01 - 0.5, 0.5 * (X[left] - X[right])
    zeros_me, zeros_em = np.zeros((m, E)), np.zeros((E, m))
    rows = np.vstack([
        np.hstack([A, -np.eye(m), zeros_me]),
        np.hstack([-A, -np.eye(m), zeros_me]),
        np.hstack([H, zeros_em, -np.eye(E)]),
        np.hstack([-H, zeros_em, -np.eye(E)]),
        np.concatenate([np.zeros(n + m), np.ones(E)])[None, :],
    ])
    rhs = np.concatenate([b, -b, dists, dists, [E * tau]])
    cost = np.concatenate([np.zeros(n), np.full(m, 1.0 / m), np.zeros(E)])
    # the box around the ball keeps every relaxation bounded
    bounds = [(-1.0, 1.0)] * n + [(0.0, None)] * (m + E)
    upper = np.inf
    for _ in range(KELLEY_ROUNDS):
        res = optimize.linprog(cost, A_ub=rows, b_ub=rhs, bounds=bounds, method="highs",
                               options=HIGHS_OPTIONS)
        assert res.status == 0, res.message
        w, lower = res.x[:n], float(res.fun)
        norm = float(np.linalg.norm(w))
        upper = min(upper, float(np.mean(np.abs(A @ (w / max(norm, 1.0)) - b))))
        if norm <= 1.0 or upper - lower <= LP_SLACK:
            return lower, upper
        cut = np.concatenate([w / norm, np.zeros(m + E)])
        rows = np.vstack([rows, cut])
        rhs = np.append(rhs, 1.0)
    return lower, upper


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("spec, binding", [("euclidean:0.8", False), ("euclidean:0.1", True)])
def test_certificate_brackets_the_lp_optimum(seed, spec, binding):
    ds, _ = generate_dataset_with_meta(SyntheticSpec(generator="separable", n=3, m=201,
                                                     margin=0.1, noise_rate=0.1, seed=seed))
    metric = load_metric(spec)
    cfg = TrainConfig(alpha=0.2, gamma=0.3, solver=SolverConfig(seed=seed))
    predictor, report = train_fair_linear(ds, metric, cfg)
    M = default_matching(ds, seed)
    dists = metric.pair_distances(ds.features[M.left], ds.features[M.right])
    tau = report.derived_params["tau"]
    lower, upper = lp_bracket(ds.features, ds.targets01, M.left, M.right, dists, tau)

    # the LP pins the optimum, and the ball is active exactly when the
    # fairness budget is not binding
    assert upper - lower <= LP_SLACK
    assert (np.linalg.norm(predictor.weights) < 1.0 - 1e-6) == binding
    excess = np.maximum(np.abs(0.5 * (ds.features[M.left] - ds.features[M.right])
                               @ predictor.weights) - dists, 0.0)
    assert (float(np.mean(excess)) >= tau - 1e-9) == binding

    gap = report.extras["certified_gap"]
    dual = report.extras["dual_bound"]
    assert gap == report.final_objective - dual
    assert gap <= GAP_TOLERANCE
    assert dual <= upper + LP_SLACK
    assert lower - LP_SLACK <= report.final_objective <= upper + GAP_TOLERANCE
