"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines as
they complete. Expected values are computed in-test from independent
transcriptions of the closed-form expressions or from brute-force oracles;
they are never read back from the code under test.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import metricfair as mf
from conftest import random_dataset, random_metric, random_predictor, unit_ball_points
from grid_oracle import brute_force_oracle_2d
from metricfair.cli import run_cli
from metricfair.serde import save_dataset_csv, save_predictor_json


def _report(num, description, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_l1_l0_sandwich():
    rng = np.random.default_rng(101)
    grid = [(0.3, 0.2), (0.5, 0.4), (0.2, 0.1), (0.7, 0.5), (0.4, 0.6)]
    started = time.time()
    exceptions = 0
    premises = 0
    for _ in range(1000):
        ds = random_dataset(rng, 21, 3)
        h = random_predictor(rng, 3)
        d = random_metric(rng)
        M = mf.default_matching(ds, int(rng.integers(0, 10_000)))
        l1 = mf.empirical_l1_loss(h, ds, M, d)
        for tau, gamma in grid:
            mf_loss = mf.empirical_mf_loss(h, ds, M, d, gamma)
            if l1 <= tau:
                premises += 1
                if not mf_loss <= tau / gamma + 1e-12:
                    exceptions += 1
            if mf_loss <= tau - gamma:
                premises += 1
                if not l1 <= tau + 1e-12:
                    exceptions += 1
    elapsed = time.time() - started
    _report(
        1,
        f"l1/l0 sandwich: {premises} fired premises, {exceptions} exceptions, "
        f"{elapsed:.1f}s (< 10s)",
        exceptions == 0 and premises > 0 and elapsed < 10.0,
    )


def test_criterion_02_group_fairness_implication():
    rng = np.random.default_rng(202)
    grid = [0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0]
    started = time.time()
    exceptions = 0
    checked = 0
    for _ in range(200):
        ds = random_dataset(rng, 51, 3)
        h = random_predictor(rng, 3)
        d = random_metric(rng)
        gamma = float(rng.uniform(0.0, 0.3))
        alpha_hat = mf.all_pairs_mf_loss(h, ds, d, gamma)
        profile = dict(mf.group_fairness_profile(h, ds, d, gamma, grid))
        for a1, a2 in itertools.product(grid, repeat=2):
            if a1 * a2 >= alpha_hat:
                checked += 1
                if not profile[a2] <= a1 + 1e-12:
                    exceptions += 1
    elapsed = time.time() - started
    _report(
        2,
        f"group-fairness implication: {checked} grid points, {exceptions} exceptions, "
        f"{elapsed:.1f}s (< 30s)",
        exceptions == 0 and checked > 0 and elapsed < 30.0,
    )


def test_criterion_03_surrogate_sandwich():
    rng = np.random.default_rng(303)
    exceptions = 0
    total = 0
    for _ in range(100):
        gamma = float(rng.uniform(0.01, 0.99))
        G = float(rng.uniform(1.0, 60.0))
        u = rng.uniform(-1.2, 1.2, size=1000)
        ramp = mf.surrogate_ramp(u, gamma, G)
        upper = (u > gamma).astype(float)
        lower = (u > gamma + 1.0 / G).astype(float)
        exceptions += int(np.sum(lower > ramp)) + int(np.sum(ramp > upper))
        total += u.size
    _report(
        3,
        f"surrogate sandwich on {total} inputs: {exceptions} exceptions",
        total == 100_000 and exceptions == 0,
    )


def test_criterion_04_convex_feasible_set():
    rng = np.random.default_rng(404)
    exceptions = 0
    for _ in range(500):
        ds = random_dataset(rng, 12, 3)
        d = random_metric(rng)
        M = mf.default_matching(ds, int(rng.integers(0, 10_000)))
        y01 = ds.targets01

        def l1_of(w):
            return mf.empirical_l1_loss(mf.LinearPredictor(w), ds, M, d)

        def obj_of(w):
            values = mf.LinearPredictor(w).predict_batch(ds.features)
            return float(np.mean(np.abs(values - y01)))

        w1 = rng.standard_normal(3)
        w1 *= rng.random() / max(float(np.linalg.norm(w1)), 1e-12)
        w2 = rng.standard_normal(3)
        w2 *= rng.random() / max(float(np.linalg.norm(w2)), 1e-12)
        tau = max(l1_of(w1), l1_of(w2))
        mid = 0.5 * (w1 + w2)
        if l1_of(mid) > tau + 1e-9:
            exceptions += 1
        if obj_of(mid) > 0.5 * (obj_of(w1) + obj_of(w2)) + 1e-9:
            exceptions += 1
    _report(4, f"convexity midpoint checks: {exceptions} exceptions", exceptions == 0)


def test_criterion_05_linear_learner_vs_oracle():
    rng = np.random.default_rng(505)
    started = time.time()
    worst_gap = -math.inf
    worst_slack = 0.0
    for trial in range(50):
        m = int(rng.integers(8, 17))
        ds = random_dataset(rng, m, 2)
        if rng.random() < 0.5:
            d = mf.ConstantMetric(float(rng.uniform(0.0, 0.3)))
        else:
            d = mf.ScaledEuclideanMetric(float(rng.uniform(0.1, 0.8)))
        config = mf.TrainConfig(
            alpha=float(rng.uniform(0.1, 0.5)),
            gamma=float(rng.uniform(0.25, 0.6)),
            eps_alpha=0.2,
            eps_gamma=0.2,
            solver=mf.SolverConfig(max_iters=1200, seed=trial),
        )
        predictor, report = mf.train_fair_linear(ds, d, config)
        _, oracle_obj = brute_force_oracle_2d(ds, d, config, 0.01)
        worst_gap = max(worst_gap, report.final_objective - oracle_obj)
        worst_slack = max(worst_slack, report.final_constraint_slack)
    elapsed = time.time() - started
    _report(
        5,
        f"linear learner vs grid oracle: worst gap {worst_gap:.4f} (<= 0.02), "
        f"worst slack {worst_slack:.2e} (<= 1e-6), {elapsed:.1f}s (< 60s)",
        worst_gap <= 0.02 and worst_slack <= 1e-6 and elapsed < 60.0,
    )


def test_criterion_06_kernel_learner_sanity():
    rng = np.random.default_rng(606)
    cfg = mf.TrainConfig(
        alpha=0.3, gamma=0.4, eps_alpha=0.2, eps_gamma=0.2,
        learner=mf.KernelLearner(B=1e4),
        solver=mf.SolverConfig(max_iters=1200, seed=0),
    )

    # (a) representer consistency on the training points
    ds = random_dataset(rng, 10, 2)
    predictor, report = mf.train_fair_kernel(ds, mf.ConstantMetric(1.0), cfg)
    K = mf.gram_matrix(ds, mf.VovkHalfKernel())
    representer_diff = float(np.max(np.abs(K @ predictor.beta - predictor.raw_batch(ds.features))))

    # (b) vacuous metric matches the unconstrained baseline
    y01 = ds.targets01
    m = len(ds)

    def objective(beta):
        r = K @ beta - y01
        return float(np.mean(np.abs(r))), K @ np.sign(r) / m

    def no_constraint(beta):
        return -1.0, np.zeros(m)

    def project(w, step, direction):
        beta = w - step * direction
        q = float(beta @ (K @ beta))
        return beta if q <= 1e4 else beta * math.sqrt(1e4 / q)

    init = np.linalg.solve(K + 1e-3 * m * np.eye(m), y01)
    _, baseline = mf.solve_annealed(objective, no_constraint, project, cfg.solver, init)
    baseline_diff = abs(report.final_objective - baseline.final_objective)

    # (c) XOR-style instance separates the two hypothesis classes
    pts, labs = [], []
    for sx, sy in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
        for _ in range(3):
            pts.append([sx * 0.55 + 0.05 * rng.standard_normal(),
                        sy * 0.55 + 0.05 * rng.standard_normal()])
            labs.append(1 if sx * sy > 0 else -1)
    X = np.array(pts)
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0) * 1.000001
    xor_ds = mf.LabeledDataset(X, np.array(labs))
    _, kernel_rep = mf.train_fair_kernel(xor_ds, mf.ConstantMetric(1.0), cfg)
    lin_cfg = mf.TrainConfig(alpha=0.3, gamma=0.4, eps_alpha=0.2, eps_gamma=0.2,
                             solver=mf.SolverConfig(max_iters=1200, seed=0))
    _, linear_rep = mf.train_fair_linear(xor_ds, mf.ConstantMetric(1.0), lin_cfg)

    _report(
        6,
        f"kernel sanity: representer diff {representer_diff:.2e} (<= 1e-9), "
        f"baseline diff {baseline_diff:.4f} (<= 0.02), "
        f"xor kernel {kernel_rep.final_objective:.3f} (< 0.25) vs "
        f"linear {linear_rep.final_objective:.3f} (>= 0.45)",
        representer_diff <= 1e-9,
    )
    assert baseline_diff <= 0.02
    assert kernel_rep.final_objective < 0.25
    assert linear_rep.final_objective >= 0.45


def test_criterion_07_fairness_generalization():
    rng = np.random.default_rng(707)
    started = time.time()
    n = 5
    G = 10.0
    gamma = 0.15
    delta = 0.05
    d = mf.ConstantMetric(0.1)
    n_pop = 20_000

    def one_trial(m):
        w = rng.standard_normal(n)
        w /= float(np.linalg.norm(w))
        h = mf.LinearPredictor(w)
        ds = mf.LabeledDataset(unit_ball_points(rng, m, n), np.ones(m, dtype=int))
        matching = mf.build_matching(ds, mf.Consecutive())
        empirical = mf.empirical_mf_loss(h, ds, matching, d, gamma)
        P = unit_ball_points(rng, n_pop, n)
        Q = unit_ball_points(rng, n_pop, n)
        gaps = np.abs(h.predict_batch(P) - h.predict_batch(Q))
        dists = d.pair_distances(P, Q)
        pops = [float(np.mean(gaps > dists + g)) for g in
                (gamma - 1.0 / G, gamma, gamma + 1.0 / G)]
        return empirical, pops

    delta_m = mf.mf_generalization_delta_kernel(G, delta, 201, 1.0, 1.0)
    failures = 0
    gaps_small, gaps_large = [], []
    for _ in range(200):
        empirical, (loose, mid, tight) = one_trial(201)
        if not (tight - delta_m <= empirical <= loose + delta_m):
            failures += 1
        gaps_small.append(abs(empirical - mid))
        empirical, pops = one_trial(801)
        gaps_large.append(abs(empirical - pops[1]))
    allowed = delta + 3.0 * math.sqrt(delta * (1 - delta) / 200.0)
    ratio = float(np.median(gaps_small) / np.median(gaps_large))
    elapsed = time.time() - started
    _report(
        7,
        f"fairness generalization: {failures}/200 sandwich failures "
        f"(allowed {allowed:.3f}), rate ratio {ratio:.2f} (in [1.6, 2.6]), "
        f"{elapsed:.0f}s (< 300s)",
        failures / 200.0 <= allowed and 1.6 <= ratio <= 2.6 and elapsed < 300.0,
    )


def test_criterion_08_rademacher_estimator():
    est_identity = mf.empirical_rademacher_kernel_ball(np.eye(16), 1.0, 500, seed=0)
    ones_est = mf.empirical_rademacher_kernel_ball(np.ones((2, 2)), 1.0, 10_000, seed=1)
    rng = np.random.default_rng(808)
    bound_ok = True
    for _ in range(20):
        m = int(rng.integers(4, 40))
        A = rng.standard_normal((m, m))
        gram = A @ A.T
        C = float(rng.uniform(0.05, 1.0))
        est = mf.empirical_rademacher_kernel_ball(gram, C, 2000, seed=int(rng.integers(1e6)))
        M = float(np.max(np.diag(gram)))
        if est.value > math.sqrt(C * M / m) + est.mc_half_width:
            bound_ok = False
    _report(
        8,
        f"rademacher estimator: identity {est_identity.value} (= 0.25 exactly), "
        f"all-ones {ones_est.value:.3f} (0.5 +/- 0.01), ball bound on 20 grams",
        est_identity.value == 0.25
        and abs(ones_est.value - 0.5) <= 0.01
        and bound_ok,
    )


def test_criterion_09_bound_calculators_reproduce_pinned_values():
    # independent transcriptions of the closed forms
    expected_delta = 2 * 10 * (4 * 0.001 + (4 + 17 * math.sqrt(math.log(80))) / 1000.0)
    got_delta = mf.mf_generalization_delta(10, 0.05, 10**6 + 1, 0.001)

    expected_kernel_delta = 2 * (4 + 4 * math.sqrt(2) + 17 * math.sqrt(math.log(80))) / 20.0
    got_kernel_delta = mf.mf_generalization_delta_kernel(1, 0.05, 401, 1, 1)

    expected_b = 6 * 81 + math.exp(27 * math.log(24) + 5)
    got_b = mf.kernel_norm_bound_B(3.0, 0.5)

    got_m = mf.sample_complexity_linear(0.1, 0.1, 0.1, 0.1, 0.05).branches["utility_m"]

    ok = (
        abs(got_delta - expected_delta) <= 1e-6 * expected_delta
        and abs(got_delta - 0.87173) <= 1e-5
        and abs(got_kernel_delta - expected_kernel_delta) <= 1e-6 * expected_kernel_delta
        and abs(got_kernel_delta - 4.52434) <= 1e-5
        and abs(got_b - expected_b) <= 1e-6 * expected_b
        and abs(got_b - 2.74e39) <= 5e-3 * 2.74e39
        and got_m == 673
    )
    _report(
        9,
        f"bound calculators: delta {got_delta:.6f}, kernel delta {got_kernel_delta:.6f}, "
        f"B* {got_b:.3e}, lin m {got_m}",
        ok,
    )


def test_criterion_10_hardness_demo():
    report = mf.run_hardness_experiment(n=32, k_pairs=500, seed=1001)
    averaged_ok = abs(report.averaged_fair_error_u - 0.5) <= 1e-12
    audit = report.perfect_fairness_audit["V"]
    reference_ok = report.reference_error["V"] == 0.0 and audit["n_violations"] == 0
    audit_count_ok = audit["n_pairs_audited"] == 10_000
    gap = report.trained["kernel"]["accuracy_gap"]

    paired, handle = mf.sample_hardness_distribution(32, 500, "U", 1002)
    validation = mf.validate_metric(mf.HardnessMetric(handle), paired.dataset, 100_000, seed=1003)
    _report(
        10,
        f"hardness demo: averaged-fair error {report.averaged_fair_error_u} (= 0.5 +/- 1e-12), "
        f"mode-V reference clean over {audit['n_pairs_audited']} pairs, "
        f"accuracy gap {gap:.3f} (> 0.3), "
        f"triangle violations {len(validation.triangle_violations)}/1e5 triples",
        averaged_ok and reference_ok and audit_count_ok and gap > 0.3
        and len(validation.triangle_violations) == 0,
    )


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    rng = np.random.default_rng(1101)
    data_path = tmp_path / "data.csv"
    save_dataset_csv(random_dataset(rng, 21, 2), data_path)
    predictor_path = tmp_path / "predictor.json"
    save_predictor_json(mf.ConstantPredictor(0.5), predictor_path)

    commands = {
        "gen-data": ["gen-data", "--generator", "separable", "--n", "3", "--m", "30",
                     "--seed", "5", "--out", None],
        "train": ["train", "--data", str(data_path), "--metric", "constant:0.2",
                  "--alpha", "0.3", "--gamma", "0.4", "--eps-alpha", "0.2",
                  "--eps-gamma", "0.2", "--max-iters", "300", "--seed", "5",
                  "--predictor-out", None, "--out", None, "--no-timestamp"],
        "audit": ["audit", "--data", str(data_path), "--metric", "euclidean:0.5",
                  "--predictor", str(predictor_path), "--gamma", "0.1", "--seed", "5",
                  "--out", None, "--no-timestamp"],
        "bounds": ["bounds", "--formula", "delta-m", "--g", "10", "--delta", "0.05",
                   "--m", "1000001", "--rhat", "0.001", "--out", None, "--no-timestamp"],
        "hardness-demo": ["hardness-demo", "--n", "8", "--pairs", "10", "--mode", "v",
                          "--seed", "5", "--audit-pairs", "100", "--skip-training",
                          "--out", None, "--no-timestamp"],
        "validate-metric": ["validate-metric", "--data", str(data_path),
                            "--metric", "constant:0.3", "--triples", "500",
                            "--seed", "5", "--out", None, "--no-timestamp"],
    }
    all_ok = True
    for name, template in commands.items():
        outputs = []
        for attempt in ("a", "b"):
            argv = []
            fill = 0
            for token in template:
                if token is None:
                    fill += 1
                    argv.append(str(tmp_path / f"{name}-{attempt}-{fill}.out"))
                else:
                    argv.append(token)
            code = run_cli(argv)
            capsys.readouterr()
            assert code == 0, f"{name} failed"
            produced = sorted(tmp_path.glob(f"{name}-{attempt}-*.out"))
            outputs.append(b"".join(p.read_bytes() for p in produced))
        if outputs[0] != outputs[1]:
            all_ok = False
    _report(11, "byte-identical re-runs for all six subcommands", all_ok)
