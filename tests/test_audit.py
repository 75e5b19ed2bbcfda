"""Fairness losses: 0/1 and l1 variants, surrogate ramp, profiles, audits."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as scalar
from conftest import (
    PREDICTOR_KINDS,
    TablePredictor,
    predictor_with_formula,
    random_dataset,
    random_metric,
    random_predictor,
    unit_ball_points,
)
from metricfair import (
    ConstantMetric,
    ConstantPredictor,
    Consecutive,
    Example,
    LabeledDataset,
    LinearPredictor,
    ScaledEuclideanMetric,
    ValidationError,
    all_pairs_mf_loss,
    audit_predictor,
    build_matching,
    default_matching,
    empirical_l1_loss,
    empirical_mf_loss,
    group_fairness_profile,
    hoeffding_half_width,
    is_perfectly_fair,
    pair_l1_loss,
    pair_mf_loss,
    population_mf_estimate,
    surrogate_loss,
    surrogate_ramp,
)
from metricfair.serde import write_report


def _pair(h1, h2):
    """Two 1-d examples and a table predictor hitting the requested values."""
    xs = np.array([[0.1], [0.2]])
    return (
        TablePredictor(xs, [h1, h2]),
        Example(xs[0], 1),
        Example(xs[1], -1),
    )


# --- independent re-implementations used as oracles -------------------------


def loop_mf_loss(h, S, M, d, gamma):
    total = 0
    for i, j in zip(M.left, M.right):
        gap = abs(h.predict(S.features[i]) - h.predict(S.features[j]))
        total += 1 if gap > d.distance(S.features[i], S.features[j]) + gamma else 0
    return total / len(M)


def loop_l1_loss(h, S, M, d):
    total = 0.0
    for i, j in zip(M.left, M.right):
        gap = abs(h.predict(S.features[i]) - h.predict(S.features[j]))
        total += max(0.0, gap - d.distance(S.features[i], S.features[j]))
    return total / len(M)


class TestPairLosses:
    def test_violation_counted(self):
        h, a, b = _pair(0.9, 0.2)
        assert pair_mf_loss(h, a, b, ConstantMetric(0.5), 0.1) == 1  # 0.7 > 0.6

    def test_equal_predictions_never_charged(self):
        h, a, b = _pair(0.4, 0.4)
        assert pair_mf_loss(h, a, b, ConstantMetric(0.0), 0.0) == 0

    def test_distance_one_never_charged(self):
        h, a, b = _pair(1.0, 0.0)
        assert pair_mf_loss(h, a, b, ConstantMetric(1.0), 0.0) == 0

    def test_strict_inequality_at_boundary(self):
        # gap exactly d + gamma is not a violation
        h, a, b = _pair(0.7, 0.1)
        assert pair_mf_loss(h, a, b, ConstantMetric(0.5), 0.1) == 0

    def test_l1_values(self):
        h, a, b = _pair(0.8, 0.1)
        assert pair_l1_loss(h, a, b, ConstantMetric(0.5)) == pytest.approx(0.2)
        assert pair_l1_loss(h, a, b, ConstantMetric(0.9)) == 0.0
        h, a, b = _pair(1.0, 0.0)
        assert pair_l1_loss(h, a, b, ConstantMetric(0.0)) == 1.0

    def test_gamma_domain(self):
        h, a, b = _pair(0.5, 0.5)
        with pytest.raises(ValidationError):
            pair_mf_loss(h, a, b, ConstantMetric(0.5), 1.0)

    @given(kind=st.sampled_from(PREDICTOR_KINDS), euclidean=st.booleans(),
           n=st.integers(1, 6), same=st.booleans(), seed=st.integers(0, 2**16),
           gamma=st.floats(0.0, 0.99), G=st.floats(1.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_match_old_per_pair_formulas(self, kind, euclidean, n, same, seed, gamma, G):
        rng = np.random.default_rng(seed)
        h, formula, exact = predictor_with_formula(kind, rng, n)
        d = ScaledEuclideanMetric(float(rng.uniform(0.2, 1.5))) if euclidean \
            else ConstantMetric(float(rng.uniform(0.0, 0.6)))
        x, y = unit_ball_points(rng, 2, n)
        if same:
            y = x.copy()
        a, b = Example(x, 1), Example(y, -1)
        mf = pair_mf_loss(h, a, b, d, gamma)
        l1 = pair_l1_loss(h, a, b, d)
        ramp = surrogate_loss(h, a, b, d, gamma, G)
        expected_l1 = scalar.pair_l1_loss(formula, d.distance, x, y)
        expected_ramp = scalar.surrogate_loss(formula, d.distance, x, y, gamma, G)
        if exact:
            assert mf == scalar.pair_mf_loss(formula, d.distance, x, y, gamma)
            assert l1 == expected_l1
            assert ramp == expected_ramp
        else:
            # the scalar predictions may differ in their last bits
            gap = abs(formula(x) - formula(y))
            if abs(gap - (d.distance(x, y) + gamma)) > 1e-12:
                assert mf == scalar.pair_mf_loss(formula, d.distance, x, y, gamma)
            assert l1 == pytest.approx(expected_l1, rel=0, abs=1e-12)
            assert ramp == pytest.approx(expected_ramp, rel=0, abs=G * 1e-12)
        assert type(mf) is int and type(l1) is float and type(ramp) is float


class TestEmpiricalLosses:
    def test_worked_example(self):
        X = np.array([[0.1], [0.2], [0.3], [0.4]])
        ds = LabeledDataset(X, np.array([1, -1, 1, -1]))
        h = TablePredictor(X, [0.9, 0.2, 0.5, 0.5])
        M = build_matching(ds, Consecutive())

        class EdgeMetric:
            def distance(self, x, y):
                return 0.5 if abs(x[0] - 0.1) < 1e-9 or abs(y[0] - 0.1) < 1e-9 else 0.0

            def pair_distances(self, xs, ys):
                return np.array([self.distance(a, b) for a, b in zip(xs, ys)])

        # edge (0,1): |0.9-0.2| = 0.7 > 0.5 + 0.1 -> charged;
        # edge (2,3): gap 0 -> clean
        assert empirical_mf_loss(h, ds, M, EdgeMetric(), 0.1) == 0.5

    def test_constant_predictor_is_clean(self, rng):
        ds = random_dataset(rng, 9, 3)
        M = default_matching(ds, 3)
        h = ConstantPredictor(0.6)
        assert empirical_mf_loss(h, ds, M, random_metric(rng), 0.1) == 0.0
        assert empirical_l1_loss(h, ds, M, random_metric(rng)) == 0.0

    def test_matches_loop_oracle(self, rng):
        for _ in range(25):
            m = int(rng.integers(5, 30))
            ds = random_dataset(rng, m, 3)
            h = random_predictor(rng, 3)
            d = random_metric(rng)
            M = default_matching(ds, int(rng.integers(0, 100)))
            gamma = float(rng.uniform(0.0, 0.5))
            assert empirical_mf_loss(h, ds, M, d, gamma) == loop_mf_loss(h, ds, M, d, gamma)
            assert empirical_l1_loss(h, ds, M, d) == pytest.approx(
                loop_l1_loss(h, ds, M, d), abs=1e-12
            )

    def test_l1_worked_mean(self):
        X = np.array([[0.0, 0.1], [0.0, 0.2], [0.0, 0.3], [0.0, 0.4], [0.0, 0.5], [0.0, 0.6]])
        ds = LabeledDataset(X, np.array([1, -1, 1, -1, 1, -1]))
        h = TablePredictor(X, [0.9, 0.6, 0.5, 0.5, 0.7, 0.6])
        M = build_matching(ds, Consecutive())
        # per-edge gaps 0.3, 0.0, 0.1 with distance 0
        assert empirical_l1_loss(h, ds, M, ConstantMetric(0.0)) == pytest.approx(
            (0.3 + 0.0 + 0.1) / 3.0
        )

    def test_empty_matching_rejected(self, rng):
        ds = random_dataset(rng, 4, 2)
        from metricfair import Matching

        with pytest.raises(ValidationError):
            empirical_mf_loss(
                ConstantPredictor(0.5), ds, Matching([], [], m=4), ConstantMetric(0.0), 0.0
            )

    def test_monotone_in_gamma_and_distance(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, 15, 3)
            h = random_predictor(rng, 3)
            M = default_matching(ds, 5)
            losses = [empirical_mf_loss(h, ds, M, ConstantMetric(0.2), g)
                      for g in (0.0, 0.1, 0.3, 0.5)]
            assert all(a >= b for a, b in zip(losses, losses[1:]))
            by_dist = [empirical_mf_loss(h, ds, M, ConstantMetric(c), 0.1)
                       for c in (0.0, 0.2, 0.5, 1.0)]
            assert all(a >= b for a, b in zip(by_dist, by_dist[1:]))


def unit_ball_dataset(m, n, seed):
    """m points drawn uniformly from the n-dimensional unit ball, labels +1."""
    return LabeledDataset(unit_ball_points(np.random.default_rng(seed), m, n), np.ones(m))


class TestPopulationEstimate:
    def test_constant_predictor_estimates_zero(self):
        est = population_mf_estimate(
            ConstantPredictor(0.2), unit_ball_dataset(200, 3, 0), ConstantMetric(0.0), 0.0, 500,
            seed=1,
        )
        assert est.estimate == 0.0

    def test_half_width_formula(self):
        # sqrt(ln(2/0.05) / (2 * 10^4))
        expected = math.sqrt(math.log(2.0 / 0.05) / (2.0 * 10_000))
        assert hoeffding_half_width(10_000) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.01358, abs=1e-5)

    def test_against_high_resolution_reference(self, rng):
        w = np.array([0.8, 0.3, 0.0])
        w /= np.linalg.norm(w) / 0.9
        h = LinearPredictor(w)
        d = ConstantMetric(0.0)
        S = unit_ball_dataset(5_000, 3, 7)
        est = population_mf_estimate(h, S, d, 0.0, 20_000, seed=5)
        # brute-force reference with one million pairs of rows of S
        big = np.random.default_rng(999)
        P = S.features[big.integers(0, len(S), size=1_000_000)]
        Q = S.features[big.integers(0, len(S), size=1_000_000)]
        ref = float(np.mean(np.abs(h.predict_batch(P) - h.predict_batch(Q)) > 0.0))
        assert est.estimate > 0.0
        assert abs(est.estimate - ref) <= est.half_width + hoeffding_half_width(1_000_000)

    def test_deterministic_given_seed(self):
        h = LinearPredictor(np.array([0.5, 0.2]))
        S = unit_ball_dataset(300, 2, 3)
        a = population_mf_estimate(h, S, ConstantMetric(0.1), 0.05, 2000, seed=3)
        b = population_mf_estimate(h, S, ConstantMetric(0.1), 0.05, 2000, seed=3)
        assert a == b

    @given(kind=st.sampled_from(PREDICTOR_KINDS), m=st.integers(1, 40),
           n_pairs=st.integers(1, 300), gamma=st.floats(0.0, 0.9), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_estimate_equals_the_dataset_sampler_draw(self, kind, m, n_pairs, gamma, seed):
        rng = np.random.default_rng(seed)
        h, _, _ = predictor_with_formula(kind, rng, 3)
        S = random_dataset(rng, m, 3)
        d = random_metric(rng)
        est = population_mf_estimate(h, S, d, gamma, n_pairs, seed)
        assert est.estimate == scalar.population_mf_estimate(h, S, d, gamma, n_pairs, seed)
        assert est.n_pairs == n_pairs


class TestSurrogate:
    def test_boundary_and_midpoint(self):
        assert surrogate_ramp(0.3, 0.3, 10.0) == 0.0
        assert surrogate_ramp(0.3 + 0.05, 0.3, 10.0) == pytest.approx(0.5)
        assert surrogate_ramp(0.3 + 0.1, 0.3, 10.0) == 1.0

    def test_pair_level(self):
        h, a, b = _pair(0.9, 0.2)
        # u = 0.7 - 0.5 = 0.2; gamma=0.1, G=5 -> ramp 0.5
        assert surrogate_loss(h, a, b, ConstantMetric(0.5), 0.1, 5.0) == pytest.approx(0.5)

    def test_sandwich_on_random_inputs(self, rng):
        u = rng.uniform(-1.2, 1.2, size=20_000)
        gamma = rng.uniform(0.01, 0.99, size=20_000)
        G = rng.uniform(1.0, 50.0, size=20_000)
        ramp = np.array([surrogate_ramp(ui, gi, Gi) for ui, gi, Gi in zip(u, gamma, G)])
        upper = (u > gamma).astype(float)
        lower = (u > gamma + 1.0 / G).astype(float)
        assert np.all(lower <= ramp + 1e-15)
        assert np.all(ramp <= upper + 1e-15)

    @given(
        u=st.floats(-2.0, 2.0),
        gamma=st.floats(0.01, 0.99),
        G=st.floats(1.0, 1000.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_ramp_range_and_monotonicity(self, u, gamma, G):
        value = float(surrogate_ramp(u, gamma, G))
        assert 0.0 <= value <= 1.0
        assert float(surrogate_ramp(u + 0.01, gamma, G)) >= value

    @given(
        h1=st.floats(0.0, 1.0),
        h2=st.floats(0.0, 1.0),
        dist=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_charged_pairs_have_l1_excess_above_gamma(self, h1, h2, dist, gamma):
        h, a, b = _pair(h1, h2)

        class FixedMetric:
            def pair_distances(self, xs, ys):
                return np.full(len(xs), dist)

        metric = FixedMetric()
        charged = pair_mf_loss(h, a, b, metric, gamma)
        excess = pair_l1_loss(h, a, b, metric)
        if charged:
            assert excess > gamma
        else:
            assert excess <= gamma + 1e-15


class TestGroupProfile:
    def test_constant_predictor_clean(self, rng):
        ds = random_dataset(rng, 12, 2)
        profile = group_fairness_profile(
            ConstantPredictor(0.4), ds, ConstantMetric(0.0), 0.0, [0.0, 0.1, 0.5, 1.0]
        )
        assert all(a1 == 0.0 for _, a1 in profile)

    def test_alpha2_of_one_maps_to_zero(self, rng):
        ds = random_dataset(rng, 12, 2)
        h = random_predictor(rng, 2)
        profile = group_fairness_profile(h, ds, ConstantMetric(0.0), 0.0, [1.0])
        assert profile[0][1] == 0.0

    def test_markov_implication(self, rng):
        grid = [0.05, 0.1, 0.2, 0.4, 0.7, 1.0]
        for _ in range(20):
            ds = random_dataset(rng, 31, 3)
            h = random_predictor(rng, 3)
            d = random_metric(rng)
            gamma = float(rng.uniform(0.0, 0.3))
            alpha_hat = all_pairs_mf_loss(h, ds, d, gamma)
            profile = dict(group_fairness_profile(h, ds, d, gamma, grid))
            for a2 in grid:
                for a1 in grid:
                    if a1 * a2 >= alpha_hat:
                        assert profile[a2] <= a1 + 1e-12


class TestPerfectFairness:
    def test_constant_predictor(self, rng):
        X = random_dataset(rng, 6, 2).features
        ok, bad = is_perfectly_fair(ConstantPredictor(0.5), X[0:4:2], X[1:4:2], ConstantMetric(0.0))
        assert ok and not bad

    def test_distance_one_any_predictor(self, rng):
        X = random_dataset(rng, 6, 2).features
        h = random_predictor(rng, 2)
        ok, _ = is_perfectly_fair(h, X[0::2], X[1::2], ConstantMetric(1.0))
        assert ok

    def test_violating_pair_reported(self):
        X = np.array([[0.1], [0.2]])
        h = TablePredictor(X, [0.9, 0.1])
        ok, bad = is_perfectly_fair(h, X[:1], X[1:], ConstantMetric(0.2))
        assert not ok and len(bad) == 1
        x, y, gap, dist = bad[0]
        assert x.tolist() == [0.1] and y.tolist() == [0.2]
        assert gap == pytest.approx(0.8) and dist == 0.2
        with pytest.raises(ValidationError, match="same number of rows"):
            is_perfectly_fair(h, X, X[:1], ConstantMetric(0.2))


class TestL1L0Sandwich:
    def test_both_directions_on_random_instances(self, rng):
        grid = [(0.3, 0.2), (0.5, 0.4), (0.2, 0.1), (0.7, 0.5), (0.4, 0.6)]
        for _ in range(60):
            ds = random_dataset(rng, 21, 3)
            h = random_predictor(rng, 3)
            d = random_metric(rng)
            M = default_matching(ds, int(rng.integers(0, 50)))
            l1 = empirical_l1_loss(h, ds, M, d)
            for tau, gamma in grid:
                mf = empirical_mf_loss(h, ds, M, d, gamma)
                if l1 <= tau:
                    assert mf <= tau / gamma + 1e-12
                if mf <= tau - gamma:
                    assert l1 <= tau + 1e-12


class TestAuditReport:
    def test_report_fields_and_serialization(self, rng):
        ds = random_dataset(rng, 15, 3)
        h = random_predictor(rng, 3)
        M = default_matching(ds, 1)
        report = audit_predictor(
            h, ds, M, ConstantMetric(0.2), 0.1, population_pairs=500, seed=4
        )
        payload = json.loads(write_report({"results": report}, no_timestamp=True))["results"]
        assert set(payload) == {
            "empirical_mf_loss", "empirical_l1_loss", "population_estimate",
            "population_ci", "group_profile", "gamma", "n_edges",
        }
        assert payload["n_edges"] == 7
        assert 0.0 <= payload["empirical_mf_loss"] <= 1.0
        assert payload["population_ci"] == pytest.approx(hoeffding_half_width(500))
