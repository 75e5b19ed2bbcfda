"""Fairness losses: 0/1 and l1 variants, surrogate ramp, profiles, audits."""

import contextlib
import importlib.util
import json
import math
from pathlib import Path
from unittest import mock

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
    LabeledDataset,
    LinearPredictor,
    Matching,
    MatrixMetric,
    ScaledEuclideanMetric,
    SimilarityMetric,
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
    population_mf_estimate,
    surrogate_ramp,
)
from metricfair import core
from metricfair.hardness import HardnessMetric, sample_hardness_distribution
from metricfair.audit import _per_individual_rates
from metricfair.serde import write_report


#: the one-edge matching of a two-row dataset: a single pair
ONE_EDGE = Matching([0], [1], 2)


def _pair(h1, h2):
    """A two-row 1-d dataset and a table predictor hitting the requested values."""
    xs = np.array([[0.1], [0.2]])
    return TablePredictor(xs, [h1, h2]), LabeledDataset(xs, np.array([1, -1]))


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
    """A single pair's losses: the empirical losses over a one-edge matching."""

    def test_violation_counted(self):
        h, S = _pair(0.9, 0.2)
        assert empirical_mf_loss(h, S, ONE_EDGE, ConstantMetric(0.5), 0.1) == 1.0  # 0.7 > 0.6

    def test_equal_predictions_never_charged(self):
        h, S = _pair(0.4, 0.4)
        assert empirical_mf_loss(h, S, ONE_EDGE, ConstantMetric(0.0), 0.0) == 0.0

    def test_distance_one_never_charged(self):
        h, S = _pair(1.0, 0.0)
        assert empirical_mf_loss(h, S, ONE_EDGE, ConstantMetric(1.0), 0.0) == 0.0

    def test_strict_inequality_at_boundary(self):
        # gap exactly d + gamma is not a violation
        h, S = _pair(0.7, 0.1)
        assert empirical_mf_loss(h, S, ONE_EDGE, ConstantMetric(0.5), 0.1) == 0.0

    def test_l1_values(self):
        h, S = _pair(0.8, 0.1)
        assert empirical_l1_loss(h, S, ONE_EDGE, ConstantMetric(0.5)) == pytest.approx(0.2)
        assert empirical_l1_loss(h, S, ONE_EDGE, ConstantMetric(0.9)) == 0.0
        h, S = _pair(1.0, 0.0)
        assert empirical_l1_loss(h, S, ONE_EDGE, ConstantMetric(0.0)) == 1.0

    def test_gamma_domain(self):
        h, S = _pair(0.5, 0.5)
        with pytest.raises(ValidationError):
            empirical_mf_loss(h, S, ONE_EDGE, ConstantMetric(0.5), 1.0)

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
        S = LabeledDataset(np.stack([x, y]), np.array([1, -1]))
        mf = empirical_mf_loss(h, S, ONE_EDGE, d, gamma)
        l1 = empirical_l1_loss(h, S, ONE_EDGE, d)
        # the ramp is 0 at and below gamma >= 0, so the ramp of the clamped
        # excess is the surrogate loss of the pair
        ramp = float(surrogate_ramp(l1, gamma, G))
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
        assert type(mf) is float and type(l1) is float


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

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_audit_estimate_targets_the_all_pairs_loss(self, seed):
        """The audit's population_estimate estimates S's all-ordered-pairs loss,
        the mean of the per-individual rates that the same audit's profile
        computes exactly, and its population_ci covers that loss (in 60 of 60
        draws at seeds 0-59)."""
        rng = np.random.default_rng(seed)
        S = unit_ball_dataset(401, 4, seed)
        w = rng.standard_normal(4)
        h = LinearPredictor(w / np.linalg.norm(w))
        d = ScaledEuclideanMetric(float(rng.uniform(0.1, 0.6)))
        report = audit_predictor(h, S, default_matching(S, seed), d, 0.05,
                                 population_pairs=200_000, seed=seed)
        exact = all_pairs_mf_loss(h, S, d, 0.05)
        assert exact > 0.0
        assert abs(report.population_estimate - exact) <= report.population_ci

    def test_deterministic_given_seed(self):
        h = LinearPredictor(np.array([0.5, 0.2]))
        S = unit_ball_dataset(300, 2, 3)
        a = population_mf_estimate(h, S, ConstantMetric(0.1), 0.05, 2000, seed=3)
        b = population_mf_estimate(h, S, ConstantMetric(0.1), 0.05, 2000, seed=3)
        assert a == b

    @given(kind=st.sampled_from(PREDICTOR_KINDS), m=st.integers(1, 40),
           n_pairs=st.integers(1, 300), gamma=st.floats(0.0, 0.9), seed=st.integers(0, 2**16),
           block=st.integers(1, 120))
    @settings(max_examples=80, deadline=None)
    def test_estimate_equals_the_dataset_sampler_draw(self, kind, m, n_pairs, gamma, seed, block):
        rng = np.random.default_rng(seed)
        h, _, _ = predictor_with_formula(kind, rng, 3)
        S = random_dataset(rng, m, 3)
        d = random_metric(rng)
        with mock.patch.object(core, "_PAIR_BLOCK", block):
            est = population_mf_estimate(h, S, d, gamma, n_pairs, seed)
        assert est.estimate == scalar.population_mf_estimate(h, S, d, gamma, n_pairs, seed)
        assert est.n_pairs == n_pairs


class TestSurrogate:
    def test_boundary_and_midpoint(self):
        assert surrogate_ramp(0.3, 0.3, 10.0) == 0.0
        assert surrogate_ramp(0.3 + 0.05, 0.3, 10.0) == pytest.approx(0.5)
        assert surrogate_ramp(0.3 + 0.1, 0.3, 10.0) == 1.0

    def test_pair_level(self):
        h, S = _pair(0.9, 0.2)
        # u = 0.7 - 0.5 = 0.2 is the pair's l1 loss; gamma=0.1, G=5 -> ramp 0.5
        u = empirical_l1_loss(h, S, ONE_EDGE, ConstantMetric(0.5))
        assert surrogate_ramp(u, 0.1, 5.0) == pytest.approx(0.5)

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
        h, S = _pair(h1, h2)

        class FixedMetric:
            def pair_distances(self, xs, ys):
                return np.full(len(xs), dist)

        metric = FixedMetric()
        charged = empirical_mf_loss(h, S, ONE_EDGE, metric, gamma)
        excess = empirical_l1_loss(h, S, ONE_EDGE, metric)
        if charged:
            assert excess > gamma
        else:
            assert excess <= gamma + 1e-15


class TestGammaDomain:
    """Every 0/1-loss entry point rejects a gamma outside [0, 1), NaN included,
    instead of returning a loss that makes the predictor look fair."""

    ENTRY_POINTS = {
        "empirical_mf_loss": lambda h, S, d, g: empirical_mf_loss(h, S, default_matching(S, 0), d, g),
        "all_pairs_mf_loss": all_pairs_mf_loss,
        "group_fairness_profile": lambda h, S, d, g: group_fairness_profile(h, S, d, g, [0.1]),
        "population_mf_estimate": lambda h, S, d, g: population_mf_estimate(h, S, d, g, 100, 0),
        "audit_predictor": lambda h, S, d, g: audit_predictor(h, S, default_matching(S, 0), d, g),
        "surrogate_ramp": lambda h, S, d, g: surrogate_ramp(0.5, g, 10.0),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("gamma", [math.nan, -1.0, 1.0, math.inf])
    def test_rejected_with_the_value(self, rng, entry, gamma):
        S = random_dataset(rng, 20, 3)
        h = random_predictor(rng, 3)
        with pytest.raises(ValidationError, match=r"gamma must be in \[0, 1\), got"):
            self.ENTRY_POINTS[entry](h, S, ScaledEuclideanMetric(0.8), gamma)

    def test_ramp_rejects_nan_slope(self):
        with pytest.raises(ValidationError, match="ramp slope G must be >= 1, got nan"):
            surrogate_ramp(0.5, 0.1, math.nan)


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

    @pytest.mark.parametrize("a2", [-0.1, 1.5, 5.0, math.nan])
    def test_alpha2_outside_unit_interval_rejected(self, rng, a2):
        ds = random_dataset(rng, 12, 2)
        with pytest.raises(ValidationError, match=r"alpha2 must be in \[0, 1\], got"):
            group_fairness_profile(ConstantPredictor(0.4), ds, ConstantMetric(0.0), 0.0,
                                   [0.1, a2])

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


class SkewedMetric(SimilarityMetric):
    """A distance given only by `pair_distances`, so the profile's generic
    blocks run; it is asymmetric, so its orientation shows."""

    def pair_distances(self, xs, ys):
        xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
        return np.minimum(1.0, np.abs(xs[:, 0] - ys[:, 0]) + 0.25 * (xs[:, 1] > ys[:, 1]))


def gram_distance_tolerance(scale: float, n: int) -> float:
    """A bound on |Gram-form distance - pair_distances| of
    ScaledEuclideanMetric on points of the n-dimensional unit ball, with eps
    the machine epsilon and u = eps / 2 the unit roundoff.

    The Gram form computes d2 = |x|^2 + |y|^2 - 2<x, y>. Each of the three
    inner products is within gamma_n |x|.|y| <= gamma_n ~ n u of its value
    (Higham, Accuracy and Stability of Numerical Algorithms, eq. 3.5, with
    Cauchy-Schwarz on the ball), the doubling is exact and the two additions
    add at most 6.1 u, so d2 is within E = (4n + 8) eps of |x - y|^2, about
    twice the 4 gamma_n + 6.1 u derived. Clamping at 0 moves d2 towards
    |x - y|^2 >= 0, and since |sqrt(a) - sqrt(b)| <= sqrt(|a - b|) the root
    is within sqrt(E) + 2u of |x - y|: near-duplicate points lose all their
    digits to cancellation. The pair form rounds x - y and its norm, within
    (n + 6) u of |x - y| <= 2. Scaling adds a relative u to each and
    min(1, .) is 1-Lipschitz. The slack in E covers the rounding of d + tol
    and of + gamma in the comparisons of the tests below.
    """
    eps = float(np.finfo(np.float64).eps)
    return scale * (math.sqrt((4 * n + 8) * eps) + (n + 6) * eps)


#: grid values that make exact ties |h_i - h_j| = d + gamma common
GRID = (0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0)


def _grid_or_float(lo, hi):
    return st.one_of(st.sampled_from([g for g in GRID if lo <= g <= hi]), st.floats(lo, hi))


@st.composite
def profile_instances(draw, kinds):
    """(metric kind, metric, points, table predictor, gamma, patched block):
    m grid or float points of the 2-d ball (duplicates included) and a
    _PAIR_BLOCK that gives row blocks of 1, 2 or 3 rows."""
    m = draw(st.integers(1, 12), label="m")
    coords = draw(st.lists(st.one_of(st.sampled_from((-0.5, -0.25, 0.0, 0.25, 0.5)),
                                     st.floats(-0.7, 0.7)),
                           min_size=2 * m, max_size=2 * m), label="coords")
    X = np.array(coords).reshape(m, 2)
    h = TablePredictor(X, draw(st.lists(_grid_or_float(0.0, 1.0), min_size=m, max_size=m),
                               label="values"))
    gamma = draw(_grid_or_float(0.0, 0.9), label="gamma")
    rows = draw(st.integers(1, 3), label="rows per block")
    block = rows * m + draw(st.integers(0, m - 1), label="block remainder")
    kind = draw(st.sampled_from(kinds), label="metric")
    if kind == "constant":
        metric = ConstantMetric(draw(_grid_or_float(0.0, 1.0), label="c"))
    elif kind == "matrix":
        entries = draw(st.lists(st.sampled_from(GRID), min_size=m * m, max_size=m * m))
        # a row with the features of an earlier one is the same point, so it
        # takes that row's matrix row and column; -0.0 and 0.0 are one value
        keys = [(x + 0.0).tobytes() for x in X]
        first = [keys.index(key) for key in keys]
        metric = MatrixMetric(np.reshape(entries, (m, m))[np.ix_(first, first)], X)
    elif kind == "skewed":
        metric = SkewedMetric()
    else:
        metric = ScaledEuclideanMetric(draw(_grid_or_float(0.1, 1.5), label="scale"))
    return kind, metric, X, h, gamma, block


class TestBlockedProfile:
    """The profile is built in row blocks of about core._PAIR_BLOCK entries;
    with the budget patched, m spans several blocks of 1, 2 or 3 rows."""

    @given(instance=profile_instances(("constant", "matrix", "skewed")))
    @settings(max_examples=200, deadline=None)
    def test_rates_equal_the_loop_oracle(self, instance):
        _, metric, X, h, gamma, block = instance
        S = LabeledDataset(X, np.ones(len(X)))
        with mock.patch.object(core, "_PAIR_BLOCK", block):
            got = _per_individual_rates(h, S, metric, gamma)
        expected = scalar.per_individual_rates(h.predict, metric.distance, X, gamma)
        assert got.tolist() == expected.tolist()

    @given(instance=profile_instances(("euclidean",)))
    @settings(max_examples=200, deadline=None)
    def test_euclidean_rates_are_bracketed_by_the_loop_oracle(self, instance):
        _, metric, X, h, gamma, block = instance
        S = LabeledDataset(X, np.ones(len(X)))
        tol = gram_distance_tolerance(metric.scale, X.shape[1])
        with mock.patch.object(core, "_PAIR_BLOCK", block):
            got = _per_individual_rates(h, S, metric, gamma)
        farther = scalar.per_individual_rates(
            h.predict, lambda x, y: metric.distance(x, y) + tol, X, gamma)
        nearer = scalar.per_individual_rates(
            h.predict, lambda x, y: metric.distance(x, y) - tol, X, gamma)
        assert np.all(farther <= got) and np.all(got <= nearer)

    @given(instance=profile_instances(("constant", "matrix", "skewed", "euclidean")))
    @settings(max_examples=200, deadline=None)
    def test_full_matrix_is_each_pair_once_mirrored(self, instance):
        _, metric, X, _, _, block = instance
        m = len(X)
        i, j = np.triu_indices(m, 1)
        with mock.patch.object(core, "_PAIR_BLOCK", block):
            full = metric.pairwise_matrix(X)
        expected = np.zeros((m, m))
        expected[i, j] = expected[j, i] = metric.pair_distances(X[i], X[j])
        assert full.tobytes() == expected.tobytes()


class CountingMetric(SimilarityMetric):
    """Records the index pairs of every pair_distances call of `inner`, a
    metric on the distinct rows X: a list of them per call in `calls`, and
    all of them in `pairs`."""

    def __init__(self, inner, X):
        self.inner = inner
        self.index_of = {row.tobytes(): k for k, row in enumerate(X)}
        self.calls = []

    @property
    def pairs(self):
        return [pair for call in self.calls for pair in call]

    def pair_distances(self, xs, ys):
        xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
        self.calls.append([(self.index_of[x.tobytes()], self.index_of[y.tobytes()])
                           for x, y in zip(xs, ys)])
        return self.inner.pair_distances(xs, ys)


def _grid_instance(kind, seed, m=40):
    """m distinct points, grid predictions and a metric of `kind` on which a
    large share of the pairs violate at gamma = 0.125. Gaps of exactly gamma
    occur, and with the constant and matrix metrics gaps of exactly
    d + gamma too."""
    rng = np.random.default_rng(seed)
    X = unit_ball_points(rng, m, 2)
    values = rng.choice(GRID, size=m)
    if kind == "constant":
        metric = ConstantMetric(0.125)
    elif kind == "matrix":
        # asymmetric, so the orientation of each evaluated pair shows
        metric = MatrixMetric(rng.choice(GRID[:4], size=(m, m)), X)
    else:
        metric = SkewedMetric()
    return LabeledDataset(X, np.ones(m)), TablePredictor(X, values), values, metric


class CallLog(SimilarityMetric):
    """Forwards to `inner`, logging each pair_distances call with its pair
    count."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def pair_distances(self, xs, ys):
        self.calls.append(("pair_distances", len(np.atleast_2d(xs))))
        return self.inner.pair_distances(xs, ys)


def _load_tracing():
    """The benchmark's perfbench/tracing.py, loaded from its file and only
    read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_finds_every_name_it_rebinds():
    # the benchmark's tracer rebinds names on cli, learners, solver, audit,
    # datagen and hardness, and wraps metric and predictor methods by name:
    # deleting one fails here with an AttributeError that names it, before
    # any traced run
    tracing = _load_tracing()
    from metricfair import audit, cli, datagen, hardness, learners, solver
    modules = (audit, cli, datagen, hardness, learners, solver)
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.instrument_metric(ScaledEuclideanMetric(0.8))
        tracer.instrument_predictor(LinearPredictor(np.array([0.6, -0.3])))
    assert [dict(vars(module)) for module in modules] == before


class TestMetricCallShape:
    """The audit's block loops call the metric once per block, so the calls
    and pairs a traced run counts depend on the blocks, not on how a block
    is gathered."""

    def test_population_estimate_calls_pair_distances_once_per_block(self):
        block = core._PAIR_BLOCK
        n_pairs, gamma, seed = 3 * block + 7, 0.5, 8
        S = random_dataset(np.random.default_rng(seed), 500, 3)
        h = LinearPredictor(np.array([0.6, -0.3, 0.2]))
        metric = CallLog(ScaledEuclideanMetric(0.8))
        population_mf_estimate(h, S, metric, gamma, n_pairs, seed)
        draws = np.random.default_rng(seed)
        first, second = (draws.integers(0, len(S), size=n_pairs) for _ in range(2))
        values = h.predict_batch(S.features)
        near = np.abs(values[first] - values[second]) > gamma
        assert metric.calls == [("pair_distances", int(np.count_nonzero(near[s:s + block])))
                                for s in range(0, n_pairs, block)]
        # the last block's 7 pairs have no near pair: still one call, of none
        assert len(metric.calls) == 4 and metric.calls[-1] == ("pair_distances", 0)

    def test_audit_takes_the_matching_distances_once(self):
        S = random_dataset(np.random.default_rng(4), 60, 3)
        h = LinearPredictor(np.array([0.6, -0.3, 0.2]))
        M = default_matching(S, 4)
        metric = CallLog(ScaledEuclideanMetric(0.8))
        report = audit_predictor(h, S, M, metric, 0.05)
        # CallLog has no Gram form, so the profile calls it too, as it does alone
        profile = CallLog(metric.inner)
        _per_individual_rates(h, S, profile, 0.05)
        assert metric.calls == [("pair_distances", len(M))] + profile.calls
        # the losses are those each computes with its own distances
        inner = metric.inner
        assert report.empirical_mf_loss == empirical_mf_loss(h, S, M, inner, 0.05)
        assert report.empirical_l1_loss == empirical_l1_loss(h, S, M, inner)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_profile_calls_pair_distances_once_per_block_with_a_near_pair(self, gamma):
        """Each call's pairs are exactly its block's near entries, in row-major
        order, each oriented (min, max) in the original rows."""
        m, per_block = 40, 5
        rng = np.random.default_rng(9)
        X = unit_ball_points(rng, m, 2)
        values = rng.random(m)
        metric = CountingMetric(ScaledEuclideanMetric(0.8), X)
        with mock.patch.object(core, "_PAIR_BLOCK", per_block * m + 3):
            _per_individual_rates(TablePredictor(X, values), LabeledDataset(X, np.ones(m)),
                                  metric, gamma)
        order = np.argsort(values, kind="stable").tolist()
        ranked = values[order]
        blocks = [[(min(order[i], order[j]), max(order[i], order[j]))
                   for i in range(start, min(start + per_block, m))
                   for j in range(i + 1, m) if ranked[j] - ranked[i] > gamma]
                  for start in range(0, m, per_block)]
        expected = [pairs for pairs in blocks if pairs]
        assert metric.calls == expected
        # at gamma = 0.5 the highest-ranked blocks have no near pair
        assert len(expected) == m // per_block if gamma == 0.0 else 0 < len(expected) < m // per_block

    def test_a_traced_generic_profile_counts_the_pairs_it_evaluates(self):
        """The benchmark's tracer books a pair_distances call's rows under
        core.metric_pairs. A metric without a Gram form is profiled by one
        such call per block, so the profile books its near pairs, not m^2 per
        block."""
        tracer = _load_tracing().Tracer()
        m, gamma = 401, 0.05
        X = unit_ball_points(np.random.default_rng(2), m, 3)
        h = LinearPredictor(np.array([0.6, -0.3, 0.2]))
        metric = tracer.instrument_metric(ConstantMetric(0.2))
        _per_individual_rates(h, LabeledDataset(X, np.ones(m)), metric, gamma)
        values = h.predict_batch(X)
        i, j = np.triu_indices(m, 1)
        near = int(np.count_nonzero(np.abs(values[i] - values[j]) > gamma))
        # 163 rows of 65,536 entries make three blocks
        assert tracer.calls["core.metric"] == 3
        assert tracer.counts["core.metric_pairs"] == near


class TestPrunedAudit:
    """The profile and the population estimate evaluate the metric only on
    pairs whose gap exceeds gamma, and the profile each unordered pair once,
    in the orientation d(xs[min(i, j)], xs[max(i, j)]) of the original rows."""

    GAMMA = 0.125

    @pytest.mark.parametrize("kind", ["constant", "matrix", "skewed"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rates_and_estimate_equal_the_loop_oracles(self, kind, seed):
        S, h, values, metric = _grid_instance(kind, seed)
        X, gamma, m = S.features, self.GAMMA, len(S)
        gaps = np.abs(values[:, None] - values[None, :])
        assert np.any(gaps == gamma)
        with mock.patch.object(core, "_PAIR_BLOCK", 3 * m + 5):
            rates = _per_individual_rates(h, S, metric, gamma)
            estimate = population_mf_estimate(h, S, metric, gamma, 3000, seed).estimate
        assert rates.tolist() == scalar.per_individual_rates(
            h.predict, metric.distance, X, gamma).tolist()
        assert estimate == scalar.population_mf_estimate(h, S, metric, gamma, 3000, seed)
        assert np.mean(rates) > 0.1 and estimate > 0.1

    # the constant metric is symmetric, the other two are not
    @pytest.mark.parametrize("kind", ["constant", "matrix", "skewed"])
    @pytest.mark.parametrize("block", [1, 50, 65_536])
    def test_profile_evaluates_each_pair_above_gamma_once(self, kind, block):
        S, h, values, inner = _grid_instance(kind, 3)
        metric = CountingMetric(inner, S.features)
        with mock.patch.object(core, "_PAIR_BLOCK", block):
            _per_individual_rates(h, S, metric, self.GAMMA)
        pairs = set(metric.pairs)
        assert len(pairs) == len(metric.pairs)
        assert all(i < j for i, j in pairs)
        i, j = np.triu_indices(len(S), 1)
        above = np.abs(values[i] - values[j]) > self.GAMMA
        assert pairs == set(zip(i[above].tolist(), j[above].tolist()))

    def test_population_estimate_evaluates_only_pairs_above_gamma(self):
        S, h, values, inner = _grid_instance("skewed", 4)
        metric = CountingMetric(inner, S.features)
        population_mf_estimate(h, S, metric, self.GAMMA, 5000, 4)
        rng = np.random.default_rng(4)
        first, second = rng.integers(0, len(S), size=5000), rng.integers(0, len(S), size=5000)
        above = np.abs(values[first] - values[second]) > self.GAMMA
        assert metric.pairs == list(zip(first[above].tolist(), second[above].tolist()))

    def test_hardness_profile_at_1000_points_evaluates_each_pair_at_most_once(self):
        paired, handle = sample_hardness_distribution(16, 500, "U", 5)
        S = paired.dataset
        metric = CountingMetric(HardnessMetric(handle), S.features)
        h = LinearPredictor(0.9 * unit_ball_points(np.random.default_rng(5), 1, 16)[0])
        _per_individual_rates(h, S, metric, 0.0)
        assert len(metric.pairs) == len(set(metric.pairs)) <= 1000 * 999 // 2

    def test_audit_predicts_the_sample_once(self, rng):
        S = random_dataset(rng, 30, 3)
        h = LinearPredictor(np.array([0.6, -0.3, 0.2]))
        with mock.patch.object(h, "predict_batch", wraps=h.predict_batch) as spy:
            audit_predictor(h, S, default_matching(S, 0), ScaledEuclideanMetric(0.8), 0.1,
                            population_pairs=200, seed=1)
        assert spy.call_count == 1


class HalfEuclidean(ScaledEuclideanMetric):
    """Half the Euclidean distance, given only by its own pair_distances:
    the profile must use these, not the Gram form of the parent's."""

    def pair_distances(self, xs, ys):
        return 0.5 * super().pair_distances(xs, ys)


#: the metrics of `ranked_profiles`
RANKED_KINDS = ("euclidean", "own-distance", "skewed", "matrix", "hardness")


@st.composite
def ranked_profiles(draw, kinds=RANKED_KINDS, most=300):
    """(metric, dataset, predictor, gamma, patched block) with 1 to `most`
    rows, many of them repeats of earlier ones, predictions with ties, and a
    _PAIR_BLOCK that gives row blocks of 1, 2 or 3 rows. A scale of 50
    saturates most Euclidean distances at 1, a scale of 0 zeroes them all."""
    kind = draw(st.sampled_from(kinds), label="metric")
    m = draw(st.integers(1, 12) | st.integers(13, most), label="m")
    distinct = draw(st.integers(1, m), label="distinct rows")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "hardness":
        paired, handle = sample_hardness_distribution(
            draw(st.integers(4, 7), label="n"), (distinct + 1) // 2, draw(st.sampled_from("UV")),
            int(rng.integers(2**31)))
        rows, metric = paired.dataset.features[:distinct], HardnessMetric(handle)
    else:
        # SkewedMetric reads two coordinates
        rows = unit_ball_points(rng, distinct, draw(st.integers(2, 12), label="n"))
        scale = draw(st.sampled_from((0.0, 5e-324, 1e-300, 50.0)) | st.floats(0.05, 5.0),
                     label="scale")
        if kind == "euclidean":
            metric = ScaledEuclideanMetric(scale)
        elif kind == "own-distance":
            metric = HalfEuclidean(scale)
        elif kind == "skewed":
            metric = SkewedMetric()
        else:
            metric = MatrixMetric(rng.choice(GRID, size=(distinct, distinct)), rows)
    picks = np.concatenate([np.arange(distinct), rng.integers(0, distinct, size=m - distinct)])
    X = rows[rng.permutation(picks)]
    # a prediction per distinct row, from the grid for many ties
    table = rng.choice(GRID, size=distinct) if draw(st.booleans(), label="tied") else \
        rng.random(distinct)
    h = TablePredictor(rows, table)
    gamma = draw(st.just(0.0) | _grid_or_float(0.0, 0.9), label="gamma")
    block = draw(st.integers(1, 3), label="rows per block") * m + \
        draw(st.integers(0, m - 1), label="block remainder")
    return metric, LabeledDataset(X, np.ones(m)), h, gamma, block


class TestRankedProfile:
    """The profile's rates are those of the per-block audit kept in
    scalar_reference, bit for bit. ScaledEuclideanMetric itself reads Gram
    blocks from one rank-ordered copy of the rows; every other metric, and
    every subclass of it, has its pair_distances called once per block."""

    @given(instance=ranked_profiles())
    @settings(max_examples=80, deadline=None)
    def test_rates_equal_the_per_block_oracle(self, instance):
        metric, S, h, gamma, block = instance
        with mock.patch.object(core, "_PAIR_BLOCK", block):
            got = _per_individual_rates(h, S, metric, gamma)
            expected = scalar.blocked_per_individual_rates(h, S, metric, gamma)
        assert np.array_equal(got, expected)

    @given(instance=ranked_profiles(("own-distance",), most=60))
    @settings(max_examples=40, deadline=None)
    def test_a_subclass_is_profiled_by_its_own_distance(self, instance):
        metric, S, h, gamma, block = instance
        with mock.patch.object(core, "_PAIR_BLOCK", block):
            got = _per_individual_rates(h, S, metric, gamma)
        expected = scalar.per_individual_rates(h.predict, metric.distance, S.features, gamma)
        assert got.tolist() == expected.tolist()

    @given(instance=ranked_profiles(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_block_function_is_pairwise_matrix_bit_for_bit(self, instance, data):
        """Each block of a walk over randomly ranked rows, from a random first
        column, where a random mask with a false diagonal holds, as the
        profile asks for them: signs of zeros included. The reference is the
        full pairwise_matrix where the mask holds and +0 elsewhere, or for
        ScaledEuclideanMetric itself the Gram expression of scalar_reference,
        whose order of operations and +0 outside the mask the
        tolerance-bounded tests would not check."""
        metric, S, _, _, block = instance
        m = len(S)
        rows = max(1, block // m)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        share = data.draw(st.floats(0.0, 1.0), label="share of the block asked for")
        order = rng.permutation(m)
        blocks = metric._ranked_blocks(S.features, order)
        full = metric.pairwise_matrix(S.features)
        for start in range(0, m, rows):
            stop = min(start + rows, m)
            first = int(rng.integers(start + 1, m + 1))
            near = rng.random((stop - start, m - first)) < share
            near &= np.arange(first, m)[None, :] != np.arange(start, stop)[:, None]
            got = blocks(start, stop, first, near)
            if type(metric) is ScaledEuclideanMetric:
                expected = scalar.gram_block_oracle(metric.scale, S.features, order[start:stop],
                                                    order[first:], near)
            else:
                expected = np.where(near, full[np.ix_(order[start:stop], order[first:])], 0.0)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_audit_calls_the_four_traced_entry_points_through_the_module(rng):
    """The benchmark's tracing rebinds these attributes of the audit module
    and reads S at position 1 and the population's n_pairs at position 4."""
    from metricfair import audit

    S = random_dataset(rng, 30, 3)
    h = LinearPredictor(np.array([0.6, -0.3, 0.2]))
    names = ("empirical_mf_loss", "empirical_l1_loss", "group_fairness_profile",
             "population_mf_estimate")
    with contextlib.ExitStack() as stack:
        spies = {name: stack.enter_context(
            mock.patch.object(audit, name, wraps=getattr(audit, name))) for name in names}
        audit.audit_predictor(h, S, default_matching(S, 0), ScaledEuclideanMetric(0.8), 0.1,
                              population_pairs=123, seed=4)
    for spy in spies.values():
        spy.assert_called_once()
        assert spy.call_args.args[1] is S
    assert spies["population_mf_estimate"].call_args.args[4] == 123


def _metric_on_duplicate_rows(kind):
    """(metric, rows) for each library metric, on 14 rows of which 6 repeat
    earlier ones."""
    if kind == "hardness":
        paired, handle = sample_hardness_distribution(5, 4, "U", 3)
        distinct, metric = paired.dataset.features, HardnessMetric(handle)
    else:
        distinct = unit_ball_points(np.random.default_rng(5), 8, 3)
        if kind == "matrix":
            upper = np.triu(np.random.default_rng(6).choice(GRID, size=(8, 8)), 1)
            metric = MatrixMetric(upper + upper.T, distinct)
        else:
            metric = ConstantMetric(0.3) if kind == "constant" else ScaledEuclideanMetric(0.8)
    return metric, distinct[[0, 1, 2, 0, 3, 4, 1, 5, 6, 0, 7, 4, 4, 2]]


@pytest.mark.parametrize("kind", ["constant", "euclidean", "matrix", "hardness"])
def test_pairwise_matrix_equals_pair_distances_on_duplicate_rows(kind):
    """Every metric's matrix is its pair_distances, so identical rows are at
    distance 0 off the diagonal too."""
    metric, X = _metric_on_duplicate_rows(kind)
    i, j = np.divmod(np.arange(len(X) ** 2), len(X))
    expected = metric.pair_distances(X[i], X[j]).reshape(len(X), len(X))
    got = metric.pairwise_matrix(X)
    assert np.any((expected == 0.0) & (i != j).reshape(got.shape))
    assert np.array_equal(got, expected)


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
            "population_ci", "group_profile", "n_edges",
        }
        assert payload["n_edges"] == 7
        assert 0.0 <= payload["empirical_mf_loss"] <= 1.0
        assert payload["population_ci"] == pytest.approx(hoeffding_half_width(500))
