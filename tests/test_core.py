"""Domain types: datasets, metrics, predictors, matchings, metric validation."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as scalar
from conftest import PREDICTOR_KINDS, predictor_with_formula, random_dataset, unit_ball_points
from metricfair import core
from metricfair import (
    ConstantMetric,
    ConstantPredictor,
    Consecutive,
    DimensionMismatchError,
    Example,
    KernelPredictor,
    LabeledDataset,
    LinearDotKernel,
    LinearPredictor,
    LogisticPredictor,
    Matching,
    MatrixMetric,
    MetricUndefinedError,
    RandomPermutation,
    ScaledEuclideanMetric,
    SimilarityMetric,
    ValidationError,
    VovkHalfKernel,
    build_matching,
    check_psd,
    validate_metric,
)


class TestExamples:
    def test_rejects_norm_above_unit_ball(self):
        with pytest.raises(ValidationError):
            Example(np.array([1.0, 0.1]), 1)

    def test_norm_tolerance_accepts_ingestion_noise(self):
        Example(np.array([1.0 + 5e-10, 0.0]), 1)

    def test_rejects_bad_label(self):
        with pytest.raises(ValidationError):
            Example(np.array([0.1]), 0)

    def test_dataset_rejects_mixed_dimensions(self):
        with pytest.raises(ValidationError):
            LabeledDataset.from_examples(
                [Example(np.array([0.1]), 1), Example(np.array([0.1, 0.2]), -1)]
            )

    def test_dataset_rejects_empty(self):
        with pytest.raises(ValidationError):
            LabeledDataset(np.zeros((0, 2)), np.zeros(0))

    def test_targets01(self):
        ds = LabeledDataset(np.array([[0.1], [-0.2]]), np.array([1, -1]))
        assert ds.targets01.tolist() == [1.0, 0.0]

    def test_features_are_immutable(self):
        ds = LabeledDataset(np.array([[0.1], [-0.2]]), np.array([1, -1]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 0.5


class TestPredict:
    def test_zero_weight_linear_is_half(self, rng):
        h = LinearPredictor(np.zeros(3))
        for x in unit_ball_points(rng, 5, 3):
            assert h.predict(x) == 0.5

    def test_logistic_at_zero_is_half(self):
        h = LogisticPredictor(np.zeros(2), 3.0)
        assert h.predict(np.array([0.3, -0.2])) == 0.5

    def test_logistic_unit_lipschitz_at_margin_one(self):
        # direct evaluation of the transfer: 1 / (1 + e^-4)
        h = LogisticPredictor(np.array([1.0]), 1.0)
        expected = 1.0 / (1.0 + math.exp(-4.0))
        assert h.predict(np.array([1.0])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.98201, abs=1e-5)

    def test_dimension_mismatch(self):
        h = LinearPredictor(np.array([0.5, 0.1]))
        with pytest.raises(DimensionMismatchError):
            h.predict(np.array([0.1, 0.2, 0.3]))

    def test_all_variants_stay_in_unit_interval(self, rng):
        n = 4
        X = unit_ball_points(rng, 10_000, n)
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        support = unit_ball_points(rng, 6, n)
        predictors = [
            ConstantPredictor(0.7),
            LinearPredictor(w),
            LogisticPredictor(w * 0.9, 5.0),
            KernelPredictor(support, rng.standard_normal(6) * 2.0, VovkHalfKernel()),
        ]
        for h in predictors:
            vals = h.predict_batch(X)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_linear_is_half_lipschitz(self, rng):
        w = rng.standard_normal(6)
        w /= np.linalg.norm(w)
        h = LinearPredictor(w)
        A = unit_ball_points(rng, 500, 6)
        B = unit_ball_points(rng, 500, 6)
        gaps = np.abs(h.predict_batch(A) - h.predict_batch(B))
        assert np.all(gaps <= 0.5 * np.linalg.norm(A - B, axis=1) + 1e-12)

    @given(kind=st.sampled_from(PREDICTOR_KINDS), n=st.integers(1, 8),
           m=st.integers(1, 30), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_batch_and_derived_predict_match_scalar_formulas(self, kind, n, m, seed):
        rng = np.random.default_rng(seed)
        h, formula, exact = predictor_with_formula(kind, rng, n)
        X = unit_ball_points(rng, m, n)
        X[::3, -1] = 0.0  # the sign predictor's boundary
        expected = np.array([formula(x) for x in X])
        singles = [h.predict(x) for x in X]
        assert all(type(v) is float for v in singles)
        for got in (h.predict_batch(X), np.array(singles)):
            if exact:
                assert np.array_equal(got, expected)
            else:
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_logistic_is_monotone_and_lipschitz(self, rng):
        ell = 2.5
        h = LogisticPredictor(np.array([1.0]), ell)
        z = np.sort(rng.uniform(-1, 1, size=400))
        vals = h.predict_batch(z[:, None])
        assert np.all(np.diff(vals) >= 0)
        assert np.all(np.abs(np.diff(vals)) <= ell * np.diff(z) + 1e-12)


class TestKernels:
    def test_vovk_range_and_sup(self, rng):
        k = VovkHalfKernel()
        X = unit_ball_points(rng, 60, 3)
        G = k.gram(X)
        assert np.all(G >= 2.0 / 3.0 - 1e-12) and np.all(G <= 2.0 + 1e-12)
        assert k.sup_value == 2.0

    def test_vovk_antipodal_values(self):
        k = VovkHalfKernel()
        x = np.array([[1.0, 0.0]])
        values = k.cross(x, np.concatenate([x, -x]))
        assert values.shape == (1, 2)
        assert values[0, 0] == pytest.approx(2.0)
        assert values[0, 1] == pytest.approx(2.0 / 3.0)

    def test_vovk_gram_is_psd(self, rng):
        k = VovkHalfKernel()
        for _ in range(5):
            X = unit_ball_points(rng, 40, 4)
            G = k.gram(X)
            eigs = np.linalg.eigvalsh(G)
            assert eigs.min() >= -1e-8 * eigs.max()
            check_psd(G)

    def test_check_psd_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestKernelPredictorSupport:
    @pytest.mark.parametrize("support, message", [
        ([[0.1, np.nan], [0.0, 0.2]], "support must be finite"),
        ([[0.1, 0.2], [np.inf, 0.0]], "support must be finite"),
        ([[5.0, 5.0, 5.0]], "support norm 8.66025403784 exceeds the unit ball"),
        ([[0.6, 0.8 + 1e-6]], "exceeds the unit ball"),
    ])
    def test_rejects_rows_outside_the_unit_ball(self, support, message):
        beta = np.ones(len(support))
        with pytest.raises(ValidationError, match=message):
            KernelPredictor(np.array(support), beta, VovkHalfKernel())

    def test_norm_tolerance_accepts_ingestion_noise(self):
        h = KernelPredictor(np.array([[0.6, 0.8 + 5e-10]]), np.array([0.3]), VovkHalfKernel())
        assert h.dimension == 2


def _psd_verdict(check, gram, rel_tolerance):
    """None when `check` accepts `gram`, else its error message."""
    try:
        check(gram, rel_tolerance)
    except ValidationError as err:
        return str(err)
    return None


class TestCheckPsd:
    """check_psd decides as the eigvalsh rule it replaced, which
    scalar_reference keeps, and leaves its input as it was."""

    def _same_verdict(self, gram, rel_tolerance=core.PSD_TOLERANCE):
        before = np.array(gram, copy=True)
        verdict = _psd_verdict(check_psd, gram, rel_tolerance)
        assert verdict == _psd_verdict(scalar.check_psd, before, rel_tolerance)
        assert np.array_equal(gram, before)
        return verdict

    @given(m=st.integers(1, 40), rank=st.integers(1, 40), seed=st.integers(0, 2**16),
           shift=st.sampled_from([0.0, 1e-3, -1e-14, -1e-10, -1e-6, -1e-2, -1.0]))
    @settings(max_examples=120, deadline=None)
    def test_random_grams_decide_as_eigvalsh(self, m, rank, seed, shift):
        # A A' has rank min(rank, m); the diagonal shift, relative to the
        # top eigenvalue, makes it definite, singular or indefinite
        A = np.random.default_rng(seed).standard_normal((m, min(rank, m)))
        gram = A @ A.T
        gram += shift * np.linalg.eigvalsh(gram).max() * np.eye(m)
        self._same_verdict(gram)

    @given(m=st.integers(3, 30), seed=st.integers(0, 2**16),
           rel_tolerance=st.sampled_from([core.PSD_TOLERANCE, 1e-13, 0.0]))
    @settings(max_examples=120, deadline=None)
    def test_near_singular_grams_decide_as_eigvalsh_at_any_tolerance(self, m, seed, rel_tolerance):
        # eigenvalues down to 1e-18: eigvalsh may return a tiny negative one
        # for a gram that Cholesky still factors, which a zero tolerance rejects
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        rank = int(rng.integers(1, m))
        eigs = np.concatenate([rng.uniform(0.5, 1.0, rank), 10.0 ** rng.uniform(-18, -14, m - rank)])
        gram = (Q * eigs) @ Q.T
        self._same_verdict(0.5 * (gram + gram.T), rel_tolerance)

    @given(m=st.integers(2, 40), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_random_symmetric_matrices_decide_as_eigvalsh(self, m, seed):
        B = np.random.default_rng(seed).standard_normal((m, m))
        self._same_verdict(B + B.T)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rank_deficient_linear_gram_takes_the_eigvalsh_path(self, rng, n):
        X = unit_ball_points(rng, 30, n)
        gram = LinearDotKernel().gram(X)
        assert np.linalg.matrix_rank(gram) == n
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            check_psd(gram)
        assert eigvalsh.called
        assert self._same_verdict(gram) is None

    def test_definite_kernel_gram_is_certified_without_eigvalsh(self, rng):
        gram = VovkHalfKernel().gram(unit_ball_points(rng, 200, 10))
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError):
            check_psd(gram)

    def test_read_only_precomputed_gram(self, rng):
        A = rng.standard_normal((12, 12))
        gram, indefinite = A @ A.T, A + A.T
        for g in (gram, indefinite):
            g.setflags(write=False)
        assert self._same_verdict(gram) is None
        assert "not positive semidefinite" in self._same_verdict(indefinite)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, bad, where):
        gram = np.eye(2)
        gram[where] = bad
        with pytest.raises(ValidationError, match="gram matrix has non-finite entries"):
            check_psd(gram)


def _sides(matching):
    return matching.left.tolist(), matching.right.tolist()


class TestMatching:
    def test_consecutive_odd(self, rng):
        ds = random_dataset(rng, 5, 2)
        assert _sides(build_matching(ds, Consecutive())) == ([0, 2], [1, 3])

    def test_consecutive_even(self, rng):
        ds = random_dataset(rng, 4, 2)
        assert _sides(build_matching(ds, Consecutive())) == ([0, 2], [1, 3])

    def test_random_permutation_is_deterministic(self, rng):
        ds = random_dataset(rng, 5, 2)
        a = build_matching(ds, RandomPermutation(seed=7))
        b = build_matching(ds, RandomPermutation(seed=7))
        assert _sides(a) == _sides(b)

    def test_too_small(self, rng):
        ds = random_dataset(rng, 2, 2).example(0)
        single = LabeledDataset(ds.features[None, :], np.array([ds.label]))
        with pytest.raises(ValidationError, match="insufficient examples"):
            build_matching(single)

    def test_rejects_duplicate_index(self):
        with pytest.raises(ValidationError, match="matching index 1 appears more than once"):
            Matching([0, 1], [1, 2], m=4)

    def test_sides_are_read_only_index_arrays(self):
        matching = Matching([0, 2], [1, 3], m=4)
        for side in (matching.left, matching.right):
            assert side.dtype == np.intp and not side.flags.writeable
        assert len(matching) == 2

    def test_sides_must_have_equal_length(self):
        with pytest.raises(ValidationError, match="equal length"):
            Matching([0, 2], [1], m=4)

    @given(m=st.integers(0, 12), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_validation_matches_the_pair_loop(self, m, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(-2, m + 2), st.integers(-2, m + 2)),
                                   max_size=8), label="pairs")
        if data.draw(st.booleans(), label="valid"):
            # a disjoint in-range matching, so that valid inputs are drawn too
            order = data.draw(st.permutations(range(m)), label="order")
            pairs = list(zip(order[0::2], order[1::2]))
        try:
            scalar.check_matching(pairs, m)
        except ValidationError as exc:
            expected = str(exc)
        else:
            expected = None
        left = [i for i, _ in pairs]
        right = [j for _, j in pairs]
        if expected is None:
            matching = Matching(left, right, m)
            assert list(zip(*_sides(matching))) == pairs
        else:
            with pytest.raises(ValidationError) as raised:
                Matching(left, right, m)
            assert str(raised.value) == expected

    @given(m=st.integers(2, 41), seed=st.integers(0, 1000), shuffle=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_build_matching_gives_the_old_pairs(self, m, seed, shuffle):
        ds = random_dataset(np.random.default_rng(seed + 1), m, 2)
        strategy = RandomPermutation(seed) if shuffle else Consecutive()
        matching = build_matching(ds, strategy)
        assert list(zip(*_sides(matching))) == list(scalar.matching_pairs(m, strategy))
        assert matching.m == m

    @given(m=st.integers(2, 41), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_random_permutation_covers_indices(self, m, seed):
        ds = random_dataset(np.random.default_rng(seed + 1), m, 2)
        matching = build_matching(ds, RandomPermutation(seed))
        used = sorted(matching.left.tolist() + matching.right.tolist())
        assert len(used) == len(set(used)) == 2 * (m // 2)
        leftovers = set(range(m)) - set(used)
        assert len(leftovers) == m % 2


class TestValidateMetric:
    def test_constant_metric_clean(self, rng):
        ds = random_dataset(rng, 12, 3)
        report = validate_metric(ConstantMetric(1.0), ds, 2000, seed=0)
        assert report.ok

    def test_scaled_euclidean_clean(self, rng):
        ds = random_dataset(rng, 12, 3)
        report = validate_metric(ScaledEuclideanMetric(0.8), ds, 2000, seed=0)
        assert report.ok

    def test_triangle_violation_reported(self):
        # d(a,b) = 0.9 > d(a,c) + d(c,b) = 0.05 + ... arranged so 1.0 > 0.95
        X = np.array([[0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        ds = LabeledDataset(X, np.array([1, 1, 1]))
        matrix = np.array([[0.0, 1.0, 0.9], [1.0, 0.0, 0.05], [0.9, 0.05, 0.0]])
        metric = MatrixMetric(matrix, X)
        report = validate_metric(metric, ds, 3000, seed=1)
        assert len(report.triangle_violations) > 0
        assert not report.ok

    def test_matrix_metric_missing_point(self):
        X = np.array([[0.1, 0.0], [0.0, 0.1]])
        metric = MatrixMetric(np.array([[0.0, 0.4], [0.4, 0.0]]), X)
        with pytest.raises(MetricUndefinedError, match="metric undefined"):
            metric.distance(np.array([0.3, 0.3]), X[0])

    def test_matrix_metric_pair_distances_unknown_row(self):
        X = np.array([[0.1, 0.0], [0.0, 0.1]])
        metric = MatrixMetric(np.array([[0.0, 0.4], [0.4, 0.0]]), X)
        unknown = np.array([0.3, 0.3])
        assert metric.pair_distances(X, X[::-1]).tolist() == [0.4, 0.4]
        # identical rows are at distance 0 whether or not the metric knows them
        assert metric.pair_distances(np.stack([X[0], unknown]), np.stack([X[0], unknown])).tolist() == [0.0, 0.0]
        with pytest.raises(MetricUndefinedError, match="metric undefined"):
            metric.pair_distances(np.stack([X[0], X[1]]), np.stack([X[1], unknown]))
        with pytest.raises(MetricUndefinedError, match="metric undefined"):
            metric.pair_distances(np.stack([unknown, X[1]]), X)

    def test_constant_metric_reflexive(self):
        m = ConstantMetric(0.7)
        x = np.array([0.2, 0.1])
        assert m.distance(x, x) == 0.0
        assert m.distance(x, np.array([0.0, 0.0])) == 0.7

    def test_metric_parameter_domains(self):
        with pytest.raises(ValidationError):
            ConstantMetric(1.2)
        with pytest.raises(ValidationError):
            ScaledEuclideanMetric(-0.1)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_scaled_euclidean_scale_must_be_finite(self, scale):
        # a NaN scale makes every distance NaN, and an infinite one d(x, x)
        with pytest.raises(ValidationError, match=f"scale must be finite and non-negative, got {scale}"):
            ScaledEuclideanMetric(scale)


class BrokenMetric(SimilarityMetric):
    """Asymmetric, outside [0, 1], non-zero on identical points and in breach
    of the triangle inequality. Each row's value uses only that row, so a
    batched row equals the same pair evaluated alone."""

    def pair_distances(self, xs, ys):
        xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
        return 2.0 * xs[:, 0] - ys[:, 0] + 0.5 * xs[:, 1] * ys[:, 1] + 0.2


def _violations(report):
    return report.symmetry_violations, report.range_violations, report.triangle_violations


class TestValidateMetricBlocks:
    """Blocked validate_metric against the one-triple-at-a-time loop."""

    @given(m=st.integers(1, 15), n_triples=st.integers(1, 300), block=st.integers(1, 70),
           seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_same_violations_as_scalar_loop(self, m, n_triples, block, seed):
        ds = random_dataset(np.random.default_rng(seed), m, 2)
        metric = BrokenMetric()
        with mock.patch.object(core, "_TRIPLE_BLOCK", block):
            report = validate_metric(metric, ds, n_triples, seed)
        assert _violations(report) == scalar.validate_metric(metric.distance, ds, n_triples, seed)

    def test_default_block_with_partial_last_block(self, rng):
        ds = random_dataset(rng, 30, 2)
        metric = BrokenMetric()
        n_triples = 2 * core._TRIPLE_BLOCK + 37
        report = validate_metric(metric, ds, n_triples, seed=5)
        expected = scalar.validate_metric(metric.distance, ds, n_triples, seed=5)
        assert all(expected)  # every kind of violation occurs
        assert _violations(report) == expected

    def test_asymmetry_is_found_in_both_index_orders(self, rng):
        ds = random_dataset(rng, 10, 2)
        report = validate_metric(BrokenMetric(), ds, 2000, seed=0)
        X = ds.features
        assert any(a > b for a, b, _, _ in report.symmetry_violations)
        assert any(a < b for a, b, _, _ in report.symmetry_violations)
        for a, b, forward, backward in report.symmetry_violations:
            assert forward == BrokenMetric().distance(X[a], X[b])
            assert backward == BrokenMetric().distance(X[b], X[a])

    @pytest.mark.parametrize("n_triples", [0, -5])
    def test_rejects_non_positive_triple_counts(self, rng, n_triples):
        with pytest.raises(ValidationError, match="n_triples must be >= 1"):
            validate_metric(ConstantMetric(0.5), random_dataset(rng, 5, 2), n_triples, seed=0)
