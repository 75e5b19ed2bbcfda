"""Domain types: datasets, metrics, predictors, matchings, metric validation."""

import functools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scalar_reference as scalar
from conftest import (NOT_SQUARE, NOT_SQUARE_IDS, PREDICTOR_KINDS, predictor_with_formula,
                      random_dataset, unit_ball_points)
from metricfair import core
from metricfair import (
    ConstantMetric,
    ConstantPredictor,
    Consecutive,
    DimensionMismatchError,
    KernelPredictor,
    LabeledDataset,
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
    """A labelled point is a one-row LabeledDataset."""

    def test_rejects_norm_above_unit_ball(self):
        with pytest.raises(ValidationError, match="exceeds the unit ball"):
            LabeledDataset(np.array([[1.0, 0.1]]), np.array([1]))

    def test_norm_tolerance_accepts_ingestion_noise(self):
        LabeledDataset(np.array([[1.0 + 5e-10, 0.0]]), np.array([1]))

    def test_rejects_bad_label(self):
        with pytest.raises(ValidationError, match="labels must be -1 or \\+1"):
            LabeledDataset(np.array([[0.1]]), np.array([0]))

    @pytest.mark.parametrize("labels", [
        ["a", "b"], [1.0, np.nan], [True, True], [True, False], np.array([1, -1], np.int8),
        [1.0, -1.0], [1.5, 1.0], np.array([1, 1], np.uint8), np.array([1, 255], np.uint8),
        np.array([1, 2**64 - 1], np.uint64), np.array([1, -1], object), np.array([1, "x"], object),
    ], ids=repr)
    def test_label_verdicts_are_membership_in_plus_minus_one(self, labels):
        # the dataset's check is two comparisons; np.isin, which it replaced, is the oracle
        X = np.zeros((2, 1))
        if np.all(np.isin(labels, (-1, 1))):
            assert LabeledDataset(X, labels).labels.tolist() == np.asarray(labels).tolist()
        else:
            with pytest.raises(ValidationError, match="labels must be -1 or \\+1"):
                LabeledDataset(X, labels)

    def test_int64_labels_are_shared_not_copied(self):
        # np.isin and a copy of the labels traced 2.4 times their bytes
        features, labels = np.zeros((10**6, 1)), np.ones(10**6, dtype=np.int64)
        tracemalloc.start()
        try:
            ds = LabeledDataset(features, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.labels is labels and not labels.flags.writeable
        assert peak <= 0.5 * labels.nbytes

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

    @pytest.mark.parametrize("lipschitz", [np.nan, np.inf, -np.inf, -0.5])
    def test_logistic_rejects_a_lipschitz_constant_not_finite_and_non_negative(self, lipschitz):
        with pytest.raises(ValidationError, match="lipschitz constant must be finite and "
                                                  f"non-negative, got {lipschitz}"):
            LogisticPredictor(np.array([0.5]), lipschitz)

    def test_logistic_accepts_a_lipschitz_constant_of_zero(self):
        assert LogisticPredictor(np.array([0.5]), 0.0).predict(np.array([0.3])) == 0.5

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
            KernelPredictor(support, rng.standard_normal(6) * 2.0),
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
        G = k.cross(X, X)
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
            G = k.cross(X, X)
            eigs = np.linalg.eigvalsh(G)
            assert eigs.min() >= -1e-8 * eigs.max()
            check_psd(G)

    def test_check_psd_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("shape", ["same", "distinct", "one row", "read-only"])
    def test_cross_is_bit_identical_to_the_plain_formula(self, rng, shape):
        xs = unit_ball_points(rng, 1 if shape == "one row" else 50, 4)
        ys = xs if shape == "same" else unit_ball_points(rng, 30, 4)
        if shape == "read-only":
            for v in (xs, ys):
                v.setflags(write=False)
        got = VovkHalfKernel().cross(xs, ys)
        assert np.array_equal(got, 1 / (1 - 0.5 * (xs @ ys.T)))
        # written over a used array, the matrix is the same bit for bit
        out = np.full(got.shape, np.nan)
        assert VovkHalfKernel().cross(xs, ys, out=out) is out
        assert np.array_equal(out, got)


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
            KernelPredictor(np.array(support), beta)

    def test_norm_tolerance_accepts_ingestion_noise(self):
        h = KernelPredictor(np.array([[0.6, 0.8 + 5e-10]]), np.array([0.3]))
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
    scalar_reference keeps, and leaves its input as it was unless it is
    given `rebuild`; then it factors its input in place, with the same
    verdicts and messages."""

    def _same_verdict(self, gram, rel_tolerance=core.PSD_TOLERANCE):
        # with the default panel a gram of up to _CHOLESKY_PANEL rows is
        # factored in one LAPACK call; a panel of 8 factors it across several
        # panels and a partial last one. The in-place path factors a writable
        # copy, and whenever it reaches eigvalsh, eigvalsh reads the gram as
        # it was: a rebuilt one after a breakdown
        before = np.array(gram, copy=True)
        expected = _psd_verdict(scalar.check_psd, before, rel_tolerance)
        eigvalsh = np.linalg.eigvalsh
        rebuilds = []

        def rebuild():
            rebuilds.append(before.copy())
            return rebuilds[-1]

        in_place = functools.partial(check_psd, rebuild=rebuild)
        for panel in (core._CHOLESKY_PANEL, 8):
            with mock.patch.object(core, "_CHOLESKY_PANEL", panel):
                with mock.patch.object(np.linalg, "eigvalsh", wraps=eigvalsh) as copying:
                    assert _psd_verdict(check_psd, gram, rel_tolerance) == expected
                assert np.array_equal(gram, before)
                rebuilds.clear()
                with mock.patch.object(np.linalg, "eigvalsh", wraps=eigvalsh) as factoring:
                    assert _psd_verdict(in_place, before.copy(), rel_tolerance) == expected
            assert factoring.call_count == copying.call_count
            assert all(np.array_equal(call.args[0], before) for call in factoring.call_args_list)
            assert len(rebuilds) <= factoring.call_count
        return expected

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

    @given(m=st.integers(65, 200), seed=st.integers(0, 2**16), data=st.data(),
           factor=st.one_of(st.just(1.0), st.floats(0.5, 2.0)), sign=st.sampled_from([-1, 1]))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_across_row_panels_decides_as_allclose(self, m, seed, data, factor, sign):
        # several row panels and a partial last one; one entry moves by about
        # the tolerance 1e-10 + 1e-5 |b| against its mirror entry b
        A = np.random.default_rng(seed).standard_normal((m, m))
        gram = A @ A.T
        i = data.draw(st.integers(0, m - 1), label="i")
        j = data.draw(st.integers(0, m - 1), label="j")
        gram[i, j] += sign * factor * (1e-10 + 1e-5 * abs(gram[j, i]))
        self._same_verdict(gram)

    @pytest.mark.parametrize("i, j", [(5, 3), (3, 5), (70, 10), (10, 70), (140, 130), (130, 140),
                                      (140, 20), (20, 140)],
                             ids=["below, diagonal panel", "above, diagonal panel",
                                  "below, across panels", "above, across panels",
                                  "below, partial diagonal panel", "above, partial diagonal panel",
                                  "below, into the partial panel", "above, into the partial panel"])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_symmetry_violation_on_either_side_of_the_diagonal(self, i, j, factor):
        # row panels of 64 over m = 150: two full ones and a partial one. The
        # entry moves away from zero, so the bound is set by its mirror b
        A = np.random.default_rng(7).standard_normal((150, 150))
        gram = A @ A.T
        b = gram[j, i]
        gram[i, j] = b + math.copysign(factor * (1e-10 + 1e-5 * abs(b)), b)
        verdict = self._same_verdict(gram)
        assert verdict == ("gram matrix is not symmetric" if factor > 1 else None)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rank_deficient_linear_gram_takes_the_eigvalsh_path(self, rng, n):
        X = unit_ball_points(rng, 30, n)
        gram = X @ X.T
        assert np.linalg.matrix_rank(gram) == n
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            check_psd(gram)
        assert eigvalsh.called
        assert self._same_verdict(gram) is None

    def test_definite_kernel_gram_is_certified_without_eigvalsh(self, rng):
        X = unit_ball_points(rng, 200, 10)
        gram = VovkHalfKernel().cross(X, X)
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError):
            check_psd(gram)

    def test_read_only_precomputed_gram(self, rng):
        A = rng.standard_normal((12, 12))
        gram, indefinite = A @ A.T, A + A.T
        for g in (gram, indefinite):
            g.setflags(write=False)
        assert self._same_verdict(gram) is None
        assert "not positive semidefinite" in self._same_verdict(indefinite)

    def test_overflow_after_a_subnormal_pivot_is_left_to_eigvalsh(self):
        # across panels of 8, L21 = 1 / sqrt(5e-324) and L21 L21' overflows in
        # the trailing update, which then fails to factor; it warns nothing
        gram = np.eye(9)
        gram[7, 7] = 5e-324
        gram[8, 7] = gram[7, 8] = 1.0
        assert "not positive semidefinite" in self._same_verdict(gram)

    @pytest.mark.parametrize("panel", [8, core._CHOLESKY_PANEL])
    @pytest.mark.parametrize("offset", [-1, 0, 1, "2p+3"])
    def test_blocked_factor_matches_lapack_on_vovk_grams(self, rng, panel, offset):
        m = 2 * panel + 3 if offset == "2p+3" else panel + offset
        X = unit_ball_points(rng, m, 10)
        gram = VovkHalfKernel().cross(X, X)
        expected = np.linalg.cholesky(gram)
        with mock.patch.object(core, "_CHOLESKY_PANEL", panel):
            got = core._cholesky_lower(gram.copy())
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(np.triu(got, 1), np.zeros((m, m)))

    def test_asymmetry_whose_gap_overflows_is_rejected_without_a_warning(self):
        # 1e308 - (-1e308) overflows; warnings are errors in this suite
        gram = np.array([[1e308, -1e308], [1e308, 1e308]])
        with pytest.raises(ValidationError, match="^gram matrix is not symmetric$"):
            check_psd(gram)

    @pytest.mark.parametrize("gram", NOT_SQUARE, ids=NOT_SQUARE_IDS)
    def test_rejects_shapes_other_than_square(self, gram):
        shape = re.escape(str(np.shape(gram)))
        with pytest.raises(ValidationError,
                           match=f"must be square and non-empty, got shape {shape}"):
            check_psd(gram)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, bad, where):
        gram = np.eye(2)
        gram[where] = bad
        with pytest.raises(ValidationError, match="gram matrix has non-finite entries"):
            check_psd(gram)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("where", [(140, 20), (20, 140)], ids=["below", "above"])
    def test_non_finite_entries_are_found_a_panel_at_a_time_before_the_symmetry_scan(
            self, bad, where):
        # row panels of 64 over m = 150: the non-finite entry is in the last,
        # partial panel's rows or columns, an asymmetric one in the first panel
        A = np.random.default_rng(7).standard_normal((150, 150))
        gram = A @ A.T
        gram[5, 3] += 1.0
        gram[where] = bad
        with mock.patch.object(np, "isfinite", wraps=np.isfinite) as isfinite:
            with pytest.raises(ValidationError, match="gram matrix has non-finite entries"):
                check_psd(gram)
        assert isfinite.called
        assert all(np.shape(call.args[0])[0] <= core._SYMMETRY_PANEL
                   for call in isfinite.call_args_list)


#: what check_psd says of each kind of gram _grams draws: None accepts
_GRAM_VERDICTS = {
    "definite": None,
    "vovk": None,
    "singular": None,
    "asymmetric within tolerance": None,
    "overflowing sum, definite": None,
    "asymmetric beyond tolerance": "gram matrix is not symmetric",
    "indefinite": "gram matrix is not positive semidefinite",
    "overflowing sum, negative definite": "gram matrix is not positive semidefinite",
    "non-finite": "gram matrix has non-finite entries",
}


@st.composite
def _grams(draw):
    """(kind, gram) with m of up to 48 rows, or of 129 to 160 to span the
    default panels with a partial last one."""
    kind = draw(st.sampled_from(sorted(_GRAM_VERDICTS)))
    m = draw(st.one_of(st.integers(6, 48), st.integers(129, 160)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    if kind == "singular":
        X = rng.standard_normal((m, draw(st.integers(1, 5), label="rank")))
        return kind, X @ X.T
    if kind == "indefinite":
        B = rng.standard_normal((m, m))
        return kind, B + B.T
    if kind == "vovk" or kind.startswith("overflowing sum"):
        X = unit_ball_points(rng, m, 10)
        gram = VovkHalfKernel().cross(X, X)
        # entries of 6.7e306 to 2e307: m^2 of them overflow the sum
        if kind.startswith("overflowing sum"):
            gram *= 1e307 if kind.endswith(", definite") else -1e307
        return kind, gram
    A = rng.standard_normal((m, m))
    gram = A @ A.T
    i, j = (draw(st.integers(0, m - 1), label=side) for side in ("i", "j"))
    if kind == "non-finite":
        for _ in range(draw(st.integers(1, 2), label="entries")):
            gram[i, j] = draw(st.sampled_from([np.inf, -np.inf, np.nan]), label="value")
            i, j = j, draw(st.integers(0, m - 1), label="next")
    elif kind.startswith("asymmetric") and i != j:
        # the entry moves away from zero, so the bound is set by its mirror b
        factor = draw(st.sampled_from([0.5, 0.99] if kind.endswith("within tolerance")
                                      else [1.01, 2.0]), label="factor")
        b = gram[j, i]
        gram[i, j] = b + math.copysign(factor * (1e-10 + 1e-5 * abs(b)), b)
    elif kind.startswith("asymmetric"):
        kind = "definite"
    return kind, gram


class TestCheckPsdAgainstThePlainForm:
    """check_psd decides, with the same message, as its plain form: an
    np.allclose symmetry test, np.linalg.cholesky on a copy, and eigvalsh
    when that breaks down; with its default panels and with panels of 8,
    copying and factoring in place."""

    @given(case=_grams())
    @settings(max_examples=150, deadline=None)
    def test_verdict_and_message(self, case):
        kind, gram = case
        expected = _psd_verdict(scalar.check_psd_by_cholesky, gram, core.PSD_TOLERANCE)
        assert (expected or "").startswith(_GRAM_VERDICTS[kind] or "")
        assert (expected is None) == (_GRAM_VERDICTS[kind] is None)
        in_place = functools.partial(check_psd, rebuild=gram.copy)
        for cholesky, symmetry in ((core._CHOLESKY_PANEL, core._SYMMETRY_PANEL), (8, 8)):
            with mock.patch.multiple(core, _CHOLESKY_PANEL=cholesky, _SYMMETRY_PANEL=symmetry):
                copy = gram.copy()
                assert _psd_verdict(check_psd, copy, core.PSD_TOLERANCE) == expected
                assert np.array_equal(copy, gram, equal_nan=True)
                assert _psd_verdict(in_place, gram.copy(), core.PSD_TOLERANCE) == expected


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
        ds = random_dataset(rng, 2, 2)
        single = LabeledDataset(ds.features[:1], ds.labels[:1])
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

    def test_matching_edges_are_the_sides_and_their_distances(self, rng):
        ds = random_dataset(rng, 6, 2)
        metric = ScaledEuclideanMetric(0.5)
        left, right, dists = core.matching_edges(ds, Matching([4, 0], [1, 5], m=6), metric)
        assert left.tolist() == [4, 0] and right.tolist() == [1, 5]
        expected = metric.pair_distances(ds.features[[4, 0]], ds.features[[1, 5]])
        assert dists.tolist() == expected.tolist()

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

    def test_matrix_metric_rows_with_identical_features_must_agree(self):
        # rows 0 and 1 are one point to the lookup, so d(x0, x2) and
        # d(x1, x2) cannot differ; the later entry used to win silently
        X = np.array([[0.1, 0.2], [0.1, 0.2], [0.3, -0.1]])
        conflicting = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.5], [0.3, 0.5, 0.0]])
        with pytest.raises(ValidationError, match="index map entries 0 and 1 have identical "
                           "features but different matrix rows or columns"):
            MatrixMetric(conflicting, X)
        with pytest.raises(ValidationError, match="index map entries 1 and 2 have identical"):
            MatrixMetric(conflicting, X[[2, 0, 1]], [1, 2, 0])
        agreeing = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.3], [0.3, 0.3, 0.0]])
        assert MatrixMetric(agreeing, X).pair_distances(X[[0, 1]], X[[2, 2]]).tolist() == [0.3, 0.3]

    def test_matrix_metric_reads_negative_zero_as_zero(self):
        # -0.0 == 0.0, so pair_distances puts rows 0 and 1 at distance 0; a
        # lookup by raw bytes would key them apart and read d(x0, x2) = 0.3
        # and d(x1, x2) = 0.5 from their own rows, against the triangle
        # inequality
        X = np.array([[0.0, 0.1], [-0.0, 0.1], [0.3, 0.3]])
        ds = LabeledDataset(X, np.ones(3))
        conflicting = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.5], [0.3, 0.5, 0.0]])
        with pytest.raises(ValidationError, match="index map entries 0 and 1 have identical "
                           "features but different matrix rows or columns"):
            MatrixMetric(conflicting, X)
        agreeing = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.3], [0.3, 0.3, 0.0]])
        metric = MatrixMetric(agreeing, X)
        assert metric.pair_distances(X[[1, 2, 2]], X[[2, 0, 1]]).tolist() == [0.3, 0.3, 0.3]
        report = validate_metric(metric, ds, 200, seed=1)
        assert report.ok and report.n_triangle_violations == 0

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

    @given(k=st.integers(0, 12), n=st.integers(1, 40), scale=st.floats(0.0, 1e3),
           layout=st.sampled_from(["contiguous", "one row", "strided", "fortran"]),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_scaled_euclidean_distances_are_the_norms_bit_for_bit(self, k, n, scale, layout,
                                                                   data):
        # magnitudes from 1e-160 to 1e160 make squares that underflow,
        # overflow and round; NaN and infinite features are drawn too
        values = hnp.arrays(np.float64, (2 * k + 1, 2 * n),
                            elements=st.floats(width=64) | st.floats(-1e-160, 1e-160)
                            | st.floats(-1e160, 1e160))
        X, Y = data.draw(values, label="X"), data.draw(values, label="Y")
        xs, ys = {
            "contiguous": (X[:k, :n].copy(), Y[:k, :n].copy()),
            "one row": (X[0, :n], Y[:k, :n]),
            "strided": (X[1::2, ::2], Y[:-1:2, 1::2]),
            "fortran": (np.asfortranarray(X[:k, :n]), np.asfortranarray(Y[:k, :n])),
        }[layout]
        with np.errstate(all="ignore"):
            expected = np.minimum(1.0, scale * np.linalg.norm(xs - ys, axis=1))
            got = ScaledEuclideanMetric(scale).pair_distances(xs, ys)
        assert got.shape == expected.shape == (k,)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scale", [0.0, 0.5, 50.0])
    @pytest.mark.parametrize("rows", [
        [[1e200], [0.0], [3e200]],  # the squared norms overflow
        [[1.2e154, 0.0], [0.0, 1.2e154], [0.1, 0.1]],  # finite squares whose sums overflow
        [[np.inf, 0.1], [0.1, 0.2], [-0.3, 0.1]],
        [[np.nan, 0.1], [0.1, 0.2], [-0.3, 0.1]],
    ], ids=["overflowing squares", "overflowing sums", "inf", "nan"])
    def test_scaled_euclidean_block_of_huge_rows_is_the_pair_form(self, rows, scale):
        # the Gram form would make inf - inf = NaN across the matrix, on the
        # diagonal too
        X = np.array(rows)
        i, j = np.triu_indices(len(X), 1)
        metric = ScaledEuclideanMetric(scale)
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = metric.pair_distances(X[i], X[j])
            got = metric.pairwise_matrix(X)
        expected = np.zeros((len(X), len(X)))
        expected[i, j] = expected[j, i] = pairs
        assert got.tobytes() == expected.tobytes()


class BrokenMetric(SimilarityMetric):
    """Asymmetric, outside [0, 1], non-zero on identical points and in breach
    of the triangle inequality. Each row's value uses only that row, so a
    batched row equals the same pair evaluated alone."""

    def pair_distances(self, xs, ys):
        xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
        return 2.0 * xs[:, 0] - ys[:, 0] + 0.5 * xs[:, 1] * ys[:, 1] + 0.2


def _record(report):
    """The counts of a report and its lists of each kind of violation."""
    return ((report.n_symmetry_violations, report.n_range_violations,
             report.n_triangle_violations),
            (report.symmetry_violations, report.range_violations, report.triangle_violations))


def _oracle_record(violations):
    """What a report holds of the scalar oracle's full lists: their counts
    and the first 20 of each kind."""
    return tuple(map(len, violations)), tuple(v[:20] for v in violations)


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
        expected = _oracle_record(scalar.validate_metric(metric.distance, ds, n_triples, seed))
        assert _record(report) == expected
        assert report.ok == (expected[0] == (0, 0, 0))

    def test_default_block_with_partial_last_block(self, rng):
        ds = random_dataset(rng, 30, 2)
        metric = BrokenMetric()
        n_triples = 2 * core._TRIPLE_BLOCK + 37
        report = validate_metric(metric, ds, n_triples, seed=5)
        expected = scalar.validate_metric(metric.distance, ds, n_triples, seed=5)
        assert all(expected)  # every kind of violation occurs
        assert _record(report) == _oracle_record(expected)
        assert not report.ok

    def test_memory_does_not_grow_with_the_triples(self, rng):
        # only the counts and the first 20 records of each kind are kept: it
        # traced 9.0 MB at 20,000 triples and 88.4 MB at 200,000 when every
        # violation was kept
        ds = random_dataset(rng, 30, 2)
        peaks = []
        for n_triples in (20_000, 200_000):
            tracemalloc.start()
            try:
                report = validate_metric(BrokenMetric(), ds, n_triples, seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.n_triangle_violations > 20 == len(report.triangle_violations)
        assert peaks[1] <= 1.5 * peaks[0]

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
