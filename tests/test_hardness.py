"""The hardness construction: expansion function, metric, sampling, experiment."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as scalar
from metricfair import core, hardness
from metricfair import (
    HardnessMetric,
    KernelLearner,
    SignReferencePredictor,
    SignUndefinedError,
    SolverConfig,
    TrainConfig,
    ValidationError,
    absolute_error,
    averaged_fair_paired_error,
    expand_seed,
    is_perfectly_fair,
    run_hardness_experiment,
    sample_hardness_distribution,
    validate_metric,
)
from metricfair.hardness import _audit_pairs
from metricfair.serde import write_report
from conftest import TablePredictor, random_predictor


def counterparts(paired):
    """The (i, j) index pairs of a HardPairedDataset's matching."""
    return zip(paired.matching.left.tolist(), paired.matching.right.tolist())


class TestExpandSeed:
    def test_deterministic(self, rng):
        s = rng.integers(0, 2, size=31).astype(np.uint8)
        assert np.array_equal(expand_seed(s), expand_seed(s))

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_output_length(self, rng, n):
        s = rng.integers(0, 2, size=n - 1).astype(np.uint8)
        assert expand_seed(s).shape == (2 * n,)

    def test_rejects_non_bits(self):
        with pytest.raises(ValidationError):
            expand_seed(np.array([0, 2, 1]))

    def test_no_collisions_on_distinct_seeds(self, rng):
        n = 64
        seeds = rng.integers(0, 2, size=(12_000, n - 1)).astype(np.uint8)
        distinct = np.unique(seeds, axis=0)[:10_000]
        outputs = {expand_seed(s).tobytes() for s in distinct}
        assert len(outputs) == len(distinct)

    def test_seed_length_is_bound_into_the_expansion(self):
        # [1,0,1] and [1,0,1,0] pack to the same byte; the length prefix must
        # keep their expansions distinct
        short = expand_seed(np.array([1, 0, 1], dtype=np.uint8))
        long = expand_seed(np.array([1, 0, 1, 0], dtype=np.uint8))
        assert not np.array_equal(short, long[: short.shape[0]])


class TestHardnessMetric:
    def test_reflexive(self):
        paired, handle = sample_hardness_distribution(8, 3, "U", 0)
        metric = HardnessMetric(handle)
        x = paired.dataset.features[0]
        assert metric.distance(x, x) == 0.0

    def test_same_label_side_is_far(self):
        paired, handle = sample_hardness_distribution(8, 20, "U", 1)
        metric = HardnessMetric(handle)
        X = paired.dataset.features
        labels = paired.dataset.labels
        same = [(i, j) for i in range(10) for j in range(10)
                if i < j and labels[i] == labels[j]]
        for i, j in same[:10]:
            assert metric.distance(X[i], X[j]) == 1.0

    def test_counterparts_at_distance_zero_in_mode_u(self):
        paired, handle = sample_hardness_distribution(16, 50, "U", 2)
        metric = HardnessMetric(handle)
        X = paired.dataset.features
        for i, j in counterparts(paired):
            assert metric.distance(X[i], X[j]) == 0.0

    def test_zero_coordinate_rejected(self):
        _, handle = sample_hardness_distribution(8, 2, "U", 3)
        metric = HardnessMetric(handle)
        bad = np.array([0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.5])
        with pytest.raises(SignUndefinedError, match="sign undefined"):
            metric.distance(bad, -bad)

    def test_zero_coordinate_allowed_on_identical_rows(self):
        _, handle = sample_hardness_distribution(8, 2, "U", 3)
        metric = HardnessMetric(handle)
        bad = np.array([0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.5])
        assert metric.pair_distances(np.stack([bad, bad]), np.stack([bad, bad])).tolist() == [0.0, 0.0]

    def test_mode_v_pairs_never_at_distance_zero(self):
        paired, handle = sample_hardness_distribution(32, 10_000, "V", 4)
        metric = HardnessMetric(handle)
        X = paired.dataset.features
        hits = sum(metric.distance(X[i], X[j]) == 0.0 for i, j in counterparts(paired))
        assert hits == 0

    def test_axioms_on_sampled_triples(self):
        paired, handle = sample_hardness_distribution(16, 100, "U", 5)
        report = validate_metric(HardnessMetric(handle), paired.dataset, 10_000, seed=6)
        assert report.ok


class TestSampling:
    def test_opposite_labels_and_margins(self):
        paired, _ = sample_hardness_distribution(12, 100, "U", 7)
        labels = paired.dataset.labels
        X = paired.dataset.features
        for i, j in counterparts(paired):
            assert labels[i] == -labels[j]
            assert abs(X[i, -1]) == 0.5 and abs(X[j, -1]) == 0.5
            assert labels[i] == (1 if X[i, -1] > 0 else -1)

    def test_counterpart_flips_preserve_magnitudes(self):
        paired, _ = sample_hardness_distribution(12, 50, "U", 8)
        X = paired.dataset.features
        for i, j in counterparts(paired):
            assert np.allclose(np.abs(X[i]), np.abs(X[j]))

    @given(n=st.integers(4, 40), k=st.integers(1, 150), mode=st.sampled_from(("U", "V")),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_sampler_matches_the_row_loop_bit_for_bit(self, n, k, mode, seed):
        paired, handle = sample_hardness_distribution(n, k, mode, seed)
        rows, labels, y, seed_bits = scalar.hardness_sample(n, k, mode, seed)
        features = paired.dataset.features
        assert features.shape == rows.shape
        assert np.array_equal(features.view(np.int64), rows.view(np.int64))
        assert np.array_equal(paired.dataset.labels, labels)
        assert np.array_equal(handle.y, y)
        assert (handle.seed_bits is None) == (seed_bits is None)
        if seed_bits is not None:
            assert np.array_equal(handle.seed_bits, seed_bits)
        assert paired.matching.left.tolist() == list(range(0, 2 * k, 2))
        assert paired.matching.right.tolist() == list(range(1, 2 * k, 2))

    def test_all_points_inside_unit_ball(self):
        paired, _ = sample_hardness_distribution(6, 500, "V", 9)
        assert np.all(np.linalg.norm(paired.dataset.features, axis=1) <= 1.0 + 1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            sample_hardness_distribution(3, 5, "U", 0)
        with pytest.raises(ValidationError):
            sample_hardness_distribution(8, 0, "U", 0)
        with pytest.raises(ValidationError):
            sample_hardness_distribution(8, 5, "W", 0)

    def test_handle_rejects_mismatched_seed(self):
        from metricfair import HardnessMetricHandle

        _, handle = sample_hardness_distribution(8, 2, "U", 30)
        wrong = handle.seed_bits.copy()
        wrong[0] ^= 1
        with pytest.raises(ValidationError, match="does not expand"):
            HardnessMetricHandle(handle.y, "U", 8, wrong)
        with pytest.raises(ValidationError):
            HardnessMetricHandle(handle.y[:-2], "U", 8, handle.seed_bits)


class TestAveragedFairProjection:
    def test_per_pair_error_sums_to_one_in_mode_u(self, rng):
        paired, handle = sample_hardness_distribution(10, 50, "U", 10)
        metric = HardnessMetric(handle)
        h = random_predictor(rng, 10)
        values = h.predict_batch(paired.dataset.features)
        targets = paired.dataset.targets01
        for i, j in counterparts(paired):
            avg = 0.5 * (values[i] + values[j])
            pair_sum = abs(avg - targets[i]) + abs(avg - targets[j])
            assert pair_sum == pytest.approx(1.0, abs=1e-12)
        assert averaged_fair_paired_error(h, paired, metric) == pytest.approx(0.5, abs=1e-12)

    def test_mode_v_keeps_raw_predictions(self, rng):
        paired, handle = sample_hardness_distribution(10, 30, "V", 11)
        metric = HardnessMetric(handle)
        reference = SignReferencePredictor(10)
        # no pair is at distance 0, so no averaging happens and the reference
        # classifier keeps its zero error
        assert averaged_fair_paired_error(reference, paired, metric) == 0.0


class TestModeV:
    def test_any_predictor_is_perfectly_fair_on_sampled_pairs(self, rng):
        paired, handle = sample_hardness_distribution(12, 200, "V", 12)
        metric = HardnessMetric(handle)
        X = paired.dataset.features
        xs, ys = X[paired.matching.left], X[paired.matching.right]
        for _ in range(5):
            h = random_predictor(rng, 12)
            ok, violations = is_perfectly_fair(h, xs, ys, metric)
            assert ok and not violations

    def test_reference_classifier_error_zero(self):
        paired, _ = sample_hardness_distribution(12, 200, "V", 13)
        assert absolute_error(SignReferencePredictor(12), paired.dataset) == 0.0


class TestPerfectFairnessOnCounterparts:
    def test_distance_zero_pair_with_prediction_gap_is_reported(self):
        paired, handle = sample_hardness_distribution(12, 5, "U", 14)
        metric = HardnessMetric(handle)
        reference = SignReferencePredictor(12)
        X = paired.dataset.features
        xs, ys = X[paired.matching.left], X[paired.matching.right]
        # counterparts are at distance 0 but the sign classifier splits them
        ok, violations = is_perfectly_fair(reference, xs, ys, metric, tolerance=0.0)
        assert not ok
        assert len(violations) == len(xs) == 5


class TestExperiment:
    TRAINER = TrainConfig(alpha=0.05, gamma=0.1, learner=KernelLearner(B=1e4),
                          solver=SolverConfig(max_iters=250, seed=0))

    @pytest.fixture(scope="class")
    def report(self):
        return run_hardness_experiment(n=8, k_pairs=40, seed=21, trainer=self.TRAINER,
                                       n_audit_pairs=500)

    def test_small_experiment_report(self, report):
        trainer = self.TRAINER
        assert report.averaged_fair_error_u == pytest.approx(0.5, abs=1e-12)
        assert report.reference_error["V"] == 0.0
        assert report.perfect_fairness_audit["V"]["n_violations"] == 0
        assert report.headline_learner == "kernel"
        kernel = report.trained["kernel"]
        assert kernel["empirical_mf_loss_u"] <= trainer.alpha + 1e-9
        assert kernel["accuracy_gap"] == pytest.approx(
            kernel["train_error_u"] - kernel["train_error_v"]
        )
        payload = json.loads(write_report({"results": report}, no_timestamp=True))["results"]
        assert payload["modes"] == ["U", "V"]

    def test_mode_u_errors_against_the_budget_floor(self, report):
        # a mode-U pair is at distance 0 with opposite labels, so its two errors
        # sum to at least 1 - |gap|; clipping only shrinks a gap, and a
        # predictor whose mean excess over the edges is tau + s has mean |gap|
        # at most tau + s: its train error is at least 1/2 - (tau + s)/2
        for name, trained in report.trained.items():
            tau, slack = trained["tau_u"], trained["constraint_slack_u"]
            assert trained["train_error_u"] >= 0.5 - (tau + slack) / 2 - 1e-12, name
        tau = report.trained["linear"]["tau_u"]
        assert report.trained["linear"]["train_error_u"] <= 0.5 - tau / 2 + 1e-9
        # today's kernel learner stops a quarter of the budget above the floor:
        # it returns its warm start, scaled to the solver's target of tau / 2
        tau = report.trained["kernel"]["tau_u"]
        assert report.trained["kernel"]["train_error_u"] <= 0.5 - tau / 4 + 1e-9

    def test_single_mode_run(self):
        report = run_hardness_experiment(
            n=8, k_pairs=20, seed=22, modes=("V",), n_audit_pairs=200,
            train=False,
        )
        assert report.averaged_fair_error_u is None
        assert report.accuracy_gap is None
        assert report.reference_error["V"] == 0.0


class TestBatchedAgainstScalar:
    """The batched metric and its callers against the one-pair-at-a-time code."""

    @given(bits=st.integers(3, 39).flatmap(
        lambda length: st.lists(st.integers(0, 1), min_size=length, max_size=length)))
    @settings(max_examples=100, deadline=None)
    def test_expand_seed_matches_scalar(self, bits):
        # n = len(bits) + 1 runs over 4..40, so 2n is often not a multiple of 8
        assert np.array_equal(expand_seed(bits), scalar.expand_seed(bits))

    @given(
        n=st.integers(4, 40),
        mode=st.sampled_from(("U", "V")),
        seed=st.integers(0, 2**16),
        k=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_pair_distances_match_scalar_loop(self, n, mode, seed, k, data):
        paired, handle = sample_hardness_distribution(n, k, mode, seed)
        X = paired.dataset.features.copy()
        m = 2 * k
        if data.draw(st.booleans(), label="zero coordinate"):
            X[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))] = 0.0
        picks = data.draw(st.lists(
            st.tuples(st.integers(0, m - 1),
                      st.sampled_from(("identical", "counterpart", "any")),
                      st.integers(0, m - 1)),
            min_size=1, max_size=12), label="pairs")
        left = [i for i, _, _ in picks]
        right = [i if kind == "identical" else i ^ 1 if kind == "counterpart" else j
                 for i, kind, j in picks]
        metric = HardnessMetric(handle)
        try:
            expected = [scalar.hardness_distance(handle, X[i], X[j]) for i, j in zip(left, right)]
        except SignUndefinedError:
            with pytest.raises(SignUndefinedError, match="sign undefined"):
                metric.pair_distances(X[left], X[right])
            return
        assert metric.pair_distances(X[left], X[right]).tolist() == expected
        assert [metric.distance(X[i], X[j]) for i, j in zip(left, right)] == expected

    @given(n=st.integers(4, 12), k=st.integers(1, 8), block=st.integers(1, 40),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_blocked_pairwise_matrix_matches_scalar_loop(self, n, k, block, seed):
        paired, handle = sample_hardness_distribution(n, k, "U", seed)
        X = paired.dataset.features
        with mock.patch.object(core, "_PAIR_BLOCK", block):
            got = HardnessMetric(handle).pairwise_matrix(X)
        expected = scalar.pairwise_matrix(lambda x, y: scalar.hardness_distance(handle, x, y), X)
        assert np.array_equal(got, expected)

    @given(n=st.integers(4, 16), k=st.integers(1, 30), mode=st.sampled_from(("U", "V")),
           n_audit=st.integers(0, 120), block=st.integers(1, 50), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_hardness_callers_match_scalar_loops(self, n, k, mode, n_audit, block, seed):
        paired, handle = sample_hardness_distribution(n, k, mode, seed)
        X = paired.dataset.features
        metric = HardnessMetric(handle)
        h = TablePredictor(X, np.random.default_rng(seed).random(len(X)))

        def distance(x, y):
            return scalar.hardness_distance(handle, x, y)

        # the exact bits, not just the value: reports pin this float
        got = averaged_fair_paired_error(h, paired, metric)
        assert got.hex() == scalar.averaged_fair_paired_error(h, paired, distance).hex()

        # the pairs do not depend on the block size they are drawn in
        with mock.patch.object(hardness, "_AUDIT_BLOCK", block):
            blocks = list(_audit_pairs(paired, np.random.default_rng(seed), n_audit))
        assert all(len(xs) == len(ys) <= block for xs, ys in blocks)
        xs = np.concatenate([np.empty((0, n))] + [xs for xs, _ in blocks])
        ys = np.concatenate([np.empty((0, n))] + [ys for _, ys in blocks])
        expected_pairs = scalar.audit_pairs(paired, np.random.default_rng(seed), n_audit)
        assert xs.shape == ys.shape == (n_audit, n)
        assert len(expected_pairs) == n_audit
        for x, y, (ex, ey) in zip(xs, ys, expected_pairs):
            assert np.array_equal(x, ex) and np.array_equal(y, ey)

        ok, violations = is_perfectly_fair(h, xs, ys, metric, tolerance=0.05)
        expected_ok, expected_violations = scalar.is_perfectly_fair(
            h, list(zip(xs, ys)), distance, 0.05)
        assert ok == expected_ok
        assert [(x.tolist(), y.tolist(), gap, dist) for x, y, gap, dist in violations] == [
            (x.tolist(), y.tolist(), gap, dist) for x, y, gap, dist in expected_violations]


class TestExperimentInputs:
    def test_trainer_must_hold_a_kernel_learner(self):
        trainer = TrainConfig(alpha=0.05, gamma=0.1, learner=None)
        with pytest.raises(ValidationError, match="config.learner must be a KernelLearner"):
            run_hardness_experiment(n=8, k_pairs=5, seed=1, trainer=trainer, modes=("V",),
                                    n_audit_pairs=10)

    def test_a_linear_trainer_runs_when_nothing_trains(self):
        trainer = TrainConfig(alpha=0.05, gamma=0.1, learner=None)
        report = run_hardness_experiment(n=8, k_pairs=5, seed=1, trainer=trainer, modes=("V",),
                                         n_audit_pairs=10, train=False)
        assert report.trained == {}

    def test_negative_audit_pairs_rejected(self):
        with pytest.raises(ValidationError, match="n_audit_pairs"):
            run_hardness_experiment(n=8, k_pairs=5, seed=1, modes=("V",),
                                    n_audit_pairs=-1, train=False)
