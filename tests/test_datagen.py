"""Synthetic dataset generators."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as scalar
from metricfair import SyntheticSpec, ValidationError, core, generate_dataset_with_meta


def same_bits(a, b) -> bool:
    """Equal float arrays, down to the sign of zero."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSeparable:
    def test_margin_guarantee(self):
        spec = SyntheticSpec("separable", n=3, m=100, seed=5, margin=0.5, noise_rate=0.0)
        ds, meta = generate_dataset_with_meta(spec)
        margins = ds.labels * (ds.features @ meta["w_star"])
        assert np.all(margins >= 0.5 - 1e-12)
        assert np.all(np.linalg.norm(ds.features, axis=1) <= 1.0 + 1e-12)

    def test_extreme_margin(self):
        spec = SyntheticSpec("separable", n=4, m=20, seed=2, margin=1.0)
        ds, meta = generate_dataset_with_meta(spec)
        assert np.allclose(np.abs(ds.features @ meta["w_star"]), 1.0)

    def test_noise_points_flip_labels_only(self):
        spec = SyntheticSpec("separable", n=3, m=200, seed=6, margin=0.3, noise_rate=0.25)
        ds, meta = generate_dataset_with_meta(spec)
        margins = ds.labels * (ds.features @ meta["w_star"])
        noise = meta["noise_mask"]
        assert np.all(margins[~noise] >= 0.3 - 1e-12)
        assert np.all(margins[noise] <= -0.3 + 1e-12)
        assert 0 < noise.sum() < 200

    def test_generation_peaks_within_a_few_times_its_features(self):
        # the features, the labels, the noise draw and the temporaries of one
        # block of about core._PAIR_BLOCK entries: about 3.6 times the feature
        # bytes; shaped on whole arrays, the generation traced 6.1 times them
        spec = SyntheticSpec("separable", n=2, m=100_000, seed=1, margin=0.9)
        tracemalloc.start()
        try:
            ds, _ = generate_dataset_with_meta(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * ds.features.nbytes


class TestRowLoopOracles:
    """The generators against their row-at-a-time loops in scalar_reference."""

    @given(n=st.integers(1, 40), m=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
           margin=st.sampled_from((1e-3, 0.1, 0.9, 1.0)) | st.floats(1e-3, 1.0),
           noise_rate=st.sampled_from((0.0, 0.5)) | st.floats(0.0, 0.5),
           block=st.integers(1, 400))
    @settings(max_examples=150, deadline=None)
    def test_separable_matches_the_row_loop_bit_for_bit(self, n, m, seed, margin, noise_rate,
                                                        block):
        # at margin 0.9 most rows exceed the cap on the orthogonal part, at
        # 1.0 every row does
        spec = SyntheticSpec("separable", n=n, m=m, seed=seed, margin=margin,
                             noise_rate=noise_rate)
        X, labels, w_star, noise_mask = scalar.separable_dataset(n, m, seed, margin, noise_rate)
        # all m rows in one block, and in blocks of max(block // n, 1) rows
        for pair_block in (core._PAIR_BLOCK, block):
            with mock.patch.object(core, "_PAIR_BLOCK", pair_block):
                ds, meta = generate_dataset_with_meta(spec)
            assert same_bits(ds.features, X)
            assert np.array_equal(ds.labels, labels)
            assert same_bits(meta["w_star"], w_star)
            assert np.array_equal(meta["noise_mask"], noise_mask)

    @given(n=st.integers(1, 40), m=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_unit_ball_points_match_the_norm_expression_bit_for_bit(self, n, m, seed):
        ds, _ = generate_dataset_with_meta(SyntheticSpec("unit-ball", n=n, m=m, seed=seed))
        assert same_bits(ds.features, scalar.unit_ball_points(np.random.default_rng(seed), m, n))


class TestUnitBall:
    def test_norms_bounded(self):
        spec = SyntheticSpec("unit-ball", n=4, m=10_000, seed=8)
        ds, _ = generate_dataset_with_meta(spec)
        assert float(np.linalg.norm(ds.features, axis=1).max()) <= 1.0
        assert set(np.unique(ds.labels)) <= {-1, 1}


class TestHardnessPairs:
    def test_interleaved_pairs(self):
        spec = SyntheticSpec("hardness-pairs", n=8, m=40, seed=9, mode="U")
        ds, meta = generate_dataset_with_meta(spec)
        assert len(ds) == 40
        matching = meta["matching"]
        assert matching.left.tolist() == list(range(0, 40, 2))
        assert matching.right.tolist() == list(range(1, 40, 2))
        assert np.all(ds.labels[::2] == -ds.labels[1::2])

    def test_odd_m_rejected(self):
        with pytest.raises(ValidationError):
            generate_dataset_with_meta(SyntheticSpec("hardness-pairs", n=8, m=41, seed=9))


class TestDeterminism:
    @pytest.mark.parametrize("generator", ["unit-ball", "separable", "hardness-pairs"])
    def test_same_seed_same_data(self, generator):
        spec = SyntheticSpec(generator, n=8, m=40, seed=123)
        a, _ = generate_dataset_with_meta(spec)
        b, _ = generate_dataset_with_meta(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestSpecValidation:
    def test_bad_generator(self):
        with pytest.raises(ValidationError):
            SyntheticSpec("moons", n=2, m=10, seed=0)

    def test_bad_margin(self):
        with pytest.raises(ValidationError):
            SyntheticSpec("separable", n=2, m=10, seed=0, margin=1.5)

    def test_bad_noise(self):
        with pytest.raises(ValidationError):
            SyntheticSpec("separable", n=2, m=10, seed=0, noise_rate=1.0)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            SyntheticSpec("unit-ball", n=2, m=1, seed=0)
