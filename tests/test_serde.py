"""File formats: CSV round trips, predictor JSON, metric specs, reports."""

import json

import numpy as np
import pytest

from conftest import random_dataset
from metricfair import (
    ConstantMetric,
    ConstantPredictor,
    HardnessMetric,
    KernelPredictor,
    LinearPredictor,
    LogisticPredictor,
    MetricUndefinedError,
    ScaledEuclideanMetric,
    ValidationError,
    VovkHalfKernel,
    sample_hardness_distribution,
)
from metricfair.serde import (
    load_dataset_csv,
    load_hardness_handle,
    load_metric,
    load_predictor_json,
    save_dataset_csv,
    save_hardness_handle,
    save_matrix_metric,
    save_predictor_json,
    write_report,
)


class TestDatasetCsv:
    def test_round_trip_is_exact(self, rng, tmp_path):
        ds = random_dataset(rng, 23, 4)
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        assert np.array_equal(ds.features, loaded.features)
        assert np.array_equal(ds.labels, loaded.labels)

    def test_header_shape(self, rng, tmp_path):
        ds = random_dataset(rng, 3, 2)
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        assert path.read_text().splitlines()[0] == "x1,x2,y"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.1,0.2\n")
        with pytest.raises(ValidationError):
            load_dataset_csv(path)


class TestPredictorJson:
    @pytest.mark.parametrize("make", [
        lambda: ConstantPredictor(0.25),
        lambda: LinearPredictor(np.array([0.5, -0.25, 0.1])),
        lambda: LogisticPredictor(np.array([0.3, 0.4]), 2.5),
        lambda: KernelPredictor(np.array([[0.2, 0.1], [0.0, -0.3]]),
                                np.array([0.7, -0.2]), VovkHalfKernel()),
    ])
    def test_round_trip(self, make, tmp_path, rng):
        original = make()
        path = tmp_path / "predictor.json"
        save_predictor_json(original, path, training_config={"alpha": 0.1})
        loaded = load_predictor_json(path)
        X = rng.uniform(-0.4, 0.4, size=(10, getattr(original, "dimension", 2) or 2))
        assert np.allclose(original.predict_batch(X), loaded.predict_batch(X), atol=0)


    @pytest.mark.parametrize("support, message", [
        ([[0.1, float("nan")]], "support must be finite"),
        ([[5.0, 5.0, 5.0]], "support norm .* exceeds the unit ball"),
    ])
    def test_kernel_support_outside_the_unit_ball_rejected(self, support, message, tmp_path):
        path = tmp_path / "predictor.json"
        path.write_text(json.dumps({"variant": "kernel", "kernel": "vovk-half",
                                    "support": support, "beta": [1.0]}))
        with pytest.raises(ValidationError, match=message):
            load_predictor_json(path)


class TestMetricSpecs:
    def test_constant_and_euclidean(self):
        assert isinstance(load_metric("constant:0.4"), ConstantMetric)
        assert isinstance(load_metric("euclidean:1.5"), ScaledEuclideanMetric)

    def test_matrix_with_index_file(self, rng, tmp_path):
        ds = random_dataset(rng, 4, 2)
        matrix = np.array([
            [0.0, 0.2, 0.3, 0.4],
            [0.2, 0.0, 0.5, 0.6],
            [0.3, 0.5, 0.0, 0.7],
            [0.4, 0.6, 0.7, 0.0],
        ])
        path = tmp_path / "metric.csv"
        save_matrix_metric(matrix, [0, 1, 2, 3], path)
        metric = load_metric(f"matrix:{path}", ds)
        assert metric.distance(ds.features[0], ds.features[1]) == 0.2
        with pytest.raises(MetricUndefinedError):
            metric.distance(np.array([0.9, 0.05]), ds.features[0])

    def test_hardness_handle_round_trip(self, tmp_path):
        _, handle = sample_hardness_distribution(8, 2, "U", 3)
        path = tmp_path / "handle.json"
        save_hardness_handle(handle, path)
        loaded = load_hardness_handle(path)
        assert np.array_equal(loaded.y, handle.y)
        assert np.array_equal(loaded.seed_bits, handle.seed_bits)
        metric = load_metric(f"hardness:{path}")
        assert isinstance(metric, HardnessMetric)

    def test_unknown_spec(self):
        with pytest.raises(ValidationError):
            load_metric("cosine:1")


class TestReports:
    def test_schema_version_and_determinism(self, tmp_path):
        payload = {"command": "x", "results": {"value": 0.5, "arr": np.array([1.0, 2.0])}}
        a = write_report(payload, tmp_path / "a.json", no_timestamp=True)
        b = write_report(payload, tmp_path / "b.json", no_timestamp=True)
        assert a == b
        body = json.loads(a)
        assert body["schema_version"] == 1
        assert "timestamp" not in body
        assert body["results"]["arr"] == [1.0, 2.0]

    def test_timestamp_present_by_default(self, tmp_path):
        body = json.loads(write_report({"command": "x"}, None))
        assert "timestamp" in body

    def test_infinities_stay_valid_json(self):
        text = write_report({"results": {"b": float("inf")}}, None, no_timestamp=True)
        assert json.loads(text)["results"]["b"] == "inf"
