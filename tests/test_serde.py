"""File formats: CSV round trips, predictor JSON, metric specs, reports."""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import random_dataset, strict_json
from metricfair import (
    BoundReport,
    ConstantMetric,
    ConstantPredictor,
    FairnessReport,
    HardnessMetric,
    HardnessReport,
    KernelPredictor,
    LinearPredictor,
    LogisticPredictor,
    MetricUndefinedError,
    ScaledEuclideanMetric,
    SolverDerivedParams,
    TrainingReport,
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


RECORDS = [
    TrainingReport(final_objective=0.25, final_constraint_slack=-0.01, iterations=30,
                   converged=True, empirical_mf_loss=0.0, mf_loss_bound=0.5,
                   derived_params={"tau": 0.05}, extras={"B_derived": math.inf}),
    FairnessReport(empirical_mf_loss=0.0, empirical_l1_loss=0.25, population_estimate=None,
                   population_ci=None, group_profile=((0.1, 0.0), (1.0, 0.5)), gamma=0.1,
                   n_edges=7),
    HardnessReport(n=8, k_pairs=20, seed=3, modes=("U", "V"), averaged_fair_error_u=0.5,
                   reference_error={"U": 0.5, "V": 0.0}, perfect_fairness_audit={},
                   trained={"linear": {"train_error_u": 0.5}}, accuracy_gap=None,
                   headline_learner="linear"),
    BoundReport(delta_m=0.5, inputs={"g": 10.0}, sample_complexities={"lin": 673},
                kernel_norm_bound=math.inf),
    SolverDerivedParams(G=10.0, rho=3.5, alpha_tilde=0.04, gamma_tilde=0.2, tau=0.04),
]


class TestRecordSerialization:
    """A report record is written field for field, so a new field cannot be dropped."""

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_json_keys_are_the_field_names(self, record):
        body = strict_json(write_report({"results": record}, no_timestamp=True))
        assert set(body["results"]) == {f.name for f in dataclasses.fields(record)}

    def test_values_follow_the_json_rules(self):
        record = TrainingReport(
            final_objective=np.float64(0.5), final_constraint_slack=-math.inf,
            iterations=np.int64(3), converged=False, empirical_mf_loss=math.nan,
            extras={"pair": (1, 2.5), 4: np.array([math.inf, 1.0]), "inner": RECORDS[-1]})
        body = strict_json(write_report({"results": record}, no_timestamp=True))
        assert body["results"] == {
            "final_objective": 0.5, "final_constraint_slack": "-inf", "iterations": 3,
            "converged": False, "empirical_mf_loss": None, "mf_loss_bound": None,
            "derived_params": {},
            "extras": {"pair": [1, 2.5], "4": ["inf", 1.0],
                       "inner": {"G": 10.0, "rho": 3.5, "alpha_tilde": 0.04,
                                 "gamma_tilde": 0.2, "tau": 0.04}},
        }
