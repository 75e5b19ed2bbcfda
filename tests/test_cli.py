"""CLI behavior: subcommands, exit codes, seeds, reproducibility."""

import json

import pytest

from conftest import random_dataset
from metricfair import ConstantPredictor
from metricfair.cli import run_cli
from metricfair.serde import load_dataset_csv, save_dataset_csv, save_predictor_json


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset_file(rng, tmp_path):
    path = tmp_path / "data.csv"
    save_dataset_csv(random_dataset(rng, 21, 2), path)
    return path


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "bounds", "--formula", "delta-m", "--nope", "1")
        assert code == 1
        assert "usage error" in err

    def test_missing_seed_exits_one(self, capsys, dataset_file, monkeypatch):
        monkeypatch.delenv("PACF_SEED", raising=False)
        code, _, err = run(capsys, "gen-data", "--generator", "unit-ball",
                           "--n", "2", "--m", "10", "--out", str(dataset_file))
        assert code == 1
        assert "seed" in err

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PACF_SEED", "99")
        out = tmp_path / "d.csv"
        code, _, _ = run(capsys, "gen-data", "--generator", "unit-ball",
                         "--n", "2", "--m", "10", "--out", str(out))
        assert code == 0
        assert out.exists()

    def test_runtime_error_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "audit", "--data", str(tmp_path / "missing.csv"),
                           "--metric", "constant:0.5", "--predictor", "nope.json",
                           "--gamma", "0.1", "--seed", "1")
        assert code == 2
        assert "error" in err


class TestGenData:
    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, "gen-data", "--generator", "separable",
                             "--n", "3", "--m", "50", "--margin", "0.5",
                             "--seed", "7", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hardness_pairs_with_handle(self, capsys, tmp_path):
        out = tmp_path / "hard.csv"
        handle = tmp_path / "handle.json"
        code, _, _ = run(capsys, "gen-data", "--generator", "hardness-pairs",
                         "--n", "8", "--m", "20", "--mode", "u", "--seed", "3",
                         "--out", str(out), "--handle-out", str(handle))
        assert code == 0
        ds = load_dataset_csv(out)
        assert len(ds) == 20
        assert handle.exists()


class TestBounds:
    def test_delta_m_prints_expected_value(self, capsys):
        code, out, _ = run(capsys, "bounds", "--formula", "delta-m", "--g", "10",
                           "--delta", "0.05", "--m", "1000001", "--rhat", "0.001")
        assert code == 0
        assert "0.87173" in out

    def test_multiple_formulas_table(self, capsys, tmp_path):
        report = tmp_path / "bounds.json"
        code, out, _ = run(capsys, "bounds",
                           "--formula", "delta-m-kernel", "--formula", "b-star",
                           "--g", "1", "--delta", "0.05", "--m", "401",
                           "--c", "1", "--sup-m", "1",
                           "--l", "3", "--eps-star", "0.5",
                           "--out", str(report), "--no-timestamp")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("delta-m-kernel 4.524344")
        assert lines[1].startswith("b-star 2.73637")
        body = json.loads(report.read_text())
        assert body["results"]["formulas"]["delta-m-kernel"] == pytest.approx(4.52434, abs=1e-5)
        assert body["results"]["delta_m"] == pytest.approx(4.52434, abs=1e-5)
        assert body["results"]["kernel_norm_bound"] == pytest.approx(2.7364e39, rel=1e-3)

    def test_lin_accuracy_utility_branch(self, capsys):
        code, out, _ = run(capsys, "bounds", "--formula", "lin-accuracy",
                           "--epsilon", "0.1", "--eps-alpha", "0.1", "--eps-gamma", "0.1",
                           "--alpha", "0.1", "--delta", "0.05", "--branch", "utility")
        assert code == 0
        assert out.strip() == "lin-accuracy 673"

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--formula", "delta-m", "--g", "10")
        assert code == 1
        assert "needs" in err


class TestAudit:
    def test_constant_predictor_report(self, capsys, dataset_file, tmp_path):
        predictor_path = tmp_path / "constant.json"
        save_predictor_json(ConstantPredictor(0.5), predictor_path)
        report_path = tmp_path / "audit.json"
        code, out, _ = run(capsys, "audit", "--data", str(dataset_file),
                           "--metric", "constant:0.3", "--predictor", str(predictor_path),
                           "--gamma", "0.1", "--seed", "5", "--out", str(report_path),
                           "--no-timestamp")
        assert code == 0
        body = json.loads(report_path.read_text())
        assert body["results"]["empirical_mf_loss"] == 0.0
        assert body["results"]["population_estimate"] == 0.0
        assert body["schema_version"] == 1


    def test_negative_population_pairs_exit_two(self, capsys, dataset_file, tmp_path):
        predictor_path = tmp_path / "constant.json"
        save_predictor_json(ConstantPredictor(0.5), predictor_path)
        out = tmp_path / "audit.json"
        code, _, err = run(capsys, "audit", "--data", str(dataset_file),
                           "--metric", "constant:0.3", "--predictor", str(predictor_path),
                           "--gamma", "0.1", "--seed", "5", "--population-pairs", "-5",
                           "--out", str(out))
        assert code == 2
        assert "population_pairs must be >= 0" in err
        assert not out.exists()

    def test_kernel_support_outside_the_unit_ball_exits_two(self, capsys, dataset_file, tmp_path):
        predictor_path = tmp_path / "kernel.json"
        predictor_path.write_text(json.dumps({"variant": "kernel", "kernel": "vovk-half",
                                              "support": [[5.0, 5.0]], "beta": [0.5]}))
        out = tmp_path / "audit.json"
        code, _, err = run(capsys, "audit", "--data", str(dataset_file),
                           "--metric", "constant:0.3", "--predictor", str(predictor_path),
                           "--gamma", "0.1", "--seed", "5", "--out", str(out))
        assert code == 2
        assert "exceeds the unit ball" in err
        assert not out.exists()


class TestTrainAuditRoundTrip:
    def test_l1_within_budget(self, capsys, dataset_file, tmp_path):
        predictor_path = tmp_path / "model.json"
        train_report = tmp_path / "train.json"
        code, _, _ = run(capsys, "train", "--data", str(dataset_file),
                         "--metric", "constant:0.1", "--learner", "linear",
                         "--alpha", "0.3", "--gamma", "0.4",
                         "--eps-alpha", "0.2", "--eps-gamma", "0.2",
                         "--max-iters", "600", "--seed", "11",
                         "--predictor-out", str(predictor_path),
                         "--out", str(train_report), "--no-timestamp")
        assert code == 0
        train_body = json.loads(train_report.read_text())
        tau = train_body["results"]["derived_params"]["tau"]
        feas_tol = train_body["results"]["derived_params"]["feasibility_tolerance"]

        audit_report = tmp_path / "audit.json"
        code, _, _ = run(capsys, "audit", "--data", str(dataset_file),
                         "--metric", "constant:0.1", "--predictor", str(predictor_path),
                         "--gamma", "0.1", "--seed", "11",
                         "--population-pairs", "0",
                         "--out", str(audit_report), "--no-timestamp")
        assert code == 0
        audit_body = json.loads(audit_report.read_text())
        assert audit_body["results"]["empirical_l1_loss"] <= tau + feas_tol

    def test_config_file_with_flag_overrides(self, capsys, dataset_file, tmp_path):
        config_path = tmp_path / "train-config.json"
        config_path.write_text(json.dumps({
            "alpha": 0.3, "gamma": 0.4, "eps_alpha": 0.2, "eps_gamma": 0.2,
            "max_iters": 200,
        }))
        report_path = tmp_path / "train.json"
        code, _, _ = run(capsys, "train", "--data", str(dataset_file),
                         "--metric", "constant:0.2", "--config", str(config_path),
                         "--alpha", "0.25",  # flag overrides the file
                         "--seed", "3", "--predictor-out", str(tmp_path / "m.json"),
                         "--out", str(report_path), "--no-timestamp")
        assert code == 0
        body = json.loads(report_path.read_text())
        assert body["params"]["alpha"] == 0.25
        assert body["params"]["gamma"] == 0.4
        derived = body["results"]["derived_params"]
        assert derived["tau"] == pytest.approx(0.25 * derived["gamma_tilde"])
        # empirical and theoretical budgets are reported side by side
        assert derived["tau_theoretical"] < derived["tau"]

    def test_objective_tolerance_is_not_an_option(self, capsys, dataset_file, tmp_path):
        train = ("train", "--data", str(dataset_file), "--metric", "constant:0.2",
                 "--alpha", "0.3", "--gamma", "0.4", "--seed", "1",
                 "--predictor-out", str(tmp_path / "m.json"))
        code, _, err = run(capsys, *train, "--obj-tol", "0.01")
        assert code == 1
        assert "--obj-tol" in err
        config_path = tmp_path / "train-config.json"
        config_path.write_text(json.dumps({"obj_tol": 0.01}))
        code, _, err = run(capsys, *train, "--config", str(config_path))
        assert code == 1
        assert "unknown config keys: ['obj_tol']" in err
        assert not (tmp_path / "m.json").exists()

    def test_missing_alpha_is_usage_error(self, capsys, dataset_file, tmp_path):
        code, _, err = run(capsys, "train", "--data", str(dataset_file),
                           "--metric", "constant:0.2", "--gamma", "0.4", "--seed", "1",
                           "--predictor-out", str(tmp_path / "m.json"))
        assert code == 1
        assert "alpha" in err

    def test_kernel_needs_bound(self, capsys, dataset_file, tmp_path):
        code, _, err = run(capsys, "train", "--data", str(dataset_file),
                           "--metric", "constant:0.5", "--learner", "kernel",
                           "--alpha", "0.3", "--gamma", "0.4", "--seed", "1",
                           "--predictor-out", str(tmp_path / "k.json"))
        assert code == 1
        assert "kernel-b" in err


class TestValidateMetricCommand:
    def test_clean_metric_exits_zero(self, capsys, dataset_file, tmp_path):
        code, _, _ = run(capsys, "validate-metric", "--data", str(dataset_file),
                         "--metric", "euclidean:0.7", "--triples", "2000",
                         "--seed", "2", "--out", str(tmp_path / "v.json"),
                         "--no-timestamp")
        assert code == 0
        body = json.loads((tmp_path / "v.json").read_text())
        assert body["results"]["ok"] is True

    @pytest.mark.parametrize("triples", ["0", "-5"])
    def test_non_positive_triples_exit_two(self, capsys, dataset_file, tmp_path, triples):
        out = tmp_path / "v.json"
        code, _, err = run(capsys, "validate-metric", "--data", str(dataset_file),
                           "--metric", "euclidean:0.7", "--triples", triples,
                           "--seed", "2", "--out", str(out))
        assert code == 2
        assert "n_triples must be >= 1" in err
        assert not out.exists()


class TestHardnessCommand:
    def test_mode_v_report(self, capsys, tmp_path):
        report = tmp_path / "hardness.json"
        code, _, _ = run(capsys, "hardness-demo", "--n", "8", "--pairs", "20",
                         "--mode", "v", "--seed", "4", "--audit-pairs", "300",
                         "--skip-training", "--out", str(report), "--no-timestamp")
        assert code == 0
        body = json.loads(report.read_text())
        assert body["results"]["reference_error"]["V"] == 0.0
        assert body["results"]["perfect_fairness_audit"]["V"]["n_violations"] == 0

    def test_negative_audit_pairs_exit_two(self, capsys, tmp_path):
        out = tmp_path / "hardness.json"
        code, _, err = run(capsys, "hardness-demo", "--n", "8", "--pairs", "20",
                           "--mode", "v", "--seed", "4", "--audit-pairs", "-1",
                           "--skip-training", "--out", str(out))
        assert code == 2
        assert "n_audit_pairs must be >= 0" in err
        assert not out.exists()

    def test_mode_u_report(self, capsys, tmp_path):
        report = tmp_path / "hardness-u.json"
        code, _, _ = run(capsys, "hardness-demo", "--n", "8", "--pairs", "15",
                         "--mode", "u", "--seed", "4", "--skip-training",
                         "--out", str(report), "--no-timestamp")
        assert code == 0
        body = json.loads(report.read_text())
        assert body["results"]["modes"] == ["U"]
        assert body["results"]["averaged_fair_error_u"] == 0.5
        assert body["results"]["accuracy_gap"] is None


class TestMatrixMetricPipeline:
    def test_audit_with_matrix_metric_files(self, capsys, rng, tmp_path):
        from conftest import random_dataset
        from metricfair.serde import save_matrix_metric
        import numpy as np

        ds = random_dataset(rng, 8, 2)
        data_path = tmp_path / "d.csv"
        save_dataset_csv(ds, data_path)
        rows = np.abs(rng.random((8, 8)))
        matrix = np.minimum((rows + rows.T) / 2.0, 1.0)
        np.fill_diagonal(matrix, 0.0)
        metric_path = tmp_path / "metric.csv"
        save_matrix_metric(matrix, range(8), metric_path)
        predictor_path = tmp_path / "p.json"
        save_predictor_json(ConstantPredictor(0.5), predictor_path)
        out = tmp_path / "audit.json"
        code, _, _ = run(capsys, "audit", "--data", str(data_path),
                         "--metric", f"matrix:{metric_path}",
                         "--predictor", str(predictor_path), "--gamma", "0.1",
                         "--population-pairs", "200", "--seed", "9",
                         "--out", str(out), "--no-timestamp")
        assert code == 0
        assert json.loads(out.read_text())["results"]["empirical_mf_loss"] == 0.0


class TestReproducibility:
    def test_identical_reports_for_identical_seeds(self, capsys, dataset_file, tmp_path):
        predictor_path = tmp_path / "constant.json"
        save_predictor_json(ConstantPredictor(0.25), predictor_path)
        outs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            code, _, _ = run(capsys, "audit", "--data", str(dataset_file),
                             "--metric", "euclidean:0.5", "--predictor", str(predictor_path),
                             "--gamma", "0.2", "--seed", "77", "--out", str(path),
                             "--no-timestamp")
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
