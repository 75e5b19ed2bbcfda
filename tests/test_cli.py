"""CLI behavior: subcommands, exit codes, seeds, reproducibility."""

import json

import pytest

from conftest import random_dataset, strict_json
from metricfair import (
    ConstantPredictor,
    KernelLearner,
    SolverConfig,
    TrainConfig,
    kernel_norm_bound_B,
    sample_complexity_kernel,
    train_fair_kernel,
    train_fair_linear,
)
from metricfair.cli import run_cli
from metricfair.serde import (
    load_dataset_csv,
    load_metric,
    save_dataset_csv,
    save_predictor_json,
)


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

    @pytest.mark.parametrize("command", ["train", "audit"])
    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_euclidean_scale_exits_two(self, capsys, dataset_file,
                                                              tmp_path, command, scale):
        predictor = tmp_path / "constant.json"
        save_predictor_json(ConstantPredictor(0.5), predictor)
        out = tmp_path / "out.json"
        flags = {"train": ("--alpha", "0.3", "--predictor-out", str(out)),
                 "audit": ("--predictor", str(predictor), "--out", str(out))}[command]
        code, _, err = run(capsys, command, "--data", str(dataset_file),
                           "--metric", f"euclidean:{scale}", "--gamma", "0.4",
                           *flags, "--seed", "1")
        assert code == 2
        assert err == f"error: scale must be finite and non-negative, got {float(scale)}\n"
        assert not out.exists()


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

    def test_sigmoid_accuracy_without_b_or_l_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--formula", "sigmoid-accuracy",
                             "--epsilon", "0.1", "--eps-alpha", "0.1", "--eps-gamma", "0.1",
                             "--alpha", "0.1", "--delta", "0.05")
        assert code == 1
        assert err == "usage error: formula sigmoid-accuracy needs --b or --l\n"
        assert out == ""

    @pytest.mark.parametrize("bound", [("--b", "100"), ("--l", "3")])
    def test_sigmoid_accuracy_equals_the_kernel_formula(self, capsys, bound):
        flag, value = bound
        code, out, _ = run(capsys, "bounds", "--formula", "sigmoid-accuracy",
                           "--epsilon", "0.1", "--eps-alpha", "0.1", "--eps-gamma", "0.1",
                           "--alpha", "0.1", "--delta", "0.05", flag, value)
        B = 100.0 if flag == "--b" else kernel_norm_bound_B(3.0, 0.05)
        expected = sample_complexity_kernel(0.1, 0.1, 0.1, 0.1, 0.05, B).m
        assert code == 0
        assert out == f"sigmoid-accuracy {expected:.10g}\n"

    # every input a formula reads, each valid; a case then sets one to NaN
    VALID = ("--g", "10", "--delta", "0.05", "--m", "1001", "--rhat", "0.01",
             "--c", "1", "--sup-m", "1", "--l", "3", "--eps-star", "0.5",
             "--epsilon", "0.1", "--eps-alpha", "0.1", "--eps-gamma", "0.1",
             "--alpha", "0.1", "--rademacher-const", "0.001")

    @pytest.mark.parametrize("formula, flag, message", [
        ("delta-m", "--g", "G must be >= 1, got nan"),
        ("delta-m", "--rhat", "r_hat must be non-negative, got nan"),
        ("delta-m-kernel", "--g", "G must be >= 1, got nan"),
        ("delta-m-kernel", "--c", "C must be non-negative, got nan"),
        ("delta-m-kernel", "--sup-m", "M must be non-negative, got nan"),
        ("b-star", "--l", "L must be >= 3, got nan"),
        ("sigmoid-accuracy", "--l", "L must be >= 3, got nan"),
        ("sigmoid-accuracy", "--b", "B must be positive, got nan"),
        ("inf-fpac", "--rademacher-const", "Rademacher value at matching size 1 is NaN"),
        ("inf-fpac", "--rademacher-coeff", "Rademacher value at matching size 1 is NaN"),
    ])
    def test_nan_input_exits_two_and_names_it(self, capsys, tmp_path, formula, flag, message):
        code, _, _ = run(capsys, "bounds", "--formula", formula, *self.VALID)
        assert code == 0
        out = tmp_path / "bounds.json"
        code, stdout, err = run(capsys, "bounds", "--formula", formula, *self.VALID,
                                flag, "nan", "--out", str(out))
        assert code == 2
        assert err == f"error: {message}\n"
        assert stdout == ""
        assert not out.exists()


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


    @pytest.mark.parametrize("grid, entry", [
        ("abc", "abc"), ("nan", "nan"), ("inf", "inf"), ("0.1,-inf,0.5", "-inf"), ("0.1,x", "x"),
    ])
    def test_grid_entry_that_is_not_a_finite_number_is_usage_error(
            self, capsys, dataset_file, tmp_path, grid, entry):
        predictor_path = tmp_path / "constant.json"
        save_predictor_json(ConstantPredictor(0.5), predictor_path)
        out = tmp_path / "audit.json"
        code, stdout, err = run(capsys, "audit", "--data", str(dataset_file),
                                "--metric", "constant:0.3", "--predictor", str(predictor_path),
                                "--gamma", "0.1", "--seed", "5", "--alpha2-grid", grid,
                                "--out", str(out))
        assert code == 1
        assert err == ("usage error: argument --alpha2-grid: grid entries must be finite "
                       f"numbers, got {entry!r}\n")
        assert stdout == ""
        assert not out.exists()

    def test_grid_skips_empty_entries(self, capsys, dataset_file, tmp_path):
        predictor_path = tmp_path / "constant.json"
        save_predictor_json(ConstantPredictor(0.5), predictor_path)
        code, out, _ = run(capsys, "audit", "--data", str(dataset_file),
                           "--metric", "constant:0.3", "--predictor", str(predictor_path),
                           "--gamma", "0.1", "--seed", "5", "--alpha2-grid", "0.1,,1e0,",
                           "--no-timestamp")
        assert code == 0
        assert [a2 for a2, _ in json.loads(out)["results"]["group_profile"]] == [0.1, 1.0]

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


class TestReportRecords:
    def test_predictor_report_equals_the_train_results(self, capsys, tmp_path):
        data, predictor, report = (tmp_path / n for n in ("d.csv", "p.json", "r.json"))
        code, _, _ = run(capsys, "gen-data", "--generator", "unit-ball", "--n", "3",
                         "--m", "40", "--seed", "1", "--out", str(data))
        assert code == 0
        # L = 60 derives a B that overflows to +inf; training uses the b_max cap
        with pytest.warns(RuntimeWarning, match="overflowed"):
            code, out, _ = run(capsys, "train", "--data", str(data),
                               "--metric", "euclidean:0.8", "--learner", "kernel",
                               "--kernel-l", "60", "--alpha", "0.2", "--gamma", "0.3",
                               "--seed", "1", "--predictor-out", str(predictor),
                               "--out", str(report), "--no-timestamp")
        assert code == 0
        assert out == report.read_text()
        body = strict_json(out)
        saved = strict_json(predictor.read_text())
        assert saved["report"] == body["results"]
        assert saved["training_config"] == body["params"]
        assert body["results"]["extras"]["B_derived"] == "inf"
        assert body["results"]["extras"]["B_used"] == 1e4


class TestTrainParameters:
    """Every unset training parameter takes its dataclass default, and a
    --config key acts exactly like its flag."""

    @pytest.mark.parametrize("kernel_b", [None, 10.0])
    def test_flags_give_the_dataclass_defaults(self, capsys, dataset_file, tmp_path, kernel_b):
        cli_out = tmp_path / "cli.json"
        flags = [] if kernel_b is None else ["--learner", "kernel", "--kernel-b", str(kernel_b)]
        code, _, _ = run(capsys, "train", "--data", str(dataset_file),
                         "--metric", "euclidean:0.8", "--alpha", "0.3", "--gamma", "0.4",
                         *flags, "--seed", "5", "--predictor-out", str(cli_out))
        assert code == 0

        ds = load_dataset_csv(dataset_file)
        metric = load_metric("euclidean:0.8", ds)
        if kernel_b is None:
            cfg = TrainConfig(0.3, 0.4, solver=SolverConfig(seed=5))
            predictor, report = train_fair_linear(ds, metric, cfg)
        else:
            cfg = TrainConfig(0.3, 0.4, learner=KernelLearner(B=kernel_b),
                              solver=SolverConfig(seed=5))
            predictor, report = train_fair_kernel(ds, metric, cfg)
        params = {"alpha": cfg.alpha, "gamma": cfg.gamma, "eps": cfg.eps,
                  "eps_alpha": cfg.eps_alpha, "eps_gamma": cfg.eps_gamma,
                  "delta": cfg.delta, "gamma_star": cfg.gamma_star,
                  "learner": "linear" if kernel_b is None else "kernel",
                  "mode": cfg.mode, "seed": 5}
        lib_out = tmp_path / "lib.json"
        save_predictor_json(predictor, lib_out, training_config=params, report=report)
        assert cli_out.read_bytes() == lib_out.read_bytes()

    BASE = {"alpha": 0.3, "gamma": 0.4, "eps_alpha": 0.2, "eps_gamma": 0.2, "max_iters": 200}

    @pytest.mark.parametrize("key, value, extra", [
        ("learner", "kernel", {"kernel_b": 10.0}),
        ("alpha", 0.25, {}),
        ("gamma", 0.45, {}),
        ("eps", 0.15, {"learner": "kernel", "kernel_l": 3.0}),
        ("eps_alpha", 0.15, {}),
        ("eps_gamma", 0.3, {}),
        ("delta", 0.1, {}),
        ("gamma_star", 0.1, {}),
        ("theory_mode", "theoretical", {}),
        ("kernel_b", 10.0, {"learner": "kernel"}),
        ("kernel_l", 3.0, {"learner": "kernel"}),
        ("b_max", 50.0, {"learner": "kernel", "kernel_l": 3.0}),
        ("max_iters", 150, {}),
        ("step_c0", 0.05, {}),
        ("feas_tol", 1e-4, {}),
    ])
    def test_config_key_acts_like_its_flag(self, capsys, dataset_file, tmp_path,
                                           key, value, extra):
        def train(name, flag_params, file_params=None):
            out = tmp_path / f"{name}.json"
            argv = ["train", "--data", str(dataset_file), "--metric", "euclidean:0.8",
                    "--seed", "5", "--predictor-out", str(out)]
            for k, v in flag_params.items():
                argv += [f"--{k.replace('_', '-')}", str(v)]
            if file_params is not None:
                config = tmp_path / f"{name}-config.json"
                config.write_text(json.dumps(file_params))
                argv += ["--config", str(config)]
            code, _, err = run(capsys, *argv)
            return code, err, out.read_bytes() if out.exists() else None

        base = {**self.BASE, **extra}
        by_flag = train("flag", {**base, key: value})
        by_file = train("file", {k: v for k, v in base.items() if k != key}, {key: value})
        assert by_file == by_flag
        # the key took effect: the run differs from one that leaves it unset
        assert train("unset", {k: v for k, v in base.items() if k != key}) != by_flag

    @pytest.mark.parametrize("text, message", [
        ('{"learner": "forest"}', "learner"),
        ('{"alpha": "0.2"}', "alpha"),
        ('{"alpha": null}', "alpha"),
        ('{"eps": true}', "eps"),
        ('{"max_iters": 2.5}', "max_iters"),
        ('{"theory_mode": "exact"}', "theory_mode"),
        ('"abc"', "JSON object"),
        ("[0.3, 0.4]", "JSON object"),
    ])
    def test_invalid_config_value_is_usage_error(self, capsys, dataset_file, tmp_path,
                                                 text, message):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", str(dataset_file),
                           "--metric", "constant:0.2", "--alpha", "0.3", "--gamma", "0.4",
                           "--config", str(config), "--seed", "1",
                           "--predictor-out", str(out))
        assert code == 1
        assert "usage error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"alpha": 0.3', "", "{'alpha': 0.3}", '{"alpha": NaN'])
    def test_config_file_that_is_not_json_is_usage_error(self, capsys, dataset_file,
                                                         tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", str(dataset_file),
                           "--metric", "constant:0.2", "--alpha", "0.3", "--gamma", "0.4",
                           "--config", str(config), "--seed", "1",
                           "--predictor-out", str(out))
        assert code == 1
        assert err.startswith(f"usage error: --config file {config} is not valid JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--step-c0", "-1", "step_c0 must be positive and finite"),
        ("--step-c0", "0", "step_c0 must be positive and finite"),
        ("--feas-tol", "nan", "feasibility_tolerance"),
    ])
    def test_invalid_solver_flag_exits_two(self, capsys, dataset_file, tmp_path,
                                           flag, value, message):
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", str(dataset_file),
                           "--metric", "constant:0.2", "--alpha", "0.3", "--gamma", "0.4",
                           flag, value, "--seed", "1", "--predictor-out", str(out))
        assert code == 2
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--kernel-b", "nan"), "error: B must not be NaN"),
        (("--kernel-l", "nan"), "error: L must not be NaN"),
        (("--kernel-b", "10", "--b-max", "nan"), "error: b_max must be positive, got nan"),
        (("--kernel-b", "10", "--b-max", "-1"), "error: b_max must be positive, got -1.0"),
    ])
    def test_invalid_kernel_bound_exits_two(self, capsys, dataset_file, tmp_path,
                                            flags, message):
        out = tmp_path / "k.json"
        code, _, err = run(capsys, "train", "--data", str(dataset_file),
                           "--metric", "euclidean:0.8", "--learner", "kernel", *flags,
                           "--alpha", "0.2", "--gamma", "0.3", "--seed", "1",
                           "--predictor-out", str(out))
        assert code == 2
        assert err == message + "\n"
        assert not out.exists()


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
