"""CLI behavior: subcommands, exit codes, seeds, reproducibility."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import random_dataset, strict_json
from metricfair import (
    ConstantPredictor,
    KernelLearner,
    LinearPredictor,
    SolverConfig,
    TrainConfig,
    kernel_norm_bound_B,
    sample_complexity_kernel,
    train_fair_kernel,
    train_fair_linear,
)
from metricfair import cli
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

    @pytest.mark.parametrize("command", ["gen-data", "audit"])
    @pytest.mark.parametrize("source", ["--seed", "PACF_SEED"])
    def test_negative_seed_is_usage_error_naming_its_source(
            self, capsys, dataset_file, tmp_path, monkeypatch, command, source):
        predictor = tmp_path / "constant.json"
        save_predictor_json(ConstantPredictor(0.5), predictor)
        out = tmp_path / "out"
        argv = {
            "gen-data": ["gen-data", "--generator", "unit-ball", "--n", "2", "--m", "10",
                         "--out", str(out)],
            "audit": ["audit", "--data", str(dataset_file), "--metric", "constant:0.3",
                      "--predictor", str(predictor), "--gamma", "0.1", "--out", str(out)],
        }[command]
        if source == "--seed":
            monkeypatch.setenv("PACF_SEED", "3")
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("PACF_SEED", "-1")
        code, stdout, err = run(capsys, *argv)
        assert code == 1
        assert err == f"usage error: {source} must be non-negative, got -1\n"
        assert stdout == ""
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["train", "audit", "validate-metric"])
    @pytest.mark.parametrize("spec", ["euclidean:abc", "constant:abc"])
    def test_malformed_metric_spec_number_exits_two_and_names_the_spec(
            self, capsys, dataset_file, tmp_path, command, spec):
        predictor = tmp_path / "constant.json"
        save_predictor_json(ConstantPredictor(0.5), predictor)
        out = tmp_path / "out.json"
        flags = {"train": ("--alpha", "0.3", "--gamma", "0.4", "--predictor-out", str(out)),
                 "audit": ("--predictor", str(predictor), "--gamma", "0.4", "--out", str(out)),
                 "validate-metric": ("--out", str(out))}[command]
        code, stdout, err = run(capsys, command, "--data", str(dataset_file),
                                "--metric", spec, *flags, "--seed", "1")
        assert code == 2
        assert err == f"error: metric spec {spec!r}: 'abc' is not a number\n"
        assert stdout == ""
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

    def test_hardness_pairs_below_dimension_four_exit_two(self, capsys, tmp_path):
        out = tmp_path / "hard.csv"
        code, stdout, err = run(capsys, "gen-data", "--generator", "hardness-pairs",
                                "--n", "3", "--m", "20", "--seed", "3", "--out", str(out))
        assert code == 2
        assert err == "error: need dimension n >= 4\n"
        assert stdout == ""
        assert not out.exists()

    def test_allocation_beyond_the_address_space_exits_two(self, capsys, tmp_path):
        # 10**13 x 10 float64 features are 728 TiB, more than the 128 TiB of
        # user address space, so the allocation fails at once whatever the
        # overcommit setting
        out = tmp_path / "data.csv"
        code, stdout, err = run(capsys, "gen-data", "--generator", "unit-ball", "--n", "10",
                                "--m", "10000000000000", "--seed", "1", "--out", str(out))
        assert code == 2
        assert err.startswith("error: Unable to allocate 728. TiB") and err.count("\n") == 1
        assert stdout == ""
        assert not out.exists()

    def test_memory_error_without_a_message_says_out_of_memory(self, capsys, tmp_path,
                                                               monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "gen-data", exhausted)
        code, stdout, err = run(capsys, "gen-data", "--generator", "unit-ball", "--n", "2",
                                "--m", "5", "--seed", "1", "--out", str(tmp_path / "d.csv"))
        assert (code, stdout, err) == (2, "", "error: out of memory\n")

    def test_an_empty_handle_path_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen-data", "--generator", "hardness-pairs", "--n", "4",
                           "--m", "10", "--seed", "1", "--out", str(tmp_path / "d.csv"),
                           "--handle-out", "")
        # the path names no file it can write, so the run fails instead of dropping the handle
        assert code == 2 and err.startswith("error: ")

    def test_readme_names_each_generator_only_option_with_its_generator(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = " ".join(readme.replace("\n#", "\n").split()).lower()
        for run, options in cli._SOME_RUNS["gen-data"][1].items():
            flags = " and ".join("--" + key.replace("_", "-") for key in options)
            assert f"only {run} reads {flags}" in text

    @pytest.mark.parametrize("generator", ["unit-ball", "separable"])
    def test_handle_out_needs_the_hardness_generator(self, capsys, tmp_path, generator):
        out, handle = tmp_path / "data.csv", tmp_path / "handle.json"
        code, stdout, err = run(capsys, "gen-data", "--generator", generator, "--n", "3",
                                "--m", "5", "--seed", "1", "--out", str(out),
                                "--handle-out", str(handle))
        assert code == 1
        assert err == "usage error: --handle-out needs --generator hardness-pairs\n"
        assert stdout == ""
        assert not out.exists() and not handle.exists()


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
        assert body["results"]["formulas"]["b-star"] == pytest.approx(2.7364e39, rel=1e-3)
        assert set(body["results"]) == {"formulas", "inputs"}

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

    @pytest.mark.parametrize("extra, code, message", [
        ((), 1, "usage error: formula b-star needs --l"),
        (("--l", "nan"), 2, "error: L must be >= 3, got nan"),
    ], ids=["missing", "nan"])
    def test_a_later_formula_that_fails_prints_no_earlier_value(self, capsys, extra, code,
                                                                message):
        got, out, err = run(capsys, "bounds", "--formula", "delta-m", "--formula", "b-star",
                            "--g", "10", "--delta", "0.05", "--m", "1001", "--rhat", "0.01",
                            "--eps-star", "0.5", *extra)
        assert (got, out, err) == (code, "", message + "\n")

    def test_sigmoid_accuracy_without_b_or_l_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--formula", "sigmoid-accuracy",
                             "--epsilon", "0.1", "--eps-alpha", "0.1", "--eps-gamma", "0.1",
                             "--alpha", "0.1", "--delta", "0.05")
        assert code == 1
        assert err == "usage error: formula sigmoid-accuracy needs --b or --l\n"
        assert out == ""

    # each half alone exits 0, or 2 for a Rademacher constant that dominates
    @pytest.mark.parametrize("formula, flags, choice", [
        ("sigmoid-accuracy", ("--epsilon", "0.1", "--eps-alpha", "0.1", "--eps-gamma", "0.1",
                              "--alpha", "0.1", "--delta", "0.05", "--b", "10", "--l", "3"),
         "--b or --l"),
        ("inf-fpac", ("--eps-alpha", "0.5", "--eps-gamma", "0.5", "--delta", "0.1",
                      "--rademacher-coeff", "0.01", "--rademacher-const", "0.5"),
         "--rademacher-coeff or --rademacher-const"),
    ])
    def test_both_halves_of_an_either_or_input_is_usage_error(self, capsys, tmp_path,
                                                              formula, flags, choice):
        out = tmp_path / "bounds.json"
        code, stdout, err = run(capsys, "bounds", "--formula", formula, *flags,
                                "--out", str(out))
        assert code == 1
        assert err == f"usage error: formula {formula} takes {choice}, not both\n"
        assert stdout == "" and not out.exists()

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

    @pytest.mark.parametrize("flag", ["--rademacher-const", "--rademacher-coeff"])
    def test_negative_rademacher_exits_two_and_names_it(self, capsys, tmp_path, flag):
        out = tmp_path / "bounds.json"
        code, stdout, err = run(capsys, "bounds", "--formula", "inf-fpac", "--eps-alpha", "0.1",
                                "--eps-gamma", "0.1", "--delta", "0.05", flag, "-1",
                                "--out", str(out))
        assert code == 2
        assert err == "error: Rademacher value at matching size 1 is negative, got -1.0\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("rademacher", [("--rademacher-const", "0.001"),
                                            ("--rademacher-coeff", "0.01")])
    def test_inf_fpac_reruns_from_its_recorded_inputs(self, capsys, tmp_path, rademacher):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        code, out, _ = run(capsys, "bounds", "--formula", "inf-fpac", "--eps-alpha", "0.1",
                           "--eps-gamma", "0.2", "--delta", "0.05", "--m-pac", "99999999",
                           *rademacher, "--out", str(first), "--no-timestamp")
        assert code == 0
        inputs = json.loads(first.read_text())["results"]["inputs"]
        assert {"m_pac", rademacher[0][2:].replace("-", "_")} <= set(inputs)
        argv = [arg for key, value in inputs.items()
                for arg in ("--" + key.replace("_", "-"), str(value))]
        code, rerun, _ = run(capsys, "bounds", "--formula", "inf-fpac", *argv,
                             "--out", str(second), "--no-timestamp")
        assert code == 0 and rerun == out
        assert second.read_bytes() == first.read_bytes()

    # every input each formula reads, each valid; a case then sets one to NaN
    VALID = {
        "delta-m": ("--g", "10", "--delta", "0.05", "--m", "1001", "--rhat", "0.01"),
        "delta-m-kernel": ("--g", "10", "--delta", "0.05", "--m", "1001", "--c", "1",
                           "--sup-m", "1"),
        "b-star": ("--l", "3", "--eps-star", "0.5"),
        "sigmoid-accuracy": ("--epsilon", "0.1", "--eps-alpha", "0.1", "--eps-gamma", "0.1",
                             "--alpha", "0.1", "--delta", "0.05", "--l", "3"),
        "inf-fpac": ("--eps-alpha", "0.1", "--eps-gamma", "0.1", "--delta", "0.05",
                     "--rademacher-const", "0.001"),
    }
    # a flag that VALID leaves out takes the place of the other half of its
    # either-or pair, at a valid value
    EITHER_OR = {"--b": ("--l", "100"), "--rademacher-coeff": ("--rademacher-const", "0.001")}

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
        valid = list(self.VALID[formula])
        if flag in self.EITHER_OR:
            other, value = self.EITHER_OR[flag]
            at = valid.index(other)
            valid[at:at + 2] = [flag, value]
        code, _, _ = run(capsys, "bounds", "--formula", formula, *valid)
        assert code == 0
        out = tmp_path / "bounds.json"
        code, stdout, err = run(capsys, "bounds", "--formula", formula, *valid,
                                flag, "nan", "--out", str(out))
        assert code == 2
        assert err == f"error: {message}\n"
        assert stdout == ""
        assert not out.exists()


# runs of gen-data, hardness-demo and bounds that read every option they are given
UNIT_BALL = ("gen-data", "--generator", "unit-ball", "--n", "3", "--m", "20", "--seed", "1")
SEPARABLE = ("gen-data", "--generator", "separable", "--n", "3", "--m", "20", "--seed", "1")
HARD_PAIRS = ("gen-data", "--generator", "hardness-pairs", "--n", "4", "--m", "20",
              "--seed", "1")
DEMO = ("hardness-demo", "--n", "4", "--pairs", "6", "--mode", "both", "--seed", "1",
        "--max-iters", "2", "--audit-pairs", "50")
SKIP = ("hardness-demo", "--n", "4", "--pairs", "6", "--mode", "v", "--seed", "1",
        "--skip-training")
MODE_U = ("hardness-demo", "--n", "4", "--pairs", "6", "--mode", "u", "--seed", "1")
DELTA_M = ("bounds", "--formula", "delta-m", "--g", "10", "--delta", "0.05", "--m", "1001",
           "--rhat", "0.01")
DELTA_M_KERNEL = ("bounds", "--formula", "delta-m-kernel", "--g", "10", "--delta", "0.05",
                  "--m", "1001")
B_STAR = ("bounds", "--formula", "b-star", "--l", "3", "--eps-star", "0.5")
ACCURACY = ("--epsilon", "0.1", "--eps-alpha", "0.1", "--eps-gamma", "0.1", "--alpha", "0.1",
            "--delta", "0.05")
LIN_ACCURACY = ("bounds", "--formula", "lin-accuracy", *ACCURACY)
SIGMOID_ACCURACY = ("bounds", "--formula", "sigmoid-accuracy", *ACCURACY, "--b", "100")
# eps_alpha = eps_gamma = 0.9 put the fairness term near 5,000, below an m_pac of 10^5
INF_FPAC = ("bounds", "--formula", "inf-fpac", "--eps-alpha", "0.9", "--eps-gamma", "0.9",
            "--delta", "0.5", "--rademacher-const", "0.001")
INF_FPAC_COEFF = (*INF_FPAC[:-2], "--rademacher-coeff", "0.01")


def with_option(argv, flag, value=None):
    """`argv` with `flag` set to `value`: replaced if `argv` sets it, else
    appended; a bare flag when `value` is None."""
    if flag in argv:
        at = argv.index(flag) + 1
        return (*argv[:at], value, *argv[at + 1:])
    return (*argv, flag) if value is None else (*argv, flag, value)


class TestOptionsARunReads:
    """A run exits 1 on an option that it does not read, and every option
    changes what a run that reads it writes: together these pin which runs
    of gen-data, hardness-demo and bounds read which options."""

    @pytest.mark.parametrize("argv, flag, value, need", [
        (UNIT_BALL, "--margin", "0.3", "--generator separable"),
        (UNIT_BALL, "--noise-rate", "0.5", "--generator separable"),
        (UNIT_BALL, "--mode", "v", "--generator hardness-pairs"),
        (SEPARABLE, "--mode", "v", "--generator hardness-pairs"),
        (HARD_PAIRS, "--margin", "0.3", "--generator separable"),
        (HARD_PAIRS, "--noise-rate", "0.5", "--generator separable"),
        (SKIP, "--alpha", "0.1", "a run without --skip-training"),
        (SKIP, "--gamma", "0.2", "a run without --skip-training"),
        (SKIP, "--max-iters", "7", "a run without --skip-training"),
        (MODE_U, "--audit-pairs", "300", "--mode v or --mode both"),
        (DELTA_M, "--c", "1", "--formula delta-m-kernel"),
        (DELTA_M, "--sup-m", "1", "--formula delta-m-kernel"),
        (DELTA_M, "--l", "3", "--formula b-star or --formula sigmoid-accuracy"),
        (DELTA_M, "--b", "5", "--formula sigmoid-accuracy"),
        (DELTA_M, "--branch", "max", "--formula lin-accuracy or --formula sigmoid-accuracy"),
        (DELTA_M, "--m-pac", "1", "--formula inf-fpac"),
        (DELTA_M, "--eps-star", "0.5", "--formula b-star"),
        (INF_FPAC, "--branch", "max", "--formula lin-accuracy or --formula sigmoid-accuracy"),
    ])
    def test_an_option_its_run_does_not_read_is_a_usage_error(self, capsys, tmp_path, argv,
                                                               flag, value, need):
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *argv, flag, value, "--out", str(out))
        assert (code, stdout, err) == (1, "", f"usage error: {flag} needs {need}\n")
        assert not out.exists()

    def test_every_unread_option_is_named(self, capsys, tmp_path):
        code, _, err = run(capsys, *UNIT_BALL, "--margin", "0.3", "--noise-rate", "0.5",
                           "--mode", "v", "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == ("usage error: --margin needs --generator separable; --noise-rate needs "
                       "--generator separable; --mode needs --generator hardness-pairs\n")

    @staticmethod
    def written(capsys, directory, argv) -> dict:
        """What `argv` writes in `directory`: each file's bytes, or for a
        report, its `results` (its `params` and `inputs` restate the options)."""
        directory.mkdir()
        report = () if argv[0] == "gen-data" else ("--no-timestamp",)
        code, _, _ = run(capsys, *(arg.replace("{dir}", str(directory)) for arg in argv),
                         "--out", str(directory / "out"), *report)
        assert code == 0
        if argv[0] == "gen-data":
            return {p.name: p.read_bytes() for p in directory.iterdir()}
        results = json.loads((directory / "out").read_text())["results"]
        return results.get("formulas", results)

    @pytest.mark.parametrize("argv, flag, value", [
        (SEPARABLE, "--generator", "unit-ball"),
        (SEPARABLE, "--n", "4"),
        (SEPARABLE, "--m", "21"),
        (SEPARABLE, "--seed", "2"),
        (SEPARABLE, "--margin", "0.2"),
        (SEPARABLE, "--noise-rate", "0.3"),
        (HARD_PAIRS, "--mode", "v"),
        (HARD_PAIRS, "--handle-out", "{dir}/handle.json"),
        (DEMO, "--n", "5"),
        (DEMO, "--pairs", "7"),
        (DEMO, "--mode", "v"),
        (DEMO, "--seed", "2"),
        (DEMO, "--alpha", "0.2"),
        (DEMO, "--gamma", "0.3"),
        (DEMO, "--max-iters", "1"),
        (DEMO, "--audit-pairs", "60"),
        (SKIP[:-1], "--skip-training", None),
        (DELTA_M, "--g", "11"),
        (DELTA_M, "--delta", "0.1"),
        (DELTA_M, "--m", "1003"),
        (DELTA_M, "--rhat", "0.02"),
        (DELTA_M_KERNEL, "--c", "2"),
        (DELTA_M_KERNEL, "--sup-m", "2"),
        (B_STAR, "--l", "4"),
        (B_STAR, "--eps-star", "0.4"),
        # the utility branch reads epsilon; at these inputs the fairness branch is the max
        ((*LIN_ACCURACY, "--branch", "utility"), "--epsilon", "0.2"),
        (LIN_ACCURACY, "--eps-alpha", "0.2"),
        (LIN_ACCURACY, "--eps-gamma", "0.2"),
        (LIN_ACCURACY, "--alpha", "0.2"),
        (LIN_ACCURACY, "--branch", "utility"),
        (SIGMOID_ACCURACY, "--b", "200"),
        (INF_FPAC, "--m-pac", "100001"),
        (INF_FPAC, "--rademacher-const", "0.002"),
        (INF_FPAC_COEFF, "--rademacher-coeff", "0.02"),
    ])
    def test_an_option_changes_what_its_run_writes(self, capsys, tmp_path, argv, flag, value):
        before = self.written(capsys, tmp_path / "before", argv)
        after = self.written(capsys, tmp_path / "after", with_option(argv, flag, value))
        assert after != before


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
        assert body["schema_version"] == 5


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

    @pytest.mark.parametrize("grid, entry", [
        ("5,-1", "5"), ("0.1,-1", "-1"), ("1.5", "1.5"), ("-0.1", "-0.1"), ("0.5,1e1", "1e1"),
    ])
    def test_grid_entry_outside_unit_interval_is_usage_error(
            self, capsys, dataset_file, tmp_path, grid, entry):
        predictor_path = tmp_path / "constant.json"
        save_predictor_json(ConstantPredictor(0.5), predictor_path)
        out = tmp_path / "audit.json"
        code, stdout, err = run(capsys, "audit", "--data", str(dataset_file),
                                "--metric", "constant:0.3", "--predictor", str(predictor_path),
                                "--gamma", "0.1", "--seed", "5", "--alpha2-grid", grid,
                                "--out", str(out))
        assert code == 1
        assert err == ("usage error: argument --alpha2-grid: grid entries must be in [0, 1], "
                       f"got {entry!r}\n")
        assert stdout == ""
        assert not out.exists()

    def test_grid_accepts_both_ends_of_the_unit_interval(self, capsys, dataset_file, tmp_path):
        predictor_path = tmp_path / "constant.json"
        save_predictor_json(ConstantPredictor(0.5), predictor_path)
        code, out, _ = run(capsys, "audit", "--data", str(dataset_file),
                           "--metric", "constant:0.3", "--predictor", str(predictor_path),
                           "--gamma", "0.1", "--seed", "5", "--alpha2-grid", "0,1",
                           "--no-timestamp")
        assert code == 0
        assert json.loads(out)["results"]["group_profile"] == [[0.0, 0.0], [1.0, 0.0]]

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


class TestInputFiles:
    """A malformed input file exits 2 with a message, never a traceback or a
    silently altered value."""

    @staticmethod
    def audit(capsys, tmp_path, data, metric="constant:0.3", predictor=None):
        if predictor is None:
            predictor = tmp_path / "constant.json"
            save_predictor_json(ConstantPredictor(0.5), predictor)
        out = tmp_path / "audit.json"
        code, stdout, err = run(capsys, "audit", "--data", str(data), "--metric", metric,
                                "--predictor", str(predictor), "--gamma", "0.1",
                                "--seed", "1", "--out", str(out), "--no-timestamp")
        return code, stdout, err, out

    @pytest.mark.parametrize("label", ["1.5", "-1.9", "nan"])
    def test_label_other_than_plus_or_minus_one_exits_two(self, capsys, tmp_path, label):
        data = tmp_path / "data.csv"
        data.write_text(f"x1,x2,y\n0.1,0.2,{label}\n0.3,-0.1,-1\n")
        code, stdout, err, out = self.audit(capsys, tmp_path, data)
        assert code == 2
        assert err == f"error: dataset file {data}, line 2: label must be -1 or +1, got {label}\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("row, reason", [
        ("0.9,0.9,1", "row norm 1.27279220614 exceeds the unit ball"),
        ("inf,0.1,1", "features must be finite"),
        ("0.1,nan,-1", "features must be finite"),
    ])
    def test_row_outside_the_unit_ball_exits_two_naming_file_and_line(self, capsys, tmp_path,
                                                                      row, reason):
        data = tmp_path / "data.csv"
        # line 3 holds the first bad row; line 4 a bad label that comes later
        data.write_text(f"x1,x2,y\n0.1,0.2,1\n{row}\n0.3,-0.1,2\n")
        code, stdout, err, out = self.audit(capsys, tmp_path, data)
        assert code == 2
        assert err == f"error: dataset file {data}, line 3: {reason}\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("x1,x2,y\n", "dataset file {} has no rows"),
        ("x1,x2,y\n0.1,0.2,1\n0.3,abc,-1\n",
         "dataset file {}, line 3: could not convert string to float: 'abc'"),
        ("x1,x2,y\n0.1,0.2\n", "dataset file {}, line 2: row has 2 fields, expected 3"),
    ])
    def test_malformed_dataset_exits_two_naming_file_and_line(self, capsys, tmp_path, text,
                                                               message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        code, stdout, err, out = self.audit(capsys, tmp_path, data)
        assert code == 2
        assert err == f"error: {message.format(data)}\n"
        assert stdout == ""
        assert not out.exists()

    def test_label_written_as_a_float_loads(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n0.1,0.2,1.0\n0.3,-0.1,-1.0\n")
        assert load_dataset_csv(data).labels.tolist() == [1, -1]
        assert self.audit(capsys, tmp_path, data)[0] == 0

    @pytest.mark.parametrize("kind, text, key", [
        ("predictor", "[1, 2]", "JSON object"),
        ("predictor", '{"variant": "linear"}', "'weights'"),
        ("predictor", '{"variant": "kernel", "support": [[0.1, 0.2]], "beta": [1.0]}',
         "'kernel'"),
        ("predictor", '{"variant": "kernel", "kernel": "rbf", "support": [[0.1, 0.2]], '
                      '"beta": [1.0]}', "'kernel'"),
        ("predictor", '{"variant": "kernel", "kernel": "linear-dot", "support": [[0.1, 0.2]], '
                      '"beta": [1.0]}', "unknown kernel 'linear-dot' under key 'kernel'"),
        ("predictor", '{"variant": "linear", "weights": [0.1', "not valid JSON"),
        ("handle", "[]", "JSON object"),
        ("handle", '{"kind": "hardness-metric-handle", "mode": "V", "n": 2}', "'y'"),
        ("handle", '{"y": "0110", "n": 2}', "'mode'"),
        # wrongly typed values
        ("predictor", '{"variant": "constant", "p": "x"}', "'p'"),
        ("predictor", '{"variant": "linear", "weights": "abc"}', "'weights'"),
        ("predictor", '{"variant": "kernel", "kernel": ["vovk-half"], "support": [[0.1]], '
                      '"beta": [1.0]}', "'kernel'"),
        ("predictor", '{"variant": "kernel", "kernel": "vovk-half", "support": [[0.1], [0.1, 0.2]], '
                      '"beta": [1.0, 1.0]}', "'support'"),
        ("handle", '{"y": 5, "mode": "V", "n": 2}', "'y'"),
        ("handle", '{"y": "0110", "mode": "V", "n": "2"}', "'n'"),
    ])
    def test_malformed_predictor_or_handle_exits_two_naming_file_and_key(
            self, capsys, dataset_file, tmp_path, kind, text, key):
        path = tmp_path / f"{kind}.json"
        path.write_text(text)
        if kind == "predictor":
            code, stdout, err, out = self.audit(capsys, tmp_path, dataset_file, predictor=path)
        else:
            code, stdout, err, out = self.audit(capsys, tmp_path, dataset_file,
                                                metric=f"hardness:{path}")
        assert code == 2
        assert err.startswith("error: ") and str(path) in err and key in err
        assert "Traceback" not in err
        assert stdout == ""
        assert not out.exists()

    # JSON reads NaN, Infinity and a float beyond the largest as non-finite
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400", "-0.5"])
    def test_logistic_predictor_without_a_finite_lipschitz_constant_exits_two(
            self, capsys, dataset_file, tmp_path, value):
        path = tmp_path / "predictor.json"
        path.write_text(f'{{"variant": "logistic", "weights": [0.5, 0.1], "lipschitz": {value}}}')
        code, stdout, err, out = self.audit(capsys, tmp_path, dataset_file, predictor=path)
        assert code == 2
        assert err == (f"error: predictor file {path}: lipschitz constant must be finite "
                       f"and non-negative, got {float(value)}\n")
        assert stdout == ""
        assert not out.exists()

    def test_schema_1_predictor_audits_like_schema_2(self, capsys, dataset_file, tmp_path):
        schema_1 = tmp_path / "schema-1.json"
        schema_1.write_text(json.dumps({
            "variant": "linear", "weights": [0.9, -0.3], "schema_version": 1,
            "training_config": {"alpha": 0.2, "gamma": 0.3, "eps": 0.1, "eps_alpha": 0.1,
                                "eps_gamma": 0.1, "delta": 0.05, "gamma_star": 0.05,
                                "learner": "linear", "mode": "empirical", "seed": 1},
            "report": {"derived_params": {"alpha_tilde": 0.05, "tau": 0.05}},
        }))
        schema_2 = tmp_path / "schema-2.json"
        save_predictor_json(LinearPredictor(np.array([0.9, -0.3])), schema_2)
        old = self.audit(capsys, tmp_path, dataset_file, "euclidean:0.05", schema_1)
        new = self.audit(capsys, tmp_path, dataset_file, "euclidean:0.05", schema_2)
        assert old[0] == new[0] == 0
        assert old[1] == new[1]
        assert json.loads(new[1])["results"]["empirical_mf_loss"] > 0


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

    def test_gamma_star_is_not_an_option(self, capsys, dataset_file, tmp_path):
        train = ("train", "--data", str(dataset_file), "--metric", "constant:0.2",
                 "--alpha", "0.3", "--gamma", "0.4", "--seed", "1",
                 "--predictor-out", str(tmp_path / "m.json"))
        code, _, err = run(capsys, *train, "--gamma-star", "0.05")
        assert code == 1
        assert "--gamma-star" in err
        config_path = tmp_path / "train-config.json"
        config_path.write_text(json.dumps({"gamma_star": 0.05}))
        code, _, err = run(capsys, *train, "--config", str(config_path))
        assert code == 1
        assert "unknown config keys: ['gamma_star']" in err
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
        code, out, _ = run(capsys, "train", "--data", str(data),
                           "--metric", "euclidean:0.8", "--learner", "kernel",
                           "--kernel-b", "1e4", "--alpha", "0.2", "--gamma", "0.3",
                           "--seed", "1", "--predictor-out", str(predictor),
                           "--out", str(report), "--no-timestamp")
        assert code == 0
        assert out == report.read_text()
        body = strict_json(out)
        saved = strict_json(predictor.read_text())
        assert saved["report"] == body["results"]
        assert saved["training_config"] == body["params"]
        assert set(body["results"]["extras"]) == {"n_feasible_iterates"}


class TestKernelTrainWorkload:
    def test_objective_at_seed_1(self, capsys, tmp_path):
        # README quotes this objective for the benchmark's kernel-train data and flags
        data = tmp_path / "data.csv"
        code, _, _ = run(capsys, "gen-data", "--generator", "unit-ball", "--n", "10",
                         "--m", "2001", "--seed", "1", "--out", str(data))
        assert code == 0
        code, out, err = run(capsys, "train", "--data", str(data), "--metric", "euclidean:0.8",
                             "--learner", "kernel", "--kernel-b", "100", "--max-iters", "300",
                             "--alpha", "0.2", "--gamma", "0.3", "--seed", "1",
                             "--predictor-out", str(tmp_path / "p.json"), "--no-timestamp")
        assert code == 0, err
        assert round(json.loads(out)["results"]["final_objective"], 4) == 0.2212


class TestTrainParameters:
    """Every unset training parameter takes its dataclass default, and a
    --config key acts exactly like its flag."""

    def test_readme_lists_the_config_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = " ".join(readme.split())
        listing = text.split("whose keys are flag names with underscores:")[1].split(". ")[0]
        assert tuple(re.findall(r"`(\w+)`", listing)) == tuple(cli._TRAIN_PARAMS)
        kernel_only = text.split("Only the kernel learner reads")[1].split(". ")[0]
        assert tuple(re.findall(r"`(\w+)`", kernel_only)) == cli._KERNEL_ONLY

    @pytest.mark.parametrize("learner, unset", [
        ((), set(cli._KERNEL_ONLY)),
        (("--learner", "kernel", "--kernel-b", "10"), set()),
    ])
    def test_every_reported_parameter_is_a_config_key(self, capsys, dataset_file, tmp_path,
                                                      learner, unset):
        code, out, _ = run(capsys, "train", "--data", str(dataset_file),
                           "--metric", "euclidean:0.8", "--alpha", "0.3", "--gamma", "0.4",
                           *learner, "--max-iters", "50", "--seed", "5",
                           "--predictor-out", str(tmp_path / "m.json"), "--no-timestamp")
        assert code == 0
        params = json.loads(out)["params"]
        assert set(params) == set(cli._TRAIN_PARAMS) - unset | {"seed"}

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
        params = {"alpha": cfg.alpha, "gamma": cfg.gamma,
                  "eps_alpha": cfg.eps_alpha, "eps_gamma": cfg.eps_gamma,
                  "delta": cfg.delta, "learner": "linear" if kernel_b is None else "kernel",
                  "theory_mode": cfg.theory_mode, "max_iters": cfg.solver.max_iters,
                  "feas_tol": cfg.solver.feasibility_tolerance, "seed": 5}
        if kernel_b is not None:
            params.update(eps=cfg.eps, step_c0=cfg.solver.step_c0, kernel_b=cfg.learner.B)
        lib_out = tmp_path / "lib.json"
        save_predictor_json(predictor, lib_out, training_config=params, report=report)
        assert cli_out.read_bytes() == lib_out.read_bytes()

    @pytest.fixture
    def sample_file(self, capsys, tmp_path):
        path = tmp_path / "sample.csv"
        code, _, _ = run(capsys, "gen-data", "--generator", "unit-ball", "--n", "3",
                         "--m", "41", "--seed", "1", "--out", str(path))
        assert code == 0
        return path

    def train_to_bytes(self, capsys, tmp_path, data, name, *flags):
        """The predictor JSON and report of a seed-1 train run."""
        predictor, report = tmp_path / f"{name}-p.json", tmp_path / f"{name}-r.json"
        code, _, err = run(capsys, "train", "--data", str(data), "--metric", "euclidean:0.8",
                           *flags, "--seed", "1", "--predictor-out", str(predictor),
                           "--out", str(report), "--no-timestamp")
        assert code == 0, err
        return predictor.read_bytes(), report.read_bytes()

    @pytest.mark.parametrize("flags", [
        ("--max-iters", "40", "--feas-tol", "1e-4"),
        ("--learner", "kernel", "--kernel-b", "100", "--max-iters", "300", "--step-c0", "0.3"),
        ("--eps-alpha", "0.15", "--eps-gamma", "0.3", "--delta", "0.1", "--max-iters", "40"),
    ])
    def test_report_params_as_a_config_file_reproduce_the_run(self, capsys, sample_file,
                                                              tmp_path, flags):
        first = self.train_to_bytes(capsys, tmp_path, sample_file, "first",
                                    "--alpha", "0.2", "--gamma", "0.3", *flags)
        params = json.loads(first[1])["params"]
        del params["seed"]
        config = tmp_path / "params.json"
        config.write_text(json.dumps(params))
        again = self.train_to_bytes(capsys, tmp_path, sample_file, "again", "--config", str(config))
        assert again == first

    def test_a_config_integer_writes_what_its_flag_writes(self, capsys, sample_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kernel_b": 100}))
        common = ("--learner", "kernel", "--alpha", "0.2", "--gamma", "0.3", "--max-iters", "50")
        by_file = self.train_to_bytes(capsys, tmp_path, sample_file, "file", *common,
                                      "--config", str(config))
        by_flag = self.train_to_bytes(capsys, tmp_path, sample_file, "flag", *common,
                                      "--kernel-b", "100")
        assert by_file == by_flag
        assert b'"kernel_b": 100.0' in by_flag[1]

    BASE = {"alpha": 0.3, "gamma": 0.4, "eps_alpha": 0.2, "eps_gamma": 0.2, "max_iters": 200}

    @pytest.mark.parametrize("key, value, extra", [
        ("learner", "kernel", {"kernel_b": 10.0}),
        ("alpha", 0.25, {}),
        ("gamma", 0.45, {}),
        ("eps", 0.15, {"learner": "kernel", "kernel_b": 10.0}),
        ("eps_alpha", 0.15, {}),
        ("eps_gamma", 0.3, {}),
        ("delta", 0.1, {}),
        # the kernel slack min(eps, eps_alpha, eps_gamma / 2) reads eps with an explicit B
        ("eps", 0.05, {"learner": "kernel", "kernel_b": 10.0}),
        ("theory_mode", "theoretical", {}),
        ("kernel_b", 10.0, {"learner": "kernel"}),
        # a certified linear run stops long before 150 iterations, and step_c0
        # sets only the kernel learner's solver
        ("max_iters", 150, {"learner": "kernel", "kernel_b": 10.0}),
        ("step_c0", 0.05, {"learner": "kernel", "kernel_b": 10.0}),
        ("max_iters", 2, {}),
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

    def test_config_integer_beyond_the_float_range_exits_two(self, capsys, dataset_file,
                                                             tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"kernel_b": 1' + "0" * 400 + "}")
        out = tmp_path / "k.json"
        code, _, err = run(capsys, "train", "--data", str(dataset_file),
                           "--metric", "euclidean:0.8", "--learner", "kernel",
                           "--alpha", "0.3", "--gamma", "0.4", "--config", str(config),
                           "--seed", "1", "--predictor-out", str(out))
        assert code == 2
        assert err == "error: int too large to convert to float\n"
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
        # a kernel run, since only the kernel learner takes --step-c0
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", str(dataset_file),
                           "--metric", "constant:0.2", "--alpha", "0.3", "--gamma", "0.4",
                           "--learner", "kernel", "--kernel-b", "10",
                           flag, value, "--seed", "1", "--predictor-out", str(out))
        assert code == 2
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--kernel-b", "nan"), "error: B must not be NaN"),
        (("--kernel-b=-1",), "error: B must be positive, got -1.0"),
        (("--kernel-b", "0"), "error: B must be positive, got 0.0"),
        (("--kernel-b=-inf",), "error: B must be positive, got -inf"),
    ])
    def test_invalid_kernel_bound_exits_two(self, capsys, dataset_file, tmp_path,
                                            flags, message):
        out = tmp_path / "k.json"
        code, _, err = run(capsys, "train", "--data", str(dataset_file),
                           "--metric", "euclidean:0.8", "--learner", "kernel",
                           *flags, "--alpha", "0.2", "--gamma", "0.3",
                           "--seed", "1", "--predictor-out", str(out))
        assert code == 2
        assert err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("learner", [(), ("--learner", "linear")], ids=["default", "linear"])
    @pytest.mark.parametrize("flags, config, named", [
        (("--kernel-b", "10"), None, "--kernel-b"),
        (("--eps", "0.05"), None, "--eps"),
        (("--step-c0", "0.3"), None, "--step-c0"),
        ((), {"kernel_b": 10}, "kernel_b"),
        ((), {"eps": 0.05}, "eps"),
        ((), {"step_c0": 0.3}, "step_c0"),
    ], ids=["flag-kernel-b", "flag-eps", "flag-step-c0",
            "config-kernel-b", "config-eps", "config-step-c0"])
    def test_kernel_only_option_on_a_linear_run_is_usage_error(
            self, capsys, dataset_file, tmp_path, learner, flags, config, named):
        argv = []
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv = ["--config", str(tmp_path / "config.json")]
        out = tmp_path / "m.json"
        train = ("train", "--data", str(dataset_file), "--metric", "euclidean:0.8",
                 *flags, *argv, "--alpha", "0.2", "--gamma", "0.3", "--max-iters", "20",
                 "--seed", "1", "--predictor-out", str(out))
        code, _, err = run(capsys, *train, *learner)
        assert code == 1
        assert err == f"usage error: kernel-only options on a linear run: {named}\n"
        assert not out.exists()
        # a kernel run takes the option
        code, _, err = run(capsys, *train, "--learner", "kernel", "--kernel-b", "10")
        assert code == 0, err

    @pytest.mark.parametrize("flags, config, message", [
        (("--kernel-l", "3"), None, "unrecognized arguments: --kernel-l 3"),
        (("--b-max", "50"), None, "unrecognized arguments: --b-max 50"),
        ((), {"kernel_l": 3}, "unknown config keys: ['kernel_l']"),
        ((), {"b_max": 50}, "unknown config keys: ['b_max']"),
    ], ids=["flag-kernel-l", "flag-b-max", "config-kernel-l", "config-b-max"])
    def test_removed_kernel_bound_knobs_are_unknown(self, capsys, dataset_file, tmp_path,
                                                    flags, config, message):
        argv = []
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv = ["--config", str(tmp_path / "config.json")]
        out = tmp_path / "k.json"
        code, _, err = run(capsys, "train", "--data", str(dataset_file),
                           "--metric", "euclidean:0.8", "--learner", "kernel",
                           "--kernel-b", "10", *flags, *argv, "--alpha", "0.2", "--gamma", "0.3",
                           "--seed", "1", "--predictor-out", str(out))
        assert code == 1
        assert err == f"usage error: {message}\n"
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


    def test_hardness_metric_breaks_the_triangle_at_small_n(self, capsys, tmp_path):
        """Rows 12 and 25 share a side and a sign pattern, so both are at
        distance 0 from row 13 and at distance 1 from each other."""
        data, handle = tmp_path / "hard.csv", tmp_path / "handle.json"
        code, _, _ = run(capsys, "gen-data", "--generator", "hardness-pairs", "--n", "8",
                         "--m", "40", "--seed", "2", "--out", str(data),
                         "--handle-out", str(handle))
        assert code == 0
        code, out, _ = run(capsys, "validate-metric", "--data", str(data),
                           "--metric", f"hardness:{handle}", "--triples", "2000",
                           "--seed", "2", "--no-timestamp")
        assert code == 2
        results = json.loads(out)["results"]
        assert results["triangle_violations"] == [[25, 12, 13, 1.0, 0.0, 0.0]]
        assert results["n_symmetry_violations"] == results["n_range_violations"] == 0


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

    def test_learner_flag_is_an_unknown_argument(self, capsys, tmp_path):
        out = tmp_path / "hardness.json"
        code, stdout, err = run(capsys, "hardness-demo", "--n", "8", "--pairs", "20",
                                "--seed", "4", "--learner", "linear", "--out", str(out))
        assert code == 1
        assert err == "usage error: unrecognized arguments: --learner linear\n"
        assert stdout == ""
        assert not out.exists()

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

    def test_report_records_the_trainer_its_flags_resolve(self, capsys, tmp_path):
        code, out, _ = run(capsys, "hardness-demo", "--n", "8", "--pairs", "20",
                           "--mode", "v", "--seed", "4", "--alpha", "0.1", "--gamma", "0.2",
                           "--max-iters", "7", "--no-timestamp")
        assert code == 0
        trainer = json.loads(out)["params"]["trainer"]
        assert trainer == {"alpha": 0.1, "gamma": 0.2, "eps": 0.1, "eps_alpha": 0.1,
                           "eps_gamma": 0.1, "delta": 0.05, "theory_mode": "empirical",
                           "learner": "kernel", "kernel_b": 1e4,
                           "max_iters": 7, "step_c0": 0.5, "feas_tol": 1e-6}


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


def _matrix_metric_files(tmp_path, matrix_text, index_text="0\n1\n2\n"):
    """A six-row dataset, whose rows 0 and 3 have identical features, and rows
    4 and 5 too (0.0 and -0.0), and the metric files of `matrix:<path>`."""
    data = tmp_path / "data.csv"
    data.write_text("x1,x2,y\n0.1,0.2,1\n0.3,-0.1,-1\n-0.2,0.4,1\n0.1,0.2,-1\n"
                    "0.0,0.1,1\n-0.0,0.1,-1\n")
    metric = tmp_path / "metric.csv"
    metric.write_text(matrix_text)
    Path(f"{metric}.idx").write_text(index_text)
    return data, metric


class TestMatrixMetricFiles:
    """A matrix metric's entries are distances: an entry outside [0, 1], a
    non-numeric entry, a bad index or two rows of one point that disagree
    exits 2 naming the file, instead of training or auditing on it."""

    @pytest.mark.parametrize("entry, shown", [("-0.5", "-0.5"), ("nan", "nan"),
                                              ("1.5", "1.5"), ("inf", "inf")])
    @pytest.mark.parametrize("command", ["train", "audit"])
    def test_entry_outside_the_unit_interval_exits_two(self, capsys, tmp_path, entry, shown,
                                                        command):
        data, metric = _matrix_metric_files(
            tmp_path, f"0,0.2,0.3\n0.2,0,{entry}\n0.3,0.4,0\n")
        out = tmp_path / "out.json"
        if command == "train":
            argv = ["train", "--alpha", "0.2", "--gamma", "0.3",
                    "--predictor-out", str(tmp_path / "p.json")]
        else:
            predictor = tmp_path / "constant.json"
            save_predictor_json(ConstantPredictor(0.5), predictor)
            argv = ["audit", "--gamma", "0.3", "--predictor", str(predictor)]
        code, stdout, err = run(capsys, *argv, "--data", str(data), "--metric", f"matrix:{metric}",
                                "--seed", "1", "--out", str(out))
        assert code == 2
        assert err == (f"error: metric file {metric}: metric matrix entry (1, 2) must be "
                       f"in [0, 1], got {shown}\n")
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("matrix_text, index_text, message", [
        ("0,0.2,0.3\n0.2,abc,0.4\n0.3,0.4,0\n", "0\n1\n2\n",
         "metric file {metric}, line 2: could not convert string to float: 'abc'"),
        ("0,0.2,0.3\n0.2,0\n0.3,0.4,0\n", "0\n1\n2\n",
         "metric file {metric}, line 2: row has 2 fields, expected 3"),
        ("0,0.2,0.3\n0.2,0,0.4\n0.3,0.4,0\n", "0\nx\n2\n",
         "metric index file {metric}.idx, line 2: invalid literal for int() with base 10: 'x'"),
        ("0,0.2,0.3\n0.2,0,0.4\n0.3,0.4,0\n", "0\n1\n7\n",
         "metric file {metric}: index map entry 7 out of range"),
        ("0,0.2,0.3\n0.2,0,0.4\n0.3,0.4,0\n", "0\n0\n2\n",
         "metric file {metric}: index map entry 0 appears more than once"),
        ("0,0.2,0.3\n0.2,0,0.4\n0.3,0.4,0\n", "0\n1\n3\n",
         "metric file {metric}: index map entries 0 and 3 have identical features but "
         "different matrix rows or columns"),
        ("0,0.2,0.3\n0.2,0,0.4\n0.3,0.4,0\n", "2\n4\n5\n",
         "metric file {metric}: index map entries 4 and 5 have identical features but "
         "different matrix rows or columns"),
        # a line's number is its number in the file, leading blank lines included
        ("\n0,0.5,0.5\n0.5,0,abc\n0.5,0.5,0\n", "0\n1\n2\n",
         "metric file {metric}, line 3: could not convert string to float: 'abc'"),
        ("0,0.2,0.3\n0.2,0,0.4\n0.3,0.4,0\n", "\n\n0\n1\nx\n",
         "metric index file {metric}.idx, line 5: invalid literal for int() with base 10: 'x'"),
    ])
    def test_malformed_metric_file_exits_two_naming_file_and_line(
            self, capsys, tmp_path, matrix_text, index_text, message):
        data, metric = _matrix_metric_files(tmp_path, matrix_text, index_text)
        out = tmp_path / "validate.json"
        code, stdout, err = run(capsys, "validate-metric", "--data", str(data),
                                "--metric", f"matrix:{metric}", "--triples", "10",
                                "--seed", "1", "--out", str(out))
        assert code == 2
        assert err == f"error: {message.format(metric=metric)}\n"
        assert stdout == "" and not out.exists()


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
