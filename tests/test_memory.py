"""The audit runs in memory bounded by its block size, not by m^2 or n_pairs,
kernel training and its audit in one m x m array, the PSD certificate in
scratch that does not grow with m, a dataset CSV loads in about the array
its parse takes, the hardness demo's perfect-fairness audit in memory that does not
grow with its pairs, and the all-pairs profile in one copy of the rows and a
block.

The test process has already peaked elsewhere, so each case runs in a fresh
interpreter that reports its own peak: VmHWM, the high-water mark of its
resident set. Its `ru_maxrss` would not do: on Linux it also counts the
address space the child had before exec, which is the test process's.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metricfair import LabeledDataset
from metricfair.core import unit_ball_points
from metricfair.serde import save_dataset_csv

SRC = Path(__file__).resolve().parents[1] / "src"

#: peak RSS allowed to the child process. At the sizes below the blocked
#: audit peaks at about 42 MB, interpreter and numpy included; one dense
#: m x m float array takes 288 MB, and the dense audit peaked at 1.1 GB.
BUDGET_MB = 200

#: run with the population estimate's n_pairs as its argument
AUDIT = """
import sys
import numpy as np
import metricfair as mf
from metricfair.core import unit_ball_points

m, n = 6000, 10
rng = np.random.default_rng(1)
S = mf.LabeledDataset(unit_ball_points(rng, m, n), np.ones(m))
h = mf.LinearPredictor(np.full(n, 0.3))
mf.audit_predictor(h, S, mf.default_matching(S, 1), mf.ScaledEuclideanMetric(0.8), 0.3,
                   population_pairs=int(sys.argv[1]), seed=1)
"""


#: peak RSS allowed to kernel train+audit at m = 3,000: one m x m float64
#: array (72 MB) and the interpreter with numpy and the data (about 40 MB),
#: with room for panel temporaries. It peaked at 260 MB when the gram build,
#: the PSD certificate and the ridge warm start each held three m x m arrays,
#: and at 194 MB with two, and at about 121 MB when the certificate factored
#: the one array in place with panel-by-m temporaries. It peaks at about
#: 111 MB now: the certificate's temporaries are panel-sized, and the ridge
#: warm start's conjugate gradients hold m-vectors only.
KERNEL_BUDGET_MB = 150

KERNEL = """
import sys
from metricfair.cli import run_cli

work = sys.argv[1]
for argv in (
    ["gen-data", "--generator", "unit-ball", "--n", "10", "--m", "3000", "--seed", "1",
     "--out", f"{work}/data.csv"],
    ["train", "--learner", "kernel", "--kernel-b", "100", "--data", f"{work}/data.csv",
     "--metric", "euclidean:0.8", "--alpha", "0.2", "--gamma", "0.3", "--max-iters", "5",
     "--seed", "1", "--predictor-out", f"{work}/predictor.json", "--out", f"{work}/train.json"],
    ["audit", "--data", f"{work}/data.csv", "--metric", "euclidean:0.8", "--gamma", "0.3",
     "--predictor", f"{work}/predictor.json", "--population-pairs", "10000", "--seed", "1",
     "--out", f"{work}/audit.json"],
):
    assert run_cli(argv) == 0, argv
"""

#: the most the PSD certificate may add to the resident set over the gram it
#: factors in place, at any m. Its temporaries are a panel or a strip of
#: panels: it adds about 2.3 MB at m = 1,500 and 3,000 (with panel-by-m
#: strips it added 7.1 and 14.1 MB)
CERTIFICATE_SCRATCH_MB = 3.0

#: defines status(key): a field of /proc/self/status, in KiB
STATUS = """
def status(key):
    with open("/proc/self/status") as lines:
        return next(int(line.split()[1]) for line in lines if line.startswith(key + ":"))
"""

#: run with m as its argument; prints the certificate's peak RSS over the
#: resident set it was called with, in KiB
CERTIFICATE = STATUS + """
import sys
import numpy as np
from metricfair.core import VovkHalfKernel, check_psd, unit_ball_points

X = unit_ball_points(np.random.default_rng(1), int(sys.argv[1]), 10)
kernel = VovkHalfKernel()
K = kernel.gram(X)
before = status("VmRSS")
assert status("VmHWM") - before < 1024, "the set-up peaked above the resident set"
check_psd(K, rebuild=lambda: kernel.gram(X, out=K))
print(status("VmHWM") - before)
"""

#: the most loading a 100,000 x 10 dataset CSV (21 MB of text, an 8.8 MB
#: array) may add to the resident set: numpy's reader parses it into one
#: array, and the dataset keeps its features in that array's storage, about
#: 10.5 MB in all. The lines, a string per cell and their joined text took
#: 145 MB; taking the features' norms twice over the table and copying them
#: out of it took 19 MB
CSV_LOAD_MB = 40.0

#: the most a dataset CSV's load may add to the resident set, as a multiple
#: of what parsing its table adds: about 1.0 at 100,000 x 10 (10.3-10.5
#: against 10.7-10.8 MB) and 1.23 at 500,000 x 1, where the labels weigh as
#: much as the features; 1.8 and 2.3 while the load took the norms over the
#: table and copied the features out of it
CSV_LOAD_OVER_PARSE = 1.3

#: run with the CSV's path; prints the load's peak RSS over the resident
#: set before it, in KiB
CSV_LOAD = STATUS + """
import sys
from metricfair.serde import load_dataset_csv

before = status("VmRSS")
assert status("VmHWM") - before < 1024, "the set-up peaked above the resident set"
load_dataset_csv(sys.argv[1])
print(status("VmHWM") - before)
"""

#: run with the CSV's path; prints the peak RSS of parsing its table over
#: the resident set before it, in KiB
CSV_PARSE = STATUS + """
import sys
from metricfair.serde import _dataset_table

before = status("VmRSS")
assert status("VmHWM") - before < 1024, "the set-up peaked above the resident set"
_dataset_table(sys.argv[1])
print(status("VmHWM") - before)
"""

#: the most the all-pairs profile may add to the resident set at m = 20,000
#: and n = 10: its rank-ordered copy of the rows (1.6 MB), their squared
#: norms and its row blocks of about core._PAIR_BLOCK entries. It adds about
#: 2.9 MB; gathering each block's rows and norms afresh added 4.8 MB
PROFILE_MB = 6.0

#: prints the profile's peak RSS over the resident set it was called with,
#: in KiB
PROFILE = STATUS + """
import numpy as np
from metricfair import LabeledDataset, LinearPredictor, ScaledEuclideanMetric
from metricfair.audit import group_fairness_profile
from metricfair.core import unit_ball_points

m, n = 20_000, 10
rng = np.random.default_rng(1)
S = LabeledDataset(unit_ball_points(rng, m, n), np.ones(m))
h = LinearPredictor(0.9 * unit_ball_points(rng, 1, n)[0])
values = h.predict_batch(S.features)
before = status("VmRSS")
assert status("VmHWM") - before < 1024, "the set-up peaked above the resident set"
group_fairness_profile(h, S, ScaledEuclideanMetric(0.3), 0.05, (0.1,), values=values)
print(status("VmHWM") - before)
"""

#: run with --audit-pairs and a scratch directory as its arguments: the
#: hardness workload's demo, whose peak is set by its kernel trainings
DEMO = """
import contextlib, os, sys
from metricfair.cli import run_cli

argv = ["hardness-demo", "--n", "32", "--pairs", "500", "--mode", "both",
        "--audit-pairs", sys.argv[1], "--seed", "1", "--out", f"{sys.argv[2]}/demo.json"]
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    assert run_cli(argv) == 0
"""

#: printed by each case at its end: VmHWM in KiB
PEAK = """
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


def _child_mb(code: str, *args: str) -> float:
    """The KiB that `code`, run in a fresh interpreter, prints last, in MB."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024.0


def _peak_mb(code: str, *args: str) -> float:
    """Peak RSS of `code` run in a fresh interpreter."""
    return _child_mb(code + PEAK, *args)


def test_audit_peak_rss_stays_within_budget():
    assert _peak_mb(AUDIT, "1000000") < BUDGET_MB


def test_population_estimate_peak_rss_does_not_grow_with_n_pairs():
    # 4e6 pairs of int64 row indices would take 64 MB whole; drawn a block at
    # a time they take 1 MB
    assert abs(_peak_mb(AUDIT, "4000000") - _peak_mb(AUDIT, "100000")) < 4.0


def test_kernel_train_and_audit_peak_rss_stays_within_one_gram_array(tmp_path):
    assert _peak_mb(KERNEL, str(tmp_path)) < KERNEL_BUDGET_MB


@pytest.mark.parametrize("m", [1500, 3000])
def test_psd_certificate_scratch_does_not_grow_with_m(m):
    assert _child_mb(CERTIFICATE, str(m)) <= CERTIFICATE_SCRATCH_MB


def test_dataset_csv_loads_in_about_twice_its_array(tmp_path):
    m, n = 100_000, 10
    rng = np.random.default_rng(1)
    path = tmp_path / "data.csv"
    save_dataset_csv(LabeledDataset(unit_ball_points(rng, m, n), np.ones(m)), path)
    assert _child_mb(CSV_LOAD, str(path)) <= CSV_LOAD_MB


def test_dataset_csv_load_adds_little_to_its_parse(tmp_path):
    m, n = 100_000, 10
    path = tmp_path / "data.csv"
    save_dataset_csv(LabeledDataset(unit_ball_points(np.random.default_rng(1), m, n),
                                    np.ones(m)), path)
    assert (_child_mb(CSV_LOAD, str(path))
            <= CSV_LOAD_OVER_PARSE * _child_mb(CSV_PARSE, str(path)))


def test_hardness_demo_peak_rss_does_not_grow_with_audit_pairs(tmp_path):
    # drawn and checked a block at a time, 40,000 pairs of 32-float rows
    # take no more than none; whole, they added 28 MB
    assert abs(_peak_mb(DEMO, "40000", str(tmp_path)) - _peak_mb(DEMO, "0", str(tmp_path))) <= 2.0


def test_profile_holds_one_ranked_copy_of_the_rows_and_a_block():
    assert _child_mb(PROFILE) <= PROFILE_MB
