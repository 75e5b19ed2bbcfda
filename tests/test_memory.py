"""The audit runs in memory bounded by its block size, not by m^2 or n_pairs.

`ru_maxrss` is the lifetime peak of a process, and the test process has
already peaked elsewhere, so the audit runs in a fresh interpreter that
reports its own peak.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: peak RSS allowed to the child process. At the sizes below the blocked
#: audit peaks at about 75 MB, interpreter and numpy included; one dense
#: m x m float array takes 288 MB, and the dense audit peaked at 1.1 GB.
BUDGET_MB = 200

AUDIT = """
import resource
import numpy as np
import metricfair as mf
from metricfair.core import unit_ball_points

m, n = 6000, 10
rng = np.random.default_rng(1)
S = mf.LabeledDataset(unit_ball_points(rng, m, n), np.ones(m))
h = mf.LinearPredictor(np.full(n, 0.3))
mf.audit_predictor(h, S, mf.default_matching(S, 1), mf.ScaledEuclideanMetric(0.8), 0.3,
                   population_pairs=1_000_000, seed=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_audit_peak_rss_stays_within_budget():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", AUDIT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split()[-1]) / 1024.0  # ru_maxrss is in KiB on Linux
    assert peak_mb < BUDGET_MB
