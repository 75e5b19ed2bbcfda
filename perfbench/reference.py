"""Fixed reference loops, one per workload, that time the host rather than
the program.

The benchmark runs on a shared host whose speed drifts by tens of percent
over minutes, so two runs of the same code give different wall times. Each
untraced command is therefore bracketed by passes of the workload's
reference loop, and ``pipeline_rel`` divides the run's median pipeline time
by the median time of those passes. The loops use only numpy and hashlib, never
metricfair, so a change to the program moves the numerator alone. Each loop
does the same kind of work as its workload, because host contention slows
kinds of work unequally: dispatch-bound small array operations, memory-bound
dense m x m passes, two-thread BLAS matvecs and LAPACK, or per-pair hashing.
Arrays are made inside the loop and freed before it returns, so the loops
add nothing to the peak RSS of a workload whose own arrays are larger.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np


def _linear_audit() -> None:
    # the linear solver's O(m n) steps, then one dense m x m profile pass
    m, n = 4001, 10
    X = np.linspace(-1.0, 1.0, m * n).reshape(m, n)
    w = np.full(n, 0.1)
    for _ in range(900):
        z = X @ w
        w = w - 1e-3 * (X.T @ np.maximum(z, 0.0)) / m
    x = X[:, 0]
    gaps = np.abs(x[:, None] - x[None, :])
    int(np.count_nonzero(gaps <= 0.3))


def _kernel_train() -> None:
    # Gram-sized matvecs and a symmetric eigenvalue solve
    m = 2001
    K = np.full((m, m), 0.5)
    K[np.diag_indices(m)] = 1.0
    v = np.linspace(-1.0, 1.0, m)
    for _ in range(150):
        v = K @ v
        v /= np.abs(v).max()
    s = np.linspace(0.0, 1.0, 500)
    np.linalg.eigvalsh(np.add.outer(s, s) + np.eye(500))


def _hardness() -> None:
    # the demo's kernel solver on a 1000-point Gram matrix, then per-pair
    # sign bits, bit packing and a SHAKE-128 expansion, in about the 2:1
    # time split of hardness-demo and validate-metric
    m = 1000
    K = np.full((m, m), 0.5)
    K[np.diag_indices(m)] = 1.0
    v = np.linspace(-1.0, 1.0, m)
    left, right = np.arange(0, m, 2), np.arange(1, m, 2)
    for _ in range(200):
        raw = K @ v
        gaps = raw[left] - raw[right]
        z = np.zeros(m)
        np.add.at(z, left, np.sign(gaps) / m)
        v = v - K @ z
    points = np.linspace(-1.0, 1.0, 64 * 32).reshape(64, 32) + 1e-3
    target = np.zeros(64, dtype=np.uint8)
    for i in range(2600):
        x, y = points[i % 64], points[(i + 7) % 64]
        if np.any(x == 0.0) or np.array_equal(x, y):
            continue
        delta = (x < 0).astype(np.uint8) ^ (y < 0).astype(np.uint8)
        payload = len(delta).to_bytes(4, "big") + np.packbits(delta).tobytes()
        digest = hashlib.shake_128(payload).digest(8)
        np.array_equal(np.unpackbits(np.frombuffer(digest, dtype=np.uint8)), target)


REFERENCES = {
    "linear-audit": _linear_audit,
    "kernel-train": _kernel_train,
    "hardness": _hardness,
}


def time_reference(workload: str) -> float:
    """Seconds one pass of the workload's reference loop takes now."""
    loop = REFERENCES[workload]
    start = perf_counter()
    loop()
    return perf_counter() - start
