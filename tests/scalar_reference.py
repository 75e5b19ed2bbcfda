"""One-pair-at-a-time reference implementations of the batched paths.

These are the scalar forms the library computed before its metric callers
and its predictors worked over batches, and the eigendecomposition form of
the PSD check. The property tests require the library code to return what
these return: exactly, except where a batched matrix product may round the
last bits differently (the linear, logistic and kernel predictions).
"""

import hashlib

import numpy as np

from metricfair import SignUndefinedError, ValidationError, sigmoid_transfer


def expand_seed(seed_bits) -> np.ndarray:
    s = np.asarray(seed_bits, dtype=np.uint8)
    n = s.shape[0] + 1
    out_bits = 2 * n
    payload = len(s).to_bytes(4, "big") + np.packbits(s).tobytes()
    digest = hashlib.shake_128(payload).digest((out_bits + 7) // 8)
    return np.unpackbits(np.frombuffer(digest, dtype=np.uint8))[:out_bits].copy()


def _sign_bits(x: np.ndarray) -> np.ndarray:
    if np.any(x == 0.0):
        raise SignUndefinedError("sign undefined: zero coordinate")
    return (x < 0).astype(np.uint8)


def hardness_distance(handle, x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = handle.n
    if x.shape[-1] != n or y.shape[-1] != n:
        raise ValidationError(f"hardness metric expects dimension {n}")
    if np.array_equal(x, y):
        return 0.0
    sx = _sign_bits(x)
    sy = _sign_bits(y)
    if sx[-1] == sy[-1]:
        return 1.0
    delta = sx[: n - 1] ^ sy[: n - 1]
    return 0.0 if np.array_equal(expand_seed(delta), handle.y) else 1.0


def pairwise_matrix(distance, xs) -> np.ndarray:
    m = xs.shape[0]
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = distance(xs[i], xs[j])
    return out


def validate_metric(distance, dataset, n_triples, seed, tolerance=1e-12):
    """The violation tuples of `validate_metric`, from a scalar distance."""
    rng = np.random.default_rng(seed)
    m = len(dataset)
    X = dataset.features
    idx = rng.integers(0, m, size=(n_triples, 3))
    symmetry = []
    rng_viol = []
    triangle = []
    cache: dict[tuple[int, int], float] = {}

    def d(i: int, j: int) -> float:
        if i == j:
            return distance(X[i], X[j])
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            cache[key] = distance(X[key[0]], X[key[1]])
        return cache[key]

    for a, b, c in idx:
        a, b, c = int(a), int(b), int(c)
        dab = d(a, b)
        dac = d(a, c)
        dcb = d(c, b)
        daa = d(a, a)
        forward = distance(X[a], X[b])
        backward = distance(X[b], X[a])
        if abs(forward - backward) > tolerance:
            symmetry.append((a, b, forward, backward))
        for val in (dab, dac, dcb):
            if not -tolerance <= val <= 1.0 + tolerance:
                rng_viol.append((a, b, c, val))
                break
        if abs(daa) > tolerance:
            rng_viol.append((a, a, a, daa))
        if dab > dac + dcb + tolerance:
            triangle.append((a, b, c, dab, dac, dcb))
    return tuple(symmetry), tuple(rng_viol), tuple(triangle)


def check_psd(gram, rel_tolerance=1e-8) -> None:
    """`check_psd` as a full eigendecomposition: symmetry, then the smallest
    eigenvalue against -rel_tolerance times the largest."""
    gram = np.asarray(gram, dtype=np.float64)
    if not np.allclose(gram, gram.T, atol=1e-10):
        raise ValidationError("gram matrix is not symmetric")
    eigs = np.linalg.eigvalsh(gram)
    top = float(max(eigs.max(), 0.0))
    if float(eigs.min()) < -rel_tolerance * max(top, 1e-300):
        raise ValidationError(
            f"gram matrix is not positive semidefinite (min eig {eigs.min():.3e})"
        )


def averaged_fair_paired_error(h, paired, distance) -> float:
    values = h.predict_batch(paired.dataset.features)
    targets = paired.dataset.targets01
    X = paired.dataset.features
    total = 0.0
    for i, j in paired.pairs:
        vi, vj = values[i], values[j]
        if distance(X[i], X[j]) == 0.0:
            vi = vj = 0.5 * (values[i] + values[j])
        total += abs(vi - targets[i]) + abs(vj - targets[j])
    return total / (2.0 * paired.k)


def audit_pairs(paired, rng, n_audit):
    X = paired.dataset.features
    pairs = [(X[i], X[j]) for i, j in paired.pairs[:n_audit]]
    m = len(paired.dataset)
    while len(pairs) < n_audit:
        i, j = rng.integers(0, m, size=2)
        if i != j:
            pairs.append((X[int(i)], X[int(j)]))
    return pairs


def is_perfectly_fair(h, pairs, distance, tolerance=0.0):
    violations = []
    for x, y in pairs:
        gap = abs(h.predict(x) - h.predict(y))
        dist = distance(x, y)
        if gap > dist + tolerance:
            violations.append((x, y, gap, dist))
    return (len(violations) == 0), violations


# --- predictors, one point at a time ----------------------------------------


def linear_predict(h, x) -> float:
    return 0.5 * (1.0 + float(np.dot(h.weights, x)))


def logistic_predict(h, x) -> float:
    return float(sigmoid_transfer(np.dot(h.weights, x), h.lipschitz))


#: K(x, y) of each serializable kernel, by kernel name
KERNEL_VALUES = {
    "vovk-half": lambda x, y: 1.0 / (1.0 - 0.5 * float(np.dot(x, y))),
    "linear-dot": lambda x, y: float(np.dot(x, y)),
}


def kernel_raw(h, x) -> float:
    value = KERNEL_VALUES[h.kernel.name]
    k = np.array([value(s, x) for s in h.support])
    return float(np.dot(h.beta, k))


def kernel_predict(h, x) -> float:
    return float(min(1.0, max(0.0, kernel_raw(h, x))))


def sign_predict(x) -> float:
    return 1.0 if x[-1] > 0 else 0.0


# --- single-pair losses from scalar predictions and distances ----------------


def pair_mf_loss(predict, distance, x, y, gamma) -> int:
    gap = abs(predict(x) - predict(y))
    return int(gap > distance(x, y) + gamma)


def pair_l1_loss(predict, distance, x, y) -> float:
    gap = abs(predict(x) - predict(y))
    return max(0.0, gap - distance(x, y))


def surrogate_loss(predict, distance, x, y, gamma, G) -> float:
    gap = abs(predict(x) - predict(y))
    return float(np.clip(G * (gap - distance(x, y) - gamma), 0.0, 1.0))
