"""One-pair-at-a-time reference implementations of the batched paths.

These are the scalar forms the library computed before its metric callers
and its predictors worked over batches, the eigendecomposition form of the
PSD check, and the kernel learner's solver closures as they were before its
subgradient products were memoised, and as they were while its caches were
looked up by the bytes of each vector. The property tests require the library
code to return what these return: exactly, except where a batched matrix
product may round the last bits differently (the linear, logistic and kernel
predictions).

The data generators are kept here too: `unit_ball_points` as it normalised
through np.linalg.norm, and the separable generator and the hardness sampler
as they drew and shaped one row per iteration. The library's outputs must
match theirs bit for bit.

The CSV loaders are kept as they parsed a whole file through one list of
lines and one joined and split list of cells (`load_dataset_csv` and
`load_matrix_metric`): the library's loaders must return the same arrays
bit for bit, or raise the same error.

The audit's all-pairs profile is kept as it evaluated one block at a time
(`blocked_per_individual_rates`): each block read from the whole
`pairwise_matrix`, except for ScaledEuclideanMetric itself, whose blocks are
the Gram form of `gram_block_oracle`. The profile must return the same rates
bit for bit.
"""

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np

from metricfair import Consecutive, SignUndefinedError, ValidationError, core, sigmoid_transfer
from metricfair.audit import _check_gamma, _predictions
from metricfair.core import NORM_TOLERANCE, LabeledDataset, MatrixMetric, ScaledEuclideanMetric


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


def check_psd_by_cholesky(gram, rel_tolerance=1e-8) -> None:
    """`check_psd` in its plain form: finiteness, `np.allclose` symmetry, then
    `np.linalg.cholesky` on a copy, and the eigenvalue rule above when that
    breaks down."""
    gram = np.asarray(gram, dtype=np.float64)
    if not np.all(np.isfinite(gram)):
        raise ValidationError("gram matrix has non-finite entries")
    if not np.allclose(gram, gram.T, atol=1e-10):
        raise ValidationError("gram matrix is not symmetric")
    try:
        np.linalg.cholesky(gram.copy())
    except np.linalg.LinAlgError:
        check_psd(gram, rel_tolerance)


def kernel_closures(K, y01, left, right, dists, budget, b_used, products=None):
    """The kernel learner's (objective, constraint, project), computing every
    product K @ v afresh. `products`, when given, collects ("signs", v) and
    ("z", v) with v as bytes for each subgradient product."""
    m = len(y01)
    n_edges = len(left)
    raw_cache = {}

    def raw_of(beta):
        key = beta.tobytes()
        out = raw_cache.get(key)
        if out is None:
            out = K @ beta
            raw_cache.clear()
            raw_cache[key] = out
        return out

    def objective(beta):
        residual = raw_of(beta) - y01
        signs = np.sign(residual)
        if products is not None:
            products.append(("signs", signs.tobytes()))
        return float(np.mean(np.abs(residual))), (K @ signs) / m

    def constraint(beta):
        raw = raw_of(beta)
        gaps = raw[left] - raw[right]
        excess = np.abs(gaps) - dists
        active = excess > 0
        value = float(np.sum(excess[active])) / n_edges - budget

        def subgradient():
            coef = np.where(active, np.sign(gaps), 0.0) / n_edges
            z = np.zeros(m)
            np.add.at(z, left, coef)
            np.add.at(z, right, -coef)
            if products is not None:
                products.append(("z", z.tobytes()))
            return K @ z

        return value, subgradient

    def project(w, step, direction):
        beta = w - step * direction
        raw = raw_of(beta)
        q = float(beta @ raw)
        if q <= b_used or q <= 0:
            return beta
        scale = math.sqrt(b_used / q)
        scaled = beta * scale
        raw_cache.clear()
        raw_cache[scaled.tobytes()] = raw * scale
        return scaled

    return objective, constraint, project


def bytes_memoised_kernel_closures(K, y01, left, right, dists, budget, b_used,
                                   memo_size=8):
    """The kernel learner's (objective, constraint, project) as they were
    before its caches were held by identity and keyed by sign pattern: the
    raw scores K beta and a memo of the `memo_size` most recently used
    products K v, both looked up by the bytes of beta or v."""
    m = len(y01)
    n_edges = len(left)
    raw_cache: dict[bytes, np.ndarray] = {}

    def raw_of(beta: np.ndarray) -> np.ndarray:
        key = beta.tobytes()
        out = raw_cache.get(key)
        if out is None:
            out = K @ beta
            raw_cache.clear()
            raw_cache[key] = out
        return out

    products: dict[bytes, np.ndarray] = {}

    def K_times(v: np.ndarray) -> np.ndarray:
        key = v.tobytes()
        out = products.pop(key, None)
        if out is None:
            out = K @ v
            out.flags.writeable = False
            if len(products) == memo_size:
                del products[next(iter(products))]
        products[key] = out
        return out

    def objective(beta):
        residual = raw_of(beta) - y01
        signs = np.sign(residual)
        return float(np.mean(np.abs(residual))), K_times(signs) / m

    def constraint(beta):
        raw = raw_of(beta)
        gaps = raw[left] - raw[right]
        excess = np.abs(gaps) - dists
        active = excess > 0
        value = float(np.sum(excess[active])) / n_edges - budget

        def subgradient():
            coef = np.where(active, np.sign(gaps), 0.0) / n_edges
            z = np.zeros(m)
            np.add.at(z, left, coef)
            np.add.at(z, right, -coef)
            return K_times(z)

        return value, subgradient

    def project(w, step, direction):
        raw = raw_of(w)
        beta = w
        if step:
            beta = w - step * direction
            raw = raw - step * K_times(direction)
        q = float(beta @ raw)
        if q > b_used:
            scale = math.sqrt(b_used / q)
            beta, raw = beta * scale, raw * scale
        raw_cache.clear()
        raw_cache[beta.tobytes()] = raw
        return beta

    return objective, constraint, project


def averaged_fair_paired_error(h, paired, distance) -> float:
    values = h.predict_batch(paired.dataset.features)
    targets = paired.dataset.targets01
    X = paired.dataset.features
    total = 0.0
    for i, j in zip(paired.matching.left.tolist(), paired.matching.right.tolist()):
        vi, vj = values[i], values[j]
        if distance(X[i], X[j]) == 0.0:
            vi = vj = 0.5 * (values[i] + values[j])
        total += abs(vi - targets[i]) + abs(vj - targets[j])
    return total / (2.0 * paired.k)


def audit_pairs(paired, rng, n_audit):
    X = paired.dataset.features
    pairs = [(X[i], X[j]) for i, j in zip(paired.matching.left[:n_audit],
                                          paired.matching.right[:n_audit])]
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


# --- matchings and the population sample -----------------------------------


def check_matching(pairs, m) -> None:
    """`Matching`'s validation as it was: a loop over the (i, j) pairs."""
    seen: set[int] = set()
    for i, j in pairs:
        for k in (i, j):
            if not 0 <= k < m:
                raise ValidationError(f"matching index {k} out of range for m={m}")
            if k in seen:
                raise ValidationError(f"matching index {k} appears more than once")
            seen.add(k)


def matching_pairs(m, strategy) -> tuple:
    """The (i, j) pairs of `build_matching` over m points, one pair at a time."""
    if isinstance(strategy, Consecutive):
        order = np.arange(m)
    else:
        order = np.random.default_rng(strategy.seed).permutation(m)
    return tuple((int(order[2 * t]), int(order[2 * t + 1])) for t in range(m // 2))


def population_mf_estimate(h, S, d, gamma, n_pairs, seed) -> float:
    """The population estimate with rows drawn as a dataset sampler drew
    them: `count` uniform row indices per call, one call per side."""
    rng = np.random.default_rng(seed)

    def sample(count):
        return S.features[rng.integers(0, len(S), size=count)]

    xs = sample(n_pairs)
    ys = sample(n_pairs)
    gaps = np.abs(h.predict_batch(xs) - h.predict_batch(ys))
    return float(np.mean(gaps > d.pair_distances(xs, ys) + gamma))


def per_individual_rates(predict, distance, xs, gamma) -> np.ndarray:
    """Each row's violation rate over all m rows, itself included: the pair
    (i, j) is charged when |h_i - h_j| > d + gamma, with d = 0 for i = j and
    d = distance(xs[min(i, j)], xs[max(i, j)]) otherwise."""
    m = len(xs)
    values = [predict(x) for x in xs]
    rates = np.empty(m)
    for i in range(m):
        count = 0
        for j in range(m):
            dist = 0.0 if i == j else distance(xs[min(i, j)], xs[max(i, j)])
            count += abs(values[i] - values[j]) > dist + gamma
        rates[i] = count / m
    return rates


def gram_block_oracle(scale, xs, rows, cols, where):
    """ScaledEuclideanMetric's Gram-form block as one expression:
    min(1, scale * sqrt(max(|l|^2 + |r|^2 - 2 l.r, 0))) over the whole block,
    then 0 wherever an entry was not asked for."""
    left, right = xs[rows], xs[cols]
    d2 = np.maximum(np.sum(left * left, axis=1)[:, None] + np.sum(right * right, axis=1)[None, :]
                    - 2.0 * (left @ right.T), 0.0)
    out = np.minimum(1.0, scale * np.sqrt(d2))
    asked = rows[:, None] != cols[None, :]
    if where is not None:
        asked &= where
    out[~asked] = 0.0
    return out


def blocked_per_individual_rates(h, S, d, gamma, *, values=None) -> np.ndarray:
    """The profile's rates as the audit computes them a block at a time: with
    `gram_block_oracle` when d is a ScaledEuclideanMetric and not a subclass
    of it, and otherwise with the entries of one `d.pairwise_matrix` of the
    whole sample where the block's gap exceeds gamma, and +0 elsewhere.

    For each x in S, the fraction of x' in S (self included) violating the
    fairness condition at slack gamma.

    The rows are ranked by prediction, so the rows whose gap to a row
    exceeds gamma are a suffix of the ranking after it and a prefix before
    it. Each unordered pair is evaluated once, from its earlier-ranked row,
    and only when its gap exceeds gamma; a violation counts for both rows.
    The ranking is walked in blocks of rows of about core._PAIR_BLOCK
    entries, so memory grows with m, not m^2.
    """
    _check_gamma(gamma)
    values = _predictions(h, S, values)
    m = len(S)
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    counts = np.zeros(m, dtype=np.intp)
    full = None if type(d) is ScaledEuclideanMetric else d.pairwise_matrix(S.features)
    rows = max(1, core._PAIR_BLOCK // m)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        # the first rank whose gap to the block's first row exceeds gamma;
        # for the later rows of the block that rank comes no earlier
        first = start + 1 + int(np.count_nonzero(ranked[start + 1:] - ranked[start] <= gamma))
        gaps = ranked[None, first:] - ranked[start:stop, None]
        near = gaps > gamma
        if not near.any():
            continue
        if full is None:
            dists = gram_block_oracle(d.scale, S.features, order[start:stop], order[first:], near)
        else:
            dists = np.where(near, full[np.ix_(order[start:stop], order[first:])], 0.0)
        violated = gaps > dists + gamma
        counts[order[start:stop]] += np.count_nonzero(violated, axis=1)
        counts[order[first:]] += np.count_nonzero(violated, axis=0)
    return counts / m


# --- predictors, one point at a time ----------------------------------------


def linear_predict(h, x) -> float:
    return 0.5 * (1.0 + float(np.dot(h.weights, x)))


def logistic_predict(h, x) -> float:
    return float(sigmoid_transfer(np.dot(h.weights, x), h.lipschitz))


def vovk_kernel(x, y) -> float:
    return 1.0 / (1.0 - 0.5 * float(np.dot(x, y)))


def kernel_raw(h, x) -> float:
    k = np.array([vovk_kernel(s, x) for s in h.support])
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


# --- the generators, one row per iteration -----------------------------------


def unit_ball_points(rng, count, dimension):
    g = rng.standard_normal((count, dimension))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    radii = rng.random(count) ** (1.0 / dimension)
    return g * radii[:, None]


def separable_dataset(n, m, seed, margin, noise_rate):
    """The separable generator's (features, labels, w_star, noise_mask)."""
    rng = np.random.default_rng(seed)
    w_star = rng.standard_normal(n)
    w_star /= max(float(np.linalg.norm(w_star)), 1e-300)
    X = np.empty((m, n))
    labels = np.empty(m, dtype=np.int64)
    for i in range(m):
        # orthogonal part in the ball of radius sqrt(1 - margin^2), then a
        # separating component of magnitude >= margin along w_star
        ortho = unit_ball_points(rng, 1, n)[0]
        ortho -= np.dot(ortho, w_star) * w_star
        cap = np.sqrt(max(1.0 - margin**2, 0.0))
        onorm = float(np.linalg.norm(ortho))
        if onorm > cap:
            ortho *= cap / onorm
        t_max = np.sqrt(max(1.0 - float(np.dot(ortho, ortho)), margin**2))
        t = rng.uniform(margin, t_max)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        X[i] = ortho + sign * t * w_star
        labels[i] = int(sign)
    noise_mask = rng.random(m) < noise_rate
    labels[noise_mask] *= -1
    return X, labels, w_star, noise_mask


def hardness_sample(n, k_pairs, mode, seed):
    """The hardness sampler's (rows, labels, y, seed_bits or None)."""
    rng = np.random.default_rng(seed)
    if mode == "U":
        seed_bits = rng.integers(0, 2, size=n - 1).astype(np.uint8)
        y = expand_seed(seed_bits)
    else:
        seed_bits = None
        y = rng.integers(0, 2, size=2 * n).astype(np.uint8)
    head_radius = math.sqrt(3.0) / 2.0
    rows = np.empty((2 * k_pairs, n))
    labels = np.empty(2 * k_pairs, dtype=np.int64)
    for t in range(k_pairs):
        head = rng.standard_normal(n - 1)
        head /= max(float(np.linalg.norm(head)), 1e-300)
        head *= head_radius * rng.random() ** (1.0 / (n - 1))
        head[head == 0.0] = 1e-12
        last = 0.5 if rng.random() < 0.5 else -0.5
        x = np.concatenate([head, [last]])
        flips = seed_bits if mode == "U" else rng.integers(0, 2, size=n - 1).astype(np.uint8)
        counterpart = x.copy()
        counterpart[: n - 1] *= 1.0 - 2.0 * flips
        counterpart[-1] = -last
        rows[2 * t] = x
        rows[2 * t + 1] = counterpart
        labels[2 * t] = 1 if last > 0 else -1
        labels[2 * t + 1] = -labels[2 * t]
    return rows, labels, y, seed_bits


def jsonable(value):
    """`value` under serde._dump's rules, for json.dumps(..., indent=2,
    sort_keys=True) to write as _dump does: str keys, lists for tuples and
    arrays, records as dicts of their fields, Python numbers, NaN as None and
    +-inf as "inf"/"-inf"."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer)):
        return jsonable(value.item())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def load_dataset_csv(path) -> LabeledDataset:
    """Errors name the file and, for the first malformed row, the first row
    with a label other than -1 or +1 or the first row outside the unit ball,
    its 1-based line number."""
    lines = Path(path).read_text().rstrip().splitlines()
    if not lines:
        raise ValidationError(f"dataset file {path} is empty")
    header = lines[0].split(",")
    if header[-1] != "y" or len(header) < 2:
        raise ValidationError(
            f"dataset file {path}, line 1: header must be x1,...,xn,y; got {lines[0]!r}")
    if len(lines) == 1:
        raise ValidationError(f"dataset file {path} has no rows")
    table = _float_table(lines[1:], len(header), f"dataset file {path}", first=2)
    features, labels = table[:, :-1], table[:, -1]
    norms = np.linalg.norm(features, axis=1)
    bad_label = ~np.isin(labels, (-1, 1))
    # NaN fails the comparison
    outside = ~(norms <= 1.0 + NORM_TOLERANCE)
    bad = np.flatnonzero(bad_label | outside)
    if bad.size:
        k = int(bad[0])
        if bad_label[k]:
            reason = f"label must be -1 or +1, got {float(labels[k])!r}"
        elif not np.all(np.isfinite(features[k])):
            reason = "features must be finite"
        else:
            reason = f"row norm {norms[k]:.12g} exceeds the unit ball"
        raise ValidationError(f"dataset file {path}, line {k + 2}: {reason}")
    return LabeledDataset(features, labels)


def _float_table(lines, width: int, what: str, first: int) -> np.ndarray:
    """The lines as a (len(lines), width) float array, parsed by one numpy
    call when every line has `width` fields; numpy converts each cell as
    float() does. Otherwise, or if a cell is not a number, _float_rows
    parses the lines one by one and names the first bad one."""
    if all(line.count(",") == width - 1 for line in lines):
        try:
            cells = np.array(",".join(lines).split(","), dtype=np.float64)
        except ValueError:
            pass
        else:
            return cells.reshape(len(lines), width)
    return np.array(_float_rows(lines, width, what, first))


def _float_rows(lines, width: int, what: str, first: int) -> list[list[float]]:
    """Each line as `width` comma-separated floats; an error names `what`
    and the 1-based number of the line, the first of which is `first`."""
    rows = []
    for number, line in enumerate(lines, start=first):
        parts = line.split(",")
        try:
            if len(parts) != width:
                raise ValueError(f"row has {len(parts)} fields, expected {width}")
            rows.append([float(v) for v in parts])
        except ValueError as exc:
            raise ValidationError(f"{what}, line {number}: {exc}") from None
    return rows


def _stripped_lines(path) -> tuple[list[str], int]:
    """The lines of the file stripped at both ends, and the 1-based number of
    the first of them: the file's first line that is not all whitespace."""
    text = Path(path).read_text()
    blank = [not line.strip() for line in text.splitlines()]
    return text.strip().splitlines(), 1 + (blank.index(False) if False in blank else 0)


def load_matrix_metric(path, dataset: LabeledDataset) -> MatrixMetric:
    """Errors name the file and, for a malformed line, its 1-based number."""
    lines, first = _stripped_lines(path)
    matrix = _float_table(lines, len(lines), f"metric file {path}", first)
    idx_path = Path(str(path) + ".idx")
    if not idx_path.exists():
        raise ValidationError(f"missing metric index file {idx_path}")
    index_map = []
    lines, first = _stripped_lines(idx_path)
    for number, line in enumerate(lines, start=first):
        try:
            index_map.append(int(line))
        except ValueError as exc:
            raise ValidationError(f"metric index file {idx_path}, line {number}: {exc}") from None
    try:
        return MatrixMetric(matrix, dataset.features, index_map)
    except ValidationError as exc:
        raise ValidationError(f"metric file {path}: {exc}") from None
