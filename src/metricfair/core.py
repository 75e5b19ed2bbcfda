"""Core domain types for metric-fair learning.

Datasets live in the unit ball with labels in {-1, +1}. Similarity metrics
are bounded pairwise distances d(x, x') in [0, 1]. Predictors are
probabilistic classifiers h: X -> [0, 1], interpreted as the probability of
assigning the label +1. A matching is a disjoint pairing of sample indices
used by the empirical fairness estimators.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

NORM_TOLERANCE = 1e-9
PSD_TOLERANCE = 1e-8


class MetricFairError(Exception):
    """Base error for this package."""


class ValidationError(MetricFairError, ValueError):
    """Inputs violate a domain-type contract."""


class DimensionMismatchError(ValidationError):
    """A point's dimension does not match the consumer's."""


class RowError(ValidationError):
    """The first dataset row whose label is not -1 or +1 (unsigned labels cannot
    hold -1) or whose norm is NaN or above 1 + NORM_TOLERANCE: its 0-based `row` and `reason`."""

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        norms = np.linalg.norm(features, axis=1)
        bad_label = ~((labels == 1.0) | (labels == -1.0))
        self.row = k = int(np.flatnonzero(bad_label | ~(norms <= 1.0 + NORM_TOLERANCE))[0])
        if bad_label[k]:
            self.reason = f"label must be -1 or +1, got {labels[k:k + 1].tolist()[0]!r}"
        else:
            self.reason = ("features must be finite" if not np.all(np.isfinite(features[k]))
                           else f"row norm {norms[k]:.12g} exceeds the unit ball")
        super().__init__(f"row {k}: {self.reason}")


class MetricUndefinedError(MetricFairError, KeyError):
    """A precomputed metric has no entry for the requested pair."""


def _as_float_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-d feature vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("features must be finite")
    return arr


def _unit_ball_fault(rows: np.ndarray) -> str | None:
    """How `rows` break the rule that each is finite with norm at most 1 + NORM_TOLERANCE,
    or None; it reads about _PAIR_BLOCK entries at a time, so no temporary is as large."""
    step = max(_PAIR_BLOCK // max(rows.shape[1], 1), 1)
    blocks = [rows[start:start + step] for start in range(0, len(rows), step)]
    if not all(np.all(np.isfinite(block)) for block in blocks):
        return "must be finite"
    worst = max((float(np.max(np.linalg.norm(block, axis=1))) for block in blocks), default=0.0)
    return f"norm {worst:.12g} exceeds the unit ball" if worst > 1.0 + NORM_TOLERANCE else None


def check_open_unit(**values: float) -> None:
    """Raise unless every value lies in the open interval (0, 1); NaN fails."""
    for name, v in values.items():
        if not 0.0 < v < 1.0:
            raise ValidationError(f"{name} must be in (0, 1), got {v}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LabeledDataset:
    """An ordered sample of labelled points sharing one dimension; the one
    representation of labelled data.

    `features` is the (m, n) matrix of points, `labels` the (m,) vector of
    +/-1 labels. `targets01` maps labels to the [0, 1] prediction scale.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-d, got shape {feats.shape}")
        if feats.shape[0] == 0:
            raise ValidationError("dataset must be non-empty")
        if labels.shape != (feats.shape[0],):
            raise ValidationError("labels must align with feature rows")
        if _unit_ball_fault(feats) or not np.all((labels == 1.0) | (labels == -1.0)):
            raise RowError(feats, labels)
        object.__setattr__(self, "features", _freeze(feats))
        object.__setattr__(self, "labels", _freeze(labels.astype(np.int64, copy=False)))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @property
    def targets01(self) -> np.ndarray:
        """Labels mapped to the predictor scale: (1 + y) / 2 in {0, 1}."""
        return (1.0 + self.labels) / 2.0


def unit_ball_points(rng: np.random.Generator, count: int, dimension: int) -> np.ndarray:
    """`count` points drawn uniformly from the `dimension`-dimensional unit
    ball: Gaussian directions, then radii U ** (1 / dimension)."""
    g = rng.standard_normal((count, dimension))
    return scale_into_ball(g, rng.random(count) ** (1.0 / dimension))


def scale_into_ball(g: np.ndarray, radii: np.ndarray, norms=None) -> np.ndarray:
    """Gaussian draws `g`, one point a row, scaled in place into a ball: each
    row is divided by its norm (np.linalg.norm's unless given), floored at
    1e-300, then multiplied by its radius."""
    if norms is None:
        norms = np.linalg.norm(g, axis=1)
    g /= np.maximum(norms, 1e-300)[:, None]
    g *= radii[:, None]
    return g


# ---------------------------------------------------------------------------
# Similarity metrics
# ---------------------------------------------------------------------------


#: pairs, or matrix entries, per block wherever pairs are evaluated in pieces:
#: pairwise_matrix and the audit's profile and population estimate
_PAIR_BLOCK = 65_536


def _pair_rows(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of a pair batch as equal-length 2-d float arrays."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    return np.broadcast_arrays(xs, ys)


class SimilarityMetric:
    """Pairwise distance with outputs in [0, 1] and d(x, x) = 0.

    A metric implements `pair_distances`; `distance` and `pairwise_matrix`
    are derived from it, and the audit's profile calls it once per block.
    The audit relies on d >= 0: it never evaluates a pair whose prediction
    gap is at most gamma, since such a pair cannot violate.
    """

    def pair_distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-wise distances d(xs[i], ys[i])."""
        raise NotImplementedError

    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        """d(x, y) for two single points."""
        return float(self.pair_distances(x, y)[0])

    def pairwise_matrix(self, xs: np.ndarray) -> np.ndarray:
        """The m x m distance matrix over the rows of `xs`: entry (i, j) is
        d(xs[min(i, j)], xs[max(i, j)]), and 0 on the diagonal. Each unordered
        pair is one pair of a `pair_distances` call, made on at most about
        _PAIR_BLOCK pairs at a time, and is mirrored."""
        xs = np.atleast_2d(xs)
        m = xs.shape[0]
        out = np.zeros((m, m))
        step = max(1, _PAIR_BLOCK // max(m, 1))
        for r0 in range(0, m, step):
            i, j = np.nonzero(np.arange(r0, min(r0 + step, m))[:, None] < np.arange(m))
            i += r0
            out[i, j] = out[j, i] = self.pair_distances(xs[i], xs[j])
        return out

    def _ranked_blocks(self, xs: np.ndarray, order: np.ndarray):
        """The block function of the audit's all-pairs profile over the rows
        of `xs` ranked by `order`: block(start, stop, first, near) holds the
        distances between ranked rows start:stop and first: where the boolean
        block `near` holds, and +0.0 elsewhere. Each of those entries is
        d(xs[min(i, j)], xs[max(i, j)]) of the original rows i and j, from
        one pair_distances call per block. The profile calls this once; a
        closed form overrides it, as ScaledEuclideanMetric itself does."""
        def block(start, stop, first, near):
            a, b = np.nonzero(near)
            i, j = order[start + a], order[first + b]
            out = np.zeros(near.shape)
            out[a, b] = self.pair_distances(xs[np.minimum(i, j)], xs[np.maximum(i, j)])
            return out
        return block


def _gram_distances(scale: float, left, right, left_sq, right_sq) -> np.ndarray:
    """min(1, scale * sqrt(max(|l|^2 + |r|^2 - 2 l.r, 0))) for each row l of
    `left` and r of `right`, given their squared norms, as a new block built
    in place in that order of operations. Each intermediate is at most about
    2 (|l|^2 + |r|^2) in magnitude; on rows whose squares do not overflow
    every entry is finite and >= +0."""
    products = left @ right.T
    products *= 2.0
    out = left_sq[:, None] + right_sq[None, :]
    out -= products
    del products
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    out *= scale
    np.minimum(out, 1.0, out=out)
    return out


@dataclass(frozen=True)
class ConstantMetric(SimilarityMetric):
    """d(x, x') = c for distinct points, 0 on identical points."""

    c: float

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise ValidationError(f"constant distance must be in [0, 1], got {self.c}")

    def pair_distances(self, xs, ys) -> np.ndarray:
        xs, ys = _pair_rows(xs, ys)
        same = np.all(xs == ys, axis=1)
        return np.where(same, 0.0, self.c)


@dataclass(frozen=True)
class ScaledEuclideanMetric(SimilarityMetric):
    """d(x, x') = min(1, scale * ||x - x'||)."""

    scale: float

    def __post_init__(self):
        if not 0.0 <= self.scale < np.inf:
            raise ValidationError(f"scale must be finite and non-negative, got {self.scale}")

    def pair_distances(self, xs, ys) -> np.ndarray:
        # the operations of np.linalg.norm(xs - ys, axis=1) on real input,
        # without its conj() copy, so the distances are bit for bit the same
        xs, ys = _pair_rows(xs, ys)
        squares = xs - ys
        np.multiply(squares, squares, out=squares)
        return np.minimum(1.0, self.scale * np.sqrt(np.add.reduce(squares, axis=1)))

    def _ranked_blocks(self, xs, order):
        # a subclass is called per block, through its own pair_distances
        if type(self) is not ScaledEuclideanMetric:
            return super()._ranked_blocks(xs, order)
        # the profile's rows are a dataset's, in the unit ball, so every Gram
        # entry is finite and >= +0, and multiplying by the 0/1 entries of
        # `near` is exact and gives +0 elsewhere; a diagonal entry has gap 0,
        # so `near` leaves it out. Each block's rows and squared norms are
        # slices of one ranked copy, and a row's squared norm is a sum over
        # that row alone, so its bits do not depend on the block
        ranked = xs.take(order, axis=0)
        squares = np.sum(ranked * ranked, axis=1)

        def block(start, stop, first, near):
            out = _gram_distances(self.scale, ranked[start:stop], ranked[first:],
                                  squares[start:stop], squares[first:])
            out *= near
            return out
        return block


class MatrixMetric(SimilarityMetric):
    """Distances read from a precomputed square matrix.

    Rows are tied to dataset rows through an index map; evaluation on raw
    vectors looks the vector up among the known points and raises
    MetricUndefinedError for unknown ones. Points are keyed by their bytes
    with -0.0 read as 0.0, so they are identical exactly when they compare
    equal, as in pair_distances. Every entry must be in [0, 1], and the
    matrix rows and columns of two identical points must be equal.
    """

    def __init__(self, matrix: np.ndarray, points: np.ndarray, index_map: Sequence[int] | None = None):
        matrix = np.asarray(matrix, dtype=np.float64)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"metric matrix must be square, got shape {matrix.shape}")
        # NaN fails both comparisons
        outside = np.argwhere(~((matrix >= 0.0) & (matrix <= 1.0)))
        if outside.size:
            i, j = outside[0].tolist()
            raise ValidationError(
                f"metric matrix entry ({i}, {j}) must be in [0, 1], got {matrix[i, j]}")
        if index_map is None:
            index_map = range(points.shape[0])
        index_map = list(index_map)
        if len(index_map) != matrix.shape[0]:
            raise ValidationError("index map length must match the matrix order")
        self.matrix = _freeze(matrix)
        self._row_of: dict[bytes, int] = {}
        seen = set()
        for row, dataset_row in enumerate(index_map):
            if not 0 <= dataset_row < points.shape[0]:
                raise ValidationError(f"index map entry {dataset_row} out of range")
            if dataset_row in seen:
                raise ValidationError(f"index map entry {dataset_row} appears more than once")
            seen.add(dataset_row)
            twin = self._row_of.setdefault((points[dataset_row] + 0.0).tobytes(), row)
            if twin != row and not (np.array_equal(matrix[twin], matrix[row])
                                    and np.array_equal(matrix[:, twin], matrix[:, row])):
                raise ValidationError(
                    f"index map entries {index_map[twin]} and {dataset_row} have identical "
                    "features but different matrix rows or columns")

    def _lookup(self, xs: np.ndarray) -> np.ndarray:
        """Matrix rows of the points in `xs`, one dictionary lookup each."""
        xs = np.ascontiguousarray(xs) + 0.0
        try:
            return np.array([self._row_of[x.tobytes()] for x in xs], dtype=np.intp)
        except KeyError:
            raise MetricUndefinedError("metric undefined for pair") from None

    def pair_distances(self, xs, ys) -> np.ndarray:
        xs, ys = _pair_rows(xs, ys)
        out = np.zeros(xs.shape[0])
        differ = ~np.all(xs == ys, axis=1)
        out[differ] = self.matrix[self._lookup(xs[differ]), self._lookup(ys[differ])]
        return out


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class VovkHalfKernel:
    """K(x, x') = 1 / (1 - <x, x'> / 2), the kernel of every kernel predictor;
    on the unit ball K is in [2/3, 2], so its sup value M is 2."""

    sup_value = 2.0
    name = "vovk-half"

    def cross(self, xs, ys, out: np.ndarray | None = None) -> np.ndarray:
        """Matrix K[i, j] = K(xs[i], ys[j]), written over `out` when given."""
        # 1 / (1 - 0.5 * (xs @ ys.T)) in place, bit for bit: -0.5 b is exact, 1 + (-b) is 1 - b
        G = np.matmul(np.atleast_2d(xs), np.atleast_2d(ys).T, out=out, dtype=np.float64)
        G *= -0.5
        G += 1.0
        return np.reciprocal(G, out=G)


#: rows per panel of check_psd's finiteness and symmetry tests
_SYMMETRY_PANEL = 64
#: columns per panel of _cholesky_lower's blocked factorisation
_CHOLESKY_PANEL = 128
#: panels of rows per strip of _cholesky_lower's panel solves, and panels of
#: columns per tile of its trailing updates
_STRIP_PANELS = 4


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Write over `a` its lower Cholesky factor, read from its lower triangle,
    and return it; raise LinAlgError unless `a` is positive definite. Blocked
    right-looking (Golub & Van Loan, Matrix Computations, 4.2) in panels of
    _CHOLESKY_PANEL columns. Below each diagonal panel it works a strip of
    rows at a time, so that no temporary exceeds _STRIP_PANELS panels,
    whatever the order of `a`."""
    m = a.shape[0]
    p = _CHOLESKY_PANEL
    strip = _STRIP_PANELS * p
    for k in range(0, m, p):
        e = min(k + p, m)
        l11 = a[k:e, k:e] = np.linalg.cholesky(a[k:e, k:e])
        if e == m:
            break
        # reversed, L11 is upper triangular, so LU's partial pivoting never
        # swaps a row and each solve below is a back substitution
        upper = l11[::-1, ::-1]
        a[k:e, e:] = 0.0
        for s in range(e, m, strip):
            t = min(s + strip, m)
            # L21' = L11^-1 A21' for the strip's rows
            a[s:t, k:e] = np.linalg.solve(upper, a[s:t, k:e].T[::-1])[::-1].T
            # A22 -= L21 L21' on and below the diagonal, a panel of rows by a
            # strip of columns at a time, from the rows of L21 solved so far
            for i in range(s, t, p):
                j = min(i + p, m)
                for c in range(e, j, strip):
                    f = min(c + strip, j)
                    a[i:j, c:f] -= a[i:j, k:e] @ a[c:f, k:e].T
    return a


def check_psd(gram: np.ndarray, rel_tolerance: float = PSD_TOLERANCE, *, rebuild=None) -> None:
    """Raise unless `gram` is finite and symmetric PSD within the relative
    tolerance: its smallest eigenvalue must be at least -rel_tolerance times
    its largest. `gram` is not modified unless `rebuild` is given.

    A Cholesky factorisation that completes is exact for gram + E with
    ||E|| at most about (m + 1) * eps * trace(gram) (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3), so it certifies a smallest
    eigenvalue of at least minus that bound. It is tried when the bound is
    within the tolerance of a lower bound on the top eigenvalue (the largest
    diagonal entry or the mean row sum); for the Vovk gram of 2001 points in
    10 dimensions the bound is 7.6e-13 of it. Like `eigvalsh`, it reads the
    lower triangle. It factors a working copy, blocked: that computes the
    same inner products in another order, by conventional products and
    substitution, so Thm 10.3 holds. When it breaks down (an indefinite gram,
    or a singular one such as X @ X.T on more points than dimensions),
    `eigvalsh` decides as before.

    `rebuild`, a function of no arguments that returns `gram` afresh, makes
    the certificate factor `gram`'s own storage instead of a copy, so that
    no second m x m array is held. `gram` must then be a writable float64
    array, and its contents are undefined after the call. When the
    factorisation breaks down, `eigvalsh` decides on `rebuild()`, with the
    verdict and message of the copying path. With `rebuild`, and short of
    that fallback, nothing larger than a strip of _STRIP_PANELS panels is
    allocated: about 2.3 MB over the gram at m = 1,500 to 4,500 (at most
    3 MB in tests/test_memory.py), so kernel training peaks at the
    interpreter plus one m x m array.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.size == 0:
        raise ValidationError(f"gram matrix must be square and non-empty, got shape {gram.shape}")
    m = gram.shape[0]
    # a sum is finite only if every entry is; a finite gram can still
    # overflow it, so the panel scan decides when it is not
    with np.errstate(over="ignore", invalid="ignore"):
        total, trace = float(gram.sum()), float(np.trace(gram))
    if not math.isfinite(total):
        for i in range(0, m, _SYMMETRY_PANEL):
            if not np.all(np.isfinite(gram[i:i + _SYMMETRY_PANEL])):
                raise ValidationError("gram matrix has non-finite entries")
    # np.allclose(gram, gram.T, atol=1e-10), a panel of rows at a time: each
    # panel's columns up to the end of its diagonal block, tested in both
    # orders, cover every pair of entries of the matrix
    for i in range(0, m, _SYMMETRY_PANEL):
        e = min(i + _SYMMETRY_PANEL, m)
        a, b = gram[i:e, :e], gram[:e, i:e].T
        # a gap that overflows is beyond any bound
        with np.errstate(over="ignore"):
            if not (np.array_equal(a, b)
                    or np.allclose(a, b, atol=1e-10) and np.allclose(b, a, atol=1e-10)):
                raise ValidationError("gram matrix is not symmetric")
    factor_error = (m + 1) * np.finfo(np.float64).eps * trace
    top_floor = max(float(np.max(np.diag(gram))), total / m)
    if factor_error <= rel_tolerance * top_floor:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                _cholesky_lower(gram.copy() if rebuild is None else gram)
            return
        except np.linalg.LinAlgError:
            if rebuild is not None:
                gram = np.asarray(rebuild(), dtype=np.float64)
    eigs = np.linalg.eigvalsh(gram)
    top = float(max(eigs.max(), 0.0))
    if float(eigs.min()) < -rel_tolerance * max(top, 1e-300):
        raise ValidationError(
            f"gram matrix is not positive semidefinite (min eig {eigs.min():.3e})"
        )


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


class Predictor:
    """Probabilistic classifier h: X -> [0, 1].

    A predictor implements `predict_batch`; `predict` is derived from it.
    """

    #: expected input dimension, or None when any dimension is accepted
    dimension: int | None = None

    def predict_batch(self, xs: np.ndarray) -> np.ndarray:
        """Predictions h(xs[i]) for the rows of `xs`."""
        raise NotImplementedError

    def predict(self, x: np.ndarray) -> float:
        """h(x) for a single point."""
        return float(self.predict_batch(x)[0])

    def _check_dimension(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.dimension is not None and x.shape[-1] != self.dimension:
            raise DimensionMismatchError(
                f"predictor expects dimension {self.dimension}, got {x.shape[-1]}"
            )
        return x


@dataclass(frozen=True)
class ConstantPredictor(Predictor):
    """h(x) = p for every x."""

    p: float
    dimension: None = field(default=None, init=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"constant prediction must be in [0, 1], got {self.p}")

    def predict_batch(self, xs) -> np.ndarray:
        return np.full(np.atleast_2d(xs).shape[0], self.p)


def _unit_weights(weights) -> np.ndarray:
    """The weight vector as a read-only float array, whose norm must be at
    most 1 + NORM_TOLERANCE."""
    w = _as_float_vector(weights)
    norm = float(np.linalg.norm(w))
    if norm > 1.0 + NORM_TOLERANCE:
        raise ValidationError(f"weight norm {norm:.12g} exceeds 1")
    return _freeze(w)


class LinearPredictor(Predictor):
    """h(x) = (1 + <w, x>) / 2 with ||w|| <= 1, so h maps the ball into [0, 1]."""

    def __init__(self, weights):
        self.weights = _unit_weights(weights)
        self.dimension = self.weights.shape[0]

    def predict_batch(self, xs) -> np.ndarray:
        xs = self._check_dimension(np.atleast_2d(xs))
        return 0.5 * (1.0 + xs @ self.weights)


def sigmoid_transfer(z, lipschitz: float):
    """The transfer 1 / (1 + exp(-4 * lipschitz * z)); fixes 0 -> 1/2."""
    return 1.0 / (1.0 + np.exp(-4.0 * lipschitz * np.asarray(z, dtype=np.float64)))


class LogisticPredictor(Predictor):
    """h(x) = sigmoid_transfer(<w, x>) with ||w|| <= 1; lipschitz-Lipschitz in x."""

    def __init__(self, weights, lipschitz: float):
        self.weights = _unit_weights(weights)
        if not 0.0 <= lipschitz < np.inf:
            raise ValidationError(
                f"lipschitz constant must be finite and non-negative, got {lipschitz}")
        self.lipschitz = float(lipschitz)
        self.dimension = self.weights.shape[0]

    def predict_batch(self, xs) -> np.ndarray:
        xs = self._check_dimension(np.atleast_2d(xs))
        return sigmoid_transfer(xs @ self.weights, self.lipschitz)


class KernelPredictor(Predictor):
    """h(x) = clamp(sum_l beta_l K(x_l, x), 0, 1) for the Vovk kernel K over
    stored support points, which must lie in the unit ball like a dataset's
    features."""

    def __init__(self, support: np.ndarray, beta):
        support = np.atleast_2d(np.asarray(support, dtype=np.float64))
        if fault := _unit_ball_fault(support):
            raise ValidationError("support " + fault)
        beta = _as_float_vector(beta)
        if beta.shape[0] != support.shape[0]:
            raise ValidationError("beta must have one coefficient per support point")
        self.support = _freeze(support)
        self.beta = _freeze(beta)
        self.dimension = support.shape[1]

    def raw_batch(self, xs) -> np.ndarray:
        """Unclamped scores sum_l beta_l K(x_l, x); training operates on these."""
        xs = self._check_dimension(np.atleast_2d(xs))
        return VovkHalfKernel().cross(xs, self.support) @ self.beta

    def predict_batch(self, xs) -> np.ndarray:
        return np.clip(self.raw_batch(xs), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Consecutive:
    """Pair indices (0,1), (2,3), ... in dataset order."""


@dataclass(frozen=True)
class RandomPermutation:
    """Shuffle indices with a seeded generator, then pair consecutively."""

    seed: int


@dataclass(frozen=True, eq=False)
class Matching:
    """Disjoint index pairs (left[t], right[t]) over a sample of m points,
    stored as two read-only index arrays; at most m // 2 pairs."""

    left: np.ndarray
    right: np.ndarray
    m: int

    def __post_init__(self):
        left = _freeze(np.array(self.left, dtype=np.intp))
        right = _freeze(np.array(self.right, dtype=np.intp))
        if left.ndim != 1 or left.shape != right.shape:
            raise ValidationError("matching sides must be 1-d and of equal length")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        # indices in the order i0, j0, i1, j1, ...; the first one that is out
        # of range or seen before is reported
        order = np.column_stack([left, right]).ravel()
        out_of_range = (order < 0) | (order >= self.m)
        repeated = np.ones(order.shape, dtype=bool)
        repeated[np.unique(order, return_index=True)[1]] = False
        bad = np.flatnonzero(out_of_range | repeated)
        if bad.size:
            k = int(order[bad[0]])
            if out_of_range[bad[0]]:
                raise ValidationError(f"matching index {k} out of range for m={self.m}")
            raise ValidationError(f"matching index {k} appears more than once")

    def __len__(self) -> int:
        return self.left.shape[0]


def build_matching(dataset: LabeledDataset, strategy=Consecutive()) -> Matching:
    """Build a floor(m/2)-pair matching; the odd leftover index is dropped."""
    m = len(dataset)
    if m < 2:
        raise ValidationError("insufficient examples for matching")
    if isinstance(strategy, Consecutive):
        order = np.arange(m)
    elif isinstance(strategy, RandomPermutation):
        order = np.random.default_rng(strategy.seed).permutation(m)
    else:
        raise ValidationError(f"unknown matching strategy {strategy!r}")
    k = m // 2
    return Matching(order[0:2 * k:2], order[1:2 * k:2], m)


def default_matching(dataset: LabeledDataset, seed: int) -> Matching:
    """The default estimator matching: seeded shuffle, then consecutive pairs."""
    return build_matching(dataset, RandomPermutation(seed))


def matching_edges(S: LabeledDataset, M: Matching, d: SimilarityMetric):
    """The edges of matching M over sample S as (left, right, distances):
    the two index arrays and d between the matched rows. Raises unless M
    has an edge and was built for a sample of S's size."""
    if len(M) == 0:
        raise ValidationError("matching has no edges")
    if M.m != len(S):
        raise ValidationError("matching does not belong to this dataset")
    dists = np.asarray(d.pair_distances(S.features[M.left], S.features[M.right]), dtype=np.float64)
    return M.left, M.right, dists


# ---------------------------------------------------------------------------
# Metric validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricValidationReport:
    """Sampled-triple audit of the metric axioms on a dataset: the count of
    each kind of violation and the first 20 of each kind in draw order."""

    n_triples: int
    n_symmetry_violations: int
    n_range_violations: int
    n_triangle_violations: int
    symmetry_violations: tuple
    range_violations: tuple
    triangle_violations: tuple
    ok: bool


#: triples per block in validate_metric; bounds its memory for any n_triples
_TRIPLE_BLOCK = 2048


def validate_metric(
    metric: SimilarityMetric,
    dataset: LabeledDataset,
    n_triples: int,
    seed: int,
    tolerance: float = 1e-12,
) -> MetricValidationReport:
    """Check symmetry, range, reflexivity and the triangle inequality on
    `n_triples` index triples sampled with replacement.

    For each triple (a, b, c), d(a, b), d(a, c) and d(c, b) are evaluated
    with the smaller index first for the range and triangle checks, and
    d(a, a) for reflexivity. Symmetry compares the two orders of the pair
    (a, b) and records (a, b, d(X[a], X[b]), d(X[b], X[a])). Triples are
    drawn and checked in blocks of _TRIPLE_BLOCK; drawing a block at a time
    continues the generator's stream, so the triples do not depend on the
    block size. Each kind is counted per block, and a record is built only
    for the first 20 of each kind.
    """
    if n_triples < 1:
        raise ValidationError("n_triples must be >= 1")
    rng = np.random.default_rng(seed)
    m = len(dataset)
    X = dataset.features
    n_symmetry = n_range = n_triangle = 0
    symmetry, rng_viol, triangle = [], [], []

    for start in range(0, n_triples, _TRIPLE_BLOCK):
        idx = rng.integers(0, m, size=(min(_TRIPLE_BLOCK, n_triples - start), 3))
        a, b, c = idx.T
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        dab = metric.pair_distances(X[lo], X[hi])
        reversed_dab = metric.pair_distances(X[hi], X[lo])
        dac = metric.pair_distances(X[np.minimum(a, c)], X[np.maximum(a, c)])
        dcb = metric.pair_distances(X[np.minimum(c, b)], X[np.maximum(c, b)])
        daa = metric.pair_distances(X[a], X[a])
        sides = np.stack([dab, dac, dcb])
        out_of_range = ~((sides >= -tolerance) & (sides <= 1.0 + tolerance))
        first_bad = np.argmax(out_of_range, axis=0)
        range_bad = out_of_range.any(axis=0)
        reflexive_bad = np.abs(daa) > tolerance
        symmetry_bad = np.abs(dab - reversed_dab) > tolerance
        triangle_bad = dab > dac + dcb + tolerance
        n_symmetry += int(np.count_nonzero(symmetry_bad))
        n_range += int(np.count_nonzero(range_bad) + np.count_nonzero(reflexive_bad))
        n_triangle += int(np.count_nonzero(triangle_bad))
        for t in np.flatnonzero(symmetry_bad)[:20 - len(symmetry)].tolist():
            forward, backward = float(dab[t]), float(reversed_dab[t])
            if a[t] > b[t]:
                forward, backward = backward, forward
            symmetry.append((int(a[t]), int(b[t]), forward, backward))
        for t in np.flatnonzero(range_bad | reflexive_bad)[:20 - len(rng_viol)].tolist():
            at = int(a[t])
            if range_bad[t]:
                rng_viol.append((at, int(b[t]), int(c[t]), float(sides[first_bad[t], t])))
            if reflexive_bad[t]:
                rng_viol.append((at, at, at, float(daa[t])))
        del rng_viol[20:]
        for t in np.flatnonzero(triangle_bad)[:20 - len(triangle)].tolist():
            triangle.append((int(a[t]), int(b[t]), int(c[t]),
                             float(dab[t]), float(dac[t]), float(dcb[t])))
    return MetricValidationReport(
        n_triples=n_triples, n_symmetry_violations=n_symmetry, n_range_violations=n_range,
        n_triangle_violations=n_triangle, symmetry_violations=tuple(symmetry),
        range_violations=tuple(rng_viol), triangle_violations=tuple(triangle),
        ok=n_symmetry == n_range == n_triangle == 0)
