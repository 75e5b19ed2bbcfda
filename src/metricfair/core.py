"""Core domain types for metric-fair learning.

Datasets live in the unit ball with labels in {-1, +1}. Similarity metrics
are bounded pairwise distances d(x, x') in [0, 1]. Predictors are
probabilistic classifiers h: X -> [0, 1], interpreted as the probability of
assigning the label +1. A matching is a disjoint pairing of sample indices
used by the empirical fairness estimators.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

NORM_TOLERANCE = 1e-9
PSD_TOLERANCE = 1e-8


class MetricFairError(Exception):
    """Base error for this package."""


class ValidationError(MetricFairError, ValueError):
    """Inputs violate a domain-type contract."""


class DimensionMismatchError(ValidationError):
    """An example's dimension does not match the consumer's."""


class MetricUndefinedError(MetricFairError, KeyError):
    """A precomputed metric has no entry for the requested pair."""


def _as_float_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-d feature vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("features must be finite")
    return arr


def _check_unit_ball_rows(rows: np.ndarray, what: str) -> None:
    """Raise unless every row of `rows` is finite with norm at most
    1 + NORM_TOLERANCE."""
    if not np.all(np.isfinite(rows)):
        raise ValidationError(f"{what} must be finite")
    worst = float(np.max(np.linalg.norm(rows, axis=1), initial=0.0))
    if worst > 1.0 + NORM_TOLERANCE:
        raise ValidationError(f"{what} norm {worst:.12g} exceeds the unit ball")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Example:
    """A single labeled point: features in the unit ball, label in {-1, +1}."""

    features: np.ndarray
    label: int

    def __post_init__(self):
        feats = _freeze(_as_float_vector(self.features))
        object.__setattr__(self, "features", feats)
        norm = float(np.linalg.norm(feats))
        if norm > 1.0 + NORM_TOLERANCE:
            raise ValidationError(f"feature norm {norm:.12g} exceeds the unit ball")
        if self.label not in (-1, 1):
            raise ValidationError(f"label must be -1 or +1, got {self.label!r}")

    @property
    def dimension(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class LabeledDataset:
    """An ordered sample of examples sharing one dimension.

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
        _check_unit_ball_rows(feats, "features")
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValidationError("labels must be -1 or +1")
        object.__setattr__(self, "features", _freeze(feats))
        object.__setattr__(self, "labels", _freeze(labels.astype(np.int64)))

    @classmethod
    def from_examples(cls, examples: Sequence[Example]) -> "LabeledDataset":
        if not examples:
            raise ValidationError("dataset must be non-empty")
        dims = {ex.dimension for ex in examples}
        if len(dims) != 1:
            raise ValidationError(f"examples have mixed dimensions {sorted(dims)}")
        feats = np.stack([ex.features for ex in examples])
        labels = np.array([ex.label for ex in examples])
        return cls(feats, labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @property
    def targets01(self) -> np.ndarray:
        """Labels mapped to the predictor scale: (1 + y) / 2 in {0, 1}."""
        return (1.0 + self.labels) / 2.0

    def example(self, i: int) -> Example:
        return Example(self.features[i], int(self.labels[i]))

    def __iter__(self) -> Iterator[Example]:
        return (self.example(i) for i in range(len(self)))


def unit_ball_points(rng: np.random.Generator, count: int, dimension: int) -> np.ndarray:
    """`count` points drawn uniformly from the `dimension`-dimensional unit
    ball: Gaussian directions, then radii U ** (1 / dimension)."""
    g = rng.standard_normal((count, dimension))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    radii = rng.random(count) ** (1.0 / dimension)
    return g * radii[:, None]


# ---------------------------------------------------------------------------
# Similarity metrics
# ---------------------------------------------------------------------------


#: pairs per pair_distances call when a pairwise matrix is built in blocks
_PAIR_BLOCK = 65_536


def _pair_rows(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of a pair batch as equal-length 2-d float arrays."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    return np.broadcast_arrays(xs, ys)


class SimilarityMetric:
    """Pairwise distance with outputs in [0, 1] and d(x, x) = 0.

    A metric implements `pair_distances`; `distance` and the default
    `pairwise_matrix` are derived from it.
    """

    def pair_distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-wise distances d(xs[i], ys[i])."""
        raise NotImplementedError

    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        """d(x, y) for two single points."""
        return float(self.pair_distances(x, y)[0])

    def pairwise_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Full m x m distance matrix over the rows of `xs`, evaluated on the
        pairs i < j in blocks of about _PAIR_BLOCK pairs; the diagonal is 0."""
        xs = np.atleast_2d(xs)
        m = xs.shape[0]
        out = np.zeros((m, m))
        rows = max(1, _PAIR_BLOCK // max(m, 1))
        for r0 in range(0, m, rows):
            # pairs (r0 + a, j) with j > r0 + a, for a in [0, rows)
            a, j = np.triu_indices(min(rows, m - r0), r0 + 1, m)
            i = a + r0
            out[i, j] = out[j, i] = self.pair_distances(xs[i], xs[j])
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

    def pairwise_matrix(self, xs) -> np.ndarray:
        xs = np.atleast_2d(xs)
        m = xs.shape[0]
        out = np.full((m, m), self.c)
        np.fill_diagonal(out, 0.0)
        return out


@dataclass(frozen=True)
class ScaledEuclideanMetric(SimilarityMetric):
    """d(x, x') = min(1, scale * ||x - x'||)."""

    scale: float

    def __post_init__(self):
        if not 0.0 <= self.scale < np.inf:
            raise ValidationError(f"scale must be finite and non-negative, got {self.scale}")

    def pair_distances(self, xs, ys) -> np.ndarray:
        xs, ys = _pair_rows(xs, ys)
        return np.minimum(1.0, self.scale * np.linalg.norm(xs - ys, axis=1))

    def pairwise_matrix(self, xs) -> np.ndarray:
        xs = np.atleast_2d(xs)
        sq = np.sum(xs * xs, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (xs @ xs.T), 0.0)
        out = np.minimum(1.0, self.scale * np.sqrt(d2))
        np.fill_diagonal(out, 0.0)
        return out


class MatrixMetric(SimilarityMetric):
    """Distances read from a precomputed square matrix.

    Rows are tied to dataset rows through an index map; evaluation on raw
    vectors looks the vector up among the known points and raises
    MetricUndefinedError for unknown ones.
    """

    def __init__(self, matrix: np.ndarray, points: np.ndarray, index_map: Sequence[int] | None = None):
        matrix = np.asarray(matrix, dtype=np.float64)
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"metric matrix must be square, got shape {matrix.shape}")
        if index_map is None:
            index_map = range(points.shape[0])
        index_map = list(index_map)
        if len(index_map) != matrix.shape[0]:
            raise ValidationError("index map length must match the matrix order")
        self.matrix = _freeze(matrix)
        self._row_of: dict[bytes, int] = {}
        for row, dataset_row in enumerate(index_map):
            if not 0 <= dataset_row < points.shape[0]:
                raise ValidationError(f"index map entry {dataset_row} out of range")
            self._row_of[points[dataset_row].tobytes()] = row

    def _lookup(self, xs: np.ndarray) -> np.ndarray:
        """Matrix rows of the points in `xs`, one dictionary lookup each."""
        xs = np.ascontiguousarray(xs)
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


class KernelSpec:
    """A positive-semidefinite kernel with known sup value M = sup K(x, x')."""

    sup_value: float

    def gram(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(xs)
        return self.cross(xs, xs)

    def cross(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Matrix K[i, j] = K(xs[i], ys[j])."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        raise NotImplementedError


class VovkHalfKernel(KernelSpec):
    """K(x, x') = 1 / (1 - <x, x'> / 2); on the unit ball K is in [2/3, 2]."""

    sup_value = 2.0
    name = "vovk-half"

    def cross(self, xs, ys) -> np.ndarray:
        xs = np.atleast_2d(xs)
        ys = np.atleast_2d(ys)
        return 1.0 / (1.0 - 0.5 * (xs @ ys.T))


class LinearDotKernel(KernelSpec):
    """K(x, x') = <x, x'>; on the unit ball K is in [-1, 1]."""

    sup_value = 1.0
    name = "linear-dot"

    def cross(self, xs, ys) -> np.ndarray:
        return np.atleast_2d(xs) @ np.atleast_2d(ys).T


def check_psd(gram: np.ndarray, rel_tolerance: float = PSD_TOLERANCE) -> None:
    """Raise unless `gram` is finite and symmetric PSD within the relative
    tolerance: its smallest eigenvalue must be at least -rel_tolerance times
    its largest. `gram` is not modified.

    A Cholesky factorisation that completes is exact for gram + E with
    ||E|| at most about (m + 1) * eps * trace(gram) (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3), so it certifies a smallest
    eigenvalue of at least minus that bound. It is tried when the bound is
    within the tolerance of a lower bound on the top eigenvalue (the largest
    diagonal entry or the mean row sum); for the Vovk gram of 2001 points in
    10 dimensions the bound is 7.6e-13 of it. Like `eigvalsh`, it reads the
    lower triangle. When the factorisation breaks down (an indefinite gram,
    or a singular one such as a linear kernel on more points than
    dimensions), `eigvalsh` decides as before.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if not np.all(np.isfinite(gram)):
        raise ValidationError("gram matrix has non-finite entries")
    if not np.allclose(gram, gram.T, atol=1e-10):
        raise ValidationError("gram matrix is not symmetric")
    m = gram.shape[0]
    factor_error = (m + 1) * np.finfo(np.float64).eps * float(np.trace(gram))
    top_floor = max(float(np.max(np.diag(gram))), float(gram.sum()) / m)
    if factor_error <= rel_tolerance * top_floor:
        try:
            np.linalg.cholesky(gram)
            return
        except np.linalg.LinAlgError:
            pass
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


class LinearPredictor(Predictor):
    """h(x) = (1 + <w, x>) / 2 with ||w|| <= 1, so h maps the ball into [0, 1]."""

    def __init__(self, weights):
        w = _as_float_vector(weights)
        norm = float(np.linalg.norm(w))
        if norm > 1.0 + NORM_TOLERANCE:
            raise ValidationError(f"weight norm {norm:.12g} exceeds 1")
        self.weights = _freeze(w)
        self.dimension = w.shape[0]

    def predict_batch(self, xs) -> np.ndarray:
        xs = self._check_dimension(np.atleast_2d(xs))
        return 0.5 * (1.0 + xs @ self.weights)


def sigmoid_transfer(z, lipschitz: float):
    """The transfer 1 / (1 + exp(-4 * lipschitz * z)); fixes 0 -> 1/2."""
    return 1.0 / (1.0 + np.exp(-4.0 * lipschitz * np.asarray(z, dtype=np.float64)))


class LogisticPredictor(Predictor):
    """h(x) = sigmoid_transfer(<w, x>) with ||w|| <= 1; lipschitz-Lipschitz in x."""

    def __init__(self, weights, lipschitz: float):
        w = _as_float_vector(weights)
        norm = float(np.linalg.norm(w))
        if norm > 1.0 + NORM_TOLERANCE:
            raise ValidationError(f"weight norm {norm:.12g} exceeds 1")
        if lipschitz < 0:
            raise ValidationError("lipschitz constant must be non-negative")
        self.weights = _freeze(w)
        self.lipschitz = float(lipschitz)
        self.dimension = w.shape[0]

    def predict_batch(self, xs) -> np.ndarray:
        xs = self._check_dimension(np.atleast_2d(xs))
        return sigmoid_transfer(xs @ self.weights, self.lipschitz)


class KernelPredictor(Predictor):
    """h(x) = clamp(sum_l beta_l K(x_l, x), 0, 1) over stored support points,
    which must lie in the unit ball like a dataset's features."""

    def __init__(self, support: np.ndarray, beta, kernel: KernelSpec):
        support = np.atleast_2d(np.asarray(support, dtype=np.float64))
        _check_unit_ball_rows(support, "support")
        beta = _as_float_vector(beta)
        if beta.shape[0] != support.shape[0]:
            raise ValidationError("beta must have one coefficient per support point")
        self.support = _freeze(support)
        self.beta = _freeze(beta)
        self.kernel = kernel
        self.dimension = support.shape[1]

    def raw_batch(self, xs) -> np.ndarray:
        """Unclamped scores sum_l beta_l K(x_l, x); training operates on these."""
        xs = self._check_dimension(np.atleast_2d(xs))
        return self.kernel.cross(xs, self.support) @ self.beta

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


# ---------------------------------------------------------------------------
# Metric validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricValidationReport:
    """Sampled-triple audit of the metric axioms on a dataset."""

    n_triples: int
    symmetry_violations: tuple
    range_violations: tuple
    triangle_violations: tuple

    @property
    def ok(self) -> bool:
        return not (self.symmetry_violations or self.range_violations or self.triangle_violations)

    def to_dict(self) -> dict:
        return {
            "n_triples": self.n_triples,
            "n_symmetry_violations": len(self.symmetry_violations),
            "n_range_violations": len(self.range_violations),
            "n_triangle_violations": len(self.triangle_violations),
            "symmetry_violations": [list(v) for v in self.symmetry_violations[:20]],
            "range_violations": [list(v) for v in self.range_violations[:20]],
            "triangle_violations": [list(v) for v in self.triangle_violations[:20]],
            "ok": self.ok,
        }


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
    block size.
    """
    if n_triples < 1:
        raise ValidationError("n_triples must be >= 1")
    rng = np.random.default_rng(seed)
    m = len(dataset)
    X = dataset.features
    symmetry = []
    rng_viol = []
    triangle = []

    def sorted_pair(i, j):
        return metric.pair_distances(X[np.minimum(i, j)], X[np.maximum(i, j)])

    for start in range(0, n_triples, _TRIPLE_BLOCK):
        idx = rng.integers(0, m, size=(min(_TRIPLE_BLOCK, n_triples - start), 3))
        a, b, c = idx.T
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        dab = metric.pair_distances(X[lo], X[hi])
        reversed_dab = metric.pair_distances(X[hi], X[lo])
        dac = sorted_pair(a, c)
        dcb = sorted_pair(c, b)
        daa = metric.pair_distances(X[a], X[a])
        sides = np.stack([dab, dac, dcb])
        out_of_range = ~((sides >= -tolerance) & (sides <= 1.0 + tolerance))
        first_bad = np.argmax(out_of_range, axis=0)
        range_bad = out_of_range.any(axis=0)
        reflexive_bad = np.abs(daa) > tolerance
        for t in np.flatnonzero(np.abs(dab - reversed_dab) > tolerance).tolist():
            forward, backward = float(dab[t]), float(reversed_dab[t])
            if a[t] > b[t]:
                forward, backward = backward, forward
            symmetry.append((int(a[t]), int(b[t]), forward, backward))
        for t in np.flatnonzero(range_bad | reflexive_bad).tolist():
            at = int(a[t])
            if range_bad[t]:
                rng_viol.append((at, int(b[t]), int(c[t]), float(sides[first_bad[t], t])))
            if reflexive_bad[t]:
                rng_viol.append((at, at, at, float(daa[t])))
        for t in np.flatnonzero(dab > dac + dcb + tolerance).tolist():
            triangle.append((int(a[t]), int(b[t]), int(c[t]),
                             float(dab[t]), float(dac[t]), float(dcb[t])))
    return MetricValidationReport(
        n_triples=n_triples,
        symmetry_violations=tuple(symmetry),
        range_violations=tuple(rng_viol),
        triangle_violations=tuple(triangle),
    )
