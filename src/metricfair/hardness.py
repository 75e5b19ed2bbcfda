"""Executable hardness construction for perfect metric-fairness.

A metric over the unit ball is described by a 2n-bit string y. Points with
the same sign in the last coordinate are at distance 1. Otherwise the sign
disagreement pattern of the first n-1 coordinates is expanded through a
deterministic expansion function; distance is 0 exactly when the expansion
hits y, else 1. In mode U, y is the expansion of a hidden seed and every
sampled point gets a hidden counterpart at distance 0 carrying the opposite
label, so any predictor averaged to perfect fairness has paired error
exactly 1/2. In mode V, y is uniformly random and (with overwhelming
probability) out of the expansion's image, so all distinct points are at
distance 1 and every predictor is perfectly fair; the sign classifier on the
last coordinate is then perfectly fair with zero error.

The hardness distance can break the triangle inequality: two distinct
same-side points with one sign pattern are at distance 1 from each other, yet
both are at distance 0 from an other-side point whose sign disagreements with
them expand to y. Shared sign patterns are likely at small n.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .audit import is_perfectly_fair
from .core import (
    LabeledDataset,
    Matching,
    MetricFairError,
    Predictor,
    SimilarityMetric,
    ValidationError,
    _pair_rows,
    build_matching,
    matching_edges,
    scale_into_ball,
)
from .learners import KernelLearner, TrainConfig, train_fair_kernel, train_fair_linear
from .solver import SolverConfig


# the trainer of run_hardness_experiment and of the hardness-demo command
DEMO_TRAINER = TrainConfig(
    alpha=0.05,
    gamma=0.1,
    learner=KernelLearner(B=1e4),
    solver=SolverConfig(max_iters=400),
)

# the pairs the perfect-fairness audit of run_hardness_experiment checks
AUDIT_PAIRS = 10_000
#: the pairs that audit draws and checks at a time
_AUDIT_BLOCK = 2048


class SignUndefinedError(MetricFairError):
    """The hardness metric saw a zero coordinate; signs must be total."""


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or not np.all((arr == 0) | (arr == 1)):
        raise ValidationError("expected a 1-d 0/1 bit array")
    return arr


def _expand_seeds(seed_rows: np.ndarray) -> np.ndarray:
    """Expand each row of a (k, n-1) 0/1 matrix into 2n bits: row t of the
    result is the first 2n bits of SHAKE-128 over the length prefix and the
    packed row t, so trailing pad bits are dropped when 2n is not a multiple
    of 8."""
    k, seed_len = seed_rows.shape
    out_bits = 2 * (seed_len + 1)
    out_bytes = (out_bits + 7) // 8
    prefix = seed_len.to_bytes(4, "big")
    packed = np.packbits(seed_rows, axis=1)
    width = packed.shape[1]
    buf = packed.tobytes()
    digests = b"".join(
        hashlib.shake_128(prefix + buf[t * width:(t + 1) * width]).digest(out_bytes)
        for t in range(k)
    )
    digest_rows = np.frombuffer(digests, dtype=np.uint8).reshape(k, out_bytes)
    return np.unpackbits(digest_rows, axis=1)[:, :out_bits]


def expand_seed(seed_bits) -> np.ndarray:
    """Expand n-1 seed bits into 2n output bits with SHAKE-128.

    Deterministic; the seed length is bound into the hash input so distinct
    lengths cannot alias after bit packing.
    """
    return _expand_seeds(_as_bits(seed_bits)[None, :])[0].copy()


@dataclass(frozen=True)
class HardnessMetricHandle:
    """The y string defining one sampled hardness metric.

    mode "U" stores the hidden seed with expand_seed(seed) == y; mode "V"
    carries a uniformly random y.
    """

    y: np.ndarray
    mode: str
    n: int
    seed_bits: np.ndarray | None = None

    def __post_init__(self):
        y = _as_bits(self.y)
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        if self.mode not in ("U", "V"):
            raise ValidationError(f"mode must be 'U' or 'V', got {self.mode!r}")
        if y.shape[0] != 2 * self.n:
            raise ValidationError(f"y must have 2n = {2 * self.n} bits, got {y.shape[0]}")
        if self.mode == "U":
            if self.seed_bits is None:
                raise ValidationError("mode U requires the hidden seed")
            s = _as_bits(self.seed_bits)
            s.setflags(write=False)
            object.__setattr__(self, "seed_bits", s)
            if s.shape[0] != self.n - 1 or not np.array_equal(expand_seed(s), y):
                raise ValidationError("stored seed does not expand to y")


class HardnessMetric(SimilarityMetric):
    """Distance in {0, 1} defined by a HardnessMetricHandle."""

    def __init__(self, handle: HardnessMetricHandle):
        self.handle = handle

    def pair_distances(self, xs, ys) -> np.ndarray:
        """Identical rows are at distance 0 and rows on the same side of the
        last coordinate at distance 1. Each cross-side pair is at distance 0
        exactly when the expansion of its first n-1 sign disagreements is y;
        only those pairs are hashed."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        n = self.handle.n
        if xs.shape[-1] != n or ys.shape[-1] != n:
            raise ValidationError(f"hardness metric expects dimension {n}")
        xs, ys = _pair_rows(xs, ys)
        differ = ~np.all(xs == ys, axis=1)
        if np.any(((xs == 0.0) | (ys == 0.0))[differ]):
            raise SignUndefinedError("sign undefined: zero coordinate")
        sx, sy = xs < 0, ys < 0
        cross = differ & (sx[:, -1] != sy[:, -1])
        delta = (sx[cross, :-1] ^ sy[cross, :-1]).astype(np.uint8)
        hit = np.all(_expand_seeds(delta) == self.handle.y, axis=1)
        out = differ.astype(np.float64)
        out[cross] = np.where(hit, 0.0, 1.0)
        return out


@dataclass(frozen=True)
class HardPairedDataset:
    """k hidden-counterpart pairs, interleaved into one labeled dataset.

    Row 2t is x, row 2t+1 its counterpart x'; within a pair the last
    coordinate flips sign (|x_n| = 1/2, so labels are opposite with margin
    exactly 1/2) and, in mode U, the first n-1 coordinates flip exactly on
    the hidden seed's support so that d(x, x') = 0. `matching` pairs each
    row 2t with row 2t+1.
    """

    dataset: LabeledDataset
    matching: Matching

    @property
    def k(self) -> int:
        return len(self.matching)


def sample_hardness_distribution(n: int, k_pairs: int, mode: str, seed):
    """Sample k hidden-counterpart pairs and the metric handle for one mode."""
    if n < 4:
        raise ValidationError("need dimension n >= 4")
    if k_pairs < 1:
        raise ValidationError("need at least one pair")
    if mode not in ("U", "V"):
        raise ValidationError(f"mode must be 'U' or 'V', got {mode!r}")
    rng = np.random.default_rng(seed)
    if mode == "U":
        seed_bits = rng.integers(0, 2, size=n - 1).astype(np.uint8)
        handle = HardnessMetricHandle(expand_seed(seed_bits), "U", n, seed_bits)
    else:
        handle = HardnessMetricHandle(rng.integers(0, 2, size=2 * n).astype(np.uint8), "V", n)

    # head coordinates live in the (n-1)-ball of radius sqrt(3)/2 so that the
    # full point (with |x_n| = 1/2) stays inside the unit ball
    head_radius = math.sqrt(3.0) / 2.0
    rows = np.empty((2 * k_pairs, n))
    points, counterparts = rows[0::2], rows[1::2]
    heads = points[:, : n - 1]
    draws = np.empty((k_pairs, 2))
    flips = handle.seed_bits if mode == "U" else np.empty((k_pairs, n - 1), dtype=np.uint8)
    for t in range(k_pairs):
        rng.standard_normal(out=heads[t])
        rng.random(out=draws[t])
        if mode == "V":
            flips[t] = rng.integers(0, 2, size=n - 1)
    # one np.dot (BLAS ddot) and one Python-float power per row, as the
    # norms and radii of single draws round them
    norms = np.sqrt(np.fromiter((np.dot(head, head) for head in heads), float, k_pairs))
    radii = np.fromiter((head_radius * float(r) ** (1.0 / (n - 1)) for r in draws[:, 0]),
                        float, k_pairs)
    scale_into_ball(heads, radii, norms)
    heads[heads == 0.0] = 1e-12  # zero coordinates have probability 0; guard anyway
    points[:, -1] = np.where(draws[:, 1] < 0.5, 0.5, -0.5)
    np.multiply(heads, 1.0 - 2.0 * flips, out=counterparts[:, : n - 1])
    np.negative(points[:, -1], out=counterparts[:, -1])
    labels = np.where(rows[:, -1] > 0, 1, -1)
    dataset = LabeledDataset(rows, labels)
    return HardPairedDataset(dataset, build_matching(dataset)), handle


class SignReferencePredictor(Predictor):
    """The reference classifier: 1 when the last coordinate is positive."""

    def __init__(self, n: int):
        self.dimension = n

    def predict_batch(self, xs) -> np.ndarray:
        xs = self._check_dimension(np.atleast_2d(xs))
        return (xs[:, -1] > 0).astype(np.float64)


def absolute_error(h, dataset: LabeledDataset) -> float:
    """Mean |h(x) - y01|: the expected classification error of the
    probabilistic classifier."""
    return float(np.mean(np.abs(h.predict_batch(dataset.features) - dataset.targets01)))


def averaged_fair_paired_error(h, paired: HardPairedDataset, metric: SimilarityMetric) -> float:
    """Error of the perfectly-fair projection of h: on every distance-0 pair,
    both predictions are replaced by their average. On mode-U pairs the two
    targets are 0 and 1, so each projected pair contributes error exactly 1/2."""
    left, right, dists = matching_edges(paired.dataset, paired.matching, metric)
    values = h.predict_batch(paired.dataset.features)
    targets = paired.dataset.targets01
    vi, vj = values[left], values[right]
    fair = dists == 0.0
    average = 0.5 * (vi + vj)
    vi = np.where(fair, average, vi)
    vj = np.where(fair, average, vj)
    per_pair = np.abs(vi - targets[left]) + np.abs(vj - targets[right])
    # cumsum adds left to right, as the report's pinned bits require
    return float(np.cumsum(per_pair)[-1]) / (2.0 * paired.k)


def _audit_pairs(paired: HardPairedDataset, rng: np.random.Generator, n_audit: int):
    """The rows (xs, ys) of n_audit pairs, yielded at most _AUDIT_BLOCK pairs
    at a time: the within-pair edges first, then random distinct cross pairs.

    Cross pairs are drawn a block at a time and those with i == j dropped;
    each draw continues the generator's stream and asks for no more pairs
    than are missing, so the pairs match one-at-a-time draws.
    """
    X = paired.dataset.features
    edges = min(n_audit, paired.k)
    for start in range(0, edges, _AUDIT_BLOCK):
        stop = min(start + _AUDIT_BLOCK, edges)
        yield X[paired.matching.left[start:stop]], X[paired.matching.right[start:stop]]
    count, m = edges, len(paired.dataset)
    while count < n_audit:
        i, j = rng.integers(0, m, size=(min(_AUDIT_BLOCK, n_audit - count), 2)).T
        keep = i != j
        yield X[i[keep]], X[j[keep]]
        count += int(np.count_nonzero(keep))


def _perfect_fairness_audit(h, paired: HardPairedDataset, metric: SimilarityMetric,
                            rng: np.random.Generator, n_audit: int) -> dict:
    """is_perfectly_fair at tolerance 0 over the n_audit pairs of
    _audit_pairs, one block at a time, so no block outlives its check."""
    audited = violations = 0
    for xs, ys in _audit_pairs(paired, rng, n_audit):
        audited += len(xs)
        violations += len(is_perfectly_fair(h, xs, ys, metric, tolerance=0.0)[1])
    return {"n_pairs_audited": audited, "perfectly_fair": violations == 0,
            "n_violations": violations}


@dataclass(frozen=True)
class HardnessReport:
    n: int
    k_pairs: int
    modes: tuple[str, ...]
    averaged_fair_error_u: float | None
    reference_error: dict
    perfect_fairness_audit: dict
    trained: dict
    accuracy_gap: float | None


def _train_one(learner_name: str, config: TrainConfig, paired: HardPairedDataset,
               metric: HardnessMetric):
    """Train `config`'s learner with counterpart pairs as the matching; return
    the train error, the fairness audit at gamma_tilde, and the budget."""
    fit = train_fair_linear if learner_name == "linear" else train_fair_kernel
    predictor, report = fit(paired.dataset, metric, config, matching=paired.matching)
    return {
        "train_error": absolute_error(predictor, paired.dataset),
        "empirical_mf_loss": report.empirical_mf_loss,
        "mf_loss_bound": report.mf_loss_bound,
        "constraint_slack": report.final_constraint_slack,
        "tau": report.derived_params.get("tau"),
    }


def run_hardness_experiment(
    n: int,
    k_pairs: int,
    seed: int,
    trainer: TrainConfig = DEMO_TRAINER,
    modes: tuple[str, ...] = ("U", "V"),
    n_audit_pairs: int = AUDIT_PAIRS,
    train: bool = True,
) -> HardnessReport:
    """Sample the hard distributions and demonstrate the fairness/accuracy
    tension: averaged-fair error 1/2 under U, a perfectly fair zero-error
    reference classifier under V, and, when `train` is set, per-mode errors of
    the linear learner and of `trainer`'s kernel learner, whose accuracy gap
    is the report's `accuracy_gap`. Beside each learner's mode-U error stands
    the floor 1/2 - tau/2 that every predictor within the budget tau meets."""
    if n_audit_pairs < 0:
        raise ValidationError("n_audit_pairs must be >= 0")
    base = np.random.SeedSequence(seed)
    seq_u, seq_v, seq_audit = base.spawn(3)

    sampled = {}
    if "U" in modes:
        sampled["U"] = sample_hardness_distribution(n, k_pairs, "U", seq_u)
    if "V" in modes:
        sampled["V"] = sample_hardness_distribution(n, k_pairs, "V", seq_v)

    reference = SignReferencePredictor(n)
    reference_error = {}
    fairness_audit = {}
    averaged_u = None
    rng_audit = np.random.default_rng(seq_audit)
    for mode, (paired, handle) in sampled.items():
        metric = HardnessMetric(handle)
        reference_error[mode] = absolute_error(reference, paired.dataset)
        if mode == "U":
            averaged_u = averaged_fair_paired_error(reference, paired, metric)
        if mode == "V":
            fairness_audit[mode] = _perfect_fairness_audit(reference, paired, metric, rng_audit,
                                                           n_audit_pairs)

    trained: dict[str, dict] = {}
    configs = (
        {"linear": replace(trainer, learner=None), "kernel": trainer} if train else {})
    for learner_name, config in configs.items():
        per_mode: dict[str, float | None] = {}
        for mode, (paired, handle) in sampled.items():
            result = _train_one(learner_name, config, paired, HardnessMetric(handle))
            for key, value in result.items():
                per_mode[f"{key}_{mode.lower()}"] = value
            if mode == "U":
                per_mode["train_error_floor_u"] = 0.5 - result["tau"] / 2
        if "U" in sampled and "V" in sampled:
            per_mode["accuracy_gap"] = per_mode["train_error_u"] - per_mode["train_error_v"]
        trained[learner_name] = per_mode

    return HardnessReport(
        n=n,
        k_pairs=k_pairs,
        modes=tuple(sampled.keys()),
        averaged_fair_error_u=averaged_u,
        reference_error=reference_error,
        perfect_fairness_audit=fairness_audit,
        trained=trained,
        accuracy_gap=trained.get("kernel", {}).get("accuracy_gap"),
    )
