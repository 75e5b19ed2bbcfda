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
)
from .learners import (
    KernelLearner,
    LinearLearner,
    TrainConfig,
    train_fair_kernel,
    train_fair_linear,
)
from .solver import SolverConfig


# the trainer of run_hardness_experiment and of the hardness-demo command
DEMO_TRAINER = TrainConfig(
    alpha=0.05,
    gamma=0.1,
    learner=KernelLearner(B=1e4),
    solver=SolverConfig(max_iters=400),
)


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
        self._n = handle.n

    def pair_distances(self, xs, ys) -> np.ndarray:
        """Identical rows are at distance 0 and rows on the same side of the
        last coordinate at distance 1. Each cross-side pair is at distance 0
        exactly when the expansion of its first n-1 sign disagreements is y;
        only those pairs are hashed."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape[-1] != self._n or ys.shape[-1] != self._n:
            raise ValidationError(f"hardness metric expects dimension {self._n}")
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
    labels = np.empty(2 * k_pairs, dtype=np.int64)
    for t in range(k_pairs):
        head = rng.standard_normal(n - 1)
        head /= max(float(np.linalg.norm(head)), 1e-300)
        head *= head_radius * rng.random() ** (1.0 / (n - 1))
        head[head == 0.0] = 1e-12  # zero coordinates have probability 0; guard anyway
        last = 0.5 if rng.random() < 0.5 else -0.5
        x = np.concatenate([head, [last]])
        flips = handle.seed_bits if mode == "U" else rng.integers(0, 2, size=n - 1).astype(np.uint8)
        counterpart = x.copy()
        counterpart[: n - 1] *= 1.0 - 2.0 * flips
        counterpart[-1] = -last
        rows[2 * t] = x
        rows[2 * t + 1] = counterpart
        labels[2 * t] = 1 if last > 0 else -1
        labels[2 * t + 1] = -labels[2 * t]
    dataset = LabeledDataset(rows, labels)
    matching = Matching(np.arange(0, 2 * k_pairs, 2), np.arange(1, 2 * k_pairs, 2), 2 * k_pairs)
    return HardPairedDataset(dataset, matching), handle


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
    values = h.predict_batch(paired.dataset.features)
    targets = paired.dataset.targets01
    X = paired.dataset.features
    left, right = paired.matching.left, paired.matching.right
    vi, vj = values[left], values[right]
    fair = metric.pair_distances(X[left], X[right]) == 0.0
    average = 0.5 * (vi + vj)
    vi = np.where(fair, average, vi)
    vj = np.where(fair, average, vj)
    per_pair = np.abs(vi - targets[left]) + np.abs(vj - targets[right])
    # cumsum adds left to right, as the report's pinned bits require
    return float(np.cumsum(per_pair)[-1]) / (2.0 * paired.k)


def _audit_pairs(paired: HardPairedDataset, rng: np.random.Generator, n_audit: int):
    """The rows (xs, ys) of n_audit pairs: the within-pair edges first, then
    random distinct cross pairs.

    Cross pairs are drawn in bulk and those with i == j dropped; bulk draws
    continue the generator's stream, so the pairs match one-at-a-time draws.
    """
    left = [paired.matching.left[:n_audit]]
    right = [paired.matching.right[:n_audit]]
    count = len(left[0])
    m = len(paired.dataset)
    while count < n_audit:
        i, j = rng.integers(0, m, size=(n_audit - count, 2)).T
        keep = i != j
        left.append(i[keep])
        right.append(j[keep])
        count += int(np.count_nonzero(keep))
    X = paired.dataset.features
    return X[np.concatenate(left)], X[np.concatenate(right)]


@dataclass(frozen=True)
class HardnessReport:
    n: int
    k_pairs: int
    seed: int
    modes: tuple[str, ...]
    averaged_fair_error_u: float | None
    reference_error: dict
    perfect_fairness_audit: dict
    trained: dict
    accuracy_gap: float | None
    headline_learner: str


def _train_one(learner_name: str, trainer: TrainConfig, paired: HardPairedDataset,
               metric: HardnessMetric):
    """Train one learner with counterpart pairs as the matching; return the
    train error, the fairness audit at gamma_tilde, and the budget."""
    if learner_name == "linear":
        config = replace(trainer, learner=LinearLearner())
        predictor, report = train_fair_linear(
            paired.dataset, metric, config, matching=paired.matching
        )
    else:
        learner = trainer.learner if isinstance(trainer.learner, KernelLearner) else DEMO_TRAINER.learner
        config = replace(trainer, learner=learner)
        predictor, report = train_fair_kernel(
            paired.dataset, metric, config, matching=paired.matching
        )
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
    n_audit_pairs: int = 10_000,
    train_learners: tuple[str, ...] = ("linear", "kernel"),
) -> HardnessReport:
    """Sample the hard distributions and demonstrate the fairness/accuracy
    tension: averaged-fair error 1/2 under U, a perfectly fair zero-error
    reference classifier under V, and trained-learner errors per mode."""
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
            xs, ys = _audit_pairs(paired, rng_audit, n_audit_pairs)
            ok, violations = is_perfectly_fair(reference, xs, ys, metric, tolerance=0.0)
            fairness_audit[mode] = {
                "n_pairs_audited": len(xs),
                "perfectly_fair": ok,
                "n_violations": len(violations),
            }

    trained: dict[str, dict] = {}
    for learner_name in train_learners:
        per_mode: dict[str, float | None] = {}
        for mode, (paired, handle) in sampled.items():
            result = _train_one(learner_name, trainer, paired, HardnessMetric(handle))
            for key, value in result.items():
                per_mode[f"{key}_{mode.lower()}"] = value
        if "U" in sampled and "V" in sampled:
            per_mode["accuracy_gap"] = per_mode["train_error_u"] - per_mode["train_error_v"]
        trained[learner_name] = per_mode

    headline = "kernel" if isinstance(trainer.learner, KernelLearner) else "linear"
    if headline not in trained and trained:
        headline = next(iter(trained))
    gap = trained.get(headline, {}).get("accuracy_gap")
    return HardnessReport(
        n=n,
        k_pairs=k_pairs,
        seed=seed,
        modes=tuple(sampled.keys()),
        averaged_fair_error_u=averaged_u,
        reference_error=reference_error,
        perfect_fairness_audit=fairness_audit,
        trained=trained,
        accuracy_gap=gap,
        headline_learner=headline,
    )
