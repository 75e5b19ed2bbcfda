"""Synthetic dataset generators, all deterministic given a seed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, ValidationError, unit_ball_points
from .hardness import sample_hardness_distribution

GENERATORS = ("unit-ball", "separable", "hardness-pairs")


@dataclass(frozen=True)
class SyntheticSpec:
    generator: str
    n: int
    m: int
    seed: int
    margin: float = 0.5
    noise_rate: float = 0.0
    mode: str = "U"

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValidationError(f"unknown generator {self.generator!r}")
        if self.n < 1 or self.m < 2:
            raise ValidationError("need n >= 1 and m >= 2")
        if not 0.0 < self.margin <= 1.0:
            raise ValidationError(f"margin must be in (0, 1], got {self.margin}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValidationError(f"noise_rate must be in [0, 1), got {self.noise_rate}")


def generate_dataset_with_meta(spec: SyntheticSpec):
    """Generate a dataset plus generator metadata (e.g. the hidden separator)."""
    rng = np.random.default_rng(spec.seed)
    if spec.generator == "unit-ball":
        X = unit_ball_points(rng, spec.m, spec.n)
        w_star = rng.standard_normal(spec.n)
        w_star /= max(float(np.linalg.norm(w_star)), 1e-300)
        labels = np.where(X @ w_star >= 0, 1, -1)
        return LabeledDataset(X, labels), {"w_star": w_star}

    if spec.generator == "separable":
        w_star = rng.standard_normal(spec.n)
        w_star /= max(float(np.linalg.norm(w_star)), 1e-300)
        X = np.empty((spec.m, spec.n))
        labels = np.empty(spec.m, dtype=np.int64)
        for i in range(spec.m):
            # orthogonal part in the ball of radius sqrt(1 - margin^2), then a
            # separating component of magnitude >= margin along w_star
            ortho = unit_ball_points(rng, 1, spec.n)[0]
            ortho -= np.dot(ortho, w_star) * w_star
            cap = np.sqrt(max(1.0 - spec.margin**2, 0.0))
            onorm = float(np.linalg.norm(ortho))
            if onorm > cap:
                ortho *= cap / onorm
            t_max = np.sqrt(max(1.0 - float(np.dot(ortho, ortho)), spec.margin**2))
            t = rng.uniform(spec.margin, t_max)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            X[i] = ortho + sign * t * w_star
            labels[i] = int(sign)
        noise_mask = rng.random(spec.m) < spec.noise_rate
        labels[noise_mask] *= -1
        return LabeledDataset(X, labels), {"w_star": w_star, "noise_mask": noise_mask}

    # hardness-pairs
    if spec.m % 2 != 0:
        raise ValidationError("hardness-pairs needs an even m (points come in pairs)")
    if spec.n < 4:
        raise ValidationError("hardness-pairs needs n >= 4")
    paired, handle = sample_hardness_distribution(spec.n, spec.m // 2, spec.mode, spec.seed)
    return paired.dataset, {"handle": handle, "pairs": paired.pairs}


def generate_dataset(spec: SyntheticSpec) -> LabeledDataset:
    dataset, _ = generate_dataset_with_meta(spec)
    return dataset
