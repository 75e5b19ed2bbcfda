"""Synthetic dataset generators, all deterministic given a seed.

A seed fixes the bytes of the CSV that `gen-data` writes. Each generator's
order of draws from `np.random.default_rng(seed)` is part of that contract:

- unit-ball: m x n normals, m uniforms for the radii, then n normals for w*;
- separable: n normals for w*, then per row n normals and 3 uniforms (the
  radius, the margin offset and the side), then m uniforms for label noise;
- hardness-pairs: the seed bits (mode U) or y (mode V), then per pair n - 1
  normals and 2 uniforms (the radius and the side) and, in mode V, n - 1
  sign flips.

The per-row loops only draw; the shaping runs once on whole arrays, in the
arithmetic that one row at a time would do. The per-row dot products stay
one np.dot (BLAS ddot) per row, because X @ w_star and einsum add in
another order and change the last bit of some rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, ValidationError, scale_into_ball, unit_ball_points
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
        draws = np.empty((spec.m, 3))
        for i in range(spec.m):
            rng.standard_normal(out=X[i])
            rng.random(out=draws[i])
        # orthogonal part in the ball of radius sqrt(1 - margin^2), then a
        # separating component of magnitude >= margin along w_star; besides X
        # only one m x n array (step) is held, and few m-vectors at a time
        scale_into_ball(X, draws[:, 0] ** (1.0 / spec.n))
        step = np.fromiter((np.dot(x, w_star) for x in X), float, spec.m)[:, None] * w_star
        X -= step
        squares = np.fromiter((np.dot(x, x) for x in X), float, spec.m)
        norms = np.sqrt(squares)
        cap = np.sqrt(max(1.0 - spec.margin**2, 0.0))
        capped = np.flatnonzero(norms > cap)
        shrink = np.ones(spec.m)
        shrink[capped] = cap / norms[capped]
        X *= shrink[:, None]
        del norms, shrink
        # only the rows the cap rescaled have a new |ortho|^2
        squares[capped] = np.fromiter((np.dot(X[i], X[i]) for i in capped), float, capped.size)
        # t = margin + (t_max - margin) * u, the arithmetic of
        # rng.uniform(margin, t_max), then signed
        t = np.sqrt(np.maximum(1.0 - squares, spec.margin**2))
        del squares
        t -= spec.margin
        t *= draws[:, 1]
        t += spec.margin
        sign = np.where(draws[:, 2] < 0.5, 1.0, -1.0)
        del draws
        t *= sign
        X += np.multiply(t[:, None], w_star, out=step)
        del step, t
        labels = sign.astype(np.int64)
        noise_mask = rng.random(spec.m) < spec.noise_rate
        labels[noise_mask] *= -1
        return LabeledDataset(X, labels), {"w_star": w_star, "noise_mask": noise_mask}

    # hardness-pairs
    if spec.m % 2 != 0:
        raise ValidationError("hardness-pairs needs an even m (points come in pairs)")
    paired, handle = sample_hardness_distribution(spec.n, spec.m // 2, spec.mode, spec.seed)
    return paired.dataset, {"handle": handle, "matching": paired.matching}


def generate_dataset(spec: SyntheticSpec) -> LabeledDataset:
    dataset, _ = generate_dataset_with_meta(spec)
    return dataset
