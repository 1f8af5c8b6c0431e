"""The synthetic study's data generator: a two-group population in the plane.

Group membership is a rare Bernoulli draw, each group sits in a tight
Gaussian cluster, and the clusters differ only in the first coordinate,
which is exactly the direction a fair metric for this problem discounts.
Labels come from a group-specific hyperplane through each cluster's center:

    y = 1{ w_g . (x - mu_g) + noise > 0 }

so roughly half of each cluster carries each label and the label boundary
runs near-vertically through the cluster.  (Anchoring the hyperplane at
the cluster center is what keeps both labels present; an uncentered rule
with these weights would put every point about six standard deviations
from the boundary and produce a single-label dataset that nothing can be
learned from.)

This module needs only numpy, ``dataset`` and ``linalg``, so the
``simulate`` command loads none of the audit code; ``sim`` re-exports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .linalg import as_matrix


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the two-group generator."""

    n_samples: int = 400
    minority_prob: float = 0.1
    group_means: tuple[tuple[float, float], tuple[float, float]] = ((-1.5, 0.0), (1.5, 0.0))
    noise_sd: float = 0.25
    label_weights: tuple[tuple[float, float], tuple[float, float]] = ((-0.2, -0.01), (0.2, -0.01))
    label_noise_var: float = 1e-4
    seed: int = 7

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if not 0.0 < self.minority_prob < 1.0:
            raise ValueError("minority_prob must lie in (0, 1)")
        if self.noise_sd <= 0 or self.label_noise_var < 0:
            raise ValueError("noise_sd must be positive and label_noise_var non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        for name in ("group_means", "label_weights"):
            shape = as_matrix(getattr(self, name), name).shape
            if shape != (2, 2):
                raise ValueError(f"{name} must be a 2x2 array (one row per group), got shape {shape}")


def assign_labels(cfg: SimConfig, features, groups, label_noise=None) -> np.ndarray:
    """Group-specific hyperplane labels: y = 1{ w_g . (x - mu_g) + noise > 0 }.

    The inequality is strict, so a point exactly on the hyperplane with
    zero noise gets label 0.
    """
    x = np.asarray(features, dtype=np.float64)
    g = np.asarray(groups, dtype=np.int64)
    means = np.asarray(cfg.group_means)[g]
    weights = np.asarray(cfg.label_weights)[g]
    margin = np.sum(weights * (x - means), axis=1)
    if label_noise is not None:
        margin = margin + np.asarray(label_noise, dtype=np.float64)
    return (margin > 0).astype(np.int64)


def generate(cfg: SimConfig) -> Dataset:
    """Draw a dataset from the generator; byte-identical for a fixed seed."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_samples
    g = (rng.random(n) < cfg.minority_prob).astype(np.int64)
    x = np.asarray(cfg.group_means)[g] + cfg.noise_sd * rng.standard_normal((n, 2))
    noise = math.sqrt(cfg.label_noise_var) * rng.standard_normal(n) if cfg.label_noise_var > 0 else None
    y = assign_labels(cfg, x, g, noise)
    return Dataset(
        feature_names=("x1", "x2"),
        features=x,
        labels=y,
        protected={"group": g},
        label_name="label",
    )
