"""Fair metrics: PSD quadratic forms that discount sensitive directions.

A fair metric measures how similar two individuals are for the purpose of
a fairness audit.  It is a squared pseudo-metric d^2(x1, x2) =
(x1-x2)' Sigma (x1-x2) with Sigma symmetric positive semidefinite; the
null space of Sigma holds the directions along which individuals are
considered identical (e.g. the span of directions predictive of protected
attributes).

Metrics are stored as explicit dense matrices rather than factored forms:
dimensions here are small and explicit matrices make misspecification-gap
computations direct.  Instances are immutable and evaluation is pure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import models
from .dataset import _field, _read_json_object, write_json
from .linalg import DEFAULT_RANK_TOL, as_matrix, fields_equal, orthonormal_basis, projector_orthogonal_to

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-12  # relative to max(1, largest eigenvalue)


def _positive_definite(a) -> bool:
    """Whether the symmetric matrix ``a`` has a Cholesky factor, by the unpivoted right-looking algorithm.

    Written in numpy because LAPACK's ``eigvalsh`` or ``cholesky`` would load code that adds
    0.4-0.7 MB to the peak RSS of every CLI command that builds a metric.
    """
    a = a.copy()
    for j in range(len(a)):
        if not a[j, j] > 0.0:
            return False
        col = a[j + 1 :, j] / np.sqrt(a[j, j])
        a[j + 1 :, j + 1 :] -= np.outer(col, col)
    return True


@dataclass(frozen=True, eq=False)
class FairMetric:
    """Squared pseudo-metric d^2(x1, x2) = (x1-x2)' Sigma (x1-x2)."""

    sigma: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self):
        s = as_matrix(self.sigma, "sigma")
        if s.shape[0] != s.shape[1]:
            raise ValueError("sigma must be square")
        if np.max(np.abs(s - s.T)) > SYMMETRY_TOL:
            raise ValueError("sigma must be symmetric")
        # s + c I has a Cholesky factor only if every eigenvalue of s exceeds -c, and c is at most the
        # tolerance because the largest diagonal entry bounds the largest eigenvalue from below; eigvalsh
        # runs only when that quick test fails
        if not _positive_definite(s + PSD_TOL * max(1.0, np.max(np.diagonal(s))) * np.eye(len(s))):
            evals = np.linalg.eigvalsh(s)
            if evals[0] < -PSD_TOL * max(1.0, evals[-1]):
                raise ValueError(f"sigma must be positive semidefinite, got smallest eigenvalue {float(evals[0])!r}")
        object.__setattr__(self, "sigma", s)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def _deltas(self, x1, x2):
        a = np.asarray(x1, dtype=np.float64)
        b = np.asarray(x2, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != self.dim or b.shape[1] != self.dim:
            raise ValueError(f"points must be (n, {self.dim}) batches of dimension {self.dim}, got {a.shape} and {b.shape}")
        return a - b

    def distance_sq(self, x1, x2):
        """Squared fair distance; symmetric in its arguments and zero on the diagonal."""
        d = self._deltas(x1, x2)
        return np.einsum("ij,jk,ik->i", d, self.sigma, d)

    def distance_sq_gradient(self, x, x0, out=None):
        """Gradient of ``distance_sq(x, x0)`` in its first argument: 2 Sigma (x - x0).

        ``out``, if given, is an array of the result's shape that receives
        the gradient and is returned; the values are the same either way.
        """
        d = self._deltas(x, x0)
        d *= 2.0
        return np.matmul(d, self.sigma, out=out)

    def to_dict(self) -> dict:
        return {"dim": self.dim, "sigma": self.sigma.tolist()}


def metric_from_dict(doc: dict) -> FairMetric:
    """Inverse of ``FairMetric.to_dict``; a missing key or a value of another JSON type raises, naming the key."""
    dim, sigma = _field(doc, "dim", int, "metric"), as_matrix(_field(doc, "sigma", [[float]], "metric"), "sigma")
    if sigma.shape != (dim, dim):
        raise ValueError("metric dimension does not match sigma shape")
    return FairMetric(sigma=sigma)


def save_metric(metric: FairMetric, path) -> None:
    write_json(path, metric.to_dict())


def load_metric(path) -> FairMetric:
    return metric_from_dict(_read_json_object(path, "metric"))


@dataclass(frozen=True)
class SubspaceSpec:
    """Which protected columns span the sensitive subspace, and the rank tolerance."""

    protected_columns: tuple[str, ...]
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        object.__setattr__(self, "protected_columns", tuple(self.protected_columns))
        if not self.protected_columns:
            raise ValueError("at least one protected column is required")
        if self.rank_tol <= 0:
            raise ValueError("rank_tol must be positive")


# the trainer settings of the per-column subspace regressions unless the caller gives others
SUBSPACE_TRAINING = models.TrainConfig(learning_rate=0.5, batch_size=64, num_steps=3000, seed=0)


def learn_sensitive_metric(
    dataset, spec: SubspaceSpec, train_cfg: models.TrainConfig = SUBSPACE_TRAINING
) -> FairMetric:
    """Learn a sensitive-subspace metric from data.

    One logistic regression per protected column predicts that column from
    the features; the regression weight vectors span the sensitive
    subspace.  The returned metric is the projector onto the orthogonal
    complement of that span, so any displacement inside the span has zero
    fair length.

    Constant protected columns cannot be regressed and are skipped with a
    warning; if every column is skipped this raises.
    """
    if train_cfg.class_reweight:
        raise ValueError("subspace regressions run without class reweighting")
    x = np.asarray(dataset.features, dtype=np.float64)
    directions = []
    for name in spec.protected_columns:
        bits = np.asarray(dataset.protected[name], dtype=np.float64)
        if np.all(bits == bits[0]):
            warnings.warn(f"protected column {name!r} is constant; skipped", stacklevel=2)
            continue
        model = models.train(x, bits, architecture="logistic", cfg=train_cfg)
        directions.append(model.weights)
    if not directions:
        raise ValueError("no usable protected columns: all were constant")
    basis = orthonormal_basis(directions, rank_tol=spec.rank_tol)
    return FairMetric(sigma=projector_orthogonal_to(basis, x.shape[1]))


def rotated_coordinate_metric(beta: float, dim: int = 2) -> FairMetric:
    """Two-dimensional metric whose cost-free direction is rotated by ``beta`` radians.

    At beta = 0 the metric is diag(0, 1): movement along the first
    coordinate is free and the second coordinate is charged in full.
    Rotating the free direction to (cos beta, sin beta) leaves the single
    charged direction v = (-sin beta, cos beta), so Sigma = v v'.  Its
    diagonal is (sin^2 beta, cos^2 beta); the off-diagonal coupling
    -sin(beta) cos(beta) is what actually tilts the discounted direction
    (without it the free direction would stay axis-aligned for every beta
    strictly between 0 and 90 degrees).
    """
    if dim != 2:
        raise ValueError("rotated coordinate metric is defined for dim == 2")
    s, c = np.sin(beta), np.cos(beta)
    v = np.array([-s, c])
    return FairMetric(sigma=np.outer(v, v))


def misspecification_level(m1: FairMetric, m2: FairMetric) -> float:
    """Gradient-gap constant between two quadratic metrics: 2 ||Sigma1 - Sigma2||_2.

    For quadratic metrics the gradient gap ||grad d1^2 - grad d2^2|| at any
    pair (x, x') is bounded by this constant times ||x - x'||.
    """
    if m1.dim != m2.dim:
        raise ValueError("metrics must share a dimension")
    return 2.0 * float(np.linalg.norm(m1.sigma - m2.sigma, 2))
