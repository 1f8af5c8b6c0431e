"""Small dense linear-algebra helpers shared by the rest of the package.

Vectors are 1-D float64 numpy arrays and matrices are 2-D float64 arrays in
row-major (C) order.  Everything here is immutable-by-convention: functions
never modify their inputs and the arrays they return are freshly allocated,
so values can be shared freely across concurrent workers.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

DEFAULT_RANK_TOL = 1e-8


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite 2-D float64 array; ragged rows raise, naming ``name``."""
    try:
        a = np.asarray(m, dtype=np.float64)
    except ValueError:
        raise ValueError(f"{name} must be a rectangular array of numbers") from None
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_values_equal(a[k], b[k]) for k in a)
    return a == b


def fields_equal(self, other):
    """``__eq__`` for dataclasses with array fields, which ``==`` cannot compare.

    Instances of the same class are equal when every field with
    ``compare=True`` is: arrays by ``np.array_equal`` (so a shape mismatch,
    or ``None`` against an array, is unequal), dicts key by key, and other
    values by ``==``.  Use it with ``@dataclass(eq=False)``, which leaves
    the class unhashable.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(_values_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)


def orthonormal_basis(vectors, rank_tol: float = DEFAULT_RANK_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the span of ``vectors``.

    Modified Gram-Schmidt with a re-orthogonalization pass, which is
    numerically adequate for the <=100-dimensional problems this package
    targets.  Vectors whose residual norm after projection onto the basis
    built so far falls below ``rank_tol`` are dropped, so duplicated or
    nearly dependent directions collapse.  An empty input yields an empty
    basis.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    vecs = [as_vector(v, f"vectors[{i}]") for i, v in enumerate(vectors)]
    if not vecs:
        return []
    dim = vecs[0].shape[0]
    for i, v in enumerate(vecs):
        if v.shape[0] != dim:
            raise ValueError(f"vectors[{i}] has length {v.shape[0]}, expected {dim}")
    basis: list[np.ndarray] = []
    for v in vecs:
        u = v.copy()
        for _ in range(2):  # second pass restores orthogonality lost to cancellation
            for b in basis:
                u -= (b @ u) * b
        norm = float(np.linalg.norm(u))
        if norm >= rank_tol:
            basis.append(u / norm)
    return basis


def projector_orthogonal_to(basis, dim: int) -> np.ndarray:
    """Projection matrix onto the orthogonal complement of ``basis``.

    Returns P = I - sum_v v v' for the given orthonormal vectors.  P is
    symmetric and idempotent; P v = 0 for every basis vector v.  An empty
    basis yields the identity.
    """
    if dim <= 0:
        raise ValueError("dim must be positive")
    p = np.eye(dim)
    for i, b in enumerate(basis):
        v = as_vector(b, f"basis[{i}]")
        if v.shape[0] != dim:
            raise ValueError(f"basis[{i}] has length {v.shape[0]}, expected {dim}")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"basis[{i}] is not unit length (norm {norm!r})")
        p -= np.outer(v, v)
    return p


def spectral_norm(m) -> float:
    """Largest singular value of a matrix."""
    return float(np.linalg.norm(as_matrix(m, "m"), 2))
