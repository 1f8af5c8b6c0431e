import numpy as np
import pytest
from numpy.testing import assert_allclose

from fairaudit.linalg import orthonormal_basis, projector_orthogonal_to, spectral_norm


class TestOrthonormalBasis:
    def test_normalizes_single_vector(self):
        (b,) = orthonormal_basis([[2.0, 0.0]])
        assert_allclose(b, [1.0, 0.0])

    def test_drops_duplicate_direction(self):
        basis = orthonormal_basis([[1.0, 0.0], [2.0, 0.0]], rank_tol=1e-8)
        assert len(basis) == 1

    def test_gram_matrix_is_identity(self):
        basis = orthonormal_basis([[1.0, 1.0], [1.0, 0.0]])
        assert len(basis) == 2
        gram = np.array([[u @ v for v in basis] for u in basis])
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_empty_input(self):
        assert orthonormal_basis([]) == []

    def test_re_orthogonalization_on_near_dependent_input(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=30)
        vs = [u, u + 1e-7 * rng.normal(size=30), rng.normal(size=30)]
        basis = orthonormal_basis(vs)
        gram = np.array([[a @ b for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12

    def test_mixed_dimensions(self):
        with pytest.raises(ValueError, match="length"):
            orthonormal_basis([[1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_bad_tolerance(self):
        with pytest.raises(ValueError, match="rank_tol"):
            orthonormal_basis([[1.0]], rank_tol=0.0)


class TestProjector:
    def test_single_axis(self):
        assert_allclose(projector_orthogonal_to([[1.0, 0.0]], 2), [[0.0, 0.0], [0.0, 1.0]])

    def test_empty_basis_is_identity(self):
        assert_allclose(projector_orthogonal_to([], 3), np.eye(3))

    def test_random_basis_invariants(self):
        rng = np.random.default_rng(1)
        basis = orthonormal_basis([rng.normal(size=5), rng.normal(size=5)])
        p = projector_orthogonal_to(basis, 5)
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p - p.T)) < 1e-12
        assert np.trace(p) == pytest.approx(3.0, abs=1e-10)
        for v in basis:
            assert np.linalg.norm(p @ v) < 1e-10

    def test_projector_is_psd_on_random_points(self):
        rng = np.random.default_rng(2)
        basis = orthonormal_basis([rng.normal(size=4)])
        p = projector_orthogonal_to(basis, 4)
        for _ in range(50):
            v = rng.normal(size=4)
            assert v @ p @ v >= -1e-12

    def test_non_unit_basis_rejected(self):
        with pytest.raises(ValueError, match="unit length"):
            projector_orthogonal_to([[2.0, 0.0]], 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            projector_orthogonal_to([[1.0, 0.0]], 3)


def test_spectral_norm_matches_eigenvalue():
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)
