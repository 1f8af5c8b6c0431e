import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fairaudit.dataset import Dataset
from fairaudit.fair_metric import (
    FairMetric,
    SubspaceSpec,
    learn_sensitive_metric,
    metric_from_dict,
    misspecification_level,
    rotated_coordinate_metric,
)
from fairaudit.models import TrainConfig, train


def random_psd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T / dim


def drop_first_coordinate_metric():
    return FairMetric(sigma=np.diag([0.0, 1.0]))


class TestDistance:
    def test_zero_on_equal_points(self):
        m = FairMetric(sigma=random_psd(np.random.default_rng(0), 3))
        x = np.array([1.0, -2.0, 0.5])
        assert m.distance_sq(x[None, :], x[None, :])[0] == 0.0

    def test_sensitive_direction_is_free(self):
        m = drop_first_coordinate_metric()
        assert m.distance_sq(np.array([[1.0, 0.0]]), np.zeros((1, 2)))[0] == 0.0

    def test_only_charged_coordinate_counts(self):
        m = drop_first_coordinate_metric()
        assert m.distance_sq(np.array([[3.0, 4.0]]), np.zeros((1, 2)))[0] == pytest.approx(16.0, abs=1e-14)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(1)
        m = FairMetric(sigma=random_psd(rng, 4))
        x1, x2 = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        assert m.distance_sq(x1, x2)[0] == pytest.approx(m.distance_sq(x2, x1)[0], rel=1e-14)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(2)
        m = FairMetric(sigma=random_psd(rng, 5))
        for _ in range(100):
            assert m.distance_sq(rng.normal(size=(1, 5)), rng.normal(size=(1, 5)))[0] >= -1e-12

    def test_triangle_inequality_for_square_root(self):
        rng = np.random.default_rng(3)
        m = FairMetric(sigma=random_psd(rng, 4))
        for _ in range(200):
            x, y, z = rng.normal(size=(1, 4)), rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
            dxz = math.sqrt(m.distance_sq(x, z)[0])
            dxy = math.sqrt(m.distance_sq(x, y)[0])
            dyz = math.sqrt(m.distance_sq(y, z)[0])
            assert dxz <= dxy + dyz + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            drop_first_coordinate_metric().distance_sq(np.zeros(3), np.zeros(3))

    def test_asymmetric_sigma_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            FairMetric(sigma=np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestDistanceGradient:
    def test_zero_at_center(self):
        m = FairMetric(sigma=random_psd(np.random.default_rng(4), 3))
        x = np.array([0.5, 1.0, -1.0])
        assert_array_equal(m.distance_sq_gradient(x[None, :], x[None, :])[0], np.zeros(3))

    def test_identity_metric_value(self):
        m = FairMetric(sigma=np.eye(2))
        g = m.distance_sq_gradient(np.array([[1.0, 2.0]]), np.zeros((1, 2)))[0]
        assert_allclose(g, [2.0, 4.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        m = FairMetric(sigma=random_psd(rng, 4))
        x, x0 = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        g = m.distance_sq_gradient(x, x0)[0]
        h = 1e-6
        for j in range(4):
            e = np.zeros((1, 4))
            e[0, j] = h
            fd = (m.distance_sq(x + e, x0)[0] - m.distance_sq(x - e, x0)[0]) / (2.0 * h)
            assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def make_protected_dataset(rng, n=600, dim=4, duplicate=False, independent=False):
    x = rng.normal(size=(n, dim))
    if independent:
        bit = (rng.random(n) < 0.5).astype(int)
    else:
        bit = (x[:, 0] > 0).astype(int)
    protected = {"p": bit}
    if duplicate:
        protected["q"] = bit
    labels = (rng.random(n) < 0.5).astype(int)
    names = tuple("fghij"[:dim])
    return Dataset(feature_names=names, features=x, labels=labels, protected=protected)


class TestLearnedMetric:
    def test_annihilates_separating_direction(self):
        ds = make_protected_dataset(np.random.default_rng(6))
        metric = learn_sensitive_metric(ds, SubspaceSpec(("p",)))
        p = metric.sigma
        assert np.max(np.abs(p @ p - p)) < 1e-10
        e1 = np.eye(4)[0]
        killed = e1 - p @ e1
        assert np.linalg.norm(killed) > 0.99  # learned direction aligned with e1

    def test_zero_distance_along_learned_span(self):
        ds = make_protected_dataset(np.random.default_rng(6))
        cfg = TrainConfig(learning_rate=0.5, batch_size=64, num_steps=3000, seed=0)
        metric = learn_sensitive_metric(ds, SubspaceSpec(("p",)), cfg)
        # training is deterministic, so refitting recovers the span exactly
        w = train(ds.features, ds.protected["p"], "logistic", cfg).weights
        x = np.random.default_rng(7).normal(size=4)
        assert metric.distance_sq(x[None, :], (x + w)[None, :])[0] <= 1e-8 * float(w @ w)

    def test_duplicate_columns_collapse_to_rank_one(self):
        ds = make_protected_dataset(np.random.default_rng(8), duplicate=True)
        metric = learn_sensitive_metric(ds, SubspaceSpec(("p", "q")))
        assert np.trace(metric.sigma) == pytest.approx(3.0, abs=1e-8)

    def test_independent_bit_still_yields_projector(self):
        ds = make_protected_dataset(np.random.default_rng(9), independent=True)
        metric = learn_sensitive_metric(ds, SubspaceSpec(("p",)))
        p = metric.sigma
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p - p.T)) < 1e-12
        assert np.trace(p) == pytest.approx(3.0, abs=1e-8)

    def test_constant_column_skipped_with_warning(self):
        ds = make_protected_dataset(np.random.default_rng(10))
        ds.protected["q"] = np.zeros(ds.n, dtype=np.int64)
        with pytest.warns(UserWarning, match="constant"):
            metric = learn_sensitive_metric(ds, SubspaceSpec(("p", "q")))
        assert np.trace(metric.sigma) == pytest.approx(3.0, abs=1e-8)

    def test_all_columns_constant_is_an_error(self):
        ds = make_protected_dataset(np.random.default_rng(11))
        ds.protected["p"] = np.ones(ds.n, dtype=np.int64)
        with pytest.warns(UserWarning, match="constant"), pytest.raises(ValueError, match="constant"):
            learn_sensitive_metric(ds, SubspaceSpec(("p",)))

    def test_reweighted_config_rejected(self):
        ds = make_protected_dataset(np.random.default_rng(12))
        with pytest.raises(ValueError, match="reweight"):
            learn_sensitive_metric(ds, SubspaceSpec(("p",)), TrainConfig(class_reweight=True))


class TestRotatedMetric:
    def test_zero_angle_discounts_first_coordinate(self):
        assert_allclose(rotated_coordinate_metric(0.0).sigma, np.diag([0.0, 1.0]), atol=1e-15)

    def test_right_angle_swaps_the_roles(self):
        m = rotated_coordinate_metric(math.radians(90.0))
        assert_allclose(m.sigma, np.diag([1.0, 0.0]), atol=1e-15)

    def test_five_degree_cost_of_unit_first_coordinate_move(self):
        m = rotated_coordinate_metric(math.radians(5.0))
        d = m.distance_sq(np.array([[1.0, 0.0]]), np.zeros((1, 2)))[0]
        assert d == pytest.approx(math.sin(math.radians(5.0)) ** 2, abs=1e-12)
        assert d == pytest.approx(0.0075961, abs=1e-6)

    def test_rotated_free_direction_has_zero_cost(self):
        beta = math.radians(10.0)
        m = rotated_coordinate_metric(beta)
        free = np.array([math.cos(beta), math.sin(beta)])
        assert m.distance_sq(free[None, :], np.zeros((1, 2)))[0] == pytest.approx(0.0, abs=1e-15)
        # and the metric is the rank-one projector onto the charged direction
        assert np.trace(m.sigma) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(m.sigma @ m.sigma - m.sigma)) < 1e-12

    def test_only_two_dimensional(self):
        with pytest.raises(ValueError, match="dim"):
            rotated_coordinate_metric(0.1, dim=3)


class TestMisspecificationGap:
    def test_gradient_gap_bounded_by_spectral_distance(self):
        rng = np.random.default_rng(13)
        m1 = FairMetric(sigma=random_psd(rng, 4))
        m2 = FairMetric(sigma=random_psd(rng, 4))
        level = misspecification_level(m1, m2)
        for _ in range(200):
            x, x0 = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
            gap = np.linalg.norm(m1.distance_sq_gradient(x, x0)[0] - m2.distance_sq_gradient(x, x0)[0])
            assert gap <= level * np.linalg.norm(x - x0) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            misspecification_level(FairMetric(sigma=np.eye(2)), FairMetric(sigma=np.eye(3)))


def test_metric_serialization_round_trip():
    m = rotated_coordinate_metric(math.radians(7.0))
    back = metric_from_dict(json.loads(json.dumps(m.to_dict())))
    assert_array_equal(back.sigma, m.sigma)


def test_metric_dict_dimension_check():
    with pytest.raises(ValueError, match="dimension"):
        metric_from_dict({"dim": 3, "sigma": [[1.0, 0.0], [0.0, 1.0]]})


class TestPositiveSemidefinite:
    @pytest.mark.parametrize(
        "sigma, smallest",
        [(np.diag([0.0, -0.02]), -0.02), (np.diag([1.0, -2e-12]), -2e-12), (np.diag([1e6, -2e-6]), -2e-6)],
        ids=["audit-probe", "unit-scale", "large-scale"],
    )
    def test_negative_eigenvalue_rejected_naming_it(self, sigma, smallest):
        with pytest.raises(ValueError, match=f"^sigma must be positive semidefinite, got smallest eigenvalue {smallest!r}$"):
            FairMetric(sigma=sigma)

    def test_roundoff_below_the_relative_tolerance_accepted(self):
        FairMetric(sigma=np.diag([1.0, -5e-13]))
        FairMetric(sigma=np.diag([1e6, -5e-7]))
        # largest diagonal entry 5e5 under the largest eigenvalue 1e6: the quick Cholesky test fails, and
        # the eigenvalues decide, against the tolerance 1e-6
        v, u = np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, -1.0]) / math.sqrt(2.0)
        FairMetric(sigma=1e6 * np.outer(v, v) - 7e-7 * np.outer(u, u))
        with pytest.raises(ValueError, match="positive semidefinite"):
            FairMetric(sigma=1e6 * np.outer(v, v) - 2e-6 * np.outer(u, u))

    def test_rotated_perturbed_and_projector_metrics_load(self):
        from fairaudit import sim
        from fairaudit.linalg import orthonormal_basis, projector_orthogonal_to

        rng = np.random.default_rng(5)
        for beta in np.linspace(0.0, math.pi, 13):
            rotated = rotated_coordinate_metric(beta)
            for scale in (1e-1, 1e-3, 1e-6):
                FairMetric(sigma=sim.floor_psd(rotated.sigma + scale * sim.perturbation_direction(2, seed=int(beta * 10))))
        for dim in (3, 8, 40):
            basis = orthonormal_basis(list(rng.normal(size=(2, dim))))
            FairMetric(sigma=projector_orthogonal_to(basis, dim))


class TestMetricEquality:
    def test_equal_when_sigma_is(self):
        m = rotated_coordinate_metric(math.radians(7.0))
        assert m == metric_from_dict(json.loads(json.dumps(m.to_dict())))
        assert FairMetric(np.eye(2)) == FairMetric(np.eye(2))
        assert FairMetric(np.eye(2)) != FairMetric(2.0 * np.eye(2))

    def test_shape_mismatch_is_unequal(self):
        assert FairMetric(np.eye(2)) != FairMetric(np.eye(3))

    def test_other_types_are_not_implemented(self):
        m = FairMetric(np.eye(2))
        assert m.__eq__(np.eye(2)) is NotImplemented
        assert m.__eq__(m.to_dict()) is NotImplemented

    def test_hash_stays_unsupported(self):
        with pytest.raises(TypeError):
            hash(FairMetric(np.eye(2)))
