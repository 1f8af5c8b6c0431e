import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from fairaudit.fair_metric import FairMetric, metric_from_dict, save_metric
from fairaudit.models import (
    LOSS_CAP,
    LOSS_FLOOR,
    LogisticModel,
    MlpModel,
    TrainConfig,
    expit,
    logit,
    model_from_dict,
    save_model,
    train,
)


def finite_difference_gradient(model, x, y, h=1e-5):
    g = np.empty(len(x))
    for j in range(len(x)):
        e = np.zeros(len(x))
        e[j] = h
        g[j] = (model.loss((x + e)[None, :], y)[0] - model.loss((x - e)[None, :], y)[0]) / (2.0 * h)
    return g


class TestPredictProba:
    def test_zero_model_gives_half(self):
        m = LogisticModel(weights=np.zeros(3), bias=0.0)
        assert m.predict_proba(np.array([[5.0, -2.0, 0.1]]))[0] == 0.5

    def test_orthogonal_direction_is_ignored(self):
        m = LogisticModel(weights=np.array([1.0, 0.0]), bias=0.0)
        for y in (-10.0, 0.0, 3.0):
            assert m.predict_proba(np.array([[0.0, y]]))[0] == 0.5

    def test_expit_value(self):
        m = LogisticModel(weights=np.array([2.0]), bias=1.0)
        assert m.predict_proba(np.array([[0.5]]))[0] == pytest.approx(0.8807970779, abs=1e-9)

    def test_monotone_in_bias(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4)
        w = rng.normal(size=4)
        probs = [LogisticModel(weights=w, bias=b).predict_proba(x[None, :])[0] for b in np.linspace(-3, 3, 13)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_dimension_mismatch(self):
        m = LogisticModel(weights=np.array([1.0, 2.0]), bias=0.0)
        with pytest.raises(ValueError, match="dimension"):
            m.predict_proba(np.array([1.0, 2.0, 3.0]))


class TestLoss:
    def test_half_probability_gives_log_two(self):
        m = LogisticModel(weights=np.zeros(2), bias=0.0)
        assert m.loss(np.array([[1.0, 2.0]]), 1.0)[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_clamp_keeps_loss_finite_and_positive(self):
        m = LogisticModel(weights=np.array([100.0]), bias=0.0)
        # p -> 1 with y = 1: clamped at the floor -log(1 - p_floor)
        assert m.loss(np.array([[10.0]]), 1.0)[0] == LOSS_FLOOR
        # p -> 1 with y = 0: clamped at the cap -log(p_floor)
        assert m.loss(np.array([[10.0]]), 0.0)[0] == LOSS_CAP
        assert LOSS_FLOOR > 0.0

    def test_cross_entropy_value(self):
        m = LogisticModel(weights=np.array([2.0]), bias=1.0)
        assert m.loss(np.array([[0.5]]), 0.0)[0] == pytest.approx(2.1269280110429727, abs=1e-9)

    def test_loss_positive_for_random_inputs(self):
        rng = np.random.default_rng(3)
        m = LogisticModel(weights=rng.normal(size=3), bias=0.5)
        x = rng.normal(scale=20.0, size=(200, 3))
        y = (rng.random(200) < 0.5).astype(float)
        assert np.all(m.loss(x, y) > 0.0)

    def test_bad_label_rejected(self):
        m = LogisticModel(weights=np.zeros(1), bias=0.0)
        with pytest.raises(ValueError, match="labels"):
            m.loss(np.array([[0.0]]), 0.5)


class TestInputGradient:
    def test_zero_weights_give_zero_gradient(self):
        m = LogisticModel(weights=np.zeros(3), bias=2.0)
        assert_array_equal(m.input_gradient(np.ones((1, 3)), 1.0)[0], np.zeros(3))

    def test_logistic_closed_form(self):
        m = LogisticModel(weights=np.array([2.0]), bias=1.0)
        g = m.input_gradient(np.array([[0.5]]), 0.0)[0]
        assert g[0] == pytest.approx(0.8807970779 * 2.0, abs=1e-9)

    @pytest.mark.parametrize("activation", ["tanh", "softplus"])
    def test_mlp_matches_finite_differences(self, activation):
        rng = np.random.default_rng(42)
        cfg = TrainConfig(num_steps=40, seed=42, hidden_units=7, activation=activation)
        model = train(rng.normal(size=(50, 3)), (rng.random(50) < 0.5).astype(int), "mlp", cfg)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 3)
            y = float(rng.integers(0, 2))
            g = model.input_gradient(x[None, :], y)[0]
            fd = finite_difference_gradient(model, x, y)
            assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-5


def small_model(arch):
    """A 3-input model of the given architecture."""
    if arch == "logistic":
        return LogisticModel(weights=np.array([1.0, 2.0, 3.0]), bias=0.1)
    return MlpModel(layer1_weights=np.ones((2, 3)), layer1_bias=np.zeros(2), layer2_weights=np.ones(2), layer2_bias=0.0)


class TestBatchContract:
    """Models and metrics take ``(n, d)`` batches and labels that match them."""

    @pytest.mark.parametrize(
        "owner, method",
        [(arch, m) for arch in ("logistic", "mlp") for m in ("predict_proba", "loss", "input_gradient")]
        + [("metric", "distance_sq"), ("metric", "distance_sq_gradient")],
    )
    def test_one_dimensional_point_rejected_by_shape(self, owner, method):
        point = np.array([0.5, -1.0, 2.0])
        if owner == "metric":
            target, args = FairMetric(sigma=np.eye(3)), (point, point)
        else:
            target, args = small_model(owner), (point,) if method == "predict_proba" else (point, 1.0)
        with pytest.raises(ValueError, match=re.escape("(n, 3)")):
            getattr(target, method)(*args)

    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    @pytest.mark.parametrize("method", ["loss", "input_gradient"])
    @pytest.mark.parametrize("label_shape", [(4, 1), (5,)], ids=["column", "one-extra"])
    def test_labels_must_match_the_batch(self, arch, method, label_shape):
        x = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
        expected = f"labels must be a scalar or of shape (4,) for 4 rows, got shape {label_shape}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            getattr(small_model(arch), method)(x, np.zeros(label_shape))


class TestTraining:
    def test_separable_data_reaches_perfect_accuracy(self):
        x = np.array([[-1.0]] * 50 + [[1.0]] * 50)
        y = np.array([0] * 50 + [1] * 50)
        cfg = TrainConfig(learning_rate=0.1, batch_size=100, num_steps=2000, seed=0)
        model = train(x, y, "logistic", cfg)
        preds = (model.predict_proba(x) >= 0.5).astype(int)
        assert np.mean(preds == y) == 1.0

    def test_zero_features_recover_intercept_only_fit(self):
        rng = np.random.default_rng(1)
        y = (rng.random(200) < 0.3).astype(int)
        x = np.zeros((200, 1))
        cfg = TrainConfig(learning_rate=0.5, batch_size=200, num_steps=4000, seed=0)
        model = train(x, y, "logistic", cfg)
        assert model.weights[0] == 0.0
        assert model.bias == pytest.approx(logit(float(np.mean(y))), abs=1e-3)

    def test_projector_variant_ignores_projected_coordinate(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(120, 3))
        y = (x[:, 1] > 0).astype(int)
        proj = np.diag([0.0, 1.0, 1.0])
        cfg = TrainConfig(num_steps=300, seed=0, preprocess_projector=proj)
        model = train(x, y, "logistic", cfg)
        pt = np.array([0.3, -0.4, 1.2])
        moved = pt.copy()
        moved[0] += 123.0
        assert model.predict_proba(pt[None, :])[0] == model.predict_proba(moved[None, :])[0]

    def test_single_class_with_reweighting_rejected(self):
        x = np.ones((10, 2))
        with pytest.raises(ValueError, match="both classes"):
            train(x, np.ones(10), "logistic", TrainConfig(class_reweight=True, num_steps=10))

    def test_reweighting_balances_minority_class(self):
        rng = np.random.default_rng(7)
        n = 400
        x = rng.normal(size=(n, 1)) + 0.3
        y = (rng.random(n) < 0.05).astype(int)  # rare positives, features uninformative
        plain = train(x, y, "logistic", TrainConfig(batch_size=n, num_steps=3000, seed=0))
        weighted = train(x, y, "logistic", TrainConfig(batch_size=n, num_steps=3000, seed=0, class_reweight=True))
        # reweighting pulls the intercept toward a balanced prior
        assert weighted.bias > plain.bias
        assert abs(weighted.bias) < abs(plain.bias)

    def test_training_is_seed_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(80, 2))
        y = (x[:, 0] > 0).astype(int)
        cfg = TrainConfig(num_steps=100, seed=13, hidden_units=5)
        m1 = train(x, y, "mlp", cfg)
        m2 = train(x, y, "mlp", cfg)
        assert_array_equal(m1.layer1_weights, m2.layer1_weights)
        assert_array_equal(m1.layer2_weights, m2.layer2_weights)

    def test_unknown_architecture(self):
        with pytest.raises(ValueError, match="architecture"):
            train(np.ones((4, 1)), np.array([0, 1, 0, 1]), "tree", TrainConfig(num_steps=1))

    @pytest.mark.parametrize("value, shown", [(0.0, "0.0"), (-0.1, "-0.1"), (math.nan, "nan"), (math.inf, "inf")])
    def test_learning_rate_must_be_positive_and_finite(self, value, shown):
        with pytest.raises(ValueError, match=f"^learning_rate must be positive and finite, got {shown}$"):
            TrainConfig(learning_rate=value)


class TestSerialization:
    def test_logistic_round_trip_bit_identical(self):
        m = LogisticModel(weights=np.array([0.1, -2.3e-7, 3.0]), bias=math.pi, projector=np.eye(3) / 3.0)
        doc = json.loads(json.dumps(m.to_dict()))
        back = model_from_dict(doc)
        assert_array_equal(back.weights, m.weights)
        assert back.bias == m.bias
        assert_array_equal(back.projector, m.projector)

    def test_mlp_round_trip_bit_identical(self):
        rng = np.random.default_rng(11)
        m = MlpModel(
            layer1_weights=rng.normal(size=(4, 2)),
            layer1_bias=rng.normal(size=4),
            layer2_weights=rng.normal(size=4),
            layer2_bias=-0.25,
            activation="softplus",
        )
        back = model_from_dict(json.loads(json.dumps(m.to_dict())))
        assert_array_equal(back.layer1_weights, m.layer1_weights)
        assert_array_equal(back.layer1_bias, m.layer1_bias)
        assert_array_equal(back.layer2_weights, m.layer2_weights)
        assert back.layer2_bias == m.layer2_bias
        assert back.activation == "softplus"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="architecture"):
            model_from_dict({"architecture": "forest"})

    @pytest.mark.parametrize(
        "from_dict, doc, message",
        [
            (model_from_dict, {"architecture": "logistic", "weights": [1.0]}, "logistic model has no key 'bias'"),
            (model_from_dict, {"architecture": "mlp", "layer1_weights": [[1.0]]}, "mlp model has no key 'layer1_bias'"),
            (metric_from_dict, {"sigma": [[1.0]]}, "metric has no key 'dim'"),
        ],
    )
    def test_missing_key_named(self, from_dict, doc, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            from_dict(doc)

    @pytest.mark.parametrize(
        "cls, field",
        [
            (LogisticModel, "weights"),
            (LogisticModel, "bias"),
            (MlpModel, "layer1_weights"),
            (MlpModel, "layer1_bias"),
            (MlpModel, "layer2_weights"),
            (MlpModel, "layer2_bias"),
        ],
    )
    def test_non_finite_parameter_named(self, cls, field):
        params = {
            LogisticModel: {"weights": np.ones(2), "bias": 0.5},
            MlpModel: {
                "layer1_weights": np.ones((3, 2)),
                "layer1_bias": np.zeros(3),
                "layer2_weights": np.ones(3),
                "layer2_bias": 0.5,
            },
        }[cls]
        params[field] = np.full(np.shape(params[field]), np.nan)
        with pytest.raises(ValueError, match=f"^{field} contains non-finite entries$"):
            cls(**params)

    @pytest.mark.parametrize("save", [save_model, save_metric])
    def test_failed_save_keeps_the_old_file(self, tmp_path, save):
        class Unserializable:
            def to_dict(self):
                return {"a": [1.0, 2.0], "b": object()}

        path = tmp_path / "out.json"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(TypeError):
            save(Unserializable(), path)
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_expit_extremes_stay_in_unit_interval():
    z = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    p = expit(z)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)
    assert p[2] == 0.5


def test_mlp_activation_restricted_to_smooth_choices():
    with pytest.raises(ValueError, match="activation"):
        MlpModel(
            layer1_weights=np.ones((2, 2)),
            layer1_bias=np.zeros(2),
            layer2_weights=np.ones(2),
            layer2_bias=0.0,
            activation="relu",
        )


class TestGradientFormulas:
    """The gradients keep the bits of their textbook formulas."""

    def test_logistic_projected_gradient_is_bitwise_p_times_w(self):
        rng = np.random.default_rng(21)
        proj = rng.normal(size=(4, 4))
        proj = proj + proj.T
        m = LogisticModel(weights=rng.normal(size=4), bias=0.3, projector=proj)
        x = rng.normal(size=(9, 4))
        y = (rng.random(9) < 0.5).astype(float)
        p = expit((x @ proj) @ m.weights + m.bias)
        assert_array_equal(m.input_gradient(x, y), (p - y)[:, None] * (proj @ m.weights)[None, :])

    def test_logistic_cached_direction_is_not_part_of_the_model_value(self):
        m = LogisticModel(weights=np.array([1.0, 2.0]), bias=0.5, projector=np.diag([1.0, 0.0]))
        assert "_logit_gradient" not in repr(m)
        assert set(m.to_dict()) == {"architecture", "weights", "bias", "projector"}
        back = model_from_dict(json.loads(json.dumps(m.to_dict())))
        assert_array_equal(back.input_gradient(np.ones((1, 2)), 1.0)[0], m.input_gradient(np.ones((1, 2)), 1.0)[0])
        plain = LogisticModel(weights=np.array([1.0, 2.0]), bias=0.5)
        assert_array_equal(plain.input_gradient(np.ones((1, 2)), 0.0)[0], (expit(3.5) - 0.0) * np.array([1.0, 2.0]))

    @pytest.mark.parametrize("activation", ["tanh", "softplus"])
    @pytest.mark.parametrize("projected", [False, True], ids=["plain", "projected"])
    def test_mlp_gradient_is_bitwise_the_chain_rule(self, activation, projected):
        rng = np.random.default_rng(22)
        proj = np.eye(3) - np.full((3, 3), 1.0 / 3.0) if projected else None
        m = MlpModel(
            layer1_weights=rng.normal(size=(5, 3)),
            layer1_bias=rng.normal(size=5),
            layer2_weights=rng.normal(size=5),
            layer2_bias=-0.2,
            activation=activation,
            projector=proj,
        )
        x = rng.normal(size=(11, 3))
        y = (rng.random(11) < 0.5).astype(float)
        xb = x if proj is None else x @ proj
        z1 = xb @ m.layer1_weights.T + m.layer1_bias
        if activation == "tanh":
            a, slope = np.tanh(z1), 1.0 - np.tanh(z1) ** 2
        else:
            a, slope = np.logaddexp(0.0, z1), expit(z1)
        p = expit(a @ m.layer2_weights + m.layer2_bias)
        dlogit = (slope * m.layer2_weights) @ m.layer1_weights
        if proj is not None:
            dlogit = dlogit @ proj
        assert_array_equal(m.input_gradient(x, y), (p - y)[:, None] * dlogit)
        assert_array_equal(m.predict_proba(x), p)


class TestEquality:
    """``==`` compares array fields by value; ``hash`` stays unsupported."""

    @staticmethod
    def mlp(**changes):
        params = dict(
            layer1_weights=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
            layer1_bias=[0.1, 0.2, 0.3],
            layer2_weights=[1.0, -1.0, 0.5],
            layer2_bias=0.4,
        )
        params.update(changes)
        return MlpModel(**params)

    def test_logistic_equal_when_every_field_is(self):
        a = LogisticModel(weights=[1.0, 2.0], bias=0.1)
        assert a == LogisticModel(weights=[1.0, 2.0], bias=0.1)
        assert not a != LogisticModel(weights=[1.0, 2.0], bias=0.1)
        assert a != LogisticModel(weights=[1.0, 2.5], bias=0.1)
        assert a != LogisticModel(weights=[1.0, 2.0], bias=0.2)
        proj = [[1.0, 0.0], [0.0, 0.0]]
        assert LogisticModel([1.0, 2.0], 0.1, proj) == LogisticModel([1.0, 2.0], 0.1, proj)

    def test_logistic_array_shape_and_none_mismatches_are_unequal(self):
        a = LogisticModel(weights=[1.0, 2.0], bias=0.1)
        assert a != LogisticModel(weights=[1.0, 2.0, 0.0], bias=0.1)
        assert a != LogisticModel(weights=[1.0, 2.0], bias=0.1, projector=np.eye(2))
        assert LogisticModel(weights=[1.0, 2.0], bias=0.1, projector=np.eye(2)) != a

    def test_cached_logit_gradient_is_not_compared(self):
        a = LogisticModel(weights=[1.0, 2.0], bias=0.1)
        b = LogisticModel(weights=[1.0, 2.0], bias=0.1)
        object.__setattr__(b, "_logit_gradient", np.array([9.0, 9.0]))
        assert a == b

    def test_mlp_equal_when_every_field_is(self):
        assert self.mlp() == self.mlp()
        assert self.mlp() != self.mlp(layer1_bias=[0.1, 0.2, 0.35])
        assert self.mlp() != self.mlp(layer2_bias=0.5)
        assert self.mlp() != self.mlp(activation="softplus")
        assert self.mlp(projector=np.eye(2)) == self.mlp(projector=np.eye(2))

    def test_mlp_array_shape_and_none_mismatches_are_unequal(self):
        assert self.mlp() != self.mlp(projector=np.eye(2))
        assert self.mlp(projector=np.eye(2)) != self.mlp(projector=2.0 * np.eye(2))
        wide = self.mlp(
            layer1_weights=[[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [5.0, 6.0, 0.0]],
        )
        assert self.mlp() != wide

    def test_other_types_are_not_implemented(self):
        logistic = LogisticModel(weights=[1.0, 2.0], bias=0.1)
        assert logistic.__eq__(self.mlp()) is NotImplemented
        assert self.mlp().__eq__(logistic) is NotImplemented
        assert logistic.__eq__(logistic.to_dict()) is NotImplemented
        assert logistic != self.mlp()
        assert logistic != "logistic"

    def test_hash_stays_unsupported(self):
        with pytest.raises(TypeError):
            hash(LogisticModel(weights=[1.0, 2.0], bias=0.1))
        with pytest.raises(TypeError):
            hash(self.mlp())

    def test_serialization_round_trip_is_equal(self):
        model = self.mlp(projector=np.eye(2))
        assert model_from_dict(json.loads(json.dumps(model.to_dict()))) == model

    def test_train_config_equal_when_every_field_is(self):
        assert TrainConfig() == TrainConfig()
        assert TrainConfig(preprocess_projector=np.eye(2)) == TrainConfig(preprocess_projector=np.eye(2))
        assert not TrainConfig(preprocess_projector=np.eye(2)) != TrainConfig(preprocess_projector=np.eye(2))
        assert TrainConfig(preprocess_projector=np.eye(2)) != TrainConfig(preprocess_projector=2.0 * np.eye(2))
        assert TrainConfig() != TrainConfig(seed=1)

    def test_train_config_shape_and_none_mismatches_are_unequal(self):
        assert TrainConfig(preprocess_projector=np.eye(2)) != TrainConfig(preprocess_projector=np.eye(3))
        assert TrainConfig() != TrainConfig(preprocess_projector=np.eye(2))
        assert TrainConfig(preprocess_projector=np.eye(2)) != TrainConfig()
        with pytest.raises(TypeError):
            hash(TrainConfig())
