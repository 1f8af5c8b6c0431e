import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import helpers
from fairaudit import attack as attack_module
from fairaudit.attack import (
    BLOCK_ALIGN,
    BLOCK_BYTES,
    BLOCK_FLOOR,
    DIVERGENCE_RADIUS,
    AttackConfig,
    AttackTrace,
    DivergenceError,
    LinearFlowProblem,
    StabilityBoundError,
    StabilityProbe,
    attack_rows,
    audit_preset,
    constant_config_for_horizon,
    flow_field,
    row_blocks,
    sim_preset,
    stability_gap,
    unfair_map,
    unfair_map_batch,
)
from fairaudit.fair_metric import FairMetric, rotated_coordinate_metric
from fairaudit.inference import audit
from fairaudit.models import LogisticModel, MlpModel
from fairaudit.sim import StackedLogistic, fit_bias, robustness_experiment, stopping_time_sweep


def recorded(attack, model, metric, cfg, x0, y, **kwargs):
    """``attack`` (the kernel or ``reference_euler``) with every state recorded through ``on_step``.

    Returns ``(x_final, divergent, states)``; ``states[k]`` is the state after k steps.
    """
    states = np.empty((cfg.num_steps + 1, *x0.shape))
    out, divergent = attack(model, metric, cfg, x0, y, on_step=states.__setitem__, **kwargs)
    return out, divergent, states


def trace_of_one(model, metric, cfg, x0, y):
    """The trace of the attack on the batch of one ``[x0]``: one point's trace is its column 0."""
    xb, yb = np.asarray(x0, dtype=np.float64)[None], np.array([y], dtype=np.float64)
    _, _, states = recorded(unfair_map_batch, model, metric, cfg, xb, yb)
    return AttackTrace.record(model, metric, cfg, states, xb, yb)


class LinearLossStub:
    """Test model with loss a.x + c: gradient is constant, flow is solvable."""

    def __init__(self, a, offset=0.0):
        self.a = np.asarray(a, dtype=np.float64)
        self.offset = offset

    def predict_proba(self, x):
        raise NotImplementedError

    def loss(self, x, y):
        return np.asarray(x, dtype=np.float64) @ self.a + self.offset

    def input_gradient(self, x, y):
        return np.tile(self.a, (len(x), 1))


class SplitFieldStub:
    """Gradient K*x for points starting right of the origin, -x otherwise.

    Gives a batch where some samples blow up and others stay put.
    """

    def __init__(self, k=100.0):
        self.k = k

    def predict_proba(self, x):
        raise NotImplementedError

    def loss(self, x, y):
        return np.sum(np.asarray(x, dtype=np.float64) ** 2, axis=1)

    def input_gradient(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x[:, :1] > 0, self.k * x, -x)


class TestAttackConfig:
    def test_constant_schedule(self):
        cfg = AttackConfig(lam=1.0, num_steps=4, schedule="constant", eta=0.25)
        assert_allclose(cfg.step_sizes(), [0.25] * 4)
        assert cfg.horizon == pytest.approx(1.0)

    def test_decay_schedule(self):
        cfg = AttackConfig(lam=1.0, num_steps=3, schedule="decay", decay_c=0.02, decay_p=2.0 / 3.0)
        assert_allclose(cfg.step_sizes(), [0.02, 0.02 / 2 ** (2 / 3), 0.02 / 3 ** (2 / 3)])

    def test_presets(self):
        a = audit_preset()
        assert (a.lam, a.num_steps, a.schedule, a.eta) == (50.0, 500, "constant", 0.01)
        s = sim_preset()
        assert (s.lam, s.num_steps, s.schedule, s.decay_c) == (100.0, 400, "decay", 0.02)
        assert s.decay_p == pytest.approx(2.0 / 3.0)

    def test_horizon_helper(self):
        cfg = constant_config_for_horizon(2.0, 1.0, eta=0.01)
        assert cfg.num_steps == 100
        assert constant_config_for_horizon(2.0, 0.0).num_steps == 0

    @pytest.mark.parametrize("eta", [0.0, -0.01, float("nan")])
    def test_horizon_config_rejects_non_positive_eta(self, eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            constant_config_for_horizon(2.0, 1.0, eta=eta)

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(lam=0.0, num_steps=1)
        with pytest.raises(ValueError):
            AttackConfig(lam=1.0, num_steps=-1)
        with pytest.raises(ValueError):
            AttackConfig(lam=1.0, num_steps=1, schedule="adaptive")
        with pytest.raises(ValueError):
            AttackConfig(lam=1.0, num_steps=1, eta=0.0)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("lam", {"lam": math.nan}),
            ("lam", {"lam": math.inf}),
            ("eta", {"eta": math.nan}),
            ("eta", {"eta": math.inf}),
            ("decay_c", {"schedule": "decay", "decay_c": math.nan}),
            ("decay_c", {"schedule": "decay", "decay_c": math.inf}),
            ("decay_p", {"schedule": "decay", "decay_p": math.nan}),
            ("decay_p", {"schedule": "decay", "decay_p": math.inf}),
            ("decay_p", {"schedule": "decay", "decay_p": -0.5}),
        ],
    )
    def test_non_finite_values_rejected_by_name(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            AttackConfig(**{"lam": 1.0, "num_steps": 1, **kwargs})
        # a zero decay exponent is a constant step and stays valid
        assert AttackConfig(lam=1.0, num_steps=2, schedule="decay", decay_p=0.0).step_sizes().tolist() == [0.02, 0.02]


class TestFlowField:
    def test_stationary_at_start_for_flat_model(self):
        m = LogisticModel(weights=np.zeros(2), bias=1.0)
        x0 = np.array([0.3, -0.7])
        g = flow_field(m, FairMetric(sigma=np.eye(2)), 2.0, x0[None, :], x0[None, :], 1.0)[0]
        assert_array_equal(g, np.zeros(2))

    def test_zero_penalty_weight_recovers_loss_gradient(self):
        rng = np.random.default_rng(0)
        m = LogisticModel(weights=rng.normal(size=3), bias=0.1)
        x, x0 = rng.normal(size=3), rng.normal(size=3)
        g = flow_field(m, FairMetric(sigma=np.eye(3)), 0.0, x[None, :], x0[None, :], 1.0)[0]
        assert_array_equal(g, m.input_gradient(x[None, :], 1.0)[0])

    def test_combines_both_gradients(self):
        m = LogisticModel(weights=np.array([2.0]), bias=1.0)
        g = flow_field(m, FairMetric(sigma=np.eye(1)), 0.5, np.array([[0.5]]), np.array([[0.0]]), 0.0)[0]
        assert g[0] == pytest.approx(1.7615942 - 2.0 * 0.5 * 0.5, abs=1e-6)


class TestUnfairMap:
    def test_identity_when_field_vanishes(self):
        m = LogisticModel(weights=np.zeros(2), bias=0.4)
        x0 = np.array([1.0, -2.0])
        out = unfair_map(m, FairMetric(sigma=np.eye(2)), AttackConfig(lam=1.0, num_steps=50), x0, 1.0)
        assert out.shape == (2,)
        assert_array_equal(out, x0)

    def test_single_step_is_the_euler_update(self):
        rng = np.random.default_rng(1)
        m = LogisticModel(weights=rng.normal(size=2), bias=0.3)
        metric = FairMetric(sigma=np.eye(2))
        x0 = rng.normal(size=2)
        cfg = AttackConfig(lam=0.7, num_steps=1, eta=0.1)
        out = unfair_map(m, metric, cfg, x0, 0.0)
        assert_array_equal(out, x0 + 0.1 * flow_field(m, metric, 0.7, x0[None, :], x0[None, :], 0.0)[0])

    def test_linear_loss_flow_matches_closed_form(self):
        # field a - 2 lam (x - x0) has solution x0 + a/(2 lam) (1 - exp(-2 lam t))
        stub = LinearLossStub([1.0, 0.0])
        cfg = AttackConfig(lam=0.5, num_steps=10000, schedule="constant", eta=0.001)
        x0 = np.array([0.2, -0.1])
        out = unfair_map(stub, FairMetric(sigma=np.eye(2)), cfg, x0, 1.0)
        expected = x0 + np.array([1.0, 0.0]) * (1.0 - math.exp(-2.0 * 0.5 * 10.0))
        assert np.linalg.norm(out - expected) < 1e-3

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(2)
        m = LogisticModel(weights=rng.normal(size=2), bias=0.1)
        metric = rotated_coordinate_metric(0.0)
        x0 = rng.normal(size=2)
        a = unfair_map(m, metric, sim_preset(), x0, 1.0)
        b = unfair_map(m, metric, sim_preset(), x0, 1.0)
        assert_array_equal(a, b)

    def test_divergence_names_the_step(self):
        m = LogisticModel(weights=np.array([2.0]), bias=0.0)
        cfg = AttackConfig(lam=1e9, num_steps=100, schedule="constant", eta=0.01)
        with pytest.raises(DivergenceError, match="step"):
            unfair_map(m, FairMetric(sigma=np.eye(1)), cfg, np.array([0.5]), 0.0)

    def test_rejects_non_finite_start(self):
        m = LogisticModel(weights=np.zeros(1), bias=0.0)
        with pytest.raises(ValueError, match="finite"):
            unfair_map(m, FairMetric(sigma=np.eye(1)), AttackConfig(lam=1.0, num_steps=1), np.array([np.nan]), 0.0)


class TestTrace:
    def test_trace_lengths_and_recomputable_losses(self):
        rng = np.random.default_rng(3)
        m = LogisticModel(weights=rng.normal(size=2), bias=0.2)
        metric = FairMetric(sigma=np.eye(2))
        cfg = AttackConfig(lam=2.0, num_steps=25, eta=0.01)
        x0 = rng.normal(size=2)
        trace = trace_of_one(m, metric, cfg, x0, 1.0)
        iterates, losses, penalties = trace.iterates[:, 0], trace.losses[:, 0], trace.penalties[:, 0]
        assert iterates.shape == (26, 2)
        assert_array_equal(iterates[-1], unfair_map(m, metric, cfg, x0, 1.0))
        for k in (0, 7, 25):
            assert losses[k] == m.loss(iterates[k][None, :], 1.0)[0]
            assert penalties[k] == 2.0 * metric.distance_sq(iterates[k][None, :], x0[None, :])[0]
        assert trace.horizon == pytest.approx(0.25)

    def test_penalized_objective_monotone_for_stable_steps(self, sim_dataset):
        x, y = sim_dataset.features, sim_dataset.labels
        b = fit_bias(x, y, 3.0, 1.0)
        m = LogisticModel(weights=np.array([3.0, 1.0]), bias=b)
        metric = rotated_coordinate_metric(0.0)
        for i in range(0, 50, 9):
            trace = trace_of_one(m, metric, audit_preset(), x[i], float(y[i]))
            steps = np.diff(trace.objective()[:, 0])
            assert np.min(steps) > -1e-9


class TestBatch:
    def test_batch_matches_single_sample_runs(self, sim_dataset):
        x, y = sim_dataset.features[:16], sim_dataset.labels[:16].astype(float)
        b = fit_bias(sim_dataset.features, sim_dataset.labels, 2.0, -1.0)
        m = LogisticModel(weights=np.array([2.0, -1.0]), bias=b)
        metric = rotated_coordinate_metric(0.0)
        batch, divergent = unfair_map_batch(m, metric, sim_preset(), x, y)
        assert divergent == []
        for i in range(x.shape[0]):
            single = unfair_map(m, metric, sim_preset(), x[i], y[i])
            assert_allclose(batch[i], single, rtol=1e-12, atol=1e-12)

    def test_divergent_samples_flagged_and_frozen(self):
        stub = SplitFieldStub(k=100.0)
        metric = FairMetric(sigma=np.eye(1))
        cfg = AttackConfig(lam=0.01, num_steps=400, schedule="constant", eta=0.05)
        x0 = np.array([[1.0], [-1.0], [2.0], [-0.5]])
        y = np.zeros(4)
        with pytest.raises(DivergenceError, match="sample 0"):
            unfair_map_batch(stub, metric, cfg, x0, y)
        out, divergent = unfair_map_batch(stub, metric, cfg, x0, y, skip_divergent=True)
        assert divergent == [0, 2]
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out[[1, 3], 0]) < 1.0)  # surviving samples contracted toward 0


class TestLossRatio:
    @staticmethod
    def one_ratio(model, metric, cfg, x0, y):
        """Attacked over original loss of one point, from a batch of one."""
        xb, yb = np.asarray(x0, dtype=np.float64)[None, :], np.full(1, y, dtype=np.float64)
        attacked, _ = unfair_map_batch(model, metric, cfg, xb, yb)
        return float(model.loss(attacked, yb)[0] / model.loss(xb, yb)[0])

    def test_flat_model_gives_exactly_one(self):
        m = LogisticModel(weights=np.zeros(2), bias=0.7)
        r = self.one_ratio(m, FairMetric(sigma=np.eye(2)), audit_preset(), [0.4, 0.1], 0.0)
        assert r == 1.0

    def test_huge_penalty_pins_the_point(self):
        m = LogisticModel(weights=np.array([2.0]), bias=1.0)
        cfg = AttackConfig(lam=1e9, num_steps=100, schedule="constant", eta=1e-10)
        r = self.one_ratio(m, FairMetric(sigma=np.eye(1)), cfg, [0.5], 0.0)
        assert r == pytest.approx(1.0, abs=1e-6)

    def test_matches_independent_euler_reimplementation(self, sim_dataset, unfair_sim_model):
        metric = rotated_coordinate_metric(0.0)
        cfg = sim_preset()
        steps = cfg.step_sizes()
        x, y = sim_dataset.features, sim_dataset.labels
        minority = np.flatnonzero(sim_dataset.protected["group"] == 1)[:6]
        report = audit(unfair_sim_model, metric, cfg, x[minority], y[minority], include_error_rate=False)
        assert_array_equal(report.index, np.arange(minority.size))
        for got, i in zip(report.ratios, minority):
            ref_x, ref_ratio = helpers.reference_euler_loss_ratio(
                list(unfair_sim_model.weights),
                unfair_sim_model.bias,
                metric.sigma.tolist(),
                cfg.lam,
                list(steps),
                list(x[i]),
                float(y[i]),
            )
            assert got == pytest.approx(ref_ratio, rel=1e-8)
            assert got > 1.0

    def test_ratio_never_below_one_for_stable_constant_steps(self, sim_dataset):
        x, y = sim_dataset.features, sim_dataset.labels
        b = fit_bias(x, y, 3.0, -2.0)
        m = LogisticModel(weights=np.array([3.0, -2.0]), bias=b)
        attacked, _ = unfair_map_batch(m, rotated_coordinate_metric(0.0), audit_preset(), x, y)
        ratios = m.loss(attacked, y) / m.loss(x, y)
        assert np.min(ratios) >= 1.0 - 1e-9


def euler(num_steps, h):
    """Constant Euler steps of size ``h``; a zero metric makes ``lam`` irrelevant."""
    return AttackConfig(lam=1.0, num_steps=num_steps, eta=h)


class TestStability:
    def scalar_decay_problem(self):
        return LinearFlowProblem(a=np.array([[-1.0]]), c=np.zeros(1), x0=np.ones(1))

    def test_hand_computed_scalar_case(self):
        probe = StabilityProbe(lipschitz_L=1.0, curvature_m=1.0, dim_d=1, max_step_h=0.1)
        gap = stability_gap(probe, self.scalar_decay_problem(), euler(10, 0.1))
        assert gap == pytest.approx(abs(math.exp(-1.0) - 0.9**10), abs=1e-12)
        assert gap <= probe.bound(1.0, 0.1)
        assert probe.bound(1.0, 0.1) == pytest.approx(0.05 * (math.e - 1.0), abs=1e-12)

    def test_gap_shrinks_monotonically_with_step(self):
        prob = self.scalar_decay_problem()
        gaps = [
            stability_gap(StabilityProbe(1.0, 1.0, 1, h), prob, euler(int(round(1.0 / h)), h))
            for h in (0.1, 0.05, 0.025)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_halving_step_halves_the_gap_first_order(self):
        prob = self.scalar_decay_problem()
        g1 = stability_gap(StabilityProbe(1.0, 1.0, 1, 0.1), prob, euler(10, 0.1))
        g2 = stability_gap(StabilityProbe(1.0, 1.0, 1, 0.05), prob, euler(20, 0.05))
        assert 1.6 <= g1 / g2 <= 2.4

    def test_multidimensional_affine_problem_respects_bound(self):
        # field A x + c with A = diag(-1, -2): L = 2, |J_g g| along the path <= m below
        a = np.diag([-1.0, -2.0])
        c = np.array([0.5, -0.25])
        x0 = np.array([1.0, 1.0])
        prob = LinearFlowProblem(a=a, c=c, x0=x0)
        m_const = float(np.max(np.abs(a @ (a @ x0 + c))))  # decays along the flow
        probe = StabilityProbe(lipschitz_L=2.0, curvature_m=m_const, dim_d=2, max_step_h=0.05)
        gap = stability_gap(probe, prob, euler(40, 0.05))
        assert gap <= probe.bound(2.0, 0.05)

    def test_falsified_constants_raise(self):
        probe = StabilityProbe(lipschitz_L=1.0, curvature_m=1e-6, dim_d=1, max_step_h=0.1)
        with pytest.raises(StabilityBoundError):
            stability_gap(probe, self.scalar_decay_problem(), euler(10, 0.1))

    def test_step_cap_enforced(self):
        probe = StabilityProbe(lipschitz_L=1.0, curvature_m=1.0, dim_d=1, max_step_h=0.05)
        with pytest.raises(ValueError, match="max_step_h"):
            stability_gap(probe, self.scalar_decay_problem(), euler(10, 0.1))

    @pytest.mark.parametrize(
        "num_steps, h, gap",
        [(10, 0.1, 0.019201001071442403), (20, 0.05, 0.00939351876290001), (40, 0.025, 0.004647001283561547)],
    )
    def test_kernel_gaps_equal_the_single_sample_loop_bitwise(self, num_steps, h, gap):
        # the gaps of the former loop x = x + eta * (A x + c), t += eta
        assert stability_gap(StabilityProbe(1.0, 1.0, 1, h), self.scalar_decay_problem(), euler(num_steps, h)) == gap

    def test_affine_kernel_gap_equals_the_single_sample_loop_bitwise(self):
        a, c, x0 = np.diag([-1.0, -2.0]), np.array([0.5, -0.25]), np.array([1.0, 1.0])
        probe = StabilityProbe(2.0, float(np.max(np.abs(a @ (a @ x0 + c)))), 2, 0.05)
        assert stability_gap(probe, LinearFlowProblem(a=a, c=c, x0=x0), euler(40, 0.05)) == 0.021949810319183763

    def test_runs_the_attack_kernel_once(self, monkeypatch):
        from fairaudit import attack

        calls = []
        kernel = attack.unfair_map_batch
        monkeypatch.setattr(attack, "unfair_map_batch", lambda *a, **k: calls.append(a[3].shape) or kernel(*a, **k))
        stability_gap(StabilityProbe(1.0, 1.0, 1, 0.1), self.scalar_decay_problem(), euler(10, 0.1))
        assert calls == [(1, 1)]

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            stability_gap(StabilityProbe(1.0, 1.0, 1, 0.1), self.scalar_decay_problem(), euler(0, 0.1))

    def test_flow_leaving_the_radius_raises_divergence(self):
        growth = LinearFlowProblem(a=np.array([[1.0]]), c=np.zeros(1), x0=np.ones(1))
        with pytest.raises(DivergenceError):
            stability_gap(StabilityProbe(1.0, 1.0, 1, 0.5), growth, euler(100, 0.5))

    def test_exact_solution_of_affine_flow(self):
        prob = LinearFlowProblem(a=np.array([[-2.0]]), c=np.array([4.0]), x0=np.array([3.0]))
        # x(t) = 2 + (x0 - 2) e^{-2t}
        for t in (0.0, 0.3, 1.7):
            assert prob.exact(t)[0] == pytest.approx(2.0 + 1.0 * math.exp(-2.0 * t), rel=1e-12)


class TestKeepSteps:
    @pytest.mark.parametrize(
        "cfg", [sim_preset(), AttackConfig(lam=3.0, num_steps=40, eta=0.02)], ids=["decay", "constant"]
    )
    def test_kept_iterates_equal_shorter_runs(self, sim_dataset, unfair_sim_model, cfg):
        x, y = sim_dataset.features[:50], sim_dataset.labels[:50].astype(float)
        metric = rotated_coordinate_metric(0.3)
        keep = [0, 1, 1, cfg.num_steps // 2, cfg.num_steps]
        final, divergent, states = recorded(unfair_map_batch, unfair_sim_model, metric, cfg, x, y)
        kept = states[keep]
        assert divergent == [] and kept.shape == (len(keep), *x.shape)
        assert_array_equal(kept[0], x)
        assert_array_equal(kept[-1], final)
        for k, xk in zip(keep, kept):
            shorter = AttackConfig(
                lam=cfg.lam, num_steps=k, schedule=cfg.schedule, eta=cfg.eta, decay_c=cfg.decay_c, decay_p=cfg.decay_p
            )
            ref, _ = unfair_map_batch(unfair_sim_model, metric, shorter, x, y)
            assert_array_equal(xk, ref)

    def test_frozen_rows_are_kept_after_every_row_diverged(self):
        stub = SplitFieldStub(k=100.0)
        cfg = AttackConfig(lam=0.01, num_steps=400, schedule="constant", eta=0.05)
        x0 = np.array([[1.0], [2.0]])
        final, divergent, states = recorded(
            unfair_map_batch, stub, FairMetric(sigma=np.eye(1)), cfg, x0, np.zeros(2), skip_divergent=True
        )
        kept = states[[0, 200, 400]]
        assert divergent == [0, 1]
        # each row stays at its last iterate within the divergence radius
        for row, start in enumerate(x0[:, 0]):
            x = start
            while True:
                nxt = x + 0.05 * (100.0 * x - 0.01 * (2.0 * (x - start)))
                if abs(nxt - start) > 1e6:
                    break
                x = nxt
            assert final[row, 0] == x
        assert_array_equal(kept[0], x0)
        assert_array_equal(kept[1], final)
        assert_array_equal(kept[2], final)


def _random_mlp(rng, dim, activation, projector=None, hidden=6):
    return MlpModel(
        layer1_weights=rng.normal(size=(hidden, dim)),
        layer1_bias=rng.normal(size=hidden),
        layer2_weights=rng.normal(size=hidden),
        layer2_bias=0.3,
        activation=activation,
        projector=projector,
    )


def _kernel_models():
    """Every model kind the kernel attacks, on 5 features, for a batch of 24 rows."""
    rng = np.random.default_rng(17)
    dim = 5
    u = rng.normal(size=dim)
    proj = np.eye(dim) - np.outer(u, u) / (u @ u)
    return {
        "logistic": LogisticModel(weights=rng.normal(size=dim), bias=0.2),
        "logistic-projected": LogisticModel(weights=rng.normal(size=dim), bias=-0.4, projector=proj),
        "mlp-tanh": _random_mlp(rng, dim, "tanh"),
        "mlp-tanh-projected": _random_mlp(rng, dim, "tanh", proj),
        "mlp-softplus": _random_mlp(rng, dim, "softplus"),
        "mlp-softplus-projected": _random_mlp(rng, dim, "softplus", proj),
        "stacked-logistic": StackedLogistic(weights=rng.normal(size=(24, dim)), bias=rng.normal(size=24)),
    }


KERNEL_MODELS = _kernel_models()


def reference_euler(model, metric, cfg, x0, y, on_step=None):
    """The attack as a plain loop with no buffers: ``x = x + eta * g(x)``, frozen rows kept.

    Returns ``(x_final, divergent)`` and calls ``on_step`` like
    ``unfair_map_batch`` with ``skip_divergent=True``.
    """
    x = x0.copy()
    dead = np.zeros(x0.shape[0], dtype=bool)
    observe = on_step or (lambda k, x: None)
    observe(0, x)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, eta in enumerate(cfg.step_sizes(), start=1):
            x_new = x + eta * flow_field(model, metric, cfg.lam, x, x0, y)
            moved = x_new - x0
            dead |= ~(np.sum(moved * moved, axis=1) <= DIVERGENCE_RADIUS**2)
            x = np.where(dead[:, None], x, x_new)
            observe(k, x)
    return x, np.flatnonzero(dead).tolist()


class TestWorkspaceKernel:
    """The buffered kernel gives exactly the bits of the plain Euler loop."""

    METRIC = FairMetric(sigma=np.diag([1.0, 0.5, 2.0, 0.0, 1.5]))

    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    @pytest.mark.parametrize(
        "cfg",
        [AttackConfig(lam=2.0, num_steps=60, eta=0.02), AttackConfig(lam=5.0, num_steps=40, schedule="decay")],
        ids=["constant", "decay"],
    )
    def test_matches_plain_loop_bitwise(self, name, cfg):
        model = KERNEL_MODELS[name]
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(24, 5))
        y = (rng.random(24) < 0.5).astype(float)
        out, divergent = unfair_map_batch(model, self.METRIC, cfg, x0, y)
        ref, ref_divergent = reference_euler(model, self.METRIC, cfg, x0, y)
        assert divergent == ref_divergent == []
        assert_array_equal(out, ref)

    def test_kept_iterates_match_plain_loop_bitwise(self):
        model = KERNEL_MODELS["mlp-tanh-projected"]
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(24, 5))
        y = (rng.random(24) < 0.5).astype(float)
        cfg = AttackConfig(lam=2.0, num_steps=30, eta=0.03)
        keep = [0, 1, 7, 7, 29, 30]
        out, _, states = recorded(unfair_map_batch, model, self.METRIC, cfg, x0, y)
        ref, _, ref_states = recorded(reference_euler, model, self.METRIC, cfg, x0, y)
        assert_array_equal(out, ref)
        assert_array_equal(states[keep], ref_states[keep])

    def test_frozen_row_matches_plain_loop_bitwise(self):
        # row 1 starts right of the origin and blows up; the others contract
        stub = SplitFieldStub(k=100.0)
        metric = FairMetric(sigma=np.eye(1))
        cfg = AttackConfig(lam=0.01, num_steps=400, schedule="constant", eta=0.05)
        x0 = np.array([[-1.0], [1.5], [-0.25], [-3.0]])
        y = np.zeros(4)
        keep = [0, 100, 400]
        out, divergent, states = recorded(unfair_map_batch, stub, metric, cfg, x0, y, skip_divergent=True)
        ref, ref_divergent, ref_states = recorded(reference_euler, stub, metric, cfg, x0, y)
        assert divergent == ref_divergent == [1]
        assert_array_equal(out, ref)
        assert_array_equal(states[keep], ref_states[keep])
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize(
        "starts, diverged", [([-1.0, 1.5, -0.25], [1]), ([1.0, 2.0], [0, 1])], ids=["one-row", "every-row"]
    )
    def test_on_step_sees_every_step_once_in_order(self, starts, diverged):
        # SplitFieldStub rows right of the origin leave the radius within a few of the 400 steps
        stub = SplitFieldStub(k=100.0)
        metric = FairMetric(sigma=np.eye(1))
        cfg = AttackConfig(lam=0.01, num_steps=400, schedule="constant", eta=0.05)
        x0 = np.array(starts)[:, None]
        y = np.zeros(len(starts))
        seen = []
        out, divergent = unfair_map_batch(
            stub, metric, cfg, x0, y, skip_divergent=True, on_step=lambda k, x: seen.append((k, x.copy()))
        )
        ref, ref_divergent, ref_states = recorded(reference_euler, stub, metric, cfg, x0, y)
        assert divergent == ref_divergent == diverged
        assert [k for k, _ in seen] == list(range(cfg.num_steps + 1))
        assert_array_equal(np.array([x for _, x in seen]), ref_states)
        assert_array_equal(out, ref)

    def test_caller_arrays_are_not_written(self):
        model = KERNEL_MODELS["logistic"]
        x0 = np.random.default_rng(6).normal(size=(8, 5))
        y = np.ones(8)
        x0_before, y_before = x0.copy(), y.copy()
        unfair_map_batch(model, self.METRIC, AttackConfig(lam=1.0, num_steps=20), x0, y)
        assert_array_equal(x0, x0_before)
        assert_array_equal(y, y_before)


class CachedGradientStub(LinearLossStub):
    """Constant gradient, the same array object on every call."""

    def __init__(self, a, rows):
        super().__init__(a)
        self.cached = np.tile(self.a, (rows, 1))

    def input_gradient(self, x, y):
        return self.cached


class ReadOnlyGradient:
    """Wraps a model so that every gradient it returns is read-only."""

    def __init__(self, inner):
        self.inner = inner

    def loss(self, x, y):
        return self.inner.loss(x, y)

    def input_gradient(self, x, y):
        g = self.inner.input_gradient(x, y)
        g.setflags(write=False)
        return g


class TestNoWriteContract:
    """The kernel only reads the array the model's gradient returns."""

    METRIC = FairMetric(sigma=np.array([[2.0, 0.5], [0.5, 1.0]]))
    CFG = AttackConfig(lam=3.0, num_steps=50, eta=0.02)

    def test_read_only_gradient(self):
        model = LogisticModel(weights=np.array([1.5, -0.5]), bias=0.1)
        x0 = np.random.default_rng(8).normal(size=(10, 2))
        y = (np.arange(10) % 2).astype(float)
        out, _ = unfair_map_batch(ReadOnlyGradient(model), self.METRIC, self.CFG, x0, y)
        expected, _ = unfair_map_batch(model, self.METRIC, self.CFG, x0, y)
        assert_array_equal(out, expected)

    def test_cached_gradient_is_left_intact(self):
        x0 = np.random.default_rng(9).normal(size=(10, 2))
        y = np.zeros(10)
        cached = CachedGradientStub([0.7, -1.2], rows=10)
        before = cached.cached.copy()
        out, _ = unfair_map_batch(cached, self.METRIC, self.CFG, x0, y)
        expected, _ = unfair_map_batch(LinearLossStub([0.7, -1.2]), self.METRIC, self.CFG, x0, y)
        assert_array_equal(cached.cached, before)
        assert_array_equal(out, expected)


class TestOutBuffers:
    METRIC = FairMetric(sigma=np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 0.7]]))

    def _points(self):
        rng = np.random.default_rng(10)
        return rng.normal(size=(7, 3)), rng.normal(size=(7, 3))

    def test_distance_gradient_out_batch(self):
        x, x0 = self._points()
        buf = np.full((7, 3), np.nan)
        got = self.METRIC.distance_sq_gradient(x, x0, out=buf)
        assert got is buf
        assert_array_equal(buf, self.METRIC.distance_sq_gradient(x, x0))

    def test_flow_field_out_batch(self):
        rng = np.random.default_rng(11)
        x, x0 = rng.normal(size=(7, 5)), rng.normal(size=(7, 5))
        y = (np.arange(7) % 2).astype(float)
        model = KERNEL_MODELS["mlp-softplus"]
        metric = FairMetric(sigma=np.eye(5))
        buf = np.full((7, 5), np.nan)
        got = flow_field(model, metric, 1.7, x, x0, y, out=buf)
        assert got is buf
        assert_array_equal(buf, flow_field(model, metric, 1.7, x, x0, y))

    def test_flow_field_is_the_two_gradients_combined(self):
        x, x0 = self._points()
        model = LogisticModel(weights=np.array([0.5, -1.0, 2.0]), bias=0.3, projector=np.diag([1.0, 0.0, 1.0]))
        y = np.ones(7)
        expected = model.input_gradient(x, y) - 0.8 * self.METRIC.distance_sq_gradient(x, x0)
        assert_array_equal(flow_field(model, self.METRIC, 0.8, x, x0, y, out=np.empty((7, 3))), expected)


class RowGradientStub:
    """Constant per-row gradient; from call ``bad_from`` on, row ``bad_row`` becomes ``bad_value``."""

    def __init__(self, grad, bad_row=None, bad_value=np.nan, bad_from=1):
        self.grad = np.asarray(grad, dtype=np.float64)
        self.bad_row, self.bad_value, self.bad_from = bad_row, bad_value, bad_from
        self.calls = 0

    def loss(self, x, y):
        return np.ones(len(x))

    def input_gradient(self, x, y):
        self.calls += 1
        g = self.grad.copy()
        if self.bad_row is not None and self.calls >= self.bad_from:
            g[self.bad_row] = self.bad_value
        return g


class TestDivergencePreCheck:
    """Skipping the per-row norm on steps that cannot diverge changes no outcome."""

    DIM = 40
    METRIC = FairMetric(sigma=np.zeros((DIM, DIM)))
    CFG = AttackConfig(lam=1.0, num_steps=8, eta=1.0)

    def far_row_grad(self, rows=4, far=1):
        # row `far` moves 0.1 R per entry each step: at step 2 every entry is 0.2 R < R,
        # yet its norm is 0.2 R sqrt(40) ~ 1.26 R
        g = np.ones((rows, self.DIM))
        g[far] = 0.1 * DIVERGENCE_RADIUS
        return g

    def test_row_past_the_radius_with_every_entry_inside_it_raises(self):
        x0 = np.zeros((4, self.DIM))
        with pytest.raises(DivergenceError, match=r"at step 2 on sample 1$"):
            unfair_map_batch(RowGradientStub(self.far_row_grad()), self.METRIC, self.CFG, x0, np.zeros(4))
        # one step leaves the row at norm 0.63 R, inside the radius
        out, divergent = unfair_map_batch(
            RowGradientStub(self.far_row_grad()), self.METRIC, AttackConfig(lam=1.0, num_steps=1, eta=1.0), x0, np.zeros(4)
        )
        assert divergent == []
        assert np.linalg.norm(out[1]) < DIVERGENCE_RADIUS

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_row_raises_at_its_step(self, value):
        stub = RowGradientStub(np.ones((4, self.DIM)), bad_row=2, bad_value=value, bad_from=3)
        with pytest.raises(DivergenceError, match=r"at step 3 on sample 2$"):
            unfair_map_batch(stub, self.METRIC, self.CFG, np.zeros((4, self.DIM)), np.zeros(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rows_freeze_at_the_reference_loop_steps(self, value):
        def stub():
            # row 1 leaves the radius by its norm at step 2, row 3 turns non-finite at step 5
            return RowGradientStub(self.far_row_grad(rows=5), bad_row=3, bad_value=value, bad_from=5)

        x0 = np.random.default_rng(12).normal(size=(5, self.DIM))
        y = np.zeros(5)
        out, divergent, kept = recorded(unfair_map_batch, stub(), self.METRIC, self.CFG, x0, y, skip_divergent=True)
        ref, ref_divergent, ref_kept = recorded(reference_euler, stub(), self.METRIC, self.CFG, x0, y)
        assert divergent == ref_divergent == [1, 3]
        assert_array_equal(out, ref)
        assert_array_equal(kept, ref_kept)
        assert_array_equal(kept[1:, 1], np.broadcast_to(kept[1, 1], (self.CFG.num_steps, self.DIM)))
        assert_array_equal(kept[4:, 3], np.broadcast_to(kept[4, 3], (self.CFG.num_steps - 3, self.DIM)))

    def test_clean_batch_skips_the_per_row_norm(self, sim_dataset, monkeypatch):
        calls = []
        einsum = np.einsum

        def counting_einsum(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting_einsum)
        x, y = sim_dataset.features, sim_dataset.labels.astype(float)
        rows = x.shape[0]
        model = StackedLogistic(weights=np.tile([3.0, 1.0], (rows, 1)), bias=np.full(rows, 0.5))
        _, divergent = unfair_map_batch(model, rotated_coordinate_metric(0.0), sim_preset(), x, y)
        assert divergent == []
        assert calls == []
        # the counter sees the exact check once a row is frozen
        stub = RowGradientStub(np.ones((3, 2)), bad_row=0, bad_value=np.nan)
        unfair_map_batch(stub, FairMetric(sigma=np.eye(2)), self.CFG, np.zeros((3, 2)), np.zeros(3), skip_divergent=True)
        assert calls == ["ij,ij->i"] * self.CFG.num_steps


class TestTraceEquality:
    @staticmethod
    def trace(num_steps=3, x0=0.1):
        m = LogisticModel(weights=np.array([1.0, -0.5]), bias=0.0)
        cfg = AttackConfig(lam=1.0, num_steps=num_steps, eta=0.1)
        return trace_of_one(m, FairMetric(sigma=np.eye(2)), cfg, np.array([x0, 0.2]), 1.0)

    def test_equal_when_every_field_is(self):
        assert self.trace() == self.trace()
        assert not self.trace() != self.trace()
        assert self.trace() != self.trace(x0=0.3)

    def test_shape_and_none_mismatches_are_unequal(self):
        assert self.trace() != self.trace(num_steps=4)
        assert self.trace() != dataclasses.replace(self.trace(), losses=None)
        assert dataclasses.replace(self.trace(), losses=None) != self.trace()
        with pytest.raises(TypeError):
            hash(self.trace())


class RateStub:
    """Gradient ``y * x``: from a start of ones a row with label ``y`` grows as ``(1 + eta y)^k``."""

    def loss(self, x, y):
        return np.ones(len(x))

    def input_gradient(self, x, y):
        return y[:, None] * x


def _blocked_case():
    """A 1003x40 batch, which the driver attacks in five blocks, and a logistic and a 50-unit tanh MLP model."""
    rng = np.random.default_rng(26)
    n, dim, hidden = 1003, 40, 50
    x = rng.normal(size=(n, dim))
    y = (rng.random(n) < 0.5).astype(float)
    models = {
        "logistic": LogisticModel(weights=rng.normal(scale=0.3, size=dim), bias=0.1),
        "mlp": MlpModel(
            layer1_weights=rng.normal(scale=dim**-0.5, size=(hidden, dim)),
            layer1_bias=rng.normal(scale=0.1, size=hidden),
            layer2_weights=rng.normal(size=hidden),
            layer2_bias=0.2,
        ),
    }
    sigma = np.eye(dim)
    sigma[0, 0] = sigma[1, 1] = 0.0  # the projector off the first two coordinates, as a learned metric has
    return x, y, models, FairMetric(sigma=sigma)


BLOCKED_X, BLOCKED_Y, BLOCKED_MODELS, BLOCKED_METRIC = _blocked_case()
BLOCKED_CFG = AttackConfig(lam=50.0, num_steps=40)


class TestRowBlocks:
    @pytest.mark.parametrize("dim", [1, 2, 40, 200, 1000])
    def test_split_is_balanced_aligned_and_never_below_the_floor(self, dim):
        most = max(BLOCK_BYTES // (8 * dim), BLOCK_FLOOR)
        for n in range(0, 3000):
            blocks = row_blocks(n, dim)
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            sizes = [b.stop - b.start for b in blocks]
            if n < BLOCK_FLOOR:
                assert sizes == [n]
                continue
            assert min(sizes) >= BLOCK_FLOOR
            assert all(b.start % BLOCK_ALIGN == 0 for b in blocks)
            assert max(sizes) - min(sizes) < 2 * BLOCK_ALIGN
            # no fewer blocks than the bytes rule asks for, unless the floor forbids them
            assert len(blocks) == min(-(-n // most), n // BLOCK_FLOOR)

    def test_the_sweeps_and_the_audits_block_sizes(self):
        assert BLOCK_BYTES // (8 * 2) == 4096 and BLOCK_BYTES // (8 * 40) == 204
        assert [b.stop - b.start for b in row_blocks(81 * 400, 2)] == [4048] * 7 + [4064]
        assert [b.stop - b.start for b in row_blocks(1000, 40)] == [192, 192, 208, 192, 216]
        assert [b.stop - b.start for b in row_blocks(BLOCKED_X.shape[0], 40)] == [192, 192, 208, 192, 219]

    @pytest.mark.parametrize("name", sorted(BLOCKED_MODELS))
    def test_every_state_matches_one_state_bitwise(self, name):
        model = BLOCKED_MODELS[name]
        steps = BLOCKED_CFG.num_steps + 1
        states = np.full((steps, *BLOCKED_X.shape), np.nan)
        calls = []

        def record(k, x, rows):
            calls.append((k, rows))
            states[k, rows] = x

        out, divergent = attack_rows(model, BLOCKED_METRIC, BLOCKED_CFG, BLOCKED_X, BLOCKED_Y, on_step=record)
        ref, ref_divergent, ref_states = recorded(unfair_map_batch, model, BLOCKED_METRIC, BLOCKED_CFG, BLOCKED_X, BLOCKED_Y)
        assert calls == [(k, rows) for rows in row_blocks(*BLOCKED_X.shape) for k in range(steps)]
        assert divergent == ref_divergent == []
        assert_array_equal(out, ref)
        assert_array_equal(states, ref_states)
        assert not np.array_equal(ref, BLOCKED_X)

    @pytest.mark.parametrize("name", sorted(BLOCKED_MODELS))
    def test_audit_stopping_sweep_and_robustness_match_one_state_bitwise(self, name, monkeypatch):
        model = BLOCKED_MODELS[name]

        def run():
            report = audit(model, BLOCKED_METRIC, BLOCKED_CFG, BLOCKED_X, BLOCKED_Y, include_error_rate=False)
            stopping = stopping_time_sweep(
                model, BLOCKED_METRIC, BLOCKED_X, BLOCKED_Y, horizons=[0.1, 0.25, 0.4], lam=BLOCKED_CFG.lam
            )
            robustness = robustness_experiment(model, BLOCKED_METRIC, [0.5, 0.0], BLOCKED_X, BLOCKED_Y, BLOCKED_CFG)
            return report, stopping, robustness

        blocked = run()
        # the driver then attacks every batch as one state, as the kernel alone would
        monkeypatch.setattr(attack_module, "row_blocks", lambda n, d: [slice(0, n)])
        whole = run()
        assert_array_equal(blocked[0].ratios, whole[0].ratios)
        assert blocked[0] == whole[0]
        assert blocked[1] == whole[1] and blocked[2] == whole[2]
        assert blocked[2][0][1] > 0.0

    @pytest.mark.parametrize(
        "rates, step, sample",
        [({5: 1.0, 450: 3.0}, 9, 450), ({5: 3.0, 450: 3.0}, 9, 5), ({5: 3.0, 450: 1.0}, 9, 5), ({900: 1.0}, 18, 900)],
        ids=["later-block-earlier-step", "same-step-lower-row", "earlier-block-earlier-step", "last-block"],
    )
    def test_divergence_names_the_earliest_step_over_all_blocks(self, rates, step, sample):
        # from ones at d = 40, rate 1 leaves the radius at step 18 (2^18 sqrt(40) > 1e6) and rate 3 at step 9
        x0, y = np.ones((1000, 40)), np.zeros(1000)
        y[list(rates)] = list(rates.values())
        metric, cfg = FairMetric(sigma=np.zeros((40, 40))), AttackConfig(lam=1.0, num_steps=30, eta=1.0)
        assert len(row_blocks(1000, 40)) == 5
        message = f"^attack diverged at step {step} on sample {sample}$"
        with pytest.raises(DivergenceError, match=message) as blocked:
            attack_rows(RateStub(), metric, cfg, x0, y)
        with pytest.raises(DivergenceError, match=message) as whole:
            unfair_map_batch(RateStub(), metric, cfg, x0, y)
        assert (blocked.value.step, blocked.value.sample) == (whole.value.step, whole.value.sample) == (step, sample)
        out, divergent = attack_rows(RateStub(), metric, cfg, x0, y, skip_divergent=True)
        ref, ref_divergent = unfair_map_batch(RateStub(), metric, cfg, x0, y, skip_divergent=True)
        assert divergent == ref_divergent == sorted(rates)
        assert_array_equal(out, ref)

    def test_nothing_is_observed_past_a_divergence(self):
        x0, y = np.ones((1000, 40)), np.zeros(1000)
        y[450] = 3.0
        seen = []
        with pytest.raises(DivergenceError, match="step 9 on sample 450$"):
            attack_rows(
                RateStub(), FairMetric(sigma=np.zeros((40, 40))), AttackConfig(lam=1.0, num_steps=30, eta=1.0), x0, y,
                on_step=lambda k, x, rows: seen.append((k, rows.start)),
            )
        blocks = row_blocks(1000, 40)
        # the blocks before the divergent one run every step, and the divergent one stops before its step 9
        assert seen == [(k, b.start) for b in blocks[:2] for k in range(31)] + [(k, blocks[2].start) for k in range(9)]

    def test_inputs_are_checked_whole_before_any_block_runs(self, monkeypatch):
        monkeypatch.setattr(attack_module, "unfair_map_batch", lambda *a, **k: pytest.fail("attacked unchecked inputs"))
        x0 = np.zeros((600, 40))
        x0[599, 3] = np.nan
        with pytest.raises(ValueError, match=r"got shapes \(600, 40\) and \(600,\)"):
            attack_rows(RateStub(), FairMetric(sigma=np.eye(40)), BLOCKED_CFG, x0, np.zeros(600))
        with pytest.raises(ValueError, match=r"got shapes \(600, 40\) and \(599,\)"):
            attack_rows(RateStub(), FairMetric(sigma=np.eye(40)), BLOCKED_CFG, np.zeros((600, 40)), np.zeros(599))


def _dense_projector(rng, dim, k=2):
    """The symmetric projector off ``k`` random directions, as a learned metric or a projected model has."""
    u = rng.normal(size=(dim, k))
    proj = np.eye(dim) - u @ np.linalg.solve(u.T @ u, u.T)
    return 0.5 * (proj + proj.T)


def _audit_models():
    """A logistic, a tanh MLP and a softplus MLP on 40 features, each with and without a projector."""
    rng = np.random.default_rng(28)
    dim, hidden = 40, 50
    proj = _dense_projector(rng, dim)
    out = {}
    for tag, p in (("", None), ("-projected", proj)):
        out[f"logistic{tag}"] = LogisticModel(weights=rng.normal(scale=0.3, size=dim), bias=0.1, projector=p)
        for activation in ("tanh", "softplus"):
            out[f"mlp-{activation}{tag}"] = MlpModel(
                layer1_weights=rng.normal(scale=dim**-0.5, size=(hidden, dim)),
                layer1_bias=rng.normal(scale=0.1, size=hidden),
                layer2_weights=rng.normal(size=hidden),
                layer2_bias=0.2,
                activation=activation,
                projector=p,
            )
    return out


AUDIT_MODELS = _audit_models()


class TestChecksOncePerCall:
    """The kernel checks its inputs once per call; its steps run the models' unchecked cores."""

    X, Y = BLOCKED_X[:1000], BLOCKED_Y[:1000]
    METRIC = FairMetric(sigma=_dense_projector(np.random.default_rng(29), 40))

    @pytest.mark.parametrize("name", sorted(AUDIT_MODELS))
    def test_blocks_match_the_public_methods_loop_bitwise(self, name):
        model = AUDIT_MODELS[name]
        cfg = AttackConfig(lam=50.0, num_steps=60)
        out, divergent = attack_rows(model, self.METRIC, cfg, self.X, self.Y)
        assert divergent == []
        assert len(row_blocks(*self.X.shape)) == 5
        for rows in row_blocks(*self.X.shape):
            ref, ref_divergent = reference_euler(model, self.METRIC, cfg, self.X[rows], self.Y[rows])
            assert ref_divergent == []
            assert_array_equal(out[rows], ref)
        assert not np.array_equal(out, self.X)

    def test_label_and_shape_checks_run_once_per_kernel_call(self, monkeypatch):
        from fairaudit import fair_metric, models

        counts = dict.fromkeys(["kernel", "_check_labels", "_as_batch", "_check_points", "_deltas"], 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(attack_module, "unfair_map_batch", counting("kernel", unfair_map_batch))
        for name in ("_check_labels", "_as_batch"):
            monkeypatch.setattr(models, name, counting(name, getattr(models, name)))
        for name in ("_check_points", "_deltas"):
            monkeypatch.setattr(fair_metric.FairMetric, name, counting(name, getattr(fair_metric.FairMetric, name)))
        out, _ = attack_rows(AUDIT_MODELS["logistic"], self.METRIC, audit_preset(), self.X, self.Y)
        assert counts == {"kernel": 5, "_check_labels": 5, "_as_batch": 5, "_check_points": 5, "_deltas": 0}
        counts.update(dict.fromkeys(counts, 0))
        ref, _ = reference_euler(AUDIT_MODELS["logistic"], self.METRIC, audit_preset(), self.X[:192], self.Y[:192])
        # the public methods check on every step
        assert counts["_check_labels"] == counts["_deltas"] == audit_preset().num_steps
        assert_array_equal(out[:192], ref)

    @pytest.mark.parametrize("name", ["logistic", "mlp-tanh"])
    @pytest.mark.parametrize("case", ["labels", "metric-width", "model-width"])
    def test_bad_inputs_raise_the_public_message_before_any_step(self, name, case):
        model, metric, x0, y = AUDIT_MODELS[name], self.METRIC, self.X[:100], self.Y[:100].copy()
        if case == "labels":
            y[7] = 0.5
            public = lambda: model.input_gradient(x0, y)  # noqa: E731
        elif case == "metric-width":
            metric = FairMetric(sigma=np.eye(39))
            public = lambda: metric.distance_sq_gradient(x0, x0)  # noqa: E731
        else:
            x0 = np.hstack([x0, x0[:, :1]])
            metric = FairMetric(sigma=np.eye(41))
            public = lambda: model.input_gradient(x0, y)  # noqa: E731
        with pytest.raises(ValueError) as expected:
            public()
        with pytest.raises(ValueError) as got:
            attack_rows(model, metric, audit_preset(), x0, y, on_step=lambda k, x, rows: pytest.fail("a step ran"))
        assert str(got.value) == str(expected.value)
        assert ("labels must be 0 or 1" in str(got.value)) == (case == "labels")
