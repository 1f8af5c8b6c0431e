"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failed assertion marks the criterion red.
"""

import json
import math

import numpy as np
import pytest

from fairaudit import attack, cli, inference, sim
from fairaudit.dataset import Dataset
from fairaudit.fair_metric import (
    SubspaceSpec,
    learn_sensitive_metric,
    misspecification_level,
    rotated_coordinate_metric,
)
from fairaudit.models import LogisticModel, TrainConfig, train
from test_attack import trace_of_one


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def test_criterion_01_euler_global_stability():
    """Scalar decay flow: exact gap value, global bound, first-order scaling."""
    problem = attack.LinearFlowProblem(a=np.array([[-1.0]]), c=np.zeros(1), x0=np.ones(1))
    probe = attack.StabilityProbe(lipschitz_L=1.0, curvature_m=1.0, dim_d=1, max_step_h=0.1)
    gap = attack.stability_gap(probe, problem, attack.AttackConfig(lam=1.0, num_steps=10, eta=0.1))
    expected = abs(math.exp(-1.0) - 0.9**10)
    assert gap == pytest.approx(expected, abs=1e-6)
    assert gap == pytest.approx(0.01920, abs=1e-5)
    bound = probe.bound(1.0, 0.1)
    assert gap <= bound <= 0.08592
    half = attack.stability_gap(
        attack.StabilityProbe(1.0, 1.0, 1, 0.05), problem, attack.AttackConfig(lam=1.0, num_steps=20, eta=0.05)
    )
    assert 1.6 <= gap / half <= 2.4
    report(f"1 PASS: Euler gap {gap:.6f} == |e^-1 - 0.9^10| within 1e-6, <= bound {bound:.5f}, halving ratio {gap/half:.3f}")


def test_criterion_02_loss_ratio_monotonicity():
    """Every per-sample ratio from a 1000-point audited draw stays >= 1 - 1e-9."""
    ds = sim.generate(sim.SimConfig(n_samples=1000, seed=3))
    b = sim.fit_bias(ds.features, ds.labels, 4.0, 0.0)
    model = LogisticModel(weights=np.array([4.0, 0.0]), bias=b)
    attacked, divergent = attack.unfair_map_batch(
        model, rotated_coordinate_metric(0.0), attack.sim_preset(), ds.features, ds.labels
    )
    assert divergent == []
    ratios = model.loss(attacked, ds.labels) / model.loss(ds.features, ds.labels)
    assert ratios.shape == (1000,)
    assert float(np.min(ratios)) >= 1.0 - 1e-9
    report(f"2 PASS: min per-sample ratio {float(np.min(ratios)):.12f} >= 1 - 1e-9 over 1000 samples")


def test_criterion_03_statistic_arithmetic():
    """Frozen arithmetic for both test statistics on the pinned fixtures."""
    s_n, v_n = inference.loss_ratio_stats([1.0, 2.0, 3.0])
    assert s_n == 2.0
    assert v_n == pytest.approx(1.0, abs=1e-12)
    t_n, reject = inference.loss_ratio_test([1.0, 2.0, 3.0], alpha=0.05, delta=1.25)
    assert t_n == pytest.approx(1.0503, abs=1e-4)
    assert reject is False
    lo, hi = inference.two_sided_ci([1.0, 2.0, 3.0], alpha=0.05)
    assert lo == pytest.approx(0.8684, abs=1e-4)
    assert hi == pytest.approx(3.1316, abs=1e-4)
    stats = inference.error_rate_stats([1, 1, 0, 1], [1, 0, 0, 1])
    assert stats.s_tilde == 1.5
    t_tilde, _ = inference.error_rate_test([1, 1, 0, 1], [1, 0, 0, 1], alpha=0.05, delta=1.25)
    assert t_tilde == pytest.approx(0.4928, abs=1e-4)
    report(f"3 PASS: S_n=2 V_n=1 T_n={t_n:.5f} CI=[{lo:.5f},{hi:.5f}] S~=1.5 T~={t_tilde:.5f}")


def test_criterion_04_delta_variance_quadratic_identity():
    """Uncentered second-moment form equals the centered covariance form."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 80))
        post = (rng.random(n) < rng.uniform(0.2, 0.9)).astype(float)
        pre = (rng.random(n) < rng.uniform(0.2, 0.9)).astype(float)
        if pre.mean() == 0.0:
            pre[0] = 1.0
        a, b = post.mean(), pre.mean()
        raw = (
            a * a * (pre * pre).mean()
            + b * b * (post * post).mean()
            - 2 * a * b * (post * pre).mean()
        )
        centered = (
            a * a * ((pre - b) ** 2).mean()
            + b * b * ((post - a) ** 2).mean()
            - 2 * a * b * ((post - a) * (pre - b)).mean()
        )
        worst = max(worst, abs(raw - centered))
        assert abs(raw - centered) < 1e-12
        assert inference.error_rate_stats(post, pre).var_hat == pytest.approx(centered / (n * b**4), rel=1e-9, abs=1e-13)
    report(f"4 PASS: quadratic-form identity holds on 100 random 0-1 pairs (worst gap {worst:.2e})")


def test_criterion_05_coverage_and_test_calibration():
    """Coverage of the two-sided CI and Type I / power control of the one-sided test."""
    n, alpha, delta = 500, 0.05, 1.25
    coverage, oracle = sim.coverage_experiment(
        sim.RatioPopulation(mean=2.0), n=n, replicates=1000, alpha=alpha, seed=1
    )
    assert 0.93 <= coverage.rate <= 0.97
    type1 = sim.rejection_rate_experiment(
        sim.RatioPopulation(mean=delta), delta, n=n, replicates=200, alpha=alpha, seed=2
    )
    se = math.sqrt(alpha * (1 - alpha) / 200)
    assert type1.rate <= alpha + 2 * se
    sd = 0.5
    power = sim.rejection_rate_experiment(
        sim.RatioPopulation(mean=delta + 5 * sd / math.sqrt(n)), delta, n=n, replicates=200, alpha=alpha, seed=3, name="power"
    )
    assert power.rate >= 0.99
    report(
        f"5 PASS: coverage {coverage.rate:.3f} in [0.93,0.97] (oracle mean {oracle:.5f}), "
        f"type-I {type1.rate:.3f} <= {alpha + 2*se:.4f}, power {power.rate:.3f} >= 0.99"
    )


def test_criterion_06_heatmap_reproduction(default_sweep, mirror_sweep_pair, symmetric_sweep_large):
    """Structure of the coefficient-grid audit under the correct metric."""
    assert len(default_sweep) == 441
    zero_column = [c for c in default_sweep if c.theta1 == 0.0]
    assert len(zero_column) == 21 and not any(c.reject for c in zero_column)
    edge = [c for c in default_sweep if abs(c.theta1) == 4.0]
    assert len(edge) == 42 and all(c.reject for c in edge)
    by_cell = {(c.theta1, c.theta2): c for c in default_sweep}
    w = sorted({c.theta1 for c in default_sweep})
    boundaries = []
    for w2 in w:
        rejected = [abs(c.theta1) for c in default_sweep if c.theta2 == w2 and c.reject]
        assert rejected, f"no rejection in the theta2={w2} column"
        boundaries.append(min(rejected))
    assert 0.4 <= min(boundaries) and max(boundaries) <= 3.0
    # sign symmetry: exact under mirroring, approximate on a balanced large draw
    orig, refl = mirror_sweep_pair
    for (w1, w2), t in orig.items():
        assert refl[(-w1, w2)] == t
    rel = 0.0
    for (w1, w2), t in symmetric_sweep_large.items():
        if w1 > 0:
            other = symmetric_sweep_large[(-w1, w2)]
            rel = max(rel, abs(t - other) / max(t, other))
    assert rel <= 0.15
    report(
        f"6 PASS: 441 cells; theta1=0 column never rejects; all |theta1|=4 reject; "
        f"boundary in [{min(boundaries)},{max(boundaries)}] within [0.4,3.0]; mirror-exact symmetry, "
        f"balanced-draw asymmetry {rel:.3f} <= 0.15"
    )


def test_criterion_07_metric_misspecification_flip(sim_dataset):
    """A ten-degree metric rotation flips high-|theta2| cells while (0,0) stays accepted."""
    x, y = sim_dataset.features, sim_dataset.labels
    cfg = attack.AttackConfig(lam=100.0, num_steps=2000, schedule="constant", eta=0.01)

    def decide(w1, w2, beta_deg):
        b = sim.fit_bias(x, y, w1, w2)
        model = LogisticModel(weights=np.array([w1, w2]), bias=b)
        metric = rotated_coordinate_metric(math.radians(beta_deg))
        attacked, _ = attack.unfair_map_batch(model, metric, cfg, x, y)
        ratios = model.loss(attacked, y) / model.loss(x, y)
        return inference.loss_ratio_test(ratios, 0.05, 1.25)

    flipped = []
    for w2 in (3.0, -3.0, 4.0, -4.0):
        _, reject_true_metric = decide(0.0, w2, 0.0)
        t_mis, reject_mis = decide(0.0, w2, 10.0)
        assert not reject_true_metric  # correctly-specified metric accepts the whole column
        if reject_mis:
            flipped.append((w2, t_mis))
    assert flipped, "no high-|theta2| cell rejected under the rotated metric"
    _, reject_origin = decide(0.0, 0.0, 10.0)
    assert not reject_origin
    report(
        f"7 PASS: cells flipped to reject at beta=10deg: {[(w, round(t, 2)) for w, t in flipped]}; "
        f"(0,0) still accepted; same cells accepted at beta=0"
    )


def test_criterion_08_robustness_ladder_and_bound(sim_dataset, unfair_sim_model):
    """Ratio gaps shrink with the metric perturbation and respect the analytic cap."""
    rows = sim.robustness_experiment(
        unfair_sim_model,
        rotated_coordinate_metric(0.0),
        [1e-2, 1e-4, 1e-6, 0.0],
        sim_dataset.features,
        sim_dataset.labels,
        attack.sim_preset(),
        perturb_seed=0,
    )
    gaps = dict(rows)
    assert gaps[0.0] == 0.0
    assert gaps[1e-2] > gaps[1e-4] > gaps[1e-6] > 0.0

    # analytic cap on a linear-loss instance where every constant is computable
    class ShiftedLinearLoss:
        def __init__(self, a, offset):
            self.a = np.asarray(a, dtype=np.float64)
            self.offset = offset

        def loss(self, x, y):
            return np.asarray(x, dtype=np.float64) @ self.a + self.offset

        def input_gradient(self, x, y):
            return np.tile(self.a, (len(x), 1))

    a = np.array([0.8, -0.5])
    lam, horizon = 0.5, 1.0
    stub = ShiftedLinearLoss(a, offset=5.0)
    m1 = rotated_coordinate_metric(0.0)
    sigma2 = sim.floor_psd(m1.sigma + 1e-3 * sim.perturbation_direction(2, seed=1))
    m2 = type(m1)(sigma=sigma2)
    cfg = attack.AttackConfig(lam=lam, num_steps=4000, schedule="constant", eta=horizon / 4000)
    x0 = np.array([0.2, 0.1])
    tr1, tr2 = (trace_of_one(stub, m, cfg, x0, 1.0) for m in (m1, m2))
    observed = abs(tr1.losses[-1, 0] / tr1.losses[0, 0] - tr2.losses[-1, 0] / tr2.losses[0, 0])
    pts = np.vstack([tr1.iterates[::40, 0], tr2.iterates[::40, 0]])
    diameter = float(np.max(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)))
    lipschitz = 2.0 * lam * max(np.linalg.norm(m1.sigma, 2), np.linalg.norm(m2.sigma, 2))
    bound = sim.robustness_gap_bound(
        lam=lam,
        delta_d=misspecification_level(m1, m2),
        lipschitz_l=lipschitz,
        loss_lipschitz=float(np.linalg.norm(a)),
        diameter=diameter,
        horizon=cfg.horizon,
        loss_floor=float(min(tr1.losses.min(), tr2.losses.min())),
    )
    assert observed <= bound
    report(
        f"8 PASS: ladder {[(s, float(f'{g:.3e}')) for s, g in rows]} strictly decreasing to 0; "
        f"linear instance gap {observed:.3e} <= bound {bound:.3e}"
    )


def test_criterion_09_learned_metric_projector_contract():
    """Learned sensitive metric is a projector and kills every learned direction."""
    rng = np.random.default_rng(23)
    n = 800
    x = rng.normal(size=(n, 5))
    protected = {
        "p": (x[:, 0] + 0.3 * x[:, 1] > 0).astype(int),
        "q": (x[:, 2] > 0).astype(int),
    }
    ds = Dataset(
        feature_names=("a", "b", "c", "d", "e"),
        features=x,
        labels=(rng.random(n) < 0.5).astype(int),
        protected=protected,
    )
    cfg = TrainConfig(learning_rate=0.5, batch_size=64, num_steps=3000, seed=0)
    metric = learn_sensitive_metric(ds, SubspaceSpec(("p", "q")), cfg)
    p = metric.sigma
    assert np.max(np.abs(p @ p - p)) < 1e-10
    probe = rng.normal(size=5)
    rel = []
    for name in ("p", "q"):
        w = train(x, protected[name], "logistic", cfg).weights  # deterministic refit recovers the direction
        rel.append(metric.distance_sq(probe[None, :], (probe + w)[None, :])[0] / float(w @ w))
        assert rel[-1] <= 1e-8
    report(f"9 PASS: ||P^2-P||max {np.max(np.abs(p @ p - p)):.2e} < 1e-10; relative span distances {[f'{r:.2e}' for r in rel]}")


def test_criterion_10_gradient_fidelity():
    """Analytic input gradients match central finite differences at 1e-5 relative."""
    rng = np.random.default_rng(31)
    data_x = rng.normal(size=(80, 3))
    data_y = (rng.random(80) < 0.5).astype(int)
    archs = {
        "logistic": train(data_x, data_y, "logistic", TrainConfig(num_steps=200, seed=1)),
        "mlp-tanh": train(data_x, data_y, "mlp", TrainConfig(num_steps=200, seed=2, hidden_units=11, activation="tanh")),
        "mlp-softplus": train(
            data_x, data_y, "mlp", TrainConfig(num_steps=200, seed=3, hidden_units=11, activation="softplus")
        ),
    }
    worst = {}
    for name, model in archs.items():
        errs = []
        for _ in range(20):
            xx = rng.uniform(-1.5, 1.5, 3)
            yy = float(rng.integers(0, 2))
            g = model.input_gradient(xx[None, :], yy)[0]
            fd = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = 1e-5
                fd[j] = (model.loss((xx + e)[None, :], yy)[0] - model.loss((xx - e)[None, :], yy)[0]) / 2e-5
            errs.append(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12))
        worst[name] = max(errs)
        assert worst[name] < 1e-5
    report("10 PASS: max FD relative errors " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_11_cli_determinism(tmp_path):
    """simulate, sweep and audit produce byte-identical outputs on reruns."""
    def run(cmd, doc, name):
        cfg = tmp_path / name
        cfg.write_text(json.dumps(doc))
        code = cli.main([cmd, "--config", str(cfg)])
        assert code in (0, 3)

    data = tmp_path / "data.csv"
    sim_doc = {"n_samples": 120, "seed": 9, "data_output": str(data)}
    run("simulate", sim_doc, "sim.json")
    first_data = data.read_bytes()
    run("simulate", sim_doc, "sim.json")
    assert data.read_bytes() == first_data

    from fairaudit.models import save_model

    ds = sim.generate(sim.SimConfig(n_samples=120, seed=9))
    b = sim.fit_bias(ds.features, ds.labels, 4.0, 0.0)
    model_path = tmp_path / "model.json"
    save_model(LogisticModel(weights=np.array([4.0, 0.0]), bias=b), model_path)
    metric_path = tmp_path / "metric.json"
    run("metric", {"type": "rotated", "beta_degrees": 0.0, "metric_output": str(metric_path)}, "metric.json.cfg")

    heat = tmp_path / "heat.csv"
    sweep_doc = {
        "data": str(data),
        "label_column": "label",
        "protected_columns": ["group"],
        "w1_min": -2.0,
        "w1_max": 2.0,
        "w1_step": 2.0,
        "w2_min": -2.0,
        "w2_max": 2.0,
        "w2_step": 2.0,
        "output": str(heat),
    }
    run("sweep", sweep_doc, "sweep.json")
    first_heat = heat.read_bytes()
    run("sweep", sweep_doc, "sweep.json")
    assert heat.read_bytes() == first_heat

    rep = tmp_path / "report.json"
    audit_doc = {
        "model": str(model_path),
        "metric": str(metric_path),
        "data": str(data),
        "label_column": "label",
        "protected_columns": ["group"],
        "report_output": str(rep),
    }
    run("audit", audit_doc, "audit.json")
    first_rep = rep.read_bytes()
    run("audit", audit_doc, "audit.json")
    assert rep.read_bytes() == first_rep
    report("11 PASS: simulate, sweep and audit reruns are byte-identical")
