import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from fairaudit import attack, inference, sim
from fairaudit.dataset import split_csv, write_csv
from fairaudit.fair_metric import FairMetric
from fairaudit.models import LogisticModel, TrainConfig, expit, logit


def csv_text(tmp_path, header, rows) -> str:
    """The text ``write_csv`` writes for ``header`` and ``rows``."""
    path = tmp_path / "out.csv"
    write_csv(path, header, rows)
    return path.read_text()


class TestGenerate:
    def test_group_frequency(self):
        ds = sim.generate(sim.SimConfig(n_samples=4000, seed=21))
        assert abs(ds.protected["group"].mean() - 0.1) <= 0.015

    def test_group_means(self):
        ds = sim.generate(sim.SimConfig(n_samples=4000, seed=21))
        g = ds.protected["group"]
        mean0 = ds.features[g == 0].mean(axis=0)
        mean1 = ds.features[g == 1].mean(axis=0)
        assert np.all(np.abs(mean0 - np.array([-1.5, 0.0])) <= 0.02)
        assert np.all(np.abs(mean1 - np.array([1.5, 0.0])) <= 0.05)  # ~400 minority draws

    def test_both_labels_present_with_balanced_split_within_groups(self):
        ds = sim.generate(sim.SimConfig(n_samples=4000, seed=21))
        g = ds.protected["group"]
        for gv in (0, 1):
            frac = ds.labels[g == gv].mean()
            assert 0.4 <= frac <= 0.6

    def test_boundary_points_get_label_zero(self):
        cfg = sim.SimConfig(label_noise_var=0.0)
        # exactly on the centered hyperplane: margin 0 fails the strict inequality
        x_centered = np.array([[-1.5, 0.0]])
        assert sim.assign_labels(cfg, x_centered, [0]) [0] == 0
        # on the uncentered hyperplane through the origin the margin is -0.3
        x_origin = np.array([[-0.05, 1.0]])  # w0 . x = 0 for w0 = (-0.2, -0.01)
        assert np.isclose(np.dot([-0.2, -0.01], x_origin[0]), 0.0)
        assert sim.assign_labels(cfg, x_origin, [0])[0] == 0

    def test_seed_determinism_bytes(self):
        a = sim.generate(sim.SimConfig(seed=5))
        b = sim.generate(sim.SimConfig(seed=5))
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.protected["group"].tobytes() == b.protected["group"].tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sim.SimConfig(n_samples=0)
        with pytest.raises(ValueError):
            sim.SimConfig(minority_prob=1.5)


class TestFitBias:
    def test_zero_coefficients_give_log_odds(self, sim_dataset):
        x, y = sim_dataset.features, sim_dataset.labels
        b = sim.fit_bias(x, y, 0.0, 0.0)
        assert b == pytest.approx(logit(float(np.mean(y))), abs=1e-6)

    def test_balanced_symmetric_labels_give_zero(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 1.0], [-2.0, -1.0]])
        y = np.array([1, 0, 1, 0])
        assert sim.fit_bias(x, y, 0.0, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_local_optimality(self, sim_dataset):
        x, y = sim_dataset.features, sim_dataset.labels
        b = sim.fit_bias(x, y, 1.2, -0.8)
        s = x[:, 0] * 1.2 + x[:, 1] * -0.8

        def total_loss(bias):
            u = (1.0 - 2.0 * y) * (bias + s)
            return float(np.sum(np.logaddexp(0.0, u)))

        assert total_loss(b) <= total_loss(b + 1e-3)
        assert total_loss(b) <= total_loss(b - 1e-3)

    def test_gradient_residual_below_contract(self, sim_dataset):
        from fairaudit.models import expit

        x, y = sim_dataset.features, sim_dataset.labels
        for w1, w2 in [(-4.0, -4.0), (-1.2, 3.6), (0.0, 0.4), (2.8, -2.0), (4.0, 4.0)]:
            b = sim.fit_bias(x, y, w1, w2)
            s = x[:, 0] * w1 + x[:, 1] * w2
            residual = abs(float(np.sum(expit(b + s) - y)))
            assert residual < 1e-8

    def test_single_label_datasets_clamp(self):
        x = np.zeros((5, 2))
        assert sim.fit_bias(x, np.ones(5), 1.0, 1.0) == 50.0
        assert sim.fit_bias(x, np.zeros(5), 1.0, 1.0) == -50.0

    @pytest.mark.parametrize("n_labels, caller", [(1, "fit_bias"), (5, "fit_bias"), (7, "fit_bias"), (5, "sweep_heatmap")])
    def test_labels_must_match_the_rows(self, monkeypatch, true_metric, n_labels, caller):
        def no_call(*args, **kwargs):
            raise AssertionError("fitted or attacked before checking the labels")

        x = np.random.default_rng(0).normal(size=(6, 2))
        y = np.tile([0.0, 1.0], 4)[:n_labels]
        with pytest.raises(ValueError, match=rf"labels must be of shape \(6,\) for 6 rows, got shape \({n_labels},\)"):
            if caller == "fit_bias":
                sim.fit_bias(x, y, 1.0, 0.0)
            else:
                monkeypatch.setattr(sim, "fit_bias", no_call)
                monkeypatch.setattr(attack, "unfair_map_batch", no_call)
                sim.sweep_heatmap(x, y, sim.GridSpec((0.0, 1.0), (0.0,)), true_metric, attack.sim_preset())


class TestGridSpec:
    def test_default_grid_is_21_by_21(self):
        grid = sim.GridSpec.default()
        assert len(grid.w1_values) == 21 and len(grid.w2_values) == 21
        assert grid.w1_values[0] == -4.0 and grid.w1_values[-1] == 4.0
        assert grid.w1_values[1] == pytest.approx(-3.6)

    def test_range_validation(self):
        # a non-positive step, a reversed range, and a range whose step count overflows
        for lo, hi, step in [(0.0, 1.0, 0.0), (1.0, 0.0, 0.5), (-1e308, 1e308, 0.4)]:
            with pytest.raises(ValueError, match=re.escape(f"min {lo!r}, max {hi!r}, step {step!r}")):
                sim.GridSpec.from_range(lo, hi, step)

    def test_range_allows_up_to_the_limit(self):
        # one value more exits 10 (test_cli.py test_unbuildable_grid_exits_10_naming_its_axis)
        assert len(sim.GridSpec.from_range(0.0, sim.MAX_GRID_VALUES - 1.0, 1.0)) == sim.MAX_GRID_VALUES

    def test_range_stops_at_the_last_full_step(self):
        # a last partial step of half a step or more must not round the count up past hi
        assert sim.GridSpec.from_range(0.0, 1.0, 0.6) == (0.0, 0.6)
        assert sim.GridSpec.from_range(0.0, 1.5, 1.0) == (0.0, 1.0)
        assert sim.GridSpec.from_range(0.0, 2.5, 1.0) == (0.0, 1.0, 2.0)

    def test_range_keeps_hi_under_float_noise(self):
        # 0.3 / 0.1 == 2.9999999999999996
        vals = sim.GridSpec.from_range(0.0, 0.3, 0.1)
        assert len(vals) == 4 and vals[-1] == 0.3

    def test_range_never_passes_hi(self):
        for lo in (-4.0, -1.0, 0.0, 0.25):
            for span in (0.0, 0.3, 1.0, 1.7, 2.5, 8.0):
                for step in (0.1, 0.25, 0.4, 0.6, 1.0, 3.0):
                    hi = round(lo + span, 9)
                    vals = sim.GridSpec.from_range(lo, hi, step)
                    assert vals[0] == lo
                    assert max(vals) <= hi
                    assert vals[-1] + step > hi
        with pytest.raises(ValueError):
            sim.GridSpec(w1_values=(), w2_values=(1.0,))


class TestSweep:
    def test_cells_in_row_major_order(self, default_sweep):
        grid = sim.GridSpec.default()
        expected = [(w1, w2) for w1 in grid.w1_values for w2 in grid.w2_values]
        assert [(c.theta1, c.theta2) for c in default_sweep] == expected

    def test_insensitive_column_never_rejects(self, default_sweep):
        assert not any(c.reject for c in default_sweep if c.theta1 == 0.0)

    def test_statistic_grows_with_first_coordinate_dependence(self, default_sweep):
        by_cell = {(c.theta1, c.theta2): c.t_n for c in default_sweep}
        w = sorted({c.theta1 for c in default_sweep})
        for w2 in w:
            for branch in ([v for v in w if v >= 0], [v for v in reversed(w) if v <= 0]):
                ts = [by_cell[(w1, w2)] for w1 in branch]
                # non-decreasing in |theta1| allowing one-grid-step wiggle
                for i in range(2, len(ts)):
                    assert ts[i] >= ts[i - 2] - 1e-9

    def test_no_divergent_cells_with_preset(self, default_sweep):
        assert not any(c.divergent for c in default_sweep)

    def test_mirror_reflection_swaps_sign_exactly(self, mirror_sweep_pair):
        orig, refl = mirror_sweep_pair
        for (w1, w2), t in orig.items():
            assert refl[(-w1, w2)] == t

    def test_sign_symmetry_on_balanced_generator(self, symmetric_sweep_large):
        tn = symmetric_sweep_large
        for (w1, w2), t in tn.items():
            if w1 <= 0:
                continue
            other = tn[(-w1, w2)]
            assert abs(t - other) / max(t, other) <= 0.15

    def test_divergent_cells_flagged_not_fatal(self, sim_dataset, true_metric):
        # far beyond the stable step for lam=100, so penalized cells blow up
        cfg = attack.AttackConfig(lam=100.0, num_steps=200, schedule="constant", eta=0.05)
        grid = sim.GridSpec(w1_values=(0.0, 2.0), w2_values=(0.0, 2.0))
        cells = sim.sweep_heatmap(sim_dataset.features, sim_dataset.labels, grid, true_metric, cfg)
        assert any(c.divergent for c in cells)
        for c in cells:
            if c.divergent:
                assert math.isnan(c.t_n) and c.reject is False

    def test_csv_layout(self, sim_dataset, true_metric, tmp_path):
        grid = sim.GridSpec(w1_values=(0.0,), w2_values=(0.0, 1.0))
        cells = sim.sweep_heatmap(sim_dataset.features, sim_dataset.labels, grid, true_metric, attack.sim_preset())
        lines = csv_text(tmp_path, sim.HeatmapCell._fields, cells).strip().split("\n")
        assert lines[0] == "theta1,theta2,fitted_bias,t_n,reject,divergent"
        assert len(lines) == 3


class TestStoppingTimeSweep:
    def test_zero_horizon_is_the_unattacked_statistic(self, sim_dataset, true_metric, unfair_sim_model):
        rows = sim.stopping_time_sweep(
            unfair_sim_model, true_metric, sim_dataset.features, sim_dataset.labels, [0.0, 0.5]
        )
        assert rows[0][0] == 0.0
        assert rows[0][1] == 1.0

    def test_fair_model_stays_under_tolerance_for_all_horizons(self, sim_dataset, true_metric):
        b = sim.fit_bias(sim_dataset.features, sim_dataset.labels, 0.0, -2.0)
        fair = LogisticModel(weights=np.array([0.0, -2.0]), bias=b)
        rows = sim.stopping_time_sweep(
            fair, true_metric, sim_dataset.features, sim_dataset.labels, [0.0, 0.1, 0.5, 2.0, 10.0, 20.0]
        )
        assert max(t for _, t in rows) < 1.25

    def test_unfair_model_crosses_and_is_monotone(self, sim_dataset, true_metric, unfair_sim_model):
        rows = sim.stopping_time_sweep(
            unfair_sim_model, true_metric, sim_dataset.features, sim_dataset.labels, [0.0, 0.1, 0.5, 2.0, 10.0]
        )
        ts = [t for _, t in rows]
        assert any(t > 1.25 for t in ts)
        assert all(b >= a - 1e-6 for a, b in zip(ts, ts[1:]))

    def test_horizons_must_be_sorted(self, sim_dataset, true_metric, unfair_sim_model):
        with pytest.raises(ValueError, match="non-decreasing"):
            sim.stopping_time_sweep(
                unfair_sim_model, true_metric, sim_dataset.features, sim_dataset.labels, [1.0, 0.5]
            )

    @pytest.mark.parametrize(
        "horizons, message",
        [
            ([], "horizons must be non-empty"),
            ([-1.0, 0.5], "horizons must be non-negative and non-decreasing"),
        ],
    )
    def test_bad_horizons_named_by_cause(self, sim_dataset, true_metric, unfair_sim_model, horizons, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sim.stopping_time_sweep(unfair_sim_model, true_metric, sim_dataset.features, sim_dataset.labels, horizons)


class TestRobustness:
    def test_ladder_vanishes_with_the_perturbation(self, sim_dataset, true_metric, unfair_sim_model):
        rows = sim.robustness_experiment(
            unfair_sim_model,
            true_metric,
            [1e-2, 1e-4, 1e-6, 0.0],
            sim_dataset.features,
            sim_dataset.labels,
            attack.sim_preset(),
        )
        gaps = [g for _, g in rows]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        assert gaps[3] == 0.0

    def test_unattacked_loss_computed_once(self, sim_dataset, true_metric, unfair_sim_model):
        x, y = sim_dataset.features[:40], sim_dataset.labels[:40]
        clean_calls = []

        class CountingModel:
            def __getattr__(self, name):
                return getattr(unfair_sim_model, name)

            def loss(self, xs, ys):
                clean_calls.append(np.array_equal(xs, x))
                return unfair_sim_model.loss(xs, ys)

        sim.robustness_experiment(CountingModel(), true_metric, [1e-2, 1e-4, 0.0], x, y, attack.sim_preset())
        assert sum(clean_calls) == 1

    def test_attacks_once_per_positive_scale(self, sim_dataset, true_metric, unfair_sim_model, monkeypatch):
        calls = []
        attack_fn = attack.unfair_map_batch
        monkeypatch.setattr(attack, "unfair_map_batch", lambda *a, **k: calls.append(a[1]) or attack_fn(*a, **k))
        x, y = sim_dataset.features[:40], sim_dataset.labels[:40]
        rows = sim.robustness_experiment(unfair_sim_model, true_metric, [1e-2, 1e-4, 0.0], x, y, attack.sim_preset())
        assert len(calls) == 3 and calls[0] is true_metric
        assert rows[-1] == (0.0, 0.0)

    def test_empty_ladder_rejected_before_any_attack(self, sim_dataset, true_metric, unfair_sim_model, monkeypatch):
        def no_attack(*args, **kwargs):
            raise AssertionError("attacked an empty ladder")

        monkeypatch.setattr(attack, "unfair_map_batch", no_attack)
        x, y = sim_dataset.features[:40], sim_dataset.labels[:40]
        with pytest.raises(ValueError, match="^perturbation_scales must be non-empty$"):
            sim.robustness_experiment(unfair_sim_model, true_metric, [], x, y, attack.sim_preset())

    def test_scales_must_decrease(self, sim_dataset, true_metric, unfair_sim_model):
        with pytest.raises(ValueError, match="decreasing"):
            sim.robustness_experiment(
                unfair_sim_model, true_metric, [1e-6, 1e-4], sim_dataset.features, sim_dataset.labels, attack.sim_preset()
            )

    def test_floor_psd_clips_negative_eigenvalues(self):
        fixed = sim.floor_psd(np.array([[1.0, 0.0], [0.0, -0.5]]))
        evals = np.linalg.eigvalsh(fixed)
        assert np.min(evals) >= -1e-15
        assert fixed[0, 0] == pytest.approx(1.0)

    def test_perturbation_direction_is_fixed_and_unit_norm(self):
        e1 = sim.perturbation_direction(3, seed=0)
        e2 = sim.perturbation_direction(3, seed=0)
        assert_array_equal(e1, e2)
        assert np.linalg.norm(e1, 2) == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(e1 - e1.T)) == 0.0


class TestComparisonMetrics:
    def test_perfect_predictions(self):
        assert sim.balanced_accuracy([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0

    def test_constant_predictor_scores_half(self):
        assert sim.balanced_accuracy([0, 0, 1, 1], [1, 1, 1, 1]) == 0.5

    def test_hand_counted_recalls(self):
        assert sim.balanced_accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.75)

    def test_missing_class_is_an_error(self):
        with pytest.raises(ValueError, match="class"):
            sim.balanced_accuracy([1, 1, 1], [1, 0, 1])

    def test_aod_zero_for_identical_group_rates(self):
        y_true = [1, 1, 0, 0, 1, 1, 0, 0]
        y_pred = [1, 0, 1, 0, 1, 0, 1, 0]
        group = [0, 0, 0, 0, 1, 1, 1, 1]
        assert sim.average_odds_difference(y_true, y_pred, group) == 0.0

    def test_aod_zero_for_perfect_predictions(self):
        y_true = [1, 0, 1, 0]
        assert sim.average_odds_difference(y_true, y_true, [0, 0, 1, 1]) == 0.0

    def test_aod_cancellation_case(self):
        # group 1: TPR 1.0, FPR 0.0; group 0: TPR 0.5, FPR 0.5
        y_true = [1, 1, 0, 0, 1, 1, 0, 0]
        y_pred = [1, 1, 0, 0, 1, 0, 1, 0]
        group = [1, 1, 1, 1, 0, 0, 0, 0]
        assert sim.average_odds_difference(y_true, y_pred, group) == pytest.approx(0.0)

    def test_aod_empty_stratum_is_an_error(self):
        with pytest.raises(ValueError, match="stratum"):
            sim.average_odds_difference([1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0])


class TestCalibrationHelpers:
    def test_population_mean_and_support(self):
        pop = sim.RatioPopulation(mean=1.25, sd=0.5, shape=4.0)
        draws = pop.sample(np.random.default_rng(0), 200_000)
        assert draws.mean() == pytest.approx(1.25, abs=0.005)
        assert draws.std() == pytest.approx(0.5, abs=0.01)
        assert draws.min() >= 1.25 - 0.5 * 2.0

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sim.RatioPopulation(mean=0.5, sd=0.5, shape=4.0)

    def test_oracle_mean_close_to_construction(self):
        pop = sim.RatioPopulation(mean=2.0)
        assert sim.oracle_mean(pop, seed=3, draws=200_000) == pytest.approx(2.0, abs=0.01)

    def test_coverage_smoke(self):
        cov, target = sim.coverage_experiment(sim.RatioPopulation(mean=2.0), n=200, replicates=200, seed=4)
        assert 0.9 <= cov.rate <= 1.0
        assert target == pytest.approx(2.0, abs=0.01)

    def test_rejection_rates_under_null_and_alternative(self):
        null = sim.rejection_rate_experiment(sim.RatioPopulation(mean=1.25), 1.25, n=500, replicates=100, seed=5)
        assert null.rate <= 0.12
        strong = sim.rejection_rate_experiment(
            sim.RatioPopulation(mean=1.45), 1.25, n=500, replicates=100, seed=6, name="power"
        )
        assert strong.rate >= 0.99

    @pytest.mark.parametrize("n, replicates", [(500, 100), (300, 1), (9000, 3)], ids=["16-row-blocks", "one-row", "wide"])
    def test_blocked_experiments_equal_one_draw_and_one_fold(self, n, replicates, monkeypatch):
        pop = sim.RatioPopulation(mean=2.0)
        ss = np.random.SeedSequence(4).spawn(2)
        whole = pop.sample(np.random.default_rng(ss[1]), (replicates, n))
        lo, hi = inference.two_sided_ci(whole, 0.05)
        null = sim.RatioPopulation(mean=1.25)
        reject = inference.loss_ratio_test(null.sample(np.random.default_rng(5), (replicates, n)), 0.05, 1.25)[1]
        drawn = []
        sample = sim.RatioPopulation.sample
        monkeypatch.setattr(sim.RatioPopulation, "sample", lambda *a: drawn.append(sample(*a)) or drawn[-1])
        cov, target = sim.coverage_experiment(pop, n=n, replicates=replicates, seed=4)
        blocks = [b for b in drawn if b.shape != (10**6,)]
        assert_array_equal(np.concatenate(blocks), whole)
        assert len(blocks) == -(-replicates // max(1, attack.BLOCK_BYTES // (8 * n)))
        assert all(b.nbytes <= max(attack.BLOCK_BYTES, 8 * n) for b in blocks)
        assert cov.rate == np.count_nonzero((lo <= target) & (target <= hi)) / replicates
        assert sim.rejection_rate_experiment(null, 1.25, n=n, replicates=replicates, seed=5).rate == (
            np.count_nonzero(reject) / replicates
        )

    @pytest.mark.parametrize("replicates", [0, -3])
    def test_replicate_counts_must_be_positive(self, replicates):
        pop = sim.RatioPopulation(mean=2.0)
        with pytest.raises(ValueError, match="coverage replicates must be at least 1"):
            sim.coverage_experiment(pop, n=20, replicates=replicates)
        with pytest.raises(ValueError, match="power replicates must be at least 1"):
            sim.rejection_rate_experiment(pop, 1.25, n=20, replicates=replicates, name="power")


def per_cell_sweep_reference(features, labels, grid, metric, cfg, alpha=0.05, delta=1.25):
    """The sweep one cell at a time, each through its own LogisticModel attack."""
    from fairaudit import inference

    y = labels.astype(float)
    cells = []
    for w1 in grid.w1_values:
        for w2 in grid.w2_values:
            b = sim.fit_bias(features, y, w1, w2)
            model = LogisticModel(weights=np.array([w1, w2]), bias=b)
            try:
                attacked, _ = attack.unfair_map_batch(model, metric, cfg, features, y)
            except attack.DivergenceError:
                cells.append(sim.HeatmapCell(w1, w2, b, float("nan"), False, divergent=True))
                continue
            ratios = model.loss(attacked, y) / model.loss(features, y)
            t_n, reject = inference.loss_ratio_test(ratios, alpha, delta)
            cells.append(sim.HeatmapCell(w1, w2, b, t_n, reject))
    return cells


class TestStackedSweep:
    GRID = sim.GridSpec(w1_values=(-2.0, -1.0, 0.0, 1.0, 2.0), w2_values=(0.0, 1.0, 2.0))

    @pytest.mark.parametrize(
        "cfg",
        [attack.sim_preset(), attack.AttackConfig(lam=100.0, num_steps=200, schedule="constant", eta=0.05)],
        ids=["sim-preset", "unstable-step"],
    )
    def test_matches_per_cell_attacks(self, sim_dataset, true_metric, cfg):
        x, y = sim_dataset.features, sim_dataset.labels
        n_cells = len(self.GRID.w1_values) * len(self.GRID.w2_values)
        assert len(attack.row_blocks(n_cells * x.shape[0], 2)) > 1
        got = sim.sweep_heatmap(x, y, self.GRID, true_metric, cfg)
        want = per_cell_sweep_reference(x, y, self.GRID, true_metric, cfg)
        assert [(c.theta1, c.theta2, c.fitted_bias, c.reject, c.divergent) for c in got] == [
            (c.theta1, c.theta2, c.fitted_bias, c.reject, c.divergent) for c in want
        ]
        for g, w in zip(got, want):
            if w.divergent:
                assert math.isnan(g.t_n)
            else:
                assert g.t_n == pytest.approx(w.t_n, rel=1e-12, abs=0.0)
        if cfg.schedule == "constant":
            # the unstable step blows up every cell with theta2 != 0 and no other
            assert [c.divergent for c in got] == [c.theta2 != 0.0 for c in got]

    def test_rejects_non_binary_labels(self, sim_dataset, true_metric):
        labels = sim_dataset.labels.astype(float) * 2.0
        grid = sim.GridSpec(w1_values=(0.0,), w2_values=(0.0,))
        with pytest.raises(ValueError, match="0 or 1"):
            sim.sweep_heatmap(sim_dataset.features, labels, grid, true_metric, attack.sim_preset())


class EinsumStackedLogistic(sim.StackedLogistic):
    """``StackedLogistic`` written with ``einsum`` for the logit and a broadcast for the gradient."""

    def _logits(self, x):
        return np.einsum("ij,ij->i", x, self.weights) + self.bias

    def input_gradient(self, x, y):
        return (expit(self._logits(x)) - y)[:, None] * self.weights


class TestColumnwiseStackedLogistic:
    """The column-wise sums give exactly the bits of the ``einsum`` formulas at the sweep's widths."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gradient_and_loss_match_einsum_formulas_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        for rows in (1, 7, 4096, 5000):
            w = rng.normal(scale=3.0, size=(rows, dim))
            b = rng.normal(scale=2.0, size=rows)
            x = rng.normal(scale=2.0, size=(rows, dim))
            y = (rng.random(rows) < 0.5).astype(float)
            new, old = sim.StackedLogistic(w, b), EinsumStackedLogistic(w, b)
            assert new.input_gradient(x, y).tobytes() == old.input_gradient(x, y).tobytes()
            assert new.loss(x, y).tobytes() == old.loss(x, y).tobytes()

    @pytest.mark.parametrize(
        "cfg",
        [attack.sim_preset(), attack.AttackConfig(lam=100.0, num_steps=200, schedule="constant", eta=0.05)],
        ids=["sim-preset", "unstable-step"],
    )
    def test_heatmap_bytes_match_einsum_formulas(self, sim_dataset, true_metric, cfg, monkeypatch, tmp_path):
        x, y = sim_dataset.features, sim_dataset.labels
        grid = TestStackedSweep.GRID
        got = csv_text(tmp_path, sim.HeatmapCell._fields, sim.sweep_heatmap(x, y, grid, true_metric, cfg))
        monkeypatch.setattr(sim, "StackedLogistic", EinsumStackedLogistic)
        want = csv_text(tmp_path, sim.HeatmapCell._fields, sim.sweep_heatmap(x, y, grid, true_metric, cfg))
        assert got == want
        if cfg.schedule == "constant":
            assert ",1\n" in got  # divergent cells are part of the comparison

    def test_equality_compares_arrays_by_value(self):
        a = sim.StackedLogistic(np.ones((2, 2)), np.zeros(2))
        assert a == sim.StackedLogistic(np.ones((2, 2)), np.zeros(2))
        assert not a != sim.StackedLogistic(np.ones((2, 2)), np.zeros(2))
        assert a != sim.StackedLogistic(np.ones((2, 2)), np.array([0.0, 0.5]))
        assert a != sim.StackedLogistic(np.ones((3, 2)), np.zeros(3))
        assert a != sim.StackedLogistic(np.ones((2, 2)), None)
        assert sim.StackedLogistic(np.ones((2, 2)), None) != a
        assert a.__eq__(EinsumStackedLogistic(np.ones((2, 2)), np.zeros(2))) is NotImplemented
        with pytest.raises(TypeError):
            hash(a)


class TestSinglePassStoppingSweep:
    def test_bitwise_equal_to_independent_runs(self, sim_dataset, true_metric, unfair_sim_model):
        from fairaudit import inference

        x, y = sim_dataset.features, sim_dataset.labels.astype(float)
        horizons = [0.0, 0.004, 0.3, 0.5, 0.5, 2.0]
        rows = sim.stopping_time_sweep(unfair_sim_model, true_metric, x, y, horizons, lam=50.0, eta=0.01)
        want = []
        for h in horizons:
            cfg = attack.constant_config_for_horizon(50.0, h, 0.01)
            attacked, _ = attack.unfair_map_batch(unfair_sim_model, true_metric, cfg, x, y)
            ratios = unfair_sim_model.loss(attacked, y) / unfair_sim_model.loss(x, y)
            want.append((cfg.horizon, inference.one_sided_lower_bound(ratios, 0.05)))
        assert rows == want
        assert all(type(t) is float for _, t in rows)


class TestStackedRatioFold:
    """The sweep folds its ratio stack in one call, with the values of a 1-D fold per cell."""

    def test_heatmap_equals_a_per_cell_loop(self, sim_dataset, true_metric):
        from fairaudit import inference

        x, y = sim_dataset.features, sim_dataset.labels.astype(float)
        n = x.shape[0]
        cfg = attack.AttackConfig(lam=100.0, num_steps=200, schedule="constant", eta=0.05)
        cells = sim.sweep_heatmap(x, y, TestStackedSweep.GRID, true_metric, cfg, alpha=0.1, delta=1.2)
        assert any(c.divergent for c in cells) and not all(c.divergent for c in cells)
        for c in cells:
            model = sim.StackedLogistic(np.tile([c.theta1, c.theta2], (n, 1)), np.full(n, c.fitted_bias))
            attacked, divergent = attack.unfair_map_batch(model, true_metric, cfg, x, y, skip_divergent=True)
            assert c.divergent == bool(divergent)
            if c.divergent:
                assert math.isnan(c.t_n) and c.reject is False
            else:
                ratios = model.loss(attacked, y) / model.loss(x, y)
                assert (c.t_n, c.reject) == inference.loss_ratio_test(ratios, 0.1, 1.2)
                assert type(c.t_n) is float and type(c.reject) is bool

    def test_heatmap_folds_once(self, sim_dataset, true_metric, monkeypatch):
        from fairaudit import inference

        calls = []
        fold = inference.loss_ratio_test
        monkeypatch.setattr(inference, "loss_ratio_test", lambda r, *a: calls.append(np.shape(r)) or fold(r, *a))
        grid = TestStackedSweep.GRID
        sim.sweep_heatmap(sim_dataset.features, sim_dataset.labels, grid, true_metric, attack.sim_preset())
        assert calls == [(len(grid.w1_values) * len(grid.w2_values), sim_dataset.n)]

    def test_sweep_where_every_cell_diverges(self, sim_dataset, true_metric):
        # a full-rank metric with |1 - 2 eta lam| = 9 blows up every cell whose weights are non-zero
        cfg = attack.AttackConfig(lam=100.0, num_steps=50, schedule="constant", eta=0.05)
        grid = sim.GridSpec(w1_values=(1.0, 2.0), w2_values=(-1.0, 1.0))
        metric = FairMetric(sigma=np.eye(2))
        cells = sim.sweep_heatmap(sim_dataset.features, sim_dataset.labels, grid, metric, cfg)
        assert len(cells) == 4
        for c in cells:
            assert c.divergent is True and c.reject is False and math.isnan(c.t_n)


_ALPHA = {"alpha": inference.DEFAULT_ALPHA}
_LEVELS = {**_ALPHA, "delta": inference.DEFAULT_DELTA}
_STEPS = {f.name: f.default for f in dataclasses.fields(attack.AttackConfig)}
_CALIBRATION = sim.CalibrationSpec()
# each library default of a level or step setting, and the value of its owner: the levels are
# owned by inference, the step settings by AttackConfig's fields, the audit's lam by audit_preset and
# the calibration settings by CalibrationSpec's fields (the Type I experiment draws from its seed + 1)
_OWNED_DEFAULTS = {
    inference.audit: _LEVELS,
    sim.sweep_heatmap: _LEVELS,
    sim.stopping_time_sweep: {"lam": attack.audit_preset().lam, "eta": attack.audit_preset().eta, **_ALPHA},
    sim.coverage_experiment: {
        "n": _CALIBRATION.n, "replicates": _CALIBRATION.coverage_replicates, **_ALPHA, "seed": _CALIBRATION.seed
    },
    sim.rejection_rate_experiment: {
        "n": _CALIBRATION.n, "replicates": _CALIBRATION.replicates, **_ALPHA, "seed": _CALIBRATION.seed + 1
    },
    sim.RatioPopulation: {"sd": _CALIBRATION.sd, "shape": _CALIBRATION.shape},
    sim.calibrate: _LEVELS,
    attack.constant_config_for_horizon: {"eta": _STEPS["eta"]},
}


@pytest.mark.parametrize("function", _OWNED_DEFAULTS, ids=lambda f: f"{f.__module__.rsplit('.', 1)[-1]}.{f.__name__}")
def test_library_defaults_match_their_owners(function):
    params = inspect.signature(function).parameters
    owners = _OWNED_DEFAULTS[function]
    assert repr({name: params[name].default for name in owners}) == repr(owners)


def _two_row_csv(tmp_path) -> str:
    path = tmp_path / "data.csv"
    path.write_text("x,label\n0.5,0\n1.5,1\n")
    return str(path)


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp_path: TrainConfig(seed=-1),
        lambda tmp_path: sim.SimConfig(seed=-1),
        lambda tmp_path: sim.CalibrationSpec(seed=-1),
        lambda tmp_path: split_csv(_two_row_csv(tmp_path), tmp_path / "train.csv", tmp_path / "audit.csv", 0.5, -1),
    ],
    ids=["TrainConfig", "SimConfig", "CalibrationSpec", "split_csv"],
)
def test_negative_seed_raises_naming_it(tmp_path, make):
    # numpy's own error ("expected non-negative integer") would not say which setting is wrong
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        make(tmp_path)
    assert not (tmp_path / "train.csv").exists()
