import dataclasses
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtri

import helpers
from fairaudit import attack, inference, sim
from fairaudit.attack import BLOCK_BYTES, AttackConfig, AttackTrace, audit_preset, sim_preset
from fairaudit.fair_metric import FairMetric, rotated_coordinate_metric
from fairaudit.inference import (
    NoBaselineErrors,
    RatioFold,
    audit,
    error_rate_report,
    error_rate_stats,
    error_rate_test,
    fold_ratios,
    loss_ratio_stats,
    loss_ratio_test,
    normal_quantile,
    one_sided_lower_bound,
    two_sided_ci,
)
from fairaudit.models import LogisticModel
from test_attack import SplitFieldStub


class TestNormalQuantile:
    def test_median(self):
        assert abs(normal_quantile(0.5)) < 1e-12

    def test_ninety_five(self):
        assert normal_quantile(0.95) == pytest.approx(1.645, abs=5e-4)

    def test_ninety_seven_five_against_bisection_oracle(self):
        assert normal_quantile(0.975) == pytest.approx(helpers.bisect_normal_quantile(0.975), abs=1e-5)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_inverts_the_cdf_across_the_range(self):
        for p in [1e-6, 1e-4, 0.01, 0.02425, 0.2, 0.5, 0.8, 0.975, 0.99, 0.9999, 1.0 - 1e-6]:
            z = normal_quantile(p)
            assert abs(helpers.reference_normal_cdf(z) - p) < 1e-9

    def test_agrees_with_scipy(self):
        for p in [1e-5, 0.1, 0.5, 0.9, 0.95, 1.0 - 1e-5]:
            assert normal_quantile(p) == pytest.approx(float(ndtri(p)), abs=1e-10)

    @pytest.mark.parametrize("p", [0.0, 1.0, float("nan"), -0.1, 1.1])
    def test_domain(self, p):
        with pytest.raises(ValueError, match=r"^p must lie strictly inside \(0, 1\)$"):
            normal_quantile(p)

    @staticmethod
    def as241_branch(p):
        """Which of AS241's three rational approximations covers p."""
        if abs(p - 0.5) <= 0.425:
            return "central"
        return "intermediate" if math.sqrt(-math.log(min(p, 1.0 - p))) <= 5.0 else "tail"

    def test_bitwise_equals_the_statistics_module(self):
        # statistics is the reference here only: the package computes AS241 with math alone
        levels = [1.0 - a for a in (0.01, 0.05, 0.1)] + [1.0 - a / 2.0 for a in (0.01, 0.05, 0.1)]
        edges = [1e-300, 5e-324, 1.0 - 2.0**-53, 2.0**-53, 0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)]
        grid = np.random.default_rng(27).random(20_000).tolist() + np.logspace(-300, -1, 2_000).tolist()
        ps = levels + edges + grid + [1.0 - p for p in grid if 1.0 - p < 1.0]
        assert {self.as241_branch(p) for p in levels + edges} == {"central", "intermediate", "tail"}
        reference = statistics.NormalDist()
        for p in ps:
            assert normal_quantile(p) == reference.inv_cdf(p), p


class TestLossRatioStats:
    def test_constant_sample(self):
        assert loss_ratio_stats([1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_hand_arithmetic(self):
        s, v = loss_ratio_stats([1.0, 2.0, 3.0])
        assert s == 2.0
        assert v == pytest.approx(1.0, abs=1e-15)

    def test_affine_shift_moves_mean_only(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(1.0, 3.0, 40)
        s0, v0 = loss_ratio_stats(r)
        s1, v1 = loss_ratio_stats(r + 0.7)
        assert s1 == pytest.approx(s0 + 0.7, rel=1e-12)
        assert v1 == pytest.approx(v0, rel=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(0.5, 4.0, 25)
        s, v = loss_ratio_stats(r)
        ref_s, ref_v = helpers.reference_mean_sd(list(r))
        assert s == pytest.approx(ref_s, rel=1e-13)
        assert v == pytest.approx(ref_v, rel=1e-13)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two"):
            loss_ratio_stats([1.0])

    def test_rejects_negative_ratios(self):
        with pytest.raises(ValueError, match="non-negative"):
            loss_ratio_stats([1.0, -0.1])


def ones_but_last(shape, value):
    stack = np.ones(shape)
    stack[-1, -1] = value
    return stack


class TestStackedFold:
    """A (groups, n) stack folds each row exactly as the row alone."""

    FOLDS = [
        (loss_ratio_stats, ()),
        (two_sided_ci, (0.05,)),
        (one_sided_lower_bound, (0.1,)),
        (loss_ratio_test, (0.05, 1.25)),
    ]

    @staticmethod
    def stack(groups, n):
        return sim.RatioPopulation(mean=1.3, sd=0.2).sample(np.random.default_rng(n + groups), (groups, n))

    @pytest.mark.parametrize("n", [2, 7, 400])
    @pytest.mark.parametrize("groups", [0, 1, 81])
    def test_rows_bitwise_equal_their_1d_fold(self, n, groups):
        stack = self.stack(groups, n)
        for fold, args in self.FOLDS:
            got = fold(stack, *args)
            got = got if isinstance(got, tuple) else (got,)
            for part in got:
                assert isinstance(part, np.ndarray) and part.shape == (groups,)
            for i in range(groups):
                want = fold(stack[i], *args)
                want = want if isinstance(want, tuple) else (want,)
                assert tuple(part[i] for part in got) == want

    @pytest.mark.parametrize("delta", [None, 1.25])
    @pytest.mark.parametrize("n", [2, 7, 400])
    @pytest.mark.parametrize("groups", [0, 1, 81])
    def test_ratio_fold_rows_bitwise_equal_their_1d_fold(self, n, groups, delta):
        stack = self.stack(groups, n)
        got = fold_ratios(stack, 0.1, delta)
        assert type(got.n) is int and got.n == n
        assert (got.reject is None) == (delta is None)
        arrays = [name for name in RatioFold._fields[1:] if getattr(got, name) is not None]
        for name in arrays:
            assert isinstance(getattr(got, name), np.ndarray) and getattr(got, name).shape == (groups,)
        for i in range(groups):
            want = fold_ratios(stack[i], 0.1, delta)
            assert want.n == n and (want.reject is None) == (delta is None)
            assert tuple(getattr(got, name)[i] for name in arrays) == tuple(getattr(want, name) for name in arrays)

    @pytest.mark.parametrize("groups", [None, 5])
    def test_views_return_exactly_the_fold_fields(self, groups):
        r = np.array([1.0, 1.5, 1.75, 2.5]) if groups is None else self.stack(groups, 9)
        fold = fold_ratios(r, 0.1, 1.2)
        views = [
            (loss_ratio_stats(r), (fold.s_n, fold.v_n)),
            (two_sided_ci(r, 0.1), (fold.ci_lo, fold.ci_hi)),
            ((one_sided_lower_bound(r, 0.1),), (fold.t_n,)),
            (loss_ratio_test(r, 0.1, 1.2), (fold.t_n, fold.reject)),
        ]
        for got, want in views:
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert type(g) is type(w) and np.array_equal(g, w)

    def test_1d_input_returns_python_scalars(self):
        r = [1.0, 1.5, 1.75]
        assert all(type(v) is float for v in loss_ratio_stats(r))
        assert all(type(v) is float for v in two_sided_ci(r, 0.05))
        assert type(one_sided_lower_bound(r, 0.05)) is float
        t_n, reject = loss_ratio_test(r, 0.05, 1.25)
        assert type(t_n) is float and type(reject) is bool
        fold = fold_ratios(r, 0.05, 1.25)
        assert type(fold.n) is int and type(fold.reject) is bool
        assert all(type(v) is float for v in fold[1:6])
        assert fold_ratios(r, 0.05).reject is None

    @pytest.mark.parametrize(
        "stack, match",
        [
            (np.ones((3, 1)), "two"),
            (np.ones((0, 1)), "two"),
            (np.array([[1.0, 2.0], [1.0, -0.5]]), "non-negative"),
            (np.array([[1.0, 2.0], [np.inf, 1.0]]), "finite"),
            (np.array([[1.0, np.nan], [1.0, 2.0]]), "finite"),
            # in the last of several row blocks only: blocks of 20, 1170 and 1 rows
            (ones_but_last((45, 400), np.nan), "finite"),
            (ones_but_last((2500, 7), np.inf), "finite"),
            (ones_but_last((3, 10_000), -0.5), "non-negative"),
        ],
    )
    def test_bad_stack_raises(self, stack, match):
        for fold, args in [*self.FOLDS, (fold_ratios, (0.05,))]:
            with pytest.raises(ValueError, match=match):
                fold(stack, *args)


class TestBlockedFold:
    """``loss_ratio_stats`` folds a stack BLOCK_BYTES of ratios at a time, with each row's bits unchanged."""

    @staticmethod
    def reference(row):
        """The unblocked fold of one 1-D row: numpy's mean and centered sum of squares."""
        s_n = np.mean(row)
        return float(s_n), float(np.sqrt(np.sum((row - s_n) ** 2) / (row.shape[0] - 1)))

    @staticmethod
    def rows_per_block(n):
        return max(1, BLOCK_BYTES // (8 * n))

    @pytest.mark.parametrize(
        "shape",
        [
            (45, 400),  # blocks of 20, 20 and 5 rows
            (2500, 7),  # blocks of 1170, 1170 and 160 rows
            (3, 10_000),  # a row longer than a block: one row per block
            (2, 100_001),
            (4, 3, 50),
        ],
    )
    def test_rows_bitwise_equal_their_unblocked_1d_fold(self, shape):
        n = shape[-1]
        stack = sim.RatioPopulation(mean=1.3, sd=0.2).sample(np.random.default_rng(n), shape)
        rows = stack.size // n
        assert rows > self.rows_per_block(n) or len(shape) > 2
        s_n, v_n = loss_ratio_stats(stack)
        assert s_n.shape == v_n.shape == shape[:-1]
        for i in np.ndindex(shape[:-1]):
            want = self.reference(stack[i])
            assert (s_n[i], v_n[i]) == want
            assert loss_ratio_stats(stack[i]) == want

    def test_any_layout_folds_as_its_rows(self):
        stack = sim.RatioPopulation(mean=1.3, sd=0.2).sample(np.random.default_rng(5), (600, 90))
        s_n, v_n = loss_ratio_stats(np.asfortranarray(stack))
        assert [(s, v) for s, v in zip(s_n.tolist(), v_n.tolist())] == [self.reference(row) for row in stack]

    def test_folding_a_large_stack_allocates_about_one_block(self):
        stack = sim.RatioPopulation(mean=1.3, sd=0.2).sample(np.random.default_rng(2000), (2000, 500))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss_ratio_stats(stack)
            raised = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the stack is 8 MB; an unblocked fold holds a centered copy of it
        assert raised < 1_000_000


class TestTwoSidedCi:
    def test_degenerate_when_variance_vanishes(self):
        lo, hi = two_sided_ci([2.0, 2.0, 2.0], alpha=0.05)
        assert lo == hi == 2.0

    def test_hand_arithmetic(self):
        lo, hi = two_sided_ci([1.0, 2.0, 3.0], alpha=0.05)
        assert lo == pytest.approx(0.8684, abs=1e-4)
        assert hi == pytest.approx(3.1316, abs=1e-4)

    def test_symmetric_about_the_mean(self):
        rng = np.random.default_rng(2)
        r = rng.uniform(1.0, 2.0, 30)
        lo, hi = two_sided_ci(r, alpha=0.1)
        s, _ = loss_ratio_stats(r)
        assert s - lo == pytest.approx(hi - s, rel=1e-12)

    def test_width_scales_with_inverse_root_n(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(1.0, 3.0, 50)
        lo1, hi1 = two_sided_ci(r, alpha=0.05)
        r4 = np.tile(r, 4)
        lo4, hi4 = two_sided_ci(r4, alpha=0.05)
        # V_n is recomputed on the duplicated sample, so the width halves up to the n-1 factor
        assert (hi4 - lo4) / (hi1 - lo1) == pytest.approx(0.5, rel=0.02)

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            two_sided_ci([1.0, 2.0], alpha=1.5)
        # the level policy is (0, 0.5], the same as the CLI's
        with pytest.raises(ValueError, match="alpha"):
            two_sided_ci([1.0, 2.0], alpha=0.7)


class TestLossRatioTest:
    def test_constant_ones_never_reject(self):
        t, reject = loss_ratio_test([1.0] * 10, alpha=0.05, delta=1.25)
        assert t == 1.0 and reject is False

    def test_hand_arithmetic(self):
        t, reject = loss_ratio_test([1.0, 2.0, 3.0], alpha=0.05, delta=1.25)
        assert t == pytest.approx(1.0503, abs=1e-4)
        assert reject is False

    def test_reported_strong_statistic_rejects(self):
        # a degenerate sample whose lower bound sits well above the tolerance
        t, reject = loss_ratio_test([3.676] * 20, alpha=0.05, delta=1.25)
        assert t == pytest.approx(3.676)
        assert reject is True

    def test_lower_bound_never_exceeds_mean(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r = rng.uniform(0.5, 5.0, rng.integers(2, 40))
            s, _ = loss_ratio_stats(r)
            assert one_sided_lower_bound(r, 0.05) <= s + 1e-12

    def test_delta_must_exceed_one(self):
        with pytest.raises(ValueError, match="delta"):
            loss_ratio_test([1.0, 2.0], alpha=0.05, delta=1.0)
        # NaN <= 1 is false, so a plain "delta <= 1" guard would let it through
        with pytest.raises(ValueError, match="delta"):
            loss_ratio_test([1.0, 2.0], alpha=0.05, delta=float("nan"))
        with pytest.raises(ValueError, match="delta"):
            error_rate_test([1, 0], [1, 0], alpha=0.05, delta=float("nan"))


class TestErrorRateStats:
    def test_identical_columns_give_unit_ratio_and_zero_variance(self):
        s = error_rate_stats([1, 0, 1, 1], [1, 0, 1, 1])
        assert s.s_tilde == 1.0
        assert s.var_hat == 0.0

    def test_hand_arithmetic(self):
        s = error_rate_stats([1, 1, 0, 1], [1, 0, 0, 1])
        assert s.a_n == 0.75
        assert s.b_n == 0.5
        assert s.s_tilde == 1.5
        assert s.var_hat == pytest.approx(0.375, abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        post = (rng.random(60) < 0.5).astype(int)
        pre = np.maximum(post, (rng.random(60) < 0.2).astype(int))
        base = error_rate_stats(post, pre)
        perm = rng.permutation(60)
        shuffled = error_rate_stats(post[perm], pre[perm])
        assert base == shuffled

    def test_no_baseline_errors_is_explicit(self):
        with pytest.raises(NoBaselineErrors):
            error_rate_stats([1, 0, 1], [0, 0, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            error_rate_stats([0.5, 1.0], [1, 0])

    def test_uncentered_second_moments_equal_centered_covariance_form(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(4, 50))
            post = (rng.random(n) < rng.uniform(0.2, 0.9)).astype(float)
            pre = (rng.random(n) < rng.uniform(0.2, 0.9)).astype(float)
            if pre.mean() == 0.0:
                pre[0] = 1.0
            a, b = post.mean(), pre.mean()
            m11, m22, m12 = (post * post).mean(), (pre * pre).mean(), (post * pre).mean()
            c11 = ((post - a) ** 2).mean()
            c22 = ((pre - b) ** 2).mean()
            c12 = ((post - a) * (pre - b)).mean()
            quad_raw = a * a * m22 + b * b * m11 - 2 * a * b * m12
            quad_centered = a * a * c22 + b * b * c11 - 2 * a * b * c12
            assert quad_raw == pytest.approx(quad_centered, abs=1e-12)
            assert error_rate_stats(post, pre).var_hat == pytest.approx(
                quad_centered / (n * b**4), rel=1e-9, abs=1e-13
            )


class TestErrorRateTest:
    def test_identical_columns_fail_to_reject(self):
        t, reject = error_rate_test([1, 0, 1, 1], [1, 0, 1, 1], alpha=0.05, delta=1.25)
        assert t == 1.0 and reject is False

    def test_hand_arithmetic(self):
        t, reject = error_rate_test([1, 1, 0, 1], [1, 0, 0, 1], alpha=0.05, delta=1.25)
        assert t == pytest.approx(0.4928, abs=1e-4)
        assert reject is False

    def test_strong_inflation_rejects(self):
        post = [1] * 400
        pre = [1, 0] * 200
        t, reject = error_rate_test(post, pre, alpha=0.05, delta=1.25)
        assert t > 1.25 and reject is True

    @pytest.mark.parametrize(
        "post, pre", [([1, 0, 1, 1], [1, 0, 1, 1]), ([1, 1, 0, 1], [1, 0, 0, 1]), ([1] * 400, [1, 0] * 200)]
    )
    def test_is_the_tail_of_the_report(self, post, pre):
        report = error_rate_report(post, pre, alpha=0.05, delta=1.25)
        stats = error_rate_stats(post, pre)
        assert report[:3] == stats[:3]
        assert all(type(v) is float for v in report[:4]) and type(report.reject) is bool
        assert error_rate_test(post, pre, alpha=0.05, delta=1.25) == report[3:]


class TestAudit:
    def constant_model_report(self, sim_dataset, **kw):
        model = LogisticModel(weights=np.zeros(2), bias=0.3)
        metric = rotated_coordinate_metric(0.0)
        return audit(model, metric, audit_preset(), sim_dataset.features, sim_dataset.labels, **kw)

    def test_constant_model_is_maximally_fair(self, sim_dataset):
        report = self.constant_model_report(sim_dataset)
        assert report.s_n == 1.0
        assert report.v_n == 0.0
        assert report.t_n == 1.0
        assert report.reject is False
        assert report.ci_lo == report.ci_hi == 1.0
        assert report.ci_one_sided_lo == report.t_n
        assert report.error_rate is not None
        assert report.error_rate.s_tilde == 1.0
        assert report.error_rate.reject is False

    def test_report_invariants(self, sim_dataset, unfair_sim_model):
        metric = rotated_coordinate_metric(0.0)
        report = audit(unfair_sim_model, metric, sim_preset(), sim_dataset.features, sim_dataset.labels)
        assert report.ci_lo <= report.s_n <= report.ci_hi
        assert report.reject == (report.t_n > report.delta)
        assert report.t_n == report.ci_one_sided_lo
        assert report.n == sim_dataset.n
        assert report.reject is True  # strongly coordinate-1-dependent model

    def test_deterministic_report(self, sim_dataset, unfair_sim_model):
        metric = rotated_coordinate_metric(0.0)
        r1 = audit(unfair_sim_model, metric, sim_preset(), sim_dataset.features, sim_dataset.labels)
        r2 = audit(unfair_sim_model, metric, sim_preset(), sim_dataset.features, sim_dataset.labels)
        assert r1.to_json() == r2.to_json()
        assert_allclose(r1.ratios, r2.ratios, rtol=0, atol=0)

    def test_report_equality_compares_arrays_by_value(self, sim_dataset, unfair_sim_model):
        metric = rotated_coordinate_metric(0.0)
        r1 = audit(unfair_sim_model, metric, sim_preset(), sim_dataset.features, sim_dataset.labels)
        r2 = audit(unfair_sim_model, metric, sim_preset(), sim_dataset.features, sim_dataset.labels)
        assert r1 == r2
        assert not r1 != r2
        assert r1 != dataclasses.replace(r2, ratios=r2.ratios * 2.0)
        assert r1 != dataclasses.replace(r2, index=r2.index[:-1])
        assert r1 != dataclasses.replace(r2, ratios=None)
        assert dataclasses.replace(r2, ratios=None) != r1
        assert r1 != dataclasses.replace(r2, error_rate=None)
        with pytest.raises(TypeError):
            hash(r1)

    @pytest.mark.parametrize("alpha, delta", [(0.05, float("nan")), (0.05, 1.0), (0.7, 1.25)])
    def test_levels_checked_before_the_attack(self, monkeypatch, sim_dataset, unfair_sim_model, alpha, delta):
        def no_attack(*args, **kwargs):
            raise AssertionError("attacked before checking the levels")

        monkeypatch.setattr(attack, "unfair_map_batch", no_attack)
        metric = rotated_coordinate_metric(0.0)
        with pytest.raises(ValueError, match="alpha|delta"):
            audit(unfair_sim_model, metric, sim_preset(), sim_dataset.features, sim_dataset.labels, alpha=alpha, delta=delta)

    def test_no_baseline_errors_propagates(self, sim_dataset):
        model = LogisticModel(weights=np.zeros(2), bias=0.3)  # always predicts class 1
        metric = rotated_coordinate_metric(0.0)
        ones = np.ones(sim_dataset.n)
        with pytest.raises(NoBaselineErrors):
            audit(model, metric, audit_preset(), sim_dataset.features, ones)
        report = audit(
            model, metric, audit_preset(), sim_dataset.features, ones, include_error_rate=False
        )
        assert report.error_rate is None
        assert report.s_n == 1.0

    def test_no_baseline_errors_after_skipping_names_the_dropped_rows(self):
        # exactly the 48 misclassified rows diverge, so skip_divergent leaves no baseline error
        ds = sim.generate(sim.SimConfig(n_samples=100, seed=1))
        model = LogisticModel(weights=np.array([4.0, 1.5]), bias=0.0)
        cfg = AttackConfig(lam=1.0, num_steps=20, schedule="constant", eta=1.5)
        message = (
            "no kept sample is misclassified: skip_divergent dropped 48 divergent rows, 48 of them misclassified,"
            ' so the error-rates ratio is undefined; set "error_rate": false to audit without it'
        )
        with pytest.raises(NoBaselineErrors, match=f"^{message}$"):
            audit(model, FairMetric(np.eye(2)), cfg, ds.features, ds.labels, skip_divergent=True)
        report = audit(
            model, FairMetric(np.eye(2)), cfg, ds.features, ds.labels, skip_divergent=True, include_error_rate=False
        )
        assert len(report.divergent) == 48 and report.n == 52

    @pytest.mark.parametrize("skip_divergent", [False, True])
    def test_non_finite_row_is_rejected_not_divergent(self, sim_dataset, unfair_sim_model, skip_divergent):
        x, y = sim_dataset.features[:60].copy(), sim_dataset.labels[:60]
        x[5, 0] = np.nan
        with pytest.raises(ValueError, match=r"finite.*\(60, 2\)"):
            audit(unfair_sim_model, rotated_coordinate_metric(0.0), sim_preset(), x, y, skip_divergent=skip_divergent)

    def test_label_shape_mismatch_names_both_shapes(self, sim_dataset, unfair_sim_model):
        x, y = sim_dataset.features[:60], sim_dataset.labels[:59]
        with pytest.raises(ValueError, match=r"got shapes \(60, 2\) and \(59,\)"):
            audit(unfair_sim_model, rotated_coordinate_metric(0.0), sim_preset(), x, y)

    def test_fortran_ordered_features_give_the_ratios_of_c_ordered_ones(self):
        # the logistic loss of an F-ordered batch rounds differently, and with no row dropped the audit reads its input
        rng = np.random.default_rng(7)
        x = rng.normal(size=(300, 40))
        y = (rng.random(300) < 0.5).astype(float)
        model = LogisticModel(weights=rng.normal(scale=0.3, size=40), bias=0.1)
        assert not np.array_equal(model.loss(np.asfortranarray(x), y), model.loss(x, y))
        metric, cfg = FairMetric(sigma=np.eye(40)), AttackConfig(lam=50.0, num_steps=5)
        c_ordered = audit(model, metric, cfg, x, y)
        f_ordered = audit(model, metric, cfg, np.asfortranarray(x), y)
        assert_array_equal(f_ordered.ratios, c_ordered.ratios)
        assert f_ordered == c_ordered

    def test_traced_report_equality_and_serialized_form(self, sim_dataset, unfair_sim_model):
        """An observer sees each state of the audit's one attack and leaves the report as it is."""
        metric = rotated_coordinate_metric(0.0)
        cfg = dataclasses.replace(sim_preset(), num_steps=40)
        x, y = sim_dataset.features[:60], sim_dataset.labels[:60]
        plain = audit(unfair_sim_model, metric, cfg, x, y)
        calls = []
        observed = audit(
            unfair_sim_model, metric, cfg, x, y, on_step=lambda k, xk, rows: calls.append((k, xk.copy(), rows))
        )
        assert [(k, xk.shape, rows) for k, xk, rows in calls] == [(k, (60, 2), slice(0, 60)) for k in range(41)]
        assert observed.index.tolist() == list(range(60))
        assert_array_equal(calls[0][1], x)
        trace = AttackTrace.record(unfair_sim_model, metric, cfg, np.array([xk for _, xk, _ in calls]), x, y)
        assert_array_equal(trace.losses[-1] / trace.losses[0], observed.ratios)
        assert "trace" not in {f.name for f in dataclasses.fields(observed)}
        assert observed == plain and not observed != plain
        assert observed != dataclasses.replace(plain, ratios=plain.ratios * 2.0)
        assert observed.to_json() == plain.to_json()
        assert observed.to_json(extra={"config": {"k": 1}}) == plain.to_json(extra={"config": {"k": 1}})
        with pytest.raises(TypeError):
            hash(observed)

    def test_trace_is_the_audits_own_attack_on_surviving_rows(self, monkeypatch):
        """The observer sees the divergent rows too; the kept columns are the audit's own states, bitwise."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        x[:5, 0] = np.abs(x[:5, 0])  # these rows start right of the origin and blow up
        x[5:, 0] = -np.abs(x[5:, 0])
        y = np.zeros(12)
        class Stub(SplitFieldStub):
            def predict_proba(self, xs):  # the audit thresholds predictions even without the error-rates test
                return np.full(len(xs), 0.5)

        stub = Stub(k=100.0)
        metric = FairMetric(sigma=np.eye(3))
        cfg = AttackConfig(lam=0.01, num_steps=400, schedule="constant", eta=0.05)
        results = []
        attack_fn = attack.unfair_map_batch
        monkeypatch.setattr(attack, "unfair_map_batch", lambda *a, **k: results.append(attack_fn(*a, **k)) or results[-1])
        states = np.full((401, 12, 3), np.nan)

        def record(k, xk, rows):
            states[k, rows] = xk

        report = audit(stub, metric, cfg, x, y, skip_divergent=True, include_error_rate=False, on_step=record)
        assert len(results) == 1
        attacked, divergent = results[0][:2]
        assert divergent == [0, 1, 2, 3, 4]
        assert report.index.tolist() == list(range(5, 12))
        assert np.isfinite(states).all()
        assert_array_equal(states[-1], attacked)
        kept = states[:, report.index]
        assert_array_equal(kept[0], x[report.index])
        assert_array_equal(kept[-1], attacked[report.index])
        trace = AttackTrace.record(stub, metric, cfg, kept, x[report.index], y[report.index])
        assert_array_equal(trace.losses[-1] / trace.losses[0], report.ratios)
        assert_array_equal(trace.penalties[0], np.zeros(7))
        assert_array_equal(trace.step_sizes, cfg.step_sizes())


class ExactStub:
    """A model built from exactly rounded elementwise operations, so its audits give the same bits everywhere.

    Rows starting at ``x1 > 2`` are pushed out of the divergence radius; the
    others settle at 4/3 of their start, which moves some across ``x2 = 0.5``.
    """

    def predict_proba(self, x):
        return np.where(x[:, 1] > 0.5, 0.75, 0.25)

    def loss(self, x, y):
        return 1.0 + np.sum(x * x, axis=1)

    def input_gradient(self, x, y):
        return np.where(x[:, :1] > 2.0, 8.0 * x, 0.5 * x)


GOLDEN_X = np.array(
    [[0.5, 0.25], [-1.0, 0.75], [0.25, 0.45], [1.5, 1.0], [-0.5, 0.4], [3.0, 0.5], [0.75, 0.125], [-2.0, 0.45]]
)
GOLDEN_Y = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
FINITE_ROWS = [0, 1, 2, 3, 4, 6, 7]
GOLDEN_REPORTS = {
    "error-rate": """{
  "alpha": 0.1,
  "ci_hi": 1.487563922095715,
  "ci_lo": 1.242661975958447,
  "ci_one_sided_lo": 1.2697079636428117,
  "config": {
    "alpha": 0.1
  },
  "delta": 1.1,
  "divergent": [],
  "error_rate": {
    "a_n": 0.42857142857142855,
    "b_n": 0.2857142857142857,
    "reject": false,
    "s_tilde": 1.5,
    "t_tilde": 0.14070929634476492
  },
  "n": 7,
  "note": "audit data assumed independent of the model's training data",
  "reject": true,
  "s_n": 1.365112949027081,
  "t_n": 1.2697079636428117,
  "v_n": 0.19696270672906008
}
""",
    "no-error-rate": """{
  "alpha": 0.05,
  "ci_hi": 1.5110222829361508,
  "ci_lo": 1.2192036151180112,
  "ci_one_sided_lo": 1.242661975958447,
  "config": {
    "alpha": 0.1
  },
  "delta": 1.25,
  "divergent": [],
  "error_rate": null,
  "n": 7,
  "note": "audit data assumed independent of the model's training data",
  "reject": false,
  "s_n": 1.365112949027081,
  "t_n": 1.242661975958447,
  "v_n": 0.19696270672906008
}
""",
    "divergent": """{
  "alpha": 0.2,
  "ci_hi": 1.4605179344113504,
  "ci_lo": 1.2697079636428117,
  "ci_one_sided_lo": 1.3024585356995977,
  "config": {
    "alpha": 0.1
  },
  "delta": 1.5,
  "divergent": [
    5
  ],
  "error_rate": {
    "a_n": 0.42857142857142855,
    "b_n": 0.2857142857142857,
    "reject": false,
    "s_tilde": 1.5,
    "t_tilde": 0.6073258778250076
  },
  "n": 7,
  "note": "audit data assumed independent of the model's training data",
  "reject": false,
  "s_n": 1.365112949027081,
  "t_n": 1.3024585356995977,
  "v_n": 0.19696270672906008
}
""",
}


class TestReportBytes:
    """The exact ``report.json`` text of three small audits, captured before the statistics were folded in one place."""

    @pytest.mark.parametrize(
        "case, rows, kwargs",
        [
            ("error-rate", FINITE_ROWS, dict(alpha=0.1, delta=1.1)),
            ("no-error-rate", FINITE_ROWS, dict(alpha=0.05, delta=1.25, include_error_rate=False)),
            ("divergent", slice(None), dict(alpha=0.2, delta=1.5, skip_divergent=True)),
        ],
        ids=["error-rate", "no-error-rate", "divergent"],
    )
    def test_to_json(self, case, rows, kwargs):
        cfg = AttackConfig(lam=1.0, num_steps=40, schedule="constant", eta=0.125)
        report = audit(ExactStub(), FairMetric(sigma=np.eye(2)), cfg, GOLDEN_X[rows], GOLDEN_Y[rows], **kwargs)
        assert report.to_json(extra={"config": {"alpha": 0.1}}) == GOLDEN_REPORTS[case]



class TestAuditCalibration:
    """Monte-Carlo rejection behavior of the end-to-end audit on fresh draws."""

    def rejection_rate(self, w1, w2, replicates=200):
        metric = rotated_coordinate_metric(0.0)
        rejections = 0
        for rep in range(replicates):
            ds = sim.generate(sim.SimConfig(seed=10_000 + rep))
            b = sim.fit_bias(ds.features, ds.labels, w1, w2)
            model = LogisticModel(weights=np.array([w1, w2]), bias=b)
            report = audit(
                model, metric, sim_preset(), ds.features, ds.labels, include_error_rate=False
            )
            rejections += int(report.reject)
        return rejections / replicates

    def test_fair_classifier_rarely_rejected(self):
        assert self.rejection_rate(0.0, -2.0) <= 0.05

    def test_unfair_classifier_reliably_rejected(self):
        assert self.rejection_rate(4.0, 0.0) >= 0.95
