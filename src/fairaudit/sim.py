"""Synthetic study: data generator, coefficient sweeps, and calibration checks.

The generator draws a two-group population in the plane.  Group membership
is a rare Bernoulli draw, each group sits in a tight Gaussian cluster, and
the clusters differ only in the first coordinate, which is exactly the
direction a fair metric for this problem discounts.  Labels come from a
group-specific hyperplane through each cluster's center:

    y = 1{ w_g . (x - mu_g) + noise > 0 }

so roughly half of each cluster carries each label and the label boundary
runs near-vertically through the cluster.  (Anchoring the hyperplane at
the cluster center is what keeps both labels present; an uncentered rule
with these weights would put every point about six standard deviations
from the boundary and produce a single-label dataset that nothing can be
learned from.)

On top of the generator this module provides the experiment drivers:

- ``sweep_heatmap``: fit an intercept for every coefficient pair on a grid
  and audit the resulting classifier, producing heatmap cells;
- ``stopping_time_sweep``: the audit statistic as a function of the attack
  horizon;
- ``robustness_experiment``: how much per-sample loss ratios move when the
  fair metric is perturbed, against the analytic bound;
- coverage / Type I / power calibration experiments on synthetic ratio
  populations with a Monte-Carlo oracle mean;
- group-fairness comparison metrics (balanced accuracy, average odds
  difference).

Grid cells and replicates are independent work items; everything is
deterministic given the seeds in the configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import inference
from .attack import AttackConfig, audit_preset, constant_config_for_horizon, unfair_map_batch
from .dataset import Dataset
from .fair_metric import FairMetric
from .linalg import as_matrix, fields_equal, spectral_norm
from .models import _check_labels, expit, loss_from_logit

BIAS_CLAMP = 50.0
SWEEP_GRID = (-4.0, 4.0, 0.4)  # (lo, hi, step) of both axes of the default heatmap grid
# rows of the stacked (cell, sample) state that one attack call advances together
SWEEP_ROW_BLOCK = 4096


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


def fit_bias(features, labels, w1: float, w2: float) -> float:
    """Intercept minimizing the total logistic loss at fixed coefficients.

    The problem is one-dimensional and convex; a safeguarded Newton
    iteration (bisection fallback inside a bracket) drives the summed
    gradient below 1e-10.  Single-label datasets have no interior
    minimizer and return the clamp value +/-50.
    """
    x = np.asarray(features, dtype=np.float64)
    y = _check_labels(labels, len(x), scalar=False)
    s = x[:, 0] * w1 + x[:, 1] * w2

    def grad(b):
        return float(np.sum(expit(b + s) - y))

    lo, hi = -BIAS_CLAMP, BIAS_CLAMP
    if grad(lo) >= 0.0:  # gradient is increasing in b, so the minimizer sits at or below the clamp
        return lo
    if grad(hi) <= 0.0:
        return hi
    b = 0.0
    for _ in range(200):
        gb = grad(b)
        if abs(gb) < 1e-10:
            return float(b)
        if gb > 0.0:
            hi = b
        else:
            lo = b
        p = expit(b + s)
        curvature = float(np.sum(p * (1.0 - p)))
        b_new = b - gb / curvature if curvature > 0 else 0.5 * (lo + hi)
        if not lo < b_new < hi:
            b_new = 0.5 * (lo + hi)
        b = b_new
    return float(b)


@dataclass(frozen=True)
class GridSpec:
    """Coefficient grids for the heatmap sweep."""

    w1_values: tuple[float, ...]
    w2_values: tuple[float, ...]

    def __post_init__(self):
        if not self.w1_values or not self.w2_values:
            raise ValueError("grid ranges must be non-empty")
        object.__setattr__(self, "w1_values", tuple(float(v) for v in self.w1_values))
        object.__setattr__(self, "w2_values", tuple(float(v) for v in self.w2_values))

    @staticmethod
    def from_range(lo: float, hi: float, step: float) -> tuple[float, ...]:
        if step <= 0 or hi < lo:
            raise ValueError("need step > 0 and hi >= lo")
        # floor keeps the last value at or below hi; the slack absorbs quotients
        # such as 0.3 / 0.1 = 2.9999999999999996
        count = math.floor((hi - lo) / step + 1e-9) + 1
        return tuple(round(lo + k * step, 9) for k in range(count))

    @classmethod
    def default(cls) -> "GridSpec":
        vals = cls.from_range(*SWEEP_GRID)
        return cls(w1_values=vals, w2_values=vals)


class HeatmapCell(NamedTuple):
    theta1: float
    theta2: float
    fitted_bias: float
    t_n: float
    reject: bool
    divergent: bool = False


@dataclass(frozen=True, eq=False)
class StackedLogistic:
    """One logistic model per row: row i has logit ``weights[i] . x_i + bias[i]``.

    It has the ``loss``/``input_gradient`` pair the attack needs, for
    batches with exactly one row per stacked model, so the cells of a sweep
    can be attacked as one state.

    The logit is summed column by column, ``x[:, 0] * w[:, 0] + x[:, 1] *
    w[:, 1] + ...``, which costs a few whole-column operations instead of
    one short inner loop per row.  For ``d <= 2`` it gives exactly the bits
    of ``np.einsum("ij,ij->i", x, w)``; above that it is a plain sequential
    sum, which ``einsum`` may order differently.
    """

    weights: np.ndarray  # (m, d)
    bias: np.ndarray  # (m,)

    __eq__ = fields_equal

    def _logits(self, x):
        w = self.weights
        z = x[:, 0] * w[:, 0]
        for j in range(1, w.shape[1]):
            z += x[:, j] * w[:, j]
        z += self.bias
        return z

    def loss(self, x, y):
        return loss_from_logit(self._logits(x), y)

    def input_gradient(self, x, y):
        s = expit(self._logits(x)) - y
        grad = np.empty(self.weights.shape)
        for j in range(grad.shape[1]):
            np.multiply(s, self.weights[:, j], out=grad[:, j])
        return grad


def sweep_heatmap(
    features,
    labels,
    grid: GridSpec,
    metric: FairMetric,
    attack_cfg: AttackConfig,
    alpha: float = inference.DEFAULT_ALPHA,
    delta: float = inference.DEFAULT_DELTA,
) -> list[HeatmapCell]:
    """Audit a fitted-intercept logistic model at every grid coefficient pair.

    Cells are emitted in row-major order (outer loop over theta1).  Cells
    whose attack diverges are flagged rather than aborting the sweep.

    Every (cell, sample) pair is one row of a stacked state that the attack
    advances in blocks of ``SWEEP_ROW_BLOCK`` rows; a cell is divergent if
    any of its rows diverged.  The other cells are folded as one stack.
    """
    x = np.asarray(features, dtype=np.float64)
    y = _check_labels(labels, len(x), scalar=False)
    n = x.shape[0]
    pairs = [(w1, w2) for w1 in grid.w1_values for w2 in grid.w2_values]
    biases = [fit_bias(x, y, w1, w2) for w1, w2 in pairs]
    cell_weights, cell_bias = np.array(pairs), np.array(biases)
    total = len(pairs) * n
    ratios = np.empty(total)
    diverged = np.zeros(len(pairs), dtype=bool)
    for lo in range(0, total, SWEEP_ROW_BLOCK):
        cell, sample = np.divmod(np.arange(lo, min(lo + SWEEP_ROW_BLOCK, total)), n)
        model = StackedLogistic(weights=cell_weights[cell], bias=cell_bias[cell])
        x0, y0 = x[sample], y[sample]
        attacked, divergent = unfair_map_batch(model, metric, attack_cfg, x0, y0, skip_divergent=True)
        ratios[lo : lo + len(cell)] = model.loss(attacked, y0) / model.loss(x0, y0)
        diverged[cell[divergent]] = True
    t_n = np.full(len(pairs), np.nan)
    reject = np.zeros(len(pairs), dtype=bool)
    t_n[~diverged], reject[~diverged] = inference.loss_ratio_test(ratios.reshape(-1, n)[~diverged], alpha, delta)
    return [
        HeatmapCell(w1, w2, b, t, r, divergent=d)
        for (w1, w2), b, t, r, d in zip(pairs, biases, t_n.tolist(), reject.tolist(), diverged.tolist())
    ]


def stopping_time_sweep(
    model,
    metric: FairMetric,
    features,
    labels,
    horizons,
    lam: float = audit_preset().lam,
    eta: float = audit_preset().eta,
    alpha: float = inference.DEFAULT_ALPHA,
) -> list[tuple[float, float]]:
    """Audit statistic as a function of the attack stopping time.

    Horizons must be non-decreasing.  Each horizon is realized as a
    constant-step Euler run whose step count best matches it; the returned
    pairs carry the realized horizon.  The runs share their prefix, so one
    pass to the longest horizon takes the loss ratios at each step count.
    """
    hs = [float(h) for h in horizons]
    if not hs:
        raise ValueError("horizons must be non-empty")
    if any(h < 0 for h in hs) or any(b < a for a, b in zip(hs, hs[1:])):
        raise ValueError("horizons must be non-negative and non-decreasing")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    cfgs = [constant_config_for_horizon(lam, h, eta) for h in hs]
    counts = np.array([c.num_steps for c in cfgs])
    base = model.loss(x, y)
    ratios = np.empty((len(cfgs), x.shape[0]))

    def at_horizons(k, xk):
        if k in counts:
            ratios[counts == k] = model.loss(xk, y) / base

    unfair_map_batch(model, metric, cfgs[-1], x, y, on_step=at_horizons)
    t_n = inference.one_sided_lower_bound(ratios, alpha)
    return [(c.horizon, t) for c, t in zip(cfgs, t_n.tolist())]


def floor_psd(sigma: np.ndarray) -> np.ndarray:
    """Re-symmetrize and clip negative eigenvalues to zero; ``FairMetric`` checks the result."""
    sym = 0.5 * (sigma + sigma.T)
    evals, evecs = np.linalg.eigh(sym)
    floored = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
    return 0.5 * (floored + floored.T)


def perturbation_direction(dim: int, seed: int = 0) -> np.ndarray:
    """Fixed random symmetric matrix with unit spectral norm, shared across scales."""
    g = np.random.default_rng(seed).standard_normal((dim, dim))
    e = 0.5 * (g + g.T)
    return e / spectral_norm(e)


def robustness_experiment(
    model,
    metric_exact: FairMetric,
    perturbation_scales,
    features,
    labels,
    attack_cfg: AttackConfig,
    perturb_seed: int = 0,
) -> list[tuple[float, float]]:
    """Max per-sample ratio gap between exact and perturbed-metric audits.

    For each scale s the perturbed metric is the PSD floor of
    sigma_exact + s * E with E a fixed unit-spectral-norm symmetric
    direction.  Scale 0 reuses the exact audit's ratios, so its gap is
    exactly zero; positive scales shrink the gap as s decreases.
    """
    scales = [float(s) for s in perturbation_scales]
    if not scales:
        raise ValueError("perturbation_scales must be non-empty")
    if any(s < 0 for s in scales) or any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("perturbation_scales must be non-negative and strictly decreasing")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    e = perturbation_direction(metric_exact.dim, perturb_seed)
    attacked, _ = unfair_map_batch(model, metric_exact, attack_cfg, x, y)
    clean = model.loss(x, y)
    base = model.loss(attacked, y) / clean
    out = []
    for s in scales:
        other = base
        if s > 0.0:
            metric2 = FairMetric(sigma=floor_psd(metric_exact.sigma + s * e))
            attacked2, _ = unfair_map_batch(model, metric2, attack_cfg, x, y)
            other = model.loss(attacked2, y) / clean
        out.append((s, float(np.max(np.abs(base - other)))))
    return out


def robustness_gap_bound(
    lam: float, delta_d: float, lipschitz_l: float, loss_lipschitz: float, diameter: float, horizon: float, loss_floor: float
) -> float:
    """Analytic cap on the ratio gap: sqrt(lam d / L) * L0 D e^{L T} / c."""
    if min(lam, lipschitz_l, loss_lipschitz, diameter, loss_floor) <= 0 or delta_d < 0 or horizon < 0:
        raise ValueError("constants must be positive (delta_d and horizon non-negative)")
    return math.sqrt(lam * delta_d / lipschitz_l) * loss_lipschitz * diameter * math.exp(lipschitz_l * horizon) / loss_floor


def balanced_accuracy(y_true, y_pred) -> float:
    """Mean of the per-class recalls; requires both classes in y_true."""
    yt = np.asarray(y_true, dtype=np.int64)
    yp = np.asarray(y_pred, dtype=np.int64)
    if yt.shape != yp.shape:
        raise ValueError("y_true and y_pred must have equal length")
    recalls = []
    for c in (0, 1):
        mask = yt == c
        if not np.any(mask):
            raise ValueError(f"class {c} missing from y_true")
        recalls.append(float(np.mean(yp[mask] == c)))
    return float(np.mean(recalls))


def average_odds_difference(y_true, y_pred, group) -> float:
    """Mean of the TPR and FPR gaps between group 1 and group 0."""
    yt = np.asarray(y_true, dtype=np.int64)
    yp = np.asarray(y_pred, dtype=np.int64)
    g = np.asarray(group, dtype=np.int64)
    if not (yt.shape == yp.shape == g.shape):
        raise ValueError("y_true, y_pred and group must have equal length")
    rates = {}
    for y_val in (1, 0):
        for g_val in (0, 1):
            mask = (yt == y_val) & (g == g_val)
            if not np.any(mask):
                raise ValueError(f"empty stratum y={y_val}, group={g_val}")
            rates[(y_val, g_val)] = float(np.mean(yp[mask] == 1))
    tpr_diff = rates[(1, 1)] - rates[(1, 0)]
    fpr_diff = rates[(0, 1)] - rates[(0, 0)]
    return 0.5 * (tpr_diff + fpr_diff)


@dataclass(frozen=True)
class CalibrationSpec:
    """Sizes, populations and seed of the coverage, Type I and power experiments.

    Coverage is checked on a population with mean ``coverage_mean``, Type I
    error at the test's ``delta`` and power five standard errors above it;
    the three populations share ``sd`` and ``shape`` and draw from seeds
    ``seed``, ``seed + 1`` and ``seed + 2``.
    """

    n: int = 500
    coverage_replicates: int = 1000
    replicates: int = 200
    coverage_mean: float = 2.0
    sd: float = 0.5
    shape: float = 4.0
    seed: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")


@dataclass(frozen=True)
class RatioPopulation:
    """Synthetic loss-ratio population: a shifted gamma with known mean and sd.

    Draws are mean + (sd / sqrt(shape)) * (Gamma(shape) - shape), so the
    population mean is exact by construction and the support stays above
    mean - sd * sqrt(shape) (non-negative for the defaults used here).
    """

    mean: float
    sd: float = CalibrationSpec.sd
    shape: float = CalibrationSpec.shape

    def __post_init__(self):
        if self.sd <= 0 or self.shape <= 0:
            raise ValueError(f"population sd and shape must be positive, got sd {self.sd!r} and shape {self.shape!r}")
        if self.mean - self.sd * math.sqrt(self.shape) < 0:
            raise ValueError(
                "population support would include negative ratios:"
                f" mean {self.mean!r} - sd {self.sd!r} * sqrt(shape {self.shape!r}) < 0"
            )

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        scale = self.sd / math.sqrt(self.shape)
        return self.mean + scale * (rng.gamma(self.shape, 1.0, size) - self.shape)


def oracle_mean(pop: RatioPopulation, seed: int, draws: int = 10**6) -> float:
    """Monte-Carlo estimate of the population mean, independent of any test path."""
    return float(np.mean(pop.sample(np.random.default_rng(seed), draws)))


class CalibrationResult(NamedTuple):
    experiment: str
    n: int
    replicates: int
    rate: float


def coverage_experiment(
    pop: RatioPopulation,
    n: int = CalibrationSpec.n,
    replicates: int = CalibrationSpec.coverage_replicates,
    alpha: float = inference.DEFAULT_ALPHA,
    seed: int = CalibrationSpec.seed,
) -> tuple[CalibrationResult, float]:
    """Fraction of two-sided intervals covering the oracle mean."""
    if replicates < 1:
        raise ValueError(f"coverage replicates must be at least 1, got {replicates!r}")
    ss = np.random.SeedSequence(seed).spawn(2)
    target = oracle_mean(pop, seed=int(ss[0].generate_state(1)[0]))
    rng = np.random.default_rng(ss[1])
    hits = 0
    for _ in range(replicates):
        lo, hi = inference.two_sided_ci(pop.sample(rng, n), alpha)
        hits += int(lo <= target <= hi)
    return CalibrationResult("coverage", n, replicates, hits / replicates), target


def rejection_rate_experiment(
    pop: RatioPopulation,
    delta: float,
    n: int = CalibrationSpec.n,
    replicates: int = CalibrationSpec.replicates,
    alpha: float = inference.DEFAULT_ALPHA,
    seed: int = CalibrationSpec.seed + 1,
    name: str = "type1",
) -> CalibrationResult:
    """Fraction of replicates on which the one-sided test rejects at ``delta``."""
    if replicates < 1:
        raise ValueError(f"{name} replicates must be at least 1, got {replicates!r}")
    rng = np.random.default_rng(seed)
    rejections = 0
    for _ in range(replicates):
        _, reject = inference.loss_ratio_test(pop.sample(rng, n), alpha, delta)
        rejections += int(reject)
    return CalibrationResult(name, n, replicates, rejections / replicates)


def calibrate(
    spec: CalibrationSpec, alpha: float = inference.DEFAULT_ALPHA, delta: float = inference.DEFAULT_DELTA
) -> list[CalibrationResult]:
    """The coverage, Type I and power experiments of ``spec`` for the test at ``alpha`` and ``delta``."""
    means = {"coverage": spec.coverage_mean, "type1": delta, "power": delta + 5.0 * spec.sd / math.sqrt(spec.n)}
    pops = {}
    for name, mean in means.items():
        try:
            pops[name] = RatioPopulation(mean=mean, sd=spec.sd, shape=spec.shape)
        except ValueError as exc:
            raise ValueError(f"{name} {exc}") from None
    coverage, _ = coverage_experiment(
        pops["coverage"], n=spec.n, replicates=spec.coverage_replicates, alpha=alpha, seed=spec.seed
    )
    return [coverage] + [
        rejection_rate_experiment(
            pops[name], delta, n=spec.n, replicates=spec.replicates, alpha=alpha, seed=spec.seed + k, name=name
        )
        for k, name in ((1, "type1"), (2, "power"))
    ]
