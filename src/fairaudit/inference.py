"""Audit statistics: ratio moments, confidence intervals, and decision rules.

Given per-sample loss ratios r_i = loss(f(Phi(x_i, y_i)), y_i) /
loss(f(x_i), y_i), the audit value is the population mean of r.  The
sample supplies

    S_n = mean(r)                 (audit statistic)
    V_n^2 = sum (r_i - S_n)^2 / (n - 1)

and the central limit theorem gives asymptotically exact intervals and a
calibrated one-sided test: reject fairness at tolerance delta when

    T_n = S_n - z_{1-alpha} V_n / sqrt(n) > delta.

For 0-1 losses the per-sample ratio is undefined whenever the original
point is classified correctly, so the error-rates variant tests the ratio
of means instead: S~ = A_n / B_n with A_n, B_n the attacked and original
misclassification rates.  Its variance comes from the delta method applied
to the mean vector (A_n, B_n); the second moments are accumulated
uncentered with a 1/n normalization, which yields the same quadratic form
as the centered covariance because the mean cross terms cancel exactly.

All statistics are pure folds over per-sample values.  ``fold_ratios``
forms every loss-ratio bound and ``error_rate_report`` the error-rates
one; the other tests are views of these two.  The loss-ratio fold takes
the last axis, so one call folds a stack of ratio samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .attack import AttackConfig, unfair_map_batch
from .dataset import json_text
from .fair_metric import FairMetric
from .linalg import fields_equal

INDEPENDENCE_NOTE = "audit data assumed independent of the model's training data"


class NoBaselineErrors(RuntimeError):
    """The model classifies every original sample correctly; the error-rates ratio is undefined."""


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF z_p, i.e. Phi(z_p) = p."""
    # imported here: statistics loads decimal and fractions, which only this needs
    import statistics

    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    return statistics.NormalDist().inv_cdf(p)


DEFAULT_ALPHA = 0.05
DEFAULT_DELTA = 1.25


def check_levels(alpha: float, delta: float | None = None) -> None:
    """The audit's level policy: alpha in (0, 0.5] and, when given, delta > 1.

    Both comparisons fail for NaN, so a NaN level is rejected too.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5], got {alpha!r}")
    if delta is not None and not delta > 1.0:
        raise ValueError(f"delta must exceed 1, got {delta!r}")


def _margin(spread: float, n: int, tail: float) -> float:
    """z_{1-tail} spread / sqrt(n): the half-width behind every interval, T_n and T~."""
    return normal_quantile(1.0 - tail) * spread / math.sqrt(n)


def _check_ratios(ratios) -> np.ndarray:
    r = np.asarray(ratios, dtype=np.float64)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ValueError("need at least two ratio samples")
    if not np.all(np.isfinite(r)) or np.any(r < 0):
        raise ValueError("ratios must be finite and non-negative")
    return r


def loss_ratio_stats(ratios):
    """Sample mean S_n and standard deviation V_n (n-1 convention) of the ratios.

    1-D ratios give floats; a ``(groups, n)`` stack gives ``(groups,)``
    arrays whose row i is bitwise the fold of row i alone.
    """
    r = _check_ratios(ratios)
    s_n = np.mean(r, axis=-1)
    v_n = np.sqrt(np.sum((r - s_n[..., None]) ** 2, axis=-1) / (r.shape[-1] - 1))
    return (float(s_n), float(v_n)) if r.ndim == 1 else (s_n, v_n)


class RatioFold(NamedTuple):
    """The mean-of-ratios statistics; fields are floats, or ``(groups,)`` arrays for a stack."""

    n: int
    s_n: float
    v_n: float
    ci_lo: float  # S_n - z_{1-alpha/2} V_n / sqrt(n)
    ci_hi: float  # S_n + z_{1-alpha/2} V_n / sqrt(n)
    t_n: float  # S_n - z_{1-alpha} V_n / sqrt(n), the one-sided lower bound
    reject: bool | None  # T_n > delta; None without delta


def fold_ratios(ratios, alpha: float, delta: float | None = None) -> RatioFold:
    """Fold the last axis of ``ratios`` into every loss-ratio statistic at once.

    This is the one place the bounds S_n +/- margin and the decision
    T_n > delta are formed; a ``(groups, n)`` stack gives row i bitwise as
    the fold of row i alone.
    """
    check_levels(alpha, delta)
    r = np.asarray(ratios)
    s_n, v_n = loss_ratio_stats(r)
    n = r.shape[-1]
    half = _margin(v_n, n, alpha / 2.0)
    t_n = s_n - _margin(v_n, n, alpha)
    return RatioFold(n, s_n, v_n, s_n - half, s_n + half, t_n, None if delta is None else t_n > delta)


def two_sided_ci(ratios, alpha: float):
    """Equal-tailed interval ``(ci_lo, ci_hi)`` of ``fold_ratios``."""
    return fold_ratios(ratios, alpha)[3:5]


def one_sided_lower_bound(ratios, alpha: float):
    """Lower end ``t_n`` of the one-sided interval of ``fold_ratios``."""
    return fold_ratios(ratios, alpha).t_n


def loss_ratio_test(ratios, alpha: float, delta: float):
    """One-sided lower confidence bound and its decision, ``(t_n, reject)`` of ``fold_ratios``."""
    return fold_ratios(ratios, alpha, delta)[5:]


def _check_zero_one_pair(post, pre) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(post, dtype=np.float64)
    b = np.asarray(pre, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 2:
        raise ValueError("post and pre must be equal-length 1-D arrays with n >= 2")
    for name, arr in (("post", a), ("pre", b)):
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise ValueError(f"{name} entries must be 0 or 1")
    return a, b


class ErrorRateStats(NamedTuple):
    a_n: float  # attacked misclassification rate
    b_n: float  # original misclassification rate
    s_tilde: float  # A_n / B_n
    var_hat: float  # delta-method variance of s_tilde


def error_rate_stats(post, pre) -> ErrorRateStats:
    """Ratio-of-means statistic for 0-1 losses with its delta-method variance.

    The uncentered second-moment matrix (1/n normalization) enters the
    quadratic form A^2 M22 + B^2 M11 - 2 A B M12, which is algebraically
    identical to the centered version, and the variance estimate is that
    form divided by n B^4.
    """
    a, b = _check_zero_one_pair(post, pre)
    n = a.shape[0]
    a_n = float(np.mean(a))
    b_n = float(np.mean(b))
    if b_n == 0.0:
        raise NoBaselineErrors("no original sample is misclassified; the error-rates ratio is undefined")
    m11 = float(np.mean(a * a))
    m22 = float(np.mean(b * b))
    m12 = float(np.mean(a * b))
    quad = a_n**2 * m22 + b_n**2 * m11 - 2.0 * a_n * b_n * m12
    return ErrorRateStats(a_n=a_n, b_n=b_n, s_tilde=a_n / b_n, var_hat=quad / (n * b_n**4))


class ErrorRateReport(NamedTuple):
    a_n: float
    b_n: float
    s_tilde: float
    t_tilde: float  # S~ - z_{1-alpha} sqrt(var_hat)
    reject: bool  # T~ > delta


def error_rate_report(post, pre, alpha: float, delta: float) -> ErrorRateReport:
    """The error-rates test: the one place T~ and its decision T~ > delta are formed."""
    check_levels(alpha, delta)
    stats = error_rate_stats(post, pre)
    t_tilde = stats.s_tilde - _margin(math.sqrt(stats.var_hat), 1, alpha)
    return ErrorRateReport(stats.a_n, stats.b_n, stats.s_tilde, t_tilde, t_tilde > delta)


def error_rate_test(post, pre, alpha: float, delta: float) -> tuple[float, bool]:
    """Calibrated error-rates statistic and its decision, ``(t_tilde, reject)`` of ``error_rate_report``."""
    return error_rate_report(post, pre, alpha, delta)[3:]


# the fields behind the statistics, which the report file leaves out
_PER_SAMPLE_FIELDS = ("index", "ratios", "pre01", "post01")


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Everything an audit produces, plus the per-sample values behind it.

    ``index`` holds the original positions of the audited samples (dropped
    divergent samples are listed in ``divergent``).  The serialized form
    keeps only the aggregate statistics.
    """

    n: int
    s_n: float
    v_n: float
    t_n: float
    ci_lo: float
    ci_hi: float
    ci_one_sided_lo: float
    alpha: float
    delta: float
    reject: bool
    error_rate: ErrorRateReport | None
    divergent: tuple[int, ...]
    note: str
    index: np.ndarray
    ratios: np.ndarray
    pre01: np.ndarray
    post01: np.ndarray

    __eq__ = fields_equal

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _PER_SAMPLE_FIELDS}
        if self.error_rate is not None:
            doc["error_rate"] = self.error_rate._asdict()
        return doc

    def to_json(self, extra: dict | None = None) -> str:
        return json_text({**self.to_dict(), **(extra or {})})


def _predictions(model, x) -> np.ndarray:
    # threshold at 0.5 with ties predicting class 1
    return (np.asarray(model.predict_proba(x)) >= 0.5).astype(np.int64)


def audit(
    model,
    metric: FairMetric,
    attack_cfg: AttackConfig,
    features,
    labels,
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    skip_divergent: bool = False,
    include_error_rate: bool = True,
    on_step=None,
) -> AuditReport:
    """Attack every sample and assemble the full audit report.

    The smooth-loss ratios feed the mean-of-ratios test; thresholded
    predictions before and after the attack feed the error-rates test.
    Samples whose attack diverges abort the audit unless
    ``skip_divergent`` is set, in which case they are excluded and listed
    in the report; if that leaves no misclassified sample, the error-rates
    test raises ``NoBaselineErrors`` naming the dropped rows.  The caller
    is responsible for auditing on data the model was not trained on; the
    report carries that obligation as a note.
    ``on_step`` is passed to the attack unchanged: it sees every state of
    the full batch, rows later dropped for divergence included, and the
    report's ``index`` names the rows that were kept.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    check_levels(alpha, delta)
    attacked, divergent = unfair_map_batch(model, metric, attack_cfg, x, y, skip_divergent=skip_divergent, on_step=on_step)

    keep = np.ones(x.shape[0], dtype=bool)
    keep[list(divergent)] = False
    idx = np.flatnonzero(keep)
    if idx.size < 2:
        raise ValueError("fewer than two non-divergent samples; cannot audit")

    ratios = model.loss(attacked[idx], y[idx]) / model.loss(x[idx], y[idx])
    pre01 = (_predictions(model, x[idx]) != y[idx].astype(np.int64)).astype(np.int64)
    post01 = (_predictions(model, attacked[idx]) != y[idx].astype(np.int64)).astype(np.int64)

    if include_error_rate and divergent and not pre01.any():
        dropped = list(divergent)
        wrong = int(np.sum(_predictions(model, x[dropped]) != y[dropped].astype(np.int64)))
        raise NoBaselineErrors(
            f"no kept sample is misclassified: skip_divergent dropped {len(dropped)} divergent rows, {wrong} of them"
            ' misclassified, so the error-rates ratio is undefined; set "error_rate": false to audit without it'
        )
    fold = fold_ratios(ratios, alpha, delta)
    error_rate = error_rate_report(post01, pre01, alpha, delta) if include_error_rate else None

    return AuditReport(
        **fold._asdict(),
        ci_one_sided_lo=fold.t_n,
        alpha=alpha,
        delta=delta,
        error_rate=error_rate,
        divergent=tuple(divergent),
        note=INDEPENDENCE_NOTE,
        index=idx,
        ratios=np.asarray(ratios),
        pre01=pre01,
        post01=post01,
    )
