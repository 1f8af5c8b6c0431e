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
the last axis, so one call folds a stack of ratio samples, and it works
through the stack in row blocks of about ``attack.BLOCK_BYTES`` of
ratios, so it allocates one block whatever the stack's size.  The
quantiles z_p come from Wichura's AS241 computed with ``math`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .attack import BLOCK_BYTES, AttackConfig, attack_rows
from .attack import unfair_map_batch  # noqa: F401  bench/traced_cli.py wraps this name; ROADMAP item 14 moves it
from .dataset import json_text
from .fair_metric import FairMetric
from .linalg import fields_equal

INDEPENDENCE_NOTE = "audit data assumed independent of the model's training data"


class NoBaselineErrors(ValueError):
    """No original sample is misclassified, so the error-rates ratio is undefined; the CLI reports it as bad input."""


# Wichura's AS241 (Applied Statistics 37(3), 1988), as CPython's statistics module spells it: a rational
# function of r for each of three ranges of p, each numerator and denominator highest coefficient first
_AS241_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
     4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
     2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0),
)
_AS241_INTERMEDIATE = (
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
     1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
     1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0),
)
_AS241_TAIL = (
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
     2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
     7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0),
)


def _horner(coefficients, r: float) -> float:
    acc = 0.0  # 0 * r + c is exactly c, so the first step leaves the leading coefficient
    for c in coefficients:
        acc = acc * r + c
    return acc


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF z_p, i.e. Phi(z_p) = p.

    Wichura's AS241 in the operation order of ``statistics.NormalDist().inv_cdf``, so it returns the
    same bits with ``math`` alone (``statistics`` loads ``decimal`` and ``fractions``).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    q = p - 0.5
    if math.fabs(q) <= 0.425:
        r = 0.180625 - q * q
        num, den = _AS241_CENTRAL
        return _horner(num, r) * q / _horner(den, r)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    if r <= 5.0:
        (num, den), r = _AS241_INTERMEDIATE, r - 1.6
    else:
        (num, den), r = _AS241_TAIL, r - 5.0
    x = _horner(num, r) / _horner(den, r)
    return -x if q < 0.0 else x


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


def loss_ratio_stats(ratios):
    """Sample mean S_n and standard deviation V_n (n-1 convention) of the ratios.

    1-D ratios give floats; a ``(..., n)`` stack gives arrays of shape ``(...)``
    whose entry i is bitwise the fold of row i alone.  The rows are folded
    ``BLOCK_BYTES`` of ratios at a time (at least one row), each block checked
    and centered in one reused buffer, so the fold allocates one block, not
    a copy of the stack.
    """
    r = np.asarray(ratios)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ValueError("need at least two ratio samples")
    n = r.shape[-1]
    rows = r.reshape(-1, n)
    s_n = np.empty(rows.shape[0])
    v_n = np.empty(rows.shape[0])
    step = max(1, BLOCK_BYTES // (8 * n))
    buf = np.empty((min(step, rows.shape[0]), n))
    for lo in range(0, rows.shape[0], step):
        block = np.ascontiguousarray(rows[lo : lo + step], dtype=np.float64)
        if not np.isfinite(block).all() or (block < 0).any():
            raise ValueError("ratios must be finite and non-negative")
        s, v, centered = s_n[lo : lo + step], v_n[lo : lo + step], buf[: block.shape[0]]
        np.add.reduce(block, axis=-1, out=s)
        s /= n
        np.subtract(block, s[:, None], out=centered)
        np.square(centered, out=centered)
        np.add.reduce(centered, axis=-1, out=v)
        v /= n - 1
        np.sqrt(v, out=v)
    if r.ndim == 1:
        return float(s_n[0]), float(v_n[0])
    return s_n.reshape(r.shape[:-1]), v_n.reshape(r.shape[:-1])


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
    ``on_step(k, x, rows)`` is passed to ``attack.attack_rows`` unchanged: it
    sees every state of every row block, rows later dropped for divergence
    included, and the report's ``index`` names the rows that were kept.
    """
    # the ratios and predictions read x itself unless rows are dropped, and C order gives them the bits of a copy
    x = np.ascontiguousarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    check_levels(alpha, delta)
    attacked, divergent = attack_rows(model, metric, attack_cfg, x, y, skip_divergent=skip_divergent, on_step=on_step)

    idx, x_kept, y_kept = np.arange(x.shape[0]), x, y
    if divergent:  # copies only to drop rows
        idx = np.delete(idx, divergent)
        x_kept, y_kept, attacked = x[idx], y[idx], attacked[idx]
    if idx.size < 2:
        raise ValueError("fewer than two non-divergent samples; cannot audit")

    ratios = model.loss(attacked, y_kept) / model.loss(x_kept, y_kept)
    labels01 = y_kept.astype(np.int64)
    pre01 = (_predictions(model, x_kept) != labels01).astype(np.int64)
    post01 = (_predictions(model, attacked) != labels01).astype(np.int64)

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
