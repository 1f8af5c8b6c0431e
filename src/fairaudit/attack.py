"""Gradient-flow attack: the unfair map and its stability diagnostics.

Starting from an audit point x0 with label y, the attack follows the
penalized ascent field

    g(x) = grad_x loss(f(x), y) - lam * grad_x d^2(x, x0)

by explicit forward-Euler steps x_k = x_{k-1} + eta_k g(x_{k-1}).  The
end point after all steps is the unfair map Phi(x0, y): a point the fair
metric considers similar to x0 (large deviations in non-discounted
directions are paid for at rate lam) on which the model does worse.  The
effective horizon is T = sum_k eta_k, so the same flow can be expressed
either by a step budget or by a stopping time.

Plain forward Euler is used deliberately: the audited statistic is defined
algorithmically, and a fancier adaptive integrator would change what is
being measured.  For fields with an analytically known flow,
``stability_gap`` checks the discretization against the global error bound
h * m * sqrt(d) / (2 L) * (e^{L T} - 1), where L is a Lipschitz constant of
the field and m bounds ||J_g(x) g(x)||_inf along the path.

``unfair_map_batch`` attacks a batch of points at once and is pure:
identical inputs give bit-identical outputs, and each sample's outcome
depends only on its own inputs.  ``unfair_map`` is Phi on a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fair_metric import FairMetric
from .linalg import fields_equal

DIVERGENCE_RADIUS = 1e6


class DivergenceError(RuntimeError):
    """Euler iterates left the trust region or became non-finite."""


class StabilityBoundError(RuntimeError):
    """Observed Euler error exceeded the global stability bound."""


@dataclass(frozen=True)
class AttackConfig:
    """Penalty strength, step budget, and step-size schedule.

    ``schedule`` is ``"constant"`` (every step ``eta``) or ``"decay"``
    (step t gets ``decay_c / t**decay_p``); the field defaults own the step
    settings.  ``num_steps == 0`` makes the attack the identity map.
    """

    lam: float
    num_steps: int
    schedule: str = "constant"
    eta: float = 0.01
    decay_c: float = 0.02
    decay_p: float = 2.0 / 3.0

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam!r}")
        if self.num_steps < 0:
            raise ValueError("num_steps must be non-negative")
        if self.schedule not in ("constant", "decay"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "constant" and not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta!r}")
        if self.schedule == "decay" and not 0 < self.decay_c < math.inf:
            raise ValueError(f"decay_c must be positive and finite, got {self.decay_c!r}")
        if self.schedule == "decay" and not 0 <= self.decay_p < math.inf:
            raise ValueError(f"decay_p must be non-negative and finite, got {self.decay_p!r}")

    def step_sizes(self) -> np.ndarray:
        if self.schedule == "constant":
            return np.full(self.num_steps, self.eta)
        t = np.arange(1, self.num_steps + 1, dtype=np.float64)
        return self.decay_c / t**self.decay_p

    @property
    def horizon(self) -> float:
        """Effective stopping time T = sum of step sizes."""
        return float(np.sum(self.step_sizes()))


def audit_preset() -> AttackConfig:
    """Default settings for auditing trained classifiers on tabular data."""
    return AttackConfig(lam=50.0, num_steps=500)


def sim_preset() -> AttackConfig:
    """Default settings for the 2-D synthetic study (decaying steps)."""
    return AttackConfig(lam=100.0, num_steps=400, schedule="decay")


def constant_config_for_horizon(lam: float, horizon: float, eta: float = AttackConfig.eta) -> AttackConfig:
    """Constant-step config whose step count best matches the requested horizon."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if not eta > 0:
        raise ValueError("eta must be positive")
    return AttackConfig(lam=lam, num_steps=int(round(horizon / eta)), schedule="constant", eta=eta)


@dataclass(frozen=True, eq=False)
class AttackTrace:
    """Per-step record of a batch attack: iterates x_0..x_N, losses, and penalties.

    ``losses[k, i]`` is the clamped model loss of sample i at iterate k and
    ``penalties[k, i]`` is lam * d^2(x_k, x_0) for that sample, so
    ``losses - penalties`` is the penalized objective the flow ascends.
    One point's trace is column 0 of the trace of a batch of one.
    """

    iterates: np.ndarray  # (N+1, n, d)
    losses: np.ndarray  # (N+1, n)
    penalties: np.ndarray  # (N+1, n)
    step_sizes: np.ndarray  # (N,)
    horizon: float

    __eq__ = fields_equal

    @classmethod
    def record(cls, model, metric: FairMetric, cfg: AttackConfig, iterates, x0, y) -> AttackTrace:
        """Batch trace from the ``(N+1, n, d)`` states of an attack, recorded by ``on_step=states.__setitem__``."""
        losses = np.empty(iterates.shape[:2])
        penalties = np.empty(iterates.shape[:2])
        for k, xk in enumerate(iterates):
            losses[k] = model.loss(xk, y)
            penalties[k] = cfg.lam * metric.distance_sq(xk, x0)
        return cls(iterates, losses, penalties, cfg.step_sizes(), cfg.horizon)

    def objective(self) -> np.ndarray:
        return self.losses - self.penalties


def flow_field(model, metric: FairMetric, lam: float, x, x0, y, out=None):
    """Penalized ascent field g(x) on an (n, d) batch.

    ``out``, if given, is an array of the field's shape that receives g(x)
    and is returned.  The array the model's gradient returns is only read.
    The penalty is formed first, so its temporaries are freed before the
    model allocates its gradient.
    """
    penalty = metric.distance_sq_gradient(x, x0, out=out)
    penalty *= lam
    return np.subtract(model.input_gradient(x, y), penalty, out=penalty)


def unfair_map(model, metric: FairMetric, cfg: AttackConfig, x0, y) -> np.ndarray:
    """The unfair map Phi(x0, y) of one point: ``unfair_map_batch`` on a batch of one."""
    xb, yb = np.asarray(x0, dtype=np.float64)[None], np.asarray(y, dtype=np.float64)[None]
    return unfair_map_batch(model, metric, cfg, xb, yb)[0][0]


def unfair_map_batch(model, metric: FairMetric, cfg: AttackConfig, x0, y, skip_divergent: bool = False, on_step=None):
    """Vectorized attack over an (n, d) batch of independent samples.

    Returns ``(x_final, divergent)`` where ``divergent`` is the sorted list
    of sample indices whose iterates blew up.  Diverged samples are frozen
    at their last finite iterate; unless ``skip_divergent`` is set, any
    divergence raises instead.

    ``on_step(k, x)``, if given, is called once for each ``k = 0..num_steps``
    in order, with the state after k steps (``x0`` for 0).  ``x`` is the
    live state buffer: the callback may read or copy it, but must not keep
    or change it.  ``states.__setitem__`` records every step into an
    ``(N+1, n, d)`` array ``states``.

    Each step updates the whole state at once; a mask that freezes the
    diverged rows exists only after the first divergence.  The model sees
    the full batch every step, so it may carry per-row parameters
    (``sim.sweep_heatmap`` stacks grid cells this way).  While no row is
    frozen, a step whose every displacement entry is within
    ``DIVERGENCE_RADIUS / (2 sqrt(d))`` cannot have a row past the radius,
    so it skips the per-row norms.

    The state, the field and the displacement live in ``(n, d)`` buffers
    allocated once per call, so a step allocates nothing of that size but
    the model's gradient and the metric's difference ``x - x0``.  The
    returned ``x_final`` is one of these buffers.  This is the one check of
    attack inputs: a non-finite ``x0``, or shapes other than ``(n, d)`` and
    ``(n,)``, raise a ``ValueError`` naming them.
    """
    x0, y = np.asarray(x0, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x0.ndim != 2 or y.shape != x0.shape[:1] or not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be a finite (n, d) array and y an (n,) array, got shapes {x0.shape} and {y.shape}")
    # the workspace: two states swapped every step, the field, the displacement
    x = x0.copy()
    x_next = np.empty(x0.shape)
    field = np.empty(x0.shape)
    moved = np.empty(x0.shape)
    if on_step is not None:
        on_step(0, x)
    # a row with no entry farther than this from x0 has norm at most R / 2, so it is within
    # the radius R; None for an empty batch, which has no entries to bound
    near = DIVERGENCE_RADIUS / (2.0 * math.sqrt(x0.shape[1])) if x0.size else None
    dead = None
    divergent: list[int] = []
    # overflow in a diverging row is detected below, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        for k, eta in enumerate(cfg.step_sizes(), start=1):
            g = flow_field(model, metric, cfg.lam, x, x0, y, out=field)
            g *= eta
            np.add(g, x, out=x_next)
            np.subtract(x_next, x0, out=moved)
            # exact per-row norms only when the entry bound cannot clear every row (NaN and inf
            # fail both comparisons) or a row is frozen, whose next candidate seldom passes it
            if dead is not None or near is None or not (-near <= moved.min() and moved.max() <= near):
                bad = ~(np.einsum("ij,ij->i", moved, moved) <= DIVERGENCE_RADIUS**2)
                if dead is not None:
                    bad &= ~dead
                if np.any(bad):
                    bad_idx = np.flatnonzero(bad)
                    if not skip_divergent:
                        raise DivergenceError(f"attack diverged at step {k} on sample {int(bad_idx[0])}")
                    divergent.extend(bad_idx.tolist())
                    dead = bad if dead is None else dead | bad
            if dead is not None:
                np.copyto(x_next, x, where=dead[:, None])
            x, x_next = x_next, x
            if on_step is not None:
                on_step(k, x)
    divergent.sort()
    return x, divergent


@dataclass(frozen=True)
class StabilityProbe:
    """Constants entering the global Euler error bound."""

    lipschitz_L: float
    curvature_m: float
    dim_d: int
    max_step_h: float

    def __post_init__(self):
        if min(self.lipschitz_L, self.curvature_m, self.max_step_h) <= 0 or self.dim_d <= 0:
            raise ValueError("all probe constants must be positive")

    def bound(self, horizon: float, h: float | None = None) -> float:
        h_eff = self.max_step_h if h is None else h
        return (
            h_eff
            * self.curvature_m
            * np.sqrt(self.dim_d)
            / (2.0 * self.lipschitz_L)
            * np.expm1(self.lipschitz_L * horizon)
        )


@dataclass(frozen=True)
class LinearFlowProblem:
    """Flow field g(x) = A x + c with A symmetric, solved in closed form.

    The exact solution through x0 is computed by eigendecomposition of A,
    which also handles singular A (zero eigenvalues integrate to linear
    drift).  Used to measure true Euler discretization error.
    """

    a: np.ndarray
    c: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64)
        x0 = np.asarray(self.x0, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("a must be square")
        if np.max(np.abs(a - a.T)) > 1e-10:
            raise ValueError("a must be symmetric")
        if c.shape != (a.shape[0],) or x0.shape != (a.shape[0],):
            raise ValueError("c and x0 must match the dimension of a")
        evals, evecs = np.linalg.eigh(a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "_evals", evals)
        object.__setattr__(self, "_evecs", evecs)

    def input_gradient(self, x, y):
        """The field on an (n, d) batch, in the model interface the attack calls; ``y`` is unused."""
        return x @ self.a + self.c

    def exact(self, t: float) -> np.ndarray:
        lam = self._evals
        y0 = self._evecs.T @ self.x0
        cv = self._evecs.T @ self.c
        growth = np.exp(lam * t)
        # (e^{lam t} - 1)/lam, continuous at lam = 0 where it equals t
        small = np.abs(lam) < 1e-14
        drift = np.where(small, t, np.expm1(np.where(small, 1.0, lam) * t) / np.where(small, 1.0, lam))
        return self._evecs @ (growth * y0 + drift * cv)


def stability_gap(probe: StabilityProbe, problem, cfg: AttackConfig) -> float:
    """Max L2 gap between the attack's Euler iterates and the problem's exact flow.

    The problem's field is attacked from ``problem.x0`` by ``unfair_map_batch``
    under a zero metric, so the iterates come from the kernel audits run.  The gap
    is checked against the probe's global error bound for the realized
    horizon and maximal step; a violation raises ``StabilityBoundError``, and
    a flow that leaves ``DIVERGENCE_RADIUS`` raises ``DivergenceError``.  The
    problem object must expose ``x0``, ``input_gradient(x, y)`` and ``exact(t)``.
    """
    steps = cfg.step_sizes()
    if steps.size == 0:
        raise ValueError("stability_gap needs at least one step")
    h = float(np.max(steps))
    if h > probe.max_step_h + 1e-15:
        raise ValueError(f"maximal step {h} exceeds probe.max_step_h {probe.max_step_h}")
    x0 = np.asarray(problem.x0, dtype=np.float64)
    t = 0.0
    gap = 0.0

    def measure(k, x):
        nonlocal t, gap
        if k:
            t += steps[k - 1]
            gap = max(gap, float(np.linalg.norm(problem.exact(t) - x[0])))

    zero = FairMetric(sigma=np.zeros((x0.size, x0.size)))
    unfair_map_batch(problem, zero, cfg, x0[None], np.zeros(1), on_step=measure)
    bound = probe.bound(t, h)
    if gap > bound:
        raise StabilityBoundError(f"Euler gap {gap} exceeds stability bound {bound}")
    return gap
