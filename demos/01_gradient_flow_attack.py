#!/usr/bin/env python3
"""Walk through the gradient-flow attack on a single audit point.

The attack integrates the penalized ascent field
    g(x) = grad loss(f(x), y) - lam * grad d^2(x, x0)
with forward Euler.  This script attacks a batch of one point, recording
every step through the kernel's ``on_step`` hook, and reads that point's
trace as column 0 of the batch trace.
It then demonstrates the global stability bound for the discretization.
"""

import math

import numpy as np

from fairaudit import (
    AttackConfig,
    AttackTrace,
    LinearFlowProblem,
    LogisticModel,
    StabilityProbe,
    stability_gap,
    unfair_map_batch,
)
from fairaudit.fair_metric import rotated_coordinate_metric

# A classifier that leans heavily on the first coordinate, which the fair
# metric below treats as a direction that should not matter.
model = LogisticModel(weights=np.array([3.0, 1.0]), bias=0.5)
metric = rotated_coordinate_metric(0.0)  # d^2 charges only the second coordinate

x0 = np.array([[0.4, -0.2]])  # a batch of one point
y = np.array([0.0])
cfg = AttackConfig(lam=50.0, num_steps=500, schedule="constant", eta=0.01)

states = np.empty((cfg.num_steps + 1, *x0.shape))  # the state after every step, filled by on_step
phi, _ = unfair_map_batch(model, metric, cfg, x0, y, on_step=states.__setitem__)
trace = AttackTrace.record(model, metric, cfg, states, x0, y)
losses, penalties = trace.losses[:, 0], trace.penalties[:, 0]
print("start point        :", x0[0])
print("attacked point     :", np.round(phi[0], 4))
print("effective horizon T:", trace.horizon)
print("loss before        : %.6f" % losses[0])
print("loss after         : %.6f" % losses[-1])
print("loss ratio         : %.3f" % (losses[-1] / losses[0]))
print("fair-distance paid : %.6f" % (penalties[-1] / cfg.lam))

# The penalized objective the flow ascends never decreases step to step.
steps = np.diff(trace.objective()[:, 0])
print("min per-step objective change: %.2e (never below -1e-9)" % steps.min())

# Euler error control: on a field with a known flow, the realized gap obeys
# h m sqrt(d) / (2L) (e^{LT} - 1).
problem = LinearFlowProblem(a=np.array([[-1.0]]), c=np.zeros(1), x0=np.ones(1))
probe = StabilityProbe(lipschitz_L=1.0, curvature_m=1.0, dim_d=1, max_step_h=0.1)
gap = stability_gap(probe, problem, AttackConfig(lam=1.0, num_steps=10, eta=0.1))
print()
print("decay flow x' = -x over T=1 at h=0.1:")
print("  exact end point  : %.6f" % math.exp(-1.0))
print("  Euler end point  : %.6f" % 0.9**10)
print("  max iterate gap  : %.6f" % gap)
print("  stability bound  : %.6f" % probe.bound(1.0, 0.1))
for h in (0.1, 0.05, 0.025):
    euler = AttackConfig(lam=1.0, num_steps=int(round(1 / h)), eta=h)
    g = stability_gap(StabilityProbe(1.0, 1.0, 1, h), problem, euler)
    print("  h=%.3f -> gap %.6f" % (h, g))
print("halving the step roughly halves the gap: the method is first order.")
