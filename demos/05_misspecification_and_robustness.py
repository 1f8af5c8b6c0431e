#!/usr/bin/env python3
"""How wrong can the fair metric be before the audit misbehaves?

Two experiments:

1. A rotated metric: the direction the auditor discounts is off by beta
   degrees.  Models that lean on the second coordinate start to get
   rejected once the rotation leaks some of their decision direction into
   the discounted cone, while theta1 = 0, theta2 = 0 stays accepted.

2. The robustness ladder: perturbing the metric matrix by a scale-s
   symmetric direction changes each per-sample loss ratio by at most an
   analytic bound proportional to sqrt(s); the observed max gap shrinks
   to zero with s.
"""

import math
from pathlib import Path

import numpy as np

from fairaudit import AttackConfig, LogisticModel, sim_preset
from fairaudit.fair_metric import rotated_coordinate_metric
from fairaudit.inference import loss_ratio_test
from fairaudit.attack import unfair_map_batch
from fairaudit.dataset import write_csv
from fairaudit.sim import SimConfig, fit_bias, generate, robustness_experiment

ds = generate(SimConfig(seed=7))
x, y = ds.features, ds.labels

print("= metric rotation =")
long_cfg = AttackConfig(lam=100.0, num_steps=2000, schedule="constant", eta=0.01)
for beta_deg in (0.0, 5.0, 10.0):
    metric = rotated_coordinate_metric(math.radians(beta_deg))
    row = []
    for w2 in (0.0, 2.0, 4.0):
        b = fit_bias(x, y, 0.0, w2)
        model = LogisticModel(weights=np.array([0.0, w2]), bias=b)
        attacked, _ = unfair_map_batch(model, metric, long_cfg, x, y)
        t_n, reject = loss_ratio_test(model.loss(attacked, y) / model.loss(x, y), 0.05, 1.25)
        row.append(f"theta2={w2:+.0f}: T_n={t_n:7.3f} {'REJECT' if reject else 'accept'}")
    print(f"beta={beta_deg:4.1f}deg  " + " | ".join(row))
print("a correctly specified metric accepts the whole theta1=0 column;")
print("rotating it makes large-|theta2| models spuriously rejectable.")

print()
print("= robustness ladder =")
b = fit_bias(x, y, 4.0, 1.0)
model = LogisticModel(weights=np.array([4.0, 1.0]), bias=b)
rows = robustness_experiment(
    model, rotated_coordinate_metric(0.0), [1e-2, 1e-4, 1e-6, 0.0], x, y, sim_preset(), perturb_seed=0
)
for s, gap in rows:
    print(f"perturbation scale {s:8.0e} -> max per-sample ratio gap {gap:.3e}")
out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
write_csv(out / "robustness_ladder.csv", ["scale", "max_ratio_gap"], rows)
print(f"ladder written to {out / 'robustness_ladder.csv'}")
print("the gap vanishes with the perturbation: small metric estimation error")
print("cannot flip the audit value by more than an explicit amount.")
