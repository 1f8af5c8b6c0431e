#!/usr/bin/env python3
"""Coefficient-grid sweep: which logistic models does the audit reject?

For every (theta1, theta2) on a grid the intercept is fitted, the model is
audited, and the cell records the statistic T_n and the decision.  With a
metric that discounts the first coordinate, the accepted region should be
the band of small |theta1|, for any theta2.

Pass --full for the complete 21x21 grid (about 15 s); the default is a
coarse 9x9 grid.  The cell table is written as CSV next to this script.
"""

import argparse
from pathlib import Path

from fairaudit import sim_preset
from fairaudit.fair_metric import rotated_coordinate_metric
from fairaudit.dataset import write_csv
from fairaudit.sim import GridSpec, HeatmapCell, SimConfig, generate, sweep_heatmap

parser = argparse.ArgumentParser()
parser.add_argument("--full", action="store_true", help="run the full 21x21 grid")
args = parser.parse_args()

ds = generate(SimConfig(seed=7))
metric = rotated_coordinate_metric(0.0)
if args.full:
    grid = GridSpec.default()
else:
    vals = GridSpec.from_range(-4.0, 4.0, 1.0)
    grid = GridSpec(w1_values=vals, w2_values=vals)

cells = sweep_heatmap(ds.features, ds.labels, grid, metric, sim_preset(), alpha=0.05, delta=1.25)

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
target = out / ("heatmap_full.csv" if args.full else "heatmap_coarse.csv")
write_csv(target, HeatmapCell._fields, cells)
print(f"{len(cells)} cells -> {target}")

print()
print("rejection map (rows theta1 from high to low, columns theta2; # = reject):")
w1s = sorted({c.theta1 for c in cells}, reverse=True)
w2s = sorted({c.theta2 for c in cells})
by_cell = {(c.theta1, c.theta2): c for c in cells}
header = "        " + " ".join(f"{w2:+5.1f}" for w2 in w2s)
print(header)
for w1 in w1s:
    row = "".join("    #" if by_cell[(w1, w2)].reject else "    ." for w2 in w2s)
    print(f"{w1:+5.1f} |{row}")

boundary = {}
for w2 in w2s:
    rejected = [abs(c.theta1) for c in cells if c.theta2 == w2 and c.reject]
    boundary[w2] = min(rejected) if rejected else None
print()
print("smallest rejected |theta1| per theta2 column:", sorted(set(boundary.values())))
print("the theta1 = 0 column is accepted everywhere; the band's edge is the")
print("practical sensitivity of the audit at this penalty and horizon.")
