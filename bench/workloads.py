"""The benchmark's workloads: seeded inputs and the CLI commands that consume them.

A workload is a fixed sequence of ``fairaudit`` CLI commands.  Each command
is an ``Op``: a name used in metrics, the CLI subcommand, and the JSON
config it receives.  The benchmark writes every input (the dense CSV, the
configs) itself from ``--seed``; the program only ever sees those files.

Sizes are chosen so that one repetition of each workload takes a few
seconds on a 2-vCPU machine, which lets one run take the median of several
repetitions.  The attack presets, ``d = 40`` and the sweep's grid range are
the paper's and stay fixed; only row counts and the sweep's grid step are
scaled (see README.md).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# dense-pipeline: rows before the 50/50 split, feature dimension, MLP width
DENSE_ROWS = 2000
DENSE_DIM = 40
DENSE_HIDDEN = 50
DENSE_HORIZONS = [1.0, 2.0, 5.0]

# sim-sweep-trace: rows drawn by each `simulate`; sweep grid over [-4, 4]^2
SIM_ROWS = 400
TRACE_ROWS = 100
SWEEP_STEP = 1.0
SWEEP_RANGE = (-4.0, 4.0)

LABEL = "label"
PROTECTED = ["g1", "g2"]

# Every attack and test setting is written into the configs explicitly, so the
# checker reads what ran from the benchmark's own files, not from CLI defaults.
AUDIT_PRESET = {"lam": 50.0, "num_steps": 500, "schedule": "constant", "eta": 0.01}
SIM_PRESET = {"lam": 100.0, "num_steps": 400, "schedule": "decay", "decay_c": 0.02, "decay_p": 2.0 / 3.0}
LEVELS = {"alpha": 0.05, "delta": 1.25}


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    config: dict


@dataclass
class Workload:
    name: str
    why: str
    ops: list[Op]
    sizes: dict
    # files written by the benchmark before the first command runs
    inputs: dict[str, str] = field(default_factory=dict)


def dense_csv(seed: int, rows: int) -> str:
    """Tabular data: 40 standard-normal features, a label, and 2 binary protected
    columns that each shift one feature, so the learned metric has two
    sensitive directions to remove."""
    rng = np.random.default_rng([seed, 1])
    g = (rng.random((rows, 2)) < np.array([0.3, 0.5])).astype(np.int64)
    x = rng.standard_normal((rows, DENSE_DIM))
    x[:, 0] += 1.5 * g[:, 0]
    x[:, 1] += 1.5 * g[:, 1]
    beta = rng.standard_normal(DENSE_DIM) * (2.0 / np.sqrt(DENSE_DIM))
    margin = x @ beta + 0.5 * rng.standard_normal(rows)
    y = (margin > 0).astype(np.int64)
    header = [f"f{j}" for j in range(DENSE_DIM)] + [LABEL] + PROTECTED
    lines = [",".join(header)]
    for i in range(rows):
        cells = [f"{v:.6f}" for v in x[i]]
        cells += [str(y[i]), str(g[i, 0]), str(g[i, 1])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _data_keys(path: str, protected: list[str]) -> dict:
    return {"data": path, "label_column": LABEL, "protected_columns": protected, "standardize": False}


def dense_pipeline(seed: int, rows: int = DENSE_ROWS) -> Workload:
    data = _data_keys("audit.csv", PROTECTED)
    ops = [
        Op("split", "split", {
            "input": "data.csv", "train_output": "train.csv", "audit_output": "audit.csv",
            "train_fraction": 0.5, "seed": seed,
        }),
        Op("metric", "metric", {"type": "learned", **data, "seed": seed, "metric_output": "metric.json"}),
        Op("train-logistic", "train", {
            **_data_keys("train.csv", PROTECTED), "architecture": "logistic", "seed": seed,
            "model_output": "logistic.json",
        }),
        Op("train-mlp", "train", {
            **_data_keys("train.csv", PROTECTED), "architecture": "mlp", "activation": "tanh",
            "hidden_units": DENSE_HIDDEN, "seed": seed, "model_output": "mlp.json",
        }),
        Op("audit-logistic", "audit", {
            "model": "logistic.json", "metric": "metric.json", **data, **AUDIT_PRESET, **LEVELS,
            "report_output": "report-logistic.json", "samples_output": "samples-logistic.csv",
        }),
        Op("audit-mlp", "audit", {
            "model": "mlp.json", "metric": "metric.json", **data, **AUDIT_PRESET, **LEVELS,
            "report_output": "report-mlp.json", "samples_output": "samples-mlp.csv",
        }),
        Op("stopping-sweep", "stopping-sweep", {
            "model": "logistic.json", "metric": "metric.json", **data,
            "lam": AUDIT_PRESET["lam"], "eta": AUDIT_PRESET["eta"], "alpha": LEVELS["alpha"],
            "horizons": DENSE_HORIZONS, "output": "stopping.csv",
        }),
    ]
    return Workload(
        name="dense-pipeline",
        why="an auditor's job on tabular data: CSV ingest, metric learning, training and array-bound attacks",
        ops=ops,
        sizes={"rows": rows, "audit_rows": rows // 2, "dim": DENSE_DIM, "hidden": DENSE_HIDDEN,
               "horizons": DENSE_HORIZONS, "attack": "audit_preset (lam=50, 500 x 0.01)"},
        inputs={"data.csv": dense_csv(seed, rows)},
    )


TRACE_MODEL = {"architecture": "logistic", "weights": [4.0, 0.0], "bias": 0.0, "projector": None}
TRACE_METRIC = {"dim": 2, "sigma": [[0.0, 0.0], [0.0, 1.0]]}


def sim_sweep_trace(seed: int, rows: int = SIM_ROWS, step: float = SWEEP_STEP, trace_rows: int = TRACE_ROWS) -> Workload:
    """The synthetic study's two attack shapes: one tiny batch per heatmap cell, then one
    sample at a time with per-step recording.  Each has its own commands, so the
    per-command wall times in the results record keep them apart."""
    lo, hi = SWEEP_RANGE
    ops = [
        Op("simulate", "simulate", {"n_samples": rows, "seed": seed, "data_output": "data.csv"}),
        Op("sweep", "sweep", {
            **_data_keys("data.csv", ["group"]), **SIM_PRESET, **LEVELS, "beta_degrees": 0.0,
            "w1_min": lo, "w1_max": hi, "w1_step": step,
            "w2_min": lo, "w2_max": hi, "w2_step": step, "output": "heatmap.csv",
        }),
        Op("simulate-trace", "simulate", {"n_samples": trace_rows, "seed": seed, "data_output": "trace-data.csv"}),
        Op("audit-trace", "audit", {
            "model": "model.json", "metric": "metric.json", **_data_keys("trace-data.csv", ["group"]),
            **SIM_PRESET, **LEVELS, "report_output": "report.json", "samples_output": "samples.csv",
            "trace_output": "trace.jsonl",
        }),
    ]
    cells = (int(round((hi - lo) / step)) + 1) ** 2
    return Workload(
        name="sim-sweep-trace",
        why="the paper's heatmap (one tiny 400x2 attack per cell) and a traced audit (one sample at a time, per-step JSONL)",
        ops=ops,
        sizes={"rows": rows, "dim": 2, "cells": cells, "grid_step": step, "grid_range": list(SWEEP_RANGE),
               "trace_rows": trace_rows, "trace_lines": trace_rows * (SIM_PRESET["num_steps"] + 1),
               "attack": "sim_preset (lam=100, 400 decaying steps)"},
        inputs={"model.json": json.dumps(TRACE_MODEL, indent=2) + "\n",
                "metric.json": json.dumps(TRACE_METRIC, indent=2) + "\n"},
    )


WORKLOADS = {"dense-pipeline": dense_pipeline, "sim-sweep-trace": sim_sweep_trace}


def prepare(workload: Workload, workdir: str) -> None:
    """Write the workload's inputs and one config file per command into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    for name, text in workload.inputs.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for op in workload.ops:
        with open(os.path.join(workdir, f"{op.name}.config.json"), "w", encoding="utf-8") as fh:
            json.dump(op.config, fh, indent=2, sort_keys=True)
