"""Command-line front end.

Every command takes a single JSON config file (--config).  Config parsing
is strict: unknown keys are errors, and all defaults are materialized so
the values that actually ran can be embedded in outputs.  Outputs are
written atomically (temp file, then rename) and are byte-identical across
reruns with the same config.

Exit codes form a small protocol so shell pipelines can branch on the
verdict:

    0   success; for ``audit``, the fairness hypothesis was NOT rejected
    3   ``audit`` rejected the fairness hypothesis
    10  operational error (bad config, missing file, bad data, divergence)
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import inference, sim
# bench/traced_cli.py patches the ``unfair_map`` binding of this module
from .attack import AttackConfig, DivergenceError, trace_batch, unfair_map  # noqa: F401
from .dataset import atomic_write_text, load_csv, save_csv, split_csv
from .fair_metric import SubspaceSpec, learn_sensitive_metric, load_metric, rotated_coordinate_metric, save_metric
from .inference import NoBaselineErrors
from .models import TrainConfig, load_model, save_model, train

EXIT_OK = 0
EXIT_REJECT = 3
EXIT_ERROR = 10


@dataclass(frozen=True)
class _Key:
    """One config key.  ``kind`` is ``bool`` or ``int`` for keys whose values must be
    JSON booleans or integral numbers; other keys are checked where they are used."""

    default: object = None
    required: bool = False
    kind: type | None = None


_DATA_KEYS = {
    "data": _Key(required=True),
    "label_column": _Key(required=True),
    "protected_columns": _Key(default=[]),
    "standardize": _Key(default=False, kind=bool),
}

_ATTACK_KEYS = {
    "lam": _Key(default=50.0),
    "num_steps": _Key(default=500, kind=int),
    "schedule": _Key(default="constant"),
    "eta": _Key(default=0.01),
    "decay_c": _Key(default=0.02),
    "decay_p": _Key(default=2.0 / 3.0),
}

_SCHEMAS: dict[str, dict[str, _Key]] = {
    "split": {
        "input": _Key(required=True),
        "train_output": _Key(required=True),
        "audit_output": _Key(required=True),
        "train_fraction": _Key(default=0.8),
        "seed": _Key(default=0, kind=int),
    },
    "train": {
        **_DATA_KEYS,
        "architecture": _Key(default="logistic"),
        "hidden_units": _Key(default=50, kind=int),
        "activation": _Key(default="tanh"),
        "learning_rate": _Key(default=0.1),
        "batch_size": _Key(default=64, kind=int),
        "num_steps": _Key(default=2000, kind=int),
        "class_reweight": _Key(default=True, kind=bool),
        "seed": _Key(default=0, kind=int),
        "projector_metric": _Key(default=None),
        "model_output": _Key(required=True),
    },
    "metric": {
        "type": _Key(default="learned"),
        "data": _Key(default=None),
        "label_column": _Key(default=None),
        "protected_columns": _Key(default=[]),
        "standardize": _Key(default=False, kind=bool),
        "rank_tol": _Key(default=1e-8),
        "learning_rate": _Key(default=0.5),
        "batch_size": _Key(default=64, kind=int),
        "num_steps": _Key(default=3000, kind=int),
        "seed": _Key(default=0, kind=int),
        "beta_degrees": _Key(default=None),
        "metric_output": _Key(required=True),
    },
    "audit": {
        "model": _Key(required=True),
        "metric": _Key(required=True),
        **_DATA_KEYS,
        **_ATTACK_KEYS,
        "alpha": _Key(default=0.05),
        "delta": _Key(default=1.25),
        "skip_divergent": _Key(default=False, kind=bool),
        "error_rate": _Key(default=True, kind=bool),
        "threads": _Key(default=1, kind=int),
        "report_output": _Key(required=True),
        "samples_output": _Key(default=None),
        "trace_output": _Key(default=None),
    },
    "simulate": {
        "n_samples": _Key(default=400, kind=int),
        "minority_prob": _Key(default=0.1),
        "group_means": _Key(default=[[-1.5, 0.0], [1.5, 0.0]]),
        "noise_sd": _Key(default=0.25),
        "label_weights": _Key(default=[[-0.2, -0.01], [0.2, -0.01]]),
        "label_noise_var": _Key(default=1e-4),
        "seed": _Key(default=7, kind=int),
        "data_output": _Key(required=True),
    },
    "sweep": {
        **_DATA_KEYS,
        **_ATTACK_KEYS,
        "lam": _Key(default=100.0),
        "num_steps": _Key(default=400, kind=int),
        "schedule": _Key(default="decay"),
        "beta_degrees": _Key(default=0.0),
        "alpha": _Key(default=0.05),
        "delta": _Key(default=1.25),
        "w1_min": _Key(default=-4.0),
        "w1_max": _Key(default=4.0),
        "w1_step": _Key(default=0.4),
        "w2_min": _Key(default=-4.0),
        "w2_max": _Key(default=4.0),
        "w2_step": _Key(default=0.4),
        "output": _Key(required=True),
    },
    "stopping-sweep": {
        "model": _Key(required=True),
        "metric": _Key(required=True),
        **_DATA_KEYS,
        "lam": _Key(default=50.0),
        "eta": _Key(default=0.01),
        "horizons": _Key(required=True),
        "alpha": _Key(default=0.05),
        "output": _Key(required=True),
    },
    "robustness": {
        "model": _Key(required=True),
        "metric": _Key(required=True),
        **_DATA_KEYS,
        **_ATTACK_KEYS,
        "scales": _Key(required=True),
        "perturb_seed": _Key(default=0, kind=int),
        "output": _Key(required=True),
    },
    "calibrate": {
        "n": _Key(default=500, kind=int),
        "coverage_replicates": _Key(default=1000, kind=int),
        "replicates": _Key(default=200, kind=int),
        "alpha": _Key(default=0.05),
        "delta": _Key(default=1.25),
        "coverage_mean": _Key(default=2.0),
        "sd": _Key(default=0.5),
        "shape": _Key(default=4.0),
        "seed": _Key(default=1, kind=int),
        "output": _Key(required=True),
    },
}


def _parse_config(path, command: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{command}: config must be a JSON object")
    schema = _SCHEMAS[command]
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ValueError(f"{command}: unknown config keys {unknown}")
    out = {}
    for key, spec in schema.items():
        if key in doc:
            _check_kind(command, key, spec.kind, doc[key])
            out[key] = doc[key]
        elif spec.required:
            raise ValueError(f"{command}: missing required config key {key!r}")
        else:
            out[key] = spec.default
    return out


def _check_kind(command: str, key: str, kind: type | None, value) -> None:
    # bool is a subclass of int, so it is excluded from the integral check
    if kind is bool and not isinstance(value, bool):
        raise ValueError(f"{command}: config key {key!r} must be true or false, got {value!r}")
    if kind is int and (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise ValueError(f"{command}: config key {key!r} must be an integer, got {value!r}")


def _check_levels(cfg: dict) -> None:
    if not 0.0 < cfg["alpha"] <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")
    if cfg["delta"] <= 1.0:
        raise ValueError("delta must exceed 1")


def _attack_config(cfg: dict) -> AttackConfig:
    return AttackConfig(
        lam=float(cfg["lam"]),
        num_steps=int(cfg["num_steps"]),
        schedule=str(cfg["schedule"]),
        eta=float(cfg["eta"]),
        decay_c=float(cfg["decay_c"]),
        decay_p=float(cfg["decay_p"]),
    )


def _load_dataset(cfg: dict):
    return load_csv(
        cfg["data"],
        label_column=cfg["label_column"],
        protected_columns=tuple(cfg["protected_columns"]),
        standardize=cfg["standardize"],
    )


def run_split(cfg: dict) -> int:
    n_train, n_audit = split_csv(
        cfg["input"], cfg["train_output"], cfg["audit_output"], float(cfg["train_fraction"]), int(cfg["seed"])
    )
    print(f"split: {n_train} training rows -> {cfg['train_output']}, {n_audit} audit rows -> {cfg['audit_output']}")
    return EXIT_OK


def run_train(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    projector = None
    if cfg["projector_metric"] is not None:
        projector = load_metric(cfg["projector_metric"]).sigma
    train_cfg = TrainConfig(
        learning_rate=float(cfg["learning_rate"]),
        batch_size=int(cfg["batch_size"]),
        num_steps=int(cfg["num_steps"]),
        class_reweight=cfg["class_reweight"],
        seed=int(cfg["seed"]),
        preprocess_projector=projector,
        hidden_units=int(cfg["hidden_units"]),
        activation=str(cfg["activation"]),
    )
    model = train(ds.features, ds.labels, architecture=cfg["architecture"], cfg=train_cfg)
    save_model(model, cfg["model_output"])
    print(f"train: saved {cfg['architecture']} model to {cfg['model_output']}")
    return EXIT_OK


def run_metric(cfg: dict) -> int:
    kind = cfg["type"]
    if kind == "learned":
        if cfg["data"] is None or cfg["label_column"] is None or not cfg["protected_columns"]:
            raise ValueError("metric: learned metrics need data, label_column and protected_columns")
        ds = _load_dataset(cfg)
        spec = SubspaceSpec(protected_columns=tuple(cfg["protected_columns"]), rank_tol=float(cfg["rank_tol"]))
        train_cfg = TrainConfig(
            learning_rate=float(cfg["learning_rate"]),
            batch_size=int(cfg["batch_size"]),
            num_steps=int(cfg["num_steps"]),
            seed=int(cfg["seed"]),
        )
        metric = learn_sensitive_metric(ds, spec, train_cfg)
    elif kind == "rotated":
        if cfg["beta_degrees"] is None:
            raise ValueError("metric: rotated metrics need beta_degrees")
        metric = rotated_coordinate_metric(math.radians(float(cfg["beta_degrees"])))
    else:
        raise ValueError(f"metric: unknown type {kind!r}")
    save_metric(metric, cfg["metric_output"])
    print(f"metric: saved {kind} metric to {cfg['metric_output']}")
    return EXIT_OK


class _TraceJsonl:
    """The JSONL trace of an audit: one record per sample and step, sample-major.

    Iterating yields one chunk per sample, formatted while the file is
    written.  Each record is the line ``json.dumps(record, sort_keys=True)``
    gives, spelled out directly: floats and lists of floats use ``repr``,
    which matches ``json`` for finite values only, so every value must be
    finite.  ``len`` is the number of chunks, so the object can be measured
    like the strings ``atomic_write_text`` also takes.
    """

    def __init__(self, index, iterates, losses, penalties):
        if not all(np.all(np.isfinite(a)) for a in (iterates, losses, penalties)):
            raise ValueError("audit: trace holds non-finite values")
        self.index = index
        self.iterates = iterates
        self.losses = losses
        self.penalties = penalties

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self):
        for j, sample in enumerate(self.index.tolist()):
            rows = zip(self.losses[:, j].tolist(), self.penalties[:, j].tolist(), self.iterates[:, j].tolist())
            yield "".join(
                [
                    f'{{"loss": {loss!r}, "penalty": {penalty!r}, "sample": {sample}, "step": {k}, "x": {x!r}}}\n'
                    for k, (loss, penalty, x) in enumerate(rows)
                ]
            )


def run_audit(cfg: dict) -> int:
    _check_levels(cfg)
    model = load_model(cfg["model"])
    metric = load_metric(cfg["metric"])
    ds = _load_dataset(cfg)
    attack_cfg = _attack_config(cfg)
    report = inference.audit(
        model,
        metric,
        attack_cfg,
        ds.features,
        ds.labels,
        alpha=float(cfg["alpha"]),
        delta=float(cfg["delta"]),
        skip_divergent=cfg["skip_divergent"],
        include_error_rate=cfg["error_rate"],
        threads=int(cfg["threads"]),
    )
    atomic_write_text(cfg["report_output"], report.to_json(extra={"config": cfg}))
    if cfg["samples_output"] is not None:
        atomic_write_text(cfg["samples_output"], report.samples_csv())
    if cfg["trace_output"] is not None:
        traced = trace_batch(model, metric, attack_cfg, ds.features[report.index], ds.labels[report.index])
        atomic_write_text(cfg["trace_output"], _TraceJsonl(report.index, *traced))
    verdict = "reject" if report.reject else "fail to reject"
    print(f"audit: n={report.n} s_n={report.s_n:.6g} t_n={report.t_n:.6g} delta={report.delta} -> {verdict}")
    return EXIT_REJECT if report.reject else EXIT_OK


def run_simulate(cfg: dict) -> int:
    sim_cfg = sim.SimConfig(
        n_samples=int(cfg["n_samples"]),
        minority_prob=float(cfg["minority_prob"]),
        group_means=tuple(tuple(float(v) for v in m) for m in cfg["group_means"]),
        noise_sd=float(cfg["noise_sd"]),
        label_weights=tuple(tuple(float(v) for v in w) for w in cfg["label_weights"]),
        label_noise_var=float(cfg["label_noise_var"]),
        seed=int(cfg["seed"]),
    )
    ds = sim.generate(sim_cfg)
    save_csv(ds, cfg["data_output"])
    print(f"simulate: wrote {ds.n} samples to {cfg['data_output']}")
    return EXIT_OK


def run_sweep(cfg: dict) -> int:
    _check_levels(cfg)
    ds = _load_dataset(cfg)
    if ds.features.shape[1] != 2:
        raise ValueError("sweep: expects 2-D features (declare extra columns as protected)")
    metric = rotated_coordinate_metric(math.radians(float(cfg["beta_degrees"])))
    grid = sim.GridSpec(
        w1_values=sim.GridSpec.from_range(float(cfg["w1_min"]), float(cfg["w1_max"]), float(cfg["w1_step"])),
        w2_values=sim.GridSpec.from_range(float(cfg["w2_min"]), float(cfg["w2_max"]), float(cfg["w2_step"])),
    )
    cells = sim.sweep_heatmap(
        ds.features, ds.labels, grid, metric, _attack_config(cfg), alpha=float(cfg["alpha"]), delta=float(cfg["delta"])
    )
    atomic_write_text(cfg["output"], sim.heatmap_csv(cells))
    n_reject = sum(c.reject for c in cells)
    print(f"sweep: {len(cells)} cells ({n_reject} rejected) -> {cfg['output']}")
    return EXIT_OK


def run_stopping_sweep(cfg: dict) -> int:
    if not 0.0 < cfg["alpha"] <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")
    model = load_model(cfg["model"])
    metric = load_metric(cfg["metric"])
    ds = _load_dataset(cfg)
    rows = sim.stopping_time_sweep(
        model,
        metric,
        ds.features,
        ds.labels,
        horizons=[float(h) for h in cfg["horizons"]],
        lam=float(cfg["lam"]),
        eta=float(cfg["eta"]),
        alpha=float(cfg["alpha"]),
    )
    atomic_write_text(cfg["output"], sim.stopping_csv(rows))
    print(f"stopping-sweep: {len(rows)} horizons -> {cfg['output']}")
    return EXIT_OK


def run_robustness(cfg: dict) -> int:
    model = load_model(cfg["model"])
    metric = load_metric(cfg["metric"])
    ds = _load_dataset(cfg)
    rows = sim.robustness_experiment(
        model,
        metric,
        [float(s) for s in cfg["scales"]],
        ds.features,
        ds.labels,
        _attack_config(cfg),
        perturb_seed=int(cfg["perturb_seed"]),
    )
    atomic_write_text(cfg["output"], sim.robustness_csv(rows))
    print(f"robustness: {len(rows)} scales -> {cfg['output']}")
    return EXIT_OK


def run_calibrate(cfg: dict) -> int:
    _check_levels(cfg)
    n = int(cfg["n"])
    alpha = float(cfg["alpha"])
    delta = float(cfg["delta"])
    sd = float(cfg["sd"])
    shape = float(cfg["shape"])
    seed = int(cfg["seed"])
    coverage, _ = sim.coverage_experiment(
        sim.RatioPopulation(mean=float(cfg["coverage_mean"]), sd=sd, shape=shape),
        n=n,
        replicates=int(cfg["coverage_replicates"]),
        alpha=alpha,
        seed=seed,
    )
    type1 = sim.rejection_rate_experiment(
        sim.RatioPopulation(mean=delta, sd=sd, shape=shape),
        delta,
        n=n,
        replicates=int(cfg["replicates"]),
        alpha=alpha,
        seed=seed + 1,
        name="type1",
    )
    power = sim.rejection_rate_experiment(
        sim.RatioPopulation(mean=delta + 5.0 * sd / math.sqrt(n), sd=sd, shape=shape),
        delta,
        n=n,
        replicates=int(cfg["replicates"]),
        alpha=alpha,
        seed=seed + 2,
        name="power",
    )
    atomic_write_text(cfg["output"], sim.calibration_csv([coverage, type1, power]))
    print(
        f"calibrate: coverage={coverage.rate:.3f} type1={type1.rate:.3f} power={power.rate:.3f} -> {cfg['output']}"
    )
    return EXIT_OK


_RUNNERS = {
    "split": run_split,
    "train": run_train,
    "metric": run_metric,
    "audit": run_audit,
    "simulate": run_simulate,
    "sweep": run_sweep,
    "stopping-sweep": run_stopping_sweep,
    "robustness": run_robustness,
    "calibrate": run_calibrate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fairaudit", description="Statistical individual-fairness auditing of classifiers"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config for this command")
    args = parser.parse_args(argv)
    try:
        cfg = _parse_config(args.config, args.command)
        return _RUNNERS[args.command](cfg)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError, DivergenceError, NoBaselineErrors) as exc:
        print(f"fairaudit {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
