"""Command-line front end.

Every command takes a single JSON config file (--config).  Config parsing
is strict and typed: unknown keys are errors, every key declares its JSON
type and each value is validated and converted once (a seed, any key whose
name ends in ``seed``, must also be non-negative), and all defaults are
materialized so the values that actually ran can be embedded in outputs.
Outputs are written atomically (temp file, then rename) and are
byte-identical across reruns with the same config.

Exit codes form a small protocol so shell pipelines can branch on the
verdict:

    0   success; for ``audit``, the fairness hypothesis was NOT rejected
    3   ``audit`` rejected the fairness hypothesis
    10  operational error (bad config, missing file, bad data, divergence, failed allocation)
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields

# every library module but ``dataset`` and the ``linalg`` it loads is imported by the commands that call it, so
# each command loads only its own modules
from .dataset import _expect, _read_json_object, atomic_write_text, load_csv, save_csv, split_csv, write_csv
from .linalg import DEFAULT_RANK_TOL

EXIT_OK = 0
EXIT_REJECT = 3
EXIT_ERROR = 10


@dataclass(frozen=True)
class _Key:
    """One config key: its JSON type (a ``dataset._convert`` kind) and its default.

    ``null`` is accepted only for optional keys whose default is ``None``.
    Defaults are converted like given values.
    """

    kind: type | list
    default: object = None
    required: bool = False


def _kind(value):
    """The ``dataset._convert`` kind of a default: its type, or ``[kind]`` of its first item for a tuple."""
    return [_kind(value[0])] if isinstance(value, tuple) else type(value)


def _keys(defaults, *names) -> dict[str, _Key]:
    """Config keys for the named fields of the dataclass instance ``defaults``, which owns their defaults.

    With no names, every field whose value is not ``None``.
    """
    values = {f.name: getattr(defaults, f.name) for f in fields(defaults)}
    names = names or [name for name, value in values.items() if value is not None]
    return {name: _Key(_kind(values[name]), default=values[name]) for name in names}


_DATA_KEYS = {
    "data": _Key(str, required=True),
    "label_column": _Key(str, required=True),
    "protected_columns": _Key([str], default=[]),
    "standardize": _Key(bool, default=False),
}


def _lib(name: str):
    """The package module ``name``, imported by the first command that needs it.

    ``-X importtime`` logs the loads of ``__import__`` and ``from .module import name``, the forms every
    deferred import here uses, but not those of ``from . import module`` or ``importlib.import_module``.
    """
    return getattr(__import__(f"{__package__}.{name}"), name)


# the names bench/traced_cli.py wraps on this module, beyond the ``dataset`` ones bound above, by owning module
_TRACED = {
    "learn_sensitive_metric": "fair_metric",
    "load_metric": "fair_metric",
    "save_metric": "fair_metric",
    "train": "models",
    "load_model": "models",
    "save_model": "models",
    "unfair_map": "attack",
}


def __getattr__(name: str):
    """A traced name, bound here from its owning module on first access."""
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_lib(_TRACED[name]), name)
    return value


def _traced(name: str):
    """The traced name as bound here at call time, so a wrapper set on this module is the one that runs."""
    return globals()[name] if name in globals() else __getattr__(name)


def _levels() -> dict[str, _Key]:
    """The level keys, defaulting to ``inference``'s levels."""
    from .inference import DEFAULT_ALPHA, DEFAULT_DELTA

    return {"alpha": _Key(float, default=DEFAULT_ALPHA), "delta": _Key(float, default=DEFAULT_DELTA)}


# each command's config keys, built when its config is parsed
_SCHEMAS: dict[str, Callable[[], dict[str, _Key]]] = {
    "split": lambda: {
        "input": _Key(str, required=True),
        "train_output": _Key(str, required=True),
        "audit_output": _Key(str, required=True),
        "train_fraction": _Key(float, default=0.8),
        "seed": _Key(int, default=0),
    },
    "train": lambda: {
        **_DATA_KEYS,
        "architecture": _Key(str, default="logistic"),
        # the CLI's one departure from a library default: it trains with class reweighting
        **_keys(_lib("models").TrainConfig(class_reweight=True)),
        "projector_metric": _Key(str, default=None),
        "model_output": _Key(str, required=True),
    },
    "metric": lambda: {
        "type": _Key(str, default="learned"),
        "data": _Key(str, default=None),
        "label_column": _Key(str, default=None),
        "protected_columns": _Key([str], default=[]),
        "standardize": _Key(bool, default=False),
        "rank_tol": _Key(float, default=DEFAULT_RANK_TOL),
        **_keys(_lib("fair_metric").SUBSPACE_TRAINING, "learning_rate", "batch_size", "num_steps", "seed"),
        "beta_degrees": _Key(float, default=None),
        "metric_output": _Key(str, required=True),
    },
    "audit": lambda: {
        "model": _Key(str, required=True),
        "metric": _Key(str, required=True),
        **_DATA_KEYS,
        **_keys(_lib("attack").audit_preset()),
        **_levels(),
        "skip_divergent": _Key(bool, default=False),
        "error_rate": _Key(bool, default=True),
        "report_output": _Key(str, required=True),
        "samples_output": _Key(str, default=None),
        "trace_output": _Key(str, default=None),
    },
    "simulate": lambda: {
        **_keys(_lib("synthetic").SimConfig()),
        "data_output": _Key(str, required=True),
    },
    "sweep": lambda: {
        **_DATA_KEYS,
        **_keys(_lib("attack").sim_preset()),
        "beta_degrees": _Key(float, default=0.0),
        **_levels(),
        **{f"{axis}_{end}": _Key(float, default=value)
           for axis in ("w1", "w2") for end, value in zip(("min", "max", "step"), _lib("sim").SWEEP_GRID)},
        "output": _Key(str, required=True),
    },
    "stopping-sweep": lambda: {
        "model": _Key(str, required=True),
        "metric": _Key(str, required=True),
        **_DATA_KEYS,
        **_keys(_lib("attack").audit_preset(), "lam", "eta"),
        "horizons": _Key([float], required=True),
        "alpha": _levels()["alpha"],
        "output": _Key(str, required=True),
    },
    "robustness": lambda: {
        "model": _Key(str, required=True),
        "metric": _Key(str, required=True),
        **_DATA_KEYS,
        **_keys(_lib("attack").audit_preset()),
        "scales": _Key([float], required=True),
        "perturb_seed": _Key(int, default=0),
        "output": _Key(str, required=True),
    },
    "calibrate": lambda: {
        **_keys(_lib("sim").CalibrationSpec()),
        **_levels(),
        "output": _Key(str, required=True),
    },
}

def _parse_config(path, command: str) -> dict:
    doc = _read_json_object(path, f"{command} config")
    schema = _SCHEMAS[command]()
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ValueError(f"{command}: unknown config keys {unknown}")
    out = {}
    for key, spec in schema.items():
        if key in doc:
            value = doc[key]
        elif spec.required:
            raise ValueError(f"{command}: missing required config key {key!r}")
        else:
            value = spec.default
        nullable = spec.default is None and not spec.required
        out[key] = _expect(spec.kind, value, f"{command}: config key {key!r}", nullable)
        if key.endswith("seed") and out[key] < 0:
            raise ValueError(f"{command}: config key {key!r} must be non-negative, got {out[key]!r}")
    if "alpha" in out:
        from .inference import check_levels

        check_levels(out["alpha"], out.get("delta"))
    return out


def _build(cls, cfg: dict, **extra):
    """The dataclass ``cls`` built from the config keys named like its fields."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}, **extra)


def _load_dataset(cfg: dict):
    return load_csv(
        cfg["data"],
        label_column=cfg["label_column"],
        protected_columns=cfg["protected_columns"],
        standardize=cfg["standardize"],
    )


def run_split(cfg: dict) -> int:
    n_train, n_audit = split_csv(cfg["input"], cfg["train_output"], cfg["audit_output"], cfg["train_fraction"], cfg["seed"])
    print(f"split: {n_train} training rows -> {cfg['train_output']}, {n_audit} audit rows -> {cfg['audit_output']}")
    return EXIT_OK


def run_train(cfg: dict) -> int:
    from .models import TrainConfig

    ds = _load_dataset(cfg)
    projector = None
    if cfg["projector_metric"] is not None:
        projector = _traced("load_metric")(cfg["projector_metric"]).sigma
    train_cfg = _build(TrainConfig, cfg, preprocess_projector=projector)
    model = _traced("train")(ds.features, ds.labels, architecture=cfg["architecture"], cfg=train_cfg)
    del ds  # encoding the model with the training data still held set the command's peak RSS
    _traced("save_model")(model, cfg["model_output"])
    print(f"train: saved {cfg['architecture']} model to {cfg['model_output']}")
    return EXIT_OK


def run_metric(cfg: dict) -> int:
    from .fair_metric import SubspaceSpec, rotated_coordinate_metric
    from .models import TrainConfig

    kind = cfg["type"]
    if kind == "learned":
        if cfg["data"] is None or cfg["label_column"] is None or not cfg["protected_columns"]:
            raise ValueError("metric: learned metrics need data, label_column and protected_columns")
        ds = _load_dataset(cfg)
        metric = _traced("learn_sensitive_metric")(ds, _build(SubspaceSpec, cfg), _build(TrainConfig, cfg))
    elif kind == "rotated":
        if cfg["beta_degrees"] is None:
            raise ValueError("metric: rotated metrics need beta_degrees")
        metric = rotated_coordinate_metric(math.radians(cfg["beta_degrees"]))
    else:
        raise ValueError(f"metric: unknown type {kind!r}")
    _traced("save_metric")(metric, cfg["metric_output"])
    print(f"metric: saved {kind} metric to {cfg['metric_output']}")
    return EXIT_OK


def run_audit(cfg: dict) -> int:
    from .attack import AttackConfig
    from .inference import audit

    model = _traced("load_model")(cfg["model"])
    metric = _traced("load_metric")(cfg["metric"])
    ds = _load_dataset(cfg)
    attack_cfg = _build(AttackConfig, cfg)
    # a traced audit spills every state of its one attack to disk, divergent rows included
    spill = None
    if cfg["trace_output"] is not None:
        from .tracefile import TraceSpill

        spill = TraceSpill(cfg["trace_output"], attack_cfg.num_steps + 1, *ds.features.shape)
    try:
        report = audit(
            model,
            metric,
            attack_cfg,
            ds.features,
            ds.labels,
            alpha=cfg["alpha"],
            delta=cfg["delta"],
            skip_divergent=cfg["skip_divergent"],
            include_error_rate=cfg["error_rate"],
            on_step=None if spill is None else spill.write_state,
        )
        atomic_write_text(cfg["report_output"], report.to_json(extra={"config": cfg}))
        if cfg["samples_output"] is not None:
            rows = list(zip(report.index, report.ratios, report.pre01, report.post01))
            write_csv(cfg["samples_output"], ["index", "ratio", "pre01", "post01"], rows)
        if spill is not None:
            spill.record(model, metric, attack_cfg, report.index, ds.features, ds.labels)
            spill.write_jsonl(cfg["trace_output"])
    finally:
        if spill is not None:
            spill.close()
    verdict = "reject" if report.reject else "fail to reject"
    print(f"audit: n={report.n} s_n={report.s_n:.6g} t_n={report.t_n:.6g} delta={report.delta} -> {verdict}")
    return EXIT_REJECT if report.reject else EXIT_OK


def run_simulate(cfg: dict) -> int:
    from .synthetic import SimConfig, generate

    ds = generate(_build(SimConfig, cfg))
    save_csv(ds, cfg["data_output"])
    print(f"simulate: wrote {ds.n} samples to {cfg['data_output']}")
    return EXIT_OK


def run_sweep(cfg: dict) -> int:
    from .attack import AttackConfig
    from .fair_metric import rotated_coordinate_metric
    from .sim import GridSpec, HeatmapCell, sweep_heatmap

    ds = _load_dataset(cfg)
    if ds.features.shape[1] != 2:
        raise ValueError("sweep: expects 2-D features (declare extra columns as protected)")
    metric = rotated_coordinate_metric(math.radians(cfg["beta_degrees"]))
    axes = {}
    for axis in ("w1", "w2"):
        try:
            axes[f"{axis}_values"] = GridSpec.from_range(cfg[f"{axis}_min"], cfg[f"{axis}_max"], cfg[f"{axis}_step"])
        except ValueError as exc:
            raise ValueError(f"sweep: {axis} grid: {exc}") from None
    grid = GridSpec(**axes)
    cells = sweep_heatmap(
        ds.features, ds.labels, grid, metric, _build(AttackConfig, cfg), alpha=cfg["alpha"], delta=cfg["delta"]
    )
    write_csv(cfg["output"], HeatmapCell._fields, cells)
    n_reject = sum(c.reject for c in cells)
    print(f"sweep: {len(cells)} cells ({n_reject} rejected) -> {cfg['output']}")
    return EXIT_OK


def run_stopping_sweep(cfg: dict) -> int:
    from .sim import stopping_time_sweep

    model = _traced("load_model")(cfg["model"])
    metric = _traced("load_metric")(cfg["metric"])
    ds = _load_dataset(cfg)
    rows = stopping_time_sweep(
        model,
        metric,
        ds.features,
        ds.labels,
        horizons=cfg["horizons"],
        lam=cfg["lam"],
        eta=cfg["eta"],
        alpha=cfg["alpha"],
    )
    write_csv(cfg["output"], ["horizon", "t_n"], rows)
    print(f"stopping-sweep: {len(rows)} horizons -> {cfg['output']}")
    return EXIT_OK


def run_robustness(cfg: dict) -> int:
    from .attack import AttackConfig
    from .sim import robustness_experiment

    model = _traced("load_model")(cfg["model"])
    metric = _traced("load_metric")(cfg["metric"])
    ds = _load_dataset(cfg)
    rows = robustness_experiment(
        model,
        metric,
        cfg["scales"],
        ds.features,
        ds.labels,
        _build(AttackConfig, cfg),
        perturb_seed=cfg["perturb_seed"],
    )
    write_csv(cfg["output"], ["scale", "max_ratio_gap"], rows)
    print(f"robustness: {len(rows)} scales -> {cfg['output']}")
    return EXIT_OK


def run_calibrate(cfg: dict) -> int:
    from .sim import CalibrationResult, CalibrationSpec, calibrate

    results = calibrate(_build(CalibrationSpec, cfg), alpha=cfg["alpha"], delta=cfg["delta"])
    write_csv(cfg["output"], CalibrationResult._fields, results)
    rates = " ".join(f"{r.experiment}={r.rate:.3f}" for r in results)
    print(f"calibrate: {rates} -> {cfg['output']}")
    return EXIT_OK


def _operational_errors() -> tuple[type[Exception], ...]:
    """The errors ``main`` reports with exit 10.

    An ``except`` clause evaluates this only once an exception is raised, and only a command that attacked can
    raise ``DivergenceError``, so no command imports ``attack`` for it.
    """
    from .attack import DivergenceError

    return (OSError, ValueError, KeyError, TypeError, MemoryError, json.JSONDecodeError, DivergenceError)


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
    # numpy.random imports hmac and hashlib, whose _hashlib maps OpenSSL (3.4 MB resident), and no command hashes
    sys.modules.setdefault("_hashlib", None)
    try:
        cfg = _parse_config(args.config, args.command)
        return _RUNNERS[args.command](cfg)
    except _operational_errors() as exc:
        print(f"fairaudit {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
