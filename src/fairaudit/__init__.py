"""fairaudit: statistical auditing of classifiers for individual-fairness violations.

The audit pipeline: pick (or learn) a fair metric that discounts sensitive
directions, run a penalized gradient-flow attack that moves each audit
point to a similar-but-worse-treated point, and test whether the resulting
loss inflation exceeds an auditor-chosen tolerance with Type I error
control.

The names below and the submodules are imported on first access, so
``python -m fairaudit.cli`` loads only the modules its command runs.
"""

import importlib

_EXPORTS = {
    "attack": ("AttackConfig", "AttackTrace", "DivergenceError", "LinearFlowProblem", "StabilityProbe", "audit_preset",
               "flow_field", "sim_preset", "stability_gap", "unfair_map", "unfair_map_batch"),
    "dataset": ("Dataset", "load_csv", "save_csv", "split_csv"),
    "fair_metric": ("FairMetric", "SubspaceSpec", "learn_sensitive_metric", "load_metric", "rotated_coordinate_metric",
                    "save_metric"),
    "inference": ("AuditReport", "NoBaselineErrors", "audit", "error_rate_stats", "error_rate_test", "loss_ratio_stats",
                  "loss_ratio_test", "normal_quantile", "one_sided_lower_bound", "two_sided_ci"),
    "models": ("LogisticModel", "MlpModel", "TrainConfig", "load_model", "save_model", "train"),
    "sim": ("CalibrationSpec", "GridSpec", "HeatmapCell", "RatioPopulation", "average_odds_difference",
            "balanced_accuracy", "calibrate", "coverage_experiment", "fit_bias", "rejection_rate_experiment",
            "robustness_experiment", "stopping_time_sweep", "sweep_heatmap"),
    "synthetic": ("SimConfig", "generate"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("attack", "cli", "dataset", "fair_metric", "inference", "linalg", "models", "sim", "synthetic",
               "tracefile")

__all__ = list(_OWNERS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _OWNERS:
        value = getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
