"""fairaudit: statistical auditing of classifiers for individual-fairness violations.

The audit pipeline: pick (or learn) a fair metric that discounts sensitive
directions, run a penalized gradient-flow attack that moves each audit
point to a similar-but-worse-treated point, and test whether the resulting
loss inflation exceeds an auditor-chosen tolerance with Type I error
control.
"""

from fairaudit.attack import (
    AttackConfig,
    AttackTrace,
    DivergenceError,
    LinearFlowProblem,
    StabilityProbe,
    audit_preset,
    flow_field,
    sim_preset,
    stability_gap,
    unfair_map,
    unfair_map_batch,
)
from fairaudit.dataset import Dataset, load_csv, save_csv, split_csv
from fairaudit.fair_metric import (
    FairMetric,
    SubspaceSpec,
    learn_sensitive_metric,
    load_metric,
    rotated_coordinate_metric,
    save_metric,
)
from fairaudit.inference import (
    AuditReport,
    NoBaselineErrors,
    audit,
    error_rate_stats,
    error_rate_test,
    loss_ratio_stats,
    loss_ratio_test,
    normal_quantile,
    one_sided_lower_bound,
    two_sided_ci,
)
from fairaudit.models import LogisticModel, MlpModel, TrainConfig, load_model, save_model, train
from fairaudit.sim import (
    CalibrationSpec,
    GridSpec,
    HeatmapCell,
    RatioPopulation,
    SimConfig,
    average_odds_difference,
    balanced_accuracy,
    calibrate,
    coverage_experiment,
    fit_bias,
    generate,
    rejection_rate_experiment,
    robustness_experiment,
    stopping_time_sweep,
    sweep_heatmap,
)

__version__ = "0.1.0"
