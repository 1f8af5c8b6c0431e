"""What importing the CLI loads: every command pays for it at start-up."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import fairaudit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fairaudit.__file__)))
# the standard library's statistics and the modules it imports
STATISTICS = ("statistics", "decimal", "fractions")


def test_cli_import_skips_modules_only_some_commands_need():
    # CSV ingest buffers rows in an array, imported where it is used; no command
    # needs concurrent.futures, as audits attack in one serial pass, nor
    # statistics and the decimal and fractions it brings, as normal quantiles
    # are computed with math alone (test_commands_that_fold_ratios_load_no_statistics)
    code = (
        f"import sys, fairaudit.cli; STATISTICS = {STATISTICS!r}; "
        "print(' '.join(m for m in STATISTICS + ('concurrent.futures', 'array') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_cli_import_skips_numpy_random_and_openssl():
    # numpy.random imports secrets, and through it hashlib and hmac, which only
    # the commands that draw random numbers need; ``main`` keeps OpenSSL's
    # 3.4 MB out of those (test_commands_that_draw_random_numbers_map_no_openssl)
    code = (
        "import sys, fairaudit.cli; "
        "print(' '.join(m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


# the names the package exported when it imported every module eagerly, by the module they came from
EXPORTS = {
    "attack": ["AttackConfig", "AttackTrace", "DivergenceError", "LinearFlowProblem", "StabilityProbe", "audit_preset",
               "flow_field", "sim_preset", "stability_gap", "unfair_map", "unfair_map_batch"],
    "dataset": ["Dataset", "load_csv", "save_csv", "split_csv"],
    "fair_metric": ["FairMetric", "SubspaceSpec", "learn_sensitive_metric", "load_metric", "rotated_coordinate_metric",
                    "save_metric"],
    "inference": ["AuditReport", "NoBaselineErrors", "audit", "error_rate_stats", "error_rate_test", "loss_ratio_stats",
                  "loss_ratio_test", "normal_quantile", "one_sided_lower_bound", "two_sided_ci"],
    "models": ["LogisticModel", "MlpModel", "TrainConfig", "load_model", "save_model", "train"],
    "sim": ["CalibrationSpec", "GridSpec", "HeatmapCell", "RatioPopulation", "SimConfig", "average_odds_difference",
            "balanced_accuracy", "calibrate", "coverage_experiment", "fit_bias", "generate", "rejection_rate_experiment",
            "robustness_experiment", "stopping_time_sweep", "sweep_heatmap"],
}
NAMES = [name for names in EXPORTS.values() for name in names]
# what the CLI imports for every command: config parsing and the dataset names bench/traced_cli.py wraps on it
EAGER = ["fairaudit", "fairaudit.dataset", "fairaudit.linalg"]


# what ``python -m fairaudit.cli`` runs
RUN_CLI = "import runpy; runpy.run_module('fairaudit.cli', run_name='__main__', alter_sys=True)"


def _run(code, *args, cwd=None, at_exit="None"):
    """Run ``code`` with ``args`` in a fresh interpreter: its stdout before exit, and ``at_exit``'s value at exit."""
    env = dict(os.environ, PYTHONPATH=SRC)
    register = f"import atexit, json, os, sys; atexit.register(lambda: print(json.dumps({at_exit})))"
    out = subprocess.run([sys.executable, "-c", f"{register}; {code}", *args], cwd=cwd, env=env,
                         capture_output=True, text=True)
    assert out.returncode in (0, 3) and out.stderr == "", out.stderr
    *lines, last = out.stdout.splitlines(keepends=True)
    return "".join(lines), json.loads(last)


def _loaded_at_exit(code, *args, cwd=None) -> list[str]:
    """The package's modules loaded when the interpreter that runs ``code`` exits."""
    return _run(code, *args, cwd=cwd, at_exit="sorted(m for m in sys.modules if m.startswith('fairaudit'))")[1]


def test_package_import_loads_no_submodule():
    assert _loaded_at_exit("import fairaudit") == ["fairaudit"]


def test_cli_import_loads_only_dataset_and_linalg():
    assert _loaded_at_exit("import fairaudit.cli") == sorted(EAGER + ["fairaudit.cli"])


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A small simulated CSV, a rotated metric and a logistic model, made in this process."""
    from fairaudit import cli

    d = tmp_path_factory.mktemp("inputs")
    data = {"data": str(d / "data.csv"), "label_column": "label", "protected_columns": ["group"]}
    configs = {
        "simulate": {"n_samples": 60, "data_output": data["data"]},
        "metric": {"type": "rotated", "beta_degrees": 0.0, "metric_output": str(d / "metric.json")},
        "train": {**data, "num_steps": 5, "model_output": str(d / "model.json")},
        "metric-learned": {**data, "num_steps": 5, "metric_output": str(d / "learned-metric.json")},
        "train-projector": {**data, "num_steps": 5, "projector_metric": str(d / "metric.json"),
                            "model_output": str(d / "projected-model.json")},
        "split": {"input": data["data"], "train_output": str(d / "train.csv"), "audit_output": str(d / "audit.csv")},
        "audit": {**data, "model": str(d / "model.json"), "metric": str(d / "metric.json"), "num_steps": 5,
                  "report_output": str(d / "report.json")},
        "robustness": {**data, "model": str(d / "model.json"), "metric": str(d / "metric.json"), "num_steps": 5,
                       "scales": [0.5, 0.0], "output": str(d / "robustness.csv")},
        "sweep": {**data, "num_steps": 5, "w1_min": -1.0, "w1_max": 1.0, "w1_step": 1.0, "w2_min": -1.0,
                  "w2_max": 1.0, "w2_step": 1.0, "output": str(d / "heatmap.csv")},
        "stopping-sweep": {**data, "model": str(d / "model.json"), "metric": str(d / "metric.json"),
                           "horizons": [0.5, 1.0], "output": str(d / "stopping.csv")},
        "calibrate": {"n": 20, "coverage_replicates": 10, "replicates": 10, "output": str(d / "calibration.csv")},
    }
    for case, cfg in configs.items():
        (d / f"{case}.config.json").write_text(json.dumps(cfg))
        assert cli.main([_command(case), "--config", str(d / f"{case}.config.json")]) in (0, 3)
    return d


# the cases that run a command with other keys than the case named after it
VARIANTS = {"metric-learned": "metric", "train-projector": "train"}


def _command(case: str) -> str:
    """The command a case runs."""
    return VARIANTS.get(case, case)


# the modules each case loads beyond EAGER: a command loads a library module only when it calls it
OWN_MODULES = {
    "split": [],
    "simulate": ["fairaudit.synthetic"],
    "train": ["fairaudit.models"],
    # the projector is read from a metric file
    "train-projector": ["fairaudit.fair_metric", "fairaudit.models"],
    "metric": ["fairaudit.fair_metric", "fairaudit.models"],
    "audit": ["fairaudit.attack", "fairaudit.fair_metric", "fairaudit.inference", "fairaudit.models"],
}


@pytest.mark.parametrize("case", OWN_MODULES)
def test_each_command_loads_only_its_own_modules(cli_inputs, case):
    loaded = _loaded_at_exit(RUN_CLI, _command(case), "--config", f"{case}.config.json", cwd=cli_inputs)
    assert loaded == sorted(EAGER + OWN_MODULES[case])


@pytest.mark.parametrize("case", ["audit", "sweep", "stopping-sweep", "robustness", "calibrate"])
def test_commands_that_fold_ratios_load_no_statistics(cli_inputs, case):
    _, loaded = _run(RUN_CLI, _command(case), "--config", f"{case}.config.json", cwd=cli_inputs,
                     at_exit=f"[m for m in {STATISTICS!r} if m in sys.modules]")
    assert loaded == []


# at exit: whether numpy.random is loaded, whether _hashlib is blocked, and whether OpenSSL's libcrypto is mapped
# (None without /proc)
OPENSSL_STATE = (
    "['numpy.random' in sys.modules, sys.modules.get('_hashlib', 0) is None, "
    "'libcrypto' in open('/proc/self/maps').read() if os.path.exists('/proc/self/maps') else None]"
)


@pytest.mark.parametrize("case", ["split", "simulate", "train", "metric-learned", "robustness", "calibrate"])
def test_commands_that_draw_random_numbers_map_no_openssl(cli_inputs, case):
    _, (random_loaded, hashlib_blocked, libcrypto) = _run(
        RUN_CLI, _command(case), "--config", f"{case}.config.json", cwd=cli_inputs, at_exit=OPENSSL_STATE
    )
    assert random_loaded and hashlib_blocked
    if libcrypto is None:
        pytest.skip("no /proc/self/maps to read the mapped libraries from")
    assert not libcrypto


# the output keys of the cases rerun with OpenSSL loaded
OUTPUTS = {"split": ["train_output", "audit_output"], "simulate": ["data_output"], "train": ["model_output"]}


@pytest.mark.parametrize("case", OUTPUTS)
def test_blocking_openssl_changes_no_output(cli_inputs, tmp_path, case):
    # hashlib falls back to its built-in digests, and numpy.random's seeded streams do not hash
    cfg = json.loads((cli_inputs / f"{case}.config.json").read_text())
    cfg.update({key: f"{key}.out" for key in OUTPUTS[case]})
    runs = {}
    for name, prelude in (("blocked", ""), ("openssl", "import _hashlib; ")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "config.json").write_text(json.dumps(cfg))
        stdout, hashlib_blocked = _run(prelude + RUN_CLI, case, "--config", "config.json", cwd=tmp_path / name,
                                       at_exit="sys.modules.get('_hashlib', 0) is None")
        assert hashlib_blocked == (name == "blocked")
        runs[name] = stdout, [(tmp_path / name / f"{key}.out").read_bytes() for key in OUTPUTS[case]]
    assert runs["blocked"] == runs["openssl"]


def test_namespace_lists_the_exported_names():
    assert sorted(fairaudit.__all__) == sorted(NAMES)
    star = {}
    exec("from fairaudit import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(NAMES)
    assert set(NAMES) | {"cli", "sim", "synthetic"} <= set(dir(fairaudit))


@pytest.mark.parametrize("module", EXPORTS)
def test_namespace_names_are_their_modules_objects(module):
    owner = importlib.import_module(f"fairaudit.{module}")
    for name in EXPORTS[module]:
        assert getattr(fairaudit, name) is getattr(owner, name)
    assert getattr(fairaudit, module) is owner


def test_unknown_name_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        fairaudit.no_such_name
