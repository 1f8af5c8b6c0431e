import json
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

from fairaudit import attack, cli, dataset, fair_metric, inference, models, sim, synthetic, tracefile
from fairaudit.attack import AttackConfig, AttackTrace
from fairaudit.dataset import Dataset
from fairaudit.fair_metric import FairMetric, load_metric, save_metric
from fairaudit.models import LogisticModel, MlpModel, load_model, save_model


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture()
def sim_csv(tmp_path):
    cfg = write_config(tmp_path, "simulate.json", {"n_samples": 200, "seed": 7, "data_output": str(tmp_path / "data.csv")})
    assert cli.main(["simulate", "--config", cfg]) == 0
    return str(tmp_path / "data.csv")


@pytest.fixture()
def metric_file(tmp_path):
    cfg = write_config(
        tmp_path, "metric.json", {"type": "rotated", "beta_degrees": 0.0, "metric_output": str(tmp_path / "metric.json.out")}
    )
    assert cli.main(["metric", "--config", cfg]) == 0
    return str(tmp_path / "metric.json.out")


def unfair_model_file(tmp_path, sim_csv):
    from fairaudit.dataset import load_csv

    ds = load_csv(sim_csv, label_column="label", protected_columns=("group",))
    b = sim.fit_bias(ds.features, ds.labels, 4.0, 0.0)
    path = tmp_path / "unfair.json"
    save_model(LogisticModel(weights=np.array([4.0, 0.0]), bias=b), path)
    return str(path)


def audit_config(tmp_path, model, metric, data, **extra):
    doc = {
        "model": model,
        "metric": metric,
        "data": data,
        "label_column": "label",
        "protected_columns": ["group"],
        "report_output": str(tmp_path / "report.json"),
    }
    doc.update(extra)
    return write_config(tmp_path, "audit.json", doc)


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        c1 = write_config(tmp_path, "s1.json", {"n_samples": 50, "seed": 3, "data_output": str(out1)})
        c2 = write_config(tmp_path, "s2.json", {"n_samples": 50, "seed": 3, "data_output": str(out2)})
        assert cli.main(["simulate", "--config", c1]) == 0
        assert cli.main(["simulate", "--config", c2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_row_count_and_header(self, sim_csv):
        lines = open(sim_csv).read().splitlines()
        assert lines[0] == "x1,x2,label,group"
        assert len(lines) == 201

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("group_means", [[-1.5, 0.0]], "group_means must be a 2x2 array (one row per group), got shape (1, 2)"),
            ("group_means", [[-1.5, 0.0, 1.0], [1.5, 0.0, 1.0]], "group_means must be a 2x2 array (one row per group), got shape (2, 3)"),
            ("group_means", [[-1.5, 0.0], [1.5]], "group_means must be a rectangular array of numbers"),
            (
                "label_weights",
                [[-0.2, -0.01, 0.0], [0.2, -0.01, 0.0]],
                "label_weights must be a 2x2 array (one row per group), got shape (2, 3)",
            ),
        ],
        ids=["one-group-mean", "three-column-means", "ragged-means", "three-column-weights"],
    )
    def test_mis_shaped_group_parameters_exit_10_naming_them(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "data.csv"
        cfg = write_config(tmp_path, "s.json", {key: value, "data_output": str(out)})
        assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"fairaudit simulate: error: {message}\n"
        assert not out.exists()


class TestSplitCommand:
    def test_split_partitions_rows(self, tmp_path, sim_csv):
        cfg = write_config(
            tmp_path,
            "split.json",
            {
                "input": sim_csv,
                "train_output": str(tmp_path / "train.csv"),
                "audit_output": str(tmp_path / "audit.csv"),
                "train_fraction": 0.8,
                "seed": 1,
            },
        )
        assert cli.main(["split", "--config", cfg]) == 0
        n_train = len(open(tmp_path / "train.csv").read().splitlines()) - 1
        n_audit = len(open(tmp_path / "audit.csv").read().splitlines()) - 1
        assert n_train + n_audit == 200


class TestMetricCommand:
    def test_rotated_metric_file(self, metric_file):
        m = load_metric(metric_file)
        assert np.allclose(m.sigma, np.diag([0.0, 1.0]))

    def test_learned_metric_from_csv(self, tmp_path, sim_csv):
        out = tmp_path / "learned.json"
        cfg = write_config(
            tmp_path,
            "learn.json",
            {
                "data": sim_csv,
                "label_column": "label",
                "protected_columns": ["group"],
                "standardize": False,
                "num_steps": 500,
                "metric_output": str(out),
            },
        )
        assert cli.main(["metric", "--config", cfg]) == 0
        p = load_metric(str(out)).sigma
        assert np.max(np.abs(p @ p - p)) < 1e-10

    def test_learned_requires_protected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"metric_output": str(tmp_path / "m.json")})
        assert cli.main(["metric", "--config", cfg]) == cli.EXIT_ERROR


class TestTrainCommand:
    def test_train_then_audit_pipeline(self, tmp_path, sim_csv, metric_file):
        model_out = tmp_path / "model.json"
        cfg = write_config(
            tmp_path,
            "train.json",
            {
                "data": sim_csv,
                "label_column": "label",
                "protected_columns": ["group"],
                "standardize": False,
                "num_steps": 300,
                "model_output": str(model_out),
            },
        )
        assert cli.main(["train", "--config", cfg]) == 0
        model = load_model(str(model_out))
        assert model.weights.shape == (2,)
        acfg = audit_config(tmp_path, str(model_out), metric_file, sim_csv)
        assert cli.main(["audit", "--config", acfg]) in (0, 3)

    def test_projector_metric_applied(self, tmp_path, sim_csv, metric_file):
        model_out = tmp_path / "proj_model.json"
        cfg = write_config(
            tmp_path,
            "train_proj.json",
            {
                "data": sim_csv,
                "label_column": "label",
                "protected_columns": ["group"],
                "standardize": False,
                "num_steps": 100,
                "projector_metric": metric_file,
                "model_output": str(model_out),
            },
        )
        assert cli.main(["train", "--config", cfg]) == 0
        model = load_model(str(model_out))
        assert model.projector is not None
        # the projector zeroes coordinate 1, so predictions ignore it
        assert model.predict_proba(np.array([[5.0, 0.2]]))[0] == model.predict_proba(np.array([[-5.0, 0.2]]))[0]

    @pytest.mark.parametrize(
        "architecture, key, value, message",
        [
            ("mlp", "hidden_units", 0, "hidden_units must be at least 1, got 0"),
            ("mlp", "hidden_units", -3, "hidden_units must be at least 1, got -3"),
            ("logistic", "activation", "relu", "unsupported activation 'relu'; use tanh or softplus"),
            ("logistic", "batch_size", 0, "batch_size must be at least 1, got 0"),
            ("logistic", "num_steps", -1, "num_steps must be non-negative, got -1"),
        ],
        ids=["zero-units", "negative-units", "relu", "zero-batch", "negative-steps"],
    )
    def test_unusable_mlp_settings_exit_10_naming_them(self, tmp_path, sim_csv, capsys, architecture, key, value, message):
        model_out = tmp_path / "model.json"
        cfg = write_config(
            tmp_path,
            "train.json",
            {
                "data": sim_csv,
                "label_column": "label",
                "protected_columns": ["group"],
                "architecture": architecture,
                "num_steps": 10,
                key: value,
                "model_output": str(model_out),
            },
        )
        assert cli.main(["train", "--config", cfg]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"fairaudit train: error: {message}\n"
        assert not model_out.exists()


class TestAuditCommand:
    def test_unfair_model_rejects_with_exit_3(self, tmp_path, sim_csv, metric_file):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = audit_config(tmp_path, model, metric_file, sim_csv, samples_output=str(tmp_path / "samples.csv"))
        assert cli.main(["audit", "--config", cfg]) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["reject"] is True
        assert report["t_n"] > 1.25
        # materialized defaults travel with the report
        assert report["config"]["lam"] == 50.0
        assert report["config"]["num_steps"] == 500
        assert report["config"]["alpha"] == 0.05
        samples = (tmp_path / "samples.csv").read_text().splitlines()
        assert samples[0] == "index,ratio,pre01,post01"
        assert len(samples) == report["n"] + 1

    def test_constant_model_exits_0(self, tmp_path, sim_csv, metric_file):
        path = tmp_path / "const.json"
        save_model(LogisticModel(weights=np.zeros(2), bias=0.0), path)
        cfg = audit_config(tmp_path, str(path), metric_file, sim_csv)
        assert cli.main(["audit", "--config", cfg]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["s_n"] == 1.0
        assert report["reject"] is False
        assert report["error_rate"]["s_tilde"] == 1.0

    def test_missing_metric_file_exits_10(self, tmp_path, sim_csv, capsys):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = audit_config(tmp_path, model, str(tmp_path / "nope.json"), sim_csv)
        assert cli.main(["audit", "--config", cfg]) == 10
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_exits_10(self, tmp_path, sim_csv, metric_file, capsys):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = audit_config(tmp_path, model, metric_file, sim_csv, lamda=25.0)
        assert cli.main(["audit", "--config", cfg]) == 10
        assert "unknown config keys" in capsys.readouterr().err

    def test_threads_key_is_unknown(self, tmp_path, sim_csv, metric_file, capsys):
        # an audit is one serial attack pass; a pool size is not a setting
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = audit_config(tmp_path, model, metric_file, sim_csv, threads=2)
        assert cli.main(["audit", "--config", cfg]) == 10
        err = capsys.readouterr().err
        assert "unknown config keys" in err and "'threads'" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "which, text, message",
        [
            ("model", "[]", "model file {path} must hold a JSON object, got list"),
            (
                "model",
                '{"architecture": "logistic", "weights": [4.0, 0.0], "projector": null}',
                "logistic model has no key 'bias'",
            ),
            ("metric", "[]", "metric file {path} must hold a JSON object, got list"),
            (
                "model",
                '{"architecture": "logistic", "weights": [1.0, NaN], "bias": 0.0, "projector": null}',
                "logistic model key 'weights' must be a JSON array, each item a finite number, got [1.0, nan]",
            ),
            (
                "metric",
                '{"dim": 2, "sigma": [[0.0, 0.0], [0.0, -0.02]]}',
                "sigma must be positive semidefinite, got smallest eigenvalue -0.02",
            ),
        ],
        ids=["model-not-an-object", "model-without-bias", "metric-not-an-object", "model-nan-weight", "metric-not-psd"],
    )
    def test_bad_model_or_metric_file_exits_10(self, tmp_path, sim_csv, metric_file, capsys, which, text, message):
        path = tmp_path / f"bad-{which}.json"
        path.write_text(text)
        model = str(path) if which == "model" else unfair_model_file(tmp_path, sim_csv)
        cfg = audit_config(tmp_path, model, str(path) if which == "metric" else metric_file, sim_csv)
        assert cli.main(["audit", "--config", cfg]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"fairaudit audit: error: {message.format(path=path)}\n"
        assert not (tmp_path / "report.json").exists()

    def test_missing_required_key_exits_10(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "a.json", {"model": "m.json"})
        assert cli.main(["audit", "--config", cfg]) == 10
        assert "missing required" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path, sim_csv, metric_file):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = audit_config(tmp_path, model, metric_file, sim_csv)
        assert cli.main(["audit", "--config", cfg]) == 3
        first = (tmp_path / "report.json").read_bytes()
        assert cli.main(["audit", "--config", cfg]) == 3
        assert (tmp_path / "report.json").read_bytes() == first

    def test_trace_output_lines(self, tmp_path, sim_csv, metric_file):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = audit_config(
            tmp_path, model, metric_file, sim_csv, num_steps=5, trace_output=str(tmp_path / "trace.jsonl")
        )
        assert cli.main(["audit", "--config", cfg]) in (0, 3)
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 200 * 6
        rec = json.loads(lines[0])
        assert rec["step"] == 0 and rec["sample"] == 0 and "loss" in rec and "penalty" in rec

    @staticmethod
    def divergent_audit_config(tmp_path, **extra):
        """An audit whose attack diverges on 48 of 100 simulated rows, written to ``data.csv``."""
        data = tmp_path / "data.csv"
        simulate = write_config(tmp_path, "s.json", {"n_samples": 100, "seed": 1, "data_output": str(data)})
        assert cli.main(["simulate", "--config", simulate]) == 0
        model = tmp_path / "model.json"
        save_model(LogisticModel(weights=np.array([4.0, 1.5]), bias=0.0), model)
        metric = write_config(tmp_path, "identity.json", {"dim": 2, "sigma": [[1.0, 0.0], [0.0, 1.0]]})
        return audit_config(tmp_path, str(model), metric, str(data), lam=1.0, num_steps=20, eta=1.5, **extra)

    def test_trace_output_keeps_the_audited_rows_when_some_diverge(self, tmp_path):
        cfg = self.divergent_audit_config(
            tmp_path, skip_divergent=True, error_rate=False, samples_output=str(tmp_path / "samples.csv"),
            trace_output=str(tmp_path / "trace.jsonl"),
        )
        assert cli.main(["audit", "--config", cfg]) in (0, 3)
        samples = [row.split(",") for row in (tmp_path / "samples.csv").read_text().splitlines()[1:]]
        index = [int(row[0]) for row in samples]
        assert len(index) == 52
        records = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
        assert [(r["sample"], r["step"]) for r in records] == [(i, k) for i in index for k in range(21)]
        features = np.loadtxt(tmp_path / "data.csv", delimiter=",", skiprows=1, usecols=(0, 1))
        assert [r["x"] for r in records[::21]] == features[index].tolist()
        losses = np.array([r["loss"] for r in records]).reshape(len(index), 21)
        np.testing.assert_array_equal(losses[:, -1] / losses[:, 0], [float(row[1]) for row in samples])

    def test_divergence_exits_10_naming_its_step_and_sample(self, tmp_path, capsys):
        cfg = self.divergent_audit_config(tmp_path, skip_divergent=False)
        capsys.readouterr()
        assert cli.main(["audit", "--config", cfg]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == "fairaudit audit: error: attack diverged at step 20 on sample 4\n"
        assert not (tmp_path / "report.json").exists()

    def test_no_baseline_errors_after_skipping_exits_10_naming_the_dropped_rows(self, tmp_path, capsys):
        cfg = self.divergent_audit_config(tmp_path, skip_divergent=True)
        capsys.readouterr()
        assert cli.main(["audit", "--config", cfg]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            "fairaudit audit: error: no kept sample is misclassified: skip_divergent dropped 48 divergent rows,"
            ' 48 of them misclassified, so the error-rates ratio is undefined; set "error_rate": false to audit'
            " without it\n"
        )
        assert not (tmp_path / "report.json").exists()

    def test_failed_allocation_exits_10_with_numpys_message(self, tmp_path, sim_csv, metric_file, capsys, monkeypatch):
        # a real allocation of 10**12 steps may fail at once or be granted and then exhaust memory, depending on
        # the machine's overcommit setting, so the runner raises what numpy raises when it fails
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"

        def allocate(cfg):
            assert cfg["num_steps"] == 10**12
            raise MemoryError(message)

        monkeypatch.setitem(cli._RUNNERS, "audit", allocate)
        cfg = audit_config(tmp_path, unfair_model_file(tmp_path, sim_csv), metric_file, sim_csv, num_steps=10**12)
        capsys.readouterr()
        assert cli.main(["audit", "--config", cfg]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"fairaudit audit: error: {message}\n"

    def test_invalid_alpha_exits_10(self, tmp_path, sim_csv, metric_file):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = audit_config(tmp_path, model, metric_file, sim_csv, alpha=0.7)
        assert cli.main(["audit", "--config", cfg]) == 10


class TestSweepCommand:
    def sweep_config(self, tmp_path, sim_csv, out_name="heatmap.csv", **extra):
        return write_config(
            tmp_path,
            f"sweep-{out_name}.json",
            {
                "data": sim_csv,
                "label_column": "label",
                "protected_columns": ["group"],
                "w1_min": -1.0,
                "w1_max": 1.0,
                "w1_step": 1.0,
                "w2_min": 0.0,
                "w2_max": 1.0,
                "w2_step": 1.0,
                "output": str(tmp_path / out_name),
                **extra,
            },
        )

    def test_small_grid_and_determinism(self, tmp_path, sim_csv):
        cfg = self.sweep_config(tmp_path, sim_csv)
        assert cli.main(["sweep", "--config", cfg]) == 0
        first = (tmp_path / "heatmap.csv").read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == "theta1,theta2,fitted_bias,t_n,reject,divergent"
        assert len(lines) == 1 + 3 * 2
        assert cli.main(["sweep", "--config", cfg]) == 0
        assert (tmp_path / "heatmap.csv").read_bytes() == first

    @pytest.mark.parametrize(
        "keys, message",
        [
            (
                {"w1_min": -1e308, "w1_max": 1e308},
                "w1 grid: (max - min) / step is not finite for min -1e+308, max 1e+308, step 1.0",
            ),
            ({"w1_step": 0}, "w1 grid: need step > 0 and max >= min, got min -1.0, max 1.0, step 0.0"),
            ({"w2_min": 3, "w2_max": 1}, "w2 grid: need step > 0 and max >= min, got min 3.0, max 1.0, step 1.0"),
            # counts that would never return or would exhaust memory, rejected before any value is built
            (
                {"w1_step": 1e-300},
                "w1 grid: 2e+300 grid values exceed the limit of 1000 per axis for min -1.0, max 1.0, step 1e-300",
            ),
            (
                {"w2_step": 1e-9},
                "w2 grid: 1e+09 grid values exceed the limit of 1000 per axis for min 0.0, max 1.0, step 1e-09",
            ),
            (
                {"w1_min": 0, "w1_max": 1000},
                "w1 grid: 1001 grid values exceed the limit of 1000 per axis for min 0.0, max 1000.0, step 1.0",
            ),
        ],
        ids=["overflowing-range", "zero-step", "reversed-range", "tiny-step", "huge-count", "one-past-the-limit"],
    )
    def test_unbuildable_grid_exits_10_naming_its_axis(self, tmp_path, sim_csv, capsys, keys, message):
        cfg = self.sweep_config(tmp_path, sim_csv, **keys)
        capsys.readouterr()
        assert cli.main(["sweep", "--config", cfg]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"fairaudit sweep: error: sweep: {message}\n"
        assert not (tmp_path / "heatmap.csv").exists()

    def test_default_grid_has_441_cells(self):
        schema = cli._SCHEMAS["sweep"]()
        w1 = sim.GridSpec.from_range(schema["w1_min"].default, schema["w1_max"].default, schema["w1_step"].default)
        w2 = sim.GridSpec.from_range(schema["w2_min"].default, schema["w2_max"].default, schema["w2_step"].default)
        assert len(w1) * len(w2) == 441

    def test_extra_feature_columns_rejected(self, tmp_path, sim_csv):
        cfg = write_config(
            tmp_path,
            "sweep-bad.json",
            {"data": sim_csv, "label_column": "label", "output": str(tmp_path / "x.csv")},
        )
        # "group" not declared protected: features become 3-D
        assert cli.main(["sweep", "--config", cfg]) == 10


class TestStoppingAndRobustness:
    def test_stopping_sweep(self, tmp_path, sim_csv, metric_file):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = write_config(
            tmp_path,
            "stop.json",
            {
                "model": model,
                "metric": metric_file,
                "data": sim_csv,
                "label_column": "label",
                "protected_columns": ["group"],
                "horizons": [0.0, 0.5, 2.0],
                "output": str(tmp_path / "stopping.csv"),
            },
        )
        assert cli.main(["stopping-sweep", "--config", cfg]) == 0
        lines = (tmp_path / "stopping.csv").read_text().splitlines()
        assert lines[0] == "horizon,t_n"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == 1.0

    @pytest.mark.parametrize("eta", [0.0, -0.01])
    def test_stopping_sweep_non_positive_eta_exits_10(self, tmp_path, sim_csv, metric_file, capsys, eta):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = write_config(
            tmp_path,
            "stop.json",
            {
                "model": model,
                "metric": metric_file,
                "data": sim_csv,
                "label_column": "label",
                "protected_columns": ["group"],
                "eta": eta,
                "horizons": [0.5, 2.0],
                "output": str(tmp_path / "stopping.csv"),
            },
        )
        assert cli.main(["stopping-sweep", "--config", cfg]) == cli.EXIT_ERROR
        assert "eta must be positive" in capsys.readouterr().err
        assert not (tmp_path / "stopping.csv").exists()

    def test_robustness_ladder(self, tmp_path, sim_csv, metric_file):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = write_config(
            tmp_path,
            "rob.json",
            {
                "model": model,
                "metric": metric_file,
                "data": sim_csv,
                "label_column": "label",
                "protected_columns": ["group"],
                "scales": [1e-2, 1e-4, 0.0],
                "lam": 100.0,
                "num_steps": 400,
                "schedule": "decay",
                "output": str(tmp_path / "rob.csv"),
            },
        )
        assert cli.main(["robustness", "--config", cfg]) == 0
        lines = (tmp_path / "rob.csv").read_text().splitlines()
        assert lines[0] == "scale,max_ratio_gap"
        gaps = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert gaps[0] > gaps[1] > gaps[2] == 0.0

    @pytest.mark.parametrize(
        "command, key, message",
        [
            ("stopping-sweep", "horizons", "horizons must be non-empty"),
            ("robustness", "scales", "perturbation_scales must be non-empty"),
        ],
    )
    def test_empty_list_exits_10(self, tmp_path, sim_csv, metric_file, capsys, command, key, message):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = write_config(
            tmp_path,
            "empty.json",
            {
                "model": model,
                "metric": metric_file,
                "data": sim_csv,
                "label_column": "label",
                "protected_columns": ["group"],
                key: [],
                "output": str(tmp_path / "out.csv"),
            },
        )
        assert cli.main([command, "--config", cfg]) == cli.EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestCalibrateCommand:
    def test_summary_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cal.json",
            {"n": 200, "coverage_replicates": 100, "replicates": 50, "output": str(tmp_path / "cal.csv")},
        )
        assert cli.main(["calibrate", "--config", cfg]) == 0
        lines = (tmp_path / "cal.csv").read_text().splitlines()
        assert lines[0] == "experiment,n,replicates,rate"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["coverage", "type1", "power"]

    def test_default_output(self, tmp_path, capsys):
        # the rates every default setting gives, so a drift in any of them shows here
        cfg = write_config(tmp_path, "cal.json", {"output": str(tmp_path / "cal.csv")})
        assert cli.main(["calibrate", "--config", cfg]) == cli.EXIT_OK
        assert (tmp_path / "cal.csv").read_text() == (
            "experiment,n,replicates,rate\ncoverage,500,1000,0.942\ntype1,500,200,0.055\npower,500,200,1.0\n"
        )
        assert capsys.readouterr().out == f"calibrate: coverage=0.942 type1=0.055 power=1.000 -> {tmp_path / 'cal.csv'}\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n", 1, "n must be at least 2, got 1"),
            ("sd", 1.0, "type1 population support would include negative ratios: mean 1.25 - sd 1.0 * sqrt(shape 4.0) < 0"),
            ("shape", 9.0, "type1 population support would include negative ratios: mean 1.25 - sd 0.5 * sqrt(shape 9.0) < 0"),
            (
                "coverage_mean",
                0.5,
                "coverage population support would include negative ratios: mean 0.5 - sd 0.5 * sqrt(shape 4.0) < 0",
            ),
        ],
        ids=["n", "sd", "shape", "coverage_mean"],
    )
    def test_bad_setting_exits_10_naming_its_cause(self, tmp_path, capsys, key, value, message):
        cfg = write_config(tmp_path, "cal.json", {key: value, "output": str(tmp_path / "cal.csv")})
        assert cli.main(["calibrate", "--config", cfg]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"fairaudit calibrate: error: {message}\n"
        assert not (tmp_path / "cal.csv").exists()

    @pytest.mark.parametrize("key, name", [("coverage_replicates", "coverage"), ("replicates", "type1")])
    @pytest.mark.parametrize("count", [0, -3])
    def test_replicate_count_below_one_exits_10(self, tmp_path, capsys, key, name, count):
        doc = {"n": 50, "coverage_replicates": 5, "replicates": 5, "output": str(tmp_path / "cal.csv")}
        doc[key] = count
        cfg = write_config(tmp_path, "cal.json", doc)
        assert cli.main(["calibrate", "--config", cfg]) == cli.EXIT_ERROR
        assert f"{name} replicates must be at least 1, got {count}" in capsys.readouterr().err
        assert not (tmp_path / "cal.csv").exists()


class TestConfigTypes:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("skip_divergent", "false"),
            ("error_rate", 0),
            ("standardize", "no"),
            ("num_steps", 2.9),
            ("num_steps", "5"),
            ("lam", True),
            ("lam", "50"),
            ("eta", True),
            ("alpha", "0.05"),
            ("delta", float("nan")),
        ],
    )
    def test_audit_key_of_wrong_type_exits_10(self, tmp_path, sim_csv, metric_file, capsys, key, value):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = audit_config(tmp_path, model, metric_file, sim_csv, **{key: value})
        assert cli.main(["audit", "--config", cfg]) == 10
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("train", "class_reweight", "true"),
            ("train", "batch_size", 64.5),
            ("train", "seed", None),
            ("stopping-sweep", "horizons", "125"),
            ("robustness", "scales", "0"),
            ("sweep", "w1_step", True),
            ("simulate", "noise_sd", True),
        ],
    )
    def test_command_key_of_wrong_type_exits_10(self, tmp_path, sim_csv, metric_file, capsys, command, key, value):
        # each base config runs when the key is left out, so only the bad value fails it
        data = {"data": sim_csv, "label_column": "label", "protected_columns": ["group"]}
        audited = {"model": unfair_model_file(tmp_path, sim_csv), "metric": metric_file, **data}
        out = str(tmp_path / "out")
        base = {
            "train": {**data, "num_steps": 10, "model_output": out},
            "stopping-sweep": {**audited, "horizons": [0.5], "output": out},
            "robustness": {**audited, "scales": [0.0], "num_steps": 5, "output": out},
            "sweep": {**data, "num_steps": 5, "w1_min": -1.0, "w1_max": 1.0, "w1_step": 1.0,
                      "w2_min": 0.0, "w2_max": 1.0, "w2_step": 1.0, "output": out},
            "simulate": {"n_samples": 50, "data_output": out},
        }[command]
        cfg = write_config(tmp_path, f"{command}.json", {**base, key: value})
        assert cli.main([command, "--config", cfg]) == 10
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key", [
        ("split", "seed"),
        ("train", "seed"),
        ("metric", "seed"),
        ("simulate", "seed"),
        ("robustness", "perturb_seed"),
        ("calibrate", "seed"),
    ])
    def test_negative_seed_exits_10_naming_it(self, tmp_path, sim_csv, metric_file, capsys, command, key):
        data = {"data": sim_csv, "label_column": "label", "protected_columns": ["group"]}
        out = str(tmp_path / "out")
        base = {
            "split": {"input": sim_csv, "train_output": out, "audit_output": str(tmp_path / "audit.csv")},
            "train": {**data, "num_steps": 10, "model_output": out},
            "metric": {**data, "num_steps": 10, "metric_output": out},
            "simulate": {"n_samples": 50, "data_output": out},
            "robustness": {"model": unfair_model_file(tmp_path, sim_csv), "metric": metric_file, **data,
                           "scales": [0.0], "num_steps": 5, "output": out},
            "calibrate": {"n": 20, "coverage_replicates": 5, "replicates": 5, "output": out},
        }[command]
        cfg = write_config(tmp_path, f"{command}.json", {**base, key: -1})
        assert cli.main([command, "--config", cfg]) == cli.EXIT_ERROR
        expected = f"fairaudit {command}: error: {command}: config key {key!r} must be non-negative, got -1\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "out").exists()

    def test_integral_float_and_json_booleans_accepted(self, tmp_path, sim_csv, metric_file):
        model = unfair_model_file(tmp_path, sim_csv)
        cfg = audit_config(tmp_path, model, metric_file, sim_csv, num_steps=5.0, skip_divergent=False, error_rate=True)
        assert cli.main(["audit", "--config", cfg]) in (0, 3)


_DATA_DEFAULTS = {"protected_columns": (), "standardize": False}
_AUDIT_ATTACK = {"lam": 50.0, "num_steps": 500, "schedule": "constant", "eta": 0.01, "decay_c": 0.02, "decay_p": 2 / 3}
_AUDITED = {"model": "model.json", "metric": "metric.json", "data": "audit.csv", "label_column": "label"}


@pytest.mark.parametrize(
    "command, required, defaults",
    [
        (
            "split",
            {"input": "data.csv", "train_output": "train.csv", "audit_output": "audit.csv"},
            {"train_fraction": 0.8, "seed": 0},
        ),
        (
            "train",
            {"data": "train.csv", "label_column": "label", "model_output": "model.json"},
            {**_DATA_DEFAULTS, "architecture": "logistic", "hidden_units": 50, "activation": "tanh",
             "learning_rate": 0.1, "batch_size": 64, "num_steps": 2000, "class_reweight": True, "seed": 0,
             "projector_metric": None},
        ),
        (
            "metric",
            {"metric_output": "metric.json"},
            {**_DATA_DEFAULTS, "type": "learned", "data": None, "label_column": None, "rank_tol": 1e-08,
             "learning_rate": 0.5, "batch_size": 64, "num_steps": 3000, "seed": 0, "beta_degrees": None},
        ),
        (
            "audit",
            {**_AUDITED, "report_output": "report.json"},
            {**_DATA_DEFAULTS, **_AUDIT_ATTACK, "alpha": 0.05, "delta": 1.25, "skip_divergent": False,
             "error_rate": True, "samples_output": None, "trace_output": None},
        ),
        (
            "simulate",
            {"data_output": "data.csv"},
            {"n_samples": 400, "minority_prob": 0.1, "group_means": ((-1.5, 0.0), (1.5, 0.0)), "noise_sd": 0.25,
             "label_weights": ((-0.2, -0.01), (0.2, -0.01)), "label_noise_var": 0.0001, "seed": 7},
        ),
        (
            "sweep",
            {"data": "data.csv", "label_column": "label", "output": "heatmap.csv"},
            {**_DATA_DEFAULTS, "lam": 100.0, "num_steps": 400, "schedule": "decay", "eta": 0.01, "decay_c": 0.02,
             "decay_p": 2 / 3, "beta_degrees": 0.0, "alpha": 0.05, "delta": 1.25, "w1_min": -4.0, "w1_max": 4.0,
             "w1_step": 0.4, "w2_min": -4.0, "w2_max": 4.0, "w2_step": 0.4},
        ),
        (
            "stopping-sweep",
            {**_AUDITED, "horizons": [1.0], "output": "stopping.csv"},
            {**_DATA_DEFAULTS, "lam": 50.0, "eta": 0.01, "alpha": 0.05, "horizons": (1.0,)},
        ),
        (
            "robustness",
            {**_AUDITED, "scales": [0.5], "output": "robustness.csv"},
            {**_DATA_DEFAULTS, **_AUDIT_ATTACK, "perturb_seed": 0, "scales": (0.5,)},
        ),
        (
            "calibrate",
            {"output": "calibration.csv"},
            {"n": 500, "coverage_replicates": 1000, "replicates": 200, "alpha": 0.05, "delta": 1.25,
             "coverage_mean": 2.0, "sd": 0.5, "shape": 4.0, "seed": 1},
        ),
    ],
)
def test_materialized_defaults_are_pinned(tmp_path, command, required, defaults):
    # a preset or config edit that reaches a CLI default must show up here; repr tells 0 from 0.0 and True from 1
    parsed = cli._parse_config(write_config(tmp_path, "cfg.json", required), command)
    assert repr(sorted(parsed.items())) == repr(sorted({**required, **defaults}.items()))


class TestModelAndMetricFileTypes:
    LOGISTIC = {"architecture": "logistic", "weights": [4.0, 0.0], "bias": 0.0, "projector": None}
    MLP = {
        "architecture": "mlp",
        "activation": "tanh",
        "layer1_weights": [[1.0, 0.5], [-0.5, 1.0]],
        "layer1_bias": [0.0, 0.1],
        "layer2_weights": [1.0, -1.0],
        "layer2_bias": 0.2,
        "projector": None,
    }
    METRIC = {"dim": 2, "sigma": [[0.0, 0.0], [0.0, 1.0]]}
    FLOATS = "a JSON array, each item a finite number"
    MATRIX = "a JSON array, each item a JSON array, each item a finite number"

    @pytest.mark.parametrize(
        "which, key, value, expected",
        [
            ("logistic", "weights", [True, False], FLOATS),
            ("logistic", "weights", "4.0", FLOATS),
            ("logistic", "bias", True, "a finite number"),
            ("logistic", "bias", "0.5", "a finite number"),
            ("logistic", "projector", [1.0, 0.0], MATRIX + " or null"),
            ("mlp", "layer1_weights", [[1.0, "0.5"], [-0.5, 1.0]], MATRIX),
            ("mlp", "layer1_bias", [0.0, None], FLOATS),
            ("mlp", "layer2_weights", True, FLOATS),
            ("mlp", "layer2_bias", [0.2], "a finite number"),
            ("mlp", "activation", ["tanh"], "a string"),
            ("mlp", "projector", True, MATRIX + " or null"),
            ("metric", "dim", True, "an integer"),
            ("metric", "dim", 2.5, "an integer"),
            ("metric", "sigma", True, MATRIX),
            ("metric", "sigma", [[0.0, False], [0.0, 1.0]], MATRIX),
        ],
    )
    def test_field_of_wrong_type_exits_10_naming_it(self, tmp_path, capsys, which, key, value, expected):
        # the files are read before the data, so the data file need not exist
        model = self.MLP if which == "mlp" else self.LOGISTIC
        docs = {"model": {**model}, "metric": {**self.METRIC}}
        docs["metric" if which == "metric" else "model"][key] = value
        paths = {name: write_config(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
        cfg = audit_config(tmp_path, paths["model"], paths["metric"], str(tmp_path / "absent.csv"))
        assert cli.main(["audit", "--config", cfg]) == cli.EXIT_ERROR
        owner = "metric" if which == "metric" else f"{which} model"
        assert capsys.readouterr().err == f"fairaudit audit: error: {owner} key {key!r} must be {expected}, got {value!r}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "which, key, value, message",
        [
            ("metric", "sigma", [[1.0, 0.0], [0.0]], "sigma must be a rectangular array of numbers"),
            ("mlp", "layer1_weights", [[1.0, 0.5], [-0.5]], "layer1_weights must be a rectangular array of numbers"),
            ("logistic", "projector", [[1.0, 0.0], [0.0]], "projector must be a rectangular array of numbers"),
            ("logistic", "projector", [[1.0]], "projector must have shape (2, 2) for 2 inputs, got shape (1, 1)"),
            ("mlp", "projector", np.eye(3).tolist(), "projector must have shape (2, 2) for 2 inputs, got shape (3, 3)"),
        ],
        ids=["ragged-sigma", "ragged-mlp-weights", "ragged-projector", "small-logistic-projector", "large-mlp-projector"],
    )
    def test_field_of_wrong_shape_exits_10_naming_it(self, tmp_path, capsys, which, key, value, message):
        model = self.MLP if which == "mlp" else self.LOGISTIC
        docs = {"model": {**model}, "metric": {**self.METRIC}}
        docs["metric" if which == "metric" else "model"][key] = value
        paths = {name: write_config(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
        cfg = audit_config(tmp_path, paths["model"], paths["metric"], str(tmp_path / "absent.csv"))
        assert cli.main(["audit", "--config", cfg]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"fairaudit audit: error: {message}\n"
        assert not (tmp_path / "report.json").exists()

    def test_integral_numbers_load_bitwise_as_floats(self):
        from fairaudit.fair_metric import metric_from_dict
        from fairaudit.models import model_from_dict

        ints = {"architecture": "logistic", "weights": [4, 0], "bias": 0, "projector": [[1, 0], [0, 1]]}
        floats = {"architecture": "logistic", "weights": [4.0, 0.0], "bias": 0.0, "projector": [[1.0, 0.0], [0.0, 1.0]]}
        assert model_from_dict(ints) == model_from_dict(floats)
        assert type(model_from_dict(ints).bias) is float
        assert metric_from_dict({"dim": 2.0, "sigma": [[0, 0], [0, 1]]}) == metric_from_dict(self.METRIC)
        mlp = model_from_dict(self.MLP)
        assert model_from_dict(json.loads(json.dumps(mlp.to_dict()))) == mlp


NAN = float("nan")
# what each command computes, replaced by fixed values so each CSV file pins only how cells are spelled
FIXED_RESULTS = {
    "simulate": (synthetic, {"generate": lambda cfg: Dataset(
        feature_names=("x1", "x2"), features=[[0.1, -2.5], [1e-17, 3.0]], labels=[1, 0], protected={"group": [0, 1]}
    )}),
    "sweep": (sim, {"sweep_heatmap": lambda *a, **k: [
        sim.HeatmapCell(0.1, -4.0, 1e-17, NAN, False, True),
        sim.HeatmapCell(0.0, 0.4, -50.0, 1.2345678901234567, np.bool_(True), np.bool_(False)),
    ]}),
    "stopping-sweep": (sim, {"stopping_time_sweep": lambda *a, **k: [(0.0, 1.0), (0.1, np.float64(1e-17)), (2.0, NAN)]}),
    "robustness": (sim, {"robustness_experiment": lambda *a, **k: [(0.5, np.float64(0.1)), (0.1, 1e-17), (0.0, 0.0)]}),
    "calibrate": (sim, {
        "coverage_experiment": lambda *a, **k: (sim.CalibrationResult("coverage", 500, 1000, 0.95), 2.0),
        "rejection_rate_experiment": lambda *a, name, **k: {
            "type1": sim.CalibrationResult("type1", np.int64(20), np.int64(3), 1 / 3),
            "power": sim.CalibrationResult("power", 20, 3, 1.0),
        }[name],
    }),
    "audit": (inference, {"audit": lambda *a, **k: SimpleNamespace(
        index=np.array([0, 3, 7]), ratios=np.array([1.0, 0.1, 1e-17]), pre01=np.array([0, 1, 1]),
        post01=np.array([1, 1, 0]), reject=False, n=3, s_n=1.0, t_n=NAN, delta=1.25,
        to_json=lambda extra: "{}\n",
    )}),
}


DATA_KEYS = ["data", "label_column", "protected_columns"]
FILE_KEYS = ["model", "metric", *DATA_KEYS]


class TestCsvArtifacts:
    """The exact bytes of every CSV a command writes: strings as they are, floats
    (NaN and ``np.float64`` included) as ``repr``, bools and integers as integers."""

    @pytest.mark.parametrize(
        "command, keys, expected",
        [
            ("simulate", ["data_output"], "x1,x2,label,group\n0.1,-2.5,1,0\n1e-17,3.0,0,1\n"),
            (
                "sweep",
                [*DATA_KEYS, "output"],
                "theta1,theta2,fitted_bias,t_n,reject,divergent\n0.1,-4.0,1e-17,nan,0,1\n0.0,0.4,-50.0,1.2345678901234567,1,0\n",
            ),
            ("stopping-sweep", [*FILE_KEYS, "horizons", "output"], "horizon,t_n\n0.0,1.0\n0.1,1e-17\n2.0,nan\n"),
            ("robustness", [*FILE_KEYS, "scales", "output"], "scale,max_ratio_gap\n0.5,0.1\n0.1,1e-17\n0.0,0.0\n"),
            (
                "calibrate",
                ["output"],
                "experiment,n,replicates,rate\ncoverage,500,1000,0.95\ntype1,20,3,0.3333333333333333\npower,20,3,1.0\n",
            ),
            (
                "audit",
                [*FILE_KEYS, "report_output", "samples_output"],
                "index,ratio,pre01,post01\n0,1.0,0,1\n3,0.1,1,1\n7,1e-17,1,0\n",
            ),
        ],
        ids=["simulate", "sweep", "stopping-sweep", "robustness", "calibrate", "audit"],
    )
    def test_bytes(self, tmp_path, sim_csv, metric_file, monkeypatch, command, keys, expected):
        out = str(tmp_path / "out.csv")
        values = {
            "model": write_config(tmp_path, "model.json", TestModelAndMetricFileTypes.LOGISTIC),
            "metric": metric_file,
            "data": sim_csv,
            "label_column": "label",
            "protected_columns": ["group"],
            "horizons": [1.0],
            "scales": [0.5],
            "report_output": str(tmp_path / "report.json"),
            **dict.fromkeys(["data_output", "output", "samples_output"], out),
        }
        module, fixed = FIXED_RESULTS[command]
        for name, fake in fixed.items():
            monkeypatch.setattr(module, name, fake)
        cfg = write_config(tmp_path, "cfg.json", {key: values[key] for key in keys})
        assert cli.main([command, "--config", cfg]) == cli.EXIT_OK
        assert (tmp_path / "out.csv").read_bytes() == expected.encode()


GOLDEN_MODELS = {
    "logistic": (
        LogisticModel(weights=np.array([0.1, -2.5]), bias=1e-17),
        """{
  "architecture": "logistic",
  "bias": 1e-17,
  "projector": null,
  "weights": [
    0.1,
    -2.5
  ]
}
""",
    ),
    "logistic-projector": (
        LogisticModel(weights=np.array([1.0, 1 / 3]), bias=-4, projector=np.array([[1.0, 0.0], [0.0, 0.0]])),
        """{
  "architecture": "logistic",
  "bias": -4.0,
  "projector": [
    [
      1.0,
      0.0
    ],
    [
      0.0,
      0.0
    ]
  ],
  "weights": [
    1.0,
    0.3333333333333333
  ]
}
""",
    ),
    "mlp": (
        MlpModel(
            layer1_weights=np.array([[0.1, -2.5], [1e-17, 3.0]]),
            layer1_bias=np.array([0.0, -0.5]),
            layer2_weights=np.array([1 / 3, 2.0]),
            layer2_bias=0.25,
            activation="softplus",
        ),
        """{
  "activation": "softplus",
  "architecture": "mlp",
  "layer1_bias": [
    0.0,
    -0.5
  ],
  "layer1_weights": [
    [
      0.1,
      -2.5
    ],
    [
      1e-17,
      3.0
    ]
  ],
  "layer2_bias": 0.25,
  "layer2_weights": [
    0.3333333333333333,
    2.0
  ],
  "projector": null
}
""",
    ),
}

GOLDEN_METRIC = """{
  "dim": 2,
  "sigma": [
    [
      0.3333333333333333,
      0.0
    ],
    [
      0.0,
      1e-17
    ]
  ]
}
"""


class TestJsonArtifacts:
    """The exact bytes of the model, metric and trace files: JSON with sorted keys, a two-space
    indent and a final newline, and JSON lines with sorted keys, floats spelled as ``repr``."""

    @pytest.mark.parametrize("case", list(GOLDEN_MODELS))
    def test_model_bytes(self, tmp_path, case):
        model, expected = GOLDEN_MODELS[case]
        save_model(model, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == expected.encode()

    def test_metric_bytes(self, tmp_path):
        save_metric(FairMetric(sigma=np.array([[1 / 3, 0.0], [0.0, 1e-17]])), tmp_path / "metric.json")
        assert (tmp_path / "metric.json").read_bytes() == GOLDEN_METRIC.encode()

    def test_trace_bytes(self, tmp_path, sim_csv, metric_file, monkeypatch):
        # two kept samples (rows 0 and 3 of the four observed; rows 1 and 2 are dropped) over two states, whose
        # states, losses and penalties are fixed values so the file pins only its spelling
        states = np.full((2, 4, 2), np.nan)
        states[:, [0, 3]] = [[[0.1, -2.5], [1.0, 0.0]], [[1e-17, 3.0], [1 / 3, -0.0]]]
        losses = iter(np.array([[0.5, 2.0], [1.25, 1e-12]]))
        penalties = iter(np.array([[0.0, 0.0], [0.1, 1e-17]]))
        report = SimpleNamespace(
            index=np.array([0, 3]), reject=False, n=2, s_n=1.0, t_n=0.5, delta=1.25, to_json=lambda extra: "{}\n"
        )

        def observed_audit(*args, on_step, **kwargs):
            for k, x in enumerate(states):
                on_step(k, x, slice(0, 4))
            return report

        monkeypatch.setattr(inference, "audit", observed_audit)
        monkeypatch.setattr(LogisticModel, "loss", lambda self, x, y: next(losses))
        monkeypatch.setattr(FairMetric, "distance_sq", lambda self, x, x0: next(penalties))
        model = write_config(tmp_path, "model.json", TestModelAndMetricFileTypes.LOGISTIC)
        cfg = audit_config(
            tmp_path, model, metric_file, sim_csv, lam=1.0, num_steps=1, trace_output=str(tmp_path / "trace.jsonl")
        )
        assert cli.main(["audit", "--config", cfg]) == cli.EXIT_OK
        assert (tmp_path / "trace.jsonl").read_text() == (
            '{"loss": 0.5, "penalty": 0.0, "sample": 0, "step": 0, "x": [0.1, -2.5]}\n'
            '{"loss": 1.25, "penalty": 0.1, "sample": 0, "step": 1, "x": [1e-17, 3.0]}\n'
            '{"loss": 2.0, "penalty": 0.0, "sample": 3, "step": 0, "x": [1.0, 0.0]}\n'
            '{"loss": 1e-12, "penalty": 1e-17, "sample": 3, "step": 1, "x": [0.3333333333333333, -0.0]}\n'
        )


class TestBatchedTrace:
    def test_traced_audit_attacks_once(self, tmp_path, sim_csv, metric_file, monkeypatch):
        calls = []
        for module in (inference, attack):
            wrapped = module.unfair_map_batch
            monkeypatch.setattr(
                module, "unfair_map_batch", lambda *a, _fn=wrapped, **k: calls.append(a[3].shape) or _fn(*a, **k)
            )
        model_path = unfair_model_file(tmp_path, sim_csv)
        cfg = audit_config(tmp_path, model_path, metric_file, sim_csv, num_steps=20, trace_output=str(tmp_path / "t.jsonl"))
        assert cli.main(["audit", "--config", cfg]) in (0, 3)
        assert calls == [(200, 2)]
        assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 200 * 21

    def test_matches_per_sample_traces_and_samples_file(self, tmp_path, sim_csv, metric_file):
        from fairaudit.attack import sim_preset, unfair_map_batch
        from fairaudit.dataset import load_csv
        from test_attack import trace_of_one

        model_path = unfair_model_file(tmp_path, sim_csv)
        preset = sim_preset()
        cfg = audit_config(
            tmp_path,
            model_path,
            metric_file,
            sim_csv,
            lam=preset.lam,
            num_steps=preset.num_steps,
            schedule=preset.schedule,
            decay_c=preset.decay_c,
            decay_p=preset.decay_p,
            samples_output=str(tmp_path / "samples.csv"),
            trace_output=str(tmp_path / "trace.jsonl"),
        )
        assert cli.main(["audit", "--config", cfg]) in (0, 3)
        ds = load_csv(sim_csv, label_column="label", protected_columns=("group",))
        model, metric = load_model(model_path), load_metric(metric_file)
        steps = preset.num_steps + 1
        records = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
        assert len(records) == ds.n * steps
        assert [(r["sample"], r["step"]) for r in records] == [(i, k) for i in range(ds.n) for k in range(steps)]
        iterates = np.array([r["x"] for r in records]).reshape(ds.n, steps, 2)
        losses = np.array([r["loss"] for r in records]).reshape(ds.n, steps)
        penalties = np.array([r["penalty"] for r in records]).reshape(ds.n, steps)

        for i in range(0, ds.n, 20):
            trace = trace_of_one(model, metric, preset, ds.features[i], float(ds.labels[i]))
            np.testing.assert_array_equal(iterates[i], trace.iterates[:, 0])
            np.testing.assert_array_equal(losses[i], trace.losses[:, 0])
            np.testing.assert_array_equal(penalties[i], trace.penalties[:, 0])

        phi, _ = unfair_map_batch(model, metric, preset, ds.features, ds.labels.astype(float))
        np.testing.assert_array_equal(iterates[:, -1], phi)
        rows = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        ratios = np.array([float(row.split(",")[1]) for row in rows])
        np.testing.assert_array_equal(losses[:, -1] / losses[:, 0], ratios)


def trace_records(path, steps):
    """The samples of a JSONL trace, and its states, losses and penalties as ``(steps, samples, ...)`` arrays."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    samples = [r["sample"] for r in records[::steps]]
    assert [(r["sample"], r["step"]) for r in records] == [(i, k) for i in samples for k in range(steps)]

    def column(key):
        values = np.array([r[key] for r in records])
        return np.swapaxes(values.reshape(len(samples), steps, *values.shape[1:]), 0, 1)

    return samples, column("x"), column("loss"), column("penalty")


class TestStreamedTrace:
    """A traced audit spills its states to an unnamed file and writes the JSONL from it, with the bits of
    ``AttackTrace.record`` over the kept rows of one state of all rows."""

    # seven rows of 21 steps of 40 features, losses and penalties, so groups split the spill's blocks; with
    # chunks of 8 lines each sample's 21 lines are joined as 8, 8 and 5
    SMALL_GROUPS = 21 * 42 * 8 * 7

    @staticmethod
    def dense_files(tmp_path, n=300, dim=40, hidden=50):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(n, dim))
        y = (rng.random(n) < 0.5).astype(np.int64)
        dataset.write_csv(tmp_path / "dense.csv", [f"f{j}" for j in range(dim)] + ["label"],
                          [(*row.tolist(), label) for row, label in zip(x, y.tolist())])
        model = MlpModel(
            layer1_weights=rng.normal(scale=dim**-0.5, size=(hidden, dim)),
            layer1_bias=rng.normal(scale=0.1, size=hidden),
            layer2_weights=rng.normal(size=hidden),
            layer2_bias=0.2,
        )
        save_model(model, tmp_path / "mlp.json")
        sigma = np.eye(dim)
        sigma[0, 0] = sigma[1, 1] = 0.0
        save_metric(FairMetric(sigma=sigma), tmp_path / "projector.json")
        return str(tmp_path / "mlp.json"), str(tmp_path / "projector.json"), str(tmp_path / "dense.csv")

    @staticmethod
    def reference(model_path, metric_path, data, cfg, protected, skip_divergent):
        """``AttackTrace.record`` of the kept rows of one state of all rows, and those rows."""
        model, metric = load_model(model_path), load_metric(metric_path)
        ds = dataset.load_csv(data, label_column="label", protected_columns=protected)
        y = ds.labels.astype(float)
        states = np.empty((cfg.num_steps + 1, *ds.features.shape))
        _, divergent = attack.unfair_map_batch(
            model, metric, cfg, ds.features, y, skip_divergent=skip_divergent, on_step=states.__setitem__
        )
        kept = np.delete(np.arange(ds.n), divergent)
        return kept, AttackTrace.record(model, metric, cfg, states[:, kept], ds.features[kept], y[kept])

    @pytest.mark.parametrize(
        "group_bytes, chunk_lines", [(tracefile.GROUP_BYTES, tracefile.CHUNK_LINES), (SMALL_GROUPS, 8)],
        ids=["default-groups", "small-groups"],
    )
    def test_blocked_mlp_trace_equals_attack_trace_record_bitwise(self, tmp_path, monkeypatch, group_bytes, chunk_lines):
        monkeypatch.setattr(tracefile, "GROUP_BYTES", group_bytes)
        monkeypatch.setattr(tracefile, "CHUNK_LINES", chunk_lines)
        model, metric, data = self.dense_files(tmp_path)
        assert len(attack.row_blocks(300, 40)) == 2
        cfg = audit_config(tmp_path, model, metric, data, protected_columns=[], num_steps=20,
                           trace_output=str(tmp_path / "trace.jsonl"))
        assert cli.main(["audit", "--config", cfg]) in (cli.EXIT_OK, cli.EXIT_REJECT)
        kept, trace = self.reference(model, metric, data, AttackConfig(lam=50.0, num_steps=20), [], False)
        samples, states, losses, penalties = trace_records(tmp_path / "trace.jsonl", 21)
        assert samples == kept.tolist() == list(range(300))
        np.testing.assert_array_equal(states, trace.iterates)
        np.testing.assert_array_equal(losses, trace.losses)
        np.testing.assert_array_equal(penalties, trace.penalties)

    @pytest.mark.parametrize(
        "group_bytes, chunk_lines", [(tracefile.GROUP_BYTES, tracefile.CHUNK_LINES), (21 * 4 * 8 * 7, 8)],
        ids=["default-groups", "small-groups"],
    )
    def test_trace_without_the_dropped_rows_equals_attack_trace_record_bitwise(
        self, tmp_path, monkeypatch, group_bytes, chunk_lines
    ):
        monkeypatch.setattr(tracefile, "GROUP_BYTES", group_bytes)
        monkeypatch.setattr(tracefile, "CHUNK_LINES", chunk_lines)
        cfg = TestAuditCommand.divergent_audit_config(
            tmp_path, skip_divergent=True, error_rate=False, trace_output=str(tmp_path / "trace.jsonl")
        )
        assert cli.main(["audit", "--config", cfg]) in (cli.EXIT_OK, cli.EXIT_REJECT)
        kept, trace = self.reference(
            str(tmp_path / "model.json"), str(tmp_path / "identity.json"), str(tmp_path / "data.csv"),
            AttackConfig(lam=1.0, num_steps=20, eta=1.5), ["group"], True,
        )
        samples, states, losses, penalties = trace_records(tmp_path / "trace.jsonl", 21)
        assert len(kept) == 52 and samples == kept.tolist()
        np.testing.assert_array_equal(states, trace.iterates)
        np.testing.assert_array_equal(losses, trace.losses)
        np.testing.assert_array_equal(penalties, trace.penalties)

    @pytest.mark.parametrize("case", ["success", "divergence", "non-finite"])
    def test_no_spill_or_part_file_stays(self, tmp_path, monkeypatch, capsys, case):
        out = tmp_path / "out"
        out.mkdir()
        spills, make = [], tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda **k: spills.append((k, make(**k))) or spills[-1][1])
        cfg = TestAuditCommand.divergent_audit_config(
            tmp_path, skip_divergent=case != "divergence", error_rate=False, trace_output=str(out / "trace.jsonl"),
            report_output=str(out / "report.json"),
        )
        if case == "non-finite":
            # the last kept row's penalties overflow, so the JSONL fails after earlier groups were written
            monkeypatch.setattr(tracefile, "GROUP_BYTES", 21 * 4 * 8 * 7)
            distance_sq = FairMetric.distance_sq
            monkeypatch.setattr(
                FairMetric, "distance_sq", lambda self, x, x0: np.append(distance_sq(self, x, x0)[:-1], np.inf)
            )
        capsys.readouterr()
        code = cli.main(["audit", "--config", cfg])
        assert [(k["dir"], f.closed) for k, f in spills] == [(str(out), True)]
        if case == "success":
            assert code in (cli.EXIT_OK, cli.EXIT_REJECT)
            assert sorted(os.listdir(out)) == ["report.json", "trace.jsonl"]
        elif case == "divergence":
            assert code == cli.EXIT_ERROR
            assert capsys.readouterr().err == "fairaudit audit: error: attack diverged at step 20 on sample 4\n"
            assert os.listdir(out) == []
        else:
            assert code == cli.EXIT_ERROR
            assert capsys.readouterr().err == "fairaudit audit: error: audit: trace holds non-finite values\n"
            assert os.listdir(out) == ["report.json"]


# the names an outside tracer wraps on ``cli`` before calling ``cli.main``, by owning module
TRACED_ON_CLI = {
    dataset: ["atomic_write_text", "load_csv", "save_csv", "split_csv"],
    fair_metric: ["learn_sensitive_metric", "load_metric", "save_metric"],
    models: ["load_model", "save_model", "train"],
    attack: ["unfair_map"],
}


def test_names_traced_on_cli_are_their_owners_and_wrappers_set_there_run(tmp_path, sim_csv, metric_file, monkeypatch):
    for module, names in TRACED_ON_CLI.items():
        for name in names:
            assert getattr(cli, name) is getattr(module, name), name
    calls = []
    for name in ("load_model", "train", "learn_sensitive_metric"):
        wrapped = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _fn=wrapped, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    data = {"data": sim_csv, "label_column": "label", "protected_columns": ["group"], "num_steps": 5}
    train = write_config(tmp_path, "train.json", {**data, "model_output": str(tmp_path / "model.json")})
    metric = write_config(tmp_path, "learn.json", {**data, "metric_output": str(tmp_path / "learned.json")})
    assert cli.main(["train", "--config", train]) == cli.EXIT_OK
    assert cli.main(["metric", "--config", metric]) == cli.EXIT_OK
    audit = audit_config(tmp_path, str(tmp_path / "model.json"), metric_file, sim_csv, num_steps=5)
    assert cli.main(["audit", "--config", audit]) in (cli.EXIT_OK, cli.EXIT_REJECT)
    assert calls == ["train", "learn_sensitive_metric", "load_model"]
    with pytest.raises(AttributeError, match="'no_such_name'"):
        cli.no_such_name
