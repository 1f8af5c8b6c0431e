"""Independent checker for every output the benchmark's CLI commands write.

Nothing here imports ``fairaudit``: the attack is recomputed by a plain
numpy forward-Euler loop written from the paper's update rule

    x_k = x_{k-1} + eta_k * ( grad_x loss(f(x_{k-1}), y) - 2 lam Sigma (x_{k-1} - x_0) ),

working only from the saved model, metric and data files, and the test
statistics are recomputed with ``scipy.stats.norm``.  A check returns a
list of problems per operation; an operation with any problem counts as
failed in the benchmark's ``failed`` count.

Numbers are compared at relative tolerance 1e-9, with an absolute floor of
1e-9 for values below 1 in magnitude.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.special import expit
from scipy.stats import norm

RTOL = 1e-9
P_FLOOR = 1e-12
LOSS_FLOOR = -math.log1p(-P_FLOOR)
LOSS_CAP = -math.log(P_FLOOR)
SUBSAMPLE = 32
SWEEP_CELLS_CHECKED = 4
FIT_BIAS_TOL = 1e-8
MIN_TRAIN_ACCURACY = 0.7
OUTPUT_KEYS = ("train_output", "audit_output", "metric_output", "model_output", "report_output",
               "samples_output", "trace_output", "data_output", "output")


class Problems:
    """Problems found so far, keyed by the operation they are charged to."""

    def __init__(self):
        self.by_op: dict[str, list[str]] = {}

    def add(self, op: str, message: str) -> None:
        self.by_op.setdefault(op, []).append(message)

    def expect(self, op: str, ok: bool, message: str) -> bool:
        if not ok:
            self.add(op, message)
        return ok

    def close(self, op: str, what: str, got, want) -> bool:
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            self.add(op, f"{what}: shape {got.shape} != {want.shape}")
            return False
        bad = ~(np.abs(got - want) <= RTOL * np.maximum(np.abs(want), 1.0))
        if np.any(bad):
            i = int(np.flatnonzero(bad.ravel())[0])
            self.add(op, f"{what}: {float(got.ravel()[i])!r} != reference {float(want.ravel()[i])!r}")
            return False
        return True


# ---------------------------------------------------------------- file readers


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_dataset(path, label: str, protected):
    """Features, labels and protected columns, split the way the CLI documents it."""
    header, rows = read_csv(path)
    table = np.array([[float(c) for c in row] for row in rows], dtype=np.float64)
    feature_cols = [j for j, h in enumerate(header) if h != label and h not in protected]
    return table[:, feature_cols], table[:, header.index(label)], {p: table[:, header.index(p)] for p in protected}


def read_samples(path):
    header, rows = read_csv(path)
    if header != ["index", "ratio", "pre01", "post01"]:
        raise ValueError(f"unexpected samples header {header}")
    return (np.array([int(r[0]) for r in rows]), np.array([float(r[1]) for r in rows]),
            np.array([int(r[2]) for r in rows]), np.array([int(r[3]) for r in rows]))


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- reference model and attack


class RefModel:
    """Logit z(x) and its input gradient for the two saved architectures."""

    def __init__(self, doc: dict):
        if doc.get("projector") is not None:
            raise ValueError("reference model does not cover projected inputs")
        self.kind = doc["architecture"]
        if self.kind == "logistic":
            self.w = np.asarray(doc["weights"], dtype=np.float64)
            self.b = float(doc["bias"])
        elif self.kind == "mlp":
            if doc["activation"] != "tanh":
                raise ValueError("reference model covers the tanh MLP only")
            self.w1 = np.asarray(doc["layer1_weights"], dtype=np.float64)
            self.b1 = np.asarray(doc["layer1_bias"], dtype=np.float64)
            self.w2 = np.asarray(doc["layer2_weights"], dtype=np.float64)
            self.b2 = float(doc["layer2_bias"])
        else:
            raise ValueError(f"unknown architecture {self.kind!r}")

    def logit(self, x):
        if self.kind == "logistic":
            return x @ self.w + self.b
        return np.tanh(x @ self.w1.T + self.b1) @ self.w2 + self.b2

    def logit_gradient(self, x):
        if self.kind == "logistic":
            return np.broadcast_to(self.w, x.shape)
        h = np.tanh(x @ self.w1.T + self.b1)
        return ((1.0 - h * h) * self.w2) @ self.w1


def ref_loss(z, y):
    """Cross-entropy of logit z, probability clamped to [1e-12, 1 - 1e-12]."""
    return np.clip(np.logaddexp(0.0, (1.0 - 2.0 * y) * z), LOSS_FLOOR, LOSS_CAP)


def step_sizes(cfg: dict) -> np.ndarray:
    n = int(cfg["num_steps"])
    if cfg["schedule"] == "constant":
        return np.full(n, float(cfg["eta"]))
    t = np.arange(1, n + 1, dtype=np.float64)
    return float(cfg["decay_c"]) / t ** float(cfg["decay_p"])


def ref_attack(model: RefModel, sigma, lam: float, steps, x0, y):
    """End points of forward Euler on the penalized ascent field, one row per start point."""
    x = x0.copy()
    for eta in steps:
        grad_loss = (expit(model.logit(x)) - y)[:, None] * model.logit_gradient(x)
        x = x + eta * (grad_loss - lam * 2.0 * (x - x0) @ sigma)
    return x


def ref_t_n(ratios, alpha: float) -> float:
    n = ratios.shape[0]
    return float(np.mean(ratios) - norm.ppf(1.0 - alpha) * np.std(ratios, ddof=1) / math.sqrt(n))


def error_flags(model: RefModel, x, y):
    """0-1 loss with predictions thresholded at probability 0.5 (ties predict 1)."""
    return ((model.logit(x) >= 0.0).astype(np.int64) != y.astype(np.int64)).astype(np.int64)


# ---------------------------------------------------------------- per-command checks


def _path(workdir, name):
    return os.path.join(workdir, name)


def check_exit(problems: Problems, op: str, code: int, allowed=(0,)) -> bool:
    return problems.expect(op, code in allowed, f"exit code {code}, expected one of {list(allowed)}")


def check_audit(problems: Problems, op: str, cfg: dict, workdir: str, code: int, seed: int) -> dict | None:
    """Report, samples and verdict of one audit against the reference attack and statistics."""
    if not check_exit(problems, op, code, (0, 3)):
        return None
    try:
        report = load_json(_path(workdir, cfg["report_output"]))
        index, ratios, pre01, post01 = read_samples(_path(workdir, cfg["samples_output"]))
        model = RefModel(load_json(_path(workdir, cfg["model"])))
        sigma = np.asarray(load_json(_path(workdir, cfg["metric"]))["sigma"], dtype=np.float64)
        x, y, _ = read_dataset(_path(workdir, cfg["data"]), cfg["label_column"], cfg["protected_columns"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.add(op, f"unreadable output: {exc}")
        return None
    n = x.shape[0]
    alpha, delta = float(cfg["alpha"]), float(cfg["delta"])
    ok = problems.expect(op, report.get("n") == n and index.tolist() == list(range(n)),
                         f"report covers {report.get('n')} samples, data has {n}")
    ok &= problems.expect(op, report.get("divergent") == [], f"divergent samples {report.get('divergent')}")
    if not ok:
        return report

    s_n, v_n = float(np.mean(ratios)), float(np.std(ratios, ddof=1))
    half1 = norm.ppf(1.0 - alpha) * v_n / math.sqrt(n)
    half2 = norm.ppf(1.0 - alpha / 2.0) * v_n / math.sqrt(n)
    for key, want in (("s_n", s_n), ("v_n", v_n), ("t_n", s_n - half1), ("ci_one_sided_lo", s_n - half1),
                      ("ci_lo", s_n - half2), ("ci_hi", s_n + half2)):
        problems.close(op, f"report {key}", report.get(key, math.nan), want)
    reject = bool(s_n - half1 > delta)
    problems.expect(op, report.get("reject") is reject, f"report reject={report.get('reject')}, statistics give {reject}")
    problems.expect(op, (code == 3) is reject, f"exit code {code} disagrees with verdict reject={reject}")
    problems.expect(op, float(np.min(ratios)) >= 1.0 - 1e-9, f"minimum ratio {float(np.min(ratios))!r} below 1")

    er = report.get("error_rate")
    if problems.expect(op, isinstance(er, dict), "error_rate block missing"):
        a_n, b_n = float(np.mean(post01)), float(np.mean(pre01))
        cov = np.cov(np.vstack([post01, pre01]).astype(np.float64), bias=True)
        var = (b_n**2 * cov[0, 0] - 2.0 * a_n * b_n * cov[0, 1] + a_n**2 * cov[1, 1]) / (n * b_n**4)
        t_tilde = a_n / b_n - norm.ppf(1.0 - alpha) * math.sqrt(var)
        for key, want in (("a_n", a_n), ("b_n", b_n), ("s_tilde", a_n / b_n), ("t_tilde", t_tilde)):
            problems.close(op, f"error_rate {key}", er.get(key, math.nan), want)
        problems.expect(op, er.get("reject") is bool(t_tilde > delta), "error_rate verdict disagrees with t_tilde")

    rows = np.sort(np.random.default_rng([seed, n]).choice(n, size=min(SUBSAMPLE, n), replace=False))
    phi = ref_attack(model, sigma, float(cfg["lam"]), step_sizes(cfg), x[rows], y[rows])
    ref_ratio = ref_loss(model.logit(phi), y[rows]) / ref_loss(model.logit(x[rows]), y[rows])
    problems.close(op, "sample ratio", ratios[rows], ref_ratio)
    problems.expect(op, np.array_equal(pre01[rows], error_flags(model, x[rows], y[rows])), "pre01 disagrees")
    problems.expect(op, np.array_equal(post01[rows], error_flags(model, phi, y[rows])), "post01 disagrees")
    return report


def check_trace(problems: Problems, op: str, cfg: dict, workdir: str) -> None:
    """Trace lines: count, per-sample ordering, the Euler end point, and the ascended objective."""
    model = RefModel(load_json(_path(workdir, cfg["model"])))
    sigma = np.asarray(load_json(_path(workdir, cfg["metric"]))["sigma"], dtype=np.float64)
    x, y, _ = read_dataset(_path(workdir, cfg["data"]), cfg["label_column"], cfg["protected_columns"])
    _, ratios, _, _ = read_samples(_path(workdir, cfg["samples_output"]))
    n, steps = x.shape[0], int(cfg["num_steps"])
    with open(_path(workdir, cfg["trace_output"]), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not problems.expect(op, len(lines) == n * (steps + 1), f"trace has {len(lines)} lines, expected {n * (steps + 1)}"):
        return
    try:
        recs = [json.loads(line) for line in lines]
        sample = np.array([r["sample"] for r in recs]).reshape(n, steps + 1)
        step = np.array([r["step"] for r in recs]).reshape(n, steps + 1)
        iterates = np.array([r["x"] for r in recs], dtype=np.float64).reshape(n, steps + 1, -1)
        objective = np.array([r["loss"] - r["penalty"] for r in recs]).reshape(n, steps + 1)
        loss = np.array([r["loss"] for r in recs]).reshape(n, steps + 1)
    except (ValueError, KeyError, TypeError) as exc:
        problems.add(op, f"malformed trace record: {exc}")
        return
    ordered = np.array_equal(sample, np.repeat(np.arange(n), steps + 1).reshape(n, steps + 1))
    ordered &= np.array_equal(step, np.tile(np.arange(steps + 1), (n, 1)))
    if not problems.expect(op, ordered, "trace records are not ordered by sample, then step"):
        return
    problems.close(op, "trace start point", iterates[:, 0], x)
    phi = ref_attack(model, sigma, float(cfg["lam"]), step_sizes(cfg), x, y)
    problems.close(op, "trace end point", iterates[:, -1], phi)
    problems.close(op, "trace loss ratio", loss[:, -1] / loss[:, 0], ratios)
    drop = float(np.max(objective[:, :-1] - objective[:, 1:]))
    problems.expect(op, drop <= 1e-9, f"loss - penalty decreased by {drop!r} in one step")


def check_sweep(problems: Problems, op: str, cfg: dict, workdir: str, seed: int) -> None:
    """Grid layout, verdicts, and for a few cells the fitted intercept and t_n."""
    header, rows = read_csv(_path(workdir, cfg["output"]))
    if not problems.expect(op, header == ["theta1", "theta2", "fitted_bias", "t_n", "reject", "divergent"],
                           f"unexpected heatmap header {header}"):
        return
    w1 = grid_values(cfg["w1_min"], cfg["w1_max"], cfg["w1_step"])
    w2 = grid_values(cfg["w2_min"], cfg["w2_max"], cfg["w2_step"])
    if not problems.expect(op, len(rows) == len(w1) * len(w2), f"heatmap has {len(rows)} rows, expected {len(w1) * len(w2)}"):
        return
    table = np.array([[float(c) for c in r] for r in rows])
    problems.close(op, "grid theta1", table[:, 0], np.repeat(w1, len(w2)))
    problems.close(op, "grid theta2", table[:, 1], np.tile(w2, len(w1)))
    problems.expect(op, not np.any(table[:, 5]), f"{int(np.sum(table[:, 5]))} cells marked divergent")
    problems.expect(op, np.array_equal(table[:, 4] == 1.0, table[:, 3] > float(cfg["delta"])),
                    "a cell's reject flag disagrees with t_n > delta")

    x, y, _ = read_dataset(_path(workdir, cfg["data"]), cfg["label_column"], cfg["protected_columns"])
    beta = math.radians(float(cfg["beta_degrees"]))
    v = np.array([-math.sin(beta), math.cos(beta)])
    sigma = np.outer(v, v)
    cells = np.random.default_rng([seed, len(rows)]).choice(len(rows), size=SWEEP_CELLS_CHECKED, replace=False)
    for c in sorted(int(c) for c in cells):
        t1, t2, b, t_n = table[c, :4]
        grad = float(np.sum(expit(b + x @ np.array([t1, t2])) - y))
        problems.expect(op, abs(grad) <= FIT_BIAS_TOL, f"cell {c}: fitted_bias leaves summed gradient {grad!r}")
        model = RefModel({"architecture": "logistic", "weights": [t1, t2], "bias": b})
        phi = ref_attack(model, sigma, float(cfg["lam"]), step_sizes(cfg), x, y)
        ratios = ref_loss(model.logit(phi), y) / ref_loss(model.logit(x), y)
        problems.close(op, f"cell {c} t_n", t_n, ref_t_n(ratios, float(cfg["alpha"])))


def grid_values(lo, hi, step) -> np.ndarray:
    count = int(round((float(hi) - float(lo)) / float(step))) + 1
    return np.array([round(float(lo) + k * float(step), 9) for k in range(count)])


def check_stopping(problems: Problems, op: str, cfg: dict, workdir: str, audit_t_n: float | None) -> None:
    """Realized horizons, and the 5.0 horizon against the logistic audit (the same 500-step attack)."""
    header, rows = read_csv(_path(workdir, cfg["output"]))
    if not problems.expect(op, header == ["horizon", "t_n"] and len(rows) == len(cfg["horizons"]),
                           f"stopping output has header {header} and {len(rows)} rows"):
        return
    table = np.array([[float(c) for c in r] for r in rows])
    problems.close(op, "realized horizons", table[:, 0], cfg["horizons"])
    if audit_t_n is not None and 5.0 in cfg["horizons"]:
        problems.close(op, "t_n at horizon 5", table[cfg["horizons"].index(5.0), 1], audit_t_n)


def check_simulate(problems: Problems, op: str, cfg: dict, workdir: str) -> None:
    header, rows = read_csv(_path(workdir, cfg["data_output"]))
    problems.expect(op, header == ["x1", "x2", "label", "group"], f"unexpected header {header}")
    problems.expect(op, len(rows) == int(cfg["n_samples"]), f"{len(rows)} rows, expected {cfg['n_samples']}")
    labels = {r[2] for r in rows}
    problems.expect(op, labels == {"0", "1"}, f"labels {sorted(labels)}, expected both 0 and 1")


def check_split(problems: Problems, op: str, cfg: dict, workdir: str) -> None:
    """The two outputs partition the input's data rows, verbatim, in the requested proportion."""
    with open(_path(workdir, cfg["input"]), encoding="utf-8") as fh:
        src = fh.read().splitlines()
    parts = []
    for key in ("train_output", "audit_output"):
        with open(_path(workdir, cfg[key]), encoding="utf-8") as fh:
            parts.append(fh.read().splitlines())
    problems.expect(op, all(p[0] == src[0] for p in parts), "split outputs changed the header")
    problems.expect(op, sorted(parts[0][1:] + parts[1][1:]) == sorted(src[1:]), "split outputs do not partition the input rows")
    want = int(round(float(cfg["train_fraction"]) * (len(src) - 1)))
    problems.expect(op, len(parts[0]) - 1 == want, f"{len(parts[0]) - 1} training rows, expected {want}")


def check_metric(problems: Problems, op: str, cfg: dict, workdir: str, dim: int) -> None:
    """A learned metric is a symmetric projector removing one direction per protected column."""
    sigma = np.asarray(load_json(_path(workdir, cfg["metric_output"]))["sigma"], dtype=np.float64)
    if not problems.expect(op, sigma.shape == (dim, dim), f"metric shape {sigma.shape}, expected {(dim, dim)}"):
        return
    problems.expect(op, float(np.max(np.abs(sigma - sigma.T))) <= 1e-10, "metric is not symmetric")
    problems.expect(op, float(np.max(np.abs(sigma @ sigma - sigma))) <= 1e-10, "learned metric is not a projector")
    rank = dim - len(cfg["protected_columns"])
    problems.expect(op, abs(float(np.trace(sigma)) - rank) <= 1e-8, f"projector trace {np.trace(sigma)!r}, expected {rank}")


def check_train(problems: Problems, op: str, cfg: dict, workdir: str) -> None:
    """Saved parameters load into the reference model and classify the training split well."""
    try:
        model = RefModel(load_json(_path(workdir, cfg["model_output"])))
    except (OSError, ValueError, KeyError) as exc:
        problems.add(op, f"unreadable model: {exc}")
        return
    x, y, _ = read_dataset(_path(workdir, cfg["data"]), cfg["label_column"], cfg["protected_columns"])
    z = model.logit(x)
    if not problems.expect(op, bool(np.all(np.isfinite(z))), "model gives non-finite logits"):
        return
    acc = float(np.mean(error_flags(model, x, y) == 0))
    problems.expect(op, acc >= MIN_TRAIN_ACCURACY, f"training accuracy {acc:.3f} below {MIN_TRAIN_ACCURACY}")


def check_workload(workload, workdir: str, exit_codes: dict[str, int], seed: int) -> dict[str, list[str]]:
    """Check every command of one repetition; returns the problems charged to each operation."""
    problems = Problems()
    audit_t_n = None
    for op in workload.ops:
        code = exit_codes.get(op.name)
        if code is None:
            problems.add(op.name, "not run")
            continue
        cfg = op.config
        try:
            if op.command == "audit":
                report = check_audit(problems, op.name, cfg, workdir, code, seed)
                if report is not None and op.name == "audit-logistic":
                    audit_t_n = report.get("t_n")
                if cfg.get("trace_output") and op.name not in problems.by_op:
                    check_trace(problems, op.name, cfg, workdir)
                continue
            if not check_exit(problems, op.name, code):
                continue
            if op.command == "split":
                check_split(problems, op.name, cfg, workdir)
            elif op.command == "metric":
                check_metric(problems, op.name, cfg, workdir, workload.sizes["dim"])
            elif op.command == "train":
                check_train(problems, op.name, cfg, workdir)
            elif op.command == "simulate":
                check_simulate(problems, op.name, cfg, workdir)
            elif op.command == "sweep":
                check_sweep(problems, op.name, cfg, workdir, seed)
            elif op.command == "stopping-sweep":
                check_stopping(problems, op.name, cfg, workdir, audit_t_n)
            else:
                problems.add(op.name, f"no check for command {op.command!r}")
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.add(op.name, f"unreadable output: {type(exc).__name__}: {exc}")
    return problems.by_op


def output_paths(workload, workdir: str) -> list[str]:
    """Every file the workload's commands are configured to write."""
    return [_path(workdir, op.config[k]) for op in workload.ops for k in OUTPUT_KEYS if op.config.get(k)]
