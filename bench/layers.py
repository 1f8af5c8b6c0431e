"""Per-layer numbers from the span files that ``traced_cli.py`` writes.

A layer is a module of the package; a span or aggregate belongs to the
layer named before the first dot (``attack.unfair_map_batch`` -> attack).
A span's self time is its duration minus its child spans and minus the
outermost per-step calls made directly under it.
"""

from __future__ import annotations

import json
from collections import defaultdict

ATTACK_SPANS = ("attack.unfair_map", "attack.unfair_map_batch")

# aggregate row: name, parent span, calls, total_s, outermost_in_group_s, outermost_s, rows
NAME, PARENT, CALLS, TOTAL, OUTER_GROUP, OUTERMOST, ROWS = range(7)


def load(paths) -> tuple[list[dict], list[list]]:
    """Spans and aggregates of several commands, with span ids made unique across them."""
    spans, aggregates = [], []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        base = len(spans)
        for s in doc["spans"]:
            spans.append({**s, "id": s["id"] + base, "parent": None if s["parent"] is None else s["parent"] + base})
        for a in doc["aggregates"]:
            aggregates.append([a[NAME], None if a[PARENT] is None else a[PARENT] + base, *a[CALLS:]])
    return spans, aggregates


def _self_times(spans, aggregates) -> dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    for a in aggregates:
        if a[PARENT] is not None:
            own[a[PARENT]] -= a[OUTERMOST]
    return own


def table(spans, aggregates) -> dict[str, dict]:
    """Calls, total time and self time per span name; calls, time and rows per aggregate name."""
    own = _self_times(spans, aggregates)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0})
    for s in spans:
        row = out[s["name"]]
        row["calls"] += 1
        row["s"] += s["end"] - s["start"]
        row["self_s"] = row.get("self_s", 0.0) + own[s["id"]]
    for a in aggregates:
        row = out[a[NAME]]
        row["calls"] += a[CALLS]
        row["s"] += a[TOTAL]
        row["rows"] = row.get("rows", 0) + a[ROWS]
    return dict(out)


def metrics(spans, aggregates) -> dict[str, float]:
    """The per-layer metrics the benchmark reports from a traced repetition."""
    t = table(spans, aggregates)
    get = lambda name, key: t.get(name, {}).get(key, 0)  # noqa: E731
    by_id = {s["id"]: s for s in spans}
    attack_ids = {s["id"] for s in spans if s["name"] in ATTACK_SPANS}
    attack_s = sum(s["end"] - s["start"] for s in spans if s["id"] in attack_ids)
    callee_s = sum(a[TOTAL] for a in aggregates
                   if a[PARENT] in attack_ids and a[NAME].split(".")[0] in ("models", "fair_metric"))
    row_steps = get("attack.flow_field", "rows")
    own = _self_times(spans, aggregates)

    def outer_s(layer: str) -> float:
        """Time in a layer's spans that are not nested in another span of the same layer."""
        total = 0.0
        for s in spans:
            parent = by_id.get(s["parent"])
            if s["name"].split(".")[0] == layer and (parent is None or parent["name"].split(".")[0] != layer):
                total += s["end"] - s["start"]
        return total

    return {
        "cli.self_s": sum(own[s["id"]] for s in spans if s["name"].startswith("cli.")),
        "cli.run_audit.self_s": get("cli.run_audit", "self_s"),
        "dataset.load_csv.s": get("dataset.load_csv", "s"),
        "dataset.load_csv.calls": get("dataset.load_csv", "calls"),
        "dataset.load_csv.rows": sum(s.get("rows", 0) for s in spans if s["name"] == "dataset.load_csv"),
        "dataset.atomic_write_text.s": get("dataset.atomic_write_text", "s"),
        "fair_metric.distance_sq_gradient.s": get("fair_metric.distance_sq_gradient", "s"),
        "fair_metric.distance_sq_gradient.calls": get("fair_metric.distance_sq_gradient", "calls"),
        "fair_metric.distance_sq_gradient.rows": get("fair_metric.distance_sq_gradient", "rows"),
        "fair_metric.distance_sq.calls": get("fair_metric.distance_sq", "calls"),
        "fair_metric.learn_sensitive_metric.calls": get("fair_metric.learn_sensitive_metric", "calls"),
        "models.input_gradient.s": get("models.input_gradient", "s"),
        "models.input_gradient.calls": get("models.input_gradient", "calls"),
        "models.input_gradient.rows": get("models.input_gradient", "rows"),
        "models.loss.calls": get("models.loss", "calls"),
        "models.train.calls": get("models.train", "calls"),
        "attack.unfair_map_batch.s": get("attack.unfair_map_batch", "s"),
        "attack.unfair_map_batch.calls": get("attack.unfair_map_batch", "calls"),
        "attack.unfair_map.calls": get("attack.unfair_map", "calls"),
        "attack.flow_field.calls": get("attack.flow_field", "calls"),
        "attack.kernel_self_s": attack_s - callee_s,
        "attack.row_steps": row_steps,
        "attack.ns_per_row_step": attack_s / row_steps * 1e9 if row_steps else 0.0,
        "attack.divergent": sum(s.get("divergent", 0) + (s.get("error") == "DivergenceError")
                                for s in spans if s["id"] in attack_ids),
        "inference.fold_s": sum(a[OUTER_GROUP] for a in aggregates if a[NAME].startswith("inference.")),
        "inference.audit.s": get("inference.audit", "s"),
        "inference.audit.self_s": get("inference.audit", "self_s"),
        "inference.audit.calls": get("inference.audit", "calls"),
        "inference.loss_ratio_stats.calls": get("inference.loss_ratio_stats", "calls"),
        "inference.error_rate_stats.calls": get("inference.error_rate_stats", "calls"),
        "inference.normal_quantile.calls": get("inference.normal_quantile", "calls"),
        "sim.s": outer_s("sim"),
        "sim.fit_bias.calls": get("sim.fit_bias", "calls"),
    }
