"""Run one ``fairaudit`` CLI command with per-layer tracing from outside the program.

    PYTHONPATH=src python bench/traced_cli.py SPANS_OUT OP_NAME COMMAND --config PATH

Before calling ``cli.main`` this wraps the public functions of each module
at the binding where it is looked up (``cli`` imports ``load_csv``,
``atomic_write_text``, ``unfair_map`` and others by name; ``inference`` and
``sim`` import ``unfair_map_batch`` by name; model and metric methods are
looked up on their classes).  Two kinds of record are kept in memory and
written to SPANS_OUT as JSON when the command returns:

- spans, for outer calls: name, start, end, parent span, operation name and
  a few attributes (rows loaded, characters written, divergent samples);
- aggregates, for the per-step calls (``flow_field``, model gradients and
  losses, metric distances, the statistics folds): call count, total time,
  rows processed, keyed by function and enclosing span.  A ``sim-trace``
  run makes about a million such calls, which as spans would cost more
  than the work they time.

The wrappers keep one call stack per process, which is exact for the
single-threaded audits the benchmark runs.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from fairaudit import attack, cli, dataset, fair_metric, inference, models, sim


class Tracer:
    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.stack: list[int] = []
        # (name, enclosing span) -> [calls, total_s, outermost_in_group_s, outermost_s, rows]
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self.active: dict[str, int] = {}
        self.hot_depth = 0

    def span(self, name: str, fn, attrs=None):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            record = {"id": sid, "name": name, "parent": self.stack[-1] if self.stack else None, "op": self.op}
            self.spans.append(record)
            self.stack.append(sid)
            record["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record["error"] = type(exc).__name__
                raise
            finally:
                record["end"] = perf_counter()
                self.stack.pop()
            if attrs is not None:
                record.update(attrs(args, result))
            return result

        return wrapper

    def aggregate(self, name: str, group: str, fn, rows_arg: int | None = None):
        def wrapper(*args, **kwargs):
            outer_in_group = not self.active.get(group)
            outermost = self.hot_depth == 0
            self.active[group] = self.active.get(group, 0) + 1
            self.hot_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.hot_depth -= 1
                self.active[group] -= 1
                key = (name, self.stack[-1] if self.stack else None)
                acc = self.aggregates.get(key)
                if acc is None:
                    acc = self.aggregates[key] = [0, 0.0, 0.0, 0.0, 0]
                acc[0] += 1
                acc[1] += elapsed
                if outer_in_group:
                    acc[2] += elapsed
                if outermost:
                    acc[3] += elapsed
                if rows_arg is not None:
                    x = args[rows_arg]
                    acc[4] += x.shape[0] if getattr(x, "ndim", 1) == 2 else 1

        return wrapper

    def dump(self, path: str) -> None:
        doc = {
            "op": self.op,
            "spans": self.spans,
            "aggregates": [[name, parent, *acc] for (name, parent), acc in self.aggregates.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced binding in place."""

    def span(module, attr, name, attrs=None):
        setattr(module, attr, tracer.span(name, getattr(module, attr), attrs))

    rows = lambda args, result: {"rows": int(result.n)}  # noqa: E731
    written = lambda args, result: {"chars": len(args[1])}  # noqa: E731
    divergent = lambda args, result: {"divergent": len(result[1])}  # noqa: E731

    for cmd, runner in list(cli._RUNNERS.items()):
        cli._RUNNERS[cmd] = tracer.span(f"cli.{runner.__name__}", runner)
    span(cli, "main", "cli.main")
    for module in (cli, dataset):
        span(module, "load_csv", "dataset.load_csv", rows)
        span(module, "atomic_write_text", "dataset.atomic_write_text", written)
    span(cli, "split_csv", "dataset.split_csv")
    span(cli, "save_csv", "dataset.save_csv")
    span(cli, "learn_sensitive_metric", "fair_metric.learn_sensitive_metric")
    span(cli, "load_metric", "fair_metric.load_metric")
    span(cli, "save_metric", "fair_metric.save_metric")
    for module in (cli, models):
        span(module, "train", "models.train")
    span(cli, "load_model", "models.load_model")
    span(cli, "save_model", "models.save_model")
    span(cli, "unfair_map", "attack.unfair_map")
    for module in (inference, sim):
        span(module, "unfair_map_batch", "attack.unfair_map_batch", divergent)
    span(inference, "audit", "inference.audit")
    for fn in ("generate", "fit_bias", "sweep_heatmap", "stopping_time_sweep"):
        span(sim, fn, f"sim.{fn}")

    attack.flow_field = tracer.aggregate("attack.flow_field", "attack", attack.flow_field, rows_arg=3)
    for cls in (models.LogisticModel, models.MlpModel):
        for method in ("input_gradient", "loss", "predict_proba"):
            setattr(cls, method, tracer.aggregate(f"models.{method}", "models", getattr(cls, method), rows_arg=1))
    for method in ("distance_sq_gradient", "distance_sq"):
        setattr(fair_metric.FairMetric, method,
                tracer.aggregate(f"fair_metric.{method}", "fair_metric", getattr(fair_metric.FairMetric, method), rows_arg=1))
    for fn in ("loss_ratio_stats", "two_sided_ci", "one_sided_lower_bound", "loss_ratio_test",
               "error_rate_stats", "error_rate_test", "normal_quantile"):
        setattr(inference, fn, tracer.aggregate(f"inference.{fn}", "inference", getattr(inference, fn)))


def main(argv: list[str]) -> int:
    spans_out, op, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(op)
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
