#!/usr/bin/env python3
"""Summarize results records into per-workload medians and quartiles.

    python3 bench/summarize.py bench/results/*.json > summary.json

For every workload and metric it keeps the raw per-run values (in seed
order), their median, first and third quartiles (``statistics.quantiles``
with n=4) and the spread (Q3 - Q1) / median, plus the machine, commit and
sizes of the runs.  Untraced runs contribute end-to-end metrics and traced
runs per-layer metrics.  ``bench/baseline.json`` was written this way.
"""

from __future__ import annotations

import json
import statistics
import sys


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main(paths: list[str]) -> int:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    records.sort(key=lambda r: (r["workload"], r["trace"], r["seed"]))
    out: dict = {"machine": None, "commit": None, "source_sha256": None, "workloads": {}}
    for r in records:
        out["machine"] = out["machine"] or r["machine"]
        out["commit"] = out["commit"] or r["commit"]
        out["source_sha256"] = out["source_sha256"] or r["source_sha256"]
        w = out["workloads"].setdefault(r["workload"], {"sizes": r["sizes"], "runs": {}, "end_to_end": {}, "per_layer": {}})
        group = "per_layer" if r["trace"] else "end_to_end"
        w["runs"].setdefault(group, []).append({"seed": r["seed"], "correct": r["correct"], "attempted": r["attempted"],
                                                "failed": r["failed"], "repetitions": len(r["repetitions"])})
        for key, value in r[group].items():
            w[group].setdefault(key, []).append(value)
    for w in out["workloads"].values():
        for group in ("end_to_end", "per_layer"):
            w[group] = {k: spread(v) for k, v in w[group].items()}
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
