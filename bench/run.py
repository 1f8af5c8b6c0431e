#!/usr/bin/env python3
"""Benchmark of the fairaudit CLI: seeded workloads, fresh interpreters, checked outputs.

    python3 bench/run.py --workload dense-pipeline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, untraced then traced

One run repeats its workload's CLI commands for about ``--seconds`` seconds
(at least three repetitions untraced; at least one untraced and one traced
repetition with ``--trace 1``) and reports medians over the repetitions.
The benchmark writes the inputs, runs every command as
``python -m fairaudit.cli <command> --config <file>`` with ``PYTHONPATH=src``
in a fresh interpreter, one at a time, reads each child's resource usage
with ``os.wait4``, and checks every output with ``check.py``.  Its own data
generation and checking run in this process and are not timed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Every run also writes a results record to bench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import check
import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"
RESULTS_DIR = BENCH_DIR / "results"

# A run must exit within 180 s: no repetition starts after HARD_LIMIT_S, and
# no child may outlive the deadline.
HARD_LIMIT_S = 150.0
DEADLINE_S = 170.0
SETUP_PROBES_PER_REP = 2
ATTACK_COMMANDS = {"audit", "sweep", "stopping-sweep"}


def child_env() -> dict:
    """The user's environment plus PYTHONPATH=src.  BLAS threading is left as the user has it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """A ``launcher.py`` process that runs the measured children one at a time."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")], env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd: str, log_stem: str, timeout: float) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": cwd, "log_stem": log_stem, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def close(self, abort: bool = False) -> None:
        """Let the launcher exit; with ``abort``, have it kill and reap the running child first."""
        if abort:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def tail(path: str, limit: int = 400) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-limit:].strip()


class Runner:
    """Repetitions of one workload in its own working directory."""

    def __init__(self, workload, seed: int, workdir: str, start: float, launcher: Launcher):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.launcher = launcher
        self.deadline = start + DEADLINE_S
        self.checked: set[str] = set()

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def setup_probe(self) -> float:
        """Wall time of a fresh interpreter importing the CLI module."""
        child = self.launcher.run([sys.executable, "-c", "import fairaudit.cli"], self.workdir,
                                  os.path.join(self.workdir, "setup"), self.timeout())
        if child["code"] != 0:
            raise RuntimeError(f"`import fairaudit.cli` failed: {tail(os.path.join(self.workdir, 'setup.err'))}")
        return child["wall_s"]

    def repetition(self, traced: bool) -> dict:
        wl, wd = self.workload, self.workdir
        outputs = check.output_paths(wl, wd)
        for path in outputs + glob.glob(os.path.join(wd, "*.spans.json")):
            if os.path.exists(path):
                os.unlink(path)
        ops, codes = [], {}
        for op in wl.ops:
            cmd = [op.command, "--config", f"{op.name}.config.json"]
            spans = os.path.join(wd, f"{op.name}.spans.json")
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), spans, op.name, *cmd]
            else:
                argv = [sys.executable, "-m", "fairaudit.cli", *cmd]
            child = self.launcher.run(argv, wd, os.path.join(wd, op.name), self.timeout())
            codes[op.name] = child["code"]
            ops.append({"name": op.name, "command": op.command, **child})
            if child["code"] not in (0, 3):
                ops[-1]["stderr"] = tail(os.path.join(wd, op.name + ".err"))
                break
        problems = self.check(codes, outputs)
        for rec in ops:
            rec["bytes_written"] = sum(os.path.getsize(os.path.join(wd, op.config[k]))
                                       for op in wl.ops if op.name == rec["name"]
                                       for k in check.OUTPUT_KEYS
                                       if op.config.get(k) and os.path.exists(os.path.join(wd, op.config[k])))
        failed = sorted(op.name for op in wl.ops if op.name not in codes or codes[op.name] not in (0, 3)
                        or problems.get(op.name))
        rep = {
            "mode": "traced" if traced else "plain",
            "ops": ops,
            "problems": problems,
            "attempted": len(wl.ops),
            "failed": failed,
            "wall_s": sum(o["wall_s"] for o in ops),
            "peak_rss_mb": max(o["maxrss_kb"] for o in ops) / 1024.0,
        }
        if traced and not failed:
            spans, aggregates = layers.load(os.path.join(wd, f"{op.name}.spans.json") for op in wl.ops)
            rep["layers"] = layers.metrics(spans, aggregates)
            rep["layer_table"] = layers.table(spans, aggregates)
        return rep

    def check(self, codes: dict, outputs: list[str]) -> dict:
        """Check the outputs; byte-identical outputs that passed once are not checked again."""
        digest = hashlib.sha256(json.dumps(codes, sort_keys=True).encode())
        for path in outputs:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
        key = digest.hexdigest()
        if key in self.checked:
            return {}
        problems = check.check_workload(self.workload, self.workdir, codes, self.seed)
        if not problems:
            self.checked.add(key)
        return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed)
    workdir = str(WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.prepare(workload, workdir)
    launcher = Launcher()
    runner = Runner(workload, seed, workdir, start, launcher)
    try:
        runner.setup_probe()  # compiles bytecode and warms the file cache; not reported
        reps, probes = [], []
        modes = ["plain", "traced"] if trace else ["plain"]
        min_reps = 2 if trace else 3
        while True:
            mode = modes[len(reps) % len(modes)]
            same = [r["wall_s"] for r in reps if r["mode"] == mode] or [r["wall_s"] for r in reps] or [0.0]
            elapsed = time.perf_counter() - start
            if len(reps) >= min_reps and elapsed + statistics.median(same) > seconds:
                break
            if reps and elapsed + statistics.median(same) > HARD_LIMIT_S:
                break
            if mode == "plain":
                probes += [runner.setup_probe() for _ in range(SETUP_PROBES_PER_REP)]
            reps.append(runner.repetition(traced=mode == "traced"))
            if reps[-1]["failed"]:
                break
    except BaseException:
        launcher.close(abort=True)
        raise
    else:
        launcher.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "reps": reps, "setup_probes_s": probes, "elapsed_s": time.perf_counter() - start}


def median_of(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def summarize(result: dict) -> tuple[dict, dict, dict]:
    """End-to-end metrics, per-layer metrics, and per-command medians of one run."""
    reps = result["reps"]
    plain = [r for r in reps if r["mode"] == "plain"]
    traced = [r for r in reps if r["mode"] == "traced" and "layers" in r]
    e2e = {
        "wall_s": median_of(r["wall_s"] for r in plain),
        "setup_s": median_of(result["setup_probes_s"]),
        "peak_rss_mb": median_of(r["peak_rss_mb"] for r in plain),
    }

    def total(rep, key, commands=None):
        return sum(o[key] for o in rep["ops"] if commands is None or (o["command"] in ATTACK_COMMANDS) == commands)

    per_layer = {
        "cli.cpu_s": median_of(total(r, "user_s") + total(r, "sys_s") for r in plain),
        "cli.sys_s": median_of(total(r, "sys_s") for r in plain),
        "cli.minor_faults": median_of(total(r, "minor_faults") for r in plain),
        "cli.bytes_written": median_of(total(r, "bytes_written") for r in plain),
        "cli.prep.wall_s": median_of(total(r, "wall_s", commands=False) for r in plain),
        "cli.attack.wall_s": median_of(total(r, "wall_s", commands=True) for r in plain),
    }
    if traced:
        for key in traced[0]["layers"]:
            per_layer[key] = median_of(r["layers"][key] for r in traced)
        per_layer["trace.overhead_frac"] = median_of(r["wall_s"] for r in traced) / e2e["wall_s"] - 1.0
    per_op = {}
    for op in result["workload"].ops:
        runs = [o for r in plain for o in r["ops"] if o["name"] == op.name]
        per_op[op.name] = {k: median_of(o[k] for o in runs)
                           for k in ("wall_s", "user_s", "sys_s", "minor_faults", "maxrss_kb", "bytes_written")}
    return e2e, per_layer, per_op


def openblas_threads():
    """Thread count of the OpenBLAS bundled with numpy, as a child would start it."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {}
    import scipy

    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {**blas, "threads": openblas_threads()},
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of the package source either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fairaudit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def declared_metrics() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {"end_to_end": doc["end_to_end"], "per_layer": doc["per_layer"]}


def report(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its tables, write its results record; returns the result line's fields."""
    result = run_workload(name, seed, seconds, trace)
    e2e, per_layer, per_op = summarize(result)
    reps = result["reps"]
    failed = sum(len(r["failed"]) for r in reps)
    attempted = sum(r["attempted"] for r in reps)
    declared = declared_metrics()
    units = {m["name"]: m["unit"] for group in declared.values() for m in group}

    modes = ", ".join(f"{sum(r['mode'] == m for r in reps)} {m}" for m in ("plain", "traced") if any(r["mode"] == m for r in reps))
    print(f"== {name} seed={seed} trace={int(trace)}: {len(reps)} repetitions ({modes}) in {result['elapsed_s']:.1f} s")
    for r in reps:
        for op, msgs in r["problems"].items():
            for msg in msgs:
                print(f"   CHECK FAILED {r['mode']} {op}: {msg}")
        for o in r["ops"]:
            if "stderr" in o:
                print(f"   COMMAND FAILED {r['mode']} {o['name']} exit {o['code']}: {o['stderr']}")
    print(f"   {'command':16s} {'wall_s':>8s} {'user_s':>8s} {'sys_s':>7s} {'minor_faults':>12s} {'rss_mb':>7s}  (medians, plain)")
    for op, v in per_op.items():
        print(f"   {op:16s} {v['wall_s']:8.3f} {v['user_s']:8.3f} {v['sys_s']:7.3f} {v['minor_faults']:12.0f} {v['maxrss_kb'] / 1024:7.1f}")
    shown = {**e2e, **per_layer, "failed_frac": failed / attempted if attempted else float("nan")}
    for key, value in shown.items():
        print(f"   {key:42s} {value:16.6f} {units.get(key, 'frac' if key == 'failed_frac' else '')}")

    measured = per_layer if trace else e2e
    group = declared["per_layer" if trace else "end_to_end"]
    missing = sorted(m["name"] for m in group if not np.isfinite(measured.get(m["name"], float("nan"))))
    if missing and not failed:
        raise RuntimeError(f"metrics not measured: {missing}")
    # a failed run may lack some metrics; they are reported as null
    metrics = {m["name"]: {"value": None if m["name"] in missing else measured[m["name"]], "unit": m["unit"]}
               for m in group}
    correct = failed == 0 and attempted > 0

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "finished_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **source_identity(),
        "machine": machine(),
        "sizes": result["workload"].sizes,
        "why": result["workload"].why,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": per_layer,
        "per_command": per_op,
        "setup_probes_s": result["setup_probes_s"],
        "repetitions": reps,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path = RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")
    print(f"   record: {path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fairaudit" / "cli.py").is_file():
        print(f"error: the fairaudit source is not at {SRC.relative_to(ROOT)}/fairaudit; run from a full checkout",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        line = report(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parts = {(w, t): report(w, args.seed, args.seconds, bool(t)) for w in workloads.WORKLOADS for t in (0, 1)}
        line = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}/{k}": v for (w, _), p in parts.items() for k, v in p["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
