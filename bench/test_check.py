"""Self-tests of the output checker: real outputs pass, corrupted ones are flagged.

    PYTHONPATH=src python -m pytest bench/test_check.py

The workloads run here in-process at small sizes; the checker sees the same
files the benchmark's children write.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads  # noqa: E402
from fairaudit import cli  # noqa: E402

SEED = 3


def run(workload, workdir: Path) -> dict[str, int]:
    workloads.prepare(workload, str(workdir))
    with contextlib.chdir(workdir):
        return {op.name: cli.main([op.command, "--config", f"{op.name}.config.json"]) for op in workload.ops}


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    workload = workloads.dense_pipeline(SEED, rows=400)
    workdir = tmp_path_factory.mktemp("dense")
    return workload, workdir, run(workload, workdir)


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    workload = workloads.sim_sweep_trace(SEED, rows=100, step=4.0, trace_rows=30)
    workdir = tmp_path_factory.mktemp("sim")
    return workload, workdir, run(workload, workdir)


def corrupted_copy(outputs, tmp_path):
    workload, workdir, codes = outputs
    copy = tmp_path / "copy"
    shutil.copytree(workdir, copy)
    return workload, copy, dict(codes)


@pytest.mark.parametrize("name", ["dense", "sim"])
def test_real_outputs_pass(name, request):
    workload, workdir, codes = request.getfixturevalue(name)
    assert check.check_workload(workload, str(workdir), codes, SEED) == {}


def test_corrupted_ratio_is_flagged(dense, tmp_path):
    workload, workdir, codes = corrupted_copy(dense, tmp_path)
    path = workdir / "samples-logistic.csv"
    lines = path.read_text().splitlines()
    index, ratio, pre, post = lines[7].split(",")
    lines[7] = f"{index},{float(ratio) * (1 + 1e-6)!r},{pre},{post}"
    path.write_text("\n".join(lines) + "\n")
    problems = check.check_workload(workload, str(workdir), codes, SEED)
    assert list(problems) == ["audit-logistic"]


def test_flipped_verdict_is_flagged(dense, tmp_path):
    workload, workdir, codes = corrupted_copy(dense, tmp_path)
    path = workdir / "report-mlp.json"
    report = json.loads(path.read_text())
    report["reject"] = not report["reject"]
    path.write_text(json.dumps(report))
    problems = check.check_workload(workload, str(workdir), codes, SEED)
    assert list(problems) == ["audit-mlp"]
    assert any("reject" in msg for msg in problems["audit-mlp"])


def test_truncated_trace_is_flagged(sim, tmp_path):
    workload, workdir, codes = corrupted_copy(sim, tmp_path)
    path = workdir / "trace.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    problems = check.check_workload(workload, str(workdir), codes, SEED)
    assert list(problems) == ["audit-trace"]
    assert "lines" in problems["audit-trace"][0]


def test_wrong_sweep_statistic_is_flagged(sim, tmp_path):
    workload, workdir, codes = corrupted_copy(sim, tmp_path)
    path = workdir / "heatmap.csv"
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[3] = repr(float(cells[3]) + 1e-6)
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = check.check_workload(workload, str(workdir), codes, SEED)
    assert list(problems) == ["sweep"]


def test_operational_error_is_a_failure(sim):
    workload, workdir, codes = sim
    problems = check.check_workload(workload, str(workdir), {**codes, "audit-trace": 10}, SEED)
    assert list(problems) == ["audit-trace"]
