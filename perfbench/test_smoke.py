"""Smoke test of the benchmark: every workload, at a tiny size, prints
every metric that BENCHMARK.json and the readable report name, each with
its unit, and passes its output checks.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import REPORT_NAMES  # noqa: E402
from tracer import per_layer_names  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_metrics(metrics, expected):
    assert set(metrics) == {m["name"] for m in expected}
    for m in expected:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], m["name"]
        assert isinstance(entry["value"], (int, float)), m["name"]


def test_per_layer_list_matches_tracer():
    assert SPEC["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b in per_layer_names()]


def test_all_workloads_print_end_to_end_metrics():
    proc = bench("--workload", "all", "--seed", "0", "--seconds", "1",
                 "--trace", "0", "--tiny")
    result = result_of(proc)
    expected = [dict(m, name=f"{w}.{m['name']}")
                for w in WORKLOADS for m in SPEC["end_to_end"]]
    assert_metrics(result["metrics"], expected)
    report = proc.stdout.splitlines()[:-1]
    for workload in WORKLOADS:
        thr, thr_unit, p50, p90, lat_unit, _ = REPORT_NAMES[workload]
        named = [("setup_s", "s"), (thr, thr_unit), (p50, lat_unit),
                 (p90, lat_unit), ("peak_rss_mb", "MB"), ("fail_ratio", "ratio")]
        if workload == "train":
            named.append(("train_loss_end", "loss"))
        for name, unit in named:
            assert any(line.split()[:1] == [name] and line.split()[2] == unit
                       for line in report), (workload, name)
    assert sum(line.startswith("env {") for line in report) == len(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", "1", "--tiny")
    result = result_of(proc)
    assert_metrics(result["metrics"], SPEC["per_layer"])
    assert "coverage: " in proc.stdout and "tracing overhead: " in proc.stdout
    assert os.path.isfile(os.path.join(ROOT, ".perfbench",
                                       f"spans-{workload}-0.npz"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
