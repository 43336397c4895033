"""Tests of the benchmark itself, at the smoke scale: python -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import steadiness
import tracing
from workloads import WORKLOADS, analyze_series

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_and_matches_golden_bytes(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] == run.MIN_INVOCATIONS + trace
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_other_seed_is_checked_against_the_first_invocation():
    proc = bench("--workload", "analyze_r4", "--seed", "7", "--seconds", "0.5", "--smoke")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= run.MIN_INVOCATIONS


def test_output_check_counts_changed_bytes_as_failed(tmp_path):
    workload = WORKLOADS["table1_default"]
    check = run.OutputCheck(workload, str(tmp_path / "out"), None)
    check.reset()
    (tmp_path / "out" / "table1.json").write_text('{"format": "synpid-table1"}\n')
    first = run.Invocation(1.0, 1.0, 1.0)
    check.check(first)
    assert not first.ok and "schema" in first.problems[0]
    (tmp_path / "out" / "table1.json").write_text('{"format": "other"}\n')
    second = run.Invocation(1.0, 1.0, 1.0)
    check.check(second)
    assert any("sha256" in p for p in second.problems)


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "table1_default", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_subtracts_the_union_of_overlapping_children():
    # root [0, 10]; two pool-thread children [1, 5] and [3, 7]; a grandchild [1, 2].
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 3.0, 1.0])
    end = np.array([10.0, 5.0, 7.0, 2.0])
    own, overlap = tracing.self_times(parent, start, end)
    assert own.tolist() == [4.0, 3.0, 4.0, 1.0]
    assert overlap == 2.0
    assert own.sum() - overlap == 10.0


def test_analyze_series_follows_its_recurrence():
    data = analyze_series(3, 2000)
    assert np.array_equal(data, analyze_series(3, 2000))
    d, s1, s2, s3 = data.T
    follows = d[1:] == (s1[:-1] + s2[:-1] * s3[:-1] + d[:-1]) % 4
    assert 0.9 < follows.mean() < 0.96  # replaced with p=0.1, a quarter redraw the same
    assert set(np.unique(data)) == {0, 1, 2, 3}


def _runs(values, failed=0):
    return [{"failed": failed, "metrics": {"setup_s": {"value": v}}} for v in values]


def test_steadiness_flags_spread_drift_and_failed_invocations():
    setup = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    steady = _runs([1.0, 1.01, 0.99, 1.0, 1.02])
    assert steadiness.report([{"w": steady}, {"w": steady}], setup) == 0
    assert steadiness.report([{"w": _runs([1.0, 2.0, 1.0, 2.0])}], setup) == 1
    assert steadiness.report([{"w": steady}, {"w": _runs([1.5] * 5)}], setup) == 1
    assert steadiness.report([{"w": _runs([1.0] * 5, failed=1)}], setup) == 1
