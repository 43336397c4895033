import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("fold_bench", ROOT / "tools" / "fold_bench.py")
fold_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fold_bench)

MACHINE = {"nproc": 2, "cpu_model": "test cpu", "l3": "1K", "ram_bytes": 1, "python": "3",
           "numpy": "2", "loadavg_1min": 0.5}


def write_record(checkout, workload, seed, trace, values, mtime, correct=True):
    """One result record as bench/run.py writes it, with ``values`` as medians."""
    results = checkout / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "mode": "full", "seconds": 50.0,
        "machine": MACHINE, "timed": 5, "attempted": 5 + trace, "failed": 0,
        "end_to_end": {name: [[v - 0.01, v, v + 0.01], "s"] for name, v in values.items()},
        "per_layer": {"eca.self_s": [values["wall_s"] / 10, "s"]} if trace else None,
        "summary": {"correct": correct},
    }
    path = results / f"{workload}-full-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))
    os.utime(path, (mtime, mtime))


def test_fold_reproduces_bench_6_statistics(tmp_path):
    """Folding BENCH_6's own pairs gives back its quartiles, wins and gains."""
    bench6 = json.loads((ROOT / "BENCH_6.json").read_text())
    workloads = list(bench6["workloads"])
    for w in workloads:
        metrics = bench6["workloads"][w]["metrics"]
        for i, seed in enumerate(p["seed"] for p in metrics["wall_s"]["pairs"]):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for rank, side in enumerate(order):
                values = {name: m["pairs"][i][side] for name, m in metrics.items()}
                write_record(tmp_path / side, w, seed, 0, values, 1000 * seed + rank)
        for side in ("parent", "change"):
            write_record(tmp_path / side, w, 0, 0, {"wall_s": 1.0}, 1)
            write_record(tmp_path / side, w, 11, 1, {"wall_s": 1.0}, 1)
    out = tmp_path / "BENCH.json"
    assert fold_bench.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                            "--summary", "test", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["change"] == "test" and "loadavg_1min" not in doc["machine"]
    assert doc["golden_checked"]["correct"] == {
        w: {"parent": True, "change": True} for w in workloads}
    assert doc["golden_checked"]["sha256"] == {
        w: bench6["golden_checked"]["sha256"][w] for w in workloads}
    assert set(doc["traced_unscaled"]) == set(workloads)
    for w in workloads:
        got, want = doc["workloads"][w], bench6["workloads"][w]
        assert got["invocations"] == {"parent": 50, "change": 50}
        assert got["correct"] == {"parent": True, "change": True}
        for name, metric in want["metrics"].items():
            folded = got["metrics"][name]
            assert [p.pop("first") for p in folded["pairs"]] == [
                "parent" if p["seed"] % 2 else "change" for p in metric["pairs"]]
            # BENCH_6 took its statistics from unrounded medians, the pairs here
            # are rounded to 4 decimals, so the statistics may differ by 1e-4.
            for key in ("parent_q1_median_q3", "change_q1_median_q3",
                        "median_gain", "parent_quartile_distance"):
                assert folded.pop(key) == pytest.approx(metric.pop(key), abs=1.5e-4)
            assert folded == metric


def test_fold_needs_pairs_on_both_sides(tmp_path, capsys):
    write_record(tmp_path / "parent", "table1_default", 1, 0, {"wall_s": 1.0}, 1)
    write_record(tmp_path / "change", "table1_default", 2, 0, {"wall_s": 1.0}, 1)
    assert fold_bench.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                            "--summary", "x", "--out", str(tmp_path / "o.json")]) == 1
    assert "no seed >= 1 has untraced table1_default records" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
