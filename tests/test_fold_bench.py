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


def refold(tmp_path, bench):
    """Fold the pairs of a committed BENCH document again, from records."""
    for w, workload in bench["workloads"].items():
        metrics = workload["metrics"]
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
    return json.loads(out.read_text())


def test_fold_reproduces_bench_6_statistics(tmp_path):
    """Folding BENCH_6's own pairs gives back its quartiles, wins and gains."""
    bench6 = json.loads((ROOT / "BENCH_6.json").read_text())
    workloads = list(bench6["workloads"])
    doc = refold(tmp_path, bench6)
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
            assert {folded.pop("meets_gain_rule"), folded.pop("within_bound")} <= {True, False}
            assert folded == metric


def test_fold_states_the_verdicts(tmp_path):
    """BENCH_8's pairs: table1 wall_s won 10/10 by 0.129 s against a parent
    quartile distance of 0.088 s; profile_rule54 peak_rss_mb rose 0.44%,
    losing every pair, against a 5% bound."""
    doc = refold(tmp_path, json.loads((ROOT / "BENCH_8.json").read_text()))
    table1 = doc["workloads"]["table1_default"]["metrics"]
    profile = doc["workloads"]["profile_rule54"]["metrics"]
    assert table1["wall_s"]["meets_gain_rule"] and table1["wall_s"]["within_bound"]
    assert not table1["setup_s"]["meets_gain_rule"] and table1["setup_s"]["within_bound"]
    assert profile["peak_rss_mb"]["within_bound"]
    assert not profile["peak_rss_mb"]["meets_gain_rule"]


def test_verdicts_follow_the_rules():
    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}

    def verdict(parent, change):
        pairs = [{"seed": i, "first": "parent",
                  **{side: {"end_to_end": {"wall_s": [[0, v, 0], "s"]}}
                     for side, v in (("parent", p), ("change", c))}}
                 for i, (p, c) in enumerate(zip(parent, change))]
        folded = fold_bench.fold_metric(metric, pairs)
        return folded["meets_gain_rule"], folded["within_bound"]

    parent = [1.0 + i / 100 for i in range(10)]
    assert verdict(parent, [p - 0.2 for p in parent]) == (True, True)
    # Nine wins of ten still meet the rule; eight do not.
    assert verdict(parent, [p - 0.2 for p in parent[:9]] + [2.0]) == (True, True)
    assert verdict(parent, [p - 0.2 for p in parent[:8]] + [2.0, 2.0]) == (False, True)
    # Ten wins by less than the parent's quartile distance (0.045) are no gain.
    assert verdict(parent, [p - 0.01 for p in parent]) == (False, True)
    # A median 25% worse is at the bound; past it is outside.
    assert verdict(parent, [p * 1.2 for p in parent]) == (False, True)
    assert verdict(parent, [p * 1.3 for p in parent]) == (False, False)


def test_fold_needs_pairs_on_both_sides(tmp_path, capsys):
    write_record(tmp_path / "parent", "table1_default", 1, 0, {"wall_s": 1.0}, 1)
    write_record(tmp_path / "change", "table1_default", 2, 0, {"wall_s": 1.0}, 1)
    assert fold_bench.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                            "--summary", "x", "--out", str(tmp_path / "o.json")]) == 1
    assert "no seed >= 1 has untraced table1_default records" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
