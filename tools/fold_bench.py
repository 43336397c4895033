"""Fold benchmark result records of a parent and a change into one BENCH file.

    python3 tools/fold_bench.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --summary "what the change does" --out BENCH_7.json

Each checkout is a separate copy of the repository in which
``bench/run.py`` was run for the workloads BENCHMARK.json lists and the
same seeds, with parent and change runs alternating. Its records are read
from ``.bench_work/results/``. Full-scale, untraced records with seeds >= 1
that both sides have form the pairs; each seed's pair records which side
ran first, taken from the records' modification times. Seed-0 records are
the golden-byte checks, and traced records give the per-layer values. The
output has the layout of ``BENCH_6.json``: per-pair medians, each side's
quartiles, win counts, machine facts and the golden hashes, plus each
metric's verdict against the gain rule and against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_records(checkout: Path) -> list[dict]:
    """Every full-scale result record of one checkout, with its mtime."""
    records = []
    for path in sorted((checkout / ".bench_work" / "results").glob("*.json")):
        with open(path) as f:
            record = json.load(f)
        if record["mode"] == "full":
            records.append({**record, "mtime": path.stat().st_mtime})
    return records


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], interpolated between order statistics."""
    if len(values) < 2:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4, method="inclusive"))


def fold_metric(metric: dict, pairs: list[dict]) -> dict:
    """Per-pair medians of one end-to-end metric, and how the change compares.

    ``meets_gain_rule``: the change wins at least nine tenths of the pairs and
    its median gain exceeds the distance between the parent's quartiles.
    ``within_bound``: the change's median is worse than the parent's by no
    more than the metric's bound, a fraction of the parent's median.
    """
    name, lower = metric["name"], metric["better"] == "lower"
    values = [{side: p[side]["end_to_end"][name][0][1] for side in SIDES} for p in pairs]
    parent = quartiles([v["parent"] for v in values])
    change = quartiles([v["change"] for v in values])
    gain = parent[1] - change[1] if lower else change[1] - parent[1]
    wins = sum((v["change"] < v["parent"]) if lower else (v["change"] > v["parent"])
               for v in values)
    return {
        "unit": metric["unit"], "better": metric["better"],
        "pairs": [{"seed": p["seed"], "first": p["first"],
                   **{side: round(v[side], 4) for side in SIDES}}
                  for p, v in zip(pairs, values)],
        "parent_q1_median_q3": [round(q, 4) for q in parent],
        "change_q1_median_q3": [round(q, 4) for q in change],
        "change_wins": wins,
        "median_gain": round(gain, 4),
        "parent_quartile_distance": round(parent[2] - parent[0], 4),
        "meets_gain_rule": 10 * wins >= 9 * len(values) and gain > parent[2] - parent[0],
        "within_bound": -gain <= metric["bound"] * parent[1],
    }


def fold(records: dict[str, list[dict]], summary: str) -> dict:
    """The BENCH document of both sides' records over BENCHMARK.json's workloads."""
    with open(ROOT / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    metrics = benchmark["end_to_end"]
    with open(ROOT / "bench" / "golden.json") as f:
        golden = json.load(f)["full"]
    index = {side: {(r["workload"], r["seed"], r["per_layer"] is not None): r
                    for r in records[side]} for side in SIDES}
    out_workloads, traced, checked, seconds = {}, {}, {}, set()
    for w in (w["name"] for w in benchmark["workloads"]):
        seeds = sorted(s for (name, s, tr) in index["parent"]
                       if name == w and s >= 1 and not tr and (w, s, False) in index["change"])
        if not seeds:
            raise ValueError(f"no seed >= 1 has untraced {w} records on both sides")
        pairs = []
        for s in seeds:
            pair = {side: index[side][w, s, False] for side in SIDES}
            pair["first"] = min(SIDES, key=lambda side: pair[side]["mtime"])
            pairs.append({"seed": s, **pair})
            seconds.update(pair[side]["seconds"] for side in SIDES)
        out_workloads[w] = {
            "invocations": {side: sum(p[side]["timed"] for p in pairs) for side in SIDES},
            "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
            "correct": {side: all(p[side]["summary"]["correct"] for p in pairs)
                        for side in SIDES},
            "metrics": {m["name"]: fold_metric(m, pairs) for m in metrics},
        }
        golden_runs = {side: index[side].get((w, 0, False)) for side in SIDES}
        if all(golden_runs.values()):
            checked[w] = {side: golden_runs[side]["summary"]["correct"] for side in SIDES}
        traced_seeds = sorted(s for (name, s, tr) in index["parent"]
                              if name == w and tr and (w, s, True) in index["change"])
        if traced_seeds:
            s = traced_seeds[-1]
            traced[w] = {"seed": s, **{side: {k: round(v, 4) for k, (v, _) in
                                              index[side][w, s, True]["per_layer"].items()}
                                       for side in SIDES}}
    machine = dict(records["change"][0]["machine"])
    machine.pop("loadavg_1min", None)
    return {
        "format": "synpid-bench",
        "change": summary,
        "protocol": (
            f"python3 bench/run.py --workload W --seed S --seconds "
            f"{'/'.join(f'{s:g}' for s in sorted(seconds))} --trace 0 in fresh checkouts of "
            f"the parent and the change, one pair per seed, alternating which side runs first "
            f"(each pair's 'first'); times are scaled to the reference host speed "
            f"(bench/README.md); values are each run's median over its invocations"),
        "machine": machine,
        "workloads": out_workloads,
        "traced_unscaled": traced,
        "golden_checked": {
            "how": "python3 bench/run.py --workload W --seed 0 in each checkout, which compares "
                   "every output's sha256 with bench/golden.json",
            "correct": checked,
            "sha256": {w: {name: digest[:12] for name, digest in golden[w].items()}
                       for w in checked},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout the parent's runs were made in")
    parser.add_argument("change", type=Path, help="checkout the change's runs were made in")
    parser.add_argument("--summary", required=True, help="one line saying what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    records = {side: load_records(getattr(args, side)) for side in SIDES}
    try:
        doc = fold(records, args.summary)
    except ValueError as exc:
        print(f"fold_bench: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
