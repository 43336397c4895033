"""Steadiness report: how much each end-to-end metric spreads across seeds.

    python3 bench/steadiness.py --seeds 1-10 --sets 2
    python3 bench/steadiness.py --seeds 0    # every workload once, golden bytes

Runs ``run.py --trace 0`` once per seed and workload (seeds outermost, so a
slow spell on the host spreads over all workloads) and repeats the whole set
``--sets`` times. For each set, metric and workload it prints the median,
quartiles and ``n`` of the per-run values, and the spread: the distance
between the quartiles as a share of the median. It flags a spread above the
metric's bound in BENCHMARK.json, from the second set on a median that is
worse than the first set's by more than the bound, and any run with a failed
invocation (wrong bytes or a non-zero exit); it exits 1 if anything is
flagged. Workloads and run length come from BENCHMARK.json. Raw results go
to .bench_work/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def report(sets: list[dict], metrics: list[dict]) -> int:
    """Print each set's spreads and drifts; return how many things are flagged."""
    flagged = 0
    for i, runs in enumerate(sets):
        print(f"set {i + 1}")
        for w, results in runs.items():
            failed = sum(r["failed"] for r in results)
            flagged += failed > 0
            print(f"  {w}: {len(results)} runs, {failed} failed invocations"
                  + (" FAILED INVOCATIONS" if failed else ""))
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                notes = []
                bad = spread > m["bound"]
                if bad:
                    notes.append("SPREAD ABOVE BOUND")
                elif spread > m["bound"] / 3:
                    notes.append("spread above a third of the bound")
                if i:
                    first = statistics.median(
                        r["metrics"][m["name"]]["value"] for r in sets[0][w])
                    drift = (med - first) / first * (1 if m["better"] == "lower" else -1)
                    notes.append(f"worse than set 1 by {drift:+.3f}")
                    if drift > m["bound"]:
                        bad = True
                        notes.append("DRIFT ABOVE BOUND")
                flagged += bad
                print(f"    {m['name']:<12} median {med:10.4f} {m['unit']:<3} q1 {q1:.4f} "
                      f"q3 {q3:.4f} n={len(values)} spread {spread:.4f} "
                      f"(bound {m['bound']}) {'; '.join(notes)}")
    return flagged


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    sets = []
    for _ in range(args.sets):
        runs = {w: [] for w in workloads}
        for seed in args.seeds:
            for w in workloads:
                runs[w].append(one_run(w, seed, seconds))
                last = runs[w][-1]
                print(f"  {w} seed {seed}: correct={last['correct']} " + " ".join(
                    f"{k}={v['value']:.4f}" for k, v in last["metrics"].items()), flush=True)
        sets.append(runs)

    os.makedirs(ROOT / ".bench_work", exist_ok=True)
    with open(ROOT / ".bench_work" / "steadiness.json", "w") as f:
        json.dump({"seeds": args.seeds, "seconds": seconds, "sets": sets}, f, indent=1)
    return 1 if report(sets, spec["end_to_end"]) else 0


if __name__ == "__main__":
    sys.exit(main())
