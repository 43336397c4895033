"""Benchmark of the synpid CLI: one workload per call, metrics as JSON.

    python3 bench/run.py --workload profile_rule54 --seed 0 --seconds 50 --trace 0

Run from anywhere; every path is relative to the checkout root, which is
the working directory of each invocation. The program is run as
``python -m synpid.cli`` with ``PYTHONPATH=src``, one fresh process per
invocation, back to back for about ``--seconds`` and at least
MIN_INVOCATIONS times (a closed loop with one client). Before each
invocation, SETUP_PER_INVOCATION fresh interpreters time ``setup_s``. Every
invocation's output bytes are checked: at ``--seed 0`` against the sha256
hashes in ``golden.json``, at any other seed against the run's first
invocation, and JSON reports against ``docs/schemas``. After each
invocation, fresh interpreters time a fixed reference job, and ``wall_s``,
``cpu_s`` and ``setup_s`` are scaled by the host speed it shows (see
REFERENCE_CODE); the unscaled medians are printed too.

With ``--trace 0`` the last line carries the end-to-end metrics. With
``--trace 1`` it carries the per-layer metrics of one extra invocation traced
by ``tracing.py``, whose output bytes must equal the untraced ones. Human
readable lines, the machine's facts among them, come first. ``--smoke``
runs each workload at a reduced scale, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

import tracing
from workloads import WORK_DIR, WORKLOADS, golden

ROOT = Path(__file__).resolve().parent.parent
# Fresh interpreters timed for setup_s before each invocation, so that the
# setup samples span the whole run like the invocations do.
SETUP_PER_INVOCATION = 2
# Each run reports medians over at least this many invocations, however long they take.
MIN_INVOCATIONS = 4
INVOCATION_TIMEOUT_S = 150
SETUP_CODE = "import synpid.cli; synpid.cli.build_parser()"
# A shared host's speed drifts by a third or more over minutes, longer than a
# run, and fresh processes feel the drift as the program's invocations do. A
# fixed job that does not touch synpid, timed in fresh interpreters after each
# invocation for about REFERENCE_SHARE of its time, measures that speed; the
# times below are reported scaled to the speed at which the job takes
# REFERENCE_NOMINAL_S (its time on a quiet 2-vCPU Xeon VM).
REFERENCE_CODE = """
import numpy as np
a = np.random.default_rng(0).integers(0, 4, size=3_000_000)
np.bincount((a[:-2] * 4 + a[1:-1]) * 4 + a[2:])
counts = {}
for x in a[:150_000].tolist():
    counts[x] = counts.get(x, 0) + 1
"""
REFERENCE_NOMINAL_S = 0.30
REFERENCE_SHARE = 0.15


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool = True
    problems: list[str] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list[str], log_path: str) -> Invocation:
    """Run one process to exit; wall time from spawn to exit, rusage of that child only."""
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        inv.ok = False
        inv.problems.append(f"exit code {proc.returncode}, log in {log_path}")
    return inv


def load_schema(name: str) -> dict:
    with open(ROOT / "docs" / "schemas" / f"{name}.schema.json") as f:
        return json.load(f)


class OutputCheck:
    """Hashes an invocation's outputs and compares them with the expected bytes."""

    def __init__(self, workload, out_dir: str, golden: dict | None):
        self.outputs = workload.outputs
        self.out_dir = out_dir
        self.expected = golden
        self.schemas = {s: load_schema(s) for s in set(self.outputs.values()) if s}

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)

    def check(self, inv: Invocation) -> None:
        hashes = {}
        for rel, schema in self.outputs.items():
            path = os.path.join(self.out_dir, rel)
            try:
                with open(path, "rb") as f:
                    data = f.read()
            except OSError as exc:
                inv.problems.append(f"{rel}: {exc.strerror}")
                continue
            hashes[rel] = hashlib.sha256(data).hexdigest()
            if schema:
                try:
                    jsonschema.validate(json.loads(data), self.schemas[schema],
                                        cls=jsonschema.Draft202012Validator)
                except (ValueError, jsonschema.ValidationError) as exc:
                    inv.problems.append(f"{rel}: fails {schema} schema: {exc}")
        if self.expected is None and len(hashes) == len(self.outputs):
            self.expected = hashes
        for rel, digest in hashes.items():
            if self.expected is not None and self.expected.get(rel) != digest:
                inv.problems.append(f"{rel}: sha256 {digest[:12]} != expected "
                                    f"{str(self.expected.get(rel))[:12]}")
        inv.ok = not inv.problems


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def machine_facts() -> dict:
    cpuinfo = _read("/proc/cpuinfo").splitlines()
    models = [line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")]
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    l3 = [_read(str(d / "size")).strip() for d in sorted(caches.glob("index*"))
          if _read(str(d / "level")).strip() == "3"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.machine(),
        "l3": l3[0] if l3 else "unknown",
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1min": os.getloadavg()[0],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def time_interpreters(code: str, log_path: str, repeats: int) -> list[float]:
    """Wall times of fresh interpreters running code (SETUP_CODE, REFERENCE_CODE)."""
    times = []
    for _ in range(repeats):
        inv = spawn([sys.executable, "-c", code], log_path)
        if not inv.ok:
            raise RuntimeError(f"a fresh interpreter failed: {inv.problems[0]}")
        times.append(inv.wall_s)
    return times


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    mode = "smoke" if args.smoke else "full"
    work = os.path.join(WORK_DIR, f"{workload.name}-{mode}")
    os.makedirs(work, exist_ok=True)
    machine = machine_facts()
    workload.prepare(args.seed, args.smoke)
    setup_log = os.path.join(work, "setup.log")
    for code in (SETUP_CODE, REFERENCE_CODE):  # warms the file cache; not timed
        time_interpreters(code, setup_log, 1)

    out_dir = os.path.join(work, "out")
    check = OutputCheck(workload, out_dir,
                        golden(workload.name, args.smoke) if args.seed == 0 else None)
    cli = [sys.executable, "-m", "synpid.cli", *workload.argv(args.seed, out_dir, args.smoke)]
    invocations, setup, reference = [], [], []
    begin = time.perf_counter()
    # Start another cycle while it would end nearer the deadline than not,
    # so that a run lasts about --seconds however long one cycle takes.
    while len(invocations) < MIN_INVOCATIONS or (
            time.perf_counter() - begin) * (1 + 0.5 / len(invocations)) < args.seconds:
        setup += time_interpreters(SETUP_CODE, setup_log, SETUP_PER_INVOCATION)
        check.reset()
        inv = spawn(cli, os.path.join(work, "cli.log"))
        check.check(inv)
        invocations.append(inv)
        repeats = max(1, round(REFERENCE_SHARE * inv.wall_s / REFERENCE_NOMINAL_S))
        reference += time_interpreters(REFERENCE_CODE, setup_log, repeats)

    unscaled = {"wall_s": [i.wall_s for i in invocations],
                "cpu_s": [i.cpu_s for i in invocations], "setup_s": setup}
    speed = REFERENCE_NOMINAL_S / statistics.median(reference)
    e2e = {name: (tuple(speed * q for q in quartiles(values)), "s")
           for name, values in unscaled.items()}
    e2e["peak_rss_mb"] = (quartiles([i.peak_rss_mb for i in invocations]), "MB")
    attempted = timed = len(invocations)
    failed = sum(not i.ok for i in invocations)

    per_layer = None
    if args.trace:
        spans_path = os.path.join(work, "spans.npz")
        check.reset()
        traced = spawn([sys.executable, str(Path(__file__).with_name("tracing.py")),
                           spans_path, *cli[3:]], os.path.join(work, "traced.log"))
        check.check(traced)
        attempted += 1
        failed += not traced.ok
        invocations.append(traced)
        per_layer = tracing.summarize(spans_path)
        accounted = per_layer["trace.layers_self_s"][0] - per_layer["trace.parallel_overlap_s"][0]
        per_layer["trace.wall_s"] = (traced.wall_s, "s")
        per_layer["trace.unaccounted_s"] = (traced.wall_s - accounted, "s")
        per_layer["trace.overhead_s"] = (traced.wall_s - statistics.median(unscaled["wall_s"]), "s")

    return {
        "workload": workload.name, "seed": args.seed, "mode": mode,
        "seconds": args.seconds, "machine": machine,
        "invocations": [vars(i) for i in invocations],
        "timed": timed, "attempted": attempted, "failed": failed,
        "setup_samples": len(setup), "reference_s": reference, "speed": speed,
        "unscaled_medians": {name: statistics.median(v) for name, v in unscaled.items()},
        "end_to_end": e2e, "per_layer": per_layer,
    }


def report(result: dict) -> dict:
    """Print the human-readable lines and return the final JSON line's object."""
    m = result["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} "
          f"l3={m['l3']} ram={m['ram_bytes'] / 2**30:.1f}GiB "
          f"python={m['python']} numpy={m['numpy']} loadavg={m['loadavg_1min']:.2f}")
    print(f"workload {result['workload']} seed {result['seed']} ({result['mode']} scale)")
    for inv in result["invocations"]:
        for problem in inv["problems"]:
            print(f"FAILED: {problem}")
    for name, ((q1, med, q3), unit) in result["end_to_end"].items():
        n = result["timed"] if name != "setup_s" else result["setup_samples"]
        print(f"{name:<13} {med:10.4f} {unit:<3} (q1 {q1:.4f}, q3 {q3:.4f}, n={n})")
    unscaled = " ".join(f"{k} {v:.4f}" for k, v in result["unscaled_medians"].items())
    print(f"times scaled by host speed {result['speed']:.4f} = {REFERENCE_NOMINAL_S} s over the "
          f"reference job's median (n={len(result['reference_s'])}); unscaled medians: {unscaled}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_frac':<13} {failed / attempted:10.4f}     ({failed} of {attempted})")
    if result["per_layer"] is None:
        metrics = {k: {"value": v[0][1], "unit": v[1]} for k, v in result["end_to_end"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["per_layer"].items()}
        for name, (value, unit) in result["per_layer"].items():
            print(f"  {name:<36} {value:14.4f} {unit}")
        pl = result["per_layer"]
        print(f"traced wall {pl['trace.wall_s'][0]:.4f} s = layers' self time "
              f"{pl['trace.layers_self_s'][0]:.4f} s - pool-thread overlap "
              f"{pl['trace.parallel_overlap_s'][0]:.4f} s + unaccounted "
              f"{pl['trace.unaccounted_s'][0]:.4f} s (interpreter start, span writing)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale: the whole harness in seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "synpid" / "cli.py").is_file():
        print(f"bench: no synpid sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    result = run(args)
    summary = report(result)
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    name = f"{result['workload']}-{result['mode']}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK_DIR, "results", name), "w") as f:
        json.dump({**result, "summary": summary}, f, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
