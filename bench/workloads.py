"""The benchmark's workloads: CLI arguments, generated inputs and golden bytes.

Every workload is one `python -m synpid.cli` invocation. Paths are relative
to the checkout root, which is the working directory of every invocation, so
paths that end up inside a report (the `analyze` report's `input` field) are
the same in every checkout.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORK_DIR = ".bench_work"
ANALYZE_INPUT = f"{WORK_DIR}/analyze_r4.csv"
ANALYZE_ROWS = 500_000
SMOKE_ANALYZE_ROWS = 5_000

# Reduced-scale flags for the smoke mode: the whole harness in seconds.
SMOKE_CA = ["--runs", "2", "--width", "32", "--steps", "40", "--k", "4"]

PROFILE_MEASURES = ("local_ais", "local_te_left", "local_te_right", "local_separable")


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, output directory, smoke) -> CLI arguments after `synpid`.
    argv: Callable[[int, str, bool], list[str]]
    # Output file names (relative to the output directory) -> the schema
    # under docs/schemas that validates them, or None for non-JSON files.
    outputs: dict[str, str | None]
    # (seed, smoke) -> writes any input file the invocation reads.
    prepare: Callable[[int, bool], None] = lambda seed, smoke: None


def _table1_argv(seed, out, smoke):
    argv = ["table1", "--seed", str(seed), "--out", f"{out}/table1.json"]
    return argv + (["--rules", "18,54", *SMOKE_CA] if smoke else [])


def _profile_argv(seed, out, smoke):
    argv = ["profile", "--rule", "54", "--seed", str(seed), "--out", f"{out}/profile"]
    return argv + (SMOKE_CA if smoke else [])


def _analyze_argv(seed, out, smoke):
    return ["analyze", "--input", ANALYZE_INPUT, "--destination", "d",
            "--sources", "s1,s2,s3", "--k", "3", "--seed", str(seed),
            "--out", f"{out}/analyze.json"]


def analyze_series(seed: int, rows: int) -> np.ndarray:
    """Columns d, s1, s2, s3 over {0..3}; d is driven by all three sources.

    The sources are i.i.d. uniform. d[t+1] = (s1[t] + s2[t]*s3[t] + d[t]) mod 4,
    replaced by a uniform draw with probability 0.1. Returns a (rows, 4) array.
    """
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 4, size=(3, rows))
    reset = (rng.random(rows - 1) < 0.1).tolist()
    draw = rng.integers(0, 4, size=rows - 1).tolist()
    drive = ((s[0, :-1] + s[1, :-1] * s[2, :-1]) % 4).tolist()
    d = [int(rng.integers(0, 4))]
    for t in range(rows - 1):
        d.append(draw[t] if reset[t] else (drive[t] + d[t]) % 4)
    return np.column_stack([np.array(d), s.T])


def write_analyze_input(seed: int, smoke: bool) -> None:
    data = analyze_series(seed, SMOKE_ANALYZE_ROWS if smoke else ANALYZE_ROWS)
    # Every cell is one digit, so each row is exactly "a,b,c,d\n".
    line = np.empty((len(data), 8), dtype=np.uint8)
    line[:, 0::2] = data + ord("0")
    line[:, 1:7:2] = ord(",")
    line[:, 7] = ord("\n")
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(ANALYZE_INPUT, "wb") as f:
        f.write(b"d,s1,s2,s3\n")
        f.write(line.tobytes())


WORKLOADS = {w.name: w for w in (
    # The paper's headline table: simulation, embedding and counting dominate,
    # and memory peaks here.
    Workload("table1_default", _table1_argv, {"table1.json": "table1"}),
    # Per-site local evaluation and CSV/PGM writing, which table1 never runs,
    # on top of one fifth of table1's simulation and counting.
    Workload("profile_rule54", _profile_argv,
             {f"profile/rule54_{m}.{ext}": None
              for m in PROFILE_MEASURES for ext in ("csv", "pgm")}),
    # User series: CSV parsing, per-row embedding, a 4-symbol count alphabet
    # and the r=4 lattice; no simulation at all.
    Workload("analyze_r4", _analyze_argv, {"analyze.json": "analyze"}, write_analyze_input),
)}


def golden(name: str, smoke: bool) -> dict[str, str]:
    """sha256 of every output at --seed 0, recorded from the unmodified program."""
    with open(os.path.join(os.path.dirname(__file__), "golden.json")) as f:
        return json.load(f)["smoke" if smoke else "full"][name]
