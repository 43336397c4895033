"""Command-line front end.

Settings resolve in priority order: explicit flag, then --config JSON (same
keys as the flags), then the SYNPID_SEED environment variable for seeds,
then built-in defaults. Exit codes: 0 success, 2 malformed flags (argparse),
1 any failure after flag parsing.
"""

from __future__ import annotations

import os

# One BLAS thread: OpenBLAS starts a worker per extra core, which spins and synpid never uses.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import io
import json
import re
import sys
import warnings

import numpy as np

from . import eca
from .dynamics import PROFILE_MEASURES
from .experiments import (
    AnalyzeConfig, ExperimentConfig, check_delta, export_local_profiles, or_demo_text,
    run_analyze, run_or_demo, run_table1, table1_text,
)
from .lattice import build_lattice

TABLE1_RULES = (18, 22, 30, 54, 110)


def _type_rule(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"rule must be an integer, got {text!r}")
    try:
        return eca.check_rule(v)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _type_rules(text):
    return tuple(_type_rule(part) for part in text.split(","))


def _type_positive(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {v}")
    return v


def _type_delta(text):
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"delta must be a number, got {text!r}")
    try:
        return check_delta(v)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _type_names(text):
    parts = tuple(p.strip() for p in text.split(","))
    if any(not p for p in parts):
        raise argparse.ArgumentTypeError(f"empty name in list {text!r}")
    return parts


def _config_value(key, value, cast=int):
    """A config value as ``cast`` (int or float) reads it from a string or a
    number; booleans, and floats where an int is wanted, are refused."""
    numbers = (int,) if cast is int else (int, float)
    if isinstance(value, (str, *numbers)) and not isinstance(value, bool):
        try:
            return cast(value)
        except ValueError:
            pass
    kind = "an integer" if cast is int else "a number"
    raise ValueError(f"config value {key!r} must be {kind}, got {value!r}")


class Settings:
    """Flag > config-file > environment/default resolution for one command."""

    def __init__(self, args):
        self.args = vars(args)
        self.config = {}
        path = self.args.get("config")
        if path:
            with open(path) as f:
                self.config = json.load(f)
            if not isinstance(self.config, dict):
                raise ValueError(f"config file {path} must hold a JSON object")

    def get(self, key, default=None):
        v = self.args.get(key)
        if v is None:
            v = self.config.get(key)
        return default if v is None else v

    def require(self, key):
        v = self.get(key)
        if v is None:
            raise ValueError(f"missing required setting {key!r} (flag or config)")
        return v

    def integer(self, key, default=None) -> int:
        """An integer setting; required when it has no default."""
        return _config_value(key, self.require(key) if default is None
                             else self.get(key, default))

    def number(self, key, default) -> float:
        """A numeric setting."""
        return _config_value(key, self.get(key, default), float)

    def seed(self):
        if self.get("seed") is not None:
            return self.integer("seed")
        v = os.environ.get("SYNPID_SEED", "0")
        try:
            return int(v)
        except ValueError:
            raise ValueError(f"SYNPID_SEED must be an integer, got {v!r}") from None

    def rules(self, default):
        v = self.get("rules", default)
        if isinstance(v, str):
            v = v.split(",")
        elif not isinstance(v, (list, tuple)):
            v = [v]
        return tuple(_config_value("rules", r) for r in v)

    def names(self, key, default=None):
        v = self.get(key, default)
        if v is None:
            return None
        if isinstance(v, str):
            return tuple(p.strip() for p in v.split(","))
        if not isinstance(v, (list, tuple)) or not all(isinstance(p, str) for p in v):
            raise ValueError(
                f"config value {key!r} must be a string or a list of strings, got {v!r}")
        return tuple(v)


def _write_json(doc, path):
    """Write a JSON report to ``path``, if one is given."""
    if path:
        with open(path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {path}")


def _experiment_config(s: Settings, rules) -> ExperimentConfig:
    """Only the settings given reach the config; it holds the defaults."""
    given = {key: s.integer(key) for key in ("runs", "width", "steps", "k")
             if s.get(key) is not None}
    return ExperimentConfig(rules=rules, base_seed=s.seed(), **given)


def cmd_ca_run(args) -> int:
    s = Settings(args)
    rule = s.integer("rule")
    grid = eca.run(rule, s.integer("width", 200), s.integer("steps", 200), s.seed())
    out = str(s.require("out"))
    eca.write_pgm(grid, out + ".pgm")
    eca.write_csv(grid, out + ".csv")
    print(f"wrote {out}.pgm and {out}.csv (rule {rule}, seed {grid.seed})")
    return 0


def cmd_table1(args) -> int:
    s = Settings(args)
    config = _experiment_config(s, s.rules(TABLE1_RULES))
    report = run_table1(config)
    print(table1_text(report))
    _write_json(report, s.get("out"))
    return 0


def cmd_or_demo(args) -> int:
    s = Settings(args)
    delta = s.number("delta", 1e-6)
    report = run_or_demo(delta)
    print(or_demo_text(report))
    _write_json(report, s.get("out"))
    return 0


def cmd_profile(args) -> int:
    s = Settings(args)
    rule = s.integer("rule")
    config = _experiment_config(s, (rule,))
    measures = s.names("measures", PROFILE_MEASURES)
    written = export_local_profiles(rule, config, measures, str(s.require("out")))
    for m in measures:
        print(f"{m}: {written[m]['csv']}, {written[m]['pgm']}")
    return 0


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """The header row and the (rows, columns) int64 cells of a CSV file.

    numpy parses the cells. When it refuses them, or would skip a blank
    line, a line-by-line scan names the first bad line.
    """
    with open(path) as f:
        text = f.read()
    if not text:
        raise ValueError(f"{path} is empty")
    head, _, body = text.partition("\n")
    header = [h.strip() for h in next(csv.reader([head]))]
    if len(set(header)) != len(header):
        raise ValueError(f"duplicate column names in {path}: {header}")
    if not body:
        return header, np.empty((0, len(header)), dtype=np.int64)
    try:
        if body.startswith("\n") or "\n\n" in body:
            raise ValueError("blank line")
        with warnings.catch_warnings():
            # numpy 1.x reads "1.0" as an integer, with only a DeprecationWarning.
            warnings.simplefilter("error")
            data = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64,
                              comments=None, quotechar='"', ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"{data.shape[1]} cells per row")
        return header, data
    except (ValueError, Warning) as exc:
        reason = exc
    for lineno, row in enumerate(csv.reader(io.StringIO(body)), start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        for cell in row:
            if not re.fullmatch(r"[+-]?[0-9]+", cell.strip()):
                raise ValueError(f"{path}:{lineno}: non-integer cell {cell!r}")
            if not -2 ** 63 <= int(cell) < 2 ** 63:
                raise ValueError(f"{path}:{lineno}: cell {cell!r} is outside the int64 range")
    raise ValueError(f"{path}: {reason}")


def cmd_analyze(args) -> int:
    s = Settings(args)
    path = str(s.require("input"))
    destination = str(s.require("destination"))
    s.require("sources")
    config = AnalyzeConfig(s.integer("k", 1), destination, s.names("sources"))
    header, data = _read_csv(path)
    report = {"input": path, **run_analyze(dict(zip(header, data.T)), config)}
    if s.get("out"):
        _write_json(report, s.get("out"))
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_lattice(args) -> int:
    s = Settings(args)
    r = s.integer("sources", 3)
    lat = build_lattice(r)
    print(f"r={r}: {len(lat.nodes)} nodes, {len(lat.covers)} covering edges")
    print("nodes (redundant to synergistic):")
    for node in lat.nodes:
        print(f"  {node.label}")
    print("covers:")
    for lo, hi in lat.covers:
        print(f"  {lat.nodes[lo].label} -> {lat.nodes[hi].label}")
    _write_json({
        "format": "synpid-lattice",
        "version": 1,
        "r": r,
        "nodes": [n.label for n in lat.nodes],
        "covers": [[lat.nodes[lo].label, lat.nodes[hi].label] for lo, hi in lat.covers],
    }, s.get("out"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synpid",
        description="Information dynamics and synergy-based information "
                    "modification for discrete processes and cellular automata.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file supplying any of this command's settings")
        p.add_argument("--seed", type=int, help="base seed (default: SYNPID_SEED env, then 0)")

    def batch(p):
        for flag in ("--runs", "--width", "--steps", "--k"):
            p.add_argument(flag, type=_type_positive)
        p.add_argument("--threads", type=_type_positive,
                       help="accepted for compatibility; has no effect")

    p = sub.add_parser("ca-run", help="simulate one grid and export PGM + CSV")
    common(p)
    p.add_argument("--rule", type=_type_rule)
    p.add_argument("--width", type=_type_positive)
    p.add_argument("--steps", type=_type_positive)
    p.add_argument("--out", help="output path prefix (writes .pgm and .csv)")
    p.set_defaults(func=cmd_ca_run)

    p = sub.add_parser("table1", help="hierarchy and modified-information table across rules")
    common(p)
    p.add_argument("--rules", type=_type_rules,
                   help=f"comma-separated rules (default {','.join(map(str, TABLE1_RULES))})")
    batch(p)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("or-demo", help="localized redundancy across the tilted OR gate")
    common(p)
    p.add_argument("--delta", type=_type_delta,
                   help="tilt of the mixed rows (default 1e-6); "
                        "write negatives as --delta=-1e-6")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_or_demo)

    p = sub.add_parser("profile", help="export local-measure spacetime profiles for one rule")
    common(p)
    p.add_argument("--rule", type=_type_rule)
    p.add_argument("--measures", type=_type_names,
                   help="comma-separated subset of "
                        + ",".join(PROFILE_MEASURES))
    batch(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("analyze", help="measures and decomposition for a CSV of time series")
    common(p)
    p.add_argument("--input", help="CSV with a header row and integer cells")
    p.add_argument("--destination", help="destination column name")
    p.add_argument("--sources", type=_type_names, help="comma-separated source column names")
    p.add_argument("--k", type=_type_positive)
    p.add_argument("--out", help="write the JSON report here (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lattice", help="print the redundancy lattice for r sources")
    common(p)
    p.add_argument("--sources", type=_type_positive, help="number of sources r")
    p.add_argument("--out", help="write the JSON description here")
    p.set_defaults(func=cmd_lattice)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"synpid: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
