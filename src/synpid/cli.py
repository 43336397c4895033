"""Command-line front end.

Settings resolve in priority order: explicit flag, then --config JSON (same
keys as the flags), then the SYNPID_SEED environment variable for seeds,
then built-in defaults; one parser per kind of setting reads all three.
Exit codes: 0 success, 2 malformed flags (argparse), 1 any failure after
flag parsing.
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


def _number(value, cast=float, kind="a number"):
    """``cast(value)`` for text or a JSON number; booleans, and floats when
    ``cast`` is int, are refused."""
    if isinstance(value, (str, int, cast)) and not isinstance(value, bool):
        try:
            return cast(value)
        except ValueError:
            pass
    raise ValueError(f"must be {kind}, got {value!r}")


def _integer(value) -> int:
    """An integer from text or a JSON number; booleans and fractions are refused."""
    return _number(value, int, "an integer")


def _integers(value) -> tuple[int, ...]:
    """Integers from comma-separated text, a JSON list or one JSON number."""
    parts = value.split(",") if isinstance(value, str) else value
    return tuple(map(_integer, parts if isinstance(parts, (list, tuple)) else [parts]))


def _names(value) -> tuple[str, ...]:
    """Stripped names from comma-separated text or a JSON list of strings; none may be empty."""
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)) or not all(isinstance(p, str) for p in parts):
        raise ValueError(f"must be a string or a list of strings, got {value!r}")
    names = tuple(p.strip() for p in parts)
    if not all(names):
        raise ValueError(f"must be a list of nonempty names, got {value!r}")
    return names


def _positive(value: int) -> int:
    if value < 1:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def _flag(parse, check=lambda value: value):
    """An argparse type: the flag's text read by ``parse`` and passed to
    ``check``, either of whose ValueErrors makes the flag malformed."""
    def read(text):
        try:
            return check(parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def _parsed(where: str, parse, value):
    """``parse(value)``, its ValueError prefixed with where the value came from."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None


class Settings:
    """Flag > config-file > environment/default resolution for one command.

    A flag arrives read by its argparse type and a config value is read by the
    same parser here; a config value's range is left to the library."""

    def __init__(self, args):
        self.args = vars(args)
        self.config = {}
        path = self.args.get("config")
        if path:
            with open(path, encoding="utf-8-sig") as f:
                self.config = json.load(f)
            if not isinstance(self.config, dict):
                raise ValueError(f"config file {path} must hold a JSON object")

    def get(self, key, parse, default=None):
        """The flag's value, else the config value read by ``parse``, else ``default``."""
        v = self.args.get(key)
        if v is None and self.config.get(key) is not None:
            v = _parsed(f"config value {key!r}", parse, self.config[key])
        return default if v is None else v

    def require(self, key, parse):
        v = self.get(key, parse)
        if v is None:
            raise ValueError(f"missing required setting {key!r} (flag or config)")
        return v

    def seed(self) -> int:
        v = self.get("seed", _integer)
        env = os.environ.get("SYNPID_SEED", "0")
        return _parsed("SYNPID_SEED", _integer, env) if v is None else v


def _write_json(doc, path):
    """Write a JSON report to ``path``, if one is given."""
    if path:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {path}")


def _experiment_config(s: Settings, rules) -> ExperimentConfig:
    """Only the settings given reach the config; it holds the defaults."""
    given = {key: v for key in ("runs", "width", "steps", "k")
             if (v := s.get(key, _integer)) is not None}
    return ExperimentConfig(rules=rules, base_seed=s.seed(), **given)


def cmd_ca_run(args) -> int:
    s = Settings(args)
    rule = s.require("rule", _integer)
    grid = eca.run(rule, s.get("width", _integer, 200), s.get("steps", _integer, 200), s.seed())
    out = s.require("out", str)
    eca.write_pgm(grid, out + ".pgm")
    eca.write_csv(grid, out + ".csv")
    print(f"wrote {out}.pgm and {out}.csv (rule {rule}, seed {grid.seed})")
    return 0


def cmd_table1(args) -> int:
    s = Settings(args)
    config = _experiment_config(s, s.get("rules", _integers, TABLE1_RULES))
    report = run_table1(config)
    print(table1_text(report))
    _write_json(report, s.get("out", str))
    return 0


def cmd_or_demo(args) -> int:
    s = Settings(args)
    delta = s.get("delta", _number, 1e-6)
    report = run_or_demo(delta)
    print(or_demo_text(report))
    _write_json(report, s.get("out", str))
    return 0


def cmd_profile(args) -> int:
    s = Settings(args)
    rule = s.require("rule", _integer)
    config = _experiment_config(s, (rule,))
    measures = s.get("measures", _names, PROFILE_MEASURES)
    written = export_local_profiles(rule, config, measures, s.require("out", str))
    for m in measures:
        print(f"{m}: {written[m]['csv']}, {written[m]['pgm']}")
    return 0


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """The header row and the (rows, columns) int64 cells of a CSV file.

    numpy parses the cells. When it refuses them, or would skip a blank
    line, a line-by-line scan names the first bad line.
    """
    with open(path, encoding="utf-8-sig") as f:
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
    path = s.require("input", str)
    destination = s.require("destination", str)
    sources = s.require("sources", _names)
    config = AnalyzeConfig(s.get("k", _integer, 1), destination, sources)
    header, data = _read_csv(path)
    report = {"input": path, **run_analyze(dict(zip(header, data.T)), config)}
    if s.get("out", str):
        _write_json(report, s.get("out", str))
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_lattice(args) -> int:
    s = Settings(args)
    r = s.get("sources", _integer, 3)
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
    }, s.get("out", str))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synpid",
        description="Information dynamics and synergy-based information "
                    "modification for discrete processes and cellular automata.")
    sub = parser.add_subparsers(dest="command", required=True)
    rule, positive = _flag(_integer, eca.check_rule), _flag(_integer, _positive)

    def common(p):
        p.add_argument("--config", help="JSON file supplying any of this command's settings")
        p.add_argument("--seed", type=_flag(_integer),
                       help="base seed (default: SYNPID_SEED env, then 0)")

    def batch(p):
        for flag in ("--runs", "--width", "--steps", "--k"):
            p.add_argument(flag, type=positive)
        p.add_argument("--threads", type=positive,
                       help="accepted for compatibility; has no effect")

    p = sub.add_parser("ca-run", help="simulate one grid and export PGM + CSV")
    common(p)
    p.add_argument("--rule", type=rule)
    p.add_argument("--width", type=positive)
    p.add_argument("--steps", type=positive)
    p.add_argument("--out", help="output path prefix (writes .pgm and .csv)")
    p.set_defaults(func=cmd_ca_run)

    p = sub.add_parser("table1", help="hierarchy and modified-information table across rules")
    common(p)
    p.add_argument("--rules", type=_flag(_integers, lambda v: tuple(map(eca.check_rule, v))),
                   help=f"comma-separated rules (default {','.join(map(str, TABLE1_RULES))})")
    batch(p)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("or-demo", help="localized redundancy across the tilted OR gate")
    common(p)
    p.add_argument("--delta", type=_flag(_number, check_delta),
                   help="tilt of the mixed rows (default 1e-6); "
                        "write negatives as --delta=-1e-6")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_or_demo)

    p = sub.add_parser("profile", help="export local-measure spacetime profiles for one rule")
    common(p)
    p.add_argument("--rule", type=rule)
    p.add_argument("--measures", type=_flag(_names),
                   help="comma-separated subset of " + ",".join(PROFILE_MEASURES))
    batch(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("analyze", help="measures and decomposition for a CSV of time series")
    common(p)
    p.add_argument("--input", help="CSV with a header row and integer cells")
    p.add_argument("--destination", help="destination column name")
    p.add_argument("--sources", type=_flag(_names), help="comma-separated source column names")
    p.add_argument("--k", type=positive)
    p.add_argument("--out", help="write the JSON report here (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lattice", help="print the redundancy lattice for r sources")
    common(p)
    p.add_argument("--sources", type=positive, help="number of sources r")
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
