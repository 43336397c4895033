"""Command-line front end.

Settings resolve in priority order: explicit flag, then --config JSON (same
keys as the flags), then the SYNPID_SEED environment variable for seeds,
then built-in defaults. Exit codes: 0 success, 2 malformed flags (argparse),
1 any failure after flag parsing.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import eca
from .distributions import count_samples, embed_history, VariableSpec
from .dynamics import DynamicsConfig, active_info_storage, profile_measures, transfer_entropy
from .experiments import ExperimentConfig, export_local_profiles, run_or_demo, run_table1
from .lattice import MAX_SOURCES, build_lattice
from .pid import decomposition_report, modified_information

TABLE1_RULES = (18, 22, 30, 54, 110)


def _type_rule(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"rule must be an integer, got {text!r}")
    if not 0 <= v <= 255:
        raise argparse.ArgumentTypeError(f"rule must be in 0..255, got {v}")
    return v


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
    if not abs(v) < 0.25:
        raise argparse.ArgumentTypeError(f"|delta| must be < 0.25, got {v}")
    return v


def _type_names(text):
    parts = tuple(p.strip() for p in text.split(","))
    if any(not p for p in parts):
        raise argparse.ArgumentTypeError(f"empty name in list {text!r}")
    return parts


def _config_int(key, value) -> int:
    """An int, or a string holding one; booleans and other numbers are refused."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"config value {key!r} must be an integer, got {value!r}")


def _config_number(key, value) -> float:
    """A number, or a string holding one; booleans are refused."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"config value {key!r} must be a number, got {value!r}")


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
        return _config_int(key, self.require(key) if default is None else self.get(key, default))

    def number(self, key, default) -> float:
        """A numeric setting."""
        return _config_number(key, self.get(key, default))

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
        v = tuple(_config_int("rules", r) for r in v)
        for r in v:
            if not 0 <= r <= 255:
                raise ValueError(f"rule must be in 0..255, got {r}")
        return v

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
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _experiment_config(s: Settings, rules) -> ExperimentConfig:
    return ExperimentConfig(
        rules=rules,
        runs=s.integer("runs", 100),
        width=s.integer("width", 200),
        steps=s.integer("steps", 200),
        k=s.integer("k", 16),
        base_seed=s.seed(),
    )


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
    print(report.format_text())
    out = s.get("out")
    if out:
        _write_json(report.to_json_dict(), out)
        print(f"wrote {out}")
    return 0


def cmd_or_demo(args) -> int:
    s = Settings(args)
    delta = s.number("delta", 1e-6)
    result = run_or_demo(delta)
    print(result.format_text())
    out = s.get("out")
    if out:
        _write_json(result.to_json_dict(), out)
        print(f"wrote {out}")
    return 0


def cmd_profile(args) -> int:
    s = Settings(args)
    rule = s.integer("rule")
    config = _experiment_config(s, (rule,))
    measures = s.names("measures", profile_measures(DynamicsConfig(k=1)))
    written = export_local_profiles(rule, config, measures, str(s.require("out")))
    for m in measures:
        print(f"{m}: {written[m]['csv']}, {written[m]['pgm']}")
    return 0


def _dense_map(values):
    mapping: dict[int, int] = {}
    out = []
    for v in values:
        if v not in mapping:
            mapping[v] = len(mapping)
        out.append(mapping[v])
    return out, list(mapping)


def _read_csv_columns(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValueError(f"{path} is empty")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise ValueError(f"duplicate column names in {path}: {header}")
    columns = {h: [] for h in header}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        for h, cell in zip(header, row):
            try:
                columns[h].append(int(cell.strip()))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer cell {cell!r}") from None
    return columns


def cmd_analyze(args) -> int:
    s = Settings(args)
    path = str(s.require("input"))
    dest_name = str(s.require("destination"))
    source_names = s.names("sources")
    if not source_names:
        raise ValueError("missing required setting 'sources' (flag or config)")
    k = s.integer("k", 1)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if dest_name in source_names or len(set(source_names)) != len(source_names):
        raise ValueError("destination and sources must name distinct columns")
    if 1 + len(source_names) > MAX_SOURCES:
        raise ValueError(
            f"{len(source_names)} sources plus the history give r={1 + len(source_names)}, "
            f"over the lattice limit of {MAX_SOURCES}")
    columns = _read_csv_columns(path)
    for name in (dest_name, *source_names):
        if name not in columns:
            raise ValueError(f"no column named {name!r} in {path} "
                             f"(have {sorted(columns)})")
    dest_series, dest_alpha = _dense_map(columns[dest_name])
    alphabets = {dest_name: dest_alpha}
    source_series = []
    for name in source_names:
        series, alpha = _dense_map(columns[name])
        alphabets[name] = alpha
        source_series.append(series)
    base = len(dest_alpha)
    if base < 2:
        raise ValueError(f"destination column {dest_name!r} is constant")
    for name in source_names:
        if len(alphabets[name]) < 2:
            raise ValueError(f"source column {name!r} is constant")
    steps = len(dest_series)
    if steps < k + 2:
        raise ValueError(f"need at least k+2={k + 2} rows, got {steps}")
    hist_name = dest_name + "_hist"
    variables = (
        VariableSpec(dest_name, base, "destination-next"),
        VariableSpec(hist_name, base ** k, "destination-history"),
        *(VariableSpec(name, len(alphabets[name]), "source") for name in source_names),
    )
    samples = []
    for t in range(k - 1, steps - 1):
        row = [dest_series[t + 1], embed_history(dest_series, k, t, base)]
        row.extend(series[t] for series in source_series)
        samples.append(tuple(row))
    dist = count_samples(variables, samples)
    cfg = DynamicsConfig(k=k, destination=dest_name, sources=tuple(source_names))
    te = {}
    for name in source_names:
        others = tuple(n for n in source_names if n != name)
        te[name] = {
            "apparent": transfer_entropy(dist, cfg, name),
            "complete": transfer_entropy(dist, cfg, name, others),
        }
    decomp = modified_information(dist, k)
    report = {
        "format": "synpid-analyze",
        "version": 1,
        "input": path,
        "destination": dest_name,
        "sources": list(source_names),
        "k": k,
        "samples": int(dist.total),
        "alphabets": {name: alpha for name, alpha in alphabets.items()},
        "distinct_states": len(dist),
        "estimation_bias_scale": len(dist) / (2.0 * dist.total * math.log(2.0)),
        "active_info_storage": active_info_storage(dist, cfg),
        "transfer_entropy": te,
        "decomposition": decomposition_report(decomp),
    }
    out = s.get("out")
    if out:
        _write_json(report, out)
        print(f"wrote {out}")
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_lattice(args) -> int:
    s = Settings(args)
    r = s.integer("sources", 3)
    if r < 1:
        raise ValueError(f"need at least one source, got {r}")
    lat = build_lattice(r)
    print(f"r={r}: {len(lat.nodes)} nodes, {len(lat.covers)} covering edges")
    print("nodes (redundant to synergistic):")
    for node in lat.nodes:
        print(f"  {node.label}")
    print("covers:")
    for lo, hi in lat.covers:
        print(f"  {lat.nodes[lo].label} -> {lat.nodes[hi].label}")
    out = s.get("out")
    if out:
        doc = {
            "format": "synpid-lattice",
            "version": 1,
            "r": r,
            "nodes": [n.label for n in lat.nodes],
            "covers": [[lat.nodes[lo].label, lat.nodes[hi].label]
                       for lo, hi in lat.covers],
        }
        _write_json(doc, out)
        print(f"wrote {out}")
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
    p.add_argument("--runs", type=_type_positive)
    p.add_argument("--width", type=_type_positive)
    p.add_argument("--steps", type=_type_positive)
    p.add_argument("--k", type=_type_positive)
    p.add_argument("--threads", type=_type_positive,
                   help="accepted for compatibility; has no effect")
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
                        + ",".join(profile_measures(DynamicsConfig(k=1))))
    p.add_argument("--runs", type=_type_positive)
    p.add_argument("--width", type=_type_positive)
    p.add_argument("--steps", type=_type_positive)
    p.add_argument("--k", type=_type_positive)
    p.add_argument("--threads", type=_type_positive,
                   help="accepted for compatibility; has no effect")
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
