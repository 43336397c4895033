"""Command-line front end.

One table per command declares its settings, in flag order: each one's
parser, the flag's extra check, its default and its help. The table builds
the flags and resolves each setting before any work starts, in priority
order: explicit flag, then --config JSON (keys are the command's settings,
plus seed; any other key is refused), then the default. The default seed of
the commands that draw grids is the SYNPID_SEED environment variable, then 0.
Exit codes: 0 success, 2 malformed flags (argparse), 1 any failure after
flag parsing, a failed write to stdout among them.

``main`` is the in-process API and returns the exit code. ``run`` is the
process entry (``python -m synpid.cli`` and the ``synpid`` script): once
``main`` has closed every output file and flushed stdout, it flushes both
streams and ends the process with ``os._exit``, skipping interpreter
teardown, so atexit hooks that other code registers do not run. Malformed
flags and ``--help`` leave through argparse's ``SystemExit`` as usual.
"""

from __future__ import annotations

import os

# One BLAS thread: OpenBLAS starts a worker per extra core, which spins and synpid never uses.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import sys

from . import eca
from .dynamics import PROFILE_MEASURES
from .experiments import (
    AnalyzeConfig, ExperimentConfig, check_delta, export_local_profiles, or_demo_text,
    read_series, run_analyze, run_or_demo, run_table1, table1_text,
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


REQUIRED = object()  # the default of a setting that a flag or the config must give


def _env_seed() -> int:
    """The seed when neither flag nor config gives one: SYNPID_SEED, then 0."""
    return _parsed("SYNPID_SEED", _integer, os.environ.get("SYNPID_SEED", "0"))


def _resolve(args, settings) -> dict:
    """Each of the command's settings: its flag, else its config value read by
    its parser, else its default (called, if it is a function).

    A flag arrives read by its argparse type; a config value's range is left
    to the library. A config key that is no setting of the command is refused.
    """
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8-sig") as f:
            config = json.load(f)
        if not isinstance(config, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    for key in config:
        if key not in settings and key != "seed":
            raise ValueError(f"config key {key!r} is not a setting of {args.command} "
                             f"(settings: {', '.join({'seed': 0, **settings})})")
    values = {}
    for key, (parse, _, default, _) in settings.items():
        v = getattr(args, key)
        if v is None and config.get(key) is not None:
            v = _parsed(f"config value {key!r}", parse, config[key])
        if v is None:
            if default is REQUIRED:
                raise ValueError(f"missing required setting {key!r} (flag or config)")
            v = default() if callable(default) else default
        values[key] = v
    return values


def _check_out(path):
    """Refuse, before any work, an output path whose directory does not exist."""
    directory = os.path.dirname(path or "")
    if directory and not os.path.isdir(directory):
        raise ValueError(f"cannot write {path}: no directory {directory}")


def _write_json(doc, path):
    """Write a JSON report to ``path``, if one is given."""
    if path:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {path}")


def _experiment_config(rules, seed, geometry) -> ExperimentConfig:
    """Only the settings given reach the config; it holds the defaults."""
    given = {key: v for key, v in geometry.items() if v is not None}
    return ExperimentConfig(rules=rules, base_seed=seed, **given)


def cmd_ca_run(seed, rule, width, steps, out) -> int:
    _check_out(out + ".pgm")
    grid = eca.run(rule, width, steps, seed)
    eca.write_pgm(grid, out + ".pgm")
    eca.write_csv(grid, out + ".csv")
    print(f"wrote {out}.pgm and {out}.csv (rule {rule}, seed {grid.seed})")
    return 0


def cmd_table1(seed, rules, threads, out, **geometry) -> int:
    _check_out(out)
    report = run_table1(_experiment_config(rules, seed, geometry))
    print(table1_text(report))
    _write_json(report, out)
    return 0


def cmd_or_demo(delta, out) -> int:
    _check_out(out)
    report = run_or_demo(delta)
    print(or_demo_text(report))
    _write_json(report, out)
    return 0


def cmd_profile(seed, rule, measures, threads, out, **geometry) -> int:
    config = _experiment_config((rule,), seed, geometry)
    written = export_local_profiles(config, measures, out)
    for m in measures:
        print(f"{m}: {written[m]['csv']}, {written[m]['pgm']}")
    return 0


def cmd_analyze(input, destination, sources, k, out) -> int:
    config = AnalyzeConfig(k, destination, sources)
    _check_out(out)
    report = {"input": input, **run_analyze(read_series(input), config)}
    if out:
        _write_json(report, out)
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_lattice(sources, out) -> int:
    _check_out(out)
    r = sources
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
    }, out)
    return 0


# Each command's settings in flag order, name: (parser, the flag's extra check,
# default, help). The parser reads both the flag's text and a config value.
SEED = (_integer, None, _env_seed, "base seed (default: SYNPID_SEED env, then 0)")
RULE = (_integer, eca.check_rule, REQUIRED, None)
REPORT = (str, None, None, "write the JSON report here")
BATCH = {key: (_integer, _positive, None, None) for key in ("runs", "width", "steps", "k")}
BATCH["threads"] = (_integer, _positive, None, "accepted for compatibility; has no effect")

COMMANDS = {
    "ca-run": (cmd_ca_run, "simulate one grid and export PGM + CSV", {
        "seed": SEED, "rule": RULE,
        "width": (_integer, _positive, 200, None),
        "steps": (_integer, _positive, 200, None),
        "out": (str, None, REQUIRED, "output path prefix (writes .pgm and .csv)"),
    }),
    "table1": (cmd_table1, "hierarchy and modified-information table across rules", {
        "seed": SEED,
        "rules": (_integers, lambda v: tuple(map(eca.check_rule, v)), TABLE1_RULES,
                  f"comma-separated rules (default {','.join(map(str, TABLE1_RULES))})"),
        **BATCH, "out": REPORT,
    }),
    "or-demo": (cmd_or_demo, "localized redundancy across the tilted OR gate", {
        "delta": (_number, check_delta, 1e-6, "tilt of the mixed rows (default 1e-6); "
                                              "write negatives as --delta=-1e-6"),
        "out": REPORT,
    }),
    "profile": (cmd_profile, "export local-measure spacetime profiles for one rule", {
        "seed": SEED, "rule": RULE,
        "measures": (_names, None, PROFILE_MEASURES,
                     "comma-separated subset of " + ",".join(PROFILE_MEASURES)),
        **BATCH, "out": (str, None, REQUIRED, "output directory"),
    }),
    "analyze": (cmd_analyze, "measures and decomposition for a CSV of time series", {
        "input": (str, None, REQUIRED, "CSV with a header row and integer cells"),
        "destination": (str, None, REQUIRED, "destination column name"),
        "sources": (_names, None, REQUIRED, "comma-separated source column names"),
        "k": (_integer, _positive, 1, None),
        "out": (str, None, None, "write the JSON report here (default: stdout)"),
    }),
    "lattice": (cmd_lattice, "print the redundancy lattice for r sources", {
        "sources": (_integer, _positive, 3, "number of sources r"),
        "out": (str, None, None, "write the JSON description here"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synpid",
        description="Information dynamics and synergy-based information "
                    "modification for discrete processes and cellular automata.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, settings) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON file supplying any of this command's settings")
        # Every command takes --seed; those that draw no grid never read it.
        for key, (parse, check, _, text) in {"seed": SEED, **settings}.items():
            p.add_argument("--" + key, type=_flag(parse, check) if check else _flag(parse),
                           help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, _, settings = COMMANDS[args.command]
    try:
        code = func(**_resolve(args, settings))
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except Exception as exc:
        print(f"synpid: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Run ``main`` on ``sys.argv``, flush stdout and stderr, and end the
    process with its exit code, without interpreter teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass  # main reported the failed write and returned 1
    os._exit(code)


if __name__ == "__main__":
    run()
