"""Reproduction pipelines: rule tables, the OR localization demo, profiles,
and the analysis of user time series.

The table, demo and analysis pipelines return their JSON report documents as
plain dicts at full precision; ``table1_text`` and ``or_demo_text`` round
them only for reading. Identical configurations produce byte-identical
JSON because every reduction below runs in key-sorted order and reports
serialize with sorted keys and no timestamps.
"""

from __future__ import annotations

import csv
import math
import os
import re
import warnings
from collections.abc import Mapping
from dataclasses import asdict, dataclass

import numpy as np

from . import eca
from .distributions import (JointDistribution, VariableSpec, _count_codes, _first_seen,
                            _radix_multipliers)
from .dynamics import (
    _check_k, _check_steps, active_info_storage, batch_distributions, check_measures,
    grid_sites, profile, transfer_entropy, write_profile_csv, write_profile_pgm,
)
from .lattice import MAX_SOURCES, Antichain
from .pid import (
    argmin_table, decomposition_report, i_min, local_i_min, modified_information,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Batch settings for repeat-run experiments. Run i uses base_seed + i."""

    rules: tuple[int, ...]
    runs: int = 100
    width: int = 200
    steps: int = 200
    k: int = 16
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(map(eca.check_rule, self.rules)))
        if not self.rules:
            raise ValueError("need at least one rule")
        object.__setattr__(self, "base_seed", eca._integer("base_seed", self.base_seed))
        width, steps, _, runs = eca.check_batch(self.width, self.steps, self.base_seed, self.runs)
        for name, value in (("width", width), ("steps", steps), ("runs", runs),
                            ("k", _check_steps(steps, self.k))):
            object.__setattr__(self, name, value)

    def seeds(self) -> tuple[int, ...]:
        return tuple(self.base_seed + i for i in range(self.runs))

    def to_json_dict(self) -> dict:
        return {**asdict(self), "rules": list(self.rules)}


def run_table1(config: ExperimentConfig, threads: int | None = None) -> dict:
    """The ``synpid-table1`` report: hierarchy and modified-information
    summary across rules.

    For each rule: pool config.runs grids, decompose I(next; hist, left,
    right) at k=config.k into partial terms grouped by smallest subset
    size, and report the modified information at both k=config.k and k=1.
    ``threads`` is accepted for compatibility and has no effect.
    """
    return {
        "format": "synpid-table1",
        "version": 1,
        "config": config.to_json_dict(),
        "seeds": list(config.seeds()),
        "rules": [_rule_row(rule, config) for rule in config.rules],
    }


def _rule_row(rule: int, config: ExperimentConfig) -> dict:
    """One rule's row. Its batch is counted as it is simulated, so no grid
    of it is kept, and its distributions are freed on return."""
    dist_k, dist_1 = batch_distributions(rule, config.width, config.steps, config.base_seed,
                                         config.runs, (config.k, 1))
    dec_k = modified_information(dist_k)
    dec_1 = modified_information(dist_1)
    return {
        "rule": rule,
        "k": config.k,
        "pi_by_order": {str(o): v for o, v in sorted(dec_k.hierarchy.items())},
        "m_x": dec_k.m_x,
        "m_x_k1": dec_1.m_x,
        "total_information": dec_k.total,
        "samples": int(dist_k.total),
        "samples_k1": int(dist_1.total),
    }


def table1_text(report: dict) -> str:
    """The table of a ``synpid-table1`` report, rounded to three decimals."""
    k = report["config"]["k"]
    lines = [f"{'rule':>4}  {'pi(o=1)':>8}  {'pi(o=2)':>8}  {'pi(o=3)':>8}  "
             f"{'m_x(k=' + str(k) + ')':>10}  {'m_x(k=1)':>8}"]
    for row in report["rules"]:
        pi = row["pi_by_order"]
        lines.append(
            f"{row['rule']:>4}  {pi['1']:>8.3f}  {pi['2']:>8.3f}  {pi['3']:>8.3f}  "
            f"{row['m_x']:>10.3f}  {row['m_x_k1']:>8.3f}")
    return "\n".join(lines)


# -- OR localization demo ---------------------------------------------------

OR_NODE = Antichain([{1}, {2}])


def check_delta(delta: float) -> float:
    """The OR gate's tilt, refused unless |delta| < 0.25 keeps every row positive."""
    if not abs(delta) < 0.25:
        raise ValueError(f"|delta| must be < 0.25, got {delta}")
    return delta


def or_distribution(delta: float) -> JointDistribution:
    """Analytic OR-gate table with the mixed input rows tilted by delta.

    Bypasses counting: probabilities are set exactly, which is what lets a
    1e-6 tilt act on the decomposition without being rounded away.
    """
    check_delta(delta)
    variables = (
        VariableSpec("x", 2, "destination-next"),
        VariableSpec("a1", 2, "source"),
        VariableSpec("a2", 2, "source"),
    )
    weights = {
        (0, 0, 0): 0.25,
        (1, 0, 1): 0.25 + delta,
        (1, 1, 0): 0.25 - delta,
        (1, 1, 1): 0.25,
    }
    return JointDistribution(variables, weights)


def run_or_demo(delta: float) -> dict:
    """The ``synpid-or-demo`` report: the two-singleton redundancy node
    localized across the OR gate's rows."""
    dist = or_distribution(delta)
    choice, tied = argmin_table(dist, OR_NODE)
    observed = [(a1 | a2, a1, a2) for a1 in (0, 1) for a2 in (0, 1)]
    local = local_i_min(dist, OR_NODE, observed).tolist()
    probability = dist.counts.weights[dist.counts.index(observed)].tolist()
    rows = [{
        "a1": a1, "a2": a2, "x": x,
        "probability": p,
        "chosen_source": f"A{min(OR_NODE.subsets[choice[x]])}",
        "local_value": value,
        "tied": bool(tied[x]),
    } for (x, a1, a2), p, value in zip(observed, probability, local)]
    return {
        "format": "synpid-or-demo",
        "version": 1,
        "delta": delta,
        "node": OR_NODE.label,
        "rows": rows,
        "average": i_min(dist, OR_NODE),
        "any_tie": any(row["tied"] for row in rows),
    }


def or_demo_text(report: dict) -> str:
    """The rows of a ``synpid-or-demo`` report, rounded for reading."""
    lines = [f"localized redundancy at node {report['node']}, delta={report['delta']!r}",
             f"{'a1':>3} {'a2':>3} {'x':>3}  {'p':>10}  {'argmin':>6}  "
             f"{'local':>8}  tied"]
    for row in report["rows"]:
        lines.append(
            f"{row['a1']:>3} {row['a2']:>3} {row['x']:>3}  {row['probability']:>10.6f}  "
            f"{row['chosen_source']:>6}  {row['local_value']:>8.3f}  "
            f"{str(row['tied']).lower()}")
    lines.append(f"average: {report['average']:.6f} bits")
    return "\n".join(lines)


# -- local profiles ---------------------------------------------------------

def export_local_profiles(config: ExperimentConfig, measures, out_dir,
                          threads: int | None = None) -> dict:
    """Write CSV and 16-bit PGM profiles of local measures for the one rule
    of ``config``; a config of several rules is refused.

    Probabilities are pooled over the whole batch, counted as it is
    simulated; the displayed grid is the batch's first run, simulated again,
    so every site's configuration has been counted. Its sites are found
    once and valued for each measure in turn. The output directory is made
    first, so a path that cannot hold it fails before any work. Returns
    {measure: {"csv": path, "pgm": path}}. ``threads`` is accepted for
    compatibility and has no effect.
    """
    measures = check_measures(measures)
    if len(config.rules) != 1:
        raise ValueError(f"profiles are exported for one rule, got rules {list(config.rules)}")
    (rule,) = config.rules
    os.makedirs(out_dir, exist_ok=True)
    (dist_k,) = batch_distributions(rule, config.width, config.steps, config.base_seed,
                                    config.runs, (config.k,))
    sites = grid_sites(eca.run(rule, config.width, config.steps, config.base_seed), config.k)
    written = {}
    for m in measures:
        prof = profile(dist_k, sites, m)
        csv_path = os.path.join(out_dir, f"rule{rule}_{m}.csv")
        pgm_path = os.path.join(out_dir, f"rule{rule}_{m}.pgm")
        write_profile_csv(prof, csv_path)
        write_profile_pgm(prof, pgm_path)
        written[m] = {"csv": csv_path, "pgm": pgm_path}
    return written


# -- user time series -------------------------------------------------------

@dataclass(frozen=True)
class AnalyzeConfig:
    """The columns of one series analysis, checked before any data is read:
    a history length, a destination and distinct named sources, at least
    one and few enough for the redundancy lattice. No source may take the
    destination's name or its history's, ``<destination>_hist``."""

    k: int
    destination: str
    sources: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", _check_k(self.k))
        if not isinstance(self.destination, str) or not self.destination:
            raise ValueError(f"destination must be a nonempty name, got {self.destination!r}")
        if (not isinstance(self.sources, (tuple, list))
                or not all(isinstance(s, str) and s for s in self.sources)):
            raise ValueError(f"sources must be a sequence of nonempty names, "
                             f"got {self.sources!r}")
        object.__setattr__(self, "sources", tuple(self.sources))
        if self.destination in self.sources:
            raise ValueError("destination cannot be one of its own sources: "
                             "names must be distinct")
        if len(set(self.sources)) != len(self.sources):
            raise ValueError(f"duplicate source names: {self.sources}")
        if self.destination + "_hist" in self.sources:
            raise ValueError(f"source name {self.destination + '_hist'!r} is taken by "
                             "the destination's history")
        r = 1 + len(self.sources)
        if r == 1:
            raise ValueError("need at least one source column")
        if r > MAX_SOURCES:
            raise ValueError(f"{r - 1} sources plus the history give r={r}, "
                             f"over the lattice limit of {MAX_SOURCES}")


def read_series(path) -> dict[str, np.ndarray]:
    """The named int64 columns of the CSV file at ``path``: a UTF-8 header
    row of distinct names, optionally after a byte-order mark, then one row
    of integer cells per line, each cell perhaps quoted or padded with
    spaces. Any other line is refused with the file name and line number.

    numpy parses the rows straight from the file. When it refuses them, or
    gives fewer rows than the file has lines (it skips blank ones), a
    line-by-line scan names the first bad line.
    """
    with open(path, encoding="utf-8-sig") as f:
        head = f.readline()
        if not head:
            raise ValueError(f"{path} is empty")
        header = [h.strip() for h in next(csv.reader([head.removesuffix("\n")]))]
        if len(set(header)) != len(header):
            raise ValueError(f"duplicate column names in {path}: {header}")
        ends, last = 0, "\n"
        while chunk := f.read(2 ** 16):
            ends, last = ends + chunk.count("\n"), chunk[-1]
    lines = ends + (last != "\n")
    if not lines:
        return {name: np.empty(0, dtype=np.int64) for name in header}
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads "1.0" as an integer, with only a DeprecationWarning.
            warnings.simplefilter("error")
            data = np.loadtxt(path, delimiter=",", dtype=np.int64, comments=None,
                              quotechar='"', ndmin=2, skiprows=1, encoding="utf-8-sig")
        if data.shape[1] != len(header):
            raise ValueError(f"{data.shape[1]} cells per row")
    except (ValueError, Warning) as exc:
        _scan_rows(path, len(header))
        raise ValueError(f"{path}: {exc}") from None
    if len(data) != lines:
        # A skipped blank line fails the scan; a quoted cell spanning lines passes it.
        _scan_rows(path, len(header))
    return dict(zip(header, data.T))


def _scan_rows(path, width: int) -> None:
    """Refuse the first line after the header of the CSV file at ``path``
    that is not ``width`` integer cells, naming it."""
    with open(path, encoding="utf-8-sig") as f:
        f.readline()
        for lineno, row in enumerate(csv.reader(f), start=2):
            if len(row) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
            for cell in row:
                if not re.fullmatch(r"[+-]?[0-9]+", cell.strip()):
                    raise ValueError(f"{path}:{lineno}: non-integer cell {cell!r}")
                if not -2 ** 63 <= int(cell) < 2 ** 63:
                    raise ValueError(f"{path}:{lineno}: cell {cell!r} is outside the int64 range")


def series_distribution(columns: Mapping,
                        config: AnalyzeConfig) -> tuple[JointDistribution, dict[str, list]]:
    """The pooled (next, hist, sources...) distribution of named integer
    series of equal length, and each named column's distinct values in
    order of first appearance.

    Each column is relabeled 0, 1, ... in that order. Every time t from k-1
    to n-2 gives one sample: the destination at t+1, its k values ending at
    t packed into one history symbol (the value at t in the lowest digit,
    as the module docstring of ``distributions`` states), and each source
    at t.
    """
    series, alphabets = {}, {}
    for name in (config.destination, *config.sources):
        if name not in columns:
            raise ValueError(f"no column named {name!r} (have {sorted(columns)})")
        column = np.asarray(columns[name])
        first, series[name] = _first_seen(column)
        alphabets[name] = column[first].tolist()
    for name, alphabet in alphabets.items():
        if len(alphabet) < 2:
            role = "destination" if name == config.destination else "source"
            raise ValueError(f"{role} column {name!r} is constant")
    dest, k = series[config.destination], config.k
    n, base = len(dest), len(alphabets[config.destination])
    if any(len(series[name]) != n for name in config.sources):
        lengths = [len(column) for column in series.values()]
        raise ValueError(f"columns must have equal lengths, got {lengths}")
    if n < k + 2:
        raise ValueError(f"need at least k+2={k + 2} rows, got {n}")
    variables = (
        VariableSpec(config.destination, base, "destination-next"),
        VariableSpec(config.destination + "_hist", base ** k, "destination-history"),
        *(VariableSpec(name, len(alphabets[name]), "source") for name in config.sources),
    )
    # A joint state space past 64-bit codes is refused before a code can wrap.
    mults = _radix_multipliers([v.arity for v in variables])
    # Each sample's code, added one digit at a time: next, the history's k
    # digits (the value at t lowest), then each source.
    codes = dest[k:].astype(np.int64)
    for j in range(k):
        codes += dest[k - 1 - j:n - 1 - j] * (mults[1] * base ** j)
    for name, mult in zip(config.sources, mults[2:]):
        codes += series[name][k - 1:n - 1] * mult
    return _count_codes(variables, codes), alphabets


def run_analyze(columns: Mapping, config: AnalyzeConfig) -> dict:
    """Storage, transfer and the decomposition of ``series_distribution``:
    the ``synpid-analyze`` report, less its ``input`` field."""
    dist, alphabets = series_distribution(columns, config)
    te = {name: {"apparent": transfer_entropy(dist, name),
                 "complete": transfer_entropy(dist, name,
                                              [o for o in config.sources if o != name])}
          for name in config.sources}
    return {
        "format": "synpid-analyze",
        "version": 1,
        "destination": config.destination,
        "sources": list(config.sources),
        "k": config.k,
        "samples": int(dist.total),
        "alphabets": alphabets,
        "distinct_states": len(dist),
        "estimation_bias_scale": len(dist) / (2.0 * dist.total * math.log(2.0)),
        "active_info_storage": active_info_storage(dist),
        "transfer_entropy": te,
        "decomposition": decomposition_report(modified_information(dist)),
    }
