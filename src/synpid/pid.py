"""Partial information decomposition with minimum specific information.

The redundancy measure behind everything here scores a collection of source
subsets by the expected minimum specific information about the destination:

    value(node) = sum_x p(x) * min_{A in node} I_spec(X=x; A)
    I_spec(X=x; A) = sum_a p(a|x) * (log2(1/p(x)) - log2(1/p(x|a)))

Destination outcomes with zero probability are skipped (0*log0 convention).
Partial terms come from Mobius inversion down the redundancy lattice, and
the modified information is the partial-term mass on nodes whose subsets all
have two or more members, i.e. information first appearing only in joint
source variables.

Conventions, fixed across the module:
- The destination is the variable with role "destination-next". Sources
  A_1..A_r are the remaining variables in declared order, so in the usual
  (next, hist, left, right) layout the k-step history is A_1.
- A node's subsets are kept in canonical order (size, then members). Where
  a localized value needs one minimizing subset, ties within 1e-12 go to
  the lowest subset index and are flagged, never hidden.

Known and accepted behavior of this redundancy measure: two sources that
each fully identify the destination in different ways still count as fully
redundant (the two-bit copy scores 1 bit at the bottom node), and localized
values can jump discontinuously under an arbitrarily small tilt of the
source weights. ``discontinuity_scan`` exists to surface the second point.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .distributions import JointDistribution, local_mi
from .lattice import Antichain, RedundancyLattice, build_lattice, subset_label

#: Specific-information gaps at or below this are treated as ties.
TIE_TOLERANCE = 1e-12

# Specinfo tables and partial terms per distribution. Distributions are
# immutable, so entries never go stale; they are dropped with the distribution.
_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _destination(dist: JointDistribution) -> int:
    return dist.index_of_role("destination-next")


def _source_columns(dist: JointDistribution, subset) -> tuple[int, ...]:
    """Map 1-based source indices to distribution columns."""
    xi = _destination(dist)
    others = [i for i in range(len(dist.variables)) if i != xi]
    for i in sorted(subset):
        if not 1 <= i <= len(others):
            raise ValueError(
                f"source index {i} out of range; distribution has {len(others)} sources")
    return tuple(others[i - 1] for i in sorted(subset))


def _normalize_subsets(node) -> tuple[frozenset, ...]:
    if isinstance(node, Antichain):
        return node.subsets
    subsets = tuple(frozenset(int(i) for i in s) for s in node)
    if not subsets or any(not s for s in subsets):
        raise ValueError("need at least one nonempty source subset")
    return subsets


def _node_tables(dist: JointDistribution, node):
    """Specinfo tables of the node's subsets (one row each) and destination counts."""
    tables = np.vstack([_specinfo_table(dist, s) for s in _normalize_subsets(node)])
    xi = _destination(dist)
    c_x = np.zeros(dist.variables[xi].arity)
    marginal = dist.marginal_counts((xi,))
    c_x[marginal.column(0)] = marginal.weights
    return tables, c_x


def _specinfo_table(dist: JointDistribution, subset: frozenset) -> np.ndarray:
    """Specific information per destination outcome; NaN where unobserved."""
    memo = _MEMO.setdefault(dist, {})
    key = ("specinfo", subset)
    if key in memo:
        return memo[key]
    xi = _destination(dist)
    cols = _source_columns(dist, subset)
    arity = dist.variables[xi].arity
    xa = dist.marginal_counts((xi,) + cols)
    j = sorted((xi,) + cols).index(xi)
    x_of = xa.column(j)
    a, a_of = xa.group([i for i in range(len(cols) + 1) if i != j])
    c_x = np.bincount(x_of, weights=xa.weights, minlength=arity)
    live = xa.weights > 0
    x_of, c_xa, c_a = x_of[live], xa.weights[live], a.weights[a_of[live]]
    c_x_of = c_x[x_of]
    terms = (c_xa / c_x_of) * (np.log2(c_xa / c_a) - np.log2(c_x_of / dist.total))
    # Each outcome's terms are added in row order, starting from 0.0.
    table = np.bincount(x_of, weights=terms, minlength=arity)
    table[c_x == 0] = np.nan
    memo[key] = table
    return table


def specific_information(dist: JointDistribution, x: int, subset) -> float:
    """I_spec(X=x; A) for the joint source variable named by ``subset``.

    ``subset`` is a collection of 1-based source indices. Asking about an
    unobserved destination outcome is an error.
    """
    subset = frozenset(int(i) for i in subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    xi = _destination(dist)
    if not 0 <= x < dist.variables[xi].arity:
        raise ValueError(f"destination outcome {x} out of range")
    table = _specinfo_table(dist, subset)
    if math.isnan(table[x]):
        raise ValueError(f"destination outcome {x} has zero probability")
    return float(table[x])


def i_min(dist: JointDistribution, node) -> float:
    """Expected minimum specific information over the node's subsets.

    Accepts an Antichain or any iterable of source-index subsets (the
    collection need not be an antichain, which lets callers probe
    monotonicity directly).
    """
    tables, c_x = _node_tables(dist, node)
    observed = c_x > 0
    mins = np.min(tables[:, observed], axis=0)
    return float(np.dot(c_x[observed] / dist.total, mins))


@dataclass(frozen=True)
class ArgminChoice:
    """Which subset minimizes specific information for one destination outcome."""

    outcome: int
    subset_index: int
    specific_info: float
    tied: bool


def argmin_table(dist: JointDistribution, node) -> dict[int, ArgminChoice]:
    """Minimizing subset per observed destination outcome, with tie flags.

    Ties within TIE_TOLERANCE resolve to the lowest subset index in the
    node's canonical order and are reported, not hidden.
    """
    tables, c_x = _node_tables(dist, node)
    out = {}
    for x in np.flatnonzero(c_x > 0).tolist():
        column = tables[:, x]
        best = float(np.min(column))
        near = np.nonzero(column <= best + TIE_TOLERANCE)[0]
        out[x] = ArgminChoice(x, int(near[0]), best, len(near) > 1)
    return out


def local_i_min(dist: JointDistribution, node, observation) -> float:
    """Localized redundancy: local MI carried by the minimizing subset.

    The subset is chosen per destination outcome by ``argmin_table``; the
    returned value is the local mutual information between the destination
    outcome and that subset's observed joint value. Unobserved observations
    are an error.
    """
    subsets = _normalize_subsets(node)
    obs = tuple(observation)
    if len(obs) != len(dist.variables):
        raise ValueError(
            f"observation must cover all {len(dist.variables)} variables, got {obs}")
    if obs not in dist.counts:
        raise ValueError(f"observation {obs} was never counted")
    xi = _destination(dist)
    choice = argmin_table(dist, node)[obs[xi]]
    cols = _source_columns(dist, subsets[choice.subset_index])
    return local_mi(dist, {xi: obs[xi]}, {c: obs[c] for c in cols})


def partial_terms(dist: JointDistribution,
                  lattice: RedundancyLattice) -> tuple[np.ndarray, np.ndarray]:
    """Mobius inversion of node values down the lattice.

    Returns (i_cap, i_partial): the cumulative and per-node values as
    read-only float64 arrays aligned with ``lattice.nodes``. Results are
    memoized per distribution.
    """
    memo = _MEMO.setdefault(dist, {})
    key = ("partial-terms", lattice.r)
    if key in memo:
        return memo[key]
    _destination(dist)
    n_sources = len(dist.variables) - 1
    if lattice.r != n_sources:
        raise ValueError(
            f"lattice over {lattice.r} sources does not fit a distribution "
            f"with {n_sources} source variables")
    # Largest subsets first, so each (x, A) marginal groups a small memoized
    # parent rather than the full joint.
    subsets = {s for node in lattice.nodes for s in node.subsets}
    for s in sorted(subsets, key=lambda s: (-len(s), sorted(s))):
        _specinfo_table(dist, s)
    icap = [i_min(dist, node) for node in lattice.nodes]
    ipart = [0.0] * len(icap)
    for i in range(len(icap)):
        ipart[i] = icap[i] - math.fsum(ipart[j] for j in lattice.below[i])
    values = np.array([icap, ipart])
    values.flags.writeable = False
    memo[key] = tuple(values)
    return memo[key]


@dataclass(frozen=True)
class PidDecomposition:
    """A decomposition: node values aligned with ``lattice.nodes``, and summaries."""

    lattice: RedundancyLattice
    i_cap: np.ndarray = field(repr=False, compare=False)
    i_partial: np.ndarray = field(repr=False, compare=False)
    k: int
    source_names: tuple[str, ...]
    total: float
    m_x: float
    hierarchy: dict[int, float]


def modified_information(dist: JointDistribution, k: int,
                         sources=None) -> PidDecomposition:
    """Decompose I(next; hist, sources) and collect the synergy-only mass.

    The history variable is required and acts as source A_1; the remaining
    sources follow in declared order. ``sources`` may restate their names
    for validation but cannot select a subset.
    """
    xi = _destination(dist)
    hi = dist.index_of_role("destination-history")
    dest = dist.variables[xi]
    hist = dist.variables[hi]
    if k < 1:
        raise ValueError(f"history length k must be >= 1, got {k}")
    if hist.arity != dest.arity ** k:
        raise ValueError(
            f"history arity {hist.arity} does not match k={k} over a "
            f"base-{dest.arity} alphabet")
    declared = [dist.variables[i].name for i in range(len(dist.variables))
                if i != xi and i != hi]
    if sources is not None and list(sources) != declared:
        raise ValueError(
            f"sources {list(sources)} must match the distribution's source "
            f"variables {declared} in order")
    r = 1 + len(declared)
    lattice = build_lattice(r)
    i_cap, i_partial = partial_terms(dist, lattice)
    hierarchy = {o: 0.0 for o in range(1, r + 1)}
    m_x = 0.0
    # Python float adds in node order; a pairwise sum could move a last bit.
    for node, v in zip(lattice.nodes, i_partial.tolist()):
        hierarchy[min(len(s) for s in node)] += v
        if all(len(s) >= 2 for s in node):
            m_x += v
    return PidDecomposition(
        lattice=lattice,
        i_cap=i_cap,
        i_partial=i_partial,
        k=k,
        source_names=(hist.name, *declared),
        total=float(i_cap[-1]),
        m_x=m_x,
        hierarchy=hierarchy,
    )


def decomposition_report(decomposition: PidDecomposition) -> dict:
    """JSON-ready report with canonical antichain labels."""
    lat = decomposition.lattice
    return {
        "format": "synpid-decomposition",
        "version": 1,
        "k": decomposition.k,
        "r": lat.r,
        "sources": list(decomposition.source_names),
        "total_information": decomposition.total,
        "m_x": decomposition.m_x,
        "hierarchy": {str(o): v for o, v in sorted(decomposition.hierarchy.items())},
        "nodes": [
            {"antichain": node.label, "i_cap": cap, "i_partial": part}
            for node, cap, part in zip(lat.nodes, decomposition.i_cap.tolist(),
                                       decomposition.i_partial.tolist())
        ],
    }


@dataclass(frozen=True)
class ScanRow:
    observation: tuple
    value: float
    chosen: str | None
    tied: bool


@dataclass(frozen=True)
class ScanPoint:
    param: float
    average: float
    rows: tuple[ScanRow, ...]


@dataclass(frozen=True)
class ScanJump:
    param_low: float
    param_high: float
    max_abs_change: float
    avg_abs_change: float
    changes: dict[tuple, float]


@dataclass(frozen=True)
class ScanReport:
    node_label: str
    points: tuple[ScanPoint, ...]
    jumps: tuple[ScanJump, ...]

    @property
    def max_jump(self) -> float:
        return max((j.max_abs_change for j in self.jumps), default=0.0)

    @property
    def any_tie(self) -> bool:
        return any(r.tied for p in self.points for r in p.rows)


def discontinuity_scan(builder, params, node, local_fn=None) -> ScanReport:
    """Track localized values across a parameterized family of distributions.

    ``builder`` maps each parameter to a distribution over a fixed support;
    localized values are matched row-by-row between consecutive parameters
    and their changes reported, alongside the change in the average. The
    default local evaluation is local_i_min on ``node``; pass ``local_fn``
    (dist, observation) -> float to scan a different localized quantity.
    """
    node = Antichain(_normalize_subsets(node))
    params = [float(p) for p in params]
    if not params:
        raise ValueError("need at least one parameter value")
    points = []
    for p in params:
        dist = builder(p)
        xi = _destination(dist)
        table = argmin_table(dist, node)
        rows = []
        for obs in sorted(dist.counts):
            if local_fn is None:
                value = local_i_min(dist, node, obs)
                choice = table[obs[xi]]
                chosen = subset_label(node.subsets[choice.subset_index])
                tied = choice.tied
            else:
                value, chosen, tied = float(local_fn(dist, obs)), None, False
            rows.append(ScanRow(obs, value, chosen, tied))
        points.append(ScanPoint(p, i_min(dist, node), tuple(rows)))
    jumps = []
    for lo, hi in zip(points, points[1:]):
        lo_map = {r.observation: r.value for r in lo.rows}
        hi_map = {r.observation: r.value for r in hi.rows}
        if lo_map.keys() != hi_map.keys():
            raise ValueError(
                f"support changed between params {lo.param} and {hi.param}")
        changes = {obs: hi_map[obs] - lo_map[obs] for obs in sorted(lo_map)}
        jumps.append(ScanJump(
            lo.param, hi.param,
            max(abs(c) for c in changes.values()),
            abs(hi.average - lo.average),
            changes))
    return ScanReport(node.label, tuple(points), tuple(jumps))
