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
- The destination is the variable with role "destination-next". Source
  A_1 is the k-step history, if the distribution has one, and the remaining
  variables follow in declared order, wherever the history is declared.
- A node's subsets are kept in canonical order (size, then members). Where
  a localized value needs one minimizing subset, ties within 1e-12 go to
  the lowest subset index and are flagged, never hidden.

Known and accepted behavior of this redundancy measure: two sources that
each fully identify the destination in different ways still count as fully
redundant (the two-bit copy scores 1 bit at the bottom node), and localized
values can jump discontinuously under an arbitrarily small tilt of the
source weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import JointDistribution, _dot, history_length, local_mi
from .eca import _integer
from .lattice import Antichain, RedundancyLattice, build_lattice, source_subset

#: Specific-information gaps at or below this are treated as ties.
TIE_TOLERANCE = 1e-12


def _destination(dist: JointDistribution) -> int:
    return dist.index_of_role("destination-next")


def _sources(dist: JointDistribution) -> list[int]:
    """The columns of sources A_1..A_r: the history first, if there is one,
    then the other variables in declared order."""
    xi = _destination(dist)
    others = [i for i in range(len(dist.variables)) if i != xi]
    return sorted(others, key=lambda i: dist.variables[i].role != "destination-history")


def _source_columns(dist: JointDistribution, subset) -> tuple[int, ...]:
    """Map 1-based source indices to distribution columns."""
    others = _sources(dist)
    for i in sorted(subset):
        if not 1 <= i <= len(others):
            raise ValueError(
                f"source index {i} out of range; distribution has {len(others)} sources")
    return tuple(others[i - 1] for i in sorted(subset))


def _normalize_subsets(node) -> tuple[frozenset, ...]:
    if isinstance(node, Antichain):
        return node.subsets
    subsets = tuple(source_subset(s) for s in node)
    if not subsets:
        raise ValueError("need at least one source subset")
    return subsets


def _tables(dist: JointDistribution, subsets):
    """Specinfo tables of ``subsets`` (one row each) and destination counts."""
    tables = np.vstack([_specinfo_table(dist, s) for s in subsets])
    xi = _destination(dist)
    c_x = np.zeros(dist.variables[xi].arity)
    marginal = dist.marginal_counts((xi,))
    c_x[marginal.column(0)] = marginal.weights
    return tables, c_x


def _specinfo_table(dist: JointDistribution, subset: frozenset) -> np.ndarray:
    """Specific information per destination outcome; NaN where unobserved.

    Each (x, a) row of the (x, A) marginal with a positive count adds

        (c_xa / c_x) * (log2(c_xa / c_a) - log2(c_x / total))

    to its outcome's value. Row-sized buffers beyond the marginal's own:
    grouping the marginal onto A holds its sort temporaries and leaves each
    row's position in A; then each row's x and c_a, gathered before A is
    dropped; from there on x and at most two float buffers, in which the
    terms are evaluated in place, each operation as in the formula.
    """
    xi = _destination(dist)
    cols = _source_columns(dist, subset)
    if dist.total == 0:
        raise ValueError("empty distribution")
    arity = dist.variables[xi].arity
    xa = dist.marginal_counts((xi,) + cols)
    j = sorted((xi,) + cols).index(xi)
    a, a_of = xa.group([i for i in range(len(cols) + 1) if i != j])
    x_of, c_xa = xa.column(j), xa.weights
    c_x = np.bincount(x_of, weights=c_xa, minlength=arity)
    # Only constructed distributions carry zero weights; those rows drop out.
    if not (c_xa > 0).all():
        live = c_xa > 0
        x_of, c_xa, a_of = x_of[live], c_xa[live], a_of[live]
    c_a = a.weights[a_of]
    del a, a_of
    log_ratio = np.divide(c_xa, c_a)
    del c_a
    np.log2(log_ratio, out=log_ratio)
    buf = np.take(c_x, x_of)
    buf /= dist.total
    np.log2(buf, out=buf)
    log_ratio -= buf
    # c_x per row is gathered again rather than kept in a third buffer.
    np.take(c_x, x_of, out=buf)
    np.divide(c_xa, buf, out=buf)
    terms = np.multiply(buf, log_ratio, out=log_ratio)
    del buf
    # Each outcome's terms are added in row order, starting from 0.0.
    table = np.bincount(x_of, weights=terms, minlength=arity)
    table[c_x == 0] = np.nan
    return table


def specific_information(dist: JointDistribution, x: int, subset) -> float:
    """I_spec(X=x; A) for the joint source variable named by ``subset``.

    ``subset`` is a collection of 1-based source indices. Asking about an
    unobserved destination outcome is an error.
    """
    subset = source_subset(subset)
    xi = _destination(dist)
    x = _integer("destination outcome", x)
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
    tables, c_x = _tables(dist, _normalize_subsets(node))
    observed = c_x > 0
    mins = np.min(tables[:, observed], axis=0)
    return float(_dot(c_x[observed] / dist.total, mins))


def argmin_table(dist: JointDistribution, node) -> tuple[np.ndarray, np.ndarray]:
    """(choice, tied) over destination outcomes: the index of the subset
    minimizing specific information, -1 where the outcome is unobserved,
    and whether another subset came within TIE_TOLERANCE.

    Ties resolve to the lowest subset index in the node's canonical order
    and are reported, not hidden.
    """
    tables, c_x = _tables(dist, _normalize_subsets(node))
    # Unobserved columns are NaN, so no subset is near their minimum.
    near = tables <= np.min(tables, axis=0) + TIE_TOLERANCE
    choice = np.where(c_x > 0, np.argmax(near, axis=0), -1)
    return choice, np.count_nonzero(near, axis=0) > 1


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
    choice, _ = argmin_table(dist, node)
    cols = _source_columns(dist, subsets[choice[int(obs[xi])]])
    return local_mi(dist, {xi: obs[xi]}, {c: obs[c] for c in cols})


def partial_terms(dist: JointDistribution,
                  lattice: RedundancyLattice) -> tuple[np.ndarray, np.ndarray]:
    """Mobius inversion of node values down the lattice.

    Returns (i_cap, i_partial): the cumulative and per-node values as
    read-only float64 arrays aligned with ``lattice.nodes``. Each subset's
    specinfo table is computed once per call, and each node is valued from
    its subsets' rows as ``i_min`` values it.
    """
    _destination(dist)
    n_sources = len(dist.variables) - 1
    if lattice.r != n_sources:
        raise ValueError(
            f"lattice over {lattice.r} sources does not fit a distribution "
            f"with {n_sources} source variables")
    # Largest subsets first, so each (x, A) marginal groups a small memoized
    # parent rather than the full joint.
    subsets = sorted({s for node in lattice.nodes for s in node},
                     key=lambda s: (-len(s), sorted(s)))
    row = {s: i for i, s in enumerate(subsets)}
    tables, c_x = _tables(dist, subsets)
    observed = c_x > 0
    p_x, tables = c_x[observed] / dist.total, tables[:, observed]
    icap = [float(_dot(p_x, np.min(tables[[row[s] for s in node]], axis=0)))
            for node in lattice.nodes]
    ipart = [0.0] * len(icap)
    for i in range(len(icap)):
        ipart[i] = icap[i] - math.fsum(ipart[j] for j in lattice.below[i])
    values = np.array([icap, ipart])
    values.flags.writeable = False
    return tuple(values)


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


def modified_information(dist: JointDistribution) -> PidDecomposition:
    """Decompose I(next; hist, sources) and collect the synergy-only mass.

    The history variable is required and acts as source A_1; the remaining
    sources follow in declared order. k is read from the history's arity.
    """
    k = history_length(dist)
    names = tuple(dist.variables[i].name for i in _sources(dist))
    r = len(names)
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
        source_names=names,
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
