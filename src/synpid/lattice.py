"""Redundancy lattice over collections of source subsets.

Nodes are antichains: collections of nonempty subsets of the source indices
{1..r} in which no subset contains another. The partial order runs from
redundant to synergistic: beta <= alpha iff every subset in alpha has some
subset in beta inside it. The bottom node is all r singletons, the top is
the single full set. Node counts for r = 1, 2, 3, 4 are 1, 4, 18, 166.

The order is computed on up-sets: with the 2^r subsets of {1..r} numbered
by bitmask (source i is bit i-1), bit t of a node's up-set mask is set when
subset t contains one of its members, and beta <= alpha exactly when
up(alpha) & ~up(beta) == 0. One broadcast comparison of the masks gives the
whole order, once per r, and ``below`` holds it. The covering pairs are
reduced from ``below`` when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations, permutations
from operator import or_

import numpy as np

from .eca import _integer

#: Largest r built. r = 5 (7,579 nodes) needs ``below`` in CSR form and an
#: order built in row blocks rather than one dense n x n comparison.
MAX_SOURCES = 4


def subset_label(s) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def source_subset(members) -> frozenset:
    """``members`` as a nonempty frozenset of 1-based source indices.

    Only integers are indices: a float such as 1.5 or a bool is refused.
    """
    try:
        subset = frozenset(_integer("source index", i) for i in members)
    except (TypeError, ValueError):
        raise ValueError(f"source indices must be integers, got {members!r}") from None
    if not subset:
        raise ValueError("source subsets must be nonempty")
    if min(subset) < 1:
        raise ValueError(f"source indices are 1-based, got {sorted(subset)}")
    return subset


def _subset_key(s):
    return (len(s), tuple(sorted(s)))


class Antichain:
    """An immutable, canonically ordered antichain of source subsets."""

    __slots__ = ("subsets",)

    def __init__(self, subsets):
        cleaned = []
        for s in subsets:
            fs = source_subset(s)
            if fs not in cleaned:
                cleaned.append(fs)
        if not cleaned:
            raise ValueError("an antichain needs at least one subset")
        for a, b in permutations(cleaned, 2):
            if a < b:
                raise ValueError(
                    f"not an antichain: {subset_label(a)} is inside {subset_label(b)}")
        object.__setattr__(self, "subsets", tuple(sorted(cleaned, key=_subset_key)))

    def __setattr__(self, name, value):
        raise AttributeError("Antichain is immutable")

    def __iter__(self):
        return iter(self.subsets)

    def __len__(self):
        return len(self.subsets)

    def __eq__(self, other):
        return isinstance(other, Antichain) and self.subsets == other.subsets

    def __hash__(self):
        return hash(self.subsets)

    @property
    def label(self) -> str:
        return "".join(subset_label(s) for s in self.subsets)

    def __repr__(self):
        return f"Antichain({self.label})"


def enumerate_antichains(r: int) -> list[Antichain]:
    """Every antichain of nonempty subsets of {1..r}, by pruned recursion."""
    if r < 1:
        raise ValueError(f"need at least one source, got r={r}")
    subs = sorted(
        (frozenset(c) for n in range(1, r + 1)
         for c in combinations(range(1, r + 1), n)),
        key=_subset_key)
    found: list[Antichain] = []

    def extend(i, chosen):
        if i == len(subs):
            if chosen:
                found.append(Antichain(chosen))
            return
        extend(i + 1, chosen)
        s = subs[i]
        if all(not (s <= c or c <= s) for c in chosen):
            extend(i + 1, chosen + [s])

    extend(0, [])
    return found


def _strictly_below(nodes, r: int) -> np.ndarray:
    """lt[j, i]: node j lies strictly below node i, from the nodes' up-set masks."""
    up_of = [sum(1 << t for t in range(1 << r) if t & m == m) for m in range(1 << r)]
    up = np.array([reduce(or_, (up_of[sum(1 << (i - 1) for i in s)] for s in node))
                   for node in nodes], dtype=np.uint64)
    lt = (up[np.newaxis, :] & ~up[:, np.newaxis]) == 0
    np.fill_diagonal(lt, False)
    return lt


@dataclass(frozen=True)
class RedundancyLattice:
    """Antichain nodes in a fixed topological order, plus order structure.

    ``below[i]`` lists the indices of every node strictly below node i;
    ``covers``, reduced from ``below`` on first read, holds the ascending
    (lower, upper) index pairs of the transitive reduction.
    """

    r: int
    nodes: tuple[Antichain, ...]
    below: tuple[tuple[int, ...], ...]

    def index(self, node: Antichain) -> int:
        return self.nodes.index(node)

    @property
    def bottom(self) -> Antichain:
        return self.nodes[0]

    @property
    def top(self) -> Antichain:
        return self.nodes[-1]

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        lt = np.zeros((len(self.nodes),) * 2, dtype=bool)
        for i, downs in enumerate(self.below):
            lt[list(downs), i] = True
        # lo covers hi when nothing lies strictly between them.
        lo, hi = np.nonzero(lt & ~(lt @ lt))
        return tuple(zip(lo.tolist(), hi.tolist()))


def build_lattice(r: int) -> RedundancyLattice:
    """Enumerate and order the lattice for r sources, once per r; an r that
    is not an integer, a bool among them, is refused."""
    return _build_lattice(_integer("number of sources r", r))


@lru_cache(maxsize=None)
def _build_lattice(r: int) -> RedundancyLattice:
    if r > MAX_SOURCES:
        raise ValueError(f"r={r} sources exceeds the lattice limit of {MAX_SOURCES}")
    raw = enumerate_antichains(r)
    lt = _strictly_below(raw, r)
    # Nodes strictly below have strictly smaller down-sets, so down-set size
    # is a valid topological key; the label breaks ties deterministically.
    down = lt.sum(axis=0).tolist()
    order = sorted(range(len(raw)), key=lambda i: (down[i], raw[i].label))
    below = tuple(tuple(np.flatnonzero(column).tolist())
                  for column in lt[np.ix_(order, order)].T)
    return RedundancyLattice(r, tuple(raw[i] for i in order), below)
