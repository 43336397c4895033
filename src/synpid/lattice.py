"""Redundancy lattice over collections of source subsets.

Nodes are antichains: collections of nonempty subsets of the source indices
{1..r} in which no subset contains another. The partial order runs from
redundant to synergistic: beta <= alpha iff every subset in alpha has some
subset in beta inside it. The bottom node is all r singletons, the top is
the single full set. Node counts for r = 1, 2, 3, 4 are 1, 4, 18, 166.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations

Subset = frozenset

#: Largest r the pairwise order below can build in reasonable time; r = 5
#: has 7,579 nodes and would take minutes.
MAX_SOURCES = 4


def subset_label(s) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def _subset_key(s):
    return (len(s), tuple(sorted(s)))


class Antichain:
    """An immutable, canonically ordered antichain of source subsets."""

    __slots__ = ("subsets",)

    def __init__(self, subsets):
        cleaned = []
        for s in subsets:
            fs = frozenset(int(i) for i in s)
            if not fs:
                raise ValueError("antichain subsets must be nonempty")
            if min(fs) < 1:
                raise ValueError(f"source indices are 1-based, got {sorted(fs)}")
            if fs not in cleaned:
                cleaned.append(fs)
        if not cleaned:
            raise ValueError("an antichain needs at least one subset")
        for a in cleaned:
            for b in cleaned:
                if a != b and a <= b:
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


def below_or_equal(beta, alpha) -> bool:
    """beta precedes alpha: every subset in alpha shrinks to one in beta."""
    return all(any(b <= a for b in beta) for a in alpha)


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


@dataclass(frozen=True)
class RedundancyLattice:
    """Antichain nodes in a fixed topological order, plus order structure.

    ``below[i]`` lists the indices of every node strictly below node i, and
    ``covers`` holds (lower, upper) index pairs of the transitive reduction.
    ``i_cap``/``i_partial`` are empty until a decomposition fills a copy in.
    """

    r: int
    nodes: tuple[Antichain, ...]
    below: tuple[tuple[int, ...], ...]
    covers: tuple[tuple[int, int], ...]
    i_cap: dict = field(default=None, compare=False)
    i_partial: dict = field(default=None, compare=False)

    def index(self, node: Antichain) -> int:
        return self.nodes.index(node)

    @property
    def bottom(self) -> Antichain:
        return self.nodes[0]

    @property
    def top(self) -> Antichain:
        return self.nodes[-1]

    def with_values(self, i_cap, i_partial) -> "RedundancyLattice":
        i_cap, i_partial = dict(i_cap), dict(i_partial)
        expected = set(self.nodes)
        for name, values in (("i_cap", i_cap), ("i_partial", i_partial)):
            if set(values) != expected:
                raise ValueError(f"{name} keys must cover every lattice node")
        return replace(self, i_cap=i_cap, i_partial=i_partial)


@lru_cache(maxsize=None)
def build_lattice(r: int) -> RedundancyLattice:
    """Enumerate, order, and reduce the lattice for r sources."""
    if r > MAX_SOURCES:
        raise ValueError(f"r={r} sources exceeds the lattice limit of {MAX_SOURCES}")
    raw = enumerate_antichains(r)
    n = len(raw)
    strictly_below = []
    for i, alpha in enumerate(raw):
        strictly_below.append({
            j for j, beta in enumerate(raw)
            if j != i and below_or_equal(beta, alpha)
        })
    # Nodes strictly below have strictly smaller down-sets, so down-set size
    # is a valid topological key; the label breaks ties deterministically.
    order = sorted(range(n), key=lambda i: (len(strictly_below[i]), raw[i].label))
    position = {old: new for new, old in enumerate(order)}
    nodes = tuple(raw[old] for old in order)
    below = tuple(
        tuple(sorted(position[j] for j in strictly_below[old]))
        for old in order)
    covers = []
    for hi, lows in enumerate(below):
        lows_set = set(lows)
        for lo in lows:
            if not any(lo in below[mid] for mid in lows_set if mid != lo):
                covers.append((lo, hi))
    return RedundancyLattice(r, nodes, below, tuple(sorted(covers)))
