"""Joint distributions over small discrete alphabets, held in sorted arrays.

Estimation is plug-in maximum likelihood throughout: probabilities are raw
count ratios with no bias correction, smoothing, or shrinkage. That choice is
deliberate and load-bearing. Averages follow the 0*log(0) = 0 convention, so
unobserved configurations simply drop out of sums, but asking for the local
value of a configuration that was never counted is an error rather than
-inf. All logarithms are base 2 and all returned quantities are in bits.

A distribution is two read-only arrays: the sorted packed codes of its
distinct sample tuples (first variable in the lowest digit) and their
weights. Every grouping works on the codes; the tuples are decoded only
when asked for. Counts are integers on every empirical path; analytically
constructed distributions (exact gate tables, tilted families) may carry
real-valued weights instead, with the same invariant that the stored total
equals the sum of counts. ``counts`` and ``marginal_counts`` are read-only
mapping views. Every reduction goes through one memoized group-by in code
order, so nothing derived can go stale and results do not depend on
insertion order or merge order. That is what makes repeated runs
byte-identical.

A destination's history is one symbol: the k most recent values of its
series, packed with the most recent value in the lowest digit,

    symbol = series[t] + base * series[t-1] + ... + base**(k-1) * series[t-k+1]

Callers pack whole series at once (the automaton packers in ``dynamics``,
``series_distribution`` in ``experiments``); ``history_length`` reads k
back from the arities.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .eca import _integer

ROLES = ("destination-next", "destination-history", "source")


@dataclass(frozen=True)
class VariableSpec:
    """One named variable: its alphabet size and its role in the dynamics."""

    name: str
    arity: int
    role: str = "source"

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be nonempty")
        object.__setattr__(self, "arity", _integer("arity", self.arity))
        if self.arity < 2:
            raise ValueError(f"arity must be >= 2, got {self.arity}")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")


def _radix_multipliers(arities: Sequence[int]) -> list[int]:
    mults, m = [], 1
    for a in arities:
        mults.append(m)
        m *= a
    if m >= 2 ** 62:
        raise ValueError("joint state space too large to pack into 64-bit codes")
    return mults


class Marginal(Mapping):
    """Read-only {sample tuple: count} view over two read-only arrays.

    Built from the sorted, distinct packed codes of the tuples (first column
    in the lowest digit) and their counts, ``weights``. ``column(j)`` decodes
    one column; ``symbols``, the tuples as an (m, ncols) matrix in code
    order, is decoded on first use and kept. ``index`` finds many tuples
    with one binary search.
    """

    def __init__(self, arities: Sequence[int], codes: np.ndarray, weights: np.ndarray):
        self.arities = np.array(arities, dtype=np.int64)
        self._mults = np.array(_radix_multipliers(arities), dtype=np.int64)
        self._codes, self.weights = codes, weights
        for arr in (self.arities, self._mults, codes, weights):
            arr.flags.writeable = False

    def __reduce__(self):
        return Marginal, (self.arities.tolist(), self._codes, self.weights)

    def column(self, j: int) -> np.ndarray:
        """Column j of the tuples, decoded from the codes."""
        part = self._codes // self._mults[j] if j else self._codes
        return part % self.arities[j] if j < len(self.arities) - 1 else part

    @functools.cached_property
    def symbols(self) -> np.ndarray:
        """The tuples as a read-only (m, ncols) matrix in code order."""
        symbols = np.empty((len(self._codes), len(self.arities)), dtype=np.int64)
        for j in range(len(self.arities)):
            symbols[:, j] = self.column(j)
        symbols.flags.writeable = False
        return symbols

    def group(self, positions: Sequence[int]) -> tuple["Marginal", np.ndarray]:
        """These counts summed onto the columns at ``positions`` (ascending,
        nonempty), and the position of each of this view's rows in the result.

        Each run of consecutive positions [lo, hi) is one slice of digits
        of the codes, codes // mults[lo] % (mults[hi] // mults[lo]), so the
        result's codes come from these codes alone.
        """
        positions = list(positions)
        bounds = [*self._mults.tolist(), math.prod(self.arities.tolist())]
        codes, scale = None, 1
        for lo, hi in _runs(positions):
            part = self._codes // bounds[lo] if lo else self._codes
            if hi < len(self.arities):
                part = part % (bounds[hi] // bounds[lo])
            if codes is None:
                codes = part
            else:
                # Only a first run spanning every column is the codes
                # themselves, so both arrays here are new.
                part *= scale
                codes += part
            scale *= bounds[hi] // bounds[lo]
        del part
        return _grouped(self.arities[positions].tolist(), codes, self.weights)

    def index(self, rows) -> np.ndarray:
        """Position of each row of an (m, ncols) symbol matrix; -1 if unobserved,
        not whole or not a number (as in a dict: 1.0 finds 1, 0.5 and "1" nothing).
        An object array is judged row by row, as ``get(tuple(row))`` would.
        Rows that are not such a matrix are refused."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.arities):
            raise ValueError(f"rows must be an (m, {len(self.arities)}) matrix of symbols, "
                             f"got shape {rows.shape}")
        if rows.dtype == object:
            return np.array([self._index(np.asarray([row.tolist()]))[0] for row in rows],
                            dtype=np.intp)
        return self._index(rows)

    def _index(self, rows: np.ndarray) -> np.ndarray:
        if not len(self._codes) or rows.dtype.kind not in "biuf":
            return np.full(len(rows), -1)
        if rows.dtype.kind == "f":
            rows = np.where((rows == np.floor(rows)) & (rows >= 0) & (rows < self.arities),
                            rows, -1)
        rows = rows.astype(np.int64, copy=False)
        codes = rows @ self._mults
        pos = np.searchsorted(self._codes, codes).clip(max=len(self._codes) - 1)
        hit = ((rows >= 0) & (rows < self.arities)).all(axis=1) & (self._codes[pos] == codes)
        return np.where(hit, pos, -1)

    def __getitem__(self, key):
        pos = self.index([key])[0] if np.shape(key) == self.arities.shape else -1
        if pos < 0:
            raise KeyError(key)
        return self.weights[pos].item()

    def __iter__(self):
        return map(tuple, self.symbols.tolist())

    def __len__(self):
        return len(self.weights)


def _runs(positions: list[int]) -> list[tuple[int, int]]:
    """Ascending positions as maximal runs [lo, hi) of consecutive ones."""
    runs = []
    for p in positions:
        if runs and runs[-1][1] == p:
            runs[-1] = (runs[-1][0], p + 1)
        else:
            runs.append((p, p + 1))
    return runs


def _grouped(arities, codes: np.ndarray, weights: np.ndarray) -> tuple[Marginal, np.ndarray]:
    """Weights summed over equal packed codes, in code order, keeping their
    dtype, and the position of each code's group.

    Dropping the lowest digits of sorted codes keeps them sorted, and
    dropping the highest leaves a few sorted runs; the stable sort takes
    either in linear time. The sums add each group's weights in row order.

    Row-sized buffers beside ``codes``: the sort order, the ordered codes and
    a one-byte mask of group starts until the distinct codes are taken;
    then the order, the group numbers in sorted order and the inverse they
    are scattered into, which alone is left.
    """
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    first = np.empty(len(codes), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    del ordered
    group = np.cumsum(first, dtype=np.intp)
    del first
    group -= 1
    inverse = np.empty(len(codes), dtype=np.intp)
    inverse[order] = group
    del order, group
    sums = np.bincount(inverse, weights=weights).astype(weights.dtype, copy=False)
    return Marginal(arities, distinct, sums), inverse


def _first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct value's first appearance, in order of
    appearance, and each value's rank in that order. ``np.minimum.at`` finds
    the first indices without the stable sort of ``return_index``."""
    distinct, inverse = np.unique(values, return_inverse=True)
    first = np.full(len(distinct), len(values))
    np.minimum.at(first, inverse, np.arange(len(values)))
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


class JointDistribution:
    """Immutable plug-in joint distribution.

    ``counts`` maps sample tuples (one symbol per variable, in variable
    order) to nonnegative counts. ``total`` is their sum, taken in the
    caller's order.
    """

    def __init__(self, variables: Sequence[VariableSpec],
                 counts: Mapping[tuple, float] | None = None):
        variables = tuple(variables)
        counts = dict(counts) if counts else {}
        for key, c in counts.items():
            if len(key) != len(variables):
                raise ValueError(
                    f"sample tuple {key!r} has wrong length, expected {len(variables)}")
            for v, spec in zip(key, variables):
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise ValueError(f"symbol {v!r} in {key!r} must be an integer")
                if not 0 <= v < spec.arity:
                    raise ValueError(
                        f"symbol {v!r} in {key!r} out of range for variable {spec.name!r} "
                        f"(arity {spec.arity})")
            if (isinstance(c, bool) or not isinstance(c, (int, float, np.integer, np.floating))
                    or not 0 <= c < math.inf):
                raise ValueError(
                    f"count for {key!r} must be a finite nonnegative number, got {c!r}")
        integral = all(isinstance(c, (int, np.integer)) for c in counts.values())
        arities = [v.arity for v in variables]
        keys = np.array(list(counts), dtype=np.int64).reshape(len(counts), len(variables))
        view, _ = _grouped(
            arities, keys @ np.array(_radix_multipliers(arities), dtype=np.int64),
            np.array(list(counts.values()), dtype=np.int64 if integral else np.float64))
        self._setup(variables, view, float(sum(counts.values())))

    @classmethod
    def _from_counts(cls, variables, counts: Marginal, total: float) -> "JointDistribution":
        """Build from a view of already checked counts over ``variables``."""
        dist = cls.__new__(cls)
        dist._setup(tuple(variables), counts, total)
        return dist

    def _setup(self, variables, counts: Marginal, total: float):
        if not variables:
            raise ValueError("a distribution needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        self.__dict__.update(variables=variables, total=total, counts=counts,
                             _marginals={tuple(range(len(variables))): counts})

    def __setattr__(self, name, value):
        raise AttributeError("JointDistribution is immutable")

    def __reduce__(self):
        # The memoized marginals are left out; they regroup from the counts.
        return JointDistribution._from_counts, (self.variables, self.counts, self.total)

    # -- basic introspection ------------------------------------------------

    def __len__(self):
        return len(self.counts)

    def index_of(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise ValueError(f"no variable named {name!r}")

    def index_of_role(self, role: str) -> int:
        hits = [i for i, v in enumerate(self.variables) if v.role == role]
        if len(hits) != 1:
            raise ValueError(f"expected exactly one {role!r} variable, found {len(hits)}")
        return hits[0]

    # -- marginals ----------------------------------------------------------

    def marginal_counts(self, cols: Iterable[int]) -> Marginal:
        """Read-only counts marginalized onto ``cols`` (ascending index order).

        Memoized per column set; the empty set maps () to the total. Indices
        that are not integers, bools included, or that repeat are refused
        before the memo is read. Integer counts are grouped from the smallest
        memoized superset, since their sums do not depend on grouping order;
        real weights always group from the full joint, so their float sums
        keep one order.
        """
        cols = tuple(sorted(_integer("variable index", c) for c in cols))
        for c in cols:
            if not 0 <= c < len(self.variables):
                raise ValueError(f"variable index {c} out of range")
        if len(set(cols)) != len(cols):
            raise ValueError(f"duplicate variable indices: {cols}")
        if cols not in self._marginals:
            if not cols:
                self._marginals[cols] = Marginal(
                    (), np.zeros(1, dtype=np.int64), np.array([self.total]))
            else:
                parent = tuple(range(len(self.variables)))
                if self.counts.weights.dtype.kind == "i":
                    parent = min((p for p in self._marginals if set(cols) <= set(p)),
                                 key=lambda p: len(self._marginals[p]))
                self._marginals[cols] = self._marginals[parent].group(
                    [parent.index(c) for c in cols])[0]
        return self._marginals[cols]


def history_length(dist: JointDistribution) -> int:
    """The k of a (next, hist, sources...) layout: the history's arity must
    be the destination's arity to the power k >= 1."""
    base = dist.variables[dist.index_of_role("destination-next")].arity
    arity = dist.variables[dist.index_of_role("destination-history")].arity
    k, states = 1, base
    while states < arity:
        k, states = k + 1, states * base
    if states != arity:
        raise ValueError(f"history arity {arity} is not a power of the "
                         f"destination arity {base}")
    return k


# -- construction -----------------------------------------------------------

# Run starts are scanned in blocks of this many sorted codes, so the scan's
# mask is a fixed size rather than one byte per code.
_SCAN_BLOCK = 2 ** 16


def _count_codes(variables: tuple[VariableSpec, ...], codes: np.ndarray) -> JointDistribution:
    """Tally samples already packed into codes (first variable in the lowest
    digit). ``codes`` is the caller's own 1-D buffer and is sorted in place;
    narrow codes sort faster, and the distinct ones are widened to int64.

    No row-sized buffer beside ``codes``: the sorted codes are scanned for
    run starts in blocks of ``_SCAN_BLOCK``, once to count the starts and
    once to write them into one int64 buffer, which becomes the counts once
    the distinct codes are gathered.
    """
    codes.sort()
    n = len(codes)
    mask = np.empty(min(n, _SCAN_BLOCK), dtype=bool)

    def changes(lo: int) -> np.ndarray:
        """Which of one block of codes, from lo + 1, differ from the code before."""
        hi = min(lo + _SCAN_BLOCK, n - 1)
        return np.not_equal(codes[lo + 1:hi + 1], codes[lo:hi], out=mask[:hi - lo])

    blocks = range(0, n - 1, _SCAN_BLOCK)
    end = min(n, 1)  # the first code, if any, starts the first run
    starts = np.zeros(end + sum(np.count_nonzero(changes(lo)) for lo in blocks), dtype=np.int64)
    for lo in blocks:
        found = np.flatnonzero(changes(lo))
        found += lo + 1
        starts[end:end + len(found)] = found
        end += len(found)
    distinct = codes[starts].astype(np.int64, copy=False)
    counts = starts
    np.subtract(counts[1:], counts[:-1], out=counts[:-1])
    counts[-1:] = n - counts[-1:]
    return JointDistribution._from_counts(variables, Marginal(
        [v.arity for v in variables], distinct, counts), float(n))


def merge(a: JointDistribution, b: JointDistribution) -> JointDistribution:
    """Combine two tallies over the same variables; equals counting one stream."""
    if a.variables != b.variables:
        raise ValueError(
            f"cannot merge distributions over different variables: "
            f"{[v.name for v in a.variables]} vs {[v.name for v in b.variables]}")
    counts, _ = _grouped([v.arity for v in a.variables],
                         np.concatenate([a.counts._codes, b.counts._codes]),
                         np.concatenate([a.counts.weights, b.counts.weights]))
    return JointDistribution._from_counts(a.variables, counts, a.total + b.total)


# -- information measures ---------------------------------------------------

def _mi_columns(dist, xs, ys, cond):
    """(xs, ys, cond) as index tuples of a nonempty distribution, all distinct;
    indices that are not integers are refused, never truncated."""
    xs, ys, cond = (tuple(_integer("variable index", c) for c in cols) for cols in (xs, ys, cond))
    for c in xs + ys + cond:
        if not 0 <= c < len(dist.variables):
            raise ValueError(f"variable index {c} out of range")
    if not xs or not ys:
        raise ValueError("x and y variable sets must be nonempty")
    if len(set(xs + ys + cond)) != len(xs + ys + cond):
        raise ValueError(
            f"x, y, and cond must be disjoint sets of distinct indices, got {xs}, {ys}, {cond}")
    if dist.total == 0:
        raise ValueError("empty distribution")
    return xs, ys, cond


def _mi_counts(dist, obs, xs, ys, cond):
    """Counts of (xyc, xc, yc, c) at each row of an (m, nvars) matrix; 0 if unobserved."""
    out = []
    for cols in (xs + ys + cond, xs + cond, ys + cond, cond):
        cols = tuple(sorted(cols))
        marginal = dist.marginal_counts(cols)
        pos = marginal.index(obs[:, cols])
        out.append(np.where(pos >= 0, marginal.weights[pos], 0.0))
    return out


def avg_mi(dist: JointDistribution, xs, ys, cond=()) -> float:
    """Average mutual information I(X; Y | cond) in bits.

    ``xs``, ``ys``, ``cond`` are disjoint tuples of variable indices. The
    unconditioned case passes an empty cond. Plug-in averages are always
    nonnegative up to float rounding.
    """
    xs, ys, cond = _mi_columns(dist, xs, ys, cond)
    g_xyc, g_xc, g_yc, g_c = _mi_counts(dist, dist.counts.symbols, xs, ys, cond)
    ratios = (g_xyc * g_c) / (g_xc * g_yc)
    return float(_dot(dist.counts.weights, np.log2(ratios)) / dist.total)


# OpenBLAS splits a float dot product longer than this over its threads, which
# moves the last bits of the sum with the thread count (and so the core count).
_DOT_BLOCK = 10_000


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``np.dot(a, b)`` summed one block of at most ``_DOT_BLOCK`` elements at
    a time, so its bits do not depend on the BLAS thread count. Up to one
    block it is ``np.dot`` itself."""
    total = float(np.dot(a[:_DOT_BLOCK], b[:_DOT_BLOCK]))
    for i in range(_DOT_BLOCK, len(a), _DOT_BLOCK):
        total += float(np.dot(a[i:i + _DOT_BLOCK], b[i:i + _DOT_BLOCK]))
    return total


def _observations(dist: JointDistribution, observation) -> np.ndarray:
    """``observation`` as an array of one row or an (m, nvars) matrix of
    rows, each holding one symbol per variable."""
    obs = np.asarray(observation)
    if obs.ndim not in (1, 2) or obs.shape[-1] != len(dist.variables):
        raise ValueError(
            f"observation must cover all {len(dist.variables)} variables, got {observation}")
    return obs


def _local_rows(dist: JointDistribution, observation, parts):
    """The local MI of each part, an (xs, ys, cond) triple of index tuples,
    summed in part order at one observation (a float) or at each row of an
    (m, nvars) matrix (one value per row).

    The first row at which any part's configuration was never counted
    fails, with the error of that row's first such part: what a call on
    that row alone raises.
    """
    obs = _observations(dist, observation)
    rows = np.atleast_2d(obs)
    total, misses = None, []
    for part in parts:
        xs, ys, cond = _mi_columns(dist, *part)
        c_xyc, c_xc, c_yc, c_c = _mi_counts(dist, rows, xs, ys, cond)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.log2(c_xyc * c_c) - np.log2(c_xc * c_yc)
        total = values if total is None else total + values
        unseen = np.flatnonzero(c_xyc <= 0)
        if len(unseen):
            misses.append((unseen[0], sorted(xs + ys + cond)))
    if misses:
        i, cols = min(misses, key=lambda miss: miss[0])
        row = rows[i].tolist()
        names = {dist.variables[j].name: row[j] for j in cols}
        raise ValueError(f"configuration {names} has zero probability")
    return float(total[0]) if obs.ndim == 1 else total


def local_mi(dist: JointDistribution, x: Mapping[int, int], y: Mapping[int, int],
             cond: Mapping[int, int] | None = None):
    """Local mutual information log2 p(x|y,cond) - log2 p(x|cond) in bits.

    Arguments are assignments {variable index: symbol}. May be negative; a
    configuration with zero probability is an error, not -inf. Symbols may
    also be equal-shaped integer arrays, such as columns of an observation
    matrix; the result is then an array of local values, one per element.
    """
    x, y, cond = dict(x), dict(y), dict(cond) if cond else {}
    xs, ys, cs = _mi_columns(dist, x, y, cond)
    symbols = np.broadcast_arrays(
        *(np.asarray(v) for v in (*x.values(), *y.values(), *cond.values())))
    rows = np.zeros((symbols[0].size, len(dist.variables)), np.result_type(np.int64, *symbols))
    rows[:, list(xs + ys + cs)] = np.stack([s.ravel() for s in symbols], axis=1)
    values = _local_rows(dist, rows, [(xs, ys, cs)]).reshape(symbols[0].shape)
    return float(values) if values.ndim == 0 else values
