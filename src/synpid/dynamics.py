"""Information dynamics of distributed computation on elementary cellular automata.

Everything here is built from one pooled joint distribution over

    (next, hist, left, right)

where ``next`` is a cell's value one step ahead, ``hist`` is that cell's own
k-step past packed into a single symbol, and ``left`` and ``right`` are the
previous values of its two ring neighbours, the only other causal sources
of an elementary automaton's update. All cells are pooled as destinations
at every time from t = k, the first with a full history window. The
measures read this layout, k included, from the roles of the distribution's
variables; the sources are its "source" variables in declared order, so the
measures apply as well to series distributions with other sources.

Measures, all in bits:

- active information storage  I(next; hist): how much of the next value is
  predicted by the cell's own past.
- apparent transfer entropy   I(next; y | hist): state updates in the source
  beyond the destination's own past.
- conditional transfer entropy I(next; y | hist, others): the same with
  further sources held fixed; conditioning on every other causal source
  gives the complete flavor.
- local variants of each: log-ratios at one observed configuration. These
  can be negative (a misinformative past or source).
- local separable information: local storage plus the sum of apparent local
  transfers from every source. The parts overlap, so this is a heuristic
  diagnostic of where computation happens, not a proper joint measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    JointDistribution, VariableSpec, _count_codes, _first_seen, _grouped, _local_values,
    _radix_multipliers, avg_mi, history_length, local_mi, merge,
)
from .eca import Batch, SpacetimeGrid, _integer


def _check_k(k) -> int:
    """A history length as a plain int >= 1; floats, bools and other values
    that are not integers are refused."""
    k = _integer("history length k", k)
    if k < 1:
        raise ValueError(f"history length k must be >= 1, got {k}")
    return k


def ca_variables(k: int) -> tuple[VariableSpec, ...]:
    """Variable layout for automaton samples: (next, hist, left, right)."""
    k = _check_k(k)
    return (
        VariableSpec("next", 2, "destination-next"),
        VariableSpec("hist", 2 ** k, "destination-history"),
        VariableSpec("left", 2, "source"),
        VariableSpec("right", 2, "source"),
    )


def _check_cells(cells: np.ndarray, k: int) -> int:
    """k as a plain int, once it is a history length, the (steps, ...)
    cells have a time from k on, and the cells are bits; packed codes of
    non-bits would alias. Integer cells in [0, 1] are bits; other cells
    must also be exactly 0 or 1."""
    k = _check_k(k)
    if k >= len(cells):
        raise ValueError(f"grid with {len(cells)} steps has no destinations after a k={k} window")
    lo, hi = cells.min(), cells.max()
    if not (lo >= 0 and hi <= 1):
        raise ValueError(f"grid cells must be bits, saw values in [{lo}, {hi}]")
    if cells.dtype.kind not in "biu":
        between = cells[(cells != 0) & (cells != 1)]
        if between.size:
            raise ValueError(f"grid cells must be bits, saw the value {between[0]}")
    return k


def ca_samples(grid: SpacetimeGrid, k: int) -> np.ndarray:
    """All (next, hist, left, right) tuples of one grid as an int64 matrix.

    Destinations run from t = k, the first time with a full history window;
    rows are emitted in (time, cell) order, and the neighbours wrap around
    the ring.
    """
    k = _check_cells(grid.cells, k)
    cells = grid.cells.astype(np.int64)
    steps = len(cells)
    hist = sum(cells[k - 1 - j:steps - 1 - j] << j for j in range(k))
    prev = cells[k - 1:steps - 1]
    columns = [cells[k:], hist, np.roll(prev, 1, axis=1), np.roll(prev, -1, axis=1)]
    return np.stack(columns, axis=-1).reshape(-1, len(columns))


def _packed_codes(cells: np.ndarray, k: int, codes: np.ndarray) -> None:
    """Pack (next, hist, left, right) of every destination site, t >= k, of
    checked, time-major padded (steps, runs, width + 2) cells into the flat
    buffer ``codes``, in (time, run, cell) order.

    Each time row is read as one flat row of runs * (width + 2) cells, in
    which the left and right neighbours of any inner cell lie one position
    either side. The window and the sources are built on those whole padded
    rows; only the inner columns reach ``codes``.
    """
    steps, runs, padded = cells.shape
    width = padded - 2
    codes = codes.reshape(steps - k, runs, width)
    rows = cells.reshape(steps, -1)
    n = rows.shape[1]
    dtype = codes.dtype.type
    window = np.zeros(n, dtype)
    inner = window[1:n - 1]
    prev, cur = np.empty(n, dtype), np.empty(n, dtype)
    for t in range(steps):
        prev, cur = cur, prev
        np.copyto(cur, rows[t], casting="unsafe")
        # next (weight 1) and hist (weight 2) form the (k+1)-bit window
        # sum_j cells[t - j] << j of the destination's own column. The mask
        # also clears the source bits, which the last step put above it.
        window &= 2 ** k - 1
        window <<= 1
        window |= cur
        if t < k:
            continue
        # The previous row is shifted in place to the left source's weight
        # 2^(k+1), then to the right source's 2^(k+2).
        prev <<= dtype(k + 1)
        inner |= prev[:n - 2]
        prev <<= dtype(1)
        inner |= prev[2:]
        codes[t - k] = window.reshape(runs, padded)[:, 1:1 + width]


def _stacks(grids, k: int) -> list[np.ndarray]:
    """The grids' cells as one time-major (steps, runs, width + 2) stack per
    shape, with a copy of each grid's last column before its first and of
    its first after its last; each stack is checked for a history length
    ``k``. A ``run_batch`` batch is that stack already: its ring is used
    as it is. Any other sequence of grids is copied, one byte per cell."""
    if isinstance(grids, Batch):
        _check_cells(grids.ring, k)
        return [grids.ring]
    by_shape = {}
    for g in grids:
        by_shape.setdefault(g.cells.shape, []).append(g.cells)
    if not by_shape:
        raise ValueError("need at least one grid")
    stacks = []
    for (steps, width), group in by_shape.items():
        stack = np.empty((steps, len(group), width + 2), np.result_type(*group))
        np.stack(group, axis=1, out=stack[:, :, 1:width + 1])
        stack[:, :, 0] = stack[:, :, width]
        stack[:, :, width + 1] = stack[:, :, 1]
        _check_cells(stack, k)
        stacks.append(stack)
    return stacks


def _pack_stacks(stacks, k: int) -> np.ndarray:
    """The codes of every destination site of checked padded stacks, in one
    new buffer; 32-bit when the joint alphabet allows, which halves the
    bytes the counting sort moves."""
    variables = ca_variables(k)
    mults = _radix_multipliers([v.arity for v in variables])
    dtype = np.int32 if mults[-1] * variables[-1].arity <= 2 ** 31 else np.int64
    sizes = [(len(cells) - k) * cells.shape[1] * (cells.shape[2] - 2) for cells in stacks]
    codes = np.empty(sum(sizes), dtype)
    end = 0
    for cells, n in zip(stacks, sizes):
        _packed_codes(cells, k, codes[end:end + n])
        end += n
    return codes


def ca_distribution(grids, k: int) -> JointDistribution:
    """Pool every cell of every grid into one plug-in distribution.

    Equal to ``count_samples`` over the concatenated ``ca_samples`` of the
    grids, without building the sample matrix. Grids of one shape are
    stacked and packed together.

    Row-sized buffers: the code buffer, beside the grids while it is
    packed. A ``run_batch`` batch is packed from its ring; any other
    sequence of grids is copied into padded stacks (one byte per cell).
    Once the codes are packed, this call drops the stacks and its
    reference to ``grids``, so a batch passed straight in is freed before
    ``_count_codes`` sorts the codes in place, which adds no row-sized
    buffer. A caller that keeps the batch, or any of its grids, keeps its
    ring.
    """
    k = _check_k(k)
    codes = _pack_stacks(_stacks(grids, k), k)
    del grids
    return _count_codes(ca_variables(k), codes)


def ca_distributions(grids, ks) -> list[JointDistribution]:
    """``ca_distribution(grids, k)`` for each k in ``ks``, from one count.

    The grids are packed and counted once, at the largest k. A shorter
    history is the low bits of a longer one (bit 0 is the previous value),
    so each shorter k cuts the history column of those distinct rows and
    sums equal rows, then adds a count of the times before the largest k.
    Every count equals the one ``ca_distribution`` gives.

    Row-sized buffers: the times before the largest k are counted first,
    each from its own small code buffer. Then the whole batch is packed
    from a ``Batch``'s ring or from copied stacks, and the stacks and this
    call's reference to ``grids`` are dropped, as in ``ca_distribution``:
    the counting sort of a batch passed straight in holds the code buffer
    alone. The cuts work on distinct rows only.
    """
    if isinstance(ks, str) or not np.iterable(ks):
        raise ValueError(f"ks must be a sequence of history lengths, got {ks!r}")
    ks = tuple(map(_check_k, ks))
    if not ks:
        raise ValueError("need at least one history length")
    top = max(ks)
    stacks = _stacks(grids, top)
    leading = {k: _count_codes(ca_variables(k), _pack_stacks([cells[:top] for cells in stacks], k))
               for k in set(ks) - {top}}
    # The stacks and grids (a batch's ring) are freed before the sort, and
    # the sorted codes before the cuts; all are row-sized.
    codes = _pack_stacks(stacks, top)
    del stacks, grids
    full = _count_codes(ca_variables(top), codes)
    del codes
    out = {top: full}
    for k, head in leading.items():
        variables = ca_variables(k)
        codes = full.counts._codes
        # Keep next and the k lowest history bits, and move the sources down.
        cut = (codes & (2 ** (k + 1) - 1)) | (codes >> (top + 1) << (k + 1))
        counts, _ = _grouped([v.arity for v in variables], cut, full.counts.weights)
        out[k] = merge(JointDistribution._from_counts(variables, counts, full.total), head)
    return [out[k] for k in ks]


def _indices(dist: JointDistribution):
    return dist.index_of_role("destination-next"), dist.index_of_role("destination-history")


def active_info_storage(dist: JointDistribution) -> float:
    """Average mutual information between a cell's k-step past and its next value."""
    xi, hi = _indices(dist)
    return avg_mi(dist, (xi,), (hi,))


def local_ais(dist: JointDistribution, history, next_value):
    """Local storage at one (history, next) configuration; arrays give arrays."""
    xi, hi = _indices(dist)
    return local_mi(dist, {xi: next_value}, {hi: history})


def _sources(dist: JointDistribution) -> tuple[str, ...]:
    """The names of the source variables, in declared order."""
    return tuple(v.name for v in dist.variables if v.role == "source")


def _source_indices(dist, source, conditionals):
    sources = _sources(dist)
    if source not in sources:
        raise ValueError(f"{source!r} is not a source variable {sources}")
    if isinstance(conditionals, str):
        raise ValueError(f"conditionals must be a sequence of names, got {conditionals!r}")
    conditionals = tuple(conditionals)
    for c in conditionals:
        if c not in sources:
            raise ValueError(f"conditional {c!r} is not a source variable")
        if c == source:
            raise ValueError(f"source {source!r} cannot condition on itself")
    if len(set(conditionals)) != len(conditionals):
        raise ValueError(f"duplicate conditionals: {conditionals}")
    return dist.index_of(source), tuple(dist.index_of(c) for c in conditionals)


def transfer_entropy(dist: JointDistribution, source: str, conditionals=()) -> float:
    """Average transfer entropy from ``source``, given the destination's past.

    With no conditionals this is the apparent flavor; conditioning on every
    other source makes it complete. The result is invariant to the order of
    ``conditionals``.
    """
    xi, hi = _indices(dist)
    si, ci = _source_indices(dist, source, conditionals)
    return avg_mi(dist, (xi,), (si,), (hi,) + ci)


def _observations(dist: JointDistribution, observation) -> np.ndarray:
    obs = np.asarray(observation)
    if obs.ndim not in (1, 2) or obs.shape[-1] != len(dist.variables):
        raise ValueError(
            f"observation must cover all {len(dist.variables)} variables, got {observation}")
    return obs


def local_te(dist: JointDistribution, source: str, conditionals, observation):
    """Local transfer entropy at one observation tuple, or per row of a matrix."""
    xi, hi = _indices(dist)
    si, ci = _source_indices(dist, source, conditionals)
    obs = _observations(dist, observation)
    cond = {hi: obs[..., hi], **{c: obs[..., c] for c in ci}}
    return local_mi(dist, {xi: obs[..., xi]}, {si: obs[..., si]}, cond)


def local_separable(dist: JointDistribution, observation):
    """Local storage plus every apparent local transfer at one observation.

    The summands overlap, so this is a heuristic locator of nontrivial
    information processing rather than a measure in its own right; strongly
    negative values are still diagnostic of modification-like events. An
    (m, nvars) observation matrix gives one value per row, or the error a
    call on its first row with an uncounted part raises.
    """
    obs = _observations(dist, observation)
    xi, hi = _indices(dist)
    x, h = {xi: obs[..., xi]}, {hi: obs[..., hi]}
    parts = [_local_values(dist, x, h)]
    for s in map(dist.index_of, _sources(dist)):
        parts.append(_local_values(dist, x, {s: obs[..., s]}, h))
    # The first row at which any part is undefined fails, with the error of
    # its first undefined part: what a call on that row alone raises.
    unseen = np.logical_or.reduce([u for _, u, _ in parts])
    if unseen.any():
        row = int(np.argmax(unseen))
        raise next(error(row) for _, u, error in parts if u.flat[row])
    total = parts[0][0]
    for values, _, _ in parts[1:]:
        total += values
    return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class GridSites:
    """The destination sites of one (steps, width) grid at history length
    ``k``: ``rows``, its distinct (next, hist, left, right) rows in order of
    first appearance, and ``labels``, a (steps - k, width) array giving each
    site's row. Both arrays are read-only."""

    k: int
    shape: tuple[int, int]
    rows: np.ndarray = field(repr=False, compare=False)
    labels: np.ndarray = field(repr=False, compare=False)


def grid_sites(grid: SpacetimeGrid, k: int) -> GridSites:
    """The sites of ``grid`` from t = k, the rows ``ca_samples`` gives,
    deduplicated. Found once, they serve every measure's ``profile``."""
    k = _check_k(k)
    samples = ca_samples(grid, k)
    mults = np.array(_radix_multipliers([v.arity for v in ca_variables(k)]), dtype=np.int64)
    first, labels = _first_seen(samples @ mults)
    rows, labels = samples[first], labels.reshape(-1, grid.cells.shape[1])
    rows.flags.writeable = labels.flags.writeable = False
    return GridSites(k, grid.cells.shape, rows, labels)


@dataclass(frozen=True)
class LocalProfile:
    """Local values of one measure at the sites of one displayed grid from
    time ``k`` on, one value per distinct site configuration.

    ``table`` holds the values and ``labels``, a (steps - k, width) array,
    each site's entry of it; every entry is some site's value. ``values``,
    the grid-shaped array whose rows before ``k`` (times without a full
    history window) are NaN, and ``defined_values()``, its rows from ``k``,
    are built on each read.
    """

    measure: str
    k: int
    table: np.ndarray = field(repr=False, compare=False)
    labels: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_values(cls, measure: str, k: int, values) -> "LocalProfile":
        """The profile of grid-shaped ``values`` whose rows from ``k`` are
        defined: one table entry per distinct float bit pattern, so -0.0
        and 0.0 keep their own entries. Values that are not a grid with a
        site from ``k`` on are refused."""
        k = _check_k(k)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(
                f"profile values must be a (steps, width) grid, got shape {values.shape}")
        defined = np.ascontiguousarray(values[k:])
        if not defined.size:
            raise ValueError(f"profile values of shape {values.shape} have no site from k={k}")
        bits, labels = np.unique(defined.view(np.int64).ravel(), return_inverse=True)
        return cls(measure, k, bits.view(np.float64), labels.reshape(defined.shape))

    @property
    def values(self) -> np.ndarray:
        values = np.full((self.k + len(self.labels), self.labels.shape[1]), np.nan)
        values[self.k:] = self.table[self.labels]
        return values

    def defined_values(self) -> np.ndarray:
        return self.table[self.labels]


PROFILE_MEASURES = ("local_ais", "local_te_left", "local_te_right", "local_separable")


def check_measures(measures) -> tuple[str, ...]:
    """``measures`` as a tuple, once it is a nonempty sequence of distinct
    names from ``PROFILE_MEASURES``."""
    if isinstance(measures, str):
        raise ValueError(f"measures must be a sequence of names, got {measures!r}")
    measures = tuple(measures)
    for m in measures:
        if m not in PROFILE_MEASURES:
            raise ValueError(f"unknown measure {m!r}, expected one of {PROFILE_MEASURES}")
    if not measures:
        raise ValueError("need at least one measure")
    if len(set(measures)) != len(measures):
        raise ValueError(f"duplicate measures: {measures}")
    return measures


def profile(dist: JointDistribution, grid: SpacetimeGrid | GridSites,
            measure: str) -> LocalProfile:
    """Evaluate one local measure at every site of a grid.

    ``grid`` is a ``SpacetimeGrid`` or the ``GridSites`` of one at the
    distribution's k; a grid goes through ``grid_sites`` first, so a caller
    that values several measures on one grid finds its sites once.
    Probabilities come from ``dist`` (typically pooled over many runs, with
    the displayed grid among them, so every configuration is observed),
    which must have the ``ca_variables`` layout.

    The measure is valued once per distinct site configuration, in order of
    first appearance; the profile keeps those values and the sites' labels,
    and each site's value is the float a per-site call gives. A
    configuration that ``dist`` never counted raises the zero-probability
    error of the first such site in (time, cell) order.
    """
    check_measures((measure,))
    k = history_length(dist)
    if dist.variables != ca_variables(k):
        raise ValueError(f"profile needs the variables {ca_variables(k)}, "
                         f"but the distribution's are {dist.variables}")
    sites = grid if isinstance(grid, GridSites) else grid_sites(grid, k)
    if sites.k != k:
        raise ValueError(f"sites found at k={sites.k} cannot be valued over a k={k} distribution")
    rows = sites.rows
    if measure == "local_ais":
        local = local_ais(dist, rows[:, 1], rows[:, 0])
    elif measure == "local_separable":
        local = local_separable(dist, rows)
    else:
        local = local_te(dist, measure[len("local_te_"):], (), rows)
    return LocalProfile(measure, k, local, sites.labels)


def _byte_rows(texts) -> np.ndarray:
    """ASCII texts as the rows of a uint8 matrix, each padded with NULs to
    the longest."""
    rows = np.array([t.encode() for t in texts], dtype=bytes)
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


def write_profile_csv(prof: LocalProfile, path) -> None:
    """Rows of (cell, time, value) for every defined site, in the bytes
    ``csv.writer`` gives: CRLF line ends and each value's ``repr``.

    Each table entry is formatted once, so -0.0 and 0.0 keep their own
    text. The "cell," fields, the "time," fields and the value texts are
    NUL-padded byte matrices; one (steps, width, line) array lays out every
    line, broadcasting the cell and time fields and gathering the value
    texts by the sites' labels, and dropping its NULs leaves the file's
    body, written at once after the header. None of these texts contains a
    NUL.
    """
    steps, width = prof.labels.shape
    values = _byte_rows([f"{v!r}\r\n" for v in prof.table.tolist()])
    cells = _byte_rows([f"{c}," for c in range(width)])
    times = _byte_rows([f"{t}," for t in range(prof.k, prof.k + steps)])
    cell_end = cells.shape[1]
    time_end = cell_end + times.shape[1]
    line = np.empty((steps, width, time_end + values.shape[1]), np.uint8)
    line[:, :, :cell_end] = cells
    line[:, :, cell_end:time_end] = times[:, None]
    line[:, :, time_end:] = values[prof.labels]
    with open(path, "wb") as f:
        f.write(b"cell,time,value\r\n")
        f.write(line[line != 0])


def write_profile_pgm(prof: LocalProfile, path) -> None:
    """16-bit PGM of the defined rows, darkest = smallest value.

    Each table entry is mapped to its gray level once, and the levels are
    gathered by the sites' labels. The table holds only values that some
    site has, so its extremes are the sites'. The affine gray mapping is
    recorded in the header comment so the raster can be decoded back to
    bits. That mapping is undefined for NaN and infinities, so a table
    holding one is refused before the file is opened.
    """
    table = prof.table
    finite = np.isfinite(table)
    if not finite.all():
        raise ValueError(f"cannot map the non-finite {prof.measure} value "
                         f"{float(table[~finite][0])!r} to a gray level")
    vmin = float(table.min())
    vmax = float(table.max())
    if vmax > vmin:
        gray = np.round((table - vmin) / (vmax - vmin) * 65535.0)
    else:
        gray = np.zeros_like(table)
    rows, width = prof.labels.shape
    header = (
        f"P5\n"
        f"# {prof.measure} k={prof.k}; rows are times {prof.k}..{prof.k + rows - 1}; "
        f"value_bits = {vmin!r} + gray * ({vmax!r} - {vmin!r}) / 65535\n"
        f"{width} {rows}\n65535\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(gray.astype(">u2")[prof.labels].tobytes())
