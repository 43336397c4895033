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
- local variants of each: log-ratios at one observed configuration, or at
  each row of an (m, nvars) observation matrix, all valued by the one row
  kernel of ``distributions``. These can be negative (a misinformative past
  or source).
- local separable information: local storage plus the sum of apparent local
  transfers from every source. The parts overlap, so this is a heuristic
  diagnostic of where computation happens, not a proper joint measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .distributions import (
    JointDistribution, VariableSpec, _count_codes, _first_seen, _grouped, _local_rows,
    _radix_multipliers, avg_mi, history_length, local_mi, merge,
)
from .eca import (
    SpacetimeGrid, _initial_rows, _integer, _padded_rows, check_batch, check_rule,
)


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


def _check_steps(steps: int, k) -> int:
    """k as a plain int, once it is a history length and a grid of
    ``steps`` rows has a time from k on."""
    k = _check_k(k)
    if k >= steps:
        raise ValueError(f"grid with {steps} steps has no destinations after a k={k} window")
    return k


def _check_cells(cells: np.ndarray, k: int) -> int:
    """k as a plain int, once it is a history length, the (steps, ...)
    cells have a time from k on, and the cells are bits; packed codes of
    non-bits would alias. Integer cells in [0, 1] are bits; other cells
    must also be exactly 0 or 1."""
    k = _check_steps(len(cells), k)
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


def _packed_codes(rows, k: int, codes: np.ndarray) -> None:
    """Pack (next, hist, left, right) of every destination site, t >= k, of
    checked, time-major padded (runs, width + 2) rows into the
    (steps - k, runs, width) buffer ``codes``, in (time, run, cell) order.

    ``rows`` is any iterable of those rows, such as ``_grid_rows`` or
    ``eca._padded_rows``; each is read once, before the next is drawn.
    Each row is read as one flat row of runs * (width + 2) cells, in which
    the left and right neighbours of any inner cell lie one position either
    side. The window and the sources are built on those whole padded rows;
    only the inner columns reach ``codes``.
    """
    _, runs, width = codes.shape
    padded = width + 2
    n = runs * padded
    dtype = codes.dtype.type
    window = np.zeros(n, dtype)
    inner = window[1:n - 1]
    part = np.empty(n, dtype)
    source = part[:n - 2]
    for t, row in enumerate(rows):
        # next (weight 1) and hist (weight 2) form the (k+1)-bit window
        # sum_j cells[t - j] << j of the destination's own column. The mask
        # also clears the source bits, which the last step put above it.
        window &= 2 ** k - 1
        window <<= 1
        np.copyto(part, row.reshape(n), casting="unsafe")
        window |= part
        if t < k:
            continue
        # The previous row is bit 1 of the window: the left neighbour's goes
        # to weight 2^(k+1), then the right neighbour's to 2^(k+2). Neither
        # weight is bit 1, so the first source leaves the second's bit as it
        # was.
        np.bitwise_and(window[:n - 2], 2, out=source)
        source <<= dtype(k)
        inner |= source
        np.bitwise_and(window[2:], 2, out=source)
        source <<= dtype(k + 1)
        inner |= source
        codes[t - k] = window.reshape(runs, padded)[:, 1:1 + width]


def _code_buffer(k: int, size: int) -> np.ndarray:
    """A new buffer for ``size`` codes at history length k; 32-bit when the
    joint alphabet allows, which halves the bytes the counting sort moves."""
    variables = ca_variables(k)
    mults = _radix_multipliers([v.arity for v in variables])
    return np.empty(size, np.int32 if mults[-1] * variables[-1].arity <= 2 ** 31 else np.int64)


def _check_ks(ks) -> tuple[int, ...]:
    """``ks`` as a tuple of plain ints, once it is a nonempty sequence of
    history lengths."""
    if isinstance(ks, str) or not np.iterable(ks):
        raise ValueError(f"ks must be a sequence of history lengths, got {ks!r}")
    ks = tuple(map(_check_k, ks))
    if not ks:
        raise ValueError("need at least one history length")
    return ks


def _cut(full: JointDistribution, leading: dict, ks) -> list[JointDistribution]:
    """The distribution of each k in ``ks`` from ``full``, counted at the
    largest k, and ``leading``, the counts of the times before it at each
    shorter k.

    A shorter history is the low bits of a longer one (bit 0 is the
    previous value), so each shorter k cuts the history column of the
    distinct rows of ``full`` and sums equal rows, then adds its leading
    count. The cuts work on distinct rows only.
    """
    top = history_length(full)
    out = {top: full}
    for k, head in leading.items():
        variables = ca_variables(k)
        codes = full.counts._codes
        # Keep next and the k lowest history bits, and move the sources down.
        cut = (codes & (2 ** (k + 1) - 1)) | (codes >> (top + 1) << (k + 1))
        counts, _ = _grouped([v.arity for v in variables], cut, full.counts.weights)
        out[k] = merge(JointDistribution._from_counts(variables, counts, full.total), head)
    return [out[k] for k in ks]


def _count(sources: list, ks: tuple[int, ...]) -> list[JointDistribution]:
    """The pooled distribution of every source at each k in checked ``ks``.

    Each source is a ``((steps, runs, width), rows)`` pair: ``rows(stop)``
    yields its first ``stop`` time rows as padded (runs, width + 2) rows,
    for ``_packed_codes``; every source has a time from max(ks) on. The
    times before the largest k are counted first, for each shorter k, into
    their own small code buffers. Then every source is packed whole into
    one code buffer and ``sources`` is emptied, so a caller that handed
    over its only reference frees the grids before the counting sort. The
    sorted codes are freed before ``_cut`` gives each k.
    """
    top = max(ks)

    def packed(k, stop=None):
        """The codes at history length k of every source's first ``stop``
        rows, or of all its rows."""
        shapes = [((stop or steps) - k, runs, width) for (steps, runs, width), _ in sources]
        codes = _code_buffer(k, sum(map(math.prod, shapes)))
        end = 0
        for (_, rows), shape in zip(sources, shapes):
            part = codes[end:end + math.prod(shape)]
            _packed_codes(rows(k + shape[0]), k, part.reshape(shape))
            end += part.size
        return codes

    leading = {k: _count_codes(ca_variables(k), packed(k, top)) for k in set(ks) - {top}}
    codes = packed(top)
    sources.clear()
    full = _count_codes(ca_variables(top), codes)
    del codes
    return _cut(full, leading, ks)


_BLOCK_ROWS = 8


def _grid_rows(cells: list, stop: int):
    """Yield the first ``stop`` time rows of same-shape (steps, width) grid
    cells as padded (runs, width + 2) rows, one run per grid, whose first and
    last columns copy each run's wrapped neighbours.

    The rows are copied ``_BLOCK_ROWS`` at a time into one padded block,
    which is overwritten after its last row is yielded.
    """
    width = cells[0].shape[1]
    block = np.empty((min(_BLOCK_ROWS, stop), len(cells), width + 2), np.result_type(*cells))
    for t in range(0, stop, len(block)):
        rows = block[:min(len(block), stop - t)]
        np.stack([c[t:t + len(rows)] for c in cells], axis=1, out=rows[:, :, 1:width + 1])
        rows[:, :, 0] = rows[:, :, width]
        rows[:, :, width + 1] = rows[:, :, 1]
        yield from rows


def _grid_sources(grids, k: int) -> list:
    """``_count``'s sources for a sequence of grids, one per shape; each
    grid is checked for a history length ``k``."""
    if isinstance(grids, SpacetimeGrid) or not np.iterable(grids):
        raise ValueError(f"grids must be a sequence of SpacetimeGrid, got {grids!r}")
    by_shape = {}
    for g in grids:
        if not isinstance(g, SpacetimeGrid):
            raise ValueError(f"grids must hold only SpacetimeGrid values, got {g!r}")
        _check_cells(g.cells, k)
        by_shape.setdefault(g.cells.shape, []).append(g.cells)
    if not by_shape:
        raise ValueError("need at least one grid")
    return [((steps, len(group), width), partial(_grid_rows, group))
            for (steps, width), group in by_shape.items()]


def ca_distribution(grids, k: int) -> JointDistribution:
    """Pool every cell of every grid into one plug-in distribution.

    Equal to ``count_samples`` over the concatenated ``ca_samples`` of the
    grids, without building the sample matrix. Grids of one shape are
    packed together, a few time rows at a time.

    Row-sized buffers: the code buffer, beside the grids while it is
    packed. Once the codes are packed, this call lets go of ``grids``, so a
    batch passed straight in is freed before ``_count_codes`` sorts the
    codes in place, which adds no row-sized buffer. A caller that keeps the
    batch, or any of its grids, keeps its cells through the sort.
    ``batch_distributions`` counts a batch without holding its grids.
    """
    k = _check_k(k)
    sources = _grid_sources(grids, k)
    del grids
    return _count(sources, (k,))[0]


def ca_distributions(grids, ks) -> list[JointDistribution]:
    """``ca_distribution(grids, k)`` for each k in ``ks``, from one count.

    The grids are packed and counted once, at the largest k; ``_cut``
    gives each shorter k from that count and a count of the times before
    the largest k. Every count equals the one ``ca_distribution`` gives.

    Row-sized buffers: as in ``ca_distribution``; the times before the
    largest k are counted first, each from its own small code buffer.
    """
    ks = _check_ks(ks)
    sources = _grid_sources(grids, max(ks))
    del grids
    return _count(sources, ks)


def batch_distributions(rule: int, width: int, steps: int, base_seed: int, runs: int,
                        ks) -> list[JointDistribution]:
    """``ca_distributions(run_batch(rule, width, steps, base_seed, runs), ks)``,
    counted as the batch is simulated.

    Each time row is packed into the code buffer as soon as the simulator
    steps it, so no grid of the batch is kept. The times before the largest
    k are counted first, for each shorter k, from the first max(ks) rows
    stepped again from the batch's initial rows, so those rows are not
    kept either.

    Row-sized buffers: the code buffer alone, beside a few padded rows
    while it is packed, and through its counting sort. The sorted codes
    are freed before the cuts.
    """
    rule = check_rule(rule)
    width, steps, base_seed, runs = check_batch(width, steps, base_seed, runs)
    ks = _check_ks(ks)
    _check_steps(steps, max(ks))
    first = _initial_rows(width, base_seed, runs)
    return _count([((steps, runs, width), partial(_padded_rows, rule, first))], ks)


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


def local_te(dist: JointDistribution, source: str, conditionals, observation):
    """Local transfer entropy at one observation tuple, or per row of a matrix."""
    xi, hi = _indices(dist)
    si, ci = _source_indices(dist, source, conditionals)
    return _local_rows(dist, observation, [((xi,), (si,), (hi,) + ci)])


def local_separable(dist: JointDistribution, observation):
    """Local storage plus every apparent local transfer at one observation.

    The summands overlap, so this is a heuristic locator of nontrivial
    information processing rather than a measure in its own right; strongly
    negative values are still diagnostic of modification-like events. An
    (m, nvars) observation matrix gives one value per row, or the error a
    call on its first row with an uncounted part raises.
    """
    xi, hi = _indices(dist)
    transfers = [((xi,), (s,), (hi,)) for s in map(dist.index_of, _sources(dist))]
    return _local_rows(dist, observation, [((xi,), (hi,), ()), *transfers])


@dataclass(frozen=True)
class GridSites:
    """The destination sites of one (steps, width) grid at history length
    ``k``: ``rows``, its distinct (next, hist, left, right) rows in order of
    first appearance, and ``labels``, a (steps - k, width) array giving each
    site's row. Both arrays are read-only."""

    k: int
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
    return GridSites(k, rows, labels)


@dataclass(frozen=True)
class LocalProfile:
    """Local values of one measure at the sites of one displayed grid from
    time ``k`` on, one value per distinct site configuration.

    ``table`` holds the values and ``labels``, a (steps - k, width) array,
    each site's entry of it; every entry is some site's value.
    ``defined_values()`` gathers the sites' values into that shape.
    """

    measure: str
    k: int
    table: np.ndarray = field(repr=False, compare=False)
    labels: np.ndarray = field(repr=False, compare=False)

    def defined_values(self) -> np.ndarray:
        return self.table[self.labels]


# Each profiled measure, valued at the rows of a (next, hist, left, right) matrix.
_PROFILED = {
    "local_ais": lambda dist, rows: local_ais(dist, rows[:, 1], rows[:, 0]),
    "local_te_left": lambda dist, rows: local_te(dist, "left", (), rows),
    "local_te_right": lambda dist, rows: local_te(dist, "right", (), rows),
    "local_separable": lambda dist, rows: local_separable(dist, rows),
}
PROFILE_MEASURES = tuple(_PROFILED)


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
    return LocalProfile(measure, k, _PROFILED[measure](dist, sites.rows), sites.labels)


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
