"""Information dynamics of distributed computation on spacetime grids.

Everything here is built from one pooled joint distribution over

    (next, hist, y_1, ..., y_g)

where ``next`` is a cell's value one step ahead, ``hist`` is that cell's own
k-step past packed into a single symbol, and each ``y_j`` is the single
previous value of one neighbor. For a standard two-neighbor ring the sources
are the left and right neighbors. All cells and all times with a full
history window are pooled; the first k time steps of a run never appear as
destinations. The measures read this layout, k included, from the roles of
the distribution's variables; the sources are its "source" variables in
declared order.

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
    JointDistribution, VariableSpec, _count_codes, _grouped, _local_values, _radix_multipliers,
    avg_mi, history_length, local_mi, merge,
)
from .eca import SpacetimeGrid


def _offset_name(offset: int) -> str:
    if offset == -1:
        return "left"
    if offset == 1:
        return "right"
    return f"off{offset:+d}"


def ca_variables(k: int, offsets=(-1, 1)) -> tuple[VariableSpec, ...]:
    """Variable layout for ring-automaton samples: next, hist, then sources."""
    if k < 1:
        raise ValueError(f"history length k must be >= 1, got {k}")
    return (
        VariableSpec("next", 2, "destination-next"),
        VariableSpec("hist", 2 ** k, "destination-history"),
        *(VariableSpec(_offset_name(o), 2, "source") for o in offsets),
    )


def _checked_start(cells: np.ndarray, k: int, start: int | None) -> int:
    """The first destination time of (steps, ...) cells, once k, the start
    and every cell are checked; packed codes of non-bits would alias."""
    if k < 1:
        raise ValueError(f"history length k must be >= 1, got {k}")
    steps = len(cells)
    if start is None:
        start = k
    if start < k:
        raise ValueError(f"start={start} would need history before time 0 (k={k})")
    if start >= steps:
        raise ValueError(f"grid with {steps} steps has no destinations at start={start}")
    lo, hi = cells.min(), cells.max()
    if not (lo >= 0 and hi <= 1):
        raise ValueError(f"grid cells must be bits, saw values in [{lo}, {hi}]")
    return start


def ca_samples(grid: SpacetimeGrid, k: int, offsets=(-1, 1),
               start: int | None = None) -> np.ndarray:
    """All (next, hist, sources...) tuples of one grid as an int64 matrix.

    ``start`` is the first destination time; it defaults to k, which skips
    exactly the rows with an incomplete history window. Rows are emitted in
    (time, cell) order.
    """
    start = _checked_start(grid.cells, k, start)
    cells = grid.cells.astype(np.int64)
    steps = len(cells)
    hist = sum(cells[start - 1 - j:steps - 1 - j] << j for j in range(k))
    prev = cells[start - 1:steps - 1]
    columns = [cells[start:], hist, *(np.roll(prev, -o, axis=1) for o in offsets)]
    return np.stack(columns, axis=-1).reshape(-1, len(columns))


def _reach(offsets) -> int:
    """How many pad columns each side of a stack needs for ``offsets``."""
    return max(map(abs, offsets), default=0)


def _packed_codes(cells: np.ndarray, k: int, offsets, start: int, mults,
                  codes: np.ndarray) -> None:
    """Pack (next, hist, sources...) of every destination site of checked,
    time-major padded (steps, runs, width + 2p) cells into the flat buffer
    ``codes``, in (time, run, cell) order.

    Each time row is read as one flat row of runs * (width + 2p) cells, in
    which the source at offset o of any inner cell lies o positions away,
    since |o| <= p. The window and the sources are built on those whole
    padded rows; only the inner columns reach ``codes``.
    """
    p = _reach(offsets)
    steps, runs, padded = cells.shape
    width = padded - 2 * p
    codes = codes.reshape(steps - start, runs, width)
    rows = cells.reshape(steps, -1)
    n = rows.shape[1]
    dtype = codes.dtype.type
    window = np.zeros(n, dtype)
    inner = window[p:n - p]
    prev, cur = np.empty(n, dtype), np.empty(n, dtype)
    for t in range(start - k, steps):
        prev, cur = cur, prev
        np.copyto(cur, rows[t], casting="unsafe")
        # next (weight 1) and hist (weight 2) form the (k+1)-bit window
        # sum_j cells[t - j] << j of the destination's own column. The mask
        # also clears the source bits, which the last step put above it.
        window &= 2 ** k - 1
        window <<= 1
        window |= cur
        if t < start:
            continue
        # Each source scales the previous row in place, as it is rewritten
        # before it is read again; every multiplier divides the next one.
        scale = 1
        for o, m in zip(offsets, mults[2:]):
            prev *= dtype(m // scale)
            scale = m
            inner |= prev[p + o:n - p + o]
        codes[t - start] = window.reshape(runs, padded)[:, p:p + width]


def _stacks(grids, offsets) -> list[np.ndarray]:
    """The grids' cells stacked into one time-major (steps, runs, width + 2p)
    array per shape, p = max |offset|. Pad column j holds cell
    (j - p) mod width, so the wrap holds even when p exceeds the width."""
    by_shape = {}
    for g in grids:
        by_shape.setdefault(g.cells.shape, []).append(g.cells)
    if not by_shape:
        raise ValueError("need at least one grid")
    p = _reach(offsets)
    stacks = []
    for (steps, width), group in by_shape.items():
        stack = np.empty((steps, len(group), width + 2 * p), np.result_type(*group))
        np.stack(group, axis=1, out=stack[:, :, p:p + width])
        if p:
            pads = np.r_[:p, p + width:width + 2 * p]
            stack[:, :, pads] = stack[:, :, p + (pads - p) % width]
        stacks.append(stack)
    return stacks


def _count_stacks(stacks, k: int, offsets, start: int | None) -> JointDistribution:
    """Count every destination site of padded stacks, packed into one code
    buffer; codes are 32-bit when the joint alphabet allows, which halves
    the bytes the counting sort moves."""
    variables = ca_variables(k, offsets)
    mults = _radix_multipliers([v.arity for v in variables])
    dtype = np.int32 if mults[-1] * variables[-1].arity <= 2 ** 31 else np.int64
    starts = [_checked_start(cells, k, start) for cells in stacks]
    pad = 2 * _reach(offsets)
    sizes = [(len(cells) - s) * cells.shape[1] * (cells.shape[2] - pad)
             for cells, s in zip(stacks, starts)]
    codes = np.empty(sum(sizes), dtype)
    end = 0
    for cells, s, n in zip(stacks, starts, sizes):
        _packed_codes(cells, k, offsets, s, mults, codes[end:end + n])
        end += n
    return _count_codes(variables, codes)


def ca_distribution(grids, k: int, offsets=(-1, 1),
                    start: int | None = None) -> JointDistribution:
    """Pool every cell of every grid into one plug-in distribution.

    Equal to ``count_samples`` over the concatenated ``ca_samples`` of the
    grids, without building the sample matrix. Grids of one shape are
    stacked and packed together.
    """
    return _count_stacks(_stacks(grids, offsets), k, offsets, start)


def ca_distributions(grids, ks, offsets=(-1, 1)) -> list[JointDistribution]:
    """``ca_distribution(grids, k)`` for each k in ``ks``, from one count.

    The grids are packed and counted once, at the largest k. A shorter
    history is the low bits of a longer one (bit 0 is the previous value),
    so each shorter k cuts the history column of those distinct rows and
    sums equal rows, then adds a count of the times before the largest k.
    Every count equals the one ``ca_distribution`` gives.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("need at least one history length")
    stacks = _stacks(grids, offsets)
    top = max(ks)
    full = _count_stacks(stacks, top, offsets, None)
    out = {top: full}
    for k in set(ks) - {top}:
        variables = ca_variables(k, offsets)
        codes = full.counts._codes
        # Keep next and the k lowest history bits, and move the sources down.
        cut = (codes & (2 ** (k + 1) - 1)) | (codes >> (top + 1) << (k + 1))
        counts, _ = _grouped([v.arity for v in variables], cut, full.counts.weights)
        leading = _count_stacks([cells[:top] for cells in stacks], k, offsets, k)
        out[k] = merge(JointDistribution._from_counts(variables, counts, full.total), leading)
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
class LocalProfile:
    """Per-site local values of one measure on one displayed grid.

    ``values`` has the grid's shape; rows before ``k`` (times without a
    full history window) are NaN.
    """

    measure: str
    k: int
    values: np.ndarray = field(repr=False, compare=False)

    def defined_values(self) -> np.ndarray:
        return self.values[self.k:]


def profile_measures(offsets=(-1, 1)) -> tuple[str, ...]:
    return ("local_ais",
            *(f"local_te_{_offset_name(o)}" for o in offsets),
            "local_separable")


def check_measures(measures, offsets=(-1, 1)) -> tuple[str, ...]:
    """``measures`` as a tuple, once it is nonempty and each is one of
    ``profile_measures(offsets)``."""
    allowed = profile_measures(offsets)
    measures = tuple(measures)
    for m in measures:
        if m not in allowed:
            raise ValueError(f"unknown measure {m!r}, expected one of {allowed}")
    if not measures:
        raise ValueError("need at least one measure")
    return measures


def _first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct code's first appearance, in code order,
    and each code's position among the distinct codes: the ``return_index``
    and ``return_inverse`` of ``np.unique``, without the stable sort that
    ``return_index`` costs."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    first = np.full(len(distinct), len(codes))
    np.minimum.at(first, inverse, np.arange(len(codes)))
    return first, inverse


def profile(dist: JointDistribution, grid: SpacetimeGrid, measure: str,
            offsets=(-1, 1)) -> LocalProfile:
    """Evaluate one local measure at every site of ``grid``.

    Probabilities come from ``dist`` (typically pooled over many runs, with
    the displayed grid among them, so every configuration is observed).
    ``offsets`` must name the distribution's sources in declared order.

    The measure is valued once per distinct configuration of the grid's own
    sites, in order of first appearance, and gathered back to the sites;
    each value is the float a per-site call gives. A configuration that
    ``dist`` never counted raises the zero-probability error of the first
    such site in (time, cell) order.
    """
    check_measures((measure,), offsets)
    names, sources = tuple(_offset_name(o) for o in offsets), _sources(dist)
    if names != sources:
        raise ValueError(f"offsets {tuple(offsets)} give sources {names}, "
                         f"but the distribution's sources are {sources}")
    k = history_length(dist)
    samples = ca_samples(grid, k, offsets)
    mults = np.array(_radix_multipliers([v.arity for v in dist.variables]), dtype=np.int64)
    first, inverse = _first_seen(samples @ mults)
    order = np.argsort(first)
    rows = samples[first[order]]
    if measure == "local_ais":
        local = local_ais(dist, rows[:, 1], rows[:, 0])
    elif measure == "local_separable":
        local = local_separable(dist, rows)
    else:
        local = local_te(dist, measure[len("local_te_"):], (), rows)
    values = np.full(grid.cells.shape, np.nan)
    values[k:] = local[np.argsort(order)][inverse].reshape(-1, grid.cells.shape[1])
    return LocalProfile(measure, k, values)


def _byte_rows(texts) -> np.ndarray:
    """ASCII texts as the rows of a uint8 matrix, each padded with NULs to
    the longest."""
    rows = np.array([t.encode() for t in texts], dtype=bytes)
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


def write_profile_csv(prof: LocalProfile, path) -> None:
    """Rows of (cell, time, value) for every defined site, in the bytes
    ``csv.writer`` gives: CRLF line ends and each value's ``repr``.

    Each distinct float bit pattern is formatted once, so -0.0 and 0.0 keep
    their own text. The "cell," fields, the "time," fields and the value
    texts are NUL-padded byte matrices; one (steps, width, line) array lays
    out every line, broadcasting the cell and time fields and gathering the
    value texts, and dropping its NULs leaves the file's body, written at
    once after the header. None of these texts contains a NUL.
    """
    data = prof.defined_values()
    steps, width = data.shape
    bits, which = np.unique(data.ravel().view(np.int64), return_inverse=True)
    values = _byte_rows([f"{v!r}\r\n" for v in bits.view(np.float64).tolist()])
    cells = _byte_rows([f"{c}," for c in range(width)])
    times = _byte_rows([f"{t}," for t in range(prof.k, prof.k + steps)])
    cell_end = cells.shape[1]
    time_end = cell_end + times.shape[1]
    line = np.empty((steps, width, time_end + values.shape[1]), np.uint8)
    line[:, :, :cell_end] = cells
    line[:, :, cell_end:time_end] = times[:, None]
    line[:, :, time_end:] = values[which.reshape(steps, width)]
    with open(path, "wb") as f:
        f.write(b"cell,time,value\r\n")
        f.write(line[line != 0])


def write_profile_pgm(prof: LocalProfile, path) -> None:
    """16-bit PGM of the defined rows, darkest = smallest value.

    The affine gray mapping is recorded in the header comment so the raster
    can be decoded back to bits.
    """
    data = prof.defined_values()
    vmin = float(data.min())
    vmax = float(data.max())
    if vmax > vmin:
        gray = np.round((data - vmin) / (vmax - vmin) * 65535.0)
    else:
        gray = np.zeros_like(data)
    steps, width = prof.values.shape
    header = (
        f"P5\n"
        f"# {prof.measure} k={prof.k}; rows are times {prof.k}..{steps - 1}; "
        f"value_bits = {vmin!r} + gray * ({vmax!r} - {vmin!r}) / 65535\n"
        f"{width} {data.shape[0]}\n65535\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(gray.astype(">u2").tobytes())
