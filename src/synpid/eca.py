"""Elementary cellular automaton simulation on a periodic ring.

Rules use the Wolfram numbering convention: the next value of a cell with
neighborhood (left, center, right) is bit (4*left + 2*center + right) of the
rule number, so neighborhood (1, 1, 1) reads bit 7 and (0, 0, 0) reads bit 0.
All cells update synchronously and the ring wraps, so cell 0 sees cell
width-1 as its left neighbor.

Initial rows are drawn i.i.d. uniform over {0, 1}. Run i of a batch uses
seed base_seed + i, and its row is the bits that numpy's
``np.random.default_rng(seed).integers(0, 2, size=width, dtype=np.uint8)``
gives: numpy's SeedSequence hashes the seed into a PCG64 (XSL-RR 128/64,
O'Neill 2014) state, and each cell is the top bit of one output byte.
``_pcg64_outputs`` computes that stream with Python ints, so the program
never loads ``numpy.random``, whose ``Generator`` streams numpy may change
between releases (NEP 19). Changing the draw would silently change every
grid, so treat it as part of the on-disk format; the tests check it against
numpy's.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


def _integer(name: str, value) -> int:
    """``value`` as a plain int; floats, strings, bools and None are refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_rule(rule) -> int:
    """A Wolfram rule number as a plain int; anything else is refused."""
    rule = _integer("rule number", rule)
    if not 0 <= rule <= 255:
        raise ValueError(f"rule number must be in [0, 255], got {rule}")
    return rule


def check_batch(width, steps, seed, runs) -> tuple[int, int, int, int]:
    """A batch's width, steps, base seed and run count as plain ints; values
    that are not integers or are out of bounds are refused."""
    fields = {"width": width, "steps": steps, "seed": seed, "runs": runs}
    width, steps, seed, runs = (_integer(name, value) for name, value in fields.items())
    for name, value, low in (("width", width, 3), ("steps", steps, 1), ("runs", runs, 1)):
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return width, steps, seed, runs


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_outputs(seed: int, n: int) -> list[int]:
    """The first ``n`` 64-bit outputs of ``np.random.PCG64(seed)``.

    numpy's SeedSequence mixes the seed's little-endian 32-bit words into a
    pool of four words and hashes the pool into four 64-bit words s0..s3.
    PCG64 seeds its 128-bit LCG with state s0:s1 and increment s2:s3 (made
    odd); each output steps the LCG and rotates the xor of the state's two
    halves right by its top six bits (XSL-RR). All sums and products wrap
    at 32 bits in the pool and at 128 bits in the LCG.
    """
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(value):
        nonlocal h
        value ^= h
        h = h * 0x931E8875 & _M32
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for s in range(4):
        for d in range(4):
            if d != s:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for word in words[4:]:
        for d in range(4):
            pool[d] = mix(pool[d], hashmix(word))
    g, out = 0x8B51F9DD, []
    for j in range(8):
        value = pool[j % 4] ^ g
        g = g * 0x58F38DED & _M32
        value = value * g & _M32
        out.append(value ^ value >> 16)
    s0, s1, s2, s3 = (out[2 * i] | out[2 * i + 1] << 32 for i in range(4))
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _M128
    outputs = []
    for _ in range(n):
        state = (state * _PCG64_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        outputs.append((x << 64 | x) >> (state >> 122) & _M64)  # rotate right
    return outputs


@dataclass(frozen=True)
class SpacetimeGrid:
    """One simulated run. Row t of ``cells`` is the lattice at time t."""

    rule_number: int
    width: int
    steps: int
    seed: int
    cells: np.ndarray = field(repr=False, compare=False)


def run(rule: int, width: int, steps: int, seed: int) -> SpacetimeGrid:
    """Simulate ``steps`` rows of a width-cell ring from a seeded random row.

    Row 0 is the random initial condition; rows 1..steps-1 are synchronous
    updates.
    """
    return run_batch(rule, width, steps, seed, 1)[0]


class Batch(tuple):
    """The grids of one ``run_batch`` call; a slice of it is a plain tuple.

    ``ring`` is the read-only time-major (steps, runs, width + 2) array
    whose inner columns the grids' cells are views of; its first and last
    columns hold each run's wrapped neighbours in every row.
    """

    def __new__(cls, grids, ring: np.ndarray):
        batch = super().__new__(cls, grids)
        batch.ring = ring
        return batch

    def __getnewargs__(self):
        return tuple(self), self.ring


def _initial_rows(width: int, base_seed: int, runs: int) -> np.ndarray:
    """The (runs, width) uint8 initial rows of a checked batch: row i is
    drawn with seed base_seed + i."""
    # Each output gives eight cells, one per little-endian byte: the byte's
    # top bit, which is integers(0, 2)'s bounded draw from that byte.
    n = -(-width // 8)
    draws = np.array([x for i in range(runs) for x in _pcg64_outputs(base_seed + i, n)],
                     dtype="<u8")
    return draws.view(np.uint8).reshape(runs, -1)[:, :width] >> 7


def _padded_rows(rule: int, first: np.ndarray, steps: int):
    """Yield the ``steps`` time rows of a batch that starts from the
    (runs, width) rows ``first``, as read-only padded (runs, width + 2)
    rows whose first and last columns copy each run's wrapped neighbours.

    Two padded rows are kept and each step writes the older one, so a
    yielded row is overwritten two rows later; the caller copies what it
    keeps. Each step reads the previous row as one flat row: the
    neighborhood index (2*left + center)*2 + right of every position is
    built with in-place adds, and the next cell is that bit of the rule
    number. The pad cells between runs get junk bits, which the wrap copy
    overwrites before the row is yielded.
    """
    runs, width = first.shape
    rule_bits = np.uint8(rule)
    rows = np.empty((2, runs, width + 2), dtype=np.uint8)
    rows[0, :, 1:-1] = first
    flat = rows.reshape(2, -1)
    readonly = rows.view()
    readonly.setflags(write=False)
    hood = np.empty(flat.shape[1] - 2, dtype=np.uint8)
    for t in range(steps):
        if t:
            prev = flat[(t - 1) % 2]
            np.add(prev[:-2], prev[:-2], out=hood)
            hood += prev[1:-1]
            hood += hood
            hood += prev[2:]
            nxt = flat[t % 2, 1:-1]
            np.right_shift(rule_bits, hood, out=nxt)
            nxt &= 1
        row = rows[t % 2]
        row[:, 0], row[:, -1] = row[:, -2], row[:, 1]
        yield readonly[t % 2]


def run_batch(rule: int, width: int, steps: int, base_seed: int, runs: int) -> Batch:
    """Repeat runs with the fixed seed policy: run i uses base_seed + i.

    All runs advance together, one vectorized update per time step, in
    ``_padded_rows``. Its rows fill one time-major (steps, runs, width + 2)
    ring, a complete padded stack of the runs, which is returned as the
    batch's ``ring``; each grid's ``cells`` is a read-only, non-contiguous
    (steps, width) view of it.
    """
    rule = check_rule(rule)
    width, steps, base_seed, runs = check_batch(width, steps, base_seed, runs)
    ring = np.empty((steps, runs, width + 2), dtype=np.uint8)
    for t, row in enumerate(_padded_rows(rule, _initial_rows(width, base_seed, runs), steps)):
        ring[t] = row
    ring.setflags(write=False)
    return Batch((SpacetimeGrid(rule, width, steps, int(base_seed + i), ring[:, i, 1:-1])
                  for i in range(runs)), ring)


def write_pgm(grid: SpacetimeGrid, path) -> None:
    """Binary PGM (P5, maxval 1), one pixel per cell, time running down."""
    header = (
        f"P5\n# rule {grid.rule_number} seed {grid.seed}\n"
        f"{grid.width} {grid.steps}\n1\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(grid.cells.astype(np.uint8).tobytes())


def write_csv(grid: SpacetimeGrid, path) -> None:
    """One row per time step, comma-separated bits."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        for row in grid.cells:
            writer.writerow(int(v) for v in row)
