"""Elementary cellular automaton simulation on a periodic ring.

Rules use the Wolfram numbering convention: the next value of a cell with
neighborhood (left, center, right) is bit (4*left + 2*center + right) of the
rule number, so neighborhood (1, 1, 1) reads bit 7 and (0, 0, 0) reads bit 0.
All cells update synchronously and the ring wraps, so cell 0 sees cell
width-1 as its left neighbor.

Initial rows are drawn i.i.d. uniform over {0, 1}. The generator identity is
pinned to numpy's default PCG64 (``np.random.default_rng``); changing it
would silently change every grid, so treat it as part of the on-disk format.
A repeat batch derives the seed for run i as base_seed + i.
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


@dataclass(frozen=True)
class SpacetimeGrid:
    """One simulated run. Row t of ``cells`` is the lattice at time t."""

    rule_number: int
    width: int
    steps: int
    seed: int
    cells: np.ndarray = field(repr=False, compare=False)

    def verify(self) -> bool:
        """Re-simulate from the stored seed and compare every cell."""
        again = run(self.rule_number, self.width, self.steps, self.seed)
        return bool(np.array_equal(self.cells, again.cells))


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


def run_batch(rule: int, width: int, steps: int, base_seed: int, runs: int) -> Batch:
    """Repeat runs with the fixed seed policy: run i uses base_seed + i.

    All runs advance together, one vectorized update per time step, on one
    time-major (steps, runs, width + 2) ring whose first and last columns
    copy the wrapped neighbors. Each step reads the previous ring row as one
    flat row: the neighborhood index (2*left + center)*2 + right of every
    position is built with in-place adds, and the next cell is that bit of
    the rule number. The pad cells between runs get junk bits, which the
    next step's wrap copy overwrites; the last row's are copied after the
    loop, so the finished ring is a complete padded stack of the runs, the
    one ``dynamics`` packs codes from. It is returned as the batch's
    ``ring``, and each grid's ``cells`` is a read-only, non-contiguous
    (steps, width) view of it.
    """
    rule = check_rule(rule)
    width, steps, base_seed, runs = check_batch(width, steps, base_seed, runs)
    rule_bits = np.uint8(rule)
    ring = np.empty((steps, runs, width + 2), dtype=np.uint8)
    ring[0, :, 1:-1] = [np.random.default_rng(base_seed + i).integers(0, 2, size=width,
                                                                      dtype=np.uint8)
                        for i in range(runs)]
    flat = ring.reshape(steps, -1)
    hood = np.empty(flat.shape[1] - 2, dtype=np.uint8)
    for t in range(1, steps):
        row = ring[t - 1]
        row[:, 0], row[:, -1] = row[:, -2], row[:, 1]
        prev = flat[t - 1]
        np.add(prev[:-2], prev[:-2], out=hood)
        hood += prev[1:-1]
        hood += hood
        hood += prev[2:]
        nxt = flat[t, 1:-1]
        np.right_shift(rule_bits, hood, out=nxt)
        nxt &= 1
    row = ring[-1]
    row[:, 0], row[:, -1] = row[:, -2], row[:, 1]
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
