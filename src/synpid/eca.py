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

#: Neighborhood tuples in Wolfram order, highest bit first.
NEIGHBORHOODS = tuple(
    (b >> 2 & 1, b >> 1 & 1, b & 1) for b in range(7, -1, -1)
)


@dataclass(frozen=True)
class RuleTable:
    """A decoded update rule: neighborhood tuple -> next cell value."""

    rule_number: int
    outputs: dict[tuple[int, int, int], int] = field(compare=False)


def decode_rule(rule_number: int) -> RuleTable:
    """Expand a Wolfram rule number into an explicit neighborhood table."""
    if not isinstance(rule_number, (int, np.integer)) or isinstance(rule_number, bool):
        raise ValueError(f"rule number must be an integer, got {rule_number!r}")
    if not 0 <= rule_number <= 255:
        raise ValueError(f"rule number must be in [0, 255], got {rule_number}")
    outputs = {
        (l, c, r): (int(rule_number) >> (4 * l + 2 * c + r)) & 1
        for (l, c, r) in NEIGHBORHOODS
    }
    return RuleTable(int(rule_number), outputs)


def encode_rule(table: RuleTable) -> int:
    """Inverse of decode_rule; packs the outputs back into a rule number."""
    n = 0
    for hood, v in table.outputs.items():
        if hood not in NEIGHBORHOODS:
            raise ValueError(f"rule neighborhoods must be triples of bits, got {hood!r}")
        l, c, r = hood
        if v not in (0, 1):
            raise ValueError(f"rule outputs must be bits, got {v!r}")
        n |= v << (4 * l + 2 * c + r)
    return n


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


def run(rule: RuleTable | int, width: int, steps: int, seed: int) -> SpacetimeGrid:
    """Simulate ``steps`` rows of a width-cell ring from a seeded random row.

    ``rule`` may be a RuleTable or a bare rule number. Row 0 is the random
    initial condition; rows 1..steps-1 are synchronous updates.
    """
    return run_batch(rule, width, steps, seed, 1)[0]


def run_batch(rule: RuleTable | int, width: int, steps: int,
              base_seed: int, runs: int) -> list[SpacetimeGrid]:
    """Repeat runs with the fixed seed policy: run i uses base_seed + i.

    All runs advance together, one vectorized update per time step, on one
    time-major (steps, runs, width + 2) ring whose first and last columns
    copy the wrapped neighbors. Each step reads the previous ring row as one
    flat row: the neighborhood index (2*left + center)*2 + right of every
    position is built with in-place adds, and the next cell is that bit of
    the rule number. The pad cells between runs get junk bits, which the
    next step's wrap copy overwrites. Each grid's ``cells`` is a read-only,
    non-contiguous (steps, width) view of that batch.

    A RuleTable is checked by ``encode_rule`` before any step.
    """
    if not isinstance(rule, RuleTable):
        rule = decode_rule(rule)
    if width < 3:
        raise ValueError(f"width must be at least 3, got {width}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if base_seed < 0:
        raise ValueError(f"seed must be >= 0, got {base_seed}")
    rule_bits = np.uint8(encode_rule(rule))
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
    ring.setflags(write=False)
    return [SpacetimeGrid(rule.rule_number, width, steps, int(base_seed + i), ring[:, i, 1:-1])
            for i in range(runs)]


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
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for row in grid.cells:
            writer.writerow(int(v) for v in row)
