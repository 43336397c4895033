import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synpid.eca import (
    _initial_rows, _padded_rows, check_rule, run, run_batch, write_csv, write_pgm,
)
from synpid.experiments import ExperimentConfig

BAD_RULES = [-1, 256, 1000, 2.5, "110", None]


@pytest.mark.parametrize("bad", BAD_RULES + [True])
def test_decode_rejects_bad_rule_numbers(bad):
    with pytest.raises(ValueError, match="rule number"):
        check_rule(bad)


@pytest.mark.parametrize("bad", BAD_RULES + [True])
def test_run_rejects_bad_rule_numbers(bad):
    with pytest.raises(ValueError, match="rule number"):
        run(bad, 10, 5, 0)


def test_run_validates_geometry():
    with pytest.raises(ValueError):
        run(110, 2, 10, 0)
    with pytest.raises(ValueError):
        run(110, 10, 0, 0)


def test_run_rejects_negative_seeds():
    for simulate in (lambda: run(110, 10, 5, -1), lambda: run_batch(110, 10, 5, -1, 3)):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            simulate()


GOOD_BATCH = {"width": 20, "steps": 20, "seed": 0, "runs": 2}


@pytest.mark.parametrize("value", [20.0, 2.5, True, "3", None])
@pytest.mark.parametrize("name", list(GOOD_BATCH))
def test_run_batch_refuses_non_integer_fields(name, value):
    # A bool seed used to run seed 1, and floats failed inside numpy.
    args = {**GOOD_BATCH, name: value}
    message = re.escape(f"{name} must be an integer, got {value!r}")
    with pytest.raises(ValueError, match=message):
        run_batch(54, args["width"], args["steps"], args["seed"], args["runs"])
    if name != "runs":
        with pytest.raises(ValueError, match=message):
            run(54, args["width"], args["steps"], args["seed"])


@pytest.mark.parametrize("name, value, message", [
    ("width", 2, "width must be at least 3, got 2"),
    ("steps", 0, "steps must be at least 1, got 0"),
    ("runs", 0, "runs must be at least 1, got 0"),
    ("seed", -2, "seed must be >= 0, got -2"),
])
def test_run_batch_and_config_state_the_same_bounds(name, value, message):
    args = {**GOOD_BATCH, name: value}
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_batch(54, args["width"], args["steps"], args["seed"], args["runs"])
    config = {"base_seed" if name == "seed" else name: value}
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig(rules=(54,), k=1, **config)


def test_run_batch_takes_numpy_integers_as_plain_ints():
    grids = run_batch(54, np.int64(20), np.int32(5), np.uint8(7), np.int16(2))
    assert [type(g.seed) for g in grids] == [int, int]
    assert [g.seed for g in grids] == [7, 8]
    assert grids[0] == run(54, 20, 5, 7)
    assert np.array_equal(grids[1].cells, run(54, 20, 5, 8).cells)


def test_rule_0_goes_dark_after_the_random_row():
    grid = run(0, 31, 20, 3)
    assert grid.cells[0].any()
    assert not grid.cells[1:].any()


def test_rule_204_holds_its_row():
    grid = run(204, 40, 15, 9)
    assert (grid.cells == grid.cells[0]).all()


def test_rule_255_saturates():
    grid = run(255, 16, 5, 4)
    assert (grid.cells[1:] == 1).all()


def test_deterministic_and_verifiable():
    a = run(110, 64, 64, 12345)
    b = run(110, 64, 64, 12345)
    assert np.array_equal(a.cells, b.cells)
    c = run(110, 64, 64, 12346)
    assert not np.array_equal(a.cells, c.cells)


def _oracle_step(row, rule_number):
    w = len(row)
    return [
        (rule_number >> (4 * row[(i - 1) % w] + 2 * row[i] + row[(i + 1) % w])) & 1
        for i in range(w)
    ]


@pytest.mark.parametrize("rule", [110, 30, 54, 18, 90])
def test_update_matches_independent_resimulation(rule):
    grid = run(rule, 37, 25, 7)
    rows = grid.cells.tolist()
    for t in range(1, 25):
        assert rows[t] == _oracle_step(rows[t - 1], rule), f"mismatch at step {t}"


# The initial rows are checked against numpy's own draw. Seeds are split
# into 32-bit words: 2**32 - 1 and the run after it straddle a word, and
# 2**128 has five words, past the four that fill the seed's hash pool.
@settings(max_examples=60, deadline=None)
@given(rule=st.integers(0, 255), width=st.integers(3, 24), steps=st.integers(1, 16),
       runs=st.integers(1, 4), base_seed=st.integers(0, 2 ** 200))
@example(rule=30, width=3, steps=2, runs=2, base_seed=2 ** 32 - 1)
@example(rule=110, width=17, steps=3, runs=3, base_seed=2 ** 64)
@example(rule=54, width=24, steps=2, runs=2, base_seed=2 ** 128)
def test_batch_follows_seed_policy(rule, width, steps, runs, base_seed):
    batch = run_batch(rule, width, steps, base_seed, runs)
    assert type(batch) is tuple and len(batch) == runs
    for i, grid in enumerate(batch):
        assert (grid.rule_number, grid.width, grid.steps, grid.seed) == (
            rule, width, steps, base_seed + i)
        assert grid.cells.base is batch[0].cells.base
        assert grid.cells.dtype == np.uint8 and not grid.cells.flags.writeable
        assert np.array_equal(grid.cells, run(rule, width, steps, base_seed + i).cells)
        rows = grid.cells.tolist()
        first = np.random.default_rng(base_seed + i).integers(0, 2, size=width, dtype=np.uint8)
        assert rows[0] == first.tolist()
        for t in range(1, steps):
            assert rows[t] == _oracle_step(rows[t - 1], rule)
    # The grids' cells are views of one read-only time-major array.
    cells = batch[0].cells.base
    assert cells.shape == (steps, runs, width) and not cells.flags.writeable
    # The simulator yields the batch's rows one at a time, each read-only:
    # the inner columns are the grids' rows, and the pad columns, the last
    # row's too, hold each run's wrapped neighbours.
    drawn = 0
    for t, row in enumerate(_padded_rows(rule, _initial_rows(width, base_seed, runs), steps)):
        assert not row.flags.writeable and np.array_equal(row[:, 1:-1], cells[t])
        assert np.array_equal(row[:, 0], cells[t, :, -1])
        assert np.array_equal(row[:, -1], cells[t, :, 0])
        drawn += 1
    assert drawn == steps


def test_pgm_export(tmp_path):
    grid = run(110, 23, 17, 5)
    path = tmp_path / "grid.pgm"
    write_pgm(grid, path)
    blob = path.read_bytes()
    header, _, rest = blob.partition(b"\n")
    assert header == b"P5"
    comment, _, rest = rest.partition(b"\n")
    assert comment.startswith(b"#")
    dims, _, rest = rest.partition(b"\n")
    assert dims == b"23 17"
    maxval, _, raster = rest.partition(b"\n")
    assert maxval == b"1"
    assert np.array_equal(
        np.frombuffer(raster, dtype=np.uint8).reshape(17, 23), grid.cells)


def test_csv_export_round_trips(tmp_path):
    grid = run(54, 12, 9, 2)
    path = tmp_path / "grid.csv"
    write_csv(grid, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 9
    parsed = [[int(v) for v in line.split(",")] for line in lines]
    assert np.array_equal(np.array(parsed), grid.cells)
