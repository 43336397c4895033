import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synpid.eca import (
    RuleTable, decode_rule, encode_rule, run, run_batch, write_csv, write_pgm,
)


def test_decode_known_bits():
    assert decode_rule(110).outputs[(1, 1, 0)] == 1
    assert decode_rule(110).outputs[(1, 1, 1)] == 0
    assert decode_rule(110).outputs[(0, 0, 0)] == 0
    assert decode_rule(30).outputs[(1, 0, 0)] == 1
    assert all(v == 0 for v in decode_rule(0).outputs.values())
    assert all(v == 1 for v in decode_rule(255).outputs.values())


def test_rule_204_is_identity_map():
    for (l, c, r), v in decode_rule(204).outputs.items():
        assert v == c


@given(st.integers(0, 255))
def test_encode_inverts_decode(n):
    assert encode_rule(decode_rule(n)) == n


BAD_RULES = [-1, 256, 1000, 2.5, "110", None]


@pytest.mark.parametrize("bad", BAD_RULES)
def test_decode_rejects_bad_rule_numbers(bad):
    with pytest.raises(ValueError):
        decode_rule(bad)


@pytest.mark.parametrize("bad", BAD_RULES + [True])
def test_run_rejects_bad_rule_numbers(bad):
    with pytest.raises(ValueError, match="rule number"):
        run(bad, 10, 5, 0)


@pytest.mark.parametrize("steps", [1, 2, 6])
@pytest.mark.parametrize("entry, message", [
    ({(0, 1, 1): 2}, "rule outputs must be bits, got 2"),
    ({(2, 0, 0): 1}, r"rule neighborhoods must be triples of bits, got \(2, 0, 0\)"),
])
def test_run_rejects_malformed_rule_tables(steps, entry, message):
    # The table is checked before any step, so a bad entry cannot reach a
    # grid on the last step or fail halfway through a batch.
    bad = RuleTable(110, {**decode_rule(110).outputs, **entry})
    for simulate in (lambda: run(bad, 8, steps, 0), lambda: run_batch(bad, 8, steps, 0, 3)):
        with pytest.raises(ValueError, match=message):
            simulate()


def test_run_validates_geometry():
    with pytest.raises(ValueError):
        run(110, 2, 10, 0)
    with pytest.raises(ValueError):
        run(110, 10, 0, 0)


def test_run_rejects_negative_seeds():
    for simulate in (lambda: run(110, 10, 5, -1), lambda: run_batch(110, 10, 5, -1, 3)):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            simulate()


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
    assert a.verify()
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


@settings(max_examples=60, deadline=None)
@given(rule=st.integers(0, 255), width=st.integers(3, 24), steps=st.integers(1, 16),
       runs=st.integers(1, 4), base_seed=st.integers(0, 2 ** 63))
def test_batch_follows_seed_policy(rule, width, steps, runs, base_seed):
    batch = run_batch(rule, width, steps, base_seed, runs)
    assert len(batch) == runs
    for i, grid in enumerate(batch):
        assert (grid.rule_number, grid.width, grid.steps, grid.seed) == (
            rule, width, steps, base_seed + i)
        assert grid.cells.dtype == np.uint8 and not grid.cells.flags.writeable
        assert np.array_equal(grid.cells, run(rule, width, steps, base_seed + i).cells)
        rows = grid.cells.tolist()
        first = np.random.default_rng(base_seed + i).integers(0, 2, size=width, dtype=np.uint8)
        assert rows[0] == first.tolist()
        for t in range(1, steps):
            assert rows[t] == _oracle_step(rows[t - 1], rule)


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
