import csv
import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pid_oracle
from support import random_distribution, to_prob_table
from synpid import dynamics
from synpid.distributions import (
    JointDistribution, VariableSpec, _count_codes, avg_mi, count_samples, local_mi, merge,
)
from synpid.dynamics import (
    DynamicsConfig, LocalProfile, active_info_storage, ca_distribution, ca_distributions,
    ca_samples, ca_variables, local_ais, local_separable, local_te, profile,
    profile_measures, transfer_entropy, write_profile_csv, write_profile_pgm,
)
from synpid.eca import SpacetimeGrid, run, run_batch


def analytic_dist(next_of, k=1):
    """Counts over (next, hist, left, right) with next = next_of(h, l, r)."""
    counts = {}
    for h, l, r in product(range(2), repeat=3):
        counts[(next_of(h, l, r), h, l, r)] = 1
    return JointDistribution(ca_variables(k), counts)


CFG1 = DynamicsConfig(k=1)


# -- sample extraction ------------------------------------------------------

def test_ca_variables_layout():
    v = ca_variables(3)
    assert [x.name for x in v] == ["next", "hist", "left", "right"]
    assert [x.role for x in v] == [
        "destination-next", "destination-history", "source", "source"]
    assert [x.arity for x in v] == [2, 8, 2, 2]
    assert [x.name for x in ca_variables(1, offsets=(-1, 1, 2))] == [
        "next", "hist", "left", "right", "off+2"]


def test_ca_samples_match_literal_loops():
    grid = run(110, 7, 9, seed=2)
    k = 3
    got = ca_samples(grid, k)
    cells = grid.cells
    steps, width = cells.shape
    expect = []
    for t in range(k, steps):
        for c in range(width):
            hist = sum(int(cells[t - 1 - j, c]) << j for j in range(k))
            left = int(cells[t - 1, (c - 1) % width])
            right = int(cells[t - 1, (c + 1) % width])
            expect.append((int(cells[t, c]), hist, left, right))
    assert got.shape == (width * (steps - k), 4)
    assert got.dtype == np.int64
    assert [tuple(row) for row in got] == expect


def test_ca_samples_start_alignment():
    grid = run(30, 6, 10, seed=4)
    full = ca_samples(grid, 2)
    late = ca_samples(grid, 2, start=5)
    assert late.shape[0] == 6 * 5
    assert np.array_equal(full[3 * 6:], late)
    with pytest.raises(ValueError, match="before time 0"):
        ca_samples(grid, 3, start=2)
    with pytest.raises(ValueError, match="no destinations"):
        ca_samples(grid, 2, start=10)
    with pytest.raises(ValueError, match="k must be"):
        ca_samples(grid, 0)


def test_ca_distribution_pools_runs():
    g1 = run(110, 6, 8, seed=0)
    g2 = run(110, 6, 8, seed=1)
    pooled = ca_distribution([g1, g2], 2)
    merged = merge(ca_distribution([g1], 2), ca_distribution([g2], 2))
    assert pooled.counts == merged.counts
    assert pooled.total == 2 * 6 * 6
    with pytest.raises(ValueError, match="at least one grid"):
        ca_distribution([], 2)


def draw_grids(data, steps_from):
    """One to four grids from a small pool of (steps, width) shapes, so that
    equal shapes get stacked, as views into one batch and separately
    simulated grids; every grid has at least ``steps_from`` steps."""
    shapes = data.draw(st.lists(st.tuples(st.integers(steps_from, steps_from + 7),
                                          st.integers(3, 12)),
                                min_size=2, max_size=3), label="shapes")
    grids = []
    for _ in range(data.draw(st.integers(1, 4))):
        steps, width = data.draw(st.sampled_from(shapes))
        rule, seed = data.draw(st.integers(0, 255)), data.draw(st.integers(0, 2 ** 32 - 1))
        if data.draw(st.booleans(), label="batched"):
            grids += run_batch(rule, width, steps, seed, data.draw(st.integers(1, 3)))
        else:
            grids.append(run(rule, width, steps, seed))
    return grids


def assert_same_distribution(fast, ref):
    assert fast.variables == ref.variables
    assert np.array_equal(fast.counts._codes, ref.counts._codes)
    assert np.array_equal(fast.counts.symbols, ref.counts.symbols)
    assert np.array_equal(fast.counts.weights, ref.counts.weights)
    assert fast.counts.weights.dtype == ref.counts.weights.dtype == np.int64
    assert type(fast.total) is type(ref.total) is float
    assert fast.total == ref.total


OFFSETS = st.sampled_from([(-1, 1), (1, -1), (-2, 1, 3), (2,), (), (-5, 7), (13,)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ca_distribution_equals_counted_samples(data):
    k = data.draw(st.integers(1, 6), label="k")
    offsets = data.draw(OFFSETS, label="offsets")
    start = data.draw(st.one_of(st.none(), st.integers(k, k + 3)), label="start")
    grids = draw_grids(data, (start or k) + 1)
    fast = ca_distribution(grids, k, offsets, start)
    ref = count_samples(ca_variables(k, offsets),
                        np.concatenate([ca_samples(g, k, offsets, start) for g in grids]))
    assert_same_distribution(fast, ref)


def test_ca_distribution_reads_batch_views_like_contiguous_grids():
    batch = run_batch(110, 13, 30, 4, 5)
    assert not batch[0].cells.flags.c_contiguous and not batch[0].cells.flags.writeable
    copies = [SpacetimeGrid(g.rule_number, g.width, g.steps, g.seed, g.cells.copy())
              for g in batch]
    mixed = [batch[0], run(30, 9, 25, 1), *batch[1:3], run(54, 13, 30, 2), batch[3],
             *run_batch(90, 9, 25, 0, 2), batch[4]]
    for k, offsets in ((1, (-1, 1)), (4, (-1, 1)), (3, (-2, 1, 3))):
        assert_same_distribution(ca_distribution(batch, k, offsets),
                                 ca_distribution(copies, k, offsets))
        ref = count_samples(ca_variables(k, offsets),
                            np.concatenate([ca_samples(g, k, offsets) for g in mixed]))
        assert_same_distribution(ca_distribution(mixed, k, offsets), ref)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ca_distributions_equal_one_count_per_k(data):
    ks = data.draw(st.one_of(st.sampled_from([(6, 1), (1, 6), (3, 3), (1, 1, 1), (4,)]),
                             st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple)),
                   label="ks")
    offsets = data.draw(OFFSETS, label="offsets")
    grids = draw_grids(data, max(ks) + 1)
    got = ca_distributions(grids, ks, offsets)
    assert len(got) == len(ks)
    for k, fast in zip(ks, got):
        assert_same_distribution(fast, ca_distribution(grids, k, offsets))


def test_ca_distributions_count_the_batch_once(monkeypatch):
    sizes = []

    def spy(variables, codes):
        sizes.append((variables[1].arity, codes.size))
        return _count_codes(variables, codes)

    monkeypatch.setattr(dynamics, "_count_codes", spy)
    grids = run_batch(30, 9, 20, 0, 3)
    ca_distributions(grids, (16, 1, 4, 16))
    # The whole batch at k=16, then only times [k, 16) for each shorter k.
    assert sorted(sizes) == sorted([(2 ** 16, 3 * 9 * 4), (2, 3 * 9 * 15), (16, 3 * 9 * 12)])


def test_ca_distributions_validation():
    grid = run(30, 6, 8, seed=0)
    with pytest.raises(ValueError, match="at least one history length"):
        ca_distributions([grid], ())
    with pytest.raises(ValueError, match="at least one grid"):
        ca_distributions([], (2, 1))
    with pytest.raises(ValueError, match="k must be"):
        ca_distributions([grid], (2, 0))
    with pytest.raises(ValueError, match="no destinations"):
        ca_distributions([grid], (8, 1))


@pytest.mark.parametrize("k, packed", [(27, np.int32), (28, np.int32), (29, np.int64)])
def test_ca_distribution_packs_narrow_codes_when_they_fit(monkeypatch, k, packed):
    # (next, hist, left, right) spans 2 ** (k + 3) states; codes below 2 ** 31
    # fit in int32, so k=28 is the widest history packed in 32 bits.
    seen = []

    def spy(variables, codes):
        seen.append(codes.dtype)
        return _count_codes(variables, codes)

    monkeypatch.setattr(dynamics, "_count_codes", spy)
    # Rule 255 is all ones after row 0, so it reaches the largest code.
    grids = [run(255, 5, k + 4, seed=0), run(54, 5, k + 4, seed=1), run(30, 7, k + 9, seed=2)]
    fast = ca_distribution(grids, k)
    ref = count_samples(ca_variables(k), np.concatenate([ca_samples(g, k) for g in grids]))
    assert seen == [packed]
    assert fast.counts._codes[-1] == 2 ** (k + 3) - 1
    assert fast.counts._codes.dtype == np.int64
    assert np.array_equal(fast.counts._codes, ref.counts._codes)
    assert np.array_equal(fast.counts.weights, ref.counts.weights)


def test_ca_distribution_keeps_the_radix_guard():
    grid = run(54, 5, 64, seed=0)
    # (next, hist, left, right) spans 2 ** (k + 3) states: k=58 packs, k=59 does not.
    ref = count_samples(ca_variables(58), ca_samples(grid, 58))
    assert ca_distribution([grid], 58).counts == ref.counts
    for build in (lambda: ca_distribution([grid], 59),
                  lambda: count_samples(ca_variables(59), ca_samples(grid, 59))):
        with pytest.raises(ValueError, match="too large to pack into 64-bit codes"):
            build()


def test_ca_distribution_rejects_non_binary_cells():
    cells = np.array([[0, 1, 2], [1, 0, 1], [0, 0, 1]], dtype=np.uint8)
    grid = SpacetimeGrid(54, 3, 3, 0, cells)
    with pytest.raises(ValueError, match=r"must be bits, saw values in \[0, 2\]"):
        ca_distribution([grid], 1)
    with pytest.raises(ValueError, match=r"must be bits, saw values in \[0, 2\]"):
        ca_samples(grid, 1)
    # Checked before any narrowing to uint8, which would map -1 to 255 and 256 to 0.
    for value, dtype in ((-1, np.int8), (256, np.int16)):
        cells = np.array([[0, 1, 1], [1, value, 1], [0, 0, 1]], dtype=dtype)
        bad = SpacetimeGrid(54, 3, 3, 0, cells)
        lo, hi = min(value, 0), max(value, 1)
        for build in (lambda: ca_distribution([bad], 1), lambda: ca_samples(bad, 1),
                      lambda: ca_distributions([run(54, 3, 3, 0), bad], (1,))):
            with pytest.raises(ValueError, match=rf"must be bits, saw values in \[{lo}, {hi}\]"):
                build()
    # NaN compares false with every bound, so a check written as lo < 0 or
    # hi > 1 would let it through as a 0 (or as -2**63 in the sample rows).
    cells = np.array([[0, 1, 1], [1, np.nan, 1], [0, 0, 1]])
    bad = SpacetimeGrid(54, 3, 3, 0, cells)
    for build in (lambda: ca_distribution([bad], 1), lambda: ca_samples(bad, 1),
                  lambda: ca_distributions([bad], (2, 1))):
        with pytest.raises(ValueError, match=r"must be bits, saw values in \[nan, nan\]"):
            build()


# -- averaged measures ------------------------------------------------------

def test_ais_zero_when_past_is_uninformative():
    dist = analytic_dist(lambda h, l, r: l)
    assert active_info_storage(dist, CFG1) == 0.0


def test_ais_one_bit_for_alternation():
    grid = run(51, 5, 101, seed=3)  # rule 51 complements every cell
    dist = ca_distribution([grid], 1)
    assert active_info_storage(dist, CFG1) == pytest.approx(1.0, abs=1e-12)


def test_ais_matches_oracle_mi():
    grid = run(204, 8, 30, seed=5)  # identity rule: next equals own past
    dist = ca_distribution([grid], 2)
    table = to_prob_table(dist)
    assert active_info_storage(dist, DynamicsConfig(k=2)) == pytest.approx(
        pid_oracle.mutual_info(table, (0,), (1,)), abs=1e-10)
    assert transfer_entropy(dist, DynamicsConfig(k=2), "left") == pytest.approx(
        0.0, abs=1e-12)


def test_te_one_bit_for_pure_copy():
    dist = analytic_dist(lambda h, l, r: l)
    assert transfer_entropy(dist, CFG1, "left") == 1.0
    assert transfer_entropy(dist, CFG1, "right") == 0.0
    assert transfer_entropy(dist, CFG1, "left", ("right",)) == 1.0


def test_xor_source_is_invisible_apparently():
    dist = analytic_dist(lambda h, l, r: l ^ r)
    assert transfer_entropy(dist, CFG1, "left") == 0.0
    assert transfer_entropy(dist, CFG1, "right") == 0.0
    assert transfer_entropy(dist, CFG1, "left", ("right",)) == 1.0
    assert transfer_entropy(dist, CFG1, "right", ("left",)) == 1.0


def test_chain_rule_on_automaton_grids():
    for rule in (110, 30, 54):
        grid = run(rule, 30, 30, seed=8)
        dist = ca_distribution([grid], 3)
        cfg = DynamicsConfig(k=3)
        lhs = (active_info_storage(dist, cfg)
               + transfer_entropy(dist, cfg, "left")
               + transfer_entropy(dist, cfg, "right", ("left",)))
        rhs = avg_mi(dist, (0,), (1, 2, 3))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_conditional_order_is_irrelevant():
    grid = run(110, 20, 25, seed=9)
    offsets = (-1, 1, 2)
    dist = ca_distribution([grid], 2, offsets=offsets)
    cfg = DynamicsConfig(k=2, sources=("left", "right", "off+2"))
    a = transfer_entropy(dist, cfg, "left", ("right", "off+2"))
    b = transfer_entropy(dist, cfg, "left", ("off+2", "right"))
    assert a == b


def test_longer_history_stores_no_less():
    # On a fixed destination set, refining the history partition cannot
    # reduce plug-in mutual information.
    grid = run(110, 30, 40, seed=11)
    values = []
    for k in range(1, 6):
        dist = ca_distribution([grid], k, start=5)
        values.append(active_info_storage(dist, DynamicsConfig(k=k)))
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_source_and_conditional_validation():
    dist = analytic_dist(lambda h, l, r: l)
    with pytest.raises(ValueError, match="not a configured source"):
        transfer_entropy(dist, CFG1, "up")
    with pytest.raises(ValueError, match="condition on itself"):
        transfer_entropy(dist, CFG1, "left", ("left",))
    with pytest.raises(ValueError, match="duplicate conditionals"):
        transfer_entropy(dist, CFG1, "left", ("right", "right"))
    with pytest.raises(ValueError, match="does not match"):
        active_info_storage(dist, DynamicsConfig(k=2))
    with pytest.raises(ValueError):
        DynamicsConfig(k=0)
    with pytest.raises(ValueError, match="own sources"):
        DynamicsConfig(k=1, destination="left")
    with pytest.raises(ValueError, match="duplicate source"):
        DynamicsConfig(k=1, sources=("left", "left"))


# -- local measures ---------------------------------------------------------

def test_local_ais_sign_structure():
    # Alternating dynamics: consistent flips are informative, a broken flip
    # would be misinformative; here every observation is consistent.
    grid = run(51, 5, 41, seed=3)
    dist = ca_distribution([grid], 1)
    for obs in dist.counts:
        assert local_ais(dist, obs[1], obs[0]) == pytest.approx(1.0, abs=1e-12)


def test_local_values_average_to_globals():
    grid = run(110, 25, 30, seed=13)
    cfg = DynamicsConfig(k=2)
    dist = ca_distribution([grid], 2)
    n = dist.total
    ais = sum(c / n * local_ais(dist, o[1], o[0]) for o, c in dist.counts.items())
    assert ais == pytest.approx(active_info_storage(dist, cfg), abs=1e-10)
    te = sum(c / n * local_te(dist, cfg, "left", (), o) for o, c in dist.counts.items())
    assert te == pytest.approx(transfer_entropy(dist, cfg, "left"), abs=1e-10)
    cte = sum(c / n * local_te(dist, cfg, "left", ("right",), o)
              for o, c in dist.counts.items())
    assert cte == pytest.approx(
        transfer_entropy(dist, cfg, "left", ("right",)), abs=1e-10)


def test_local_separable_is_the_sum_of_parts():
    grid = run(54, 20, 25, seed=15)
    dist = ca_distribution([grid], 2)
    cfg = DynamicsConfig(k=2)
    for obs in list(dist.counts)[:10]:
        expect = (local_ais(dist, obs[1], obs[0])
                  + local_te(dist, cfg, "left", (), obs)
                  + local_te(dist, cfg, "right", (), obs))
        assert local_separable(dist, cfg, obs) == pytest.approx(expect, abs=1e-12)


def test_local_te_validates_observation():
    dist = analytic_dist(lambda h, l, r: l)
    with pytest.raises(ValueError, match="cover all"):
        local_te(dist, CFG1, "left", (), (0, 0))
    with pytest.raises(ValueError, match="zero probability"):
        local_te(dist, CFG1, "left", (), (1, 0, 0, 0))  # copy forbids next != left


def loop_local_mi(dist, obs, xs, ys, cond=()):
    """Reference local MI per row, from sums over the counts mapping."""
    def count(row, cols):
        return sum(c for key, c in dist.counts.items()
                   if all(key[i] == row[i] for i in cols))
    return np.array([
        math.log2(count(row, xs + ys + cond) * count(row, cond))
        - math.log2(count(row, xs + cond) * count(row, ys + cond))
        for row in obs])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_matrix_local_values_match_dict_loop(seed):
    rng = np.random.default_rng(seed)
    # All arities 2, so the layout reads as (next, hist, left, right) at k=1.
    dist = JointDistribution(ca_variables(1),
                             random_distribution(rng, r=3, max_arity=2).counts)
    rows = np.array(list(dist.counts))
    obs = rows[rng.integers(0, len(rows), size=2 * len(rows))]
    close = dict(rtol=0, atol=1e-12)

    np.testing.assert_allclose(
        local_mi(dist, {0: obs[:, 0]}, {1: obs[:, 1], 2: obs[:, 2]}),
        loop_local_mi(dist, obs, (0,), (1, 2)), **close)
    np.testing.assert_allclose(
        local_mi(dist, {0: obs[:, 0]}, {2: obs[:, 2]}, {1: obs[:, 1], 3: obs[:, 3]}),
        loop_local_mi(dist, obs, (0,), (2,), (1, 3)), **close)
    te_left = loop_local_mi(dist, obs, (0,), (2,), (1,))
    te_right = loop_local_mi(dist, obs, (0,), (3,), (1,))
    np.testing.assert_allclose(local_te(dist, CFG1, "left", (), obs), te_left, **close)
    np.testing.assert_allclose(local_te(dist, CFG1, "right", ("left",), obs),
                               loop_local_mi(dist, obs, (0,), (3,), (1, 2)), **close)
    np.testing.assert_allclose(
        local_separable(dist, CFG1, obs),
        loop_local_mi(dist, obs, (0,), (1,)) + te_left + te_right, **close)
    # storage first, then each transfer in source order, bit for bit
    in_order = (local_ais(dist, obs[:, 1], obs[:, 0])
                + local_te(dist, CFG1, "left", (), obs)
                + local_te(dist, CFG1, "right", (), obs))
    assert np.array_equal(local_separable(dist, CFG1, obs), in_order)


# -- spacetime profiles -----------------------------------------------------

@pytest.fixture(scope="module")
def profiled():
    grid = run(110, 20, 24, seed=17)
    dist = ca_distribution([grid], 2)
    cfg = DynamicsConfig(k=2)
    return grid, dist, cfg


def test_profile_shape_and_nan_margin(profiled):
    grid, dist, cfg = profiled
    prof = profile(dist, grid, cfg, "local_ais")
    assert prof.values.shape == grid.cells.shape
    assert np.isnan(prof.values[:2]).all()
    assert np.isfinite(prof.defined_values()).all()
    assert prof.start == 2 and prof.k == 2


def test_profile_mean_recovers_average(profiled):
    # The displayed grid is the only pooled grid, so sites are the samples.
    grid, dist, cfg = profiled
    prof = profile(dist, grid, cfg, "local_ais")
    assert prof.defined_values().mean() == pytest.approx(
        active_info_storage(dist, cfg), abs=1e-10)
    te = profile(dist, grid, cfg, "local_te_left")
    assert te.defined_values().mean() == pytest.approx(
        transfer_entropy(dist, cfg, "left"), abs=1e-10)


def test_profile_separable_is_elementwise_sum(profiled):
    grid, dist, cfg = profiled
    parts = [profile(dist, grid, cfg, m).defined_values()
             for m in ("local_ais", "local_te_left", "local_te_right")]
    sep = profile(dist, grid, cfg, "local_separable").defined_values()
    assert np.allclose(sep, parts[0] + parts[1] + parts[2], atol=1e-12)


def test_profile_equals_per_site_scalar_calls(profiled):
    grid, dist, cfg = profiled
    width = grid.cells.shape[1]
    scalar = {
        "local_ais": lambda o: local_ais(dist, o[1], o[0]),
        "local_te_left": lambda o: local_te(dist, cfg, "left", (), o),
        "local_te_right": lambda o: local_te(dist, cfg, "right", (), o),
        "local_separable": lambda o: local_separable(dist, cfg, o),
    }
    for measure, site in scalar.items():
        expect = np.full(grid.cells.shape, np.nan)
        for i, row in enumerate(ca_samples(grid, cfg.k)):
            expect[cfg.k + i // width, i % width] = site(tuple(int(v) for v in row))
        got = profile(dist, grid, cfg, measure).values
        assert np.array_equal(got, expect, equal_nan=True), measure


def test_profile_measure_names(profiled):
    grid, dist, cfg = profiled
    assert profile_measures(cfg) == (
        "local_ais", "local_te_left", "local_te_right", "local_separable")
    with pytest.raises(ValueError, match="unknown measure"):
        profile(dist, grid, cfg, "local_entropy")


def test_profile_csv_round_trip(profiled, tmp_path):
    grid, dist, cfg = profiled
    prof = profile(dist, grid, cfg, "local_ais")
    path = tmp_path / "prof.csv"
    write_profile_csv(prof, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "cell,time,value"
    assert len(lines) == 1 + 20 * (24 - 2)
    cell, t, value = lines[1].split(",")
    assert (int(cell), int(t)) == (0, 2)
    assert float(value) == prof.values[2, 0]


def test_profile_csv_bytes_match_csv_writer(tmp_path):
    values = np.full((4, 3), np.nan)
    values[2:] = [[1e-05, -0.0, 1e16], [0.1 + 0.2, -2.5, -1e-300]]
    prof = LocalProfile("local_ais", 2, 2, values)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["cell", "time", "value"])
        for t in range(prof.start, values.shape[0]):
            for c in range(values.shape[1]):
                writer.writerow([c, t, repr(float(values[t, c]))])
    path = tmp_path / "prof.csv"
    write_profile_csv(prof, path)
    assert path.read_bytes() == ref.read_bytes()
    assert path.read_bytes().split(b"\r\n")[1:3] == [b"0,2,1e-05", b"1,2,-0.0"]


def test_profile_pgm_round_trip(profiled, tmp_path):
    grid, dist, cfg = profiled
    prof = profile(dist, grid, cfg, "local_te_right")
    path = tmp_path / "prof.pgm"
    write_profile_pgm(prof, path)
    p5, comment, dims, maxval, payload = path.read_bytes().split(b"\n", 4)
    lines = [p5.decode(), comment.decode(), dims.decode(), maxval.decode()]
    assert lines[0] == "P5"
    assert lines[3] == "65535"
    m = re.match(
        r"# local_te_right k=2; rows are times 2\.\.23; "
        r"value_bits = (\S+) \+ gray \* \((\S+) - \1\) / 65535", lines[1])
    assert m, lines[1]
    vmin, vmax = float(m.group(1)), float(m.group(2))
    width, rows = map(int, lines[2].split())
    assert (width, rows) == (20, 22)
    gray = np.frombuffer(payload, dtype=">u2").reshape(rows, width)
    decoded = vmin + gray.astype(float) * (vmax - vmin) / 65535.0
    quantum = (vmax - vmin) / 65535.0
    assert np.allclose(decoded, prof.defined_values(), atol=quantum)


def test_profile_pgm_flat_data(tmp_path):
    grid = run(51, 5, 11, seed=3)
    dist = ca_distribution([grid], 1)
    prof = profile(dist, grid, CFG1, "local_ais")  # constant 1 bit everywhere
    path = tmp_path / "flat.pgm"
    write_profile_pgm(prof, path)
    payload = path.read_bytes().split(b"\n", 4)[4]
    assert not np.frombuffer(payload, dtype=">u2").any()
