import csv
import math
import pickle
import re
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import pid_oracle
from support import count_dict, count_samples, random_distribution, to_prob_table
from synpid import dynamics
from synpid.distributions import (
    JointDistribution, VariableSpec, _count_codes, _first_seen, avg_mi,
    history_length, local_mi, merge,
)
from synpid.dynamics import (
    PROFILE_MEASURES, GridSites, LocalProfile, active_info_storage, batch_distributions,
    ca_distribution, ca_distributions, ca_samples, ca_variables, check_measures, grid_sites,
    local_ais, local_separable, local_te, profile, transfer_entropy, write_profile_csv,
    write_profile_pgm,
)
from synpid.eca import SpacetimeGrid, run, run_batch
from synpid.experiments import (
    AnalyzeConfig, ExperimentConfig, export_local_profiles, run_table1, series_distribution,
)


def analytic_dist(next_of, k=1):
    """Counts over (next, hist, left, right) with next = next_of(h, l, r)."""
    counts = {}
    for h, l, r in product(range(2), repeat=3):
        counts[(next_of(h, l, r), h, l, r)] = 1
    return JointDistribution(ca_variables(k), counts)


def bits_grid(steps, width, seed):
    """A grid of random bits, at any width: ``run`` needs at least 3 cells,
    and on rings of 1 and 2 cells the left and right neighbours coincide."""
    cells = np.random.default_rng(seed).integers(0, 2, (steps, width), dtype=np.uint8)
    return SpacetimeGrid(0, width, steps, seed, cells)


# -- sample extraction ------------------------------------------------------

def test_ca_variables_layout():
    v = ca_variables(3)
    assert [x.name for x in v] == ["next", "hist", "left", "right"]
    assert [x.role for x in v] == [
        "destination-next", "destination-history", "source", "source"]
    assert [x.arity for x in v] == [2, 8, 2, 2]


def test_ca_samples_match_literal_loops():
    k = 3
    for grid in (run(110, 7, 9, seed=2), bits_grid(9, 1, 3), bits_grid(9, 2, 4)):
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
    # Destinations run from t = k, so a longer history drops the first rows;
    # the rows it keeps differ only in the history's high bits.
    grid = run(30, 6, 10, seed=4)
    short, long = ca_samples(grid, 2), ca_samples(grid, 5)
    assert long.shape[0] == 6 * 5
    masked = long.copy()
    masked[:, 1] &= 2 ** 2 - 1
    assert np.array_equal(short[3 * 6:], masked)
    with pytest.raises(ValueError, match="no destinations after a k=10 window"):
        ca_samples(grid, 10)
    with pytest.raises(ValueError, match="k must be"):
        ca_samples(grid, 0)


def test_ca_distribution_pools_runs():
    g1 = run(110, 6, 8, seed=0)
    g2 = run(110, 6, 8, seed=1)
    pooled = ca_distribution([g1, g2], 2)
    merged = merge(ca_distribution([g1], 2), ca_distribution([g2], 2))
    assert count_dict(pooled.counts) == count_dict(merged.counts)
    assert pooled.total == 2 * 6 * 6
    with pytest.raises(ValueError, match="at least one grid"):
        ca_distribution([], 2)


def draw_grids(data, steps_from):
    """One to four grids from a small pool of (steps, width) shapes, so that
    equal shapes get stacked, as views into one batch and separately
    simulated grids; every grid has at least ``steps_from`` steps. Rings of
    1 and 2 cells are random bits."""
    shapes = data.draw(st.lists(st.tuples(st.integers(steps_from, steps_from + 7),
                                          st.integers(1, 12)),
                                min_size=2, max_size=3), label="shapes")
    grids = []
    for _ in range(data.draw(st.integers(1, 4))):
        steps, width = data.draw(st.sampled_from(shapes))
        rule, seed = data.draw(st.integers(0, 255)), data.draw(st.integers(0, 2 ** 32 - 1))
        if width < 3:
            grids.append(bits_grid(steps, width, seed))
        elif data.draw(st.booleans(), label="batched"):
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ca_distribution_equals_counted_samples(data):
    k = data.draw(st.integers(1, 6), label="k")
    grids = draw_grids(data, k + 1)
    # A ring of 1 or 2 cells in every example, where the padded rows' two wrap
    # columns copy the same cell or each other's neighbour.
    for width in data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2), label="narrow"):
        grids.append(bits_grid(data.draw(st.integers(k + 1, k + 8)), width,
                               data.draw(st.integers(0, 2 ** 32 - 1))))
    fast = ca_distribution(grids, k)
    ref = count_samples(ca_variables(k), np.concatenate([ca_samples(g, k) for g in grids]))
    assert_same_distribution(fast, ref)
    assert history_length(fast) == k


def test_ca_distribution_reads_batch_views_like_contiguous_grids():
    batch = run_batch(110, 13, 30, 4, 5)
    assert not batch[0].cells.flags.c_contiguous and not batch[0].cells.flags.writeable
    copies = [SpacetimeGrid(g.rule_number, g.width, g.steps, g.seed, g.cells.copy())
              for g in batch]
    mixed = [batch[0], run(30, 9, 25, 1), *batch[1:3], run(54, 13, 30, 2), batch[3],
             *run_batch(90, 9, 25, 0, 2), batch[4]]
    for k in (1, 3, 4):
        assert_same_distribution(ca_distribution(batch, k), ca_distribution(copies, k))
        ref = count_samples(ca_variables(k), np.concatenate([ca_samples(g, k) for g in mixed]))
        assert_same_distribution(ca_distribution(mixed, k), ref)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ca_distributions_equal_one_count_per_k(data):
    ks = data.draw(st.one_of(st.sampled_from([(6, 1), (1, 6), (3, 3), (1, 1, 1), (4,)]),
                             st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple)),
                   label="ks")
    grids = draw_grids(data, max(ks) + 1)
    got = ca_distributions(grids, ks)
    assert len(got) == len(ks)
    for k, fast in zip(ks, got):
        assert_same_distribution(fast, ca_distribution(grids, k))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_distributions_equal_the_counts_of_the_batch(data):
    # Repeated ks in any order, and histories packed in 32 and in 64 bits.
    ks = data.draw(st.one_of(st.sampled_from([(28, 1), (29, 3, 29)]),
                             st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple)),
                   label="ks")
    rule, width = data.draw(st.integers(0, 255), label="rule"), data.draw(st.integers(3, 12))
    steps = data.draw(st.integers(max(ks) + 1, max(ks) + 8), label="steps")
    seed, runs = data.draw(st.integers(0, 2 ** 32 - 1)), data.draw(st.integers(1, 4), label="runs")
    got = batch_distributions(rule, width, steps, seed, runs, ks)
    batch = run_batch(rule, width, steps, seed, runs)
    assert len(got) == len(ks)
    for fast, from_batch, from_copies in zip(got, ca_distributions(batch, ks),
                                            ca_distributions(copied(batch), ks)):
        assert_same_distribution(fast, from_batch)
        assert_same_distribution(fast, from_copies)


@pytest.mark.parametrize("args, message", [
    ((256, 8, 6, 0, 2, (2,)), "rule number must be in [0, 255], got 256"),
    ((30, 2, 6, 0, 2, (2,)), "width must be at least 3, got 2"),
    ((30, 8, 6, 0, 2.0, (2,)), "runs must be an integer, got 2.0"),
    ((30, 8, 6, 0, 2, ()), "need at least one history length"),
    ((30, 8, 6, 0, 2, 3), "ks must be a sequence of history lengths, got 3"),
    ((30, 8, 6, 0, 2, (2, True)), "history length k must be an integer, got True"),
    ((30, 8, 6, 0, 2, (1, 6)), "grid with 6 steps has no destinations after a k=6 window"),
])
def test_batch_distributions_refuse_what_counting_the_batch_refuses(args, message):
    *batch, ks = args
    for count in (lambda: batch_distributions(*batch, ks),
                  lambda: ca_distributions(run_batch(*batch), ks)):
        with pytest.raises(ValueError, match=re.escape(message)):
            count()


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


def copied(grids):
    return [SpacetimeGrid(g.rule_number, g.width, g.steps, g.seed, g.cells.copy()) for g in grids]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_counts_equal_copied_counts(data):
    k = data.draw(st.integers(1, 6), label="k")
    steps, width = data.draw(st.integers(k + 1, k + 8)), data.draw(st.integers(3, 12))
    runs = data.draw(st.integers(2, 5), label="runs")
    batch = run_batch(data.draw(st.integers(0, 255)), width, steps,
                      data.draw(st.integers(0, 2 ** 32 - 1)), runs)
    # A batch counts as its copies, any permutation of it and a pickled
    # copy of it do, and a slice of it as the copies of the slice.
    want = ca_distribution(copied(batch), k)
    assert_same_distribution(ca_distribution(batch, k), want)
    assert_same_distribution(ca_distribution(data.draw(st.permutations(batch)), k), want)
    assert_same_distribution(ca_distribution(pickle.loads(pickle.dumps(batch)), k), want)
    lo = data.draw(st.integers(1, runs - 1), label="lo")
    part = batch[lo:data.draw(st.integers(lo + 1, runs), label="hi")]
    assert_same_distribution(ca_distribution(part, k), ca_distribution(copied(part), k))


COUNTS = pytest.mark.parametrize("count", [lambda grids: ca_distribution(grids, 16),
                                           lambda grids: ca_distributions(grids, (16, 1))],
                                 ids=["ca_distribution", "ca_distributions"])


@COUNTS
@pytest.mark.parametrize("held", [
    lambda: run_batch(54, 200, 100, 0, 20),
    lambda: run_batch(54, 200, 100, 0, 21)[1:],
    lambda: [run(54, 200, 100, seed) for seed in range(20)],
], ids=["batch", "slice", "runs"])
def test_held_grids_are_counted_in_their_code_buffer(held, count):
    # Neither a padded copy of the grids (30% of the int32 codes here) nor
    # a one-byte run-start mask per code is made, whether the grids are one
    # batch, a slice of one or separate runs; rule 54 has few distinct rows.
    grids = held()
    tracemalloc.start()
    try:
        count(grids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * 84 * 20 * 200 * 4


@COUNTS
def test_the_counting_sort_holds_only_the_code_buffer(monkeypatch, count):
    # Only a few padded rows of the grids are copied at a time, and they
    # are dropped before the whole batch is sorted.
    grids = run_batch(30, 200, 100, 0, 20)
    held = []

    def spy(variables, codes):
        held.append((tracemalloc.get_traced_memory()[0] - start, codes.nbytes))
        return _count_codes(variables, codes)

    monkeypatch.setattr(dynamics, "_count_codes", spy)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        count(grids)
    finally:
        tracemalloc.stop()
    traced, nbytes = max(held, key=lambda h: h[1])
    assert nbytes == 84 * 20 * 200 * 4
    assert traced <= 1.05 * nbytes


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "before Python 3.11 the caller's frame holds each argument until the call "
    "returns, so a batch passed straight in outlives its pack"))
@pytest.mark.parametrize("count", [
    lambda: ca_distributions(run_batch(30, 200, 100, 0, 20), (16, 1)),
    lambda: ca_distribution(run_batch(30, 200, 100, 0, 20), 16),
    lambda: run_table1(ExperimentConfig((30,), runs=20, width=200, steps=100, k=16)),
], ids=["ca_distributions", "ca_distribution", "run_table1"])
def test_a_batch_passed_straight_in_is_freed_before_its_sort(monkeypatch, count):
    # Tracing starts before run_batch, so the batch's cells (one byte per
    # cell, about 30% of the int32 codes here) are counted unless the call
    # that packed them let them go before the sort.
    held = []

    def spy(variables, codes):
        held.append((tracemalloc.get_traced_memory()[0] - start, codes.nbytes))
        return _count_codes(variables, codes)

    monkeypatch.setattr(dynamics, "_count_codes", spy)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        count()
    finally:
        tracemalloc.stop()
    traced, nbytes = max(held, key=lambda h: h[1])
    assert nbytes == 84 * 20 * 200 * 4
    assert traced <= 1.05 * nbytes


PINNED = ExperimentConfig((30,), runs=20, width=200, steps=100, k=16)


@pytest.mark.parametrize("count", [
    lambda out: batch_distributions(30, 200, 100, 0, 20, (16, 1)),
    lambda out: run_table1(PINNED),
    lambda out: export_local_profiles(PINNED, ("local_ais",), out),
], ids=["batch_distributions", "run_table1", "export_local_profiles"])
def test_a_batch_counted_as_it_is_simulated_peaks_at_its_code_buffer(monkeypatch, tmp_path,
                                                                    count):
    # Tracing starts before the simulation, so the batch's cells (one byte
    # per cell, about 30% of the int32 codes here) would count at the pack;
    # only a few padded rows may sit beside the code buffer, up to and
    # through its sort.
    peaks = []

    def spy(variables, codes):
        codes.sort()
        peaks.append((tracemalloc.get_traced_memory()[1] - start, codes.nbytes))
        return _count_codes(variables, codes)

    monkeypatch.setattr(dynamics, "_count_codes", spy)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        count(tmp_path)
    finally:
        tracemalloc.stop()
    peak, nbytes = max(peaks, key=lambda p: p[1])
    assert nbytes == 84 * 20 * 200 * 4
    assert peak <= 1.05 * nbytes


def test_a_batch_counted_as_it_is_simulated_frees_its_codes_before_the_cuts():
    # Rule 30's whole-call peak is its k=1 cut. The sorted code buffer is
    # dropped before it, as ca_distributions drops it; a call that kept it
    # would peak a whole code buffer higher. The two calls differ only in
    # small objects, such as the batch's initial rows.
    def peak(count):
        tracemalloc.start()
        try:
            count()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    nbytes = 84 * 20 * 200 * 4
    assert (peak(lambda: batch_distributions(30, 200, 100, 0, 20, (16, 1)))
            <= peak(lambda: ca_distributions(run_batch(30, 200, 100, 0, 20), (16, 1)))
            + 0.01 * nbytes)


def test_a_batch_counts_the_same_passed_straight_in_or_held():
    batch = run_batch(54, 30, 40, 5, 4)
    cells = [g.cells.copy() for g in batch]
    for k in (1, 3):
        assert_same_distribution(ca_distribution(run_batch(54, 30, 40, 5, 4), k),
                                 ca_distribution(batch, k))
    for got, want in zip(ca_distributions(run_batch(54, 30, 40, 5, 4), (3, 1)),
                         ca_distributions(batch, (3, 1))):
        assert_same_distribution(got, want)
    # A held batch is left as it was.
    assert all(np.array_equal(g.cells, c) for g, c in zip(batch, cells))


def test_ca_distributions_validation():
    grid = run(30, 6, 8, seed=0)
    with pytest.raises(ValueError, match="at least one history length"):
        ca_distributions([grid], ())
    with pytest.raises(ValueError, match="at least one grid"):
        ca_distributions([], (2, 1))
    # grids is a sequence of SpacetimeGrid: a lone grid, a bare cells array
    # or a list of cells is not.
    for grids, bad in ((grid, grid), (3, 3), (grid.cells, grid.cells[0]),
                       ([grid.cells], grid.cells), ([grid, "grid"], "grid")):
        for build in (lambda: ca_distribution(grids, 2), lambda: ca_distributions(grids, (2, 1))):
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                build()
    with pytest.raises(ValueError, match="k must be"):
        ca_distributions([grid], (2, 0))
    with pytest.raises(ValueError, match="no destinations"):
        ca_distributions([grid], (8, 1))
    # ks is a sequence: a lone history length or a string of digits is not.
    for ks in (3, "12"):
        with pytest.raises(ValueError, match=re.escape(
                f"ks must be a sequence of history lengths, got {ks!r}")):
            ca_distributions([grid], ks)
    # k is an integer: numpy integers count as one, floats and bools do not.
    want = ca_distribution([grid], 2)
    assert_same_distribution(ca_distribution([grid], np.int64(2)), want)
    assert_same_distribution(ca_distributions([grid], (np.int64(2),))[0], want)
    assert np.array_equal(ca_samples(grid, np.int64(2)), ca_samples(grid, 2))
    for k in (2.0, True):
        for build in (lambda: ca_distribution([grid], k), lambda: ca_distributions([grid], (k, 1)),
                      lambda: ca_samples(grid, k), lambda: ca_variables(k)):
            with pytest.raises(ValueError, match=rf"k must be an integer, got {k!r}"):
                build()


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
    assert count_dict(ca_distribution([grid], 58).counts) == count_dict(ref.counts)
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
    # Cells within [0, 1] that are not 0 or 1 would pack as zeros.
    cells = np.full((10, 8), 0.5)
    cells[0, 0] = 1.0
    bad = SpacetimeGrid(30, 8, 10, 0, cells)
    for build in (lambda: ca_distribution([bad], 2), lambda: ca_samples(bad, 2),
                  lambda: ca_distributions([bad], (2, 1)), lambda: grid_sites(bad, 2)):
        with pytest.raises(ValueError, match=r"must be bits, saw the value 0\.5"):
            build()
    # A float grid of exact bits is read as its uint8 copy.
    ones = cells == 1
    assert np.array_equal(ca_samples(SpacetimeGrid(30, 8, 10, 0, ones.astype(float)), 2),
                          ca_samples(SpacetimeGrid(30, 8, 10, 0, ones.astype(np.uint8)), 2))


# -- averaged measures ------------------------------------------------------

def test_ais_zero_when_past_is_uninformative():
    dist = analytic_dist(lambda h, l, r: l)
    assert active_info_storage(dist) == 0.0


def test_ais_one_bit_for_alternation():
    grid = run(51, 5, 101, seed=3)  # rule 51 complements every cell
    dist = ca_distribution([grid], 1)
    assert active_info_storage(dist) == pytest.approx(1.0, abs=1e-12)


def test_ais_matches_oracle_mi():
    grid = run(204, 8, 30, seed=5)  # identity rule: next equals own past
    dist = ca_distribution([grid], 2)
    table = to_prob_table(dist)
    assert active_info_storage(dist) == pytest.approx(
        pid_oracle.mutual_info(table, (0,), (1,)), abs=1e-10)
    assert transfer_entropy(dist, "left") == pytest.approx(
        0.0, abs=1e-12)


def test_te_one_bit_for_pure_copy():
    dist = analytic_dist(lambda h, l, r: l)
    assert transfer_entropy(dist, "left") == 1.0
    assert transfer_entropy(dist, "right") == 0.0
    assert transfer_entropy(dist, "left", ("right",)) == 1.0


def test_xor_source_is_invisible_apparently():
    dist = analytic_dist(lambda h, l, r: l ^ r)
    assert transfer_entropy(dist, "left") == 0.0
    assert transfer_entropy(dist, "right") == 0.0
    assert transfer_entropy(dist, "left", ("right",)) == 1.0
    assert transfer_entropy(dist, "right", ("left",)) == 1.0


def test_chain_rule_on_automaton_grids():
    for rule in (110, 30, 54):
        grid = run(rule, 30, 30, seed=8)
        dist = ca_distribution([grid], 3)
        lhs = (active_info_storage(dist)
               + transfer_entropy(dist, "left")
               + transfer_entropy(dist, "right", ("left",)))
        rhs = avg_mi(dist, (0,), (1, 2, 3))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_conditional_order_is_irrelevant():
    rng = np.random.default_rng(9)
    a, b, c = rng.integers(0, 2, (3, 500))
    x = np.r_[0, (a & b | c)[:-1]] ^ (rng.random(500) < 0.2)
    dist, _ = series_distribution({"x": x, "a": a, "b": b, "c": c},
                                  AnalyzeConfig(2, "x", ("a", "b", "c")))
    one = transfer_entropy(dist, "a", ("b", "c"))
    assert one > 0
    assert one == transfer_entropy(dist, "a", ("c", "b"))


def test_longer_history_stores_no_less():
    # On a fixed destination set, refining the history partition cannot
    # reduce plug-in mutual information: every k counts the destinations of
    # k = 5, with the history cut to its k lowest bits.
    rows = ca_samples(run(110, 30, 40, seed=11), 5)
    values = []
    for k in range(1, 6):
        cut = rows.copy()
        cut[:, 1] &= 2 ** k - 1
        values.append(active_info_storage(count_samples(ca_variables(k), cut)))
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_source_and_conditional_validation():
    dist = analytic_dist(lambda h, l, r: l)
    with pytest.raises(ValueError, match="not a source variable"):
        transfer_entropy(dist, "up")
    # The destination and its history are variables, but not sources.
    for name in ("next", "hist"):
        with pytest.raises(ValueError, match=f"'{name}' is not a source variable"):
            transfer_entropy(dist, name)
        with pytest.raises(ValueError, match=f"conditional '{name}' is not a source"):
            transfer_entropy(dist, "left", (name,))
    # A bare string is not read as a sequence of one-letter names.
    with pytest.raises(ValueError, match="conditionals must be a sequence of names"):
        transfer_entropy(dist, "left", "right")
    with pytest.raises(ValueError, match="condition on itself"):
        transfer_entropy(dist, "left", ("left",))
    with pytest.raises(ValueError, match="duplicate conditionals"):
        transfer_entropy(dist, "left", ("right", "right"))


# -- local measures ---------------------------------------------------------

def test_local_ais_sign_structure():
    # Alternating dynamics: consistent flips are informative, a broken flip
    # would be misinformative; here every observation is consistent.
    grid = run(51, 5, 41, seed=3)
    dist = ca_distribution([grid], 1)
    for obs in count_dict(dist.counts):
        assert local_ais(dist, obs[1], obs[0]) == pytest.approx(1.0, abs=1e-12)


def test_local_values_average_to_globals():
    grid = run(110, 25, 30, seed=13)
    dist = ca_distribution([grid], 2)
    n = dist.total
    ais = sum(c / n * local_ais(dist, o[1], o[0]) for o, c in count_dict(dist.counts).items())
    assert ais == pytest.approx(active_info_storage(dist), abs=1e-10)
    te = sum(c / n * local_te(dist, "left", (), o) for o, c in count_dict(dist.counts).items())
    assert te == pytest.approx(transfer_entropy(dist, "left"), abs=1e-10)
    cte = sum(c / n * local_te(dist, "left", ("right",), o)
              for o, c in count_dict(dist.counts).items())
    assert cte == pytest.approx(
        transfer_entropy(dist, "left", ("right",)), abs=1e-10)


def test_local_separable_is_the_sum_of_parts():
    grid = run(54, 20, 25, seed=15)
    dist = ca_distribution([grid], 2)
    for obs in list(count_dict(dist.counts))[:10]:
        expect = (local_ais(dist, obs[1], obs[0])
                  + local_te(dist, "left", (), obs)
                  + local_te(dist, "right", (), obs))
        assert local_separable(dist, obs) == pytest.approx(expect, abs=1e-12)


def test_local_te_validates_observation():
    dist = analytic_dist(lambda h, l, r: l)
    with pytest.raises(ValueError, match="cover all"):
        local_te(dist, "left", (), (0, 0))
    with pytest.raises(ValueError, match="zero probability"):
        local_te(dist, "left", (), (1, 0, 0, 0))  # copy forbids next != left


def loop_local_mi(dist, obs, xs, ys, cond=()):
    """Reference local MI per row, from sums over a plain dict of the counts."""
    items = list(count_dict(dist.counts).items())

    def count(row, cols):
        return sum(c for key, c in items if all(key[i] == row[i] for i in cols))
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
                             count_dict(random_distribution(rng, r=3, max_arity=2).counts))
    rows = np.array(list(count_dict(dist.counts)))
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
    np.testing.assert_allclose(local_te(dist, "left", (), obs), te_left, **close)
    np.testing.assert_allclose(local_te(dist, "right", ("left",), obs),
                               loop_local_mi(dist, obs, (0,), (3,), (1, 2)), **close)
    np.testing.assert_allclose(
        local_separable(dist, obs),
        loop_local_mi(dist, obs, (0,), (1,)) + te_left + te_right, **close)
    # storage first, then each transfer in source order, bit for bit
    in_order = (local_ais(dist, obs[:, 1], obs[:, 0])
                + local_te(dist, "left", (), obs)
                + local_te(dist, "right", (), obs))
    assert np.array_equal(local_separable(dist, obs), in_order)


# -- spacetime profiles -----------------------------------------------------

@pytest.fixture(scope="module")
def profiled():
    grid = run(110, 20, 24, seed=17)
    dist = ca_distribution([grid], 2)
    return grid, dist


def test_profile_shape_and_nan_margin(profiled):
    # The times before k have no full history window, so no site: a profile
    # covers the rows from k on and nothing before them.
    grid, dist = profiled
    prof = profile(dist, grid, "local_ais")
    steps, width = grid.cells.shape
    assert prof.labels.shape == prof.defined_values().shape == (steps - 2, width)
    assert np.isfinite(prof.defined_values()).all()
    assert prof.k == 2


def test_profile_mean_recovers_average(profiled):
    # The displayed grid is the only pooled grid, so sites are the samples.
    grid, dist = profiled
    prof = profile(dist, grid, "local_ais")
    assert prof.defined_values().mean() == pytest.approx(
        active_info_storage(dist), abs=1e-10)
    te = profile(dist, grid, "local_te_left")
    assert te.defined_values().mean() == pytest.approx(
        transfer_entropy(dist, "left"), abs=1e-10)


def test_profile_separable_is_elementwise_sum(profiled):
    grid, dist = profiled
    parts = [profile(dist, grid, m).defined_values()
             for m in ("local_ais", "local_te_left", "local_te_right")]
    sep = profile(dist, grid, "local_separable").defined_values()
    assert np.allclose(sep, parts[0] + parts[1] + parts[2], atol=1e-12)


def per_site_profile(dist, grid, measure):
    """The reference profile's rows from k on: one scalar call per site, in
    (time, cell) order, so a configuration that was never counted fails at
    its first site."""
    k = history_length(dist)
    scalar = {
        "local_ais": lambda o: local_ais(dist, o[1], o[0]),
        "local_te_left": lambda o: local_te(dist, "left", (), o),
        "local_te_right": lambda o: local_te(dist, "right", (), o),
        "local_separable": lambda o: local_separable(dist, o),
    }[measure]
    sites = [tuple(int(v) for v in row) for row in ca_samples(grid, k)]
    return np.reshape([scalar(o) for o in sites], (-1, grid.cells.shape[1]))


def site_profile(measure, k, defined):
    """The profile of the sites' values ``defined``, the rows from k on,
    with one table entry per site."""
    defined = np.asarray(defined, dtype=np.float64)
    return LocalProfile(measure, k, defined.ravel(), np.arange(defined.size).reshape(defined.shape))


@pytest.fixture(scope="module")
def pooled():
    grids = run_batch(110, 16, 30, 1, 3)
    return grids[0], ca_distribution(grids, 8)


def test_profile_equals_per_site_scalar_calls(profiled, pooled):
    for grid, dist in (profiled, pooled):
        sites = grid_sites(grid, history_length(dist))
        for measure in PROFILE_MEASURES:
            expect = per_site_profile(dist, grid, measure)
            for where in (grid, sites):
                got = profile(dist, where, measure).defined_values()
                assert np.array_equal(got, expect), measure


def test_grid_sites_are_the_deduplicated_samples(pooled):
    grid, _ = pooled
    samples = ca_samples(grid, 5)
    sites = grid_sites(grid, 5)
    assert isinstance(sites, GridSites)
    assert (sites.k, sites.labels.shape) == (5, (25, 16))
    assert np.array_equal(sites.rows[sites.labels.ravel()], samples)
    assert len(np.unique(sites.rows, axis=0)) == len(sites.rows)
    for arr in (sites.rows, sites.labels):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="history length k must be >= 1"):
        grid_sites(grid, 0)


@pytest.mark.parametrize("measure", PROFILE_MEASURES)
def test_profile_writes_the_bytes_of_its_dense_values(pooled, tmp_path, measure):
    # A profile keeps one value per configuration; its values, one table
    # entry per site, write the same files.
    grid, dist = pooled
    prof = profile(dist, grid, measure)
    dense = site_profile(measure, prof.k, prof.defined_values())
    assert np.array_equal(dense.defined_values(), prof.defined_values())
    assert len(prof.table) < len(dense.table) == dense.labels.size
    for write in (write_profile_csv, write_profile_pgm):
        paths = [tmp_path / f"{name}.out" for name in ("kept", "dense")]
        for p, source in zip(paths, (prof, dense)):
            write(source, p)
        assert paths[0].read_bytes() == paths[1].read_bytes(), write.__name__


@pytest.mark.parametrize("rule, k, runs", [(30, 4, 1), (54, 8, 1), (30, 6, 2)])
def test_profile_of_a_grid_outside_the_pooled_batch(rule, k, runs):
    # Pooled from seed 1, displayed from seed 0: some sites are unseen.
    dist = ca_distribution(run_batch(rule, 16, 30, 1, runs), k)
    grid = run(rule, 16, 30, 0)
    for measure in PROFILE_MEASURES:
        try:
            expect = per_site_profile(dist, grid, measure)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                profile(dist, grid, measure)
            assert str(got.value) == str(exc), measure
        else:
            got = profile(dist, grid, measure).defined_values()
            assert np.array_equal(got, expect), measure


def test_separable_fails_at_the_first_site_any_part_misses():
    # Rule 30, k=6: site 2 misses a right transfer; site 61 is the first to
    # miss a left one, and no site misses storage.
    dist = ca_distribution(run_batch(30, 16, 30, 1, 2), 6)
    grid = run(30, 16, 30, 0)
    rows = ca_samples(grid, 6)
    site2 = re.escape("configuration {'next': 1, 'hist': 47, 'right': 1} has zero probability")
    for observation in (rows, rows[2]):
        with pytest.raises(ValueError, match=site2):
            local_separable(dist, observation)
    with pytest.raises(ValueError, match=site2):
        profile(dist, grid, "local_separable")
    assert np.isfinite(local_separable(dist, rows[:2])).all()
    # Within a row, storage fails before the sources, in declared order.
    dist = JointDistribution(ca_variables(1), {(0, 0, 0, 0): 1, (1, 1, 1, 1): 1})
    rows = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0]])
    with pytest.raises(ValueError, match=re.escape("{'next': 0, 'hist': 0, 'left': 1}")):
        local_separable(dist, rows)
    with pytest.raises(ValueError, match=re.escape("{'next': 0, 'hist': 1} has")):
        local_separable(dist, rows[2])


@pytest.mark.parametrize("n, distinct", [(1, 1), (40, 1), (40, 40), (500, 37), (36800, 1402)])
def test_first_seen_matches_unique_return_index(n, distinct):
    rng = np.random.default_rng(n + distinct)
    pool = rng.choice(2 ** 40, size=distinct, replace=False)
    codes = rng.permutation(pool) if n == distinct else pool[rng.integers(0, distinct, n)]
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    got_first, labels = _first_seen(codes)
    assert np.array_equal(got_first, first[order])
    assert np.array_equal(labels, np.argsort(order)[inverse])
    assert np.array_equal(codes[got_first][labels], codes)


def test_profile_values_sites_whose_full_configuration_was_never_counted():
    # Storage reads only (next, hist), so it is defined at a site whose
    # (next, hist, left, right) the pooled joint never counted.
    dist = ca_distribution(run_batch(30, 16, 30, 1, 1), 4)
    grid = run(30, 16, 30, 0)
    unseen = dist.counts.index(ca_samples(grid, 4)) < 0
    assert unseen.sum() == 3
    values = profile(dist, grid, "local_ais").defined_values().ravel()
    assert np.isfinite(values[unseen]).all()


def test_profile_refuses_another_layout():
    grids = run_batch(54, 30, 40, 0, 3)
    dist = ca_distribution(grids, 2)
    # The same cells with the sources swapped, with one source, and as a
    # series analysis whose history is named after its destination.
    variables = ca_variables(2)
    swapped = JointDistribution(variables[:2] + variables[:1:-1], count_dict(dist.counts))
    one = JointDistribution(variables[:3], count_dict(dist.marginal_counts((0, 1, 2))))
    columns = {"next": grids[0].cells[:, 0], "left": grids[0].cells[:, -1],
               "right": grids[0].cells[:, 1]}
    series, _ = series_distribution(columns, AnalyzeConfig(2, "next", ("left", "right")))
    for other in (swapped, one, series):
        with pytest.raises(ValueError, match=re.escape(
                f"profile needs the variables {variables}, "
                f"but the distribution's are {other.variables}")):
            profile(other, grids[0], "local_ais")
    # Sites found at another k are refused too.
    with pytest.raises(ValueError, match=re.escape(
            "sites found at k=3 cannot be valued over a k=2 distribution")):
        profile(dist, grid_sites(grids[0], 3), "local_ais")
    assert np.isfinite(profile(dist, grids[0], "local_te_left").defined_values()).all()


def test_profile_measure_names(profiled):
    grid, dist = profiled
    assert PROFILE_MEASURES == (
        "local_ais", "local_te_left", "local_te_right", "local_separable")
    with pytest.raises(ValueError, match="unknown measure"):
        profile(dist, grid, "local_entropy")
    assert check_measures(["local_ais"]) == ("local_ais",)
    assert check_measures(iter(PROFILE_MEASURES)) == PROFILE_MEASURES
    with pytest.raises(ValueError, match="unknown measure 'local_te_off'"):
        check_measures(["local_te_off"])
    with pytest.raises(ValueError, match="need at least one measure"):
        check_measures([])
    with pytest.raises(ValueError, match=re.escape(
            "duplicate measures: ('local_ais', 'local_ais')")):
        check_measures(["local_ais", "local_ais"])
    with pytest.raises(ValueError, match=re.escape(
            "measures must be a sequence of names, got 'local_ais'")):
        check_measures("local_ais")


def test_profile_csv_round_trip(profiled, tmp_path):
    grid, dist = profiled
    prof = profile(dist, grid, "local_ais")
    path = tmp_path / "prof.csv"
    write_profile_csv(prof, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "cell,time,value"
    assert len(lines) == 1 + 20 * (24 - 2)
    cell, t, value = lines[1].split(",")
    assert (int(cell), int(t)) == (0, 2)
    assert float(value) == prof.defined_values()[0, 0]


# NaN, both infinities, both zeros, the smallest subnormal and the smallest
# normal, and short and long texts in fixed and exponent form.
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                  1e16, 1e-05, 0.1 + 0.2, -2.5, -1e-300, 1.0]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([(4, 3, 2), (1200, 1, 1), (3, 1500, 2), (12, 11, 11), (2, 1, 1)]),
       st.lists(st.floats(), max_size=6), st.integers(0, 2 ** 32 - 1))
# Times and cells that cross 10, 100 and 1000; k = steps - 1; width 1.
@example((1200, 1, 1), [], 0)
@example((3, 1500, 2), [], 0)
@example((12, 11, 11), [], 0)
def test_profile_csv_bytes_match_csv_writer(tmp_path, grid, floats, seed):
    steps, width, k = grid
    rng = np.random.default_rng(seed)
    values = np.full((steps, width), np.nan)
    values[k:] = rng.choice(SPECIAL_FLOATS + floats, size=(steps - k, width))
    values[k, :2] = [1e-05, -0.0][:width]
    prof = site_profile("local_ais", k, values[k:])
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["cell", "time", "value"])
        for t in range(prof.k, values.shape[0]):
            for c in range(values.shape[1]):
                writer.writerow([c, t, repr(float(values[t, c]))])
    path = tmp_path / "prof.csv"
    write_profile_csv(prof, path)
    assert path.read_bytes() == ref.read_bytes()
    lines = [b"0,%d,1e-05" % k, b"1,%d,-0.0" % k][:width]
    assert path.read_bytes().split(b"\r\n")[1:1 + len(lines)] == lines


def test_profile_pgm_round_trip(profiled, tmp_path):
    grid, dist = profiled
    prof = profile(dist, grid, "local_te_right")
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_profile_pgm_refuses_non_finite_values(tmp_path, bad):
    # The gray mapping is undefined for them, so no file is begun.
    prof = site_profile("local_ais", 1, [[1, bad], [0.5, 2]])
    path = tmp_path / "prof.pgm"
    with pytest.raises(ValueError, match=re.escape(
            f"cannot map the non-finite local_ais value {bad!r} to a gray level")):
        write_profile_pgm(prof, path)
    assert not path.exists()


def test_profile_pgm_flat_data(tmp_path):
    grid = run(51, 5, 11, seed=3)
    dist = ca_distribution([grid], 1)
    prof = profile(dist, grid, "local_ais")  # constant 1 bit everywhere
    path = tmp_path / "flat.pgm"
    write_profile_pgm(prof, path)
    payload = path.read_bytes().split(b"\n", 4)[4]
    assert not np.frombuffer(payload, dtype=">u2").any()
