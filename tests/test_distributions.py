import math
import pickle
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from support import embed_history, random_distribution, unpack_history
from synpid import distributions
from synpid.distributions import (
    JointDistribution, Marginal, VariableSpec, _count_codes, _dot, _grouped, _radix_multipliers,
    avg_mi, count_samples, history_length, local_mi, merge,
)
from synpid.dynamics import ca_distribution, local_ais
from synpid.eca import run_batch
from synpid.pid import local_i_min, modified_information

LOG2_2_3 = math.log2(2 / 3)  # -0.5849625007211562
OR_MI = 0.3112781244591328


def or_dist():
    variables = (
        VariableSpec("x", 2, "destination-next"),
        VariableSpec("a1", 2),
        VariableSpec("a2", 2),
    )
    return JointDistribution(
        variables, {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1})


# -- embedding --------------------------------------------------------------

def test_embed_packs_most_recent_lowest():
    series = [0, 1, 1, 0]
    assert embed_history(series, 3, 3) == 0 + 2 * 1 + 4 * 1
    assert embed_history(series, 1, 2) == 1
    assert embed_history(series, 4, 3) == 0 + 2 + 4 + 0


def test_embed_window_bounds():
    with pytest.raises(ValueError):
        embed_history([0, 1, 0], 3, 1)
    with pytest.raises(ValueError):
        embed_history([0, 1], 0, 1)
    with pytest.raises(ValueError):
        embed_history([0, 2, 0], 2, 1)  # out of the binary alphabet


def test_k16_symbol_range():
    series = [1] * 16
    assert embed_history(series, 16, 15) == 2 ** 16 - 1


@given(st.lists(st.integers(0, 2), min_size=1, max_size=12), st.data())
def test_embed_unpack_round_trip(series, data):
    k = data.draw(st.integers(1, len(series)))
    t = data.draw(st.integers(k - 1, len(series) - 1))
    symbol = embed_history(series, k, t, base=3)
    window = unpack_history(symbol, k, base=3)
    assert list(window) == [series[t - j] for j in range(k)]


def layout(base, hist_arity):
    return JointDistribution((VariableSpec("x", base, "destination-next"),
                              VariableSpec("h", hist_arity, "destination-history"),
                              VariableSpec("s", 2)))


@pytest.mark.parametrize("base, k", [(2, 1), (2, 16), (3, 5), (5, 1), (3, 37)])
def test_history_length_reads_k_from_the_arities(base, k):
    # The float log of 3**37 to base 3 is 36.99999999999999.
    assert history_length(layout(base, base ** k)) == k


@pytest.mark.parametrize("base, hist_arity", [(2, 6), (4, 8), (3, 2), (2, 3), (3, 3 ** 36 + 1)])
def test_history_length_refuses_a_non_power(base, hist_arity):
    # 8 is a power of 2 but not of 4; 3**36 + 1 has a float log of exactly 36.
    with pytest.raises(ValueError, match=f"history arity {hist_arity} is not a power of "
                                         f"the destination arity {base}"):
        history_length(layout(base, hist_arity))


# -- counting and merging ---------------------------------------------------

def test_count_samples_tallies():
    v = (VariableSpec("a", 2), VariableSpec("b", 3))
    dist = count_samples(v, [(0, 1), (0, 1), (1, 2)])
    assert dist.counts == {(0, 1): 2, (1, 2): 1}
    assert dist.total == 3.0


def test_count_samples_accepts_arrays():
    v = (VariableSpec("a", 2), VariableSpec("b", 2))
    arr = np.array([[0, 0], [1, 1], [1, 1], [0, 1]])
    dist = count_samples(v, arr)
    assert dist.counts == {(0, 0): 1, (1, 1): 2, (0, 1): 1}
    for column in (arr[:, :1], np.ascontiguousarray(arr[:, 1:])):
        before = column.copy()
        count_samples(v[:1], column)
        assert np.array_equal(column, before)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([np.int32, np.int64]),
       st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2 ** 31 - 1)), max_size=40),
       st.sampled_from([1, 2, 3, 7, distributions._SCAN_BLOCK]))
@example(np.int32, [], 1).via("empty buffer")
@example(np.int64, [7], 1).via("one code")
@example(np.int64, [5, 5, 5, 5, 6], 2).via("a run across blocks")
def test_count_codes_equal_unique_counts(dtype, values, block):
    # Small scan blocks put run starts at every offset from a block's edges.
    variables = (VariableSpec("a", 2 ** 16), VariableSpec("b", 2 ** 15))
    codes = np.array(values, dtype=dtype)
    ucodes, ucounts = np.unique(codes, return_counts=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, "_SCAN_BLOCK", block)
        dist = _count_codes(variables, codes)
    assert dist.counts._codes.dtype == dist.counts.weights.dtype == np.int64
    assert np.array_equal(dist.counts._codes, ucodes)
    assert np.array_equal(dist.counts.weights, ucounts)
    assert np.array_equal(dist.counts.symbols, np.stack([ucodes % 2 ** 16, ucodes >> 16], axis=1))
    assert dist.total == float(len(values))


def test_count_codes_scans_a_batch_in_several_blocks():
    codes = np.repeat(np.arange(7, dtype=np.int32), distributions._SCAN_BLOCK // 2 + 1)
    codes = np.concatenate([codes, np.arange(7, 7 + distributions._SCAN_BLOCK + 3, dtype=np.int32)])
    ucodes, ucounts = np.unique(codes, return_counts=True)
    dist = _count_codes((VariableSpec("a", 2 ** 20),), codes[::-1].copy())
    assert np.array_equal(dist.counts._codes, ucodes)
    assert np.array_equal(dist.counts.weights, ucounts)


@pytest.mark.parametrize("arities, cut, positions", [
    ([2, 2 ** 16, 2], lambda codes: codes & (2 ** 18 - 1), None),
    ([2, 2, 2], lambda codes: codes & 1 | codes >> 17 << 1, None),
    ([2, 2, 2], lambda codes: codes & 1 | codes >> 17 << 1, [0, 2, 3]),
], ids=["drop-top", "drop-middle", "group-drop-middle"])
def test_grouping_keeps_few_row_sized_buffers(arities, cut, positions):
    # Rule 30 at k=16 has about 190,000 distinct (next, hist, left, right)
    # rows here; dropping right, or hist, leaves one or two sorted runs of
    # codes. Beside the codes, the grouping holds at most three 8-byte
    # buffers and a one-byte mask per row at once, plus the stable sort's
    # own merge buffer. ``Marginal.group`` builds the cut codes from two
    # digit slices here and frees both before grouping.
    joint = ca_distribution(run_batch(30, 200, 200, 0, 20), 16).counts
    codes = cut(joint._codes)
    tracemalloc.start()
    try:
        if positions is None:
            marginal, inverse = _grouped(arities, codes, joint.weights)
        else:
            marginal, inverse = joint.group(positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 34 * len(joint)
    assert np.array_equal(marginal._codes, np.unique(codes))
    assert np.array_equal(marginal._codes[inverse], codes)
    assert marginal.weights.sum() == joint.weights.sum()


def test_joint_distribution_refuses_bools_and_non_finite_counts():
    v = (VariableSpec("a", 2), VariableSpec("b", 2))
    for counts, message in [
        ({(True, 0): 1}, "symbol True in (True, 0) must be an integer"),
        ({(0, np.False_): 1}, "symbol np.False_ in (0, np.False_) must be an integer"),
        ({(0, 1.0): 1}, "symbol 1.0 in (0, 1.0) must be an integer"),
        ({(0, 2): 1}, "symbol 2 in (0, 2) out of range for variable 'b'"),
        ({(0, 0): True}, "count for (0, 0) must be a finite nonnegative number, got True"),
        ({(0, 0): np.True_}, "count for (0, 0) must be a finite nonnegative number, got np.True_"),
        ({(0, 0): math.inf, (1, 0): 1.0}, "count for (0, 0) must be a finite nonnegative number"),
        ({(1, 0): 1.0, (0, 1): np.float64("nan")}, "count for (0, 1) must be a finite"),
        ({(0, 0): -1}, "count for (0, 0) must be a finite nonnegative number, got -1"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            JointDistribution(v, counts)
    dist = JointDistribution(v, {(np.int8(1), 0): np.uint16(2), (0, 1): 0.5})
    assert dict(dist.counts) == {(0, 1): 0.5, (1, 0): 2.0} and dist.total == 2.5


def test_count_samples_rejects_out_of_range():
    v = (VariableSpec("a", 2),)
    with pytest.raises(ValueError, match="out of range"):
        count_samples(v, [(0,), (2,)])
    with pytest.raises(ValueError, match="out of range"):
        count_samples(v, [(-1,)])


def test_count_samples_rejects_bad_shape():
    v = (VariableSpec("a", 2), VariableSpec("b", 2))
    with pytest.raises(ValueError):
        count_samples(v, [(0,)])


def test_empty_distribution_refuses_queries():
    v = (VariableSpec("a", 2), VariableSpec("b", 2))
    dist = count_samples(v, [])
    assert dist.total == 0.0
    with pytest.raises(ValueError, match="empty"):
        avg_mi(dist, (0,), (1,))
    with pytest.raises(ValueError, match="empty"):
        local_mi(dist, {0: 0}, {1: 0})


def test_merge_equals_counting_one_stream():
    v = (VariableSpec("a", 2), VariableSpec("b", 2))
    s1 = [(0, 0), (0, 1), (1, 1)]
    s2 = [(0, 1), (1, 0), (1, 1), (1, 1)]
    merged = merge(count_samples(v, s1), count_samples(v, s2))
    assert merged.counts == count_samples(v, s1 + s2).counts
    assert merged.total == 7.0


def test_merge_requires_matching_variables():
    a = count_samples((VariableSpec("a", 2),), [(0,)])
    b = count_samples((VariableSpec("b", 2),), [(0,)])
    with pytest.raises(ValueError, match="different variables"):
        merge(a, b)
    c = count_samples((VariableSpec("a", 3),), [(0,)])
    with pytest.raises(ValueError, match="different variables"):
        merge(a, c)


# -- local and average mutual information -----------------------------------

def test_local_mi_or_gate_frozen_value():
    # The misinformative row: seeing a1=0 argues against x=1.
    assert local_mi(or_dist(), {0: 1}, {1: 0}) == pytest.approx(LOG2_2_3, abs=1e-12)
    assert local_mi(or_dist(), {0: 1}, {1: 1}) == pytest.approx(math.log2(4 / 3), abs=1e-12)


def test_local_mi_copy_is_one_bit():
    v = (VariableSpec("x", 2), VariableSpec("y", 2))
    dist = count_samples(v, [(0, 0), (1, 1)] * 5)
    assert local_mi(dist, {0: 1}, {1: 1}) == pytest.approx(1.0, abs=1e-12)


def test_local_mi_independent_is_zero():
    v = (VariableSpec("x", 2), VariableSpec("y", 2))
    dist = count_samples(v, [(a, b) for a in (0, 1) for b in (0, 1)] * 3)
    for a in (0, 1):
        for b in (0, 1):
            assert local_mi(dist, {0: a}, {1: b}) == 0.0


def test_local_mi_zero_probability_is_an_error():
    with pytest.raises(ValueError, match="zero probability"):
        local_mi(or_dist(), {0: 0}, {1: 1})


def test_local_mi_rejects_overlapping_sets():
    with pytest.raises(ValueError, match="disjoint"):
        local_mi(or_dist(), {0: 1}, {0: 1})
    with pytest.raises(ValueError, match="disjoint"):
        local_mi(or_dist(), {0: 1}, {1: 0}, {1: 0})


def test_avg_mi_or_gate_frozen_value():
    assert avg_mi(or_dist(), (0,), (1,)) == pytest.approx(OR_MI, abs=1e-12)
    assert avg_mi(or_dist(), (0,), (2,)) == pytest.approx(OR_MI, abs=1e-12)


def test_block_dot_is_np_dot_up_to_one_block():
    # Sums no longer than one block keep np.dot's bits, so the reports of
    # smaller distributions keep their bytes; longer ones agree to rounding.
    rng = np.random.default_rng(5)
    a, b = rng.random(25_000), rng.random(25_000)
    for n in (0, 1, 9_999, 10_000):
        assert _dot(a[:n], b[:n]) == float(np.dot(a[:n], b[:n]))
    assert _dot(a, b) == pytest.approx(float(np.dot(a, b)), rel=1e-12)


def test_avg_mi_independent_is_zero():
    v = (VariableSpec("x", 2), VariableSpec("y", 3))
    dist = count_samples(v, [(a, b) for a in (0, 1) for b in (0, 1, 2)] * 4)
    assert avg_mi(dist, (0,), (1,)) == 0.0


def test_avg_mi_validates_indices():
    d = or_dist()
    with pytest.raises(ValueError, match="disjoint"):
        avg_mi(d, (0,), (0,))
    with pytest.raises(ValueError, match="out of range"):
        avg_mi(d, (0,), (5,))
    with pytest.raises(ValueError, match="nonempty"):
        avg_mi(d, (), (1,))
    # Indices are read as integers, never truncated: each of these once gave
    # index 1's value, and a float key of local_mi an IndexError.
    for index in (1.5, True, "1"):
        with pytest.raises(ValueError, match=re.escape(
                f"variable index must be an integer, got {index!r}")):
            avg_mi(d, (0,), (index,))
    with pytest.raises(ValueError, match="variable index must be an integer, got 1.9"):
        local_mi(d, {0: 1}, {1.9: 0})
    assert avg_mi(d, (0,), (np.int64(1),)) == avg_mi(d, (0,), (1,))


def test_marginal_counts_validates_indices():
    d = or_dist()
    # Refused before the memo is read, where True and 1.0 would find (1,).
    d.marginal_counts((1,))
    for index in (True, 1.0, 0.5):
        with pytest.raises(ValueError, match=re.escape(
                f"variable index must be an integer, got {index!r}")):
            d.marginal_counts([index])
    with pytest.raises(ValueError, match=re.escape("duplicate variable indices: (0, 0)")):
        d.marginal_counts([0, 0])
    with pytest.raises(ValueError, match="variable index 3 out of range"):
        d.marginal_counts([3])
    assert d.marginal_counts([np.int64(1)]) is d.marginal_counts((1,))


def test_avg_mi_conditioning_order_is_irrelevant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dist = random_distribution(rng, r=3)
        assert avg_mi(dist, (0,), (1,), (2, 3)) == avg_mi(dist, (0,), (1,), (3, 2))


def test_avg_mi_nonnegative_on_random_counts():
    rng = np.random.default_rng(5)
    for _ in range(200):
        dist = random_distribution(rng, r=2)
        assert avg_mi(dist, (0,), (1, 2)) >= -1e-12


def test_chain_rule_over_random_counts():
    # I(X; A1, A2) = I(X; A1) + I(X; A2 | A1), a plug-in identity.
    rng = np.random.default_rng(17)
    for _ in range(100):
        dist = random_distribution(rng, r=2)
        joint = avg_mi(dist, (0,), (1, 2))
        split = avg_mi(dist, (0,), (1,)) + avg_mi(dist, (0,), (2,), (1,))
        assert joint == pytest.approx(split, abs=1e-12)


def test_local_average_consistency():
    rng = np.random.default_rng(23)
    for _ in range(50):
        dist = random_distribution(rng, r=2)
        mean = sum(
            c / dist.total * local_mi(dist, {0: k[0]}, {1: k[1], 2: k[2]})
            for k, c in dist.counts.items())
        assert mean == pytest.approx(avg_mi(dist, (0,), (1, 2)), abs=1e-12)
        cond_mean = sum(
            c / dist.total * local_mi(dist, {0: k[0]}, {1: k[1]}, {2: k[2]})
            for k, c in dist.counts.items())
        assert cond_mean == pytest.approx(avg_mi(dist, (0,), (1,), (2,)), abs=1e-12)


def test_marginal_counts_sum_to_total():
    rng = np.random.default_rng(31)
    dist = random_distribution(rng, r=3)
    for cols in [(0,), (1,), (0, 2), (1, 2, 3)]:
        assert sum(dist.marginal_counts(cols).values()) == pytest.approx(dist.total)


def all_column_sets(dist):
    n = len(dist.variables)
    return [cols for size in range(1, n + 1) for cols in combinations(range(n), size)]


def float_weighted(dist):
    rng = np.random.default_rng(len(dist))
    return JointDistribution(dist.variables, {
        key: float(c) * rng.random() / 7 for key, c in dist.counts.items()})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.data())
def test_marginal_counts_do_not_depend_on_request_order(seed, real, data):
    # Integer counts may group from any memoized superset; real weights group
    # from the full joint, so their float sums keep one order.
    dist = random_distribution(np.random.default_rng(seed), r=3)
    if real:
        dist = float_weighted(dist)
    for cols in data.draw(st.permutations(all_column_sets(dist)), label="order"):
        view = dist.marginal_counts(cols)
        ref = dist.counts.group(cols)[0]
        assert np.array_equal(view._codes, ref._codes)
        assert np.array_equal(view.symbols, ref.symbols)
        assert view.weights.dtype == ref.weights.dtype == (np.float64 if real else np.int64)
        assert view.weights.tobytes() == ref.weights.tobytes()


ARITY = st.one_of(st.integers(2, 4), st.just(2 ** 16), st.integers(2, 70_000))


@settings(max_examples=60, deadline=None)
@given(st.lists(ARITY, min_size=1, max_size=5).filter(lambda a: math.prod(a) < 2 ** 62),
       st.booleans(), st.data())
def test_group_equals_unique_over_symbol_matrix(arities, real, data):
    """Grouping on digits of the codes matches grouping the decoded symbol
    columns with np.unique, for every nonempty ascending column set."""
    rows = data.draw(st.lists(st.tuples(*(st.integers(0, a - 1) for a in arities)),
                              max_size=30, unique=True), label="rows")
    weight = (st.one_of(st.just(0.0), st.floats(0, 1e3)) if real
              else st.integers(0, 2 ** 40))
    weights = np.array(data.draw(st.lists(weight, min_size=len(rows), max_size=len(rows)),
                                 label="weights"), dtype=np.float64 if real else np.int64)
    symbols = np.array(rows, dtype=np.int64).reshape(len(rows), len(arities))
    codes = symbols @ np.array(_radix_multipliers(arities), dtype=np.int64)
    order = np.argsort(codes)
    view = Marginal(arities, codes[order], weights[order])
    symbols, weights = symbols[order], weights[order]
    assert np.array_equal(view.symbols, symbols)
    for j in range(len(arities)):
        assert np.array_equal(view.column(j), symbols[:, j])
    for size in range(1, len(arities) + 1):
        for positions in combinations(range(len(arities)), size):
            positions = list(positions)
            sub = [arities[p] for p in positions]
            ucodes, first, inverse = np.unique(
                symbols[:, positions] @ np.array(_radix_multipliers(sub), dtype=np.int64),
                return_index=True, return_inverse=True)
            sums = np.bincount(inverse, weights=weights).astype(weights.dtype, copy=False)
            got, got_inverse = view.group(positions)
            assert got.arities.tolist() == sub
            assert np.array_equal(got._codes, ucodes)
            assert got.weights.dtype == weights.dtype
            assert got.weights.tobytes() == sums.tobytes()
            assert np.array_equal(got_inverse, inverse)
            assert np.array_equal(got.symbols, symbols[first][:, positions])
    for v in (view, pickle.loads(pickle.dumps(view))):
        assert not v.symbols.flags.writeable
        if len(v):
            with pytest.raises(ValueError, match="read-only"):
                v.symbols[0, 0] = 1


# -- immutability -----------------------------------------------------------

def test_counts_cannot_be_assigned():
    dist = or_dist()
    with pytest.raises(TypeError):
        dist.counts[(0, 0, 0)] = 1
    with pytest.raises(TypeError):
        dist.marginal_counts((0,))[(1,)] = 1


def test_backing_arrays_are_read_only():
    dist = count_samples((VariableSpec("a", 2), VariableSpec("b", 2)),
                         [(0, 0), (1, 1), (1, 1)])
    dist.marginal_counts((1,))
    exact = or_dist()
    copies = [pickle.loads(pickle.dumps(d)) for d in (dist, exact)]
    assert copies[0].counts == dist.counts and copies[1].counts == exact.counts
    assert copies[0].total == dist.total and copies[1].total == exact.total
    for d in (dist, exact, *copies):
        for view in (d.counts, d.marginal_counts((1,))):
            for arr in (view.symbols, view.weights, view._codes, view._mults, view.arities):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 5


def test_float_symbols_match_only_whole_values():
    dist = count_samples((VariableSpec("a", 2), VariableSpec("b", 2)),
                         [(0, 1), (1, 1), (1, 1), (0, 0)])
    counts = dist.counts
    for key in ((0.5, 1), (0.9, 1), (1.5, 1), (-0.5, 1), (np.nan, 1), (np.inf, 1), (1e300, 1)):
        assert key not in counts, key
        assert counts.get(key) is None, key
    assert counts.get((0.0, 1)) == 1 and counts[(1.0, 1.0)] == 2
    assert (np.float32(1), 1) in counts
    rows = np.array([[0.0, 1.0], [0.5, 1.0], [1.0, 1.0], [1.0, 0.25]])
    assert counts.index(rows).tolist() == [counts.index([[0, 1]])[0], -1,
                                           counts.index([[1, 1]])[0], -1]
    assert local_mi(dist, {0: 1.0}, {1: 1}) == local_mi(dist, {0: 1}, {1: 1})
    with pytest.raises(ValueError, match="'a': 0.5, 'b': 1.0} has zero probability"):
        local_mi(dist, {0: 0.5}, {1: 1})
    with pytest.raises(ValueError, match="zero probability"):
        local_mi(dist, {0: np.array([1, 0.5])}, {1: np.array([1, 1])})


@pytest.mark.parametrize("key", [("1", 0), ("a", 0), (None, 0), (2 ** 70, 0)])
def test_symbols_that_are_not_numbers_are_never_counted(key):
    # As in a dict: ("1", 0) does not find (1, 0), and no key raises but KeyError.
    counts = or_dist().marginal_counts((0, 1))
    assert (1, 0) in counts
    assert key not in counts
    assert counts.get(key) is None
    with pytest.raises(KeyError):
        counts[key]
    with pytest.raises(ValueError, match="zero probability"):
        local_ais(ca_distribution(run_batch(30, 16, 30, 1, 2), 1), *key)
    with pytest.raises(ValueError, match="was never counted"):
        local_i_min(or_dist(), [{1}, {2}], (*key, 1))


def test_object_rows_are_judged_one_by_one():
    # One foreign symbol leaves the other rows of an object array findable.
    dist = JointDistribution((VariableSpec("a", 2, "destination-next"), VariableSpec("b", 2)),
                             {(0, 0): 1, (1, 0): 2, (1, 1): 1})
    counts = dist.counts
    rows = [[1, 0], [1, 1], [2 ** 70, 0], ["1", 0], [None, 0], [1.0, 0], [0.5, 1]]
    found = counts.index(np.array(rows, dtype=object)).tolist()
    assert found == [1, 2, -1, -1, -1, 1, -1]
    assert found == [-1 if counts.get(tuple(row)) is None else counts.index([row])[0]
                     for row in rows]
    assert counts.index(np.empty((0, 2), dtype=object)).tolist() == []
    # Rows that are not an (m, 2) matrix are refused, object arrays too; a
    # key of the wrong length is simply absent from the mapping.
    for bad in ([[1, 0, 0]], [1, 0], np.array([1, 0], dtype=object),
                np.array([[1, 0, 0]], dtype=object), np.zeros((1, 2, 1))):
        with pytest.raises(ValueError, match=re.escape(
                f"rows must be an (m, 2) matrix of symbols, got shape {np.shape(bad)}")):
            counts.index(bad)
    for key in ((1,), (1, 0, 0), 1):
        assert key not in counts
        assert counts.get(key) is None
        with pytest.raises(KeyError):
            counts[key]
    with pytest.raises(ValueError, match=re.escape(
            "configuration {'a': 1180591620717411303424, 'b': 0} has zero probability")):
        local_mi(dist, {0: np.array([1, 2 ** 70], dtype=object)}, {1: np.array([0, 0])})
    assert local_mi(dist, {0: np.array([1, 1], dtype=object)}, {1: np.array([0, 1])}).tolist() \
        == local_mi(dist, {0: np.array([1, 1])}, {1: np.array([0, 1])}).tolist()


def test_pickle_leaves_out_the_memoized_marginals():
    dist = ca_distribution(run_batch(30, 24, 40, 0, 3), 4)
    before = pickle.dumps(dist)
    modified_information(dist)
    assert len(dist._marginals) > 1
    after = pickle.dumps(dist)
    assert len(after) == len(before)
    copy = pickle.loads(after)
    assert copy.variables == dist.variables and copy.total == dist.total
    assert copy.counts == dist.counts and len(copy._marginals) == 1
    for arr in (copy.counts.weights, copy.counts._codes):
        assert not arr.flags.writeable
    with pytest.raises(AttributeError):
        copy.total = 0.0
    assert modified_information(copy).m_x == modified_information(dist).m_x


def test_distribution_cannot_drift_from_its_marginals():
    dist = or_dist()
    marginal = dist.marginal_counts((0, 1))
    mi = avg_mi(dist, (0,), (1,))
    with pytest.raises(TypeError):
        dist.counts[(0, 0, 0)] = 100
    for name, value in (("total", 99.0), ("counts", {}), ("variables", ())):
        with pytest.raises(AttributeError):
            setattr(dist, name, value)
    assert dist.counts == {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}
    assert dist.marginal_counts((1, 0)) is marginal
    assert dict(marginal) == {(0, 0): 1, (1, 0): 1, (1, 1): 2}
    assert avg_mi(dist, (0,), (1,)) == mi


def test_counted_distributions_keep_integer_counts():
    v = (VariableSpec("a", 2), VariableSpec("b", 3))
    counted = count_samples(v, [(0, 1), (0, 1), (1, 2)])
    merged = merge(counted, counted)
    for dist in (counted, merged, JointDistribution(v, {(0, 1): 2, (1, 2): 1})):
        values = list(dist.counts.values())
        assert all(type(c) is int for c in values), values
    assert dict(merged.counts) == {(0, 1): 4, (1, 2): 2}
    assert all(type(c) is int for c in dict(merged.counts).values())


def test_variable_spec_validation():
    with pytest.raises(ValueError):
        VariableSpec("", 2)
    for arity in (1, True, 3.0, "3"):
        with pytest.raises(ValueError, match="arity must be"):
            VariableSpec("x", arity)
    spec = VariableSpec("x", np.int64(3))
    assert spec == VariableSpec("x", 3) and type(spec.arity) is int
    with pytest.raises(ValueError):
        VariableSpec("x", 2, "sink")
    with pytest.raises(ValueError, match="duplicate"):
        JointDistribution((VariableSpec("x", 2), VariableSpec("x", 2)), {})
