import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import pid_oracle
from support import gate_distribution, random_distribution, to_prob_table
from synpid import pid
from synpid.distributions import (
    JointDistribution, VariableSpec, avg_mi, count_samples, local_mi,
)
from synpid.dynamics import ca_distribution, ca_variables
from synpid.eca import run_batch
from synpid.experiments import or_distribution
from synpid.lattice import Antichain, RedundancyLattice, build_lattice
from synpid.pid import (
    TIE_TOLERANCE, _specinfo_table, argmin_table, decomposition_report,
    i_min, local_i_min, modified_information, partial_terms,
    specific_information,
)

BOTTOM2 = Antichain([{1}, {2}])
OR_REDUNDANCY = 0.3112781244591328
OR_SPEC_X1_A1 = 0.0817041659455104


def xor_dynamics():
    """x = h XOR s with history/source roles, k = 1."""
    variables = (
        VariableSpec("x", 2, "destination-next"),
        VariableSpec("h", 2, "destination-history"),
        VariableSpec("s", 2, "source"),
    )
    counts = {(h ^ s, h, s): 1 for h in (0, 1) for s in (0, 1)}
    return JointDistribution(variables, counts)


# -- specific information ---------------------------------------------------

def test_specific_information_or_gate_frozen():
    d = gate_distribution("or")
    assert specific_information(d, 1, {1}) == pytest.approx(OR_SPEC_X1_A1, abs=1e-12)
    assert specific_information(d, 1, {2}) == pytest.approx(OR_SPEC_X1_A1, abs=1e-12)
    assert specific_information(d, 0, {1}) == pytest.approx(1.0, abs=1e-12)
    assert specific_information(d, 0, {1, 2}) == pytest.approx(2.0, abs=1e-12)


def test_specific_information_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        dist = random_distribution(rng, r=2)
        table = to_prob_table(dist)
        for x in range(dist.variables[0].arity):
            for subset, pos in [({1}, (1,)), ({2}, (2,)), ({1, 2}, (1, 2))]:
                expect = pid_oracle.specific_info(table, x, pos)
                try:
                    got = specific_information(dist, x, subset)
                except ValueError:
                    assert (x,) not in dist.marginal_counts((0,))
                    continue
                assert got == pytest.approx(expect, abs=1e-10)


def test_specific_information_averages_to_mi():
    # Expectation over destination outcomes recovers I(X; A).
    rng = np.random.default_rng(9)
    for _ in range(20):
        dist = random_distribution(rng, r=2)
        marg = dist.marginal_counts((0,))
        mean = sum(
            c / dist.total * specific_information(dist, x, {1, 2})
            for (x,), c in marg.items())
        assert mean == pytest.approx(avg_mi(dist, (0,), (1, 2)), abs=1e-10)


def specinfo_reference(dist, subset):
    """The specific-information table by the np.unique and np.add.at formula."""
    xi = dist.index_of_role("destination-next")
    others = [i for i in range(len(dist.variables)) if i != xi]
    cols = sorted([xi, *(others[i - 1] for i in subset)])
    xa = dist.marginal_counts(cols)
    j = cols.index(xi)
    rest = [i for i in range(len(cols)) if i != j]
    mults = np.cumprod([1, *xa.arities[rest][:-1]])
    _, a_of = np.unique(xa.symbols[:, rest] @ mults, return_inverse=True)
    x_of, c_xa = xa.symbols[:, j], xa.weights
    c_a = np.bincount(a_of, weights=c_xa).astype(c_xa.dtype)[a_of]
    arity = dist.variables[xi].arity
    c_x = np.bincount(x_of, weights=c_xa, minlength=arity)
    live = c_xa > 0
    table = np.full(arity, np.nan)
    table[c_x > 0] = 0.0
    terms = (c_xa[live] / c_x[x_of[live]]) * (
        np.log2(c_xa[live] / c_a[live]) - np.log2(c_x[x_of[live]] / dist.total))
    np.add.at(table, x_of[live], terms)
    return table


def with_destination_at(dist, to):
    """The same counts with the destination moved to column ``to``; the
    sources keep their order."""
    order = list(range(1, len(dist.variables)))
    order.insert(to, 0)
    return JointDistribution([dist.variables[i] for i in order],
                             {tuple(key[i] for i in order): c for key, c in dist.counts.items()})


def test_specinfo_tables_keep_the_accumulation_order():
    """Bitwise equal to the reference formula for every subset, with the
    destination in every column, on counted, real-weighted (or-demo) and
    zero-count rows; the golden bytes only cover a destination-first layout."""
    rng = np.random.default_rng(23)
    dists = [random_distribution(rng, r=r, max_arity=4) for r in (1, 2, 3) for _ in range(4)]
    dists += [or_distribution(1e-6), or_distribution(0.2)]
    sparse = random_distribution(rng, r=2, max_arity=4)
    dists.append(JointDistribution(sparse.variables, {
        key: c if i % 3 else 0 for i, (key, c) in enumerate(sparse.counts.items())}))
    for base in dists:
        r = len(base.variables) - 1
        subsets = [frozenset(s) for n in range(1, r + 1)
                   for s in combinations(range(1, r + 1), n)]
        for to in range(r + 1):
            dist = with_destination_at(base, to)
            for subset in subsets:
                want = specinfo_reference(dist, subset)
                assert _specinfo_table(dist, subset).tobytes() == want.tobytes()


def test_specinfo_table_keeps_few_row_sized_buffers():
    # Rule 30 at k=16 has about 190,000 distinct rows here; the bound is in
    # bytes per row of the (x, A) marginal, the full joint for A = {1, 2, 3}.
    dist = ca_distribution(run_batch(30, 200, 200, 0, 20), 16)
    tracemalloc.start()
    try:
        _specinfo_table(dist, frozenset({1, 2, 3}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 72 * len(dist)


def test_pid_refuses_an_empty_distribution():
    # np.bincount of no rows gives int64 zeros, which cannot be divided in place.
    dist = count_samples(ca_variables(2), np.empty((0, 4), np.int64))
    for measure in (lambda: modified_information(dist), lambda: i_min(dist, BOTTOM2),
                    lambda: argmin_table(dist, BOTTOM2),
                    lambda: specific_information(dist, 0, {1})):
        with pytest.raises(ValueError, match="^empty distribution$"):
            measure()


def test_specific_information_errors():
    d = gate_distribution("xor")
    with pytest.raises(ValueError, match="nonempty"):
        specific_information(d, 0, set())
    with pytest.raises(ValueError, match="out of range"):
        specific_information(d, 5, {1})
    with pytest.raises(ValueError, match="out of range"):
        specific_information(d, 0, {9})
    with pytest.raises(ValueError, match="must be integers"):
        specific_information(d, 0, {1.5})
    with pytest.raises(ValueError, match="must be integers"):
        specific_information(d, 0, [True, 2])
    for x in (0.5, 1.0, True):
        with pytest.raises(ValueError, match=f"destination outcome must be an integer, got {x}"):
            specific_information(or_distribution(0.0), x, {1})
    assert specific_information(d, np.int64(1), {1}) == specific_information(d, 1, {1})
    lopsided = JointDistribution(
        (VariableSpec("x", 2, "destination-next"), VariableSpec("a1", 2)),
        {(0, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match="zero probability"):
        specific_information(lopsided, 1, {1})


# -- expected minimum specific information ----------------------------------

def test_i_min_frozen_gate_values():
    assert i_min(gate_distribution("or"), BOTTOM2) == pytest.approx(
        OR_REDUNDANCY, abs=1e-12)
    assert i_min(gate_distribution("xor"), BOTTOM2) == pytest.approx(0.0, abs=1e-12)
    assert i_min(gate_distribution("copy2"), BOTTOM2) == pytest.approx(1.0, abs=1e-12)


def test_i_min_single_subset_is_plain_mi():
    rng = np.random.default_rng(13)
    for _ in range(30):
        dist = random_distribution(rng, r=2)
        assert i_min(dist, [{1}]) == pytest.approx(
            avg_mi(dist, (0,), (1,)), abs=1e-10)
        assert i_min(dist, [{1, 2}]) == pytest.approx(
            avg_mi(dist, (0,), (1, 2)), abs=1e-10)


def test_i_min_matches_oracle_on_every_node():
    rng = np.random.default_rng(19)
    for _ in range(10):
        dist = random_distribution(rng, r=2)
        table = to_prob_table(dist)
        for node in build_lattice(2).nodes:
            expect = pid_oracle.imin(table, [set(s) for s in node])
            assert i_min(dist, node) == pytest.approx(expect, abs=1e-10)


def test_i_min_superset_member_is_inert():
    # Adding a superset of an existing subset cannot change the minimum.
    for gate in ("xor", "or", "and", "copy2"):
        d = gate_distribution(gate)
        assert i_min(d, [{1}, {1, 2}]) == pytest.approx(i_min(d, [{1}]), abs=1e-12)
    rng = np.random.default_rng(29)
    for _ in range(20):
        dist = random_distribution(rng, r=2)
        assert i_min(dist, [{2}, {1, 2}]) == pytest.approx(
            i_min(dist, [{2}]), abs=1e-12)


def test_i_min_shrinks_as_subsets_accumulate():
    rng = np.random.default_rng(31)
    for _ in range(20):
        dist = random_distribution(rng, r=2)
        lone = i_min(dist, [{1}])
        pair = i_min(dist, [{1}, {2}])
        assert pair <= lone + 1e-12
        assert pair >= -1e-12


def test_i_min_argument_forms():
    d = gate_distribution("or")
    v = i_min(d, BOTTOM2)
    assert i_min(d, [{1}, {2}]) == v
    assert i_min(d, (frozenset({2}), frozenset({1}))) == v
    with pytest.raises(ValueError):
        i_min(d, [])
    with pytest.raises(ValueError):
        i_min(d, [set()])
    with pytest.raises(ValueError, match="must be integers"):
        i_min(d, [{1.5}])
    with pytest.raises(ValueError, match="must be integers"):
        i_min(d, [[True]])


# -- argmin choices and localization ----------------------------------------

def test_argmin_ties_on_symmetric_or():
    choice, tied = argmin_table(gate_distribution("or"), BOTTOM2)
    assert tied.tolist() == [True, True]
    assert choice.tolist() == [0, 0]  # canonical tie break


def test_argmin_tilt_resolves_ties():
    plus = argmin_table(or_distribution(1e-6), BOTTOM2)
    minus = argmin_table(or_distribution(-1e-6), BOTTOM2)
    assert not plus[1][1] and not minus[1][1]
    assert plus[0][1] == 0   # A1 is the weaker predictor
    assert minus[0][1] == 1  # tilting the other way flips it
    chosen = BOTTOM2.subsets[plus[0][1]]
    assert specific_information(or_distribution(1e-6), 1, chosen) == pytest.approx(
        OR_SPEC_X1_A1, abs=1e-4)


def _with_copied_source(dist):
    """``dist`` with one more source that repeats source 1, so every node
    holding both {1} and {r+1} scores them exactly alike."""
    variables = (*dist.variables, VariableSpec("copy", dist.variables[1].arity))
    return JointDistribution(variables, {(*key, key[1]): c for key, c in dist.counts.items()})


def test_argmin_table_matches_oracle_on_every_node():
    rng = np.random.default_rng(53)
    cases = [random_distribution(rng, r=2) for _ in range(10)]
    cases += [random_distribution(rng, r=3) for _ in range(3)]
    cases += [_with_copied_source(random_distribution(rng, r=2)) for _ in range(3)]
    cases.append(JointDistribution(  # destination outcome 1 is never seen
        (VariableSpec("x", 3, "destination-next"), VariableSpec("a1", 2), VariableSpec("a2", 2)),
        {(0, 0, 0): 1, (2, 1, 0): 1, (2, 1, 1): 2}))
    seen = {"clear": 0, "tied": 0, "unobserved": 0}
    for dist in cases:
        table = to_prob_table(dist)
        observed = {x for (x,) in dist.marginal_counts((0,))}
        for node in build_lattice(len(dist.variables) - 1).nodes:
            choice, tied = argmin_table(dist, node)
            for x in range(dist.variables[0].arity):
                if x not in observed:
                    seen["unobserved"] += 1
                    assert choice[x] == -1 and not tied[x]
                    continue
                spec = [pid_oracle.specific_info(table, x, tuple(sorted(s)))
                        for s in node.subsets]
                best = min(spec)
                gap = min((v - best for i, v in enumerate(spec) if i != spec.index(best)),
                          default=math.inf)
                if gap > 1e-9:
                    seen["clear"] += 1
                    assert choice[x] == spec.index(best) and not tied[x]
                elif gap < 1e-13:
                    seen["tied"] += 1
                    lowest = min(i for i, v in enumerate(spec) if v - best < 1e-13)
                    assert tied[x] and choice[x] == lowest
    assert all(seen.values()), seen


def test_local_i_min_single_subset_equals_local_mi():
    rng = np.random.default_rng(37)
    for _ in range(20):
        dist = random_distribution(rng, r=2)
        for obs in list(dist.counts)[:6]:
            got = local_i_min(dist, [{1, 2}], obs)
            expect = local_mi(dist, {0: obs[0]}, {1: obs[1], 2: obs[2]})
            assert got == pytest.approx(expect, abs=1e-12)


def test_local_i_min_weighted_mean_matches_average():
    # Only holds when no outcome is tied, so tilt the OR gate slightly.
    for dist in (gate_distribution("xor"), gate_distribution("copy2"),
                 or_distribution(1e-3)):
        mean = sum(
            c / dist.total * local_i_min(dist, BOTTOM2, obs)
            for obs, c in dist.counts.items())
        assert mean == pytest.approx(i_min(dist, BOTTOM2), abs=1e-9)


def test_local_i_min_matches_oracle_choice():
    dist = or_distribution(1e-6)
    table = to_prob_table(dist)
    for obs in sorted(dist.counts):
        locals_, specifics = pid_oracle.local_values(
            table, [frozenset({1}), frozenset({2})], obs)
        best = min(specifics, key=lambda s: (specifics[s], sorted(s)))
        assert local_i_min(dist, BOTTOM2, obs) == pytest.approx(
            locals_[best], abs=1e-12)


def test_local_i_min_rejects_bad_observations():
    d = gate_distribution("xor")
    with pytest.raises(ValueError, match="never counted"):
        local_i_min(d, BOTTOM2, (0, 0, 1))  # destination contradicts the gate
    with pytest.raises(ValueError, match="never counted"):
        local_i_min(or_distribution(0.0), BOTTOM2, (1, 0.5, 1))  # not a symbol
    with pytest.raises(ValueError, match="cover all"):
        local_i_min(d, BOTTOM2, (0, 0))


# -- partial terms and modified information ---------------------------------

def test_partial_terms_frozen_gates():
    lat = build_lattice(2)
    labels = [n.label for n in lat.nodes]
    by_label = lambda values: dict(zip(labels, values[1].tolist()))

    xor = by_label(partial_terms(gate_distribution("xor"), lat))
    assert xor["{1}{2}"] == pytest.approx(0.0, abs=1e-12)
    assert xor["{1}"] == pytest.approx(0.0, abs=1e-12)
    assert xor["{2}"] == pytest.approx(0.0, abs=1e-12)
    assert xor["{1,2}"] == pytest.approx(1.0, abs=1e-12)

    orr = by_label(partial_terms(gate_distribution("or"), lat))
    assert orr["{1}{2}"] == pytest.approx(OR_REDUNDANCY, abs=1e-12)
    assert orr["{1}"] == pytest.approx(0.0, abs=1e-12)
    assert orr["{2}"] == pytest.approx(0.0, abs=1e-12)
    assert orr["{1,2}"] == pytest.approx(0.5, abs=1e-12)

    copy2 = by_label(partial_terms(gate_distribution("copy2"), lat))
    assert copy2["{1}{2}"] == pytest.approx(1.0, abs=1e-12)
    assert copy2["{1}"] == pytest.approx(0.0, abs=1e-12)
    assert copy2["{2}"] == pytest.approx(0.0, abs=1e-12)
    assert copy2["{1,2}"] == pytest.approx(1.0, abs=1e-12)


def test_partial_terms_match_oracle_decompose():
    rng = np.random.default_rng(41)
    lat = build_lattice(2)
    for _ in range(15):
        dist = random_distribution(rng, r=2)
        _, icap, ipart = pid_oracle.decompose(to_prob_table(dist), 2)
        i_cap, i_partial = partial_terms(dist, lat)
        for i, node in enumerate(lat.nodes):
            key = frozenset(node.subsets)
            assert i_cap[i] == pytest.approx(icap[key], abs=1e-9)
            assert i_partial[i] == pytest.approx(ipart[key], abs=1e-9)


def test_partial_terms_sum_to_total_mi():
    rng = np.random.default_rng(43)
    lat = build_lattice(2)
    for _ in range(15):
        dist = random_distribution(rng, r=2)
        i_cap, i_partial = partial_terms(dist, lat)
        total = math.fsum(i_partial)
        assert total == pytest.approx(avg_mi(dist, (0,), (1, 2)), abs=1e-10)
        assert i_cap[lat.index(lat.top)] == pytest.approx(total, abs=1e-10)


def test_partial_terms_values_each_subset_once(monkeypatch):
    calls = []

    def counted(dist, subset):
        calls.append(subset)
        return _specinfo_table(dist, subset)
    monkeypatch.setattr(pid, "_specinfo_table", counted)
    d = random_distribution(np.random.default_rng(3), r=3)
    lat = build_lattice(3)
    every = {frozenset(c) for n in (1, 2, 3) for c in combinations((1, 2, 3), n)}
    results = []
    for _ in range(2):
        calls.clear()
        results.append(partial_terms(d, lat))
        assert len(calls) == len(every) == 7
        assert set(calls) == every
    for first, second in zip(*results):
        assert first.tobytes() == second.tobytes()
    for values in (*results[0], *results[1]):
        assert not values.flags.writeable


def test_partial_terms_cannot_be_written_into_the_memo():
    d = xor_dynamics()
    dec = modified_information(d)
    for values in (*partial_terms(d, build_lattice(2)), dec.i_cap, dec.i_partial):
        with pytest.raises(ValueError, match="read-only"):
            values[-1] = 5.0
    assert not hasattr(dec.lattice, "i_partial")
    again = modified_information(d)
    assert again.m_x == dec.m_x == pytest.approx(1.0, abs=1e-12)
    assert again.i_partial.tolist() == dec.i_partial.tolist()


def test_partial_terms_follow_the_node_order_of_each_lattice():
    # build_lattice(2)'s nodes with {1} and {2} swapped: each value must stay
    # with its node, whichever of the two lattices is valued first.
    built = build_lattice(2)
    assert [n.label for n in built.nodes] == ["{1}{2}", "{1}", "{2}", "{1,2}"]
    nodes = tuple(Antichain(s) for s in ([{1}, {2}], [{2}], [{1}], [{1, 2}]))
    swapped = RedundancyLattice(2, nodes, ((), (0,), (0,), (0, 1, 2)))

    def by_node(lattice, values):
        return dict(zip(lattice.nodes, zip(*(v.tolist() for v in values))))
    for order in ((built, swapped), (swapped, built)):
        dist = or_distribution(1e-6)
        got = [by_node(lat, partial_terms(dist, lat)) for lat in order]
        assert got[0] == got[1]
    one, two = (got[0][Antichain([{i}])] for i in (1, 2))
    assert one != two


def test_partial_terms_rejects_mismatched_lattice():
    with pytest.raises(ValueError, match="does not fit"):
        partial_terms(gate_distribution("xor"), build_lattice(3))


def test_modified_information_xor_dynamics():
    dec = modified_information(xor_dynamics())
    assert dec.m_x == pytest.approx(1.0, abs=1e-12)
    assert dec.total == pytest.approx(1.0, abs=1e-12)
    assert dec.k == 1
    assert dec.source_names == ("h", "s")
    assert dec.hierarchy[1] == pytest.approx(0.0, abs=1e-12)
    assert dec.hierarchy[2] == pytest.approx(1.0, abs=1e-12)


def test_modified_information_hierarchy_reconciles():
    dec = modified_information(xor_dynamics())
    assert math.fsum(dec.hierarchy.values()) == pytest.approx(dec.total, abs=1e-10)
    oracle_h = pid_oracle.hierarchy(
        {frozenset(n.subsets): v for n, v in zip(dec.lattice.nodes, dec.i_partial)}, 2)
    for order, value in oracle_h.items():
        assert dec.hierarchy[order] == pytest.approx(value, abs=1e-10)


def test_modified_information_validation():
    with pytest.raises(ValueError, match="destination-history"):
        modified_information(gate_distribution("xor"))
    variables = (VariableSpec("x", 2, "destination-next"),
                 VariableSpec("h", 3, "destination-history"), VariableSpec("s", 2))
    with pytest.raises(ValueError, match="history arity 3 is not a power of the "
                                         "destination arity 2"):
        modified_information(JointDistribution(variables, {(0, 2, 1): 1, (1, 0, 0): 1}))


def test_decomposition_report_shape():
    report = decomposition_report(modified_information(xor_dynamics()))
    assert report["format"] == "synpid-decomposition"
    assert report["r"] == 2
    assert report["sources"] == ["h", "s"]
    assert [n["antichain"] for n in report["nodes"]] == [
        "{1}{2}", "{1}", "{2}", "{1,2}"]
    assert report["hierarchy"] == {"1": 0.0, "2": 1.0}
    assert report["m_x"] == pytest.approx(1.0)


def test_history_is_source_one_in_any_declared_order():
    """The history is A_1 and the other sources follow in declared order,
    wherever the history is declared."""
    dist = ca_distribution(run_batch(54, 16, 20, 0, 2), 2)  # (next, hist, left, right)
    order = (0, 2, 1, 3)                                     # (next, left, hist, right)
    moved = JointDistribution([dist.variables[i] for i in order],
                              {tuple(key[i] for i in order): c for key, c in dist.counts.items()})
    report = decomposition_report(modified_information(dist))
    other = decomposition_report(modified_information(moved))
    assert other["sources"] == report["sources"] == ["hist", "left", "right"]
    assert [n["antichain"] for n in other["nodes"]] == [n["antichain"] for n in report["nodes"]]
    for key in ("i_cap", "i_partial"):
        assert [n[key] for n in other["nodes"]] == pytest.approx(
            [n[key] for n in report["nodes"]], abs=1e-12)
    assert other["m_x"] == pytest.approx(report["m_x"], abs=1e-12)


def test_i_partial_nonnegative_on_random_counts():
    rng = np.random.default_rng(47)
    lat = build_lattice(2)
    for _ in range(100):
        dist = random_distribution(rng, r=2)
        _, i_partial = partial_terms(dist, lat)
        for node, v in zip(lat.nodes, i_partial):
            assert v >= -1e-9, (node.label, v)


def test_tie_tolerance_is_tiny():
    assert 0 < TIE_TOLERANCE <= 1e-9
