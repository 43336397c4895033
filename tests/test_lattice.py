import itertools

import numpy as np
import pytest

import pid_oracle
from synpid.lattice import (
    Antichain, _build_lattice, below_or_equal, build_lattice,
    enumerate_antichains, subset_label,
)


def test_node_counts():
    assert len(enumerate_antichains(1)) == 1
    assert len(enumerate_antichains(2)) == 4
    assert len(enumerate_antichains(3)) == 18
    assert len(enumerate_antichains(4)) == 166


def test_enumeration_matches_oracle():
    for r in (1, 2, 3):
        ours = {tuple(node.subsets) for node in enumerate_antichains(r)}
        theirs = {
            tuple(sorted((tuple(sorted(s)) for s in ac),
                         key=lambda s: (len(s), s)))
            for ac in pid_oracle.antichains(r)}
        theirs = {tuple(frozenset(s) for s in ac) for ac in theirs}
        ours = {tuple(frozenset(s) for s in ac) for ac in ours}
        assert ours == theirs


def test_order_matches_oracle():
    for r in (2, 3):
        nodes = enumerate_antichains(r)
        for a, b in itertools.product(nodes, repeat=2):
            oracle = pid_oracle.leq(
                [set(s) for s in a.subsets], [set(s) for s in b.subsets])
            assert below_or_equal(a, b) == oracle


def test_r2_is_a_diamond():
    lat = build_lattice(2)
    labels = [node.label for node in lat.nodes]
    assert labels[0] == "{1}{2}"
    assert set(labels[1:3]) == {"{1}", "{2}"}
    assert labels[3] == "{1,2}"
    # Transitive reduction of the diamond: bottom covers the two singletons,
    # each singleton covers the top. Four edges in total.
    assert sorted(lat.covers) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_r1_is_a_single_node():
    lat = build_lattice(1)
    assert len(lat.nodes) == 1
    assert lat.covers == ()
    assert lat.below == ((),)
    assert lat.bottom is lat.top


def test_topological_consistency():
    # The up-set mask order must agree with the pairwise reference order.
    for r in (1, 2, 3, 4):
        lat = build_lattice(r)
        for i, downs in enumerate(lat.below):
            assert all(j < i for j in downs)
            for j in downs:
                assert below_or_equal(lat.nodes[j], lat.nodes[i])
                assert lat.nodes[j] != lat.nodes[i]
        # below is the full strict down-set, not just the covers
        for i, node in enumerate(lat.nodes):
            expected = tuple(
                j for j in range(len(lat.nodes))
                if j != i
                and below_or_equal(lat.nodes[j], node)
                and not below_or_equal(node, lat.nodes[j]))
            assert lat.below[i] == expected


def test_covers_are_minimal():
    for r in (3, 4):
        lat = build_lattice(r)
        below_sets = [set(d) for d in lat.below]
        for lo, hi in lat.covers:
            assert lo in below_sets[hi]
            between = [m for m in below_sets[hi] if m != lo and lo in below_sets[m]]
            assert between == []
        # ... and complete: every pair with nothing between is listed, in order.
        expected = [
            (lo, hi) for hi, lows in enumerate(below_sets) for lo in lows
            if not any(lo in below_sets[m] for m in lows)]
        assert lat.covers == tuple(sorted(expected))


def test_covers_are_computed_on_first_read():
    lat = _build_lattice.__wrapped__(3)
    assert "covers" not in vars(lat)
    covers = lat.covers
    assert vars(lat)["covers"] is covers is lat.covers


def test_bottom_and_top():
    for r in (1, 2, 3):
        lat = build_lattice(r)
        full = frozenset(range(1, r + 1))
        assert lat.top.subsets == (full,)
        assert lat.bottom.subsets == tuple(
            frozenset({i}) for i in range(1, r + 1))
        for node in lat.nodes:
            assert below_or_equal(lat.bottom, node)
            assert below_or_equal(node, lat.top)


def test_antichain_canonical_order_and_label():
    node = Antichain([{2, 1}, {3}])
    assert node.subsets == (frozenset({3}), frozenset({1, 2}))
    assert node.label == "{3}{1,2}"
    assert subset_label(frozenset({3, 1})) == "{1,3}"


def test_antichain_equality_ignores_input_order():
    a = Antichain([{1}, {2}])
    b = Antichain([{2}, {1}])
    assert a == b
    assert hash(a) == hash(b)


def test_antichain_rejects_comparable_subsets():
    with pytest.raises(ValueError, match="antichain"):
        Antichain([{1}, {1, 2}])
    # exact duplicates collapse rather than erroring
    assert Antichain([{1, 2}, {1, 2}]).subsets == (frozenset({1, 2}),)


def test_antichain_rejects_empty_and_bad_elements():
    with pytest.raises(ValueError):
        Antichain([])
    with pytest.raises(ValueError):
        Antichain([set()])
    with pytest.raises(ValueError):
        Antichain([{0}])
    with pytest.raises(ValueError):
        Antichain([{1, "a"}])
    with pytest.raises(ValueError, match="must be integers"):
        Antichain([{1.5}, {2}])
    with pytest.raises(ValueError, match="must be integers"):
        Antichain([[True], [2]])


def test_antichain_is_immutable():
    node = Antichain([{1}])
    with pytest.raises(AttributeError):
        node.subsets = ()


def test_lattice_index_lookup():
    lat = build_lattice(2)
    node = Antichain([{2}, {1}])
    assert lat.nodes[lat.index(node)] == node
    with pytest.raises(ValueError):
        lat.index(Antichain([{3}]))


def test_build_lattice_is_cached():
    assert build_lattice(3) is build_lattice(3)
    with pytest.raises(ValueError):
        build_lattice(0)


def test_build_lattice_refuses_an_r_that_is_not_an_integer():
    assert build_lattice(np.int64(3)) is build_lattice(3)
    for r in (True, False, 3.0, "3", None):
        with pytest.raises(ValueError, match=f"sources r must be an integer, got {r!r}"):
            build_lattice(r)


def test_build_lattice_refuses_more_than_four_sources():
    assert len(build_lattice(4).nodes) == 166
    with pytest.raises(ValueError, match="lattice limit of 4"):
        build_lattice(5)
