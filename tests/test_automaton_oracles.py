"""Checks of the automaton path against facts of the automaton itself.

Next is a function of the previous centre cell (the history's lowest bit)
and of left and right, so the total I(next; hist, left, right) is the
plug-in H(next). A rule's mirror image, run from the reversed rows, draws
the mirrored grids; its complement, run from the complemented rows, draws
the complemented grids. Neither relabelling can change a plug-in measure,
except that mirroring swaps the left and right sources.

No value here is equal bit for bit: a conjugate counts its distinct rows in
another order, so its float sums round differently. Every check holds to
1e-12. Over all 256 rules the largest gaps seen were 2.2e-16 for the total
and 3.3e-16 for the conjugates.
"""

import functools
import math

import numpy as np

from support import simulate_rows
from synpid.dynamics import active_info_storage, ca_distributions, transfer_entropy
from synpid.pid import modified_information

RUNS, WIDTH, STEPS, KS = 4, 32, 32, (1, 2)
TOL = 1e-12


def mirrored(rule: int) -> int:
    """The rule with left and right swapped in its neighbourhood index."""
    return sum((rule >> (n >> 2 | n & 2 | (n & 1) << 2) & 1) << n for n in range(8))


def complemented(rule: int) -> int:
    """The rule with every input and output bit flipped."""
    return sum((~rule >> (7 - n) & 1) << n for n in range(8))


def first_rows(rule: int) -> np.ndarray:
    return np.random.default_rng(rule).integers(0, 2, (RUNS, WIDTH), dtype=np.uint8)


# One rule per class of rules equal up to mirroring and complement.
CLASSES = sorted({min(r, mirrored(r), complemented(r), mirrored(complemented(r)))
                  for r in range(256)})


def measures(rule: int, first) -> dict:
    """Every measure of ``rule`` run from the rows ``first``, at each k."""
    grids = simulate_rows(rule, first, STEPS)
    out = {}
    for k, dist in zip(KS, ca_distributions(grids, KS)):
        pid = modified_information(dist)
        out[k] = {"ais": active_info_storage(dist), "te_left": transfer_entropy(dist, "left"),
                  "te_right": transfer_entropy(dist, "right"), "total": pid.total,
                  "m_x": pid.m_x, "i_partial": pid.i_partial,
                  "next": np.stack([g.cells[k:] for g in grids])}
    return out


@functools.lru_cache(maxsize=None)
def measured(rule: int) -> dict:
    return measures(rule, first_rows(rule))


def plug_in_entropy(bits: np.ndarray) -> float:
    p = np.bincount(bits.ravel(), minlength=2) / bits.size
    return -math.fsum(q * math.log2(q) for q in p.tolist() if q)


def test_the_rules_fall_into_88_classes():
    assert len(CLASSES) == 88
    for rule in range(256):
        assert mirrored(mirrored(rule)) == complemented(complemented(rule)) == rule
    # Rule 110 mirrors to 124 and complements to 137 (Wolfram's table).
    assert (mirrored(110), complemented(110)) == (124, 137)


def test_total_is_the_entropy_of_next():
    for rule in CLASSES:
        for k, got in measured(rule).items():
            assert abs(got["total"] - plug_in_entropy(got["next"])) <= TOL, (rule, k)


def test_mirrored_rule_swaps_left_and_right():
    for rule in CLASSES:
        mirror = measures(mirrored(rule), first_rows(rule)[:, ::-1])
        for k, got in measured(rule).items():
            assert np.array_equal(mirror[k]["next"], got["next"][..., ::-1]), (rule, k)
            for a, b in (("ais", "ais"), ("total", "total"), ("m_x", "m_x"),
                         ("te_left", "te_right"), ("te_right", "te_left")):
                assert abs(mirror[k][a] - got[b]) <= TOL, (rule, k, a)


def test_complemented_rule_leaves_every_measure_unchanged():
    for rule in CLASSES:
        complement = measures(complemented(rule), 1 - first_rows(rule))
        for k, got in measured(rule).items():
            assert np.array_equal(complement[k]["next"], 1 - got["next"]), (rule, k)
            for name in ("ais", "te_left", "te_right", "total", "m_x"):
                assert abs(complement[k][name] - got[name]) <= TOL, (rule, k, name)
            np.testing.assert_allclose(complement[k]["i_partial"], got["i_partial"],
                                       rtol=0, atol=TOL, err_msg=f"rule {rule}, k={k}")
