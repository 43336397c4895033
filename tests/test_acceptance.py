"""End-to-end acceptance criteria.

Each test is one criterion; the terminal summary prints a PASS/FAIL line per
criterion (see conftest). The heavy five-rule batches run once in a
module-scoped fixture and are shared by the table-reproduction and ordering
criteria.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

import pid_oracle
from support import gate_distribution, random_distribution, to_prob_table
from synpid.distributions import JointDistribution, avg_mi, local_mi
from synpid.dynamics import (
    active_info_storage, ca_distribution, local_ais, local_separable,
    local_te, profile, transfer_entropy,
)
from synpid.eca import run
from synpid.experiments import (
    ExperimentConfig, OR_NODE, or_distribution, run_or_demo, run_table1,
)
from synpid.lattice import build_lattice, enumerate_antichains
from synpid.pid import i_min, local_i_min, partial_terms

RULES = (18, 22, 30, 54, 110)
BASE_SEEDS = (0, 1000, 2000, 3000, 4000)

# Reference values for the five-rule batch at the default scale
# (100 runs of 200x200, k=16), one row per rule:
# (pi order 1, pi order 2, pi order 3, m_x at k=16, m_x at k=1).
REFERENCE = {
    18: (0.273, 0.464, 0.087, 0.551, 0.691),
    22: (0.188, 0.188, 0.559, 0.747, 0.916),
    30: (0.189, 0.558, 0.253, 0.811, 0.812),
    54: (0.705, 0.087, 0.205, 0.292, 0.860),
    110: (0.689, 0.177, 0.121, 0.298, 0.899),
}
TOLERANCE = 0.05

CHAOTIC = (18, 22, 30)
COMPLEX = (54, 110)


@pytest.fixture(scope="module")
def batches():
    """Full-scale results for every rule at five independent base seeds."""
    t0 = time.monotonic()
    per_seed = {}
    for seed in BASE_SEEDS:
        report = run_table1(ExperimentConfig(rules=RULES, base_seed=seed))
        per_seed[seed] = {row["rule"]: row for row in report["rules"]}
    return per_seed, time.monotonic() - t0


def _as_row(row):
    pi = row["pi_by_order"]
    return (pi["1"], pi["2"], pi["3"], row["m_x"], row["m_x_k1"])


def test_c1_or_localization_rows():
    """Tilted OR gate, delta=+1e-6: localized redundancy puts the weaker
    source's local values on every row, matching the reference column
    (1.000, -0.585, 0.415, 0.415) to three decimals, in under a second."""
    t0 = time.monotonic()
    demo = run_or_demo(1e-6)
    elapsed = time.monotonic() - t0
    expected = (1.000, -0.585, 0.415, 0.415)
    assert [(r["a1"], r["a2"]) for r in demo["rows"]] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for row, target in zip(demo["rows"], expected):
        assert row["local_value"] == pytest.approx(target, abs=5e-4), (row, target)
        assert row["chosen_source"] == "A1"
        assert not row["tied"]
    assert not demo["any_tie"]
    assert elapsed < 1.0


def test_c2_localization_discontinuity():
    """Stepping delta through -1e-6, 0, +1e-6 flips the minimizing source:
    individual rows jump by about one bit while the average moves by less
    than 1e-5; the untilted point is an exact tie. Under a second."""
    t0 = time.monotonic()
    by_delta = {delta: run_or_demo(delta) for delta in (-1e-6, 0.0, 1e-6)}
    elapsed = time.monotonic() - t0

    def local_values(demo):
        return {(r["x"], r["a1"], r["a2"]): r["local_value"] for r in demo["rows"]}

    demos = list(by_delta.values())
    jumps = []
    for lo, hi in zip(demos, demos[1:]):
        lo_values, hi_values = local_values(lo), local_values(hi)
        assert lo_values.keys() == hi_values.keys()
        jumps += [abs(hi_values[obs] - lo_values[obs]) for obs in lo_values]
        assert abs(hi["average"] - lo["average"]) < 1e-5
    assert max(jumps) >= 0.99
    assert all(r["tied"] for r in by_delta[0.0]["rows"])
    assert not any(r["tied"] for r in by_delta[-1e-6]["rows"])
    assert not any(r["tied"] for r in by_delta[1e-6]["rows"])
    # minus tilt chooses the other source on every row
    assert {r["chosen_source"] for r in by_delta[-1e-6]["rows"]} == {"A2"}
    assert {r["chosen_source"] for r in by_delta[1e-6]["rows"]} == {"A1"}
    for demo in demos:
        assert demo["average"] == pytest.approx(0.3112781244591328, abs=1e-5)
    assert by_delta[1e-6]["average"] == pytest.approx(0.31127712446057565, abs=1e-12)
    assert by_delta[-1e-6]["average"] == pytest.approx(0.31127712446057565, abs=1e-12)
    assert elapsed < 1.0


def test_c3_automaton_table_reproduction(batches):
    """Five-rule batch at the default scale: every seed-averaged quantity
    lands within 0.05 bits of its reference value, within the time budget."""
    per_seed, elapsed = batches
    assert elapsed < 600.0, f"batch took {elapsed:.1f}s"
    worst = 0.0
    for rule, targets in REFERENCE.items():
        rows = [_as_row(per_seed[seed][rule]) for seed in BASE_SEEDS]
        means = [sum(col) / len(col) for col in zip(*rows)]
        for got, target in zip(means, targets):
            worst = max(worst, abs(got - target))
            assert got == pytest.approx(target, abs=TOLERANCE), (
                rule, targets, means)
    assert worst <= TOLERANCE


def test_c4_synergy_separates_dynamics(batches):
    """At every seed: the long-history modified information of each chaotic
    rule exceeds that of each complex rule, and for the complex rules the
    short-history estimate exceeds the long-history one."""
    per_seed, _ = batches
    for seed, results in per_seed.items():
        lowest_chaotic = min(results[r]["m_x"] for r in CHAOTIC)
        highest_complex = max(results[r]["m_x"] for r in COMPLEX)
        assert lowest_chaotic > highest_complex, seed
        for rule in COMPLEX:
            assert results[rule]["m_x_k1"] > results[rule]["m_x"], (seed, rule)


def test_c5_gate_decompositions_match_oracle():
    """Partial terms for the xor, or, and, and two-bit copy gates agree with
    the brute-force linear-system oracle to 1e-10 at every lattice node."""
    lat = build_lattice(2)
    for gate in ("xor", "or", "and", "copy2"):
        dist = gate_distribution(gate)
        _, icap, ipart = pid_oracle.decompose(to_prob_table(dist), 2)
        i_cap, i_partial = partial_terms(dist, lat)
        for i, node in enumerate(lat.nodes):
            key = frozenset(node.subsets)
            assert i_cap[i] == pytest.approx(icap[key], abs=1e-10), gate
            assert i_partial[i] == pytest.approx(ipart[key], abs=1e-10), gate


def test_c6_lattice_and_measure_invariants():
    """Structural guarantees: node counts 1/4/18; on a thousand random
    distributions the redundancy measure is symmetric, matches plain mutual
    information on single subsets, never grows when subsets are added, and
    yields nonnegative partial terms summing to the joint information; on
    automaton distributions storage and transfers add up to the joint
    information exactly."""
    assert tuple(len(enumerate_antichains(r)) for r in (1, 2, 3)) == (1, 4, 18)

    lat = build_lattice(2)
    rng = np.random.default_rng(20260822)
    for _ in range(1000):
        dist = random_distribution(rng, r=2)
        a1 = i_min(dist, [{1}])
        a2 = i_min(dist, [{2}])
        both = i_min(dist, [{1}, {2}])
        # self-redundancy: a lone subset scores its own mutual information
        assert a1 == pytest.approx(avg_mi(dist, (0,), (1,)), abs=1e-10)
        assert i_min(dist, [{1, 2}]) == pytest.approx(
            avg_mi(dist, (0,), (1, 2)), abs=1e-10)
        # symmetry: listing order is irrelevant, and swapping the two source
        # columns swaps subset values without moving the minimum
        assert i_min(dist, [{2}, {1}]) == both
        swapped = JointDistribution(
            (dist.variables[0], dist.variables[2], dist.variables[1]),
            {(x, b, a): c for (x, a, b), c in dist.counts.items()})
        assert i_min(swapped, [{1}]) == pytest.approx(a2, abs=1e-12)
        assert i_min(swapped, [{1}, {2}]) == pytest.approx(both, abs=1e-12)
        # monotonicity: extra subsets cannot raise the minimum, supersets
        # of an existing subset cannot change it
        assert both <= min(a1, a2) + 1e-12
        assert i_min(dist, [{1}, {1, 2}]) == pytest.approx(a1, abs=1e-12)
        # partial terms: nonnegative, and they rebuild the joint information
        _, i_partial = partial_terms(dist, lat)
        for node, v in zip(lat.nodes, i_partial):
            assert v >= -1e-9, (node.label, v)
        assert math.fsum(i_partial) == pytest.approx(
            avg_mi(dist, (0,), (1, 2)), abs=1e-10)

    for rule, k in product((18, 22, 30, 54, 110), (1, 2, 3)):
        grid = run(rule, 20, 24, seed=rule + k)
        dist = ca_distribution([grid], k)
        lhs = (active_info_storage(dist)
               + transfer_entropy(dist, "left")
               + transfer_entropy(dist, "right", ("left",)))
        assert lhs == pytest.approx(avg_mi(dist, (0,), (1, 2, 3)), abs=1e-10)


def test_c7_local_averages_reconcile():
    """Probability-weighted local values reproduce every averaged measure to
    1e-10: storage, apparent and conditioned transfers, separable
    information, and localized redundancy on tie-free distributions."""
    grid = run(110, 30, 40, seed=22)
    dist = ca_distribution([grid], 2)
    n = dist.total

    def wmean(fn):
        return math.fsum(c / n * fn(obs) for obs, c in dist.counts.items())

    assert wmean(lambda o: local_ais(dist, o[1], o[0])) == pytest.approx(
        active_info_storage(dist), abs=1e-10)
    for source in ("left", "right"):
        other = "right" if source == "left" else "left"
        assert wmean(lambda o: local_te(dist, source, (), o)) == pytest.approx(
            transfer_entropy(dist, source), abs=1e-10)
        assert wmean(
            lambda o: local_te(dist, source, (other,), o)) == pytest.approx(
            transfer_entropy(dist, source, (other,)), abs=1e-10)
    assert wmean(lambda o: local_separable(dist, o)) == pytest.approx(
        active_info_storage(dist)
        + transfer_entropy(dist, "left")
        + transfer_entropy(dist, "right"), abs=1e-10)

    for tie_free in (gate_distribution("xor"), gate_distribution("copy2"),
                     or_distribution(1e-3)):
        mean = math.fsum(
            c / tie_free.total * local_i_min(tie_free, OR_NODE, obs)
            for obs, c in tie_free.counts.items())
        assert mean == pytest.approx(i_min(tie_free, OR_NODE), abs=1e-10)


def test_c8_storage_profile_sign_structure():
    """Rule 54 at the default scale: the local-storage profile is strictly
    positive on a clear majority of sites yet strictly negative on a
    nonempty set (the misinformative sites where gliders collide)."""
    config = ExperimentConfig(rules=(54,), base_seed=0)
    dist = ca_distribution(
        [run(54, config.width, config.steps, seed) for seed in config.seeds()],
        config.k)
    display = run(54, config.width, config.steps, config.base_seed)
    prof = profile(dist, display, "local_ais")
    values = prof.defined_values()
    assert np.isfinite(values).all()
    positive = np.count_nonzero(values > 0)
    negative = np.count_nonzero(values < 0)
    assert positive / values.size > 0.5
    assert negative > 0
