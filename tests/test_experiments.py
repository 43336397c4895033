import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from support import embed_history
from synpid import dynamics, eca, experiments
from synpid.distributions import VariableSpec, count_samples, history_length
from synpid.dynamics import ca_distribution, profile, write_profile_csv
from synpid.eca import run, run_batch
from synpid.experiments import (
    AnalyzeConfig, ExperimentConfig, OR_NODE, export_local_profiles, or_demo_text,
    or_distribution, run_or_demo, run_table1, series_distribution, table1_text,
)
from synpid.pid import i_min, modified_information

SMALL = ExperimentConfig(rules=(110,), runs=3, width=24, steps=28, k=4, base_seed=7)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="at least one rule"):
        ExperimentConfig(rules=())
    with pytest.raises(ValueError, match="runs"):
        ExperimentConfig(rules=(30,), runs=0)
    with pytest.raises(ValueError, match="no destinations"):
        ExperimentConfig(rules=(30,), steps=16, k=16)
    with pytest.raises(ValueError, match="k must be"):
        ExperimentConfig(rules=(30,), k=0)
    with pytest.raises(ValueError, match="width must be at least 3, got 2"):
        ExperimentConfig(rules=(30,), width=2)
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        ExperimentConfig(rules=(30,), base_seed=-3)
    cfg = ExperimentConfig(rules=(30, 110), runs=4, base_seed=100, steps=20, k=2)
    assert cfg.seeds() == (100, 101, 102, 103)


@pytest.mark.parametrize("rules", [(30, 256), (-1,)])
def test_experiment_config_checks_rules_before_simulating(monkeypatch, rules):
    def simulate(*args):
        raise AssertionError("simulated before the rules were checked")

    monkeypatch.setattr(experiments.eca, "run_batch", simulate)
    with pytest.raises(ValueError, match=r"rule number must be in \[0, 255\], got"):
        run_table1(ExperimentConfig(rules=rules, runs=1, width=8, steps=4, k=1))


@pytest.mark.parametrize("rules", [(30.7,), ("110",), (True,), (30, None)])
def test_experiment_config_refuses_non_integer_rules(rules):
    with pytest.raises(ValueError, match="rule number must be an integer"):
        ExperimentConfig(rules=rules)


@pytest.mark.parametrize("value", [2.0, 2.5, True])
@pytest.mark.parametrize("name", ["runs", "width", "steps", "k", "base_seed"])
def test_experiment_config_refuses_non_integer_fields(name, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        ExperimentConfig(rules=(30,), **{name: value})


def test_experiment_config_stores_plain_ints():
    cfg = ExperimentConfig(rules=(np.uint8(30),), runs=np.int64(2), k=np.int32(3))
    assert json.dumps(cfg.to_json_dict()) == json.dumps(
        ExperimentConfig(rules=(30,), runs=2, k=3).to_json_dict())


def test_table_report_content():
    report = run_table1(SMALL, threads=1)
    assert len(report["rules"]) == 1
    res = report["rules"][0]
    assert res["rule"] == 110 and res["k"] == 4
    assert res["samples"] == 3 * 24 * (28 - 4)
    assert res["samples_k1"] == 3 * 24 * 27
    assert list(res["pi_by_order"]) == ["1", "2", "3"]
    pi = list(res["pi_by_order"].values())
    assert math.fsum(pi) == pytest.approx(res["total_information"], abs=1e-10)
    assert res["m_x"] <= pi[1] + pi[2] + 1e-10
    assert all(v >= -1e-9 for v in pi)


def test_table_report_serialization_is_stable():
    a = run_table1(SMALL, threads=1)
    b = run_table1(SMALL, threads=2)
    ja = json.dumps(a, sort_keys=True)
    jb = json.dumps(b, sort_keys=True)
    assert ja == jb  # thread count cannot leak into results
    assert a["format"] == "synpid-table1"
    assert a["seeds"] == [7, 8, 9]
    assert a["rules"][0]["pi_by_order"].keys() == {"1", "2", "3"}
    text = table1_text(a)
    assert text.splitlines()[0].startswith("rule")
    assert " 110 " in text or text.splitlines()[1].startswith(" 110")


@pytest.mark.parametrize("k", [1, 4])
def test_table1_rows_equal_separate_counts(k):
    # One count serves both history lengths; the rows equal those of
    # separate k and k=1 counts, also when k is 1 itself.
    cfg = ExperimentConfig(rules=(110, 30), runs=3, width=24, steps=28, k=k, base_seed=7)
    for rule, res in zip(cfg.rules, run_table1(cfg)["rules"]):
        grids = run_batch(rule, cfg.width, cfg.steps, cfg.base_seed, cfg.runs)
        dist_k, dist_1 = ca_distribution(grids, k), ca_distribution(grids, 1)
        dec_k, dec_1 = modified_information(dist_k), modified_information(dist_1)
        assert res == {
            "rule": rule, "k": k,
            "pi_by_order": {str(o): dec_k.hierarchy[o] for o in (1, 2, 3)},
            "m_x": dec_k.m_x, "m_x_k1": dec_1.m_x, "total_information": dec_k.total,
            "samples": 3 * 24 * (28 - k), "samples_k1": 3 * 24 * 27}


def test_rule_zero_batch_is_information_free():
    # Everything dies after the first step, so next is the constant 0 and
    # carries no information of any kind.
    cfg = ExperimentConfig(rules=(0,), runs=2, width=12, steps=10, k=2, base_seed=0)
    res = run_table1(cfg, threads=1)["rules"][0]
    assert res["total_information"] == 0.0
    assert res["m_x"] == 0.0
    assert res["m_x_k1"] == 0.0
    assert all(v == 0.0 for v in res["pi_by_order"].values())


def test_or_distribution_is_exact():
    dist = or_distribution(1e-6)
    assert dist.counts[(1, 0, 1)] == 0.25 + 1e-6
    assert dist.counts[(1, 1, 0)] == 0.25 - 1e-6
    assert dist.total == pytest.approx(1.0, abs=1e-15)
    # summed in the order the table lists its rows, not in sorted-key order
    assert dist.total == 0.25 + (0.25 + 1e-6) + (0.25 - 1e-6) + 0.25
    with pytest.raises(ValueError, match="0.25"):
        or_distribution(0.25)
    with pytest.raises(ValueError, match="0.25"):
        or_distribution(-0.3)


def test_or_demo_rows_and_average():
    demo = run_or_demo(1e-6)
    assert [(r["a1"], r["a2"], r["x"]) for r in demo["rows"]] == [
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert demo["average"] == pytest.approx(
        i_min(or_distribution(1e-6), OR_NODE), abs=1e-15)
    assert not demo["any_tie"]
    assert all(r["chosen_source"] == "A1" for r in demo["rows"])
    tied = run_or_demo(0.0)
    assert tied["any_tie"]
    assert all(r["tied"] for r in tied["rows"])


def test_or_demo_serialization_and_text():
    doc = run_or_demo(-1e-6)
    assert doc["format"] == "synpid-or-demo"
    assert doc["node"] == "{1}{2}"
    assert len(doc["rows"]) == 4
    assert {r["chosen_source"] for r in doc["rows"]} <= {"A1", "A2"}
    json.dumps(doc)  # everything must be JSON-clean
    text = or_demo_text(doc)
    assert "argmin" in text and text.endswith("bits")


def test_export_local_profiles(tmp_path):
    cfg = ExperimentConfig(rules=(54,), runs=2, width=16, steps=14, k=3, base_seed=1)
    out = export_local_profiles(cfg, ("local_ais", "local_separable"), tmp_path, threads=1)
    assert set(out) == {"local_ais", "local_separable"}
    for paths in out.values():
        assert os.path.exists(paths["csv"])
        assert os.path.exists(paths["pgm"])
    header = Path(out["local_ais"]["csv"]).read_text().splitlines()[0]
    assert header == "cell,time,value"
    with pytest.raises(ValueError, match="unknown measure"):
        export_local_profiles(cfg, ("bogus",), tmp_path)
    with pytest.raises(ValueError, match="at least one measure"):
        export_local_profiles(cfg, (), tmp_path)
    with pytest.raises(ValueError, match=re.escape(
            "duplicate measures: ('local_ais', 'local_te_left', 'local_ais')")):
        export_local_profiles(cfg, ["local_ais", "local_te_left", "local_ais"], tmp_path / "d")
    # A bare string is not read as a sequence of one-letter names.
    with pytest.raises(ValueError, match=re.escape(
            "measures must be a sequence of names, got 'local_ais'")):
        export_local_profiles(cfg, "local_ais", tmp_path / "d")
    # The config states the one rule profiled; several are refused.
    with pytest.raises(ValueError, match=re.escape(
            "profiles are exported for one rule, got rules [30, 54]")):
        export_local_profiles(ExperimentConfig(rules=(30, 54), runs=2, width=16, steps=14, k=3),
                              ("local_ais",), tmp_path / "d")
    assert not (tmp_path / "d").exists()
    assert sorted(os.listdir(tmp_path)) == [
        f"rule54_{m}.{ext}" for m in ("local_ais", "local_separable") for ext in ("csv", "pgm")]


def test_export_finds_the_displayed_sites_once(monkeypatch, tmp_path):
    # The four measures value one deduplication of the displayed grid.
    first_seen, calls = dynamics._first_seen, []

    def spy(values):
        calls.append(len(values))
        return first_seen(values)

    monkeypatch.setattr(dynamics, "_first_seen", spy)
    written = export_local_profiles(SMALL, dynamics.PROFILE_MEASURES, tmp_path)
    assert list(written) == list(dynamics.PROFILE_MEASURES)
    assert calls == [(SMALL.steps - SMALL.k) * SMALL.width]


def test_pipelines_count_a_batch_as_it_is_simulated(monkeypatch, tmp_path):
    # The pooled batch is never held as grids: neither simulated by
    # run_batch nor read as grid rows. Only the displayed grid is simulated
    # again, as one run.
    simulate, simulated = eca.run_batch, []

    def spy(rule, width, steps, base_seed, runs):
        simulated.append(runs)
        return simulate(rule, width, steps, base_seed, runs)

    def copy(cells, stop):
        raise AssertionError("the pooled batch was read as grid rows")

    monkeypatch.setattr(eca, "run_batch", spy)
    monkeypatch.setattr(dynamics, "_grid_rows", copy)
    run_table1(SMALL)
    export_local_profiles(SMALL, ("local_ais",), tmp_path)
    assert simulated == [1]


def test_profiles_display_the_first_pooled_run(tmp_path):
    cfg = ExperimentConfig(rules=(54,), runs=3, width=16, steps=14, k=3, base_seed=5)
    out = export_local_profiles(cfg, ("local_separable",), tmp_path)
    pooled = ca_distribution(run_batch(54, 16, 14, 5, 3), 3)
    ref = tmp_path / "ref.csv"
    write_profile_csv(profile(pooled, run(54, 16, 14, 5), "local_separable"), ref)
    assert Path(out["local_separable"]["csv"]).read_bytes() == ref.read_bytes()


# -- user time series -------------------------------------------------------

def counted_rows(columns, destination, sources, k):
    """The per-row reference: first-seen labels from a dict, one
    ``embed_history`` call and one tuple per row, then ``count_samples``."""
    labels, alphabets = {}, {}
    for name in (destination, *sources):
        mapping = {}
        labels[name] = [mapping.setdefault(v, len(mapping)) for v in columns[name]]
        alphabets[name] = list(mapping)
    dest, base = labels[destination], len(alphabets[destination])
    variables = (
        VariableSpec(destination, base, "destination-next"),
        VariableSpec(destination + "_hist", base ** k, "destination-history"),
        *(VariableSpec(name, len(alphabets[name]), "source") for name in sources),
    )
    rows = [(dest[t + 1], embed_history(dest, k, t, base), *(labels[n][t] for n in sources))
            for t in range(k - 1, len(dest) - 1)]
    return count_samples(variables, rows), alphabets


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_series_distribution_equals_counted_rows(data):
    k = data.draw(st.integers(1, 4), label="k")
    sources = [f"s{i}" for i in range(data.draw(st.integers(1, 3), label="sources"))]
    n = data.draw(st.integers(k + 2, 40), label="rows")
    columns = {}
    # "extra" is never analyzed; negative, huge and non-contiguous labels.
    for name in ("d", *sources, "extra"):
        alphabet = data.draw(st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=2, max_size=5,
                                      unique=True), label=f"{name} alphabet")
        column = data.draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n),
                           label=name)
        assume(len(set(column)) >= 2)
        columns[name] = column
    config = AnalyzeConfig(k, "d", tuple(sources))
    dist, alphabets = series_distribution(
        {name: np.array(column, dtype=np.int64) for name, column in columns.items()}, config)
    expected, expected_alphabets = counted_rows(columns, "d", sources, k)
    assert dist.variables == expected.variables
    assert dict(dist.counts) == dict(expected.counts)
    assert dist.total == expected.total == n - k
    assert alphabets == expected_alphabets
    assert history_length(dist) == k
    assert series_distribution(columns, config)[0].counts == expected.counts


@pytest.mark.parametrize("kwargs, message", [
    ({"k": 0, "destination": "d", "sources": ("s",)}, "k must be >= 1, got 0"),
    ({"k": 1, "destination": "d", "sources": ()}, "need at least one source column"),
    ({"k": 1, "destination": "d", "sources": ("s", "d")}, "names must be distinct"),
    ({"k": 1, "destination": "d", "sources": ("s", "s")}, "duplicate source names"),
    ({"k": 1, "destination": "e", "sources": tuple("abcd")},
     "4 sources plus the history give r=5, over the lattice limit of 4"),
    # A bare string is not read as a sequence of one-letter names.
    ({"k": 1, "destination": "d", "sources": "ab"}, "sources must be a sequence"),
    ({"k": 1, "destination": "d", "sources": ("s", "")}, "sources must be a sequence"),
    ({"k": 1, "destination": "d", "sources": ("s", 2)}, "sources must be a sequence"),
    ({"k": 1, "destination": "d", "sources": 5}, "sources must be a sequence"),
    ({"k": 1, "destination": 5, "sources": ("a",)}, "destination must be a nonempty name"),
    ({"k": 1, "destination": "", "sources": ("a",)}, "destination must be a nonempty name"),
    ({"k": 1, "destination": "d", "sources": ("s", "d_hist")},
     "source name 'd_hist' is taken by the destination's history"),
])
def test_analyze_config_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        AnalyzeConfig(**kwargs)


@pytest.mark.parametrize("k", [2.0, 1.5, True])
@pytest.mark.parametrize("config", [AnalyzeConfig])
def test_configs_refuse_a_non_integer_k(config, k):
    with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
        config(k, "d", ("s",))


def test_series_distribution_refuses_a_state_space_past_64_bits():
    # 4 symbols and k=30: the history alone has 2**60 states, the joint 2**63.
    column = np.arange(40) % 4
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="joint state space too large"):
            series_distribution({"d": column, "s": column % 2}, AnalyzeConfig(30, "d", ("s",)))


@pytest.mark.parametrize("lengths", [(10, 7), (7, 10)])
def test_series_distribution_refuses_unequal_columns(lengths):
    columns = {"d": np.arange(lengths[0]) % 2, "s": np.arange(lengths[1]) % 3}
    with pytest.raises(ValueError, match=r"equal lengths, got \[%d, %d\]" % lengths):
        series_distribution(columns, AnalyzeConfig(1, "d", ("s",)))
