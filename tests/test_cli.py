import argparse
import csv
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from synpid import cli, experiments
from synpid.cli import main
from synpid.experiments import ExperimentConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO_ROOT / "docs" / "schemas"

# What a generated console script does: load the entry point, call it with
# no arguments (so it must read sys.argv itself) and exit with its result.
# argv[1] is the entry point's value; the rest is the command line.
CONSOLE_SCRIPT = """\
import sys
from importlib.metadata import EntryPoint
value = sys.argv[1]
func = EntryPoint(name="synpid", group="console_scripts", value=value).load()
sys.argv = ["synpid", *sys.argv[2:]]
sys.exit(func())
"""


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json") as f:
        schema = json.load(f)
    jsonschema.Draft202012Validator.check_schema(schema)
    return schema


def check(doc, schema_name):
    jsonschema.validate(doc, load_schema(schema_name),
                        cls=jsonschema.Draft202012Validator)


def write_csv(path, columns):
    names = list(columns)
    rows = zip(*(columns[n] for n in names))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(names)
        writer.writerows(rows)


# -- exit codes and argument handling ---------------------------------------

def read_pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)


def test_console_script_is_installed():
    # The script `pip install` generates from [project.scripts], run from the
    # declaration itself; an installed `synpid` on PATH must agree with it.
    value = read_pyproject()["project"]["scripts"]["synpid"]
    args = ["lattice", "--sources", "2"]
    reference = subprocess.run(
        [sys.executable, "-m", "synpid.cli", *args],
        capture_output=True, text=True)
    assert reference.returncode == 0, reference.stderr

    proc = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT, value, *args],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "4 nodes" in proc.stdout
    assert proc.stdout == reference.stdout

    script = shutil.which("synpid")
    if script:
        installed = subprocess.run([script, *args],
                                   capture_output=True, text=True)
        assert installed.returncode == 0, (script, installed.stderr)
        assert installed.stdout == reference.stdout, script


def test_readme_library_example_runs():
    # Every python block of the README, as written and in order, in one
    # namespace: its signatures cannot drift from the code's.
    text = (REPO_ROOT / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    assert len(blocks) >= 2
    namespace = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    dec = namespace["dec"]
    assert dec.k == 16 and dec.lattice.r == 3
    assert namespace["tc"] >= 0 and 0 < dec.m_x <= dec.total
    assert namespace["sep"].defined_values().shape == (184, 200)


def test_malformed_flags_exit_2():
    for argv in (
        [],                                   # missing subcommand
        ["ca-run", "--rule", "300"],          # rule out of range
        ["ca-run", "--rule", "xyz"],
        ["or-demo", "--delta", "0.3"],
        ["table1", "--rules", "1,299"],
        ["table1", "--runs", "0"],
        ["profile", "--measures", "a,,b"],
        ["no-such-command"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "synpid.cli", *argv],
            capture_output=True, text=True)
        assert proc.returncode == 2, (argv, proc.stderr)


def test_runtime_failures_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    cases = [
        ["ca-run", "--rule", "110"],  # no --out
        ["analyze", "--input", missing, "--destination", "d", "--sources", "s"],
        ["profile", "--rule", "54", "--measures", "bogus",
         "--out", str(tmp_path / "p"), "--runs", "1", "--width", "8",
         "--steps", "8", "--k", "1"],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert "synpid: error:" in capsys.readouterr().err


def test_bad_config_file_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert main(["or-demo", "--config", str(cfg)]) == 1
    assert "JSON object" in capsys.readouterr().err


def child_env():
    """The environment for a CLI process started in any directory: this one
    with the source tree first on PYTHONPATH and PYTHONUNBUFFERED dropped, so
    stdout is block-buffered and an output left unflushed shows as missing
    text."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["COLUMNS"] = "80"  # argparse wraps --help to the terminal
    return env


SMOKE_CA = ["--runs", "2", "--width", "16", "--steps", "20", "--k", "2"]
SERIES = "d,u\n0,1\n1,1\n1,0\n0,0\n1,1\n0,1\n1,0\n"


@pytest.mark.parametrize("argv", [
    ["ca-run", "--rule", "30", "--width", "8", "--steps", "6", "--out", "out/grid"],
    ["table1", "--rules", "18,54", *SMOKE_CA, "--out", "out/table1.json"],
    ["or-demo", "--out", "out/or.json"],
    ["profile", "--rule", "54", *SMOKE_CA, "--out", "out/profile"],
    ["analyze", "--input", "series.csv", "--destination", "d", "--sources", "u",
     "--out", "out/analyze.json"],
    ["analyze", "--input", "series.csv", "--destination", "d", "--sources", "u", "--k", "2"],
    ["lattice", "--sources", "3", "--out", "out/lattice.json"],
    ["lattice", "--sources", "4"],
    ["lattice", "--sources", "5"],
    ["table1", "--help"],
    ["table1", "--runs", "0"],
], ids=["ca-run", "table1", "or-demo", "profile", "analyze", "analyze-stdout", "lattice",
        "lattice-stdout", "exit-1", "help", "exit-2"])
def test_entry_forms_agree(argv, tmp_path, monkeypatch, capsys):
    # python -m synpid.cli, the declared console script and main in process
    # give the same exit code, streams and output bytes.
    value = read_pyproject()["project"]["scripts"]["synpid"]
    forms = {"module": ["-m", "synpid.cli"], "script": ["-c", CONSOLE_SCRIPT, value],
             "main": None}
    results = {}
    for form, entry in forms.items():
        cwd = tmp_path / form
        (cwd / "out").mkdir(parents=True)
        (cwd / "series.csv").write_text(SERIES)
        if entry:
            proc = subprocess.run([sys.executable, *entry, *argv], cwd=cwd, env=child_env(),
                                  capture_output=True, text=True, timeout=60)
            streams = proc.returncode, proc.stdout, proc.stderr
        else:
            monkeypatch.chdir(cwd)
            monkeypatch.setenv("COLUMNS", "80")
            try:
                code = main(argv)
            except SystemExit as exc:  # --help and malformed flags
                code = exc.code
            streams = code, *capsys.readouterr()
        written = {p.name: p.read_bytes() for p in sorted((cwd / "out").rglob("*"))
                   if p.is_file()}
        results[form] = (*streams, written)
    assert results["module"] == results["main"]
    assert results["script"] == results["main"]


@pytest.mark.parametrize("argv", [["lattice", "--sources", "2"],
                                  ["table1", "--rules", "18", *SMOKE_CA]],
                         ids=["lattice", "table1"])
def test_a_closed_stdout_exits_1(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "synpid.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=child_env(), text=True, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("synpid: error:"), proc.stderr


CONFIG_HELP = "JSON file supplying any of this command's settings"
SEED_HELP = "base seed (default: SYNPID_SEED env, then 0)"
REPORT_HELP = "write the JSON report here"
BATCH_FLAGS = [("--runs", None), ("--width", None), ("--steps", None), ("--k", None),
               ("--threads", "accepted for compatibility; has no effect")]


def test_each_command_keeps_its_flags_in_order():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        ("ca-run", "simulate one grid and export PGM + CSV"),
        ("table1", "hierarchy and modified-information table across rules"),
        ("or-demo", "localized redundancy across the tilted OR gate"),
        ("profile", "export local-measure spacetime profiles for one rule"),
        ("analyze", "measures and decomposition for a CSV of time series"),
        ("lattice", "print the redundancy lattice for r sources"),
    ]
    flags = {command: [(a.option_strings[-1], a.help) for a in p._actions[1:]]
             for command, p in sub.choices.items()}
    common = [("--config", CONFIG_HELP), ("--seed", SEED_HELP)]
    assert flags == {
        "ca-run": [*common, ("--rule", None), ("--width", None), ("--steps", None),
                   ("--out", "output path prefix (writes .pgm and .csv)")],
        "table1": [*common, ("--rules", "comma-separated rules (default 18,22,30,54,110)"),
                   *BATCH_FLAGS, ("--out", REPORT_HELP)],
        "or-demo": [*common, ("--delta", "tilt of the mixed rows (default 1e-6); "
                                         "write negatives as --delta=-1e-6"),
                    ("--out", REPORT_HELP)],
        "profile": [*common, ("--rule", None),
                    ("--measures", "comma-separated subset of local_ais,local_te_left,"
                                   "local_te_right,local_separable"),
                    *BATCH_FLAGS, ("--out", "output directory")],
        "analyze": [*common, ("--input", "CSV with a header row and integer cells"),
                    ("--destination", "destination column name"),
                    ("--sources", "comma-separated source column names"), ("--k", None),
                    ("--out", "write the JSON report here (default: stdout)")],
        "lattice": [*common, ("--sources", "number of sources r"),
                    ("--out", "write the JSON description here")],
    }


# -- ca-run ------------------------------------------------------------------

def test_ca_run_outputs(tmp_path, capsys):
    out = tmp_path / "grid"
    assert main(["ca-run", "--rule", "110", "--width", "16", "--steps", "12",
                 "--seed", "3", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    pgm = (tmp_path / "grid.pgm").read_bytes()
    p5, comment, dims, maxval, payload = pgm.split(b"\n", 4)
    assert p5 == b"P5"
    assert comment == b"# rule 110 seed 3"
    assert dims == b"16 12"
    assert maxval == b"1"
    assert len(payload) == 16 * 12
    rows = (tmp_path / "grid.csv").read_text().strip().splitlines()
    assert len(rows) == 12
    bits = np.array([[int(b) for b in row.split(",")] for row in rows])
    assert np.array_equal(bits.flatten(), np.frombuffer(payload, dtype=np.uint8))


def test_ca_run_is_deterministic(tmp_path):
    argv = ["ca-run", "--rule", "30", "--width", "10", "--steps", "10", "--seed", "5"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
    assert main(["ca-run", "--rule", "30", "--width", "10", "--steps", "10",
                 "--seed", "6", "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a.pgm").read_bytes() != (tmp_path / "c.pgm").read_bytes()


# -- table1 ------------------------------------------------------------------

def test_table1_report_validates_and_repeats(tmp_path, capsys):
    argv = ["table1", "--rules", "110,30", "--runs", "2", "--width", "14",
            "--steps", "12", "--k", "2", "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
    out = capsys.readouterr().out
    assert "rule" in out and "m_x" in out
    doc = json.loads((tmp_path / "a.json").read_text())
    check(doc, "table1")
    assert [r["rule"] for r in doc["rules"]] == [110, 30]
    assert doc["seeds"] == [0, 1]
    assert main(argv + ["--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_table1_threads_do_not_change_output(tmp_path):
    base = ["table1", "--rules", "54", "--runs", "3", "--width", "12",
            "--steps", "10", "--k", "2", "--seed", "1"]
    assert main(base + ["--threads", "1", "--out", str(tmp_path / "t1.json")]) == 0
    assert main(base + ["--threads", "3", "--out", str(tmp_path / "t3.json")]) == 0
    assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t3.json").read_bytes()


# -- or-demo -----------------------------------------------------------------

def test_or_demo_report(tmp_path, capsys):
    assert main(["or-demo", "--delta", "1e-6", "--out", str(tmp_path / "d.json")]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "d.json").read_text())
    check(doc, "or-demo")
    assert doc["delta"] == 1e-6
    assert not doc["any_tie"]
    assert all(row["chosen_source"] == "A1" for row in doc["rows"])


def test_or_demo_flip_and_tie(tmp_path):
    assert main(["or-demo", "--delta=-1e-6", "--out", str(tmp_path / "m.json")]) == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    check(doc, "or-demo")
    assert all(row["chosen_source"] == "A2" for row in doc["rows"])
    assert main(["or-demo", "--delta", "0", "--out", str(tmp_path / "z.json")]) == 0
    tied = json.loads((tmp_path / "z.json").read_text())
    assert tied["any_tie"]


def test_or_demo_report_bytes_are_pinned(tmp_path, capsys):
    # sha256 of the --out report for each tilt; no other test pins these bytes.
    for flag, digest in (
        ("--delta=1e-6", "2eb8be7e523a3a7c259c2049331d4e32fe433356b100b0983f2c06d03927fcbe"),
        ("--delta=-1e-6", "23497019a80ef79aee6774787127ed82a5ed97c41cfae1682afd5be7885593bb"),
        ("--delta=0", "0429a3d02609f8bb1646dec35d0246d6220de576a79c1409dd5fdda201b15d89"),
    ):
        out = tmp_path / "or.json"
        assert main(["or-demo", flag, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, flag
    capsys.readouterr()


def test_table1_and_or_demo_stdout_bytes_are_pinned(capsys):
    # sha256 of the printed text; no other test pins these bytes.
    table1 = ["table1", "--rules", "110,30", "--runs", "2", "--width", "14",
              "--steps", "12", "--k", "2", "--seed", "0"]
    for argv, digest in (
        (table1, "a3341c428586bfec80976781465aa6355184ddec2cfeab76a1ee1750bdb994f3"),
        (["or-demo", "--delta=1e-6"],
         "67319fe741f7062478eca45f15fcfadfe76c9f4b6954b9e262b9eaf43ee01c30"),
        (["or-demo", "--delta=-1e-6"],
         "7e688950e071ecae7c6b3fbce7c82dc8446a9d986ba660ed2095093ee6ecf8f1"),
        (["or-demo", "--delta=0"],
         "75211cb13f8b11f3c18343c2d9279c837ee6f89cbae9ff3e26e6937b4e20b237"),
    ):
        capsys.readouterr()
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv


def test_or_demo_default_delta(capsys):
    assert main(["or-demo"]) == 0
    assert "delta=1e-06" in capsys.readouterr().out


# -- profile -----------------------------------------------------------------

def test_profile_export(tmp_path, capsys):
    args = ["profile", "--rule", "54", "--runs", "1", "--width", "10",
            "--steps", "8", "--k", "1", "--seed", "0", "--out", str(tmp_path)]
    assert main(args + ["--measures", "local_ais,local_te_left"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "rule54_local_ais.csv", "rule54_local_ais.pgm",
        "rule54_local_te_left.csv", "rule54_local_te_left.pgm"]
    out = capsys.readouterr().out
    assert "local_ais" in out and "local_te_left" in out


def test_profile_refuses_a_repeated_measure(tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["profile", "--rule", "54", "--runs", "1", "--width", "8", "--steps", "6",
                 "--k", "1", "--out", str(out), "--measures", "local_ais,local_ais"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("synpid: error: duplicate measures: "
                            "('local_ais', 'local_ais')\n")
    assert not out.exists()


def test_profile_defaults_to_all_measures(tmp_path):
    assert main(["profile", "--rule", "110", "--runs", "1", "--width", "8",
                 "--steps", "6", "--k", "1", "--out", str(tmp_path)]) == 0
    names = {p.name for p in tmp_path.iterdir()}
    for m in ("local_ais", "local_te_left", "local_te_right", "local_separable"):
        assert f"rule110_{m}.csv" in names
        assert f"rule110_{m}.pgm" in names


# -- analyze -----------------------------------------------------------------

def test_analyze_copy_series(tmp_path, capsys):
    rng = np.random.default_rng(0)
    s = rng.integers(0, 2, 600)
    d = np.empty_like(s)
    d[0] = 0
    d[1:] = s[:-1]  # the destination copies its source one step later
    path = tmp_path / "copy.csv"
    write_csv(path, {"d": d.tolist(), "s": s.tolist()})
    assert main(["analyze", "--input", str(path), "--destination", "d",
                 "--sources", "s", "--k", "1",
                 "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "r.json").read_text())
    check(doc, "analyze")
    check(doc["decomposition"], "decomposition")
    assert doc["transfer_entropy"]["s"]["apparent"] == pytest.approx(1.0, abs=0.05)
    assert doc["active_info_storage"] == pytest.approx(0.0, abs=0.05)


def test_analyze_xor_series(tmp_path, capsys):
    rng = np.random.default_rng(1)
    s1 = rng.integers(0, 2, 800)
    s2 = rng.integers(0, 2, 800)
    d = np.zeros(800, dtype=int)
    d[1:] = (s1 ^ s2)[:-1]
    path = tmp_path / "xor.csv"
    write_csv(path, {"d": d.tolist(), "s1": s1.tolist(), "s2": s2.tolist()})
    assert main(["analyze", "--input", str(path), "--destination", "d",
                 "--sources", "s1,s2", "--k", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    check(doc, "analyze")
    assert doc["decomposition"]["m_x"] == pytest.approx(1.0, abs=0.05)
    assert doc["transfer_entropy"]["s1"]["apparent"] == pytest.approx(0.0, abs=0.05)
    assert doc["transfer_entropy"]["s1"]["complete"] == pytest.approx(1.0, abs=0.05)


def test_analyze_noise_stays_near_bias_scale(tmp_path, capsys):
    rng = np.random.default_rng(2)
    cols = {n: rng.integers(0, 2, 1000).tolist() for n in ("d", "u", "v")}
    path = tmp_path / "noise.csv"
    write_csv(path, cols)
    assert main(["analyze", "--input", str(path), "--destination", "d",
                 "--sources", "u,v", "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    bias = doc["estimation_bias_scale"]
    assert 0 < bias < 0.05
    assert doc["active_info_storage"] < 5 * bias + 0.01
    for te in doc["transfer_entropy"].values():
        assert te["apparent"] < 5 * bias + 0.01
        assert te["complete"] < 5 * bias + 0.01


def test_analyze_alphabets_record_first_seen_order(tmp_path, capsys):
    d = [5, 7, 5, 7, 9, 5, 7, 9, 5, 7, 5, 9, 7, 5, 9, 7]
    u = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1]
    path = tmp_path / "alpha.csv"
    write_csv(path, {"d": d, "u": u})
    assert main(["analyze", "--input", str(path), "--destination", "d",
                 "--sources", "u", "--k", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alphabets"]["d"] == [5, 7, 9]
    assert doc["alphabets"]["u"] == [1, 0]
    assert doc["decomposition"]["r"] == 2


def test_analyze_rejects_degenerate_inputs(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    write_csv(path, {"d": [1, 1, 1, 1], "u": [0, 1, 0, 1]})
    base = ["analyze", "--input", str(path), "--destination", "d", "--sources", "u"]
    assert main(base) == 1
    assert "constant" in capsys.readouterr().err

    write_csv(path, {"d": [0, 1, 0, 1], "u": [0, 1, 0, 1]})
    assert main(["analyze", "--input", str(path), "--destination", "d",
                 "--sources", "d"]) == 1
    assert "distinct" in capsys.readouterr().err

    assert main(base + ["--k", "3"]) == 1
    assert "at least k+2" in capsys.readouterr().err

    (tmp_path / "text.csv").write_text("d,u\n1,x\n0,1\n")
    assert main(["analyze", "--input", str(tmp_path / "text.csv"),
                 "--destination", "d", "--sources", "u"]) == 1
    assert "non-integer" in capsys.readouterr().err


ANALYZE_DU = ["--destination", "d", "--sources", "u", "--k", "1"]


@pytest.mark.parametrize("text, message", [
    ("", "{path} is empty"),
    ("d,d\n0,1\n", "duplicate column names in {path}: ['d', 'd']"),
    ("d,u\n", "destination column 'd' is constant"),
    ("d,u\n0,1\n\n1,0\n0,1\n", "{path}:3: expected 2 cells, got 0"),
    ("d,u\n0,1\n1,0\n0,1\n\n", "{path}:5: expected 2 cells, got 0"),
    ("d,u\n0,1\n  \n1,0\n", "{path}:3: expected 2 cells, got 1"),
    ("d,u\n0,1\n1,0,1\n", "{path}:3: expected 2 cells, got 3"),
    ("d,u\n0,1\n1\n", "{path}:3: expected 2 cells, got 1"),
    ("d,u\n0,1\n1,x\n", "{path}:3: non-integer cell 'x'"),
    ("d,u\n0,1\n1,\n", "{path}:3: non-integer cell ''"),
    ("d,u\n0,1.0\n", "{path}:2: non-integer cell '1.0'"),
    # int() accepts these three; the reader refuses them.
    ("d,u\n0,1\n1,1_000\n", "{path}:3: non-integer cell '1_000'"),
    ("d,u\n0,9223372036854775808\n",
     "{path}:2: cell '9223372036854775808' is outside the int64 range"),
    ("d,u\n0,-9223372036854775809\n",
     "{path}:2: cell '-9223372036854775809' is outside the int64 range"),
])
def test_analyze_csv_faults_name_their_line(tmp_path, capsys, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--input", str(path), *ANALYZE_DU]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"synpid: error: {message.format(path=path)}\n")


def test_analyze_csv_accepts_quotes_spacing_and_line_ends(tmp_path, capsys):
    low, high = -2 ** 63, 2 ** 63 - 1
    d = [0, 1, 1, 0, 1, 0, 0, 1]
    u = [low, high, high, low, low, high, low, high]
    reports = []
    for name, text in (
        ("plain", "d,u\n" + "".join(f"{a},{b}\n" for a, b in zip(d, u))),
        ("styled", '"d", u \r\n' + "".join(f'"{a}", {b}\t\r\n' for a, b in zip(d, u))[:-2]),
        ("bom", "\ufeffd,u\n" + "".join(f"{a},{b}\n" for a, b in zip(d, u))),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        assert main(["analyze", "--input", str(path), *ANALYZE_DU]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.pop("input") == str(path)
        reports.append(doc)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["alphabets"] == {"d": [0, 1], "u": [low, high]}


@pytest.mark.parametrize("argv, config, message", [
    (["--sources", "a,b,c,e"], {}, "lattice limit of 4"),
    (["--sources", "d"], {}, "names must be distinct"),
    (["--sources", "u"], {"k": 0}, "k must be >= 1, got 0"),
    ([], {"sources": []}, "need at least one source column"),
])
def test_analyze_checks_settings_before_reading(tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["analyze", "--input", str(tmp_path / "missing.csv"), "--destination", "d",
                 "--config", str(cfg), *argv]) == 1
    err = capsys.readouterr().err
    assert message in err and "missing.csv" not in err


@pytest.mark.parametrize("k", [30, 40])
def test_analyze_refuses_a_history_past_64_bits(tmp_path, capsys, k):
    # 4 destination symbols: at k=30, 2**60 history states and 2**63 joint
    # ones; at k=40, 4**39 alone would not fit an int64 multiplier.
    path = tmp_path / "long.csv"
    write_csv(path, {"d": [t % 4 for t in range(50)], "u": [t % 2 for t in range(50)]})
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert main(["analyze", "--input", str(path), "--destination", "d",
                     "--sources", "u", "--k", str(k)]) == 1
    assert "joint state space too large" in capsys.readouterr().err


def check_benchmark_bytes(workload, smoke, tmp_path, monkeypatch, capsys, golden=None):
    """Run one benchmark workload at seed 0 in process and compare every
    output with its golden sha256, from the benchmark's own workload
    definition: its input, arguments and hashes, unless ``golden`` gives
    the hashes."""
    path = REPO_ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(tmp_path)
    workloads.WORKLOADS[workload].prepare(0, smoke)
    (tmp_path / "out").mkdir()
    assert main(workloads.WORKLOADS[workload].argv(0, "out", smoke)) == 0
    capsys.readouterr()
    golden = golden or workloads.golden(workload, smoke=smoke)
    assert golden
    for name, digest in golden.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("workload", ["table1_default", "profile_rule54", "analyze_r4"])
def test_smoke_bytes_match_the_benchmark_golden(workload, tmp_path, monkeypatch, capsys):
    check_benchmark_bytes(workload, True, tmp_path, monkeypatch, capsys)


# analyze_r4 is left out: its recorded full-scale hash is stale, and
# mending it is a change to the benchmark.
@pytest.mark.parametrize("workload", ["table1_default", "profile_rule54"])
def test_full_scale_bytes_match_the_benchmark_golden(workload, tmp_path, monkeypatch, capsys):
    check_benchmark_bytes(workload, False, tmp_path, monkeypatch, capsys)


def test_full_scale_analyze_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # The hash that analyze_r4 writes with any BLAS thread count.
    check_benchmark_bytes("analyze_r4", False, tmp_path, monkeypatch, capsys, {
        "analyze.json": "51b903a6778f998789231410338d54c262a05316666471eb1cb6870b2a77bec9"})


def refuse_work(*args, **kwargs):
    raise AssertionError("worked before the output path was checked")


@pytest.mark.parametrize("argv, work", [
    (["ca-run", "--rule", "30"], (cli.eca, "run")),
    (["table1"], (cli, "run_table1")),
    (["or-demo"], (cli, "run_or_demo")),
    (["analyze", "--input", "series.csv", "--destination", "d", "--sources", "u"],
     (cli, "read_series")),
    (["lattice"], (cli, "build_lattice")),
], ids=["ca-run", "table1", "or-demo", "analyze", "lattice"])
def test_an_output_in_a_missing_directory_fails_before_any_work(monkeypatch, tmp_path, capsys,
                                                                argv, work):
    monkeypatch.setattr(*work, refuse_work)
    out = tmp_path / "missing" / "out.json"
    assert main([*argv, "--out", str(out)]) == 1
    written = f"{out}.pgm" if argv[0] == "ca-run" else out
    assert capsys.readouterr().err == (
        f"synpid: error: cannot write {written}: no directory {out.parent}\n")
    assert [p.name for p in tmp_path.iterdir()] == []


def test_profile_into_an_existing_file_fails_before_any_work(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(experiments, "batch_distributions", refuse_work)
    out = tmp_path / "taken"
    out.write_text("kept")
    assert main(["profile", "--rule", "54", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("synpid: error: ") and str(out) in err
    assert out.read_text() == "kept"


def test_table1_geometry_defaults_to_the_experiment_config(monkeypatch, capsys):
    seen = []

    def capture(config):
        seen.append(config)
        raise RuntimeError("captured")

    monkeypatch.setattr(cli, "run_table1", capture)
    monkeypatch.delenv("SYNPID_SEED", raising=False)
    assert main(["table1"]) == 1
    assert main(["table1", "--runs", "3", "--k", "2", "--seed", "5"]) == 1
    capsys.readouterr()
    assert seen == [ExperimentConfig(rules=cli.TABLE1_RULES),
                    ExperimentConfig(rules=cli.TABLE1_RULES, runs=3, k=2, base_seed=5)]


def test_table1_rejects_narrow_width(capsys):
    assert main(["table1", "--width", "2"]) == 1
    assert "width must be at least 3, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env, message", [
    (["table1", "--seed", "-3"], None, "seed must be >= 0, got -3"),
    (["ca-run", "--rule", "30", "--seed", "-1"], None, "seed must be >= 0, got -1"),
    (["table1"], "abc", "SYNPID_SEED must be an integer, got 'abc'"),
])
def test_bad_seeds_exit_1(tmp_path, monkeypatch, capsys, argv, env, message):
    if env is None:
        monkeypatch.delenv("SYNPID_SEED", raising=False)
    else:
        monkeypatch.setenv("SYNPID_SEED", env)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"synpid: error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_five_sources_fail_fast(tmp_path):
    # r = 5 has 7,579 antichains; ordering them would take minutes.
    path = tmp_path / "r5.csv"
    rng = np.random.default_rng(3)
    write_csv(path, {name: list(rng.integers(0, 2, 12)) for name in "abcde"})
    for argv in (["lattice", "--sources", "5"],
                 ["analyze", "--input", str(path), "--destination", "e",
                  "--sources", "a,b,c,d"]):
        proc = subprocess.run(
            [sys.executable, "-m", "synpid.cli", *argv],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1, (argv, proc.stderr)
        assert "lattice limit of 4" in proc.stderr, argv


# -- lattice -----------------------------------------------------------------

def test_lattice_output(tmp_path, capsys):
    assert main(["lattice", "--sources", "3", "--out", str(tmp_path / "l.json")]) == 0
    out = capsys.readouterr().out
    assert "18 nodes" in out
    doc = json.loads((tmp_path / "l.json").read_text())
    check(doc, "lattice")
    assert len(doc["nodes"]) == 18
    assert doc["nodes"][0] == "{1}{2}{3}"
    assert doc["nodes"][-1] == "{1,2,3}"
    names = set(doc["nodes"])
    for lo, hi in doc["covers"]:
        assert lo in names and hi in names


def test_lattice_bytes_are_pinned(tmp_path):
    pinned = {1: "420884f5ffa6", 2: "9ef2048a8de2", 3: "b295db632610", 4: "161dc4ec5581"}
    for r, prefix in pinned.items():
        out = tmp_path / f"lattice{r}.json"
        assert main(["lattice", "--sources", str(r), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == prefix, r


# -- settings precedence -----------------------------------------------------

def test_config_file_supplies_settings(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.01}))
    assert main(["or-demo", "--config", str(cfg),
                 "--out", str(tmp_path / "a.json")]) == 0
    assert json.loads((tmp_path / "a.json").read_text())["delta"] == 0.01
    # explicit flag wins over the config file
    assert main(["or-demo", "--config", str(cfg), "--delta", "0.02",
                 "--out", str(tmp_path / "b.json")]) == 0
    assert json.loads((tmp_path / "b.json").read_text())["delta"] == 0.02


def test_seed_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("SYNPID_SEED", "41")
    assert main(["ca-run", "--rule", "30", "--width", "8", "--steps", "6",
                 "--out", str(tmp_path / "env")]) == 0
    comment = (tmp_path / "env.pgm").read_bytes().split(b"\n")[1]
    assert comment == b"# rule 30 seed 41"
    # an explicit flag beats the environment
    assert main(["ca-run", "--rule", "30", "--width", "8", "--steps", "6",
                 "--seed", "9", "--out", str(tmp_path / "flag")]) == 0
    comment = (tmp_path / "flag.pgm").read_bytes().split(b"\n")[1]
    assert comment == b"# rule 30 seed 9"
    monkeypatch.delenv("SYNPID_SEED")
    assert main(["ca-run", "--rule", "30", "--width", "8", "--steps", "6",
                 "--out", str(tmp_path / "default")]) == 0
    comment = (tmp_path / "default.pgm").read_bytes().split(b"\n")[1]
    assert comment == b"# rule 30 seed 0"


def test_config_file_drives_table1_geometry(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"rules": "90", "runs": 2, "width": 10, "steps": 8, "k": 2, "seed": 4}))
    assert main(["table1", "--config", str(cfg),
                 "--out", str(tmp_path / "t.json")]) == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    check(doc, "table1")
    assert doc["config"] == {"rules": [90], "runs": 2, "width": 10,
                             "steps": 8, "k": 2, "base_seed": 4}


@pytest.mark.parametrize("command, config, message", [
    ("table1", {"runs": "abc"}, "'runs' must be an integer, got 'abc'"),
    ("table1", {"seed": "x"}, "'seed' must be an integer, got 'x'"),
    ("table1", {"rules": "30,x"}, "'rules' must be an integer, got 'x'"),
    ("table1", {"rules": [30, 1.5]}, "'rules' must be an integer, got 1.5"),
    ("table1", {"runs": 2.7}, "'runs' must be an integer, got 2.7"),
    ("table1", {"k": True}, "'k' must be an integer, got True"),
    ("table1", {"width": [8]}, "'width' must be an integer, got [8]"),
    ("ca-run", {"rule": "30.0"}, "'rule' must be an integer, got '30.0'"),
    ("ca-run", {"rule": 30, "steps": None, "width": "wide"},
     "'width' must be an integer, got 'wide'"),
    ("profile", {"rule": 54, "steps": False}, "'steps' must be an integer, got False"),
    ("analyze", {"input": "x.csv", "destination": "d", "sources": "s", "k": "2x"},
     "'k' must be an integer, got '2x'"),
    ("or-demo", {"delta": "abc"}, "'delta' must be a number, got 'abc'"),
    ("or-demo", {"delta": False}, "'delta' must be a number, got False"),
    ("profile", {"rule": 54, "measures": 5},
     "'measures' must be a string or a list of strings, got 5"),
    ("analyze", {"input": "x.csv", "destination": "d", "sources": ["s", 2]},
     "'sources' must be a string or a list of strings, got ['s', 2]"),
    # An out-of-range number is refused by the gate's own check, message and all.
    ("or-demo", {"delta": 0.3}, "|delta| must be < 0.25, got 0.3"),
    # A name list holding an empty name is refused by its flag's parser.
    ("analyze", {"input": "x.csv", "destination": "d", "sources": "u,"},
     "'sources' must be a list of nonempty names, got 'u,'"),
    ("profile", {"rule": 54, "measures": "local_ais,,local_ais"},
     "'measures' must be a list of nonempty names, got 'local_ais,,local_ais'"),
])
def test_config_integers_name_their_key(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    if not message.startswith("|delta|"):
        message = f"config value {message}"
    assert capsys.readouterr().err == f"synpid: error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_config_integer_strings_equal_integers(tmp_path):
    settings = {"runs": 2, "width": 10, "steps": 8, "k": 2, "seed": 4}
    flags = ["--rules", "90,30", *(f"--{key}={v}" for key, v in settings.items())]
    reports = []
    for name, config, argv in (("ints", {**settings, "rules": [90, 30]}, []),
                               ("strings", {**{key: str(v) for key, v in settings.items()},
                                            "rules": ["90", "30"]}, []),
                               ("flags", {}, flags)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"{name}-out.json"
        assert main(["table1", "--config", str(cfg), *argv, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("command, config, key", [
    ("or-demo", {"detla": 0.1}, "detla"),
    ("table1", {"rules": [30], "run": 2}, "run"),
    ("lattice", {"config": "other.json"}, "config"),
    ("analyze", {"input": "x.csv", "destination": "d", "sources": "s", "delta": 0.1}, "delta"),
])
def test_config_keys_must_be_settings(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"synpid: error: config key {key!r} is not a setting "
                                   f"of {command} (settings: seed, ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_a_seed_in_the_config_is_a_setting_of_every_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "sources": 2}))
    assert main(["lattice", "--config", str(cfg)]) == 0


def test_ca_run_without_out_fails_before_it_simulates(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.eca, "run_batch", lambda *args: calls.append(args))
    assert main(["ca-run", "--rule", "110"]) == 1
    assert capsys.readouterr().err == ("synpid: error: missing required setting 'out' "
                                       "(flag or config)\n")
    assert calls == []


def test_only_commands_that_draw_grids_read_synpid_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYNPID_SEED", "abc")
    series = tmp_path / "series.csv"
    write_csv(series, {"d": [0, 1, 1, 0, 1, 0], "u": [1, 1, 0, 0, 1, 0]})
    for argv in (["or-demo"],
                 ["analyze", "--input", str(series), "--destination", "d", "--sources", "u"],
                 ["lattice", "--sources", "2"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    for argv in (["ca-run", "--rule", "30"], ["table1"], ["profile", "--rule", "54"]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1, argv
        assert capsys.readouterr().err == (
            "synpid: error: SYNPID_SEED must be an integer, got 'abc'\n")
    assert not (tmp_path / "out").exists()
