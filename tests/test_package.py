"""The package root's lazy exports, the modules and BLAS threads of the CLI
process, results that do not depend on the BLAS thread count, and the CLI's
text files under an ASCII locale."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import synpid

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_python(code, *args, **env):
    """Run ``code`` with ``args`` in a fresh interpreter whose environment has
    none of the BLAS thread variables except those in ``env``; return its
    stdout split into words."""
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    proc = subprocess.run([sys.executable, "-c", code, *args], env={**child_env, **env},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_every_export_resolves():
    assert len(synpid.__all__) == 14
    for name in synpid.__all__:
        assert getattr(synpid, name).__name__ == name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from synpid import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(synpid.__all__)
    assert set(synpid.__all__) <= set(dir(synpid))
    assert "__version__" in dir(synpid)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        synpid.no_such_name
    with pytest.raises(ImportError):
        exec("from synpid import no_such_name", {})


def test_import_loads_no_numpy_and_sets_no_blas_variable():
    code = ("import os, sys, synpid; print('numpy' in sys.modules); "
            "from synpid import *; print('OPENBLAS_NUM_THREADS' in os.environ)")
    assert fresh_python(code) == ["False", "False"]


# eca draws the initial rows itself, so no command loads numpy.random, nor
# the secrets and hashlib (OpenSSL) modules that numpy.random imports.
DRAW_MODULES = """
import sys, synpid.cli
out = sys.argv[1]
for argv in (["ca-run", "--rule", "30", "--width", "8", "--steps", "6", "--out", out + "/grid"],
             ["table1", "--rules", "30,54", "--runs", "2", "--width", "16", "--steps", "20",
              "--k", "2", "--out", out + "/table1.json"],
             ["profile", "--rule", "54", "--runs", "2", "--width", "16", "--steps", "20",
              "--k", "2", "--out", out + "/profile"]):
    assert synpid.cli.main(argv) == 0, argv
print(*(name in sys.modules for name in ("numpy.random", "secrets", "hashlib")))
"""


def test_cli_commands_load_no_random_module(tmp_path):
    assert fresh_python(DRAW_MODULES, str(tmp_path))[-3:] == ["False", "False", "False"]


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads in /proc/self/task")
THREADS = ("import os; "
           "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")


def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@needs_proc
def test_cli_process_runs_one_thread():
    assert fresh_python("import synpid.cli; " + THREADS) == ["1", "1"]


def numpy_starts_blas_workers_on_import():
    """Whether numpy reports an OpenBLAS build without OpenMP, whose workers
    start when numpy loads. numpy before 1.25 reports no build as a dict."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in blas.get("name", "")
            and "USE_OPENMP" not in blas.get("openblas configuration", ""))


@needs_proc
@pytest.mark.skipif(usable_cpus() < 2, reason="OpenBLAS starts no worker on one CPU")
@pytest.mark.skipif(not numpy_starts_blas_workers_on_import(),
                    reason="numpy's BLAS is not a pthreads OpenBLAS build")
def test_plain_numpy_process_runs_blas_workers():
    # The control for the test above: on a machine with more than 1 CPU,
    # numpy's OpenBLAS starts a worker thread per extra CPU when it loads.
    code = "import numpy, os; print(len(os.listdir('/proc/self/task')))"
    assert int(fresh_python(code)[0]) > 1


@needs_proc
def test_cli_keeps_the_callers_thread_count():
    cli = fresh_python("import synpid.cli; " + THREADS, OPENBLAS_NUM_THREADS="2")
    numpy = fresh_python("import numpy; " + THREADS, OPENBLAS_NUM_THREADS="2")
    assert cli == numpy
    assert cli[1] == "2"


# OpenBLAS splits a float dot product longer than 10,000 elements over its
# threads (one per CPU at most), which moves the last bits of the sum. These
# inputs have 4 * 4**3 * 4**3 = 16,384 possible states.
needs_two_cpus = pytest.mark.skipif(usable_cpus() < 2,
                                    reason="OpenBLAS runs one thread on one CPU")
AVG_MI = """
import numpy as np
from synpid.distributions import VariableSpec, _count_codes, avg_mi
spec = (VariableSpec("x", 4, "destination-next"), VariableSpec("h", 64), VariableSpec("s", 64))
samples = np.random.default_rng(0).integers(0, [4, 64, 64], size=(60_000, 3))
dist = _count_codes(spec, samples @ np.array([1, 4, 4 * 64]))
assert len(dist) > 10_000
print(avg_mi(dist, (0,), (2,), (1,)).hex())
"""


@needs_two_cpus
def test_avg_mi_bits_ignore_the_blas_thread_count():
    one = fresh_python(AVG_MI, OPENBLAS_NUM_THREADS="1")
    assert one == fresh_python(AVG_MI, OPENBLAS_NUM_THREADS="2")


# 12,000 destination outcomes, nearly all observed, so i_min's final sum
# over them has more than 10,000 terms.
I_MIN = """
import numpy as np
from synpid.distributions import VariableSpec, _count_codes
from synpid.pid import i_min
spec = (VariableSpec("x", 12_000, "destination-next"), VariableSpec("a", 4), VariableSpec("b", 4))
samples = np.random.default_rng(0).integers(0, [12_000, 4, 4], size=(60_000, 3))
dist = _count_codes(spec, samples @ np.array([1, 12_000, 12_000 * 4]))
assert len(dist.marginal_counts((0,))) > 10_000
print(i_min(dist, [{1}, {2}]).hex())
"""


@needs_two_cpus
def test_i_min_bits_ignore_the_blas_thread_count():
    one = fresh_python(I_MIN, OPENBLAS_NUM_THREADS="1")
    assert one == fresh_python(I_MIN, OPENBLAS_NUM_THREADS="2")


@needs_two_cpus
def test_cli_report_bytes_ignore_the_blas_thread_count(tmp_path):
    data = np.random.default_rng(0).integers(0, 4, size=(60_000, 4))
    path = tmp_path / "series.csv"
    np.savetxt(path, data, fmt="%d", delimiter=",", header="d,s1,s2,s3", comments="")
    code = ("import sys, synpid.cli; sys.exit(synpid.cli.main(['analyze', '--input', sys.argv[1], "
            "'--destination', 'd', '--sources', 's1,s2,s3', '--k', '3']))")
    unset = fresh_python(code, str(path))
    assert unset == fresh_python(code, str(path), OPENBLAS_NUM_THREADS="1")
    assert unset == fresh_python(code, str(path), OPENBLAS_NUM_THREADS="2")


def test_cli_text_files_are_utf8_under_an_ascii_locale(tmp_path):
    # Under the C locale without UTF-8 mode, open() with no encoding reads and
    # writes ASCII; every text file the CLI opens names UTF-8 instead.
    csv_path, cfg = tmp_path / "in.csv", tmp_path / "cfg.json"
    csv_path.write_bytes("dé,u\n0,1\n1,0\n1,1\n0,0\n1,1\n0,1\n".encode())
    cfg.write_bytes('{"destination": "dé", "sources": "u"}'.encode())
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    for argv in (["analyze", "--input", str(csv_path), "--config", str(cfg),
                  "--out", str(tmp_path / "report.json")],
                 ["ca-run", "--rule", "30", "--width", "8", "--steps", "6",
                  "--out", str(tmp_path / "grid")],
                 ["lattice", "--sources", "2", "--out", str(tmp_path / "lattice.json")]):
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "synpid.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
    report = json.loads((tmp_path / "report.json").read_bytes())
    assert report["alphabets"] == {"dé": [0, 1], "u": [1, 0]}
