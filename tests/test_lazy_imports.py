"""Each command imports only the layers it runs; the package exports lazily.

The import probes run in a fresh interpreter started with ``-S``, so that
the modules ``site`` imports (a ``.pth`` file may import ``random``) stay
out of the count, and report what a command added to ``sys.modules``.
"""

import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qbounds

SRC = Path(__file__).resolve().parents[1] / "src"
FIVE_QUBIT = SRC / "qbounds" / "fixtures" / "five_qubit.code"

# modules only `analyze` (gf4) or `selftest` (the suite, random) need, and
# csv, which only a `curves --classical-bound` table needs
NOT_LOADED = ("qbounds.gf4", "qbounds.selftest", "random", "csv")
# no command loads these: the package's records are NamedTuples and plain
# classes, and importing dataclasses would pull in inspect, ast, dis and tokenize;
# cli reads a canonical command line without argparse, whose parser would load
# gettext and, through its help formatter, shutil
NOT_LOADED_BY_ANY = ("dataclasses", "inspect", "argparse", "gettext", "shutil")
# and the one only `curves` needs
NOT_LOADED_OUTSIDE_CURVES = NOT_LOADED + ("qbounds.asymptotic",)

PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
{body}
print(json.dumps({{"status": status, "loaded": sorted(set(sys.modules) - before)}}))
"""
RUN_COMMAND = """
from qbounds.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
"""


def probe(body, *argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(body=body), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_qbounds_loads_no_layer():
    report = probe("import qbounds\nstatus = qbounds.__version__")
    assert report["status"] == "0.1.0"
    assert [m for m in report["loaded"] if m.startswith("qbounds.")] == []


# check, table, lp and selftest alone run bounds
LOADS_BOUNDS = {"qbounds.bounds", "qbounds.cli"}
# the commands that parse or print a rational K load fractions too; curves
# forms no Fraction
LOADS_FRACTIONS = LOADS_BOUNDS | {"fractions"}
NOT_LOADED_BY_CURVES = ("qbounds.bounds", "fractions", "decimal") + NOT_LOADED


@pytest.mark.parametrize("argv, loaded, unused", [
    pytest.param(
        ("check", "--n", "6", "--k", "1", "--d", "3", "--bounds", "singleton,hamming,levenshtein,lp"),
        LOADS_FRACTIONS, NOT_LOADED_OUTSIDE_CURVES, id="check"),
    pytest.param(
        ("table", "--n-max", "6", "--d-max", "3", "--bounds", "singleton,hamming,levenshtein,lp"),
        LOADS_BOUNDS, NOT_LOADED_OUTSIDE_CURVES, id="table"),
    pytest.param(("lp", "--n", "6", "--K", "2", "--d", "3"), LOADS_FRACTIONS,
                 NOT_LOADED_OUTSIDE_CURVES, id="lp"),
    pytest.param(("curves", "--id", "fig2", "--kappa1", "0.2", "--samples", "5"),
                 {"qbounds.asymptotic", "qbounds.cli"}, NOT_LOADED_BY_CURVES, id="curves"),
])
def test_command_leaves_unused_layers_unloaded(argv, loaded, unused):
    report = probe(RUN_COMMAND, *argv)
    assert report["status"] == 0
    assert loaded <= set(report["loaded"])
    assert [m for m in unused + NOT_LOADED_BY_ANY if m in report["loaded"]] == []


def test_analyze_loads_gf4():
    report = probe(RUN_COMMAND, "analyze", str(FIVE_QUBIT))
    assert report["status"] == 0 and "qbounds.gf4" in report["loaded"]
    # bounds, every module of NOT_LOADED_OUTSIDE_CURVES but gf4, and the
    # modules only a count split across a forked child needs
    unused = ("qbounds.bounds",) + NOT_LOADED_OUTSIDE_CURVES[1:] + ("mmap", "signal", "array")
    assert [m for m in unused + NOT_LOADED_BY_ANY if m in report["loaded"]] == []


def test_split_count_forks_without_warnings_or_pools(tmp_path):
    """analyze of a code whose dual rank reaches gf4.PARALLEL_RANK, under -W error."""
    from qbounds import gf4

    n = (gf4.PARALLEL_RANK + 3) // 2
    code = gf4.random_self_orthogonal_code(n, 2, random.Random(24))
    assert code.dual.rank >= gf4.PARALLEL_RANK
    path = tmp_path / "split.code"
    path.write_text(gf4.format_code(code), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # counts the forks this process makes (a child leaves with os._exit, reporting none)
    body = "import os\nforks = []\nreal_fork = os.fork\n"
    body += "os.fork = lambda: forks.append(1) or real_fork()\n" + RUN_COMMAND
    body += "status = [status, len(forks)]\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-c", PROBE.format(body=body), "analyze", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads(proc.stdout)
    status, forks = report["status"]
    assert status == 0
    # the dual, of rank 16, is the one count at or above PARALLEL_RANK
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert forks == ((cpus or 1) > 1)
    assert [m for m in ("multiprocessing", "concurrent.futures") if m in report["loaded"]] == []


def test_selftest_passes_from_a_fresh_interpreter():
    report = probe(RUN_COMMAND, "selftest")
    assert report["status"] == 0
    assert {"qbounds.selftest", "qbounds.bounds"} <= set(report["loaded"])
    assert [m for m in NOT_LOADED_BY_ANY if m in report["loaded"]] == []


@pytest.mark.parametrize("argv, status", [
    (("--help",), 0),
    (("lp", "--help"), 0),
    (("lp", "--n=6", "--K", "2"), 2),
], ids=["help", "lp-help", "refused"])
def test_other_command_lines_still_go_through_argparse(argv, status):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "qbounds.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == status
    if status == 0:
        assert proc.stdout.startswith("usage: qbounds") and proc.stderr == ""
    else:
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
        assert proc.stderr == "error: qbounds lp: the following arguments are required: --d\n"


def test_every_export_is_its_defining_module_object():
    for name in qbounds.__all__:
        value = getattr(qbounds, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"qbounds.{name}"]
        else:
            assert value.__module__.startswith("qbounds.")
            assert value is getattr(sys.modules[value.__module__], name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from qbounds import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(qbounds.__all__)
    assert len(qbounds.__all__) == 57
    assert set(qbounds.__all__) <= set(dir(qbounds))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qbounds.no_such_name
