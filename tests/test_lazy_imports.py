"""Each command imports only the layers it runs; the package exports lazily.

The import probes run in a fresh interpreter started with ``-S``, so that
the modules ``site`` imports (a ``.pth`` file may import ``random``) stay
out of the count, and report what a command added to ``sys.modules``.
"""

import json
import os
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


@pytest.mark.parametrize("argv, unused", [
    pytest.param(
        ("check", "--n", "6", "--k", "1", "--d", "3", "--bounds", "singleton,hamming,levenshtein,lp"),
        NOT_LOADED_OUTSIDE_CURVES, id="check"),
    pytest.param(
        ("table", "--n-max", "6", "--d-max", "3", "--bounds", "singleton,hamming,levenshtein,lp"),
        NOT_LOADED_OUTSIDE_CURVES, id="table"),
    pytest.param(("lp", "--n", "6", "--K", "2", "--d", "3"), NOT_LOADED_OUTSIDE_CURVES, id="lp"),
    pytest.param(("curves", "--id", "fig2", "--kappa1", "0.2", "--samples", "5"), NOT_LOADED,
                 id="curves"),
])
def test_command_leaves_unused_layers_unloaded(argv, unused):
    report = probe(RUN_COMMAND, *argv)
    assert report["status"] == 0
    assert {"qbounds.bounds", "qbounds.cli"} <= set(report["loaded"])
    assert [m for m in unused if m in report["loaded"]] == []


def test_analyze_loads_gf4():
    report = probe(RUN_COMMAND, "analyze", str(FIVE_QUBIT))
    assert report["status"] == 0 and "qbounds.gf4" in report["loaded"]
    # every module of NOT_LOADED_OUTSIDE_CURVES but gf4
    assert [m for m in NOT_LOADED_OUTSIDE_CURVES[1:] if m in report["loaded"]] == []


def test_selftest_passes_from_a_fresh_interpreter():
    report = probe(RUN_COMMAND, "selftest")
    assert report["status"] == 0 and "qbounds.selftest" in report["loaded"]


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
