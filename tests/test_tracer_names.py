"""Every name the benchmark tracer wraps still exists in the package.

``bench/tracer.py`` replaces each (module, attribute) of its ``SPANS``,
``COUNTERS`` and ``GENERATORS`` tables with a wrapper when a benchmark
run asks for ``--trace 1``; a name that a refactor removed would stop that
run with an ``AttributeError`` or a ``KeyError``.  The tracer's source is
read and executed here, not imported, so nothing is written under
``bench/``.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_tables():
    module = types.ModuleType("bench_tracer")
    source = TRACER.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER), "exec"), module.__dict__)
    return {**module.SPANS, **module.COUNTERS, **module.GENERATORS}


TRACED = sorted(_tracer_tables())


@pytest.mark.parametrize("module_name, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module_name, attr):
    home = importlib.import_module(f"qbounds.{module_name}")
    if "." in attr:
        # the tracer wraps the method found in the class's own __dict__
        cls_name, method = attr.split(".")
        assert method in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, attr))
