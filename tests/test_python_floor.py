"""The package parses as Python 3.10, the floor ``requires-python`` states."""

import ast
from pathlib import Path


def test_sources_parse_as_python_3_10():
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "qbounds").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
