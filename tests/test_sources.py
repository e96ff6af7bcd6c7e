"""Every source file parses as Python 3.10, the oldest version the package
supports, so 3.11-only syntax is caught on any interpreter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_sources_are_found():
    assert any(p.name == "cli.py" for p in SOURCES)
    assert any(p.parent.name == "perfbench" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
