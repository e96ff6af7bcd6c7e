"""Every source file parses as Python 3.10, the oldest version the package
supports, so 3.11-only syntax is caught on any interpreter, every name a
package module exports resolves, and so does every function the benchmark's
tracer wraps."""

import ast
import importlib
import os
import subprocess
import sys
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


MODULES = sorted(p.stem for p in (ROOT / "src" / "gossipsim").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    """Every name in a module's `__all__` is defined, so a removed type or
    function cannot leave a stale export behind. (`cli` exports nothing.)"""
    module = importlib.import_module("gossipsim" if name == "__init__" else f"gossipsim.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# Installs the benchmark tracer's hooks on the package, as a traced run does,
# and fails if any of them names a function the package no longer has.
TRACER_HOOKS = """
from gossipsim import cli, dynamics, montecarlo, theory
from tracer import Recorder, install
rec = Recorder()
install(rec, cli, montecarlo, theory, dynamics)
assert rec.unwrapped == [], rec.unwrapped
"""


def test_benchmark_tracer_hooks_resolve():
    """Every hook of `perfbench/tracer.py` finds its function: a renamed one
    would leave its layer reading 0 in every traced run."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", TRACER_HOOKS], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
