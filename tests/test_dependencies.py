"""The runtime has no dependencies: pyproject.toml declares none, and the
package imports only the standard library and its own modules."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "flowner").glob("*.py"))


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_a_module_imports_only_the_standard_library_and_the_package(path):
    outside = sorted({name for name in _absolute_imports(path)
                      if name.partition(".")[0] not in sys.stdlib_module_names})
    assert outside == []


def test_the_import_walk_sees_every_module():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "model.py"}
    assert "collections" in set(_absolute_imports(ROOT / "src" / "flowner" / "model.py"))
