"""The runtime has no dependencies: pyproject.toml declares none, and the
package imports only the standard library and its own modules.  No module
of the package or of the tests imports a name it never uses, every name
the package defines is read somewhere in it, bar a listed few, and every
cross-reference in its docstrings names something that exists."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "flowner").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


# Generating dataclass methods cost about a third of the CLI's start-up.
def test_no_module_imports_dataclasses():
    assert [path.name for path in SOURCES
            if any(name.partition(".")[0] == "dataclasses" for name in _absolute_imports(path))
            ] == []


# ``statistics`` brings ``fractions`` and ``decimal``; only ``report`` needs it.
def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import flowner.cli; "
            "print(sorted({'dataclasses', 'inspect', 'statistics'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["[]"]


def test_the_import_walk_sees_every_module():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "model.py"}
    assert "collections" in set(_absolute_imports(ROOT / "src" / "flowner" / "model.py"))


def _unused_imports(path):
    """The names that ``path`` imports and never reads as a ``Name``."""
    tree = ast.parse(path.read_text("utf-8"), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


# The package's __init__ imports names to export them.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"] + TESTS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_a_module_uses_every_name_it_imports(path):
    assert _unused_imports(path) == []


def test_the_unused_import_walk_finds_an_unused_name(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\nimport os.path\n"
                    "import json as j\nfrom typing import Any, Optional\n"
                    "x: Optional[int] = os.sep\n", encoding="utf-8")
    assert _unused_imports(path) == ["Any", "j"]


def _module_names(tree):
    """The names a module defines at its top level, and each method of its
    classes as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name
            yield from (f"{node.name}.{m.name}" for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _unread_names(paths, wanted):
    """``module.name`` for each name of ``paths`` (see :func:`_module_names`)
    that ``wanted`` selects and that no module of ``paths`` reads, as a name or
    as an attribute.  A read ``C.m`` or ``module.C.m``, where ``C`` is a class
    of ``paths``, reads the method ``C.m`` only; any other attribute read
    ``.m`` reads the method ``m`` of every class.  An import is no read, so a
    re-export in ``__init__`` is none."""
    trees = {path: ast.parse(path.read_text("utf-8"), str(path)) for path in paths}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                owner = node.value
                owner = (owner.id if isinstance(owner, ast.Name)
                         else owner.attr if isinstance(owner, ast.Attribute) else None)
                read.add(f"{owner}.{node.attr}" if owner in classes else node.attr)
    return sorted(f"{path.stem}.{name}" for path, tree in trees.items()
                  for name in _module_names(tree)
                  if wanted(name) and not {name, name.rpartition(".")[2]} & read)


def _unread_private_names(paths):
    """Each top-level ``_name`` of ``paths``, dunders aside, that nothing reads."""
    return _unread_names(paths, lambda n: n.startswith("_") and "." not in n
                         and not (n.startswith("__") and n.endswith("__")))


def test_every_private_helper_of_the_package_has_a_reader():
    assert _unread_private_names(SOURCES) == []


def test_the_private_name_walk_finds_a_helper_without_a_reader(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("__all__ = []\n_LIMIT: int = 3\n_x, _y = 1, 2\n"
                 "def _used():\n    return _LIMIT + _x\n"
                 "def _dead():\n    return _used()\nclass _Gone:\n    pass\n"
                 "def _seen_by_b():\n    pass\n", encoding="utf-8")
    b.write_text("import a\na._seen_by_b()\n", encoding="utf-8")
    assert _unread_private_names([a, b]) == ["a._Gone", "a._dead", "a._y"]


def _unread_public_names(paths):
    """Each public top-level name and public method of ``paths`` that
    nothing reads."""
    return _unread_names(paths, lambda n: not n.rpartition(".")[2].startswith("_"))


# Public names that only readers outside the package read, each with its reason.
UNREAD_PUBLIC_NAMES = {
    "schema.SOFTCITE_QUALIFIERS": "read by benchmarks/test_bench_workloads.py",
    "schema.SchemaDef.category_members": "kept for the per-category report rows (ROADMAP)",
    "experiment.SplitManifest.from_json_dict": "first reader: `eval --split` (ROADMAP item 2)",
}


def test_every_public_name_of_the_package_has_a_reader():
    assert _unread_public_names(SOURCES) == sorted(UNREAD_PUBLIC_NAMES)


def _traced_names(path):
    """``module.qualname`` of each ``(module, qualname, counter)`` entry of
    the ``TARGETS`` list in ``path``, read with ``ast``, not imported."""
    for node in ast.parse(path.read_text("utf-8"), str(path)).body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return [f"{entry.elts[0].value}.{entry.elts[1].value}" for entry in node.value.elts]
    raise LookupError(f"no TARGETS list in {path}")


def test_every_name_the_benchmark_traces_has_a_reader_in_the_package():
    """A traced name that the package never calls reads 0 in every traced
    run.  The walk keys a method read through an instance by its name, not
    its owner, so it cannot see that ``Gazetteer.to_json_dict`` has no
    caller: other classes' ``to_json_dict`` are read."""
    traced = _traced_names(ROOT / "benchmarks" / "spans.py")
    assert "evaluation.match_document" in traced and "stats.tokenize" in traced
    assert sorted(set(traced) & set(_unread_public_names(SOURCES))) == []


def test_the_public_name_walk_finds_a_name_without_a_reader(tmp_path):
    init, a, b = tmp_path / "__init__.py", tmp_path / "a.py", tmp_path / "b.py"
    init.write_text("from .a import Gone, dead\n__version__ = '1'\n", encoding="utf-8")
    a.write_text("LIMIT: int = 3\nX, Y = 1, 2\n"
                 "def used():\n    return LIMIT + X\n"
                 "def dead():\n    return used()\nclass Gone:\n    pass\n"
                 "class Kept:\n    def read(self):\n        pass\n"
                 "    def unread(self):\n        pass\n    def _private(self):\n        pass\n"
                 "class A:\n    def load(self):\n        pass\n"
                 "class B:\n    def load(self):\n        pass\n"
                 "def seen_by_b():\n    return Kept().read()\n", encoding="utf-8")
    b.write_text("import a\nfrom a import A\na.seen_by_b()\nA.load(a.B())\na.A.load(None)\n",
                 encoding="utf-8")
    assert _unread_public_names([init, a, b]) == ["a.B.load", "a.Gone", "a.Kept.unread",
                                                  "a.Y", "a.dead"]


def _key_differences(paths):
    """``module.name`` for each ``….keys() - …`` set difference in
    ``paths``, ``name`` being the dotted path of its innermost enclosing
    function or class, and absent at the top level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Sub) and \
                    isinstance(child.left, ast.Call) and \
                    isinstance(child.left.func, ast.Attribute) and child.left.func.attr == "keys":
                found.append(where)
            visit(child, where)

    for path in paths:
        visit(ast.parse(path.read_text("utf-8"), str(path)), path.stem)
    return sorted(found)


# The key policy of every JSON record lives in one place.
def test_check_fields_holds_the_one_key_difference_of_the_package():
    assert _key_differences(SOURCES) == ["corpus_io.check_fields"]


def test_the_key_difference_walk_finds_each_one(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("TOP = {}.keys() - {'x'}\n"
                 "def f(d):\n    return sorted(d.keys() - {'a'})\n"
                 "class C:\n    def m(self, d):\n"
                 "        return [k for k in (d.keys() - set()) - {'b'}]\n"
                 "def g(d):\n    return set(d) - {'a'}, d.keys() & {'a'}, d.values() - 1, "
                 "len(d) - 1, {'a'} - d.keys()\n", encoding="utf-8")
    assert _key_differences([a]) == ["a", "a.C.m", "a.f"]


_REFERENCE = re.compile(r":(class|func|meth|attr|mod):`([^`]+)`")
_MISSING = object()


def _docstrings(node, owner=""):
    """``(docstring, owner)`` for each docstring under ``node``, where
    ``owner`` is the dotted path of its innermost enclosing class, or ""."""
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        doc = ast.get_docstring(node, clean=False)
        if doc:
            yield doc, owner
    for child in ast.iter_child_nodes(node):
        inner = f"{owner}.{child.name}".lstrip(".") if isinstance(child, ast.ClassDef) else owner
        yield from _docstrings(child, inner)


def _lookup(scope, dotted: str):
    for part in dotted.split("."):
        scope = getattr(scope, part, _MISSING)
    return scope


def _resolves(role: str, text: str, module, owner: str, package: str) -> bool:
    """Whether ``:role:`text``` names something: a ``:mod:`` by importing
    it, any other against the enclosing class ``owner``, the module, the
    package, or, dotted from the package's name, anywhere in it."""
    target = text.rpartition("<")[2].rstrip(">") if text.endswith(">") else text
    target = target.strip().lstrip("~")
    if role == "mod":
        try:
            importlib.import_module(target)
        except ImportError:
            return False
        return True
    root = sys.modules[package]
    scopes = [module, root, SimpleNamespace(**{package: root})]
    if owner:
        scopes.insert(0, _lookup(module, owner))
    return any(_lookup(scope, target) is not _MISSING for scope in scopes)


def _unresolved_references(paths, package: str):
    """``module: :role:`text``` for each docstring cross-reference of
    ``paths``, the modules of ``package``, that names nothing."""
    modules = {path: importlib.import_module(
        package if path.stem == "__init__" else f"{package}.{path.stem}") for path in paths}
    return [f"{path.stem}: {match.group(0)}"
            for path, module in modules.items()
            for doc, owner in _docstrings(ast.parse(path.read_text("utf-8"), str(path)))
            for match in _REFERENCE.finditer(doc)
            if not _resolves(match.group(1), match.group(2), module, owner, package)]


def test_every_docstring_cross_reference_resolves():
    assert _unresolved_references(SOURCES, "flowner") == []


def test_the_cross_reference_walk_finds_a_dangling_reference(tmp_path, monkeypatch):
    package = tmp_path / "xrefpkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        '"""Exports :func:`a.used` and :mod:`xrefpkg.a`; not :mod:`xrefpkg.gone`."""\n'
        "from .a import used\n", encoding="utf-8")
    (package / "a.py").write_text(
        '"""See :class:`Kept`, :meth:`Kept.read`, :func:`used` and\n'
        ':func:`name\n    <xrefpkg.a.used>`, but not :func:`~xrefpkg.a.lost`."""\n'
        "class Kept:\n"
        '    """:meth:`read`, :attr:`LIMIT` and :class:`Kept`; not :meth:`write`."""\n'
        "    LIMIT = 3\n"
        "    def read(self):\n"
        '        """Like :func:`used`, not :func:`unused`."""\n'
        "def used():\n    pass\n", encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        assert _unresolved_references(sorted(package.glob("*.py")), "xrefpkg") == [
            "__init__: :mod:`xrefpkg.gone`", "a: :func:`~xrefpkg.a.lost`",
            "a: :meth:`write`", "a: :func:`unused`"]
    finally:
        for name in [n for n in sys.modules if n.partition(".")[0] == "xrefpkg"]:
            del sys.modules[name]
