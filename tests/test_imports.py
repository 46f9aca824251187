"""Hygiene: no module of the package or of the tests imports a name it
never reads, no private definition of the package is dead, and every
name a package module lists in ``__all__`` exists on it.

The first check is an ``ast`` scan, so nothing is imported: every name
bound by an ``import`` or ``from ... import`` statement must be read
somewhere in its module, as a name, as the base of an attribute, in an
annotation (a quoted one too) or through the module's ``__all__``.  The
package's ``__init__.py`` only re-exports, so its imports are exempt.
The second is an ``ast`` scan too: every function, class or constant
that a package module defines at module level under a ``_`` name must
be read somewhere in the package, as a name, as an attribute or by a
``from ... import``.  Reads from the tests do not count.  The third
imports each package module, since a stale ``__all__`` entry otherwise
fails only on ``from thadc.<module> import *``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def modules() -> list[Path]:
    return sorted([*(ROOT / "src" / "thadc").glob("*.py"),
                   *(ROOT / "tests").glob("*.py")])


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds -> the line of its first binding."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations and ``__all__``
    included."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            if (isinstance(annotation, ast.Constant)
                    and isinstance(annotation.value, str)):
                read |= read_names(ast.parse(annotation.value))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            read |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return read


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = read_names(tree)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported_names(tree).items()
            if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    unused = [entry for path in modules() if path.name != "__init__.py"
              for entry in unused_imports(path)]
    assert unused == []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each ``_`` name (not a dunder) that a module-level ``def``,
    ``class`` or assignment binds -> the line of its first binding."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            bound = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names.setdefault(name, node.lineno)
    return names


def dead_private_definitions(paths: list[Path]) -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in paths}
    read: set[str] = set()
    for tree in trees.values():
        read |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{path.name}:{line}: {name}" for path, tree in trees.items()
            for name, line in private_definitions(tree).items()
            if name not in read]


def test_every_private_definition_is_read_in_the_package():
    package = sorted((ROOT / "src" / "thadc").glob("*.py"))
    assert dead_private_definitions(package) == []


def test_the_scan_sees_a_dead_private_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n"
        "_SHARED = 1\n_DEAD = 2\n__dunder__ = 3\npublic = 4\n"
        "_X, _Y = 5, 6\n_HINTED: int = 7\n"
        "def _dead(): pass\n"
        "def _called(): return _X\n"
        "class _Dead: pass\n"
        "class _Named: pass\n"
        "def run(x: '_Named'): return _called() + os.sep.count(x)\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "import a\nfrom a import _SHARED\nprint(_SHARED, a._HINTED)\n",
        encoding="utf-8")
    assert dead_private_definitions(
        [tmp_path / "a.py", tmp_path / "b.py"]) == [
        "a.py:3: _DEAD", "a.py:6: _Y", "a.py:8: _dead", "a.py:10: _Dead"]


PACKAGE = sorted(path.stem for path in (ROOT / "src" / "thadc").glob("*.py"))


@pytest.mark.parametrize("stem", PACKAGE)
def test_every_name_in_all_resolves(stem):
    name = "thadc" if stem == "__init__" else f"thadc.{stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what it does not define"


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport sys as system\nfrom typing import Optional, List\n"
        "__all__ = ['List']\n"
        "def f(x: 'Optional[int]') -> None:\n    return system.argv\n",
        encoding="utf-8")
    tree = ast.parse(module.read_text(encoding="utf-8"))
    read = read_names(tree)
    assert [n for n in imported_names(tree) if n not in read] == ["os"]
