"""Hygiene: no module of the package or of the tests imports a name it
never reads, and every name a package module lists in ``__all__``
exists on it.

The first check is an ``ast`` scan, so nothing is imported: every name
bound by an ``import`` or ``from ... import`` statement must be read
somewhere in its module, as a name, as the base of an attribute, in an
annotation (a quoted one too) or through the module's ``__all__``.  The
package's ``__init__.py`` only re-exports, so its imports are exempt.
The second imports each package module, since a stale ``__all__`` entry
otherwise fails only on ``from thadc.<module> import *``.
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
