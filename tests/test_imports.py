"""Every imported name is read, and so is every private module-level name
of the package: AST scans of the package and its tests.

No linter ships with the toolchain, so a deletion that leaves its import or
its helper behind is caught here.  A name listed in a module's `__all__`
counts as read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "invset").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import in `source` and never read (sorted)."""
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
    assert unused_imports("import a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == [], f"{path.relative_to(ROOT)} imports names it never reads"


def unread_private_names(sources: dict) -> list:
    """'module: name' for each module-level `_name` bound in one of `sources`
    (module name -> source) and read in none of them (sorted)."""
    bound = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                names = []
            bound += [(module, name) for name in names if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}: {name}" for module, name in bound if name not in read)


def test_scan_sees_an_unread_private_name():
    sources = {
        "a": "_X = 1\n(_Y, _Z) = range(2)\ndef _f():\n    return _Y\n__all__ = []\n",
        "b": "from a import _Z\nprint(_Z, a._X)\n",
    }
    assert unread_private_names(sources) == ["a: _f"]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert unread_private_names(sources) == [], "private module-level names that nothing reads"
