"""Every name a module of the package imports is used in that module, and
every private function or method the package defines is read in it.

__init__.py is left out of the import check: it imports names only to
re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cartier"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """The names bound by import statements of source that no other node
    reads, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import math\nimport operator\nfrom .rings import _ring_mul, _scale\n_scale(math.pi)\n"
    assert unused_imports(source) == ["operator", "_ring_mul"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_functions(sources) -> list:
    """The private (single-underscore) functions and methods defined in
    sources whose name no name or attribute read in any of them mentions,
    sorted. Names are matched without their scope, so a name read anywhere
    counts for every definition of it."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


def test_the_check_sees_an_unread_private_function():
    sources = [
        "def _used():\n    pass\n\ndef _orphan():\n    pass\n\ndef __dunder__():\n    pass\n",
        "class A:\n    def _method(self):\n        return _used()\n\n    def _dead(self):\n        pass\n",
        "A()._method()\n",
    ]
    assert unread_private_functions(sources) == ["_dead", "_orphan"]


def test_package_reads_every_private_function():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unread_private_functions(sources) == []
