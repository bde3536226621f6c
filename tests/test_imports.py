"""Every name a module of the package imports is used in that module, every
module imports only the standard library and the package itself, every
private function or method the package defines is read in it, no module
imports dataclasses, and only diffops reads an operator's raw terms. No test
module imports another, and the test modules read every name that
tests/oracle.py defines. The CI workflow installs the test extra of
pyproject.toml.

__init__.py is left out of the import check: it imports names only to
re-export them.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cartier"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = ROOT / "tests"
TEST_MODULES = sorted(TESTS.glob("test_*.py"))


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


def imported_modules(source: str) -> set:
    """The top-level package of every absolute import in source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def foreign_imports(source: str) -> list:
    """The modules that source imports absolutely from outside the standard
    library and the package, sorted."""
    return sorted(imported_modules(source) - set(sys.stdlib_module_names) - {"cartier"})


def test_the_check_sees_a_third_party_import():
    source = (
        "import os.path\nimport numpy.linalg\nfrom click import echo\n"
        "from . import rings\nfrom cartier.series import TruncSeries\n"
    )
    assert foreign_imports(source) == ["click", "numpy"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    """The program has no runtime dependency: click, pytest and hypothesis
    are the test extra's."""
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_dataclasses_import():
    source = "import os.path\nfrom dataclasses import field\nfrom . import rings\n"
    assert imported_modules(source) == {"os", "dataclasses"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_does_not_import_dataclasses(path):
    """The records are built by rings.record: @dataclass would generate and
    exec their methods at every import of the package."""
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


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


def attribute_readers(sources: dict, attr: str) -> list:
    """The names of the sources (name -> source) that read attr off any
    value, sorted."""
    return sorted(
        name
        for name, source in sources.items()
        if any(
            isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load)
            for node in ast.walk(ast.parse(source))
        )
    )


def test_the_check_sees_an_attribute_read():
    sources = {"a.py": "x.raw_terms = 1\n", "b.py": "f(op.raw_terms)\n", "c.py": "raw_terms = 2\n"}
    assert attribute_readers(sources, "raw_terms") == ["b.py"]


def test_only_diffops_reads_the_raw_terms():
    """Every other module reads an operator through its polynomial form."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert attribute_readers(sources, "raw_terms") == ["diffops.py"]


def imported_test_modules(source: str) -> list:
    """The test modules (test_*) that source imports, sorted."""
    return sorted(m for m in imported_modules(source) if m.startswith("test_"))


def test_the_check_sees_a_test_module_import():
    source = "import oracle\nfrom test_series import f\nimport test_diffops.x\nfrom testing import y\n"
    assert imported_test_modules(source) == ["test_diffops", "test_series"]


def test_no_test_module_imports_another():
    """What more than one test module uses lives in tests/oracle.py."""
    found = {p.name: imported_test_modules(p.read_text(encoding="utf-8")) for p in TEST_MODULES}
    assert {name: modules for name, modules in found.items() if modules} == {}


def read_names(tree) -> set:
    """The names that tree reads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unreached_definitions(module: str, readers) -> list:
    """The top-level names that module defines and no reader reaches, sorted.
    A name is reached when a reader reads it, or when the definition of a
    reached name does."""
    reads = {}
    for node in ast.parse(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            reads[node.name] = read_names(node)
        elif isinstance(node, ast.Assign):
            reads.update((t.id, read_names(node)) for t in node.targets if isinstance(t, ast.Name))
    todo = [name for source in readers for name in read_names(ast.parse(source)) if name in reads]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for n in reads[name] if n in reads]
    return sorted(set(reads) - reached)


def test_the_check_sees_an_unreached_definition():
    module = (
        "A = 1\n\ndef used():\n    return helper()\n\ndef helper():\n    pass\n\n"
        "def orphan():\n    return A\n"
    )
    readers = ["from oracle import used\nused()\n"]
    assert unreached_definitions(module, readers) == ["A", "orphan"]


def test_the_test_modules_read_every_oracle_name():
    """A helper of the oracle counts through the references that read it."""
    readers = [path.read_text(encoding="utf-8") for path in TEST_MODULES]
    assert unreached_definitions((TESTS / "oracle.py").read_text(encoding="utf-8"), readers) == []


def quoted(text: str) -> list:
    """The double-quoted strings of text, sorted."""
    return sorted(re.findall(r'"([^"]*)"', text))


def test_ci_installs_the_test_extra():
    """The workflow's pip install line names exactly pyproject's test extra.
    Read with regexes: the workflow runs Pythons without tomllib."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (extra,) = re.findall(r"^test = \[(.*)\]$", pyproject, re.MULTILINE)
    (install,) = re.findall(r"^\s*run: python -m pip install (.*)$", workflow, re.MULTILINE)
    assert quoted(extra) and quoted(install) == quoted(extra)
