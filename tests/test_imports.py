"""Every name a module imports is read somewhere in that module, and every
upper-case module constant and annotated class field of the package is
read by some package module."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "engelfit"
MODULES = sorted([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
                 + list(TESTS.glob("*.py")))
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in `source` that no expression
    reads, in order of first import; ``from __future__`` is ignored."""
    tree = ast.parse(source)
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [name for name in dict.fromkeys(imported) if name not in read]


def test_unused_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom re import match, sub\n"
              "sub(os.path.sep, '', 'x')\n")
    assert unused_imports(source) == ["j", "match"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_constants(sources: dict[str, str]) -> list[str]:
    """``module.NAME`` for each upper-case name bound at the top level of a
    module in `sources` (module name -> source) that no module reads, as a
    name or as an attribute."""
    defined: list[str] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [f"{module}.{t.id}" for t in targets
                        if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name.split(".", 1)[1] not in read]


def test_unread_constants_finds_a_cap_no_module_reads():
    sources = {"a": "CAP = 3\n_TABLE: dict = {}\nLIMIT = 2\nSTALE = 0\nlower = 1\n"
                    "_TABLE[lower] = 1\n",
               "b": "import a\nfrom a import CAP\nprint(CAP, a.LIMIT)\n"}
    assert unread_constants(sources) == ["a.STALE"]


def test_package_reads_every_constant_it_defines():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_constants(sources) == []


def unread_fields(sources: dict[str, str]) -> list[str]:
    """``module.Class.field`` for each annotated class-level field of a
    class in `sources` (module name -> source) that no module reads as an
    attribute."""
    defined: list[str] = []
    read: set[str] = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                defined += [f"{module}.{node.name}.{stmt.target.id}" for stmt in node.body
                            if isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in defined if name.rsplit(".", 1)[1] not in read]


def test_unread_fields_finds_a_field_no_module_reads():
    sources = {"a": "class Table:\n    reps: tuple\n    sizes: tuple\n    count = 0\n"
                    "    def size(self):\n        return len(self.reps)\n",
               "b": "from a import Table\nclass Case:\n    branch: str\n    stale: int\n"
                    "def f(t, c):\n    c.stale = 1\n    return t.reps, c.branch\n"}
    assert unread_fields(sources) == ["a.Table.sizes", "b.Case.stale"]


def test_package_reads_every_field_it_defines():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_fields(sources) == []
