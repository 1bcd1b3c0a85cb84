"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "engelfit"
MODULES = sorted([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
                 + list(TESTS.glob("*.py")))


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
