"""Every package module uses each name it imports.

No linter ships with the test dependencies, so this stdlib check stands in
for one: a deletion that leaves an import behind fails here.  Package
__init__ files are skipped, since they import names to re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coxcert"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names an import binds in source that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from os import path, sep\nimport json\nimport a.b as c\nprint(sep, c)\n"
    assert unused_imports(source) == ["path (line 1)", "json (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
