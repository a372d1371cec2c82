"""Static checks on the package sources."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import pollctl

MODULES = sorted(
    path
    for path in Path(pollctl.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "import json\nfrom typing import Any, cast\n\ncast(int, json.loads('1'))\n"
    assert unused_imports(source) == ["Any (line 2)"]
