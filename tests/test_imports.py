"""Static checks on the package sources."""

from __future__ import annotations

import ast
import inspect
import re
from functools import cached_property
from pathlib import Path

import pytest

import pollctl

MODULES = sorted(
    path
    for path in Path(pollctl.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


#: the repository root, whose ``bench/`` and README also read the package
ROOT = Path(__file__).resolve().parents[1]


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


def names_read(source: str) -> set[str]:
    """Names a module reads, as a ``Name`` or as an ``Attribute``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def exported_members() -> dict[str, str]:
    """``Class.member`` of every public method and property of the exported
    classes, those they inherit from the package's classes included, mapped
    to the member's name."""
    descriptors = (staticmethod, classmethod, property, cached_property)
    members = {}
    for name in pollctl.__all__:
        exported = getattr(pollctl, name)
        if not inspect.isclass(exported):
            continue
        for base in exported.__mro__:
            if not base.__module__.startswith("pollctl."):
                continue
            for attr, value in vars(base).items():
                method = inspect.isfunction(value) or isinstance(value, descriptors)
                if method and not attr.startswith("_"):
                    members[f"{name}.{attr}"] = attr
    return members


def test_every_exported_name_is_read_outside_the_tests():
    read = set().union(*(names_read(path.read_text("utf-8")) for path in MODULES))
    for path in [*sorted(ROOT.glob("bench/*.py")), ROOT / "README.md"]:
        read |= set(re.findall(r"\w+", path.read_text("utf-8")))
    assert sorted(set(pollctl.__all__) - read) == []
    members = exported_members()
    assert "FluidTrajectory.value_at" in members
    assert sorted(key for key, attr in members.items() if attr not in read) == []
