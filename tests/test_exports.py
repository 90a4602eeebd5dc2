"""Every exported name resolves, so a deleted name cannot linger in an
export list."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sturmlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(sturmlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"sturmlab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(sturmlab.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(f"sturmlab.{module}"), name)
        or not hasattr(sturmlab, name)
    ]
    assert missing == []
