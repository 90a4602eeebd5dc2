"""Every exported name resolves, so a deleted name cannot linger in an
export list, and every exported name has a caller, so a name whose last
caller went cannot linger in the package; the package root imports no
testbed."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sturmlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(sturmlab.__path__))

ROOT = Path(__file__).resolve().parents[1]

# Exported names with no caller in src/ or perfbench yet, each with the
# ROADMAP item that gives it one or removes it.
UNCALLED = {
    "words.balance_witness": "item 1: names an unbalanced control's failing factor pair",
    "multimodular.check_multimodular": "item 3: the multimodular-window claim's premise",
    "multimodular.affine_function": "item 3: wired into multimodular-window, or deleted with it",
    "multimodular.convex_window_load": "item 3: the multimodular-window claim's J",
    "multimodular.negative_product": "item 3: a multimodular-window control",
    "multimodular.coordinate_max": "item 3: a multimodular-window control",
}

# The modules the deep scan reaches; none of them needs numpy.
NUMPY_FREE = ("cyclic", "heaps", "jsr", "measures", "wigner")
# Every module but jsr, checks and cli; none of them needs mpmath.
MPMATH_FREE = ("cyclic", "heaps", "measures", "multimodular", "queueing", "wigner", "words")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"sturmlab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _loaded_after(names) -> list[str]:
    """A fresh interpreter's sturmlab submodules after ``import sturmlab``, then
    whether numpy and mpmath are loaded after importing ``names``."""
    script = (
        "import sys, sturmlab\n"
        "print(sorted(m for m in sys.modules if m.startswith('sturmlab.')))\n"
        f"for name in {names!r}:\n"
        "    __import__('sturmlab.' + name)\n"
        "print('numpy' in sys.modules, 'mpmath' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sturmlab.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout.splitlines()


def test_imports_load_only_what_they_use():
    assert _loaded_after(NUMPY_FREE) == ["[]", "False True"]
    assert _loaded_after(MPMATH_FREE) == ["[]", "True False"]


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _references(tree: ast.Module, home: str, dotted_strings: bool) -> set[tuple[str, str]]:
    """(module, name) pairs the tree reads: ``module.name`` attributes, names
    imported from a module, bare names loaded inside ``home`` itself, and,
    with ``dotted_strings``, "module.name" string constants (perfbench's
    tracer names its spans that way)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2]
            found.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add((node.value.id, node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((home, node.id))
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, _, name = node.value.partition(".")
            found.add((module, name))
    return found


def test_every_export_has_a_caller():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in (ROOT / "src" / "sturmlab").glob("*.py")
    }
    read = set()
    for module, tree in trees.items():
        read |= _references(tree, module, dotted_strings=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        read |= _references(ast.parse(path.read_text(encoding="utf-8")), "", dotted_strings=True)
    uncalled = {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _exports(tree)
        if (module, name) not in read
    }
    assert uncalled == set(UNCALLED)
