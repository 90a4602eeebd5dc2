"""Every exported name resolves, so a deleted name cannot linger in an
export list, and every exported name has a caller, so a name whose last
caller went cannot linger in the package; the package root imports no
testbed, each module loads only the libraries it uses, and the per-orbit
rows the scans build carry no instance dict."""

import ast
import dataclasses
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sturmlab
from sturmlab import cyclic, wigner, words

MODULES = sorted(info.name for info in pkgutil.iter_modules(sturmlab.__path__))

ROOT = Path(__file__).resolve().parents[1]

# Exported names with no caller in src/ or perfbench yet, each with the
# ROADMAP item that gives it one or removes it.
UNCALLED = {
    "words.balance_witness": "item 1: names an unbalanced control's failing factor pair",
    "multimodular.convex_window_load": "item 6: the multimodular-window claim's J",
}

# Exported names whose only caller is a perfbench span-name string: they lose
# it when item 4 retires the tracer, and need a real caller or go by then.
TRACED_ONLY = {"measures.mixture", "measures.convex_order_witness", "queueing.random_admission_word"}

# The modules the deep scan reaches; none of them needs numpy or mpmath.
NUMPY_FREE = ("cyclic", "heaps", "jsr", "measures", "wigner")
# Every module but cli; only jsr's alpha* functions need mpmath, and they
# import it on their first call.
MPMATH_FREE = ("checks", "cyclic", "heaps", "jsr", "measures", "multimodular", "queueing", "wigner", "words")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"sturmlab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _loaded_after(names, loaded=("numpy", "mpmath"), then="") -> list[str]:
    """A fresh interpreter's sturmlab submodules after ``import sturmlab``, then
    whether each of ``loaded`` is in sys.modules after importing ``names``,
    then what the statements ``then`` print."""
    script = (
        "import sys, sturmlab\n"
        "print(sorted(m for m in sys.modules if m.startswith('sturmlab.')))\n"
        f"for name in {names!r}:\n"
        "    __import__('sturmlab.' + name)\n"
        f"print(*(m in sys.modules for m in {loaded!r}))\n"
        f"{then}"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sturmlab.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout.splitlines()


def test_imports_load_only_what_they_use():
    assert _loaded_after(NUMPY_FREE) == ["[]", "False False"]
    assert _loaded_after(MPMATH_FREE) == ["[]", "True False"]
    # verify-all --jobs 1 never starts a pool, so the CLI loads none of its machinery.
    assert _loaded_after(("cli",), ("multiprocessing", "concurrent.futures.process")) == ["[]", "False False"]


def test_jsr_loads_mpmath_on_its_first_alpha_call():
    then = (
        "from sturmlab.jsr import alpha_star_tau, matching_digits\n"
        "print(matching_digits(alpha_star_tau(12).value) >= 30, 'mpmath' in sys.modules)\n"
    )
    assert _loaded_after(("jsr",), ("mpmath",), then) == ["[]", "False", "True True"]


@pytest.mark.parametrize(
    "row, names",
    [
        (words.balanced_orbit(2, 5), ("representative", "period")),
        (cyclic.verify_balanced_product_maximum(2, 5).rows[0],
         ("representative", "factors", "product", "balanced", "argmax")),
        (wigner.ground_state(2, 5, wigner.coulomb()).rows[0], ("orbit", "energy", "balanced", "argmin")),
    ],
)
def test_per_orbit_rows_are_slotted_frozen_records(row, names):
    assert not hasattr(row, "__dict__")
    assert tuple(f.name for f in dataclasses.fields(row)) == names
    copy = dataclasses.replace(row)
    assert copy is not row and copy == row and hash(copy) == hash(row)
    changed = dataclasses.replace(row, **{names[1]: None})
    assert changed != row and getattr(changed, names[0]) == getattr(row, names[0])
    restored = pickle.loads(pickle.dumps(row))
    assert restored == row and hash(restored) == hash(row) and repr(restored) == repr(row)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(row, names[0], None)


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
    read, traced = set(), set()
    for module, tree in trees.items():
        read |= _references(tree, module, dotted_strings=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _references(tree, "", dotted_strings=False)
        traced |= _references(tree, "", dotted_strings=True)
    exports = {(module, name) for module, tree in trees.items() for name in _exports(tree)}
    assert {f"{module}.{name}" for module, name in exports - read - traced} == set(UNCALLED)
    assert {f"{module}.{name}" for module, name in exports & traced - read} == TRACED_ONLY
