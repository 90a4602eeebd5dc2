"""Every exported name resolves, so a deleted name cannot linger in an
export list; the package root imports no testbed."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import sturmlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(sturmlab.__path__))

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
