"""The fault catalogue in ``tests/mutants.py`` is not stale: every snippet
still occurs exactly once in its source file and every target names a test
function that exists, so a refactor that moves catalogued code fails here
rather than only in the slow mutant runner."""

import re
from pathlib import Path

from mutants import MUTANTS, ROOT


def test_every_snippet_occurs_exactly_once():
    counts = {
        m.name: (ROOT / "src" / "sturmlab" / m.file).read_text(encoding="utf-8").count(m.snippet)
        for m in MUTANTS
    }
    assert {name: count for name, count in counts.items() if count != 1} == {}


def test_every_target_names_an_existing_test_function():
    missing = []
    for m in MUTANTS:
        for target in m.targets:
            path, function = target.split("::")
            function = function.split("[")[0]
            test_file = ROOT / path
            if not test_file.is_file() or not re.search(
                rf"^def {function}\(", test_file.read_text(encoding="utf-8"), re.M
            ):
                missing.append((m.name, target))
    assert missing == []
