"""Every verb's artifact, run directly and replayed from a manifest file through
``run --manifest``, matches the golden file captured from the CLI before the
verb table existed."""

import csv
import io
import json
from pathlib import Path

import pytest

from sturmlab.cli import VERBS, main

GOLDEN = Path(__file__).parent / "golden"

# One small invocation per verb; the golden files hold its artifacts.
CASES = {
    "words mechanical": "--gamma 2/5 --n 10",
    "words standard": "--quotients 1,2,1",
    "words balanced": "--p 3 --q 8",
    "cyclic verify": "--q-max 6",
    "cyclic scan": "--p 2 --q 7",
    "measures show": "--p 2 --q 5",
    "measures verify": "--q-max 5 --mixtures 4 --seed 1",
    "measures peaks": "--grid 4 --max-period 5 --kind cosine",
    "queue run": "--gamma 1/3 --horizon 200 --seed 1",
    "queue compete": "--gamma 2/5 --horizon 300 --competitors 3 --competitor-seed 7",
    "heaps scan": "--n-max 5",
    "heaps schedule": "--q-max 4",
    "jsr bounds": "--n-max 4 --alpha 3/4 --norm row-sum",
    "jsr scan-ratio": "--alpha-grid 3 --n 6",
    "jsr alpha-star": "--terms 6 --bits 128",
    "wigner ground-state": "--p 2 --q 6 --potential power --param 2 --images 1",
    "verify-all": "--only trace-recurrence,jsr-golden-ratio",
}

REPLAYABLE = [name for name, verb in VERBS.items() if verb.columns is not None]


def _comparable(path: Path, fmt: str, columns):
    """The artifact's bytes, or its parsed rows without the wall-time
    ``seconds`` column when the verb has one."""
    if "seconds" not in columns:
        return path.read_bytes()
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        payload = json.loads(text)
        for row in payload["rows"]:
            del row["seconds"]
        return payload
    rows = list(csv.reader(io.StringIO(text)))
    at = rows[0].index("seconds")
    return [row[:at] + row[at + 1:] for row in rows]


def test_every_replayable_verb_has_a_case():
    assert sorted(CASES) == sorted(REPLAYABLE)


@pytest.mark.parametrize("name", REPLAYABLE)
def test_artifact_matches_golden_direct_and_replayed(name, tmp_path, capsys):
    columns = VERBS[name].columns
    flags = CASES[name].split()
    parameters = {flag[2:].replace("-", "_"): value for flag, value in zip(flags[::2], flags[1::2])}
    for fmt in ("csv", "json") if columns else ("txt",):
        golden = _comparable(GOLDEN / f"{name.replace(' ', '-')}.{fmt}", fmt, columns)
        format_flag = ["--format", fmt] if columns else []

        direct = tmp_path / f"direct.{fmt}"
        assert main(name.split() + flags + ["--out", str(direct)] + format_flag) == 0
        assert _comparable(direct, fmt, columns) == golden

        replayed = tmp_path / f"replayed.{fmt}"
        manifest = {"verb": name, "parameters": parameters, "output_path": str(replayed)}
        if columns:
            manifest["format"] = fmt
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["run", "--manifest", str(manifest_path)]) == 0
        assert _comparable(replayed, fmt, columns) == golden
    assert capsys.readouterr().err == ""
