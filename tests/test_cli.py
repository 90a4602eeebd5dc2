"""Command-line surface: verbs, formats, exit codes, manifest replay."""

import csv
import io
import json
from fractions import Fraction
from math import floor

import pytest

from sturmlab import checks, heaps, words
from sturmlab.cli import main, manifest_argv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_words_mechanical_fixture(capsys):
    code, out, _ = run_cli(capsys, "words", "mechanical", "--gamma", "2/5", "--n", "10")
    assert code == 0
    assert out == "0101001010\n"


def test_words_mechanical_float_slope_is_exact(capsys):
    code, out, _ = run_cli(capsys, "words", "mechanical", "--gamma", "0.3", "--n", "20")
    gamma = Fraction(0.3)  # the double nearest 0.3, just below 3/10
    assert code == 0
    assert out == "".join(str(floor((k + 1) * gamma) - floor(k * gamma)) for k in range(1, 21)) + "\n"
    assert out != "".join(str((k + 1) * 3 // 10 - k * 3 // 10) for k in range(1, 21)) + "\n"
    # The precision flag is gone: float slopes no longer reach mpmath.
    assert run_cli(capsys, "words", "mechanical", "--gamma", "0.5", "--n", "5", "--bits", "0")[0] == 2


def test_words_balanced(capsys):
    code, out, _ = run_cli(capsys, "words", "balanced", "--p", "2", "--q", "5")
    assert code == 0
    assert out.strip() == "00101"


def test_words_standard_table(capsys):
    code, out, _ = run_cli(capsys, "words", "standard", "--quotients", "1,1,1")
    header, rows = parse_csv(out)
    assert code == 0
    assert header == ["n", "word", "ones", "length"]
    assert [r[1] for r in rows] == ["1", "0", "01", "010", "01001"]


def test_cyclic_scan_fixture(capsys):
    code, out, _ = run_cli(capsys, "cyclic", "scan", "--p", "2", "--q", "5")
    header, rows = parse_csv(out)
    assert code == 0
    products = {r[0]: int(r[2]) for r in rows}
    assert products["00101"] == 162000
    assert products["00011"] == 88128
    argmax = [r[0] for r in rows if r[4] == "true"]
    assert argmax == ["00101"]


def test_cyclic_verify_exit_code(capsys):
    code, out, _ = run_cli(capsys, "cyclic", "verify", "--q-max", "8")
    assert code == 0
    _, rows = parse_csv(out)
    assert all(r[-1] == "true" for r in rows)


def test_json_format_carries_meta(capsys):
    code, out, _ = run_cli(
        capsys, "cyclic", "scan", "--p", "1", "--q", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["verb"] == "cyclic scan"
    assert payload["meta"]["parameters"] == {"p": "1", "q": "4"}
    assert "version" in payload["meta"]
    assert payload["rows"]


def test_measures_show(capsys):
    code, out, _ = run_cli(capsys, "measures", "show", "--p", "2", "--q", "5")
    assert code == 0
    record = json.loads(out)
    assert record["word"] == "00101"
    assert record["weight"] == "1/5"


def test_queue_run_row(capsys):
    code, out, _ = run_cli(
        capsys, "queue", "run", "--gamma", "1/3", "--horizon", "500", "--seed", "0"
    )
    header, rows = parse_csv(out)
    assert code == 0
    assert header == [
        "label", "seed", "gamma", "horizon", "mean_cost", "max_queue", "admitted_fraction",
    ]
    assert rows[0][2] == "1/3" and rows[0][3] == "500"


def test_queue_compete_verdict(capsys):
    code, out, _ = run_cli(
        capsys,
        "queue", "compete", "--gamma", "1/3", "--horizon", "3000", "--competitors", "4",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == "mechanical"
    assert len(rows) == 5


def test_heaps_scan(capsys):
    code, out, _ = run_cli(capsys, "heaps", "scan", "--n-max", "6")
    _, rows = parse_csv(out)
    assert code == 0
    by_n = {int(r[0]): r for r in rows}
    assert by_n[3][1] == "2/3"
    assert by_n[3][3] == "true"


def test_jsr_bounds_golden(capsys):
    code, out, _ = run_cli(capsys, "jsr", "bounds", "--n-max", "4")
    _, rows = parse_csv(out)
    assert code == 0
    n2 = next(r for r in rows if r[0] == "2")
    assert n2[1] == n2[2]  # the bracket closes exactly at n = 2
    assert n2[3] == "01"


def test_jsr_alpha_star_digits(capsys):
    code, out, _ = run_cli(capsys, "jsr", "alpha-star", "--terms", "12", "--bits", "256")
    assert code == 0
    assert "matching_digits = 42" in out
    assert "alpha_star = 0.7493265463303675579439619480913446720913" in out


def test_wigner_ground_state(capsys):
    code, out, _ = run_cli(
        capsys, "wigner", "ground-state", "--p", "2", "--q", "4"
    )
    _, rows = parse_csv(out)
    assert code == 0
    energies = {r[0]: r[1] for r in rows}
    assert energies["0101"] == "1/2"
    assert energies["0011"] == "1"


def test_wigner_anti_potential(capsys):
    code, out, _ = run_cli(
        capsys, "wigner", "ground-state", "--p", "3", "--q", "8", "--potential", "anti"
    )
    _, rows = parse_csv(out)
    assert code == 0
    winner = [r for r in rows if r[3] == "true"]
    assert winner[0][0] == "00000111" and winner[0][2] == "false"


@pytest.mark.parametrize(
    "potential, param, described, energy",
    [
        ("power", "2", "power(2)", "1/4"),  # an integer power stays exact
        ("power", "2.5", "power(2.5)", "0.1767766952966369"),
        ("exponential", "2", "exponential(2.0)", "0.01831563888873418"),
        ("screened", "0.5", "screened(0.5)", "0.18393972058572117"),
    ],
)
def test_wigner_param_reaches_the_factory(capsys, potential, param, described, energy):
    code, out, _ = run_cli(
        capsys, "wigner", "ground-state", "--p", "2", "--q", "4",
        "--potential", potential, "--param", param, "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["parameters"]["potential"] == described
    energies = {row["representative"]: row["energy"] for row in payload["rows"]}
    assert energies["0101"] == energy


def test_verify_all_subset(capsys):
    code, out, _ = run_cli(
        capsys, "verify-all", "--only", "cyclic-products,jsr-golden-ratio"
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 2
    assert all(line.startswith("PASS") for line in lines)


def test_verify_all_reports_failure(capsys, monkeypatch):
    monkeypatch.setitem(checks.CHECKS, "cyclic-products", (lambda: (), lambda: (False, "forced")))
    code, out, _ = run_cli(capsys, "verify-all", "--only", "cyclic-products")
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_all_json_goes_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "verify-all", "--only", "trace-recurrence,jsr-golden-ratio", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["name"] for row in rows] == ["trace-recurrence", "jsr-golden-ratio"]


def test_unknown_check_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify-all", "--only", "no-such-check")
    assert code == 2
    assert "unknown check" in err


def test_malformed_quotients_name_their_flag(capsys):
    assert run_cli(capsys, "words", "standard", "--quotients", "1,,2") == (
        2, "", "error: --quotients must be comma-separated integers, got '1,,2'\n"
    )


def test_repeated_check_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify-all", "--only", "words-core,words-core")
    assert (code, out) == (2, "")
    assert err == "error: check 'words-core' is named twice\n"


def test_usage_errors(capsys):
    assert run_cli(capsys, "no-such-verb")[0] == 2
    assert run_cli(capsys, "words", "mechanical", "--gamma", "2/5")[0] == 2  # missing --n
    assert run_cli(capsys)[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        "words mechanical --gamma 1/0 --n 5",
        "words standard --quotients 1,,2",
        "jsr bounds --alpha 1/0",
        "jsr bounds --alpha inf",
        "jsr bounds --alpha 1e400",
        "verify-all --jobs 0",
        "queue run --gamma 1/0",
        "queue run --interarrival nan",
        "queue run --service inf",
        "queue compete --service nan",
        "jsr scan-ratio --alpha-grid 1",
        "measures verify --mixtures -1",
        "heaps scan --n-max 0",
        "measures peaks --grid 0",
        "measures peaks --grid -3",
        "queue run --delta 1/2",
        "queue compete --gamma 1/3 --word 1",
        "wigner ground-state --p 2 --q 5 --potential coulomb --param 2",
        "wigner ground-state --p 2 --q 5 --potential anti --param 1",
        "wigner ground-state --p 2 --q 5 --potential power --param x",
        "wigner ground-state --p 2 --q 5 --potential power --param 1e400",
        "wigner ground-state --p 2 --q 5 --potential power --param 1000000",
        "wigner ground-state --p 2 --q 5 --potential exponential --param inf",
        "wigner ground-state --p 2 --q 6 --potential exponential --param 1e-320 --images 1",
        "wigner ground-state --p 2 --q 6 --potential screened --param 1e-320 --images 1",
        "heaps scan --n-max 25",
        "queue run --gamma 1 --horizon 10 --service 1e308 --interarrival 1e308",
        "queue run --seed -1",
        "queue compete --competitor-seed -5",
        "cyclic verify --q-max 80",
        "cyclic scan --p 30 --q 61",
        "measures verify --q-max 70",
        "measures peaks --max-period 60 --grid 1",
        "words mechanical --gamma 1/x --n 5",
        "words mechanical --gamma 1/2/3 --n 5",
        "words mechanical --gamma abc --n 5",
        "queue run --gamma 1/3 --delta 1/y",
        "jsr bounds --alpha 3/z",
    ],
)
def test_bad_parameter_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        ("queue run --seed -1", "seed must be >= 0, got -1"),
        ("queue compete --competitor-seed -5", "competitor_seed must be >= 0, got -5"),
        ("queue run --gamma 1 --horizon 10 --service 1e308 --interarrival 1e308",
         "mean_interarrival 1e+308 over horizon 10 overflows the arrival times"),
    ],
)
def test_queue_usage_error_names_its_parameter(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("jsr alpha-star --bits 64", "bits=64: the working precision budget is 128..8192 bits"),
        ("jsr alpha-star --bits 8193", "bits=8193: the working precision budget is 128..8192 bits"),
        ("jsr alpha-star --terms 31 --bits 100000",
         "bits=100000: the working precision budget is 128..8192 bits"),
        ("jsr alpha-star --terms 31",
         "terms=31: traces grow doubly exponentially and exceed the practical integer budget beyond 30 terms"),
    ],
)
def test_alpha_star_budget_is_named(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("words mechanical --gamma 1/x --n 5", "slope '1/x' is neither 'p/q' nor a number"),
        ("words mechanical --gamma 1/2/3 --n 5", "slope '1/2/3' is neither 'p/q' nor a number"),
        ("words mechanical --gamma abc --n 5", "slope 'abc' is neither 'p/q' nor a number"),
        ("queue run --gamma 1/3 --delta 1/y", "slope '1/y' is neither 'p/q' nor a number"),
        ("queue compete --gamma 1/z", "slope '1/z' is neither 'p/q' nor a number"),
        ("jsr bounds --alpha 3/z", "slope '3/z' is neither 'p/q' nor a number"),
        ("words mechanical --gamma 1/0 --n 5", "zero denominator in slope '1/0'"),
    ],
)
def test_unreadable_slope_is_named(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("n_max", (0, heaps.MAX_EXHAUSTIVE_N + 1, 25))
def test_heaps_scan_names_its_flag_before_any_search(capsys, n_max):
    # The old message came from the search at n = 21, after 20 searches ran.
    expected = f"error: --n-max must be in 1..{heaps.MAX_EXHAUSTIVE_N}, got {n_max}\n"
    assert run_cli(capsys, "heaps", "scan", "--n-max", str(n_max)) == (2, "", expected)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("cyclic verify --q-max 80", "q_max=80"),
        ("cyclic scan --p 30 --q 61", "q=61"),
        ("measures verify --q-max 70", "q_max=70"),
        ("measures peaks --max-period 60 --grid 1", "max_period=60"),
        ("wigner ground-state --p 2 --q 21", "q=21"),
    ],
)
def test_orbit_scan_bound_names_its_parameter(capsys, argv, message):
    # One shared bound, checked before any orbit is enumerated.
    expected = f"error: {message} beyond the exhaustive bound {words.EXHAUSTIVE_Q}\n"
    assert run_cli(capsys, *argv.split()) == (2, "", expected)


_PIECE = {"columns": [1, 2], "lower": ["0", "0"], "upper": ["1", "1"]}
_PIECES = {"piece0": dict(_PIECE, columns=[0, 1]), "piece1": _PIECE}
# The default model, as README's model file writes it.
_MODEL = {
    "piece0": {"columns": [0, 1], "lower": ["0", "0"], "upper": ["1", "1/2"]},
    "piece1": {"columns": [1, 2], "lower": ["0", "0"], "upper": ["1/2", "3/2"]},
}


@pytest.mark.parametrize(
    "verb, flag, data",
    [
        ("run", "--manifest", {"verb": "words mechanical", "parameters": [1]}),
        ("run", "--manifest", ["words mechanical"]),
        ("run", "--manifest", {"verb": ["x"]}),
        ("run", "--manifest", {"verb": "cyclic scan", "parameters": {}, "output_path": 5}),
        ("queue run", "--config", {"admission": 5}),
        ("queue run", "--config", {"admission": [0, 1, 1], "horizon": 3}),
        ("queue run", "--config", [{"admission": "01"}]),
        ("queue run", "--config", {"horizon": [100]}),
        ("heaps schedule", "--model", {"num_columns": 3, "piece0": dict(_PIECE, columns=5), "piece1": _PIECE}),
        ("heaps schedule", "--model", {"num_columns": 3, "piece0": [_PIECE], "piece1": _PIECE}),
        ("heaps schedule", "--model", [3]),
        ("queue run", "--config", {"horizon": 2.7, "admission": "01"}),
        ("queue compete", "--config", {"seed": 0.5, "admission": "01"}),
        ("heaps scan", "--model", {"num_columns": 3, "piece0": dict(_PIECE, columns=[0.5, 1]), "piece1": _PIECE}),
        ("heaps schedule", "--model", dict(_PIECES, num_columns=3.7)),
        ("heaps schedule", "--model", dict(_PIECES, num_columns="3")),
        ("heaps schedule", "--model", dict(_PIECES, num_columns=True)),
        ("run", "--manifest", {"verb": "cyclic scan", "parameters": {}, "format": "xml"}),
        ("run", "--manifest", {"parameters": {}}),
    ],
)
def test_malformed_json_is_usage_error(tmp_path, capsys, verb, flag, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *verb.split(), flag, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, data, message",
    [
        ("heaps scan --model", {"num_columns": 3, "piece0": _PIECE}, "heap model needs a 'piece1' key"),
        ("heaps scan --model", _MODEL, "heap model needs a 'num_columns' key"),
        ("heaps schedule --model", dict(_PIECES, num_columns=3, piece1={"columns": [1, 2]}),
         "heap model needs a 'lower' key"),
        ("run --manifest", {"parameters": {}}, "a manifest needs a 'verb' key (the verb it replays)"),
    ],
)
def test_input_file_names_its_missing_key(tmp_path, capsys, argv, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, *argv.split(), str(path)) == (2, "", f"error: {message}\n")


def test_model_and_config_files_stand_for_their_flags(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(dict(_MODEL, num_columns=3)))
    scan = ["heaps", "scan", "--n-max", "4"]
    assert run_cli(capsys, *scan, "--model", str(model)) == run_cli(capsys, *scan)
    config = tmp_path / "queue.json"
    config.write_text(json.dumps({"horizon": 300, "seed": 7, "admission": {"gamma": "1/3"}}))
    direct = run_cli(capsys, "queue", "run", "--horizon", "300", "--seed", "7", "--gamma", "1/3")
    assert direct[0] == 0
    assert run_cli(capsys, "queue", "run", "--config", str(config)) == direct


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_word_flag_equals_its_config_file(tmp_path, capsys, fmt):
    config = tmp_path / "queue.json"
    config.write_text(json.dumps({"admission": "001", "horizon": 300}))
    direct = run_cli(capsys, "queue", "run", "--word", "001", "--horizon", "300", "--format", fmt)
    assert direct[0] == 0 and "1/3" in direct[1]
    assert run_cli(capsys, "queue", "run", "--config", str(config), "--format", fmt) == direct


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_flag_wins_over_its_config_key(tmp_path, capsys, fmt):
    config = tmp_path / "queue.json"
    config.write_text(json.dumps({"horizon": 300}))
    direct = run_cli(capsys, "queue", "run", "--horizon", "150", "--format", fmt)
    assert direct[0] == 0 and "150" in direct[1]
    assert run_cli(capsys, "queue", "run", "--config", str(config), "--horizon", "150",
                   "--format", fmt) == direct


def test_config_file_error_wins_over_flag_errors(tmp_path, capsys):
    # The file is checked as written before the flags are.
    config = tmp_path / "queue.json"
    config.write_text(json.dumps({"horizon": 0}))
    argv = ["queue", "run", "--config", str(config), "--gamma", "1/3", "--word", "1"]
    assert run_cli(capsys, *argv) == (2, "", "error: horizon must be >= 1\n")
    # A flag does not mend the file it is laid over.
    assert run_cli(capsys, *argv[:4], "--horizon", "5") == (2, "", "error: horizon must be >= 1\n")


@pytest.mark.parametrize(
    "data, message",
    [
        ({"service_time": "1.5"}, "'service_time' must be a number in float range, got '1.5'"),
        ({"service_time": True}, "'service_time' must be a number in float range, got True"),
        ({"mean_interarrival": "abc"}, "'mean_interarrival' must be a number in float range, got 'abc'"),
    ],
)
def test_queue_config_number_names_its_key(tmp_path, capsys, data, message):
    path = tmp_path / "queue.json"
    path.write_text(json.dumps(data))
    for verb in ("run", "compete"):
        assert run_cli(capsys, "queue", verb, "--config", str(path)) == (2, "", f"error: queue config {message}\n")


def test_queue_config_without_gamma_is_usage_error(tmp_path, capsys):
    path = tmp_path / "queue.json"
    path.write_text(json.dumps({"admission": {"delta": "0"}}))
    code, out, err = run_cli(capsys, "queue", "run", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "'gamma'" in err and "admission" in err


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("sturmlab ")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        capsys, "cyclic", "scan", "--p", "1", "--q", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("representative,")


def test_manifest_replay_is_byte_identical(tmp_path, capsys):
    direct = tmp_path / "direct.csv"
    replayed = tmp_path / "replayed.csv"
    code, _, _ = run_cli(
        capsys, "jsr", "bounds", "--n-max", "3", "--out", str(direct), "--format", "csv"
    )
    assert code == 0

    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(
        json.dumps(
            {
                "verb": "jsr bounds",
                "parameters": {"n_max": 3},
                "output_path": str(replayed),
                "format": "csv",
            }
        )
    )
    assert main(["run", "--manifest", str(manifest_path)]) == 0
    assert replayed.read_bytes() == direct.read_bytes()


def test_manifest_argv_round_trip():
    manifest = {
        "verb": "queue compete",
        "parameters": {"gamma": "1/3", "horizon": 1000, "competitors": 4},
        "seed": 5,
        "format": "json",
    }
    argv = manifest_argv(manifest)
    assert argv[:2] == ["queue", "compete"]
    assert argv.count("--seed") == 1
    assert "--gamma" in argv and "1/3" in argv


@pytest.mark.parametrize("flag", [True, False])
def test_manifest_boolean_flag_replays_the_direct_run(tmp_path, capsys, flag):
    argv = ["words", "standard", "--quotients", "2,1,1"] + ["--slope-convention"] * flag
    code, direct, _ = run_cli(capsys, *argv)
    assert code == 0
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(
        {"verb": "words standard", "parameters": {"quotients": "2,1,1", "slope_convention": flag}}
    ))
    code, replayed, err = run_cli(capsys, "run", "--manifest", str(manifest_path))
    assert (code, err) == (0, "")
    assert replayed == direct


def test_manifest_rejects_unknown_verb(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for verb in ("frobnicate", "words bogus", "run"):
        bad.write_text(json.dumps({"verb": verb, "parameters": {}}))
        code, _, err = run_cli(capsys, "run", "--manifest", str(bad))
        assert code == 2
        assert "unknown manifest verb" in err


def test_missing_manifest_file(capsys):
    code, _, err = run_cli(capsys, "run", "--manifest", "/nonexistent/m.json")
    assert code == 2
    assert err
