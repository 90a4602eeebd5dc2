"""Fault catalogue: every mutant listed here must be killed by the tests it names.

Each entry plants one known fault in a temporary copy of ``src/`` and runs
its target tests against that copy with ``-x``, one pytest process at a
time.  A target run that passes is a survivor.  A snippet that does not
occur exactly once in its file is stale and fails the run too, so a refactor
that changes catalogued code has to update the catalogue.  Before any mutant,
the clean copy must pass every target, so a kill is never a broken test.

Usage (from any directory):

    python3 tests/mutants.py            # the whole catalogue
    python3 tests/mutants.py NAME ...   # selected entries

Exit status 0 when every selected mutant is killed.  Tier-1 does not collect
this file: pytest only collects ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/sturmlab
    snippet: str  # must occur exactly once in the file
    replacement: str
    targets: tuple[str, ...]  # pytest node ids relative to the repository root


MUTANTS = (
    Mutant("hull-spread-le", "words.py",
           "- a * (ux - lx) < b", "- a * (ux - lx) <= b",
           ("tests/test_words.py::test_balance_matches_naive_oracle_on_every_short_word",)),
    Mutant("hull-slope-compare-reversed", "words.py",
           "if (vy - uy) * (mx - lx) >= (my - ly) * (vx - ux):",
           "if (vy - uy) * (mx - lx) <= (my - ly) * (vx - ux):",
           ("tests/test_words.py::test_balance_matches_naive_oracle_on_every_short_word",)),
    Mutant("rotation-scan-compare-flipped", "words.py",
           "elif a < b:", "elif a > b:",
           ("tests/test_words.py::test_canonical_rotation_matches_oracle_exhaustively",)),
    Mutant("necklace-period-test", "words.py",
           "if q % period == 0:", "if period == q:",
           ("tests/test_words.py::test_enumerate_orbits_matches_oracle",)),
    Mutant("necklace-copied-bit-shifted", "words.py",
           "if b >> (period - 1) & 1:", "if b >> period & 1:",
           ("tests/test_words.py::test_enumerate_orbits_matches_oracle",
            "tests/test_words.py::test_necklace_readings_are_every_necklace_read_in_base_2")),
    Mutant("necklace-lyndon-keeps-period", "words.py",
           "stack.append((t + 1, 2 * b + 1, t + 1, ones + 1))",
           "stack.append((t + 1, 2 * b + 1, period, ones + 1))",
           ("tests/test_words.py::test_necklace_readings_are_every_necklace_read_in_base_2",)),
    Mutant("necklace-word-unpadded", "words.py",
           'format(b, f"0{q}b")', 'format(b, "b")',
           ("tests/test_words.py::test_enumerate_orbits_matches_oracle",)),
    Mutant("check-word-drops-one", "words.py",
           'translate(None, b"01")', 'translate(None, b"0")',
           ("tests/test_words.py::test_check_word_rejects_any_other_code_point",)),
    Mutant("coprime-pairs-from-zero", "words.py",
           "for p in range(1, q)", "for p in range(0, q)",
           ("tests/test_words.py::test_coprime_pairs_match_nested_loop_oracle",)),
    Mutant("balanced-orbit-unrotated", "words.py",
           "Orbit(w[-1] + w[:-1], q)", "Orbit(w, q)",
           ("tests/test_words.py::test_balanced_orbit_is_the_least_rotation_of_its_mechanical_word",)),
    Mutant("minimal-period-find-from-zero", "words.py",
           "find(w, 1)", "find(w, 0)",
           ("tests/test_words.py::test_minimal_period_matches_divisor_oracle_exhaustively",)),
    Mutant("parse-slope-finite-nan-only", "words.py",
           "if not math.isfinite(value):", "if math.isnan(value):",
           ("tests/test_words.py::test_parse_slope_and_format_fraction",)),
    Mutant("cyclic-rotation-direction-flipped", "words.py",
           "((b << k) | (b >> (q - k))) & mask", "((b >> k) | (b << (q - k))) & mask",
           ("tests/test_cyclic.py::test_product_scans_match_string_rotation_oracle",)),
    Mutant("cyclic-rotation-mask-short", "words.py",
           "mask = (1 << q) - 1", "mask = (1 << (q - 1)) - 1",
           ("tests/test_words.py::test_rotation_values_match_string_rotations",)),
    Mutant("mechanical-short-period", "words.py",
           "min(n, b) + 2", "min(n, b) + 1",
           ("tests/test_words.py::test_mechanical_word_matches_fraction_oracle",)),
    Mutant("mpf-exponent-sign", "words.py",
           "Fraction(2) ** exp", "Fraction(2) ** -exp",
           ("tests/test_words.py::test_mpf_mechanical_word_matches_exact_oracles",)),
    Mutant("queue-min-for-max", "queueing.py",
           "(last if last > a else a)", "(last if last < a else a)",
           ("tests/test_queueing.py::test_completions_match_recursion_past_a_wrong_guess",)),
    Mutant("queue-start-value", "queueing.py",
           "completions = arrivals + service_time", "completions = arrivals + 2 * service_time",
           ("tests/test_queueing.py::test_completions_match_recursion_bitwise",
            "tests/test_queueing.py::test_completions_small_cases")),
    Mutant("queue-long-period-slice-past-end", "queueing.py",
           "completions[start:start + length]", "completions[start:start + length + 1]",
           ("tests/test_queueing.py::test_completions_match_recursion_at_every_load",)),
    Mutant("queue-wavefront-offset-shifted", "queueing.py",
           "at = heads + offset", "at = heads + offset + 1",
           ("tests/test_queueing.py::test_completions_match_recursion_at_every_load",)),
    Mutant("queue-guess-unverified", "queueing.py",
           "if missed.size:", "if False:",
           ("tests/test_queueing.py::test_completions_match_recursion_past_a_wrong_guess",)),
    Mutant("queue-tail-starts-late", "queueing.py",
           "j = int(missed[0]) + 1", "j = int(missed[0]) + 2",
           ("tests/test_queueing.py::test_completions_match_recursion_past_a_wrong_guess",)),
    Mutant("queue-arrival-overflow-unchecked", "queueing.py",
           "if not math.isfinite(arrivals[-1]):", "if False:",
           ("tests/test_queueing.py::test_overflowing_arrival_stream_is_rejected",)),
    Mutant("queue-negative-seed-accepted", "queueing.py",
           "if self.seed < 0:", "if False:",
           ("tests/test_queueing.py::test_negative_seeds_are_named",)),
    Mutant("queue-negative-competitor-seed-accepted", "queueing.py",
           "if competitor_seed < 0:", "if False:",
           ("tests/test_cli.py::test_queue_usage_error_names_its_parameter",)),
    Mutant("queue-searchsorted-left", "queueing.py",
           'side="right"', 'side="left"',
           ("tests/test_queueing.py::test_departure_at_an_arrival_instant_is_counted",)),
    Mutant("queue-admission-unchecked", "queueing.py",
           "elif not isinstance(self.admission, MechanicalSpec):", "elif False:",
           ("tests/test_cli.py::test_malformed_json_is_usage_error",)),
    Mutant("heaps-dot-compare-flipped", "heaps.py",
           "if best is None or value > best:", "if best is None or value < best:",
           ("tests/test_heaps.py::test_integer_product_matches_fraction_oracles",)),
    Mutant("heaps-rate-unscaled", "heaps.py",
           "return max_cycle_mean(matrix) / (len(w) * d)", "return max_cycle_mean(matrix) / len(w)",
           ("tests/test_heaps.py::test_integer_product_matches_fraction_oracles",)),
    Mutant("heaps-bound-ge", "heaps.py",
           "if max(map(operator.add, heights, tails[left])) > best:",
           "if max(map(operator.add, heights, tails[left])) >= best:",
           ("tests/test_heaps.py::test_min_rate_matches_exhaustive_dfs_oracle",)),
    Mutant("heaps-tails-from-ground", "heaps.py",
           "units = [tuple(0 if i == j else None for i in columns) for j in columns]",
           "units = [ground for j in columns]",
           ("tests/test_heaps.py::test_min_rate_matches_exhaustive_dfs_oracle",)),
    Mutant("heaps-pareto-any-coordinate", "heaps.py",
           "if not any(all(", "if not any(any(",
           ("tests/test_heaps.py::test_min_rate_matches_exhaustive_dfs_oracle",)),
    Mutant("jsr-norm-scale-short", "jsr.py",
           "_mul(x, y), scale**n)", "_mul(x, y), scale**(n - 1))",
           ("tests/test_jsr.py::test_bounds_match_product_necklace_oracle",)),
    Mutant("jsr-radius-scale-long", "jsr.py",
           "a * d - b * c, scale**n)", "a * d - b * c, scale**(n + 1))",
           ("tests/test_jsr.py::test_bounds_match_product_necklace_oracle",)),
    Mutant("jsr-norm-walk-short", "jsr.py",
           "_product_tables(ints, n_max - n_max // 2)", "_product_tables(ints, n_max // 2)",
           ("tests/test_jsr.py::test_bounds_match_product_necklace_oracle",)),
    Mutant("jsr-mul-wrong-entry", "jsr.py",
           "x[2] * y[1] + x[3] * y[3],", "x[2] * y[1] + x[3] * y[2],",
           ("tests/test_jsr.py::test_mul_arithmetic",)),
    Mutant("jsr-standard-product-reversed", "jsr.py",
           "m = _mul(matrices[-1], m)", "m = _mul(m, matrices[-1])",
           ("tests/test_jsr.py::test_standard_matrices_match_mat2_powers",)),
    Mutant("jsr-estimate-error-from-third-last", "jsr.py",
           "error = abs(partials[-1] - partials[-2])", "error = abs(partials[-1] - partials[-3])",
           ("tests/test_jsr.py::test_both_expansions_report_their_truncated_products",)),
    Mutant("jsr-estimate-first-partial-dropped", "jsr.py",
           "tuple(partials))", "tuple(partials[1:]))",
           ("tests/test_jsr.py::test_both_expansions_report_their_truncated_products",)),
    Mutant("jsr-estimate-first-factor-skipped", "jsr.py",
           "accumulate(log_factors)]", "accumulate(log_factors[1:])]",
           ("tests/test_jsr.py::test_both_expansions_report_their_truncated_products",)),
    Mutant("jsr-trace-record-ge", "jsr.py",
           "if trace > record:", "if trace >= record:",
           ("tests/test_jsr.py::test_necklace_table_holds_the_per_density_records",)),
    Mutant("jsr-cached-trace-plus-one", "jsr.py",
           "_spectral_radius(trace, 1)", "_spectral_radius(trace + 1, 1)",
           ("tests/test_jsr.py::test_staircase_matches_per_necklace_oracle",)),
    Mutant("jsr-half-trace-wrong-entry", "jsr.py",
           "x[0] * y[0] + x[1] * y[2] + x[2] * y[1]", "x[0] * y[0] + x[1] * y[1] + x[2] * y[1]",
           ("tests/test_jsr.py::test_staircase_matches_per_necklace_oracle",)),
    Mutant("jsr-record-reset-outside-density", "jsr.py",
           "    for ones in range(n + 1):\n        record = 0\n",
           "    record = 0\n    for ones in range(n + 1):\n",
           ("tests/test_jsr.py::test_necklace_table_holds_the_per_density_records",)),
    Mutant("jsr-bounds-split-one-short", "jsr.py",
           "_mul(left[index >> k], right[index & ((1 << k) - 1)])",
           "_mul(left[index >> k], right[index & ((1 << k) - 2)])",
           ("tests/test_jsr.py::test_bounds_match_product_necklace_oracle",)),
    Mutant("cyclic-flag-by-order", "cyclic.py",
           "balanced=r.orbit.representative == balanced_rep,",
           "balanced=r.orbit.representative <= balanced_rep,",
           ("tests/test_cyclic.py::test_balanced_flags_match_is_balanced",)),
    Mutant("measures-support-whole-word", "measures.py",
           "sorted(rotations(b >> (q - t), t))", "sorted(rotations(b, q))",
           ("tests/test_measures.py::test_orbit_support_matches_string_rotation_oracle",)),
    Mutant("measures-gap-ge", "measures.py",
           "if gap > 0:", "if gap >= 0:",
           ("tests/test_measures.py::test_witness_matches_per_threshold_oracle",)),
    Mutant("window-memo-by-weight", "multimodular.py",
           """        if window not in values:
            values[window] = _evaluate(J, tuple(map(int, window)))
        value = values[window]""",
           """        if window.count("1") not in values:
            values[window.count("1")] = _evaluate(J, tuple(map(int, window)))
        value = values[window.count("1")]""",
           ("tests/test_multimodular.py::test_window_average_matches_per_window_oracle",)),
    Mutant("window-slice-short", "multimodular.py",
           "window = stream[k : k + m]", "window = stream[k : k + m - 1]",
           ("tests/test_multimodular.py::test_window_average_matches_per_window_oracle",)),
    Mutant("window-loop-from-one", "multimodular.py",
           "for k in range(n):", "for k in range(1, n):",
           ("tests/test_multimodular.py::test_window_average_matches_per_window_oracle",)),
    Mutant("window-memo-misses-falsy", "multimodular.py",
           "if window not in values:", "if not values.get(window):",
           ("tests/test_multimodular.py::test_window_average_calls_J_once_per_distinct_window",)),
    Mutant("lattice-memo-by-sum", "multimodular.py",
           """        if point not in values:
            values[point] = _evaluate(J, point)
        return values[point]""",
           """        if sum(point) not in values:
            values[sum(point)] = _evaluate(J, point)
        return values[sum(point)]""",
           ("tests/test_multimodular.py::test_check_multimodular_matches_per_triple_oracle",)),
    Mutant("lattice-pair-same-step", "multimodular.py",
           "value(steps[i]) + value(steps[j])", "value(steps[i]) + value(steps[i])",
           ("tests/test_multimodular.py::test_check_multimodular_matches_per_triple_oracle",)),
    Mutant("lattice-memo-misses-falsy", "multimodular.py",
           "if point not in values:", "if not values.get(point):",
           ("tests/test_multimodular.py::test_check_multimodular_calls_J_once_per_lattice_point",)),
    Mutant("wigner-table-line-distance", "wigner.py",
           "potential.value(min(m, q - m))", "potential.value(m)",
           ("tests/test_wigner.py::test_ground_state_matches_pair_oracle",)),
    Mutant("wigner-popcount-shift-long", "wigner.py",
           "(b & (b >> m)).bit_count()", "(b & (b >> (m + 1))).bit_count()",
           ("tests/test_wigner.py::test_popcount_energies_match_pair_oracle",)),
    Mutant("wigner-popcount-with-images", "wigner.py",
           "exact = images == 0 and table.scale is not None",
           "exact = table.scale is not None",
           ("tests/test_wigner.py::test_ground_state_matches_pair_oracle",)),
    Mutant("wigner-popcount-ties-to-first", "wigner.py",
           "tied = [n == least for n in numerators]", "tied = [n == numerators[0] for n in numerators]",
           ("tests/test_wigner.py::test_popcount_energies_match_pair_oracle",
            "tests/test_wigner.py::test_popcount_minima_match_pair_oracle_on_long_rings")),
    Mutant("cyclic-scan-bound-dropped", "cyclic.py",
           "if q_max > EXHAUSTIVE_Q:", "if False:",
           ("tests/test_cli.py::test_orbit_scan_bound_names_its_parameter",)),
    Mutant("wigner-flag-one-copy", "wigner.py",
           "balanced_orbit(p // g, q // g).representative * g",
           "balanced_orbit(p // g, q // g).representative",
           ("tests/test_wigner.py::test_balanced_flags_match_is_balanced",)),
    Mutant("wigner-image-sign", "wigner.py",
           "potential.value(k * q - m)", "potential.value(k * q + m)",
           ("tests/test_wigner.py::test_ring_energy_matches_pair_oracle",)),
    Mutant("cli-param-int-only", "cli.py",
           "params = (float(args.param),)", "params = (int(args.param),)",
           ("tests/test_cli.py::test_wigner_param_reaches_the_factory",)),
    Mutant("cli-param-ignored-without-factory-argument", "cli.py",
           'raise ValueError(f"--potential {args.potential} takes no --param") from None',
           "potential = _POTENTIALS[args.potential]()",
           ("tests/test_cli.py::test_bad_parameter_is_usage_error",)),
    Mutant("cli-queue-gamma-drops-word", "cli.py",
           "if args.gamma is not None and args.word is not None:", "if False:",
           ("tests/test_cli.py::test_bad_parameter_is_usage_error",)),
    Mutant("cli-queue-delta-without-gamma", "cli.py",
           "if args.delta is not None and args.gamma is None:", "if False:",
           ("tests/test_cli.py::test_bad_parameter_is_usage_error",)),
    Mutant("cli-manifest-false-flag-appended", "cli.py",
           "if value is True:", "if isinstance(value, bool):",
           ("tests/test_cli.py::test_manifest_boolean_flag_replays_the_direct_run",)),
    Mutant("cli-manifest-format-for-text-verb", "cli.py",
           "    if verb.columns:\n        argv.extend", "    if True:\n        argv.extend",
           ("tests/test_cli_golden.py::test_artifact_matches_golden_direct_and_replayed",)),
    Mutant("cli-manifest-output-path-unchecked", "cli.py",
           "if not isinstance(output_path, (str, type(None))):", "if False:",
           ("tests/test_cli.py::test_malformed_json_is_usage_error",)),
    Mutant("wigner-exponent-finiteness-dropped", "wigner.py",
           "if not 0 < s <= MAX_POWER:", "if not 0 < s:",
           ("tests/test_cli.py::test_bad_parameter_is_usage_error",
            "tests/test_wigner.py::test_potential_parameter_must_be_positive_and_finite")),
    Mutant("wigner-power-cap-dropped", "wigner.py",
           "if not 0 < s <= MAX_POWER:", "if not 0 < s < math.inf:",
           ("tests/test_wigner.py::test_power_exponent_is_capped_before_energies_grow_huge",
            "tests/test_cli.py::test_bad_parameter_is_usage_error")),
    Mutant("wigner-decay-finiteness-dropped", "wigner.py",
           "    if not 0 < rate < math.inf:\n        raise ValueError(f\"decay rate must be positive"
           " and finite, got {rate}\")\n    return Potential(\"exponential\"",
           "    return Potential(\"exponential\"",
           ("tests/test_cli.py::test_bad_parameter_is_usage_error",
            "tests/test_wigner.py::test_potential_parameter_must_be_positive_and_finite")),
    Mutant("check-cyclic-failures-dropped", "checks.py",
           'failed = [f"{s.p}/{s.q}" for s in scans if not s.passed]', "failed = []",
           ("tests/test_checks.py::test_cyclic_check_fails_on_a_failed_scan",)),
    Mutant("check-heaps-missing-ignored", "checks.py",
           "missing = [s.n for s in scans if not any(map(words.is_balanced, s.argmin))]", "missing = []",
           ("tests/test_checks.py::test_heaps_check_fails_without_a_balanced_argmin",)),
    Mutant("check-wigner-unbalanced-ignored", "checks.py",
           "unbalanced = [f\"{p}/{q}:{v.describe()}\" for (p, q, v), flag in balanced.items() if not flag]",
           "unbalanced = []",
           ("tests/test_checks.py::test_wigner_check_fails_on_an_unbalanced_ground_state",)),
    Mutant("check-queue-verdict-always", "checks.py",
           "ok = losses == 0", "ok = True",
           ("tests/test_checks.py::test_queue_check_fails_when_a_shuffle_beats_the_mechanical_word",)),
    Mutant("check-sturmian-verdict-always", "checks.py",
           "return ok, detail", "return True, detail",
           ("tests/test_checks.py::test_sturmian_measure_check_fails_on_a_moved_support_point",)),
    Mutant("check-convex-verdict-always", "checks.py",
           "return not bad, (", "return True, (",
           ("tests/test_checks.py::test_convex_order_check_fails_on_a_counterexample",)),
    Mutant("check-jsr-monotone-ignored", "checks.py",
           "bounds.lower - 1e-12 and monotone", "bounds.lower - 1e-12",
           ("tests/test_checks.py::test_jsr_check_fails_when_a_longer_product_raises_the_upper_bound",)),
    Mutant("check-alpha-verdict-always", "checks.py",
           "ok = digits >= 30 and cross < 1e-25", "ok = True",
           ("tests/test_checks.py::test_alpha_star_check_fails_when_the_expansions_disagree",)),
    Mutant("check-trace-verdict-always", "checks.py",
           "return not problems, (", "return True, (",
           ("tests/test_checks.py::test_trace_check_fails_on_a_broken_recurrence",)),
    Mutant("check-staircase-verdict-always", "checks.py",
           "ok = monotone and in_range and at_one", "ok = True",
           ("tests/test_checks.py::test_ratio_staircase_check_fails_on_a_wrong_argmax_at_alpha_one",)),
    Mutant("check-words-verdict-always", "checks.py",
           "ok = not unbalanced and mismatches == 0 and not complexity_bad", "ok = True",
           ("tests/test_checks.py::test_words_check_fails_on_an_unbalanced_word_and_oracle_mismatches",)),
)


def _run(src: Path, cwd: Path, args: list[str]) -> subprocess.CompletedProcess:
    # No bytecode: a same-size mutant written within the same second as the
    # original would otherwise reuse a stale .pyc.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


# Hypothesis without shrinking (a kill needs one failing example, not the
# smallest) and with fixed examples, so a kill does not depend on luck.
_PYTEST = """import sys, pytest
from hypothesis import Phase, settings
phases = [Phase.explicit, Phase.generate]
settings.register_profile("mutants", database=None, derandomize=True, phases=phases)
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))
"""


def _pytest(src: Path, cwd: Path, targets) -> subprocess.CompletedProcess:
    nodes = [str(ROOT / t) for t in targets]
    return _run(src, cwd, ["-c", _PYTEST, "-x", "-q", "-rf", "-p", "no:cacheprovider", *nodes])


def _killers(output: str) -> list[str]:
    failed = [line.removeprefix("FAILED ").split(" - ")[0] for line in output.splitlines()
              if line.startswith("FAILED ")]
    return [node[node.rfind("tests/"):] for node in failed]


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    problems = []
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        # Hypothesis keeps its example database under the working directory,
        # so the runs work in the temporary directory, not the repository.
        cwd = Path(tmp)
        src = cwd / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        where = _run(src, cwd, ["-c", "import sturmlab; print(sturmlab.__file__)"]).stdout.strip()
        if not where.startswith(str(src)):
            print(f"the copy is not the imported package: sturmlab comes from {where!r}", file=sys.stderr)
            return 2
        targets = sorted({t for m in chosen for t in m.targets})
        clean = _pytest(src, cwd, targets)
        if clean.returncode != 0:
            print(f"targets fail on the clean copy:\n{clean.stdout}{clean.stderr}", file=sys.stderr)
            return 2
        for m in chosen:
            path = src / "sturmlab" / m.file
            original = path.read_text(encoding="utf-8")
            count = original.count(m.snippet)
            if count != 1:
                problems.append(m.name)
                print(f"STALE     {m.name}: snippet occurs {count} times in {m.file}")
                continue
            path.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            start = time.perf_counter()
            try:
                result = _pytest(src, cwd, m.targets)
            finally:
                path.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - start
            if result.returncode == 1:
                print(f"KILLED    {m.name:<30} {seconds:5.1f}s  by {', '.join(_killers(result.stdout))}")
                continue
            problems.append(m.name)
            verdict = "SURVIVED" if result.returncode == 0 else f"ERROR({result.returncode})"
            print(f"{verdict:<9} {m.name:<30} {seconds:5.1f}s")
            print(result.stdout[-2000:] + result.stderr[-2000:])
    total = time.perf_counter() - started
    print(f"{len(chosen) - len(problems)}/{len(chosen)} mutants killed in {total:.1f}s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
