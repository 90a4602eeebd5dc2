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
    Mutant("contraction-end-bound-loose", "words.py",
           "if head > c + 1 or tail > c + 1:", "if head > c + 2 or tail > c + 2:",
           ("tests/test_words.py::test_balance_matches_hull_oracle_on_every_word_up_to_16",)),
    Mutant("contraction-leftover-unchecked", "words.py",
           "if len(code) != gaps:", "if len(code) < gaps:",
           ("tests/test_words.py::test_balance_matches_hull_oracle_on_every_word_up_to_16",)),
    Mutant("contraction-replaces-swapped", "words.py",
           'code = blocks.replace("0" * (c + 1) + "1", "b").replace("0" * c + "1", "a")',
           'code = blocks.replace("0" * c + "1", "a").replace("0" * (c + 1) + "1", "b")',
           ("tests/test_words.py::test_balance_matches_hull_oracle_on_every_word_up_to_16",)),
    Mutant("contraction-head-block-dropped", "words.py",
           'w = "1" * (head == c + 1) + code', 'w = code',
           ("tests/test_words.py::test_balance_matches_hull_oracle_on_every_word_up_to_16",)),
    Mutant("contraction-least-gap-rounded-up", "words.py",
           "c = (len(blocks) - gaps) // gaps", "c = -((gaps - len(blocks)) // gaps)",
           ("tests/test_words.py::test_balance_matches_hull_oracle_on_every_word_up_to_16",)),
    Mutant("necklace-period-test", "words.py",
           "if q % period == 0:", "if period == q:",
           ("tests/test_words.py::test_enumerate_orbits_matches_oracle",)),
    Mutant("necklace-lowest-zero-off-by-one", "words.py",
           "z = (~b & (b + 1)).bit_length() - 1", "z = (~b & (b + 1)).bit_length() - 2",
           ("tests/test_words.py::test_enumerate_orbits_matches_fixed_density_walk",)),
    Mutant("necklace-zero-word-period", "words.py",
           "b, period = 0, 1", "b, period = 0, q",
           ("tests/test_words.py::test_enumerate_orbits_matches_oracle",
            "tests/test_words.py::test_necklace_readings_are_every_necklace_read_in_base_2")),
    Mutant("necklace-table-drops-all-ones", "words.py",
           """        if q % period == 0:
            ones = b.bit_count()
            readings[ones].append(b)
            periods[ones].append(period)
        if b == full:
            return readings, periods
""",
           """        if b == full:
            return readings, periods
        if q % period == 0:
            ones = b.bit_count()
            readings[ones].append(b)
            periods[ones].append(period)
""",
           ("tests/test_words.py::test_enumerate_orbits_matches_fixed_density_walk",)),
    Mutant("necklace-bucket-misses-last-letter", "words.py",
           "ones = b.bit_count()", "ones = (b >> 1).bit_count()",
           ("tests/test_words.py::test_enumerate_orbits_matches_fixed_density_walk",
            "tests/test_words.py::test_necklace_readings_are_every_necklace_read_in_base_2")),
    Mutant("necklace-table-bound-ge", "words.py",
           "if q > NECKLACE_TABLE_Q:", "if q >= NECKLACE_TABLE_Q:",
           ("tests/test_words.py::test_necklace_table_bound_is_checked_before_any_table_is_built",)),
    Mutant("slope-unreadable-unnamed", "words.py",
           """raise ValueError(f"slope {text!r} is neither 'p/q' nor a number") from None""", "raise",
           ("tests/test_cli.py::test_unreadable_slope_is_named",)),
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
           "(a + c) % b, min(n, b))", "(a + c) % b, min(n, b - 1))",
           ("tests/test_words.py::test_mechanical_word_matches_fraction_oracle",)),
    Mutant("rotation-reflection-off-by-one", "words.py",
           "_rotation_word(b - a, b, b - 1 - r, n)", "_rotation_word(b - a, b, b - r, n)",
           ("tests/test_words.py::test_mechanical_word_matches_floor_pair_oracle",)),
    Mutant("rotation-code-start-off-by-one", "words.py",
           "_rotation_word(s, a, a - 1 - y,", "_rotation_word(s, a, a - y,",
           ("tests/test_words.py::test_mechanical_word_matches_floor_pair_oracle",)),
    Mutant("rotation-blocks-swapped", "words.py",
           '.replace("0", short).replace("L", "0" + short)',
           '.replace("0", "0" + short).replace("L", short)',
           ("tests/test_words.py::test_mechanical_word_matches_floor_pair_oracle",)),
    Mutant("rotation-first-zeros-floor", "words.py",
           "z0 = (b - 1 - r) // a", "z0 = (b - a - r) // a",
           ("tests/test_words.py::test_mechanical_word_matches_floor_pair_oracle",)),
    Mutant("rotation-block-count-floor", "words.py",
           "-((z0 + 1 - n) // q)", "(n - z0 - 1) // q",
           ("tests/test_words.py::test_mechanical_word_matches_floor_pair_oracle",)),
    Mutant("mpf-exponent-sign", "words.py",
           "Fraction(2) ** exp", "Fraction(2) ** -exp",
           ("tests/test_words.py::test_mpf_mechanical_word_matches_exact_oracles",)),
    Mutant("queue-min-for-max", "queueing.py",
           "(last if last > a else a)", "(last if last < a else a)",
           ("tests/test_queueing.py::test_completions_match_recursion_past_a_wrong_guess",)),
    Mutant("queue-start-value", "queueing.py",
           "completions += service_time", "completions += 2 * service_time",
           ("tests/test_queueing.py::test_completions_match_recursion_bitwise",
            "tests/test_queueing.py::test_completions_small_cases")),
    Mutant("queue-long-period-slice-past-end", "queueing.py",
           "completions[start:start + length]", "completions[start:start + length + 1]",
           ("tests/test_queueing.py::test_completions_match_recursion_at_every_load",)),
    Mutant("queue-wavefront-offset-shifted", "queueing.py",
           "at = starts + offset", "at = starts + offset + 1",
           ("tests/test_queueing.py::test_completions_match_recursion_at_every_load",)),
    Mutant("queue-guess-unverified", "queueing.py",
           "if missed.size:\n        j = int(missed[0]) + 1", "if False:\n        j = int(missed[0]) + 1",
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
    Mutant("queue-step-check-off", "queueing.py",
           "if stepped.any():", "if False:",
           ("tests/test_queueing.py::test_closed_form_needs_the_refill_only_off_binary_service_times",
            "tests/test_queueing.py::test_completions_match_recursion_at_every_load")),
    Mutant("queue-closed-form-step-count-off-by-one", "queueing.py",
           "np.multiply(index - heads, service_time, out=buffer)",
           "np.multiply(index - heads + 1, service_time, out=buffer)",
           ("tests/test_queueing.py::test_completions_match_recursion_bitwise",)),
    Mutant("queue-heads-from-guess-after-miss", "queueing.py",
           "np.where(np.concatenate(([True], arrivals[1:] >= completions[:-1])), index, 0)",
           "np.where(guess, index, 0)",
           ("tests/test_queueing.py::test_completions_match_recursion_past_a_wrong_guess",)),
    Mutant("queue-departure-check-lt", "queueing.py",
           "(completions[last + 1] <= arrivals)", "(completions[last + 1] < arrivals)",
           ("tests/test_queueing.py::test_departure_at_an_arrival_instant_is_counted",)),
    Mutant("queue-searchsorted-fallback-off", "queueing.py",
           'last[missed] = np.minimum(np.searchsorted(completions, arrivals[missed], side="right"), missed) - 1',
           "pass",
           ("tests/test_queueing.py::test_departure_at_an_arrival_instant_is_counted",)),
    Mutant("queue-departure-estimate-unclipped", "queueing.py",
           "np.clip(estimate, heads - 1, index - 1, out=estimate)", "np.maximum(estimate, heads - 1, out=estimate)",
           ("tests/test_queueing.py::test_simulation_matches_event_loop_at_extreme_service_times",
            "tests/test_queueing.py::test_in_system_matches_searchsorted_oracle")),
    Mutant("queue-config-accepts-bool-integers", "queueing.py",
           "if type(getattr(self, name)) is not int:", "if not isinstance(getattr(self, name), int):",
           ("tests/test_queueing.py::test_config_integers_are_ints",)),
    Mutant("queue-density-counts-zeros", "queueing.py",
           'self.admission.encode(), np.uint8) == ord("1")', 'self.admission.encode(), np.uint8) == ord("0")',
           ("tests/test_queueing.py::test_admission_density_counts_the_ones",)),
    Mutant("queue-density-over-horizon", "queueing.py",
           "Fraction(int(ones), len(self.admission))", "Fraction(int(ones), self.horizon)",
           ("tests/test_queueing.py::test_admission_density_counts_the_ones",)),
    Mutant("queue-gather-drops-last-admission", "queueing.py",
           'ord("1"), config.horizon))', 'ord("1"), config.horizon)[:-1])',
           ("tests/test_queueing.py::test_simulation_matches_event_loop",)),
    Mutant("queue-gather-rejected", "queueing.py",
           'word.encode(), np.uint8) == ord("1")', 'word.encode(), np.uint8) != ord("1")',
           ("tests/test_queueing.py::test_simulation_matches_event_loop",)),
    Mutant("queue-admission-unchecked", "queueing.py",
           "elif not isinstance(self.admission, MechanicalSpec):", "elif False:",
           ("tests/test_cli.py::test_malformed_json_is_usage_error",)),
    Mutant("queue-config-drops-present-key", "queueing.py",
           "for f in fields(QueueConfig) if f.name in data}",
           'for f in fields(QueueConfig) if f.name in data and f.name != "service_time"}',
           ("tests/test_queueing.py::test_every_present_key_reaches_the_config",)),
    Mutant("queue-config-float-casts-strings", "queueing.py",
           "if type(value) not in (int, float):", "if type(value) not in (int, float, str):",
           ("tests/test_queueing.py::test_config_floats_are_json_numbers",)),
    Mutant("heaps-dot-compare-flipped", "heaps.py",
           "return max(map(operator.add, row, column))", "return min(map(operator.add, row, column))",
           ("tests/test_heaps.py::test_integer_product_matches_fraction_oracles",)),
    Mutant("heaps-untouched-column-lost", "heaps.py",
           "matrix = [[0 if i == j else -math.inf", "matrix = [[-math.inf if i == j else -math.inf",
           ("tests/test_heaps.py::test_integer_product_matches_fraction_oracles",)),
    Mutant("heaps-karp-unreached-kept", "heaps.py",
           "for v, final in enumerate(walks[n]) if final > -math.inf]", "for v, final in enumerate(walks[n])]",
           ("tests/test_heaps.py::test_max_cycle_mean_requires_a_cycle",)),
    Mutant("heaps-rate-unscaled", "heaps.py",
           "return max_cycle_mean(matrix) / (len(w) * d)", "return max_cycle_mean(matrix) / len(w)",
           ("tests/test_heaps.py::test_integer_product_matches_fraction_oracles",)),
    Mutant("heaps-bound-ge", "heaps.py",
           "if max(map(operator.add, heights, tails[left])) > best:",
           "if max(map(operator.add, heights, tails[left])) >= best:",
           ("tests/test_heaps.py::test_min_rate_matches_exhaustive_dfs_oracle",)),
    Mutant("heaps-tails-from-ground", "heaps.py",
           "units = [tuple(0 if i == j else -math.inf for i in columns) for j in columns]",
           "units = [ground for j in columns]",
           ("tests/test_heaps.py::test_min_rate_matches_exhaustive_dfs_oracle",)),
    Mutant("heaps-start-top-is-min", "heaps.py",
           "[[start], [max(start)]]", "[[start], [min(start)]]",
           ("tests/test_heaps.py::test_min_rate_matches_exhaustive_dfs_oracle",)),
    Mutant("heaps-profile-top-is-min", "heaps.py",
           "minima.append(min(map(max, frontier)))", "minima.append(min(map(min, frontier)))",
           ("tests/test_heaps.py::test_min_rate_matches_exhaustive_dfs_oracle",)),
    Mutant("heaps-pareto-any-coordinate", "heaps.py",
           "if not any(all(", "if not any(any(",
           ("tests/test_heaps.py::test_min_rate_matches_exhaustive_dfs_oracle",)),
    Mutant("heaps-frontier-stops-short", "heaps.py",
           "while len(minima) <= n:", "while len(minima) < n:",
           ("tests/test_heaps.py::test_shared_frontier_matches_a_fresh_model_in_any_order",)),
    Mutant("heaps-frontier-keyed-without-start", "heaps.py",
           "model._frontiers.setdefault(start,", "model._frontiers.setdefault(len(start),",
           ("tests/test_heaps.py::test_min_rate_matches_exhaustive_dfs_oracle",)),
    Mutant("heaps-frontier-kept-stale", "heaps.py",
           "        state[0] = frontier\n", "",
           ("tests/test_heaps.py::test_shared_frontier_matches_a_fresh_model_in_any_order",)),
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
    Mutant("jsr-alpha-builds-one-matrix-more", "jsr.py",
           "cf = ContinuedFraction(quotients[: terms + 1])", "cf = ContinuedFraction(quotients[: terms + 2])",
           ("tests/test_jsr.py::test_alpha_inverse_builds_only_the_matrices_it_reads",)),
    Mutant("jsr-alpha-builds-one-matrix-less", "jsr.py",
           "cf = ContinuedFraction(quotients[: terms + 1])", "cf = ContinuedFraction(quotients[:terms])",
           ("tests/test_jsr.py::test_alpha_inverse_builds_only_the_matrices_it_reads",)),
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
    Mutant("jsr-bounds-order-per-density", "jsr.py",
           "necklaces = sorted(b for ones in range(n + 1) for b, _ in enumerate_orbits(ones, n))",
           "necklaces = [b for ones in range(n + 1) for b, _ in enumerate_orbits(ones, n)]",
           ("tests/test_jsr.py::test_cross_density_ties_name_the_numerically_least_necklace",)),
    Mutant("jsr-bounds-takes-one-matrix", "jsr.py",
           "if len(matrices) != 2:", "if not 1 <= len(matrices) <= 2:",
           ("tests/test_jsr.py::test_bounds_take_exactly_a_pair",)),
    Mutant("jsr-bounds-split-one-short", "jsr.py",
           "_mul(left[index >> k], right[index & ((1 << k) - 1)])",
           "_mul(left[index >> k], right[index & ((1 << k) - 2)])",
           ("tests/test_jsr.py::test_bounds_match_product_necklace_oracle",)),
    Mutant("jsr-mpmath-at-top", "jsr.py",
           "from .words import ContinuedFraction, enumerate_orbits\n",
           "import mpmath as mp\nfrom .words import ContinuedFraction, enumerate_orbits\n",
           ("tests/test_exports.py::test_imports_load_only_what_they_use",
            "tests/test_exports.py::test_jsr_loads_mpmath_on_its_first_alpha_call")),
    Mutant("jsr-bits-bound-excludes-itself", "jsr.py",
           "if not 128 <= bits <= MAX_ALPHA_BITS:", "if not 128 <= bits < MAX_ALPHA_BITS:",
           ("tests/test_jsr.py::test_precision_is_bounded_above",)),
    Mutant("jsr-bits-bound-one-over", "jsr.py",
           "if not 128 <= bits <= MAX_ALPHA_BITS:", "if not 128 <= bits <= MAX_ALPHA_BITS + 1:",
           ("tests/test_jsr.py::test_precision_is_bounded_above",)),
    Mutant("jsr-matching-digits-counts-the-point", "jsr.py",
           "ALPHA_STAR_DECIMAL])) - 2, 0)", "ALPHA_STAR_DECIMAL])) - 1, 0)",
           ("tests/test_jsr.py::test_matching_digits_counts_prefix",)),
    Mutant("checks-pool-at-top", "checks.py",
           "from dataclasses import dataclass\n",
           "from concurrent.futures import ProcessPoolExecutor\nfrom dataclasses import dataclass\n",
           ("tests/test_exports.py::test_imports_load_only_what_they_use",)),
    Mutant("orbit-unslotted", "words.py",
           "@dataclass(frozen=True, slots=True)\nclass Orbit:", "@dataclass(frozen=True)\nclass Orbit:",
           ("tests/test_exports.py::test_per_orbit_rows_are_slotted_frozen_records",)),
    Mutant("cyclic-flag-by-order", "cyclic.py",
           "f[0] == balanced", "f[0] <= balanced",
           ("tests/test_cyclic.py::test_balanced_flags_match_is_balanced",)),
    Mutant("orbit-product-greatest-reading", "cyclic.py",
           "values.index(min(values))", "values.index(max(values))",
           ("tests/test_cyclic.py::test_orbit_is_the_least_rotation_exhaustively",)),
    Mutant("orbit-product-parses-unchecked", "cyclic.py",
           "if not check_word(w):", "if not w:",
           ("tests/test_cyclic.py::test_orbit_product_rejects_what_is_not_a_word",)),
    Mutant("cyclic-row-word-unpadded", "cyclic.py",
           'ProductScanRow(format(f[0], f"0{q}b")', 'ProductScanRow(format(f[0], "b")',
           ("tests/test_cyclic.py::test_product_scans_match_string_rotation_oracle",)),
    Mutant("cyclic-summary-word-unpadded", "cyclic.py",
           'argmax = tuple(format(f[0], f"0{q}b")', 'argmax = tuple(format(f[0], "b")',
           ("tests/test_cyclic.py::test_summaries_match_the_scan_rows",)),
    Mutant("cyclic-summary-tied-argmax-passes", "cyclic.py",
           "argmax == (balanced_rep,)", "balanced_rep in argmax",
           ("tests/test_cyclic.py::test_a_tied_maximum_fails_the_claim",)),
    Mutant("cyclic-summary-counts-argmax", "cyclic.py",
           "ProductSummary(p, q, len(factors),", "ProductSummary(p, q, len(argmax),",
           ("tests/test_cyclic.py::test_summaries_match_the_scan_rows",)),
    Mutant("measures-support-whole-word", "measures.py",
           "sorted(rotations(b >> (q - t), t))", "sorted(rotations(b, q))",
           ("tests/test_measures.py::test_orbit_support_matches_string_rotation_oracle",)),
    Mutant("measures-gap-ge", "measures.py",
           "if gap > 0:", "if gap >= 0:",
           ("tests/test_measures.py::test_witness_matches_per_threshold_oracle",)),
    Mutant("class-lcm-points-first-form-only", "measures.py",
           "d, m = math.lcm(*(form[0] for form in forms)),", "d, m = forms[0][0],",
           ("tests/test_measures.py::test_class_scan_matches_mixture_oracle_at_every_small_size",)),
    Mutant("class-lcm-weights-first-form-only", "measures.py",
           "math.lcm(*(form[2] for form in forms))", "forms[0][2]",
           ("tests/test_measures.py::test_class_scan_matches_mixture_oracle_at_every_small_size",)),
    Mutant("class-moment-unweighted", "measures.py",
           "sum(x * v for x, v in pairs)", "sum(x for x, v in pairs)",
           ("tests/test_measures.py::test_class_scan_matches_mixture_oracle_at_every_small_size",)),
    Mutant("class-net-unsorted", "measures.py",
           "net = sorted([(x, f * v) for f, (pairs, _, _) in terms for x, v in pairs])",
           "net = [(x, f * v) for f, (pairs, _, _) in terms for x, v in pairs]",
           ("tests/test_measures.py::test_verify_sturmian_least_matches_mixture_oracle",)),
    Mutant("mixture-coefficient-unscaled", "measures.py",
           "(x, v * int(f * c))", "(x, v * f.numerator)",
           ("tests/test_measures.py::test_witness_matches_per_threshold_oracle",)),
    Mutant("mixture-mass-of-one-form", "measures.py",
           "Fraction(sum(v for _, v in group), c * forms[0][1])", "Fraction(sum(v for _, v in group), forms[0][1])",
           ("tests/test_measures.py::test_witness_matches_per_threshold_oracle",)),
    Mutant("class-moment-check-dropped", "measures.py",
           "if sum(f * moment for f, (_, _, moment) in terms):", "if False:",
           ("tests/test_measures.py::test_class_scan_refuses_a_stand_in_of_another_density",)),
    Mutant("class-mass-check-dropped", "measures.py",
           "if sum(f * mass for f, (_, mass, _) in terms):", "if False:",
           ("tests/test_measures.py::test_signed_sweep_requires_cancelling_mass_and_barycenter",)),
    Mutant("window-memo-by-weight", "multimodular.py",
           """        codes <<= 1
        codes |= bits[j : j + n]""",
           """        codes += bits[j : j + n]""",
           ("tests/test_multimodular.py::test_window_average_matches_per_window_oracle",)),
    Mutant("window-slice-short", "multimodular.py",
           "for j in range(m):", "for j in range(m - 1):",
           ("tests/test_multimodular.py::test_window_average_matches_per_window_oracle",)),
    Mutant("window-loop-from-one", "multimodular.py",
           "symbol_stream(source, n + m - 1).encode()", "symbol_stream(source, n + m)[1:].encode()",
           ("tests/test_multimodular.py::test_window_average_matches_per_window_oracle",)),
    Mutant("window-memo-misses-falsy", "multimodular.py",
           "for code in distinct:", "for code in distinct + distinct[:1]:",
           ("tests/test_multimodular.py::test_window_average_calls_J_once_per_distinct_window",)),
    Mutant("window-code-bits-reversed", "multimodular.py",
           "code >> (m - 1 - j) & 1", "code >> j & 1",
           ("tests/test_multimodular.py::test_window_average_matches_per_window_oracle",)),
    Mutant("window-code-dtype-one-byte", "multimodular.py",
           "np.min_scalar_type((1 << m) - 1)", "np.uint8",
           ("tests/test_multimodular.py::test_window_code_width_bounds_the_arity",)),
    Mutant("window-arity-unbounded", "multimodular.py",
           "if not 0 <= m <= 64:", "if not 0 <= m:",
           ("tests/test_multimodular.py::test_window_code_width_bounds_the_arity",)),
    Mutant("window-arity-negative-accepted", "multimodular.py",
           "if not 0 <= m <= 64:", "if not m <= 64:",
           ("tests/test_multimodular.py::test_window_code_width_bounds_the_arity",)),
    Mutant("window-count-accepts-bool", "multimodular.py",
           "if not isinstance(n, int) or isinstance(n, bool):", "if not isinstance(n, int):",
           ("tests/test_multimodular.py::test_window_count_must_be_an_int",)),
    Mutant("window-exact-sum-ignores-counts", "multimodular.py",
           "Fraction(sum(map(mul, counts, values)), n)", "Fraction(sum(values), len(values))",
           ("tests/test_multimodular.py::test_window_average_matches_per_window_oracle",)),
    Mutant("window-exact-sum-takes-floats", "multimodular.py",
           "isinstance(value, (int, Fraction))", "isinstance(value, (int, Fraction, float))",
           ("tests/test_multimodular.py::test_window_average_matches_per_window_oracle",)),
    Mutant("window-float-sum-in-code-order", "multimodular.py",
           ".__getitem__, codes.tolist())", ".__getitem__, sorted(codes.tolist()))",
           ("tests/test_multimodular.py::test_window_average_matches_per_window_oracle",)),
    Mutant("window-float-sum-rounded-once", "multimodular.py",
           "reduce(add, map(", "__import__(\"math\").fsum(map(",
           ("tests/test_multimodular.py::test_window_average_matches_per_window_oracle",)),
    Mutant("window-error-of-last-bad-window", "multimodular.py",
           "codes[failed.argmax()]", "codes[len(failed) - 1 - failed[::-1].argmax()]",
           ("tests/test_multimodular.py::test_window_average_fails_at_the_oracles_first_bad_window",)),
    Mutant("window-error-of-least-bad-code", "multimodular.py",
           "raise errors[int(codes[failed.argmax()])]", "raise next(iter(errors.values()))",
           ("tests/test_multimodular.py::test_window_average_fails_at_the_oracles_first_bad_window",)),
    Mutant("lattice-empty-box-accepted", "multimodular.py",
           "if lo > hi:", "if False:",
           ("tests/test_multimodular.py::test_empty_box_is_refused_by_coordinate",)),
    Mutant("lattice-empty-box-misnamed", "multimodular.py",
           "for i, (lo, hi) in enumerate(box):", "for i, (lo, hi) in enumerate(box, 1):",
           ("tests/test_multimodular.py::test_empty_box_is_refused_by_coordinate",)),
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
           "d = min(m, q - m)  #", "d = m  #",
           ("tests/test_wigner.py::test_ground_state_matches_pair_oracle",)),
    Mutant("wigner-images-around-offset", "wigner.py",
           "potential.value(d + k * q) + potential.value(k * q - d)",
           "potential.value(m + k * q) + potential.value(k * q - m)",
           ("tests/test_wigner.py::test_ring_energy_matches_pair_oracle",
            "tests/test_wigner.py::test_energy_is_rotation_invariant")),
    Mutant("wigner-summary-ties-without-margin", "wigner.py",
           "tied = [n / scale <= ceiling + TIE_MARGIN * abs(ceiling) for n in numerators]",
           "tied = [n / scale <= ceiling for n in numerators]",
           ("tests/test_wigner.py::test_float_energies_tie_within_the_margin",)),
    Mutant("wigner-summary-any-argmin-balanced", "wigner.py",
           "all(map(is_balanced, argmin))", "any(map(is_balanced, argmin))",
           ("tests/test_wigner.py::test_float_energies_tie_within_the_margin",)),
    Mutant("wigner-summary-word-unpadded", "wigner.py",
           'argmin = tuple(format(b, f"0{q}b")', 'argmin = tuple(format(b, "b")',
           ("tests/test_wigner.py::test_summary_matches_the_report_rows",)),
    Mutant("wigner-summary-count-argmin", "wigner.py",
           "GroundStateSummary(len(readings),", "GroundStateSummary(len(argmin),",
           ("tests/test_wigner.py::test_summary_matches_the_report_rows",)),
    Mutant("wigner-popcount-shift-long", "wigner.py",
           "(b & (b >> m)).bit_count()", "(b & (b >> (m + 1))).bit_count()",
           ("tests/test_wigner.py::test_popcount_energies_match_pair_oracle",
            "tests/test_wigner.py::test_ground_state_matches_pair_oracle")),
    Mutant("wigner-popcount-with-images", "wigner.py",
           "exact = images == 0 and fractions", "exact = fractions",
           ("tests/test_wigner.py::test_ground_state_matches_pair_oracle",)),
    Mutant("wigner-float-value-rounded", "wigner.py",
           "values[m] = Fraction(value)", "values[m] = Fraction(value).limit_denominator(2**20)",
           ("tests/test_wigner.py::test_ground_state_matches_pair_oracle",)),
    Mutant("wigner-float-report-without-pairs", "wigner.py",
           "fractions = p < 2 or isinstance(potential.value(1), Fraction)",
           "fractions = isinstance(potential.value(1), Fraction)",
           ("tests/test_wigner.py::test_ground_state_matches_pair_oracle",)),
    Mutant("wigner-tail-wrong-offset", "wigner.py",
           "Fraction(potential.image_tail(d, q, images))",
           "Fraction(potential.image_tail(m, q, images))",
           ("tests/test_wigner.py::test_ground_state_matches_pair_oracle",)),
    Mutant("wigner-envelope-without-tails", "wigner.py",
           "min(_pair_sums(readings, envelopes))", "min(_pair_sums(readings, values))",
           ("tests/test_wigner.py::test_ground_state_matches_pair_oracle",)),
    Mutant("wigner-scale-misses-envelopes", "wigner.py",
           "(*values.values(), *envelopes.values())", "values.values()",
           ("tests/test_wigner.py::test_ground_state_matches_pair_oracle",)),
    Mutant("wigner-popcount-ties-to-first", "wigner.py",
           "tied = [n == least for n in numerators]", "tied = [n == numerators[0] for n in numerators]",
           ("tests/test_wigner.py::test_popcount_energies_match_pair_oracle",
            "tests/test_wigner.py::test_popcount_minima_match_pair_oracle_on_long_rings")),
    Mutant("potential-key-untyped", "wigner.py",
           "return self.kind, tuple((type(x), x) for x in self.params)", "return self.kind, self.params",
           ("tests/test_wigner.py::test_cached_pair_tables_follow_parameter_types_and_images",)),
    Mutant("potential-hash-untyped", "wigner.py",
           "return hash(self._key())", "return hash((self.kind, self.params))",
           ("tests/test_wigner.py::test_potential_equality_keeps_parameter_types",)),
    Mutant("pair-table-cache-dropped", "wigner.py",
           "@lru_cache(maxsize=256)\n", "",
           ("tests/test_acceptance.py::test_hot_checks_scale_each_class_once",)),
    Mutant("pair-table-cache-unbounded", "wigner.py",
           "@lru_cache(maxsize=256)", "@lru_cache(maxsize=None)",
           ("tests/test_wigner.py::test_pair_tables_are_shared_read_only_and_bounded",)),
    Mutant("pair-table-entries-mutable", "wigner.py",
           "return scale, *(tuple((m,", "return scale, *(list((m,",
           ("tests/test_wigner.py::test_pair_tables_are_shared_read_only_and_bounded",)),
    Mutant("cyclic-scan-bound-dropped", "cyclic.py",
           "if q_max > EXHAUSTIVE_Q:", "if False:",
           ("tests/test_cli.py::test_orbit_scan_bound_names_its_parameter",)),
    Mutant("necklace-word-unpadded", "wigner.py",
           'Orbit(format(b, f"0{q}b"), period)', 'Orbit(format(b, "b"), period)',
           ("tests/test_wigner.py::test_ground_state_matches_pair_oracle",)),
    Mutant("wigner-tail-one-minus-exp", "wigner.py",
           "/ -math.expm1(-lam * q)", "/ (1 - math.exp(-lam * q))",
           ("tests/test_wigner.py::test_exponential_tail_bound_holds_at_small_rates",)),
    Mutant("wigner-tail-overflow-unchecked", "wigner.py",
           "if not math.isfinite(bound):", "if False:",
           ("tests/test_wigner.py::test_exponential_tail_bound_holds_at_small_rates",
            "tests/test_cli.py::test_bad_parameter_is_usage_error")),
    Mutant("wigner-flag-one-copy", "wigner.py",
           "balanced_orbit(p // g, q // g).representative * g",
           "balanced_orbit(p // g, q // g).representative",
           ("tests/test_wigner.py::test_balanced_flags_match_is_balanced",)),
    Mutant("wigner-image-sign", "wigner.py",
           "potential.value(k * q - d)", "potential.value(k * q + d)",
           ("tests/test_wigner.py::test_ground_state_matches_pair_oracle",)),
    Mutant("cli-heaps-n-max-unbounded", "cli.py",
           "if not 1 <= args.n_max <= heaps.MAX_EXHAUSTIVE_N:", "if args.n_max < 1:",
           ("tests/test_cli.py::test_heaps_scan_names_its_flag_before_any_search",)),
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
    Mutant("cli-queue-file-over-flags", "cli.py",
           "data | {k: v for k, v in flags.items() if v is not None}",
           "{k: v for k, v in flags.items() if v is not None} | data",
           ("tests/test_cli.py::test_flag_wins_over_its_config_key",)),
    Mutant("cli-queue-file-unchecked-first", "cli.py",
           "    queueing.queue_config_from_dict(data)  # the file is checked as written first\n", "",
           ("tests/test_cli.py::test_config_file_error_wins_over_flag_errors",)),
    Mutant("cli-manifest-false-flag-appended", "cli.py",
           "if value is True:", "if isinstance(value, bool):",
           ("tests/test_cli.py::test_manifest_boolean_flag_replays_the_direct_run",)),
    Mutant("cli-manifest-format-for-text-verb", "cli.py",
           "    if verb.columns:\n        argv.extend", "    if True:\n        argv.extend",
           ("tests/test_cli_golden.py::test_artifact_matches_golden_direct_and_replayed",)),
    Mutant("cli-manifest-verb-key-unchecked", "cli.py",
           'if "verb" not in data:', "if False:",
           ("tests/test_cli.py::test_input_file_names_its_missing_key",)),
    Mutant("heaps-model-missing-key-unnamed", "heaps.py",
           'raise ValueError(f"heap model needs a {exc.args[0]!r} key") from None', "raise",
           ("tests/test_cli.py::test_input_file_names_its_missing_key",)),
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
    Mutant("check-repeated-name-allowed", "checks.py",
           "if name in selected[:i]:", "if False:",
           ("tests/test_cli.py::test_repeated_check_is_usage_error",)),
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
    Mutant("check-balance-oracle-spread-3", "checks.py",
           "ones.max(axis=0) - ones.min(axis=0) >= 2", "ones.max(axis=0) - ones.min(axis=0) >= 3",
           ("tests/test_checks.py::test_batch_balance_oracle_matches_the_per_word_loop",)),
    Mutant("check-balance-oracle-counts-shifted", "checks.py",
           "((1, 0), (0, 0)))", "((0, 1), (0, 0)))",
           ("tests/test_checks.py::test_batch_balance_oracle_matches_the_per_word_loop",)),
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
