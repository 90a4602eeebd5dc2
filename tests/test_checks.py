"""Each verdict in the battery can fail: a verdict fed one failing outcome says FAIL.

Every test runs its check's real search, turns one part of the outcome into a
failing one (with ``dataclasses.replace`` where the part is a library result),
calls the verdict on it directly, and requires the verdict to fail and to name
the failure in its detail line.
"""

from dataclasses import replace
from fractions import Fraction

import mpmath as mp

from sturmlab import checks


def _verdict_and_outcome(name):
    search, verdict = checks.CHECKS[name]
    return verdict, search()


def test_cyclic_check_fails_on_a_failed_scan():
    verdict, (b_10100, b_11000, scans) = _verdict_and_outcome("cyclic-products")
    scans = [replace(s, argbest=("00011",)) if (s.p, s.q) == (2, 5) else s for s in scans]
    passed, detail = verdict(b_10100, b_11000, scans)
    assert not passed
    assert "failures: ['2/5']" in detail


def test_sturmian_measure_check_fails_on_a_moved_support_point():
    verdict, (mu,) = _verdict_and_outcome("sturmian-measure")
    moved = replace(mu, points=mu.points[:-1] + (Fraction(21, 31),))
    passed, detail = verdict(moved)
    assert not passed
    assert "support {5/31, 9/31, 10/31, 18/31, 21/31}" in detail


def test_convex_order_check_fails_on_a_counterexample():
    verdict, (scans,) = _verdict_and_outcome("convex-order")
    scans = [replace(s, counterexamples=("1100000",)) if (s.p, s.q) == (2, 7) else s for s in scans]
    passed, detail = verdict(scans)
    assert not passed
    assert "counterexamples: ['2/7']" in detail


def test_jsr_check_fails_when_a_longer_product_raises_the_upper_bound():
    verdict, (bounds,) = _verdict_and_outcome("jsr-golden-ratio")
    rows = bounds.rows[:-1] + (replace(bounds.rows[-1], upper=2.0),)
    passed, detail = verdict(replace(bounds, rows=rows))
    assert not passed
    assert "per-length uppers non-increasing: False" in detail


def test_alpha_star_check_fails_when_the_expansions_disagree():
    verdict, (via_tau, via_rho) = _verdict_and_outcome("alpha-star-digits")
    passed, detail = verdict(via_tau, replace(via_rho, value=mp.mpf("0.75")))
    assert not passed
    assert "|tau-form - rho-form| = 6.735e-04" in detail


def test_trace_check_fails_on_a_broken_recurrence():
    verdict, (traces, reference) = _verdict_and_outcome("trace-recurrence")
    traces["shifted"][7] += 1
    passed, detail = verdict(traces, reference)
    assert not passed
    assert "failures: ['shifted@B_6', 'shifted@B_7', 'shifted@B_8', 'shifted@B_9']" in detail


def test_ratio_staircase_check_fails_on_a_wrong_argmax_at_alpha_one():
    verdict, (rows,) = _verdict_and_outcome("ratio-staircase")
    rows = rows[:-1] + [replace(rows[-1], necklace="0" * 14)]
    passed, detail = verdict(rows)
    assert not passed
    assert "argmax at alpha=1: 00000000000000" in detail


def test_heaps_check_fails_without_a_balanced_argmin():
    verdict, (scans, best) = _verdict_and_outcome("heaps-balanced")
    scans = [replace(s, argmin=("110100",)) if s.n == 6 else s for s in scans]
    passed, detail = verdict(scans, best)
    assert not passed
    assert "(failures: [6])" in detail


def test_wigner_check_fails_on_an_unbalanced_ground_state():
    verdict, (shipped_convex, anti_convex, balanced, anti) = _verdict_and_outcome(
        "wigner-ground-states"
    )
    balanced = {key: ok and key[:2] != (5, 13) for key, ok in balanced.items()}
    passed, detail = verdict(shipped_convex, anti_convex, balanced, anti)
    assert not passed
    assert "failures: ['5/13:coulomb', '5/13:power(3)', '5/13:exponential(1.0)']" in detail


def test_words_check_fails_on_an_unbalanced_word_and_oracle_mismatches():
    verdict, (balanced, _, complexities) = _verdict_and_outcome("words-core")
    balanced[Fraction(2, 5), Fraction(1, 3)] = False
    passed, detail = verdict(balanced, 3, complexities)
    assert not passed
    assert "(failures: [('2/5', '1/3')])" in detail
    assert "all words up to length 12: 3;" in detail


def _naive_balance(w: str) -> bool:
    """Per-word reference: windows of one length n < |w| differ by >= 2 ones."""
    counts = [0]
    for ch in w:
        counts.append(counts[-1] + (ch == "1"))
    m = len(w)
    for n in range(1, m):
        ones = [counts[i + n] - counts[i] for i in range(m - n + 1)]
        if max(ones) - min(ones) >= 2:
            return False
    return True


def test_batch_balance_oracle_matches_the_per_word_loop():
    for m in range(1, 13):
        assert checks._balance_oracle(m) == [_naive_balance(format(b, f"0{m}b")) for b in range(2**m)], m


def test_queue_check_fails_when_a_shuffle_beats_the_mechanical_word():
    verdict, (rows,) = _verdict_and_outcome("queue-admission")
    rows[7] = replace(rows[7], mean_cost=rows[0].mean_cost / 2)
    passed, detail = verdict(rows)
    assert not passed
    assert "competitors beaten: 49/50" in detail
