"""Headline verification battery behind ``sturmlab verify-all``.

Each check re-derives one of the package's central claims from scratch at
desk scale.  It is a (search, verdict) pair: the search takes no argument,
makes the library calls and returns only what the verdict reads; the verdict
is a plain function of those values that returns (passed, detail line), so a
test can feed it a failing outcome directly.  Oracles like the all-pairs
balance test live here, next to the claims they certify, so a check cannot
silently degenerate into comparing a function with itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import cyclic, heaps, jsr, measures, queueing, wigner, words

__all__ = ["CheckResult", "CHECKS", "run_check", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _cyclic_search():
    products = (cyclic.orbit_product(w).product for w in ("10100", "11000"))
    return (*products, cyclic.summarize_coprime_pairs(14))


def _cyclic_products(b_10100, b_11000, scans) -> tuple[bool, str]:
    """Exact orbit products and the balanced-maximizer scan to q = 14."""
    failed = [f"{s.p}/{s.q}" for s in scans if not s.balanced]
    return b_10100 == 162000 and b_11000 == 88128 and not failed, (
        f"B(10100)={b_10100}, B(11000)={b_11000}; "
        f"{len(scans)} coprime pairs scanned, failures: {failed or 'none'}"
    )


def _sturmian_measure(mu) -> tuple[bool, str]:
    """Support, weights and barycenter of the 2/5 orbit measure, exactly."""
    ok = (
        mu.points == tuple(Fraction(k, 31) for k in (5, 9, 10, 18, 20))
        and set(mu.weights) == {Fraction(1, 5)}
        and mu.barycenter == Fraction(2, 5)
    )
    support = ", ".join(words.format_fraction(x) for x in mu.points)
    detail = f"support {{{support}}}, weights 1/5, barycenter {words.format_fraction(mu.barycenter)}"
    return ok, detail


def _convex_order(scans) -> tuple[bool, str]:
    """Balanced measures are convex-order least among same-mean competitors."""
    bad = [f"{s.p}/{s.q}" for s in scans if not s.passed]
    competitors = sum(s.competitors for s in scans)
    mixtures = sum(s.mixtures for s in scans)
    return not bad, (
        f"{len(scans)} slope classes, {competitors} orbit competitors, "
        f"{mixtures} random mixtures, counterexamples: {bad or 'none'}"
    )


def _jsr_golden_ratio(bounds) -> tuple[bool, str]:
    """Bracketing bounds collapse onto the golden ratio by length 2."""
    phi = (1 + math.sqrt(5)) / 2
    uppers = [row.upper for row in bounds.rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))
    ok = abs(bounds.lower - phi) <= 1e-12 and bounds.upper >= bounds.lower - 1e-12 and monotone
    return ok, (
        f"lower={bounds.lower!r}, upper={bounds.upper!r}, phi={phi!r}, "
        f"per-length uppers non-increasing: {monotone}"
    )


def _alpha_star_search():
    return jsr.alpha_star_tau(12), jsr.alpha_inverse(words.ContinuedFraction((1,) * 14), 12)


def _alpha_star_digits(via_tau, via_rho) -> tuple[bool, str]:
    """Two independent expansions of the threshold constant agree."""
    digits = jsr.matching_digits(via_tau.value)
    cross = abs(via_tau.value - via_rho.value)
    ok = digits >= 30 and cross < 1e-25
    return ok, (
        f"{digits} reference digits matched, |tau-form - rho-form| = "
        f"{float(cross):.3e}, bracket width {float(via_tau.error):.3e}"
    )


def _trace_search():
    traces = {
        label: [m[0] + m[3] for m in jsr.standard_matrices(words.ContinuedFraction(quotients))]
        for label, quotients in (("golden", (1,) * 16), ("shifted", (2,) + (1,) * 15))
    }
    return traces, jsr.tau_sequence(17)


def _trace_recurrence(traces, reference) -> tuple[bool, str]:
    """tr(B_{n+1}) = tr(B_n) tr(B_{n-1}) - tr(B_{n-2}), exact integers."""
    problems = [
        f"{label}@B_{i - 1}"
        for label, taus in traces.items()
        for i in range(4, len(taus))
        if taus[i] != taus[i - 1] * taus[i - 2] - taus[i - 3]
    ]
    golden = traces["golden"]
    problems += [f"seeded-offset@{k}" for k in range(2, 18) if reference[k] != golden[k - 1]]
    return not problems, (
        "recurrence exact for n <= 15 on two quotient patterns and the "
        f"seeded sequence aligns at offset 2; failures: {problems or 'none'}"
    )


def _ratio_staircase(rows) -> tuple[bool, str]:
    """Optimal 1-density over a 50-point alpha grid is a staircase."""
    ratios = [row.ratio for row in rows]
    monotone = all(a <= b for a, b in zip(ratios, ratios[1:]))
    in_range = all(0 <= r <= Fraction(1, 2) for r in ratios)
    at_one = rows[-1].necklace == "01" * 7
    ok = monotone and in_range and at_one
    return ok, (
        f"ratios step {words.format_fraction(ratios[0])} -> "
        f"{words.format_fraction(ratios[-1])}, non-decreasing: {monotone}, "
        f"within [0, 1/2]: {in_range}, argmax at alpha=1: {rows[-1].necklace}"
    )


def _heaps_search():
    model = heaps.default_model()
    scans = [heaps.min_rate_exhaustive(model, n) for n in range(1, 15)]
    return scans, heaps.best_balanced_schedule(model, 8).best


def _heaps_balanced(scans, best) -> tuple[bool, str]:
    """Exhaustive heap schedules keep a balanced word in every argmin."""
    missing = [s.n for s in scans if not any(map(words.is_balanced, s.argmin))]
    periodic_ok = best.rate == Fraction(2, 3) and best.ratio == Fraction(1, 3)
    compatible = [s.n for s in scans if s.n % best.ratio.denominator == 0]
    gaps = [s.n for s in scans if s.n in compatible and s.min_rate != best.rate]
    return not missing and periodic_ok and not gaps, (
        f"balanced argmin for n <= 14 (failures: {missing or 'none'}); best "
        f"periodic schedule ratio {best.ratio} at rate {best.rate}; exhaustive "
        f"minimum matches at n in {compatible} (gaps: {gaps or 'none'})"
    )


def _wigner_search():
    potentials = wigner.default_potentials()
    balanced = {
        (p, q, potential): wigner.ground_state_summary(p, q, potential).balanced
        for p, q in words.coprime_pairs(14)
        for potential in potentials
    }
    anti = wigner.anti_coulomb()
    shipped = all(map(wigner.is_convex_decreasing, potentials))
    return shipped, wigner.is_convex_decreasing(anti), balanced, wigner.ground_state_summary(3, 8, anti)


def _wigner_ground_states(shipped_convex, anti_convex, balanced, anti) -> tuple[bool, str]:
    """Ring ground states are balanced for convex decreasing potentials."""
    unbalanced = [f"{p}/{q}:{v.describe()}" for (p, q, v), flag in balanced.items() if not flag]
    anti_clusters = not anti.balanced
    ok = shipped_convex and not anti_convex and not unbalanced and anti_clusters
    return ok, (
        f"convex decreasing: shipped potentials {shipped_convex}, concave fixture {anti_convex}; "
        f"{len(balanced)} (density, potential) ground states all balanced "
        f"(failures: {unbalanced or 'none'}); concave fixture minimizer "
        f"{anti.argbest[0]} is non-balanced: {anti_clusters}; "
        f"float tie margin {wigner.TIE_MARGIN}"
    )


def _balance_oracle(m: int) -> list[bool]:
    """Balance of every length-m word, indexed by its reading, by definition (no window
    length n < m spreads by 2 ones), in one pass over all (m+1, 2^m) int8 prefix counts."""
    shifts = np.arange(m - 1, -1, -1, dtype=np.int16)[:, None]
    letters = ((np.arange(2**m, dtype=np.int16) >> shifts) & 1).astype(np.int8)
    counts = np.pad(letters.cumsum(axis=0, dtype=np.int8), ((1, 0), (0, 0)))
    unbalanced = np.zeros(2**m, bool)
    for n in range(1, m):
        ones = counts[n:] - counts[:-n]
        unbalanced |= ones.max(axis=0) - ones.min(axis=0) >= 2
    return (~unbalanced).tolist()


def _words_search():
    slopes: list = [Fraction(p, q) for p, q in [(0, 1), (1, 1)] + words.coprime_pairs(8)]
    slopes += [(3 - math.sqrt(5)) / 2, math.sqrt(2) - 1, 1 / math.pi]
    balanced = {
        (gamma, delta): words.is_balanced(words.mechanical_word(gamma, 64, delta))
        for gamma in slopes
        for delta in [0, Fraction(1, 3), Fraction(9, 10), 0.25, 0.71]
    }
    mismatches = sum(words.is_balanced(format(bits, f"0{m}b")) != expected
                     for m in range(1, 13) for bits, expected in enumerate(_balance_oracle(m)))
    complexities = {}
    for gamma in ((3 - math.sqrt(5)) / 2, math.sqrt(2) - 1):
        prefix = words.mechanical_word(gamma, 600)
        for n in range(1, 17):
            complexities[round(gamma, 6), n] = words.complexity(prefix, n)
    return balanced, mismatches, complexities


def _words_core(balanced, mismatches, complexities) -> tuple[bool, str]:
    """Mechanical words are balanced; the balance test matches an oracle."""
    unbalanced = [(str(g), str(d)) for (g, d), flag in balanced.items() if not flag]
    complexity_bad = [key for key, count in complexities.items() if count != key[1] + 1]
    ok = not unbalanced and mismatches == 0 and not complexity_bad
    return ok, (
        f"{len(balanced)} mechanical words of length 64 balanced "
        f"(failures: {unbalanced or 'none'}); balance oracle mismatches on "
        f"all words up to length 12: {mismatches}; prefix factor counts "
        f"n+1 for n <= 16: {'ok' if not complexity_bad else complexity_bad}"
    )


def _queue_search():
    config = queueing.QueueConfig(
        mean_interarrival=1.0, service_time=2.0, horizon=100_000, seed=0,
        admission=words.MechanicalSpec(Fraction(1, 3)),
    )
    return (queueing.admission_competition(config, competitors=50),)


def _queue_admission(rows) -> tuple[bool, str]:
    """Mechanical admission beats 50 same-density shuffles, shared arrivals."""
    mechanical, rest = rows[0], rows[1:]
    losses = sum(1 for r in rest if mechanical.mean_cost > r.mean_cost)
    ok = losses == 0
    costs = [r.mean_cost for r in rest]
    return ok, (
        f"mechanical mean cost {mechanical.mean_cost:.6f} vs competitor range "
        f"[{min(costs):.6f}, {max(costs):.6f}] over {len(rest)} shuffles; "
        f"competitors beaten: {len(rest) - losses}/{len(rest)}"
    )


CHECKS = {
    "cyclic-products": (_cyclic_search, _cyclic_products),
    "sturmian-measure": (lambda: (measures.sturmian_measure(2, 5),), _sturmian_measure),
    "convex-order": (
        lambda: (measures.verify_sturmian_least(10, mixtures_per_pair=100, seed=0),),
        _convex_order,
    ),
    "jsr-golden-ratio": (lambda: (jsr.jsr_bounds([jsr.A0, jsr.A1], 8),), _jsr_golden_ratio),
    "alpha-star-digits": (_alpha_star_search, _alpha_star_digits),
    "trace-recurrence": (_trace_search, _trace_recurrence),
    "ratio-staircase": (
        lambda: (jsr.ratio_staircase([Fraction(k, 49) for k in range(50)], 14),),
        _ratio_staircase,
    ),
    "heaps-balanced": (_heaps_search, _heaps_balanced),
    "wigner-ground-states": (_wigner_search, _wigner_ground_states),
    "words-core": (_words_search, _words_core),
    "queue-admission": (_queue_search, _queue_admission),
}


def run_check(name: str) -> CheckResult:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    start = time.perf_counter()
    search, verdict = CHECKS[name]
    passed, detail = verdict(*search())
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run_all(names: Optional[Sequence[str]] = None, jobs: int = 1) -> list[CheckResult]:
    """Run the battery (or a subset), optionally across processes."""
    selected = list(names) if names is not None else list(CHECKS)
    for i, name in enumerate(selected):
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
        if name in selected[:i]:
            raise ValueError(f"check {name!r} is named twice")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1 or len(selected) == 1:
        return [run_check(name) for name in selected]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
    with ProcessPoolExecutor(max_workers=min(jobs, len(selected))) as pool:
        return list(pool.map(run_check, selected))
