"""Headline verification battery behind ``sturmlab verify-all``.

Each check re-derives one of the package's central claims from scratch at
desk scale and reports a single pass/fail verdict with a human-readable
detail line.  The registry is deliberately self-contained: oracles like the
all-pairs balance test live here, next to the claims they certify, so a
check cannot silently degenerate into comparing a function with itself.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import cyclic, heaps, jsr, measures, queueing, wigner, words

__all__ = ["CheckResult", "CHECKS", "check_names", "run_check", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check_cyclic_products() -> tuple[bool, str]:
    """Exact orbit products and the balanced-maximizer scan to q = 14."""
    b_10100 = cyclic.orbit_product("10100").product
    b_11000 = cyclic.orbit_product("11000").product
    anchors = b_10100 == 162000 and b_11000 == 88128
    scans = cyclic.scan_coprime_pairs(14)
    failed = [f"{s.p}/{s.q}" for s in scans if not s.passed]
    detail = (
        f"B(10100)={b_10100}, B(11000)={b_11000}; "
        f"{len(scans)} coprime pairs scanned, failures: {failed or 'none'}"
    )
    return anchors and not failed, detail


def _check_sturmian_measure() -> tuple[bool, str]:
    """Support, weights and barycenter of the 2/5 orbit measure, exactly."""
    mu = measures.sturmian_measure(2, 5)
    ok = (
        mu.points == tuple(Fraction(k, 31) for k in (5, 9, 10, 18, 20))
        and set(mu.weights) == {Fraction(1, 5)}
        and mu.barycenter == Fraction(2, 5)
    )
    support = ", ".join(words.format_fraction(x) for x in mu.points)
    detail = f"support {{{support}}}, weights 1/5, barycenter {words.format_fraction(mu.barycenter)}"
    return ok, detail


def _check_convex_order() -> tuple[bool, str]:
    """Balanced measures are convex-order least among same-mean competitors."""
    scans = measures.verify_sturmian_least(10, mixtures_per_pair=100, seed=0)
    bad = [f"{s.p}/{s.q}" for s in scans if not s.passed]
    competitors = sum(s.competitors for s in scans)
    mixtures = sum(s.mixtures for s in scans)
    detail = (
        f"{len(scans)} slope classes, {competitors} orbit competitors, "
        f"{mixtures} random mixtures, counterexamples: {bad or 'none'}"
    )
    return not bad, detail


def _check_jsr_golden_ratio() -> tuple[bool, str]:
    """Bracketing bounds collapse onto the golden ratio by length 2."""
    bounds = jsr.jsr_bounds([jsr.A0, jsr.A1], 8)
    phi = (1 + math.sqrt(5)) / 2
    uppers = [row.upper for row in bounds.rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))
    ok = (
        abs(bounds.lower - phi) <= 1e-12
        and bounds.upper >= bounds.lower - 1e-12
        and monotone
    )
    detail = (
        f"lower={bounds.lower!r}, upper={bounds.upper!r}, phi={phi!r}, "
        f"per-length uppers non-increasing: {monotone}"
    )
    return ok, detail


def _check_alpha_star_digits() -> tuple[bool, str]:
    """Two independent expansions of the threshold constant agree."""
    via_tau = jsr.alpha_star_tau(12)
    via_rho = jsr.alpha_inverse(words.ContinuedFraction((1,) * 14), 12)
    digits = jsr.matching_digits(via_tau.value)
    cross = abs(via_tau.value - via_rho.value)
    ok = digits >= 30 and cross < 1e-25
    detail = (
        f"{digits} reference digits matched, |tau-form - rho-form| = "
        f"{float(cross):.3e}, bracket width {float(via_tau.error):.3e}"
    )
    return ok, detail


def _check_trace_recurrence() -> tuple[bool, str]:
    """tr(B_{n+1}) = tr(B_n) tr(B_{n-1}) - tr(B_{n-2}), exact integers."""
    problems = []
    traces = {}
    for label, quotients in (("golden", (1,) * 16), ("shifted", (2,) + (1,) * 15)):
        matrices = jsr.standard_matrices(words.ContinuedFraction(quotients))
        taus = traces[label] = [m[0] + m[3] for m in matrices]
        for i in range(4, len(taus)):
            if taus[i] != taus[i - 1] * taus[i - 2] - taus[i - 3]:
                problems.append(f"{label}@B_{i - 1}")
    reference = jsr.tau_sequence(17)
    for k in range(2, 18):
        if reference[k] != traces["golden"][k - 1]:
            problems.append(f"seeded-offset@{k}")
    detail = (
        "recurrence exact for n <= 15 on two quotient patterns and the "
        f"seeded sequence aligns at offset 2; failures: {problems or 'none'}"
    )
    return not problems, detail


def _check_ratio_staircase() -> tuple[bool, str]:
    """Optimal 1-density over a 50-point alpha grid is a staircase."""
    grid = [Fraction(k, 49) for k in range(50)]
    rows = jsr.ratio_staircase(grid, 14)
    ratios = [row.ratio for row in rows]
    monotone = all(a <= b for a, b in zip(ratios, ratios[1:]))
    in_range = all(0 <= r <= Fraction(1, 2) for r in ratios)
    at_one = rows[-1].necklace == "01" * 7
    ok = monotone and in_range and at_one
    detail = (
        f"ratios step {words.format_fraction(ratios[0])} -> "
        f"{words.format_fraction(ratios[-1])}, non-decreasing: {monotone}, "
        f"within [0, 1/2]: {in_range}, argmax at alpha=1: {rows[-1].necklace}"
    )
    return ok, detail


def _check_heaps_balanced() -> tuple[bool, str]:
    """Exhaustive heap schedules keep a balanced word in every argmin."""
    model = heaps.default_model()
    missing = []
    exhaustive = {}
    for n in range(1, 15):
        scan = heaps.min_rate_exhaustive(model, n)
        exhaustive[n] = scan.min_rate
        if not any(words.is_balanced(w) for w in scan.argmin):
            missing.append(n)
    report = heaps.best_balanced_schedule(model, 8)
    best = report.best
    periodic_ok = best.rate == Fraction(2, 3) and best.ratio == Fraction(1, 3)
    compatible = [n for n in exhaustive if n % best.ratio.denominator == 0]
    gaps = [n for n in compatible if exhaustive[n] != best.rate]
    ok = not missing and periodic_ok and not gaps
    detail = (
        f"balanced argmin for n <= 14 (failures: {missing or 'none'}); best "
        f"periodic schedule ratio {best.ratio} at rate {best.rate}; exhaustive "
        f"minimum matches at n in {compatible} (gaps: {gaps or 'none'})"
    )
    return ok, detail


def _check_wigner_ground_states() -> tuple[bool, str]:
    """Ring ground states are balanced for convex decreasing potentials."""
    potentials = wigner.default_potentials()
    shipped_convex = all(map(wigner.is_convex_decreasing, potentials))
    anti_convex = wigner.is_convex_decreasing(wigner.anti_coulomb())
    unbalanced = []
    count = 0
    for p, q in words.coprime_pairs(14):
        for potential in potentials:
            report = wigner.ground_state(p, q, potential)
            count += 1
            if not report.balanced:
                unbalanced.append(f"{p}/{q}:{potential.describe()}")
    anti = wigner.ground_state(3, 8, wigner.anti_coulomb())
    anti_clusters = not anti.balanced
    ok = shipped_convex and not anti_convex and not unbalanced and anti_clusters
    detail = (
        f"convex decreasing: shipped potentials {shipped_convex}, concave fixture "
        f"{anti_convex}; "
        f"{count} (density, potential) ground states all balanced "
        f"(failures: {unbalanced or 'none'}); concave fixture minimizer "
        f"{anti.argmin[0].representative} is non-balanced: {anti_clusters}; "
        f"float tie margin {wigner.TIE_MARGIN}"
    )
    return ok, detail


def _naive_balance(w: str) -> bool:
    counts = [0]
    for ch in w:
        counts.append(counts[-1] + (ch == "1"))
    m = len(w)
    for n in range(1, m):
        ones = [counts[i + n] - counts[i] for i in range(m - n + 1)]
        if max(ones) - min(ones) >= 2:
            return False
    return True


def _check_words_core() -> tuple[bool, str]:
    """Mechanical words are balanced; the balance test matches an oracle."""
    slopes: list = [Fraction(p, q) for p, q in [(0, 1), (1, 1)] + words.coprime_pairs(8)]
    slopes += [(3 - math.sqrt(5)) / 2, math.sqrt(2) - 1, 1 / math.pi]
    deltas = [0, Fraction(1, 3), Fraction(9, 10), 0.25, 0.71]
    unbalanced = []
    for gamma in slopes:
        for delta in deltas:
            w = words.mechanical_word(gamma, 64, delta)
            if not words.is_balanced(w):
                unbalanced.append((str(gamma), str(delta)))
    mismatches = 0
    for m in range(1, 13):
        for bits in range(2**m):
            w = format(bits, f"0{m}b")
            if words.is_balanced(w) != _naive_balance(w):
                mismatches += 1
    complexity_bad = []
    for gamma in ((3 - math.sqrt(5)) / 2, math.sqrt(2) - 1):
        prefix = words.mechanical_word(gamma, 600)
        for n in range(1, 17):
            if words.complexity(prefix, n) != n + 1:
                complexity_bad.append((round(gamma, 6), n))
    ok = not unbalanced and mismatches == 0 and not complexity_bad
    detail = (
        f"{len(slopes) * len(deltas)} mechanical words of length 64 balanced "
        f"(failures: {unbalanced or 'none'}); balance oracle mismatches on "
        f"all words up to length 12: {mismatches}; prefix factor counts "
        f"n+1 for n <= 16: {'ok' if not complexity_bad else complexity_bad}"
    )
    return ok, detail


def _check_queue_admission() -> tuple[bool, str]:
    """Mechanical admission beats 50 same-density shuffles, shared arrivals."""
    config = queueing.QueueConfig(
        mean_interarrival=1.0,
        service_time=2.0,
        horizon=100_000,
        seed=0,
        admission=words.MechanicalSpec(Fraction(1, 3)),
    )
    rows = queueing.admission_competition(config, competitors=50)
    mechanical, rest = rows[0], rows[1:]
    losses = sum(1 for r in rest if mechanical.mean_cost > r.mean_cost)
    ok = losses == 0
    costs = [r.mean_cost for r in rest]
    detail = (
        f"mechanical mean cost {mechanical.mean_cost:.6f} vs competitor range "
        f"[{min(costs):.6f}, {max(costs):.6f}] over {len(rest)} shuffles; "
        f"competitors beaten: {len(rest) - losses}/{len(rest)}"
    )
    return ok, detail


CHECKS: "OrderedDict[str, Callable[[], tuple[bool, str]]]" = OrderedDict(
    [
        ("cyclic-products", _check_cyclic_products),
        ("sturmian-measure", _check_sturmian_measure),
        ("convex-order", _check_convex_order),
        ("jsr-golden-ratio", _check_jsr_golden_ratio),
        ("alpha-star-digits", _check_alpha_star_digits),
        ("trace-recurrence", _check_trace_recurrence),
        ("ratio-staircase", _check_ratio_staircase),
        ("heaps-balanced", _check_heaps_balanced),
        ("wigner-ground-states", _check_wigner_ground_states),
        ("words-core", _check_words_core),
        ("queue-admission", _check_queue_admission),
    ]
)


def check_names() -> list[str]:
    return list(CHECKS)


def run_check(name: str) -> CheckResult:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    start = time.perf_counter()
    passed, detail = CHECKS[name]()
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run_all(names: Optional[Sequence[str]] = None, jobs: int = 1) -> list[CheckResult]:
    """Run the battery (or a subset), optionally across processes."""
    selected = list(names) if names is not None else check_names()
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1 or len(selected) == 1:
        return [run_check(name) for name in selected]
    with ProcessPoolExecutor(max_workers=min(jobs, len(selected))) as pool:
        return list(pool.map(run_check, selected))
