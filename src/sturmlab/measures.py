"""Doubling-map orbit measures, the convex order, and maximizing orbits.

A length-q word w with p ones encodes the periodic doubling-map orbit of
x = b(w) / (2^q - 1); the uniform measure on that orbit has barycenter p/q.
The balanced word's measure is the least element of its barycenter class in
the convex (majorization) order, which this module checks exactly with one
integer sweep of hockey-stick integrals over the merged support points.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .words import (
    EXHAUSTIVE_Q,
    balanced_orbit,
    coprime_pairs,
    enumerate_orbits,  # noqa: F401  read by perfbench's tracer self-test
    format_fraction,
    minimal_period,
    necklace_readings,
    rotations,
)

__all__ = [
    "DiscreteMeasure",
    "orbit_measure",
    "sturmian_measure",
    "mixture",
    "convex_order_witness",
    "LeastElementScan",
    "verify_sturmian_least",
    "maximize_over_orbits",
    "cosine_objective",
    "tent_objective",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported probability measure on [0, 1).

    ``points`` are strictly increasing Fractions, ``weights`` are positive
    Fractions summing to one.  ``word`` records the generating 0-1 word when
    the measure is a doubling-map orbit measure, else None.
    """

    points: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]
    word: Optional[str] = None

    def __post_init__(self):
        if len(self.points) != len(self.weights) or not self.points:
            raise ValueError("points and weights must be equal-length and nonempty")
        d, xs, m, vs = self._integer_form
        if any(not 0 <= x < d for x in xs):
            raise ValueError("support points must lie in [0, 1)")
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise ValueError("support points must be strictly increasing")
        if any(v <= 0 for v in vs) or sum(vs) != m:
            raise ValueError("weights must be positive and sum to 1")

    @cached_property
    def _integer_form(self) -> tuple[int, list[int], int, list[int]]:
        """(d, xs, m, vs): point i is xs[i] / d, its weight vs[i] / m; d, m are lcms."""
        d = math.lcm(*[x.denominator for x in self.points])
        m = math.lcm(*[w.denominator for w in self.weights])
        xs = [x.numerator * (d // x.denominator) for x in self.points]
        vs = [w.numerator * (m // w.denominator) for w in self.weights]
        return d, xs, m, vs

    @cached_property
    def barycenter(self) -> Fraction:
        return _barycenter([(1, self._integer_form)])

    def to_json_dict(self) -> dict:
        record = {
            "word": self.word,
            "support": [format_fraction(x) for x in self.points],
        }
        if len(set(self.weights)) == 1:
            record["weight"] = format_fraction(self.weights[0])
        else:
            record["weights"] = [format_fraction(w) for w in self.weights]
        return record


def _orbit_support(b: int, q: int, t: int) -> tuple[int, list[int], int, list[int]]:
    """orbit_measure as (d, xs, m, vs) of the length-q reading b with period t:
    points b(r) / (2^t - 1) over the t rotations r of its first t letters, weights 1 / t."""
    return 2**t - 1, sorted(rotations(b >> (q - t), t)), t, [1] * t


def orbit_measure(w: str) -> DiscreteMeasure:
    """Uniform measure on the doubling-map orbit encoded by the word ``w``.

    Support points are b(r) / (2^q - 1) over the rotations r of w; a proper
    period collapses the support accordingly (weights stay uniform on the
    distinct points).  The all-ones word is rejected: its encoded point is 1,
    the excluded endpoint.
    """
    t = minimal_period(w)  # validates w
    if not w:
        raise ValueError("orbit measure is undefined for the empty word")
    if set(w) == {"1"}:
        raise ValueError("the all-ones word encodes the excluded endpoint x = 1")
    d, xs, t, _ = _orbit_support(int(w, 2), len(w), t)
    return DiscreteMeasure(tuple(Fraction(x, d) for x in xs), (Fraction(1, t),) * t, word=w)


def sturmian_measure(p: int, q: int) -> DiscreteMeasure:
    """Orbit measure of the balanced word with p ones in length q.

    gcd(p, q) = 1 with 0 <= p < q; the degenerate slope 0/1 gives the point
    mass at the fixed point 0.
    """
    if not 0 <= p < q:
        raise ValueError(f"need 0 <= p < q, got ({p}, {q})")
    return orbit_measure(balanced_orbit(p, q).representative)


def mixture(measures: Sequence[DiscreteMeasure], coefficients: Sequence[Fraction]) -> DiscreteMeasure:
    """Convex combination of measures; coefficients must be positive, sum 1."""
    if len(measures) != len(coefficients) or not measures:
        raise ValueError("need equally many measures and coefficients, at least one")
    coefficients = [Fraction(c) for c in coefficients]
    if any(c <= 0 for c in coefficients) or sum(coefficients) != 1:
        raise ValueError("coefficients must be positive and sum to 1")
    d, m, combined = _merged_weights([(c, mu._integer_form) for mu, c in zip(measures, coefficients)])
    return DiscreteMeasure(
        tuple(Fraction(x, d) for x, _ in combined), tuple(Fraction(v, m) for _, v in combined)
    )


def _merged_weights(terms) -> tuple[int, int, list[tuple[int, int]]]:
    """sum_k f_k * form_k over rational f_k and forms (d_k, xs, m_k, vs) as in
    DiscreteMeasure, as sorted (x, v): weight v / m at x / d (d, m lcms)."""
    d = math.lcm(*(form[0] for _, form in terms))
    m = math.lcm(*(f.denominator * form[2] for f, form in terms))
    merged: dict[int, int] = {}
    for f, (d_k, xs, m_k, vs) in terms:
        step, scale = d // d_k, f.numerator * (m // (f.denominator * m_k))
        for x, v in zip(xs, vs):
            merged[x * step] = merged.get(x * step, 0) + v * scale
    return d, m, sorted(merged.items())


def _barycenter(terms) -> Fraction:
    """Barycenter of sum_k f_k * form_k over positive f_k and probability forms."""
    moment = sum(Fraction(f * sum(map(operator.mul, xs, vs)), d * m) for f, (d, xs, m, vs) in terms)
    return moment / sum(f for f, _ in terms)


def _first_violation(terms) -> Optional[Fraction]:
    """Least support point where sum_k f_k * form_k has a positive hockey-stick gap.

    Every form is a probability measure; the positive and negative parts must
    share mass and barycenter (else ValueError).  Then the gap has kinks only
    at support points, vanishes at both ends, and is swept upward in integers.
    """
    d, _, net = _merged_weights(terms)
    if sum(v for _, v in net):
        raise ValueError("convex order needs equal total masses")
    if sum(x * v for x, v in net):
        plus = _barycenter([(f, form) for f, form in terms if f > 0])
        minus = _barycenter([(-f, form) for f, form in terms if f < 0])
        raise ValueError(f"convex order needs equal barycenters: {plus} != {minus}")
    gap = mass = 0
    for (previous, weight), (t, _) in zip(net, net[1:]):
        mass += weight
        gap += mass * (t - previous)
        if gap > 0:
            return Fraction(t, d)
    return None


def convex_order_witness(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Optional[Fraction]:
    """The least threshold t violating mu <=_cx nu, or None when the order holds.

    Both measures must have the same barycenter (otherwise they are simply
    incomparable in the convex order and a ValueError is raised).  The order
    holds iff the hockey-stick integral of mu is <= that of nu at every
    merged support point.
    """
    return _first_violation([(1, mu._integer_form), (-1, nu._integer_form)])


@dataclass(frozen=True)
class LeastElementScan:
    """Result of checking one slope class p/q against all competitors."""

    p: int
    q: int
    competitors: int
    mixtures: int
    counterexamples: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def verify_sturmian_least(
    q_max: int, mixtures_per_pair: int = 100, seed: int = 0
) -> list[LeastElementScan]:
    """Check the balanced measure is convex-order least in its barycenter class.

    For every coprime pair (p, q) with q <= q_max the competitors are the
    orbit measures of all words of length kq with kp ones (kq <= q_max), all
    of which share the barycenter p/q, plus ``mixtures_per_pair`` seeded
    random convex combinations drawn from that pool (their barycenters equal
    p/q automatically, so no re-weighting is ever needed).
    """
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    if q_max > EXHAUSTIVE_Q:
        raise ValueError(f"q_max={q_max} beyond the exhaustive bound {EXHAUSTIVE_Q}")
    if mixtures_per_pair < 0:
        raise ValueError(f"mixtures_per_pair must be >= 0, got {mixtures_per_pair}")
    rng = random.Random(seed)
    scans = []
    for p, q in coprime_pairs(q_max):
        sturmian = _orbit_support(int(balanced_orbit(p, q).representative, 2), q, q)
        pool = [
            (format(b, f"0{k * q}b"), _orbit_support(b, k * q, t))
            for k in range(1, q_max // q + 1)
            for b, t in necklace_readings(k * p, k * q)
        ]
        bad = [
            word for word, form in pool
            if _first_violation([(1, sturmian), (-1, form)]) is not None
        ]
        for _ in range(mixtures_per_pair):
            size = rng.randint(2, min(4, len(pool))) if len(pool) >= 2 else 1
            chosen = rng.sample(pool, size)
            raw = [rng.randint(1, 100) for _ in chosen]
            # sturmian <=_cx sum_k raw_k mu_k / sum(raw), scaled by sum(raw).
            terms = [(sum(raw), sturmian)] + [(-r, form) for r, (_, form) in zip(raw, chosen)]
            if _first_violation(terms) is not None:
                bad.append("mixture:" + "+".join(word for word, _ in chosen))
        scans.append(LeastElementScan(p, q, len(pool), mixtures_per_pair, tuple(bad)))
    return scans


def maximize_over_orbits(
    f: Callable[[float], float], max_period: int
) -> tuple[DiscreteMeasure, float]:
    """Best periodic orbit measure for the integral of ``f``, brute force.

    Scans every primitive orbit of period 1..max_period (all one-counts,
    excluding the all-ones word), evaluating f at float(support point).
    Ties break deterministically toward the first candidate in (period,
    representative) order, i.e. toward the shortest, lexicographically least
    canonical representative.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if max_period > EXHAUSTIVE_Q:
        raise ValueError(f"max_period={max_period} beyond the exhaustive bound {EXHAUSTIVE_Q}")
    best: Optional[tuple[str, float]] = None
    for length in range(1, max_period + 1):
        for p in range(0, length):
            for b, period in necklace_readings(p, length):
                if period != length:
                    continue
                d, xs, t, _ = _orbit_support(b, length, length)
                # 1 / t and x / d round correctly, so they are float(Fraction(...)).
                value = sum(1 / t * f(x / d) for x in xs)
                if best is None or value > best[1]:
                    best = (format(b, f"0{length}b"), value)
    assert best is not None
    return orbit_measure(best[0]), best[1]


def cosine_objective(theta: float) -> Callable[[float], float]:
    """x -> cos(2*pi*(x - theta)), peaked at theta on the circle."""

    def f(x: float) -> float:
        return math.cos(2 * math.pi * (x - theta))

    return f


def tent_objective(theta: float) -> Callable[[float], float]:
    """x -> 1 - 4*d(x, theta) with d the circle distance; tent peak at theta."""

    def f(x: float) -> float:
        d = abs(x - theta) % 1.0
        return 1 - 4 * min(d, 1 - d)

    return f
