"""Doubling-map orbit measures, the convex order, and maximizing orbits.

A length-q word w with p ones encodes the periodic doubling-map orbit of
x = b(w) / (2^q - 1); the uniform measure on that orbit has barycenter p/q.
The balanced word's measure is the least element of its barycenter class in
the convex (majorization) order, which this module checks exactly: every
comparison's signed integer net, sorted by (comparison, point) with the others
of its block from its slope class, and two cumulative sums giving each
comparison's running mass and hockey-stick gap (numpy, imported on first use).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, groupby, islice
from typing import Callable, Iterator, Optional, Sequence

from .words import (
    EXHAUSTIVE_Q,
    balanced_orbit,
    coprime_pairs,
    enumerate_orbits,
    format_fraction,
    minimal_period,
    rotations,
    scan_orbits,
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

SWEEP_BLOCK = 256  # comparisons per numpy sweep, so a scan's peak memory does not grow with its mixtures
INT64_LIMIT = 2**62  # a sweep runs in int64 while every value it forms stays below this


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
        d, [(_, mass, moment)] = _class_forms([self._integer_form])
        return Fraction(moment, d * mass)

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
    d, forms = _class_forms([mu._integer_form for mu in measures])
    c = math.lcm(*(f.denominator for f in coefficients))  # every scaled form has mass forms[0][1]
    net = sorted((x, v * int(f * c)) for f, (pairs, _, _) in zip(coefficients, forms) for x, v in pairs)
    points, weights = zip(*[(Fraction(x, d), Fraction(sum(v for _, v in group), c * forms[0][1]))
                            for x, group in groupby(net, key=lambda pair: pair[0])])
    return DiscreteMeasure(points, weights)


def _class_forms(forms) -> tuple[int, list]:
    """Forms (d_k, xs, m_k, vs) as in DiscreteMeasure over the lcms d, m of the d_k, m_k: d and
    per form its pairs (x, v), weight v / m at x / d, with their sums of v and of x * v."""
    d, m = math.lcm(*(form[0] for form in forms)), math.lcm(*(form[2] for form in forms))
    scaled = [[(x * (d // d_k), v * (m // m_k)) for x, v in zip(xs, vs)] for d_k, xs, m_k, vs in forms]
    return d, [(pairs, sum(v for _, v in pairs), sum(x * v for x, v in pairs)) for pairs in scaled]


def _require_cancelling(d: int, terms) -> None:
    """Refuse sum_k f_k * form_k unless its positive and negative parts share mass and
    barycenter: only then does its hockey-stick gap vanish at both ends of the support."""
    if sum(f * mass for f, (_, mass, _) in terms):
        raise ValueError("convex order needs equal total masses")
    if sum(f * moment for f, (_, _, moment) in terms):
        mass = d * sum(f * form[1] for f, form in terms if f > 0)  # either part's mass, times d
        plus, minus = (Fraction(sum(s * f * form[2] for f, form in terms if s * f > 0), mass)
                       for s in (1, -1))
        raise ValueError(f"convex order needs equal barycenters: {plus} != {minus}")


def _sweep(d: int, forms, comparisons) -> Iterator[tuple[object, int]]:
    """(key, t) for each comparison (ks, f, weight, key) whose gap turns positive, t / d the first
    point where it does: sum_i f[i] * forms[ks[i]] of one ``_class_forms`` (d, forms), whose mass and
    barycenter cancel (``_require_cancelling``), and weight = sum |f|.  SWEEP_BLOCK comparisons at a
    time are one array of rows sorted by (comparison, point), whose two cumulative sums are each one's
    running mass and gap, 0 again at its end and below weight * width: int64 under 2^62, else ints."""
    import numpy as np

    width = d * max(mass for _, mass, _ in forms)
    table = [pair for pairs, _, _ in forms for pair in pairs]
    xs, vs = (np.array(column, np.int64 if width < INT64_LIMIT else object) for column in zip(*table))
    ranks = np.empty(len(xs), np.int64)
    ranks[np.argsort(xs, kind="stable")] = np.arange(len(xs))
    starts = np.cumsum([0] + [len(p) for p, _, _ in forms])  # each form's first row, then the row count
    comparisons = iter(comparisons)
    while block := list(islice(comparisons, SWEEP_BLOCK)):
        picks, coefficients, weights, keys = zip(*block)
        dtype = object if width * max(weights) >= INT64_LIMIT else np.int64
        counts = np.fromiter(map(len, picks), np.int64, len(keys))
        picks = np.fromiter(chain.from_iterable(picks), np.int64)
        lengths = np.diff(starts)[picks]
        ends = np.cumsum(lengths)
        rows = np.arange(ends[-1]) + (starts[picks] - ends + lengths).repeat(lengths)
        comparison = np.arange(len(keys)).repeat(counts).repeat(lengths)
        order = np.argsort(comparison * len(ranks) + ranks[rows], kind="stable")  # ranks order the points
        x, v = (column[rows[order]].astype(dtype, copy=False) for column in (xs, vs))
        mass = np.cumsum(v * np.fromiter(chain.from_iterable(coefficients), dtype).repeat(lengths)[order])
        gap = np.cumsum(mass[:-1] * np.diff(x))
        hits = np.flatnonzero(gap > 0) + 1
        failed = comparison[hits]  # the sort kept every comparison's rows in place
        first = np.flatnonzero(np.diff(failed, prepend=-1))
        yield from zip([keys[i] for i in failed[first]], x[hits[first]].tolist())


def convex_order_witness(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Optional[Fraction]:
    """The least threshold t violating mu <=_cx nu, or None when the order holds.

    Both measures must have the same barycenter (otherwise they are simply
    incomparable in the convex order and a ValueError is raised).  The order
    holds iff the hockey-stick integral of mu is <= that of nu at every
    merged support point.
    """
    d, forms = _class_forms([mu._integer_form, nu._integer_form])
    _require_cancelling(d, [(1, forms[0]), (-1, forms[1])])
    for _, t in _sweep(d, forms, [((0, 1), (1, -1), 2, None)]):
        return Fraction(t, d)
    return None


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
    p/q automatically, so no re-weighting is ever needed).  Hockey-stick
    integrals are linear in the measure, so a blend of passing competitors
    passes too: the mixtures are no attack of their own.  Each class is swept
    (``_sweep``) as soon as it is built; class 1/2 needs Python ints from q_max 16.
    """
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    if q_max > EXHAUSTIVE_Q:
        raise ValueError(f"q_max={q_max} beyond the exhaustive bound {EXHAUSTIVE_Q}")
    if mixtures_per_pair < 0:
        raise ValueError(f"mixtures_per_pair must be >= 0, got {mixtures_per_pair}")
    rng = random.Random(seed)

    def mixtures(n):  # drawn as the sweep asks for them, each against the balanced form n
        for _ in range(mixtures_per_pair):
            size = rng.randint(2, min(4, n)) if n >= 2 else 1
            chosen = rng.sample(range(n), size)
            raw = [rng.randint(1, 100) for _ in chosen]
            # sturmian <=_cx sum_k raw_k mu_k / sum(raw), scaled by sum(raw).
            total = sum(raw)
            yield [n, *chosen], [total, *[-r for r in raw]], 2 * total, chosen

    scans = []
    for p, q in coprime_pairs(q_max):
        sturmian = _orbit_support(int(balanced_orbit(p, q).representative, 2), q, q)
        orbits = [(b, k * q, t) for k in range(1, q_max // q + 1) for b, t in enumerate_orbits(k * p, k * q)]
        # One scale for the class; the balanced form is the last, at index len(pool).
        d, forms = _class_forms([_orbit_support(*orbit) for orbit in orbits] + [sturmian])
        # Mass and moment are linear in f, so every mixture cancels once every orbit does.
        for form in forms[:-1]:
            if form[1:] != forms[-1][1:]:
                _require_cancelling(d, [(1, forms[-1]), (-1, form)])
        pool = [format(b, f"0{n}b") for b, n, _ in orbits]
        singles = [((len(pool), j), (1, -1), 2, j) for j in range(len(pool))]  # each orbit alone
        bad = tuple(pool[chosen] if isinstance(chosen, int) else "mixture:" + "+".join(pool[i] for i in chosen)
                    for chosen, _ in _sweep(d, forms, chain(singles, mixtures(len(pool)))))
        scans.append(LeastElementScan(p, q, len(pool), mixtures_per_pair, bad))
    return scans


def maximize_over_orbits(
    f: Callable[[float], float], max_period: int
) -> tuple[DiscreteMeasure, float]:
    """Best periodic orbit measure for the integral of ``f``, brute force.

    Scans every primitive orbit of period 1..max_period (all one-counts,
    excluding the all-ones word) with ``words.scan_orbits``, one summary per
    (period, one-count), evaluating f at float(support point); an orbit of a
    proper period scores -inf.  Ties go to the first summary, then the first
    reading: the shortest period, then the fewest ones, then the least word.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if max_period > EXHAUSTIVE_Q:
        raise ValueError(f"max_period={max_period} beyond the exhaustive bound {EXHAUSTIVE_Q}")

    def score(q):  # the values of a length-q scan, with 2^q - 1 and 1 / q computed once
        d, weight = 2**q - 1, 1 / q
        # 1 / q and x / d round correctly, so they are float(Fraction(...)).
        return lambda readings: [sum([weight * f(x / d) for x in sorted(rotations(b, q))]) if t == q
                                 else -math.inf for b, t in readings]

    summaries = [scan_orbits(p, q, score(q), max)[2] for q in range(1, max_period + 1) for p in range(q)]
    best = max(summaries, key=lambda summary: summary.best)  # the first of a tie
    return orbit_measure(best.argbest[0]), best.best


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
