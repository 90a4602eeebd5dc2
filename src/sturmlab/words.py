"""Finite 0-1 words: balance tests, mechanical words, standard words, orbits.

Words are plain Python strings over the alphabet {'0', '1'}; this module is
the shared currency for every other testbed in the package.  Rational slopes
(:class:`fractions.Fraction`, int, float and ``mpmath.mpf``, the last two
exact dyadic rationals) are read exactly and handled with integer floor
division over a common denominator, so mechanical words carry no rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, pairwise
from typing import Iterable, Optional, Union

__all__ = [
    "check_word",
    "one_length",
    "canonical_rotation",
    "minimal_period",
    "rotation_values",
    "rotations",
    "factor_set",
    "complexity",
    "is_balanced",
    "balance_witness",
    "mechanical_word",
    "MechanicalSpec",
    "ContinuedFraction",
    "standard_words",
    "Orbit",
    "necklace_readings",
    "enumerate_orbits",
    "coprime_pairs",
    "balanced_orbit",
    "symbol_stream",
    "format_fraction",
    "parse_slope",
]

SlopeLike = Union[Fraction, int, float, "mpmath.mpf"]

EXHAUSTIVE_Q = 20  # longest word an exhaustive orbit scan accepts


def check_word(w: str) -> str:
    """Validate that ``w`` is a str containing only '0' and '1'; return it."""
    if not isinstance(w, str):
        raise TypeError(f"word must be a str of 0/1 characters, got {type(w).__name__}")
    if w.encode("utf-8", "surrogatepass").translate(None, b"01"):
        raise ValueError(f"word contains characters outside {{0,1}}: {w!r}")
    return w


def one_length(w: str) -> int:
    """Number of '1' letters in ``w``."""
    return check_word(w).count("1")


def canonical_rotation(w: str) -> str:
    """Lexicographically least rotation; the canonical orbit representative.

    Two-candidate least-rotation scan in O(len(w)) time and memory.  Every
    start below j other than i is already beaten.  When rotations i < j agree
    on k letters and then differ, the larger one and the k starts after it
    are beaten too, each by the matching start after the smaller one.
    """
    check_word(w)
    m = len(w)
    doubled = (w + w).encode()
    i, j, k = 0, 1, 0
    while j < m and k < m:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
        elif a < b:
            j += k + 1
            k = 0
        else:
            i, j, k = j, max(i + k + 1, j + 1), 0
    return w[i:] + w[:i]


def minimal_period(w: str) -> int:
    """Smallest t with w = (w[:t]) * (len(w)//t), the orbit size: where w recurs first in ww."""
    check_word(w)
    return (w + w).find(w, 1) if w else 0


def rotation_values(w: str) -> tuple[int, ...]:
    """b (the base-2 reading) over the ``len(w)`` left-rotations of the
    nonempty 0-1 word ``w``, starting with ``w``."""
    return rotations(int(w, 2), len(w))


def rotations(b: int, q: int) -> tuple[int, ...]:
    """The q left-rotations of the length-q reading b, starting with b:
    rotating by k shifts b left k places and wraps its top k bits round."""
    mask = (1 << q) - 1
    return tuple(((b << k) | (b >> (q - k))) & mask for k in range(q))


def factor_set(w: str, n: int) -> set[str]:
    """Distinct length-``n`` factors (contiguous blocks) of ``w``."""
    check_word(w)
    if not 1 <= n <= len(w):
        raise ValueError(f"factor length {n} outside 1..{len(w)}")
    return {w[i : i + n] for i in range(len(w) - n + 1)}


def complexity(w: str, n: int) -> int:
    """Factor complexity p_w(n): the number of distinct length-n factors."""
    return len(factor_set(w, n))


def _balance_violation(w: str) -> Optional[tuple[str, str]]:
    """Scan window one-counts per length; return a violating factor pair."""
    m = len(w)
    bits = [1 if c == "1" else 0 for c in w]
    for n in range(1, m):
        count = sum(bits[:n])
        lo = hi = count
        lo_at = hi_at = 0
        for i in range(1, m - n + 1):
            count += bits[i + n - 1] - bits[i - 1]
            if count > hi:
                hi, hi_at = count, i
            elif count < lo:
                lo, lo_at = count, i
        if hi - lo >= 2:
            return w[hi_at : hi_at + n], w[lo_at : lo_at + n]
    return None


def is_balanced(w: str) -> bool:
    """True iff every pair of equal-length factors differs by at most one '1'.

    Equivalently (Lothaire, ch. 2), S_k - k*g spreads less than 1 for some g,
    S_k = |w[:k]|_1.  Lowering g walks the max right along the upper hull and
    the min left along the lower one; the spread is least where they cross.
    """
    check_word(w)
    if "00" in w and "11" in w:
        return False
    upper, lower = [(0, 0)], [(0, 0)]
    for x, y in enumerate(accumulate(c == "1" for c in w), 1):
        for hull, sign in ((upper, 1), (lower, -1)):
            while len(hull) > 1 and sign * ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                            - (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])) >= 0:
                hull.pop()
            hull.append((x, y))
    i, j, a, b = 0, len(lower) - 1, 0, 1
    while upper[i][0] < lower[j][0]:
        (ux, uy), (vx, vy) = upper[i], upper[i + 1]
        (lx, ly), (mx, my) = lower[j - 1], lower[j]
        if (vy - uy) * (mx - lx) >= (my - ly) * (vx - ux):
            a, b, i = vy - uy, vx - ux, i + 1
        else:
            a, b, j = my - ly, mx - lx, j - 1
    (ux, uy), (lx, ly) = upper[i], lower[j]
    return b * (uy - ly) - a * (ux - lx) < b


def balance_witness(w: str) -> Optional[tuple[str, str]]:
    """A factor pair ``(u, v)`` with ``|u|_1 - |v|_1 >= 2``, or None if balanced.

    The pair returned is the first maximal/minimal count pair at the smallest
    violating factor length, so the witness is deterministic.
    """
    return None if is_balanced(w) else _balance_violation(w)


def _exact(x) -> Fraction:
    """The rational a Fraction, int, float or mpmath.mpf holds; an mpf is man * 2**exp."""
    if hasattr(x, "man_exp"):  # an mpf, read without importing mpmath
        man, exp = x.man_exp  # unsigned mantissa: callers pass values >= 0
        return Fraction(man) * Fraction(2) ** exp
    return Fraction(x)


def mechanical_word(gamma: SlopeLike, n: int, delta: SlopeLike = 0) -> str:
    """First ``n`` letters of the mechanical word with slope gamma, phase delta.

    Letter k (1-indexed) is ``floor((k+1)*gamma + delta) - floor(k*gamma + delta)``.
    Every input is read as the exact rational it holds (float and
    ``mpmath.mpf`` are dyadic): for gamma = a/b and delta = c/b letter k is
    ``((k+1)*a + c) // b - (k*a + c) // b``, period b.

    Args:
        gamma: slope in [0, 1].
        n: number of letters, >= 0.
        delta: phase in [0, 1).
    """
    if n < 0:
        raise ValueError("length n must be >= 0")
    if not 0 <= gamma <= 1:
        raise ValueError(f"slope gamma={gamma} outside [0, 1]")
    if not 0 <= delta < 1:
        raise ValueError(f"phase delta={delta} outside [0, 1)")
    gamma, delta = _exact(gamma), _exact(delta)
    b = math.lcm(gamma.denominator, delta.denominator)
    a, c = gamma.numerator * b // gamma.denominator, delta.numerator * b // delta.denominator
    floors = ((k * a + c) // b for k in range(1, min(n, b) + 2))
    period = "".join("01"[y - x] for x, y in pairwise(floors))
    return period * (n // b) + period[: n % b]


@dataclass(frozen=True)
class MechanicalSpec:
    """A (slope, phase) pair used as an unbounded 0-1 symbol source."""

    gamma: SlopeLike
    delta: SlopeLike = 0

    def prefix(self, n: int) -> str:
        return mechanical_word(self.gamma, n, self.delta)


def symbol_stream(source, n: int) -> str:
    """Materialize ``n`` symbols from a nonempty word (repeated cyclically) or a MechanicalSpec."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(source, MechanicalSpec):
        return source.prefix(n)
    if isinstance(source, str):
        check_word(source)
        if not source:
            raise ValueError("cannot stream symbols from an empty word")
        reps = -(-n // len(source))
        return (source * reps)[:n]
    raise TypeError(f"unsupported symbol source: {type(source).__name__}")


@dataclass(frozen=True)
class ContinuedFraction:
    """Positive partial quotients a_1..a_N driving standard words and matrices.

    The quotients are used verbatim as the exponents in the standard-word
    recurrence s_{n+1} = s_n^{a_{n+1}} s_{n-1}.  Convergents are seeded with
    (p_{-1}, q_{-1}) = (1, 1) and (p_0, q_0) = (0, 1), which aligns them with
    the words: s_n has exactly q_n letters, p_n of them '1'.  Under this
    seeding the slope of the infinite extension is the ordinary continued
    fraction [0; a_1 + 1, a_2, a_3, ...]; use :meth:`from_slope_quotients`
    to build from the ordinary expansion of a slope <= 1/2.
    """

    partial_quotients: tuple[int, ...]

    def __post_init__(self):
        quotients = tuple(int(a) for a in self.partial_quotients)
        if not quotients:
            raise ValueError("need at least one partial quotient")
        if any(a < 1 for a in quotients):
            raise ValueError(f"partial quotients must be >= 1, got {quotients}")
        object.__setattr__(self, "partial_quotients", quotients)

    @classmethod
    def from_slope_quotients(cls, quotients: Iterable[int]) -> "ContinuedFraction":
        """Build from the ordinary expansion [0; c_1, c_2, ...] of a slope.

        Requires c_1 >= 2 (slope <= 1/2); the exponent sequence is then
        (c_1 - 1, c_2, c_3, ...).
        """
        quotients = tuple(int(c) for c in quotients)
        if not quotients or quotients[0] < 2:
            raise ValueError("leading ordinary quotient must be >= 2 (slope <= 1/2)")
        return cls((quotients[0] - 1,) + quotients[1:])

    @property
    def convergents(self) -> list[tuple[int, int]]:
        """(p_n, q_n) for n = -1, 0, 1, ..., N; entry i holds index n = i - 1."""
        pairs = [(1, 1), (0, 1)]
        for a in self.partial_quotients:
            p = a * pairs[-1][0] + pairs[-2][0]
            q = a * pairs[-1][1] + pairs[-2][1]
            pairs.append((p, q))
        return pairs


def standard_words(cf: ContinuedFraction) -> list[str]:
    """Standard words [s_{-1}, s_0, s_1, ..., s_N] for the given quotients.

    s_{-1} = "1", s_0 = "0", and s_{n+1} = s_n^{a_{n+1}} s_{n-1}.  Each s_n
    has q_n letters and p_n ones, matching ``cf.convergents``.
    """
    words = ["1", "0"]
    for a in cf.partial_quotients:
        words.append(words[-1] * a + words[-2])
    return words


@dataclass(frozen=True)
class Orbit:
    """A cyclic-shift equivalence class of words.

    ``representative`` is the lexicographically least rotation and ``period``
    is the minimal period of any member, which is also the orbit size.  Both
    are derived by the constructors (:func:`enumerate_orbits`,
    :func:`balanced_orbit`, ``cyclic.orbit_product``), so they are not checked
    again here.
    """

    representative: str
    period: int


def necklace_readings(p: int, q: int) -> list[tuple[int, int]]:
    """(b, period) for every rotation orbit of length-``q`` words with ``p``
    ones: b reads the least rotation in base 2, and period is the orbit size.

    Sorted by b, which for words of one length is lexicographic order.  This
    is the binary Fredricksen-Kessler-Maiorana prenecklace recursion, pruned
    to fixed density as in Ruskey-Sawada (SIAM J. Comput. 1999), on the
    integer reading of the prefix.  A prenecklace a_1..a_t with period
    ``period`` extends by copying a_{t+1-period}, bit ``period - 1`` of its
    reading, or, when that letter is 0, by a 1 that makes the whole prefix
    Lyndon (period t+1).  Branches whose one-count passes ``p`` or can no
    longer reach it are cut; a full-length prenecklace is a necklace exactly
    when its period divides ``q``.  The walk is depth first with 0 before 1.
    """
    if q < 1:
        raise ValueError("word length q must be >= 1")
    if not 0 <= p <= q:
        raise ValueError(f"one-count p={p} outside 0..{q}")
    readings = []
    # Stack entries (t, b, period, ones): the prenecklace of length t read as
    # b, with that period and one-count.  The empty prefix copies a 0.
    stack = [(0, 0, 1, 0)]
    while stack:
        t, b, period, ones = stack.pop()
        if t == q:
            if q % period == 0:
                readings.append((b, period))
            continue
        if b >> (period - 1) & 1:
            if ones < p:
                stack.append((t + 1, 2 * b + 1, period, ones + 1))
            continue
        if ones < p:
            stack.append((t + 1, 2 * b + 1, t + 1, ones + 1))
        if ones + q - t - 1 >= p:
            stack.append((t + 1, 2 * b, period, ones))
    return readings


def enumerate_orbits(p: int, q: int) -> list[Orbit]:
    """All rotation orbits of length-``q`` words with exactly ``p`` ones.

    Sorted by representative; the orbit sizes sum to C(q, p).  Each orbit is
    one reading of :func:`necklace_readings` written out as a word.
    """
    return [Orbit(format(b, f"0{q}b"), period) for b, period in necklace_readings(p, q)]


def coprime_pairs(q_max: int) -> list[tuple[int, int]]:
    """Every slope class p/q in lowest terms with 0 < p < q <= q_max, by q then p."""
    return [(p, q) for q in range(1, q_max + 1) for p in range(1, q) if math.gcd(p, q) == 1]


def balanced_orbit(p: int, q: int) -> Orbit:
    """The unique balanced orbit with ``p`` ones in length ``q``.

    Requires gcd(p, q) = 1 with 0 <= p <= q (p in {0, q} only for q = 1);
    equals the orbit of the mechanical word of slope p/q and phase 0.  Its
    least rotation is the Christoffel word, that word (letters k = 1..q)
    rotated right by one letter to start at k = 0; its period is q.
    """
    if q < 1:
        raise ValueError("word length q must be >= 1")
    if not 0 <= p <= q:
        raise ValueError(f"one-count p={p} outside 0..{q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p/q = {p}/{q} is not in lowest terms")
    w = mechanical_word(Fraction(p, q), q)
    return Orbit(w[-1] + w[:-1], q)


def format_fraction(x: Fraction) -> str:
    """Serialize a rational as 'p/q' in lowest terms ('p' when q == 1)."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_slope(text: str) -> Union[Fraction, float]:
    """Parse 'p/q' as an exact Fraction, else fall back to a finite float."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in slope {text!r}")
        return Fraction(int(num), int(den))
    try:
        return Fraction(int(text))
    except ValueError:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"slope {text!r} is not finite")
    return value
