"""Finite 0-1 words: balance tests, mechanical words, standard words, orbits.

Words are plain Python strings over the alphabet {'0', '1'}; this module is
the shared currency for every other testbed in the package.  Rational slopes
(:class:`fractions.Fraction`, int, float and ``mpmath.mpf``, the last two
exact dyadic rationals) are read exactly over a common denominator, and a
mechanical word is built from them by Euclid block expansion with integers
and string replaces only, so it carries no rounding.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Optional, Union

__all__ = [
    "check_word",
    "one_length",
    "minimal_period",
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
    "enumerate_orbits",
    "OrbitSummary",
    "scan_orbits",
    "coprime_pairs",
    "balanced_orbit",
    "symbol_stream",
    "format_fraction",
    "parse_slope",
]

SlopeLike = Union[Fraction, int, float, "mpmath.mpf"]

EXHAUSTIVE_Q = 20  # longest word an exhaustive orbit scan accepts
NECKLACE_TABLE_Q = 22  # longest length enumerate_orbits builds a table for


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


def minimal_period(w: str) -> int:
    """Smallest t with w = (w[:t]) * (len(w)//t), the orbit size: where w recurs first in ww."""
    check_word(w)
    return (w + w).find(w, 1) if w else 0


def rotations(b: int, q: int) -> tuple[int, ...]:
    """The q left-rotations of the length-q reading b, starting with b:
    rotating by k keeps q bits of the doubled reading bb, shifted right q - k places."""
    doubled, mask = b | b << q, (1 << q) - 1
    return tuple([(doubled >> k) & mask for k in range(q, 0, -1)])


def factor_set(w: str, n: int) -> set[str]:
    """Distinct length-``n`` factors (contiguous blocks) of ``w``."""
    check_word(w)
    if not 1 <= n <= len(w):
        raise ValueError(f"factor length {n} outside 1..{len(w)}")
    return {w[i : i + n] for i in range(len(w) - n + 1)}


def complexity(w: str, n: int) -> int:
    """Factor complexity p_w(n): the number of distinct length-n factors."""
    return len(factor_set(w, n))


def is_balanced(w: str) -> bool:
    """True iff every pair of equal-length factors differs by at most one '1'.

    Balanced words are the factors of Sturmian words (Lothaire, ch. 2), so Euclid
    de-substitution keeps balance both ways: with the 1s isolated (complemented if
    "11" occurs), inner blocks 0^g 1 take gaps c, c+1 only, end runs are <= c+1, and
    the block code (a full end run is a long block) is balanced.  Each round halves w.
    """
    check_word(w)
    while True:
        if "11" in w:
            if "00" in w:
                return False
            w = w.translate(_COMPLEMENT)
        first, last = w.find("1"), w.rfind("1")
        if first == last:
            return True
        blocks = w[first + 1 : last + 1]
        gaps = blocks.count("1")
        c = (len(blocks) - gaps) // gaps
        head, tail = first, len(w) - 1 - last
        if head > c + 1 or tail > c + 1:
            return False
        code = blocks.replace("0" * (c + 1) + "1", "b").replace("0" * c + "1", "a")
        if len(code) != gaps:  # a leftover letter: some gap is outside {c, c+1}
            return False
        w = "1" * (head == c + 1) + code.translate(_BLOCK_CODE) + "1" * (tail == c + 1)


def balance_witness(w: str) -> Optional[tuple[str, str]]:
    """A factor pair ``(u, v)`` with ``|u|_1 - |v|_1 >= 2``, or None if balanced.

    The pair returned is the first maximal/minimal count pair at the smallest
    violating factor length, so the witness is deterministic.
    """
    if is_balanced(w):
        return None
    prefix = list(accumulate(map("1".__eq__, w), initial=0))  # ones before each letter
    for n in range(1, len(w)):
        counts = [prefix[i + n] - prefix[i] for i in range(len(w) - n + 1)]
        if max(counts) - min(counts) >= 2:
            i, j = counts.index(max(counts)), counts.index(min(counts))
            return w[i : i + n], w[j : j + n]


def _exact(x) -> Fraction:
    """The rational a Fraction, int, float or mpmath.mpf holds; an mpf is man * 2**exp."""
    if hasattr(x, "man_exp"):  # an mpf, read without importing mpmath
        man, exp = x.man_exp  # unsigned mantissa: callers pass values >= 0
        return Fraction(man) * Fraction(2) ** exp
    return Fraction(x)


_COMPLEMENT = str.maketrans("01", "10")
_BLOCK_CODE = str.maketrans("ab", "01")  # short block 0^c 1 -> 0, long 0^(c+1) 1 -> 1


def _rotation_word(a: int, b: int, r: int, n: int) -> str:
    """n letters [x >= b - a] of the rotation x -> x + a mod b from x = r, 0 <= a <= b.

    For a <= b/2 the word is 0^z0 1 followed by blocks 0^(q-1)1 (short) and
    0^q1 (long), q = b // a; after each 1 the point y in [0, a) moves by -s
    mod a, s = b % a, and the next block is long (code 1) iff y < s.  With x = a-1-y
    that is letter [x >= a - s] of the rotation by s on the circle a, Euclid's
    step, so the block code is again a rotation word, about q times shorter.
    For a > b/2, x -> b-1-x turns the word into the complement of slope b - a.
    Each pair of steps at least halves n, so the depth is about 2*log2(n) + 2.
    """
    if 2 * a > b:
        return _rotation_word(b - a, b, b - 1 - r, n).translate(_COMPLEMENT)
    if a == 0:
        return "0" * n
    z0 = (b - 1 - r) // a  # zeros before the first 1
    if z0 >= n:
        return "0" * n
    q, s = divmod(b, a)
    y = r + (z0 + 1) * a - b  # the point after the first 1
    code = _rotation_word(s, a, a - 1 - y, -((z0 + 1 - n) // q))  # ceil((n-z0-1)/q) blocks
    q = min(q, n)  # a block longer than the word adds only zeros past its end
    short = "0" * (q - 1) + "1"
    blocks = code.replace("1", "L").replace("0", short).replace("L", "0" + short)
    return ("0" * z0 + "1" + blocks)[:n]


def mechanical_word(gamma: SlopeLike, n: int, delta: SlopeLike = 0) -> str:
    """First ``n`` letters of the mechanical word with slope gamma, phase delta.

    Letter k (1-indexed) is ``floor((k+1)*gamma + delta) - floor(k*gamma + delta)``.
    Every input is read as the exact rational it holds (float and
    ``mpmath.mpf`` are dyadic): for gamma = a/b and delta = c/b letter k is
    ``[x_k >= b - a]`` for x_k = (k*a + c) mod b, period b.  The first
    ``min(n, b)`` letters are built by Euclid block expansion
    (:func:`_rotation_word`): the word is a string of blocks 0^(q-1)1 and
    0^q1 whose block code is again a mechanical word, so a recursion about
    2*log2(n) + 2 deep expands it with string replaces, no per-letter
    Python step.

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
    period = _rotation_word(a, b, (a + c) % b, min(n, b))
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


@dataclass(frozen=True, slots=True)
class Orbit:
    """A cyclic-shift equivalence class of words.

    ``representative`` is the lexicographically least rotation and ``period``
    is the minimal period of any member, which is also the orbit size.  Both
    are derived by the constructors (:func:`balanced_orbit`,
    ``cyclic.orbit_product``, and ``wigner.ground_state`` from a reading of
    :func:`enumerate_orbits`), so they are not checked again here.
    """

    representative: str
    period: int


@lru_cache(maxsize=None)
def _necklace_table(q: int) -> tuple[list[array], list[bytearray]]:
    """Every necklace of length q, bucketed by one-count: per count an array
    of readings and a bytearray of their periods, both ascending by reading.

    The binary Fredricksen-Kessler-Maiorana successor (Discrete Math. 61,
    1986) on the integer reading: set the lowest 0 bit of the prenecklace b,
    at z, drop the bits below it, and repeat the q - z letters left
    periodically to fill q letters.  That is the next prenecklace, with
    period t = q - z, and a necklace exactly when t divides q.  Each step
    reads one precomputed row by z + 1, the length of b ^ (b + 1): z, the
    repunit of ceil(q/t) copies of period t, the shift that keeps the top q
    bits of a t-bit prefix times it, and t if t divides q, else 0.  From the
    all-0 necklace the walk visits the prenecklaces in ascending order up to
    the all-1 word, about two per necklace (Ruskey-Savage-Wang, 1992).
    """
    full, steps = (1 << q) - 1, [None]
    for t in range(q, 0, -1):
        copies = -(-q // t)
        steps.append((q - t, sum(1 << (k * t) for k in range(copies)), copies * t - q, t * (q % t == 0)))
    readings = [array("Q", [0])] + [array("Q") for _ in range(q)]
    periods = [bytearray([1])] + [bytearray() for _ in range(q)]
    b = 0
    while b != full:
        z, repunit, shift, period = steps[(b ^ (b + 1)).bit_length()]
        b = ((b >> z) | 1) * repunit >> shift
        if period:
            ones = b.bit_count()
            readings[ones].append(b)
            periods[ones].append(period)
    return readings, periods


def enumerate_orbits(p: int, q: int) -> list[tuple[int, int]]:
    """(b, period) for every rotation orbit of length-``q`` words with ``p``
    ones: b reads the least rotation in base 2, and period is the orbit size.

    Sorted by b, which for words of one length is lexicographic order; the
    periods sum to C(q, p), and ``format(b, f"0{q}b")`` writes the word.  The
    orbits are read from one table per length, built on first use by the
    Fredricksen-Kessler-Maiorana successor over every density at once and
    kept for the life of the process, since the scans ask for each density
    of a length in turn.  So the first call at a length costs the whole
    table, about 2**q / q readings, whatever p is; each call returns a new
    list.  A length above ``NECKLACE_TABLE_Q`` (22) raises ValueError before
    any table is built.
    """
    if q < 1:
        raise ValueError("word length q must be >= 1")
    if q > NECKLACE_TABLE_Q:
        raise ValueError(f"q={q} beyond the necklace table bound {NECKLACE_TABLE_Q}")
    if not 0 <= p <= q:
        raise ValueError(f"one-count p={p} outside 0..{q}")
    readings, periods = _necklace_table(q)
    return list(zip(readings[p], periods[p]))


@dataclass(frozen=True)
class OrbitSummary:
    """An orbit scan of p ones in length q: the orbit count, the best value and
    the words of the orbits that reach it, each its least rotation."""

    p: int
    q: int
    orbits: int
    best: Union[int, Fraction, float]
    argbest: tuple[str, ...]

    @property
    def balanced_representative(self) -> str:
        """The balanced orbit's least rotation: g = gcd(p, q) copies of the (p/g, q/g) one."""
        g = math.gcd(self.p, self.q)
        return balanced_orbit(self.p // g, self.q // g).representative * g

    @property
    def balanced(self) -> bool:
        """The verdict: the balanced orbit alone reaches the best value."""
        return self.argbest == (self.balanced_representative,)


def scan_orbits(p: int, q: int, score: Callable[[list], list], best: Callable) -> tuple:
    """The readings of :func:`enumerate_orbits`, the values ``score``
    gives them in one call, and their summary under ``best`` (``max`` or
    ``min``), its words in reading order.  A length above ``EXHAUSTIVE_Q``
    raises ValueError before any orbit is read."""
    if q > EXHAUSTIVE_Q:
        raise ValueError(f"q={q} beyond the exhaustive bound {EXHAUSTIVE_Q}")
    readings = enumerate_orbits(p, q)
    values = score(readings)
    top = best(values)
    argbest = tuple([format(b, f"0{q}b") for (b, _), v in zip(readings, values) if v == top])
    return readings, values, OrbitSummary(p, q, len(readings), top, argbest)


def coprime_pairs(q_max: int) -> list[tuple[int, int]]:
    """Every slope class p/q in lowest terms with 0 < p < q <= q_max, by q then p."""
    return [(p, q) for q in range(1, q_max + 1) for p in range(1, q) if math.gcd(p, q) == 1]


@lru_cache(maxsize=256, typed=True)  # summaries ask for each class once per potential
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
    w = _rotation_word(p, q, p % q, q)  # mechanical_word(p/q, q) on its integers
    return Orbit(w[-1] + w[:-1], q)


def format_fraction(x: Fraction) -> str:
    """Serialize a rational as 'p/q' in lowest terms ('p' when q == 1)."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_slope(text: str) -> Union[Fraction, float]:
    """Parse 'p/q' or an integer as an exact Fraction, else a finite float."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        if slash:
            return Fraction(int(num), int(den))
        try:
            return Fraction(int(text))
        except ValueError:
            value = float(text)
    except ValueError:
        raise ValueError(f"slope {text!r} is neither 'p/q' nor a number") from None
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in slope {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"slope {text!r} is not finite")
    return value
