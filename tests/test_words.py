"""Core word combinatorics: balance, mechanical words, standard words."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations, pairwise, product

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sturmlab.words import (
    ContinuedFraction,
    MechanicalSpec,
    Orbit,
    OrbitSummary,
    balance_witness,
    balanced_orbit,
    check_word,
    complexity,
    coprime_pairs,
    enumerate_orbits,
    factor_set,
    format_fraction,
    is_balanced,
    mechanical_word,
    minimal_period,
    one_length,
    parse_slope,
    scan_orbits,
    standard_words,
    symbol_stream,
)
from sturmlab.words import NECKLACE_TABLE_Q, _necklace_table
from sturmlab.words import rotations as reading_rotations

words_st = st.text(alphabet="01", min_size=0, max_size=40)


def naive_balance(w: str) -> bool:
    """Quadratic reference: compare one-counts of equal-length factors."""
    prefix = [0]
    for c in w:
        prefix.append(prefix[-1] + int(c))

    def ones(i, n):
        return prefix[i + n] - prefix[i]

    for n in range(1, len(w) + 1):
        counts = {ones(i, n) for i in range(len(w) - n + 1)}
        if max(counts) - min(counts) > 1:
            return False
    return True


def _hull_balance(w: str) -> bool:
    """Slope-form reference: w is balanced iff S_k - k*g spreads less than 1
    for some g, S_k = |w[:k]|_1 (Lothaire, ch. 2).  Lowering g walks the max
    right along the upper convex hull of (k, S_k) and the min left along the
    lower one; the spread is least where they cross."""
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


@given(words_st)
def test_balance_matches_naive_oracle(w):
    assert is_balanced(w) == naive_balance(w)


def _assert_witness_is_a_real_violation(w):
    witness = balance_witness(w)
    if witness is None:
        assert is_balanced(w)
    else:
        u, v = witness
        assert len(u) == len(v)
        assert u in factor_set(w, len(u)) and v in factor_set(w, len(v))
        assert abs(one_length(u) - one_length(v)) >= 2


@given(words_st)
def test_balance_witness_is_a_real_violation(w):
    _assert_witness_is_a_real_violation(w)


@st.composite
def near_balanced_words(draw):
    """Words of up to 300 letters that lack "00" or lack "11".

    Random text almost always holds both, which settles balance at length 2;
    these words reach the contraction instead.  Either a mechanical word of
    rational slope and phase with one letter flipped or one adjacent pair
    swapped, or a free word over the blocks {1, 10} (complemented or not).
    """
    if draw(st.booleans()):
        q = draw(st.integers(min_value=1, max_value=60))
        gamma = Fraction(draw(st.integers(min_value=0, max_value=q)), q)
        delta = Fraction(draw(st.integers(min_value=0, max_value=q - 1)), q)
        w = list(mechanical_word(gamma, draw(st.integers(min_value=2, max_value=300)), delta))
        k = draw(st.integers(min_value=0, max_value=len(w) - 2))
        if draw(st.booleans()):
            w[k] = "01"[w[k] == "0"]
        else:
            w[k], w[k + 1] = w[k + 1], w[k]
        w = "".join(w)
    else:
        w = "".join(draw(st.lists(st.sampled_from(["1", "10"]), max_size=150)))
        if draw(st.booleans()):
            w = w.translate(str.maketrans("01", "10"))
    assume("00" not in w or "11" not in w)
    return w


@settings(deadline=None)
@given(near_balanced_words())
def test_balance_matches_oracles_on_near_balanced_words(w):
    assert is_balanced(w) == naive_balance(w) == _hull_balance(w)
    _assert_witness_is_a_real_violation(w)


def test_balance_matches_naive_oracle_on_every_short_word():
    for m in range(15):
        for letters in product("01", repeat=m):
            w = "".join(letters)
            assert is_balanced(w) == naive_balance(w), w


def test_balance_matches_hull_oracle_on_every_word_up_to_16():
    for m in range(1, 17):
        mismatches = [
            w for w in (format(bits, f"0{m}b") for bits in range(2**m))
            if is_balanced(w) != _hull_balance(w)
        ]
        assert mismatches == [], m


@st.composite
def long_near_balanced_words(draw):
    """Mechanical words of up to 3000 letters, with periods up to 10^6, left
    whole, rotated, or with one letter flipped or one adjacent pair swapped;
    the contraction runs several rounds on most of them."""
    q = draw(st.integers(min_value=1, max_value=10**6))
    gamma = Fraction(draw(st.integers(min_value=0, max_value=q)), q)
    delta = Fraction(draw(st.integers(min_value=0, max_value=q - 1)), q)
    w = list(mechanical_word(gamma, draw(st.integers(min_value=2, max_value=3000)), delta))
    k = draw(st.integers(min_value=0, max_value=len(w) - 2))
    edit = draw(st.sampled_from(["none", "rotate", "flip", "swap"]))
    if edit == "rotate":
        w = w[k:] + w[:k]
    elif edit == "flip":
        w[k] = "01"[w[k] == "0"]
    elif edit == "swap":
        w[k], w[k + 1] = w[k + 1], w[k]
    return "".join(w)


@settings(deadline=None, max_examples=60)
@given(long_near_balanced_words())
@example("0" * 1500 + "1" + "0" * 1499)
@example(mechanical_word((3 - math.sqrt(5)) / 2, 3000))
def test_balance_matches_hull_oracle_on_long_near_balanced_words(w):
    assert is_balanced(w) == _hull_balance(w)


def test_long_mechanical_word_is_balanced_and_one_swap_breaks_it():
    w = mechanical_word((3 - math.sqrt(5)) / 2, 300_000)
    assert is_balanced(w)
    k = w.index("01", 150_000)
    swapped = w[:k] + "10" + w[k + 2 :]
    assert not is_balanced(swapped)
    # The swap unbalances a short factor around it, which the hull oracle confirms.
    assert not _hull_balance(swapped[k - 100 : k + 100])


def test_mechanical_fixture():
    assert mechanical_word(Fraction(2, 5), 10) == "0101001010"


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=48),
)
def test_mechanical_words_are_balanced(a, b, n):
    gamma = Fraction(a, a + b)
    w = mechanical_word(gamma, n)
    assert len(w) == n
    assert is_balanced(w)


def _mechanical_oracle(gamma: Fraction, n: int, delta: Fraction) -> str:
    """Letter k is floor((k+1)*gamma + delta) - floor(k*gamma + delta), in Fractions."""
    floors = [math.floor(k * gamma + delta) for k in range(1, n + 2)]
    return "".join(str(floors[k + 1] - floors[k]) for k in range(n))


@given(
    st.integers(min_value=1, max_value=40),
    st.data(),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=130),
)
def test_mechanical_word_matches_fraction_oracle(q, data, phase_den, n):
    gamma = Fraction(data.draw(st.integers(min_value=0, max_value=q)), q)
    delta = Fraction(data.draw(st.integers(min_value=0, max_value=phase_den - 1)), phase_den)
    assert mechanical_word(gamma, n, delta) == _mechanical_oracle(gamma, n, delta)
    assert mechanical_word(gamma, n) == _mechanical_oracle(gamma, n, Fraction(0))


def test_mechanical_word_rejects_exact_slope_just_above_one():
    with pytest.raises(ValueError, match="slope"):
        mechanical_word(Fraction(10**20 + 1, 10**20), 5)
    with mpmath.workprec(192):
        above_one = mpmath.mpf(1) + mpmath.mpf(2) ** -100
    with pytest.raises(ValueError, match="slope"):
        mechanical_word(above_one, 5)
    with pytest.raises(ValueError, match="slope"):
        mechanical_word(-0.5, 5)


def test_mechanical_word_accepts_exact_phase_just_below_one():
    gamma, delta = Fraction(1, 3), Fraction(10**20 - 1, 10**20)
    assert mechanical_word(gamma, 5, delta) == _mechanical_oracle(gamma, 5, delta)
    with pytest.raises(ValueError, match="phase"):
        mechanical_word(gamma, 5, 1)


def test_mechanical_word_density_converges():
    gamma = Fraction(3, 7)
    w = mechanical_word(gamma, 7 * 20)
    assert Fraction(w.count("1"), len(w)) == gamma


def test_mechanical_word_irrational_slope_balanced():
    gamma = (3 - math.sqrt(5)) / 2
    w = mechanical_word(gamma, 200)
    assert is_balanced(w)
    assert abs(one_length(w) / 200 - gamma) < 1 / 200


def test_mechanical_word_float_slope_streams_its_floors():
    # A float slope is an exact dyadic rational whose period exceeds n.  Block
    # expansion holds only the word and block codes that shrink geometrically
    # with depth, so the traced peak stays near the output size.
    tracemalloc.start()
    try:
        w = mechanical_word(0.3819660112501051, 50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w) == 50_000
    assert peak < 2**20


def _mechanical_mpmath_oracle(gamma, n: int, delta, bits: int) -> str:
    """Letter k from mpmath floors of k*gamma + delta at ``bits`` bits."""
    with mpmath.workprec(bits):
        g, d = mpmath.mpf(gamma), mpmath.mpf(delta)
        floors = [int(mpmath.floor(k * g + d)) for k in range(1, n + 2)]
    return "".join("01"[b - a] for a, b in pairwise(floors))


@settings(deadline=None)
@given(
    st.floats(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=3000),
    st.floats(min_value=0, max_value=1, exclude_max=True),
)
@example(5e-324, 3000, 5e-324)
@example(0.5, 3000, 2.0**-1000)
@example(2.0**-60, 3000, 1 - 2.0**-53)
@example(1.0, 3000, 1 - 2.0**-53)
def test_float_mechanical_word_matches_mpmath_oracle(gamma, n, delta):
    assert mechanical_word(gamma, n, delta) == _mechanical_mpmath_oracle(gamma, n, delta, 128)


def _dyadic(man: int, exp: int) -> Fraction:
    return Fraction(man) * Fraction(2) ** exp


@st.composite
def mpf_parts(draw, below_one: bool):
    """(man, exp) with man * 2**exp in [0, 1], or [0, 1) when ``below_one``."""
    width = draw(st.integers(min_value=1, max_value=256))
    man = draw(st.integers(min_value=0, max_value=2**width - below_one))
    return man, -width - draw(st.integers(min_value=0, max_value=40))


@settings(deadline=None, max_examples=50)
@given(mpf_parts(False), st.integers(min_value=0, max_value=3000), mpf_parts(True))
@example((2**199 - 1, -200), 3000, (0, 0))
@example((1, -1), 3000, (2**256 - 1, -256))
@example((2**256 - 1, -256), 3000, (2**256 - 1, -296))
def test_mpf_mechanical_word_matches_exact_oracles(gamma_parts, n, delta_parts):
    with mpmath.workprec(300):
        gamma, delta = mpmath.mpf(gamma_parts), mpmath.mpf(delta_parts)
    w = mechanical_word(gamma, n, delta)
    # k*gamma + delta for k <= 3001 spans at most 12 bits above the binary point
    # and 296 below it, so 320 bits of mpmath are exact.
    assert w == _mechanical_mpmath_oracle(gamma, n, delta, 320)
    assert w == _mechanical_oracle(_dyadic(*gamma_parts), n, _dyadic(*delta_parts))


def _exact_value(x) -> Fraction:
    """The rational a Fraction, float or mpf holds, the mpf read from its man * 2**exp."""
    return _dyadic(*x.man_exp) if isinstance(x, mpmath.mpf) else Fraction(x)


def _floor_pair_oracle(gamma: Fraction, n: int, delta: Fraction) -> str:
    """The per-letter path: one period of floors (k*a + c) // b over the common
    denominator b, consecutive floors paired into letters, then repeated."""
    b = math.lcm(gamma.denominator, delta.denominator)
    a, c = gamma.numerator * b // gamma.denominator, delta.numerator * b // delta.denominator
    floors = ((k * a + c) // b for k in range(1, min(n, b) + 2))
    period = "".join("01"[y - x] for x, y in pairwise(floors))
    return period * (n // b) + period[: n % b]


def _exact_numbers(below_one: bool):
    """Fractions (denominators up to 10**30), floats and mpfs in [0, 1], or [0, 1)."""
    def fraction(den):
        return st.integers(min_value=0, max_value=den - below_one).map(lambda num: Fraction(num, den))

    def mpf(parts):
        with mpmath.workprec(300):
            return mpmath.mpf(parts)

    return st.one_of(
        st.integers(min_value=1, max_value=10**30).flatmap(fraction),
        st.floats(min_value=0, max_value=1, exclude_max=below_one),
        mpf_parts(below_one).map(mpf),
    )


@settings(deadline=None, max_examples=300)
@given(_exact_numbers(False), st.integers(min_value=0, max_value=3000), _exact_numbers(True))
@example(2.0**-60, 3000, 1 - 2.0**-53)  # one block longer than the word
@example(5e-324, 3000, 5e-324)
@example(5e-324, 3000, 0.0)
@example(Fraction(1, 2), 3000, Fraction(1, 3))  # 2a == b
@example(0.5, 3000, 2.0**-1000)
@example(Fraction(1), 3000, Fraction(2, 3))
@example(1.0, 3000, 1 - 2.0**-53)
@example(Fraction(2, 7), 7, Fraction(3, 7))  # n = b and n = b -+ 1
@example(Fraction(2, 7), 6, Fraction(3, 7))
@example(Fraction(2, 7), 8, Fraction(3, 7))
@example(Fraction(1111, 3000), 3000, Fraction(7, 3000))
@example(Fraction(1111, 3000), 2999, Fraction(7, 3000))
@example(Fraction(1111, 3000), 3001, Fraction(7, 3000))
@example(Fraction(10**30 - 7, 10**30), 3000, Fraction(123456789, 10**30))
@example(Fraction(381966011250105151795413165634, 10**30), 3000, Fraction(1, 3))
def test_mechanical_word_matches_floor_pair_oracle(gamma, n, delta):
    expected = _floor_pair_oracle(_exact_value(gamma), n, _exact_value(delta))
    assert mechanical_word(gamma, n, delta) == expected


def test_long_golden_word_matches_floor_pair_oracle():
    gamma = (3 - math.sqrt(5)) / 2
    assert mechanical_word(gamma, 200_000) == _floor_pair_oracle(Fraction(gamma), 200_000, Fraction(0))


def test_mpf_slope_just_below_a_rational_is_read_exactly():
    for p, q in ((1, 3), (2, 7), (5, 12), (10, 39)):
        with mpmath.workprec(192):
            gamma = mpmath.mpf(p) / q - mpmath.mpf(2) ** -150
        exact = _dyadic(*gamma.man_exp)
        assert mechanical_word(gamma, 4 * q) == _mechanical_oracle(exact, 4 * q, Fraction(0))
    with mpmath.workprec(192):
        third = mpmath.mpf(1) / 3 - mpmath.mpf(2) ** -150
    assert mechanical_word(third, 12) == "001001001001"


def test_mechanical_phase_shifts_word_not_density():
    gamma = Fraction(2, 5)
    plain = mechanical_word(gamma, 40)
    shifted = mechanical_word(gamma, 40, delta=Fraction(1, 3))
    assert one_length(plain) == one_length(shifted) or abs(
        one_length(plain) - one_length(shifted)
    ) <= 1
    assert is_balanced(shifted)


def test_sturmian_complexity_is_n_plus_one():
    for gamma in ((3 - math.sqrt(5)) / 2, math.sqrt(2) - 1):
        w = mechanical_word(gamma, 600)
        for n in range(1, 17):
            assert complexity(w, n) == n + 1


def test_periodic_word_complexity_saturates():
    w = "01" * 50
    assert complexity(w, 5) == 2


def test_standard_words_golden():
    cf = ContinuedFraction((1,) * 8)
    produced = standard_words(cf)
    # s_{-1} = "1", s_0 = "0", then Fibonacci-style concatenations.
    assert produced[0] == "1"
    assert produced[1] == "0"
    assert produced[2] == "01"
    assert produced[3] == "010"
    assert produced[4] == "01001"
    for prev, cur in zip(produced[3:], produced[4:]):
        assert cur.startswith(prev)


def test_standard_word_lengths_match_convergents():
    cf = ContinuedFraction((2, 3, 1, 2))
    produced = standard_words(cf)
    for n in range(-1, len(cf.partial_quotients) + 1):
        p, q = cf.convergents[n + 1]
        w = produced[n + 1]
        assert len(w) == q
        assert one_length(w) == p


@settings(deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5))
def test_standard_words_are_balanced(quotients):
    for w in standard_words(ContinuedFraction(tuple(quotients))):
        assert is_balanced(w)


def test_slope_convention_round_trip():
    cf = ContinuedFraction.from_slope_quotients((3, 2, 4))
    # [0; 3, 2, 4] = 9/31, reachable because the exponents become (2, 2, 4).
    assert cf.partial_quotients == (2, 2, 4)
    assert Fraction(*cf.convergents[-1]) == Fraction(9, 31)
    with pytest.raises(ValueError):
        ContinuedFraction.from_slope_quotients((1, 2, 3))


def test_convergents_recurrence():
    cf = ContinuedFraction((1, 2, 3, 4, 5))
    convergents = cf.convergents
    for n in range(2, len(convergents)):
        p2, q2 = convergents[n - 2]
        p1, q1 = convergents[n - 1]
        p0, q0 = convergents[n]
        a = cf.partial_quotients[n - 2]
        assert (p0, q0) == (a * p1 + p2, a * q1 + q2)


def rotations(w: str) -> list[str]:
    """Oracle: all ``len(w)`` left-rotations of ``w`` as strings, starting with ``w``."""
    doubled = w + w
    return [doubled[i : i + len(w)] for i in range(len(w))] if w else [""]


def least_rotation_oracle(w: str) -> str:
    """Build every rotation and keep the least: quadratic memory."""
    return min(rotations(w))


def test_minimal_period():
    assert minimal_period("010010") == 3
    assert minimal_period("0101010") == 7  # not a full repetition of "01"
    assert minimal_period("0000") == 1


def minimal_period_oracle(w: str) -> int:
    """The divisor scan: the least t dividing len(w) with w a power of w[:t]."""
    m = len(w)
    for t in range(1, m + 1):
        if m % t == 0 and w[:t] * (m // t) == w:
            return t
    return m


def test_minimal_period_matches_divisor_oracle_exhaustively():
    assert minimal_period("") == 0
    for m in range(1, 13):
        for letters in product("01", repeat=m):
            w = "".join(letters)
            assert minimal_period(w) == minimal_period_oracle(w)


def test_rotation_values_fixture():
    # The first rotation value is b(w) itself.
    assert reading_rotations(0b101, 3) == (5, 3, 6)
    assert reading_rotations(0b0001, 4) == (1, 2, 4, 8)
    assert reading_rotations(0, 6) == (0,) * 6


@settings(max_examples=300)
@given(st.text(alphabet="01", min_size=1, max_size=64))
@example("1")
@example("1" * 64)
@example("0" * 63 + "1")
def test_rotation_values_match_string_rotations(w):
    assert reading_rotations(int(w, 2), len(w)) == tuple(int(r, 2) for r in rotations(w))


def test_enumerate_orbits_partitions_all_words():
    p, q = 3, 7
    total = sum(period for _, period in enumerate_orbits(p, q))
    assert total == math.comb(q, p)


def _orbits_oracle(p: int, q: int) -> list[tuple[str, int]]:
    """Every one of the C(q, p) words, kept when it is its own least rotation."""
    reps = []
    for positions in combinations(range(q), p):
        chars = ["0"] * q
        for i in positions:
            chars[i] = "1"
        w = "".join(chars)
        if w == least_rotation_oracle(w):
            reps.append(w)
    return [(w, minimal_period(w)) for w in sorted(reps)]


@pytest.mark.parametrize("q", range(1, 15))
def test_enumerate_orbits_matches_oracle(q):
    for p in range(q + 1):
        produced = [(format(b, f"0{q}b"), period) for b, period in enumerate_orbits(p, q)]
        assert produced == _orbits_oracle(p, q), (p, q)


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _fixed_density_necklace_count(p: int, q: int) -> int:
    """(1/q) * sum over d | gcd(p, q) of phi(d) * C(q/d, p/d)."""
    g = math.gcd(p, q)
    total = sum(_totient(d) * math.comb(q // d, p // d) for d in range(1, g + 1) if g % d == 0)
    assert total % q == 0
    return total // q


@pytest.mark.parametrize("q", range(1, 17))
def test_necklace_readings_are_every_necklace_read_in_base_2(q):
    for p in range(q + 1):
        readings = enumerate_orbits(p, q)
        # Integer oracle, apart from the table: strictly ascending least
        # rotations with p ones, as many as the necklace formula counts, each
        # with the first rotation that returns to it as its period.
        assert len(readings) == _fixed_density_necklace_count(p, q)
        assert all(x < y for (x, _), (y, _) in pairwise(readings))
        for b, period in readings:
            turns = reading_rotations(b, q)
            assert b == min(turns) and b.bit_count() == p
            assert period == next((k for k in range(1, q) if turns[k] == b), q), (b, q)


@settings(deadline=None, max_examples=40)
@given(st.data(), st.integers(min_value=1, max_value=22))
def test_orbit_count_matches_necklace_formula(data, q):
    p = data.draw(st.integers(min_value=0, max_value=q))
    assert len(enumerate_orbits(p, q)) == _fixed_density_necklace_count(p, q)


def _fixed_density_walk(p: int, q: int) -> list[tuple[int, int]]:
    """Ruskey-Sawada (SIAM J. Comput. 1999): the binary prenecklace recursion
    pruned to p ones, depth first with 0 before 1, on the integer reading.

    A prenecklace a_1..a_t with period ``period`` extends by copying
    a_{t+1-period}, bit ``period - 1`` of its reading, or, when that letter is
    0, by a 1 that makes the whole prefix Lyndon (period t+1).  Branches whose
    one-count passes p or can no longer reach it are cut; a full-length
    prenecklace is a necklace exactly when its period divides q.
    """
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


@pytest.mark.parametrize("q", range(1, 19))
def test_enumerate_orbits_matches_fixed_density_walk(q):
    for p in range(q + 1):
        assert enumerate_orbits(p, q) == _fixed_density_walk(p, q), (p, q)


def test_enumerate_orbits_returns_a_new_list_each_call():
    first = enumerate_orbits(3, 9)
    expected = list(first)
    first.append((0, 1))
    enumerate_orbits(3, 9).clear()
    # Tables at other lengths, built or read in between, leave this one alone.
    for q in (4, 18, 9, 10):
        for p in range(q + 1):
            enumerate_orbits(p, q)
    assert enumerate_orbits(3, 9) == expected == _fixed_density_walk(3, 9)
    assert expected[0] == (0b000000111, 9)


def test_necklace_table_bound_is_checked_before_any_table_is_built():
    assert NECKLACE_TABLE_Q == 22
    assert enumerate_orbits(1, NECKLACE_TABLE_Q) == [(1, NECKLACE_TABLE_Q)]
    built = _necklace_table.cache_info().currsize
    for p, q in ((1, 23), (0, 70)):
        with pytest.raises(ValueError) as info:
            enumerate_orbits(p, q)
        assert str(info.value) == f"q={q} beyond the necklace table bound 22"
    assert _necklace_table.cache_info().currsize == built


def test_scan_orbits_scores_every_orbit_in_one_call():
    # The score sees every reading at once; the words reaching the optimum,
    # ties included, come back in order, checked against least string
    # rotations scored on the string.
    calls = []

    def residues(readings):  # three values over fourteen orbits: ties both ways
        calls.append(readings)
        return [b % 3 for b, _ in readings]

    necklaces = [w for w, _ in _orbits_oracle(4, 9)]
    for best in (max, min):
        calls.clear()
        readings, values, s = scan_orbits(4, 9, residues, best)
        assert calls == [readings] == [enumerate_orbits(4, 9)] and values == [b % 3 for b, _ in readings]
        top = best(int(w, 2) % 3 for w in necklaces)
        assert (s.p, s.q, s.orbits, s.best) == (4, 9, len(necklaces), top)
        assert s.argbest == tuple(w for w in necklaces if int(w, 2) % 3 == top)
        assert len(s.argbest) > 1 and not s.balanced
    calls.clear()
    with pytest.raises(ValueError, match="^q=21 beyond the exhaustive bound 20$"):
        scan_orbits(1, 21, residues, max)
    assert calls == []


def test_summary_verdict_needs_the_balanced_orbit_alone():
    summary = OrbitSummary(4, 10, 22, 0, ("0010100101",))
    assert summary.balanced_representative == balanced_orbit(2, 5).representative * 2
    assert summary.balanced
    assert not dataclasses.replace(summary, argbest=("0001100011", "0010100101")).balanced
    assert not dataclasses.replace(summary, argbest=("0001100011",)).balanced
    assert OrbitSummary(0, 3, 1, 0, ("000",)).balanced and OrbitSummary(3, 3, 1, 0, ("111",)).balanced


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: enumerate_orbits(0, 0), "word length q must be >= 1"),
        (lambda: enumerate_orbits(5, 4), "one-count p=5 outside 0..4"),
        (lambda: enumerate_orbits(-1, 4), "one-count p=-1 outside 0..4"),
        (lambda: balanced_orbit(0, 0), "word length q must be >= 1"),
        (lambda: balanced_orbit(5, 4), "one-count p=5 outside 0..4"),
        (lambda: balanced_orbit(2, 4), "p/q = 2/4 is not in lowest terms"),
    ],
)
def test_orbit_guards_name_what_they_refuse(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_coprime_pairs_match_nested_loop_oracle():
    for q_max in range(41):
        oracle = [
            (p, q) for q in range(2, q_max + 1) for p in range(1, q) if math.gcd(p, q) == 1
        ]
        assert coprime_pairs(q_max) == oracle, q_max
    assert coprime_pairs(-3) == []


def test_balanced_orbit_is_the_least_rotation_of_its_mechanical_word():
    """The Christoffel form equals the generic least-rotation and period scans."""
    for p, q in [(0, 1), (1, 1)] + coprime_pairs(200):
        w = mechanical_word(Fraction(p, q), q)
        least = format(min(reading_rotations(int(w, 2), q)), f"0{q}b")
        assert balanced_orbit(p, q) == Orbit(least, minimal_period(w)), (p, q)


def test_balanced_orbit_unique_and_balanced():
    for q in range(2, 11):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            orbit = balanced_orbit(p, q)
            assert is_balanced(orbit.representative)
            balanced_orbits = [
                (b, period) for b, period in enumerate_orbits(p, q)
                if is_balanced(format(b, f"0{q}b"))
            ]
            assert balanced_orbits == [(int(orbit.representative, 2), orbit.period)]


def test_parse_slope_and_format_fraction():
    assert parse_slope("2/5") == Fraction(2, 5)
    assert parse_slope("0.25") == 0.25
    with pytest.raises(ValueError):
        parse_slope("1/0")
    for text in ("inf", "-inf", "1e400", "nan"):
        with pytest.raises(ValueError, match="not finite"):
            parse_slope(text)
    for text in ("1/x", "1/2/3", "x/2", "abc", "", "1/"):
        with pytest.raises(ValueError) as info:
            parse_slope(text)
        assert str(info.value) == f"slope {text!r} is neither 'p/q' nor a number"
    assert format_fraction(Fraction(2, 5)) == "2/5"
    assert format_fraction(Fraction(4)) == "4"


def test_check_word_rejects_any_other_code_point():
    assert check_word("0110") == "0110"
    assert check_word("") == ""
    for bad in ("01a", "0\u00e91", "\u0661", "01\U0001f600", "0\x001", "\ud800", "1\udfff0"):
        with pytest.raises(ValueError, match=r"outside \{0,1\}"):
            check_word(bad)
    with pytest.raises(TypeError, match="must be a str"):
        check_word(b"01")


@given(st.text(st.sampled_from("01a\x00\u00e9\u0661\ud800\udfff\U0001f600"), max_size=12))
def test_check_word_matches_strip_oracle(w):
    """The one-pass byte filter accepts exactly the strings str.strip empties."""
    if w.strip("01"):
        with pytest.raises(ValueError):
            check_word(w)
    else:
        assert check_word(w) is w


def test_mechanical_spec_prefix_matches_function():
    spec = MechanicalSpec(Fraction(2, 5), Fraction(1, 7))
    assert spec.prefix(25) == mechanical_word(Fraction(2, 5), 25, Fraction(1, 7))


def test_symbol_stream_sources():
    assert symbol_stream("01", 5) == "01010"
    assert symbol_stream(MechanicalSpec(Fraction(2, 5)), 10) == "0101001010"
    with pytest.raises(ValueError, match="empty word"):
        symbol_stream("", 4)
    with pytest.raises(TypeError, match="unsupported symbol source"):
        symbol_stream(iter("01"), 2)
