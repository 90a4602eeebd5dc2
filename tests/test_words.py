"""Core word combinatorics: balance, mechanical words, standard words."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, pairwise, product

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sturmlab.checks import _naive_balance
from sturmlab.words import (
    ContinuedFraction,
    MechanicalSpec,
    Orbit,
    balance_witness,
    balanced_orbit,
    canonical_rotation,
    check_word,
    complexity,
    coprime_pairs,
    enumerate_orbits,
    factor_set,
    format_fraction,
    is_balanced,
    mechanical_word,
    minimal_period,
    necklace_readings,
    one_length,
    parse_slope,
    rotation_values,
    standard_words,
    symbol_stream,
)
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
    these words reach the hull test instead.  Either a mechanical word of
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
    assert is_balanced(w) == naive_balance(w) == _naive_balance(w)
    _assert_witness_is_a_real_violation(w)


def test_balance_matches_naive_oracle_on_every_short_word():
    for m in range(15):
        for letters in product("01", repeat=m):
            w = "".join(letters)
            assert is_balanced(w) == naive_balance(w), w


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
    # A float slope is an exact dyadic rational whose period exceeds n, so the
    # integer path pairs consecutive floors as they are made instead of
    # keeping all n + 1 of them: the traced peak stays near the output size.
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


@settings(max_examples=300)
@given(st.text(alphabet="01", max_size=300))
@example("")
@example("0101")
@example("10" * 150)
def test_canonical_rotation_matches_oracle(w):
    assert canonical_rotation(w) == least_rotation_oracle(w)


def test_canonical_rotation_matches_oracle_exhaustively():
    for m in range(1, 13):
        for letters in product("01", repeat=m):
            w = "".join(letters)
            assert canonical_rotation(w) == least_rotation_oracle(w)


def test_canonical_rotation_memory_is_linear():
    # All 8000 rotations at once would be 8000^2 bytes (about 61 MiB).
    w = mechanical_word(Fraction(1, 8000), 8000)
    tracemalloc.start()
    try:
        rep = canonical_rotation(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == "0" * 7999 + "1"
    assert peak < 2**16
    assert balanced_orbit(1, 8000).representative == rep


@given(words_st.filter(bool), st.integers(min_value=0, max_value=39))
def test_canonical_rotation_is_rotation_invariant(w, k):
    k %= len(w)
    rotated = w[k:] + w[:k]
    assert canonical_rotation(rotated) == canonical_rotation(w)


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
    assert rotation_values("101") == (5, 3, 6)
    assert rotation_values("0001") == (1, 2, 4, 8)
    assert rotation_values("0" * 6) == (0,) * 6


@settings(max_examples=300)
@given(st.text(alphabet="01", min_size=1, max_size=64))
@example("1")
@example("1" * 64)
@example("0" * 63 + "1")
def test_rotation_values_match_string_rotations(w):
    assert rotation_values(w) == tuple(int(r, 2) for r in rotations(w))


def test_enumerate_orbits_partitions_all_words():
    p, q = 3, 7
    total = sum(orbit.period for orbit in enumerate_orbits(p, q))
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
        produced = [(o.representative, o.period) for o in enumerate_orbits(p, q)]
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
        readings = necklace_readings(p, q)
        orbits = enumerate_orbits(p, q)
        assert readings == [(int(o.representative, 2), o.period) for o in orbits], (p, q)
        # Integer oracle, apart from the walk: strictly ascending least
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
        assert balanced_orbit(p, q) == Orbit(canonical_rotation(w), minimal_period(w)), (p, q)


def test_balanced_orbit_unique_and_balanced():
    for q in range(2, 11):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            orbit = balanced_orbit(p, q)
            assert is_balanced(orbit.representative)
            balanced_orbits = [
                o for o in enumerate_orbits(p, q) if is_balanced(o.representative)
            ]
            assert balanced_orbits == [orbit]


def test_parse_slope_and_format_fraction():
    assert parse_slope("2/5") == Fraction(2, 5)
    assert parse_slope("0.25") == 0.25
    with pytest.raises(ValueError):
        parse_slope("1/0")
    for text in ("inf", "-inf", "1e400", "nan"):
        with pytest.raises(ValueError, match="not finite"):
            parse_slope(text)
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
