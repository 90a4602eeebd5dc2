"""Multimodularity of the window costs and balanced minimality of window averages."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlab.multimodular import (
    LatticeDomainError,
    LatticeFunction,
    convex_window_load,
    slotted_queue_backlog,
    window_average,
)
from sturmlab.words import MechanicalSpec, balanced_orbit, mechanical_word, symbol_stream


def multimodular_basis(m: int) -> list[tuple[int, ...]]:
    """The m + 1 basis vectors f_0, ..., f_m in Z^m; they sum to zero."""
    if m < 1:
        raise ValueError("arity m must be >= 1")
    vectors = [tuple(-1 if j == 0 else 0 for j in range(m))]
    for i in range(1, m):
        vectors.append(tuple(1 if j == i - 1 else -1 if j == i else 0 for j in range(m)))
    vectors.append(tuple(1 if j == m - 1 else 0 for j in range(m)))
    return vectors


def _check_multimodular_oracle(J: LatticeFunction, box):
    """Every violating triple (u, v, w) of the multimodularity inequality on an
    inclusive integer box: J called afresh at u, u + v, u + w and u + v + w for
    every basis pair at every box point, so J must be defined one step out."""
    basis = multimodular_basis(J.arity)
    violations = []
    for u in product(*[range(lo, hi + 1) for lo, hi in box]):
        base = J(u)
        for v, w in combinations(basis, 2):
            uv = tuple(a + b for a, b in zip(u, v))
            uw = tuple(a + b for a, b in zip(u, w))
            uvw = tuple(a + b + c for a, b, c in zip(u, v, w))
            if J(uv) + J(uw) < base + J(uvw):
                violations.append((u, v, w))
    return not violations, violations


def _affine(coefficients, constant) -> LatticeFunction:
    """J(u) = c . u + b; multimodular with equality everywhere."""
    coefficients = tuple(coefficients)
    return LatticeFunction(len(coefficients), lambda u: sum(c * x for c, x in zip(coefficients, u)) + constant,
                           "affine")


# The oracle's failing controls: neither is multimodular.
NEGATIVE_PRODUCT = LatticeFunction(2, lambda u: -(u[0] * u[1]), "neg-product")
COORDINATE_MAX = LatticeFunction(2, max, "coordinate-max")


def test_basis_shape_and_zero_sum():
    for m in range(1, 6):
        basis = multimodular_basis(m)
        assert len(basis) == m + 1
        assert [sum(col) for col in zip(*basis)] == [0] * m
        # f_0 and f_m are the signed unit vectors at the ends.
        assert basis[0] == tuple(-1 if j == 0 else 0 for j in range(m))
        assert basis[-1] == tuple(1 if j == m - 1 else 0 for j in range(m))


def test_convex_window_load_is_multimodular():
    J = convex_window_load(3)
    ok, violations = _check_multimodular_oracle(J, [(-2, 2)] * 3)
    assert ok, violations


def test_slotted_backlog_is_multimodular():
    J = slotted_queue_backlog(3)
    ok, violations = _check_multimodular_oracle(J, [(-1, 2)] * 3)
    assert ok, violations


def test_slotted_backlog_is_zero_on_binary_windows():
    # A slot admits at most one customer and serves one, so the backlog never
    # leaves 0 on a 0-1 window; only inputs >= 2 (as in the boxes) build one.
    for m in range(1, 8):
        J = slotted_queue_backlog(m)
        assert all(J(u) == 0 for u in product((0, 1), repeat=m))
        assert J((2,) * m) == m


def test_negative_product_is_not_multimodular():
    J = NEGATIVE_PRODUCT
    ok, violations = _check_multimodular_oracle(J, [(-2, 2)] * 2)
    assert not ok
    u, v, w = violations[0]
    # Re-check the reported violation by hand.
    uv = tuple(a + b for a, b in zip(u, v))
    uw = tuple(a + b for a, b in zip(u, w))
    uvw = tuple(a + b + c for a, b, c in zip(u, v, w))
    assert J(uv) + J(uw) < J(u) + J(uvw)


def test_coordinate_max_is_not_multimodular():
    ok, _ = _check_multimodular_oracle(COORDINATE_MAX, [(-2, 2)] * 2)
    assert not ok


@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=-3, max_value=3),
)
def test_affine_functions_are_multimodular(coefficients, constant):
    J = _affine(coefficients, constant)
    ok, violations = _check_multimodular_oracle(J, [(-1, 1)] * J.arity)
    assert ok, violations


def test_lattice_function_refuses_a_point_of_another_arity():
    J = convex_window_load(3)
    for point in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match=rf"^window-load\(m=3,target=1\) expects arity 3, got {len(point)}$"):
            J(point)
    with pytest.raises(ValueError, match="^function expects arity 1, got 0$"):
        LatticeFunction(1, sum)(())


def test_window_average_passes_a_domain_error_from_J_through():
    # A J that tabulates its own domain reports the point it missed, not the window.
    table = {(0,): 0, (1,): 1}

    def load_of_sum(u):
        point = (sum(u),)
        try:
            return table[point]
        except KeyError as exc:
            raise LatticeDomainError(point, exc) from exc

    with pytest.raises(LatticeDomainError, match=r"^lattice function undefined at \(2,\): ") as info:
        window_average(LatticeFunction(2, load_of_sum, "load-of-sum"), "0110", 4)
    assert info.value.point == (2,)


def cyclic_average(J: LatticeFunction, w: str) -> Fraction:
    """Independent oracle: average J over the q cyclic windows of w."""
    q, m = len(w), J.arity
    doubled = w + w
    total = sum(J(tuple(int(c) for c in doubled[k : k + m])) for k in range(q))
    return Fraction(total, q)


def all_words(p: int, q: int):
    for positions in combinations(range(q), p):
        yield "".join("1" if i in positions else "0" for i in range(q))


def test_window_average_matches_cyclic_oracle():
    J = slotted_queue_backlog(3)
    for w in ("0010101", "0001101", "1010010"):
        assert window_average(J, w, 4 * len(w)) == cyclic_average(J, w)


# Objectives that tie every word of a density, so the minimiser test below
# cannot tell a balanced word from any other: the slotted backlog is 0 on
# every 0-1 window (test_slotted_backlog_is_zero_on_binary_windows).
VACUOUS_ON_BINARY_WORDS = {slotted_queue_backlog}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("objective", [convex_window_load, slotted_queue_backlog])
def test_balanced_word_minimizes_window_average(m, objective):
    J = objective(m)
    separated = 0
    for q in range(2, 9):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            averages = {w: window_average(J, w, 4 * q) for w in all_words(p, q)}
            best = min(averages.values())
            balanced = balanced_orbit(p, q).representative
            assert averages[balanced] == best, (p, q, balanced, best)
            separated += max(averages.values()) > best
    # Some density must have a strictly worse competitor, or the test is vacuous.
    assert (separated == 0) == (objective in VACUOUS_ON_BINARY_WORDS), separated


def test_window_average_accepts_mechanical_source():
    from sturmlab.words import MechanicalSpec

    J = convex_window_load(2)
    spec = MechanicalSpec(Fraction(2, 5))
    direct = window_average(J, spec, 20)
    via_word = window_average(J, mechanical_word(Fraction(2, 5), 25), 20)
    assert direct == via_word


def test_window_average_needs_enough_symbols():
    J = convex_window_load(3)
    with pytest.raises(ValueError, match="empty word"):
        window_average(J, "", 10)
    with pytest.raises(TypeError, match="unsupported symbol source"):
        window_average(J, iter("0101" * 5), 10)


@pytest.mark.parametrize("n", [True, False, 2.5, Fraction(4), "10", None])
def test_window_count_must_be_an_int(n):
    with pytest.raises(ValueError, match=rf"^window count n must be an int, got {re.escape(repr(n))}$"):
        window_average(convex_window_load(2), "0101", n)


@pytest.mark.parametrize("n", [0, -3])
def test_window_count_must_be_positive(n):
    with pytest.raises(ValueError, match="^need at least one window$"):
        window_average(convex_window_load(2), "0101", n)


def test_window_code_width_bounds_the_arity():
    J = LatticeFunction(64, _binary_value, "binary")
    assert window_average(J, "1", 2) == 2**64 - 1
    assert window_average(J, "10", 3) == _window_average_oracle(J, "10", 3)
    for m in (65, -1):
        with pytest.raises(ValueError, match=rf"^arity {m} is outside 0\.\.64, the bits of a window code$"):
            window_average(LatticeFunction(m, _binary_value, "binary"), "01", 3)


def _window_average_oracle(J: LatticeFunction, source, n: int):
    """The per-window loop window_average replaced: J called on every window."""
    if n < 1:
        raise ValueError("need at least one window")
    m = J.arity
    bits = tuple(int(c) for c in symbol_stream(source, n + m - 1))
    total = None
    for k in range(n):
        point = bits[k : k + m]
        try:
            value = J(point)
        except Exception as exc:
            raise LatticeDomainError(point, exc) from exc
        total = value if total is None else total + value
    if isinstance(total, (int, Fraction)):
        return Fraction(total, n)
    return total / n


def _binary_value(u):
    """An order-sensitive J: the window read as a binary number."""
    return sum(x << j for j, x in enumerate(reversed(u)))


_unit = st.fractions(0, 1, max_denominator=60)
_sources = st.one_of(
    st.text(alphabet="01", min_size=1, max_size=40),
    st.builds(MechanicalSpec, _unit, _unit.filter(lambda delta: delta < 1)),
    st.builds(MechanicalSpec, st.floats(0, 1), st.floats(0, 1, exclude_max=True)),
)


@st.composite
def _objectives(draw, arities=st.integers(1, 5)):
    m = draw(arities)
    kind = draw(st.sampled_from(["load", "int", "fraction", "float", "binary"]))
    if kind == "load":
        return convex_window_load(m, draw(st.integers(-2, 6)))
    if kind == "binary":
        return LatticeFunction(m, _binary_value, "binary")
    values = {
        "int": st.integers(-50, 50),
        "fraction": st.fractions(-5, 5, max_denominator=30),
        "float": st.floats(-1e3, 1e3, allow_nan=False),
    }[kind]
    coefficients = draw(st.lists(values, min_size=m, max_size=m, unique=True))
    return _affine(coefficients, draw(values))


@settings(deadline=None, max_examples=300)
@given(_objectives(), _sources, st.integers(1, 400))
def test_window_average_matches_per_window_oracle(J, source, n):
    assert repr(window_average(J, source, n)) == repr(_window_average_oracle(J, source, n))


# Codes wider than a byte: uint16 at m = 9, uint32 at 17, uint64 at 33 and 64.
@pytest.mark.parametrize("m", [9, 17, 33, 64])
@settings(deadline=None, max_examples=20)
@given(data=st.data(), source=_sources, n=st.integers(1, 400))
def test_window_average_matches_per_window_oracle_on_wide_codes(m, data, source, n):
    J = data.draw(_objectives(st.just(m)))
    assert repr(window_average(J, source, n)) == repr(_window_average_oracle(J, source, n))


@given(st.integers(1, 5), st.integers(-1, 6), _sources, st.integers(1, 400))
def test_window_average_calls_J_once_per_distinct_window(m, target, source, n):
    calls = []
    load = convex_window_load(m, target)

    def counted(u):
        calls.append(u)
        return load(u)

    window_average(LatticeFunction(m, counted, "counted"), source, n)
    stream = symbol_stream(source, n + m - 1)
    # Falsy values (a load of 0) are memoised too.
    assert sorted(calls) == sorted({tuple(map(int, stream[k : k + m])) for k in range(n)})


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 5), st.data(), _sources, st.integers(1, 400))
def test_window_average_fails_at_the_oracles_first_bad_window(m, data, source, n):
    bad = data.draw(st.sets(st.tuples(*[st.integers(0, 1)] * m), min_size=1, max_size=3))

    def partial(u):
        if u in bad:
            raise KeyError("untabulated")
        return _binary_value(u)

    J = LatticeFunction(m, partial, "partial")
    try:
        want = _window_average_oracle(J, source, n)
    except LatticeDomainError as error:
        with pytest.raises(LatticeDomainError) as info:
            window_average(J, source, n)
        assert info.value.point == error.point and info.value.point in bad
    else:
        assert window_average(J, source, n) == want


@pytest.mark.parametrize("objective", ["load", "binary"])
def test_window_average_matches_oracle_at_benchmark_scale(objective):
    # 100k windows of the 3/8 source and of a seeded shuffle with as many ones.
    J = convex_window_load(4) if objective == "load" else LatticeFunction(4, _binary_value, "binary")
    n = 100_000
    balanced = MechanicalSpec(Fraction(3, 8))
    letters = list(symbol_stream(balanced, n + J.arity - 1))
    random.Random(38).shuffle(letters)
    shuffle = "".join(letters)
    averages = [window_average(J, source, n) for source in (balanced, shuffle)]
    assert averages == [_window_average_oracle(J, source, n) for source in (balanced, shuffle)]
    if objective == "load":
        assert averages[0] < averages[1]
    else:
        # Coordinate j of an affine J reads n of the n + 3 letters, whose ones
        # differ between the sources by at most 3: weights 8 + 4 + 2 + 1 = 15.
        assert abs(averages[0] - averages[1]) <= Fraction(3 * 15, n)
