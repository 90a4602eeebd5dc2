"""Multimodularity checks and balanced minimality of window averages."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sturmlab.multimodular import (
    LatticeDomainError,
    LatticeFunction,
    affine_function,
    check_multimodular,
    convex_window_load,
    coordinate_max,
    multimodular_basis,
    negative_product,
    slotted_queue_backlog,
    window_average,
)
from sturmlab.words import balanced_orbit, mechanical_word


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
    ok, violations = check_multimodular(J, [(-2, 2)] * 3)
    assert ok, violations


def test_slotted_backlog_is_multimodular():
    J = slotted_queue_backlog(3)
    ok, violations = check_multimodular(J, [(-1, 2)] * 3)
    assert ok, violations


def test_negative_product_is_not_multimodular():
    ok, violations = check_multimodular(negative_product(), [(-2, 2)] * 2)
    assert not ok
    u, v, w = violations[0]
    # Re-check the reported violation by hand.
    J = negative_product()
    uv = tuple(a + b for a, b in zip(u, v))
    uw = tuple(a + b for a, b in zip(u, w))
    uvw = tuple(a + b + c for a, b, c in zip(u, v, w))
    assert J(uv) + J(uw) < J(u) + J(uvw)


def test_coordinate_max_is_not_multimodular():
    ok, _ = check_multimodular(coordinate_max(2), [(-2, 2)] * 2)
    assert not ok


@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=-3, max_value=3),
)
def test_affine_functions_are_multimodular(coefficients, constant):
    J = affine_function(coefficients, constant)
    ok, violations = check_multimodular(J, [(-1, 1)] * J.arity)
    assert ok, violations


def test_domain_error_carries_point():
    def partial(u):
        if u[0] < 0:
            raise KeyError("untabulated")
        return u[0]

    J = LatticeFunction(1, partial, "partial")
    with pytest.raises(LatticeDomainError) as info:
        check_multimodular(J, [(0, 1)])
    assert info.value.point[0] < 0


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


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("objective", [convex_window_load, slotted_queue_backlog])
def test_balanced_word_minimizes_window_average(m, objective):
    J = objective(m)
    for q in range(2, 9):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            averages = {w: window_average(J, w, 4 * q) for w in all_words(p, q)}
            best = min(averages.values())
            balanced = balanced_orbit(p, q).representative
            assert averages[balanced] == best, (p, q, balanced, best)


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
