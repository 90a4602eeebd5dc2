"""Multimodularity checks and sliding-window time averages.

A function J on Z^m is multimodular when, for every pair of distinct vectors
v != w from the basis F = {f_0 = -e_1, f_i = e_i - e_{i+1} (1 <= i < m),
f_m = e_m}, the inequality J(u + v) + J(u + w) >= J(u) + J(u + v + w) holds.
Time averages of such J over sliding windows of a 0-1 admission sequence are
minimized by mechanical (balanced) sequences among all sequences with the
same density; the queue simulation in ``queueing`` provides the stochastic
counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import add, mul
from typing import Callable, Sequence

import numpy as np

from .words import symbol_stream

__all__ = [
    "multimodular_basis",
    "LatticeFunction",
    "LatticeDomainError",
    "check_multimodular",
    "window_average",
    "affine_function",
    "convex_window_load",
    "slotted_queue_backlog",
    "negative_product",
    "coordinate_max",
]


def multimodular_basis(m: int) -> list[tuple[int, ...]]:
    """The m + 1 basis vectors f_0, ..., f_m in Z^m; they sum to zero."""
    if m < 1:
        raise ValueError("arity m must be >= 1")
    vectors = [tuple(-1 if j == 0 else 0 for j in range(m))]
    for i in range(1, m):
        vectors.append(tuple(1 if j == i - 1 else -1 if j == i else 0 for j in range(m)))
    vectors.append(tuple(1 if j == m - 1 else 0 for j in range(m)))
    return vectors


@dataclass(frozen=True)
class LatticeFunction:
    """A named function on integer vectors of fixed arity."""

    arity: int
    fn: Callable[[tuple[int, ...]], object]
    name: str = ""

    def __call__(self, u: Sequence[int]):
        u = tuple(u)
        if len(u) != self.arity:
            raise ValueError(f"{self.name or 'function'} expects arity {self.arity}, got {len(u)}")
        return self.fn(u)


class LatticeDomainError(ValueError):
    """Raised when an evaluation leaves the function's tabulated domain."""

    def __init__(self, point: tuple[int, ...], cause: Exception):
        super().__init__(f"lattice function undefined at {point}: {cause}")
        self.point = point


def _evaluate(J: LatticeFunction, point: tuple[int, ...]):
    try:
        return J(point)
    except LatticeDomainError:
        raise
    except Exception as exc:
        raise LatticeDomainError(point, exc) from exc


def check_multimodular(
    J: LatticeFunction, box: Sequence[tuple[int, int]]
) -> tuple[bool, list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]]:
    """Test the multimodularity inequalities on an integer box.

    ``box`` gives inclusive (lo, hi) bounds per coordinate; J must be defined
    on the box inflated by one basis step in every direction.  Returns
    (verdict, violations) with every violating triple (u, v, w) reported.

    Exact when J returns ints/Fractions; float-valued J is compared as-is.
    J is called once per lattice point, at first use, so it must be pure.
    """
    if len(box) != J.arity:
        raise ValueError(f"box has {len(box)} coordinates, function arity is {J.arity}")
    for i, (lo, hi) in enumerate(box):
        if lo > hi:
            raise ValueError(f"box coordinate {i} is empty: lo {lo} > hi {hi}")
    basis = multimodular_basis(J.arity)
    pairs = [(i, j, tuple(map(add, v, w))) for (i, v), (j, w) in combinations(enumerate(basis), 2)]
    values = {}

    def value(point):
        if point not in values:
            values[point] = _evaluate(J, point)
        return values[point]

    violations = []
    ranges = [range(lo, hi + 1) for lo, hi in box]
    for u in product(*ranges):
        base = value(u)
        steps = [tuple(map(add, u, f)) for f in basis]
        for i, j, vw in pairs:
            if value(steps[i]) + value(steps[j]) < base + value(tuple(map(add, u, vw))):
                violations.append((u, basis[i], basis[j]))
    return not violations, violations


def window_average(J: LatticeFunction, source, n: int):
    """Average of J over the first ``n`` sliding windows of a symbol source.

    The source is a word (repeated) or a MechanicalSpec.  J is called once per
    distinct m-bit window code (first letter highest, m <= 64) in the order a
    stable sort gives, so it must be pure; the stream's first bad window raises.
    Int/Fraction values give the exact Fraction sum(count * value) / n; other
    values are added window by window in stream order, keeping float rounding.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"window count n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("need at least one window")
    m = J.arity
    if not 0 <= m <= 64:
        raise ValueError(f"arity {m} is outside 0..64, the bits of a window code")
    bits = np.frombuffer(symbol_stream(source, n + m - 1).encode(), np.uint8) == ord("1")
    codes = np.zeros(n, np.min_scalar_type((1 << m) - 1))
    for j in range(m):
        codes <<= 1
        codes |= bits[j : j + n]
    ordered = np.sort(codes, kind="stable")  # a radix sort for codes of up to 16 bits
    starts = np.flatnonzero(np.diff(ordered, prepend=~ordered[:1]))
    distinct, counts = ordered[starts].tolist(), np.diff(starts, append=n).tolist()
    values, errors = [], {}
    for code in distinct:
        try:
            values.append(_evaluate(J, tuple(code >> (m - 1 - j) & 1 for j in range(m))))
        except LatticeDomainError as error:
            errors[code] = error
    if errors:
        failed = np.isin(codes, np.fromiter(errors, codes.dtype))
        raise errors[int(codes[failed.argmax()])]
    if all(isinstance(value, (int, Fraction)) for value in values):
        return Fraction(sum(map(mul, counts, values)), n)
    return reduce(add, map(dict(zip(distinct, values)).__getitem__, codes.tolist())) / n


def affine_function(coefficients: Sequence, constant=0) -> LatticeFunction:
    """J(u) = c . u + b; multimodular with equality everywhere."""
    coefficients = tuple(coefficients)

    def fn(u):
        return sum(c * x for c, x in zip(coefficients, u)) + constant

    return LatticeFunction(len(coefficients), fn, "affine")


def convex_window_load(m: int, target: int = 1) -> LatticeFunction:
    """J(u) = (u_1 + ... + u_m - target)^2; convex in the window sum."""

    def fn(u):
        return (sum(u) - target) ** 2

    return LatticeFunction(m, fn, f"window-load(m={m},target={target})")


def slotted_queue_backlog(m: int) -> LatticeFunction:
    """Backlog after m slots of a unit-service queue fed by the window.

    q_0 = 0 and q_i = max(q_{i-1} + u_i - 1, 0); J(u) = q_m.  Negative
    admissions are allowed (they drain the queue faster), so J is defined on
    all of Z^m.  J is 0 on every 0-1 window (a slot admits at most one and
    serves one); it is nonzero only where some input is >= 2.
    """

    def fn(u):
        backlog = 0
        for x in u:
            backlog = max(backlog + x - 1, 0)
        return backlog

    return LatticeFunction(m, fn, f"slotted-backlog(m={m})")


def negative_product() -> LatticeFunction:
    """J(u) = -(u_1 * u_2); a classic non-multimodular fixture."""
    return LatticeFunction(2, lambda u: -(u[0] * u[1]), "neg-product")


def coordinate_max(m: int = 2) -> LatticeFunction:
    """J(u) = max(u); not multimodular either."""
    return LatticeFunction(m, lambda u: max(u), f"coordinate-max(m={m})")
