"""Sliding-window time averages of a function on 0-1 windows.

``window_average`` averages a function J of m consecutive letters over the
sliding windows of a word or mechanical sequence.  J is chosen multimodular:
for every pair of distinct vectors v != w from the basis F = {f_0 = -e_1,
f_i = e_i - e_{i+1} (1 <= i < m), f_m = e_m}, J(u + v) + J(u + w) >= J(u) +
J(u + v + w).  Such averages are minimized by mechanical (balanced)
sequences among all sequences with the same density; the queue simulation
in ``queueing`` provides the stochastic counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Callable, Sequence

import numpy as np

from .words import symbol_stream

__all__ = [
    "LatticeFunction",
    "LatticeDomainError",
    "window_average",
    "convex_window_load",
    "slotted_queue_backlog",
]


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
