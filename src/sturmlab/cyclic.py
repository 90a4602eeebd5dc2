"""Cyclic binary values and full-orbit products.

For a word w of length m, b(w) reads w as a base-2 integer; the orbit product
B(w) multiplies b over all m left-rotations.  The headline check here is that
among all words of length q with p ones (p, q coprime) the balanced orbit is
the unique maximizer of B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .words import (
    EXHAUSTIVE_Q,
    Orbit,
    OrbitSummary,
    check_word,
    coprime_pairs,
    enumerate_orbits,  # not called here: perfbench's tracer test reads cyclic.enumerate_orbits
    minimal_period,
    rotations,
    scan_orbits,
)

__all__ = [
    "OrbitProduct",
    "orbit_product",
    "ProductScanRow",
    "ProductScan",
    "verify_balanced_product_maximum",
    "scan_coprime_pairs",
    "summarize_coprime_pairs",
]


@dataclass(frozen=True)
class OrbitProduct:
    """b-values along every rotation of a word, and their product."""

    orbit: Orbit
    factors: tuple[int, ...]
    product: int


def orbit_product(w: str) -> OrbitProduct:
    """Product of b over all ``len(w)`` left-rotations, starting at the least.

    Rotation-invariant: any member of the orbit gives the same report, since
    the least rotation is the one with the least reading.  Duplicated
    rotations of a periodic word are multiplied as often as they occur, so
    the product always has ``len(w)`` factors.
    """
    if not check_word(w):
        raise ValueError("orbit product is undefined for the empty word")
    values = rotations(int(w, 2), len(w))
    start = values.index(min(values))
    factors = values[start:] + values[:start]
    rep = format(factors[0], f"0{len(w)}b")
    return OrbitProduct(Orbit(rep, minimal_period(rep)), factors, math.prod(factors))


@dataclass(frozen=True, slots=True)
class ProductScanRow:
    representative: str
    factors: tuple[int, ...]
    product: int
    balanced: bool
    argmax: bool


@dataclass(frozen=True)
class ProductScan:
    """Exhaustive orbit-product table for fixed (p, q), with the verdict."""

    p: int
    q: int
    rows: tuple[ProductScanRow, ...]
    max_product: int
    argmax: tuple[str, ...]
    balanced_representative: str
    passed: bool


def _product_scan(p: int, q: int):
    """Each orbit's rotation readings and their product, from one orbit scan, and its summary."""
    if math.gcd(p, q) != 1:
        raise ValueError(f"(p, q) = ({p}, {q}) must be coprime")
    if not 0 < p < q:
        raise ValueError(f"need 0 < p < q, got ({p}, {q})")
    factors = []

    def products(readings):
        factors.extend([rotations(b, q) for b, _ in readings])
        return [math.prod(f) for f in factors]

    _, values, summary = scan_orbits(p, q, products, max)
    return factors, values, summary


def verify_balanced_product_maximum(p: int, q: int) -> ProductScan:
    """Check that the balanced orbit uniquely maximizes the orbit product.

    Enumerates every rotation orbit of length q with p ones (gcd(p, q) = 1
    required), computes the full product for each, and passes iff the unique
    argmax orbit is the balanced one.
    """
    factors, products, s = _product_scan(p, q)
    representative = s.balanced_representative
    balanced = int(representative, 2)
    rows = tuple([
        ProductScanRow(format(f[0], f"0{q}b"), f, product, f[0] == balanced, product == s.best)
        for f, product in zip(factors, products)
    ])
    return ProductScan(p, q, rows, s.best, s.argbest, representative, s.balanced)


def _coprime_pairs(q_max: int) -> list[tuple[int, int]]:
    """Every coprime pair 0 < p < q <= q_max, for a q_max an exhaustive scan accepts."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    if q_max > EXHAUSTIVE_Q:
        raise ValueError(f"q_max={q_max} beyond the exhaustive bound {EXHAUSTIVE_Q}")
    return coprime_pairs(q_max)


def scan_coprime_pairs(q_max: int) -> list[ProductScan]:
    """Run the product check for every coprime pair 0 < p < q <= q_max."""
    return [verify_balanced_product_maximum(p, q) for p, q in _coprime_pairs(q_max)]


def summarize_coprime_pairs(q_max: int) -> list[OrbitSummary]:
    """``scan_coprime_pairs``' verdicts from the same loop, without building their rows."""
    return [_product_scan(p, q)[-1] for p, q in _coprime_pairs(q_max)]
