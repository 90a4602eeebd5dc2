"""Cyclic binary values and full-orbit products.

For a word w of length m, b(w) reads w as a base-2 integer; the orbit product
B(w) multiplies b over all m left-rotations.  The headline check here is that
among all words of length q with p ones (p, q coprime) the balanced orbit is
the unique maximizer of B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .words import (
    EXHAUSTIVE_Q,
    Orbit,
    balanced_orbit,
    canonical_rotation,
    coprime_pairs,
    enumerate_orbits,
    minimal_period,
    rotation_values,
)

__all__ = [
    "OrbitProduct",
    "orbit_product",
    "ProductScanRow",
    "ProductScan",
    "verify_balanced_product_maximum",
    "scan_coprime_pairs",
]


@dataclass(frozen=True)
class OrbitProduct:
    """b-values along every rotation of a word, and their product."""

    orbit: Orbit
    factors: tuple[int, ...]
    product: int


def orbit_product(w: str) -> OrbitProduct:
    """Product of b over all ``len(w)`` left-rotations, starting canonical.

    Rotation-invariant: any member of the orbit gives the same report.
    Duplicated rotations of a periodic word are multiplied as often as they
    occur, so the product always has ``len(w)`` factors.
    """
    rep = canonical_rotation(w)  # validates w
    if not rep:
        raise ValueError("orbit product is undefined for the empty word")
    return _orbit_product(Orbit(rep, minimal_period(rep)))


def _orbit_product(orbit: Orbit) -> OrbitProduct:
    factors = rotation_values(orbit.representative)
    return OrbitProduct(orbit, factors, math.prod(factors))


@dataclass(frozen=True)
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
    passed: bool = field(default=False)


def verify_balanced_product_maximum(p: int, q: int) -> ProductScan:
    """Check that the balanced orbit uniquely maximizes the orbit product.

    Enumerates every rotation orbit of length q with p ones (gcd(p, q) = 1
    required), computes the full product for each, and passes iff the unique
    argmax orbit is the balanced one.
    """
    if math.gcd(p, q) != 1:
        raise ValueError(f"(p, q) = ({p}, {q}) must be coprime")
    if not 0 < p < q:
        raise ValueError(f"need 0 < p < q, got ({p}, {q})")
    if q > EXHAUSTIVE_Q:
        raise ValueError(f"q={q} beyond the exhaustive bound {EXHAUSTIVE_Q}")
    balanced_rep = balanced_orbit(p, q).representative
    reports = [_orbit_product(o) for o in enumerate_orbits(p, q)]
    best = max(r.product for r in reports)
    argmax = tuple(r.orbit.representative for r in reports if r.product == best)
    rows = tuple(
        ProductScanRow(
            representative=r.orbit.representative,
            factors=r.factors,
            product=r.product,
            balanced=r.orbit.representative == balanced_rep,
            argmax=r.product == best,
        )
        for r in reports
    )
    passed = argmax == (balanced_rep,)
    return ProductScan(p, q, rows, best, argmax, balanced_rep, passed)


def scan_coprime_pairs(q_max: int) -> list[ProductScan]:
    """Run the product check for every coprime pair 0 < p < q <= q_max."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    if q_max > EXHAUSTIVE_Q:
        raise ValueError(f"q_max={q_max} beyond the exhaustive bound {EXHAUSTIVE_Q}")
    return [verify_balanced_product_maximum(p, q) for p, q in coprime_pairs(q_max)]
