"""Ring electron configurations under convex decreasing pair potentials.

Electrons sit on a q-site ring, interactions depend only on the ring
distance, and the energy of an occupancy word is half the sum of the pair
potential over ordered pairs.  Exhaustive orbit scans locate the ground
state; for every shipped convex decreasing potential the minimizer is the
balanced configuration, while a deliberately concave increasing fixture
rewards clustering and guards the check against being vacuous.

A pair's energy and image-tail bound depend only on its offset, so each
energy reads one per-offset table.  Exact potentials (Coulomb, integer
powers, the fixture) tabulate integers over a common denominator.  Without
images, the pairs at offset m of a configuration read as the integer b are
the set bits of ``b & (b >> m)``, so its energy numerator is a sum of table
entries times popcounts; the scan orders configurations on those integers,
without floating-point ambiguity, and builds one ``Fraction`` per row for
the report.  Float families add their pairs in (a, b) order and tie within a
relative ``TIE_MARGIN`` of the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Sequence, Union

from .words import EXHAUSTIVE_Q, Orbit, balanced_orbit, enumerate_orbits, is_balanced

__all__ = [
    "Potential",
    "coulomb",
    "inverse_power",
    "exponential_decay",
    "screened",
    "anti_coulomb",
    "default_potentials",
    "is_convex_decreasing",
    "OrbitEnergy",
    "GroundStateReport",
    "ground_state",
    "TIE_MARGIN",
]

Energy = Union[Fraction, float]

CONVEX_GRID = 16

MAX_POWER = 32  # exact r**-s energies at q = 20 have about 3.6 s digits

TIE_MARGIN = 1e-12  # float energies within this fraction of the minimum count as tied


@dataclass(frozen=True)
class Potential:
    """Named pair potential V(r) on integer ring distances r >= 1."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in ("coulomb", "power", "exponential", "screened", "anti"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(self.params))

    def value(self, r) -> Energy:
        if r <= 0:
            raise ValueError(f"potential undefined at distance {r}")
        if self.kind == "coulomb":
            return Fraction(1) / Fraction(r)
        if self.kind == "power":
            s = self.params[0]
            if isinstance(s, int):
                return Fraction(1) / Fraction(r) ** s
            return float(r) ** (-float(s))
        if self.kind == "exponential":
            return math.exp(-float(self.params[0]) * float(r))
        if self.kind == "screened":
            return math.exp(-float(self.params[0]) * float(r)) / float(r)
        return -(Fraction(1) / Fraction(r))

    def describe(self) -> str:
        if self.params:
            inner = ",".join(str(p) for p in self.params)
            return f"{self.kind}({inner})"
        return self.kind

    def image_tail(self, m: int, q: int, cutoff: int) -> float:
        """Upper bound on the truncation error of the periodic image sum.

        Integral bound for integrable power laws, exact geometric remainder
        for exponential decay.  Families whose image series diverges (or is
        not decreasing at all) refuse the mode.
        """
        if self.kind == "power":
            s = float(self.params[0])
            if s <= 1:
                raise ValueError("periodic image sum diverges for r**-s with s <= 1")
            scale = q * (s - 1)
            return ((m + cutoff * q) ** (1 - s) + (cutoff * q - m) ** (1 - s)) / scale
        if self.kind in ("exponential", "screened"):
            lam = float(self.params[0])
            r_plus = m + (cutoff + 1) * q
            r_minus = (cutoff + 1) * q - m
            return (math.exp(-lam * r_plus) + math.exp(-lam * r_minus)) / (
                1 - math.exp(-lam * q)
            )
        if self.kind == "coulomb":
            raise ValueError("periodic image sum diverges for 1/r")
        raise ValueError(f"periodic image sum unsupported for {self.kind!r}")


def coulomb() -> Potential:
    """V(r) = 1/r, exact rationals."""
    return Potential("coulomb")


def inverse_power(s: int = 3) -> Potential:
    """V(r) = r**-s; exact rationals for integer s, with 0 < s <= MAX_POWER."""
    if not 0 < s <= MAX_POWER:
        raise ValueError(f"exponent must be positive and finite, at most {MAX_POWER}, got {s}")
    return Potential("power", (s,))


def exponential_decay(rate: float = 1.0) -> Potential:
    """V(r) = exp(-rate * r)."""
    if not 0 < rate < math.inf:
        raise ValueError(f"decay rate must be positive and finite, got {rate}")
    return Potential("exponential", (float(rate),))


def screened(rate: float = 1.0) -> Potential:
    """V(r) = exp(-rate * r) / r."""
    if not 0 < rate < math.inf:
        raise ValueError(f"decay rate must be positive and finite, got {rate}")
    return Potential("screened", (float(rate),))


def anti_coulomb() -> Potential:
    """V(r) = -1/r: increasing and concave, so clustering pays.

    Fixture used to confirm the balanced-minimizer checks can fail.
    """
    return Potential("anti")


def default_potentials() -> tuple[Potential, ...]:
    return (coulomb(), inverse_power(3), exponential_decay(1.0))


def is_convex_decreasing(potential: Potential) -> bool:
    """Grid check of the ground-state hypotheses on r = 1..CONVEX_GRID.

    Requires V nonincreasing, discretely convex
    (V(r-1) + V(r+1) >= 2 V(r)), and decayed to at most a quarter of V(1)
    by r = CONVEX_GRID.
    """
    values = [potential.value(r) for r in range(1, CONVEX_GRID + 1)]
    decreasing = all(values[i + 1] <= values[i] for i in range(len(values) - 1))
    convex = all(
        values[i - 1] + values[i + 1] >= 2 * values[i]
        for i in range(1, len(values) - 1)
    )
    vanishing = 0 <= values[-1] <= values[0] / 4
    return decreasing and convex and vanishing


class _PairTable:
    """Pair energies and image-tail bounds by offset m = b - a on a q-site ring.

    Exact potentials store integers over ``scale``, the lcm of their
    denominators; float potentials store floats and ``scale`` None.
    """

    def __init__(self, potential: Potential, q: int, images: int):
        if images < 0:
            raise ValueError("image cutoff must be >= 0")
        if images > 0:  # refuses a divergent image series even on a ring with no pairs
            potential.image_tail(1, max(q, 2), images)
        self.values, self.tails = {}, dict.fromkeys(range(1, q), 0.0)
        for m in range(1, q):
            if images == 0:
                self.values[m] = potential.value(min(m, q - m))
                continue
            value = potential.value(m)
            for k in range(1, images + 1):
                value = value + potential.value(m + k * q) + potential.value(k * q - m)
            self.values[m], self.tails[m] = value, potential.image_tail(m, q, images)
        self.scale = None
        if all(isinstance(v, Fraction) for v in self.values.values()):
            self.scale = math.lcm(*(v.denominator for v in self.values.values()))
            for m, v in self.values.items():
                self.values[m] = v.numerator * (self.scale // v.denominator)

    def energy(self, offsets: Sequence[int]) -> Energy:
        """Energy of the pairs at ``offsets``; no pairs is an exact 0 under any potential."""
        if self.scale is not None:
            return Fraction(sum(self.values[m] for m in offsets), self.scale)
        # Left to right like a pair loop: builtin sum compensates floats from Python 3.12.
        return reduce(add, (self.values[m] for m in offsets), 0.0) if offsets else Fraction(0)

    def tail(self, offsets: Sequence[int]) -> float:
        """Bound on the image-sum truncation error of the pairs at ``offsets``."""
        return reduce(add, (self.tails[m] for m in offsets), 0.0)


def _pair_offsets(w: str) -> list[int]:
    """Offsets b - a of the electron pairs a < b of w, in (a, b) order."""
    electrons = [i for i, ch in enumerate(w) if ch == "1"]
    return [b - a for i, a in enumerate(electrons) for b in electrons[i + 1:]]


@dataclass(frozen=True)
class OrbitEnergy:
    orbit: Orbit
    energy: Energy
    balanced: bool
    argmin: bool


@dataclass(frozen=True)
class GroundStateReport:
    p: int
    q: int
    potential: Potential
    rows: tuple[OrbitEnergy, ...]
    min_energy: Energy
    argmin: tuple[Orbit, ...]
    balanced: bool
    exact: bool


def ground_state(p: int, q: int, potential: Potential, images: int = 0) -> GroundStateReport:
    """Exhaustive orbit-level minimum of the ring energy.

    Rotation invariance allows scanning one representative per orbit.  With
    exact rational energies the argmin set is sharp; with float energies
    every orbit within a relative ``TIE_MARGIN`` of the minimum (plus image
    tail bounds) counts as tied, so near-degeneracies surface instead of hiding.
    """
    if q < 1:
        raise ValueError("ring needs at least one site")
    if not 0 <= p <= q:
        raise ValueError(f"electron count {p} outside 0..{q}")
    if q > EXHAUSTIVE_Q:
        raise ValueError(f"q={q} beyond the exhaustive bound {EXHAUSTIVE_Q}")
    orbits = enumerate_orbits(p, q)
    table = _PairTable(potential, q, images)
    exact = images == 0 and table.scale is not None
    if exact:
        # Offset-m pairs of the reading b are the set bits of b & (b >> m).
        numerators = [
            sum(v * (b & (b >> m)).bit_count() for m, v in table.values.items())
            for b in (int(o.representative, 2) for o in orbits)
        ]
        least = min(numerators)
        energies = [Fraction(n, table.scale) for n in numerators]
        minimum = Fraction(least, table.scale)
        tied = [n == least for n in numerators]
    else:
        offsets = [_pair_offsets(o.representative) for o in orbits]
        energies = [table.energy(pairs) for pairs in offsets]
        exact = images == 0 and all(isinstance(e, Fraction) for e in energies)
        minimum = min(energies)
        if exact:  # a float potential with no pairs: every energy is an exact 0
            tied = [e == minimum for e in energies]
        else:
            # Truncated image sums underestimate the true energy by at most the
            # tail bound, so any orbit whose computed energy undercuts the
            # smallest upper envelope could be the true minimizer.
            ceiling = min(float(e) + table.tail(pairs) for e, pairs in zip(energies, offsets))
            tied = [float(e) <= ceiling + TIE_MARGIN * abs(ceiling) for e in energies]
    # The one balanced orbit is g copies of the balanced (p/g, q/g) word.
    g = math.gcd(p, q)
    balanced_rep = balanced_orbit(p // g, q // g).representative * g
    rows = tuple(
        OrbitEnergy(o, e, o.representative == balanced_rep, t)
        for o, e, t in zip(orbits, energies, tied)
    )
    argmin = tuple(row.orbit for row in rows if row.argmin)
    balanced = all(is_balanced(o.representative) for o in argmin)
    return GroundStateReport(p, q, potential, rows, minimum, argmin, balanced, exact)
