"""Ring electron configurations under convex decreasing pair potentials.

Electrons sit on a q-site ring, interactions depend only on the ring
distance, and the energy of an occupancy word is half the sum of the pair
potential over ordered pairs.  Exhaustive orbit scans locate the ground
state; for every shipped convex decreasing potential the minimizer is the
balanced configuration, while a deliberately concave increasing fixture
rewards clustering and guards the check against being vacuous.

A pair's energy and image-tail bound depend only on its offset, so each
scan reads one per-offset table.  ``Fraction(x)`` is exact for a float too,
so every entry is an integer over one scale, the lcm of their denominators.
The pairs at offset m of a configuration read as the integer b are the set
bits of ``b & (b >> m)``, so an energy numerator is a sum of table entries
times popcounts, for every family, with or without images.  Exact reports
order configurations on those integers; float families round each exact
sum once and tie within a relative ``TIE_MARGIN`` of the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Union

from .words import Orbit, OrbitSummary, enumerate_orbits, scan_orbits  # enumerate_orbits: read by perfbench

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
    "ground_state_summary",
    "TIE_MARGIN",
]

Energy = Union[Fraction, float]

CONVEX_GRID = 16

MAX_POWER = 32  # exact r**-s energies at q = 20 have about 3.6 s digits

TIE_MARGIN = 1e-12  # float energies within this fraction of the minimum count as tied


@dataclass(frozen=True, eq=False)
class Potential:
    """Named pair potential V(r) on integer ring distances r >= 1."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in ("coulomb", "power", "exponential", "screened", "anti"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(self.params))

    def _key(self) -> tuple:  # parameter types count: power(2) is exact, power(2.0) is not
        return self.kind, tuple((type(x), x) for x in self.params)

    def __eq__(self, other) -> bool:
        return isinstance(other, Potential) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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
            # expm1 keeps 1 - exp(-lam * q) from rounding to 0 (or too large).
            bound = (math.exp(-lam * r_plus) + math.exp(-lam * r_minus)) / -math.expm1(-lam * q)
            if not math.isfinite(bound):
                raise ValueError(f"image tail bound overflows at decay rate {lam}")
            return bound
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


@lru_cache(maxsize=256)
def _pair_table(potential: Potential, q: int, images: int) -> tuple[int, tuple, tuple]:
    """Pair energies by offset m = b - a on a q-site ring and, with images, their upper
    envelopes (energy plus image-tail bound), read exactly: a scale and two tuples of
    (m, scale * entry), built once per (potential, q, images) in a process."""
    if images < 0:
        raise ValueError("image cutoff must be >= 0")
    if images > 0:  # refuses a divergent image series even on a ring with no pairs
        potential.image_tail(1, max(q, 2), images)
    values, envelopes = {}, {}
    for m in range(1, q):
        d = min(m, q - m)  # images sum around the ring distance, the same in every rotation
        value = potential.value(d)
        for k in range(1, images + 1):
            value = value + potential.value(d + k * q) + potential.value(k * q - d)
        values[m] = Fraction(value)  # exact for a float too
        if images:
            envelopes[m] = values[m] + Fraction(potential.image_tail(d, q, images))
    scale = math.lcm(*(v.denominator for v in (*values.values(), *envelopes.values())))
    return scale, *(tuple((m, v.numerator * (scale // v.denominator)) for m, v in table.items())
                    for table in (values, envelopes))


def _pair_sums(readings: list, weights: tuple) -> list[int]:
    """Per reading b, the sum of w over (m, w) in ``weights`` times the
    offset-m pairs of b, the set bits of b & (b >> m)."""
    return [sum(w * (b & (b >> m)).bit_count() for m, w in weights) for b, _ in readings]


@dataclass(frozen=True, slots=True)
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


def _energy_scan(p: int, q: int, potential: Potential, images: int):
    """Readings, energy numerators over ``scale`` and the summary, from one orbit scan."""
    if q < 1:
        raise ValueError("ring needs at least one site")
    if not 0 <= p <= q:
        raise ValueError(f"electron count {p} outside 0..{q}")
    scale = envelopes = None

    def energies(readings):  # the table is built once scan_orbits has accepted q
        nonlocal scale, envelopes
        scale, values, envelopes = _pair_table(potential, q, images)
        return _pair_sums(readings, values)

    readings, numerators, summary = scan_orbits(p, q, energies, min)
    least, argmin = summary.best, summary.argbest
    fractions = p < 2 or isinstance(potential.value(1), Fraction)  # no pairs: an exact 0
    exact = images == 0 and fractions
    if not exact:
        # Truncated image sums underestimate the true energy by at most the
        # tail bound, so any orbit whose computed energy undercuts the
        # smallest upper envelope could be the true minimizer.
        ceiling = (min(_pair_sums(readings, envelopes)) if images else least) / scale
        tied = (n / scale <= ceiling + TIE_MARGIN * abs(ceiling) for n in numerators)
        argmin = tuple(format(b, f"0{q}b") for b, _ in compress(readings, tied))
    minimum = Fraction(least, scale) if fractions else least / scale
    return readings, numerators, scale, exact, OrbitSummary(p, q, summary.orbits, minimum, argmin)


def ground_state_summary(p: int, q: int, potential: Potential, images: int = 0) -> OrbitSummary:
    """``ground_state``'s verdict from the same loop, without building its rows."""
    return _energy_scan(p, q, potential, images)[-1]


def ground_state(p: int, q: int, potential: Potential, images: int = 0) -> GroundStateReport:
    """Exhaustive orbit-level minimum of the ring energy.

    Energies read ring distances only, images too, so one rotation per orbit
    is scanned.  With exact rational energies the argmin set is sharp; with
    float energies every orbit within a relative ``TIE_MARGIN`` of the minimum
    (plus image tail bounds) counts as tied, so near-degeneracies surface.
    """
    readings, numerators, scale, exact, summary = _energy_scan(p, q, potential, images)
    if isinstance(summary.best, Fraction):
        energies = [Fraction(n, scale) for n in numerators]
    else:
        energies = [n / scale for n in numerators]
    balanced, tied = int(summary.balanced_representative, 2), {int(w, 2) for w in summary.argbest}
    rows = tuple(
        OrbitEnergy(Orbit(format(b, f"0{q}b"), period), e, b == balanced, b in tied)
        for (b, period), e in zip(readings, energies)
    )
    argmin = tuple(row.orbit for row in rows if row.argmin)
    return GroundStateReport(p, q, potential, rows, summary.best, argmin, summary.balanced, exact)
