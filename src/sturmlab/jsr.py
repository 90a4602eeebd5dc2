"""Joint spectral radius bounds and the scaled-pair ratio staircase.

The testbed is the pair A0 = (1 1; 0 1), A1 = (1 0; 1 1) and its deformation
{A0, alpha*A1}.  Brute force over necklaces yields certified lower bounds
(spectral radii of cyclic products) and norm maxima yield upper bounds; for
the undeformed pair both collapse onto the golden ratio already at length 2.
Scanning necklaces of a fixed length while alpha sweeps [0, 1] produces a
non-decreasing staircase of optimal 1-densities with values in [0, 1/2].

At the golden-mean slope the deformation threshold has two independent
product expansions, one through the trace sequence tau_{n+1} =
tau_n tau_{n-1} - tau_{n-2} and one through spectral radii of the standard
matrices B_{n+1} = B_n^{a_{n+1}} B_{n-1}.  Both are evaluated in the log
domain with mpmath and agree with the reference decimal ALPHA_STAR_DECIMAL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import mpmath as mp

from .words import ContinuedFraction, enumerate_orbits

__all__ = [
    "Mat2",
    "A0",
    "A1",
    "scaled_pair",
    "BoundsRow",
    "JsrBounds",
    "jsr_bounds",
    "RatioScanResult",
    "optimal_ratio_scan",
    "ratio_staircase",
    "StandardMatrixSequence",
    "standard_matrices",
    "tau_sequence",
    "PrecisionContext",
    "PrecisionError",
    "AlphaEstimate",
    "alpha_inverse",
    "alpha_star_tau",
    "ALPHA_STAR_DECIMAL",
    "matching_digits",
]

Scalar = Union[int, Fraction, float]

ALPHA_STAR_DECIMAL = "0.749326546330367557943961948091344672091327"

MAX_ALPHA_TERMS = 30


class PrecisionError(ValueError):
    """Requested evaluation exceeds what the numeric plumbing can honor."""


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix with exact rational entries (a b; c d)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __rmul__(self, scalar: Scalar) -> "Mat2":
        if isinstance(scalar, Mat2):
            return NotImplemented
        s = Fraction(scalar)
        return Mat2(s * self.a, s * self.b, s * self.c, s * self.d)

    def __pow__(self, exponent: int) -> "Mat2":
        if exponent < 0:
            raise ValueError("only nonnegative matrix powers are supported")
        out = Mat2(1, 0, 0, 1)
        for _ in range(exponent):
            out = out * self
        return out

    @property
    def trace(self) -> Fraction:
        return self.a + self.d

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        return ((self.a, self.b), (self.c, self.d))

    def spectral_radius(self) -> float:
        """Largest eigenvalue modulus from the trace/determinant closed form."""
        t = self.trace
        disc = t * t - 4 * self.det
        if disc >= 0:
            root = math.sqrt(float(disc))
            tf = float(t)
            return max(abs((tf + root) / 2), abs((tf - root) / 2))
        return math.sqrt(float(self.det))

    def spectral_norm(self) -> float:
        """Largest singular value; closed form via the squared-entry sum."""
        e = self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d
        det = self.det
        gap = e * e - 4 * det * det
        return math.sqrt((float(e) + math.sqrt(float(gap))) / 2)

    def row_sum_norm(self) -> float:
        return float(max(abs(self.a) + abs(self.b), abs(self.c) + abs(self.d)))


A0 = Mat2(1, 1, 0, 1)
A1 = Mat2(1, 0, 1, 1)

_NORMS = {
    "spectral": Mat2.spectral_norm,
    "row-sum": Mat2.row_sum_norm,
}


def scaled_pair(alpha: Scalar) -> list[Mat2]:
    """The deformed pair {A0, alpha*A1} for alpha in [0, 1]."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return [A0, alpha * A1]


@dataclass(frozen=True)
class BoundsRow:
    n: int
    lower: float
    upper: float
    argmax_necklace: str


@dataclass(frozen=True)
class JsrBounds:
    norm: str
    rows: tuple[BoundsRow, ...]
    lower: float
    upper: float


def jsr_bounds(matrices: Sequence[Mat2], n_max: int, norm: str = "spectral") -> JsrBounds:
    """Brute-force bracket of the joint spectral radius.

    The lower bound is the best normalized spectral radius over necklaces of
    each length up to n_max; the upper bound is the smallest normalized norm
    maximum over all products of a fixed length.  Both sandwich the true
    value for any sub-multiplicative norm.  Necklaces are the binary ones
    from :func:`enumerate_orbits` in lexicographic order, letter i standing
    for ``matrices[i]``, so the set holds one or two matrices.
    """
    matrices = list(matrices)
    if not 1 <= len(matrices) <= 2:
        raise ValueError(f"need one or two matrices, got {len(matrices)}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if norm not in _NORMS:
        raise ValueError(f"unknown norm {norm!r}; choose from {sorted(_NORMS)}")
    if len(matrices) ** n_max > 1 << 20:
        raise ValueError("alphabet**n_max beyond the exhaustive budget (2^20)")
    norm_fn = _NORMS[norm]

    rows = []
    lower = 0.0
    upper = math.inf
    for n in range(1, n_max + 1):
        lower_n = -math.inf
        argmax = ""
        densities = range(n + 1) if len(matrices) == 2 else (0,)
        necklaces = sorted(o.representative for ones in densities for o in enumerate_orbits(ones, n))
        for word in necklaces:
            product = matrices[int(word[0])]
            for letter in word[1:]:
                product = product * matrices[int(letter)]
            value = product.spectral_radius() ** (1.0 / n)
            if value > lower_n:
                lower_n = value
                argmax = word
        upper_n = _max_norm(matrices, n, norm_fn) ** (1.0 / n)
        lower = max(lower, lower_n)
        upper = min(upper, upper_n)
        rows.append(BoundsRow(n, lower_n, upper_n, argmax))
    return JsrBounds(norm, tuple(rows), lower, upper)


def _max_norm(matrices: list[Mat2], n: int, norm_fn) -> float:
    best = -math.inf

    def extend(product: Optional[Mat2], depth: int):
        nonlocal best
        if depth == n:
            best = max(best, norm_fn(product))
            return
        for matrix in matrices:
            extend(matrix if product is None else product * matrix, depth + 1)

    extend(None, 0)
    return best


@lru_cache(maxsize=32)
def _necklace_traces(n: int) -> tuple[tuple[int, str, int], ...]:
    """(ones, representative, trace of the 0-1 product) per binary necklace.

    Products use plain integer tuples for speed; the scaling of the second
    matrix factors out of the product as alpha**ones, so one integer pass
    serves every alpha.
    """
    a0 = (1, 1, 0, 1)
    a1 = (1, 0, 1, 1)
    rows = []
    for ones in range(n + 1):
        for orbit in enumerate_orbits(ones, n):
            m = (1, 0, 0, 1)
            for bit in orbit.representative:
                x = a0 if bit == "0" else a1
                m = (
                    m[0] * x[0] + m[1] * x[2],
                    m[0] * x[1] + m[1] * x[3],
                    m[2] * x[0] + m[3] * x[2],
                    m[2] * x[1] + m[3] * x[3],
                )
            rows.append((ones, orbit.representative, m[0] + m[3]))
    return tuple(rows)


@dataclass(frozen=True)
class RatioScanResult:
    alpha: Fraction
    n: int
    ratio: Fraction
    necklace: str
    value: float


def optimal_ratio_scan(alpha: Scalar, n: int, max_n: int = 18) -> RatioScanResult:
    """Best 1-density among length-n necklaces for the pair {A0, alpha*A1}.

    Maximizes (alpha**ones * spectral_radius(product))^(1/n).  Necklaces are
    visited in (ones, representative) order with strict improvement, so ties
    resolve toward the smaller ratio; in particular the complement-transpose
    symmetry of the undeformed pair lands the ratio in [0, 1/2].
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not 1 <= n <= max_n:
        raise ValueError(f"n={n} outside the exhaustive range 1..{max_n}")
    if alpha == 0:
        return RatioScanResult(alpha, n, Fraction(0), "0" * n, 1.0)
    log_alpha = math.log(alpha)
    best_score = -math.inf
    best: tuple[int, str] = (0, "0" * n)
    for ones, representative, trace in _necklace_traces(n):
        log_rho = math.log((trace + math.sqrt(trace * trace - 4)) / 2) if trace > 2 else 0.0
        score = ones * log_alpha + log_rho
        if score > best_score:
            best_score = score
            best = (ones, representative)
    return RatioScanResult(
        alpha, n, Fraction(best[0], n), best[1], math.exp(best_score / n)
    )


def ratio_staircase(alphas: Sequence[Scalar], n: int, max_n: int = 18) -> list[RatioScanResult]:
    """optimal_ratio_scan across an alpha grid, reusing one necklace pass."""
    return [optimal_ratio_scan(alpha, n, max_n) for alpha in alphas]


def tau_sequence(n_max: int) -> tuple[int, ...]:
    """tau_0..tau_{n_max} from tau_0 = 1, tau_1 = tau_2 = 2 and the
    recurrence tau_{n+1} = tau_n * tau_{n-1} - tau_{n-2}."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    taus = [1, 2, 2]
    while len(taus) <= n_max:
        taus.append(taus[-1] * taus[-2] - taus[-3])
    return tuple(taus[: n_max + 1])


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision for the log-domain alpha evaluations."""

    bits: int = 256

    def __post_init__(self):
        if self.bits < 128:
            raise PrecisionError(f"need at least 128 bits, got {self.bits}")


@dataclass(frozen=True)
class StandardMatrixSequence:
    """B_{-1} = alpha*A1, B_0 = A0, B_{n+1} = B_n^{a_{n+1}} B_{n-1}.

    Storage index i holds B_{i-1}; use the accessors to address by n.
    """

    cf: ContinuedFraction
    alpha: Fraction
    matrices: tuple[Mat2, ...]
    tau: tuple[Fraction, ...]
    rho: tuple[mp.mpf, ...] = field(repr=False)
    bits: int = 256

    @property
    def depth(self) -> int:
        return len(self.cf.partial_quotients)

    def _storage(self, n: int) -> int:
        if not -1 <= n <= self.depth:
            raise IndexError(f"index {n} outside -1..{self.depth}")
        return n + 1

    def B(self, n: int) -> Mat2:
        return self.matrices[self._storage(n)]

    def tau_at(self, n: int) -> Fraction:
        return self.tau[self._storage(n)]

    def rho_at(self, n: int) -> mp.mpf:
        return self.rho[self._storage(n)]


def standard_matrices(cf: ContinuedFraction, alpha: Scalar = 1, bits: int = 256) -> StandardMatrixSequence:
    """Exact standard-matrix sequence with traces and spectral radii.

    Entries stay rational for rational alpha; spectral radii come from the
    trace/determinant closed form evaluated at the requested precision.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    matrices = [alpha * A1, A0]
    for a in cf.partial_quotients:
        matrices.append(matrices[-1] ** a * matrices[-2])
    taus = tuple(m.trace for m in matrices)
    with mp.workprec(bits):
        rhos = tuple(_perron_root(m.trace, m.det) for m in matrices)
    return StandardMatrixSequence(cf, alpha, tuple(matrices), taus, rhos, bits)


def _mpf_fraction(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


def _perron_root(trace: Fraction, det: Fraction) -> mp.mpf:
    """(t + sqrt(t^2 - 4 det)) / 2; real for entrywise-nonnegative matrices."""
    t = _mpf_fraction(trace)
    disc = t * t - 4 * _mpf_fraction(det)
    if disc < 0:
        raise ValueError("complex spectrum; expected a nonnegative matrix")
    return (t + mp.sqrt(disc)) / 2


@dataclass(frozen=True)
class AlphaEstimate:
    """Truncated evaluation of a deformation threshold.

    value is the product-form result; error is the gap between the last two
    partial products; limit_form is the independent two-term closed form at
    the same truncation depth.  Successive partials alternate around the
    limit, so the gap is an honest bracket width.
    """

    value: mp.mpf
    error: mp.mpf
    product_form: mp.mpf
    limit_form: mp.mpf
    partials: tuple[mp.mpf, ...] = field(repr=False)
    terms: int
    bits: int


def _check_terms(terms: int):
    if terms < 3:
        raise ValueError("need at least 3 terms for a bracketed estimate")
    if terms > MAX_ALPHA_TERMS:
        raise PrecisionError(
            f"terms={terms}: traces grow doubly exponentially and exceed the "
            f"practical integer budget beyond {MAX_ALPHA_TERMS} terms"
        )


def alpha_inverse(
    gamma_cf: ContinuedFraction, terms: int, ctx: PrecisionContext = PrecisionContext()
) -> AlphaEstimate:
    """Deformation threshold of the slope described by gamma_cf.

    Evaluates the alternating product over n of
    (rho_n^{a_{n+1}} rho_{n-1} / rho_{n+1})^{(-1)^n q_n} together with the
    closed two-term form (rho_n^{q_{n+1}} / rho_{n+1}^{q_n})^{(-1)^n} at the
    truncation depth, using exact traces and log-domain arithmetic.
    """
    _check_terms(terms)
    quotients = gamma_cf.partial_quotients
    if len(quotients) < terms + 1:
        raise ValueError(
            f"need at least terms + 1 = {terms + 1} partial quotients, "
            f"got {len(quotients)}"
        )
    with mp.workprec(ctx.bits):
        sequence = standard_matrices(gamma_cf, 1, bits=ctx.bits)
        q = [pair[1] for pair in gamma_cf.convergents]
        log_rho = [mp.log(r) if r > 1 else mp.mpf(0) for r in sequence.rho]
        partials = []
        acc = mp.mpf(0)
        for n in range(terms + 1):
            i = n + 1
            term = quotients[n] * log_rho[i] + log_rho[i - 1] - log_rho[i + 1]
            acc += (-1) ** n * q[i] * term
            partials.append(mp.e**acc)
        i = terms + 1
        limit_exponent = (-1) ** terms * (q[i + 1] * log_rho[i] - q[i] * log_rho[i + 1])
        limit_form = mp.e**limit_exponent
        error = abs(partials[-1] - partials[-2])
        return AlphaEstimate(
            partials[-1], error, partials[-1], limit_form, tuple(partials), terms, ctx.bits
        )


def alpha_star_tau(terms: int, ctx: PrecisionContext = PrecisionContext()) -> AlphaEstimate:
    """Golden-mean deformation threshold from the trace recurrence alone.

    Evaluates the alternating product over n >= 1 of
    (1 - tau_{n-1} / (tau_n tau_{n+1}))^{(-1)^n F_{n+1}} with exact integer
    taus, plus the closed form (tau_n^{F_{n+1}} / tau_{n+1}^{F_n})^{(-1)^n}
    at the truncation depth.
    """
    _check_terms(terms)
    taus = tau_sequence(terms + 1)
    fibs = [0, 1]
    while len(fibs) <= terms + 2:
        fibs.append(fibs[-1] + fibs[-2])
    with mp.workprec(ctx.bits):
        partials = []
        acc = mp.mpf(0)
        for n in range(1, terms + 1):
            ratio = mp.mpf(taus[n - 1]) / (mp.mpf(taus[n]) * mp.mpf(taus[n + 1]))
            acc += (-1) ** n * fibs[n + 1] * mp.log1p(-ratio)
            partials.append(mp.e**acc)
        n = terms
        limit_exponent = (-1) ** n * (
            fibs[n + 1] * mp.log(taus[n]) - fibs[n] * mp.log(taus[n + 1])
        )
        limit_form = mp.e**limit_exponent
        error = abs(partials[-1] - partials[-2])
        return AlphaEstimate(
            partials[-1], error, partials[-1], limit_form, tuple(partials), terms, ctx.bits
        )


def matching_digits(value, reference: str = ALPHA_STAR_DECIMAL) -> int:
    """Count of agreeing decimal digits after '0.' against a reference string."""
    digits = len(reference) - 2
    if not isinstance(value, mp.mpf):
        value = mp.mpf(value)
    rendered = mp.nstr(value, digits + 2, strip_zeros=False)
    if rendered[:2] != reference[:2]:
        return 0
    count = 0
    for ours, theirs in zip(rendered[2:], reference[2:]):
        if ours != theirs:
            break
        count += 1
    return count
