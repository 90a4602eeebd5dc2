"""Joint spectral radius bounds and the scaled-pair ratio staircase.

The testbed is the pair A0 = (1 1; 0 1), A1 = (1 0; 1 1) and its deformation
{A0, alpha*A1}.  Brute force over necklaces yields certified lower bounds
(spectral radii of cyclic products) and norm maxima yield upper bounds; for
the undeformed pair both collapse onto the golden ratio already at length 2.
Scanning necklaces of a fixed length while alpha sweeps [0, 1] produces a
non-decreasing staircase of optimal 1-densities with values in [0, 1/2].

A 2x2 matrix is the row-major 4-tuple (a, b, c, d), and every product is
``_mul`` on integer tuples.  ``jsr_bounds`` reads its entries as ``Fraction``
and scales them by their common denominator d; both of its bounds read one
list of half-word product tables, and its closed forms read a length-n
product over d**n with one rounding each.

At the golden-mean slope the deformation threshold has two independent
product expansions, one through the trace sequence tau_{n+1} =
tau_n tau_{n-1} - tau_{n-2} and one through the Perron roots of the standard
matrices B_{n+1} = B_n^{a_{n+1}} B_{n-1}, which ``standard_matrices`` returns
as plain integer 4-tuples.  One estimator sums either expansion's log factors
left to right with mpmath into its partial products; both agree with the
reference decimal ALPHA_STAR_DECIMAL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Sequence, Union

import mpmath as mp

from .words import ContinuedFraction, necklace_readings
from .words import enumerate_orbits  # noqa: F401  read by perfbench's tracer self-test

__all__ = [
    "A0",
    "A1",
    "scaled_pair",
    "BoundsRow",
    "JsrBounds",
    "jsr_bounds",
    "RatioScanResult",
    "optimal_ratio_scan",
    "ratio_staircase",
    "standard_matrices",
    "tau_sequence",
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

MAX_SCAN_N = 18


class PrecisionError(ValueError):
    """Requested evaluation exceeds what the numeric plumbing can honor."""


def _mul(x, y):
    """Product of two 2x2 matrices given as row-major 4-tuples (a, b, c, d)."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _spectral_radius(trace, det, scale=1) -> float:
    """Largest eigenvalue modulus of the matrix with exact trace ``trace / scale``
    and determinant ``det / scale**2``.  Ints round once in true division and
    Fractions (scale 1) in ``float``: the same correctly rounded values."""
    disc = trace * trace - 4 * det
    if disc >= 0:
        root = math.sqrt(float(disc / scale**2))
        tf = float(trace / scale)
        return max(abs((tf + root) / 2), abs((tf - root) / 2))
    return math.sqrt(float(det / scale**2))


def _spectral_norm(m, scale=1) -> float:
    """Largest singular value of the row-major 2x2 matrix ``m / scale``, from
    the squared-entry sum; rounds like :func:`_spectral_radius`."""
    a, b, c, d = m
    e = a * a + b * b + c * c + d * d
    gap = e * e - 4 * (a * d - b * c) ** 2
    return math.sqrt((float(e / scale**2) + math.sqrt(float(gap / scale**4))) / 2)


def _row_sum_norm(m, scale=1) -> float:
    a, b, c, d = m
    return float(max(abs(a) + abs(b), abs(c) + abs(d)) / scale)


A0 = (1, 1, 0, 1)
A1 = (1, 0, 1, 1)

_NORMS = {
    "spectral": _spectral_norm,
    "row-sum": _row_sum_norm,
}


def scaled_pair(alpha: Scalar) -> list[tuple]:
    """The deformed pair {A0, alpha*A1} for alpha in [0, 1]."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return [A0, tuple(alpha * x for x in A1)]


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


def jsr_bounds(matrices: Sequence[Sequence[Scalar]], n_max: int, norm: str = "spectral") -> JsrBounds:
    """Brute-force bracket of the joint spectral radius.

    The lower bound is the best normalized spectral radius over necklaces of
    each length up to n_max; the upper bound is the smallest normalized norm
    maximum over all products of a fixed length.  Both sandwich the true
    value for any sub-multiplicative norm.  Necklaces are the binary ones
    from :func:`necklace_readings` in lexicographic (for one length, numeric)
    order, letter i standing for ``matrices[i]``, so the set holds one or two
    row-major 4-tuples.
    Products run on integers over the entries' common denominator, and each
    float is taken from a length-n product and that denominator to the n-th
    power.
    """
    matrices = list(matrices)
    if not 1 <= len(matrices) <= 2:
        raise ValueError(f"need one or two matrices, got {len(matrices)}")
    if any(len(m) != 4 for m in matrices):
        raise ValueError("each matrix needs exactly four row-major entries")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if norm not in _NORMS:
        raise ValueError(f"unknown norm {norm!r}; choose from {sorted(_NORMS)}")
    if len(matrices) ** n_max > 1 << 20:
        raise ValueError("alphabet**n_max beyond the exhaustive budget (2^20)")
    entries = [[Fraction(x) for x in m] for m in matrices]
    scale = math.lcm(*[x.denominator for row in entries for x in row])
    ints = [tuple(x.numerator * (scale // x.denominator) for x in row) for row in entries]
    tables = _product_tables(ints, n_max - n_max // 2)
    norm_fn = _NORMS[norm]

    rows = []
    lower = 0.0
    upper = math.inf
    for n in range(1, n_max + 1):
        lower_n = -math.inf
        argmax = 0
        densities = range(n + 1) if len(matrices) == 2 else (0,)
        necklaces = sorted(b for ones in densities for b, _ in necklace_readings(ones, n))
        k = n - n // 2
        left, right = tables[n // 2], tables[k]
        for index in necklaces:
            a, b, c, d = _mul(left[index >> k], right[index & ((1 << k) - 1)])
            value = _spectral_radius(a + d, a * d - b * c, scale**n) ** (1.0 / n)
            if value > lower_n:
                lower_n = value
                argmax = index
        # Every length-n word is a left half followed by a right half.
        upper_n = max(norm_fn(_mul(x, y), scale**n) for x in left for y in right) ** (1.0 / n)
        lower = max(lower, lower_n)
        upper = min(upper, upper_n)
        rows.append(BoundsRow(n, lower_n, upper_n, format(argmax, f"0{n}b")))
    return JsrBounds(norm, tuple(rows), lower, upper)


def _product_tables(matrices, depth: int) -> list[list[tuple]]:
    """Products over ``matrices`` of every word of length 0..depth; table j is
    indexed by the word read in base 2 (one matrix: index 0).  Word i of
    length n <= 2 * depth is tables[n // 2][i >> k] tables[k][i % 2**k] with
    k = n - n // 2."""
    tables = [[(1, 0, 0, 1)]]
    for _ in range(depth):
        tables.append([_mul(x, m) for x in tables[-1] for m in matrices])
    return tables


@lru_cache(maxsize=32)
def _necklace_log_radii(n: int) -> tuple[tuple[int, str, float], ...]:
    """(ones, representative, log spectral radius of the 0-1 product) for each
    necklace whose log radius strictly beats every earlier one of its density.
    ``ones * log(alpha) + log_rho`` rounds monotonically in log_rho, so at any
    alpha the first best-scoring necklace is one of these records.  Every
    product has determinant 1 and trace >= 2, so its radius grows with its
    integer trace: the records are the trace records, and only they take a
    logarithm (for n <= MAX_SCAN_N no two record traces round to one log)."""
    k = n - n // 2
    tables = _product_tables((A0, A1), k)
    left, right = tables[n // 2], tables[k]
    rows = []
    for ones in range(n + 1):
        record = 0
        for index, _ in necklace_readings(ones, n):
            x, y = left[index >> k], right[index & ((1 << k) - 1)]
            trace = x[0] * y[0] + x[1] * y[2] + x[2] * y[1] + x[3] * y[3]
            if trace > record:
                record = trace
                rows.append((ones, format(index, f"0{n}b"), math.log(_spectral_radius(trace, 1))))
    return tuple(rows)


@dataclass(frozen=True)
class RatioScanResult:
    alpha: Fraction
    n: int
    ratio: Fraction
    necklace: str
    value: float


def optimal_ratio_scan(alpha: Scalar, n: int) -> RatioScanResult:
    """Best 1-density among length-n necklaces for the pair {A0, alpha*A1}.

    Maximizes (alpha**ones * spectral_radius(product))^(1/n).  Necklaces are
    visited in (ones, representative) order with strict improvement, so ties
    resolve toward the smaller ratio; in particular the complement-transpose
    symmetry of the undeformed pair lands the ratio in [0, 1/2].
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not 1 <= n <= MAX_SCAN_N:
        raise ValueError(f"n={n} outside the exhaustive range 1..{MAX_SCAN_N}")
    if alpha == 0:
        return RatioScanResult(alpha, n, Fraction(0), "0" * n, 1.0)
    log_alpha = math.log(alpha)
    best_score = -math.inf
    best: tuple[int, str] = (0, "0" * n)
    for ones, representative, log_rho in _necklace_log_radii(n):
        score = ones * log_alpha + log_rho
        if score > best_score:
            best_score = score
            best = (ones, representative)
    return RatioScanResult(
        alpha, n, Fraction(best[0], n), best[1], math.exp(best_score / n)
    )


def ratio_staircase(alphas: Sequence[Scalar], n: int) -> list[RatioScanResult]:
    """optimal_ratio_scan across an alpha grid, reusing one necklace pass."""
    return [optimal_ratio_scan(alpha, n) for alpha in alphas]


def tau_sequence(n_max: int) -> tuple[int, ...]:
    """tau_0..tau_{n_max} from tau_0 = 1, tau_1 = tau_2 = 2 and the
    recurrence tau_{n+1} = tau_n * tau_{n-1} - tau_{n-2}."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    taus = [1, 2, 2]
    while len(taus) <= n_max:
        taus.append(taus[-1] * taus[-2] - taus[-3])
    return tuple(taus[: n_max + 1])


def standard_matrices(cf: ContinuedFraction) -> tuple[tuple[int, int, int, int], ...]:
    """B_{-1} = A1, B_0 = A0, B_{n+1} = B_n^{a_{n+1}} B_{n-1} as integer
    row-major 4-tuples; entry i is B_{i-1}, and its trace is m[0] + m[3]."""
    matrices = [A1, A0]
    for a in cf.partial_quotients:
        m = matrices[-2]
        for _ in range(a):
            m = _mul(matrices[-1], m)
        matrices.append(m)
    return tuple(matrices)


def _perron_root(m) -> mp.mpf:
    """(t + sqrt(t^2 - 4 det)) / 2 of a standard matrix m at the working
    precision; real, as m is nonnegative with det 1, so t >= 2."""
    t = mp.mpf(m[0] + m[3])
    return (t + mp.sqrt(t * t - 4 * (m[0] * m[3] - m[1] * m[2]))) / 2


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
    limit_form: mp.mpf
    partials: tuple[mp.mpf, ...] = field(repr=False)


def _check_terms(terms: int, bits: int):
    if bits < 128:
        raise PrecisionError(f"need at least 128 bits, got {bits}")
    if terms < 3:
        raise ValueError("need at least 3 terms for a bracketed estimate")
    if terms > MAX_ALPHA_TERMS:
        raise PrecisionError(
            f"terms={terms}: traces grow doubly exponentially and exceed the "
            f"practical integer budget beyond {MAX_ALPHA_TERMS} terms"
        )


def _alpha_estimate(log_factors, limit_exponent) -> AlphaEstimate:
    """Partial products exp(f_1 + ... + f_k), summed left to right at the
    working precision, and the closed form exp(limit_exponent)."""
    partials = [mp.e**acc for acc in accumulate(log_factors)]
    error = abs(partials[-1] - partials[-2])
    return AlphaEstimate(partials[-1], error, mp.e**limit_exponent, tuple(partials))


def alpha_inverse(gamma_cf: ContinuedFraction, terms: int, bits: int = 256) -> AlphaEstimate:
    """Deformation threshold of the slope described by gamma_cf.

    Evaluates the alternating product over n of
    (rho_n^{a_{n+1}} rho_{n-1} / rho_{n+1})^{(-1)^n q_n} together with the
    closed two-term form (rho_n^{q_{n+1}} / rho_{n+1}^{q_n})^{(-1)^n} at the
    truncation depth, using exact traces and log-domain arithmetic at
    ``bits`` of working precision (at least 128).
    """
    _check_terms(terms, bits)
    quotients = gamma_cf.partial_quotients
    if len(quotients) < terms + 1:
        raise ValueError(
            f"need at least terms + 1 = {terms + 1} partial quotients, "
            f"got {len(quotients)}"
        )
    q = [pair[1] for pair in gamma_cf.convergents]
    with mp.workprec(bits):
        log_rho = [mp.log(_perron_root(m)) for m in standard_matrices(gamma_cf)]
        # log_rho[n + 1] belongs to B_n.
        log_factors = [
            (-1) ** n * q[n + 1] * (a * log_rho[n + 1] + log_rho[n] - log_rho[n + 2])
            for n, a in enumerate(quotients[: terms + 1])
        ]
        i = terms + 1
        return _alpha_estimate(
            log_factors, (-1) ** terms * (q[i + 1] * log_rho[i] - q[i] * log_rho[i + 1])
        )


def alpha_star_tau(terms: int, bits: int = 256) -> AlphaEstimate:
    """Golden-mean deformation threshold from the trace recurrence alone.

    Evaluates the alternating product over n >= 1 of
    (1 - tau_{n-1} / (tau_n tau_{n+1}))^{(-1)^n F_{n+1}} with exact integer
    taus, plus the closed form (tau_n^{F_{n+1}} / tau_{n+1}^{F_n})^{(-1)^n}
    at the truncation depth, at ``bits`` of working precision (at least 128).
    """
    _check_terms(terms, bits)
    taus = tau_sequence(terms + 1)
    fibs = [0, 1]
    while len(fibs) <= terms + 2:
        fibs.append(fibs[-1] + fibs[-2])
    with mp.workprec(bits):
        ratios = [
            mp.mpf(taus[n - 1]) / (mp.mpf(taus[n]) * mp.mpf(taus[n + 1]))
            for n in range(1, terms + 1)
        ]
        log_factors = [(-1) ** n * fibs[n + 1] * mp.log1p(-r) for n, r in enumerate(ratios, 1)]
        n = terms
        return _alpha_estimate(
            log_factors, (-1) ** n * (fibs[n + 1] * mp.log(taus[n]) - fibs[n] * mp.log(taus[n + 1]))
        )


def matching_digits(value) -> int:
    """Count of agreeing decimal digits after '0.' against ALPHA_STAR_DECIMAL."""
    if not isinstance(value, mp.mpf):
        value = mp.mpf(value)
    rendered = mp.nstr(value, len(ALPHA_STAR_DECIMAL), strip_zeros=False)
    if rendered[:2] != ALPHA_STAR_DECIMAL[:2]:
        return 0
    count = 0
    for ours, theirs in zip(rendered[2:], ALPHA_STAR_DECIMAL[2:]):
        if ours != theirs:
            break
        count += 1
    return count
