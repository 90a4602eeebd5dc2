"""Joint spectral radius bounds, the density staircase, and the threshold
constant computed two independent ways."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlab import jsr
from sturmlab.jsr import (
    A0,
    A1,
    ALPHA_STAR_DECIMAL,
    MAX_ALPHA_BITS,
    PrecisionError,
    alpha_inverse,
    alpha_star_tau,
    jsr_bounds,
    matching_digits,
    optimal_ratio_scan,
    ratio_staircase,
    scaled_pair,
    standard_matrices,
    tau_sequence,
)
from sturmlab.jsr import (
    MAX_SCAN_N,
    _NORMS,
    BoundsRow,
    JsrBounds,
    RatioScanResult,
    _mul,
    _necklace_log_radii,
    _perron_root,
    _row_sum_norm,
    _spectral_norm,
    _spectral_radius,
)
from sturmlab.words import ContinuedFraction, enumerate_orbits

PHI = (1 + math.sqrt(5)) / 2

IDENTITY = (1, 0, 0, 1)

entries_st = st.integers(min_value=-5, max_value=5)
mat_st = st.tuples(entries_st, entries_st, entries_st, entries_st)


def _trace(m):
    return m[0] + m[3]


def _det(m):
    return m[0] * m[3] - m[1] * m[2]


def _radius(m) -> float:
    return _spectral_radius(_trace(m), _det(m))


def test_mul_arithmetic():
    assert _mul(A0, A1) == (2, 1, 1, 1)
    assert _mul(A1, A0) == (1, 1, 1, 2)
    assert _det(_mul(A0, A1)) == 1
    assert _trace(_mul(A0, A1)) == 3


def test_spectral_radius_fixtures():
    assert _radius((2, 0, 0, 1)) == pytest.approx(2.0)
    assert _radius(_mul(A0, A1)) == pytest.approx(PHI**2)
    # Rotation-like matrix: complex eigenvalues, radius sqrt(det).
    assert _radius((0, -1, 1, 0)) == pytest.approx(1.0)


@given(mat_st)
def test_radius_below_both_norms(m):
    rho = _radius(m)
    assert rho <= _spectral_norm(m) + 1e-9
    assert rho <= _row_sum_norm(m) + 1e-9


@given(mat_st, mat_st)
def test_spectral_norm_submultiplicative(a, b):
    assert _spectral_norm(_mul(a, b)) <= _spectral_norm(a) * _spectral_norm(b) + 1e-9


def necklace_count(n: int) -> int:
    return sum(
        _phi(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0
    ) // n


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_necklace_enumeration_count(n):
    produced = [
        format(b, f"0{n}b") for ones in range(n + 1) for b, _ in enumerate_orbits(ones, n)
    ]
    assert len(produced) == necklace_count(n)
    assert len(set(produced)) == len(produced)
    # Every listed necklace is the least among its rotations.
    for necklace in produced:
        doubled = necklace + necklace
        assert all(necklace <= doubled[k : k + n] for k in range(n))


def _necklaces(n: int, k: int):
    """Lexicographically minimal rotation representatives over k letters."""
    for word in itertools.product(range(k), repeat=n):
        doubled = word + word
        if all(word <= doubled[i : i + n] for i in range(1, n)):
            yield word


def _fractions(matrices):
    """The matrices as row-major tuples of ``Fraction`` entries."""
    return [tuple(Fraction(x) for x in m) for m in matrices]


def _max_norm(matrices, n: int, norm_fn) -> float:
    """Largest norm over all length-n products, multiplied over Fraction."""
    best = -math.inf

    def extend(product, depth: int):
        nonlocal best
        if depth == n:
            best = max(best, norm_fn(product))
            return
        for matrix in matrices:
            extend(matrix if product is None else _mul(product, matrix), depth + 1)

    extend(None, 0)
    return best


def _jsr_bounds_oracle(matrices, n_max: int, norm: str) -> JsrBounds:
    """The lower-bound loop over every k-ary necklace from itertools.product
    and the recursive norm maximum, all on products over Fraction."""
    matrices = _fractions(matrices)
    rows = []
    lower = 0.0
    upper = math.inf
    for n in range(1, n_max + 1):
        lower_n = -math.inf
        argmax = ""
        for word in _necklaces(n, len(matrices)):
            product = matrices[word[0]]
            for letter in word[1:]:
                product = _mul(product, matrices[letter])
            value = _radius(product) ** (1.0 / n)
            if value > lower_n:
                lower_n = value
                argmax = "".join(str(letter) for letter in word)
        upper_n = _max_norm(matrices, n, _NORMS[norm]) ** (1.0 / n)
        lower = max(lower, lower_n)
        upper = min(upper, upper_n)
        rows.append(BoundsRow(n, lower_n, upper_n, argmax))
    return JsrBounds(norm, tuple(rows), lower, upper)


@pytest.mark.parametrize("norm", sorted(_NORMS))
@pytest.mark.parametrize(
    "matrices, n_max",
    [(scaled_pair(Fraction(alpha)), 10) for alpha in ("0", "1/3", "1/2", "3/4", "749/1000", "1")]
    + [
        (scaled_pair(Fraction(0.1)), 8),
        (scaled_pair(Fraction(2, 7)), 8),
        ([(Fraction(1, 2), 1, 0, 1), (1, 0, Fraction(2, 3), 1)], 8),
        ([(0, -1, 1, 0), (Fraction(-3, 4), 2, 1, Fraction(1, 5))], 8),
        (scaled_pair(Fraction(3, 5)), 9),
        ([(0.5, 1, 0, 1), (1, 0, -0.25, 1)], 7),
    ],
    ids=[
        "alpha=0", "alpha=1/3", "alpha=1/2", "alpha=3/4", "alpha=749/1000", "alpha=1",
        "alpha=float0.1", "alpha=2/7", "halves-thirds", "rotation-mixed-sign",
        "alpha=3/5-odd-length", "float-entries-odd-length",
    ],
)
def test_bounds_match_product_necklace_oracle(matrices, n_max, norm):
    assert jsr_bounds(matrices, n_max, norm) == _jsr_bounds_oracle(matrices, n_max, norm)


def test_cross_density_ties_name_the_numerically_least_necklace():
    # At n = 6, 001001 = (001)^2 and 000111 tie for the best radius, which is
    # n = 3's. Necklaces are taken in numeric order across densities, so the
    # first tied one is 000111, not the per-density order's 001001.
    rows = jsr_bounds([(-1, 2, 0, -1), (-1, 0, -2, -1)], 7).rows
    assert rows[5].n == 6 and rows[5].argmax_necklace == "000111"
    assert rows[5].lower == rows[2].lower


def test_golden_pair_bracket_closes():
    bounds = jsr_bounds((A0, A1), n_max=6)
    assert bounds.lower == pytest.approx(PHI, abs=1e-12)
    assert bounds.upper == pytest.approx(PHI, abs=1e-12)
    by_n = {row.n: row for row in bounds.rows}
    assert by_n[2].argmax_necklace == "01"


@pytest.mark.parametrize("matrices", [(A0,), (A1,), (A0, A1, _mul(A0, A1))], ids=["A0", "A1", "three"])
def test_bounds_take_exactly_a_pair(matrices):
    with pytest.raises(ValueError) as info:
        jsr_bounds(matrices, 4)
    assert str(info.value) == f"need a pair of matrices, got {len(matrices)}"


def test_row_sum_norm_also_brackets():
    bounds = jsr_bounds((A0, A1), n_max=6, norm="row-sum")
    assert bounds.lower <= PHI + 1e-12 <= bounds.upper + 1e-12


def test_bounds_input_validation():
    with pytest.raises(ValueError):
        jsr_bounds((), 4)
    with pytest.raises(ValueError):
        jsr_bounds((A0, A1, _mul(A0, A1)), 4)
    with pytest.raises(ValueError, match="four"):
        jsr_bounds((A0, (1, 0, 1)), 4)
    with pytest.raises(ValueError):
        jsr_bounds((A0, A1), 0)
    with pytest.raises(ValueError):
        jsr_bounds((A0, A1), 4, norm="frobenius")
    with pytest.raises(ValueError):
        jsr_bounds((A0, A1), 64)
    with pytest.raises(ValueError, match=r"^alphabet\*\*n_max beyond the exhaustive budget \(2\^20\)$"):
        jsr_bounds((A0, A1), 21)


def test_scaled_pair_range():
    low, high = scaled_pair(Fraction(1, 2))
    assert low == A0
    assert high == (Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        scaled_pair(Fraction(3, 2))


def test_ratio_scan_endpoints():
    zero = optimal_ratio_scan(Fraction(0), 12)
    assert zero.ratio == Fraction(0)
    one = optimal_ratio_scan(Fraction(1), 12)
    assert one.ratio == Fraction(1, 2)
    assert one.value == pytest.approx(PHI)


def test_staircase_is_monotone():
    alphas = [Fraction(k, 12) for k in range(13)]
    ratios = [r.ratio for r in ratio_staircase(alphas, 12)]
    assert ratios == sorted(ratios)
    assert ratios[0] == Fraction(0)
    assert ratios[-1] == Fraction(1, 2)
    assert all(Fraction(0) <= r <= Fraction(1, 2) for r in ratios)


@lru_cache(maxsize=None)
def _necklace_traces(n: int) -> tuple[tuple[int, str, int], ...]:
    """(ones, representative, trace) per necklace, the trace of a product
    multiplied out letter by letter."""
    necklaces = []
    for ones in range(n + 1):
        for b, _ in enumerate_orbits(ones, n):
            necklace = format(b, f"0{n}b")
            product = IDENTITY
            for bit in necklace:
                product = _mul(product, A0 if bit == "0" else A1)
            necklaces.append((ones, necklace, _trace(product)))
    return tuple(necklaces)


def _log_perron_root(trace: int) -> float:
    """log of (t + sqrt(t^2 - 4)) / 2, the Perron root of a determinant-1 product."""
    return math.log((trace + math.sqrt(trace * trace - 4)) / 2) if trace > 2 else 0.0


def _staircase_oracle(alphas, n: int) -> list[RatioScanResult]:
    """Every necklace scored afresh for every alpha, the log of its Perron
    root evaluated each time."""
    results = []
    for alpha in alphas:
        if alpha == 0:
            results.append(RatioScanResult(alpha, n, Fraction(0), "0" * n, 1.0))
            continue
        best_score = -math.inf
        best = (0, "0" * n)
        for ones, representative, trace in _necklace_traces(n):
            score = ones * math.log(alpha) + _log_perron_root(trace)
            if score > best_score:
                best_score = score
                best = (ones, representative)
        results.append(RatioScanResult(alpha, n, Fraction(best[0], n), best[1], math.exp(best_score / n)))
    return results


@pytest.mark.parametrize("n", range(1, 15))
def test_staircase_matches_per_necklace_oracle(n):
    alphas = [Fraction(k, 30) for k in range(31)] + [Fraction(749, 1000), Fraction(3, 4), Fraction(0.7)]
    assert ratio_staircase(alphas, n) == _staircase_oracle(alphas, n)


@settings(deadline=None)
@given(
    st.integers(1, 14),
    st.lists(
        st.one_of(
            st.fractions(0, 1, max_denominator=10**6),
            st.floats(0, 1).map(Fraction),
        ).filter(lambda alpha: alpha > 0),
        min_size=1,
        max_size=8,
    ),
)
def test_staircase_matches_oracle_on_random_alphas(n, alphas):
    assert ratio_staircase(alphas, n) == _staircase_oracle(alphas, n)


@pytest.mark.parametrize("n", range(1, MAX_SCAN_N + 1))
def test_necklace_table_holds_the_per_density_records(n):
    # The table keeps each density's best trace; the oracle keeps float
    # log-radius records, and the last record of each density must be that
    # best, over the whole range optimal_ratio_scan accepts.
    last = {}
    best = {}
    for ones, representative, trace in _necklace_traces(n):
        log_rho = _log_perron_root(trace)
        if log_rho > best.get(ones, -math.inf):
            best[ones] = log_rho
            last[ones] = (ones, representative, log_rho)
    assert _necklace_log_radii(n) == tuple(last.values())


def test_ratio_scan_rejects_long_necklaces():
    with pytest.raises(ValueError):
        optimal_ratio_scan(Fraction(1, 2), 19)
    with pytest.raises(ValueError):
        optimal_ratio_scan(Fraction(1, 2), 0)


def test_tau_sequence_fixture():
    assert tau_sequence(10) == (1, 2, 2, 3, 4, 10, 37, 366, 13532, 4952675, 67019597734)


def test_tau_recurrence_holds():
    taus = tau_sequence(12)
    for n in range(3, len(taus) - 1):
        assert taus[n + 1] == taus[n] * taus[n - 1] - taus[n - 2]


def test_standard_matrices_traces():
    golden = standard_matrices(ContinuedFraction((1,) * 10))
    taus = tau_sequence(11)
    for k in range(2, 12):
        assert _trace(golden[k - 1]) == taus[k]


def _perron_root_oracle(trace: Fraction, det: Fraction) -> mp.mpf:
    t = mp.mpf(trace.numerator) / trace.denominator
    return (t + mp.sqrt(t * t - 4 * (mp.mpf(det.numerator) / det.denominator))) / 2


def _standard_oracle(quotients) -> list[tuple]:
    """B_{n+1} = B_n^a B_{n-1} built by repeated 2x2 products over Fraction."""
    matrices = _fractions([A1, A0])
    for a in quotients:
        power = IDENTITY
        for _ in range(a):
            power = _mul(power, matrices[-1])
        matrices.append(_mul(power, matrices[-2]))
    return matrices


@pytest.mark.parametrize("quotients", [(1,) * 16, (2,) + (1,) * 15, (2, 1, 3, 1, 2)])
def test_standard_matrices_match_mat2_powers(quotients):
    seq = standard_matrices(ContinuedFraction(quotients))
    matrices = _standard_oracle(quotients)
    assert seq == tuple(matrices)
    assert all(isinstance(x, int) for m in seq for x in m)
    assert tuple(_trace(m) for m in seq) == tuple(_trace(m) for m in matrices)
    assert all(isinstance(_trace(m), int) for m in seq)
    with mp.workprec(256):
        # The Perron roots alpha_inverse takes the logs of.
        assert tuple(_perron_root(m) for m in seq) == tuple(
            _perron_root_oracle(_trace(m), _det(m)) for m in matrices
        )


def test_standard_matrix_determinants():
    """_perron_root takes det = 1 for every standard matrix without computing it."""
    for quotients in [(2, 1, 3, 1, 2), (1,) * 20, (5, 1, 1, 7, 2, 2, 1), (1, 4) * 6]:
        seq = standard_matrices(ContinuedFraction(quotients))
        assert len(seq) == len(quotients) + 2
        assert {_det(m) for m in seq} == {1}, quotients


@pytest.mark.parametrize("quotients, terms", [((1,) * 32, 12), ((2, 1, 3, 1, 2, 1, 1, 2, 1, 1), 6)])
def test_alpha_inverse_builds_only_the_matrices_it_reads(monkeypatch, quotients, terms):
    """Quotients past a_{terms+1} change nothing, and only B_{-1}..B_{terms+1}
    are built: at the golden slope the later matrices are the largest."""
    exact = alpha_inverse(ContinuedFraction(quotients[: terms + 1]), terms, bits=256)
    built = []

    def spy(cf):
        built.append(standard_matrices(cf))
        return built[-1]

    monkeypatch.setattr(jsr, "standard_matrices", spy)
    assert alpha_inverse(ContinuedFraction(quotients), terms, bits=256) == exact
    assert [len(matrices) for matrices in built] == [terms + 3]


def test_alpha_star_two_expansions_agree():
    via_tau = alpha_star_tau(12, bits=256)
    via_cf = alpha_inverse(ContinuedFraction((1,) * 14), 12, bits=256)
    assert abs(via_tau.value - via_cf.value) < mp.mpf(10) ** -40
    assert matching_digits(via_tau.value) == len(ALPHA_STAR_DECIMAL) - 2


def test_alpha_star_partials_bracket_limit():
    estimate = alpha_star_tau(10, bits=256)
    assert estimate.partials[2] > estimate.value > estimate.partials[3]
    assert estimate.error > 0
    assert abs(estimate.limit_form - estimate.value) <= 2 * estimate.error


def test_matching_digits_counts_prefix():
    assert matching_digits(mp.mpf("0.749326546")) >= 8
    assert matching_digits(mp.mpf("0.75")) <= 2
    assert matching_digits(mp.mpf("0.3")) == 0


def test_precision_guards():
    with pytest.raises(PrecisionError):
        alpha_star_tau(12, bits=64)
    with pytest.raises(PrecisionError):
        alpha_inverse(ContinuedFraction((1,) * 14), 12, bits=64)
    with pytest.raises(ValueError):
        alpha_star_tau(2, bits=256)
    with pytest.raises(PrecisionError):
        alpha_star_tau(31, bits=256)


def test_precision_is_bounded_above():
    for bits in (128, MAX_ALPHA_BITS):
        assert matching_digits(alpha_star_tau(8, bits=bits).value) >= 10
    budget = f"bits={MAX_ALPHA_BITS + 1}: the working precision budget is 128..{MAX_ALPHA_BITS} bits"
    with pytest.raises(PrecisionError, match=budget):
        alpha_star_tau(12, bits=MAX_ALPHA_BITS + 1)
    with pytest.raises(PrecisionError, match=budget):
        alpha_inverse(ContinuedFraction((1,) * 14), 12, bits=MAX_ALPHA_BITS + 1)


def test_alpha_inverse_needs_enough_quotients():
    with pytest.raises(ValueError):
        alpha_inverse(ContinuedFraction((1, 1, 1)), 10, bits=256)


def _alpha_star_direct(terms: int, bits: int) -> mp.mpf:
    """Oracle: the alternating product of (1 - tau_{n-1} / (tau_n tau_{n+1}))
    raised to (-1)^n F_{n+1}, multiplied out directly instead of summed in
    the log domain."""
    taus = tau_sequence(terms + 1)
    fibs = [0, 1]
    while len(fibs) <= terms + 2:
        fibs.append(fibs[-1] + fibs[-2])
    with mp.workprec(bits):
        acc = mp.mpf(1)
        for n in range(1, terms + 1):
            ratio = mp.mpf(taus[n - 1]) / (mp.mpf(taus[n]) * mp.mpf(taus[n + 1]))
            acc *= (1 - ratio) ** ((-1) ** n * fibs[n + 1])
        return acc


def test_log_domain_agrees_with_direct():
    direct = _alpha_star_direct(8, bits=256)
    logged = alpha_star_tau(8, bits=256)
    assert abs(direct - logged.value) < mp.mpf(10) ** -30


def _alpha_inverse_direct(quotients, terms: int, bits: int) -> mp.mpf:
    """Oracle: the alternating product of
    (rho_n^{a_{n+1}} rho_{n-1} / rho_{n+1})^{(-1)^n q_n} multiplied out
    directly, each rho the Perron root of a Fraction matrix power product."""
    matrices = _standard_oracle(quotients)
    q = [pair[1] for pair in ContinuedFraction(quotients).convergents]
    with mp.workprec(bits):
        rho = [_perron_root_oracle(_trace(m), _det(m)) for m in matrices]
        acc = mp.mpf(1)
        for n in range(terms + 1):
            acc *= (rho[n + 1] ** quotients[n] * rho[n] / rho[n + 2]) ** ((-1) ** n * q[n + 1])
        return acc


@pytest.mark.parametrize("terms", [3, 8])
def test_both_expansions_report_their_truncated_products(terms):
    """Every partial of both expansions against its product multiplied out
    directly; the value is the last partial and the error the last gap."""
    quotients = (2, 1, 3, 1, 2, 1, 1, 2, 1, 1)
    forms = [
        (alpha_star_tau(terms, bits=256), [_alpha_star_direct(k, 256) for k in range(1, terms + 1)]),
        (
            alpha_inverse(ContinuedFraction(quotients), terms, bits=256),
            [_alpha_inverse_direct(quotients, k, 256) for k in range(terms + 1)],
        ),
    ]
    for estimate, direct in forms:
        assert len(estimate.partials) == len(direct)
        for partial, oracle in zip(estimate.partials, direct):
            assert abs(partial - oracle) < mp.mpf(10) ** -60 * oracle
        assert estimate.value == estimate.partials[-1]
        with mp.workprec(256):
            assert estimate.error == abs(estimate.partials[-1] - estimate.partials[-2])
