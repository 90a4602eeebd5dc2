"""Products of cyclic binary readings: the balanced orbit maximizes."""

import math
import weakref
from functools import cache, reduce
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sturmlab import cyclic
from sturmlab.cyclic import (
    OrbitProduct,
    ProductScan,
    ProductScanRow,
    orbit_product,
    scan_coprime_pairs,
    summarize_coprime_pairs,
    verify_balanced_product_maximum,
)
from sturmlab.words import Orbit, balanced_orbit, is_balanced
from sturmlab.words import rotations as words_rotations

words_st = st.text(alphabet="01", min_size=1, max_size=16)


def binary_value(w: str) -> int:
    """Oracle b(w): the word read as a base-2 integer; 0 for the empty word."""
    return int(w, 2) if w else 0


def rotations(w: str) -> list[str]:
    """Oracle: all ``len(w)`` left-rotations of ``w`` as strings, starting with ``w``."""
    doubled = w + w
    return [doubled[i : i + len(w)] for i in range(len(w))] if w else [""]


def least_rotation_orbit(w: str) -> Orbit:
    """Oracle: the least string rotation, and the first rotation returning to w."""
    turns = rotations(w)
    return Orbit(min(turns), next((k for k in range(1, len(w)) if turns[k] == w), len(w)))


@cache
def _product_scan_oracle(p: int, q: int) -> ProductScan:
    """The scan on strings: every word with p ones kept when it is its own least
    rotation, and each rotation sliced out and read as a string."""
    balanced_rep = balanced_orbit(p, q).representative
    reports = []
    for ones in combinations(range(q), p):
        w = "".join("1" if i in ones else "0" for i in range(q))
        orbit = least_rotation_orbit(w)
        if orbit.representative == w:
            factors = tuple(binary_value(r) for r in rotations(w))
            reports.append(OrbitProduct(orbit, factors, math.prod(factors)))
    reports.sort(key=lambda r: r.orbit.representative)
    best = max(r.product for r in reports)
    argmax = tuple(r.orbit.representative for r in reports if r.product == best)
    rows = tuple(
        ProductScanRow(r.orbit.representative, r.factors, r.product,
                       is_balanced(r.orbit.representative), r.product == best)
        for r in reports
    )
    return ProductScan(p, q, rows, best, argmax, balanced_rep, argmax == (balanced_rep,))


def test_product_scans_match_string_rotation_oracle():
    pairs = [(p, q) for q in range(2, 13) for p in range(1, q) if math.gcd(p, q) == 1]
    for p, q in pairs:
        assert verify_balanced_product_maximum(p, q) == _product_scan_oracle(p, q)


def test_summaries_match_the_string_rotation_oracle():
    # The summary path against the string scan at every class the report
    # test above covers and past it, to q = 16.
    summaries = summarize_coprime_pairs(16)
    assert [(s.p, s.q) for s in summaries] == [
        (p, q) for q in range(2, 17) for p in range(1, q) if math.gcd(p, q) == 1
    ]
    for s in summaries:
        oracle = _product_scan_oracle(s.p, s.q)
        assert (s.orbits, s.best, s.argbest, s.balanced_representative, s.balanced) == (
            len(oracle.rows), oracle.max_product, oracle.argmax, oracle.balanced_representative, oracle.passed
        ), (s.p, s.q)


class _Readings(list):
    """A rotation list that can be weakly referenced."""


def test_summaries_keep_no_rotation_tuple(monkeypatch):
    # Every rotation list is watched: when the next is asked for, the summaries
    # hold none of the earlier ones, while the scan keeps each class's lists in
    # its rows.
    watched, alive = [], []

    def rotations(b, q):
        alive.append(sum(ref() is not None for ref in watched))
        made = _Readings(words_rotations(b, q))
        watched.append(weakref.ref(made))
        return made

    want = summarize_coprime_pairs(12)
    monkeypatch.setattr(cyclic, "rotations", rotations)
    assert summarize_coprime_pairs(12) == want
    assert len(alive) == sum(s.orbits for s in want) and max(alive) == 0
    watched.clear(), alive.clear()
    scans = scan_coprime_pairs(12)
    assert max(alive) == sum(len(s.rows) for s in scans) - 1


def test_summaries_match_the_scan_rows():
    # Each verdict read off the rows, not off the scan's own summary fields.
    summaries = summarize_coprime_pairs(16)
    scans = scan_coprime_pairs(16)
    assert [(s.p, s.q) for s in summaries] == [(s.p, s.q) for s in scans]
    for summary, scan in zip(summaries, scans):
        argmax = tuple(r.representative for r in scan.rows if r.argmax)
        assert (summary.orbits, summary.best, summary.argbest) == (
            len(scan.rows), max(r.product for r in scan.rows), argmax
        ), (scan.p, scan.q)
        assert summary.balanced_representative == scan.balanced_representative
        assert argmax == tuple(r.representative for r in scan.rows if r.balanced)
        assert summary.balanced is scan.passed is True


def test_a_tied_maximum_fails_the_claim(monkeypatch):
    # A zero factor after each reading makes every product 0, so every orbit,
    # the balanced one included, ties at the maximum: that is no pass.
    monkeypatch.setattr(cyclic, "rotations", lambda b, q: (b,) + (0,) * (q - 1))
    (summary,) = [s for s in summarize_coprime_pairs(5) if (s.p, s.q) == (2, 5)]
    scan = verify_balanced_product_maximum(2, 5)
    assert summary.argbest == scan.argmax == ("00011", "00101")
    assert not summary.balanced and not scan.passed


def test_orbit_is_the_least_rotation_exhaustively():
    for m in range(1, 13):
        for letters in product("01", repeat=m):
            w = "".join(letters)
            assert orbit_product(w).orbit == least_rotation_orbit(w), w


def test_product_fixtures():
    # The two length-5, two-ones orbits: balanced vs clumped.
    assert orbit_product("10100").product == 162000
    assert orbit_product("11000").product == 88128
    assert orbit_product("10100").product > orbit_product("11000").product


def test_factors_are_all_rotations():
    result = orbit_product("10100")
    assert sorted(result.factors) == sorted(binary_value(r) for r in rotations("10100"))
    assert result.product == reduce(lambda a, b: a * b, result.factors)


@given(words_st, st.integers(min_value=0, max_value=15))
def test_product_is_rotation_invariant(w, k):
    k %= len(w)
    assert orbit_product(w[k:] + w[:k]).product == orbit_product(w).product


def test_balanced_orbit_wins_two_fifths():
    scan = verify_balanced_product_maximum(2, 5)
    assert scan.passed
    assert scan.max_product == 162000
    assert scan.argmax == (scan.balanced_representative,)
    assert scan.balanced_representative == balanced_orbit(2, 5).representative


def test_unbalanced_rows_are_marked():
    scan = verify_balanced_product_maximum(2, 5)
    flags = {row.representative: row.balanced for row in scan.rows}
    assert flags[balanced_orbit(2, 5).representative] is True
    assert sum(flags.values()) == 1  # exactly one balanced orbit per (p, q)


def test_scan_coprime_pairs_small():
    scans = scan_coprime_pairs(10)
    expected_pairs = sum(
        1
        for q in range(2, 11)
        for p in range(1, q)
        if math.gcd(p, q) == 1
    )
    assert len(scans) == expected_pairs
    assert all(s.passed for s in scans)
    # The winner is unique in every class scanned.
    assert all(len(s.argmax) == 1 for s in scans)


def test_balanced_flags_match_is_balanced():
    """Rows are flagged by name against balanced_orbit; is_balanced agrees."""
    for q in range(2, 18):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                for row in verify_balanced_product_maximum(p, q).rows:
                    assert row.balanced == is_balanced(row.representative), (p, q, row)


@given(st.integers(min_value=2, max_value=9))
def test_balanced_product_beats_reversal_classes(q):
    for p in range(1, q):
        if math.gcd(p, q) != 1:
            continue
        scan = verify_balanced_product_maximum(p, q)
        balanced_rows = [r for r in scan.rows if is_balanced(r.representative)]
        assert len(balanced_rows) == 1
        assert balanced_rows[0].argmax


def test_orbit_product_rejects_what_is_not_a_word():
    # int(w, 2) alone would read " 1" and "1_0"; the empty word has no product.
    for w in ("", " 1", "1_0", "012"):
        with pytest.raises(ValueError):
            orbit_product(w)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_balanced_product_maximum(2, 4), "(p, q) = (2, 4) must be coprime"),
        (lambda: verify_balanced_product_maximum(0, 1), "need 0 < p < q, got (0, 1)"),
        (lambda: verify_balanced_product_maximum(1, 1), "need 0 < p < q, got (1, 1)"),
        (lambda: scan_coprime_pairs(1), "q_max must be >= 2"),
    ],
)
def test_orbit_guards_name_what_they_refuse(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
