"""Orbit measures of the doubling map and the convex order."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlab import measures
from sturmlab.measures import (
    DiscreteMeasure,
    LeastElementScan,
    _first_violation,
    _orbit_support,
    convex_order_witness,
    cosine_objective,
    maximize_over_orbits,
    mixture,
    orbit_measure,
    sturmian_measure,
    tent_objective,
    verify_sturmian_least,
)
from sturmlab.words import Orbit, enumerate_orbits, is_balanced, minimal_period


def test_two_fifths_measure_fixture():
    mu = sturmian_measure(2, 5)
    assert mu.points == tuple(
        Fraction(k, 31) for k in (5, 9, 10, 18, 20)
    )
    assert mu.weights == (Fraction(1, 5),) * 5
    assert mu.barycenter == Fraction(2, 5)


def test_orbit_measure_barycenter_is_density():
    for w in ("00101", "00011", "0010101", "0001011"):
        mu = orbit_measure(w)
        assert mu.barycenter == Fraction(w.count("1"), len(w))


def test_orbit_measure_collapses_proper_period():
    mu = orbit_measure("010010")  # period 3
    assert len(mu.points) == 3
    assert sum(mu.weights) == 1


def test_orbit_measure_rejects_all_ones():
    with pytest.raises(ValueError):
        orbit_measure("111")


def test_point_mass_at_zero():
    mu = sturmian_measure(0, 1)
    assert mu.points == (Fraction(0),)
    assert mu.weights == (Fraction(1),)


def test_convex_order_balanced_below_clumped():
    balanced = orbit_measure("00101")
    clumped = orbit_measure("00011")
    assert convex_order_witness(balanced, clumped) is None
    witness = convex_order_witness(clumped, balanced)
    assert witness is not None  # a kink where the order fails
    assert witness == _witness_oracle(clumped, balanced)


def test_convex_order_requires_equal_barycenters():
    with pytest.raises(ValueError, match="^convex order needs equal barycenters: 1/2 != 1/4$"):
        convex_order_witness(orbit_measure("01"), orbit_measure("0001"))


def _orbit_support_oracle(w: str):
    """Support points before integer rotations: each rotation of one period
    sliced out as a string and read in base 2."""
    t = minimal_period(w)
    period = w[:t]
    return 2**t - 1, sorted(int(period[k:] + period[:k], 2) for k in range(t)), t, [1] * t


def test_orbit_support_matches_string_rotation_oracle():
    for q in range(1, 11):
        for p in range(q):
            for orbit in enumerate_orbits(p, q):
                w = orbit.representative
                assert _orbit_support(int(w, 2), q, orbit.period) == _orbit_support_oracle(w)


def test_signed_sweep_requires_cancelling_mass_and_barycenter():
    half, third, quarter = (_orbit_support(int(w, 2), len(w), len(w)) for w in ("01", "001", "0001"))
    # 2 * (01) against (001) + (0001): equal mass, barycenters 1/2 and 7/24.
    with pytest.raises(ValueError, match="^convex order needs equal barycenters: 1/2 != 7/24$"):
        _first_violation([(2, half), (-1, third), (-1, quarter)])
    with pytest.raises(ValueError, match="equal total masses"):
        _first_violation([(1, half), (-2, half)])


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=20),
)
def test_mixtures_preserve_barycenter_and_dominate(q_index, numerator):
    pairs = [(1, 3), (1, 4), (2, 5), (3, 7), (1, 5), (3, 8)]
    p, q = pairs[q_index - 1]
    mu = sturmian_measure(p, q)
    competitors = [
        orbit_measure(rep)
        for rep in _orbit_reps(p, q)
    ]
    if len(competitors) < 2:
        return
    t = Fraction(numerator, 21)
    mixed = mixture(competitors[:2], [t, 1 - t])
    assert mixed.barycenter == Fraction(p, q)
    assert convex_order_witness(mu, mixed) is None


def _orbit_reps(p, q):
    from sturmlab.words import enumerate_orbits

    return [o.representative for o in enumerate_orbits(p, q)]


def _hockey_stick(mu, t):
    """Integral of (x - t)_+ against mu, summed in Fractions."""
    return sum((w * (x - t) for x, w in zip(mu.points, mu.weights) if x > t), Fraction(0))


def _witness_oracle(mu, nu):
    """First merged support point where mu's hockey stick exceeds nu's."""
    for t in sorted(set(mu.points) | set(nu.points)):
        if _hockey_stick(mu, t) > _hockey_stick(nu, t):
            return t
    return None


def _mixture_oracle(measures, coefficients):
    """Points and weights of the mixture, accumulated per point in Fractions."""
    combined = {}
    for mu, c in zip(measures, coefficients):
        for x, w in zip(mu.points, mu.weights):
            combined[x] = combined.get(x, Fraction(0)) + c * w
    points = tuple(sorted(combined))
    return points, tuple(combined[x] for x in points)


@st.composite
def _same_mean_measure(draw, p, q):
    """An orbit measure of density p/q, or a mixture of up to four of them."""
    pool = [
        orbit_measure(o.representative)
        for k in range(1, 10 // q + 1)
        for o in enumerate_orbits(k * p, k * q)
    ]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique_by=id))
    if len(chosen) == 1:
        return chosen[0]
    raw = draw(st.lists(st.integers(1, 100), min_size=len(chosen), max_size=len(chosen)))
    coefficients = [Fraction(r, sum(raw)) for r in raw]
    blend = mixture(chosen, coefficients)
    assert (blend.points, blend.weights) == _mixture_oracle(chosen, coefficients)
    return blend


@settings(deadline=None, max_examples=300)
@given(st.data(), st.integers(min_value=2, max_value=9))
def test_witness_matches_per_threshold_oracle(data, q):
    p = data.draw(st.integers(min_value=1, max_value=q - 1))
    mu = data.draw(_same_mean_measure(p, q))
    nu = data.draw(_same_mean_measure(p, q))
    assert convex_order_witness(mu, nu) == _witness_oracle(mu, nu)
    assert convex_order_witness(nu, mu) == _witness_oracle(nu, mu)


# The DiscreteMeasure forms that the signed integer sweep replaces: every
# mixture is built with `mixture` and compared with `convex_order_witness`, and
# every scored orbit is a validated `orbit_measure`.


def _verify_sturmian_least_oracle(q_max, mixtures_per_pair, seed):
    rng = random.Random(seed)
    scans = []
    for q in range(2, q_max + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            sturmian = sturmian_measure(p, q)
            pool = [
                orbit_measure(o.representative)
                for k in range(1, q_max // q + 1)
                for o in enumerate_orbits(k * p, k * q)
            ]
            bad = [mu.word for mu in pool if convex_order_witness(sturmian, mu) is not None]
            for _ in range(mixtures_per_pair):
                size = rng.randint(2, min(4, len(pool))) if len(pool) >= 2 else 1
                chosen = rng.sample(pool, size)
                raw = [Fraction(rng.randint(1, 100)) for _ in chosen]
                total = sum(raw)
                blend = mixture(chosen, [c / total for c in raw])
                if convex_order_witness(sturmian, blend) is not None:
                    bad.append("mixture:" + "+".join(mu.word for mu in chosen))
            scans.append(LeastElementScan(p, q, len(pool), mixtures_per_pair, tuple(bad)))
    return scans


def _maximize_over_orbits_oracle(f, max_period):
    best = None
    for length in range(1, max_period + 1):
        for p in range(length):
            for orbit in enumerate_orbits(p, length):
                if orbit.period != length:
                    continue
                mu = orbit_measure(orbit.representative)
                value = sum(float(w) * f(float(x)) for x, w in zip(mu.points, mu.weights))
                if best is None or value > best[1]:
                    best = (mu, value)
    return best


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 9), st.integers(), st.integers(0, 30))
def test_verify_sturmian_least_matches_mixture_oracle(q_max, seed, mixtures):
    assert verify_sturmian_least(q_max, mixtures, seed) == _verify_sturmian_least_oracle(
        q_max, mixtures, seed
    )


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([tent_objective, cosine_objective]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(1, 9),
)
def test_maximize_over_orbits_matches_measure_oracle(factory, theta, max_period):
    f = factory(theta)
    assert maximize_over_orbits(f, max_period) == _maximize_over_orbits_oracle(f, max_period)


def _clumped(p, q):
    return Orbit("0" * (q - p) + "1" * p, q)


def _last_unbalanced(p, q):
    """The lexicographically greatest unbalanced orbit, else the clumped one."""
    unbalanced = [o for o in enumerate_orbits(p, q) if not is_balanced(o.representative)]
    return unbalanced[-1] if unbalanced else _clumped(p, q)


@pytest.mark.parametrize("stand_in", [_clumped, _last_unbalanced])
def test_sweep_flags_an_unbalanced_orbit_in_the_least_role(monkeypatch, stand_in):
    # Put an unbalanced orbit where the balanced one belongs: competitors and
    # mixtures must then turn up counterexamples, the same ones the
    # DiscreteMeasure oracle finds.
    monkeypatch.setattr(measures, "balanced_orbit", stand_in)
    scans = verify_sturmian_least(8, mixtures_per_pair=20, seed=4)
    assert scans == _verify_sturmian_least_oracle(8, 20, 4)
    failed = {(s.p, s.q) for s in scans if not s.passed}
    assert (2, 5) in failed and (3, 8) in failed
    # Classes whose stand-in is balanced (p = 1 or p = q - 1) still pass.
    assert all(s.passed for s in scans if s.p in (1, s.q - 1))
    mixed = [sum(c.startswith("mixture:") for c in s.counterexamples) for s in scans]
    assert any(mixed)
    if stand_in is _last_unbalanced:
        # Some mixtures pass and some fail in one class, so weights matter.
        assert any(0 < n < s.mixtures for n, s in zip(mixed, scans))


def test_verify_sturmian_least_small():
    scans = verify_sturmian_least(6, mixtures_per_pair=25, seed=1)
    assert all(s.passed for s in scans)
    assert {(s.p, s.q) for s in scans} == {
        (p, q) for q in range(2, 7) for p in range(1, q) if math.gcd(p, q) == 1
    }


def test_verify_sturmian_least_rejects_negative_mixture_budget():
    with pytest.raises(ValueError, match="mixtures_per_pair"):
        verify_sturmian_least(4, mixtures_per_pair=-3)
    assert all(s.mixtures == 0 for s in verify_sturmian_least(4, mixtures_per_pair=0))


def test_tent_objective_peaks_where_asked():
    f = tent_objective(0.4)
    assert f(0.4) == pytest.approx(1.0)
    assert f(0.1) < f(0.4)


def test_maximize_over_orbits_returns_balanced_winner():
    mu, value = maximize_over_orbits(tent_objective(0.4), max_period=7)
    assert is_balanced(mu.word)
    assert value <= 1.0


@settings(deadline=None)
@given(st.floats(min_value=0.0, max_value=0.999))
def test_peak_scan_winners_always_balanced(theta):
    mu, _ = maximize_over_orbits(tent_objective(theta), 7)
    assert is_balanced(mu.word)


def test_measure_json_round_trip():
    mu = sturmian_measure(2, 5)
    record = mu.to_json_dict()
    assert record["word"] == "00101"
    assert record["support"] == ["5/31", "9/31", "10/31", "18/31", "20/31"]
    assert record["weight"] == "1/5"


def test_mixture_rejects_bad_coefficients():
    mu, nu = orbit_measure("00101"), orbit_measure("00011")
    with pytest.raises(ValueError):
        mixture([mu, nu], [Fraction(1, 2), Fraction(1, 3)])
