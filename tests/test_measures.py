"""Orbit measures of the doubling map and the convex order."""

import gc
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlab import measures
from sturmlab.measures import (
    DiscreteMeasure,
    LeastElementScan,
    _class_forms,
    _orbit_support,
    _require_cancelling,
    _sweep,
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
from sturmlab.words import rotations as reading_rotations


def _orbits(p, q):
    """enumerate_orbits' readings written out as words."""
    return [Orbit(format(b, f"0{q}b"), period) for b, period in enumerate_orbits(p, q)]


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
    blend = mixture([orbit_measure("01"), orbit_measure("0001")], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError, match="^convex order needs equal barycenters: 3/8 != 1/3$"):
        convex_order_witness(blend, orbit_measure("001"))


def _orbit_support_oracle(w: str):
    """Support points before integer rotations: each rotation of one period
    sliced out as a string and read in base 2."""
    t = minimal_period(w)
    period = w[:t]
    return 2**t - 1, sorted(int(period[k:] + period[:k], 2) for k in range(t)), t, [1] * t


def test_orbit_support_matches_string_rotation_oracle():
    for q in range(1, 11):
        for p in range(q):
            for orbit in _orbits(p, q):
                w = orbit.representative
                assert _orbit_support(int(w, 2), q, orbit.period) == _orbit_support_oracle(w)


def _first_violation(d, terms):
    """Least support point where sum_k f_k * form_k has a positive hockey-stick gap: one
    comparison's sort and sweep in Python ints, the loop that ``measures._sweep`` replaced.

    The f_k are integers and the forms share one ``_class_forms``; the positive and
    negative parts must share mass and barycenter (else ValueError).  Then the gap
    has kinks only at support points, vanishes at both ends, and is swept upward in
    integers over the sorted signed net (a repeated point adds no gap).
    """
    if sum(f * mass for f, (_, mass, _) in terms):
        raise ValueError("convex order needs equal total masses")
    if sum(f * moment for f, (_, _, moment) in terms):
        mass = d * sum(f * form[1] for f, form in terms if f > 0)
        plus, minus = (Fraction(sum(s * f * form[2] for f, form in terms if s * f > 0), mass)
                       for s in (1, -1))
        raise ValueError(f"convex order needs equal barycenters: {plus} != {minus}")
    net = sorted([(x, f * v) for f, (pairs, _, _) in terms for x, v in pairs])
    gap = mass = 0
    for (previous, weight), (t, _) in zip(net, net[1:]):
        mass += weight
        gap += mass * (t - previous)
        if gap > 0:
            return Fraction(t, d)
    return None


def test_signed_sweep_requires_cancelling_mass_and_barycenter():
    d, (half, third, quarter) = _class_forms(
        [_orbit_support(int(w, 2), len(w), len(w)) for w in ("01", "001", "0001")]
    )
    # 2 * (01) against (001) + (0001): equal mass, barycenters 1/2 and 7/24.
    for check in (_require_cancelling, _first_violation):
        with pytest.raises(ValueError, match="^convex order needs equal barycenters: 1/2 != 7/24$"):
            check(d, [(2, half), (-1, third), (-1, quarter)])
        with pytest.raises(ValueError, match="^convex order needs equal total masses$"):
            check(d, [(1, half), (-2, half)])
    assert _require_cancelling(d, [(2, half), (-1, half), (-1, half)]) is None


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
    return [o.representative for o in _orbits(p, q)]


def _hockey_stick(mu, t):
    """Integral of (x - t)_+ against mu, summed in Fractions."""
    return sum((w * (x - t) for x, w in zip(mu.points, mu.weights) if x > t), Fraction(0))


def _witness_oracle(mu, nu):
    """First merged support point where mu's hockey stick exceeds nu's."""
    for t in sorted(set(mu.points) | set(nu.points)):
        if _hockey_stick(mu, t) > _hockey_stick(nu, t):
            return t
    return None


def _atoms(mu):
    return zip(mu.points, mu.weights)


def _downward_witness_oracle(mu_atoms, nu_atoms):
    """_witness_oracle on (point, weight) atoms, in one Fraction sweep down from the top
    point: below each point the hockey-stick gap grows by the net mass above it times the step."""
    net = dict(mu_atoms)
    for x, w in nu_atoms:
        net[x] = net.get(x, 0) - w
    points = sorted(net, reverse=True)
    gap = above = 0
    witness = None
    for upper, t in zip(points, points[1:]):
        above += net[upper]
        gap += above * (upper - t)
        if gap > 0:
            witness = t
    return witness


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
        for o in _orbits(k * p, k * q)
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
    want = _witness_oracle(mu, nu)
    assert convex_order_witness(mu, nu) == want == _downward_witness_oracle(_atoms(mu), _atoms(nu))
    assert convex_order_witness(nu, mu) == _witness_oracle(nu, mu)


def _class_pool(p, q, q_max):
    """``_class_forms`` of every orbit of density p/q up to length q_max, and the scale d."""
    supports = [_orbit_support(b, k * q, t) for k in range(1, q_max // q + 1)
                for b, t in enumerate_orbits(k * p, k * q)]
    return _class_forms(supports)


@st.composite
def _comparisons(draw, classes):
    """(class, terms): signed integer multiples of one class's forms whose sum of f is 0, so
    mass and barycenter cancel (every form of a class has both in common).  A form may come
    twice, and an orbit of a proper period has its primitive orbit's points, so points repeat."""
    c = draw(st.integers(0, len(classes) - 1))
    forms = classes[c][1]
    picks = draw(st.lists(st.integers(0, len(forms) - 1), min_size=1, max_size=4))
    fs = [draw(st.integers(-60, 60).filter(bool)) for _ in picks]
    closing = draw(st.integers(0, len(forms) - 1))
    return c, [(f, forms[k]) for f, k in zip(fs, picks)] + [(-sum(fs), forms[closing])] * bool(sum(fs))


def _swept(classes, comparisons):
    """_sweep's failures as (comparison index, point), each class's comparisons swept in one call."""
    found = []
    for c, (d, forms) in enumerate(classes):
        index = {id(form): k for k, form in enumerate(forms)}
        stream = [([index[id(form)] for _, form in terms], [f for f, _ in terms],
                   sum(abs(f) for f, _ in terms), i) for i, (k, terms) in enumerate(comparisons) if k == c]
        found += [(i, Fraction(t, d)) for i, t in _sweep(d, forms, stream)]
    return sorted(found)


@settings(deadline=None, max_examples=40)
@given(st.data(), st.lists(st.sampled_from([(1, 2), (1, 3), (2, 5), (3, 7), (1, 4), (3, 8)]),
                           min_size=1, max_size=3), st.integers(1, 9))
def test_segmented_sweep_matches_per_comparison_oracle(data, pairs, block):
    # Many comparisons from up to three classes, each class's in blocks of 1..9 comparisons,
    # so segments restart inside and across blocks, at every block boundary.
    classes = [_class_pool(p, q, 10) for p, q in pairs]
    comparisons = data.draw(st.lists(_comparisons(classes), min_size=1, max_size=40))
    want = [(i, _first_violation(classes[c][0], terms)) for i, (c, terms) in enumerate(comparisons)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "SWEEP_BLOCK", block)
        assert _swept(classes, comparisons) == [(i, t) for i, t in want if t is not None]


def _largest_gap(terms):
    """The largest |hockey-stick gap| of sum_k f_k * form_k over its sorted points."""
    net = sorted([(x, f * v) for f, (pairs, _, _) in terms for x, v in pairs])
    gap = mass = largest = 0
    for (previous, weight), (t, _) in zip(net, net[1:]):
        mass += weight
        gap += mass * (t - previous)
        largest = max(largest, abs(gap))
    return largest


def test_sweep_past_the_int64_bound_matches_the_oracle():
    # Class 1/2 to length 16 has d * mass near 2^57, so its mixtures (sum |f| up to 800)
    # are swept in Python ints.  Against the clumped orbit some comparisons fail, and
    # mixture weights up to 2^40 drive gaps past 2^63, where int64 sums wrap.  The
    # comparisons cross the real block size twice; the balanced orbit 01 is the first form.
    d, forms = _class_pool(1, 2, 16)
    width = d * max(mass for _, mass, _ in forms)
    assert width * 800 >= measures.INT64_LIMIT > width * 2
    rng = random.Random(5)
    clumped = min(forms, key=lambda form: form[0][0])  # 0000000011111111 reads the least point
    comparisons = [[(1, forms[0]), (-1, form)] for form in forms]
    comparisons += [[(1, clumped), (-1, form)] for form in forms]
    for k in range(400):
        raw = [rng.randint(1, 100 if k % 2 else 2**40) for _ in range(rng.randint(2, 4))]
        head = rng.choice([forms[0], clumped])
        comparisons.append([(sum(raw), head)] + [(-r, rng.choice(forms)) for r in raw])
    want = [(i, t) for i, terms in enumerate(comparisons) if (t := _first_violation(d, terms)) is not None]
    assert len(comparisons) > 2 * measures.SWEEP_BLOCK and 0 < len(want) < len(comparisons)
    assert max(map(_largest_gap, comparisons)) >= 2**63
    assert _swept([(d, forms)], [(0, terms) for terms in comparisons]) == want


def _spread(atoms, x, a, b):
    """The atoms with the one at x split to x - a and x + b, keeping mass and barycenter."""
    w = atoms.pop(x)
    for point, weight in ((x - a, w * b / (a + b)), (x + b, w * a / (a + b))):
        atoms[point] = atoms.get(point, 0) + weight
    return atoms


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 2**40 - 1), min_size=2, max_size=5, unique=True),
       st.integers(2**40, 2**40 + 2**20), st.integers(2**39, 2**40), st.integers(0, 4))
def test_witness_past_the_int64_bound_matches_the_oracle(numerators, denominator, spread, which):
    # Points over denominators near 2^40 put d near 2^80: the witness sweeps Python ints.
    atoms = {Fraction(n, denominator + k): Fraction(1, len(numerators)) for k, n in enumerate(numerators)}
    x = sorted(atoms)[which % len(atoms)]
    a, b = x * Fraction(spread, 2**41 + 1), (1 - x) * Fraction(spread, 2**41 + 3)
    wider = _spread(dict(atoms), x, a, b)
    mu, nu = (DiscreteMeasure(tuple(sorted(m)), tuple(m[t] for t in sorted(m))) for m in (atoms, wider))
    d, forms = _class_forms([mu._integer_form, nu._integer_form])
    assert d * max(mass for _, mass, _ in forms) >= measures.INT64_LIMIT
    assert convex_order_witness(mu, nu) is None is _witness_oracle(mu, nu)
    assert convex_order_witness(nu, mu) == _witness_oracle(nu, mu) is not None


def test_scan_memory_does_not_grow_with_the_mixture_budget(monkeypatch):
    # The scan sweeps SWEEP_BLOCK comparisons at a time, so ten times the mixtures must not
    # hold ten times the arrays.  Blocks of 100 keep the run short: 2 and 20 blocks, each
    # peaking near 0.12 MiB, where one block of every comparison would peak near 1 MiB.
    monkeypatch.setattr(measures, "SWEEP_BLOCK", 100)
    verify_sturmian_least(2, 1, 0)  # numpy's import is no part of the scan's peak
    peaks = []
    for mixtures in (200, 2000):
        gc.collect()  # empties the free lists, whose memory tracemalloc would count
        tracemalloc.start()
        try:
            assert verify_sturmian_least(2, mixtures, 0)[0].passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 32 * 1024, peaks


# The Fraction forms that the signed integer sweep replaces: every competitor
# is a validated `orbit_measure`, every mixture a list of Fraction atoms, and
# each is judged by the downward Fraction sweep above.  Nothing here shares
# `_class_forms`, `_first_violation` or `mixture` with the class scan.


def _verify_sturmian_least_oracle(q_max, mixtures_per_pair, seed):
    rng = random.Random(seed)
    scans = []
    for q in range(2, q_max + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            sturmian = sturmian_measure(p, q)
            # Every competitor has k * p ones in k * q letters, so barycenter p/q.
            mean = sum(w * x for x, w in _atoms(sturmian))
            if mean != Fraction(p, q):
                raise ValueError(f"convex order needs equal barycenters: {mean} != {Fraction(p, q)}")
            pool = [
                orbit_measure(o.representative)
                for k in range(1, q_max // q + 1)
                for o in _orbits(k * p, k * q)
            ]
            bad = [mu.word for mu in pool
                   if _downward_witness_oracle(_atoms(sturmian), _atoms(mu)) is not None]
            for _ in range(mixtures_per_pair):
                size = rng.randint(2, min(4, len(pool))) if len(pool) >= 2 else 1
                chosen = rng.sample(pool, size)
                raw = [Fraction(rng.randint(1, 100)) for _ in chosen]
                total = sum(raw)
                blend = [(x, c / total * w) for mu, c in zip(chosen, raw) for x, w in _atoms(mu)]
                if _downward_witness_oracle(_atoms(sturmian), blend) is not None:
                    bad.append("mixture:" + "+".join(mu.word for mu in chosen))
            scans.append(LeastElementScan(p, q, len(pool), mixtures_per_pair, tuple(bad)))
    return scans


def _maximize_over_orbits_oracle(f, max_period):
    best = None
    for length in range(1, max_period + 1):
        for p in range(length):
            for orbit in _orbits(p, length):
                if orbit.period != length:
                    continue
                mu = orbit_measure(orbit.representative)
                value = sum(float(w) * f(float(x)) for x, w in zip(mu.points, mu.weights))
                if best is None or value > best[1]:
                    best = (mu, value)
    return best


@settings(deadline=None, max_examples=30)
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
    unbalanced = [o for o in _orbits(p, q) if not is_balanced(o.representative)]
    return unbalanced[-1] if unbalanced else _clumped(p, q)


@pytest.mark.parametrize("stand_in", [_clumped, _last_unbalanced])
def test_sweep_flags_an_unbalanced_orbit_in_the_least_role(monkeypatch, stand_in):
    # Put an unbalanced orbit where the balanced one belongs: competitors and
    # mixtures must then turn up counterexamples, the same ones the
    # Fraction oracle finds.
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


@pytest.mark.parametrize("mixtures", [0, 1, 100])
def test_class_scan_matches_mixture_oracle_at_every_small_size(mixtures):
    # Scans with no mixture draw nothing, so one oracle run covers all seeds.
    # The oracle sweeps every comparison in Fractions, 0.2-0.5 ms a mixture,
    # so the largest sizes take one seed each, seeds 0..3 in turn; 100
    # mixtures a pair stop at q_max 6 (the failing controls run q_max 9, 10),
    # and the no-mixture leg at q_max 10: one mixture a pair sweeps every pool too.
    for q_max in range(2, {0: 11, 1: 13, 100: 7}[mixtures]):
        for seed in range(4) if mixtures == 1 and q_max <= 8 else [q_max % 4]:
            want = _verify_sturmian_least_oracle(q_max, mixtures, seed)
            for other in [seed] if mixtures else range(4):
                assert verify_sturmian_least(q_max, mixtures, other) == want, (q_max, other)


@pytest.mark.parametrize(
    "stand_in, q_max, mixtures, seed, found, oracle",
    [
        (_clumped, 9, 60, 3, 778, True),
        (_last_unbalanced, 9, 60, 3, 395, True),
        (_clumped, 10, 100, 0, 1439, False),  # the oracle agrees, in 1.5 s more
    ],
)
def test_failing_controls_match_the_oracle(monkeypatch, stand_in, q_max, mixtures, seed, found, oracle):
    # The oracle sweeps on its own, so the scans and the counts pin the class sweep.
    monkeypatch.setattr(measures, "balanced_orbit", stand_in)
    scans = verify_sturmian_least(q_max, mixtures, seed)
    if oracle:
        assert scans == _verify_sturmian_least_oracle(q_max, mixtures, seed)
    assert sum(len(s.counterexamples) for s in scans) == found


def test_class_scan_refuses_a_stand_in_of_another_density(monkeypatch):
    # A stand-in with one more one than its class (first at 1/3) moves the
    # barycenter; the class scan refuses it as convex_order_witness does.
    monkeypatch.setattr(measures, "balanced_orbit", lambda p, q: _clumped(min(p + 1, q - 1), q))
    with pytest.raises(ValueError) as info:
        _verify_sturmian_least_oracle(4, 0, 0)
    with pytest.raises(ValueError, match=f"^{re.escape(str(info.value))}$"):
        verify_sturmian_least(4, 0, 0)
    assert str(info.value) == "convex order needs equal barycenters: 2/3 != 1/3"


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sturmian_measure(3, 3), "need 0 <= p < q, got (3, 3)"),
        (lambda: sturmian_measure(-1, 3), "need 0 <= p < q, got (-1, 3)"),
        (lambda: verify_sturmian_least(1), "q_max must be >= 2"),
        (lambda: maximize_over_orbits(tent_objective(0.0), 0), "max_period must be >= 1"),
    ],
)
def test_orbit_guards_name_what_they_refuse(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_orbit_maximum_ties_go_to_fewer_ones_before_the_least_word():
    # f is 1 on the 14 points of 0000111 and 0001001, so both period-7
    # integrals are seven sevenths.  The scan visits (period, one-count,
    # reading), so 0001001 (two ones) wins over the smaller word 0000111.
    def points(w):
        return {r / 127 for r in reading_rotations(int(w, 2), 7)}

    tied = points("0000111") | points("0001001")
    mu, value = maximize_over_orbits(lambda x: 1.0 if x in tied else 0.0, 7)
    assert (mu.word, value) == ("0001001", 0.9999999999999998)
    alone = points("0000111")
    assert maximize_over_orbits(lambda x: 1.0 if x in alone else 0.0, 7)[1] == value
