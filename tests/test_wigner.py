"""Ring configurations of repelling electrons and their ground states."""

import dataclasses
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sturmlab import wigner
from sturmlab.wigner import (
    MAX_POWER,
    Potential,
    TIE_MARGIN,
    GroundStateReport,
    OrbitEnergy,
    anti_coulomb,
    coulomb,
    default_potentials,
    exponential_decay,
    ground_state,
    ground_state_summary,
    inverse_power,
    is_convex_decreasing,
    screened,
)
from sturmlab.words import Orbit, balanced_orbit, enumerate_orbits, is_balanced


def _orbits(p, q):
    """enumerate_orbits' readings written out as words."""
    return [Orbit(format(b, f"0{q}b"), period) for b, period in enumerate_orbits(p, q)]

words_st = st.text(alphabet="01", min_size=2, max_size=12).filter(
    lambda w: "1" in w
)

# All five families; power laws with integer (exact) and float exponents,
# summable and divergent image series.
POTENTIALS = (
    coulomb(),
    inverse_power(1),
    inverse_power(2),
    inverse_power(3),
    inverse_power(2.5),
    inverse_power(0.5),
    exponential_decay(1.0),
    exponential_decay(0.3),
    screened(1.0),
    anti_coulomb(),
)


def _pair_value_oracle(potential, m, q, images):
    """V(d) plus the images V(d + kq) and V(kq - d), k <= images, at the ring distance d."""
    d = min(m, q - m)
    total = potential.value(d)
    for k in range(1, images + 1):
        total = total + potential.value(d + k * q) + potential.value(k * q - d)
    return total


def _electron_pairs(w):
    electrons = [i for i, ch in enumerate(w) if ch == "1"]
    for a in range(len(electrons)):
        for b in range(a + 1, len(electrons)):
            yield electrons[b] - electrons[a]


def _pair_values(w, potential, images):
    """(pair value, image-tail bound) for each electron pair of w, in (a, b) order."""
    q = len(w)
    if q < 1:
        raise ValueError("empty ring")
    if images < 0:
        raise ValueError("image cutoff must be >= 0")
    if images > 0:
        potential.image_tail(1, max(q, 2), images)
    return [
        (_pair_value_oracle(potential, m, q, images),
         potential.image_tail(min(m, q - m), q, images) if images else 0.0)
        for m in _electron_pairs(w)
    ]


def _exact_sum(pairs):
    """The energy summed exactly, rounded once if any pair value is a float, and
    its upper envelope (energy plus tail bounds) summed exactly and rounded once."""
    total = sum((Fraction(v) for v, _ in pairs), Fraction(0))
    energy = total if all(isinstance(v, Fraction) for v, _ in pairs) else float(total)
    return energy, float(total + sum(Fraction(t) for _, t in pairs))


def _pair_order_sum(pairs):
    """The energy added pair after pair from Fraction(0), a float from the first
    float value on, and its upper envelope with the tail bounds added likewise."""
    energy, bound = Fraction(0), 0.0
    for value, tail in pairs:
        energy, bound = energy + value, bound + tail
    return energy, float(energy) + bound


def _ring_energy_oracle(w, potential, images=0):
    """The per-pair sum: one potential value per electron pair, summed exactly."""
    return _exact_sum(_pair_values(w, potential, images))[0]


def _ground_state_oracle(p, q, potential, images, summed=_exact_sum):
    """Orbit scan over per-pair sums with per-pair image tail bounds."""
    orbits = _orbits(p, q)
    sums = [summed(_pair_values(o.representative, potential, images)) for o in orbits]
    energies = [energy for energy, _ in sums]
    exact = images == 0 and all(isinstance(e, Fraction) for e in energies)
    minimum = min(energies)
    if exact:
        tied = [e == minimum for e in energies]
    else:
        ceiling = min(envelope for _, envelope in sums)
        tied = [float(e) <= ceiling + 1e-12 * abs(ceiling) for e in energies]
    rows = tuple(
        OrbitEnergy(o, e, is_balanced(o.representative), t)
        for o, e, t in zip(orbits, energies, tied)
    )
    argmin = tuple(row.orbit for row in rows if row.argmin)
    balanced = all(row.balanced for row in rows if row.argmin)
    return GroundStateReport(p, q, potential, rows, minimum, argmin, balanced, exact)


def _orbit_row(w, potential, images=0):
    """ground_state's row for the rotation orbit that holds ``w``."""
    rows = ground_state(w.count("1"), len(w), potential, images).rows
    return next(r for r in rows if r.orbit.representative in w + w)


def _energies(p, q, potential, images=0):
    """ground_state's energy per orbit representative."""
    return {r.orbit.representative: r.energy for r in ground_state(p, q, potential, images).rows}


def _outcome(call, *args):
    """A result by repr (type and float bits included), or the error raised."""
    try:
        return repr(call(*args))
    except ValueError as err:
        return f"ValueError: {err}"


@given(
    st.text(alphabet="01", min_size=1, max_size=14),
    st.sampled_from(POTENTIALS),
    st.integers(min_value=0, max_value=3),
)
def test_ring_energy_matches_pair_oracle(w, potential, images):
    # Images are summed around each pair's ring distance, so every rotation of
    # w, and its reversal, sums to its orbit row's energy.
    try:
        row = _orbit_row(w, potential, images)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            _ring_energy_oracle(w, potential, images)
        return
    for v in [w[k:] + w[:k] for k in range(len(w))] + [w[::-1]]:
        want = _ring_energy_oracle(v, potential, images)
        assert type(row.energy) is type(want), v
        assert row.energy == want, v


# The exact families, whose energies without images come from popcounts.
EXACT_POTENTIALS = (coulomb(), *(inverse_power(s) for s in range(1, 7)), anti_coulomb())


def _distance_count_energies(q, words, potential):
    """Energies of length-q words summed pair by pair from electron positions,
    in integers over the lcm of the potential's values at distances 1..q/2."""
    values = {r: potential.value(r) for r in range(1, q // 2 + 1)}
    scale = math.lcm(*(v.denominator for v in values.values()))
    ints = {r: v.numerator * (scale // v.denominator) for r, v in values.items()}
    return [Fraction(sum(ints[min(m, q - m)] for m in _electron_pairs(w)), scale) for w in words]


@pytest.mark.parametrize("potential", EXACT_POTENTIALS, ids=lambda p: p.describe())
def test_popcount_energies_match_pair_oracle(potential):
    for q in range(1, 15):
        for p in range(q + 1):
            report = ground_state(p, q, potential)
            words = [r.orbit.representative for r in report.rows]
            energies = _distance_count_energies(q, words, potential)
            least = min(energies)
            assert [r.energy for r in report.rows] == energies, (p, q)
            assert [r.argmin for r in report.rows] == [e == least for e in energies]
            assert report.exact and report.min_energy == least


@pytest.mark.parametrize("p, q", [(5, 18), (4, 19), (3, 20), (16, 18), (18, 20)])
def test_popcount_minima_match_pair_oracle_on_long_rings(p, q):
    for potential in (coulomb(), inverse_power(3), anti_coulomb()):
        report = ground_state(p, q, potential)
        energies = {o.representative: _ring_energy_oracle(o.representative, potential)
                    for o in _orbits(p, q)}
        least = min(energies.values())
        assert report.exact and report.min_energy == least
        assert [o.representative for o in report.argmin] == [
            w for w, e in energies.items() if e == least
        ]


@pytest.mark.parametrize("images", (0, 1, 3))
@pytest.mark.parametrize("potential", POTENTIALS, ids=lambda p: p.describe())
def test_ground_state_matches_pair_oracle(potential, images):
    for q in range(1, 11):
        for p in range(q + 1):
            assert _outcome(ground_state, p, q, potential, images) == _outcome(
                _ground_state_oracle, p, q, potential, images
            ), (p, q)


def _summary_off_rows(p, q, potential, images):
    """The verdict read off ground_state's rows: orbit count, least energy,
    argmin representatives and whether each of them is balanced."""
    rows = ground_state(p, q, potential, images).rows
    argmin = tuple(r.orbit.representative for r in rows if r.argmin)
    least = min(r.energy for r in rows)
    return repr((len(rows), least, argmin, all(map(is_balanced, argmin))))


@pytest.mark.parametrize("images", (0, 1, 3))
@pytest.mark.parametrize("potential", POTENTIALS, ids=lambda p: p.describe())
def test_summary_matches_the_report_rows(potential, images):
    def summary(p, q, potential, images):
        s = ground_state_summary(p, q, potential, images)
        return repr((s.orbits, s.best, s.argbest, s.balanced))

    for q in range(1, 13):
        for p in range(q + 1):
            assert _outcome(summary, p, q, potential, images) == _outcome(
                _summary_off_rows, p, q, potential, images
            ), (p, q)


@pytest.mark.parametrize(
    "potential", (exponential_decay(1.0), screened(1.0), inverse_power(2.5)),
    ids=lambda p: p.describe(),
)
def test_tie_sets_match_the_pair_order_float_sum(potential):
    # Summing exactly moves a float energy by an ulp or so against adding its
    # pairs in order, far inside TIE_MARGIN: the argmin sets stay the same.
    for q in range(13, 16):
        for p in range(q + 1):
            report = ground_state(p, q, potential)
            oracle = _ground_state_oracle(p, q, potential, 0, _pair_order_sum)
            assert (report.argmin, report.balanced, report.exact) == (
                oracle.argmin, oracle.balanced, oracle.exact
            ), (p, q)


def test_float_energies_tie_within_the_margin():
    # The margin is relative: a steep potential whose energies are all tiny
    # stays sharp, ...
    for rate in (20.0, 30.0):
        sharp = ground_state(2, 5, exponential_decay(rate))
        assert [o.representative for o in sharp.argmin] == ["00101"]
        assert sharp.balanced and not sharp.exact
    # ... while a flat one ties: the one pair sits at ring distance 1 or 2,
    # so the energies exp(-r) and exp(-2r) differ by about r relative to 1.
    assert 1e-13 < TIE_MARGIN < 1e-11
    sharp = ground_state(2, 5, exponential_decay(1e-11))
    assert [o.representative for o in sharp.argmin] == ["00101"]
    tied = ground_state(2, 5, exponential_decay(1e-13))
    assert [o.representative for o in tied.argmin] == ["00011", "00101"]
    assert not tied.balanced and not tied.exact


def test_length_bound_is_refused_before_the_pair_table():
    # A ring past the exhaustive bound is refused first, whatever else is wrong
    # with the call, and no pair table is built for it.
    built = wigner._pair_table.cache_info().misses
    for potential, images in ((coulomb(), 1), (inverse_power(3), -1), (exponential_decay(1.0), 2)):
        with pytest.raises(ValueError, match="^q=21 beyond the exhaustive bound 20$"):
            ground_state_summary(2, 21, potential, images)
    assert wigner._pair_table.cache_info().misses == built


def test_four_site_fixture():
    assert _energies(2, 4, coulomb()) == {"0011": Fraction(1), "0101": Fraction(1, 2)}


def test_energy_is_exact_for_rational_potentials():
    kinds = ((coulomb(), Fraction), (inverse_power(3), Fraction), (exponential_decay(1.0), float))
    for potential, kind in kinds:
        assert {type(e) for e in _energies(2, 5, potential).values()} == {kind}


# The families whose periodic image series converges.
IMAGE_POTENTIALS = (inverse_power(2), inverse_power(2.5), exponential_decay(0.3), screened(1.0))


@given(
    words_st,
    st.integers(min_value=0, max_value=11),
    st.sampled_from(IMAGE_POTENTIALS),
    st.integers(min_value=1, max_value=3),
)
def test_energy_is_rotation_invariant(w, k, potential, images):
    # The pair oracle sums w itself, not its orbit's representative.
    k %= len(w)
    row = _orbit_row(w[k:] + w[:k], potential, images)
    assert row.energy == _ring_energy_oracle(w, potential, images)
    assert row.energy == _ring_energy_oracle(w[::-1], potential, images)
    assert _orbit_row(w[::-1], potential, images).energy == row.energy


@given(words_st)
def test_energy_is_reflection_invariant(w):
    assert _orbit_row(w[::-1], coulomb()).energy == _orbit_row(w, coulomb()).energy


def test_ground_state_two_fifths():
    report = ground_state(2, 5, coulomb())
    assert report.balanced
    assert report.exact
    assert [o.representative for o in report.argmin] == [
        balanced_orbit(2, 5).representative
    ]
    argmin_rows = [r for r in report.rows if r.argmin]
    assert len(argmin_rows) == 1 and argmin_rows[0].balanced


@pytest.mark.parametrize("potential", default_potentials(), ids=lambda p: p.describe())
def test_ground_states_balanced_small(potential):
    for p, q in ((1, 4), (2, 5), (3, 7), (3, 8), (2, 9)):
        report = ground_state(p, q, potential)
        assert report.balanced, (p, q, potential.describe())


def test_concave_potential_breaks_the_pattern():
    report = ground_state(3, 8, anti_coulomb())
    assert not report.balanced
    # Electrons clump together under attraction-like tails.
    assert [o.representative for o in report.argmin] == ["00000111"]


def test_convexity_classifier():
    assert is_convex_decreasing(coulomb())
    assert is_convex_decreasing(inverse_power(3))
    assert is_convex_decreasing(exponential_decay(1.0))
    assert is_convex_decreasing(screened(1.0))
    assert not is_convex_decreasing(anti_coulomb())


def test_images_tighten_toward_infinite_ring():
    for potential in (inverse_power(3), exponential_decay(1.0)):
        shallow, deep, deeper = (_energies(2, 4, potential, k)["0101"] for k in (1, 6, 12))
        assert float(shallow) <= float(deep) <= float(deeper)
        assert abs(float(deeper) - float(deep)) < abs(float(deep) - float(shallow)) + 1e-15


def test_exponential_tail_bound_holds_at_small_rates():
    # 1 - exp(-rate * q) rounds on either side of the true denominator at
    # these rates: at 1.1e-5 and 7e-6 it reads about 1e-12 too large, which
    # would put the bound under the tail itself.
    q, m, cutoff = 6, 1, 1
    for rate in (1.1e-5, 7e-6):
        terms = range(cutoff + 1, cutoff + 1 + int(40 / (rate * q)))  # to exp(-40)
        summed = math.fsum(
            math.exp(-rate * (k * q + m)) + math.exp(-rate * (k * q - m)) for k in terms
        )
        assert exponential_decay(rate).image_tail(m, q, cutoff) >= summed * (1 - 1e-15)
    # At a subnormal rate the bound overflows, and the rate is named.
    for potential in (exponential_decay(1e-320), screened(1e-320)):
        with pytest.raises(ValueError, match="decay rate 1e-320"):
            ground_state(2, 6, potential, images=1)


def test_coulomb_images_diverge():
    with pytest.raises(ValueError, match="diverges"):
        ground_state(2, 4, coulomb(), images=3)


def test_ground_state_with_images_not_marked_exact():
    report = ground_state(2, 5, inverse_power(3), images=4)
    assert not report.exact
    assert report.balanced


def test_non_coprime_pairs_still_scan():
    report = ground_state(2, 4, coulomb())
    assert [o.representative for o in report.argmin] == ["0101"]
    assert report.min_energy == Fraction(1, 2)


def test_balanced_flags_match_is_balanced():
    """Rows are flagged by name against g copies of the balanced (p/g, q/g)
    orbit, zero and full rings and non-coprime classes included."""
    for q in range(1, 18):
        for p in range(q + 1):
            for row in ground_state(p, q, coulomb()).rows:
                assert row.balanced == is_balanced(row.orbit.representative), (p, q, row.orbit)


def test_potential_descriptions():
    assert coulomb().describe() == "coulomb"
    assert inverse_power(3).describe() == "power(3)"
    assert "exponential" in exponential_decay(2.0).describe()


def test_potential_equality_keeps_parameter_types():
    exact, rounded = inverse_power(2), inverse_power(2.0)
    assert exact == inverse_power(2) and hash(exact) == hash(inverse_power(2))
    assert exact != rounded and hash(exact) != hash(rounded)
    assert exponential_decay(1.0) == exponential_decay(1) and coulomb() != anti_coulomb()
    # Fields, repr and describe are as before.
    assert [f.name for f in dataclasses.fields(Potential)] == ["kind", "params"]
    assert (repr(exact), repr(rounded)) == (
        "Potential(kind='power', params=(2,))", "Potential(kind='power', params=(2.0,))"
    )
    assert (exact.describe(), rounded.describe()) == ("power(2)", "power(2.0)")


def test_cached_pair_tables_follow_parameter_types_and_images():
    # Each call alone, with the table cache cleared, then all in one process,
    # in both orders: a table cached for one potential or image cutoff must
    # never answer for another.
    calls = [(inverse_power(2), 0), (inverse_power(2.0), 0), (inverse_power(2), 1), (inverse_power(2.0), 1)]
    alone = []
    for potential, images in calls:
        wigner._pair_table.cache_clear()
        alone.append(repr(ground_state(3, 7, potential, images)))
    for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
        wigner._pair_table.cache_clear()
        assert [repr(ground_state(3, 7, *calls[i])) for i in order] == [alone[i] for i in order]
    assert type(ground_state(3, 7, inverse_power(2)).min_energy) is Fraction
    assert type(ground_state(3, 7, inverse_power(2.0)).min_energy) is float


def test_pair_tables_are_shared_read_only_and_bounded():
    scale, values, envelopes = wigner._pair_table(inverse_power(3), 7, 2)
    assert type(values) is type(envelopes) is tuple and len(values) == len(envelopes) == 3
    assert {type(entry) for entry in values + envelopes} == {tuple}
    # One row per ring distance d with its left shift q - d; at d = q / 2, left = q.
    assert [row[:2] for row in values] == [row[:2] for row in envelopes] == [(1, 6), (2, 5), (3, 4)]
    assert [row[:2] for row in wigner._pair_table(inverse_power(3), 8, 0)[1]] == [(1, 7), (2, 6), (3, 5), (4, 8)]
    assert wigner._pair_table(inverse_power(3), 7, 2)[1] is values
    assert 0 < wigner._pair_table.cache_parameters()["maxsize"] < 10**4


def _per_offset_pair_sums(readings, weights):
    """Per reading b, the sum of w over (m, w) in ``weights`` times the
    offset-m pairs of b, the set bits of b & (b >> m)."""
    return [sum(w * (b & (b >> m)).bit_count() for m, w in weights) for b, _ in readings]


def _offset_weights(rows, q):
    """Ring-distance rows (d, left, w) spread over the offsets d and q - d of distance d."""
    return sorted({(m, w) for d, _, w in rows for m in (d, q - d)})


@pytest.mark.parametrize(
    "potential",
    (coulomb(), inverse_power(3), inverse_power(2.5), exponential_decay(1.0), screened(0.7), anti_coulomb()),
    ids=lambda p: p.describe(),
)
def test_pair_sums_match_per_offset_oracle(potential):
    # Odd and even q, so the d = q / 2 row, whose two offsets are one, is read too.
    cutoffs = (0,) if potential.kind in ("coulomb", "anti") else (0, 1, 2)
    cases = [(p, q) for q in range(1, 15) for p in range(q + 1)]
    cases += [(p, 17) for p in range(18)] if potential.kind == "coulomb" else []
    for images in cutoffs:
        for p, q in cases:
            _, values, envelopes = wigner._pair_table(potential, q, images)
            readings = enumerate_orbits(p, q)
            for rows in (values, envelopes):
                assert wigner._pair_sums(readings, rows) == _per_offset_pair_sums(
                    readings, _offset_weights(rows, q)
                ), (p, q, images)


def test_exact_energies_are_shared_per_distinct_value():
    energies = [row.energy for row in ground_state(5, 17, coulomb()).rows]
    assert len({id(e) for e in energies}) == len(set(energies)) < len(energies)


@pytest.mark.parametrize("factory", [inverse_power, exponential_decay, screened])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0, -2])
def test_potential_parameter_must_be_positive_and_finite(factory, value):
    with pytest.raises(ValueError, match="positive and finite"):
        factory(value)


def test_power_exponent_is_capped_before_energies_grow_huge():
    assert ground_state(2, 5, inverse_power(MAX_POWER)).exact
    with pytest.raises(ValueError, match=f"at most {MAX_POWER}, got {MAX_POWER + 1}$"):
        inverse_power(MAX_POWER + 1)


@pytest.mark.parametrize(
    "p, q, message",
    [
        (0, 0, "ring needs at least one site"),
        (5, 4, "electron count 5 outside 0..4"),
        (-1, 4, "electron count -1 outside 0..4"),
    ],
)
def test_orbit_guards_name_what_they_refuse(p, q, message):
    with pytest.raises(ValueError) as info:
        ground_state(p, q, coulomb())
    assert str(info.value) == message
