"""Ring configurations of repelling electrons and their ground states."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sturmlab.wigner import (
    MAX_POWER,
    TIE_MARGIN,
    _pair_offsets,
    _PairTable,
    GroundStateReport,
    OrbitEnergy,
    anti_coulomb,
    coulomb,
    default_potentials,
    exponential_decay,
    ground_state,
    inverse_power,
    is_convex_decreasing,
    screened,
)
from sturmlab.words import balanced_orbit, enumerate_orbits, is_balanced

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
    if images == 0:
        return potential.value(min(m, q - m))
    total = potential.value(m)
    for k in range(1, images + 1):
        total = total + potential.value(m + k * q) + potential.value(k * q - m)
    return total


def _electron_pairs(w):
    electrons = [i for i, ch in enumerate(w) if ch == "1"]
    for a in range(len(electrons)):
        for b in range(a + 1, len(electrons)):
            yield electrons[b] - electrons[a]


def _ring_energy_oracle(w, potential, images=0):
    """The per-pair sum: one potential value per electron pair, accumulated
    from Fraction(0) in (a, b) order."""
    q = len(w)
    if q < 1:
        raise ValueError("empty ring")
    if images < 0:
        raise ValueError("image cutoff must be >= 0")
    if images > 0:
        potential.image_tail(1, max(q, 2), images)
    total = Fraction(0)
    for m in _electron_pairs(w):
        total = total + _pair_value_oracle(potential, m, q, images)
    return total


def _ground_state_oracle(p, q, potential, images):
    """Orbit scan over the per-pair oracle with per-pair image tail bounds."""
    orbits = enumerate_orbits(p, q)
    energies = [_ring_energy_oracle(o.representative, potential, images) for o in orbits]
    exact = images == 0 and all(isinstance(e, Fraction) for e in energies)
    minimum = min(energies)
    if exact:
        tied = [e == minimum for e in energies]
    else:
        bounds = []
        for o in orbits:
            bound = 0.0
            for m in _electron_pairs(o.representative) if images else ():
                bound += potential.image_tail(m, q, images)
            bounds.append(bound)
        ceiling = min(float(e) + b for e, b in zip(energies, bounds))
        tied = [float(e) <= ceiling + 1e-12 * abs(ceiling) for e in energies]
    rows = tuple(
        OrbitEnergy(o, e, is_balanced(o.representative), t)
        for o, e, t in zip(orbits, energies, tied)
    )
    argmin = tuple(row.orbit for row in rows if row.argmin)
    balanced = all(row.balanced for row in rows if row.argmin)
    return GroundStateReport(p, q, potential, rows, minimum, argmin, balanced, exact)


def _ring_energy(w, potential, images=0):
    """Energy of ``w`` through the per-offset table that ground_state reads."""
    return _PairTable(potential, len(w), images).energy(_pair_offsets(w))


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
    try:
        want = _ring_energy_oracle(w, potential, images)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            _ring_energy(w, potential, images)
        return
    got = _ring_energy(w, potential, images)
    assert type(got) is type(want)
    assert got == want


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
                    for o in enumerate_orbits(p, q)}
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


def test_four_site_fixture():
    assert _energies(2, 4, coulomb()) == {"0011": Fraction(1), "0101": Fraction(1, 2)}


def test_energy_is_exact_for_rational_potentials():
    kinds = ((coulomb(), Fraction), (inverse_power(3), Fraction), (exponential_decay(1.0), float))
    for potential, kind in kinds:
        assert {type(e) for e in _energies(2, 5, potential).values()} == {kind}


@given(words_st, st.integers(min_value=0, max_value=11))
def test_energy_is_rotation_invariant(w, k):
    k %= len(w)
    assert _ring_energy(w[k:] + w[:k], coulomb()) == _ring_energy(w, coulomb())


@given(words_st)
def test_energy_is_reflection_invariant(w):
    assert _ring_energy(w[::-1], coulomb()) == _ring_energy(w, coulomb())


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


@pytest.mark.parametrize("factory", [inverse_power, exponential_decay, screened])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0, -2])
def test_potential_parameter_must_be_positive_and_finite(factory, value):
    with pytest.raises(ValueError, match="positive and finite"):
        factory(value)


def test_power_exponent_is_capped_before_energies_grow_huge():
    assert ground_state(2, 5, inverse_power(MAX_POWER)).exact
    with pytest.raises(ValueError, match=f"at most {MAX_POWER}, got {MAX_POWER + 1}$"):
        inverse_power(MAX_POWER + 1)
