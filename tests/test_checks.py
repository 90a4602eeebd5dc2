"""Each verdict in the battery can fail: a check fed one failing library result says FAIL.

Every test wraps the library call its check makes, turns one real result
into a failing one with ``dataclasses.replace``, and requires the check to
fail and to name the failure in its detail line.
"""

from dataclasses import replace

from sturmlab import checks, cyclic, heaps, queueing, wigner


def test_cyclic_check_fails_on_a_failed_scan(monkeypatch):
    real = cyclic.scan_coprime_pairs

    def scans(q_max):
        return [replace(s, passed=False) if (s.p, s.q) == (2, 5) else s for s in real(q_max)]

    monkeypatch.setattr(cyclic, "scan_coprime_pairs", scans)
    passed, detail = checks._check_cyclic_products()
    assert not passed
    assert "failures: ['2/5']" in detail


def test_heaps_check_fails_without_a_balanced_argmin(monkeypatch):
    real = heaps.min_rate_exhaustive

    def scan(model, n):
        result = real(model, n)
        return replace(result, argmin=("110100",)) if n == 6 else result

    monkeypatch.setattr(heaps, "min_rate_exhaustive", scan)
    passed, detail = checks._check_heaps_balanced()
    assert not passed
    assert "(failures: [6])" in detail


def test_wigner_check_fails_on_an_unbalanced_ground_state(monkeypatch):
    real = wigner.ground_state

    def ground_state(p, q, potential, images=0):
        report = real(p, q, potential, images)
        return replace(report, balanced=False) if (p, q) == (5, 13) else report

    monkeypatch.setattr(wigner, "ground_state", ground_state)
    passed, detail = checks._check_wigner_ground_states()
    assert not passed
    assert "failures: ['5/13:coulomb', '5/13:power(3)', '5/13:exponential(1.0)']" in detail


def test_queue_check_fails_when_a_shuffle_beats_the_mechanical_word(monkeypatch):
    real = queueing.admission_competition

    def competition(config, competitors=50):
        rows = real(config, competitors)
        rows[7] = replace(rows[7], mean_cost=rows[0].mean_cost / 2)
        return rows

    monkeypatch.setattr(queueing, "admission_competition", competition)
    passed, detail = checks._check_queue_admission()
    assert not passed
    assert "competitors beaten: 49/50" in detail
