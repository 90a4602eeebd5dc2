"""Acceptance battery: one test per verification criterion.

Each test runs the corresponding named check from ``sturmlab.checks`` (the
same registry the ``sturmlab verify-all`` command uses), prints its one-line
verdict, and enforces the runtime budget where one is pinned.
"""

import pytest

from sturmlab import cyclic, measures, wigner
from sturmlab.checks import run_all, run_check


def run_and_report(name: str, budget: float = None):
    result = run_check(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {name} [{result.seconds:.2f}s] {result.detail}")
    assert result.passed, f"{name}: {result.detail}"
    if budget is not None:
        assert result.seconds < budget, (
            f"{name} took {result.seconds:.1f}s, budget {budget:.0f}s"
        )
    return result


def test_cyclic_products_balanced_maximizer():
    run_and_report("cyclic-products", budget=60.0)


def test_sturmian_measure_support_and_weights():
    run_and_report("sturmian-measure")


def test_convex_order_least_element():
    run_and_report("convex-order", budget=120.0)


def test_jsr_golden_ratio_bracket():
    run_and_report("jsr-golden-ratio")


def test_alpha_star_reference_digits():
    run_and_report("alpha-star-digits", budget=5.0)


def test_trace_recurrence():
    run_and_report("trace-recurrence")


def test_optimal_ratio_staircase():
    run_and_report("ratio-staircase", budget=600.0)


def test_heaps_balanced_schedules():
    run_and_report("heaps-balanced")


def test_wigner_ground_states_balanced():
    run_and_report("wigner-ground-states", budget=60.0)


def test_scan_checks_read_summaries_and_build_no_orbit_row(monkeypatch):
    # The verdicts need only each scan's optimum, so with every per-orbit row
    # constructor raising, both checks still pass with their usual detail lines.
    def refuse(*args, **kwargs):
        raise AssertionError("a check built a per-orbit row")

    monkeypatch.setattr(cyclic, "ProductScanRow", refuse)
    monkeypatch.setattr(wigner, "OrbitEnergy", refuse)
    monkeypatch.setattr(wigner, "Orbit", refuse)
    results = run_all(["cyclic-products", "wigner-ground-states"])
    assert [(r.passed, r.detail) for r in results] == [
        (True, "B(10100)=162000, B(11000)=88128; 63 coprime pairs scanned, failures: none"),
        (True, "convex decreasing: shipped potentials True, concave fixture False; 189 (density, "
               "potential) ground states all balanced (failures: none); concave fixture minimizer "
               "00000111 is non-balanced: True; float tie margin 1e-12"),
    ]
    with pytest.raises(AssertionError, match="per-orbit row"):
        wigner.ground_state(2, 5, wigner.coulomb())


def test_hot_checks_scale_each_class_once(monkeypatch):
    # convex-order compares integer forms scaled once per slope class, so it
    # builds no measure object and blends no mixture; wigner-ground-states builds
    # one pair table per distinct (potential, q), 40 for its 190 summaries.
    def refuse(*args, **kwargs):
        raise AssertionError("convex-order built a measure or a mixture")

    monkeypatch.setattr(measures, "mixture", refuse)
    monkeypatch.setattr(measures, "orbit_measure", refuse)
    wigner._pair_table.cache_clear()
    results = run_all(["convex-order", "wigner-ground-states"])
    assert [(r.passed, r.detail) for r in results] == [
        (True, "31 slope classes, 241 orbit competitors, 3100 random mixtures, counterexamples: none"),
        (True, "convex decreasing: shipped potentials True, concave fixture False; 189 (density, "
               "potential) ground states all balanced (failures: none); concave fixture minimizer "
               "00000111 is non-balanced: True; float tie margin 1e-12"),
    ]
    tables = wigner._pair_table.cache_info()
    assert (tables.misses, tables.hits) == (40, 150)
    with pytest.raises(AssertionError, match="a mixture"):
        measures.mixture([measures.sturmian_measure(1, 2)], [1])


def test_words_core_invariants():
    run_and_report("words-core")


def test_queue_admission_competition():
    run_and_report("queue-admission")


def test_registry_covers_exactly_the_battery():
    from sturmlab.checks import CHECKS

    assert list(CHECKS) == [
        "cyclic-products",
        "sturmian-measure",
        "convex-order",
        "jsr-golden-ratio",
        "alpha-star-digits",
        "trace-recurrence",
        "ratio-staircase",
        "heaps-balanced",
        "wigner-ground-states",
        "words-core",
        "queue-admission",
    ]


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_check("no-such-criterion")


def test_process_pool_returns_the_serial_verdicts_in_order():
    names = ["trace-recurrence", "jsr-golden-ratio", "alpha-star-digits"]
    serial, pooled = (run_all(names, jobs=jobs) for jobs in (1, 2))
    assert [(r.name, r.passed, r.detail) for r in pooled] == [
        (r.name, r.passed, r.detail) for r in serial
    ]
    assert [r.name for r in pooled] == names
