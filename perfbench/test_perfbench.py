"""Tests of the benchmark itself: its gate can fail, and tracing changes no result.

    python3 -m pytest perfbench -q      (from the root of the checkout)
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sturmlab import (  # noqa: E402
    checks,
    cli,
    cyclic,
    heaps,
    jsr,
    measures,
    multimodular,
    queueing,
    wigner,
    words,
)

CHEAP_OPS = ("wigner.ground_state(1,17)", "wigner.ground_state(2,17)")


def _reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _cheap_steps(reference: dict, variant: int = 3) -> list:
    steps = workloads.build("deep-scan", variant, reference, "")
    return [step for step in steps if step.ops[0] in CHEAP_OPS]


def _failed_frac(steps) -> float:
    _, outcomes = workloads.run_steps(steps)
    verdicts = workloads.judge_steps(steps, outcomes)
    return sum(1 for problems in verdicts.values() if problems) / len(verdicts)


def test_recorded_reference_passes():
    assert _failed_frac(_cheap_steps(_reference())) == 0


def test_tampered_reference_trips_the_gate():
    reference = _reference()
    recorded = reference["deep-scan"]["3"]
    recorded[CHEAP_OPS[1]] = "0" * 64
    assert _failed_frac(_cheap_steps(reference)) == 0.5


def test_missing_reference_trips_the_gate():
    assert _failed_frac(_cheap_steps({})) == 1.0


def test_wrong_output_trips_the_invariant():
    steps = _cheap_steps(_reference())
    wrong = wigner.ground_state(3, 17, wigner.coulomb())
    problems = steps[1].judge(wrong)[CHEAP_OPS[1]]
    assert "output differs from the reference" in problems
    assert any("not the balanced orbit" in p for p in problems)


def test_raising_call_fails_every_operation_of_its_step():
    step = workloads.Step(("a", "b"), lambda: 1 // 0, lambda result: {"a": [], "b": []})
    _, outcomes = workloads.run_steps([step])
    verdicts = workloads.judge_steps([step], outcomes)
    assert set(verdicts) == {"a", "b"} and all(verdicts.values())


def _battery_verdicts(tmp_path, rows, exit_code=0):
    artifact = tmp_path / "verify-all.json"
    artifact.write_text(json.dumps({"meta": {}, "rows": rows}))
    (step,) = workloads.battery(str(artifact))
    return step.judge(exit_code)


def test_battery_failing_verdict_trips_the_gate(tmp_path):
    rows = [{"name": n, "passed": "true", "detail": ""} for n in workloads.BATTERY_CHECKS]
    assert not any(_battery_verdicts(tmp_path, rows).values())
    rows[2]["passed"] = "false"
    verdicts = _battery_verdicts(tmp_path, rows)
    assert [n for n, p in verdicts.items() if p] == [workloads.BATTERY_CHECKS[2]]
    verdicts = _battery_verdicts(tmp_path, rows[:-1])
    assert verdicts[workloads.BATTERY_CHECKS[-1]] == ["missing from the artifact"]


def test_battery_nonzero_exit_fails_every_check(tmp_path):
    rows = [{"name": n, "passed": "true", "detail": ""} for n in workloads.BATTERY_CHECKS]
    assert all(_battery_verdicts(tmp_path, rows, exit_code=1).values())


def test_battery_is_pinned_to_shipped_checks():
    assert len(workloads.BATTERY_CHECKS) == 11
    assert set(workloads.BATTERY_CHECKS) <= set(checks.CHECKS)


def _sample(artifact: str) -> list:
    """One small call into every traced function, through module attributes."""
    golden = words.ContinuedFraction((1,) * 8)
    config = queueing.QueueConfig(horizon=500, admission=words.MechanicalSpec(Fraction(1, 3)))
    code = cli.main(["verify-all", "--only", "trace-recurrence,ratio-staircase",
                     "--format", "json", "--out", artifact])
    with open(artifact, encoding="utf-8") as handle:
        rows = [(r["name"], r["passed"], r["detail"]) for r in json.load(handle)["rows"]]
    return [
        code,
        rows,
        cyclic.verify_balanced_product_maximum(3, 8),
        measures.verify_sturmian_least(6, mixtures_per_pair=5, seed=1),
        measures.maximize_over_orbits(measures.tent_objective(0.3), 6),
        jsr.ratio_staircase([Fraction(k, 7) for k in range(8)], 8),
        jsr.jsr_bounds([jsr.A0, jsr.A1], 4),
        jsr.alpha_star_tau(5),
        jsr.alpha_inverse(golden, 5),
        heaps.min_rate_exhaustive(heaps.default_model(), 6),
        heaps.best_balanced_schedule(heaps.default_model(), 4),
        wigner.ground_state(3, 8, wigner.coulomb()),
        queueing.admission_competition(config, 3),
        multimodular.window_average(
            multimodular.slotted_queue_backlog(3), words.MechanicalSpec(Fraction(2, 5)), 200
        ),
        words.is_balanced(words.mechanical_word(0.3819, 200)),
    ]


def test_wrapped_calls_return_identical_results(tmp_path):
    plain = workloads.digest(_sample(str(tmp_path / "plain.json")))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cyclic.enumerate_orbits is measures.enumerate_orbits is words.enumerate_orbits
        assert hasattr(wigner.enumerate_orbits, "__wrapped__")
        assert hasattr(queueing.symbol_stream, "__wrapped__")
        assert hasattr(multimodular.symbol_stream, "__wrapped__")
        traced = workloads.digest(_sample(str(tmp_path / "traced.json")))
    finally:
        tracer.uninstall()
    assert traced == plain
    recorded = {span[0] for span in tracer.spans}
    missing = [span for span, _, _ in tracing.SPANS if span not in recorded]
    assert not missing, f"bindings left unwrapped: {missing}"
    assert f"{tracing.RUN_CHECK}.trace-recurrence" in recorded
    for module in (cyclic, measures, wigner, jsr):
        assert not hasattr(module.enumerate_orbits, "__wrapped__")


def test_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 5.0, 0, {"n": 2}],
        ["b", 2.0, 3.0, 1, None],
        ["a", 6.0, 7.0, 0, {"n": 3}],
    ]
    totals = tracing.layer_totals(spans)
    assert totals["root"]["s"] == 5.0
    assert totals["a"] == {"calls": 2, "s": 4.0, "n": 5}
    assert totals["b"]["s"] == 1.0


def test_reference_seconds_scale_by_calibration_speed():
    nominal = speed.NOMINAL_S
    # Calibration runs starting at t=0 and t=10 took twice the nominal time:
    # the stretch between them counts half, the runs themselves not at all.
    samples = [(0.0, 2 * nominal), (10.0, 2 * nominal)]
    got = speed.reference_seconds(0.0, 10.0 + 2 * nominal, samples)
    assert abs(got - (10.0 - 2 * nominal) / 2) < 1e-9
    # A stretch between a slow and a nominal run takes their mean duration.
    samples = [(0.0, 3 * nominal), (4.0, nominal)]
    assert abs(speed.reference_seconds(3 * nominal, 4.0, samples) - (4.0 - 3 * nominal) / 2) < 1e-9
    # Before the first and after the last run, the nearest run's speed applies.
    assert abs(speed.reference_seconds(-1.0, 0.0, samples) - 1 / 3) < 1e-9


def test_speed_probe_samples_periodically():
    with speed.SpeedProbe() as probe:
        deadline = speed.time.monotonic() + 3 * speed.PERIOD_S
        while speed.time.monotonic() < deadline:
            pass
    assert len(probe.samples) >= 4
    assert all(duration > 0 for _, duration in probe.samples)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = [m[0] for m in tracing.metric_specs(workloads.BATTERY_CHECKS)]
    assert per_layer == names + ["trace.overhead_s"]
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    first = workloads.deep_scan_inputs(5)
    assert first == workloads.deep_scan_inputs(5) != workloads.deep_scan_inputs(6)
    alphas = first["alphas"]
    assert len(set(alphas)) == 50 and alphas == sorted(alphas) and alphas[-1] == 1
    shuffle = workloads.long_word_inputs(5)["shuffle"]
    length = workloads.WINDOWS + workloads.WINDOW_ARITY - 1
    assert shuffle.count("1") == workloads.own_mechanical(3, 8, length).count("1")
