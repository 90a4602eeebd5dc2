"""The three benchmark workloads, their seeded inputs and their correctness gate.

A workload is a list of ``Step``s.  Each step makes one timed call into
sturmlab and names the operations it settles; ``judge`` maps each of those
operations to the problems found in the call's result (an empty list means
the operation passed).  Judging runs outside the timed region and never
calls sturmlab, so the oracles here stay independent of the code they check.

Inputs are generated from ``seed % VARIANTS``: every one of the ``VARIANTS``
input sets has its outputs recorded in ``reference.json`` (see
``record.py``), so any seed can be checked byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import time
import traceback
from fractions import Fraction
from typing import Callable

WORKLOADS = ("battery", "deep-scan", "long-word")

# The battery is pinned to the checks shipped when the benchmark was defined.
# A check added to sturmlab later changes this workload only through a
# separate benchmark change.
BATTERY_CHECKS = (
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
)

VARIANTS = 16

GOLDEN = (3 - math.sqrt(5)) / 2  # float slope: exercises the mpmath path
QUEUE_SLOPE = Fraction(3, 8)
QUEUE_HORIZON = 300_000
WINDOWS = 100_000
WINDOW_ARITY = 4


@dataclasses.dataclass(frozen=True)
class Step:
    ops: tuple[str, ...]
    call: Callable[[], object]
    judge: Callable[[object], dict[str, list[str]]]


# ---------------------------------------------------------------------------
# independent oracles


def own_mechanical(num: int, den: int, n: int) -> str:
    """Letters floor((k+1)g) - floor(k g), k = 1..n, for g = num/den >= 0."""
    return "".join(
        str((k + 1) * num // den - k * num // den) for k in range(1, n + 1)
    )


def mechanical_ones(n: int) -> int:
    """Ones among the first n letters at QUEUE_SLOPE: the sum telescopes."""
    return (n + 1) * QUEUE_SLOPE.numerator // QUEUE_SLOPE.denominator


def own_balanced_rep(p: int, q: int) -> str:
    w = own_mechanical(p, q, q)
    return min(w[i:] + w[:i] for i in range(q))


def own_balanced(w: str) -> bool:
    """All-windows balance test on prefix sums."""
    prefix = [0]
    for ch in w:
        prefix.append(prefix[-1] + (ch == "1"))
    m = len(w)
    for n in range(1, m):
        ones = [prefix[i + n] - prefix[i] for i in range(m - n + 1)]
        if max(ones) - min(ones) >= 2:
            return False
    return True


def own_backlog_average(bits: str, n: int, m: int) -> Fraction:
    """Mean slotted unit-service backlog over the first n windows of width m."""
    total = 0
    for k in range(n):
        backlog = 0
        for ch in bits[k : k + m]:
            backlog = max(backlog + (ch == "1") - 1, 0)
        total += backlog
    return Fraction(total, n)


def canonical(value):
    """JSON-ready form of a result: Fractions as p/q text, floats by repr."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return repr(value)


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _gated(name: str, call, invariant, reference: dict) -> Step:
    """One operation: the result must match its reference and the invariant."""

    def judge(result):
        problems = list(invariant(result))
        want = reference.get(name)
        if want is None:
            problems.append("no reference output recorded")
        elif digest(result) != want:
            problems.append("output differs from the reference")
        return {name: problems}

    return Step((name,), call, judge)


def _expect(condition: bool, message: str) -> list[str]:
    return [] if condition else [message]


# ---------------------------------------------------------------------------
# workloads


def battery(out_path: str) -> list[Step]:
    """The shipped verification gate, judged from its --out JSON artifact."""
    from sturmlab import cli

    argv = [
        "verify-all", "--only", ",".join(BATTERY_CHECKS),
        "--jobs", "1", "--format", "json", "--out", out_path,
    ]

    def judge(exit_code):
        with open(out_path, encoding="utf-8") as handle:
            rows = {row["name"]: row for row in json.load(handle)["rows"]}
        verdicts = {}
        for name in BATTERY_CHECKS:
            row = rows.get(name)
            if row is None:
                verdicts[name] = ["missing from the artifact"]
            else:
                verdicts[name] = _expect(row["passed"] == "true", f"FAIL: {row['detail']}")
        if exit_code != 0 and not any(verdicts.values()):
            verdicts = {name: [f"exit code {exit_code}"] for name in BATTERY_CHECKS}
        return verdicts

    return [Step(BATTERY_CHECKS, lambda: cli.main(argv), judge)]


def deep_scan_inputs(variant: int) -> dict:
    rng = random.Random(f"deep-scan:{variant}")
    grid = sorted(Fraction(k, 10_000) for k in rng.sample(range(10_000), 49))
    return {"alphas": grid + [Fraction(1)], "thetas": [rng.random(), rng.random()]}


def deep_scan(variant: int, reference: dict) -> list[Step]:
    """Exhaustive orbit scans past the shipped gate sizes."""
    from sturmlab import cyclic, heaps, jsr, measures, wigner

    inputs = deep_scan_inputs(variant)
    steps = []

    pairs = [(p, q) for q in range(2, 17) for p in range(1, q) if math.gcd(p, q) == 1]

    def cyclic_ok(scans):
        problems = _expect([(s.p, s.q) for s in scans] == pairs, "coprime pairs differ")
        bad = [f"{s.p}/{s.q}" for s in scans if s.argmax != (own_balanced_rep(s.p, s.q),)]
        return problems + _expect(not bad, f"argmax not the balanced orbit: {bad}")

    steps.append(_gated("cyclic.scan_coprime_pairs(16)",
                        lambda: cyclic.scan_coprime_pairs(16), cyclic_ok, reference))

    for p in range(1, 17):
        def ground_ok(report, p=p):
            reps = [o.representative for o in report.argmin]
            return _expect(report.exact, "energies not exact") + _expect(
                reps == [own_balanced_rep(p, 17)], f"ground state {reps} is not the balanced orbit"
            ) + _expect(len(report.rows) == math.comb(17, p) // 17, "orbit count")

        steps.append(_gated(f"wigner.ground_state({p},17)",
                            lambda p=p: wigner.ground_state(p, 17, wigner.coulomb()),
                            ground_ok, reference))

    def staircase_ok(rows):
        ratios = [row.ratio for row in rows]
        return (
            _expect(all(a <= b for a, b in zip(ratios, ratios[1:])), "not monotone")
            + _expect(all(0 <= r <= Fraction(1, 2) for r in ratios), "outside [0, 1/2]")
            + _expect(ratios[-1] == Fraction(1, 2), "ratio at alpha=1 is not 1/2")
        )

    steps.append(_gated("jsr.ratio_staircase(n=18)",
                        lambda: jsr.ratio_staircase(inputs["alphas"], 18),
                        staircase_ok, reference))

    for i, theta in enumerate(inputs["thetas"]):
        steps.append(_gated(
            f"measures.maximize_over_orbits(theta{i})",
            lambda theta=theta: measures.maximize_over_orbits(measures.tent_objective(theta), 13),
            lambda best: _expect(own_balanced(best[0].word), "maximizer not balanced"),
            reference,
        ))

    def heaps_ok(scan):
        return _expect(scan.min_rate == Fraction(11, 16), f"min rate {scan.min_rate}") + _expect(
            any(own_balanced(w) for w in scan.argmin), "no balanced word in the argmin"
        )

    steps.append(_gated("heaps.min_rate_exhaustive(16)",
                        lambda: heaps.min_rate_exhaustive(heaps.default_model(), 16),
                        heaps_ok, reference))
    return steps


def long_word_inputs(variant: int) -> dict:
    rng = random.Random(f"long-word:{variant}")
    length = WINDOWS + WINDOW_ARITY - 1
    positions = set(rng.sample(range(length), mechanical_ones(length)))
    return {
        "arrival_seed": rng.randrange(2**32),
        "competitor_seed": rng.randrange(2**32),
        "shuffle": "".join("1" if i in positions else "0" for i in range(length)),
    }


def long_word(variant: int, reference: dict) -> list[Step]:
    """Few, very long words: mechanical words, balance, queue, windows."""
    from sturmlab import multimodular, queueing, words

    inputs = long_word_inputs(variant)
    num, den = GOLDEN.as_integer_ratio()
    golden_4000 = own_mechanical(num, den, 4000)
    mechanical = words.MechanicalSpec(QUEUE_SLOPE)
    backlog = multimodular.slotted_queue_backlog(WINDOW_ARITY)
    p, q = QUEUE_SLOPE.numerator, QUEUE_SLOPE.denominator
    steps = [
        _gated("words.mechanical_word(3/8,300000)",
               lambda: words.mechanical_word(QUEUE_SLOPE, 300_000),
               lambda w: _expect(w == own_mechanical(p, q, 300_000), "letters differ"),
               reference),
        _gated("words.mechanical_word(golden,200000)",
               lambda: words.mechanical_word(GOLDEN, 200_000),
               lambda w: _expect(w == own_mechanical(num, den, 200_000), "letters differ"),
               reference),
        _gated("words.is_balanced(4000)",
               lambda: words.is_balanced(golden_4000),
               lambda verdict: _expect(verdict is True, "balanced word reported unbalanced"),
               reference),
    ]

    config = queueing.QueueConfig(
        mean_interarrival=1.0, service_time=2.0, horizon=QUEUE_HORIZON,
        seed=inputs["arrival_seed"], admission=mechanical,
    )

    def competition_ok(rows):
        return (
            _expect(len(rows) == 11, "expected 1 mechanical + 10 competitor rows")
            + _expect(all(r.admitted == mechanical_ones(QUEUE_HORIZON) for r in rows),
                      "admitted counts differ")
            + _expect(all(rows[0].mean_cost <= r.mean_cost for r in rows[1:]),
                      "a shuffle beats mechanical admission")
        )

    steps.append(_gated(
        f"queueing.admission_competition({QUEUE_HORIZON})",
        lambda: queueing.admission_competition(config, 10, inputs["competitor_seed"]),
        competition_ok, reference,
    ))

    def mechanical_average():
        bits = own_mechanical(p, q, WINDOWS + WINDOW_ARITY - 1)
        return own_backlog_average(bits, WINDOWS, WINDOW_ARITY)

    steps.append(_gated(
        "multimodular.window_average(mechanical)",
        lambda: multimodular.window_average(backlog, mechanical, WINDOWS),
        lambda avg: _expect(avg == mechanical_average(), "average differs from the oracle"),
        reference,
    ))

    def shuffle_ok(avg):
        want = own_backlog_average(inputs["shuffle"], WINDOWS, WINDOW_ARITY)
        return _expect(avg == want, "average differs from the oracle") + _expect(
            mechanical_average() <= avg, "shuffle beats the mechanical source"
        )

    steps.append(_gated(
        "multimodular.window_average(shuffle)",
        lambda: multimodular.window_average(backlog, inputs["shuffle"], WINDOWS),
        shuffle_ok, reference,
    ))
    return steps


def run_steps(steps: list[Step]) -> tuple[list, list]:
    """Call each step; return its (start, end) monotonic window and (result, error)."""
    windows = []
    outcomes = []
    for step in steps:
        start = time.monotonic()
        try:
            outcomes.append((step.call(), None))
        except Exception:
            outcomes.append((None, f"raised: {traceback.format_exc(limit=3)}"))
        windows.append((start, time.monotonic()))
    return windows, outcomes


def judge_steps(steps: list[Step], outcomes: list) -> dict[str, list[str]]:
    """Problems per operation; a call or judge that raised fails all its operations."""
    verdicts: dict[str, list[str]] = {}
    for step, (result, error) in zip(steps, outcomes):
        if error is None:
            try:
                verdicts.update(step.judge(result))
                continue
            except Exception:
                error = f"judge raised: {traceback.format_exc(limit=3)}"
        verdicts.update({op: [error] for op in step.ops})
    return verdicts


def build(workload: str, seed: int, reference: dict, out_path: str) -> list[Step]:
    """Steps of one workload; ``reference`` is the whole reference.json."""
    if workload == "battery":
        return battery(out_path)
    variant = seed % VARIANTS
    recorded = reference.get(workload, {}).get(str(variant), {})
    if workload == "deep-scan":
        return deep_scan(variant, recorded)
    if workload == "long-word":
        return long_word(variant, recorded)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
