"""sturmlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {battery,deep-scan,long-word} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a sturmlab checkout; the package is imported from
``src/``.  Every repetition of the workload runs in a fresh interpreter
(``perfbench/worker.py``), so import cost and cold caches are paid the way a
command-line user pays them.  The run first starts ``SETUP_PROBES``
interpreters that only import sturmlab and build the inputs, then repeats
the workload for about S seconds, single-threaded.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics (medians over the repetitions):

- ``wall_s``: time of the timed calls into sturmlab, tracing off;
- ``setup_s``: time from spawning a workload process until sturmlab is
  imported and the seeded inputs are built;
- ``peak_rss_mb``: peak resident MiB of a workload process.

Both times are reference seconds, wall time corrected for the machine's
changing CPU speed (see ``speed.py``); raw wall-clock medians are printed
above the JSON.

With ``--trace 1`` repetitions alternate between untraced and traced, and
the JSON carries the per-layer metrics: per wrapped function its calls,
self time and work counts, plus ``trace.overhead_s`` (median traced wall
minus median untraced wall).

Every repetition is checked (see ``workloads.py``); ``attempted`` and
``failed`` count operations over all repetitions, and ``failed_frac`` is
printed on the line above the JSON.  Exits 2 without a result when sturmlab
is missing or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import BATTERY_CHECKS, WORKLOADS  # noqa: E402

SETUP_PROBES = 8
RUN_LIMIT_S = 170  # a run that is not done by then fails instead of hanging


class WorkerError(RuntimeError):
    pass


def spawn(workdir: str, workload: str, seed: int, mode: str, index: int, deadline: float) -> dict:
    """Run one worker to completion; return its record with its times added.

    ``setup_s`` and ``wall_s`` are reference seconds (see ``speed.py``);
    ``raw_setup_s`` and ``raw_wall_s`` are the plain wall-clock times.
    """
    out = os.path.join(workdir, f"{mode}-{index}", "record.json")
    os.makedirs(os.path.dirname(out))
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    argv = [sys.executable, worker, "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--out", out]
    spawned = time.monotonic()
    try:
        completed = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                                   timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker still running after {RUN_LIMIT_S} s") from exc
    if completed.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {completed.returncode}")
    with open(out, encoding="utf-8") as handle:
        record = json.load(handle)
    samples = record["calibration"]
    windows = [(spawned, record["ready"])] + record.get("windows", [])
    record["setup_s"], *walls = [speed.reference_seconds(a, b, samples) for a, b in windows]
    record["raw_setup_s"], *raw_walls = [b - a for a, b in windows]
    record["wall_s"], record["raw_wall_s"] = sum(walls), sum(raw_walls)
    return record


def layer_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit), each value the median over the traced repetitions.

    Self times are scaled by their repetition's reference-to-raw wall ratio,
    so they are reference seconds too.
    """
    totals = []
    for record in records:
        scale = record["wall_s"] / record["raw_wall_s"]
        layers = tracing.layer_totals(record["spans"])
        for entry in layers.values():
            entry["s"] *= scale
        totals.append(layers)
    return {
        metric: (statistics.median(t.get(span, {}).get(field, 0) for t in totals), unit)
        for metric, span, field, unit in tracing.metric_specs(BATTERY_CHECKS)
    }


def measure(workdir: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = [spawn(workdir, workload, seed, "setup", i, deadline) for i in range(SETUP_PROBES)]
    modes = ("plain", "traced") if trace else ("plain",)
    reps: dict[str, list[dict]] = {mode: [] for mode in modes}
    start = time.monotonic()
    longest = 0.0
    while True:
        for mode in modes:
            began = time.monotonic()
            reps[mode].append(spawn(workdir, workload, seed, mode, len(reps[mode]), deadline))
            longest = max(longest, time.monotonic() - began)
        # Start another round only if it is expected to end within the run.
        if time.monotonic() - start + longest * len(modes) > seconds:
            break

    records = [r for mode in modes for r in reps[mode]]
    plain = reps["plain"]
    failures = {}
    for record in records:
        failures.update(record["failures"])
    if trace:
        metrics = layer_metrics(reps["traced"])
        overhead = (statistics.median(r["wall_s"] for r in reps["traced"])
                    - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in probes + records), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
        }
    raw = {
        "wall_s": statistics.median(r["raw_wall_s"] for r in plain),
        "setup_s": statistics.median(r["raw_setup_s"] for r in probes + records),
    }
    return {
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(len(r["failures"]) for r in records),
        "failures": failures,
        "repetitions": {mode: len(v) for mode, v in reps.items()},
        "raw": raw,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sturmlab", "__init__.py")):
        print("run.py: no src/sturmlab here; run from the root of a sturmlab checkout",
              file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    try:
        result = measure(workdir, args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op, problems in sorted(result["failures"].items()):
        print(f"FAILED {op}: {'; '.join(problems)}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"repetitions = {result['repetitions']}")
    print("raw wall-clock medians: "
          + ", ".join(f"{name} = {value:.6g} s" for name, value in result["raw"].items()))
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} fraction "
          f"({result['failed']}/{result['attempted']} operations)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
