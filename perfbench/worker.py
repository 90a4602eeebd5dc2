"""One workload repetition in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --out FILE

MODE is ``setup`` (import sturmlab, build the inputs, stop), ``plain`` (run
the workload untraced) or ``traced`` (run it with the span wrappers
installed).  The record written to FILE holds ``time.monotonic()`` readings:
``ready`` once sturmlab is imported and the inputs are built, the window of
each timed call, and the calibration samples that run.py needs to turn them
into reference seconds (see ``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import speed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    record: dict = {}
    with speed.SpeedProbe() as probe:
        import sturmlab

        source = os.path.realpath(os.path.join("src", "sturmlab"))
        if os.path.dirname(os.path.realpath(sturmlab.__file__)) != source:
            print(f"worker: sturmlab imported from {sturmlab.__file__}, not {source}",
                  file=sys.stderr)
            return 2

        import tracing
        import workloads

        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "reference.json"), encoding="utf-8") as handle:
            reference = json.load(handle)
        artifact = os.path.join(os.path.dirname(args.out), "verify-all.json")
        steps = workloads.build(args.workload, args.seed, reference, artifact)
        record["ready"] = time.monotonic()
        probe.sample()  # brackets the set-up window with calibration runs

        if args.mode != "setup":
            tracer = tracing.Tracer() if args.mode == "traced" else None
            if tracer is not None:
                tracer.install()
            record["windows"], outcomes = workloads.run_steps(steps)
            # Peak memory is read before judging, so the oracles do not count.
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.uninstall()
                record["spans"] = tracer.spans
    record["calibration"] = probe.samples

    if args.mode != "setup":
        verdicts = workloads.judge_steps(steps, outcomes)
        record["attempted"] = len(verdicts)
        record["failures"] = {op: problems for op, problems in verdicts.items() if problems}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
