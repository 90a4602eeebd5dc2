"""Record the reference outputs of the seeded workloads into reference.json.

    python3 perfbench/record.py

Run from the root of a sturmlab checkout.  For every input variant of
``deep-scan`` and ``long-word`` it runs each operation once, requires the
independent invariants to hold, and stores the SHA-256 digest of the
operation's canonical output.  Re-recording is a benchmark change of its own:
a change to sturmlab that alters an output fails the gate instead.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

MISSING = ["no reference output recorded"]


def main() -> int:
    reference: dict = {}
    for workload in ("deep-scan", "long-word"):
        for variant in range(workloads.VARIANTS):
            recorded = reference.setdefault(workload, {}).setdefault(str(variant), {})
            for step in workloads.build(workload, variant, {}, ""):
                result = step.call()
                for op, problems in step.judge(result).items():
                    if problems != MISSING:
                        print(f"{workload} variant {variant} {op}: {problems}", file=sys.stderr)
                        return 1
                    recorded[op] = workloads.digest(result)
            print(f"recorded {workload} variant {variant}", flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
