"""Spans around sturmlab's public functions, installed from outside the package.

``Tracer.install`` replaces every module-level binding of each wrapped
function with a timing wrapper.  Names imported with ``from .words import
enumerate_orbits`` live in several module namespaces (``cyclic``, ``measures``,
``wigner``, ``jsr``), so every sturmlab module is searched for the original
function object and each binding is patched; ``uninstall`` restores them.

Spans are kept in memory as ``[name, start, end, parent, counts]`` lists and
written out once, when the run ends.  A layer's self time is its span's
duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, metric suffixes to report, counter of work done per call).
# The span name is "<module>.<function>"; counters read only the arguments
# and the result, so they add no work inside the measured span.
SPANS = (
    ("words.enumerate_orbits", ("calls", "orbits", "s"), lambda a, k, r: {"orbits": len(r)}),
    ("words.mechanical_word", ("calls", "letters", "s"), lambda a, k, r: {"letters": len(r)}),
    ("words.symbol_stream", ("s",), None),
    ("words.is_balanced", ("calls", "letters", "s"), lambda a, k, r: {"letters": len(a[0])}),
    ("cyclic.verify_balanced_product_maximum", ("calls", "s"), None),
    (
        "measures.convex_order_witness",
        ("calls", "thresholds", "s"),
        lambda a, k, r: {"thresholds": len(set(a[0].points) | set(a[1].points))},
    ),
    ("measures.mixture", ("calls", "s"), None),
    ("measures.orbit_measure", ("calls", "s"), None),
    ("measures.maximize_over_orbits", ("s",), None),
    (
        "queueing.simulate_queue",
        ("calls", "customers", "s"),
        lambda a, k, r: {"customers": r.horizon},
    ),
    ("queueing.random_admission_word", ("s",), None),
    (
        "multimodular.window_average",
        ("calls", "windows", "s"),
        lambda a, k, r: {"windows": a[2] if len(a) > 2 else k["n"]},
    ),
    (
        "heaps.min_rate_exhaustive",
        ("calls", "schedules", "s"),
        lambda a, k, r: {"schedules": 2**r.n},
    ),
    ("heaps.best_balanced_schedule", ("s",), None),
    ("jsr.jsr_bounds", ("s",), None),
    ("jsr.ratio_staircase", ("s",), None),
    ("jsr.optimal_ratio_scan", ("calls", "s"), None),
    ("jsr.alpha_star_tau", ("s",), None),
    ("jsr.alpha_inverse", ("s",), None),
    ("wigner.ground_state", ("calls", "orbits", "s"), lambda a, k, r: {"orbits": len(r.rows)}),
    ("checks.run_all", ("s",), None),
    ("cli.main", ("self_s",), None),
)

# run_check gets one span per check name, so each check's self time shows.
RUN_CHECK = "checks.run_check"


def metric_specs(check_names) -> list[tuple[str, str, str, str]]:
    """(metric, span, field of ``layer_totals``, unit) per span-derived metric."""
    spans = [(span, suffixes) for span, suffixes, _ in SPANS]
    spans += [(f"{RUN_CHECK}.{check}", ("s",)) for check in check_names]
    specs = []
    for span, suffixes in spans:
        for suffix in suffixes:
            timed = suffix in ("s", "self_s")
            specs.append((f"{span}.{suffix}", span, "s" if timed else suffix,
                          "s" if timed else "count"))
    return specs


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}.{args[0]}" if name == RUN_CHECK else name
            index = len(spans)
            spans.append([label, time.perf_counter(), 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                spans[index][4] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every sturmlab module binding of every traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == "sturmlab" or key.startswith("sturmlab."))
        ]
        specs = [(name, counter) for name, _, counter in SPANS] + [(RUN_CHECK, None)]
        for name, counter in specs:
            module_name, func_name = name.split(".")
            home = sys.modules.get(f"sturmlab.{module_name}")
            if home is None:  # not imported by this workload, so never called
                continue
            original = getattr(home, func_name)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time ``s`` and summed counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _, counts), covered in zip(spans, child_time):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0})
        entry["calls"] += 1
        entry["s"] += (end - start) - covered
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
