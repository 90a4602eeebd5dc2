"""Command-line entry point: one verb per testbed plus ``verify-all``.

``VERBS`` is the single source of verbs.  Each entry declares a verb's help,
flags, handler and artifact columns; the argument parser, the artifact
renderer and manifest replay all read it.  Table verbs emit rows as
RFC-4180-style CSV (header mandatory) or as a JSON object
{"meta": {...}, "rows": [...]}; text verbs write their text as is.  Exit
codes: 0 success, 1 a verification verb found a failure, 2 usage or
parameter error, 3 internal error.  This module reads every input file:
the JSON of ``run --manifest``, ``queue run/compete --config`` and ``heaps
scan/schedule --model``.  A manifest holds ``verb``, ``parameters`` (one
flag each; ``true`` is a bare flag, ``false`` is left out), ``output_path``,
``format`` (csv or json) and ``seed``; ``manifest_argv`` turns it into the
argv ``main`` parses, so a replay is byte-identical to the direct run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath as mp

from . import __version__, checks, cyclic, heaps, jsr, measures, queueing, wigner, words

__all__ = ["VERBS", "Verb", "manifest_argv", "main"]


# ---------------------------------------------------------------------------
# output plumbing


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return words.format_fraction(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render(args, name: str, columns: Sequence[str], parameters: dict, rows) -> str:
    """Rows (sequences in column order) as CSV or as the JSON artifact."""
    cells = [dict(zip(columns, map(_cell, row), strict=True)) for row in rows]
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        writer.writerows(row.values() for row in cells)
        return buffer.getvalue()
    payload = {
        "meta": {
            "verb": name,
            "parameters": {k: _cell(v) for k, v in parameters.items()},
            "seed": getattr(args, "seed", None),
            "version": __version__,
        },
        "rows": cells,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(args, text: str):
    """Write an artifact to --out, or to stdout without one."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _read_json(path: str):
    """The parsed contents of one JSON input file."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _arg(*names, **options):
    """One argparse flag declaration: add_argument's arguments."""
    return names, options


# ---------------------------------------------------------------------------
# verb handlers


def _words_mechanical(args) -> str:
    gamma = words.parse_slope(args.gamma)
    delta = words.parse_slope(args.delta)
    return words.mechanical_word(gamma, args.n, delta) + "\n"


def _words_standard(args):
    try:
        quotients = tuple(int(x) for x in args.quotients.split(","))
    except ValueError:
        raise ValueError(
            f"--quotients must be comma-separated integers, got {args.quotients!r}"
        ) from None
    cf = (
        words.ContinuedFraction.from_slope_quotients(quotients)
        if args.slope_convention
        else words.ContinuedFraction(quotients)
    )
    rows = [
        (i - 1, w, words.one_length(w), len(w))
        for i, w in enumerate(words.standard_words(cf))
    ]
    return {"quotients": args.quotients}, rows, 0


def _words_balanced(args) -> str:
    return words.balanced_orbit(args.p, args.q).representative + "\n"


def _cyclic_verify(args):
    scans = cyclic.summarize_coprime_pairs(args.q_max)
    rows = [
        (s.p, s.q, s.orbits, s.best, ";".join(s.argbest),
         s.balanced_representative, s.balanced)
        for s in scans
    ]
    return {"q_max": args.q_max}, rows, 0 if all(s.balanced for s in scans) else 1


def _cyclic_scan(args):
    scan = cyclic.verify_balanced_product_maximum(args.p, args.q)
    rows = [
        (r.representative, ";".join(str(f) for f in r.factors), r.product, r.balanced, r.argmax)
        for r in scan.rows
    ]
    return {"p": args.p, "q": args.q}, rows, 0 if scan.passed else 1


def _measures_show(args) -> str:
    mu = measures.sturmian_measure(args.p, args.q)
    return json.dumps(mu.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _measures_verify(args):
    scans = measures.verify_sturmian_least(args.q_max, args.mixtures, args.seed)
    rows = [
        (s.p, s.q, s.competitors, s.mixtures, len(s.counterexamples), s.passed)
        for s in scans
    ]
    parameters = {"q_max": args.q_max, "mixtures": args.mixtures, "seed": args.seed}
    return parameters, rows, 0 if all(s.passed for s in scans) else 1


_OBJECTIVES = {"tent": measures.tent_objective, "cosine": measures.cosine_objective}


def _measures_peaks(args):
    if args.grid < 1:
        raise ValueError(f"--grid must be >= 1, got {args.grid}")
    objective = _OBJECTIVES[args.kind]
    rows = []
    for theta in (k / args.grid for k in range(args.grid)):
        mu, value = measures.maximize_over_orbits(objective(theta), args.max_period)
        rows.append((theta, args.kind, mu.word, mu.barycenter, value, words.is_balanced(mu.word)))
    return {"grid": args.grid, "max_period": args.max_period, "kind": args.kind}, rows, 0


def _queue_config(args) -> queueing.QueueConfig:
    data = _read_json(args.config) if args.config else {}
    queueing.queue_config_from_dict(data)  # the file is checked as written first
    if args.gamma is not None and args.word is not None:
        raise ValueError("--gamma and --word both set the admission; give one of them")
    if args.delta is not None and args.gamma is None:
        raise ValueError("--delta is the phase of --gamma; it needs --gamma")
    mechanical = {"gamma": args.gamma, "delta": "0" if args.delta is None else args.delta}
    flags = {"admission": args.word if args.gamma is None else mechanical,
             "horizon": args.horizon, "seed": args.seed,
             "mean_interarrival": args.interarrival, "service_time": args.service}
    return queueing.queue_config_from_dict(data | {k: v for k, v in flags.items() if v is not None})


def _summary_row(label: str, summary: queueing.QueueSummary) -> tuple:
    return (label, summary.seed, summary.gamma, summary.horizon, summary.mean_cost,
            summary.max_queue, summary.admitted_fraction)


def _queue_run(args):
    config = _queue_config(args)
    summary = queueing.simulate_queue(config)
    return {"horizon": config.horizon, "seed": config.seed}, [_summary_row("run", summary)], 0


def _queue_compete(args):
    config = _queue_config(args)
    mechanical, *shuffles = queueing.admission_competition(
        config, args.competitors, args.competitor_seed
    )
    rows = [_summary_row("mechanical", mechanical)]
    rows += [_summary_row(f"shuffle-{i}", s) for i, s in enumerate(shuffles)]
    parameters = {
        "horizon": config.horizon,
        "seed": config.seed,
        "competitors": args.competitors,
        "competitor_seed": args.competitor_seed,
    }
    return parameters, rows, 0 if all(mechanical.mean_cost <= s.mean_cost for s in shuffles) else 1


def _heap_model(args) -> heaps.HeapModel:
    if args.model:
        return heaps.model_from_dict(_read_json(args.model))
    return heaps.default_model()


def _heaps_scan(args):
    if not 1 <= args.n_max <= heaps.MAX_EXHAUSTIVE_N:
        raise ValueError(f"--n-max must be in 1..{heaps.MAX_EXHAUSTIVE_N}, got {args.n_max}")
    model = _heap_model(args)
    rows = []
    for n in range(1, args.n_max + 1):
        scan = heaps.min_rate_exhaustive(model, n)
        balanced = any(words.is_balanced(w) for w in scan.argmin)
        rows.append((n, scan.min_rate, ";".join(scan.argmin), balanced))
    parameters = {"n_max": args.n_max, "model": args.model or "default"}
    return parameters, rows, 0 if all(row[-1] for row in rows) else 1


def _heaps_schedule(args):
    report = heaps.best_balanced_schedule(_heap_model(args), args.q_max)
    rows = [(r.ratio, r.word, r.rate, r == report.best) for r in report.rows]
    return {"q_max": args.q_max, "model": args.model or "default"}, rows, 0


def _jsr_bounds(args):
    pair = jsr.scaled_pair(words.parse_slope(args.alpha))
    bounds = jsr.jsr_bounds(pair, args.n_max, args.norm)
    rows = [(r.n, r.lower, r.upper, r.argmax_necklace) for r in bounds.rows]
    parameters = {"n_max": args.n_max, "alpha": args.alpha, "norm": args.norm,
                  "lower": bounds.lower, "upper": bounds.upper}
    return parameters, rows, 0


def _jsr_scan_ratio(args):
    if args.alpha_grid < 2:
        raise ValueError(f"--alpha-grid must be >= 2, got {args.alpha_grid}")
    grid = [Fraction(k, args.alpha_grid - 1) for k in range(args.alpha_grid)]
    rows = [(r.alpha, r.ratio, r.necklace, r.value) for r in jsr.ratio_staircase(grid, args.n)]
    return {"alpha_grid": args.alpha_grid, "n": args.n}, rows, 0


def _jsr_alpha_star(args) -> str:
    estimate = jsr.alpha_star_tau(args.terms, bits=args.bits)
    lines = [
        f"alpha_star = {mp.nstr(estimate.value, 45)}",
        f"bracket_width <= {mp.nstr(estimate.error, 5)}",
        f"limit_form_gap = {mp.nstr(abs(estimate.limit_form - estimate.value), 5)}",
        f"matching_digits = {jsr.matching_digits(estimate.value)}",
    ]
    return "\n".join(lines) + "\n"


_POTENTIALS = {
    "coulomb": wigner.coulomb,
    "power": wigner.inverse_power,
    "exponential": wigner.exponential_decay,
    "screened": wigner.screened,
    "anti": wigner.anti_coulomb,
}


def _wigner_ground_state(args):
    params = ()
    if args.param is not None:
        try:
            params = (int(args.param),)  # an integer power stays exact
        except ValueError:
            params = (float(args.param),)
    try:
        potential = _POTENTIALS[args.potential](*params)
    except TypeError:
        raise ValueError(f"--potential {args.potential} takes no --param") from None
    report = wigner.ground_state(args.p, args.q, potential, images=args.images)
    rows = [(r.orbit.representative, r.energy, r.balanced, r.argmin) for r in report.rows]
    parameters = {"p": args.p, "q": args.q, "potential": potential.describe(),
                  "images": args.images}
    return parameters, rows, 0


def _verify_all(args):
    """Print the PASS/FAIL table, except when stdout carries the JSON artifact;
    the CSV artifact is written only with --out."""
    results = checks.run_all(args.only.split(",") if args.only else None, jobs=args.jobs)
    rows = [(r.name, r.passed, round(r.seconds, 3), r.detail) for r in results]
    parameters = {"only": args.only or "", "jobs": args.jobs}
    code = 0 if all(r.passed for r in results) else 1
    if args.format == "json" and not args.out:
        return parameters, rows, code
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.seconds:7.2f}s  {r.detail}")
    return (parameters, rows, code) if args.out else code


def _run(args) -> int:
    return main(manifest_argv(_read_json(args.manifest)))


# ---------------------------------------------------------------------------
# the verb table


@dataclass(frozen=True)
class Verb:
    """One CLI verb: its help, argparse flags, handler and artifact columns.

    A table verb names its CSV columns and its handler returns
    ``(parameters, rows, exit_code)``, each row in column order.  A text verb
    leaves ``columns`` empty, takes no ``--format``, and its handler returns
    the artifact text.  A handler that has written its own output returns
    the exit code instead.  ``columns=None`` marks the replay verb, which
    writes no artifact: it takes no ``--out`` and no manifest may name it.
    """

    help: str
    handler: Callable
    flags: tuple = ()
    columns: Optional[tuple[str, ...]] = ()


_P_Q = (_arg("--p", type=int, required=True), _arg("--q", type=int, required=True))
_MODEL = _arg("--model", help="JSON heap model file")
_QUEUE_FLAGS = (
    _arg("--config", help="JSON config file"),
    _arg("--gamma", help="mechanical admission slope"),
    _arg("--delta", help="mechanical admission phase"),
    _arg("--word", help="explicit admission word, repeated"),
    _arg("--horizon", type=int),
    _arg("--seed", type=int),
    _arg("--interarrival", type=float, help="mean interarrival time"),
    _arg("--service", type=float, help="deterministic service time"),
)
_QUEUE_COLUMNS = ("label", "seed", "gamma", "horizon", "mean_cost", "max_queue", "admitted_fraction")

_GROUP_HELP = {
    "words": "mechanical and standard words",
    "cyclic": "cyclic binary products",
    "measures": "doubling-map orbit measures",
    "queue": "seeded admission-control simulation",
    "heaps": "max-plus heap scheduling",
    "jsr": "joint spectral radius testbed",
    "wigner": "ring electron ground states",
}

VERBS: dict[str, Verb] = {
    "words mechanical": Verb(
        "print a mechanical word",
        _words_mechanical,
        (
            _arg("--gamma", required=True, help="slope, 'p/q' or decimal"),
            _arg("--delta", default="0", help="phase, 'p/q' or decimal"),
            _arg("--n", type=int, required=True, help="word length"),
        ),
    ),
    "words standard": Verb(
        "table of standard words",
        _words_standard,
        (
            _arg("--quotients", required=True, help="comma-separated exponents"),
            _arg("--slope-convention", action="store_true",
                 help="interpret quotients as the ordinary expansion of the slope"),
        ),
        ("n", "word", "ones", "length"),
    ),
    "words balanced": Verb("print the balanced orbit representative", _words_balanced, _P_Q),
    "cyclic verify": Verb(
        "balanced maximizer scan over coprime pairs",
        _cyclic_verify,
        (_arg("--q-max", type=int, default=14),),
        ("p", "q", "orbits", "max_product", "argmax", "balanced_representative", "passed"),
    ),
    "cyclic scan": Verb(
        "orbit product table for one (p, q)",
        _cyclic_scan,
        _P_Q,
        ("representative", "factors", "product", "is_balanced", "is_argmax"),
    ),
    "measures show": Verb("JSON record of one balanced measure", _measures_show, _P_Q),
    "measures verify": Verb(
        "convex-order least-element scan",
        _measures_verify,
        (
            _arg("--q-max", type=int, default=10),
            _arg("--mixtures", type=int, default=100),
            _arg("--seed", type=int, default=0),
        ),
        ("p", "q", "competitors", "mixtures", "counterexamples", "passed"),
    ),
    "measures peaks": Verb(
        "maximizing orbit per objective peak",
        _measures_peaks,
        (
            _arg("--grid", type=int, default=32, help="number of peak positions"),
            _arg("--max-period", type=int, default=8),
            _arg("--kind", choices=tuple(_OBJECTIVES), default="tent"),
        ),
        ("theta", "kind", "best_word", "ratio", "value", "is_balanced"),
    ),
    "queue run": Verb("single simulation", _queue_run, _QUEUE_FLAGS, _QUEUE_COLUMNS),
    "queue compete": Verb(
        "mechanical vs shuffles",
        _queue_compete,
        _QUEUE_FLAGS + (
            _arg("--competitors", type=int, default=50),
            _arg("--competitor-seed", type=int, default=10_000),
        ),
        _QUEUE_COLUMNS,
    ),
    "heaps scan": Verb(
        "exhaustive minimum rate per length",
        _heaps_scan,
        (_arg("--n-max", type=int, default=12), _MODEL),
        ("n", "min_rate", "argmin_words", "balanced_flag"),
    ),
    "heaps schedule": Verb(
        "periodic balanced schedule rates",
        _heaps_schedule,
        (_arg("--q-max", type=int, default=8), _MODEL),
        ("ratio", "word", "rate", "is_best"),
    ),
    "jsr bounds": Verb(
        "brute-force radius bracket",
        _jsr_bounds,
        (
            _arg("--n-max", type=int, default=8),
            _arg("--alpha", default="1", help="scale of the second matrix"),
            _arg("--norm", choices=("spectral", "row-sum"), default="spectral"),
        ),
        ("n", "lower", "upper", "argmax_necklace"),
    ),
    "jsr scan-ratio": Verb(
        "optimal 1-density staircase",
        _jsr_scan_ratio,
        (_arg("--alpha-grid", type=int, default=50), _arg("--n", type=int, default=14)),
        ("alpha", "ratio", "necklace", "value"),
    ),
    "jsr alpha-star": Verb(
        "threshold constant, two expansions",
        _jsr_alpha_star,
        (_arg("--terms", type=int, default=12), _arg("--bits", type=int, default=256)),
    ),
    "wigner ground-state": Verb(
        "orbit energy table",
        _wigner_ground_state,
        _P_Q + (
            _arg("--potential", choices=tuple(_POTENTIALS), default="coulomb"),
            _arg("--param", help="exponent or decay rate, family-specific"),
            _arg("--images", type=int, default=0, help="periodic image cutoff"),
        ),
        ("representative", "energy", "is_balanced", "is_argmin"),
    ),
    "verify-all": Verb(
        "run the whole verification battery",
        _verify_all,
        (
            _arg("--only", help="comma-separated subset of check names"),
            _arg("--jobs", type=int, default=1),
        ),
        ("name", "passed", "seconds", "detail"),
    ),
    "run": Verb("replay a manifest", _run, (_arg("--manifest", required=True),), None),
}


# ---------------------------------------------------------------------------
# manifest replay


def manifest_argv(data) -> list[str]:
    """The argv a parsed manifest replays: its verb, one flag per parameter,
    then ``--seed``, ``--out`` and (table verbs only) ``--format``."""
    if not isinstance(data, dict) or not isinstance(data.get("parameters", {}), dict):
        raise ValueError("a manifest is a JSON object whose 'parameters' is an object")
    if "verb" not in data:
        raise ValueError("a manifest needs a 'verb' key (the verb it replays)")
    name = data["verb"]
    verb = VERBS.get(name) if isinstance(name, str) else None
    if verb is None or verb.columns is None:
        raise ValueError(f"unknown manifest verb {name!r}")
    fmt = data.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"manifest format must be csv or json, got {fmt!r}")
    output_path = data.get("output_path")
    if not isinstance(output_path, (str, type(None))):
        raise ValueError(f"manifest output_path must be a string, got {output_path!r}")
    argv = name.split()
    for key, value in sorted(data.get("parameters", {}).items()):
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv.extend([flag, str(value)])
    if data.get("seed") is not None:
        argv.extend(["--seed", str(data["seed"])])
    if output_path:
        argv.extend(["--out", output_path])
    if verb.columns:
        argv.extend(["--format", fmt])
    return argv


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sturmlab",
        description="balanced-word optimization testbeds with brute-force verification",
    )
    parser.add_argument("--version", action="version", version=f"sturmlab {__version__}")
    top = parser.add_subparsers(dest="verb", required=True)
    groups = {}
    for name, verb in VERBS.items():
        group, _, action = name.partition(" ")
        if action:
            if group not in groups:
                group_parser = top.add_parser(group, help=_GROUP_HELP[group])
                groups[group] = group_parser.add_subparsers(dest="action", required=True)
            p = groups[group].add_parser(action, help=verb.help)
        else:
            p = top.add_parser(name, help=verb.help)
        for names, options in verb.flags:
            p.add_argument(*names, **options)
        if verb.columns is not None:
            p.add_argument("--out", help="write the artifact here instead of stdout")
        if verb.columns:
            p.add_argument(
                "--format", choices=("csv", "json"), default="csv", help="artifact format"
            )
        p.set_defaults(command=name)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    verb = VERBS[args.command]
    try:
        result = verb.handler(args)
        if isinstance(result, int):
            return result
        if isinstance(result, str):
            _write(args, result)
            return 0
        parameters, rows, code = result
        _write(args, _render(args, args.command, verb.columns, parameters, rows))
        return code
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
