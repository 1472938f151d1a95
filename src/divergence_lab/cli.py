"""Command-line front end.

Subcommands map one-to-one onto module capabilities:

  eval       evaluate a divergence at a pair of distributions
  check      dpi | sufficiency | decomposable | shannon property checks
  generate   emit the (x, G, f) table of a generated family as CSV
  fit        fdiv | bregman representability fits
  verify     run one named scenario or all of them and emit a report

Option precedence is flags > config file (JSON, via --config) > built-in
defaults; --show-config prints the effective defaults.  Exit codes: 0 no
violation / all pass, 3 violation or scenario failure, 1 usage or data error,
an empty check (nothing to search, or a negative count) or an inconclusive
check (some evaluations failed).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import families, fitting, scenarios
from .checkers import (check_decomposable_binary, check_dpi,
                       check_shannon_inequality, check_sufficiency)
from .divergences import DivergenceError, ScalarFunction, resolve
from .simplex import Distribution

DEFAULTS = {
    "divergence": "kl",
    "seed": 42,
    "n": 2,
    "grid": 50,
    "trials": 100_000,
    "suff_trials": 10_000,
    "pairs": fitting.SAMPLE_PAIRS,
    "fdiv_knots": fitting.KNOTS["fdiv"],
    "bregman_knots": fitting.KNOTS["breg"],
    "points": 512,
    "format": "json",
}
# the `check` flags each property reads (dpi reads --grid at n = 2 only); a
# given flag that its property does not read is an error, never dropped
CHECK_READS = {"dpi": {"divergence", "grid", "trials", "seed"},
               "sufficiency": {"divergence", "trials", "seed"},
               "decomposable": {"divergence", "grid"},
               "shannon": {"f", "trials", "seed"}}

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def _build_parser() -> _Parser:
    p = _Parser(prog="divergence-lab",
                description="divergence families and property checkers on "
                            "finite probability simplices")
    p.add_argument("--config", help="JSON file with default overrides")
    p.add_argument("--show-config", action="store_true",
                   help="print the effective defaults and exit")
    sub = p.add_subparsers(dest="command")

    def common(sp, *names):
        if "divergence" in names:
            sp.add_argument("--divergence", help="catalog name or JSON spec path")
        if "n" in names:
            sp.add_argument("--n", type=int, help="alphabet size")
        if "grid" in names:
            sp.add_argument("--grid", type=int, help="grid resolution")
        if "trials" in names:
            sp.add_argument("--trials", type=int, help="random trial count")
        if "seed" in names:
            sp.add_argument("--seed", type=int, help="random seed")
        if "out" in names:
            sp.add_argument("--out", help="output file path")

    e = sub.add_parser("eval", help="evaluate a divergence at (P, Q)")
    common(e, "divergence")
    e.add_argument("--p", required=True, help="comma-separated distribution")
    e.add_argument("--q", required=True, help="comma-separated distribution")

    c = sub.add_parser("check", help="run a property check")
    c.add_argument("property", choices=["dpi", "sufficiency", "decomposable",
                                        "shannon"])
    common(c, "divergence", "n", "grid", "trials", "seed", "out")
    c.add_argument("--f",
                   help="scalar function for shannon checks: clog:c,b or "
                        "poly:c0,c1,...")

    g = sub.add_parser("generate", help="emit a generated family table as CSV")
    g.add_argument("--h", dest="h_spec", required=True,
                   help="h description: name:..., poly:... or table:...")
    common(g, "out")
    g.add_argument("--points", type=int, help="rows in the emitted table")
    g.add_argument("--allow-invalid", action="store_true",
                   help="skip the h invariant checks")

    f = sub.add_parser("fit", help="representability fits")
    f.add_argument("kind", choices=["fdiv", "bregman"])
    common(f, "divergence", "seed", "out")
    f.add_argument("--pairs", type=int, help="number of sampled pairs")
    f.add_argument("--knots", type=int, help="knot count")
    f.add_argument("--summary-out", help="write the JSON summary here")

    v = sub.add_parser("verify", help="run verification scenarios")
    v.add_argument("target", nargs="?", help="'all' or a scenario id")
    common(v, "seed", "out")
    v.add_argument("--format", choices=scenarios.FORMATS, dest="format")
    v.add_argument("--list", action="store_true", help="list scenario ids")
    return p


def _load_config(path: str) -> dict:
    """The JSON object in `path`; every key must be one of DEFAULTS, every
    value of its default's type (a bool is not an int), and a format one of
    scenarios.FORMATS."""
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        raise ValueError(f"config {path}: expected a JSON object, got "
                         f"{type(config).__name__}")
    for key, value in config.items():
        if key not in DEFAULTS:
            raise ValueError(f"config {path}: unknown key {key!r}; known: "
                             f"{', '.join(DEFAULTS)}")
        want = type(DEFAULTS[key])
        if type(value) is not want:
            raise ValueError(f"config {path}: {key!r} must be {want.__name__}, "
                             f"got {json.dumps(value)}")
        if key == "format" and value not in scenarios.FORMATS:
            raise ValueError(f"config {path}: 'format' must be one of "
                             f"{', '.join(scenarios.FORMATS)}, "
                             f"got {json.dumps(value)}")
    return config


def _effective(args, key, config):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return DEFAULTS[key]


def _parse_scalar_f(text: str) -> ScalarFunction:
    kind, _, rest = text.partition(":")
    try:
        vals = [float(t) for t in rest.split(",")]
    except ValueError:
        vals = []
    if kind == "clog" and len(vals) == 2:
        c, b = vals
        return ScalarFunction(lambda x: c * np.log(x) + b, label=f"{c}*log(x)+{b}")
    if kind == "poly" and vals:
        poly = np.polynomial.Polynomial(vals)
        return ScalarFunction(lambda x: poly(np.asarray(x, dtype=float)),
                              label=f"poly:{rest}")
    raise DivergenceError(f"cannot parse scalar function {text!r}: not clog:c,b or poly:c0,...")


def _print_witness(witness: dict) -> None:
    print("  witness:")
    print(f"    P            = {witness['P']}")
    print(f"    Q            = {witness['Q']}")
    if witness.get("channel") is not None:
        print(f"    channel      = {witness['channel']}")
    if witness.get("kind"):
        print(f"    kind         = {witness['kind']}")
    print(f"    value before = {witness['value_before']}")
    print(f"    value after  = {witness['value_after']}")
    print(f"    gap          = {witness['gap']}")


def _cmd_eval(args, config) -> int:
    d = resolve(_effective(args, "divergence", config))
    p = Distribution.parse(args.p)
    q = Distribution.parse(args.q)
    print(repr(d.evaluate(p, q)))
    return EXIT_OK


def _cmd_check(args, config) -> int:
    seed = _effective(args, "seed", config)
    n = _effective(args, "n", config)
    reads = CHECK_READS[args.property]
    if args.property == "dpi" and n != 2:
        reads = reads - {"grid"}
    unread = [f"--{k}" for k in ("divergence", "grid", "trials", "seed", "f")
              if getattr(args, k) is not None and k not in reads]
    if unread:
        raise DivergenceError(f"check {args.property} (n={n}) does not read "
                              f"{', '.join(unread)}")
    if args.property == "shannon":
        if not args.f:
            raise DivergenceError("check shannon needs --f")
        fn = _parse_scalar_f(args.f)
        report = check_shannon_inequality(fn, n, _effective(args, "trials", config),
                                          seed)
    else:
        d = resolve(_effective(args, "divergence", config))
        if args.property == "dpi":
            report = check_dpi(d, n, grid=_effective(args, "grid", config),
                               random_trials=_effective(args, "trials", config),
                               seed=seed)
        elif args.property == "sufficiency":
            report = check_sufficiency(d, n,
                                       trials=_effective(args, "suff_trials", config)
                                       if args.trials is None else args.trials,
                                       seed=seed)
        else:
            if n != 2:
                raise DivergenceError("check decomposable is for binary alphabets "
                                      f"only: n must be 2, got n={n}")
            report = check_decomposable_binary(d, grid=_effective(args, "grid", config))
    doc = scenarios._json_safe(report.to_json_dict())
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{report.property}: {report.verdict} "
          f"(trials={report.trials}, max_gap={report.max_gap!r})")
    if report.witness:
        _print_witness(report.witness)
    if report.verdict == "inconclusive":
        return EXIT_ERROR
    return EXIT_VIOLATION if report.violated else EXIT_OK


def _write_csv(path, header, rows) -> None:
    """A CSV file of `header` and `rows` of numbers, each written as its repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) for v in row] for row in rows)


def _cmd_generate(args, config) -> int:
    gen = families.h_generator_from_spec(args.h_spec)
    out = args.out or "family.csv"
    table = families.family_table(gen, points=_effective(args, "points", config),
                                  validate=not args.allow_invalid)
    _write_csv(out, ["x", "G", "f"], table)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_fit(args, config) -> int:
    d = resolve(_effective(args, "divergence", config))
    seed = _effective(args, "seed", config)
    pairs = _effective(args, "pairs", config)
    key, fit_with = (("fdiv_knots", fitting.fit_f_divergence) if args.kind == "fdiv"
                     else ("bregman_knots", fitting.fit_bregman_binary))
    knots = _effective(args, key, config) if args.knots is None else args.knots
    fit = fit_with(d, sample_pairs=pairs, knots=knots, seed=seed)
    if args.out:
        _write_csv(args.out, ["knot", "value"], zip(fit.knots, fit.values))
    if args.summary_out:
        Path(args.summary_out).write_text(json.dumps(fit.summary(), indent=2) + "\n")
    print(json.dumps(fit.summary()))
    return EXIT_OK


def _cmd_verify(args, config) -> int:
    if args.list:
        for sid, (claim, _) in scenarios.SCENARIOS.items():
            print(f"{sid}: {claim}")
        return EXIT_OK
    if args.target is None:
        raise DivergenceError("verify needs a target: 'all' or a scenario id, or --list")
    seed = _effective(args, "seed", config)
    fmt = _effective(args, "format", config)
    if args.target == "all":
        results = scenarios.run_all(seed)
    else:
        results = [scenarios.run_scenario(args.target, seed)]
    for r in results:
        print(f"{r.scenario_id}: {r.status} ({r.runtime_seconds:.2f}s)")
    if args.out:
        scenarios.emit_report(results, args.out, fmt=fmt, seed=seed)
    else:
        print(scenarios.render_report(results, fmt, seed), end="")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = {}
    try:
        if args.config:
            config = _load_config(args.config)
        if args.show_config:
            print(json.dumps({**DEFAULTS, **config}, indent=2))
            return EXIT_OK
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_ERROR
        handler = {
            "eval": _cmd_eval,
            "check": _cmd_check,
            "generate": _cmd_generate,
            "fit": _cmd_fit,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args, config)
    except (ValueError, KeyError, OSError) as e:
        # DivergenceError, SimplexError and FamilyError are ValueErrors, and
        # an unreadable or unwritable path is an OSError
        sys.stderr.write(f"error: {e}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
