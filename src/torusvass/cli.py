"""Command-line front end.

Subcommands:

* ``invariants`` : alpha_tilde / alpha / beta tables and scalars of one knot,
* ``expand``     : Taylor coefficients of a normalized invariant series,
* ``verify``     : run a named verification suite (exit 1 on any failure),
* ``scan``       : bulk predicates over knot ranges.

Exit codes: 0 success, 1 verification failure, 2 invalid knot (NotAKnot),
3 any other TorusVassError; main alone maps errors to codes, each with one
"error:" line on stderr, and any other exception is a bug that surfaces as a
traceback.  A command line argparse rejects (a --format outside its choices,
a non-integer --n, a missing --suite) also exits 2, with a usage line on
stderr before its "error:" line.  Output is deterministic for identical
inputs: JSON with rationals as {"num", "den"} pairs (plus "exact_decimal" when
the value is an integer), CSV with exact num/den strings, or an aligned table.
The parser is built once per process, by the first main call, which binds each
handler; later calls only parse their argv, so main is cheap to call in a loop.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .analysis import (OBSTRUCTED, auxiliary_scalars, integrality_scan, is_v3_applicable,
                       lissajous_obstruction, lissajous_verdict)
from .errors import NotAKnot, TorusVassError, UnsupportedInput
from .groups import _PARAMETER_FLOORS, Family, GroupInstance
from .invariants import normalized_series
from .knots import UNKNOT, TorusKnot, canonical_knots, canonicalize
from .suites import SUITES, run_suite
from .tables import (BETA_DENOMINATORS, closed_form_alpha, closed_form_alpha_tilde,
                     closed_form_beta, primitive_numerators)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_KNOT = 2
EXIT_UNSUPPORTED = 3

SCHEMA_VERSION = "1.0"

#: expand's input bounds (exit 3 above them).  A cached evaluator kernel is
#: kept at the widest order asked of it, so the order also caps a cached
#: kernel's size.  The evaluators' cost grows
#: with |n| as given, and (n, m) and (m, n) are the same knot, so |n| and |m|
#: share one limit; N and j share another, which leaves Kauffman its floor
#: N >= n + 2 at every n.  At the limits the slowest family (HOMFLY at n = N)
#: takes about 2 s at order 24
MAX_EXPAND_ORDER = 24
MAX_EXPAND_INDEX = 128
MAX_EXPAND_RANK = 130

#: scan --max and verify --bound limits (exit 3 above them): the slowest
#: predicate (non-integer, bound by its output) and the slowest bounded suite
#: (integrality) each take about 2 s at their limit
MAX_SCAN_BOUND = 100
MAX_VERIFY_BOUND = 300


def rational_json(value: Fraction) -> dict:
    doc = {"num": str(value.numerator), "den": str(value.denominator)}
    if value.denominator == 1:
        doc["exact_decimal"] = str(value.numerator)
    return doc


def _document(command: str, arguments: dict, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": {"name": command, "arguments": arguments},
        "payload": payload,
    }


def _emit(text: str, out_path: str | None) -> None:
    """Write text, ending in one newline, to out_path or else to stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UnsupportedInput(f"cannot write {out_path}: {exc.strerror}") from exc
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``torusvass ... | head``): point stdout
        # at devnull so the interpreter's flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _table_entries_json(entries: dict, order: int) -> dict:
    return {
        f"{i},{j}": rational_json(entries[(i, j)])
        for (i, j) in sorted(entries)
        if i <= order
    }


def _slot_rows(kind: str, entries: dict, order: int):
    for (i, j) in sorted(entries):
        if i <= order:
            yield (kind, i, j, str(entries[(i, j)]))


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------

def _cmd_invariants(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    knot = TorusKnot(n, m).validate()
    if not (0 <= args.order <= 6):
        raise UnsupportedInput(f"order {args.order} unsupported (tables stop at 6)")

    canonical = canonicalize(n, m)
    is_unknot = canonical is UNKNOT
    tilde = closed_form_alpha_tilde(knot).entries
    alpha = closed_form_alpha(knot).entries
    beta = closed_form_beta(knot).entries
    scalars = auxiliary_scalars(knot)
    lissajous = lissajous_obstruction(knot)
    has_v3 = is_v3_applicable(knot)

    payload: dict = {
        "knot": {
            "n": n,
            "m": m,
            "unknot": is_unknot,
            "canonical": None if is_unknot else {"n": canonical.n, "m": canonical.m},
        },
        "alpha_tilde": _table_entries_json(tilde, args.order),
        "alpha": _table_entries_json(alpha, args.order),
        "beta": _table_entries_json(beta, args.order),
        "scalars": {
            "gordian": rational_json(scalars.gordian),
            "curve_residual": rational_json(scalars.curve_residual),
            "lissajous": lissajous,
        },
    }
    if has_v3:
        payload["scalars"]["v3"] = rational_json(scalars.v3)

    arguments = {"n": n, "m": m, "order": args.order, "format": args.format}
    if args.format == "json":
        _emit(json.dumps(_document("invariants", arguments, payload), indent=2),
              args.out)
    elif args.format == "csv":
        lines = ["table,order,slot,value"]
        for kind, entries in (("alpha_tilde", tilde), ("alpha", alpha), ("beta", beta)):
            lines += [",".join(map(str, row))
                      for row in _slot_rows(kind, entries, args.order)]
        lines.append(f"scalar,gordian,,{scalars.gordian}")
        lines.append(f"scalar,curve_residual,,{scalars.curve_residual}")
        lines.append(f"scalar,lissajous,,{lissajous}")
        if has_v3:
            lines.append(f"scalar,v3,,{scalars.v3}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"torus knot ({n}, {m})"
                 + ("  [unknot]" if is_unknot else
                    f"  [canonical ({canonical.n}, {canonical.m})]")]
        lines.append(f"{'slot':>8} {'alpha_tilde':>16} {'alpha':>16} {'beta':>12}")
        for (i, j) in sorted(beta):
            if i <= args.order:
                lines.append(f"{f'({i},{j})':>8} {str(tilde[(i, j)]):>16} "
                             f"{str(alpha[(i, j)]):>16} {str(beta[(i, j)]):>12}")
        lines.append(f"gordian = {scalars.gordian}, "
                     f"curve residual = {scalars.curve_residual}, "
                     f"lissajous: {lissajous}"
                     + (f", v3 = {scalars.v3}" if has_v3 else ""))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# expand
# ----------------------------------------------------------------------

def _cmd_expand(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    knot = TorusKnot(n, m).validate()
    if not 0 <= args.order <= MAX_EXPAND_ORDER:
        raise UnsupportedInput(f"order {args.order} unsupported"
                               + (f" (expand stops at {MAX_EXPAND_ORDER})"
                                  if args.order > 0 else ""))
    if max(abs(n), abs(m)) > MAX_EXPAND_INDEX:
        raise UnsupportedInput(f"knot ({n}, {m}) unsupported (expand stops at |n|, |m| <= "
                               f"{MAX_EXPAND_INDEX})")
    parameter = max(args.N or 0, args.j or 0)
    if parameter > MAX_EXPAND_RANK:
        raise UnsupportedInput(f"group parameter {parameter} unsupported (expand stops at "
                               f"N, j <= {MAX_EXPAND_RANK})")
    family = Family(args.family)
    missing = [f"--{name}" for name in _PARAMETER_FLOORS[family] if getattr(args, name) is None]
    if missing:
        raise UnsupportedInput(f"--family {family.value} needs {' and '.join(missing)}")
    group = GroupInstance(family, args.N, args.j)
    coefficients = normalized_series(knot, group, args.order).coefficients_through(args.order)

    arguments = {"family": args.family, "N": args.N, "j": args.j,
                 "n": n, "m": m, "order": args.order, "format": args.format}
    if args.format == "json":
        payload = {
            "group": group.label(),
            "substitution_scale": rational_json(group.substitution_scale),
            "coefficients": [rational_json(c) for c in coefficients],
        }
        _emit(json.dumps(_document("expand", arguments, payload), indent=2), args.out)
    elif args.format == "csv":
        lines = ["degree,coefficient"]
        lines += [f"{d},{c}" for d, c in enumerate(coefficients)]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        terms = [f"({c})*x^{d}" for d, c in enumerate(coefficients) if c != 0]
        _emit(f"{group.label()} at ({n}, {m}):\n  "
              + (" + ".join(terms) if terms else "0")
              + f" + O(x^{args.order + 1})\n", args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in SUITES and args.suite != "all":
        raise UnsupportedInput(f"unknown suite {args.suite!r}; choose from "
                               f"{', '.join(list(SUITES) + ['all'])}")
    if args.bound is not None and args.bound > MAX_VERIFY_BOUND:
        raise UnsupportedInput(f"bound {args.bound} unsupported (verify stops at "
                               f"{MAX_VERIFY_BOUND})")
    results = run_suite(args.suite, args.bound)
    failures = [(r.suite, c) for r in results for c in r.failures()]
    payload = {
        "suites": [
            {
                "suite": r.suite,
                "passed": r.passed,
                "checks": [
                    {"label": c.label, "passed": c.passed, "detail": c.detail}
                    for c in r.checks
                ],
            }
            for r in results
        ],
        "violations": [
            {"suite": suite, "label": check.label, "detail": check.detail}
            for suite, check in failures
        ],
    }
    arguments = {"suite": args.suite, "bound": args.bound}
    if args.format == "json":
        _emit(json.dumps(_document("verify", arguments, payload), indent=2), args.out)
    else:
        lines = []
        for r in results:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.suite} ({len(r.checks)} checks)")
            for check in r.failures():
                lines.append(f"    FAIL {check.label}: {check.detail}")
        _emit("\n".join(lines) + "\n", args.out)
    # timings vary between runs, so they stay out of the document
    for r in results:
        print(f"{r.suite}: {r.elapsed_seconds:.2f}s", file=sys.stderr)
    if failures:
        first = failures[0]
        print(f"verification failed: {first[0]} / {first[1].label}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

def _scan_payload(predicate: str, bound: int) -> tuple[dict, list[str]]:
    """Returns (json payload, csv lines)."""
    b21, b31 = (2, 1), (3, 1)
    if predicate == "lissajous-obstructed":
        hits = []
        for knot in canonical_knots(bound, chirality=False):
            (num21,) = primitive_numerators(knot.n, knot.m, slots=(b21,))
            if lissajous_verdict(num21) == OBSTRUCTED:
                beta21 = Fraction(num21, BETA_DENOMINATORS[b21])
                hits.append({"n": knot.n, "m": knot.m,
                             "beta_2_1": rational_json(beta21)})
        csv = ["n,m,beta_2_1"] + [
            f"{h['n']},{h['m']},{h['beta_2_1']['num']}" for h in hits]
        return {"knots": hits}, csv
    if predicate == "non-integer":
        report = integrality_scan(bound, include_noncoprime=True)

        def packed(records):
            return [{"n": pair[0], "m": pair[1], "slot": f"{slot[0]},{slot[1]}",
                     "value": rational_json(value)}
                    for (pair, slot, value) in records]

        witnesses = packed(report.notes)
        csv = ["n,m,slot,value"] + [
            f"{w['n']},{w['m']},\"{w['slot']}\","
            f"{w['value']['num']}/{w['value']['den']}" for w in witnesses]
        return {"coprime_violations": packed(report.violations),
                "noncoprime_witnesses": witnesses}, csv
    # beta-curve, the last predicate _cmd_scan admits
    points = []
    for knot in canonical_knots(bound, chirality=False):
        num21, num31 = primitive_numerators(knot.n, knot.m, slots=(b21, b31))
        points.append({"n": knot.n, "m": knot.m,
                       "beta_2_1": rational_json(Fraction(num21, BETA_DENOMINATORS[b21])),
                       "beta_3_1": rational_json(Fraction(num31, BETA_DENOMINATORS[b31]))})
    csv = ["n,m,beta_2_1,beta_3_1"] + [
        f"{p['n']},{p['m']},{p['beta_2_1']['num']},{p['beta_3_1']['num']}"
        for p in points]
    return {"points": points}, csv


def _cmd_scan(args: argparse.Namespace) -> int:
    predicates = ("lissajous-obstructed", "non-integer", "beta-curve")
    if args.predicate not in predicates:
        raise UnsupportedInput(f"unknown predicate {args.predicate!r}; choose from "
                               f"{', '.join(predicates)}")
    if not 2 <= args.max <= MAX_SCAN_BOUND:
        raise UnsupportedInput(f"max {args.max} unsupported (scan " + (
            f"stops at {MAX_SCAN_BOUND})" if args.max > MAX_SCAN_BOUND else "starts at 2)"))
    payload, csv_lines = _scan_payload(args.predicate, args.max)
    arguments = {"predicate": args.predicate, "max": args.max, "format": args.format}
    if args.format == "csv":
        _emit("\n".join(csv_lines) + "\n", args.out)
    else:
        _emit(json.dumps(_document("scan", arguments, payload), indent=2), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusvass",
        description="Exact Vassiliev invariants of torus knots up to order six.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    inv = sub.add_parser("invariants", help="invariant tables for one torus knot")
    inv.add_argument("--n", type=int, required=True)
    inv.add_argument("--m", type=int, required=True)
    inv.add_argument("--order", type=int, default=6)
    inv.add_argument("--format", choices=("json", "csv", "table"), default="json")
    inv.add_argument("--out", default=None, help="write output to a file")
    inv.set_defaults(handler=_cmd_invariants)

    exp = sub.add_parser("expand", help="series coefficients of a quantum invariant")
    exp.add_argument("--family", required=True,
                     choices=tuple(f.value for f in Family))
    exp.add_argument("--N", type=int, default=None, help=f"at most {MAX_EXPAND_RANK}")
    exp.add_argument("--j", type=int, default=None, help=f"at most {MAX_EXPAND_RANK}")
    exp.add_argument("--n", type=int, required=True,
                     help=f"|n| and |m| at most {MAX_EXPAND_INDEX}")
    exp.add_argument("--m", type=int, required=True)
    exp.add_argument("--order", type=int, default=6,
                     help=f"highest degree, 0..{MAX_EXPAND_ORDER}")
    exp.add_argument("--format", choices=("json", "csv", "table"), default="json")
    exp.add_argument("--out", default=None)
    exp.set_defaults(handler=_cmd_expand)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True)
    ver.add_argument("--bound", type=int, default=None,
                     help="override the suite's default scan bound, "
                          f"at most {MAX_VERIFY_BOUND}")
    ver.add_argument("--format", choices=("json", "text"), default="json")
    ver.add_argument("--out", default=None)
    ver.set_defaults(handler=_cmd_verify)

    scan = sub.add_parser("scan", help="bulk predicates over knot ranges")
    scan.add_argument("--predicate", required=True)
    scan.add_argument("--max", type=int, required=True,
                      help=f"largest index scanned, 2..{MAX_SCAN_BOUND}")
    scan.add_argument("--format", choices=("json", "csv"), default="json")
    scan.add_argument("--out", default=None)
    scan.set_defaults(handler=_cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except TorusVassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_KNOT if isinstance(exc, NotAKnot) else EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
