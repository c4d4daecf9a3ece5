"""Command-line front end.

Subcommands:

* ``invariants`` : alpha_tilde / alpha / beta tables plus derived scalars
  for one knot,
* ``expand``     : Taylor coefficients of a normalized invariant series,
* ``verify``     : run a named verification suite (exit 1 on any failure),
* ``scan``       : bulk predicates over knot ranges.

Exit codes: 0 success, 1 verification failure, 2 invalid knot,
3 unsupported request.  Output is deterministic for identical inputs:
JSON with rationals as {"num", "den"} pairs (plus "exact_decimal" when the
value is an integer), CSV with exact num/den strings, or an aligned table.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .analysis import (auxiliary_scalars, integrality_scan, is_v3_applicable,
                       lissajous_obstruction)
from .errors import NotAKnot, TorusVassError
from .groups import Family, product, so_n, su2, su_n
from .invariants import DEFAULT_GUARD, normalized_series
from .knots import UNKNOT, TorusKnot, canonical_knots, canonicalize
from .suites import SUITES, run_suite
from .tables import closed_form_alpha, closed_form_alpha_tilde, closed_form_beta

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_KNOT = 2
EXIT_UNSUPPORTED = 3

SCHEMA_VERSION = "1.0"

#: expand's input bounds (exit 3 above them): the working width order +
#: guard keys the evaluator kernels, so these also cap a cached kernel's size
MAX_EXPAND_ORDER = 24
MAX_GUARD_TERMS = 8


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
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


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
        print(f"error: order {args.order} unsupported (tables stop at 6)",
              file=sys.stderr)
        return EXIT_UNSUPPORTED

    canonical = canonicalize(n, m)
    is_unknot = canonical is UNKNOT
    tilde = closed_form_alpha_tilde(knot).entries
    alpha = closed_form_alpha(knot).entries
    beta = closed_form_beta(knot).entries
    scalars = auxiliary_scalars(knot)
    lissajous = lissajous_obstruction(knot)

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
    if is_v3_applicable(knot):
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
        if is_v3_applicable(knot):
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
                     + (f", v3 = {scalars.v3}" if is_v3_applicable(knot) else ""))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# expand
# ----------------------------------------------------------------------

def _group_for(args: argparse.Namespace):
    family = args.family
    if family == "su_n":
        if args.N is None:
            raise ValueError("--family su_n needs --N")
        return su_n(args.N)
    if family == "so_n":
        if args.N is None:
            raise ValueError("--family so_n needs --N")
        return so_n(args.N)
    if family == "su2":
        if args.j is None:
            raise ValueError("--family su2 needs --j")
        return su2(args.j)
    if family == "product":
        if args.N is None or args.j is None:
            raise ValueError("--family product needs --N and --j")
        return product(args.N, args.j)
    raise ValueError(f"unknown family {family!r}")


def _cmd_expand(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    knot = TorusKnot(n, m).validate().oriented()
    if not 0 <= args.order <= MAX_EXPAND_ORDER:
        print(f"error: order {args.order} unsupported"
              + (f" (expand stops at {MAX_EXPAND_ORDER})" if args.order > 0 else ""),
              file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.guard_terms > MAX_GUARD_TERMS:
        print(f"error: {args.guard_terms} guard terms unsupported (at most {MAX_GUARD_TERMS})",
              file=sys.stderr)
        return EXIT_UNSUPPORTED
    try:
        group = _group_for(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    try:
        series = normalized_series(knot, group, args.order, guard=args.guard_terms)
    except TorusVassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    coefficients = series.coefficients_through(args.order)

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
        print(f"error: unknown suite {args.suite!r}; choose from "
              f"{', '.join(list(SUITES) + ['all'])}", file=sys.stderr)
        return EXIT_UNSUPPORTED
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
    if predicate == "lissajous-obstructed":
        hits = []
        for knot in canonical_knots(bound, chirality=False):
            if lissajous_obstruction(knot.as_knot()) == "obstructed":
                beta21 = closed_form_beta(knot.as_knot()).entries[(2, 1)]
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
    if predicate == "beta-curve":
        points = []
        for knot in canonical_knots(bound, chirality=False):
            b = closed_form_beta(knot.as_knot()).entries
            points.append({"n": knot.n, "m": knot.m,
                           "beta_2_1": rational_json(b[(2, 1)]),
                           "beta_3_1": rational_json(b[(3, 1)])})
        csv = ["n,m,beta_2_1,beta_3_1"] + [
            f"{p['n']},{p['m']},{p['beta_2_1']['num']},{p['beta_3_1']['num']}"
            for p in points]
        return {"points": points}, csv
    raise ValueError(predicate)


def _cmd_scan(args: argparse.Namespace) -> int:
    predicates = ("lissajous-obstructed", "non-integer", "beta-curve")
    if args.predicate not in predicates:
        print(f"error: unknown predicate {args.predicate!r}; choose from "
              f"{', '.join(predicates)}", file=sys.stderr)
        return EXIT_UNSUPPORTED
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
    exp.add_argument("--N", type=int, default=None)
    exp.add_argument("--j", type=int, default=None)
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--m", type=int, required=True)
    exp.add_argument("--order", type=int, default=6,
                     help=f"highest degree, 0..{MAX_EXPAND_ORDER}")
    exp.add_argument("--guard-terms", type=int, default=DEFAULT_GUARD,
                     help="extra working terms above the requested order, "
                          f"at most {MAX_GUARD_TERMS}")
    exp.add_argument("--format", choices=("json", "csv", "table"), default="json")
    exp.add_argument("--out", default=None)
    exp.set_defaults(handler=_cmd_expand)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True)
    ver.add_argument("--bound", type=int, default=None,
                     help="override the suite's default scan bound")
    ver.add_argument("--format", choices=("json", "text"), default="json")
    ver.add_argument("--out", default=None)
    ver.set_defaults(handler=_cmd_verify)

    scan = sub.add_parser("scan", help="bulk predicates over knot ranges")
    scan.add_argument("--predicate", required=True)
    scan.add_argument("--max", type=int, required=True)
    scan.add_argument("--format", choices=("json", "csv"), default="json")
    scan.add_argument("--out", default=None)
    scan.set_defaults(handler=_cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NotAKnot as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_KNOT
    except (TorusVassError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
