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
Each command computes its values once and renders only the format asked
for; its handler returns the answer, and main writes it.  One table
(_COMMANDS) holds every subcommand's handler, help and options, and
build_parser makes argparse from it.  main takes at most MAX_WORDS words.  A
line of a command and its exact option words, each once and followed by a
value its type and choices accept, is read from the table and builds no
parser; any other line (help, --version, a rejection, an abbreviated
option, --opt=value, a repeated option) goes to argparse, built once per
process by the first such line, which writes every usage, help and error
text.  One per-process cache (_cache), bounded in bytes (CACHE_BYTES),
makes main cheap to call in a loop.  It keeps three kinds of entry, each
filled only after every check of its line has passed: recent successful
invariants and scan answers by command line, so a repeated line is written
again without a parse; each knot's value strings, so a new line of a known
knot renders from strings; and the coefficient strings of each (group,
knot) that expand has taken a series of, so a new expand line of a known
pair renders from strings.  A rejection, argparse's exits, and expand and verify answers are
never kept.  The public closed_form_*, integrality_scan and
primitive_columns functions stay uncached.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import threading
from collections import OrderedDict
from collections.abc import Callable
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import __version__
from .analysis import (OBSTRUCTED, auxiliary_scalars, integrality_scan, is_v3_applicable,
                       lissajous_obstruction, lissajous_verdict)
from .errors import NotAKnot, TorusVassError, UnsupportedInput
from .groups import _PARAMETER_FLOORS, ALL_SLOTS, Family, GroupInstance
from .invariants import normalized_series
from .knots import UNKNOT, TorusKnot, canonical_ms, canonicalize
from .suites import SUITES, run_suite
from .tables import (BETA_DENOMINATORS, closed_form_alpha, closed_form_alpha_tilde,
                     closed_form_beta, primitive_columns)

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
#: N >= n + 2 at every n.  At the limits the slowest family (Kauffman at
#: N = n + 2) takes about 0.17 s at order 24, as a whole process (median of 5)
MAX_EXPAND_ORDER = 24
MAX_EXPAND_INDEX = 128
MAX_EXPAND_RANK = 130

#: scan --max and verify --bound limits (exit 3 above them): at its limit the
#: slowest predicate (non-integer, bound by its 11 MB output) takes about
#: 0.5 s as a whole process, and the slowest bounded suite (relations)
#: about 0.35 s (median of 5)
MAX_SCAN_BOUND = 100
MAX_VERIFY_BOUND = 300


def _document(command: str, arguments: dict, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": {"name": command, "arguments": arguments},
        "payload": payload,
    }


class _Text(str):
    """A node of a JSON document rendered once, at the indent where it sits,
    which _render writes verbatim."""

    __slots__ = ()


#: the text of each scalar type a document holds, by exact type: _render
#: raises TypeError for any other type, other subclasses and floats included
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: lambda value: "true" if value else "false",
            type(None): lambda value: "null", _Text: str}


def _render(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte, for a document of dicts with
    str keys, lists, str, int, bool and None, where each Fraction stands for
    its rational block {"num": "...", "den": "..."} (plus "exact_decimal"
    when the value is an integer), the one place that block is written, and
    each _Text for itself.
    With an indent, json.dumps leaves its C encoder for a pure-Python one;
    this writer quotes strings with the C encode_basestring_ascii and joins
    the rest in one list."""
    parts: list[str] = []
    _render_into(doc, "\n", parts.append)
    return "".join(parts)


def _rational(text: str, newline: str) -> str:
    """The rational block of the Fraction whose str is text, opening on a
    line whose break and indent are newline.  It takes the str, which is
    every other format's text of the value, so a writer of several formats
    turns each numerator into decimal digits once."""
    inner = newline + "  "
    num, _, den = text.partition("/")
    if not den:
        return (f'{{{inner}"num": "{num}",{inner}"den": "1",{inner}"exact_decimal": '
                f'"{num}"{newline}}}')
    return f'{{{inner}"num": "{num}",{inner}"den": "{den}"{newline}}}'


def _render_into(value, newline: str, put) -> None:
    """Hand value's text to put, in pieces; newline is a line break followed
    by the indent of the line value starts on.  A module-level function that
    is given the list's append: a nested function that calls itself is a
    reference cycle, and would keep each document's pieces alive until the
    cyclic collector runs."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        put(scalar(value))
    elif type(value) is Fraction:
        put(_rational(str(value), newline))
    elif type(value) is dict:
        if not value:
            put("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = separator + encode_basestring_ascii(key) + ": "
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                put(head + scalar(item))
            elif type(item) is Fraction:
                put(head + _rational(str(item), inner))
            else:
                put(head)
                _render_into(item, inner, put)
            separator = "," + inner
        put(newline + "}")
    elif type(value) is list:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                put(separator + scalar(item))
            elif type(item) is Fraction:
                put(separator + _rational(str(item), inner))
            else:
                put(separator)
                _render_into(item, inner, put)
            separator = "," + inner
        put(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Answer(NamedTuple):
    """A command's answer: its text, which main writes with one final
    newline to the --out path or else to stdout, the lines main then writes
    to stderr, and the exit code.  main sets out from the command line."""

    text: str
    notes: tuple[str, ...] = ()
    code: int = EXIT_OK
    out: str | None = None


def _emit(text: str, out_path: str | None) -> None:
    """Write text to out_path or else to stdout.  The path is opened without
    blocking, so a FIFO with no reader fails at once (ENXIO) instead of
    waiting for one; the write then blocks, so a slow reader gets it all."""
    if out_path is not None:
        try:
            fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NONBLOCK, 0o666)
            os.set_blocking(fd, True)
            with open(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UnsupportedInput(f"cannot write {out_path or repr(out_path)}: "
                                   f"{exc.strerror}") from exc
        return
    _write(sys.stdout, text)


def _note(line: str) -> None:
    """One line to stderr, the one way the commands write there."""
    _write(sys.stderr, line + "\n")


def _write(stream, text: str) -> None:
    """Write text to stdout or stderr.  If the reader has closed the pipe
    (``torusvass ... | head``, or ``2>&1 | head`` for both streams), point
    the stream at devnull: neither a later write nor the interpreter's flush
    at exit can fail again, and the exit status stays what it would have
    been."""
    try:
        stream.write(text)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _size(item) -> int:
    """What the cache counts of a key or a value, in bytes: sys.getsizeof of
    it and of all it holds, through tuples and through a knot's or a group's
    fields and the dict they sit in."""
    if isinstance(item, tuple):
        parts = item
    elif type(item) in (TorusKnot, GroupInstance):
        parts = vars(item), *vars(item).values()
    else:
        return sys.getsizeof(item)
    return sys.getsizeof(item) + sum(map(_size, parts))


class _Cache:
    """Recent values by key, least recently used first out, within a budget
    of bytes: the sum of each entry's size, _size of its key and of its
    (value, size) pair.  One lock guards it, so threads may call main at
    once."""

    def __init__(self, budget: int):
        self.budget = budget
        self.entries: OrderedDict = OrderedDict()  # key -> (value, its size)
        self.size = 0  # the sum of the entries' sizes
        self.lock = threading.Lock()

    def get(self, key):
        """key's value, now the most recent, or None."""
        with self.lock:
            entry = self.entries.get(key)
            if entry is None:
                return None
            self.entries.move_to_end(key)
            return entry[0]

    def keep(self, key, value) -> None:
        """Keep value as key's, unless it alone is above the budget."""
        size = _size(key) + _size((value, 0))
        if size > self.budget:
            return
        with self.lock:
            if key in self.entries:
                self.size -= self.entries.pop(key)[1]
            self.entries[key] = value, size
            self.size += size
            while self.size > self.budget:
                self.size -= self.entries.popitem(last=False)[1][1]


#: the most the cache keeps, in bytes, by _Cache's count.  The benchmark's
#: request mix (550 rounds, seeds 7 and 90210) keeps 888-898 answers, 49
#: knots' values and 525-527 coefficient texts, 2.52-2.55 MB by this count
#: (2.74-2.75 MB at 5,000 rounds), and evicts none of them.  Least recently
#: used entries go first, whatever their kind, and one larger than the budget
#: (scan --predicate non-integer --max 100 is 11.4 MB) is written and not
#: kept; a knot's values take about 4.8 KB, and 169 KB at
#: MAX_INVARIANTS_INDEX.  A full cache holds at most about 3.05 MiB
#: (tracemalloc): a flood of the smallest answers holds 1.01 times its count,
#: and knots' values and coefficient text less than theirs
CACHE_BYTES = 3 * 2 ** 20

_cache = _Cache(CACHE_BYTES)


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------

#: invariants' index bound (exit 3 above it).  The widest value, at order 6,
#: has about 12 times the digits of the index, and a value of more than
#: 4,300 digits cannot be printed (sys.int_info.str_digits_check_threshold,
#: the interpreter's default, which a library leaves as its caller set it):
#: every format renders at n, m = 10^358 + 1, 10^358 + 2 and none at 10^359.
#: At this bound the widest value has 3,603 digits, and a knot, not cached,
#: takes about 12 ms in process in any format (0.15-0.2 s as a whole process)
MAX_INVARIANTS_INDEX = 10 ** 300

#: the three tables of an invariants document, in its order
_TABLES = ("alpha_tilde", "alpha", "beta")

#: how many slots of ALL_SLOTS an order 0..6 shows
_SHOWN = tuple(sum(slot[0] <= order for slot in ALL_SLOTS) for order in range(7))


def _knot_values(knot: TorusKnot) -> tuple:
    """What an invariants answer shows of one validated knot: its canonical
    (n, m), or None for the unknot, the str of each table's entries in
    ALL_SLOTS order, and its scalars as (name, value) pairs.  The public
    closed_form_* functions stay uncached (each call makes a fresh table);
    the cache keeps these values by the knot as given, on the CLI path
    alone."""
    values = _cache.get(knot)
    if values is not None:
        return values
    canonical = canonicalize(knot.n, knot.m)
    tables = tuple(tuple(str(table.entries[slot]) for slot in ALL_SLOTS) for table in (
        closed_form_alpha_tilde(knot), closed_form_alpha(knot), closed_form_beta(knot)))
    aux = auxiliary_scalars(knot)
    scalars = (("gordian", aux.gordian), ("curve_residual", aux.curve_residual),
               ("lissajous", lissajous_obstruction(knot)))
    if is_v3_applicable(knot):
        scalars += (("v3", aux.v3),)
    values = None if canonical is UNKNOT else (canonical.n, canonical.m), tables, scalars
    _cache.keep(knot, values)
    return values


def _cmd_invariants(args: argparse.Namespace) -> _Answer:
    n, m = args.n, args.m
    knot = TorusKnot(n, m).validate()
    if not 0 <= args.order <= 6:
        raise UnsupportedInput(f"order {args.order} unsupported"
                               + (" (tables stop at 6)" if args.order > 0 else ""))
    if max(abs(n), abs(m)) > MAX_INVARIANTS_INDEX:
        raise UnsupportedInput("knot index unsupported (invariants stops at |n|, |m| <= "
                               f"10^{len(str(MAX_INVARIANTS_INDEX)) - 1})")
    canonical, tables, scalars = _knot_values(knot)
    slots = ALL_SLOTS[:_SHOWN[args.order]]
    if args.format == "json":
        inner = "\n      "  # the indent of a table's values
        payload = {
            "knot": {"n": n, "m": m, "unknot": canonical is None,
                     "canonical": None if canonical is None else dict(zip("nm", canonical))},
            **{name: _Text("{" + ",".join([
                f'{inner}"{i},{j}": {_rational(text, inner)}'
                for (i, j), text in zip(slots, texts)]) + "\n    }" if slots else "{}")
               for name, texts in zip(_TABLES, tables)},
            "scalars": dict(scalars),
        }
        arguments = {"n": n, "m": m, "order": args.order, "format": args.format}
        return _Answer(_render(_document("invariants", arguments, payload)))
    if args.format == "csv":
        lines = ["table,order,slot,value"]
        lines += [f"{name},{i},{j},{text}"
                  for name, texts in zip(_TABLES, tables) for (i, j), text in zip(slots, texts)]
        lines += [f"scalar,{name},,{value}" for name, value in scalars]
        return _Answer("\n".join(lines))
    values = dict(scalars)
    lines = [f"torus knot ({n}, {m})" + ("  [unknot]" if canonical is None
                                         else f"  [canonical ({canonical[0]}, {canonical[1]})]"),
             f"{'slot':>8} {'alpha_tilde':>16} {'alpha':>16} {'beta':>12}"]
    lines += [f"{f'({i},{j})':>8} {t:>16} {a:>16} {b:>12}"
              for (i, j), t, a, b in zip(slots, *tables)]
    lines.append(f"gordian = {values['gordian']}, curve residual = {values['curve_residual']}, "
                 f"lissajous: {values['lissajous']}"
                 + (f", v3 = {values['v3']}" if "v3" in values else ""))
    return _Answer("\n".join(lines))


# ----------------------------------------------------------------------
# expand
# ----------------------------------------------------------------------

def _coefficient_texts(group: GroupInstance, knot: TorusKnot, order: int) -> list[str]:
    """The str of each Taylor coefficient, degrees 0..order, of the group's
    normalized series at the knot.  The cache keeps each pair's strings at
    the widest order asked of it, joined by spaces into one str (a str per
    coefficient would take three times the memory): the coefficients through
    x^W do not depend on the order the series was taken to, for a product
    too, so a narrower order reads the first strings, and a wider one takes
    the series again and replaces them.  A pair is kept only
    once its series has been taken, so a request the series rejects (a
    SingularBracket) keeps nothing."""
    key = group, knot
    text = _cache.get(key)
    texts = [] if text is None else text.split(" ")
    if len(texts) <= order:
        texts = list(map(str, normalized_series(knot, group, order).coefficients_through(order)))
        _cache.keep(key, " ".join(texts))
    return texts[:order + 1]


def _cmd_expand(args: argparse.Namespace) -> _Answer:
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
    texts = _coefficient_texts(group, knot, args.order)

    arguments = {"family": args.family, "N": args.N, "j": args.j,
                 "n": n, "m": m, "order": args.order, "format": args.format}
    if args.format == "json":
        inner = "\n      "  # the indent of a coefficient
        payload = {
            "group": group.label(),
            "substitution_scale": group.substitution_scale,
            "coefficients": _Text("[" + ",".join([inner + _rational(text, inner)
                                                  for text in texts]) + "\n    ]"),
        }
        return _Answer(_render(_document("expand", arguments, payload)))
    if args.format == "csv":
        lines = ["degree,coefficient"]
        lines += [f"{d},{text}" for d, text in enumerate(texts)]
        return _Answer("\n".join(lines))
    terms = [f"({text})*x^{d}" for d, text in enumerate(texts) if text != "0"]
    return _Answer(f"{group.label()} at ({n}, {m}):\n  "
                   + (" + ".join(terms) if terms else "0")
                   + f" + O(x^{args.order + 1})")


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> _Answer:
    if args.suite not in SUITES and args.suite != "all":
        raise UnsupportedInput(f"unknown suite {args.suite!r}; choose from "
                               f"{', '.join(list(SUITES) + ['all'])}")
    if args.bound is not None and args.bound > MAX_VERIFY_BOUND:
        raise UnsupportedInput(f"bound {args.bound} unsupported (verify stops at "
                               f"{MAX_VERIFY_BOUND})")
    results = run_suite(args.suite, args.bound)
    failures = [(r.suite, c) for r in results for c in r.failures()]
    if args.format == "json":
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
        text = _render(_document("verify", arguments, payload))
    else:
        lines = []
        for r in results:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.suite} ({len(r.checks)} checks)")
            for check in r.failures():
                lines.append(f"    FAIL {check.label}: {check.detail}")
        text = "\n".join(lines)
    # timings vary between runs, so they go to stderr, after the document
    notes = [f"{r.suite}: {r.elapsed_seconds:.2f}s" for r in results]
    if failures:
        suite, check = failures[0]
        notes.append(f"verification failed: {suite} / {check.label}")
    return _Answer(text, tuple(notes), EXIT_VERIFY_FAILED if failures else EXIT_OK)


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

#: each scan predicate: the JSON lists its records fill, the fields of a
#: record after n and m, which are also the CSV columns (the CSV holds the
#: last list), and the JSON of a list of records, one literal dict each
_SCANS = {
    "lissajous-obstructed": (("knots",), ("beta_2_1",), lambda records: [
        {"n": n, "m": m, "beta_2_1": b21} for n, m, b21 in records]),
    "non-integer": (("coprime_violations", "noncoprime_witnesses"), ("slot", "value"),
                    lambda records: [{"n": n, "m": m, "slot": slot, "value": value}
                                     for n, m, slot, value in records]),
    "beta-curve": (("points",), ("beta_2_1", "beta_3_1"), lambda records: [
        {"n": n, "m": m, "beta_2_1": b21, "beta_3_1": b31} for n, m, b21, b31 in records]),
}


def _scan_records(predicate: str, bound: int) -> list[list[tuple]]:
    """The (n, m, *values) records of each of the predicate's JSON lists."""
    if predicate == "non-integer":
        report = integrality_scan(bound, include_noncoprime=True)
        return [[(n, m, f"{i},{j}", value) for (n, m), (i, j), value in records]
                for records in (report.violations, report.notes)]
    obstructed = predicate == "lissajous-obstructed"
    slots = ((2, 1),) if obstructed else ((2, 1), (3, 1))
    dens = [BETA_DENOMINATORS[slot] for slot in slots]
    records = []
    for n, ms in canonical_ms(bound, chirality=False):
        records += [(n, m, *map(Fraction, nums, dens))
                    for m, *nums in zip(ms, *primitive_columns(n, ms, slots=slots))
                    if not obstructed or lissajous_verdict(nums[0]) == OBSTRUCTED]
    return [records]


def _csv_line(record: tuple) -> str:
    """A record's values joined by commas: each number's str, each str (a
    slot "i,j") quoted."""
    return ",".join([f'"{value}"' if type(value) is str else str(value) for value in record])


#: the formats scan writes
_SCAN_FORMATS = ("json", "csv")


def _scan_text(predicate: str, bound: int, fmt: str) -> str:
    """The scan document in the one format asked for, from one set of records."""
    lists, fields, as_json = _SCANS[predicate]
    records = _scan_records(predicate, bound)
    if fmt == "csv":
        return "\n".join([",".join(("n", "m") + fields), *map(_csv_line, records[-1])])
    arguments = {"predicate": predicate, "max": bound, "format": fmt}
    return _render(_document("scan", arguments, dict(zip(lists, map(as_json, records)))))


def _cmd_scan(args: argparse.Namespace) -> _Answer:
    if args.predicate not in _SCANS:
        raise UnsupportedInput(f"unknown predicate {args.predicate!r}; choose from "
                               f"{', '.join(_SCANS)}")
    if not 2 <= args.max <= MAX_SCAN_BOUND:
        raise UnsupportedInput(f"max {args.max} unsupported (scan " + (
            f"stops at {MAX_SCAN_BOUND})" if args.max > MAX_SCAN_BOUND else "starts at 2)"))
    return _Answer(_scan_text(args.predicate, args.max, args.format))


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _Option(NamedTuple):
    """One option of a subcommand, as argparse's add_argument takes it: the
    type that converts its value, the values it admits, its default, whether
    a line must give it, and its help."""

    type: Callable[[str], object] | None = None
    choices: tuple | None = None
    default: object = None
    required: bool = False
    help: str | None = None


class _Command(NamedTuple):
    """One subcommand: its handler, its help, and its options by option word,
    in the order usage shows them; each value goes in the namespace under
    its word less the "--"."""

    handler: Callable[[argparse.Namespace], _Answer]
    help: str
    options: dict[str, _Option]


_FORMATS = ("json", "csv", "table")

#: every subcommand and its options, the one source of both parse paths
_COMMANDS = {
    "invariants": _Command(_cmd_invariants, "invariant tables for one torus knot", {
        "--n": _Option(int, required=True,
                       help=f"|n| and |m| at most 10^{len(str(MAX_INVARIANTS_INDEX)) - 1}"),
        "--m": _Option(int, required=True),
        "--order": _Option(int, default=6),
        "--format": _Option(choices=_FORMATS, default="json"),
        "--out": _Option(help="write output to a file"),
    }),
    "expand": _Command(_cmd_expand, "series coefficients of a quantum invariant", {
        "--family": _Option(choices=tuple(f.value for f in Family), required=True),
        "--N": _Option(int, help=f"at most {MAX_EXPAND_RANK}"),
        "--j": _Option(int, help=f"at most {MAX_EXPAND_RANK}"),
        "--n": _Option(int, required=True, help=f"|n| and |m| at most {MAX_EXPAND_INDEX}"),
        "--m": _Option(int, required=True),
        "--order": _Option(int, default=6, help=f"highest degree, 0..{MAX_EXPAND_ORDER}"),
        "--format": _Option(choices=_FORMATS, default="json"),
        "--out": _Option(),
    }),
    "verify": _Command(_cmd_verify, "run a verification suite", {
        "--suite": _Option(required=True),
        "--bound": _Option(int, help="override the suite's default scan bound, "
                                     f"at most {MAX_VERIFY_BOUND}"),
        "--format": _Option(choices=("json", "text"), default="json"),
        "--out": _Option(),
    }),
    "scan": _Command(_cmd_scan, "bulk predicates over knot ranges", {
        "--predicate": _Option(required=True),
        "--max": _Option(int, required=True, help=f"largest index scanned, 2..{MAX_SCAN_BOUND}"),
        "--format": _Option(choices=_SCAN_FORMATS, default="json"),
        "--out": _Option(),
    }),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of _COMMANDS, which writes every usage, help and
    error text."""
    parser = argparse.ArgumentParser(
        prog="torusvass",
        description="Exact Vassiliev invariants of torus knots up to order six.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=command.help)
        for word, option in command.options.items():
            command_parser.add_argument(word, **option._asdict())
        command_parser.set_defaults(handler=command.handler)
    return parser


#: the commands whose answers the cache keeps: each answer is a
#: function of its command line alone.  expand lines seldom repeat soon: the
#: request mix draws 3,481-3,536 distinct ones in 5,000 (500 rounds, seeds 7
#: and 90210), and a cache of the last 256 hit 5% of them.  But 89.5% of them
#: repeat a (group, knot) pair at another --order or --format, whose
#: coefficient text the cache keeps.  verify runs one line per process.  A
#: kept answer is written again without either parse path or a render
_KEPT = ("invariants", "scan")


#: the most words main takes on one command line (exit 2 above it, before
#: the cache and either parse): a line that repeats an option goes to
#: argparse, whose time grows as the square of the words, about 0.5 s at
#: 8,000 (an option repeated 4,000 times) and 3 s at 20,000, in process.  The
#: longest line that repeats no option has 17 words
MAX_WORDS = 64

#: a word that argparse takes for a negative number, and so for a value, on
#: Python 3.10-3.13 (each parser here has no option that looks like one):
#: the one kind of value starting with "-" that _read accepts
_NEGATIVE = re.compile(r"-[0-9]+")


def _read(words: tuple) -> argparse.Namespace | None:
    """The namespace parse_args makes of words, read from _COMMANDS, or None
    where the table alone cannot tell.  It reads a line that is a command,
    then pairs of one of its exact option words and a value: no option
    twice, every required one given, and each value converted by its
    option's type into its choices.  No value starts with "-" unless it is a
    negative integer, which argparse too takes for a value; argparse may take
    any other such word for an option."""
    command = _COMMANDS.get(words[0]) if words else None
    if command is None or not len(words) % 2:
        return None
    given = {}
    for word, text in zip(words[1::2], words[2::2]):
        option = command.options.get(word)
        if option is None or word in given or (
                text[:1] == "-" and _NEGATIVE.fullmatch(text) is None):
            return None
        try:
            value = (option.type or str)(text)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        given[word] = value
    args = argparse.Namespace(subcommand=words[0], handler=command.handler)
    for word, option in command.options.items():
        if word in given:
            setattr(args, word[2:], given[word])
        elif option.required:
            return None
        else:
            setattr(args, word[2:], option.default)
    return args


def _parse(words: tuple) -> argparse.Namespace:
    """build_parser().parse_args(words), by one of two paths: a line _read
    takes builds no parser, and any other line (help, --version, a
    rejection, an abbreviated option, --opt=value, a repeated option, a
    value starting with "-" other than a negative integer) goes to argparse,
    which writes its usage, help and error text."""
    args = _read(words)
    return build_parser().parse_args(words) if args is None else args


def main(argv: list[str] | None = None) -> int:
    words = tuple(sys.argv[1:] if argv is None else argv)
    if len(words) > MAX_WORDS:
        build_parser().error(f"{len(words)} words on the command line (at most {MAX_WORDS})")
    answer = _cache.get(words)
    fresh = answer is None
    try:
        if fresh:
            args = _parse(words)
            answer = args.handler(args)
            text = answer.text if answer.text.endswith("\n") else answer.text + "\n"
            answer = answer._replace(text=text, out=args.out)
        _emit(answer.text, answer.out)
    except TorusVassError as exc:
        _note(f"error: {exc}")
        return EXIT_INVALID_KNOT if isinstance(exc, NotAKnot) else EXIT_UNSUPPORTED
    for line in answer.notes:
        _note(line)
    if fresh and args.subcommand in _KEPT:
        _cache.keep(words, answer)
    return answer.code


if __name__ == "__main__":
    sys.exit(main())
