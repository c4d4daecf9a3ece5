"""CLI behavior: formats, exit codes, determinism, schema conformance."""

import argparse
import ast
import contextlib
import errno
import gc
import hashlib
import inspect
import itertools
import json
import io
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from math import gcd
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusvass import analysis, cli, extract, invariants, suites
from torusvass.analysis import auxiliary_scalars, is_v3_applicable, lissajous_obstruction
from torusvass.cli import main
from torusvass.errors import UnsupportedInput
from torusvass.groups import ALL_SLOTS, Family, GroupInstance
from torusvass.knots import UNKNOT, TorusKnot, canonicalize
from torusvass.series import TruncSeries
from torusvass.tables import (BETA_DENOMINATORS, closed_form_alpha, closed_form_alpha_tilde,
                              closed_form_beta)

SCHEMA = json.loads(
    resources.files("torusvass").joinpath("output_schema.json").read_text())
RATIONAL_SCHEMA = SCHEMA["$defs"]["rational"]

#: the package sources; pytest's ``pythonpath`` setting reaches only the test
#: process, so a CLI subprocess gets them through PYTHONPATH
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def cold_cache(monkeypatch):
    """Each test starts with no answer, no knot's values and no coefficient
    text kept, so a patch of what a command reads is called whatever ran
    before."""
    fresh_cache(monkeypatch)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def module_env():
    """The environment of a ``python -m torusvass.cli`` subprocess that
    imports these sources."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv):
    """Run ``python -m torusvass.cli`` in a subprocess that imports these sources."""
    return subprocess.run([sys.executable, "-m", "torusvass.cli", *argv],
                          capture_output=True, text=True, env=module_env())


#: every coprime pair with n, then m, ascending over -13..13, and four more
INVARIANTS_PAIRS = [(n, m) for n in range(-13, 14) for m in range(-13, 14)
                    if n and m and gcd(n, m) == 1] + [(97, 98), (41, -43), (1, 1), (-1, 5)]

#: sha256 over f"{code}|{stdout}|{stderr}" of ``invariants`` on each pair, in
#: the formats json, csv and table, each at --order 6 then 4: 2,784 documents
INVARIANTS_DIGEST = "ca7b1199d2ff9fe98c78056e3f3247e1dbf9b32d29d51610f91cebb034c345e1"

#: sha256 over f"{code}|{stdout}|{stderr}" of ``scan`` for each predicate, at
#: --max 2..40, in the formats json then csv: 234 documents
SCAN_DIGEST = "229f206f006106af4c1ee61242872d042f04b16f1a45117b7d040dec3341791f"

#: every coprime pair over 0 < |n| <= 7, 0 < |m| <= 8, and two pairs that are
#: not knots
EXPAND_PAIRS = [(n, m) for n in range(-7, 8) for m in range(-8, 9)
                if n and m and gcd(n, m) == 1] + [(2, 4), (0, 3)]

#: one group per family; SO(7) is below the Kauffman floor N >= n + 2 at
#: |n| = 6 and 7, so those documents are its error
EXPAND_GROUPS = (("su_n", "--N", "3"), ("so_n", "--N", "7"), ("su2", "--j", "2"),
                 ("product", "--N", "2", "--j", "1"))

#: sha256 over f"{code}|{stdout}|{stderr}" of ``expand`` on each pair and
#: group, in the formats json, csv and table, each at --order 24 then 6
EXPAND_DIGEST = "f64f4c90023fc320c2b7de95e81c953d33387c6ace121f427f6a92e6ec9383d2"

#: sha256 of the stdout of ``verify --suite all --format json``; stderr
#: carries the suite timings, so it stays out
VERIFY_DIGEST = "d3f7b6a8f4ded724a06fa2a02d4c71f2b8469babf9898c6cb7874d81724d48ec"


def validate_document(doc):
    jsonschema.validate(doc, SCHEMA)
    stack = [doc["payload"]]
    rationals = 0
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if set(node) >= {"num", "den"}:
                jsonschema.validate(node, RATIONAL_SCHEMA)
                rationals += 1
            else:
                stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return rationals


def test_invariants_trefoil_json(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--n", "2", "--m", "3")
    assert code == 0
    doc = json.loads(out)
    assert validate_document(doc) > 20
    beta = doc["payload"]["beta"]
    assert beta["2,1"] == {"num": "1", "den": "1", "exact_decimal": "1"}
    assert beta["6,9"]["num"] == "271"
    assert doc["payload"]["scalars"]["lissajous"] == "obstructed"
    assert doc["payload"]["scalars"]["v3"]["num"] == "0"


def test_invariants_unknot_flagged(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--n", "1", "--m", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["knot"]["unknot"] is True
    assert doc["payload"]["knot"]["canonical"] is None
    assert all(v["num"] == "0" for v in doc["payload"]["beta"].values())


def test_invariants_rejects_noncoprime(capsys):
    code, out, err = run_cli(capsys, "invariants", "--n", "2", "--m", "4")
    assert code == 2
    assert not out and "not a torus knot" in err


@pytest.mark.parametrize("command", [("invariants",), ("expand", "--family", "su2", "--j", "1")])
@pytest.mark.parametrize("n, m", [(2, 4), (0, 1), (3, 0), (-6, 9)])
def test_invalid_knot_single_message(capsys, command, n, m):
    # both handlers reject through TorusKnot.validate, before any other check
    code, out, err = run_cli(capsys, *command, "--n", str(n), "--m", str(m),
                             "--order", "-1")
    assert (code, out) == (2, "")
    assert err == (f"error: ({n}, {m}) is not a torus knot "
                   "(indices must be nonzero and coprime)\n")


def test_invariants_rejects_order_beyond_six(capsys):
    code, _, err = run_cli(capsys, "invariants", "--n", "2", "--m", "3",
                           "--order", "7")
    assert code == 3
    assert "unsupported" in err


def test_invariants_order_restriction(capsys):
    _, out, _ = run_cli(capsys, "invariants", "--n", "2", "--m", "3",
                        "--order", "3")
    doc = json.loads(out)
    assert set(doc["payload"]["beta"]) == {"2,1", "3,1"}


def test_invariants_csv_exact_strings(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--n", "2", "--m", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "table,order,slot,value"
    assert "alpha_tilde,4,3,10/3" in lines
    assert "beta,6,5,5071" in lines


def test_expand_su_n_example(capsys):
    code, out, _ = run_cli(capsys, "expand", "--family", "su_n", "--N", "2",
                           "--n", "2", "--m", "3", "--order", "2")
    assert code == 0
    doc = json.loads(out)
    validate_document(doc)
    coeffs = doc["payload"]["coefficients"]
    assert [c["num"] for c in coeffs] == ["1", "0", "-3"]


def test_expand_so_n_example(capsys):
    code, out, _ = run_cli(capsys, "expand", "--family", "so_n", "--N", "7",
                           "--n", "2", "--m", "3", "--order", "2")
    assert code == 0
    coeffs = json.loads(out)["payload"]["coefficients"]
    assert coeffs[2] == {"num": "-15", "den": "2"}


def test_expand_unknot_collapses(capsys):
    code, out, _ = run_cli(capsys, "expand", "--family", "su2", "--j", "1",
                           "--n", "1", "--m", "5")
    assert code == 0
    coeffs = json.loads(out)["payload"]["coefficients"]
    assert [c["num"] for c in coeffs] == ["1", "0", "0", "0", "0", "0", "0"]


def test_expand_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "expand", "--family", "su_n",
                           "--n", "2", "--m", "3")
    assert code == 3 and "--N" in err


def test_expand_singular_bracket_reported(capsys):
    code, _, err = run_cli(capsys, "expand", "--family", "so_n", "--N", "5",
                           "--n", "4", "--m", "5")
    assert code == 3 and "N >= n + 2" in err


def test_expand_guard_terms_flag(capsys):
    # the working width is fixed, so the option is gone and argparse rejects it
    argv = ("expand", "--family", "su_n", "--N", "3", "--n", "2", "--m", "3", "--order", "8")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--guard-terms", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --guard-terms 3" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(json.loads(out)["payload"]["coefficients"]) == 9


def test_verify_relations_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "relations")
    assert code == 0
    doc = json.loads(out)
    validate_document(doc)
    assert doc["payload"]["suites"][0]["passed"] is True
    assert doc["payload"]["violations"] == []


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 3 and "unknown suite" in err


def test_verify_bound_override(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "relations",
                           "--bound", "6")
    assert code == 0
    checks = json.loads(out)["payload"]["suites"][0]["checks"]
    assert any("n <= 6" in c["label"] for c in checks)


@pytest.mark.parametrize("bound", ["2", "-1"])
def test_verify_relations_rejects_empty_grid(capsys, bound):
    # no canonical knot has n < 3, so such a bound would check nothing
    code, out, err = run_cli(capsys, "verify", "--suite", "relations", "--bound", bound)
    assert (code, out) == (3, "")
    assert "max_n must be >= 3" in err


@pytest.mark.parametrize("option, value, message", [
    ("--order", "100000", "order 100000 unsupported (expand stops at 24)"),
    ("--order", "25", "order 25 unsupported (expand stops at 24)"),
    ("--m", "129", "knot (2, 129) unsupported (expand stops at |n|, |m| <= 128)"),
    ("--n", "-131", "knot (-131, 3) unsupported (expand stops at |n|, |m| <= 128)"),
    ("--n", "100000", "knot (100000, 3) unsupported (expand stops at |n|, |m| <= 128)"),
    ("--N", "131", "group parameter 131 unsupported (expand stops at N, j <= 130)"),
    ("--j", "100000", "group parameter 100000 unsupported (expand stops at N, j <= 130)"),
])
def test_expand_rejects_oversized_inputs(capsys, option, value, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "expand", "--family", "su_n", "--N", "3",
                             "--n", "2", "--m", "3", option, value)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_expand_admits_its_limits(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "expand", "--family", "su2", "--j", "2", "--n", "2",
                           "--m", "3", "--order", "24", "--format", "csv")
    assert code == 0 and out.count("\n") == 26
    # (3, 128) is cheap where its swap (128, 3) is not: the evaluators work at n = 3
    for family, parameters, m in (("su_n", ("--N", "130"), "128"),
                                  ("product", ("--N", "130", "--j", "130"), "-128")):
        code, out, _ = run_cli(capsys, "expand", "--family", family, *parameters,
                               "--n", "-3", "--m", m)
        assert code == 0 and json.loads(out)["payload"]["coefficients"][0]["num"] == "1"
    assert time.perf_counter() - start < 0.5


def test_expand_checks_the_knot_before_its_limits(capsys):
    # a pair that is not a knot is invalid (exit 2) whatever its size
    code, out, err = run_cli(capsys, "expand", "--family", "su2", "--j", "1",
                             "--n", "200", "--m", "400")
    assert (code, out) == (2, "") and "not a torus knot" in err


@pytest.mark.parametrize("argv, message", [
    (("scan", "--predicate", "non-integer", "--max", "101"),
     "max 101 unsupported (scan stops at 100)"),
    (("scan", "--predicate", "beta-curve", "--max", "3000", "--format", "csv"),
     "max 3000 unsupported (scan stops at 100)"),
    (("verify", "--suite", "integrality", "--bound", "301"),
     "bound 301 unsupported (verify stops at 300)"),
    (("verify", "--suite", "all", "--bound", "3000"),
     "bound 3000 unsupported (verify stops at 300)"),
    (("verify", "--suite", "v3", "--bound", "100000"),
     "bound 100000 unsupported (verify stops at 300)"),
])
def test_scan_and_verify_reject_oversized_bounds(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_scan_and_verify_admit_their_limits(capsys, monkeypatch):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "scan", "--predicate", "lissajous-obstructed",
                           "--max", str(cli.MAX_SCAN_BOUND), "--format", "csv")
    assert code == 0 and "99,2," in out
    # a stand-in for the integrality suite records the bound it is handed,
    # so only the argument handling is timed
    bounds = []

    def integrality(bound=30):
        bounds.append(bound)
        return suites.SuiteResult("integrality")

    monkeypatch.setitem(suites.SUITES, "integrality", integrality)
    code, out, _ = run_cli(capsys, "verify", "--suite", "integrality",
                           "--bound", str(cli.MAX_VERIFY_BOUND))
    assert code == 0 and json.loads(out)["command"]["arguments"]["bound"] == 300
    assert bounds == [300]
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("predicate", ["lissajous-obstructed", "non-integer", "beta-curve"])
def test_scan_max_has_one_lower_limit(capsys, predicate):
    start = time.perf_counter()
    for bound in ("-5", "1"):
        code, out, err = run_cli(capsys, "scan", "--predicate", predicate, "--max", bound)
        assert (code, out, err) == (3, "", f"error: max {bound} unsupported (scan starts at 2)\n")
    code, out, _ = run_cli(capsys, "scan", "--predicate", predicate, "--max", "2")
    assert code == 0 and json.loads(out)["command"]["arguments"]["max"] == 2
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("suite", ["v3", "trefoil", "closed-forms"])
def test_verify_bound_rejected_by_a_suite_without_one(capsys, suite):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--bound", "-7")
    assert (code, out) == (3, "")
    assert err == (f"error: suite {suite} takes no bound; only relations, distinguishing, "
                   "integrality do\n")
    assert time.perf_counter() - start < 0.5


def test_verify_all_applies_the_bound_to_the_bounded_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--bound", "8")
    assert code == 0
    labels = {s["suite"]: [c["label"] for c in s["checks"]]
              for s in json.loads(out)["payload"]["suites"]}
    assert len(labels) == len(suites.SUITES)
    assert any("canonical knots n <= 8" in label for label in labels["relations"])
    assert any("(n <= 8)" in label for label in labels["distinguishing"])
    assert any("|n|,|m| <= 8" in label for label in labels["integrality"])


def test_verify_all_divides_no_series(capsys):
    # the package has no series quotient, and with no kernel or plan built
    # every suite passes: the acceptance path builds all it needs from
    # products and exponentials of series
    assert not hasattr(TruncSeries, "__truediv__")
    for cache in (invariants._kernel, extract._plan, extract._ready):
        cache.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0


def test_suite_signatures_show_their_bounds():
    # each bounded suite's default stays under the CLI limit, and the bound
    # keyword names one of its parameters
    for name, keyword in suites._BOUND_KEYWORDS.items():
        parameters = inspect.signature(suites.SUITES[name]).parameters
        assert keyword in parameters, name
        assert 3 <= parameters[keyword].default <= cli.MAX_VERIFY_BOUND, name


def test_verify_all_checks_the_bound_before_any_suite(capsys, monkeypatch):
    # stand-ins record which suites run: a bound below a bounded suite's
    # floor (analysis.SCAN_FLOORS) is rejected before the first of them, with
    # the message that suite's scan gives
    ran = []

    def stand_in(name):
        def suite(**bound):
            ran.append(name)
            return suites.SuiteResult(name)
        return suite

    for name in list(suites.SUITES):
        monkeypatch.setitem(suites.SUITES, name, stand_in(name))
    for bound in ("2", "-1"):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--bound", bound)
        assert (code, out, err) == (3, "", "error: max_n must be >= 3\n")
    assert ran == []
    floor = max(analysis.SCAN_FLOORS.values())
    code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--bound", str(floor))
    assert code == 0 and ran == list(suites.SUITES)


def test_verify_distinguishing_rejects_empty_grid(capsys):
    # no canonical knot has n < 3, so --bound 2 would compare no knots
    code, out, err = run_cli(capsys, "verify", "--suite", "distinguishing", "--bound", "2")
    assert (code, out) == (3, "")
    assert "max_n must be >= 3" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", [("--suite", "v3"),
                                  ("--suite", "distinguishing", "--bound", "8")])
def test_verify_output_deterministic(capsys, monkeypatch, argv, fmt):
    # a clock whose readings drift further apart gives every run other timings;
    # the distinguishing suite asserts a time gate
    readings = itertools.count()
    monkeypatch.setattr(suites.time, "perf_counter", lambda: next(readings) ** 2)
    first, second = (run_cli(capsys, "verify", *argv, "--format", fmt) for _ in range(2))
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert first[2] != second[2]  # the timings go to stderr


def test_verify_failure_names_first_check(capsys, monkeypatch):
    # harness self-test: inject a failing suite and confirm exit 1 plus naming
    from torusvass import cli as cli_module
    from torusvass.suites import SuiteResult

    def broken(bound=None):
        result = SuiteResult("injected")
        result.add("sign of beta_{3,1}", False, "flipped sign")
        return [result]

    monkeypatch.setattr(cli_module, "run_suite", lambda name, bound: broken())
    monkeypatch.setitem(cli_module.SUITES, "injected", broken)
    code, out, err = run_cli(capsys, "verify", "--suite", "injected")
    assert code == 1
    assert "sign of beta_{3,1}" in err
    doc = json.loads(out)
    assert doc["payload"]["violations"][0]["label"] == "sign of beta_{3,1}"


def test_scan_lissajous(capsys):
    code, out, _ = run_cli(capsys, "scan", "--predicate", "lissajous-obstructed",
                           "--max", "10")
    assert code == 0
    doc = json.loads(out)
    validate_document(doc)
    knots = {(k["n"], k["m"]) for k in doc["payload"]["knots"]}
    assert {(3, 2), (5, 2), (4, 3)} <= knots


def test_scan_non_integer_includes_22(capsys):
    code, out, _ = run_cli(capsys, "scan", "--predicate", "non-integer",
                           "--max", "6")
    assert code == 0
    doc = json.loads(out)
    witnesses = doc["payload"]["noncoprime_witnesses"]
    assert any(w["n"] == 2 and w["m"] == 2 and w["value"] == {"num": "3", "den": "8"}
               for w in witnesses)
    assert doc["payload"]["coprime_violations"] == []


def test_scan_beta_curve_csv(capsys):
    code, out, _ = run_cli(capsys, "scan", "--predicate", "beta-curve",
                           "--max", "20", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,beta_2_1,beta_3_1"
    assert "3,2,1,1" in lines


def test_scan_csv_keeps_each_denominator(capsys, monkeypatch):
    # a wider beta_{3,1} denominator makes the values fractions; the CSV must
    # carry the same values as the JSON, the trefoil's 1/2 included
    monkeypatch.setitem(BETA_DENOMINATORS, (3, 1), 288)
    argv = ("scan", "--predicate", "beta-curve", "--max", "5")
    _, out, _ = run_cli(capsys, *argv)
    from_json = {(p["n"], p["m"]): Fraction(int(p["beta_3_1"]["num"]), int(p["beta_3_1"]["den"]))
                 for p in json.loads(out)["payload"]["points"]}
    _, out, _ = run_cli(capsys, *argv, "--format", "csv")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    from_csv = {(int(n), int(m)): Fraction(b31) for n, m, _, b31 in rows}
    assert from_csv == from_json and from_csv[(3, 2)] == Fraction(1, 2)


def test_scan_unknown_predicate(capsys):
    code, _, err = run_cli(capsys, "scan", "--predicate", "bogus", "--max", "5")
    assert code == 3 and "unknown predicate" in err


def test_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "invariants", "--n", "3", "--m", "4")
    _, second, _ = run_cli(capsys, "invariants", "--n", "3", "--m", "4")
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code, out, _ = run_cli(capsys, "invariants", "--n", "2", "--m", "5",
                           "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["payload"]["beta"]["2,1"]["num"] == "3"


@pytest.mark.parametrize("argv", [
    *(("invariants", "--n", "2", "--m", "3", "--format", fmt) for fmt in ("json", "csv", "table")),
    *(("expand", "--family", "so_n", "--N", "7", "--n", "2", "--m", "-5", "--format", fmt)
      for fmt in ("json", "csv", "table")),
    *(("verify", "--suite", "v3", "--format", fmt) for fmt in ("json", "text")),
    *(("scan", "--predicate", "beta-curve", "--max", "6", "--format", fmt)
      for fmt in ("json", "csv")),
])
def test_out_file_is_the_stdout_document(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "doc"
    assert run_cli(capsys, *argv, "--out", str(target))[:2] == (0, "")
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("target, reason", [("missing/doc.json", errno.ENOENT),
                                            (".", errno.EISDIR)])
def test_out_to_an_unwritable_path_exits_3(tmp_path, capsys, target, reason):
    path = str(tmp_path / target)
    code, out, err = run_cli(capsys, "invariants", "--n", "2", "--m", "3", "--out", path)
    assert (code, out, err) == (3, "", f"error: cannot write {path}: {os.strerror(reason)}\n")


@pytest.mark.parametrize("argv", [
    ("invariants", "--n", "2", "--m", "3", "--out", ""),
    ("invariants", "--n", "2", "--m", "3", "--out="),
    ("scan", "--predicate", "beta-curve", "--max", "6", "--format", "csv", "--out", ""),
], ids=["table-read", "argparse", "scan"])
def test_out_to_an_empty_path_exits_3(capsys, argv):
    # an empty --out names no file, and is not stdout: nothing is written,
    # and the answer is not kept
    for _ in range(2):
        assert run_cli(capsys, *argv) == (
            3, "", f"error: cannot write '': {os.strerror(errno.ENOENT)}\n")
    assert kept_lines() == []
    if argv[0] == "scan":
        assert kept() == ([], 0)


def test_out_to_a_fifo_with_no_reader_exits_3_at_once(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    proc = subprocess.run([sys.executable, "-m", "torusvass.cli", "invariants", "--n", "2",
                           "--m", "3", "--out", str(fifo)], capture_output=True, text=True,
                          env=module_env(), timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", f"error: cannot write {fifo}: {os.strerror(errno.ENXIO)}\n")
    # a slow reader gets the whole of a document larger than the pipe's
    # buffer: the write blocks, and does not fail with EAGAIN.  The reader
    # opens first, without blocking, and reads nothing while no writer holds
    # the FIFO
    bound = cli.MAX_INVARIANTS_INDEX
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with subprocess.Popen([sys.executable, "-m", "torusvass.cli", "invariants",
                               "--n", str(bound), "--m", str(bound - 1), "--out", str(fifo)],
                              stderr=subprocess.PIPE, env=module_env()) as proc:
            os.set_blocking(reader, True)
            received = bytearray()
            while True:
                chunk = os.read(reader, 2 ** 16)
                if chunk and not received:
                    time.sleep(0.2)
                received += chunk
                if not chunk:
                    if proc.poll() is not None:
                        break
                    time.sleep(0.01)
            assert (proc.wait(timeout=10), proc.stderr.read()) == (0, b"")
    finally:
        os.close(reader)
    document = invariants_oracle(bound, bound - 1, 6, "json")
    assert len(document) > 2 ** 16 and received == document.encode()


def test_closed_pipe_ends_quietly():
    # the document is far larger than a pipe buffer, so the writer is still
    # writing when the reader takes one line and closes the pipe
    with subprocess.Popen([sys.executable, "-m", "torusvass.cli", "scan", "--predicate",
                           "beta-curve", "--max", "100"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=module_env()) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), first, err) == (0, b"{\n", b"")


@pytest.mark.parametrize("argv, code", [(["verify", "--suite", "v3"], 0),
                                        (["invariants", "--n", "2", "--m", "4"], 2)])
def test_a_closed_shared_pipe_keeps_the_exit_status(argv, code):
    # stdout and stderr share one pipe whose reader is gone before the first
    # write (``2>&1 | head``): the document, verify's timing lines and main's
    # error line each end quietly, and the exit status is the command's own
    with subprocess.Popen([sys.executable, "-m", "torusvass.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          env=module_env()) as proc:
        proc.stdout.close()
        assert proc.wait() == code


def test_a_stray_value_error_is_not_an_exit_code(capsys, monkeypatch):
    # only TorusVassError maps to an exit code; any other error is a bug
    def broken(knot):
        raise ValueError("stray")

    monkeypatch.setattr(cli, "closed_form_beta", broken)
    with pytest.raises(ValueError, match="stray") as exc:
        main(["invariants", "--n", "2", "--m", "3"])
    assert type(exc.value) is ValueError
    assert capsys.readouterr() == ("", "")


#: the error line of an invariants request above MAX_INVARIANTS_INDEX
INDEX_ERROR = "error: knot index unsupported (invariants stops at |n|, |m| <= 10^300)\n"


def invariants_oracle(n, m, order, fmt):
    """The reference invariants document of (n, m), built per request from
    the Fraction tables: json through cli._render, csv and table as f-string
    rows."""
    knot = TorusKnot(n, m)
    canonical = canonicalize(n, m)
    is_unknot = canonical is UNKNOT
    tables = {"alpha_tilde": closed_form_alpha_tilde(knot).entries,
              "alpha": closed_form_alpha(knot).entries, "beta": closed_form_beta(knot).entries}
    aux = auxiliary_scalars(knot)
    scalars = {"gordian": aux.gordian, "curve_residual": aux.curve_residual,
               "lissajous": lissajous_obstruction(knot)}
    if is_v3_applicable(knot):
        scalars["v3"] = aux.v3
    slots = [slot for slot in ALL_SLOTS if slot[0] <= order]
    if fmt == "json":
        payload = {
            "knot": {"n": n, "m": m, "unknot": is_unknot,
                     "canonical": None if is_unknot else {"n": canonical.n, "m": canonical.m}},
            **{name: {f"{i},{j}": entries[(i, j)] for i, j in slots}
               for name, entries in tables.items()},
            "scalars": scalars,
        }
        return cli._render({"schema_version": cli.SCHEMA_VERSION,
                            "command": {"name": "invariants", "arguments": {
                                "n": n, "m": m, "order": order, "format": fmt}},
                            "payload": payload}) + "\n"
    if fmt == "csv":
        lines = ["table,order,slot,value"]
        lines += [f"{name},{i},{j},{entries[(i, j)]}"
                  for name, entries in tables.items() for i, j in slots]
        lines += [f"scalar,{name},,{value}" for name, value in scalars.items()]
        return "\n".join(lines) + "\n"
    tilde, alpha, beta = tables.values()
    lines = [f"torus knot ({n}, {m})" + ("  [unknot]" if is_unknot else
                                         f"  [canonical ({canonical.n}, {canonical.m})]")]
    lines.append(f"{'slot':>8} {'alpha_tilde':>16} {'alpha':>16} {'beta':>12}")
    lines += [f"{f'({i},{j})':>8} {str(tilde[(i, j)]):>16} "
              f"{str(alpha[(i, j)]):>16} {str(beta[(i, j)]):>12}" for i, j in slots]
    lines.append(f"gordian = {scalars['gordian']}, curve residual = "
                 f"{scalars['curve_residual']}, lissajous: {scalars['lissajous']}"
                 + (f", v3 = {scalars['v3']}" if "v3" in scalars else ""))
    return "\n".join(lines) + "\n"


def fresh_cache(monkeypatch, budget=cli.CACHE_BYTES):
    """Give main an empty cache of the given budget."""
    monkeypatch.setattr(cli, "_cache", cli._Cache(budget))


def kept():
    """The keys the cache keeps, least recent first, and the size it counts."""
    return list(cli._cache.entries), cli._cache.size


def kind(key) -> str:
    """Which kind of entry the cache keeps under key."""
    if type(key) is TorusKnot:
        return "knot"
    if type(key[0]) is GroupInstance:
        return "coefficient text"
    assert key[0] in cli._KEPT, key
    return "answer"


def kept_lines():
    """The command lines whose answers the cache keeps, least recent first."""
    return [key for key in cli._cache.entries if kind(key) == "answer"]


#: the trefoil, its mirror, two unknots, the largest knot CI runs, and a knot
#: at MAX_INVARIANTS_INDEX, whose values are the widest the cache keeps
CACHED_KNOTS = [(2, 3), (2, -3), (1, 5), (-1, 7), (97, 98),
                pytest.param(cli.MAX_INVARIANTS_INDEX, cli.MAX_INVARIANTS_INDEX - 1,
                             id="index-bound")]


@pytest.mark.parametrize("n, m", CACHED_KNOTS)
def test_a_cached_knot_answers_like_a_cold_one(tmp_path, capsys, monkeypatch, n, m):
    argvs = [("invariants", "--n", str(n), "--m", str(m), "--order", str(order),
              "--format", fmt) for fmt in ("json", "csv", "table") for order in range(7)]
    knot = TorusKnot(n, m)
    expected = {argv: (0, invariants_oracle(n, m, int(argv[6]), argv[8]), "")
                for argv in argvs}
    for argv in argvs:
        fresh_cache(monkeypatch)
        assert run_cli(capsys, *argv) == expected[argv], argv
        assert kept()[0] == [knot, argv], argv
    # each line new to the cache is rendered from the knot's kept values,
    # which are not computed again, then answered from its kept answer, to
    # stdout and through --out
    monkeypatch.setattr(cli, "closed_form_alpha_tilde", None)
    target = tmp_path / "doc"
    lines = set()
    for argv in argvs + argvs[::-1]:
        assert run_cli(capsys, *argv) == expected[argv], argv
        target.unlink(missing_ok=True)
        assert run_cli(capsys, *argv, "--out", str(target))[:2] == (0, ""), argv
        assert target.read_bytes() == expected[argv][1].encode("utf-8"), argv
        lines |= {argv, argv + ("--out", str(target))}
    # the knot's values and every line's answer are kept, at
    # MAX_INVARIANTS_INDEX too
    keys, size = kept()
    assert knot in keys and set(keys) - {knot} == lines and size <= cli.CACHE_BYTES


def test_the_cached_values_are_read_only(capsys):
    argv = ("invariants", "--n", "2", "--m", "3")
    run_cli(capsys, *argv)
    knot = TorusKnot(2, 3)
    assert kept()[0] == [knot, argv]
    entry = cli._knot_values(knot)
    assert entry is cli._cache.entries[knot][0]
    canonical, tables, scalars = entry
    assert canonical == (3, 2) and [len(table) for table in tables] == [len(ALL_SLOTS)] * 3
    assert [name for name, _ in scalars] == ["gordian", "curve_residual", "lissajous", "v3"]
    fields, stack = 0, [entry, cli._cache.entries[argv][0]]
    while stack:
        field = stack.pop()
        fields += 1
        # no attribute can be set on any field, str subclasses included
        assert type(field) in (str, int, Fraction, tuple, cli._Answer, type(None)), type(field)
        assert not hasattr(field, "__dict__"), type(field)
        if isinstance(field, tuple):
            stack.extend(field)
    assert fields > 70
    with pytest.raises(AttributeError):
        cli._cache.entries[argv][0].text = ""
    # reading the knot's values made them the most recent
    assert kept()[0] == [argv, knot]


def test_rejections_are_never_cached(capsys):
    run_cli(capsys, "invariants", "--n", "2", "--m", "3")
    warm = kept()
    for _ in range(2):
        assert run_cli(capsys, "invariants", "--n", "2", "--m", "4") == (
            2, "", "error: (2, 4) is not a torus knot (indices must be nonzero and coprime)\n")
        assert run_cli(capsys, "invariants", "--n", "2", "--m", "3", "--order", "7") == (
            3, "", "error: order 7 unsupported (tables stop at 6)\n")
        # one above the index bound, 10^359 + 1 (once a traceback) and an
        # index of 4,300 digits, the widest that parses, in every format
        for n, m in ((cli.MAX_INVARIANTS_INDEX + 1, 2), (3, -cli.MAX_INVARIANTS_INDEX - 1),
                     (10 ** 359 + 1, 10 ** 359 + 2), (int("1" * 4300), 10)):
            for fmt in ("json", "csv", "table"):
                assert run_cli(capsys, "invariants", "--n", str(n), "--m", str(m),
                               "--format", fmt) == (3, "", INDEX_ERROR), (n, m, fmt)
    assert kept() == warm


#: one group of each family, as expand's options
EXPAND_FAMILIES = (("su_n", "--N", "3"), ("so_n", "--N", "7"), ("su2", "--j", "2"),
                   ("product", "--N", "2", "--j", "1"))


@pytest.mark.parametrize("family", EXPAND_FAMILIES, ids=lambda family: family[0])
def test_kept_coefficient_text_answers_like_a_cold_cache(capsys, monkeypatch, family):
    argvs = [("expand", "--family", *family, "--n", "3", "--m", "-7", "--order", str(order),
              "--format", fmt) for order in (6, 12, 6, 24) for fmt in ("json", "csv", "table")]
    cold = {}
    for argv in argvs:
        fresh_cache(monkeypatch)
        cold[argv] = run_cli(capsys, *argv)
        assert cold[argv][0] == 0, cold[argv]
    fresh_cache(monkeypatch)
    series = cli.normalized_series
    orders = []
    monkeypatch.setattr(cli, "normalized_series",
                        lambda knot, group, order: orders.append(order) or series(knot, group, order))
    widths = []
    for argv in argvs:
        assert run_cli(capsys, *argv) == cold[argv], argv
        (((group, knot), (text, _)),) = cli._cache.entries.items()
        assert (group.family.value, knot) == (family[0], TorusKnot(3, -7))
        widths.append(text.count(" "))
    # the series is taken once at each wider order; a narrower one reads the
    # strings kept at 12
    assert orders == [6, 12, 24]
    assert widths == [6] * 3 + [12] * 6 + [24] * 3


def test_expand_rejections_keep_no_coefficient_text(capsys):
    run_cli(capsys, "expand", "--family", "so_n", "--N", "9", "--n", "7", "--m", "9")
    warm = list(cli._cache.entries.items())
    assert len(warm) == 1
    for argv, code, error in (
            (("so_n", "--N", "6", "--n", "7", "--m", "9"), 3,
             "so_n sampling needs N >= n + 2 = 9 (got N=6): a required bracket [p;1] would "
             "have vanishing leading term"),
            (("product", "--N", "2", "--n", "7", "--m", "9"), 3, "--family product needs --j"),
            (("so_n", "--N", "9", "--n", "7", "--m", "9", "--order", "25"), 3,
             "order 25 unsupported (expand stops at 24)"),
            (("su2", "--j", "1", "--n", "2", "--m", "129"), 3,
             "knot (2, 129) unsupported (expand stops at |n|, |m| <= 128)"),
            (("so_n", "--N", "9", "--n", "6", "--m", "9"), 2,
             "(6, 9) is not a torus knot (indices must be nonzero and coprime)")):
        for _ in range(2):
            assert run_cli(capsys, "expand", "--family", *argv) == (
                code, "", f"error: {error}\n"), argv
    assert list(cli._cache.entries.items()) == warm


def test_the_knot_cache_stays_bounded(capsys, monkeypatch):
    # more knots than a budget of 64 KiB holds: the least recent go first
    fresh_cache(monkeypatch, 64 * 2 ** 10)
    knots = [TorusKnot(2, m) for m in range(1, 60, 2)]
    for knot in knots:
        assert run_cli(capsys, "invariants", "--n", str(knot.n), "--m", str(knot.m),
                       "--format", "csv")[0] == 0
        cache = cli._cache
        assert cache.size == sum(size for _, size in cache.entries.values()) <= cache.budget
    kept_knots = [key for key in cli._cache.entries if kind(key) == "knot"]
    assert 1 < len(kept_knots) < len(knots) and kept_knots == knots[-len(kept_knots):]


def test_invariants_renders_every_format_at_its_index_bound(capsys):
    bound = cli.MAX_INVARIANTS_INDEX
    assert bound == 10 ** 300
    for n, m in ((bound, bound - 1), (1 - bound, -bound)):
        for fmt in ("json", "csv", "table"):
            code, out, err = run_cli(capsys, "invariants", "--n", str(n), "--m", str(m),
                                     "--format", fmt)
            assert (code, err) == (0, "") and str(bound - 1) in out, (n, m, fmt)


def test_invariants_checks_the_knot_and_the_order_before_the_index(capsys):
    above = cli.MAX_INVARIANTS_INDEX + 1
    code, out, err = run_cli(capsys, "invariants", "--n", str(2 * above), "--m", "4")
    assert (code, out) == (2, "") and err.endswith("is not a torus knot (indices must be "
                                                   "nonzero and coprime)\n")
    assert run_cli(capsys, "invariants", "--n", str(above), "--m", "2", "--order", "7") == (
        3, "", "error: order 7 unsupported (tables stop at 6)\n")
    assert kept() == ([], 0)


@pytest.mark.parametrize("family, parameters, unused", [
    ("su_n", {"N": 3}, "j"), ("so_n", {"N": 7}, "j"), ("su2", {"j": 2}, "N")])
def test_each_family_rejects_the_parameter_it_does_not_take(capsys, family, parameters,
                                                             unused):
    with pytest.raises(UnsupportedInput, match=f"^{family} takes no {unused}$"):
        GroupInstance(Family(family), **parameters, **{unused: 2})
    flags = [f"--{name}={value}" for name, value in {**parameters, unused: 2}.items()]
    code, out, err = run_cli(capsys, "expand", "--family", family, *flags,
                             "--n", "2", "--m", "3")
    assert (code, out, err) == (3, "", f"error: {family} takes no {unused}\n")


SUITE_CHOICES = ("closed-forms, alpha, g-tables, trefoil, relations, distinguishing, "
                 "integrality, v3, cross-family, unit-symmetry, all")


@pytest.mark.parametrize("argv, message", [
    (("invariants", "--n", "2", "--m", "3", "--order", "-1"), "order -1 unsupported"),
    (("expand", "--family", "su_n", "--N", "3", "--n", "2", "--m", "3", "--order", "-1"),
     "order -1 unsupported"),
    (("expand", "--family", "su2", "--j", "1", "--n", "2", "--m", "129"),
     "knot (2, 129) unsupported (expand stops at |n|, |m| <= 128)"),
    (("expand", "--family", "su2", "--j", "131", "--n", "2", "--m", "3"),
     "group parameter 131 unsupported (expand stops at N, j <= 130)"),
    (("expand", "--family", "su_n", "--n", "2", "--m", "3"), "--family su_n needs --N"),
    (("expand", "--family", "so_n", "--j", "1", "--n", "2", "--m", "3"),
     "--family so_n needs --N"),
    (("expand", "--family", "su2", "--n", "2", "--m", "3"), "--family su2 needs --j"),
    (("expand", "--family", "product", "--n", "2", "--m", "3"),
     "--family product needs --N and --j"),
    (("expand", "--family", "product", "--N", "2", "--n", "2", "--m", "3"),
     "--family product needs --j"),
    (("expand", "--family", "su_n", "--N", "1", "--n", "2", "--m", "3"), "su_n needs N >= 2"),
    (("expand", "--family", "so_n", "--N", "4", "--n", "2", "--m", "3"), "so_n needs N >= 5"),
    (("expand", "--family", "su2", "--j", "0", "--n", "2", "--m", "3"), "su2 needs j >= 1"),
    (("expand", "--family", "product", "--N", "1", "--j", "0", "--n", "2", "--m", "3"),
     "product needs N >= 2"),
    (("expand", "--family", "product", "--N", "2", "--j", "0", "--n", "2", "--m", "3"),
     "product needs j >= 1"),
    (("verify", "--suite", "nonsense"), f"unknown suite 'nonsense'; choose from {SUITE_CHOICES}"),
    (("verify", "--suite", "all", "--bound", "301"),
     "bound 301 unsupported (verify stops at 300)"),
    (("verify", "--suite", "v3", "--bound", "3"),
     "suite v3 takes no bound; only relations, distinguishing, integrality do"),
    (("verify", "--suite", "relations", "--bound", "2"), "max_n must be >= 3"),
    (("verify", "--suite", "distinguishing", "--bound", "2"), "max_n must be >= 3"),
    (("verify", "--suite", "integrality", "--bound", "1"), "bound must be >= 2"),
    (("scan", "--predicate", "knotted", "--max", "5"),
     "unknown predicate 'knotted'; choose from lissajous-obstructed, non-integer, beta-curve"),
    (("scan", "--predicate", "beta-curve", "--max", "1"), "max 1 unsupported (scan starts at 2)"),
    (("scan", "--predicate", "beta-curve", "--max", "101"),
     "max 101 unsupported (scan stops at 100)"),
    (("invariants", "--n", "2", "--m", "3", "--order", "7"),
     "order 7 unsupported (tables stop at 6)"),
])
def test_every_unsupported_input_exits_3_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_console_entry_point():
    proc = run_module("invariants", "--n", "2", "--m", "7")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["beta"]["2,1"]["num"] == "6"


def test_version_flag():
    proc = run_module("--version")
    assert proc.returncode == 0 and "torusvass" in proc.stdout


@pytest.mark.parametrize("argv", [
    ("invariants", "--n", "2", "--m", "3", "--format", "xml"),
    ("invariants", "--n", "two", "--m", "3"),
    ("verify",),
    ("invariants", "--n", "1" + "0" * 4300, "--m", "3"),
], ids=["format-choice", "non-integer-n", "missing-suite", "index-over-4300-digits"])
def test_command_line_errors_exit_2_after_a_usage_line(capsys, argv):
    # argparse shares exit code 2 with NotAKnot, and prints its usage first
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exited.value.code, captured.out) == (2, "")
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: torusvass ") and "error:" in lines[-1]


def answer(capsys, argv):
    """(exit code, stdout, stderr) of main, argparse's own exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exited:
        code = exited.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_line_of_more_than_max_words_exits_2_before_any_parse(capsys, monkeypatch):
    head = ("scan", "--predicate", "beta-curve")
    at_bound = head + ("--max=6",) * (cli.MAX_WORDS - len(head))
    text = cli._scan_text("beta-curve", 6, "json") + "\n"
    assert answer(capsys, at_bound) == (0, text, "")
    warm = kept()
    assert warm[0] == [at_bound]

    def parse(words):
        raise AssertionError("parsed")

    monkeypatch.setattr(cli, "_parse", parse)
    # one word above the bound, and a line argparse alone would take seconds
    # over (20,000 words)
    for words in (at_bound + ("--max=6",), head + ("--max", "6") * 10_000):
        code, out, err = answer(capsys, words)
        assert (code, out) == (2, ""), len(words)
        lines = err.splitlines()
        assert lines[0].startswith("usage: torusvass ") and lines[-1] == (
            f"torusvass: error: {len(words)} words on the command line "
            f"(at most {cli.MAX_WORDS})")
    assert kept() == warm


#: odd values for any option: negative numbers of each kind and words that
#: look like them, empty and padded text, a full-width digit, an underscore,
#: the words argparse reads as options or the separator, a value outside
#: every choice and an int of more than 4,300 digits
ODD_VALUES = ("-3", "-1.5", "-1e3", "-1.", "", " 3", "\uff13", "1_000", "-", "--", "-h", "xml",
              "1" + "0" * 4300)

#: command lines on which main's parse must equal parse_args: argparse's
#: own exits, help and version at each level, the "--" separator before,
#: between and after options, abbreviations, "=" forms, repeated options,
#: stray words, and each odd value as an int, as a choice and as a path
PARSE_CORPUS = (
    (), ("-h",), ("--help",), ("--version",), ("bogus",), ("--", "invariants"),
    ("--n", "2", "invariants"), ("invariants",), ("invariants", "-h"), ("expand", "--help"),
    ("invariants", "--n", "2", "--m", "3"), ("invariants", "--n", "2", "--m", "3", "--version"),
    ("invariants", "--n", "2", "--m", "3", "7"), ("invariants", "--n", "2", "--m", "3", "7", "-q"),
    ("invariants", "--", "--n", "2", "--m", "3"), ("invariants", "--n", "2", "--", "--m", "3"),
    ("invariants", "--n", "2", "--m", "3", "--"), ("invariants", "--n=2", "--m=-3"),
    ("invariants", "--n", "-2", "--m", "3", "--ord", "4"),
    ("expand", "--fam", "su2", "--j", "1", "--n", "2", "--m", "3"),
    ("expand", "--family", "product", "--N=2", "--j", "1", "--n", "2", "--m", "3", "--format",
     "table", "--out", "-"),
    ("invariants", "--n", "2", "--m", "3", "--format", "xml"),
    ("scan", "--predicate", "beta-curve", "--max", "6", "--max", "7"),
    ("invariants", "-x"), ("invariants", "--n"), ("invariants", "--n", "2", "--m", "3", "-h"),
    ("invariants", "--=2"), ("verify", "--suite", "v3", "--=x"), ("verify",),
    ("verify", "--suite", "v3", "--bound", "3", "--format", "text"), ("scan", "--h"),
    ("scan", "--predicate", "beta-curve", "--max", "6", "--help", "--version"),
    ("invariants", "--n", "2", "--m", "3", "--out", ""), ("verify", "--suite", "-3"),
    *(("invariants", "--n", value, "--m", "3") for value in ODD_VALUES),
    *(("invariants", "--n", "2", "--m", "3", "--out", value) for value in ODD_VALUES),
    *(("scan", "--predicate", "beta-curve", "--max", "6", "--format", value)
      for value in ODD_VALUES),
)


def parsed(parse, argv) -> tuple:
    """(namespace or None, exit code or None, stdout, stderr) of one parse."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            args, code = parse(argv), None
        except SystemExit as exited:
            args, code = None, exited.code
    return args, code, out.getvalue(), err.getvalue()


def fresh_parse(argv) -> argparse.Namespace:
    """parse_args of a parser built for this line alone."""
    return cli.build_parser.__wrapped__().parse_args(argv)


def line_id(argv) -> str:
    """A command line's test id: its words, each longer than 40 characters
    by its length alone."""
    return " ".join(word if len(word) <= 40 else f"<{len(word)} chars>" for word in argv)


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=line_id)
def test_one_parse_equals_parse_args(argv):
    assert parsed(cli._parse, argv) == parsed(fresh_parse, argv)


@st.composite
def command_lines(draw):
    """A command, its required options and some others, in any order, each
    an exact option word and a value it takes; then up to two odd values,
    and up to two options abbreviated, spelled --opt=value, repeated or left
    out."""
    name = draw(st.sampled_from(tuple(cli._COMMANDS)))
    options = cli._COMMANDS[name].options
    takes = {int: ("2", "-5", "7"), None: ("v3", "beta-curve", "doc")}
    pairs = draw(st.permutations([
        [word, draw(st.sampled_from(option.choices or takes[option.type]))]
        for word, option in options.items() if option.required or draw(st.booleans())]))
    for _ in range(draw(st.integers(0, 2))):
        draw(st.sampled_from(pairs))[1] = draw(st.sampled_from(ODD_VALUES))
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, len(pairs) - 1))
        pair = pairs[index]
        change = draw(st.sampled_from(("abbreviate", "equals", "repeat", "drop")))
        if change == "abbreviate" and len(pair) == 2:
            pair[0] = pair[0][:draw(st.integers(2, max(2, len(pair[0]) - 1)))]
        elif change == "equals" and len(pair) == 2:
            pairs[index] = ["=".join(pair)]
        elif change == "repeat":
            pairs.insert(draw(st.integers(0, len(pairs))), list(pair))
        elif change == "drop" and len(pairs) > 1:
            del pairs[index]
    return (name, *itertools.chain.from_iterable(pairs))


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(("expand", "--family", "su2", "--j", "-3", "--n", "\uff13", "--m", " 3", "--order",
          "1_000"))
@example(("invariants", "--n", "2", "--m", "3", "--m", "-1e3"))
@example(("scan", "--max=-1.5", "--predicate", "--"))
def test_a_table_read_equals_parse_args(argv):
    # the namespace, exit code, stdout and stderr of main's parse are a fresh
    # parser's, on either path
    assert parsed(cli._parse, argv) == parsed(fresh_parse, argv)


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # a line the table reads builds no ArgumentParser and calls no
    # parse_known_args; the first help or rejection line builds the parser
    # once, and later ones reuse it
    built, parses = [], []
    init, parse_known = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_known_args

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counted_parse(self, *args, **kwargs):
        parses.append(self.prog)
        return parse_known(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted_parse)
    cli.build_parser.cache_clear()
    for argv in (("invariants", "--n", "2", "--m", "3"), ("invariants", "--n", "-2", "--m", "5"),
                 ("expand", "--family", "su2", "--j", "2", "--n", "2", "--m", "3"),
                 ("scan", "--predicate", "beta-curve", "--max", "4", "--format", "csv")):
        assert answer(capsys, argv)[0] == 0, argv
    assert cli._parse(("verify", "--suite", "v3", "--bound", "4", "--format", "text")).bound == 4
    assert (built, parses) == ([], [])
    for argv in (("invariants", "--n", "2", "--m", "3", "--format", "xml"), ("--version",),
                 ("scan", "--help"), ("invariants", "--n=2", "--m", "3")):
        answer(capsys, argv)
    assert built == ["torusvass"] + [f"torusvass {name}" for name in cli._COMMANDS]


#: command lines argparse answers itself, through SystemExit
ARGPARSE_EXITS = (("invariants", "--n", "2", "--m", "3", "--format", "xml"),
                  ("invariants", "--n", "two", "--m", "3"), ("verify",), ("--help",),
                  ("invariants", "--help"), ("--version",))


def test_only_a_successful_parse_is_kept(capsys):
    run_cli(capsys, "invariants", "--n", "2", "--m", "3")
    warm = kept()
    for argv in ARGPARSE_EXITS * 2:
        code, out, err = answer(capsys, argv)
        assert code == (0 if argv[-1] in ("--help", "--version") else 2), argv
        assert kept() == warm, argv
    # a repeat prints its usage, help or version again
    assert answer(capsys, ARGPARSE_EXITS[0])[2].startswith("usage: torusvass ")
    assert "torusvass" in answer(capsys, ("--version",))[1]


def test_the_answer_cache_stays_bounded(capsys, monkeypatch):
    # a budget that a few of these answers fill: the least recent go first
    fresh_cache(monkeypatch, 64 * 2 ** 10)
    lines = [("scan", "--predicate", "beta-curve", "--max", str(bound), "--format", "csv")
             for bound in range(2, 41)]
    for argv in lines:
        assert run_cli(capsys, *argv)[0] == 0
        cache = cli._cache
        assert cache.size == sum(size for _, size in cache.entries.values()) <= cache.budget
    warm = kept()[0]
    assert 1 < len(warm) < len(lines) and warm == lines[-len(warm):]
    # a hit makes its line the most recent
    assert run_cli(capsys, *warm[0])[0] == 0
    assert kept()[0] == warm[1:] + warm[:1]


@pytest.mark.parametrize("argv, code, error", [
    (("invariants", "--n", "2", "--m", "4"), 2,
     "error: (2, 4) is not a torus knot (indices must be nonzero and coprime)\n"),
    (("invariants", "--n", "2", "--m", "3", "--order", "9"), 3,
     "error: order 9 unsupported (tables stop at 6)\n"),
])
def test_a_handler_rejection_repeats_after_a_cached_parse(capsys, argv, code, error):
    # argparse accepts these lines and the handler rejects them, every time
    run_cli(capsys, "invariants", "--n", "2", "--m", "3")
    warm = kept()
    for _ in range(3):
        assert run_cli(capsys, *argv) == (code, "", error)
    assert kept() == warm


def test_expand_lines_do_not_evict_kept_answers(capsys, monkeypatch):
    # expand lines rarely repeat: more of them than the 256 lines a parse
    # cache once held must leave the repeating invariants and scan answers
    warm = {argv: run_cli(capsys, *argv) for argv in (
        ("invariants", "--n", "2", "--m", "3", "--format", "csv"),
        ("scan", "--predicate", "beta-curve", "--max", "6", "--format", "csv"))}
    assert all(code == 0 for code, _, _ in warm.values())
    for k in range(257):
        assert run_cli(capsys, "expand", "--family", "su_n", "--N", str(2 + k // 25),
                       "--n", "2", "--m", "3", "--order", str(24 - k % 25),
                       "--format", "csv")[0] == 0
    assert kept_lines() == list(warm)
    # a kept answer is written without a parse
    monkeypatch.setattr(cli, "build_parser", None)
    for argv, first in warm.items():
        assert run_cli(capsys, *argv) == first, argv


def test_expand_and_verify_answers_are_never_kept(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(suites.time, "perf_counter", lambda: 0.0)
    lines = [("expand", "--family", "su2", "--j", "2", "--n", "2", "--m", "3", "--format", fmt)
             for fmt in ("json", "csv", "table")]
    lines += [("verify", "--suite", "v3", "--format", fmt) for fmt in ("json", "text")]
    lines += [line + ("--out", str(tmp_path / "doc")) for line in lines]
    for argv in lines:
        first = run_cli(capsys, *argv)
        assert first[0] == 0 and run_cli(capsys, *argv) == first, argv
    assert kept_lines() == []


def test_an_answer_is_kept_only_within_the_budget(capsys, monkeypatch, tmp_path):
    # scan rejects an unknown predicate only after argparse accepts it
    for _ in range(3):
        assert run_cli(capsys, "scan", "--predicate", "p" * 1_000_000, "--max", "6")[0] == 3
    assert kept() == ([], 0)
    # the same answer, its line within the budget and above it: int() skips
    # the padding of --max
    small = ("scan", "--predicate", "beta-curve", "--max", " 6")
    wide = small[:-1] + (" " * cli.CACHE_BYTES + "6",)
    text = cli._scan_text("beta-curve", 6, "json") + "\n"
    for argv in (wide, small, wide):
        assert run_cli(capsys, *argv) == (0, text, ""), len(argv[-1])
    assert kept()[0] == [small]
    # the widest line invariants accepts, every option given, is kept, and
    # so are its knot's values
    monkeypatch.chdir(tmp_path)
    bound = cli.MAX_INVARIANTS_INDEX
    argv = ("invariants", "--n", str(-bound), "--m", str(1 - bound), "--order", "6",
            "--format", "table", "--out", "x")
    table = invariants_oracle(-bound, 1 - bound, 6, "table")
    for _ in range(2):
        assert run_cli(capsys, *argv) == (0, "", "")
        assert (tmp_path / "x").read_text() == table
        (tmp_path / "x").unlink()
    assert kept()[0] == [small, TorusKnot(-bound, 1 - bound), argv]


def flood_a_quarter_of_the_cache(monkeypatch, fill):
    # a flood of the smallest entries of one kind fills a quarter of
    # CACHE_BYTES: it must hold no more than 1.05 times the size the cache
    # counts (tracemalloc), which bounds a full cache as the CACHE_BYTES
    # comment states
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    fresh_cache(monkeypatch, cli.CACHE_BYTES // 4)
    cache = cli._cache
    tracemalloc.start()
    try:
        for k in range(5_000):
            fill(k)
            if len(cache.entries) <= k:  # the first eviction
                break
        gc.collect()
        full = tracemalloc.get_traced_memory()[0]
        entries, size = len(cache.entries), cache.size
        cache.entries.clear()
        gc.collect()
        held = full - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries <= k and cache.budget - 8_000 < size <= cache.budget
    assert 0.8 * size < held <= 1.05 * size, held / size


def test_a_full_answer_cache_stays_within_its_stated_worst_case(monkeypatch):
    def answers(k):
        # each line's words distinct strings, --max 2 spelled with tabs and
        # spaces in front
        spelled = format(k, "b").replace("0", " ").replace("1", "\t") + "2"
        words = ["scan", "--p", "beta-curve", "--m", spelled, "--f", "csv"]
        assert main([word.encode().decode() for word in words]) == 0

    flood_a_quarter_of_the_cache(monkeypatch, answers)


def test_a_full_knot_cache_stays_within_its_stated_worst_case(monkeypatch):
    def knots(k):
        cli._knot_values(TorusKnot(2, 2 * k + 1))

    flood_a_quarter_of_the_cache(monkeypatch, knots)


def test_a_full_expansion_cache_stays_within_its_stated_worst_case(monkeypatch):
    def expansions(k):
        group = GroupInstance(Family.SU_N, N=2 + k // 128)
        assert cli._coefficient_texts(group, TorusKnot(2, 2 * (k % 128) - 127), 0) == ["1"]

    flood_a_quarter_of_the_cache(monkeypatch, expansions)


SCAN_DOCUMENTS = [(predicate, fmt) for predicate in cli._SCANS for fmt in cli._SCAN_FORMATS]


def test_a_cached_scan_answers_like_a_cold_one(tmp_path, capsys, monkeypatch):
    target = tmp_path / "doc"
    parser = cli.build_parser
    for predicate, fmt in SCAN_DOCUMENTS:
        for bound in range(2, 21):
            argv = ("scan", "--predicate", predicate, "--max", str(bound), "--format", fmt)
            to_file = argv + ("--out", str(target))
            text = cli._scan_text(predicate, bound, fmt) + "\n"
            # cold to stdout and through --out, then warm, with no parse
            assert run_cli(capsys, *argv) == (0, text, ""), argv
            assert run_cli(capsys, *to_file)[:2] == (0, "")
            assert target.read_bytes() == text.encode("utf-8"), argv
            target.unlink()
            monkeypatch.setattr(cli, "build_parser", None)
            assert run_cli(capsys, *argv) == (0, text, ""), argv
            assert run_cli(capsys, *to_file)[:2] == (0, "")
            assert target.read_bytes() == text.encode("utf-8"), argv
            monkeypatch.setattr(cli, "build_parser", parser)
    assert 0 < kept()[1] <= cli.CACHE_BYTES


def test_a_scan_above_the_cached_bound_is_not_kept(capsys):
    # the largest scan document, 11.4 MB, is above the cache's budget: it is
    # written, and the answers kept before it stay
    run_cli(capsys, "scan", "--predicate", "non-integer", "--max", "6")
    warm = kept()
    argv = ("scan", "--predicate", "non-integer", "--max", str(cli.MAX_SCAN_BOUND))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and len(out) > 11_000_000 > cli.CACHE_BYTES
    assert out == cli._scan_text("non-integer", cli.MAX_SCAN_BOUND, "json") + "\n"
    assert kept() == warm


@pytest.mark.parametrize("argv, error", [
    (("scan", "--predicate", "knotted", "--max", "6"),
     "unknown predicate 'knotted'; choose from lissajous-obstructed, non-integer, beta-curve"),
    (("scan", "--predicate", "beta-curve", "--max", "1"), "max 1 unsupported (scan starts at 2)"),
    (("scan", "--predicate", "non-integer", "--max", "101", "--format", "csv"),
     "max 101 unsupported (scan stops at 100)"),
])
def test_a_scan_rejection_is_never_cached(capsys, argv, error):
    run_cli(capsys, "scan", "--predicate", "beta-curve", "--max", "6")
    warm = kept()
    for _ in range(3):
        assert run_cli(capsys, *argv) == (3, "", f"error: {error}\n")
    assert kept() == warm


def test_threads_share_the_caches(monkeypatch):
    # four threads call main at once over shared lines, in a budget they
    # overflow, so kept answers are evicted while others are read
    lines = [("invariants", "--n", str(n), "--m", str(m), "--order", str(order),
              "--format", fmt) for n, m in ((2, 3), (-5, 7), (11, -13))
             for order in (6, 3) for fmt in ("json", "csv", "table")]
    lines += [("scan", "--predicate", predicate, "--max", str(bound), "--format", fmt)
              for predicate, fmt in SCAN_DOCUMENTS for bound in (5, 9)]
    # expand widens and reads the same coefficient text in each thread
    lines += [("expand", "--family", *family, "--n", "3", "--m", "-5", "--order", str(order),
               "--format", fmt) for family in (("so_n", "--N", "7"), ("su2", "--j", "2"))
              for order, fmt in ((3, "csv"), (9, "json"), (6, "table"))]

    class PerThread:
        """stdout for each thread apart."""

        def __init__(self):
            self.local = threading.local()

        def write(self, text):
            self.local.text = getattr(self.local, "text", "") + text

        def flush(self):
            pass

        def take(self):
            text, self.local.text = getattr(self.local, "text", ""), ""
            return text

    stdout = PerThread()
    monkeypatch.setattr(sys, "stdout", stdout)
    cold = {}
    for argv in lines:
        fresh_cache(monkeypatch)
        cold[argv] = (main(list(argv)), stdout.take())
    fresh_cache(monkeypatch, 64 * 2 ** 10)
    start = threading.Barrier(4, timeout=60)
    answers = [[] for _ in range(4)]

    def ask(index):
        # each thread asks every line in the same order, so threads may miss,
        # render and keep the same line at once
        start.wait()
        for argv in lines * 3:
            answers[index].append((argv, main(list(argv)), stdout.take()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(index,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for asked in answers:
        assert len(asked) == 3 * len(lines)
        for argv, code, text in asked:
            assert (code, text) == cold[argv], argv
    cache = cli._cache
    assert 0 < cache.size == sum(size for _, size in cache.entries.values()) <= cache.budget


#: the knots the oracle's lines draw, each as given, mirrored, swapped or
#: negated; expand draws the first three
ORACLE_KNOTS = ((2, 3), (3, -5), (1, 4), (2, 5), (-1, 3), (5, 7), (97, 98))

#: the formats of each command
ORACLE_FORMATS = {"invariants": ("json", "csv", "table"), "expand": ("json", "csv", "table"),
                  "scan": cli._SCAN_FORMATS, "verify": ("json", "text")}

#: one rejected line of each kind: not a knot, above a bound, a handler's
#: other checks, argparse's own errors, more than MAX_WORDS words and a
#: SingularBracket, which only the series raises
ORACLE_REJECTIONS = (
    ("invariants", "--n", "2", "--m", "4"), ("invariants", "--n", "0", "--m", "3"),
    ("expand", "--family", "su2", "--j", "1", "--n", "6", "--m", "9"),
    ("invariants", "--n", "2", "--m", "3", "--order", "7"),
    ("invariants", "--n", str(cli.MAX_INVARIANTS_INDEX + 1), "--m", "2", "--format", "csv"),
    ("expand", "--family", "su_n", "--N", "3", "--n", "2", "--m", "3", "--order", "25"),
    ("expand", "--family", "su2", "--j", "1", "--n", "2", "--m", "129"),
    ("expand", "--family", "su2", "--j", "131", "--n", "2", "--m", "3"),
    ("expand", "--family", "product", "--N", "2", "--n", "2", "--m", "3"),
    ("scan", "--predicate", "beta-curve", "--max", "101"),
    ("scan", "--predicate", "knotted", "--max", "6"),
    ("verify", "--suite", "all", "--bound", "301"), ("verify", "--suite", "nope"),
    ("invariants", "--n", "2", "--m", "3", "--format", "xml"),
    ("invariants", "--n", "two", "--m", "3"), ("verify",),
    ("scan", "--predicate", "beta-curve", "--max", "6", "stray"),
    ("scan", "--predicate", "beta-curve") + ("--max=6",) * cli.MAX_WORDS,
    ("expand", "--family", "so_n", "--N", "5", "--n", "4", "--m", "5"),
    ("expand", "--family", "so_n", "--N", "5", "--n", "-5", "--m", "4"),
)


def oracle_lines(out: str, count: int = 300) -> list[tuple]:
    """count seeded command lines over every command and format, about one
    in five written to out and one in five a repeat, with each rejection
    of ORACLE_REJECTIONS among them."""
    rng = random.Random(16)
    lines: list[tuple] = []
    while len(lines) < count:
        if lines and rng.random() < 0.2:
            lines.append(rng.choice(lines))
            continue
        command = rng.choice(("invariants", "expand") * 3 + ("scan", "verify"))
        n, m = rng.choice(ORACLE_KNOTS[:3] if command == "expand" else ORACLE_KNOTS)
        n, m = rng.choice(((n, m), (n, -m), (m, n), (-n, -m)))
        if command == "invariants":
            argv = ("invariants", "--n", str(n), "--m", str(m), "--order", str(rng.randint(0, 6)))
        elif command == "expand":
            argv = ("expand", "--family", *rng.choice(EXPAND_FAMILIES), "--n", str(n),
                    "--m", str(m), "--order", str(rng.choice((0, 3, 6, 12, 24))))
        elif command == "scan":
            argv = ("scan", "--predicate", rng.choice(tuple(cli._SCANS)),
                    "--max", str(rng.randint(2, 8)))
        else:
            argv = rng.choice((("verify", "--suite", "v3"),
                               ("verify", "--suite", "relations", "--bound", "3")))
        argv += ("--format", rng.choice(ORACLE_FORMATS[command]))
        lines.append(argv + ("--out", out) if rng.random() < 0.2 else argv)
    for argv in ORACLE_REJECTIONS:
        lines.insert(rng.randrange(len(lines) + 1), argv)
    return lines


def test_the_cache_answers_like_an_empty_one(tmp_path, capsys, monkeypatch):
    # each line of a seeded stream, in one process, answers as it does with
    # the cache emptied; at CACHE_BYTES nothing is evicted, and at 64 KiB
    # each kind of entry is evicted
    monkeypatch.setattr(suites.time, "perf_counter", lambda: 0.0)
    target = tmp_path / "doc"
    lines = oracle_lines(str(target))

    def asked(argv):
        target.unlink(missing_ok=True)
        return *answer(capsys, argv), target.read_bytes() if target.exists() else None

    cold = {}
    for argv in lines:
        if argv not in cold:
            fresh_cache(monkeypatch)
            cold[argv] = asked(argv)
    assert {code for code, *_ in cold.values()} == {0, 2, 3}
    # expand asks a (group, knot) first, then at an order as wide or
    # narrower, and at a wider one
    widest, orders = {}, set()
    for argv in lines:
        if argv[0] == "expand" and cold[argv][0] == 0:
            options = dict(zip(argv[1::2], argv[2::2]))
            pair = tuple(options.get(name) for name in ("--family", "--N", "--j", "--n", "--m"))
            order = int(options["--order"])
            orders.add((pair in widest, order > widest.get(pair, order)))
            widest[pair] = max(order, widest.get(pair, order))
    assert orders == {(False, False), (True, False), (True, True)}
    for budget in (cli.CACHE_BYTES, 64 * 2 ** 10):
        fresh_cache(monkeypatch, budget)
        cache = cli._cache
        seen = set()
        for argv in lines:
            before = list(cache.entries)
            assert asked(argv) == cold[argv], argv
            assert cache.size == sum(size for _, size in cache.entries.values()) <= budget, argv
            if cold[argv][0]:
                assert list(cache.entries) == before, argv
            seen.update(cache.entries)
        evicted = {kind(key) for key in seen.difference(cache.entries)}
        assert {kind(key) for key in seen} == {"answer", "knot", "coefficient text"}
        assert evicted == (set() if budget == cli.CACHE_BYTES else {kind(key) for key in seen})


#: every command and format, --help at every level, --version, argparse's own
#: errors and the documented rejections; expand --N 3 comes before expand --j 2
#: (and after it when reversed), so a default left behind by one call shows
REPLAY = (
    ("--help",), ("invariants", "--help"), ("expand", "-h"), ("verify", "--help"),
    ("scan", "--help"), ("--version",), (), ("knot",),
    ("invariants", "--n", "2", "--m", "3"),
    ("invariants", "--n", "3", "--m", "-4", "--order", "4", "--format", "csv"),
    ("invariants", "--n", "-2", "--m", "5", "--format", "table"),
    ("invariants", "--n", "2", "--m", "4"), ("invariants", "--n", "two", "--m", "3"),
    ("invariants", "--n", "2", "--m", "3", "--format", "xml"),
    ("invariants", "--n", "2", "--m", "3", "--order", "7"),
    ("expand", "--family", "su_n", "--N", "3", "--n", "2", "--m", "3", "--order", "2"),
    ("expand", "--family", "su2", "--j", "2", "--n", "2", "--m", "3", "--format", "csv"),
    ("expand", "--family", "so_n", "--N", "7", "--n", "2", "--m", "-5", "--format", "table"),
    ("expand", "--family", "so_n", "--n", "2", "--m", "3"),
    ("verify",), ("verify", "--suite", "v3", "--format", "text"),
    ("verify", "--suite", "relations", "--bound", "4"), ("verify", "--suite", "nope"),
    ("scan", "--predicate", "beta-curve", "--max", "6", "--format", "csv"),
    ("scan", "--predicate", "lissajous-obstructed", "--max", "10"),
    ("scan", "--predicate", "non-integer", "--max", "6"),
    ("scan", "--predicate", "knotted", "--max", "6"),
)


@pytest.mark.parametrize("columns", ["40", "200", "80"])
def test_shared_parser_answers_like_a_fresh_one(capsys, monkeypatch, columns):
    # help wraps at $COLUMNS, which argparse must read when it formats, not
    # when the shared parser was built; the suites' timings go to stderr
    monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setattr(suites.time, "perf_counter", lambda: 0.0)
    for argv in REPLAY + REPLAY[::-1]:
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh.setattr(cli, "_cache", cli._Cache(cli.CACHE_BYTES))
            expected = answer(capsys, argv)
        assert answer(capsys, argv) == expected, argv


#: expand over the four families at orders 0..24: each family alternates two
#: knots, so each knot's kernels are asked at orders above, at and below the
#: widths they were built at
KERNEL_REPLAY = tuple(
    ("expand", "--family", *family, "--n", str(n), "--m", str(m), "--order", str(order),
     "--format", ("json", "csv", "table")[k % 3])
    for family in (("su_n", "--N", "3"), ("so_n", "--N", "7"), ("su2", "--j", "2"),
                   ("product", "--N", "2", "--j", "1"))
    for k, ((n, m), order) in enumerate(zip(((2, 3), (5, -7)) * 5,
                                            (24, 6, 0, 12, 1, 7, 13, 18, 9, 2)))
)


def test_expand_answers_do_not_depend_on_the_cached_kernels(capsys, monkeypatch):
    cold = {}
    for argv in KERNEL_REPLAY:
        invariants._kernel.cache_clear()
        fresh_cache(monkeypatch)
        cold[argv] = answer(capsys, argv)
    assert all(code == 0 for code, _, _ in cold.values())
    # from the kernels alone, then from the kernels and the coefficient text
    for texts_kept in (False, True):
        invariants._kernel.cache_clear()
        fresh_cache(monkeypatch)
        for argv in KERNEL_REPLAY + KERNEL_REPLAY[::-1]:
            if not texts_kept:
                fresh_cache(monkeypatch)
            assert answer(capsys, argv) == cold[argv], argv
    invariants._kernel.cache_clear()


def test_readme_library_tour():
    # every line of the README's library tour whose trailing comment is a
    # Python value evaluates to that value
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {"Fraction": Fraction}
    checked = 0
    for statement in ast.parse(block).body:
        comment = lines[statement.end_lineno - 1][statement.end_col_offset:].strip()
        try:
            claimed = compile(comment.lstrip("# "), "<comment>", "eval")
        except SyntaxError:  # prose, not a value
            claimed = None
        if claimed is None or not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "<README>", "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(statement.value), "<README>", "eval"), namespace)
        assert got == eval(claimed, namespace), ast.unparse(statement)
        checked += 1
    assert checked == 4


def test_readme_cli_examples_run(capsys):
    # every ``torusvass ...`` line of the README's CLI code block
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
                if line.startswith("torusvass ")]
    assert len(examples) >= 9
    for argv in examples:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert out


def test_invariants_documents_keep_their_bytes(capsys):
    digest = hashlib.sha256()
    for n, m in INVARIANTS_PAIRS:
        for fmt in ("json", "csv", "table"):
            for order in ("6", "4"):
                code, out, err = run_cli(capsys, "invariants", "--n", str(n), "--m", str(m),
                                         "--format", fmt, "--order", order)
                digest.update(f"{code}|{out}|{err}".encode())
    assert len(INVARIANTS_PAIRS) == 464
    assert digest.hexdigest() == INVARIANTS_DIGEST


def test_scan_documents_keep_their_bytes(capsys):
    digest = hashlib.sha256()
    for predicate in ("lissajous-obstructed", "non-integer", "beta-curve"):
        for bound in range(2, 41):
            for fmt in ("json", "csv"):
                code, out, err = run_cli(capsys, "scan", "--predicate", predicate,
                                         "--max", str(bound), "--format", fmt)
                digest.update(f"{code}|{out}|{err}".encode())
    assert digest.hexdigest() == SCAN_DIGEST


def test_expand_documents_keep_their_bytes(capsys):
    digest = hashlib.sha256()
    for n, m in EXPAND_PAIRS:
        for group in EXPAND_GROUPS:
            for fmt in ("json", "csv", "table"):
                for order in ("24", "6"):
                    code, out, err = run_cli(capsys, "expand", "--family", *group,
                                             "--n", str(n), "--m", str(m),
                                             "--format", fmt, "--order", order)
                    digest.update(f"{code}|{out}|{err}".encode())
    assert len(EXPAND_PAIRS) == 158
    assert digest.hexdigest() == EXPAND_DIGEST


def test_verify_document_keeps_its_bytes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGEST


#: strings over the ASCII controls, quotes and backslashes, non-ASCII
#: letters, a line separator, a lone surrogate and characters beyond the BMP
JSON_TEXT = st.text(st.sampled_from("a\x00\x1f\x7f\"\\/\n\t\u00e9\u2028\ud800\U0001f600")
                    | st.characters(), max_size=8)

#: ints on both sides of 64 bits, bools beside them, None and strings
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-2 ** 200, max_value=2 ** 200) | JSON_TEXT)


def json_containers(inner):
    """Lists, and dicts keyed by JSON_TEXT, of up to four items of inner: the
    extend= of both recursive document strategies.  A named function:
    hypothesis reads the source of extend= to check that it uses its
    argument, and a def's source is the whole function, where a lambda's is
    the lines around it."""
    return st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4)


JSON_DOCUMENTS = st.recursive(JSON_SCALARS, json_containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(JSON_DOCUMENTS)
@example({"": [], "\u00e9\x01": {}, "flags": [True, 1, False, 0, None, {}],
          "big": [2 ** 64, -2 ** 64 - 1, 10 ** 40], "\ud800": {"\n": [[[]]]}})
def test_render_equals_json_dumps(doc):
    assert cli._render(doc) == json.dumps(doc, indent=2)


def rational_dicts(doc):
    """doc with each Fraction replaced by its rational block, the JSON form
    that output_schema.json gives a rational."""
    if type(doc) is Fraction:
        block = {"num": str(doc.numerator), "den": str(doc.denominator)}
        if doc.denominator == 1:
            block["exact_decimal"] = str(doc.numerator)
        return block
    if type(doc) is dict:
        return {key: rational_dicts(value) for key, value in doc.items()}
    if type(doc) is list:
        return [rational_dicts(item) for item in doc]
    return doc


#: rationals with negative, zero, integral and +-2**200 numerators, and
#: denominators above 1
FRACTIONS = st.builds(Fraction, st.integers(min_value=-2 ** 200, max_value=2 ** 200)
                      | st.sampled_from([0, 1, -1, 2 ** 200, -2 ** 200]),
                      st.integers(min_value=1, max_value=10 ** 30) | st.sampled_from([1, 2, 144]))

DOCUMENTS_WITH_FRACTIONS = st.recursive(JSON_SCALARS | FRACTIONS, json_containers,
                                        max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS_WITH_FRACTIONS)
@example(Fraction(-3, 4))
@example({"a": [Fraction(0), Fraction(2 ** 200), Fraction(-2 ** 200, 3)],
          "b": {"c": Fraction(7, 1)}, "d": [[Fraction(-1, 2)]]})
def test_render_writes_fractions_as_rational_blocks(doc):
    assert cli._render(doc) == json.dumps(rational_dicts(doc), indent=2)


@pytest.mark.parametrize("doc", [1.5, (1, 2), {1: "a"}, {"a": [{"b": {2}}]},
                                 type("Ratio", (Fraction,), {})(1, 2),
                                 [b"x"], type("Text", (str,), {})("a")])
def test_render_rejects_other_types(doc):
    with pytest.raises(TypeError):
        cli._render(doc)


def test_render_leaves_no_reference_cycle():
    # a writer that is a nested function calling itself is a cycle, which
    # keeps each document's pieces alive until the cyclic collector runs
    doc = {"records": [{"n": k, "m": -k, "value": Fraction(k, 1 + k % 3)}
                       for k in range(1000)]}
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        cli._render(doc)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
