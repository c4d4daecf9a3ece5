"""CLI behavior: formats, exit codes, determinism, schema conformance."""

import errno
import inspect
import itertools
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from torusvass import analysis, cli, suites
from torusvass.cli import main
from torusvass.errors import UnsupportedInput
from torusvass.groups import Family, GroupInstance

SCHEMA = json.loads(
    resources.files("torusvass").joinpath("output_schema.json").read_text())
RATIONAL_SCHEMA = SCHEMA["$defs"]["rational"]

#: the package sources; pytest's ``pythonpath`` setting reaches only the test
#: process, so a CLI subprocess gets them through PYTHONPATH
SRC = Path(__file__).resolve().parents[1] / "src"


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
    # the integrality suite takes about 2 s at the limit; a stand-in records
    # the bound it is handed
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


def test_closed_pipe_ends_quietly():
    # the document is far larger than a pipe buffer, so the writer is still
    # writing when the reader takes one line and closes the pipe
    proc = subprocess.Popen([sys.executable, "-m", "torusvass.cli", "scan", "--predicate",
                             "beta-curve", "--max", "100"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=module_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), first, err) == (0, b"{\n", b"")


def test_a_stray_value_error_is_not_an_exit_code(capsys, monkeypatch):
    # only TorusVassError maps to an exit code; any other error is a bug
    def broken(knot):
        raise ValueError("stray")

    monkeypatch.setattr(cli, "closed_form_beta", broken)
    with pytest.raises(ValueError, match="stray") as exc:
        main(["invariants", "--n", "2", "--m", "3"])
    assert type(exc.value) is ValueError
    assert capsys.readouterr() == ("", "")


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
    (("invariants", "--n", "2", "--m", "3", "--order", "-1"),
     "order -1 unsupported (tables stop at 6)"),
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
