"""CLI behavior: formats, exit codes, determinism, schema conformance."""

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

from torusvass import suites
from torusvass.cli import main

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


def run_module(*argv):
    """Run ``python -m torusvass.cli`` in a subprocess that imports these sources."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "torusvass.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


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
    code, out, _ = run_cli(capsys, "expand", "--family", "su_n", "--N", "3",
                           "--n", "2", "--m", "3", "--order", "8",
                           "--guard-terms", "4")
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
    ("--guard-terms", "9", "9 guard terms unsupported (at most 8)"),
    ("--guard-terms", "100000", "100000 guard terms unsupported (at most 8)"),
])
def test_expand_rejects_oversized_inputs(capsys, option, value, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "expand", "--family", "su_n", "--N", "3",
                             "--n", "2", "--m", "3", option, value)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_expand_admits_its_limits(capsys):
    code, out, _ = run_cli(capsys, "expand", "--family", "su2", "--j", "2", "--n", "2",
                           "--m", "3", "--order", "24", "--guard-terms", "8", "--format", "csv")
    assert code == 0 and out.count("\n") == 26


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
