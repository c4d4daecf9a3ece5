"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints a single pass/fail line; run with `pytest -s
tests/test_acceptance.py` to see the full checklist.
"""

import json

import pytest

from torusvass.cli import main
from torusvass.suites import (SUITES, suite_alpha, suite_closed_forms,
                              suite_cross_family, suite_distinguishing,
                              suite_g_tables, suite_integrality, suite_relations,
                              suite_trefoil, suite_unit_symmetry, suite_v3)


def report(number: int, label: str, result) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {number}: {label} "
          f"({len(result.checks)} checks, {result.elapsed_seconds:.2f}s)")
    for check in result.failures():
        print(f"       failed: {check.label}: {check.detail}")
    assert result.passed, [c.label for c in result.failures()]


def test_criterion_1_solver_vs_closed_form():
    result = suite_closed_forms()
    report(1, "exact solve equals closed-form alpha_tilde on the 10-knot grid",
           result)
    assert result.elapsed_seconds < 120


def test_criterion_2_alpha_pipeline():
    report(2, "alpha solve matches the closed forms and all identities",
           suite_alpha())


def test_criterion_3_g_tables():
    report(3, "ansatz fit reproduces the printed coefficient tables",
           suite_g_tables())


def test_criterion_4_trefoil_normalizers():
    report(4, "trefoil beta vector (1,1,31,5,11,1,1,5071,29,1531,17,271)",
           suite_trefoil())


def test_criterion_5_dependency_relations():
    report(5, "dependency relations hold exactly for n <= 12",
           suite_relations(max_n=12))


def test_criterion_6_distinguishing():
    result = suite_distinguishing(max_n=40)
    report(6, "(beta_{2,1}, beta_{3,1}) injective on canonical knots n <= 40",
           result)
    assert result.elapsed_seconds < 60


def test_criterion_7_integrality():
    report(7, "integrality for |n|,|m| <= 30, sharp normalization, witnesses, "
           "modular lemmas for all n (one period)",
           suite_integrality(bound=30))


def test_criterion_8_v3_law():
    report(8, "v3(2, 2p+1) = p^3 - p for p = 1..10", suite_v3())


def test_criterion_9_cross_family():
    report(9, "HOMFLY(N=2) == Jones and product-group factorization",
           suite_cross_family())


def test_criterion_10_unit_symmetry():
    report(10, "unit knots, n<->m symmetry, mirror x-parity",
           suite_unit_symmetry())


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_cli_suite_registry_runs(suite, capsys):
    # every registered suite runs end to end through the CLI and passes
    assert main(["verify", "--suite", suite]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert [r["suite"] for r in payload["suites"]] == [suite]
    checks = payload["suites"][0]["checks"]
    assert checks and all(c["passed"] for c in checks), \
        [c["label"] for c in checks if not c["passed"]]
