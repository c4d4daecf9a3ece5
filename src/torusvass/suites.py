"""Named verification suites.

Each suite re-derives a block of published results from scratch and checks
them exactly (tolerance zero everywhere; every value is a rational).  The
acceptance tests and the CLI `verify` command both run these.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction

from .analysis import (DEPENDENCY_RELATIONS, check_floor, dependency_relations_check,
                       distinguishing_check, integrality_certificate, integrality_scan,
                       noncoprime_witnesses, normalization_sharpness, v3_family_value)
from .errors import Record, UnsupportedInput
from .extract import (compare_fit_to_printed, extract_alpha, extract_alpha_tilde,
                      fit_ansatz)
from .groups import Family, product, su2, su_n
from .invariants import (DEFAULT_ORDER, akutsu_wadati_normalized, homfly_normalized,
                         kauffman_normalized, normalized_series, unknot_factor,
                         unnormalized_series)
from .knots import TorusKnot
from .tables import (TREFOIL, TREFOIL_NORMALIZERS, beta_from_alpha_tilde,
                     closed_form_alpha, closed_form_alpha_tilde, closed_form_beta)

#: the ten-knot grid the solver is checked on, mirrors included
ACCEPTANCE_GRID = ((2, 3), (2, 5), (2, 7), (2, 9), (3, 4),
                   (3, 5), (4, 5), (5, 6), (2, -3), (3, -5))

SAMPLE_KNOTS = ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5))


class Check(Record):
    __slots__ = _fields = ("label", "passed", "detail")

    def __init__(self, label: str, passed: bool, detail: str = ""):
        self.label = label
        self.passed = passed
        self.detail = detail


class SuiteResult(Record):
    __slots__ = _fields = ("suite", "checks", "elapsed_seconds")

    def __init__(self, suite: str, checks: list = None, elapsed_seconds: float = 0.0):
        self.suite = suite
        self.checks = [] if checks is None else checks
        self.elapsed_seconds = elapsed_seconds

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(label, passed, detail))

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> SuiteResult:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result.elapsed_seconds = time.perf_counter() - start
        return result
    return wrapper


@_timed
def suite_closed_forms() -> SuiteResult:
    """Criterion 1: the exact solve equals the closed-form alpha_tilde table
    entrywise on the ten-knot grid, at full rank, within the time budget."""
    result = SuiteResult("closed-forms")
    start = time.perf_counter()
    for (n, m) in ACCEPTANCE_GRID:
        table, report = extract_alpha_tilde(TorusKnot(n, m))
        oracle = closed_form_alpha_tilde(TorusKnot(n, m))
        mismatches = [s for s in table.entries if table.entries[s] != oracle.entries[s]]
        result.add(f"alpha_tilde solve == closed form at ({n},{m})", not mismatches,
                   f"mismatched slots: {mismatches}" if mismatches else "18 slots equal")
        result.add(f"ranks (1,1,3,4,9) at ({n},{m})", report.all_good(), str(report.rank))
    elapsed = time.perf_counter() - start
    result.add("grid runtime < 120 s", elapsed < 120, "< 120 s")
    return result


@_timed
def suite_alpha() -> SuiteResult:
    """Criterion 2: the unnormalized solve reproduces the alpha closed forms,
    the odd-order identities, and the compound identities."""
    result = SuiteResult("alpha")
    for (n, m) in ACCEPTANCE_GRID:
        knot = TorusKnot(n, m)
        alpha, _ = extract_alpha(knot)
        tilde, _ = extract_alpha_tilde(knot)
        oracle = closed_form_alpha(knot)
        mismatches = [s for s in alpha.entries if alpha.entries[s] != oracle.entries[s]]
        result.add(f"alpha solve == closed form at ({n},{m})", not mismatches,
                   f"mismatched slots: {mismatches}" if mismatches else "18 slots equal")
        odd_ok = all(alpha.entries[s] == tilde.entries[s]
                     for s in [(3, 1), (5, 2), (5, 3), (5, 4)])
        result.add(f"odd orders equal alpha_tilde at ({n},{m})", odd_ok)
        a = alpha.entries
        compound_ok = (
            a[(4, 1)] == a[(2, 1)] ** 2 / 2
            and a[(5, 1)] == a[(2, 1)] * a[(3, 1)]
            and a[(6, 1)] == a[(2, 1)] ** 3 / 6
            and a[(6, 2)] == a[(3, 1)] ** 2 / 2
            and a[(6, 3)] == a[(2, 1)] * a[(4, 2)]
            and a[(6, 4)] == a[(2, 1)] * a[(4, 3)]
        )
        result.add(f"compound identities at ({n},{m})", compound_ok)
    return result


@_timed
def suite_g_tables() -> SuiteResult:
    """Criterion 3: the ansatz fit reproduces every unambiguous printed g
    entry; the three suspect entries are reported with the fitted polynomial
    alongside the printed one."""
    result = SuiteResult("g-tables")
    for family in (Family.SU_N, Family.SO_N, Family.SU2):
        fit = fit_ansatz(family)
        for comparison in compare_fit_to_printed(fit):
            order, slot = comparison.slot
            label = f"{family.value} g_{order},{slot}"
            if comparison.suspected_typo:
                result.add(
                    f"{label} [suspected typo, fit is authoritative]", True,
                    f"printed: {comparison.printed}; fitted: {comparison.fitted}; "
                    f"printed text {'matches' if comparison.matches else 'differs from'} fit")
            else:
                result.add(label, comparison.matches,
                           "" if comparison.matches else
                           f"printed: {comparison.printed}; fitted: {comparison.fitted}")
    return result


@_timed
def suite_trefoil() -> SuiteResult:
    """Criterion 4: the trefoil beta vector equals
    (1,1,31,5,11,1,1,5071,29,1531,17,271) via both routes."""
    result = SuiteResult("trefoil")
    expected = {slot: Fraction(v) for slot, v in TREFOIL_NORMALIZERS.items()}
    direct = closed_form_beta(TREFOIL)
    result.add("closed-form route", all(
        direct.entries[s] == expected[s] for s in expected),
        str([str(direct.entries[s]) for s in sorted(expected)]))
    tilde, _ = extract_alpha_tilde(TREFOIL)
    renormalized = beta_from_alpha_tilde(tilde)
    result.add("alpha_tilde normalization route", all(
        renormalized.entries[s] == expected[s] for s in expected))
    compounds_ok = (
        direct.entries[(4, 1)] == 1 and direct.entries[(5, 1)] == 1
        and direct.entries[(6, 1)] == 1 and direct.entries[(6, 2)] == 1
        and direct.entries[(6, 3)] == 31 and direct.entries[(6, 4)] == 5
    )
    result.add("trefoil compound slots", compounds_ok)
    return result


@_timed
def suite_relations(max_n: int = 12) -> SuiteResult:
    """Criterion 5: all dependency relations hold exactly on every canonical
    knot with n <= max_n, with the trefoil anchors checked literally."""
    result = SuiteResult("relations")
    b3 = closed_form_beta(TREFOIL).entries
    anchor4 = 4 * b3[(4, 3)] + 12 * b3[(2, 1)] ** 2 - b3[(2, 1)]
    result.add("trefoil anchor 31 = 4*5 + 12 - 1",
               b3[(4, 2)] == 31 and anchor4 == 31)
    anchor5 = 6 * b3[(5, 4)] + Fraction(27, 5) * b3[(2, 1)] * b3[(3, 1)] \
        - Fraction(2, 5) * b3[(3, 1)]
    result.add("trefoil anchor 11 = 6 + 27/5 - 2/5",
               b3[(5, 2)] == 11 and anchor5 == 11)
    report = dependency_relations_check(max_n=max_n)
    result.add(f"all {len(DEPENDENCY_RELATIONS)} relations, canonical knots n <= {max_n}",
               report.passed,
               f"{report.checked} relation instances; violations: {report.violations[:3]}")
    return result


@_timed
def suite_distinguishing(max_n: int = 40) -> SuiteResult:
    """Criterion 6: (beta_{2,1}, beta_{3,1}) is injective on canonical knots
    with n <= max_n, within the time budget."""
    result = SuiteResult("distinguishing")
    start = time.perf_counter()
    report = distinguishing_check(max_n)
    elapsed = time.perf_counter() - start
    result.add(f"zero collisions among {report.checked} canonical knots (n <= {max_n})",
               report.passed, str(report.violations[:3]))
    result.add("scan runtime < 60 s", elapsed < 60, "< 60 s")
    return result


@_timed
def suite_integrality(bound: int = 30) -> SuiteResult:
    """Criterion 7: integrality on coprime pairs, scanned up to bound and
    certified for all, the normalization's sharpness and witnesses per order."""
    result = SuiteResult("integrality")
    report = integrality_scan(bound)
    result.add(f"12 primitive betas integral for coprime |n|,|m| <= {bound}",
               report.passed,
               f"{report.checked} values checked; violations: {report.violations[:3]}")
    sharp = normalization_sharpness()
    result.add("normalization sharp: each primitive beta coprime on its knot pair",
               sharp.passed, f"{sharp.checked} slots; violations: {sharp.violations[:3]}")
    witnesses = noncoprime_witnesses()
    for order in range(2, 7):
        found = witnesses.get(order)
        result.add(f"non-coprime non-integral witness at order {order}",
                   found is not None, str(found))
    b22 = closed_form_beta(TorusKnot(2, 2)).entries[(2, 1)]
    result.add("witness beta_{2,1}(2,2) = 3/8", b22 == Fraction(3, 8), str(b22))
    proof = integrality_certificate()
    result.add("12 primitive betas integral on every coprime pair (binomial certificate)",
               proof.passed, f"{proof.checked} checks; violations: {proof.violations[:3]}")
    return result


@_timed
def suite_v3() -> SuiteResult:
    """Criterion 8: v3(2, 2p+1) = p^3 - p for p = 1..10."""
    result = SuiteResult("v3")
    for p in range(1, 11):
        value = v3_family_value(p)
        result.add(f"v3(2,{2 * p + 1}) = {p}^3 - {p}", value == p ** 3 - p,
                   f"{value} vs {p ** 3 - p}")
    return result


@_timed
def suite_cross_family() -> SuiteResult:
    """Criterion 9: HOMFLY at N=2 equals the Jones series, and the
    product-group series factorizes, coefficientwise through x^6."""
    result = SuiteResult("cross-family")
    for (n, m) in SAMPLE_KNOTS:
        knot = TorusKnot(n, m)
        h = homfly_normalized(knot, 2)
        a = akutsu_wadati_normalized(knot, 1)
        result.add(f"homfly(N=2) == akutsu-wadati(j=1) at ({n},{m})",
                   h.agrees_with(a, DEFAULT_ORDER))
        pg = product(3, 2)
        via_unknot = normalized_series(knot, pg) * unknot_factor(pg)
        via_factors = unnormalized_series(knot, pg)
        result.add(f"product group factorizes at ({n},{m})",
                   via_unknot.agrees_with(via_factors, DEFAULT_ORDER))
        norm_prod = normalized_series(knot, pg)
        norm_factors = normalized_series(knot, su_n(3)) * normalized_series(knot, su2(2))
        result.add(f"normalized product series factorizes at ({n},{m})",
                   norm_prod.agrees_with(norm_factors, DEFAULT_ORDER))
    return result


@_timed
def suite_unit_symmetry() -> SuiteResult:
    """Criterion 10: unit knots give exactly 1; n<->m symmetry and mirror
    x-parity hold coefficientwise per family."""
    result = SuiteResult("unit-symmetry")

    def kauffman(k: TorusKnot):
        # sampling floor N >= n + 2, with n the larger index after swaps
        return kauffman_normalized(k, max(abs(k.n), abs(k.m)) + 2)

    evaluators = (
        ("su_n", lambda k: homfly_normalized(k, 4)),
        ("so_n", kauffman),
        ("su2", lambda k: akutsu_wadati_normalized(k, 2)),
    )
    for name, evaluate in evaluators:
        for m in (1, 2, 5, 9, -7):
            series = evaluate(TorusKnot(1, m))
            result.add(f"{name}: unit knot (1,{m}) -> 1",
                       series.coefficients_through(DEFAULT_ORDER)
                       == (Fraction(1),) + (Fraction(0),) * DEFAULT_ORDER)
        for (n, m) in SAMPLE_KNOTS:
            s = evaluate(TorusKnot(n, m))
            result.add(f"{name}: ({n},{m}) == ({m},{n})",
                       s.agrees_with(evaluate(TorusKnot(m, n)), DEFAULT_ORDER))
            result.add(f"{name}: ({n},-{m}) == ({n},{m}) with x -> -x",
                       evaluate(TorusKnot(n, -m)).agrees_with(s.mirrored(), DEFAULT_ORDER))
    return result


SUITES = {
    "closed-forms": suite_closed_forms,
    "alpha": suite_alpha,
    "g-tables": suite_g_tables,
    "trefoil": suite_trefoil,
    "relations": suite_relations,
    "distinguishing": suite_distinguishing,
    "integrality": suite_integrality,
    "v3": suite_v3,
    "cross-family": suite_cross_family,
    "unit-symmetry": suite_unit_symmetry,
}


#: the keyword through which a suite takes the --bound override
_BOUND_KEYWORDS = {"relations": "max_n", "distinguishing": "max_n", "integrality": "bound"}


def run_suite(name: str, bound: int | None = None) -> list[SuiteResult]:
    """Run one suite (or all of them); bound overrides the suite default.
    "all" passes it to the suites that take one, and checks it against each
    of their floors before any suite runs; a single suite that takes none
    rejects it."""
    if name == "all":
        if bound is not None:
            for keyword in _BOUND_KEYWORDS.values():
                check_floor(keyword, bound)
        return [run_suite(single, bound if single in _BOUND_KEYWORDS else None)[0]
                for single in SUITES]
    if bound is None:
        return [SUITES[name]()]
    if name not in _BOUND_KEYWORDS:
        raise UnsupportedInput(f"suite {name} takes no bound; only "
                               f"{', '.join(_BOUND_KEYWORDS)} do")
    return [SUITES[name](**{_BOUND_KEYWORDS[name]: bound})]
