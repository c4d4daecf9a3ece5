"""Canonicalization, dependency relations, integrality, and derived scalars."""

import dataclasses
import json
import random
import re
from fractions import Fraction as F
from math import gcd

import pytest

from torusvass import analysis, suites
from torusvass import tables
from torusvass.analysis import (CERTIFICATE_DEGREE, DEPENDENCY_RELATIONS, AuxiliaryScalars,
                                DependencyRelation, ScanReport, auxiliary_scalars,
                                dependency_relations_check, distinguishing_check,
                                integrality_certificate, integrality_scan, is_v3_applicable,
                                lissajous_obstruction, lissajous_verdict,
                                noncoprime_witnesses, normalization_sharpness,
                                v3_family_value)
from torusvass.cli import _scan_text
from torusvass.errors import DegreeExceeded, NotAKnot, UnsupportedInput
from torusvass.knots import (UNKNOT, CanonicalTorusKnot, TorusKnot, as_knot, canonical_knots,
                             canonical_ms, canonicalize)
from torusvass.tables import (BETA_DENOMINATORS, PRIMITIVE_ORDER, SHARPNESS_PAIRS,
                              InvariantTable, closed_form_beta, primitive_columns,
                              primitive_numerators)


def test_canonicalize_swap():
    assert canonicalize(3, 2) == CanonicalTorusKnot(3, 2)
    assert canonicalize(2, 3) == CanonicalTorusKnot(3, 2)


def test_canonicalize_negation():
    assert canonicalize(-3, -2) == CanonicalTorusKnot(3, 2)
    assert canonicalize(2, -3) == CanonicalTorusKnot(3, -2)
    assert canonicalize(-2, 3) == CanonicalTorusKnot(3, -2)


def test_canonicalize_rejects_links():
    with pytest.raises(NotAKnot):
        canonicalize(2, 2)
    with pytest.raises(NotAKnot):
        canonicalize(0, 3)


def test_canonicalize_unknot_sentinel():
    assert canonicalize(1, 9) is UNKNOT
    assert canonicalize(-1, 4) is UNKNOT
    assert canonicalize(5, 1) is UNKNOT


def test_canonical_knots_enumeration():
    knots = list(canonical_knots(5))
    assert CanonicalTorusKnot(3, 2) in knots
    assert CanonicalTorusKnot(3, -2) in knots
    assert CanonicalTorusKnot(5, 4) in knots
    assert all(k.n > abs(k.m) >= 2 and gcd(k.n, abs(k.m)) == 1 for k in knots)
    assert len(knots) == len(set(knots))
    # the per-n m lists give the same order, one n at a time
    assert list(canonical_ms(5)) == [(3, [2, -2]), (4, [3, -3]), (5, [2, -2, 3, -3, 4, -4])]
    assert list(canonical_ms(7, chirality=False))[-2:] == [(6, [5]), (7, [2, 3, 4, 5, 6])]
    assert knots == [CanonicalTorusKnot(n, m) for n, ms in canonical_ms(5) for m in ms]


def test_canonical_knot_rejects_links():
    with pytest.raises(NotAKnot, match="not a torus knot"):
        CanonicalTorusKnot(6, 4)
    with pytest.raises(NotAKnot, match="not a torus knot"):
        canonicalize(-4, 6)


def test_mirror_classes_distinct():
    assert canonicalize(3, 2) != canonicalize(3, -2)


# ----------------------------------------------------------------------
# relations
# ----------------------------------------------------------------------

def test_relation_order4_trefoil():
    b = closed_form_beta((2, 3)).entries
    assert b[(4, 2)] == 4 * b[(4, 3)] + 12 * b[(2, 1)] ** 2 - b[(2, 1)] == 31


def test_relation_order5_trefoil_anchor():
    b = closed_form_beta((2, 3)).entries
    assert b[(5, 2)] == 11 == 6 * b[(5, 4)] + F(27, 5) - F(2, 5)
    assert b[(5, 3)] == 1 == F(3, 4) * b[(5, 4)] + F(3, 10) - F(1, 20)


def test_the_order5_anchor_reads_the_trefoil_table(monkeypatch):
    # with beta_{5,4}(trefoil) = 2 the anchor is 6*2 + 27/5 - 2/5 = 17, not 11
    table = closed_form_beta((2, 3))
    wrong = InvariantTable("beta", table.knot, {**table.entries, (5, 4): F(2)})
    monkeypatch.setattr(suites, "closed_form_beta", lambda knot: wrong)
    result = suites.suite_relations(max_n=3)
    assert [c.label for c in result.failures()] == ["trefoil anchor 11 = 6 + 27/5 - 2/5"]


def test_relation_order5_beyond_trefoil():
    # (2,5) separates the repaired reading from the printed one:
    # beta_{5,2} = 157 = 6*13 + 27/5*15 - 2/5*5, with beta_{5,4} = 13,
    # while the printed right-hand side 6*beta_{5,3} + ... gives 163.
    b = closed_form_beta((2, 5)).entries
    assert (b[(5, 2)], b[(5, 3)], b[(5, 4)]) == (157, 14, 13)
    assert b[(5, 2)] == 6 * b[(5, 4)] + F(27, 5) * b[(2, 1)] * b[(3, 1)] \
        - F(2, 5) * b[(3, 1)]
    assert b[(5, 2)] != 6 * b[(5, 3)] + F(27, 5) * b[(2, 1)] * b[(3, 1)] \
        - F(2, 5) * b[(3, 1)]


def _printed_terms(statement):
    """The left-hand slot and the (coefficient, slots) terms of a printed
    relation such as "beta_{6,5} = 58/9 beta_{6,9} - 2080/3 beta_{2,1}^3"."""
    lhs, rhs = statement.split(" = ")
    terms = []
    for term in rhs.replace(" - ", " + -").split(" + "):
        sign, coefficient, factors = re.fullmatch(r"(-?)(\d+(?:/\d+)?)? ?(.+)", term).groups()
        slots = []
        for factor in factors.split(" "):
            a, b, power = re.fullmatch(r"beta_\{(\d),(\d)\}(?:\^(\d))?", factor).groups()
            slots += [(int(a), int(b))] * int(power or 1)
        terms.append((F(sign + (coefficient or "1")), tuple(slots)))
    a, b = re.fullmatch(r"beta_\{(\d),(\d)\}", lhs).groups()
    return (int(a), int(b)), terms


@pytest.mark.parametrize("relation", DEPENDENCY_RELATIONS, ids=lambda rel: rel.name)
def test_each_printed_relation_is_its_terms(relation):
    # the statement a reader sees and the terms the scan checks are one
    # relation, term for term in the printed order
    lhs, terms = _printed_terms(relation.statement)
    assert lhs == relation.lhs
    assert terms == [(F(c), tuple(slots)) for c, slots in relation.rhs]


def test_relations_hold_on_grid():
    report = dependency_relations_check(max_n=12)
    assert report.passed
    assert report.checked == len(DEPENDENCY_RELATIONS) * sum(
        1 for _ in canonical_knots(12))


def test_distinguishing_rejects_a_bound_without_knots():
    for max_n in (2, -1):
        with pytest.raises(ValueError, match="max_n must be >= 3"):
            distinguishing_check(max_n)
    assert distinguishing_check(3).checked == 2


def test_relations_reject_a_bound_without_knots():
    # the smallest canonical knot is (3, 2): max_n < 3 would check nothing
    for max_n in (2, -1):
        with pytest.raises(ValueError, match="max_n must be >= 3"):
            dependency_relations_check(max_n=max_n)
    report = dependency_relations_check(max_n=3)
    assert report.passed and report.checked == 2 * len(DEPENDENCY_RELATIONS)


def test_relations_on_explicit_grid():
    report = dependency_relations_check(grid=[(2, 3), (2, 5), (3, 4), (2, -7)])
    assert report.passed and report.checked == 4 * len(DEPENDENCY_RELATIONS)


# ----------------------------------------------------------------------
# distinguishing
# ----------------------------------------------------------------------

def test_distinguishing_examples():
    b32 = closed_form_beta((3, 2)).entries
    b52 = closed_form_beta((5, 2)).entries
    assert (b32[(2, 1)], b32[(3, 1)]) == (1, 1)
    assert (b52[(2, 1)], b52[(3, 1)]) == (3, 5)


def test_chirality_flips_odd_order():
    plus = closed_form_beta((3, 2)).entries
    minus = closed_form_beta((3, -2)).entries
    assert plus[(2, 1)] == minus[(2, 1)] == 1
    assert plus[(3, 1)] == 1 and minus[(3, 1)] == -1


def test_distinguishing_scan_small():
    report = distinguishing_check(12)
    assert report.passed and report.checked > 0


def test_pair_determines_products():
    # equal (beta_{2,1}, beta_{3,1}) forces equal nm and n^2 + m^2
    seen = {}
    for n in range(2, 9):
        for m in range(2, 9):
            if gcd(n, m) != 1:
                continue
            b = closed_form_beta((n, m)).entries
            key = (b[(2, 1)], b[(3, 1)])
            if key in seen:
                n0, m0 = seen[key]
                assert n0 * m0 == n * m and n0 ** 2 + m0 ** 2 == n ** 2 + m ** 2
            else:
                seen[key] = (n, m)


# ----------------------------------------------------------------------
# integrality: the scan, the certificate and the normalization's sharpness
# ----------------------------------------------------------------------

def test_integrality_small_bound():
    report = integrality_scan(12)
    assert report.passed and report.checked == 12 * sum(
        1 for n in range(1, 13) for m in range(-12, 13)
        if m != 0 and gcd(n, abs(m)) == 1)


def test_noncoprime_witnesses_per_order():
    witnesses = noncoprime_witnesses()
    assert set(witnesses) == {2, 3, 4, 5, 6}
    pair, slot, value = witnesses[2]
    assert value.denominator > 1


def test_specific_witnesses():
    b = closed_form_beta((2, 2)).entries
    assert b[(2, 1)] == F(3, 8)
    assert b[(3, 1)] == F(1, 4)
    assert b[(5, 4)] == F(1, 8)


def test_integrality_scan_records_noncoprime_notes():
    report = integrality_scan(4, include_noncoprime=True)
    assert report.passed
    assert any(pair == (2, 2) for (pair, slot, value) in report.notes)


#: the primes of the beta denominators, each with its units r = 1..p-1
PRIMES = (2, 3, 5, 7)


def test_the_certificate_proves_integrality_on_every_coprime_pair():
    report = integrality_certificate()
    assert report.passed and report.bound == CERTIFICATE_DEGREE == 6
    # 49 values per block: one block per slot, prime of its denominator,
    # side and unit; the 204 blocks of the twelve slots
    blocks = sum(2 * (p - 1) for den in BETA_DENOMINATORS.values() for p in PRIMES
                 if den % p == 0)
    assert blocks == 204 and report.checked == 49 * blocks == 9_996


def test_the_certificate_fails_where_p_divides_n_or_m(monkeypatch):
    # negative control: every block read at r = 0 instead, the pairs with p
    # dividing n (or m), where no beta need be p-integral; every prime fails
    # on both sides
    grid = analysis._grid
    monkeypatch.setattr(analysis, "_grid", lambda p, side, r: grid(p, side, 0))
    report = integrality_certificate()
    assert {(p, side, r) for _, p, side, r in report.violations} == {
        (p, side, r) for p in PRIMES for side in "nm" for r in range(1, p)}


def perturb(monkeypatch, slot, den):
    """Give slot the beta denominator den; every check reads the dict."""
    monkeypatch.setitem(BETA_DENOMINATORS, slot, den)


def test_the_integrality_checks_read_the_denominators_at_each_call(monkeypatch):
    # the scan, the witnesses and the certificate see a patched
    # BETA_DENOMINATORS, as the sharpness and Lissajous checks do
    assert integrality_scan(6).passed and integrality_certificate().passed
    perturb(monkeypatch, (2, 1), 48)
    assert {v[1] for v in integrality_scan(6).violations} == {(2, 1)}
    assert not integrality_certificate().passed
    # beta_{2,1}(2, 2) = 3/8 is 9/24, so 9/48 over the patched denominator
    assert noncoprime_witnesses()[2] == ((2, 2), (2, 1), F(3, 16))


def test_a_beta_21_over_48_fails_the_certificate(monkeypatch):
    # beta_{2,1} is (n^2-1)(m^2-1)/24; over 48 it is a half on the trefoil
    perturb(monkeypatch, (2, 1), 48)
    report = integrality_certificate()
    assert report.violations == [((2, 1), 2, "n", 1), ((2, 1), 2, "m", 1)]


@pytest.mark.parametrize("slot", PRIMITIVE_ORDER)
@pytest.mark.parametrize("factor", [2, 3, 11])
def test_the_scan_and_the_certificate_fail_together(monkeypatch, slot, factor):
    # differential: a denominator a factor too large fails both the bounded
    # scan and the certificate, for that slot alone; 11 divides no
    # denominator, so the certificate must take its primes from them
    perturb(monkeypatch, slot, factor * BETA_DENOMINATORS[slot])
    scan = integrality_scan(6)
    certificate = integrality_certificate()
    assert {v[1] for v in scan.violations} == {v[0] for v in certificate.violations} == {slot}


def test_a_row_above_the_degree_bound_raises(monkeypatch):
    # u^2 v + u v^2 at an odd order gives degree 2 + 1 + 4 = 7 in n and in m,
    # which the 7 x 7 grid cannot decide
    row = tables._ROWS[(5, 2)]
    monkeypatch.setitem(tables._ROWS, (5, 2), row._replace(coefficients=(-11, -21, 69, 1)))
    with pytest.raises(DegreeExceeded, match=r"row \(5, 2\) has degree 7 > 6"):
        integrality_certificate()


def test_normalization_is_sharp(monkeypatch):
    report = normalization_sharpness()
    assert report.passed and report.checked == len(PRIMITIVE_ORDER) == len(SHARPNESS_PAIRS)
    for slot, knots in SHARPNESS_PAIRS.items():
        values = [closed_form_beta(knot).entries[slot] for knot in knots]
        assert all(v.denominator == 1 for v in values)
        assert gcd(*(v.numerator for v in values)) == 1, slot
    assert [closed_form_beta(k).entries[(4, 3)] for k in SHARPNESS_PAIRS[(4, 3)]] == [5, 39]
    # the other slots' pair gives beta_{4,3} = 5 and 85, which share 5
    monkeypatch.setitem(SHARPNESS_PAIRS, (4, 3), SHARPNESS_PAIRS[(2, 1)])
    assert [v[0] for v in normalization_sharpness().violations] == [(4, 3)]


@pytest.mark.parametrize("slot", PRIMITIVE_ORDER)
def test_a_doubled_denominator_breaks_sharpness(monkeypatch, slot):
    # negative control: beta over twice its denominator is not integral on
    # one member of the slot's pair, and the check names that slot
    den = 2 * BETA_DENOMINATORS[slot]
    monkeypatch.setitem(BETA_DENOMINATORS, slot, den)
    assert any(primitive_numerators(n, m, slots=(slot,))[0] % den
               for n, m in SHARPNESS_PAIRS[slot])
    report = normalization_sharpness()
    assert [v[0] for v in report.violations] == [slot]


def test_modular_spot_values():
    # one index alone can make a beta integral: 24 | 7^2 - 1 (beta_{2,1}),
    # 240 | 7^4 - 1 (order 4) and 144 | 9 (9^2 - 1) (beta_{3,1}), at every m,
    # m sharing a factor with n included; 9^2 - 1 has no factor 3, so
    # beta_{2,1} at n = 9 needs m prime to 3
    ms = [m for m in range(-30, 31) if m]
    for n, slots in ((7, ((2, 1), (4, 2), (4, 3))), (9, ((3, 1),))):
        for slot, column in zip(slots, primitive_columns(n, ms, slots=slots)):
            assert not any(num % BETA_DENOMINATORS[slot] for num in column), (n, slot)
    (column,) = primitive_columns(9, ms, slots=((2, 1),))
    assert [m for m, num in zip(ms, column) if num % 24] == [m for m in ms if m % 3 == 0]


# ----------------------------------------------------------------------
# scalars
# ----------------------------------------------------------------------

def test_lissajous_examples():
    assert lissajous_obstruction((2, 3)) == "obstructed"
    assert lissajous_obstruction((2, 5)) == "obstructed"
    assert lissajous_obstruction((4, 3)) == "obstructed"
    assert lissajous_obstruction((5, 2)) == "obstructed"
    assert lissajous_obstruction((7, 2)) == "inconclusive"
    assert lissajous_obstruction((1, 5)) == "inconclusive"


def test_v3_law():
    for p in range(1, 11):
        assert v3_family_value(p) == p ** 3 - p
    # negative p through the mirror knot (2, 2p+1) with p = -2
    assert auxiliary_scalars((2, -3)).v3 == -6


def test_v3_applicability():
    assert is_v3_applicable((2, 9))
    assert is_v3_applicable((7, 2))
    assert not is_v3_applicable((3, 4))


def test_gordian_and_curve_residual():
    s = auxiliary_scalars((2, 3))
    assert s.gordian == 1
    assert s.curve_residual == F(1, 3)
    assert auxiliary_scalars((4, 3)).gordian == 3


def test_curve_ratio_tends_to_one():
    b = closed_form_beta((20, 19)).entries
    ratio = b[(3, 1)] ** 2 / (F(2, 3) * b[(2, 1)] ** 3)
    assert abs(ratio - 1) < F(1, 100)


# ----------------------------------------------------------------------
# test-only references: the scans as they ran on the full closed-form beta
# table, one Fraction per slot; the integer kernels must reproduce their
# reports exactly, in order and in type
# ----------------------------------------------------------------------

def ref_beta(knot):
    return closed_form_beta(knot).entries


def ref_r4(b):
    return b[(4, 2)] - (4 * b[(4, 3)] + 12 * b[(2, 1)] ** 2 - b[(2, 1)])


def ref_r5_first(b):
    return b[(5, 2)] - (6 * b[(5, 4)] + F(27, 5) * b[(2, 1)] * b[(3, 1)]
                        - F(2, 5) * b[(3, 1)])


def ref_r5_second(b):
    return b[(5, 3)] - (F(3, 4) * b[(5, 4)] + F(3, 10) * b[(2, 1)] * b[(3, 1)]
                        - F(1, 20) * b[(3, 1)])


def ref_r6_first(b):
    return b[(6, 5)] - (F(58, 9) * b[(6, 9)] - F(80, 3) * b[(4, 3)]
                        + F(41, 9) * b[(2, 1)] - F(680, 3) * b[(2, 1)] * b[(4, 3)]
                        + 5280 * b[(3, 1)] ** 2 - F(2080, 3) * b[(2, 1)] ** 3)


def ref_r6_second(b):
    return b[(6, 6)] - (-F(5, 12) * b[(6, 9)] - F(5, 3) * b[(4, 3)]
                        + F(1, 4) * b[(2, 1)] - 10 * b[(2, 1)] * b[(4, 3)]
                        + 240 * b[(3, 1)] ** 2 - 40 * b[(2, 1)] ** 3)


def ref_r6_third(b):
    return b[(6, 7)] - (F(9, 2) * b[(6, 9)] - 5 * b[(4, 3)] + F(1, 2) * b[(2, 1)]
                        + 432 * b[(3, 1)] ** 2 - 96 * b[(2, 1)] ** 3)


def ref_r5_printed(b):
    # the order-5 relation as the source prints it, with beta_{5,3} on the right
    return b[(5, 2)] - (6 * b[(5, 3)] + F(27, 5) * b[(2, 1)] * b[(3, 1)]
                        - F(2, 5) * b[(3, 1)])


REF_RESIDUALS = {"order4": ref_r4, "order5_first": ref_r5_first,
                 "order5_second": ref_r5_second, "order6_first": ref_r6_first,
                 "order6_second": ref_r6_second, "order6_third": ref_r6_third,
                 "order5_printed": ref_r5_printed}

PRINTED_ORDER5 = DependencyRelation(
    "order5_printed",
    "beta_{5,2} = 6 beta_{5,3} + 27/5 beta_{2,1} beta_{3,1} - 2/5 beta_{3,1}",
    (5, 2), ((6, ((5, 3),)), (F(27, 5), ((2, 1), (3, 1))), (-F(2, 5), ((3, 1),))))


def ref_dependency_relations_check(grid=None, max_n=12):
    if grid is None and max_n < 3:
        raise UnsupportedInput("max_n must be >= 3")
    knots = list(grid) if grid is not None else list(canonical_knots(max_n))
    report = ScanReport("dependency-relations", max_n)
    for knot in knots:
        k = knot.as_knot() if isinstance(knot, CanonicalTorusKnot) else as_knot(knot)
        b = ref_beta(k)
        for rel in analysis.DEPENDENCY_RELATIONS:
            report.checked += 1
            res = REF_RESIDUALS[rel.name](b)
            if res != 0:
                report.violations.append(((k.n, k.m), rel.name, res))
    return report


def ref_distinguishing_check(max_n):
    if max_n < 3:
        raise UnsupportedInput("max_n must be >= 3")
    report = ScanReport("distinguishing", max_n)
    seen = {}
    for knot in canonical_knots(max_n):
        b = ref_beta(knot.as_knot())
        key = (b[(2, 1)], b[(3, 1)])
        report.checked += 1
        if key in seen:
            report.violations.append((seen[key], (knot.n, knot.m), key))
        else:
            seen[key] = (knot.n, knot.m)
    return report


def ref_integrality_scan(bound, include_noncoprime=False):
    if bound < 2:
        raise UnsupportedInput("bound must be >= 2")
    report = ScanReport("integrality", bound)
    for n in range(1, bound + 1):
        for m in range(-bound, bound + 1):
            if m == 0:
                continue
            if gcd(n, abs(m)) != 1:
                if include_noncoprime:
                    b = ref_beta(TorusKnot(n, m))
                    for slot in PRIMITIVE_ORDER:
                        if b[slot].denominator != 1:
                            report.notes.append(((n, m), slot, b[slot]))
                continue
            b = ref_beta(TorusKnot(n, m))
            for slot in PRIMITIVE_ORDER:
                report.checked += 1
                if b[slot].denominator != 1:
                    report.violations.append(((n, m), slot, b[slot]))
    return report


def ref_noncoprime_witnesses(bound=6):
    found = {}
    for n in range(2, bound + 1):
        for m in range(n, bound + 1):
            if gcd(n, m) == 1:
                continue
            b = ref_beta(TorusKnot(n, m))
            for slot in PRIMITIVE_ORDER:
                order = slot[0]
                if order not in found and b[slot].denominator != 1:
                    found[order] = ((n, m), slot, b[slot])
    return found


def ref_lissajous_obstruction(knot):
    b21 = ref_beta(as_knot(knot).validate())[(2, 1)]
    if b21.denominator != 1:
        raise ValueError(f"beta_{{2,1}} = {b21} is not an integer; parity undefined")
    return "obstructed" if b21.numerator % 2 == 1 else "inconclusive"


def ref_auxiliary_scalars(knot):
    k = as_knot(knot).validate()
    b = ref_beta(k)
    return AuxiliaryScalars(
        v3=3 * (b[(3, 1)] - b[(2, 1)]),
        gordian=F((abs(k.n) - 1) * (abs(k.m) - 1), 2),
        curve_residual=b[(3, 1)] ** 2 - F(2, 3) * b[(2, 1)] ** 3,
    )


def ref_rational(value):
    """The JSON form of a rational in output_schema.json: num and den as
    strings, and exact_decimal when the value is an integer."""
    block = {"num": str(value.numerator), "den": str(value.denominator)}
    if value.denominator == 1:
        block["exact_decimal"] = str(value.numerator)
    return block


def ref_scan_payload(predicate, bound):
    if predicate == "lissajous-obstructed":
        hits = []
        for knot in canonical_knots(bound, chirality=False):
            if ref_lissajous_obstruction(knot.as_knot()) == "obstructed":
                beta21 = ref_beta(knot.as_knot())[(2, 1)]
                hits.append({"n": knot.n, "m": knot.m, "beta_2_1": ref_rational(beta21)})
        csv = ["n,m,beta_2_1"] + [f"{h['n']},{h['m']},{h['beta_2_1']['num']}" for h in hits]
        return {"knots": hits}, csv
    if predicate == "non-integer":
        report = ref_integrality_scan(bound, include_noncoprime=True)

        def packed(records):
            return [{"n": pair[0], "m": pair[1], "slot": f"{slot[0]},{slot[1]}",
                     "value": ref_rational(value)}
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
            b = ref_beta(knot.as_knot())
            points.append({"n": knot.n, "m": knot.m,
                           "beta_2_1": ref_rational(b[(2, 1)]),
                           "beta_3_1": ref_rational(b[(3, 1)])})
        csv = ["n,m,beta_2_1,beta_3_1"] + [
            f"{p['n']},{p['m']},{p['beta_2_1']['num']},{p['beta_3_1']['num']}"
            for p in points]
        return {"points": points}, csv
    raise ValueError(predicate)


def typed(value):
    """value with every leaf paired with its type, so == also compares types."""
    if isinstance(value, (list, tuple)):
        return type(value), [typed(v) for v in value]
    if isinstance(value, dict):
        return dict, [(typed(k), typed(v)) for k, v in value.items()]
    if isinstance(value, ScanReport):
        return typed([value.name, value.bound, value.checked, value.violations, value.notes])
    if isinstance(value, AuxiliaryScalars):
        return typed([value.v3, value.gordian, value.curve_residual])
    return type(value), value


def outcome(fn, *args, **kwargs):
    try:
        return typed(fn(*args, **kwargs))
    except (ValueError, NotAKnot) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("include_noncoprime", [False, True])
def test_integrality_kernel_equals_reference(include_noncoprime):
    for bound in range(-1, 31):
        assert outcome(integrality_scan, bound, include_noncoprime) \
            == outcome(ref_integrality_scan, bound, include_noncoprime), bound


def plain_integrality_scan(bound, include_noncoprime=False):
    """integrality_scan pair by pair over its whole square, from
    primitive_numerators, with no symmetry."""
    report = ScanReport("integrality", bound)
    for n in range(1, bound + 1):
        for m in range(-bound, bound + 1):
            coprime = gcd(n, m) == 1
            if not m or not (coprime or include_noncoprime):
                continue
            report.checked += len(PRIMITIVE_ORDER) if coprime else 0
            for slot, num in zip(PRIMITIVE_ORDER, primitive_numerators(n, m)):
                if num % BETA_DENOMINATORS[slot]:
                    (report.violations if coprime else report.notes).append(
                        ((n, m), slot, F(num, BETA_DENOMINATORS[slot])))
    return report


@pytest.mark.parametrize("include_noncoprime", [False, True])
@pytest.mark.parametrize("bound", [31, 47, 64])
def test_integrality_kernel_equals_the_plain_walk(bound, include_noncoprime):
    assert outcome(integrality_scan, bound, include_noncoprime) \
        == outcome(plain_integrality_scan, bound, include_noncoprime)


@pytest.mark.parametrize("slot", [(3, 1), (4, 2), (5, 4)])
def test_integrality_kernel_equals_the_plain_walk_on_violations(monkeypatch, slot):
    # over twice its denominator a slot fails on coprime pairs too, so the
    # violations hold swapped and mirrored values, negated at odd orders
    perturb(monkeypatch, slot, 2 * BETA_DENOMINATORS[slot])
    report = integrality_scan(31, include_noncoprime=True)
    assert report.violations
    assert typed(report) == typed(plain_integrality_scan(31, include_noncoprime=True))


def test_integrality_kernel_reports_noncoprime_notes():
    report = integrality_scan(6, include_noncoprime=True)
    # P = 3 * 35 at (2, -6): beta21 = P/24, beta31 = nmP/144, beta42 = 1255 P/240
    assert report.notes[:3] == [((2, -6), (2, 1), F(35, 8)), ((2, -6), (3, 1), F(-35, 4)),
                                ((2, -6), (4, 2), F(8785, 16))]
    assert all(type(value) is F for _, _, value in report.notes)
    assert integrality_scan(6).notes == []


def test_distinguishing_kernel_equals_reference():
    for max_n in (-1, 2, 3, 4, 5, 8, 13, 21, 40):
        assert outcome(distinguishing_check, max_n) \
            == outcome(ref_distinguishing_check, max_n), max_n


def test_distinguishing_kernel_records_a_forced_collision(monkeypatch):
    # a repeated knot is the one way to make two knots share (beta21, beta31);
    # the repeats enter through the per-n enumeration, which the kernel reads
    # directly and the reference reads through canonical_knots
    unpatched = len(list(canonical_knots(5)))

    def repeating(max_n, chirality=True):
        for n, ms in canonical_ms(max_n, chirality):
            yield n, ms + ms[1::-1] if n == 3 else ms

    monkeypatch.setattr("torusvass.knots.canonical_ms", repeating)
    monkeypatch.setattr(analysis, "canonical_ms", repeating)
    report = distinguishing_check(5)
    assert typed(report.violations) == typed([
        ((3, -2), (3, -2), (F(1), F(-1))),
        ((3, 2), (3, 2), (F(1), F(1))),
    ])
    assert report.checked == unpatched + 2
    assert typed(report) == typed(ref_distinguishing_check(5))


def test_noncoprime_witness_kernel_equals_reference():
    for bound in range(0, 13):
        assert outcome(noncoprime_witnesses, bound) \
            == outcome(ref_noncoprime_witnesses, bound), bound


RELATION_GRIDS = [
    [(2, 3), (1, 5), (-1, 3), (1, -1), (2, 2), (4, 6), (6, 9), (-3, 5), (3, -7), (-4, -9)],
    [(n, m) for n in range(-6, 7) for m in range(-7, 8) if n and m],
    [CanonicalTorusKnot(5, -3), (2, 5)],
    [],
]


def test_relation_kernel_equals_reference():
    for max_n in range(-1, 15):
        assert outcome(dependency_relations_check, max_n=max_n) \
            == outcome(ref_dependency_relations_check, max_n=max_n), max_n
    for grid in RELATION_GRIDS:
        assert outcome(dependency_relations_check, grid=grid) \
            == outcome(ref_dependency_relations_check, grid=grid), grid


def test_relation_kernel_reports_violated_relations(monkeypatch):
    # the printed order-5 relation fails off the trefoil; its residuals pin
    # the shape and the values of the violation records
    monkeypatch.setattr(analysis, "DEPENDENCY_RELATIONS",
                        DEPENDENCY_RELATIONS + (PRINTED_ORDER5,))
    for grid in RELATION_GRIDS:
        assert outcome(dependency_relations_check, grid=grid) \
            == outcome(ref_dependency_relations_check, grid=grid), grid
    report = dependency_relations_check(grid=[(2, 3), (2, 5)])
    assert typed(report.violations) == typed([((2, 5), "order5_printed", F(-6))])


def _shifted(relation):
    """relation with its first right-hand coefficient one larger."""
    (coefficient, slots), *rest = relation.rhs
    return dataclasses.replace(relation, rhs=((coefficient + 1, slots), *rest))


@pytest.mark.parametrize("relations", ["six", "six shifted", "five"])
def test_mirrored_relations_equal_the_per_knot_check(relations, monkeypatch):
    # the default grid reads (n, -m) from (n, m) by the parity of each
    # relation's order; an explicit grid evaluates every knot itself, and
    # the two reports agree in every field, violations in order and typed
    chosen = {"six": DEPENDENCY_RELATIONS, "five": DEPENDENCY_RELATIONS[1:],
              "six shifted": tuple(map(_shifted, DEPENDENCY_RELATIONS))}[relations]
    monkeypatch.setattr(analysis, "DEPENDENCY_RELATIONS", chosen)
    for max_n in (3, 12, 31):
        report = dependency_relations_check(max_n=max_n)
        assert typed(report) == typed(dependency_relations_check(grid=canonical_knots(max_n),
                                                                 max_n=max_n)), max_n
        assert report.checked == len(chosen) * len(list(canonical_knots(max_n)))
        if max_n == 12:
            assert len(report.violations) == (408 if relations == "six shifted" else 0)


def test_relation_residual_on_arbitrary_numerators():
    # numerators that come from no knot give nonzero residuals in every term
    rng = random.Random(7)
    for _ in range(200):
        nums = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in PRIMITIVE_ORDER)
        b = {slot: F(num, BETA_DENOMINATORS[slot]) for slot, num in zip(PRIMITIVE_ORDER, nums)}
        for rel in DEPENDENCY_RELATIONS + (PRINTED_ORDER5,):
            assert F(rel.residual_numerator(nums), rel.residual_denominator) \
                == REF_RESIDUALS[rel.name](b)


def test_scalar_kernels_equal_reference():
    for n in range(-7, 8):
        for m in range(-9, 10):
            assert outcome(lissajous_obstruction, (n, m)) \
                == outcome(ref_lissajous_obstruction, (n, m)), (n, m)
            assert outcome(auxiliary_scalars, (n, m)) \
                == outcome(ref_auxiliary_scalars, (n, m)), (n, m)


def test_lissajous_verdict_rejects_a_non_integral_beta21():
    with pytest.raises(UnsupportedInput, match=r"beta_\{2,1\} = 3/8 is not an integer"):
        lissajous_verdict(9)
    assert lissajous_verdict(24) == "obstructed" and lissajous_verdict(-48) == "inconclusive"


def ref_scan_text(predicate, bound, fmt):
    """The reference payload's document in one format: json.dumps of the
    JSON document, or the CSV lines."""
    payload, csv = ref_scan_payload(predicate, bound)
    if fmt == "csv":
        return "\n".join(csv)
    arguments = {"predicate": predicate, "max": bound, "format": fmt}
    return json.dumps({"schema_version": "1.0", "command": {"name": "scan", "arguments": arguments},
                       "payload": payload}, indent=2)


@pytest.mark.parametrize("predicate", ["lissajous-obstructed", "non-integer", "beta-curve"])
def test_scan_payload_kernel_equals_reference(predicate):
    # each format is rendered on its own, so each is held to the reference
    for bound in (-1, 0, 1, 2, 3, 5, 8, 13, 20):
        for fmt in ("json", "csv"):
            assert outcome(_scan_text, predicate, bound, fmt) \
                == outcome(ref_scan_text, predicate, bound, fmt), (bound, fmt)
