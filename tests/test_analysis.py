"""Canonicalization, dependency relations, integrality, and derived scalars."""

from fractions import Fraction as F
from math import gcd

import pytest

from torusvass.analysis import (DEPENDENCY_RELATIONS, auxiliary_scalars,
                                dependency_relations_check, distinguishing_check,
                                integrality_scan, is_v3_applicable,
                                lissajous_obstruction, noncoprime_witnesses,
                                proposition_modular_checks, v3_family_value)
from torusvass.errors import NotAKnot
from torusvass.knots import UNKNOT, CanonicalTorusKnot, canonical_knots, canonicalize
from torusvass.tables import closed_form_beta


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


def test_relations_hold_on_grid():
    report = dependency_relations_check(max_n=12)
    assert report.passed
    assert report.checked == len(DEPENDENCY_RELATIONS) * sum(
        1 for _ in canonical_knots(12))


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
# integrality and modular lemmas
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


def test_modular_lemmas():
    report = proposition_modular_checks(2000)
    assert report.passed
    assert report.checked == 2000 * 9


def test_modular_spot_values():
    assert (7 ** 2 - 1) % 24 == 0          # odd, not divisible by 3
    assert (9 * (9 ** 2 - 1)) % 24 == 0    # odd, divisible by 3
    assert (7 ** 4 - 1) % 240 == 0         # coprime to 2, 3, 5


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
