"""Casimir tables and group factor vectors."""

from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from torusvass.errors import ZeroCasimirDivision
from torusvass.groups import (Family, GroupInstance, SLOTS, casimir_sets, casimirs,
                              group_factor_vector, group_factors, product,
                              simple_factors, so_n, su2, su_n, SLOT_COUNTS)


def test_su_n_values_at_2():
    c = casimirs(Family.SU_N, 2)
    assert (c.c2, c.c3, c.c4) == (F(-3, 4), F(-3, 4), F(9, 8))
    assert c.c5 == F(15, 16)
    assert c.dim == 2


def test_so_n_c3_at_5():
    assert casimirs(Family.SO_N, 5).c3 == F(-3, 4)


def test_su2_matches_su_n_at_fundamental():
    # spin 1/2 of SU(2) is the fundamental of SU(N=2)
    a, b = casimirs(Family.SU2, 1), casimirs(Family.SU_N, 2)
    assert (a.c2, a.c3, a.c4, a.c5, a.c6_1, a.c6_2, a.dim) == \
        (b.c2, b.c3, b.c4, b.c5, b.c6_1, b.c6_2, b.dim)


def test_su2_c2_equals_a_constant():
    for j in range(1, 7):
        assert casimirs(Family.SU2, j).c2 == F(-j * (j + 2), 4)


def test_primitive_r21_su3():
    assert group_factors(su_n(3)).r(2, 1) == -2


def test_compound_slots():
    r = group_factors(su_n(5))
    assert r.r(4, 1) == r.r(2, 1) ** 2
    assert r.r(5, 1) == r.r(2, 1) * r.r(3, 1)
    assert r.r(6, 1) == r.r(2, 1) ** 3
    assert r.r(6, 2) == r.r(3, 1) ** 2
    assert r.r(6, 3) == r.r(2, 1) * r.r(4, 2)
    assert r.r(6, 4) == r.r(2, 1) * r.r(4, 3)


def test_r31_definition_unwound():
    for inst in (su_n(4), so_n(7), su2(3)):
        (c,) = casimir_sets(inst)
        r = group_factors(inst)
        assert r.r(3, 1) * c.c2 == c.c3 ** 2


def test_product_sums_primitives():
    r = group_factors(product(2, 1))
    assert r.r(2, 1) == F(-3, 4) + F(-3, 4)
    assert r.dim == 4


def test_simple_factors():
    assert simple_factors(product(3, 2)) == (su_n(3), su2(2))
    for group in (su_n(3), so_n(7), su2(2)):
        assert simple_factors(group) == (group,)
    assert casimir_sets(product(3, 2)) == casimir_sets(su_n(3)) + casimir_sets(su2(2))


def test_additivity_of_identical_factors():
    single = group_factor_vector(casimir_sets(su_n(4)))
    double = group_factor_vector(casimir_sets(su_n(4)) * 2)
    for order in (2, 3, 4, 5, 6):
        for slot in SLOTS[order]:
            if slot in ((2, 1), (3, 1), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4),
                        (6, 5), (6, 6), (6, 7), (6, 8), (6, 9)):
                assert double.entries[slot] == 2 * single.entries[slot]
    assert double.dim == single.dim ** 2


def test_r_zero_slot_is_one():
    assert group_factors(su2(2)).entries[(0, 1)] == 1


def test_group_factors_memoized_read_only():
    fresh = group_factor_vector(casimir_sets(so_n(9)))
    cached = group_factors(so_n(9))
    assert group_factors(so_n(9)) == cached == fresh
    with pytest.raises(TypeError):
        cached.entries[(2, 1)] = F(0)
    with pytest.raises(TypeError):
        del cached.entries[(0, 1)]
    with pytest.raises(FrozenInstanceError):
        cached.entries = dict(cached.entries)
    assert group_factors(so_n(9)).entries == fresh.entries


def test_slot_counts():
    assert [SLOT_COUNTS[i] for i in range(7)] == [1, 0, 1, 1, 3, 4, 9]


def test_zero_casimir_rejected():
    broken = casimirs(Family.SU_N, 2)
    broken = type(broken)(c2=F(0), c3=broken.c3, c4=broken.c4, c5=broken.c5,
                          c6_1=broken.c6_1, c6_2=broken.c6_2, dim=broken.dim)
    with pytest.raises(ZeroCasimirDivision):
        group_factor_vector([broken])


def test_instance_validation():
    with pytest.raises(ValueError):
        GroupInstance(Family.SO_N, N=4)
    with pytest.raises(ValueError):
        su2(0)
    with pytest.raises(ValueError):
        su_n(1)


def test_substitution_scale():
    assert su_n(3).substitution_scale == 1
    assert su2(2).substitution_scale == 1
    assert so_n(7).substitution_scale == F(1, 2)
