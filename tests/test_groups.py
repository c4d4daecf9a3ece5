"""Casimir tables and group factor vectors."""

from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from torusvass.extract import default_instantiation_plan
from torusvass.groups import (PRIMITIVE_SLOTS, Family, GroupInstance,
                              _casimirs, group_factors, product, simple_factors, so_n, su2,
                              su_n, SLOT_COUNTS)


# ----------------------------------------------------------------------
# reference: each slot as a Casimir monomial divided by powers of C2
# ----------------------------------------------------------------------

def ref_casimirs(group: GroupInstance) -> dict:
    """C2..C6 and dim of one simple instance, in the same closed forms."""
    if group.family == Family.SU_N:
        N = group.N
        c = F(N * N - 1)
        return dict(c2=-c / (2 * N), c3=-c / 4, c4=c * (N * N + 2) / 16,
                    c5=F(N) * c * (N * N + 1) / 32, c6_1=c * (N ** 4 + N * N + 2) / 64,
                    c6_2=c * (3 * N * N - 2) / 64, dim=F(N))
    if group.family == Family.SO_N:
        N = group.N
        a, b = F(N - 1), F(N - 2)
        return dict(c2=-a / 4, c3=-a * b / 16, c4=a * b * (N * N - 5 * N + 10) / 256,
                    c5=a * b * (N ** 3 - 7 * N * N + 17 * N - 10) / 1024,
                    c6_1=a * b * (N * N - 7 * N + 14) * (N * N - 2 * N + 3) / 4096,
                    c6_2=a * b * (N - 3) * (7 * N - 18) / 4096, dim=F(N))
    sigma = F(group.j, 2)
    q = sigma * (sigma + 1)
    return dict(c2=-q, c3=-q, c4=2 * q * q, c5=3 * q * q - q,
                c6_1=2 * q ** 3 + 3 * q * q - 2 * q, c6_2=-2 * q ** 3 + 5 * q * q - 2 * q,
                dim=F(group.j + 1))


REF_MONOMIALS = {
    (2, 1): lambda c: c["c3"],
    (3, 1): lambda c: c["c3"] ** 2 / c["c2"],
    (4, 2): lambda c: c["c3"] ** 3 / c["c2"] ** 2,
    (4, 3): lambda c: c["c4"],
    (5, 2): lambda c: c["c3"] ** 4 / c["c2"] ** 3,
    (5, 3): lambda c: c["c4"] * c["c3"] / c["c2"],
    (5, 4): lambda c: c["c5"],
    (6, 5): lambda c: c["c3"] ** 5 / c["c2"] ** 4,
    (6, 6): lambda c: c["c4"] * c["c3"] ** 2 / c["c2"] ** 2,
    (6, 7): lambda c: c["c5"] * c["c3"] / c["c2"],
    (6, 8): lambda c: c["c6_1"],
    (6, 9): lambda c: c["c6_2"],
}


def ref_compounds(r: dict) -> dict:
    """The six compound slots, each written out as its product."""
    return {
        (4, 1): r[(2, 1)] ** 2, (5, 1): r[(2, 1)] * r[(3, 1)],
        (6, 1): r[(2, 1)] ** 3, (6, 2): r[(3, 1)] ** 2,
        (6, 3): r[(2, 1)] * r[(4, 2)], (6, 4): r[(2, 1)] * r[(4, 3)],
    }


def ref_group_factors(group: GroupInstance) -> tuple[dict, F]:
    sets = [ref_casimirs(g) for g in simple_factors(group)]
    r = {(0, 1): F(1)}
    for slot, monomial in REF_MONOMIALS.items():
        r[slot] = sum((monomial(c) for c in sets), F(0))
    r.update(ref_compounds(r))
    dim = F(1)
    for c in sets:
        dim *= c["dim"]
    return r, dim


def _reference_instances() -> list:
    instances = [su_n(N) for N in range(2, 61)] + [so_n(N) for N in range(5, 61)] \
        + [su2(j) for j in range(1, 61)]
    for n in range(1, 42):  # the plan depends on n alone
        instances += default_instantiation_plan((n, n + 1))
    return list(dict.fromkeys(instances))


def test_group_factors_equal_the_division_chain():
    for group in _reference_instances():
        entries, dim = ref_group_factors(group)
        r = group_factors.__wrapped__(group)
        assert dict(r.entries) == entries, group
        assert list(r.entries) == list(entries), group
        assert all(type(v) is F for v in r.entries.values()), group
        assert (type(r.dim), r.dim) == (F, dim), group


def test_su_n_values_at_2():
    c, s, dim = _casimirs(su_n(2))
    assert (c["C3"] / s, c["C3"], c["C4"]) == (F(-3, 4), F(-3, 4), F(9, 8))
    assert c["C5"] == F(15, 16)
    assert dim == 2


def test_so_n_c3_at_5():
    assert _casimirs(so_n(5))[0]["C3"] == F(-3, 4)


def test_su2_matches_su_n_at_fundamental():
    # spin 1/2 of SU(2) is the fundamental of SU(N=2)
    assert _casimirs(su2(1)) == _casimirs(su_n(2))


def test_su2_c2_equals_a_constant():
    # s = 1, so C2 = C3 = A = -j(j+2)/4
    for j in range(1, 7):
        c, s, _ = _casimirs(su2(j))
        assert (c["C3"], s) == (F(-j * (j + 2), 4), 1)


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
        c = ref_casimirs(inst)
        r = group_factors(inst)
        assert r.r(3, 1) * c["c2"] == c["c3"] ** 2


def test_product_sums_primitives():
    r = group_factors(product(2, 1))
    assert r.r(2, 1) == F(-3, 4) + F(-3, 4)
    assert r.dim == 4


def test_simple_factors():
    assert simple_factors(product(3, 2)) == (su_n(3), su2(2))
    for group in (su_n(3), so_n(7), su2(2)):
        assert simple_factors(group) == (group,)
    assert group_factors(product(3, 2)).dim == 3 * 3


def test_additivity_of_identical_factors():
    # a product's primitive slots add over its factors, and its dimension multiplies
    for N, j in ((2, 1), (4, 3), (7, 5)):
        both, left, right = group_factors(product(N, j)), group_factors(su_n(N)), \
            group_factors(su2(j))
        for slot in PRIMITIVE_SLOTS:
            assert both.entries[slot] == left.entries[slot] + right.entries[slot]
        for slot, value in ref_compounds(both.entries).items():
            assert both.entries[slot] == value
        assert both.dim == left.dim * right.dim


def test_r_zero_slot_is_one():
    assert group_factors(su2(2)).entries[(0, 1)] == 1


def test_group_factors_memoized_read_only():
    fresh = group_factors.__wrapped__(so_n(9))
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
