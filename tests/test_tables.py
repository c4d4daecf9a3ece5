"""Closed-form invariant tables and the beta normalization routes."""

from fractions import Fraction as F

import pytest

from torusvass.groups import ALL_SLOTS
from torusvass.knots import TorusKnot
from torusvass.tables import (TREFOIL_NORMALIZERS, beta_from_alpha_tilde,
                              closed_form_alpha, closed_form_alpha_tilde,
                              closed_form_beta, printed_g_table)

GRID = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, -3), (5, 6)]

#: pairs that are not knots: non-coprime, or with a unit index (unknots)
NONCOPRIME = [(2, 2), (2, -4), (3, 6), (4, 6), (6, 9), (-4, 10), (1, 1), (1, -6)]

#: every pair 1 <= n <= 40, 0 < |m| <= 40, coprime or not
REFERENCE_GRID = [(n, m) for n in range(1, 41) for m in range(-40, 41) if m != 0]


# ----------------------------------------------------------------------
# test-only references: each table written out in Fraction arithmetic, one
# polynomial per table and slot, with the beta denominators as printed; the
# integer rows must reproduce them exactly
# ----------------------------------------------------------------------

REF_SCALE = {(4, 1): F(1, 2), (5, 1): F(1), (6, 1): F(1, 6),
             (6, 2): F(1, 2), (6, 3): F(1), (6, 4): F(1)}


def ref_with_compounds(p, scale):
    compounds = {
        (4, 1): p[(2, 1)] ** 2, (5, 1): p[(2, 1)] * p[(3, 1)],
        (6, 1): p[(2, 1)] ** 3, (6, 2): p[(3, 1)] ** 2,
        (6, 3): p[(2, 1)] * p[(4, 2)], (6, 4): p[(2, 1)] * p[(4, 3)],
    }
    entries = {**p, **{s: scale(s) * v for s, v in compounds.items()}}
    return {s: entries[s] for s in ALL_SLOTS}


def ref_alpha_tilde(n, m):
    u, v = F(n * n), F(m * m)
    P = (u - 1) * (v - 1)
    nm = F(n * m)
    prim = {
        (2, 1): P / 6,
        (3, 1): nm * P / 18,
        (4, 2): P * (9 * u * v - u - v - 1) / 360,
        (4, 3): P * (u + 1) * (v + 1) / 360,
        (5, 2): nm * P * (69 * u * v - 21 * (u + v) - 11) / 5400,
        (5, 3): nm * P * (11 * u * v + u + v - 9) / 5400,
        (5, 4): nm * P * (u + 1) * (v + 1) / 900,
        (6, 5): P * (516 * u * u * v * v - 289 * (u * v * v + u * u * v)
                     - 44 * u * v + 5 * (u * u + v * v) + 5 * (u + v) + 5) / 75600,
        (6, 6): P * (53 * u * u * v * v - 101 * (u * v * v + u * u * v)
                     - 115 * u * v - 24 * (u * u + v * v) - 24 * (u + v) - 24) / 90720,
        (6, 7): P * (419 * u * u * v * v + 209 * (u * v * v + u * u * v)
                     - u * v + 20 * (u * u + v * v) + 20 * (u + v) + 20) / 226800,
        (6, 8): P * (13 * u * u * v * v + 13 * (u * v * v + u * u * v)
                     + 13 * u * v - 50 * (u * u + v * v) - 50 * (u + v) - 50) / 453600,
        (6, 9): P * (31 * u * u * v * v + 31 * (u * v * v + u * u * v)
                     + 31 * u * v + 10 * (u * u + v * v) + 10 * (u + v) + 10) / 151200,
    }
    return ref_with_compounds(prim, REF_SCALE.__getitem__)


def ref_alpha(n, m):
    u, v = F(n * n), F(m * m)
    w, z = u * u * u, v * v * v  # n^6, m^6
    tilde = ref_alpha_tilde(n, m)
    prim = {
        (2, 1): (u * v - u - v) / 6,
        (3, 1): tilde[(3, 1)],
        (4, 2): (9 * u * u * v * v - 10 * (u * v * v + u * u * v)
                 + (u * u + v * v) + 10 * u * v) / 360,
        (4, 3): (u * u * v * v - u * u - v * v) / 360,
        (5, 2): tilde[(5, 2)],
        (5, 3): tilde[(5, 3)],
        (5, 4): tilde[(5, 4)],
        (6, 5): (516 * w * z - 805 * (u * u * z + w * v * v) + 1050 * u * u * v * v
                 + 294 * (u * z + w * v) - 245 * (u * v * v + u * u * v)
                 - 5 * (w + z) - 49 * u * v) / 75600,
        (6, 6): (53 * w * z - 154 * (u * u * z + w * v * v) + 140 * u * u * v * v
                 + 77 * (u * z + w * v) + 14 * (u * v * v + u * u * v)
                 + 24 * (w + z) - 91 * u * v) / 90720,
        (6, 7): (419 * w * z - 210 * (u * u * z + w * v * v)
                 - 189 * (u * z + w * v) + 210 * (u * v * v + u * u * v)
                 - 20 * (w + z) - 21 * u * v) / 226800,
        (6, 8): (13 * w * z - 63 * (u * z + w * v) + 50 * (w + z) + 63 * u * v) / 453600,
        (6, 9): (31 * w * z - 21 * (u * z + w * v) - 10 * (w + z) + 21 * u * v) / 151200,
    }
    return ref_with_compounds(prim, REF_SCALE.__getitem__)


def ref_beta(n, m):
    u, v = F(n * n), F(m * m)
    P = (u - 1) * (v - 1)
    nm = F(n * m)
    prim = {
        (2, 1): P / 24,
        (3, 1): nm * P / 144,
        (4, 2): P * (9 * u * v - u - v - 1) / 240,
        (4, 3): P * (u + 1) * (v + 1) / 240,
        (5, 2): nm * P * (69 * u * v - 21 * (u + v) - 11) / 28800,
        (5, 3): nm * P * (11 * u * v + u + v - 9) / 57600,
        (5, 4): nm * P * (u + 1) * (v + 1) / 7200,
        (6, 5): P * (516 * u * u * v * v - 289 * (u * v * v + u * u * v)
                     - 44 * u * v + 5 * (u * u + v * v) + 5 * (u + v) + 5) / 2520,
        (6, 6): P * (53 * u * u * v * v - 101 * (u * v * v + u * u * v)
                     - 115 * u * v - 24 * (u * u + v * v) - 24 * (u + v) - 24) / 12096,
        (6, 7): P * (419 * u * u * v * v + 209 * (u * v * v + u * u * v)
                     - u * v + 20 * (u * u + v * v) + 20 * (u + v) + 20) / 10080,
        (6, 8): P * (13 * u * u * v * v + 13 * (u * v * v + u * u * v)
                     + 13 * u * v - 50 * (u * u + v * v) - 50 * (u + v) - 50) / 25200,
        (6, 9): P * (31 * u * u * v * v + 31 * (u * v * v + u * u * v)
                     + 31 * u * v + 10 * (u * u + v * v) + 10 * (u + v) + 10) / 5040,
    }
    return ref_with_compounds(prim, lambda s: F(1))


@pytest.mark.parametrize("closed_form, reference", [
    (closed_form_alpha_tilde, ref_alpha_tilde),
    (closed_form_alpha, ref_alpha),
    (closed_form_beta, ref_beta),
], ids=["alpha_tilde", "alpha", "beta"])
def test_integer_rows_equal_fraction_reference(closed_form, reference):
    # every entry, in slot order, on coprime and non-coprime pairs and unknots
    for n, m in REFERENCE_GRID:
        got = closed_form((n, m)).entries
        want = reference(n, m)
        assert list(got) == list(want), (n, m)
        assert got == want, (n, m)
        assert all(type(value) is F for value in got.values()), (n, m)

TREFOIL_BETA = {
    (2, 1): 1, (3, 1): 1, (4, 2): 31, (4, 3): 5, (5, 2): 11, (5, 3): 1,
    (5, 4): 1, (6, 5): 5071, (6, 6): 29, (6, 7): 1531, (6, 8): 17, (6, 9): 271,
}


def test_alpha_tilde_trefoil_values():
    t = closed_form_alpha_tilde((2, 3)).entries
    assert t[(2, 1)] == 4
    assert t[(3, 1)] == 8
    assert t[(4, 1)] == 8
    assert t[(4, 2)] == F(62, 3)   # symmetric 9 n^2 m^2 reading
    assert t[(4, 3)] == F(10, 3)
    assert t[(5, 2)] == F(176, 3)


def test_alpha_tilde_further_grid_value():
    assert closed_form_alpha_tilde((2, 5)).entries[(2, 1)] == 12


def test_alpha_tilde_vanishes_on_unknots():
    for m in (1, 5, -7):
        assert all(v == 0 for v in closed_form_alpha_tilde((1, m)).entries.values())


@pytest.mark.parametrize("knot", GRID)
def test_alpha_tilde_compound_identities(knot):
    t = closed_form_alpha_tilde(knot).entries
    assert t[(4, 1)] == t[(2, 1)] ** 2 / 2
    assert t[(5, 1)] == t[(2, 1)] * t[(3, 1)]
    assert t[(6, 1)] == t[(2, 1)] ** 3 / 6
    assert t[(6, 2)] == t[(3, 1)] ** 2 / 2
    assert t[(6, 3)] == t[(2, 1)] * t[(4, 2)]
    assert t[(6, 4)] == t[(2, 1)] * t[(4, 3)]


def test_alpha_trefoil_values():
    a = closed_form_alpha((2, 3)).entries
    assert a[(2, 1)] == F(23, 6)
    assert a[(3, 1)] == 8
    assert a[(4, 1)] == F(529, 72)


@pytest.mark.parametrize("knot", GRID)
def test_alpha_odd_orders_match_tilde(knot):
    a = closed_form_alpha(knot).entries
    t = closed_form_alpha_tilde(knot).entries
    for slot in [(3, 1), (5, 2), (5, 3), (5, 4)]:
        assert a[slot] == t[slot]


def test_beta_trefoil_is_normalizer_vector():
    b = closed_form_beta((2, 3)).entries
    for slot, expected in TREFOIL_BETA.items():
        assert b[slot] == expected
    assert TREFOIL_BETA == TREFOIL_NORMALIZERS


def test_beta_examples():
    b = closed_form_beta((2, 5)).entries
    assert b[(2, 1)] == 3 and b[(3, 1)] == 5
    assert closed_form_beta((2, 2)).entries[(2, 1)] == F(3, 8)
    assert closed_form_beta((4, 3)).entries[(3, 1)] == 10


@pytest.mark.parametrize("knot", GRID + NONCOPRIME)
def test_beta_routes_agree(knot):
    via_tilde = beta_from_alpha_tilde(closed_form_alpha_tilde(knot))
    direct = closed_form_beta(knot)
    assert via_tilde.entries == direct.entries


@pytest.mark.parametrize("knot", GRID)
def test_beta_compounds_are_products(knot):
    b = closed_form_beta(knot).entries
    assert b[(4, 1)] == b[(2, 1)] ** 2
    assert b[(5, 1)] == b[(2, 1)] * b[(3, 1)]
    assert b[(6, 1)] == b[(2, 1)] ** 3
    assert b[(6, 2)] == b[(3, 1)] ** 2
    assert b[(6, 3)] == b[(2, 1)] * b[(4, 2)]
    assert b[(6, 4)] == b[(2, 1)] * b[(4, 3)]


@pytest.mark.parametrize("knot", GRID)
def test_beta_parity_under_mirror(knot):
    n, m = knot
    plus = closed_form_beta((n, m)).entries
    minus = closed_form_beta((n, -m)).entries
    for (i, j), value in plus.items():
        assert minus[(i, j)] == (value if i % 2 == 0 else -value)


def test_beta_from_alpha_tilde_rejects_wrong_kind():
    with pytest.raises(ValueError):
        beta_from_alpha_tilde(closed_form_beta((2, 3)))


def test_table_metadata():
    table = closed_form_beta((3, 4))
    assert table.kind == "beta" and table.knot == TorusKnot(3, 4)
    assert len(table.entries) == 18
    assert len(table.through_order(4)) == 5


def test_printed_g_spot_values():
    su = printed_g_table("su_n")
    assert su[(2, 1)].evaluate(3) == F(-8, 24)
    so = printed_g_table("so_n")
    assert so[(2, 1)].evaluate(7) == F(-30, 96)
    assert so[(3, 1)].evaluate(5) == F(-(5 - 2) ** 2 * 4, 1152)
    a = printed_g_table("su2")
    assert a[(4, 3)].evaluate(F(-3, 4)) == F(1, 360) * F(-3, 4) * (7 * F(-3, 4) + 9)
