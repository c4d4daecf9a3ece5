"""Closed-form invariant tables and the beta normalization routes."""

from fractions import Fraction as F
from math import comb, factorial
from types import SimpleNamespace

import pytest

from torusvass import tables
from torusvass.groups import (ALL_SLOTS, PRIMITIVE_SLOTS, SLOTS, Family, _casimirs,
                              compound_values)
from torusvass.knots import TorusKnot
from torusvass.tables import (PRIMITIVE_ORDER, SHARPNESS_PAIRS, TREFOIL_NORMALIZERS,
                              beta_from_alpha_tilde, closed_form_alpha,
                              closed_form_alpha_tilde, closed_form_beta,
                              primitive_columns, primitive_numerators, printed_g_table)

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

# ----------------------------------------------------------------------
# test-only reference: the twelve rows as numerator polynomials in u = n^2,
# v = m^2 with their prefactor kinds, P = (n^2-1)(m^2-1) or nm P; the
# integer coefficient rows must evaluate to them on every pair
# ----------------------------------------------------------------------

REFERENCE_ROWS = {
    (2, 1): ("P", lambda u, v: 1),
    (3, 1): ("nmP", lambda u, v: 1),
    (4, 2): ("P", lambda u, v: 9 * u * v - u - v - 1),
    (4, 3): ("P", lambda u, v: (u + 1) * (v + 1)),
    (5, 2): ("nmP", lambda u, v: 69 * u * v - 21 * (u + v) - 11),
    (5, 3): ("nmP", lambda u, v: 11 * u * v + u + v - 9),
    (5, 4): ("nmP", lambda u, v: (u + 1) * (v + 1)),
    (6, 5): ("P", lambda u, v: (516 * u * u * v * v - 289 * (u * v * v + u * u * v)
                                - 44 * u * v + 5 * (u * u + v * v) + 5 * (u + v) + 5)),
    (6, 6): ("P", lambda u, v: (53 * u * u * v * v - 101 * (u * v * v + u * u * v)
                                - 115 * u * v - 24 * (u * u + v * v) - 24 * (u + v) - 24)),
    (6, 7): ("P", lambda u, v: (419 * u * u * v * v + 209 * (u * v * v + u * u * v)
                                - u * v + 20 * (u * u + v * v) + 20 * (u + v) + 20)),
    (6, 8): ("P", lambda u, v: (13 * u * u * v * v + 13 * (u * v * v + u * u * v)
                                + 13 * u * v - 50 * (u * u + v * v) - 50 * (u + v) - 50)),
    (6, 9): ("P", lambda u, v: (31 * u * u * v * v + 31 * (u * v * v + u * u * v)
                                + 31 * u * v + 10 * (u * u + v * v) + 10 * (u + v) + 10)),
}


def reference_numerators(n, m):
    u, v = n * n, m * m
    p = (u - 1) * (v - 1)
    prefactors = {"P": p, "nmP": n * m * p}
    return {slot: prefactors[kind] * numerator(u, v)
            for slot, (kind, numerator) in REFERENCE_ROWS.items()}


#: every slot tuple a caller passes: all twelve (the tables, the relation and
#: integrality scans), beta_{2,1} with beta_{3,1} (distinguishing, beta-curve,
#: the scalars), beta_{2,1} alone (lissajous) and each slot alone (sharpness)
CALLER_SLOTS = [PRIMITIVE_ORDER, ((2, 1), (3, 1)), ((2, 1),),
                *sorted({(slot,) for slot in SHARPNESS_PAIRS})]


def test_rows_equal_the_reference_polynomials():
    # n in -60..60 and m in -300..300, zeros and non-coprime pairs included,
    # one m at a time and one column of every m at a time
    ms = list(range(-300, 301))
    for n in range(-60, 61):
        want = [reference_numerators(n, m) for m in ms]
        columns = primitive_columns(n, ms)
        assert columns == [[row[slot] for row in want] for slot in PRIMITIVE_ORDER], n
        assert all(type(num) is int for column in columns for num in column), n
        for slots in CALLER_SLOTS:
            got = [primitive_numerators(n, m, slots) for m in ms]
            assert got == [tuple(row[slot] for slot in slots) for row in want], (n, slots)
            assert all(type(num) is int for nums in got for num in nums), (n, slots)
    assert len(CALLER_SLOTS) == 15


def test_columns_take_any_list_of_m():
    assert primitive_columns(5, []) == [[] for _ in PRIMITIVE_ORDER]
    ms = [7, 0, -7, 7, 300]
    assert primitive_columns(-3, ms) == [list(column) for column in
                                         zip(*(primitive_numerators(-3, m) for m in ms))]


#: n and m of the pairs the symmetry test walks, 0, +-1 and the non-coprime
#: pairs among them
SYMMETRY_SPAN = list(range(-12, 13))


def broken_identities():
    """(slot, where, n, m) for each value, over n and m in SYMMETRY_SPAN,
    that breaks one of the two identities analysis.integrality_scan rests
    on: a beta at (n, -m) is its value at (n, m), negated at odd orders, and
    at (m, n) it is its value at (n, m).  where names the call and pair that
    broke it; primitive_columns must agree with primitive_numerators."""
    broken = []
    for n in SYMMETRY_SPAN:
        columns = primitive_columns(n, SYMMETRY_SPAN)
        mirrored = primitive_columns(n, [-m for m in SYMMETRY_SPAN])
        for i, m in enumerate(SYMMETRY_SPAN):
            nums = primitive_numerators(n, m)
            at = {"(n, -m)": primitive_numerators(n, -m), "(m, n)": primitive_numerators(m, n),
                  "column at (n, m)": [column[i] for column in columns],
                  "column at (n, -m)": [column[i] for column in mirrored],
                  "column at (m, n)": [column[0] for column in primitive_columns(m, [n])]}
            for k, slot in enumerate(PRIMITIVE_ORDER):
                sign = -1 if slot[0] % 2 else 1
                want = {"(n, -m)": sign * nums[k], "(m, n)": nums[k],
                        "column at (n, m)": nums[k], "column at (n, -m)": sign * nums[k],
                        "column at (m, n)": nums[k]}
                broken += [(slot, where, n, m) for where, value in want.items()
                           if at[where][k] != value]
    return broken


def test_rows_are_symmetric_in_n_and_m_and_even_or_odd_in_m():
    # the premise of integrality_scan, which evaluates only 1 <= n <= m and
    # reads the rest of its square from those pairs
    assert broken_identities() == []


def test_a_row_that_breaks_an_identity_is_named(monkeypatch):
    # negative control: beta_{3,1} without its factor m, n (n^2-1)(m^2-1)/144,
    # is even in m and not symmetric in n and m
    forms = tables._forms
    monkeypatch.setattr(tables, "_forms", lambda n, slots: tuple(
        (odd and slot != (3, 1), *rest) for slot, (odd, *rest) in zip(slots, forms(n, slots))))
    assert {(slot, where) for slot, where, _, _ in broken_identities()} == {
        ((3, 1), where) for where in ("(n, -m)", "(m, n)", "column at (n, -m)",
                                      "column at (m, n)")}


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


# ----------------------------------------------------------------------
# the Alexander-Conway route: HOMFLY at N = 0, with no series engine
# ----------------------------------------------------------------------

def bernoulli(count):
    """B_0 .. B_{count-1}, exactly, from sum_{j<=k} C(k+1, j) B_j = 0."""
    b = [F(1)]
    for k in range(1, count):
        b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def conway_coefficients(n, m, order=6):
    """[x^0 .. x^order] of exp(sum_k B_2k / (2k (2k)!) (n^2k - 1)(m^2k - 1) x^2k),
    the symmetric Alexander polynomial of {n, m} at t = e^x, from its log."""
    b = bernoulli(order + 1)
    log = [F(0)] * (order + 1)
    for k in range(1, order // 2 + 1):
        log[2 * k] = (b[2 * k] / (2 * k * factorial(2 * k))
                      * (n ** (2 * k) - 1) * (m ** (2 * k) - 1))
    coefficients = [F(1)]
    for d in range(1, order + 1):  # e' = log' e
        coefficients.append(sum(j * log[j] * coefficients[d - j]
                                for j in range(1, d + 1)) / d)
    return coefficients


def su0_group_factors():
    """r_slot of SU(N) continued to N = 0 (s = 0 there), from the package's
    own Casimirs, primitive slots and compound products."""
    casimir, s, _ = _casimirs(SimpleNamespace(family=Family.SU_N, N=0))
    primitives = {slot: casimir[name] * s ** k for slot, (name, k) in PRIMITIVE_SLOTS.items()}
    return {**primitives, **compound_values(primitives)}


#: n, m in -3..3: both sides have degree <= 6 in n and in m, so agreement on
#: this 7x7 tensor grid is agreement at every (n, m), knot or not
CONWAY_GRID = [(n, m) for n in range(-3, 4) for m in range(-3, 4)]


def conway_mismatches(r):
    """The (n, m, d) on the grid where sum_j r_(d,j) alpha_tilde_(d,j)(n, m)
    is not [x^d] of the Alexander-Conway series, for d = 2..6."""
    mismatches = []
    for n, m in CONWAY_GRID:
        tilde = closed_form_alpha_tilde(TorusKnot(n, m)).entries
        want = conway_coefficients(n, m)
        mismatches += [(n, m, d) for d in range(2, 7)
                       if sum(r[slot] * tilde[slot] for slot in SLOTS[d]) != want[d]]
    return mismatches


def test_su0_contraction_is_the_alexander_conway_polynomial():
    r = su0_group_factors()
    assert (r[(2, 1)], r[(4, 3)], r[(6, 8)], r[(6, 9)]) == (F(1, 4), F(-1, 8), F(-1, 32),
                                                            F(1, 32))
    assert bernoulli(7)[2::2] == [F(1, 6), F(-1, 30), F(1, 42)]
    assert len(CONWAY_GRID) * 5 == 245
    assert conway_mismatches(r) == []
    # negative control: the identity needs every slot, (6, 4) included
    assert r[(6, 4)] != 0
    assert conway_mismatches({**r, (6, 4): 0})
