"""The exact linear-system route: assembly, solving, and the ansatz fit."""

from fractions import Fraction as F

import pytest

from torusvass import extract
from torusvass.errors import AnsatzMismatch, RankDeficient, UnsupportedInput
from torusvass.extract import (_plan_series, compare_fit_to_printed,
                               default_instantiation_plan, extract_alpha,
                               extract_alpha_tilde, fit_ansatz)
from torusvass.groups import Family, SLOT_COUNTS, group_factors, product, so_n, su2, su_n
from torusvass.invariants import normalized_series, unnormalized_series
from torusvass.knots import TorusKnot
from torusvass.linalg import ExactPoly, eliminate
from torusvass.tables import (closed_form_alpha, closed_form_alpha_tilde,
                              printed_g_table)


# a system's row for one instance: its group factors | the series coefficient

def test_assemble_single_su3_row():
    assert group_factors(su_n(3)).row(2) == (F(-2),)
    (series,) = _plan_series(TorusKnot(2, 3), [su_n(3)], False)
    assert series.coefficient(2) == F(-8)


def test_assemble_order_zero():
    assert group_factors(su_n(3)).row(0) == (F(1),)
    (series,) = _plan_series(TorusKnot(2, 3), [su_n(3)], False)
    assert series.coefficient(0) == F(1)


def test_assemble_unknot_rhs_zero():
    plan = default_instantiation_plan((1, 5))
    series = _plan_series(TorusKnot(1, 5), plan, False)
    assert len(series) == len(plan)
    for order in range(2, 7):
        assert [s.coefficient(order) for s in series] == [0] * len(plan)


def test_plan_series_evaluates_each_simple_factor_once(monkeypatch):
    calls = []

    def counting(knot, group, trunc_order):
        calls.append(group)
        return normalized_series(knot, group, trunc_order)

    monkeypatch.setattr(extract, "normalized_series", counting)
    plan = (su_n(2), su2(1), product(2, 1), product(3, 1))
    series = _plan_series(TorusKnot(2, 3), plan, False)
    assert calls == [su_n(2), su2(1), su_n(3)]
    assert series == [normalized_series(TorusKnot(2, 3), g, 6) for g in plan]


def test_plan_series_divides_by_the_dimension_when_unnormalized():
    plan = (so_n(7), product(3, 2))
    series = _plan_series(TorusKnot(2, 5), plan, True)
    assert series == [unnormalized_series(TorusKnot(2, 5), g) / group_factors(g).dim
                      for g in plan]
    assert [s.coefficient(0) for s in series] == [1, 1]


@pytest.mark.parametrize("knot", [(2, 3), (2, 5), (3, 4), (2, -3)])
def test_extract_alpha_tilde_matches_closed_form(knot):
    table, report = extract_alpha_tilde(knot)
    oracle = closed_form_alpha_tilde(TorusKnot(*knot).oriented())
    assert table.entries == oracle.entries
    assert report.rank == {i: SLOT_COUNTS[i] for i in range(2, 7)}
    assert report.all_good()


def test_extract_alpha_tilde_unknot():
    table, report = extract_alpha_tilde((1, 7))
    assert all(v == 0 for v in table.entries.values())
    assert report.all_good()


@pytest.mark.parametrize("knot", [(2, 3), (3, 4)])
def test_extract_alpha_matches_closed_form(knot):
    table, report = extract_alpha(knot)
    assert table.entries == closed_form_alpha(knot).entries
    assert report.all_good()


def test_extract_spot_values():
    table, _ = extract_alpha_tilde((2, 3))
    assert table.value(2, 1) == 4
    assert table.value(3, 1) == 8
    assert table.value(4, 3) == F(10, 3)
    alpha, _ = extract_alpha((2, 3))
    assert alpha.value(2, 1) == F(23, 6)
    assert alpha.value(3, 1) == 8
    assert alpha.value(4, 1) == F(529, 72)


def test_extract_alpha_tilde_at_larger_index():
    table, _ = extract_alpha_tilde((2, 5))
    assert table.value(2, 1) == 12


def test_rank_deficient_plan_raises(monkeypatch):
    monkeypatch.setattr(extract, "default_instantiation_plan", lambda knot: (su_n(2), su_n(3)))
    with pytest.raises(RankDeficient):
        extract_alpha_tilde((2, 3))


def test_product_rows_needed_for_order_six_rank():
    # the three simple families span only 7 of the 9 order-6 slots, no matter
    # how many parameter values are sampled; product instances close the gap
    simple = [su_n(N) for N in range(2, 10)] \
        + [so_n(N) for N in range(5, 13)] + [su2(j) for j in range(1, 9)]
    widened = simple + [product(2, 1), product(2, 2), product(3, 1)]
    for plan, rank in ((simple, 7), (widened, 9)):
        assert eliminate([group_factors(g).row(6) for g in plan], 9).rank == rank


def test_fit_rejects_the_product_family():
    with pytest.raises(UnsupportedInput, match="simple families, not product"):
        fit_ansatz(Family.PRODUCT)


def test_fit_su_n_matches_unambiguous_entries():
    fit = fit_ansatz(Family.SU_N)
    printed = printed_g_table("su_n")
    for slot, poly in fit.polynomials.items():
        if slot != (5, 3):
            assert poly == printed[slot], slot


def test_fit_su_n_resolves_g53_typo():
    fit = fit_ansatz(Family.SU_N)
    # the corrected slot factors as -N(N^2-1)(N^2+11)/86400
    expected = ExactPoly.from_degree_map({1: 11, 3: -10, 5: -1}, 86400, "N")
    assert fit.polynomials[(5, 3)] == expected
    assert fit.polynomials[(5, 3)] != printed_g_table("su_n")[(5, 3)]


def test_fit_so_n_matches_printed_table():
    fit = fit_ansatz(Family.SO_N)
    assert fit.polynomials == dict(printed_g_table("so_n"))


def test_fit_su2_resolves_typos():
    fit = fit_ansatz(Family.SU2)
    printed = printed_g_table("su2")
    for slot, poly in fit.polynomials.items():
        if slot == (6, 1):
            assert poly == ExactPoly.from_degree_map({3: 155, 2: -55, 1: 5}, 75600, "A")
            assert poly != printed[slot]
        elif slot == (6, 3):
            # unbalanced parenthesis in the source, digits themselves sound
            assert poly == printed[slot]
        else:
            assert poly == printed[slot], slot


def test_fit_vanishes_at_trivial_group():
    # SU(1) is trivial, so every fitted coefficient polynomial has root N=1
    fit = fit_ansatz(Family.SU_N)
    for poly in fit.polynomials.values():
        assert poly.evaluate(1) == 0


def test_comparison_report_shape():
    fit = fit_ansatz(Family.SU2)
    comparisons = compare_fit_to_printed(fit)
    assert len(comparisons) == 14
    flagged = {c.slot for c in comparisons if c.suspected_typo}
    assert flagged == {(6, 1), (6, 3)}
    assert all(c.matches for c in comparisons if not c.suspected_typo)


def test_fit_needs_enough_knots(monkeypatch):
    # two knots cannot span the three order-4 slots
    monkeypatch.setattr(extract, "DEFAULT_FIT_GRID", ((2, 3), (2, 5)))
    with pytest.raises(AnsatzMismatch):
        fit_ansatz(Family.SU_N)


@pytest.mark.parametrize("family,parameter,abscissa", [
    (Family.SU_N, 5, 5),
    (Family.SO_N, 8, 8),
    (Family.SU2, 3, F(-15, 4)),  # A = -j(j+2)/4 at j = 3
])
def test_fitted_g_reproduces_alpha_tilde_through_factors(family, parameter, abscissa):
    # pushing the fitted polynomials through the slot monomials must equal the
    # group-factor contraction of the closed-form table
    from torusvass.groups import group_factors, so_n, su2
    from torusvass.tables import ANSATZ_SLOT_MONOMIALS, ansatz_prefactor

    instance = {Family.SU_N: su_n, Family.SO_N: so_n, Family.SU2: su2}[family](parameter)
    fit = fit_ansatz(family)
    n, m = 3, 4
    u, v = F(n * n), F(m * m)
    tilde = closed_form_alpha_tilde((n, m)).entries
    r = group_factors(instance)
    for order in range(2, 7):
        via_fit = ansatz_prefactor(n, m, order) * sum(
            fit.polynomials[(order, s + 1)].evaluate(abscissa)
            * ANSATZ_SLOT_MONOMIALS[order][s](u, v)
            for s in range(len(ANSATZ_SLOT_MONOMIALS[order]))
        )
        via_table = sum(tilde[slot] * r.entries[slot]
                        for slot in [(order, j) for j in range(1, SLOT_COUNTS[order] + 1)])
        assert via_fit == via_table


def _count_evaluations(monkeypatch):
    """Wrap the evaluators of torusvass.invariants with call counters: the
    simple families where normalized_series finds them, in the family table,
    and unknot_factor by name."""
    import torusvass.invariants as invariants

    counts = {}

    def counted(original):
        def wrapper(*args, **kwargs):
            counts[original.__name__] = counts.get(original.__name__, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(invariants, "_FAMILIES", {
        family: (build, counted(evaluate))
        for family, (build, evaluate) in invariants._FAMILIES.items()})
    monkeypatch.setattr(invariants, "unknot_factor", counted(invariants.unknot_factor))
    return counts


def test_product_instances_reuse_factor_series(monkeypatch):
    # the default plan samples SU(N) at N = 2..7 and SU(2) at j = 1..6, which
    # covers every factor of its seven product instances
    counts = _count_evaluations(monkeypatch)
    extract_alpha_tilde((6, 7))
    assert counts == {"homfly_normalized": 6, "akutsu_wadati_normalized": 6,
                      "kauffman_normalized": 6}
    counts.clear()
    extract_alpha((6, 7))
    assert counts == {"homfly_normalized": 6, "akutsu_wadati_normalized": 6,
                      "kauffman_normalized": 6, "unknot_factor": 18}


def test_product_factors_outside_the_plan(monkeypatch):
    plan = [su_n(N) for N in range(2, 8)] + [so_n(N) for N in range(8, 14)] \
        + [su2(j) for j in range(1, 5)] + [product(9, 6), product(8, 5)]
    monkeypatch.setattr(extract, "default_instantiation_plan", lambda knot: tuple(plan))
    table, report = extract_alpha_tilde((6, 7))
    assert report.all_good()
    assert table.entries == closed_form_alpha_tilde((6, 7)).entries
    table, report = extract_alpha((6, 7))
    assert report.all_good()
    assert table.entries == closed_form_alpha((6, 7)).entries
