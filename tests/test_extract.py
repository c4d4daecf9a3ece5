"""The exact linear-system route: assembly, solving, and the ansatz fit."""

from fractions import Fraction as F

import pytest

from torusvass import extract
from torusvass.errors import AnsatzMismatch, DegreeExceeded, RankDeficient, UnsupportedInput
from torusvass.errors import Inconsistent
from torusvass.extract import (_Plan, _plan_series, _right_hand_sides, compare_fit_to_printed,
                               default_instantiation_plan, extract_alpha,
                               extract_alpha_tilde, fit_ansatz)
from torusvass.groups import (ORDERS, SLOTS, Family, SLOT_COUNTS, group_factors, product, so_n,
                              su2, su_n)
from torusvass.invariants import normalized_series, unknot_factor, unnormalized_series
from torusvass.knots import TorusKnot
from torusvass.linalg import ExactPoly, eliminate
from torusvass.series import TruncSeries
from torusvass.tables import (PRIMITIVE_ORDER, closed_form_alpha, closed_form_alpha_tilde,
                              printed_g_table)


# a system's row for one instance: its group factors | the series coefficient

def test_assemble_single_su3_row():
    assert group_factors(su_n(3)).row(2) == (F(-2),)
    (series,) = _plan_series(TorusKnot(2, 3), _Plan.of([su_n(3)]), False)
    assert series.coefficient(2) == F(-8)


def test_assemble_order_zero():
    assert group_factors(su_n(3)).row(0) == (F(1),)
    (series,) = _plan_series(TorusKnot(2, 3), _Plan.of([su_n(3)]), False)
    assert series.coefficient(0) == F(1)


def test_assemble_unknot_rhs_zero():
    plan = default_instantiation_plan((1, 5))
    series = _plan_series(TorusKnot(1, 5), _Plan.of(plan), False)
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
    series = _plan_series(TorusKnot(2, 3), _Plan.of(plan), False)
    assert calls == [su_n(2), su2(1), su_n(3)]
    assert series == [normalized_series(TorusKnot(2, 3), g, 6) for g in plan]


def test_plan_series_divides_by_the_dimension_when_unnormalized():
    # the plan holds each simple factor's unknot factor over its dimension,
    # so the series are the Wilson-line series over dim R, and the
    # right-hand sides that the solve reads are theirs, over one integer
    # denominator
    plan = _Plan.of((so_n(7), product(3, 2)))
    assert plan.factors == (so_n(7), su_n(3), su2(2))
    assert plan.unknots == tuple(unknot_factor(g) / dim for g, dim in zip(plan.factors, (7, 3, 3)))
    assert [u.coefficient(0) for u in plan.unknots] == [1, 1, 1]
    series = _plan_series(TorusKnot(2, 5), plan, True)
    divided = [unnormalized_series(TorusKnot(2, 5), g) / dim
               for g, dim in zip(plan.instances, (7, 9))]
    assert series == divided
    assert [s.coefficient(0) for s in series] == [1, 1]
    rhs, den = _right_hand_sides(series)
    assert all(type(v) is int for row in rhs for v in row)
    assert [[F(v, den) for v in row] for row in rhs] == \
        [[s.coefficient(order) for s in divided] for order in ORDERS]


def test_right_hand_sides_keep_the_numerator_range_rule():
    # zero below a series' min_degree, whether that lies inside ORDERS or
    # above them, and a series known past ORDERS is read through them only
    series = [TruncSeries(3, [F(1, 2), 2, F(3, 5), 4], 6), TruncSeries(0, [1] * 8, 7),
              TruncSeries(8, [5], 8), TruncSeries.zero(6)]
    rhs, den = _right_hand_sides(series)
    assert all(type(v) is int for row in rhs for v in row)
    assert [[F(v, den) for v in row] for row in rhs] == \
        [[s.coefficient(order) for s in series] for order in ORDERS]
    with pytest.raises(ValueError, match="beyond truncation 5"):
        _right_hand_sides([TruncSeries.one(6), TruncSeries.one(5)])


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


#: one knot at each solve stratum of the benchmark above n = 6, one mirrored
STRATA_KNOTS = ((13, -15), (20, 21), (27, 29), (34, 35), (41, 43))


@pytest.mark.parametrize("knot", STRATA_KNOTS)
def test_both_routes_match_the_closed_forms_at_the_large_strata(knot):
    ranks = {order: SLOT_COUNTS[order] for order in ORDERS}
    assert tuple(ranks.values()) == (1, 1, 3, 4, 9)
    for route, closed in ((extract_alpha_tilde, closed_form_alpha_tilde),
                          (extract_alpha, closed_form_alpha)):
        table, report = route(knot)
        assert table.entries == closed(knot).entries, route.__name__
        assert report.rank == ranks and report.all_good(), route.__name__


@pytest.mark.parametrize("knot", [(6, 7), (41, 43)])
def test_every_right_hand_side_numerator_is_checked(knot):
    # the default plan's 25 rows at every order, on both routes: one
    # numerator off by 1 makes the solve inconsistent, pivot rows included
    k = TorusKnot(*knot)
    plan = extract._plan(default_instantiation_plan, k.n)
    for unnormalized in (False, True):
        rhs, den = _right_hand_sides(_plan_series(k, plan, unnormalized))
        for order, b, elimination in zip(ORDERS, rhs, plan.eliminations):
            assert len(b) == 25 and elimination.solve_numerators(b, den).consistent
            for i in range(len(b)):
                bumped = list(b)
                bumped[i] += 1
                result = elimination.solve_numerators(bumped, den)
                assert not result.consistent and result.solution is None, (order, i)


#: the unknot's alpha on the primitive slots, in PRIMITIVE_ORDER: zero at odd
#: orders, where the unknot factor, even in x, adds nothing
UNKNOT_ALPHA = (F(-1, 6), 0, F(1, 360), F(-1, 360), 0, 0, 0,
                F(-1, 15120), F(1, 3780), F(-1, 11340), F(1, 9072), F(-1, 15120))


@pytest.mark.parametrize("knot", [(1, 2), (1, -7), (-1, 5)])
def test_the_solved_unknot_is_minus_alpha_tilde_at_the_origin(knot):
    # the quantum-dimension route gives the unknot's alpha, which the closed
    # form takes as -alpha_tilde(0, 0)
    table, report = extract_alpha(knot)
    assert report.all_good()
    origin = closed_form_alpha_tilde((0, 0))
    assert tuple(table.value(*slot) for slot in PRIMITIVE_ORDER) == UNKNOT_ALPHA
    assert tuple(-origin.value(*slot) for slot in PRIMITIVE_ORDER) == UNKNOT_ALPHA


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


@pytest.mark.parametrize("order", ORDERS)
def test_a_perturbed_row_is_inconsistent(monkeypatch, order):
    # one simple factor's normalized series off by 1/7 at x^order moves every
    # row that factor enters (SU(4) and two products) off the group-factor
    # span: both routes, which both read it, raise Inconsistent at that
    # order, after solving the lower ones
    def perturbed(knot, group, trunc_order):
        series = normalized_series(knot, group, trunc_order)
        if group != su_n(4):
            return series
        return series + TruncSeries(order, [F(1, 7)] + [0] * (trunc_order - order),
                                    trunc_order)

    monkeypatch.setattr(extract, "normalized_series", perturbed)
    for route in (extract_alpha_tilde, extract_alpha):
        with pytest.raises(Inconsistent) as info:
            route((3, 4))
        assert info.value.order == order


def test_a_report_below_full_rank_is_not_good():
    full = {order: SLOT_COUNTS[order] for order in ORDERS}
    assert extract.ExtractionReport(TorusKnot(2, 3), "alpha_tilde", dict(full)).all_good()
    for order in ORDERS:
        short = {**full, order: full[order] - 1}
        report = extract.ExtractionReport(TorusKnot(2, 3), "alpha_tilde", short)
        assert not report.all_good(), order


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


def test_fit_eliminates_each_left_hand_side_once(monkeypatch):
    # five order designs shared by the three families, and one Vandermonde
    # block per family; a repeated fit eliminates nothing, and a rebound grid
    # gets designs of its own
    from torusvass import linalg

    calls = []

    def counted(lhs, unknowns):
        calls.append(unknowns)
        return eliminate(lhs, unknowns)

    monkeypatch.setattr(extract, "eliminate", counted)
    monkeypatch.setattr(linalg, "eliminate", counted)
    extract._design.cache_clear()
    linalg._vandermonde.cache_clear()
    families = (Family.SU_N, Family.SO_N, Family.SU2)
    fits = [fit_ansatz(family).polynomials for family in families]
    assert sorted(calls) == sorted([1, 1, 3, 3, 6] + [7, 7, 4])
    calls.clear()
    assert [fit_ansatz(family).polynomials for family in families] == fits
    assert calls == []
    monkeypatch.setattr(extract, "DEFAULT_FIT_GRID", extract.DEFAULT_FIT_GRID + ((5, 7),))
    assert fit_ansatz(Family.SU_N).polynomials == fits[0]
    assert sorted(calls) == [1, 1, 3, 3, 6]


def test_equal_plans_are_made_ready_once(monkeypatch):
    # the default plan gives n = 2 and n = 3 the same 25 instances (its SO(N)
    # base is max(5, n + 2) = 5 for both), so their five left-hand sides are
    # eliminated once; a rebound plan function gets plans of its own
    calls = []

    def counted(lhs, unknowns):
        calls.append(unknowns)
        return eliminate(lhs, unknowns)

    monkeypatch.setattr(extract, "eliminate", counted)
    extract._plan.cache_clear()
    extract._ready.cache_clear()
    assert default_instantiation_plan((2, 3)) == default_instantiation_plan((3, 4))
    tables = [extract_alpha_tilde(knot)[0] for knot in ((2, 3), (3, 4))]
    assert calls == [SLOT_COUNTS[order] for order in ORDERS]
    calls.clear()
    reversed_plan = default_instantiation_plan((2, 3))[::-1]
    monkeypatch.setattr(extract, "default_instantiation_plan", lambda knot: reversed_plan)
    assert [extract_alpha_tilde(knot)[0] for knot in ((2, 3), (3, 4))] == tables
    assert calls == [SLOT_COUNTS[order] for order in ORDERS]


def test_fit_rejects_a_parameter_degree_above_the_ansatz(monkeypatch):
    # g_6,1(N) has degree 6 in N: a degree-5 fit leaves its surplus points off
    monkeypatch.setitem(extract.FIT_DEGREE, Family.SU_N, 5)
    with pytest.raises(AnsatzMismatch, match="^su_n g_6,1: parameter dependence is "
                       "not degree <= 5") as info:
        fit_ansatz(Family.SU_N)
    assert isinstance(info.value.__cause__, DegreeExceeded)


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


def test_g_tables_by_contraction(monkeypatch):
    # the fit reads each Taylor coefficient through normalized_series: given
    # the contraction sum_slot r_slot(G) alpha_tilde_slot(K) instead, it runs
    # no evaluator and must still recover every g polynomial
    families = (Family.SU_N, Family.SO_N, Family.SU2)
    by_evaluator = {family: fit_ansatz(family) for family in families}

    def contracted(knot, group, trunc_order):
        tilde = closed_form_alpha_tilde(knot).entries
        r = group_factors(group).entries
        row = [sum(r[slot] * tilde[slot] for slot in SLOTS[order]) for order in ORDERS]
        return TruncSeries(0, [1, 0, *row], trunc_order)

    monkeypatch.setattr(extract, "normalized_series", contracted)
    mismatched = set()
    for family in families:
        fit = fit_ansatz(family)
        assert len(fit.polynomials) == 14
        assert fit.polynomials == by_evaluator[family].polynomials, family
        mismatched |= {(family, c.slot) for c in compare_fit_to_printed(fit) if not c.matches}
    # su2 g_6,3 matches: its misprint is a parenthesis, not a digit
    assert mismatched == {(Family.SU_N, (5, 3)), (Family.SU2, (6, 1))}


def _count_evaluations(monkeypatch):
    """Wrap the evaluators of torusvass.invariants and unknot_factor with
    call counters, at the module-level names the package calls them by."""
    import torusvass.invariants as invariants

    counts = {}

    def counted(original):
        def wrapper(*args, **kwargs):
            counts[original.__name__] = counts.get(original.__name__, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("homfly_normalized", "kauffman_normalized", "akutsu_wadati_normalized",
                 "unknot_factor"):
        monkeypatch.setattr(invariants, name, counted(getattr(invariants, name)))
    monkeypatch.setattr(extract, "unknot_factor", invariants.unknot_factor)
    return counts


def test_product_instances_reuse_factor_series(monkeypatch):
    # the default plan samples SU(N) at N = 2..7 and SU(2) at j = 1..6, which
    # covers every factor of its seven product instances; making the plan
    # ready takes each of its 18 simple factors' unknot factor once, and a
    # knot on either route takes none
    counts = _count_evaluations(monkeypatch)
    extract._plan.cache_clear()
    extract._ready.cache_clear()
    extract_alpha_tilde((6, 7))
    assert counts == {"homfly_normalized": 6, "akutsu_wadati_normalized": 6,
                      "kauffman_normalized": 6, "unknot_factor": 18}
    for route in (extract_alpha, extract_alpha_tilde):
        counts.clear()
        route((6, 7))
        assert counts == {"homfly_normalized": 6, "akutsu_wadati_normalized": 6,
                          "kauffman_normalized": 6}


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
