"""Series evaluators for the three quantum invariants and the unknot factors."""

import hashlib
import random
import sys
import threading
from fractions import Fraction as F
from math import gcd, lcm, prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from torusvass import invariants
from torusvass.errors import CancellationFailure, NotAKnot, SingularBracket, UnsupportedInput
from torusvass.groups import ORDERS, SLOTS, Family, group_factors, product, so_n, su2, su_n
from torusvass.invariants import (akutsu_wadati_normalized, homfly_normalized,
                                  kauffman_normalized, normalized_series, unknot_factor,
                                  unnormalized_series)
from torusvass.knots import TorusKnot
from torusvass.series import TruncSeries, exp_even_numerators, exp_numerators
from torusvass.tables import closed_form_alpha, closed_form_alpha_tilde

from test_series import exp_series, quotient

ORDER = 6
ONE = (F(1),) + (F(0),) * ORDER

#: the references work at width trunc_order + guard: a quotient by a bracket
#: with a simple zero, such as Kauffman's 1/[n], is reliable two degrees below
#: its operands, so every family reaches the order from guard 2 up
REFERENCE_GUARD = 2


def qpower(exponent, scale, trunc_order):
    """The references' t-power: t**exponent with t = exp(scale*x), through
    x^trunc_order."""
    return exp_series(F(exponent) * scale, trunc_order)


def _truncated(series, order):
    """A power series known through x^order only."""
    return TruncSeries(0, series.coefficients_through(order), order)


def test_qpower_examples():
    assert qpower(0, 1, 4).coefficients_through(4) == (1, 0, 0, 0, 0)
    assert qpower(1, 1, 2).coefficients_through(2) == (1, 1, F(1, 2))
    # t^{-1/2} with t = e^{x/2} is e^{-x/4}
    s = qpower(F(-1, 2), F(1, 2), 2)
    assert s.coefficients_through(2) == (1, F(-1, 4), F(1, 32))


@pytest.mark.parametrize("m", [1, 2, 5, -3, 9])
def test_unit_knots_are_one(m):
    assert homfly_normalized((1, m), 4).coefficients_through(ORDER) == ONE
    assert kauffman_normalized((1, m), 6).coefficients_through(ORDER) == ONE
    assert akutsu_wadati_normalized((1, m), 3).coefficients_through(ORDER) == ONE


@pytest.mark.parametrize("N", [2, 3, 5, 7])
def test_homfly_trefoil_x2(N):
    # 24 * g_{2,1}(N) = -(N^2-1)
    s = homfly_normalized((2, 3), N)
    assert s.coefficient(2) == -(N * N - 1)
    assert s.coefficient(0) == 1


@pytest.mark.parametrize("N", [5, 7, 9])
def test_kauffman_trefoil_x2(N):
    # 24 * g_{2,1}(N) = -(N-1)(N-2)/4
    s = kauffman_normalized((2, 3), N)
    assert s.coefficient(2) == F(-(N - 1) * (N - 2), 4)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_akutsu_wadati_trefoil_x2(j):
    # 24 * g_{2,1}(j) = 4A with A = -j(j+2)/4
    s = akutsu_wadati_normalized((2, 3), j)
    assert s.coefficient(2) == -j * (j + 2)


def test_jones_is_homfly_at_rank_two():
    for knot in [(2, 3), (2, 5), (3, 4), (3, 5), (2, -3), (4, 5)]:
        h = homfly_normalized(knot, 2)
        a = akutsu_wadati_normalized(knot, 1)
        assert h.agrees_with(a, ORDER)


@pytest.mark.parametrize("knot", [(2, 3), (3, 4), (2, 5), (4, 5)])
def test_n_m_symmetry(knot):
    n, m = knot
    assert homfly_normalized((n, m), 4).agrees_with(homfly_normalized((m, n), 4), ORDER)
    assert kauffman_normalized((n, m), 8).agrees_with(kauffman_normalized((m, n), 8), ORDER)
    assert akutsu_wadati_normalized((n, m), 2).agrees_with(
        akutsu_wadati_normalized((m, n), 2), ORDER)


@pytest.mark.parametrize("knot", [(2, 3), (3, 4), (2, 7)])
def test_mirror_parity(knot):
    n, m = knot
    for series, mirror in [
        (homfly_normalized((n, m), 3), homfly_normalized((n, -m), 3)),
        (kauffman_normalized((n, m), 7), kauffman_normalized((n, -m), 7)),
        (akutsu_wadati_normalized((n, m), 2), akutsu_wadati_normalized((n, -m), 2)),
    ]:
        assert mirror.agrees_with(series.mirrored(), ORDER)


def test_unknot_factor_constants():
    assert unknot_factor(su_n(2)).coefficient(0) == 2
    assert unknot_factor(su_n(2)).coefficient(2) == F(1, 4)
    assert unknot_factor(so_n(7)).coefficient(0) == 7
    assert unknot_factor(su2(1)).coefficient(0) == 2
    assert unknot_factor(su2(3)).coefficient(0) == 4
    assert unknot_factor(product(3, 2)).coefficient(0) == 9


def test_unknot_factor_su_n_sinh_ratio():
    # sinh(N x/2)/sinh(x/2): x^2 coefficient N(N^2-1)/24
    for N in (2, 3, 5):
        assert unknot_factor(su_n(N)).coefficient(2) == F(N * (N * N - 1), 24)


def test_unnormalized_unknot_is_factor():
    for group in (su_n(3), so_n(6), su2(2)):
        series = unnormalized_series((1, 1), group)
        assert series.agrees_with(unknot_factor(group), ORDER)


def test_unnormalized_constant_is_dimension():
    assert unnormalized_series((2, 3), su_n(2)).coefficient(0) == 2
    assert unnormalized_series((2, 3), product(2, 1)).coefficient(0) == 4


def test_product_group_squares_jones():
    # SU(2) x SU(2, j=1) on the trefoil: both factors equal the N=2 series
    left = unnormalized_series((2, 3), product(2, 1))
    factor = unnormalized_series((2, 3), su_n(2))
    assert left.agrees_with(_truncated(factor * factor, ORDER), ORDER)


def test_normalized_product_multiplies():
    prod = normalized_series((2, 5), product(3, 2))
    split = _homfly_direct((2, 5), 3, ORDER, REFERENCE_GUARD + 1) \
        * _akutsu_wadati_direct((2, 5), 2, ORDER, REFERENCE_GUARD + 1)
    assert prod.agrees_with(split, ORDER)


def test_constant_term_always_one():
    for knot in [(2, 3), (3, 5), (5, 6), (2, -9)]:
        assert normalized_series(knot, su_n(4)).coefficient(0) == 1
        assert normalized_series(knot, so_n(9)).coefficient(0) == 1
        assert normalized_series(knot, su2(4)).coefficient(0) == 1


def test_rejects_non_coprime():
    with pytest.raises(NotAKnot):
        homfly_normalized((2, 4), 3)


def test_negative_n_evaluates_the_oriented_knot():
    # (-n, -m) is the knot (n, m): every evaluator orients it, on an empty
    # kernel cache as on a warm one
    for n, m in ((2, 3), (3, -5), (1, 4), (5, 7), (8, -3)):
        evaluations = (lambda k: homfly_normalized(k, 3),
                       lambda k: kauffman_normalized(k, n + 2),
                       lambda k: akutsu_wadati_normalized(k, 2),
                       lambda k: normalized_series(k, product(2, 1), 8),
                       lambda k: unnormalized_series(k, product(3, 2), 5))
        for evaluate in evaluations:
            invariants._kernel.cache_clear()
            flipped = evaluate((-n, -m))
            assert flipped == evaluate(TorusKnot(n, m)) == evaluate(TorusKnot(-n, -m))


def test_kauffman_sampling_floor():
    with pytest.raises(SingularBracket):
        kauffman_normalized((3, 4), 4)  # needs N >= 5


@pytest.mark.parametrize("order", [-1, -2, -3])
@pytest.mark.parametrize("evaluate", [
    lambda order: homfly_normalized((2, 3), 3, order),
    lambda order: kauffman_normalized((2, 3), 5, order),
    lambda order: akutsu_wadati_normalized((2, 3), 1, order),
    lambda order: unknot_factor(su_n(3), order),
    lambda order: unknot_factor(product(2, 1), order),
    lambda order: normalized_series((2, 3), product(2, 1), order),
    lambda order: unnormalized_series((3, 4), so_n(7), order),
], ids=["homfly", "kauffman", "akutsu-wadati", "unknot", "unknot-product",
        "normalized", "unnormalized"])
def test_rejects_negative_truncation_order(evaluate, order):
    with pytest.raises(UnsupportedInput, match=f"trunc_order must be >= 0 \\(got {order}\\)"):
        evaluate(order)


def test_higher_truncation_order():
    s = homfly_normalized((2, 3), 2, trunc_order=10)
    assert s.trunc_order == 10
    assert s.coefficient(0) == 1


def test_torus_knot_helpers():
    assert TorusKnot(-3, 2).oriented() == TorusKnot(3, -2)
    assert TorusKnot(2, 3).swapped() == TorusKnot(3, 2)
    assert TorusKnot(2, 3).mirrored() == TorusKnot(2, -3)
    assert TorusKnot(1, 5).is_unknot()


# ----------------------------------------------------------------------
# the evaluators against their direct O(n^2) summation
# ----------------------------------------------------------------------

def _finalize_normalized(raw, trunc_order, what):
    """The references' tail: the requested order must still be reliable at
    their width, and the series must have constant term 1."""
    if raw.trunc_order < trunc_order:
        raise ArithmeticError(
            f"{what}: reliable only through x^{raw.trunc_order}, "
            f"needed x^{trunc_order}"
        )
    out = _truncated(raw, trunc_order)
    if out.coefficient(0) != 1:
        raise CancellationFailure(
            f"{what}: constant term {out.coefficient(0)} != 1 (convention bug)"
        )
    return out


def _homfly_reference(knot, N, trunc_order, guard):
    """Each summand rebuilds its bracket product and q-factorials."""
    n, m = knot
    W = trunc_order + guard

    def t(a):
        return qpower(a, 1, W)

    one = TruncSeries.one(W)
    head = one if n == 1 else quotient(one - t(1), one - t(n))
    head = head * t(F((m - 1) * (n - 1), 2) * (N - 1))
    total = TruncSeries.zero(W)
    for i in range(n):
        p = n - 1 - i
        if -p <= N <= i:
            continue
        numer = one
        for j in range(-p, i + 1):
            if j == 0:
                continue
            numer = numer * (t(N) - t(j))
        denom = one
        for a in range(1, i + 1):
            denom = denom * (t(a) - one)
        for a in range(1, p + 1):
            denom = denom * (t(a) - one)
        term = quotient(numer, denom) * t(m * i + F(p * (p + 1), 2))
        total = total + (term if i % 2 == 0 else -term)
    return _finalize_normalized(head * total, trunc_order, "homfly reference")


def _kauffman_reference(knot, N, trunc_order, guard):
    """Each summand rebuilds its bracket product and q-factorials."""
    n, m = knot
    W = trunc_order + guard
    lam = F(N - 1, 2)

    def t(a):
        return qpower(a, F(1, 2), W)

    def br(p):
        return t(F(p, 2)) - t(F(-p, 2))

    def brq(p):
        return t(F(p, 2) + lam) - t(F(-p, 2) - lam)

    one = TruncSeries.one(W)
    head = quotient(br(1) * t(F(n * m) * lam), br(1) + brq(0))
    total = TruncSeries.constant(1, W) if n % 2 == 0 else TruncSeries.zero(W)
    for g in range(n):
        b = n - 1 - g
        weight = t(F(-m * (b - g), 2) - m * lam)
        numer = one
        for j in range(-g, b + 1):
            numer = numer * brq(j)
        denom = one
        for a in range(1, b + 1):
            denom = denom * br(a)
        for a in range(1, g + 1):
            denom = denom * br(a)
        # the pole 1/[n] + 1/[b-g;1] is ([b-g;1] + [n]) / ([n] [b-g;1])
        term = quotient(numer * (brq(b - g) + br(n)), denom * br(n) * brq(b - g)) * weight
        total = total + (term if g % 2 == 0 else -term)
    return _finalize_normalized(head * total, trunc_order, "kauffman reference")


#: (trunc_order, reference guard) windows; larger n uses two only, which
#: keeps the O(n^2) reference affordable
WINDOWS = ((6, 2), (6, 3), (9, 2), (9, 3), (12, 2), (12, 3))


@pytest.mark.parametrize("n", list(range(1, 14)) + [20])
def test_prefix_products_equal_direct_summation(n):
    # a product or quotient keeps the smaller relative window of its operands,
    # so the factor order is irrelevant and the series must be equal as
    # TruncSeries (same window, same Fractions) to a reference computed two or
    # three terms wider than the evaluators' order.  HOMFLY runs at N = 2, 8 and
    # n (when in range), so N < n, N = n and N > n all occur; Kauffman always
    # runs at its floor N = n + 2.
    windows = WINDOWS if n <= 5 else ((6, 2), (12, 3))
    homfly_ranks = sorted({2, 8} | ({n} if 2 <= n <= 8 else set()))
    kauffman_ranks = (n + 2, n + 7) if n <= 5 else (n + 2,)
    for m in (n + 1, -(n + 1)):
        for order, guard in windows:
            for N in homfly_ranks:
                assert homfly_normalized((n, m), N, order) \
                    == _homfly_reference((n, m), N, order, guard), (m, N, order, guard)
            for N in kauffman_ranks:
                assert kauffman_normalized((n, m), N, order) \
                    == _kauffman_reference((n, m), N, order, guard), (m, N, order, guard)


# ----------------------------------------------------------------------
# the per-n kernels against direct evaluation
# ----------------------------------------------------------------------

def _homfly_direct(knot, N, trunc_order, guard):
    """Prefix products, every summand multiplied by its full t-power."""
    n, m = knot
    if N < 2:
        raise ValueError("su_n needs N >= 2")
    W = trunc_order + guard

    def t(a):
        return qpower(a, 1, W)

    one = TruncSeries.one(W)
    tN = t(N)
    left, right, fact = [one], [one], [one]
    for a in range(1, n):
        ta = t(a)
        left.append(left[-1] * (tN - t(-a)))
        fact.append(fact[-1] * (ta - one))
        if a < N:
            right.append(right[-1] * (tN - ta))
    head = one if n == 1 else quotient(one - t(1), one - t(n))
    head = head * t(F((m - 1) * (n - 1), 2) * (N - 1))
    total = TruncSeries.zero(W)
    for i in range(n):
        p = n - 1 - i
        if -p <= N <= i:
            continue
        term = quotient(left[p] * right[i], fact[i] * fact[p]) * t(m * i + F(p * (p + 1), 2))
        total = total + (term if i % 2 == 0 else -term)
    return _finalize_normalized(head * total, trunc_order, f"homfly({n},{m};N={N})")


def _kauffman_direct(knot, N, trunc_order, guard):
    """Prefix products, every summand multiplied by its full weight."""
    n, m = knot
    if N < n + 2:
        raise SingularBracket(
            f"so_n sampling needs N >= n + 2 = {n + 2} (got N={N}): "
            "a required bracket [p;1] would have vanishing leading term"
        )
    W = trunc_order + guard
    lam = F(N - 1, 2)

    def t(a):
        return qpower(a, F(1, 2), W)

    def br(p):
        return t(F(p, 2)) - t(F(-p, 2))

    def brq(p):
        return t(F(p, 2) + lam) - t(F(-p, 2) - lam)

    one = TruncSeries.one(W)
    brqs = {p: brq(p) for p in range(1 - n, n)}
    neg, pos, fact = [one], [one], [one]
    for a in range(1, n):
        neg.append(neg[-1] * brqs[-a])
        pos.append(pos[-1] * brqs[a])
        fact.append(fact[-1] * br(a))
    br_n = br(n)
    head = quotient(br(1) * t(F(n * m) * lam), br(1) + brqs[0])
    total = TruncSeries.constant(1, W) if n % 2 == 0 else TruncSeries.zero(W)
    for g in range(n):
        b = n - 1 - g
        weight = t(F(-m * (b - g), 2) - m * lam)
        numer = neg[g] * brqs[0] * pos[b] * (brqs[b - g] + br_n)
        term = quotient(numer, fact[b] * fact[g] * br_n * brqs[b - g]) * weight
        total = total + (term if g % 2 == 0 else -term)
    return _finalize_normalized(head * total, trunc_order, f"kauffman({n},{m};N={N})")


def _akutsu_wadati_direct(knot, j, trunc_order, guard):
    """Every exponent of the sum built as one t-power."""
    n, m = knot
    W = trunc_order + guard

    def t(a):
        return qpower(a, 1, W)

    total = TruncSeries.zero(W)
    for ell in range(j + 1):
        base = n * (1 + m * ell) * (j - ell)
        e1 = base + 1 + m * ell
        e2 = base + m * (j - ell)
        if e1 == e2:
            continue
        total = total + (t(e1) - t(e2))
    res = quotient(total, t(j + 1) - TruncSeries.one(W))
    res = res * t(F(j * (n - 1) * (m - 1), 2))
    return _finalize_normalized(res, trunc_order, f"akutsu-wadati({n},{m};j={j})")


def _outcome(evaluate, *args):
    """The series, or the type and message of what evaluating it raised."""
    try:
        return evaluate(*args)
    except Exception as exc:  # compared as data: same type, same message
        return type(exc), str(exc)


#: every (order, reference width - order) window for n <= 13; above that one
#: window per order, so the direct evaluation stays affordable
ALL_WINDOWS = tuple((order, guard) for order in (6, 9, 12) for guard in (2, 3))
LARGE_N_WINDOWS = ((6, 3), (9, 2), (12, 2))


@pytest.mark.parametrize("n", list(range(1, 14)) + [20, 27, 41])
def test_kernels_equal_direct_evaluation(n):
    # the kernel, built at the order itself, changes where the work is done,
    # not one coefficient, window, exception type or message of a direct
    # evaluation two or three terms wider; the unit knot (n, -1) has a
    # skipped Akutsu-Wadati summand
    windows = ALL_WINDOWS if n <= 13 else LARGE_N_WINDOWS
    cases = []
    for m in (n + 1, -(2 * n + 1), -1):
        for order, guard in windows:
            for N in sorted({2, 5, max(n, 2)}):
                cases.append((homfly_normalized, _homfly_direct, (n, m), N, order, guard))
            for N in (n + 2, n + 5):
                cases.append((kauffman_normalized, _kauffman_direct, (n, m), N, order, guard))
            for j in (1, 3):
                cases.append((akutsu_wadati_normalized, _akutsu_wadati_direct,
                              (n, m), j, order, guard))
    expected = [_outcome(direct, *args) for _, direct, *args in cases]
    invariants._kernel.cache_clear()
    for warmth in ("cold", "warm"):
        for (evaluate, _, *args, guard), want in zip(cases, expected):
            assert _outcome(evaluate, *args) == want, (warmth, evaluate.__name__, args, guard)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_kernels_divide_only_by_units(n):
    # a cold build of any family divides no series, not even by a unit: the
    # Akutsu-Wadati head x/(t^{j+1} - 1) is one even exponential, as the
    # HOMFLY and Kauffman summands are, and the package has no series
    # quotient; the kernel is keyed and built at the requested order itself
    assert not hasattr(TruncSeries, "__truediv__")
    invariants._kernel.cache_clear()
    cases = ((homfly_normalized, Family.SU_N, 2), (homfly_normalized, Family.SU_N, n + 1),
             (kauffman_normalized, Family.SO_N, n + 2), (akutsu_wadati_normalized, Family.SU2, 1),
             (akutsu_wadati_normalized, Family.SU2, 4))
    for order in (0, 1, 6, 12):  # rising, so each order widens the kernel to itself
        for evaluate, family, parameter in cases:
            evaluate((n, -(n + 1)), parameter, order)
            misses = invariants._kernel.cache_info().misses
            width, kernel = invariants._kernel(family, n, parameter)[0]
            assert invariants._kernel.cache_info().misses == misses, (family, order)
            assert (width, kernel.hi, kernel.at(n + 1, order).trunc_order) == (order,) * 3, \
                (family, order)
    invariants._kernel.cache_clear()


def _unit(a, b, W):
    """(e^{ax} - e^{bx})/x through x^W: the difference of the two
    exponentials through x^(W+1), shifted down one degree.  Its constant term
    is a - b."""
    (row_a, row_b), den = exp_numerators((a, b), W + 1)
    return TruncSeries.from_numerators(0, [p - q for p, q in zip(row_a[1:], row_b[1:])], den, W)


def _from_series(summands, width, head):
    """head * sum_i A_i(x) * exp(m * rho_i * x) on degrees 0..width, for
    (A_i, rho_i) pairs of power series and an m-free power series head, all
    known through x^width: each A_i over one denominator, as rows of
    MPolySeries.from_rows."""
    den = lcm(*(a.den for a, _ in summands))
    rows = []  # each A over den on degrees 0..width
    for a, rho in summands:
        row = [0] * a.min_degree + [c * (den // a.den) for c in a.nums]
        rows.append((rho, row[:width + 1]))
    return invariants.MPolySeries.from_rows(0, width, den, rows, head)


def _homfly_kernel_by_quotients(n, N, W):
    """The HOMFLY kernel from series products of units, each summand divided
    by its (i)!(p)!, and the head by the unit (t^n - 1)/x."""
    def u(a, b):
        return _unit(a, b, W)

    one = TruncSeries.one(W)
    left, right, fact = [one], [one], [one]
    for a in range(1, n):
        left.append(left[-1] * u(N, -a))
        fact.append(fact[-1] * u(a, 0))
        if a < N:
            right.append(right[-1] * u(N, a))
    shift = invariants._ratio((n - 1) * (N - 1), 2)
    head = one if n == 1 else quotient(u(1, 0) * qpower(-shift, 1, W), u(n, 0))
    summands = []
    for i in range(n):
        p = n - 1 - i
        if -p <= N <= i:
            continue
        term = quotient(left[p] * right[i], fact[i] * fact[p]) * qpower(p * (p + 1) // 2, 1, W)
        summands.append((term if i % 2 == 0 else -term, i + shift))
    return _from_series(summands, W, head)


def _kauffman_kernel_by_quotients(n, N, W):
    """The Kauffman kernel from series products of units, each summand
    divided by its [b]![g]!, and the head by ([1] + [0;1])/x."""
    def br(p):
        return _unit(invariants._ratio(p, 4), invariants._ratio(-p, 4), W)

    def brq(p):
        return _unit(invariants._ratio(p + N - 1, 4), invariants._ratio(1 - N - p, 4), W)

    one = TruncSeries.one(W)
    brqs = {p: brq(p) for p in range(1 - n, n)}
    neg, pos, fact = [one], [one], [one]
    for a in range(1, n):
        neg.append(neg[-1] * brqs[-a])
        pos.append(pos[-1] * brqs[a])
        fact.append(fact[-1] * br(a))
    inv_br_n = quotient(one, br(n))
    head = quotient(br(1), br(1) + brqs[0])
    summands = [(one, invariants._ratio(n * (N - 1), 4))] if n % 2 == 0 else []
    for g in range(n):
        b = n - 1 - g
        bracket = inv_br_n + quotient(one, brqs[b - g])
        term = quotient(bracket * (neg[g] * brqs[0] * pos[b]), fact[b] * fact[g])
        rate = invariants._ratio(g - b + (n - 1) * (N - 1), 4)
        summands.append((term if g % 2 == 0 else -term, rate))
    return _from_series(summands, W, head)


def _akutsu_wadati_kernel_by_quotients(n, j, W):
    """The Akutsu-Wadati kernel with its head t^{-j(n-1)/2} divided by the
    unit (t^{j+1} - 1)/x, and its rows the bare t-powers of the sum."""
    shift = invariants._ratio(j * (n - 1), 2)
    head = quotient(qpower(-shift, 1, W + 1), _unit(j + 1, 0, W + 1))
    powers, den = exp_numerators([n * (j - ell) + e for ell in range(j + 1) for e in (1, 0)],
                                 W + 1)
    rows = []
    for ell in range(j + 1):
        rows.append((shift + ell * (n * (j - ell) + 1), powers[2 * ell]))
        rows.append((shift + (j - ell) * (n * ell + 1), [-c for c in powers[2 * ell + 1]]))
    return invariants.MPolySeries.from_rows(-1, W, den, rows, head)


def _kernel_fields(kernel):
    return kernel.lo, kernel.hi, kernel.den, kernel.polys


#: sha256 over repr((lo, hi, den, polys)) of each kernel built straight from
#: the builders: the three families at n = 1..13, 20, 27, 41, three or four
#: parameters each, at the widths 0, 1, 6 and 12: 704 kernels
KERNEL_DIGEST = "4ae71ca2fd1cdf632c710e78485528c8185c3830957de9c95c1ff1ae44eda776"


def test_kernels_keep_their_fields():
    digest, count = hashlib.sha256(), 0
    for n in list(range(1, 14)) + [20, 27, 41]:
        for family, parameters in ((Family.SU_N, (2, 3, 5, 8)),
                                   (Family.SO_N, (n + 2, n + 3, n + 7)),
                                   (Family.SU2, (1, 2, 3, 6))):
            for parameter in parameters:
                for W in (0, 1, 6, 12):
                    kernel = invariants._FAMILIES[family](n, parameter, W)
                    digest.update(repr(_kernel_fields(kernel)).encode())
                    count += 1
    assert count == 704
    assert digest.hexdigest() == KERNEL_DIGEST


@pytest.mark.parametrize("n", [1, 2, 5, 13, 41])
def test_kernels_hold_one_int_tuple_per_degree(n):
    # polys holds hi - lo + 1 tuples, the k-th exactly the k + 1 ints of
    # m^0..m^k: a cached kernel is shared, so no caller may change it, and a
    # list built by hand is frozen too
    for family, parameters in ((Family.SU_N, (2, n + 3)), (Family.SO_N, (n + 2, n + 5)),
                               (Family.SU2, (1, 4))):
        for parameter in parameters:
            for W in (0, 1, 6, 12):
                kernel = invariants._FAMILIES[family](n, parameter, W)
                polys = kernel.polys
                assert type(polys) is tuple and len(polys) == kernel.hi - kernel.lo + 1
                for k, poly in enumerate(polys):
                    assert type(poly) is tuple and len(poly) == k + 1, (family, parameter, W, k)
                    assert all(type(c) is int for c in poly), (family, parameter, W, k)
    kernel = invariants.MPolySeries(0, 1, 2, [[2], [3, -1]])
    assert kernel.polys == ((2,), (3, -1))
    with pytest.raises(TypeError):
        kernel.polys[1][0] = 0


def _edited_su2_builds(monkeypatch, edit):
    """Make every Akutsu-Wadati build return its kernel with edit(polys, den)
    applied to its polynomials, one list per degree; the widths built are
    returned."""
    build, widths = invariants._FAMILIES[Family.SU2], []

    def edited(n, j, W):
        kernel = build(n, j, W)
        polys = [list(poly) for poly in kernel.polys]
        edit(polys, kernel.den)
        widths.append(W)
        return invariants.MPolySeries(kernel.lo, kernel.hi, kernel.den, polys)

    monkeypatch.setitem(invariants._FAMILIES, Family.SU2, edited)
    invariants._kernel.cache_clear()
    return widths


def test_a_residual_pole_raises_and_is_never_stored(monkeypatch):
    # den added to the m-free x^-1 coefficient leaves a pole at every m: the
    # build's check finds it before the kernel is stored, so the next call
    # builds again and raises again
    def pole(polys, den):
        polys[0][0] += den

    widths = _edited_su2_builds(monkeypatch, pole)
    for _ in range(2):
        with pytest.raises(CancellationFailure, match=r"not 1 \+ O\(x\) at every m"):
            akutsu_wadati_normalized((2, 3), 1)
    assert widths == [ORDER, ORDER]
    invariants._kernel.cache_clear()


@pytest.mark.parametrize("c", [1, -3])
def test_a_constant_term_that_moves_with_m_raises_at_every_m(c, monkeypatch):
    # the x^0 polynomial, kept as [den, 0] after the zero one at x^-1,
    # made den + c m
    def slope(polys, den):
        assert polys[:2] == [[0], [den, 0]]
        polys[1][1] = c

    _edited_su2_builds(monkeypatch, slope)
    for m in (-7, -1, 1, 3, 9):
        with pytest.raises(CancellationFailure, match=r"not 1 \+ O\(x\) at every m"):
            akutsu_wadati_normalized((2, m), 1)
    invariants._kernel.cache_clear()


def test_a_power_of_m_above_the_degree_raises(monkeypatch):
    # the x^3 polynomial, polys[4] after those at x^-1..x^2, has m^0..m^4,
    # and its top coefficient is zero in every Akutsu-Wadati kernel: made
    # nonzero, the x^3 coefficient would have degree 4 in m
    def bump(polys, den):
        assert polys[4][4] == 0
        polys[4][4] = 1

    widths = _edited_su2_builds(monkeypatch, bump)
    for _ in range(2):
        with pytest.raises(CancellationFailure, match=r"power of m above m\^d"):
            akutsu_wadati_normalized((3, 5), 2)
    assert widths == [ORDER, ORDER]
    invariants._kernel.cache_clear()


def test_an_edited_build_raises_through_the_solver(monkeypatch):
    # the solver fetches each factor's kernel once per n, for every m: a
    # build whose x^-1 coefficient is left with a pole raises there too, on
    # both routes, and is never stored, so each attempt builds again
    from torusvass import extract

    def pole(polys, den):
        polys[0][0] += den

    widths = _edited_su2_builds(monkeypatch, pole)
    extract._plan.cache_clear()
    for route, knot in ((extract.extract_alpha_tilde, (6, 7)), (extract.extract_alpha, (6, -11))):
        with pytest.raises(CancellationFailure, match=r"^akutsu-wadati\(6,m;j=1\): the kernel "
                           r"is not 1 \+ O\(x\) at every m \(convention bug\)$"):
            route(knot)
    assert widths == [ORDER, ORDER]
    invariants._kernel.cache_clear()
    extract._plan.cache_clear()


def test_a_head_narrower_than_the_rows_raises():
    # the head must reach x^(hi - lo), even where only a zero polynomial
    # would meet its missing degree
    W = 4
    rows = [(2, [0] + [1] * (W + 1))]  # degrees -1..W, zero at x^-1
    with pytest.raises(ValueError):
        invariants.MPolySeries.from_rows(-1, W, 1, rows, TruncSeries.one(W))
    with pytest.raises(ValueError):
        _from_series([(qpower(1, 1, W), 2)], W, TruncSeries.one(W - 1))
    kernel = invariants.MPolySeries.from_rows(-1, W, 1, rows, TruncSeries.one(W + 1))
    assert kernel.at(3, W) == TruncSeries(0, [1] * (W + 1), W) * qpower(2 * 3, 1, W)


@pytest.mark.parametrize("n", list(range(1, 13)) + [20, 41, 128])
def test_reciprocal_factorials_give_the_quotient_kernels(n):
    # the HOMFLY and Kauffman builds take each summand as one exponential of
    # power sums of the bracket widths, where they divided products of units
    # by whole q-factorials: every field of every kernel is unchanged (that
    # the builds take no series product or quotient is
    # test_cold_builds_multiply_and_divide_no_series).  n = 128 is the CLI
    # limit, at the widest order
    if n == 128:
        widths, homfly_ranks, kauffman_ranks = (24,), (128,), (130,)
    else:
        widths = (0, 1, 6, 13, 24) if n <= 12 else (6, 12)
        homfly_ranks, kauffman_ranks = sorted({2, 3, max(n, 2), n + 3}), (n + 2, n + 5)
    for W in widths:
        for build, reference, ranks in (
                (invariants._homfly_kernel, _homfly_kernel_by_quotients, homfly_ranks),
                (invariants._kauffman_kernel, _kauffman_kernel_by_quotients, kauffman_ranks)):
            for N in ranks:
                assert _kernel_fields(build(n, N, W)) == _kernel_fields(reference(n, N, W)), \
                    (build.__name__, n, N, W)


@pytest.mark.parametrize("n", list(range(1, 14)) + [20, 41, 128])
def test_one_even_exponential_gives_the_quotient_head(n):
    # the Akutsu-Wadati build takes its head as one even exponential, its
    # t-powers folded into the rows, where it divided a t-power by the unit
    # (t^{j+1} - 1)/x: every field of every kernel is unchanged.  j = 130 is
    # the CLI limit, and j = 129 its odd neighbour
    ranks = list(range(1, 9)) + [20, 130] + ([129] if n == 128 else [])
    for W in (0, 1, 2, 5, 6, 9, 12, 24):
        for j in ranks:
            assert _kernel_fields(invariants._akutsu_wadati_kernel(n, j, W)) \
                == _kernel_fields(_akutsu_wadati_kernel_by_quotients(n, j, W)), (n, j, W)


#: B_2, B_4, .., B_24
EVEN_BERNOULLI = (F(1, 6), F(-1, 30), F(1, 42), F(-1, 30), F(5, 66), F(-691, 2730), F(7, 6),
                  F(-3617, 510), F(43867, 798), F(-174611, 330), F(854513, 138),
                  F(-236364091, 2730))


def test_bernoulli_numbers():
    numbers = invariants._bernoulli(24)
    assert numbers[:2] == [1, F(-1, 2)]
    assert tuple(numbers[2::2]) == EVEN_BERNOULLI
    assert not any(numbers[3::2])
    assert all(type(b) is F for b in numbers)


def _units_by_power_sums(above, below, W):
    """prod (t^a - t^b)/x over the (a, b) above, over the same product below,
    with quarter-integer ends: the quotient of the widths, times the t-power
    of the half sums of the ends, times exp(sum_k beta_k S_k (x/4)^(2k)), with
    S_k the (2k)-th powers of the widths in quarters, those below negated."""
    betas, den = invariants._log_unit(W // 2, 4)
    sums = [sum(int(4 * (a - b)) ** (2 * k) for a, b in above)
            - sum(int(4 * (a - b)) ** (2 * k) for a, b in below) for k in range(1, W // 2 + 1)]
    row, exp_den = exp_even_numerators([beta * s for beta, s in zip(betas, sums)], den, W)
    constant = F(prod(a - b for a, b in above), prod(a - b for a, b in below))
    rate = sum(F(a + b, 2) for a, b in above) - sum(F(a + b, 2) for a, b in below)
    return TruncSeries.from_numerators(0, row, exp_den, W) * qpower(rate, 1, W) * constant


@pytest.mark.parametrize("a, b", [(1, 0), (0, -1), (5, -3), (-2, -9), (F(3, 4), F(-3, 4)),
                                  (F(9, 4), F(-5, 4)), (F(1, 4), -2), (F(-7, 4), F(-15, 4))])
def test_one_exponential_is_a_unit(a, b):
    # the log series of a unit is exact: its exponential times a - b is
    # _unit(a, b, W) at every width
    for W in range(25):
        assert _units_by_power_sums([(a, b)], [], W) == _unit(a, b, W), W


def test_power_sums_give_products_of_units():
    # a product of units over a product of units is one exponential of the
    # difference of their power sums, as the kernel builds take it
    rng = random.Random(35)
    for W in (0, 1, 2, 6, 13, 24):
        for size in (1, 2, 3, 5):
            brackets = []
            for _ in range(2 * size):
                a = F(rng.randint(-40, 40), 4)
                brackets.append((a, a - F(rng.choice([-1, 1]) * rng.randint(1, 40), 4)))
            above, below = brackets[:size + 1], brackets[size + 1:]
            expected = TruncSeries.one(W)
            for a, b in above:
                expected = expected * _unit(a, b, W)
            for a, b in below:
                expected = quotient(expected, _unit(a, b, W))
            assert _units_by_power_sums(above, below, W) == expected, (W, above, below)


def test_cold_builds_multiply_and_divide_no_series(monkeypatch):
    # a HOMFLY or Kauffman build expands one exponential per summand, an
    # Akutsu-Wadati build one for its head, and none takes a product of
    # series; the package has no series quotient to take
    def forbidden(*args):
        raise AssertionError(f"a series product in a kernel build: {args!r}")

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(TruncSeries, name, forbidden)
    assert not hasattr(TruncSeries, "__truediv__")
    for n in list(range(1, 14)) + [20, 41]:
        for W in (0, 6, 24):
            for N in sorted({2, 3, max(n, 2), n + 3}):
                invariants._homfly_kernel(n, N, W)
            for N in (n + 2, n + 5):
                invariants._kauffman_kernel(n, N, W)
            for j in (1, 2, 7):
                invariants._akutsu_wadati_kernel(n, j, W)


@pytest.mark.parametrize("m", [-5, -1, 2, 7])
def test_mpoly_series_equals_running_sum(m):
    # power-series summands, one of them starting above degree 0 and one
    # known beyond the width: the sum is kept on degrees 0..width
    W = 7
    first = TruncSeries(0, [F(1, 3), 2, -1] + [F(k, 5) for k in range(W - 2)], W)
    late = TruncSeries(2, [F(-7, 2)] + [F(1, k + 2) for k in range(W - 2)], W)
    long = TruncSeries(1, [F(k - 3, k + 1) for k in range(W + 2)], W + 2)
    summands = [(TruncSeries.zero(W), F(0)), (first, F(3, 4)), (-late, F(-1, 3)),
                (long, F(5, 2)), (qpower(5, 1, W), F(2))]
    expected = TruncSeries.zero(W)
    for a, rho in summands[1:]:
        expected = expected + a * qpower(m * rho, 1, W)
    total = _from_series(summands, W, TruncSeries.one(W))
    # a narrower series is the prefix; a wider one is not known
    assert [total.at(m, hi) for hi in range(W + 1)] == [_truncated(expected, hi)
                                                       for hi in range(W + 1)]
    with pytest.raises(ValueError):
        total.at(m, W + 1)


def test_five_m_build_one_kernel():
    invariants._kernel.cache_clear()
    for m in (4, 5, -7, 10, -11):
        homfly_normalized((3, m), 4, 6)
    info = invariants._kernel.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    for m in (4, 5, -7, 10, -11):
        kauffman_normalized((3, m), 7, 9)
        akutsu_wadati_normalized((3, m), 2, 9)
    assert invariants._kernel.cache_info().misses == 3
    # the order does not key a kernel: other orders of the same three are hits
    for order in (0, 3, 12):
        homfly_normalized((3, 4), 4, order)
        kauffman_normalized((3, 4), 7, order)
        akutsu_wadati_normalized((3, 4), 2, order)
    assert invariants._kernel.cache_info().misses == 3


def test_kernel_is_polynomial_in_m():
    # the coefficient of x^d is a polynomial of degree <= d - lo in m
    # at every m, so finite differences of order d - lo + 1 vanish
    invariants._kernel.cache_clear()
    kauffman_normalized((4, 5), 7, 8)
    _, kernel = invariants._kernel(Family.SO_N, 4, 7)[0]
    assert kernel.hi == 8
    series = [kernel.at(m, 8) for m in range(-3, 12)]
    assert all(s.trunc_order == kernel.hi and s.min_degree >= kernel.lo for s in series)
    for d in range(kernel.lo, kernel.hi + 1):
        values = [s.coefficient(d) for s in series]
        for _ in range(d - kernel.lo + 1):
            values = [b - a for a, b in zip(values, values[1:])]
        assert values and not any(values)


#: widths asked of one kernel in turn: the first builds it, and each later one
#: is at or below it; reversed, the kernel is built at 12 and widened to 24
WIDTHS = (24, 12, 6, 1, 0, 7, 12)


def _fields(series):
    return series.min_degree, series.nums, series.den, series.trunc_order


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_kernels_serve_every_narrower_width(n, monkeypatch):
    # a kernel's coefficients through x^W do not depend on the width it was
    # built at, so a cached kernel serves every order at or below its width
    # with the series a cold build at that order gives, and builds nothing;
    # a wider order builds once, at that order
    builds = []
    for family, build in list(invariants._FAMILIES.items()):
        def counted(n, parameter, W, build=build):
            builds.append(W)
            return build(n, parameter, W)
        monkeypatch.setitem(invariants._FAMILIES, family, counted)
    cases = ((homfly_normalized, 2), (homfly_normalized, n + 3), (kauffman_normalized, n + 2),
             (akutsu_wadati_normalized, 1), (akutsu_wadati_normalized, 3))
    for m in (n + 1, -(2 * n + 1)):
        for evaluate, parameter in cases:
            cold = {}
            for order in set(WIDTHS):
                invariants._kernel.cache_clear()
                cold[order] = _fields(evaluate((n, m), parameter, order))
            for widths in (WIDTHS, WIDTHS[::-1]):
                invariants._kernel.cache_clear()
                del builds[:]
                for k, order in enumerate(widths):
                    built = len(builds)
                    got = _fields(evaluate((n, m), parameter, order))
                    assert got == cold[order], (evaluate.__name__, parameter, m, widths, order)
                    widest = max(widths[:k], default=-1)
                    assert builds[built:] == ([order] if order > widest else []), \
                        (evaluate.__name__, parameter, m, widths, order)
    invariants._kernel.cache_clear()


def test_threads_share_the_kernels():
    # every thread reads and widens the same cached kernels; whatever widths
    # the others store meanwhile, each result equals the cold one
    cases = ((homfly_normalized, (3, 4), 3), (kauffman_normalized, (3, -5), 6),
             (akutsu_wadati_normalized, (5, 7), 2))
    orders = (12, 0, 6, 24, 1, 7)
    expected = {}
    for evaluate, knot, parameter in cases:
        for order in orders:
            invariants._kernel.cache_clear()
            expected[evaluate, order] = evaluate(knot, parameter, order)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(150):
                evaluate, knot, parameter = rng.choice(cases)
                order = rng.choice(orders)
                assert evaluate(knot, parameter, order) == expected[evaluate, order]
                if rng.random() < 0.2:
                    invariants._kernel.cache_clear()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    invariants._kernel.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_integral_rates_are_ints(n, monkeypatch):
    # every integral rate and t-power exponent reaches the expansion as an
    # int; the kernels built with every ratio a Fraction are equal, field for
    # field, to the ones built with ints
    rates = []

    def recording(values, trunc_order):
        rates.extend(values)
        return exp_numerators(values, trunc_order)

    def kernels():
        for family, parameters in ((Family.SU_N, (2, 3, 6)), (Family.SO_N, (n + 2, n + 3, n + 5)),
                                   (Family.SU2, (1, 2, 3))):
            for parameter in parameters:
                for W in (0, 6, 12):
                    yield _kernel_fields(invariants._FAMILIES[family](n, parameter, W))

    with monkeypatch.context() as recorded:
        recorded.setattr(invariants, "exp_numerators", recording)
        recorded.setattr("torusvass.series.exp_numerators", recording)
        with_ints = list(kernels())
    assert rates and all(type(r) is int or r.denominator > 1 for r in rates)
    monkeypatch.setattr(invariants, "_ratio", F)
    assert list(kernels()) == with_ints


def test_product_series_end_at_the_order():
    # each factor starts at degree 0 and is known through W, so the
    # products end at W with no truncation
    for W in range(13):
        for series in (normalized_series((3, -7), product(3, 2), W),
                       unnormalized_series((3, -7), product(3, 2), W),
                       unknot_factor(product(3, 2), W)):
            assert (series.min_degree, series.trunc_order) == (0, W), (series, W)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
def test_no_package_path_makes_a_series_below_x0(n):
    # every kernel's series starts at x^0, the Akutsu-Wadati one's too,
    # whose polynomials are stored from x^-1, where the build found a zero;
    # so do the evaluators' and their products', cold and warm (that no
    # public constructor takes a window below x^0 is in test_inputs)
    cases = ((Family.SU_N, 3, homfly_normalized), (Family.SO_N, n + 2, kauffman_normalized),
             (Family.SU2, 2, akutsu_wadati_normalized))
    invariants._kernel.cache_clear()
    for m in (n + 1, -(2 * n + 1), -1):
        for order in (0, 1, 6, 12):
            series = [normalized_series((n, m), product(3, 2), order),
                      unnormalized_series((n, m), product(3, 2), order),
                      unknot_factor(product(3, 2), order)]
            for family, parameter, evaluate in cases:
                kernel = invariants._factor_kernel(family, n, parameter, order)
                assert (kernel.lo, kernel.polys[0]) == ((-1, (0,)) if family == Family.SU2
                                                        else (0, (kernel.den,)))
                series += [kernel.at(m, order), evaluate((n, m), parameter, order)]
            assert all(s.min_degree >= 0 and s.trunc_order == order for s in series), (m, order)
    invariants._kernel.cache_clear()


def test_warm_knot_takes_no_exp_or_division(monkeypatch):
    # with its kernels built, a knot costs one polynomial evaluation at m per
    # simple factor and no series product: the build folds the framing
    # t-power and the Akutsu-Wadati head into the cached kernel; a product
    # group multiplies its two factors once
    simple = (lambda k: homfly_normalized(k, 4), lambda k: kauffman_normalized(k, 7),
              lambda k: akutsu_wadati_normalized(k, 2))

    def grouped(k):
        return normalized_series(k, product(3, 2))

    for evaluate in simple + (grouped,):
        evaluate((3, 4))
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(invariants, "exp_numerators", counted("exp", exp_numerators))
    monkeypatch.setattr(invariants, "exp_even_numerators",
                        counted("even exp", exp_even_numerators))
    monkeypatch.setattr(TruncSeries, "__mul__", counted("mul", TruncSeries.__mul__))
    for evaluate in simple:
        evaluate((3, -7))
    assert calls == []
    grouped((3, -7))
    assert calls == ["mul"]


# ----------------------------------------------------------------------
# the evaluators at the order itself against a wider direct evaluation
# ----------------------------------------------------------------------

#: every simple group the unknot-factor tests cover, with N and j up to 130
UNKNOT_GROUPS = [su_n(N) for N in list(range(2, 14)) + [20, 27, 41, 130]] \
    + [so_n(N) for N in list(range(5, 16)) + [22, 29, 43, 130]] + [su2(1), su2(6), su2(130)]


def _quotient_unknot_factor(group, trunc_order):
    """The unknot factor as a quotient of q-numbers, at the references' width."""
    W = trunc_order + REFERENCE_GUARD
    scale = F(1, 2) if group.family == Family.SO_N else 1

    def t(a):
        return qpower(a, scale, W)

    if group.family == Family.SO_N:
        lam = F(group.N - 1, 2)
        res = 1 + quotient(t(lam) - t(-lam), t(F(1, 2)) - t(F(-1, 2)))
    else:
        p = group.j + 1 if group.family == Family.SU2 else group.N
        res = quotient(t(F(p, 2)) - t(F(-p, 2)), t(F(1, 2)) - t(F(-1, 2)))
    return _truncated(res, trunc_order)


def test_unknot_factors_equal_quotients():
    # the finite t-power sums equal the quotients [p] / [1] of q-numbers
    for order in range(25):
        for group in UNKNOT_GROUPS:
            assert unknot_factor(group, order) \
                == _quotient_unknot_factor(group, order), (group, order)
        for N, j in ((2, 1), (8, 6)):
            assert unknot_factor(product(N, j), order) \
                == _truncated(_quotient_unknot_factor(su_n(N), order)
                              * _quotient_unknot_factor(su2(j), order), order), (N, j, order)


def test_fixed_width_unknot_factors():
    # every unknot factor of the grid below, simple or product, at every
    # order; the factor at order + 1 was computed one term wider
    for order in range(25):
        for group in UNKNOT_GROUPS + [product(2, 1), product(8, 6)]:
            assert unknot_factor(group, order) \
                == _truncated(unknot_factor(group, order + 1), order), (group, order)


@pytest.mark.parametrize("n", list(range(1, 14)) + [20, 27, 41])
def test_fixed_width_loses_nothing(n):
    # the evaluators, built at the order itself, raise nothing on this grid
    # and equal a direct evaluation REFERENCE_GUARD + 1 terms wider
    orders = range(25) if n <= 13 else (6, 12)
    wider = REFERENCE_GUARD + 1
    for m in (n + 1, -(n + 1)):
        knot = (n, m)
        for order in orders:
            homfly = {N: _homfly_direct(knot, N, order, wider) for N in sorted({2, 8, max(n, 2)})}
            for N, series in homfly.items():
                assert homfly_normalized(knot, N, order) == series, (knot, N, order)
            assert kauffman_normalized(knot, n + 2, order) \
                == _kauffman_direct(knot, n + 2, order, wider), (knot, order)
            jones = {j: _akutsu_wadati_direct(knot, j, order, wider) for j in (1, 6)}
            for j, series in jones.items():
                assert akutsu_wadati_normalized(knot, j, order) == series, (knot, j, order)
            for N, j in ((2, 1), (8, 6)):
                group = product(N, j)
                assert normalized_series(knot, group, order) \
                    == _truncated(homfly[N] * jones[j], order), (knot, N, j, order)
                assert unnormalized_series(knot, group, order).coefficient(0) == N * (j + 1)


# ----------------------------------------------------------------------
# the contraction oracle: every (knot, group) checked with no solver
# ----------------------------------------------------------------------

@st.composite
def _knot_and_group(draw):
    n = draw(st.integers(1, 150))
    m = draw(st.integers(-300, 300).filter(lambda m: m and gcd(n, m) == 1))
    group = draw(st.one_of(st.builds(su_n, st.integers(2, 40)),
                           st.builds(so_n, st.integers(max(5, n + 2), n + 30)),
                           st.builds(su2, st.integers(1, 12)),
                           st.builds(product, st.integers(2, 40), st.integers(1, 12))))
    return (n, m), group


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(_knot_and_group(), st.booleans())
def test_series_coefficients_are_the_contracted_tables(case, unnormalized):
    # at each order d the x^d coefficient of a series is the group factors
    # contracted with the closed-form table: sum_slot r_slot(G) alpha~_slot(K)
    # for the normalized series, dim R times sum_slot r_slot(G) alpha_slot(K)
    # for the Wilson-line series
    knot, group = case
    r = group_factors(group)
    if unnormalized:
        series, table, scale = unnormalized_series(knot, group), closed_form_alpha(knot), r.dim
    else:
        series, table, scale = normalized_series(knot, group), closed_form_alpha_tilde(knot), 1
    for order in ORDERS:
        contracted = sum(r.r(*slot) * table.entries[slot] for slot in SLOTS[order])
        assert series.coefficient(order) == scale * contracted, (knot, group.label(), order)
