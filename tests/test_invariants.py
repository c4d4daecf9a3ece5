"""Series evaluators for the three quantum invariants and the unknot factors."""

from fractions import Fraction as F

import pytest

from torusvass.errors import CancellationFailure, NotAKnot, SingularBracket
from torusvass.groups import product, so_n, su2, su_n
from torusvass.invariants import (_finalize_normalized, akutsu_wadati_normalized,
                                  homfly_normalized, kauffman_normalized,
                                  normalized_series, qpower, unknot_factor,
                                  unnormalized_series)
from torusvass.knots import TorusKnot
from torusvass.series import TruncSeries

ORDER = 6
ONE = (F(1),) + (F(0),) * ORDER


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
    assert left.agrees_with((factor * factor).truncated(ORDER), ORDER)


def test_normalized_product_multiplies():
    prod = normalized_series((2, 5), product(3, 2))
    split = normalized_series((2, 5), su_n(3), ORDER, guard=3) \
        * normalized_series((2, 5), su2(2), ORDER, guard=3)
    assert prod.agrees_with(split, ORDER)


def test_constant_term_always_one():
    for knot in [(2, 3), (3, 5), (5, 6), (2, -9)]:
        assert normalized_series(knot, su_n(4)).coefficient(0) == 1
        assert normalized_series(knot, so_n(9)).coefficient(0) == 1
        assert normalized_series(knot, su2(4)).coefficient(0) == 1


def test_rejects_non_coprime():
    with pytest.raises(NotAKnot):
        homfly_normalized((2, 4), 3)


def test_rejects_negative_n():
    with pytest.raises(CancellationFailure):
        homfly_normalized((-2, 3), 3)


def test_kauffman_sampling_floor():
    with pytest.raises(SingularBracket):
        kauffman_normalized((3, 4), 4)  # needs N >= 5


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

def _homfly_reference(knot, N, trunc_order, guard):
    """Each summand rebuilds its bracket product and q-factorials."""
    n, m = knot
    W = trunc_order + guard

    def t(a):
        return qpower(a, 1, W)

    one = TruncSeries.one(W)
    head = one if n == 1 else (one - t(1)) / (one - t(n))
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
        term = (numer / denom) * t(m * i + F(p * (p + 1), 2))
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
    head = (br(1) * t(F(n * m) * lam)) / (br(1) + brq(0))
    total = TruncSeries.constant(1, W) if n % 2 == 0 else TruncSeries.zero(W)
    for g in range(n):
        b = n - 1 - g
        weight = t(F(-m * (b - g), 2) - m * lam)
        bracket = one / br(n) + one / brq(b - g)
        numer = one
        for j in range(-g, b + 1):
            numer = numer * brq(j)
        denom = one
        for a in range(1, b + 1):
            denom = denom * br(a)
        for a in range(1, g + 1):
            denom = denom * br(a)
        term = ((bracket * numer) / denom) * weight
        total = total + (term if g % 2 == 0 else -term)
    return _finalize_normalized(head * total, trunc_order, "kauffman reference")


#: (trunc_order, guard) windows; larger n uses the default and the widest only,
#: which keeps the O(n^2) reference affordable
WINDOWS = ((6, 2), (6, 3), (9, 2), (9, 3), (12, 2), (12, 3))


@pytest.mark.parametrize("n", list(range(1, 14)) + [20])
def test_prefix_products_equal_direct_summation(n):
    # a product or quotient keeps the smaller relative window of its operands,
    # so the factor order is irrelevant and the series must be equal as
    # TruncSeries: same window, same Fractions.  HOMFLY runs at N = 2, 8 and
    # n (when in range), so N < n, N = n and N > n all occur; Kauffman always
    # runs at its floor N = n + 2.
    windows = WINDOWS if n <= 5 else ((6, 2), (12, 3))
    homfly_ranks = sorted({2, 8} | ({n} if 2 <= n <= 8 else set()))
    kauffman_ranks = (n + 2, n + 7) if n <= 5 else (n + 2,)
    for m in (n + 1, -(n + 1)):
        for order, guard in windows:
            for N in homfly_ranks:
                assert homfly_normalized((n, m), N, order, guard) \
                    == _homfly_reference((n, m), N, order, guard), (m, N, order, guard)
            for N in kauffman_ranks:
                assert kauffman_normalized((n, m), N, order, guard) \
                    == _kauffman_reference((n, m), N, order, guard), (m, N, order, guard)
