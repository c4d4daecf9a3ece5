"""Series evaluators for the three quantum invariants and the unknot factors."""

from fractions import Fraction as F

import pytest

from torusvass import invariants
from torusvass.errors import (CancellationFailure, NotAKnot, SingularBracket,
                              TruncationUnderflow)
from torusvass.groups import Family, product, so_n, su2, su_n
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
    head = one if n == 1 else (one - t(1)) / (one - t(n))
    head = head * t(F((m - 1) * (n - 1), 2) * (N - 1))
    total = TruncSeries.zero(W)
    for i in range(n):
        p = n - 1 - i
        if -p <= N <= i:
            continue
        term = ((left[p] * right[i]) / (fact[i] * fact[p])) \
            * t(m * i + F(p * (p + 1), 2))
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
    inv_br_n = one / br(n)
    head = (br(1) * t(F(n * m) * lam)) / (br(1) + brqs[0])
    total = TruncSeries.constant(1, W) if n % 2 == 0 else TruncSeries.zero(W)
    for g in range(n):
        b = n - 1 - g
        weight = t(F(-m * (b - g), 2) - m * lam)
        bracket = inv_br_n + one / brqs[b - g]
        numer = neg[g] * brqs[0] * pos[b]
        term = ((bracket * numer) / (fact[b] * fact[g])) * weight
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
    res = total / (t(j + 1) - TruncSeries.one(W))
    res = res * t(F(j * (n - 1) * (m - 1), 2))
    return _finalize_normalized(res, trunc_order, f"akutsu-wadati({n},{m};j={j})")


def _outcome(evaluate, *args):
    """The series, or the type and message of what evaluating it raised."""
    try:
        return evaluate(*args)
    except Exception as exc:  # compared as data: same type, same message
        return type(exc), str(exc)


#: every (order, guard) window for n <= 13; above that one window per guard,
#: which still covers each order, so the direct evaluation stays affordable
ALL_WINDOWS = tuple((order, guard) for order in (6, 9, 12) for guard in range(4))
LARGE_N_WINDOWS = ((6, 0), (9, 1), (12, 2), (6, 3))


@pytest.mark.parametrize("n", list(range(1, 14)) + [20, 27, 41])
def test_kernels_equal_direct_evaluation(n):
    # the kernel changes where the work is done, not one coefficient, window,
    # exception type or message; guard 0 and 1 raise TruncationUnderflow for
    # most n, and the unit knot (n, -1) has a skipped Akutsu-Wadati summand
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
        for (evaluate, _, *args), want in zip(cases, expected):
            assert _outcome(evaluate, *args) == want, (warmth, evaluate.__name__, args)


@pytest.mark.parametrize("m", [-5, -1, 2, 7])
def test_mpoly_series_equals_running_sum(m):
    # summands with poles and windows of their own: the product with exp()
    # is known only through width + min_degree, below each summand's trunc
    W = 7
    pole = TruncSeries(-2, [F(1, 3), 2, -1] + [F(k, 5) for k in range(W)], W)
    short = TruncSeries(-1, [F(-7, 2)] + [F(1, k + 2) for k in range(W)], W - 1)
    summands = [(TruncSeries.zero(W), F(0)), (pole, F(3, 4)), (-short, F(-1, 3)),
                (qpower(5, 1, W), F(2))]
    expected = TruncSeries.zero(W)
    for a, rho in summands[1:]:
        expected = expected + a * qpower(m * rho, 1, W)
    assert invariants.MPolySeries.from_series(summands, W).at(m) == expected


def test_five_m_build_one_kernel():
    invariants._kernel.cache_clear()
    for m in (4, 5, -7, 10, -11):
        homfly_normalized((3, m), 4, 6, 2)
    info = invariants._kernel.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    for m in (4, 5, -7, 10, -11):
        kauffman_normalized((3, m), 7, 9, 3)
        akutsu_wadati_normalized((3, m), 2, 9, 3)
    assert invariants._kernel.cache_info().misses == 3


def test_kernel_is_polynomial_in_m():
    # the coefficient of x^d is a polynomial of degree <= d - lo in m
    # at every m, so finite differences of order d - lo + 1 vanish
    _, kernel = invariants._kernel(Family.SO_N, 4, 7, 8)
    series = [kernel.at(m) for m in range(-3, 12)]
    assert all(s.trunc_order == kernel.hi and s.min_degree >= kernel.lo for s in series)
    for d in range(kernel.lo, kernel.hi + 1):
        values = [s.coefficient(d) for s in series]
        for _ in range(d - kernel.lo + 1):
            values = [b - a for a, b in zip(values, values[1:])]
        assert values and not any(values)


def test_unknot_factor_is_memoized():
    unknot_factor.cache_clear()
    first = unknot_factor(so_n(9), 6, 2)
    assert unknot_factor(so_n(9), 6, 2) is first
    assert unknot_factor.cache_info().hits == 1
    # an underflow is raised on every call, never cached
    for _ in range(2):
        with pytest.raises(TruncationUnderflow, match="unknot factor: increase guard terms"):
            unknot_factor(su_n(3), 6, 0)
