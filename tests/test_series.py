"""Truncated series arithmetic: frozen examples and algebraic properties."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusvass.errors import DivisionByZeroSeries, TruncationUnderflow
from torusvass.series import TruncSeries, exp_numerators, series_div, series_exp_linear


def coeffs(s, order):
    return [s.coefficient(d) for d in range(order + 1)]


def test_exp_zero_rate():
    s = series_exp_linear(0, 6)
    assert coeffs(s, 6) == [1, 0, 0, 0, 0, 0, 0]


def test_exp_rate_one():
    assert coeffs(series_exp_linear(1, 2), 2) == [1, 1, F(1, 2)]


def test_exp_rate_three_halves():
    # direct factorial evaluation: (3/2)^2 / 2 = 9/8
    assert coeffs(series_exp_linear(F(3, 2), 2), 2) == [1, F(3, 2), F(9, 8)]


def test_mul_difference_of_squares():
    one = TruncSeries.one(6)
    x = TruncSeries.x_power(1, 6)
    prod = (one + x) * (one - x)
    assert coeffs(prod, 6) == [1, 0, -1, 0, 0, 0, 0]


def test_mul_laurent_degree_cancellation():
    xinv = TruncSeries(-1, [1] + [0] * 7, 6)
    x = TruncSeries.x_power(1, 6)
    prod = xinv * x
    assert prod.min_degree == 0
    assert prod.coefficient(0) == 1


def test_exp_product_is_one():
    prod = series_exp_linear(1, 6) * series_exp_linear(-1, 6)
    assert coeffs(prod, 6) == [1, 0, 0, 0, 0, 0, 0]


def test_div_known_expansion():
    # (1-t)/(1-t^2) with t = e^x equals 1/(1+e^x); the expansion
    # (1 - tanh(x/2))/2 = 1/2 - x/4 + x^3/48 - ... pins the coefficients.
    t = series_exp_linear(1, 6)
    one = TruncSeries.one(6)
    q = series_div(one - t, one - t * t)
    assert coeffs(q, 4) == [F(1, 2), F(-1, 4), 0, F(1, 48), 0]


def test_self_division():
    s = series_exp_linear(F(2, 3), 6) - TruncSeries.one(6)  # valuation 1
    q = s / s
    assert q.min_degree == 0
    assert all(q.coefficient(d) == (1 if d == 0 else 0)
               for d in range(q.trunc_order + 1))


def test_div_geometric_factorization():
    # (e^{2x} - 1)/(e^x - 1) = e^x + 1
    t = series_exp_linear(1, 8)
    t2 = series_exp_linear(2, 8)
    one = TruncSeries.one(8)
    q = (t2 - one) / (t - one)
    expected = series_exp_linear(1, 6) + TruncSeries.one(6)
    assert coeffs(q, 6) == coeffs(expected, 6)


def test_div_by_zero_series():
    with pytest.raises(DivisionByZeroSeries):
        TruncSeries.one(4) / TruncSeries.zero(4)


def test_truncation_underflow():
    num = TruncSeries.one(1)
    den = TruncSeries.x_power(2, 2)
    with pytest.raises(TruncationUnderflow):
        num / den


def test_div_tracks_reliable_truncation():
    num = series_exp_linear(1, 8) - TruncSeries.one(8)   # valuation 1
    den = series_exp_linear(2, 8) - TruncSeries.one(8)   # valuation 1
    q = num / den
    assert q.min_degree == 0
    assert q.trunc_order == 7  # one order lost to the denominator valuation


def test_zero_series_canonical_form():
    z = TruncSeries(3, [0, 0], 4)
    assert z.min_degree == 0 and z.is_zero() and z.trunc_order == 4


def test_mirror():
    s = series_exp_linear(1, 4)
    assert coeffs(s.mirrored(), 4) == coeffs(series_exp_linear(-1, 4), 4)


def test_coefficient_beyond_truncation_raises():
    with pytest.raises(ValueError):
        TruncSeries.one(3).coefficient(4)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def power_series(order=6):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(
        lambda cs: TruncSeries(0, cs, order))


@settings(max_examples=60, deadline=None)
@given(power_series(), power_series(), power_series())
def test_ring_axioms(a, b, c):
    order = min((a * b * c).trunc_order, 6)
    assert ((a + b) + c).agrees_with(a + (b + c), 6)
    assert (a * b).agrees_with(b * a, (a * b).trunc_order)
    assert (a * (b + c)).agrees_with(a * b + a * c, order)
    assert ((a * b) * c).agrees_with(a * (b * c), order)


@settings(max_examples=60, deadline=None)
@given(power_series(), power_series())
def test_mul_div_roundtrip(a, b):
    if b.is_zero():
        return
    q = (a * b) / b
    assert q.agrees_with(a, q.trunc_order)


@settings(max_examples=40, deadline=None)
@given(rationals, rationals)
def test_exp_additivity(p, q):
    lhs = series_exp_linear(p, 6) * series_exp_linear(q, 6)
    assert lhs.agrees_with(series_exp_linear(p + q, 6), 6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(-9, 9),
                          st.fractions(min_value=-6, max_value=6, max_denominator=7)),
                min_size=1, max_size=5),
       st.integers(0, 24))
def test_exp_numerators_match_reference(rates, W):
    # row i over den is exp(rates[i] * x) through x^W, in Fractions
    rows, den = exp_numerators(rates, W)
    q = math.lcm(*(F(r).denominator for r in rates))
    assert den == q ** W * math.factorial(W)
    assert len(rows) == len(rates)
    for r, row in zip(rates, rows):
        assert all(type(c) is int for c in row)
        assert [F(c, den) for c in row] == [F(r) ** d / math.factorial(d) for d in range(W + 1)]
    with pytest.raises(ValueError):
        exp_numerators(rates, -1 - W)


# ----------------------------------------------------------------------
# equivalence with the Fraction-coefficient kernel
# ----------------------------------------------------------------------

class RefSeries:
    """The earlier kernel, one Fraction per stored coefficient, kept as the
    reference the integer-numerator kernel must equal operation by operation."""

    def __init__(self, min_degree, coefficients, trunc_order):
        coeffs = tuple(F(c) for c in coefficients)
        if len(coeffs) != trunc_order - min_degree + 1:
            raise ValueError(
                f"need {trunc_order - min_degree + 1} coefficients for degrees "
                f"{min_degree}..{trunc_order}, got {len(coeffs)}"
            )
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead == len(coeffs):
            trunc = max(trunc_order, 0)
            self.min_degree, self.coefficients, self.trunc_order = \
                0, (F(0),) * (trunc + 1), trunc
        else:
            self.min_degree = min_degree + lead
            self.coefficients = coeffs[lead:]
            self.trunc_order = trunc_order

    def is_zero(self):
        return all(c == 0 for c in self.coefficients)

    def coefficient(self, degree):
        if degree > self.trunc_order:
            raise ValueError(f"degree {degree} is beyond truncation {self.trunc_order}")
        if degree < self.min_degree:
            return F(0)
        return self.coefficients[degree - self.min_degree]

    def _coerce(self, other):
        if isinstance(other, RefSeries):
            return other
        return RefSeries(0, (other,) + (0,) * self.trunc_order, self.trunc_order)

    def __add__(self, other):
        rhs = self._coerce(other)
        trunc = min(self.trunc_order, rhs.trunc_order)
        lo = min(self.min_degree, rhs.min_degree)
        return RefSeries(lo, [self.coefficient(d) + rhs.coefficient(d)
                              for d in range(lo, trunc + 1)], trunc)

    def __neg__(self):
        return RefSeries(self.min_degree, [-c for c in self.coefficients], self.trunc_order)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def scaled(self, factor):
        f = F(factor)
        return RefSeries(self.min_degree, [f * c for c in self.coefficients], self.trunc_order)

    def __mul__(self, other):
        if not isinstance(other, RefSeries):
            return self.scaled(other)
        a, b = self, other
        lo = a.min_degree + b.min_degree
        hi = min(a.trunc_order + b.min_degree, b.trunc_order + a.min_degree)
        out = [F(0)] * (hi - lo + 1)
        for i, ai in enumerate(a.coefficients):
            for k, bk in enumerate(b.coefficients):
                d = a.min_degree + i + b.min_degree + k
                if d > hi:
                    break
                out[d - lo] += ai * bk
        return RefSeries(lo, out, hi)

    def __truediv__(self, other):
        if not isinstance(other, RefSeries):
            return self.scaled(F(1) / F(other))
        return ref_div(self, other)

    def mirrored(self):
        return RefSeries(self.min_degree,
                         [c if (self.min_degree + k) % 2 == 0 else -c
                          for k, c in enumerate(self.coefficients)], self.trunc_order)

    def truncated(self, order):
        if order > self.trunc_order:
            raise ValueError(f"cannot extend truncation {self.trunc_order} to {order}")
        if order < self.min_degree:
            return RefSeries(0, (0,) * (max(order, 0) + 1), max(order, 0))
        lo = self.min_degree
        return RefSeries(lo, self.coefficients[: order - lo + 1], order)


def ref_exp(rate, trunc_order):
    if trunc_order < 0:
        raise ValueError("trunc_order must be >= 0")
    coeffs = [F(1)]
    for d in range(1, trunc_order + 1):
        coeffs.append(coeffs[-1] * F(rate) / d)
    return RefSeries(0, coeffs, trunc_order)


def ref_div(num, den):
    if den.is_zero():
        raise DivisionByZeroSeries("division by a series with all stored coefficients zero")
    v = den.min_degree
    if num.is_zero():
        trunc = max(num.trunc_order - v, 0)
        return RefSeries(0, (0,) * (trunc + 1), trunc)
    lo = num.min_degree - v
    hi = min(num.trunc_order - v, den.trunc_order - 2 * v + num.min_degree)
    if hi < max(lo, 0):
        raise TruncationUnderflow(
            f"quotient representable only through degree {hi} "
            f"(window starts at {lo}); the operands carry too few terms"
        )
    unit = den.coefficients
    q = [F(0)] * (hi - lo + 1)
    for k in range(len(q)):
        acc = num.coefficient(num.min_degree + k)
        for j in range(max(0, k - len(unit) + 1), k):
            acc -= q[j] * unit[k - j]
        q[k] = acc / unit[0]
    return RefSeries(lo, q, hi)


def outcome(fn, *args):
    """(window, coefficients) of the result, or (exception type, message)."""
    try:
        s = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return s.min_degree, s.trunc_order, tuple(s.coefficients)


def assert_canonical(s):
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
    assert len(s.nums) == s.trunc_order - s.min_degree + 1
    if s.is_zero():
        assert (s.min_degree, s.den) == (0, 1) and not any(s.nums)
    else:
        assert s.nums[0] != 0
    # the same value built from its Fractions has the same fields and hash
    again = TruncSeries(s.min_degree, s.coefficients, s.trunc_order)
    assert (again.nums, again.den) == (s.nums, s.den)
    assert again == s and hash(again) == hash(s)


@st.composite
def windows(draw):
    """(min_degree, coefficients, trunc_order): negative degrees, leading
    zeros and all-zero windows included."""
    lo = draw(st.integers(-3, 3))
    body = draw(st.lists(rationals, min_size=1, max_size=7))
    if draw(st.integers(0, 5)) == 0:
        body = [F(0)] * len(body)
    coefficients = [F(0)] * draw(st.integers(0, 2)) + body
    return lo, coefficients, lo + len(coefficients) - 1


def both(window):
    return TruncSeries(*window), RefSeries(*window)


scalars = st.one_of(st.integers(-5, 5), rationals)

BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(BINARY)), windows(), windows())
def test_binary_ops_match_reference(name, wa, wb):
    (a, ra), (b, rb) = both(wa), both(wb)
    op = BINARY[name]
    got = outcome(op, a, b)
    assert got == outcome(op, ra, rb)
    if isinstance(got[0], int):
        assert_canonical(op(a, b))


@settings(max_examples=100, deadline=None)
@given(windows(), scalars, st.integers(-4, 9))
def test_unary_ops_match_reference(window, factor, order):
    s, r = both(window)
    assert_canonical(s)
    for fn in (lambda x: x.scaled(factor), lambda x: x * factor, lambda x: x + factor,
               lambda x: x - factor, lambda x: x / factor, lambda x: -x,
               lambda x: x.mirrored(), lambda x: x.truncated(order)):
        got = outcome(fn, s)
        assert got == outcome(fn, r)
        if isinstance(got[0], int):
            assert_canonical(fn(s))


@settings(max_examples=60, deadline=None)
@given(scalars, st.integers(-1, 12))
def test_exp_matches_reference(rate, order):
    got = outcome(series_exp_linear, rate, order)
    assert got == outcome(ref_exp, rate, order)
    if order >= 0:
        assert_canonical(series_exp_linear(rate, order))


def test_error_paths_match_reference():
    cases = [
        ((0, [1, 0, 0, 0, 0], 4), (0, [0] * 5, 4)),  # all-zero denominator
        ((0, [1, 0], 1), (2, [1], 2)),                # window cannot reach degree 0
        ((-2, [F(1, 2), 3], -1), (1, [2, 0, 1], 3)),
    ]
    for wn, wd in cases:
        (n, rn), (d, rd) = both(wn), both(wd)
        got = outcome(series_div, n, d)
        assert got == outcome(ref_div, rn, rd)
        assert got[0] in (DivisionByZeroSeries, TruncationUnderflow)
    assert outcome(TruncSeries, 0, [1, 2], 3) == outcome(RefSeries, 0, [1, 2], 3)
    assert outcome(lambda: TruncSeries.one(2).truncated(3)) == \
        outcome(lambda: RefSeries(0, [1, 0, 0], 2).truncated(3))


@pytest.mark.parametrize("build", [
    # a summand whose window starts above the sum's truncation
    lambda S: S(5, [1, 0, 2, 0], 8) + S(0, [1, 0, 0, 0], 3),
    lambda S: S(0, [3, 0, 0, 0], 3) - S(5, [1, 2, 0, 1, 0, 0], 10),
    # the lowest denominator coefficient is -1, so u0**n is negative
    lambda S: S(0, [1, 0, 0], 2) / S(0, [-1, 1, 0], 2),
    lambda S: S(-1, [F(1, 3), 1, 0, 0], 2) / S(1, [-2, 0, 5, 1], 4),
], ids=["add-above", "sub-above", "div-unit-minus-one", "div-negative-unit"])
def test_edge_windows_match_reference(build):
    got = build(TruncSeries)
    assert outcome(build, TruncSeries) == outcome(build, RefSeries)
    assert_canonical(got)


def test_equal_values_share_fields():
    a = TruncSeries(-1, [F(2, 3), F(4, 3), 0], 1)
    b = TruncSeries(-1, [F(4, 6), F(8, 6), F(0)], 1)
    assert (a.nums, a.den) == (b.nums, b.den) == ((2, 4, 0), 3)
    assert a == b and hash(a) == hash(b)
    assert a.scaled(3).scaled(F(1, 3)) == a
    assert (a - a) == TruncSeries.zero(1) and (a - a).den == 1
