"""Truncated series arithmetic: frozen examples and algebraic properties."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusvass.errors import DivisionByZeroSeries, TruncationUnderflow
from torusvass.series import TruncSeries, series_div, series_exp_linear


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
