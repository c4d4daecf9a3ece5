"""Truncated Laurent series in x over exact rationals.

A :class:`TruncSeries` stores the coefficients of degrees
``min_degree .. trunc_order`` (both inclusive) of a Laurent series in a formal
variable x.  Degrees below ``min_degree`` are exactly zero; degrees above
``trunc_order`` are *unknown* (truncated away), never assumed zero.  Every
operation computes how far its result is reliable:

* a sum is reliable through the smaller of the two truncation orders,
* a product is reliable through ``min(a.trunc + b.min, b.trunc + a.min)``,
  so multiplying by a series of positive valuation *extends* the absolute
  reliable degree (this is what lets quotients of quantum factorials come out
  exact to the requested order),
* a quotient loses the denominator valuation.

All coefficients are :class:`fractions.Fraction`; nothing here ever rounds.
Instances are immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import DivisionByZeroSeries, TruncationUnderflow

Scalar = Union[int, Fraction]


class TruncSeries:
    """A truncated Laurent series with exact rational coefficients."""

    __slots__ = ("min_degree", "coefficients", "trunc_order")

    def __init__(self, min_degree: int, coefficients: Iterable[Scalar], trunc_order: int):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coefficients)
        if len(coeffs) != trunc_order - min_degree + 1:
            raise ValueError(
                f"need {trunc_order - min_degree + 1} coefficients for degrees "
                f"{min_degree}..{trunc_order}, got {len(coeffs)}"
            )
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead == len(coeffs):
            # canonical zero series: min_degree 0, zeros through trunc_order
            trunc = max(trunc_order, 0)
            self.min_degree = 0
            self.coefficients = (Fraction(0),) * (trunc + 1)
            self.trunc_order = trunc
        else:
            self.min_degree = min_degree + lead
            self.coefficients = coeffs[lead:]
            self.trunc_order = trunc_order

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, trunc_order: int) -> "TruncSeries":
        return cls(0, (0,) * (trunc_order + 1), trunc_order)

    @classmethod
    def constant(cls, value: Scalar, trunc_order: int) -> "TruncSeries":
        return cls(0, (value,) + (0,) * trunc_order, trunc_order)

    @classmethod
    def one(cls, trunc_order: int) -> "TruncSeries":
        return cls.constant(1, trunc_order)

    @classmethod
    def x_power(cls, degree: int, trunc_order: int) -> "TruncSeries":
        """The monomial x**degree, known through trunc_order."""
        if degree > trunc_order:
            raise ValueError(f"monomial degree {degree} exceeds trunc_order {trunc_order}")
        return cls(degree, (1,) + (0,) * (trunc_order - degree), trunc_order)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def coefficient(self, degree: int) -> Fraction:
        """Coefficient of x**degree; zero below min_degree, error above trunc_order."""
        if degree > self.trunc_order:
            raise ValueError(f"degree {degree} is beyond truncation {self.trunc_order}")
        if degree < self.min_degree:
            return Fraction(0)
        return self.coefficients[degree - self.min_degree]

    def coefficients_through(self, order: int) -> tuple[Fraction, ...]:
        """Coefficients of degrees 0..order for a series with no pole part."""
        if self.min_degree < 0:
            raise ValueError("series has negative-degree terms")
        return tuple(self.coefficient(d) for d in range(order + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.min_degree == other.min_degree
            and self.trunc_order == other.trunc_order
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash((self.min_degree, self.coefficients, self.trunc_order))

    def agrees_with(self, other: "TruncSeries", through: int) -> bool:
        """Coefficientwise equality on degrees min(min_degrees)..through."""
        lo = min(self.min_degree, other.min_degree)
        return all(self.coefficient(d) == other.coefficient(d) for d in range(lo, through + 1))

    def __repr__(self) -> str:
        terms = [
            f"({c})*x^{self.min_degree + k}"
            for k, c in enumerate(self.coefficients)
            if c != 0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(x^{self.trunc_order + 1})>"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _coerce(self, other: object) -> "TruncSeries | None":
        if isinstance(other, TruncSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncSeries.constant(other, self.trunc_order)
        return None

    def __add__(self, other: object) -> "TruncSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        trunc = min(self.trunc_order, rhs.trunc_order)
        lo = min(self.min_degree, rhs.min_degree)
        return TruncSeries(
            lo,
            [self.coefficient(d) + rhs.coefficient(d) for d in range(lo, trunc + 1)],
            trunc,
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.min_degree, [-c for c in self.coefficients], self.trunc_order)

    def __sub__(self, other: object) -> "TruncSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "TruncSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def scaled(self, factor: Scalar) -> "TruncSeries":
        f = Fraction(factor)
        return TruncSeries(self.min_degree, [f * c for c in self.coefficients], self.trunc_order)

    def __mul__(self, other: object) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b = self, other
        lo = a.min_degree + b.min_degree
        hi = min(a.trunc_order + b.min_degree, b.trunc_order + a.min_degree)
        out = [Fraction(0)] * (hi - lo + 1)
        for i, ai in enumerate(a.coefficients):
            if ai == 0:
                continue
            da = a.min_degree + i
            for k, bk in enumerate(b.coefficients):
                d = da + b.min_degree + k
                if d > hi:
                    break
                if bk != 0:
                    out[d - lo] += ai * bk
        return TruncSeries(lo, out, hi)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            return self.scaled(Fraction(1) / Fraction(other))
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return series_div(self, other)

    def mirrored(self) -> "TruncSeries":
        """The substitution x -> -x (odd-degree coefficients change sign)."""
        return TruncSeries(
            self.min_degree,
            [c if (self.min_degree + k) % 2 == 0 else -c
             for k, c in enumerate(self.coefficients)],
            self.trunc_order,
        )

    def truncated(self, order: int) -> "TruncSeries":
        """Restrict the reliable window to degrees <= order."""
        if order > self.trunc_order:
            raise ValueError(f"cannot extend truncation {self.trunc_order} to {order}")
        if order < self.min_degree:
            return TruncSeries.zero(max(order, 0))
        lo = self.min_degree
        return TruncSeries(lo, self.coefficients[: order - lo + 1], order)


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


def series_exp_linear(rate: Scalar, trunc_order: int) -> TruncSeries:
    """The series of exp(rate*x): sum_{d<=trunc_order} rate**d / d! * x**d."""
    if trunc_order < 0:
        raise ValueError("trunc_order must be >= 0")
    r = Fraction(rate)
    coeffs = [Fraction(1)]
    for d in range(1, trunc_order + 1):
        coeffs.append(coeffs[-1] * r / d)
    return TruncSeries(0, coeffs, trunc_order)


def series_div(num: TruncSeries, den: TruncSeries) -> TruncSeries:
    """Exact Laurent quotient num/den.

    The denominator must have a nonzero lowest stored coefficient (guaranteed
    by normalization unless it is the zero series).  The result's reliable
    truncation is ``min(num.trunc - v, den.trunc - 2v + num.min)`` where v is
    the denominator valuation; if that window cannot reach degree 0 the caller
    did not carry enough guard terms and TruncationUnderflow is raised.
    """
    if den.is_zero():
        raise DivisionByZeroSeries("division by a series with all stored coefficients zero")
    v = den.min_degree
    if num.is_zero():
        return TruncSeries.zero(max(num.trunc_order - v, 0))
    lo = num.min_degree - v
    hi = min(num.trunc_order - v, den.trunc_order - 2 * v + num.min_degree)
    if hi < max(lo, 0):
        raise TruncationUnderflow(
            f"quotient representable only through degree {hi} "
            f"(window starts at {lo}); increase guard terms"
        )
    unit = den.coefficients  # unit[0] != 0 after normalization
    n = hi - lo + 1
    q = [Fraction(0)] * n
    for k in range(n):
        acc = num.coefficient(num.min_degree + k)
        for j in range(max(0, k - len(unit) + 1), k):
            acc -= q[j] * unit[k - j]
        q[k] = acc / unit[0]
    return TruncSeries(lo, q, hi)
