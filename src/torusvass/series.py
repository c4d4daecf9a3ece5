"""Truncated power series in x over exact rationals.

A :class:`TruncSeries` stores the coefficients of degrees
``min_degree .. trunc_order`` (both inclusive, ``min_degree >= 0``) of a power
series in a formal variable x.  Degrees below ``min_degree`` are exactly zero;
degrees above ``trunc_order`` are *unknown* (truncated away), never assumed
zero.  Every operation computes how far its result is reliable:

* a sum is reliable through the smaller of the two truncation orders,
* a product is reliable through ``min(a.trunc + b.min, b.trunc + a.min)``,
  so multiplying by a series of positive valuation *extends* the absolute
  reliable degree.

Representation.  The coefficients are Python ints ``nums`` over one common
denominator ``den``: the coefficient of ``x**(min_degree + k)`` is
``nums[k] / den``.  The pair is canonical: ``den > 0``,
``gcd(den, *nums) == 1``, ``nums[0] != 0`` unless the series is zero, and the
zero series has ``min_degree`` 0, ``den`` 1 and zeros through
``trunc_order``.  So two series are equal exactly when their four fields are,
and equal series hash alike.  A sum works over the lcm of the two
denominators and a product is an integer convolution over the product of the
denominators; each result is reduced by one multi-argument gcd.  The public
constructors check the window: ``min_degree`` and ``trunc_order`` are ints
(not bools) >= 0, by :func:`check_order`, which also checks every order the
evaluators take.

Exponentials.  :func:`exp_numerators` is the one routine that expands
exp(r*x): for rates p_i/q over one q it gives the integer rows
p_i**d * q**(W-d) * W!/d! over ``q**W * W!``; the evaluators in
:mod:`.invariants` take every t-power they expand from it.
:func:`exp_even_numerators` expands exp(f) for an even series f held as
integer numerators over one denominator, in integers; each HOMFLY and
Kauffman summand and each Akutsu-Wadati head is one such exponential.

Integer arithmetic never rounds, so every coefficient is the exact rational
that :class:`fractions.Fraction` arithmetic gives, and it is read back as
one: ``coefficient``, ``coefficients`` and ``coefficients_through`` return
reduced Fractions.  Instances are immutable and safe to share between
threads.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import UnsupportedInput

Scalar = int | Fraction


def check_order(order, what: str, *args, name: str = "trunc_order") -> None:
    """The one check of a degree bound: an int (not a bool) >= 0.  Its error
    names what.format(*args) and the argument, formatted only when it
    raises."""
    if type(order) is not int:
        raise UnsupportedInput(f"{what.format(*args)}: {name} must be an int (got {order!r})")
    if order < 0:
        raise UnsupportedInput(f"{what.format(*args)}: {name} must be >= 0 (got {order})")


class TruncSeries:
    """A truncated power series with exact rational coefficients."""

    __slots__ = ("min_degree", "nums", "den", "trunc_order")

    def __init__(self, min_degree: int, coefficients: Iterable[Scalar], trunc_order: int):
        _check_window(min_degree, trunc_order)
        coeffs = [c if type(c) is int or type(c) is Fraction else Fraction(c)
                  for c in coefficients]
        if len(coeffs) != trunc_order - min_degree + 1:
            raise ValueError(
                f"need {trunc_order - min_degree + 1} coefficients for degrees "
                f"{min_degree}..{trunc_order}, got {len(coeffs)}"
            )
        den = lcm(*(c.denominator for c in coeffs))
        _assign(self, min_degree, [c.numerator * (den // c.denominator) for c in coeffs],
                den, trunc_order)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, trunc_order: int) -> "TruncSeries":
        return cls.constant(0, trunc_order)

    @classmethod
    def constant(cls, value: Scalar, trunc_order: int) -> "TruncSeries":
        check_order(trunc_order, "TruncSeries")  # before the window is built from it
        return cls(0, (value,) + (0,) * trunc_order, trunc_order)

    @classmethod
    def one(cls, trunc_order: int) -> "TruncSeries":
        return cls.constant(1, trunc_order)

    @classmethod
    def from_numerators(cls, min_degree: int, nums: list, den: int,
                        trunc_order: int) -> "TruncSeries":
        """The series with coefficient nums[k] / den at degree min_degree + k,
        for Python-int nums over den > 0, degrees min_degree..trunc_order."""
        _check_window(min_degree, trunc_order)
        if den <= 0 or len(nums) != trunc_order - min_degree + 1:
            raise ValueError(
                f"need {trunc_order - min_degree + 1} numerators over a positive "
                f"denominator, got {len(nums)} over {den}"
            )
        return _make(min_degree, nums, den, trunc_order)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The stored coefficients, degrees min_degree..trunc_order."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    def is_zero(self) -> bool:
        return not self.nums[0]  # canonical: a nonzero series has nums[0] != 0

    def coefficient(self, degree: int) -> Fraction:
        """Coefficient of x**degree; zero below min_degree, error above trunc_order."""
        return Fraction(self.numerator(degree), self.den)

    def numerator(self, degree: int) -> int:
        """The coefficient of x**degree times den, an int, with coefficient's
        range rule."""
        if degree > self.trunc_order:
            raise ValueError(f"degree {degree} is beyond truncation {self.trunc_order}")
        return self.nums[degree - self.min_degree] if degree >= self.min_degree else 0

    def coefficients_through(self, order: int) -> tuple[Fraction, ...]:
        """Coefficients of degrees 0..order."""
        return tuple(self.coefficient(d) for d in range(order + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.min_degree == other.min_degree
            and self.trunc_order == other.trunc_order
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.min_degree, self.nums, self.den, self.trunc_order))

    def agrees_with(self, other: "TruncSeries", through: int) -> bool:
        """Coefficientwise equality on degrees 0..through."""
        return all(self.coefficient(d) == other.coefficient(d) for d in range(through + 1))

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
        da, db = self.den, rhs.den
        g = gcd(da, db)
        den, fa, fb = da // g * db, db // g, da // g  # den = lcm(da, db)
        out = [0] * (trunc - lo + 1)
        # a series whose window starts above trunc contributes nothing
        for k, c in enumerate(self.nums[:max(trunc - self.min_degree + 1, 0)],
                              self.min_degree - lo):
            out[k] = c * fa
        for k, c in enumerate(rhs.nums[:max(trunc - rhs.min_degree + 1, 0)],
                              rhs.min_degree - lo):
            out[k] += c * fb
        return _make(lo, out, den, trunc)

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return _make(self.min_degree, [-c for c in self.nums], self.den, self.trunc_order)

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
        return _make(self.min_degree, [f.numerator * c for c in self.nums],
                     self.den * f.denominator, self.trunc_order)

    def __mul__(self, other: object) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b = self.nums, other.nums
        lo = self.min_degree + other.min_degree
        hi = min(self.trunc_order + other.min_degree, other.trunc_order + self.min_degree)
        out = []
        for k in range(hi - lo + 1):  # hi - lo < min(len(a), len(b))
            acc = 0
            for i in range(k + 1):
                acc += a[i] * b[k - i]
            out.append(acc)
        return _make(lo, out, self.den * other.den, hi)

    __rmul__ = __mul__

    def mirrored(self) -> "TruncSeries":
        """The substitution x -> -x (odd-degree coefficients change sign)."""
        return _make(
            self.min_degree,
            [c if (self.min_degree + k) % 2 == 0 else -c for k, c in enumerate(self.nums)],
            self.den,
            self.trunc_order,
        )


# ----------------------------------------------------------------------
# canonical form
# ----------------------------------------------------------------------


def _check_window(min_degree, trunc_order) -> None:
    """A public constructor's window: both ends ints >= 0."""
    check_order(min_degree, "TruncSeries", name="min_degree")
    check_order(trunc_order, "TruncSeries")


def _assign(series: TruncSeries, lo: int, nums: list, den: int, hi: int) -> TruncSeries:
    """Store nums/den on degrees lo..hi (den > 0) in canonical form."""
    lead = 0
    while lead < len(nums) and not nums[lead]:
        lead += 1
    if lead == len(nums):
        # canonical zero series: min_degree 0, zeros through trunc_order
        series.min_degree, series.nums, series.den, series.trunc_order = \
            0, (0,) * (hi + 1), 1, hi
        return series
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [c // g for c in nums]
    series.min_degree, series.nums, series.den, series.trunc_order = \
        lo + lead, tuple(nums[lead:]), den, hi
    return series


def _make(lo: int, nums: list, den: int, hi: int) -> TruncSeries:
    """A new canonical series from integer numerators over den > 0."""
    return _assign(object.__new__(TruncSeries), lo, nums, den, hi)


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


def exp_numerators(rates: Collection[Scalar], trunc_order: int) -> tuple[list[list[int]], int]:
    """The Taylor coefficients of exp(r*x) through x**trunc_order for each
    int or Fraction rate r, as integer rows over one denominator.

    With the rates written p_i/q over one q (the lcm of their denominators)
    and W = trunc_order, row i holds p_i**d * q**(W-d) * W!/d! for
    d = 0..W, over den = q**W * W!.  Returns (rows, den).
    """
    if trunc_order < 0:
        raise ValueError("trunc_order must be >= 0")
    q = lcm(*[r.denominator for r in rates])
    tail = [1] * (trunc_order + 1)  # tail[d] = q**(W-d) * W!/d!
    for d in range(trunc_order, 0, -1):
        tail[d - 1] = tail[d] * q * d
    rows = []
    for r in rates:
        p = r.numerator * (q // r.denominator)
        power, row = 1, []
        for w in tail:
            row.append(power * w)
            power *= p
        rows.append(row)
    return rows, tail[0]


def exp_even_numerators(nums: Sequence[int], den: int, trunc_order: int) -> tuple[list[int], int]:
    """The Taylor coefficients of exp(f) through x**trunc_order for the even
    series f = sum_k nums[k-1]/den * x**(2k), k = 1..K with K = trunc_order // 2,
    as integer numerators over one denominator.

    The x**(2k) coefficient E_k of exp(f) solves k E_k = sum_{j<=k} j f_j E_{k-j}
    (f_j = 0 past the end of nums).  Its numerator e_k = E_k den**k k! is an
    integer: e_0 = 1 and
    e_k = sum_{j<=k} j nums[j-1] den**(j-1) (k-1)!/(k-j)! e_{k-j}.  Degree 2k
    holds e_k den**(K-k) K!/k! over den**K K!, and every odd degree is zero.
    Returns (row, den).
    """
    if trunc_order < 0:
        raise ValueError("trunc_order must be >= 0")
    top = trunc_order // 2
    weights = [j * c * den ** (j - 1) for j, c in enumerate(nums[:top], 1)]
    e = [1]
    for k in range(1, top + 1):
        acc, falling = 0, 1  # falling = (k-1)!/(k-j)!
        for j in range(1, min(k, len(weights)) + 1):
            acc += weights[j - 1] * falling * e[k - j]
            falling *= k - j
        e.append(acc)
    tail = [1] * (top + 1)  # tail[k] = den**(K-k) K!/k!
    for k in range(top, 0, -1):
        tail[k - 1] = tail[k] * den * k
    row = [0] * (trunc_order + 1)
    row[::2] = map(mul, e, tail)
    return row, tail[0]
