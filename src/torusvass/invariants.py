"""Quantum polynomial invariants of torus knots as truncated series in x.

The three evaluators expand the closed torus-knot forms of the HOMFLY
polynomial (SU(N) fundamental), the Kauffman polynomial (SO(N) fundamental)
and the Jones / Akutsu-Wadati polynomial (SU(2), spin j/2) around t = 1 by
the substitution

    t = e^x        for SU(N) and SU(2),
    t = e^{x/2}    for SO(N),

with lambda = t^{N-1} for HOMFLY and lambda = t^{(N-1)/2} for Kauffman.
Conventions:

* q-factorials: (a) = t^a - 1 with (i)! = prod_{a=1..i} (t^a - 1) and
  (0)! = 1;  [p] = t^{p/2} - t^{-p/2} with [b]! = prod_{a=1..b} [a];
  [p;q] = t^{p/2} lambda^q - t^{-p/2} lambda^{-q}.
* The HOMFLY prefactor 1/(lambda t - 1) is cancelled symbolically against the
  j = 0 factor of prod_{j=-p..i} (lambda t - t^j), which every summand
  contains; no series division by lambda t - 1 ever happens.
* All series are computed at a concrete integer N (or j); the polynomial
  dependence on the parameter is recovered downstream by exact interpolation.
* m may be negative (the formulas stay well defined); a knot with n <= -1
  is evaluated as {-n,-m}, the same knot with n >= 1.

Per-n kernels.  Each evaluator is a framing factor times a sum
sum_i A_i(x) e^{m rho_i x} (Rosso-Jones form).  The summands A_i (bracket
prefix products, quotients by q-factorials, m-free t-powers) and the rates
rho_i depend only on n, the rank N (or j) and the order W.  The
framing factor is a t-power with an exponent linear in m: its m-linear part
shifts every rate, and its m-free part joins the m-free head (with
Akutsu-Wadati's 1/(t^{j+1} - 1)).  So the x^d coefficients of the sum are
polynomials in m, which :class:`MPolySeries` holds over one denominator, and
the head, free of m, is multiplied into them once per build
(:meth:`MPolySeries.times`), every power of m kept.  That kernel -- the
normalized invariant as polynomials in m -- is kept in a bounded cache per
(family, n, N or j), at the widest order asked of it so far; one knot then
costs one polynomial evaluation per degree and no series product, whatever
n is.  The HOMFLY and Kauffman summands share their bracket products and
reciprocal q-factorials as prefix products (each step multiplies by the
reciprocal of one small unit), so a build costs O(n) series products and
divides by no large series, and
the fold O(W^3) integer products; the Akutsu-Wadati summands
are bare t-powers, whose Taylor rows the kernel takes from one
:func:`.series.exp_numerators` call over all 2(j+1) exponents.  That routine
expands every t-power here: the unit brackets, the m-weights of
:class:`MPolySeries` and the unknot factors, which are one pass of integer
power sums.

Unit brackets.  Every bracket t^a - t^b vanishes at x = 0, so each enters as
x times the unit (t^a - t^b)/x of :func:`_unit`, whose constant term is
nonzero.  The HOMFLY and Kauffman summands and heads have as
many brackets above the line as below -- HOMFLY p + i over (i)!(p)!, Kauffman
n over [b]![g]! times the one pole 1/[n] or 1/[b-g;1] -- so their powers of x
cancel and every quotient is by a unit, which loses no degree.  The
Akutsu-Wadati sum vanishes at x = 0 for every m: its rows are built one
degree further and stored from degree -1, which divides by x exactly (the
polynomial at degree -1 is zero, so the fold needs the head only through
x^W), and its head divides by the unit (t^{j+1} - 1)/x.  So every kernel is built at
exactly W = trunc_order: the invariants are exact Taylor coefficients, and no
width beyond the requested order is needed.  Nor does any order key a kernel:
its coefficients through x^W are the same whatever width it was built at, so
a cached kernel serves every narrower order by reading its first degrees, and
a wider order rebuilds it once at that order.  Integral rates and exponents
are passed as ints, which keeps their expansion in int arithmetic.  A
normalized invariant must come out with constant term exactly 1; anything
else raises.
"""

from __future__ import annotations

import marshal
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Callable, Iterable, Sequence, Union

from .errors import CancellationFailure, SingularBracket, UnsupportedInput
from .groups import Family, GroupInstance, check_parameter, simple_factors
from .knots import KnotLike, TorusKnot, as_knot
from .series import TruncSeries, exp_numerators, series_exp_linear

#: coefficients are needed through x^6
DEFAULT_ORDER = 6

#: kernels kept per process, one per (family, n, N or j).  A solve round (the
#: default plans at ten values of n, one order) uses 180.  The CLI request mix
#: of the benchmark, at orders 0..12, uses 104 in 8,500 requests: all of them
#: fit, 87-88% of its lookups need no build (the rest widen a kernel to a
#: higher order), and the kernels, heads folded in, hold 0.11 MiB (tracemalloc
#: after 8,500 requests, seeds 1-3; 0.23 MiB with the head kept apart).  A
#: build costs about one direct evaluation
KERNEL_CACHE_SIZE = 256


def qpower(exponent, scale, trunc_order: int) -> TruncSeries:
    """The series of t**exponent with t = exp(scale*x)."""
    _check_order(trunc_order, "qpower")
    if type(exponent) is int and type(scale) is int:
        return series_exp_linear(exponent * scale, trunc_order)
    return series_exp_linear(Fraction(exponent) * Fraction(scale), trunc_order)


def _ratio(num: int, den: int) -> Union[int, Fraction]:
    """num/den, as an int when it is integral: integral rates and exponents
    then stay on int arithmetic, where a Fraction would hash, add and expand
    on its slower path."""
    quotient, rest = divmod(num, den)
    return Fraction(num, den) if rest else quotient


def _unit(a, b, W: int) -> TruncSeries:
    """(e^{ax} - e^{bx})/x through x^W: the difference of the two
    exponentials through x^(W+1), shifted down one degree.  Its constant term
    is a - b."""
    (row_a, row_b), den = exp_numerators((a, b), W + 1)
    return TruncSeries.from_numerators(0, list(map(sub, row_a[1:], row_b[1:])), den, W)


class MPolySeries:
    """A truncated series in x whose coefficients are integer polynomials in m.

    The coefficient of x**(lo + k) at m is sum_l p_k[l] * m**l / den for
    k = 0..hi - lo, where p_k lists its k + 1 coefficients, ascending.
    p_0, p_1, .., p_{hi-lo} are kept one after another in one list, stored
    as :mod:`marshal` bytes: a cached kernel then costs the bytes of its
    integers, not an object per integer.  Immutable and shared through the
    kernel cache.
    """

    __slots__ = ("lo", "hi", "coeffs", "den")

    def __init__(self, lo: int, hi: int, den: int, flat: list):
        """The polynomials p_0, .., p_{hi-lo}, one after another in flat."""
        self.lo, self.hi, self.den = lo, hi, den
        self.coeffs = marshal.dumps(flat)

    @classmethod
    def from_rows(cls, lo: int, hi: int, den: int,
                  rows: Iterable[tuple[Union[int, Fraction], list]]) -> "MPolySeries":
        """sum_i A_i(x) * exp(m * rho_i * x) on degrees lo..hi, for (rho_i,
        row_i) pairs where row_i lists the integer numerators over den of
        A_i on those degrees.

        The x^k coefficient of A * exp(rho m x) is sum_j A[j] (rho m)^(k-j) / (k-j)!,
        so the m^l coefficient of the sum at x^k is sum_i A_i[k-l] rho_i^l / l!,
        which :func:`.series.exp_numerators` gives over one denominator.
        Rows that share a rate are added first; the build then makes one pass
        over the degrees per (rate, power of m), and a zero rate reaches only
        m^0.
        """
        top = hi - lo
        by_rate: dict = {}
        for rho, row in rows:
            by_rate[rho] = list(map(add, by_rate[rho], row)) if rho in by_rate else row
        weights, scale = exp_numerators(by_rate, top)
        cols = [[0] * (top + 1 - ell) for ell in range(top + 1)]
        for weight, row in zip(weights, by_rate.values()):
            for ell, w in enumerate(weight):
                if w:
                    cols[ell] = list(map(add, cols[ell], map(w.__mul__, row)))
        return cls(lo, hi, den * scale, [cols[ell][k - ell] for k in range(top + 1)
                                         for ell in range(k + 1)])

    @classmethod
    def from_series(cls, summands: Sequence[tuple[TruncSeries, Union[int, Fraction]]],
                    width: int) -> "MPolySeries":
        """sum_i A_i(x) * exp(m * rho_i * x) on degrees 0..width, for (A_i,
        rho_i) pairs of power series known through x^width."""
        den = lcm(*(a.den for a, _ in summands))
        rows = []  # each A over den on degrees 0..width
        for a, rho in summands:
            scale = den // a.den
            row = [0] * a.min_degree + [c * scale for c in a.nums]
            rows.append((rho, row[:width + 1]))
        return cls.from_rows(0, width, den, rows)

    def at(self, m: int, hi: int) -> TruncSeries:
        """The series at one value of m, through x^hi <= self.hi.  The
        polynomials are stored by degree, so a narrower series reads only the
        first of them."""
        if hi > self.hi:
            raise ValueError(f"series known through x^{self.hi}, asked for x^{hi}")
        coeffs, top = iter(marshal.loads(self.coeffs)), hi - self.lo
        powers = [1]
        for _ in range(top):
            powers.append(powers[-1] * m)
        nums = [sum(map(mul, islice(coeffs, k + 1), powers)) for k in range(top + 1)]
        return TruncSeries.from_numerators(self.lo, nums, self.den, hi)

    def times(self, head: TruncSeries) -> "MPolySeries":
        """head * self, for an m-free power series head, on the same degrees
        and with every power of m kept: the polynomial at x^d is the sum of
        head's x^(d-e) coefficient times the polynomial at x^e.  The head is
        known through its trunc_order, so only an identically zero
        polynomial (the Akutsu-Wadati degree -1) may meet a head degree
        beyond it, and it adds nothing."""
        flat, top, h = marshal.loads(self.coeffs), self.hi - self.lo, head.nums
        polys = [flat[k * (k + 1) // 2:(k + 1) * (k + 2) // 2] for k in range(top + 1)]
        out = []
        for k in range(top + 1):
            acc = [0] * (k + 1)
            for e, poly in enumerate(polys[:k + 1]):
                i = k - e - head.min_degree  # head's x^(k-e) coefficient is h[i] / head.den
                if i >= len(h):
                    if any(poly):
                        raise ValueError(f"head known through x^{head.trunc_order}, "
                                         f"needed through x^{k - e}")
                elif i >= 0 and h[i]:
                    acc[:e + 1] = map(add, acc, map(h[i].__mul__, poly))
            out += acc
        den = self.den * head.den
        g = gcd(den, *out)
        return MPolySeries(self.lo, self.hi, den // g, [c // g for c in out])


def _finalize_normalized(raw: TruncSeries, what: str) -> TruncSeries:
    """raw, whose constant term must be exactly 1, read off its integers."""
    if raw.min_degree > 0 or raw.nums[-raw.min_degree] != raw.den:
        raise CancellationFailure(
            f"{what}: constant term {raw.coefficient(0)} != 1 (convention bug)"
        )
    return raw


def _homfly_kernel(n: int, N: int, W: int) -> MPolySeries:
    """(1 - t)/(1 - t^n) lambda^{-(n-1)/2} times sum_i (-1)^i A_i t^{m i}
    lambda^{m(n-1)/2}, with A_i = prod_{j=-p..i, j != 0} (t^N - t^j) / ((i)! (p)!)
    * t^{p(p+1)/2}: p + i brackets over p + i, each taken as its unit."""
    def u(a, b) -> TruncSeries:  # (t^a - t^b)/x
        return _unit(a, b, W)

    one = TruncSeries.one(W)
    # prefix products, each over x^a: left[p] = prod_{j=1..p} (t^N - t^-j),
    # right[i] = prod_{j=1..i} (t^N - t^j) for i < N, and inv_fact[a] =
    # 1/(a)!, whose quotients are each by one small unit: a quotient by a
    # whole (i)!(p)! raises its large constant term to the W-th power
    left, right, inv_fact = [one], [one], [one]
    for a in range(1, n):
        left.append(left[-1] * u(N, -a))
        inv_fact.append(inv_fact[-1] * (one / u(a, 0)))
        if a < N:
            right.append(right[-1] * u(N, a))
    shift = _ratio((n - 1) * (N - 1), 2)  # lambda^{(m-1)(n-1)/2} = t^{shift (m - 1)}
    head = one if n == 1 else u(1, 0) * qpower(-shift, 1, W) / u(n, 0)
    summands = []
    for i in range(n):
        p = n - 1 - i
        if -p <= N <= i:
            continue  # the factor (lambda t - t^N) vanishes identically
        # the j = 0 factor of prod_{j=-p..i} (lambda t - t^j) is cancelled
        # against the global 1/(lambda t - 1)
        term = left[p] * right[i] * inv_fact[i] * inv_fact[p] * qpower(p * (p + 1) // 2, 1, W)
        summands.append((term if i % 2 == 0 else -term, i + shift))
    return MPolySeries.from_series(summands, W).times(head)


def _kauffman_kernel(n: int, N: int, W: int) -> MPolySeries:
    """[1] / ([1] + [0;1]) times the (-1)^g summands of the Kauffman sum, with
    the m-dependent weight t^{-m(b-g)/2} lambda^{-m} times the framing
    lambda^{nm} as the exponential."""
    # lambda = t^{(N-1)/2} and t = e^{x/2}, so [p] = e^{px/4} - e^{-px/4}
    def br(p) -> TruncSeries:  # [p]/x
        return _unit(_ratio(p, 4), _ratio(-p, 4), W)

    def brq(p) -> TruncSeries:  # [p;1]/x, a unit for N >= n + 2
        return _unit(_ratio(p + N - 1, 4), _ratio(1 - N - p, 4), W)

    one = TruncSeries.one(W)
    brqs = {p: brq(p) for p in range(1 - n, n)}  # every [p;1] a summand uses
    # prefix products, each over x^a: neg[g] = prod_{j=-g..-1} [j;1],
    # pos[b] = prod_{j=1..b} [j;1], inv_fact[a] = 1/[a]!, built from the
    # reciprocals of single brackets as in _homfly_kernel
    neg, pos, inv_fact = [one], [one], [one]
    for a in range(1, n):
        neg.append(neg[-1] * brqs[-a])
        pos.append(pos[-1] * brqs[a])
        inv_fact.append(inv_fact[-1] * (one / br(a)))
    inv_br_n = one / br(n)
    head = br(1) / (br(1) + brqs[0])
    # lambda^{nm} = exp(m n (N-1) x / 4) weighs every summand, the start included;
    # the start is 1 at even n and 0 at odd n, where it is left out
    summands = [(one, _ratio(n * (N - 1), 4))] if n % 2 == 0 else []
    for g in range(n):
        b = n - 1 - g
        bracket = inv_br_n + one / brqs[b - g]  # x (1/[n] + 1/[b-g;1])
        numer = neg[g] * brqs[0] * pos[b]  # prod_{j=-g..b} [j;1] over x^n
        term = bracket * numer * inv_fact[b] * inv_fact[g]  # x^{-1} x^n / x^{n-1} = 1
        # t^{-m(b-g)/2} lambda^{-m} lambda^{nm}, t = e^{x/2}
        rate = _ratio(g - b + (n - 1) * (N - 1), 4)
        summands.append((term if g % 2 == 0 else -term, rate))
    return MPolySeries.from_series(summands, W).times(head)


def _akutsu_wadati_kernel(n: int, j: int, W: int) -> MPolySeries:
    """t^{-j(n-1)/2} x / (t^{j+1} - 1) times (1/x) sum_ell (t^{e1} - t^{e2})
    t^{m j(n-1)/2} with e1, e2 linear in m, built from the exponents: the
    m-free parts of all 2(j+1) of them are expanded in one call.  Every
    term of the sum vanishes at x = 0, whatever m is, so its rows through
    x^(W+1), stored from degree -1, are the sum over x through x^W; the
    polynomial at degree -1 is zero, so the head is needed only through x^W."""
    shift = _ratio(j * (n - 1), 2)  # t^{j(n-1)(m-1)/2} = t^{shift (m - 1)}
    head = qpower(-shift, 1, W) / _unit(j + 1, 0, W)
    # e1 = n(1 + m ell)(j - ell) + 1 + m ell, e2 = n(1 + m ell)(j - ell) + m(j - ell)
    powers, den = exp_numerators([n * (j - ell) + e for ell in range(j + 1) for e in (1, 0)],
                                 W + 1)
    rows = []
    for ell in range(j + 1):
        base = n * (j - ell)
        rows.append((shift + ell * (base + 1), powers[2 * ell]))
        rows.append((shift + (j - ell) * (n * ell + 1), list(map(neg, powers[2 * ell + 1]))))
    return MPolySeries.from_rows(-1, W, den, rows).times(head)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel(family: Family, n: int, parameter: int) -> list:
    """The one-cell slot [(W, kernel)] of one evaluator: the normalized
    invariant as polynomials in m, its m-free head folded in, through x^W.
    It starts empty, at W = -1, and :func:`_at_knot` widens it.  The cell is
    read and replaced whole, so a caller never sees a width and a kernel that
    do not belong together; two threads that widen one slot at once each use
    their own build, and the later store stays."""
    return [(-1, None)]


def _check_order(trunc_order, what: str) -> None:
    """The one order check: an int (not a bool) >= 0."""
    if type(trunc_order) is not int:
        raise UnsupportedInput(f"{what}: trunc_order must be an int (got {trunc_order!r})")
    if trunc_order < 0:
        raise UnsupportedInput(f"{what}: trunc_order must be >= 0 (got {trunc_order})")


def _at_knot(family: Family, k: TorusKnot, parameter: int, trunc_order: int,
             what: str) -> TruncSeries:
    """The tail every evaluator shares: the kernel at m, one polynomial
    evaluation per degree and no series product.  A kernel's coefficients
    through x^W do not depend on the width it was built at, so a wider kernel
    serves the order by reading its first degrees; a narrower kernel is
    rebuilt once at the order, which replaces it."""
    _check_order(trunc_order, what)
    slot = _kernel(family, k.n, parameter)
    width, kernel = slot[0]
    if width < trunc_order:
        kernel = _FAMILIES[family](k.n, parameter, trunc_order)
        slot[0] = trunc_order, kernel
    return _finalize_normalized(kernel.at(k.m, trunc_order), what)


def homfly_normalized(knot: KnotLike, N: int,
                      trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Series of the normalized torus-knot HOMFLY polynomial for SU(N)."""
    k = as_knot(knot).validate().oriented()
    check_parameter(Family.SU_N, "N", N, 2)
    return _at_knot(Family.SU_N, k, N, trunc_order, f"homfly({k.n},{k.m};N={N})")


def kauffman_normalized(knot: KnotLike, N: int,
                        trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Series of the normalized torus-knot Kauffman polynomial for SO(N).

    Needs N >= n + 2: the bracket [p;1] expands to a sinh of (p+N-1)x/4 and
    vanishes identically at p = 1 - N, which |p| <= n - 1 would reach for
    smaller N.
    """
    k = as_knot(knot).validate().oriented()
    check_parameter(Family.SO_N, "N", N, None)
    if N < k.n + 2:
        raise SingularBracket(f"so_n sampling needs N >= n + 2 = {k.n + 2} (got N={N}): "
                              "a required bracket [p;1] would have vanishing leading term")
    return _at_knot(Family.SO_N, k, N, trunc_order, f"kauffman({k.n},{k.m};N={N})")


def akutsu_wadati_normalized(knot: KnotLike, j: int,
                             trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Series of the normalized Jones (j=1) / Akutsu-Wadati (j>1) polynomial.

    The sum telescopes to t^{j+1} - 1 at n = 1, which is what makes the
    normalized unknot value exactly 1.
    """
    k = as_knot(knot).validate().oriented()
    check_parameter(Family.SU2, "j", j, 1)
    return _at_knot(Family.SU2, k, j, trunc_order, f"akutsu-wadati({k.n},{k.m};j={j})")


def _over_factors(group: GroupInstance, trunc_order: int,
                  series_of: Callable[[GroupInstance], TruncSeries]) -> TruncSeries:
    """series_of(factor) multiplied over the simple factors of group; a simple
    group is its own one factor, with no product taken.  Each factor starts
    at degree 0, so the product ends at trunc_order too."""
    first, *rest = simple_factors(group)
    series = series_of(first)
    for factor in rest:
        series = series * series_of(factor)
    return series


#: each simple family's kernel builder
_FAMILIES = {
    Family.SU_N: _homfly_kernel,
    Family.SO_N: _kauffman_kernel,
    Family.SU2: _akutsu_wadati_kernel,
}


def _simple_normalized(knot: KnotLike, group: GroupInstance, trunc_order: int) -> TruncSeries:
    """A simple group's evaluator, called by its module-level name, so that
    whatever rebinds the name (a tracer, a test) sees every call."""
    if group.family == Family.SU2:
        return akutsu_wadati_normalized(knot, group.j, trunc_order)
    if group.family == Family.SO_N:
        return kauffman_normalized(knot, group.N, trunc_order)
    return homfly_normalized(knot, group.N, trunc_order)


def _quantum_dimension(group: GroupInstance, trunc_order: int) -> TruncSeries:
    """The unknot factor of a simple group, a finite t-power sum: [N] for
    SU(N), 1 + [N-1] with t = e^{x/2} for SO(N) and [j+1] for SU(2), where
    [p] = sum_{k<p} t^{(p-1)/2 - k}."""
    if group.family == Family.SO_N:  # t^e = e^{ex/2}: the rates are (p-1-2k)/4
        start, p, q = 1, group.N - 1, 4
    else:
        start, p, q = 0, group.j + 1 if group.family == Family.SU2 else group.N, 2
    rows, den = exp_numerators([_ratio(p - 1 - 2 * k, q) for k in range(p)], trunc_order)
    nums = [sum(column) for column in zip(*rows)]
    nums[0] += start * den
    return TruncSeries.from_numerators(0, nums, den, trunc_order)


def unknot_factor(group: GroupInstance, trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Quantum-dimension series of the unknot; constant term is the classical
    dimension (N, N, j+1, or N(j+1)).  It does not depend on the knot: the
    solver takes each plan's unknot factors once, when it makes the plan
    ready."""
    _check_order(trunc_order, f"unknot factor of {group.label()}")
    return _over_factors(group, trunc_order, lambda g: _quantum_dimension(g, trunc_order))


def normalized_series(knot: KnotLike, group: GroupInstance,
                      trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Normalized invariant series for any supported group instance.

    For the product group the normalized series is the product of the two
    normalized factors (unknot factors multiply, so normalization survives
    the product).
    """
    return _over_factors(group, trunc_order,
                         lambda g: _simple_normalized(knot, g, trunc_order))


def unnormalized_series(knot: KnotLike, group: GroupInstance,
                        trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Wilson-line series: normalized invariant times the unknot factor.

    The product group factorizes as the product of the two unnormalized
    series.
    """
    return _over_factors(group, trunc_order, lambda g: _simple_normalized(
        knot, g, trunc_order) * unknot_factor(g, trunc_order))
