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
products over q-factorials, m-free t-powers) and the rates rho_i depend only
on n, the rank N (or j) and the order W.  The
framing factor is a t-power with an exponent linear in m: its m-linear part
shifts every rate, and its m-free part joins the m-free head (with
Akutsu-Wadati's x/(t^{j+1} - 1)).  So the x^d coefficients of the sum are
polynomials in m, which :class:`MPolySeries` holds as one tuple of integer
coefficients per degree over one denominator; its build multiplies the
head, free of m, into them, every power of m kept.  That
kernel -- the normalized invariant as polynomials in m -- is kept in a
bounded cache per (family, n, N or j), at the widest order asked of it so
far; one knot then costs one polynomial evaluation per degree and no series
product, whatever n is.  One function, :func:`_factor_kernel`, checks the
parameter and the order and fetches, builds and checks the kernel; each
evaluator is that fetch and one evaluation at m, and the solver keeps the
fetched kernels of each plan per n.  A HOMFLY or Kauffman summand, its head
folded in, is a rational constant times one exponential of an even series
(two for a Kauffman summand, whose pole 1/[n] + 1/[b-g;1] is a sum), taken
by :func:`.series.exp_even_numerators` from integer power sums of the
bracket widths (next paragraph), so a build multiplies and divides no
series: it costs O(n W^2) integer products, and the m-weights O(n W^2) more.
The Akutsu-Wadati summands are bare t-powers, whose Taylor rows the kernel
takes from one :func:`.series.exp_numerators` call over all 2(j+1)
exponents, its head's t-powers added.  That routine expands every other
t-power here: the m-weights of :class:`MPolySeries` and the unknot factors,
which are one pass of integer power sums.

Unit brackets.  Every bracket t^a - t^b vanishes at x = 0, so each enters as
x times the unit (t^a - t^b)/x, whose constant term a - b is nonzero.  Its
logarithm is exact: log(a - b) + (a + b)x/2 + sum_k beta_k (a - b)^(2k) x^(2k)
with beta_k = B_2k / (2k (2k)!), from the Bernoulli numbers.  The HOMFLY and
Kauffman summands and heads have as many brackets above the line as below --
HOMFLY p + i over (i)!(p)!, Kauffman n over [b]![g]! times the one pole 1/[n]
or 1/[b-g;1] -- so their powers of x cancel, the widths' quotient is the
constant, and the x^(2k) term of the exponent is beta_k times a sum of
(2k)-th powers of widths, read from prefix sums; the linear terms cancel
against the t-powers, and no degree is lost.  The
Akutsu-Wadati sum vanishes at x = 0 for every m: its rows are built one
degree further and stored from degree -1, which divides by x exactly, and its
head, one unit of width j + 1 below the line, is built one degree further
too: every head is made through x^(hi - lo), as far as the rows reach, so
the fold reads no head degree it lacks.  So every kernel is
built at exactly W = trunc_order: the invariants are exact Taylor
coefficients, and no width beyond the requested order is needed.  Nor does
any order key a kernel: its coefficients through x^W are the same whatever
width it was built at, so a cached kernel serves every narrower order by
reading its first degrees, and a wider order rebuilds it once at that order.
Integral rates and exponents are passed as ints, which keeps their expansion
in int arithmetic.  A normalized invariant is 1 + O(x) at every m, and each
new kernel is checked for it once, before it is cached: every polynomial
below x^0 is zero and the one at x^0 is the constant den.  The same check
finds the x^d coefficient, d >= 0, a polynomial of degree at most d in m:
HOMFLY and Kauffman by construction, Akutsu-Wadati because its rates pair up
under ell <-> j - ell, so that its top power of m cancels at every degree.
Anything else raises :class:`.errors.CancellationFailure`, so no evaluation
checks it again.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, factorial, gcd, lcm
from operator import add, mul, neg, sub

from .errors import CancellationFailure, SingularBracket
from .groups import Family, GroupInstance, check_parameter, simple_factors
from .knots import KnotLike, as_knot
from .series import TruncSeries, _make, check_order, exp_even_numerators, exp_numerators

#: coefficients are needed through x^6
DEFAULT_ORDER = 6

#: kernels kept per process, one per (family, n, N or j).  A solve round (the
#: default plans at ten values of n, one order) uses 180, and the solver's
#: per-n records (extract._plan) hold those 180 too, so the solver rebuilds
#: none that this cache evicts.  The CLI request mix of the benchmark, at
#: orders 0..12, uses 100-104 in 8,500 requests: all of them fit, 86-90% of
#: its lookups need no build (the rest widen a kernel to a higher order),
#: and the kernels hold 0.28-0.30 MiB (tracemalloc after 8,500 requests,
#: seeds 1-3).  At the expand limits (n = 128, order 24, N or j up to 130) a
#: kernel holds at most about 14 KiB, so a full cache about 3.5 MiB.  A
#: HOMFLY or Kauffman build costs 1/3 to 1/17 of one direct evaluation by
#: series products, and a knot read from a built HOMFLY kernel 1/13 to 1/32
#: of its build (n = 3..41, orders 6 and 12, best of 7)
KERNEL_CACHE_SIZE = 256


def _ratio(num: int, den: int) -> int | Fraction:
    """num/den, as an int when it is integral: integral rates and exponents
    then stay on int arithmetic, where a Fraction would hash, add and expand
    on its slower path."""
    quotient, rest = divmod(num, den)
    return Fraction(num, den) if rest else quotient


class MPolySeries:
    """A truncated series in x whose coefficients are integer polynomials in m.

    polys[k], k = 0..hi - lo, holds the k + 1 coefficients (m^0..m^k) of
    x**(lo + k): the coefficient at m is sum_l polys[k][l] * m**l / den.
    Tuples throughout, so a kernel, shared through the kernel cache, cannot
    be changed by a caller.
    """

    __slots__ = ("lo", "hi", "polys", "den")

    def __init__(self, lo: int, hi: int, den: int, polys: Iterable[Iterable[int]]):
        self.lo, self.hi, self.den = lo, hi, den
        self.polys = tuple(map(tuple, polys))

    @classmethod
    def from_rows(cls, lo: int, hi: int, den: int,
                  rows: Iterable[tuple[int | Fraction, list]],
                  head: TruncSeries) -> "MPolySeries":
        """head * sum_i A_i(x) * exp(m * rho_i * x) on degrees lo..hi, for
        (rho_i, row_i) pairs where row_i lists the integer numerators over den
        of A_i on those degrees, and an m-free power series head known
        through x^(hi - lo).

        The x^k coefficient of A * exp(rho m x) is sum_j A[j] (rho m)^(k-j) / (k-j)!,
        so the m^l coefficient of the sum at x^k is sum_i A_i[k-l] rho_i^l / l!,
        which :func:`.series.exp_numerators` gives over one denominator.
        Rows that share a rate are added first; the build then makes one pass
        over the degrees per (rate, power of m), and a zero rate reaches only
        m^0.  The head multiplies in with every power of m kept: the
        polynomial at x^(lo+k) is the sum over e of head's x^(k-e)
        coefficient times the sum's polynomial at x^(lo+e).
        """
        top = hi - lo
        if head.trunc_order < top:
            raise ValueError(f"head known through x^{head.trunc_order}, needed through x^{top}")
        by_rate: dict = {}
        for rho, row in rows:
            by_rate[rho] = list(map(add, by_rate[rho], row)) if rho in by_rate else row
        weights, scale = exp_numerators(by_rate, top)
        cols = [[0] * (top + 1 - ell) for ell in range(top + 1)]
        for weight, row in zip(weights, by_rate.values()):
            for ell, w in enumerate(weight):
                if w:
                    cols[ell] = list(map(add, cols[ell], map(w.__mul__, row)))
        polys = [[cols[ell][k - ell] for ell in range(k + 1)] for k in range(top + 1)]
        h = [head.numerator(i) for i in range(top + 1)]  # over head.den
        out = []
        for k in range(top + 1):
            acc = [0] * (k + 1)
            for e, poly in enumerate(polys[:k + 1]):
                if h[k - e]:
                    acc[:e + 1] = map(add, acc, map(h[k - e].__mul__, poly))
            out.append(acc)
        den *= scale * head.den
        g = gcd(den, *(c for p in out for c in p))
        return cls(lo, hi, den // g, ([c // g for c in p] for p in out))

    def at(self, m: int, hi: int) -> TruncSeries:
        """The power series at one value of m, through x^hi <= self.hi, for
        lo <= 0: the polynomials below x^0 are zero (:func:`_factor_kernel`
        checks it for every kernel it builds), so the series starts at x^0.
        The polynomials are kept by degree, so a narrower series reads only
        the first of them."""
        if hi > self.hi:
            raise ValueError(f"series known through x^{self.hi}, asked for x^{hi}")
        top = hi - self.lo
        powers = [1]
        for _ in range(top):
            powers.append(powers[-1] * m)
        nums = [sum(map(mul, poly, powers)) for poly in self.polys[-self.lo:top + 1]]
        return _make(0, nums, self.den, hi)


def _bernoulli(top: int) -> list[Fraction]:
    """B_0, .., B_top from B_0 = 1 and sum_{j<=m} C(m+1, j) B_j = 0, m >= 1."""
    numbers = [Fraction(1)]
    for m in range(1, top + 1):
        numbers.append(-sum(comb(m + 1, j) * b for j, b in enumerate(numbers)) / (m + 1))
    return numbers


#: one entry per (order // 2, unit): the CLI's orders 0..24 make 13 per unit
@lru_cache(maxsize=32)
def _log_unit(top: int, q: int) -> tuple[tuple[int, ...], int]:
    """beta_k / q^(2k) for k = 1..top, as integer numerators over one
    denominator, with beta_k = B_2k / (2k (2k)!): the x^(2k) coefficient of
    log((e^{ax} - e^{bx}) / x) is beta_k (a - b)^(2k), so a bracket of width
    a - b = w/q adds beta_k / q^(2k) * w^(2k) there."""
    betas = [b / (d * factorial(d) * q ** d)
             for d, b in enumerate(_bernoulli(2 * top)) if d and d % 2 == 0]
    den = lcm(*(b.denominator for b in betas))
    return tuple(b.numerator * (den // b.denominator) for b in betas), den


def _even_powers(v: int, top: int) -> list[int]:
    """v^2, v^4, .., v^(2 top)."""
    return list(accumulate(repeat(v * v, top), mul))


def _power_sums(values: Iterable[int], top: int) -> list[list[int]]:
    """sums[c][k-1] = the sum of v^(2k) over the first c values, k = 1..top."""
    return list(accumulate((_even_powers(v, top) for v in values),
                           lambda s, p: list(map(add, s, p)), initial=[0] * top))


def _exponential_kernel(summands: Iterable[tuple[int | Fraction, int, Iterable[int]]],
                        den: int, q: int, W: int) -> MPolySeries:
    """sum_i scale_i / den * exp(sum_k beta_k sums_i[k-1] (x/q)^(2k)) * exp(m rho_i x)
    on degrees 0..W, for (rho_i, scale_i, sums_i) triples with integer
    scales and power sums: each summand is one even exponential, expanded by
    :func:`.series.exp_even_numerators`, and no series is multiplied or
    divided."""
    betas, log_den = _log_unit(W // 2, q)
    rows = []
    for rho, scale, sums in summands:
        row, exp_den = exp_even_numerators(list(map(mul, betas, sums)), log_den, W)
        rows.append((rho, [scale * c for c in row]))
    return MPolySeries.from_rows(0, W, den * exp_den, rows, TruncSeries.one(W))


def _homfly_kernel(n: int, N: int, W: int) -> MPolySeries:
    """(1 - t)/(1 - t^n) lambda^{-(n-1)/2} times sum_i (-1)^i A_i t^{m i}
    lambda^{m(n-1)/2}, with A_i = prod_{j=-p..i, j != 0} (t^N - t^j) / ((i)! (p)!)
    * t^{p(p+1)/2}: p + i brackets over p + i.

    With the head folded in, summand i is C_i exp(sum_k beta_k S_k x^(2k)),
    where C_i = (-1)^i prod_{a<=p} (N+a) prod_{a<=i} (N-a) / (n i! p!) and
    S_k sums the (2k)-th powers of the widths above the line, N - i..N + p
    but N, less those below it, 1..i, 1..p and the head's n, plus the head's
    1; the linear terms (a + b)x/2 of the brackets cancel the t-powers."""
    top = W // 2
    shift = _ratio((n - 1) * (N - 1), 2)  # lambda^{(m-1)(n-1)/2} = t^{shift (m - 1)}
    count = min(n, N)  # at i >= N the factor (lambda t - t^N) vanishes identically
    low = N + 1 - count
    window = _power_sums(range(low, N + n), top)  # every width N - i..N + p, i < count
    fact = _power_sums(range(1, n), top)
    base = [1 - a - b for a, b in zip(_even_powers(n, top), _even_powers(N, top))]
    summands = []
    for i in range(count):
        p, c = n - 1 - i, N - i - low
        sums = [b + w1 - w0 - f - g for b, w1, w0, f, g
                in zip(base, window[c + n], window[c], fact[i], fact[p])]
        scale = comb(n - 1, i) * factorial(N + p) // (factorial(N - 1 - i) * N)  # C_i n!
        summands.append((i + shift, -scale if i % 2 else scale, sums))
    return _exponential_kernel(summands, factorial(n), 1, W)


def _kauffman_kernel(n: int, N: int, W: int) -> MPolySeries:
    """[1] / ([1] + [0;1]) times the (-1)^g summands of the Kauffman sum, with
    the m-dependent weight t^{-m(b-g)/2} lambda^{-m} times the framing
    lambda^{nm} as the exponential.

    t = e^{x/2} and lambda = t^{(N-1)/2} make every bracket symmetric, with
    no linear term: [a] has width a/2 and [j;1] width (j + N - 1)/2, 2a and
    2(j + N - 1) in quarters.  The head is
    (1/N) sinh(x/4) / (sinh(Nx/8) cosh((N-2)x/8)), and
    log cosh y = sum_k beta_k 4^k (4^k - 1) y^(2k), so it adds
    2^(2k) - N^(2k) - (4^k - 1)(N-2)^(2k) in quarters.  The factor
    1/[n] + 1/[b-g;1] makes two exponentials of summand g, over
    prod_{j=-g..b} [j;1] / ([b]! [g]!) with the one bracket [n] or [b-g;1]
    removed."""
    top = W // 2
    head = [4 ** k - a - (4 ** k - 1) * b for k, a, b
            in zip(range(1, top + 1), _even_powers(N, top), _even_powers(N - 2, top))]
    window = _power_sums(range(2 * (N - n), 2 * (N + n - 1), 2), top)  # 2(j + N - 1), j >= 1 - n
    fact = _power_sums(range(2, 2 * n, 2), top)
    nth = _even_powers(2 * n, top)
    # lambda^{nm} = exp(m n (N-1) x / 4) weighs every summand, the start included;
    # the start is 1 at even n and 0 at odd n, where it is left out
    summands = [(_ratio(n * (N - 1), 4), factorial(n), head)] if n % 2 == 0 else []
    for g in range(n):
        b = n - 1 - g
        sums = [h + w1 - w0 - f - e for h, w1, w0, f, e
                in zip(head, window[n + b], window[b], fact[b], fact[g])]
        # N n! C: prod_{j=-g..b} (j + N - 1) comb(n - 1, g), over [n] or [b-g;1]
        numer = (-1) ** g * comb(n - 1, g) * factorial(N - 1 + b) // factorial(N - 2 - g)
        rate = _ratio(g - b + (n - 1) * (N - 1), 4)  # t^{-m(b-g)/2} lambda^{-m} lambda^{nm}
        summands.append((rate, numer, list(map(sub, sums, nth))))
        summands.append((rate, numer * n // (N - 1 + b - g),
                         list(map(sub, sums, _even_powers(2 * (N - 1 + b - g), top)))))
    return _exponential_kernel(summands, N * factorial(n), 4, W)


def _akutsu_wadati_kernel(n: int, j: int, W: int) -> MPolySeries:
    """t^{-j(n-1)/2} x / (t^{j+1} - 1) times (1/x) sum_ell (t^{e1} - t^{e2})
    t^{m j(n-1)/2} with e1, e2 linear in m.  The head is
    (1/(j+1)) t^{-(j+1)/2} exp(-sum_k beta_k (j+1)^(2k) x^(2k)) t^{-shift}:
    its t-powers join the m-free parts of all 2(j+1) exponents, expanded in
    one call, and no series is divided.  Every term of the sum vanishes at
    x = 0, whatever m is, so its rows through x^(W+1), stored from degree -1,
    are the sum over x through x^W; the head spans the same W + 2 degrees."""
    shift = _ratio(j * (n - 1), 2)  # t^{j(n-1)(m-1)/2} = t^{shift (m - 1)}
    lift = _ratio(-(j * n + 1), 2)  # -shift - (j + 1)/2
    top = (W + 1) // 2
    betas, log_den = _log_unit(top, 1)
    row, exp_den = exp_even_numerators([-b * p for b, p in zip(betas, _even_powers(j + 1, top))],
                                       log_den, W + 1)
    head = TruncSeries.from_numerators(0, row, exp_den * (j + 1), W + 1)
    # e1 = n(1 + m ell)(j - ell) + 1 + m ell, e2 = n(1 + m ell)(j - ell) + m(j - ell)
    powers, den = exp_numerators([n * (j - ell) + e + lift for ell in range(j + 1)
                                  for e in (1, 0)], W + 1)
    rows = []
    for ell in range(j + 1):
        base = n * (j - ell)
        rows.append((shift + ell * (base + 1), powers[2 * ell]))
        rows.append((shift + (j - ell) * (n * ell + 1), list(map(neg, powers[2 * ell + 1]))))
    return MPolySeries.from_rows(-1, W, den, rows, head)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel(family: Family, n: int, parameter: int) -> list:
    """The one-cell slot [(W, kernel)] of one evaluator: the normalized
    invariant as polynomials in m, its m-free head folded in, through x^W.
    It starts empty, at W = -1, and :func:`_factor_kernel` widens it.  The
    cell is read and replaced whole, so a caller never sees a width and a
    kernel that do not belong together; two threads that widen one slot at
    once each use their own build, and the later store stays."""
    return [(-1, None)]


#: each simple family's kernel builder
_FAMILIES = {
    Family.SU_N: _homfly_kernel,
    Family.SO_N: _kauffman_kernel,
    Family.SU2: _akutsu_wadati_kernel,
}

#: each simple family's evaluator name, parameter name and parameter floor;
#: SO(N)'s floor N >= n + 2 depends on the knot, and is checked apart
_EVALUATORS = {
    Family.SU_N: ("homfly", "N", 2),
    Family.SO_N: ("kauffman", "N", None),
    Family.SU2: ("akutsu-wadati", "j", 1),
}

#: an evaluator's label in its errors, as homfly(n,m;N=4)
_LABEL = "{}({},{};{}={})"


def _factor_kernel(family: Family, n: int, parameter: int, trunc_order: int,
                   m: int | str = "m") -> MPolySeries:
    """The kernel of one simple family at n >= 1 through at least
    x^trunc_order: the normalized invariant of every T(n, m) as polynomials
    in m, which MPolySeries.at evaluates at one m.  It checks the parameter,
    SO(N)'s floor N >= n + 2 and the order, in that order.  A kernel's
    coefficients through x^W do not depend on the width it was built at, so
    a wider kernel serves the order by reading its first degrees; a narrower
    kernel is rebuilt once at the order, which replaces it.  A new kernel is
    checked before it is stored, for every m at once, so a bad one is never
    kept.  m only labels an error; the solver, which fetches each kernel once
    for every m, leaves it "m"."""
    name, symbol, floor = _EVALUATORS[family]
    check_parameter(family, symbol, parameter, floor)
    if family == Family.SO_N and parameter < n + 2:
        raise SingularBracket(f"so_n sampling needs N >= n + 2 = {n + 2} (got N={parameter}): "
                              "a required bracket [p;1] would have vanishing leading term")
    check_order(trunc_order, _LABEL, name, n, m, symbol, parameter)
    slot = _kernel(family, n, parameter)
    width, kernel = slot[0]
    if width < trunc_order:
        kernel = _FAMILIES[family](n, parameter, trunc_order)
        polys, lo = kernel.polys, kernel.lo
        # 1 + O(x) at every m: the polynomials at x^lo..x^0, which lead the
        # kernel, are zero but for the constant den at x^0; so the x^-1
        # polynomial of an Akutsu-Wadati kernel is zero, and at() starts
        # every series at x^0
        if any(map(any, polys[:-lo])) or polys[-lo] != (kernel.den,) + (0,) * -lo:
            raise CancellationFailure(f"{_LABEL.format(name, n, m, symbol, parameter)}: the "
                                      "kernel is not 1 + O(x) at every m (convention bug)")
        # degree at most d in m at x^d, d >= 0: the polynomial at x^(lo+k)
        # has m^0..m^k, and its last -lo coefficients, above m^(lo+k), are
        # zero (none for lo = 0)
        if lo and any(any(p[lo:]) for p in polys[-lo:]):
            raise CancellationFailure(f"{_LABEL.format(name, n, m, symbol, parameter)}: the "
                                      "kernel's x^d coefficient has a power of m above m^d "
                                      "(convention bug)")
        slot[0] = trunc_order, kernel
    return kernel


def homfly_normalized(knot: KnotLike, N: int,
                      trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Series of the normalized torus-knot HOMFLY polynomial for SU(N)."""
    k = as_knot(knot).validate().oriented()
    return _factor_kernel(Family.SU_N, k.n, N, trunc_order, k.m).at(k.m, trunc_order)


def kauffman_normalized(knot: KnotLike, N: int,
                        trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Series of the normalized torus-knot Kauffman polynomial for SO(N).

    Needs N >= n + 2: the bracket [p;1] expands to a sinh of (p+N-1)x/4 and
    vanishes identically at p = 1 - N, which |p| <= n - 1 would reach for
    smaller N.
    """
    k = as_knot(knot).validate().oriented()
    return _factor_kernel(Family.SO_N, k.n, N, trunc_order, k.m).at(k.m, trunc_order)


def akutsu_wadati_normalized(knot: KnotLike, j: int,
                             trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Series of the normalized Jones (j=1) / Akutsu-Wadati (j>1) polynomial.

    The sum telescopes to t^{j+1} - 1 at n = 1, which is what makes the
    normalized unknot value exactly 1.
    """
    k = as_knot(knot).validate().oriented()
    return _factor_kernel(Family.SU2, k.n, j, trunc_order, k.m).at(k.m, trunc_order)


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


def _simple_normalized(knot: KnotLike, group: GroupInstance, trunc_order: int) -> TruncSeries:
    """A simple group's evaluator, called by its module-level name, so that
    whatever rebinds the name (a tracer, a test) sees every call of
    normalized_series and unnormalized_series.  The solver calls neither: it
    reads each factor's kernel from :func:`_factor_kernel`."""
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
    check_order(trunc_order, "unknot factor of {}", group.label())
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
