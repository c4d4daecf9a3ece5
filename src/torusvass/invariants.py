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
* m may be negative (the formulas stay well defined); n must be >= 1, which
  every knot reaches through the equivalence {n,m} ~ {-n,-m}.

Per-n kernels.  Each evaluator is a framing factor times a sum
sum_i A_i(x) e^{m rho_i x} (Rosso-Jones form).  The summands A_i (bracket
prefix products, quotients by q-factorials, m-free t-powers) and the rates
rho_i depend only on n, the rank N (or j) and the order W.  The
framing factor is a t-power with an exponent linear in m: its m-linear part
shifts every rate, and its m-free part joins the m-free head (with
Akutsu-Wadati's 1/(t^{j+1} - 1)).  So the x^d coefficients of the sum are
polynomials in m, which :class:`MPolySeries` holds over one denominator.  A
kernel -- the head and that sum -- is built once per (family, n, N or j, W)
and kept in a bounded cache; one knot then costs one polynomial evaluation
and one product, whatever n is.  The HOMFLY and Kauffman summands share their
bracket products and q-factorials as prefix products, so a build costs O(n)
series products; the Akutsu-Wadati summands are bare t-powers, whose Taylor
coefficients the kernel takes straight from the exponents.

Unit brackets.  Every bracket t^a - t^b vanishes at x = 0, so each enters as
x times the unit (t^a - t^b)/x of :func:`_unit`, whose constant term
(a - b)*scale is nonzero.  The HOMFLY and Kauffman summands and heads have as
many brackets above the line as below -- HOMFLY p + i over (i)!(p)!, Kauffman
n over [b]![g]! times the one pole 1/[n] or 1/[b-g;1] -- so their powers of x
cancel and every quotient is by a unit, which loses no degree.  The
Akutsu-Wadati sum vanishes at x = 0 for every m: its rows are built one
degree further and stored from degree -1, which divides by x exactly, and its
head divides by the unit (t^{j+1} - 1)/x.  So every kernel is built and keyed
at exactly W = trunc_order: the invariants are exact Taylor coefficients, and
no width beyond the requested order is needed.  A normalized invariant must
come out with constant term exactly 1; anything else raises.
"""

from __future__ import annotations

import marshal
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import factorial, lcm
from operator import add, mul
from typing import Callable, Iterable, Sequence, Union

from .errors import CancellationFailure, SingularBracket, UnsupportedInput
from .groups import Family, GroupInstance, simple_factors
from .knots import TorusKnot, as_knot
from .series import TruncSeries, series_exp_linear

#: coefficients are needed through x^6
DEFAULT_ORDER = 6

#: kernels kept per process.  A solve round (the default plans at ten values
#: of n, one order) uses 180 keys.  The CLI request mix of the benchmark draws
#: about 650 distinct keys in 8,500 requests: 256 entries hit 37-40% of its
#: lookups in 0.39 MiB, all 650 would hit 69% in 0.93-0.96 MiB (tracemalloc,
#: seeds 1-3), and a miss costs about one direct evaluation, so the smaller
#: bound is kept
KERNEL_CACHE_SIZE = 256

KnotLike = Union[TorusKnot, tuple]


def qpower(exponent, scale, trunc_order: int) -> TruncSeries:
    """The series of t**exponent with t = exp(scale*x)."""
    if type(exponent) is int and type(scale) is int:
        return series_exp_linear(exponent * scale, trunc_order)
    return series_exp_linear(Fraction(exponent) * Fraction(scale), trunc_order)


def _unit(a, b, scale, W: int) -> TruncSeries:
    """(t^a - t^b)/x with t = exp(scale*x), through x^W: the x^k coefficient
    is ((a s)^(k+1) - (b s)^(k+1))/(k+1)!, the constant term (a - b) s.

    With a s = pa/q and b s = pb/q, the x^k numerator over q^(W+1) (W+1)! is
    (pa^(k+1) - pb^(k+1)) q^(W-k) (W+1)!/(k+1)!.
    """
    sa, sb = Fraction(a) * scale, Fraction(b) * scale
    q = lcm(sa.denominator, sb.denominator)
    pa, pb = sa.numerator * (q // sa.denominator), sb.numerator * (q // sb.denominator)
    nums = [0] * (W + 1)
    power_a, power_b = [pa], [pb]
    for _ in range(W):
        power_a.append(power_a[-1] * pa)
        power_b.append(power_b[-1] * pb)
    tail = 1  # q^(W-k) (W+1)!/(k+1)!
    for k in range(W, -1, -1):
        nums[k] = (power_a[k] - power_b[k]) * tail
        tail *= q * (k + 1)
    return TruncSeries.from_numerators(0, nums, q ** (W + 1) * factorial(W + 1), W)


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

    def __init__(self, lo: int, hi: int, den: int,
                 rows: Iterable[tuple[Union[int, Fraction], list]]):
        """sum_i A_i(x) * exp(m * rho_i * x) on degrees lo..hi, for (rho_i,
        row_i) pairs where row_i lists the integer numerators over den of
        A_i on those degrees.

        The x^k coefficient of A * exp(rho m x) is sum_j A[j] (rho m)^(k-j) / (k-j)!,
        so the m^l coefficient of the sum at x^k is sum_i A_i[k-l] rho_i^l / l!.
        With rho_i = r_i / q and E = hi - lo, rho^l / l! = r^l q^(E-l) (E!/l!)
        / (q^E E!).  Rows that share a rate are added first; the build then
        makes one pass over the degrees per (rate, power of m), and a zero
        rate reaches only m^0.
        """
        top = hi - lo
        by_rate: dict = {}
        for rho, row in rows:
            by_rate[rho] = list(map(add, by_rate[rho], row)) if rho in by_rate else row
        q = lcm(*(rho.denominator for rho in by_rate))
        weight = [1] * (top + 1)  # weight[l] = q**(top-l) * top!/l!
        for ell in range(top, 0, -1):
            weight[ell - 1] = weight[ell] * q * ell
        cols = [[0] * (top + 1 - ell) for ell in range(top + 1)]
        for rho, row in by_rate.items():
            r, power = rho.numerator * (q // rho.denominator), 1
            for ell in range(top + 1 if r else 1):
                w = power * weight[ell]
                cols[ell] = list(map(add, cols[ell], map(w.__mul__, row)))
                power *= r
        self.lo, self.hi, self.den = lo, hi, den * q ** top * factorial(top)
        self.coeffs = marshal.dumps([cols[ell][k - ell] for k in range(top + 1)
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
        return cls(0, width, den, rows)

    def at(self, m: int) -> TruncSeries:
        """The series at one value of m."""
        coeffs, top = iter(marshal.loads(self.coeffs)), self.hi - self.lo
        powers = [1]
        for _ in range(top):
            powers.append(powers[-1] * m)
        nums = [sum(map(mul, islice(coeffs, k + 1), powers)) for k in range(top + 1)]
        return TruncSeries.from_numerators(self.lo, nums, self.den, self.hi)


def _finalize_normalized(raw: TruncSeries, what: str) -> TruncSeries:
    if raw.coefficient(0) != 1:
        raise CancellationFailure(
            f"{what}: constant term {raw.coefficient(0)} != 1 (convention bug)"
        )
    return raw


def _homfly_kernel(n: int, N: int, W: int) -> tuple[TruncSeries, MPolySeries]:
    """(1 - t)/(1 - t^n) lambda^{-(n-1)/2} and sum_i (-1)^i A_i t^{m i}
    lambda^{m(n-1)/2}, with A_i = prod_{j=-p..i, j != 0} (t^N - t^j) / ((i)! (p)!)
    * t^{p(p+1)/2}: p + i brackets over p + i, each taken as its unit."""
    def u(a, b) -> TruncSeries:  # (t^a - t^b)/x
        return _unit(a, b, 1, W)

    one = TruncSeries.one(W)
    # prefix products, each over x^a: left[p] = prod_{j=1..p} (t^N - t^-j),
    # right[i] = prod_{j=1..i} (t^N - t^j) for i < N, fact[a] = (a)!
    left, right, fact = [one], [one], [one]
    for a in range(1, n):
        left.append(left[-1] * u(N, -a))
        fact.append(fact[-1] * u(a, 0))
        if a < N:
            right.append(right[-1] * u(N, a))
    shift = Fraction((n - 1) * (N - 1), 2)  # lambda^{(m-1)(n-1)/2} = t^{shift (m - 1)}
    head = one if n == 1 else u(1, 0) * qpower(-shift, 1, W) / u(n, 0)
    summands = []
    for i in range(n):
        p = n - 1 - i
        if -p <= N <= i:
            continue  # the factor (lambda t - t^N) vanishes identically
        # the j = 0 factor of prod_{j=-p..i} (lambda t - t^j) is cancelled
        # against the global 1/(lambda t - 1)
        term = (left[p] * right[i]) / (fact[i] * fact[p]) * qpower(p * (p + 1) // 2, 1, W)
        summands.append((term if i % 2 == 0 else -term, i + shift))
    return head, MPolySeries.from_series(summands, W)


def _kauffman_kernel(n: int, N: int, W: int) -> tuple[TruncSeries, MPolySeries]:
    """[1] / ([1] + [0;1]) and the (-1)^g summands of the Kauffman sum, with
    the m-dependent weight t^{-m(b-g)/2} lambda^{-m} times the framing
    lambda^{nm} as the exponential."""
    lam = Fraction(N - 1, 2)  # lambda = t^{(N-1)/2}, in t-exponent units

    def br(p) -> TruncSeries:  # [p]/x
        return _unit(Fraction(p, 2), Fraction(-p, 2), Fraction(1, 2), W)

    def brq(p) -> TruncSeries:  # [p;1]/x, a unit for N >= n + 2
        return _unit(Fraction(p, 2) + lam, Fraction(-p, 2) - lam, Fraction(1, 2), W)

    one = TruncSeries.one(W)
    brqs = {p: brq(p) for p in range(1 - n, n)}  # every [p;1] a summand uses
    # prefix products, each over x^a: neg[g] = prod_{j=-g..-1} [j;1],
    # pos[b] = prod_{j=1..b} [j;1], fact[a] = [a]!
    neg, pos, fact = [one], [one], [one]
    for a in range(1, n):
        neg.append(neg[-1] * brqs[-a])
        pos.append(pos[-1] * brqs[a])
        fact.append(fact[-1] * br(a))
    inv_br_n = one / br(n)
    head = br(1) / (br(1) + brqs[0])
    # lambda^{nm} = exp(m n lam x / 2) weighs every summand, the start included
    start = TruncSeries.constant(1, W) if n % 2 == 0 else TruncSeries.zero(W)
    summands = [(start, n * lam / 2)]
    for g in range(n):
        b = n - 1 - g
        bracket = inv_br_n + one / brqs[b - g]  # x (1/[n] + 1/[b-g;1])
        numer = neg[g] * brqs[0] * pos[b]  # prod_{j=-g..b} [j;1] over x^n
        term = (bracket * numer) / (fact[b] * fact[g])  # x^{-1} x^n / x^{n-1} = 1
        # t^{-m(b-g)/2} lambda^{-m} lambda^{nm}, t = e^{x/2}
        rate = (Fraction(g - b, 2) + (n - 1) * lam) / 2
        summands.append((term if g % 2 == 0 else -term, rate))
    return head, MPolySeries.from_series(summands, W)


def _akutsu_wadati_kernel(n: int, j: int, W: int) -> tuple[TruncSeries, MPolySeries]:
    """t^{-j(n-1)/2} x / (t^{j+1} - 1) and (1/x) sum_ell (t^{e1} - t^{e2})
    t^{m j(n-1)/2} with e1, e2 linear in m, built from the exponents:
    t^e = exp(e x) has the x^u coefficient e^u ((W+1)!/u!) / (W+1)!.  Every
    term of the sum vanishes at x = 0, whatever m is, so its rows through
    x^(W+1), stored from degree -1, are the sum over x through x^W."""
    shift = Fraction(j * (n - 1), 2)  # t^{j(n-1)(m-1)/2} = t^{shift (m - 1)}
    head = qpower(-shift, 1, W) / _unit(j + 1, 0, 1, W)
    tail = [1] * (W + 2)  # tail[u] = (W+1)!/u!
    for u in range(W + 1, 0, -1):
        tail[u - 1] = tail[u] * u

    def t(e: int, sign: int) -> list:  # sign * t^e over (W+1)!
        power, row = sign, []
        for w in tail:
            row.append(power * w)
            power *= e
        return row

    rows = []
    for ell in range(j + 1):
        # e1 = n(1 + m ell)(j - ell) + 1 + m ell, e2 = n(1 + m ell)(j - ell) + m(j - ell)
        base = n * (j - ell)
        rows.append((ell * (base + 1) + shift, t(base + 1, 1)))
        rows.append(((j - ell) * (n * ell + 1) + shift, t(base, -1)))
    return head, MPolySeries(-1, W, factorial(W + 1), rows)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel(family: Family, n: int, parameter: int, W: int) -> tuple[TruncSeries, MPolySeries]:
    """The m-free head of one evaluator and its sum as polynomials in m."""
    return _FAMILIES[family][0](n, parameter, W)


def _at_knot(family: Family, k: TorusKnot, parameter: int, trunc_order: int,
             what: str) -> TruncSeries:
    """The tail every evaluator shares: the kernel's head times its sum at m."""
    if trunc_order < 0:
        raise UnsupportedInput(f"{what}: trunc_order must be >= 0 (got {trunc_order})")
    head, total = _kernel(family, k.n, parameter, trunc_order)
    return _finalize_normalized(head * total.at(k.m), what)


def homfly_normalized(knot: KnotLike, N: int,
                      trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Series of the normalized torus-knot HOMFLY polynomial for SU(N)."""
    k = as_knot(knot).validate()
    if k.n < 1:
        raise CancellationFailure(f"homfly needs n >= 1 (got {k.n}); apply the "
                                  "equivalence (n,m) ~ (-n,-m)")
    if N < 2:
        raise UnsupportedInput("su_n needs N >= 2")
    return _at_knot(Family.SU_N, k, N, trunc_order, f"homfly({k.n},{k.m};N={N})")


def kauffman_normalized(knot: KnotLike, N: int,
                        trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Series of the normalized torus-knot Kauffman polynomial for SO(N).

    Needs N >= n + 2: the bracket [p;1] expands to a sinh of (p+N-1)x/4 and
    vanishes identically at p = 1 - N, which |p| <= n - 1 would reach for
    smaller N.
    """
    k = as_knot(knot).validate()
    if k.n < 1:
        raise CancellationFailure(f"kauffman needs n >= 1 (got {k.n}); apply the "
                                  "equivalence (n,m) ~ (-n,-m)")
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
    k = as_knot(knot).validate()
    if k.n < 1:
        raise CancellationFailure(f"akutsu-wadati needs n >= 1 (got {k.n}); "
                                  "apply (n,m) ~ (-n,-m)")
    if j < 1:
        raise UnsupportedInput("su2 needs j >= 1")
    return _at_knot(Family.SU2, k, j, trunc_order, f"akutsu-wadati({k.n},{k.m};j={j})")


def _over_factors(group: GroupInstance, trunc_order: int,
                  series_of: Callable[[GroupInstance], TruncSeries]) -> TruncSeries:
    """series_of(factor) multiplied over the simple factors of group; a simple
    group is its own one factor, with no product taken."""
    first, *rest = simple_factors(group)
    series = series_of(first)
    for factor in rest:
        series = (series * series_of(factor)).truncated(trunc_order)
    return series


#: each simple family's kernel builder and evaluator
_FAMILIES = {
    Family.SU_N: (_homfly_kernel, homfly_normalized),
    Family.SO_N: (_kauffman_kernel, kauffman_normalized),
    Family.SU2: (_akutsu_wadati_kernel, akutsu_wadati_normalized),
}


def _simple_normalized(knot: KnotLike, group: GroupInstance, trunc_order: int) -> TruncSeries:
    parameter = group.j if group.family == Family.SU2 else group.N
    return _FAMILIES[group.family][1](knot, parameter, trunc_order)


def _quantum_dimension(group: GroupInstance, trunc_order: int) -> TruncSeries:
    """The unknot factor of a simple group, a finite t-power sum: [N] for
    SU(N), 1 + [N-1] with t = e^{x/2} for SO(N) and [j+1] for SU(2), where
    [p] = sum_{k<p} t^{(p-1)/2 - k}."""
    if group.family == Family.SO_N:
        start, p, scale = 1, group.N - 1, Fraction(1, 2)
    else:
        start, p, scale = 0, group.j + 1 if group.family == Family.SU2 else group.N, 1
    return sum((qpower(Fraction(p - 1, 2) - k, scale, trunc_order) for k in range(p)),
               TruncSeries.constant(start, trunc_order))


@lru_cache(maxsize=128)
def unknot_factor(group: GroupInstance, trunc_order: int = DEFAULT_ORDER) -> TruncSeries:
    """Quantum-dimension series of the unknot; constant term is the classical
    dimension (N, N, j+1, or N(j+1)).  It does not depend on the knot, so it
    is memoized per (group, trunc_order)."""
    if trunc_order < 0:
        raise UnsupportedInput(f"unknot factor of {group.label()}: "
                               f"trunc_order must be >= 0 (got {trunc_order})")
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
    return _over_factors(group, trunc_order, lambda g: (
        _simple_normalized(knot, g, trunc_order) * unknot_factor(g, trunc_order)
    ).truncated(trunc_order))
